import cmath
import dataclasses
import math

import pytest

from magskin.geometry import Surface, TangentVector, mean_minus_curvature_apply, shifted_inverse_metric
from magskin.params import PhysicalConfig, derive_params
from magskin.profiles import (
    HarmonicScalarField,
    HarmonicTangentField,
    LayerField,
    TraceData,
    apply_b,
    apply_l1,
    cutoff_chi,
    eval_fke1,
    eval_w0,
    eval_w1,
    layer_modulus_sq,
    make_w0,
    make_w1,
    modulus_expansion_gm,
)
from magskin.skin import DecayTrace, comparison_report, skin_depth_numeric

from conftest import bits, cylinder_traces, log_grid, loglog_slope

LAM = derive_params(
    PhysicalConfig(omega=1, eps0=1, mu_plus=1, mu_minus=100, sigma_plus=0.01, sigma_minus=1)
).lam


def test_w0_boundary_value_is_trace():
    tr, _ = cylinder_traces()
    y = (0.4, -0.2)
    v = eval_w0(tr, LAM, y, 0.0)
    e0 = tr.e0_trace.value(y)
    assert abs(v.c1 - e0.c1) + abs(v.c2 - e0.c2) <= 1e-15


def test_w0_zero_trace_everywhere_zero():
    tr, _ = cylinder_traces(e0=(0j, 0j))
    assert eval_w0(tr, LAM, (0.1, 0.7), 2.3).modulus() == 0.0


def test_w0_unit_decay_magnitude():
    # kappa=1, delta=1 rate: |exp(-lam)| = exp(-Re lam) = 0.63439095865860613
    tr, _ = cylinder_traces(mode=0, e0=(1.0 + 0j, 0j), e1=(0j, 0j))
    v = eval_w0(tr, LAM, (0.0, 0.0), 1.0)
    assert abs(v.modulus() - 0.63439095865860613) <= 1e-12


def test_w0_rejects_negative_depth():
    tr, _ = cylinder_traces()
    with pytest.raises(ValueError):
        eval_w0(tr, LAM, (0.0, 0.0), -0.1)


def test_fke1_divergence_free_axial_mode():
    # axial constant-amplitude field with azimuthal phase has zero divergence
    tr, _ = cylinder_traces(mode=3, e0=(0j, 1.0 + 0j), e1=(0j, 0j))
    assert tr.surface_divergence_e0.coeff == 0j
    assert eval_fke1(tr, LAM, (0.5, 0.0), 1.2) == 0j


def test_fke1_boundary_value():
    tr, _ = cylinder_traces(mode=2, e0=(1.0 + 0j, 0j), e1=(0j, 0j))
    got = eval_fke1(tr, LAM, (0.0, 0.0), 0.0)
    expected = (1.0 / LAM) * (1j * 2.0)  # div = i*(m/R)*c1 with m=2, R=1
    assert abs(got - expected) <= 1e-15


def test_w1_sphere_has_no_curvature_term():
    s = Surface.sphere(0.5)
    tr = TraceData(
        e0_trace=HarmonicTangentField(s, TangentVector(0.7 + 0.1j, -0.2j)),
        e1_trace=HarmonicTangentField(s, TangentVector(0.3 - 0.9j, 1.1 + 0j)),
    )
    for y3s in (0.0, 0.7, 3.0):
        v = eval_w1(tr, LAM, (0.0, 0.0), y3s)
        expected = tr.e1_trace.coeff.scale(cmath.exp(-LAM * y3s))
        assert abs(v.c1 - expected.c1) + abs(v.c2 - expected.c2) <= 1e-14


def test_w1_boundary_value_is_e1():
    tr, _ = cylinder_traces()
    v = eval_w1(tr, LAM, (0.0, 0.0), 0.0)
    e1 = tr.e1_trace.value((0.0, 0.0))
    assert abs(v.c1 - e1.c1) + abs(v.c2 - e1.c2) <= 1e-15


def test_w1_cylinder_axial_direct_substitution():
    # axial unit trace on R=1: curvature term is e0/2, times Y3=2 gives exp(-2*lam)
    tr, _ = cylinder_traces(mode=0, e0=(0j, 1.0 + 0j), e1=(0j, 0j))
    v = eval_w1(tr, LAM, (0.0, 0.0), 2.0)
    assert abs(v.c1) == 0.0
    assert abs(v.c2 - cmath.exp(-2.0 * LAM)) <= 1e-15


def test_w0_ode_residual_closed_form(rng):
    tr, s = cylinder_traces()
    w0 = make_w0(tr, LAM)
    second = w0.depth_derivative().depth_derivative()
    for _ in range(100):
        y = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        y3s = rng.uniform(0.0, 8.0)
        lhs = second.tangential(y, y3s)
        rhs = w0.tangential(y, y3s).scale(LAM * LAM)
        scale = max(rhs.modulus(), 1e-300)
        assert (lhs - rhs).modulus() <= 1e-13 * scale


def test_w1_ode_residual_closed_form(rng):
    tr, s = cylinder_traces()
    w0 = make_w0(tr, LAM)
    w1 = make_w1(tr, LAM)
    d3w0 = w0.depth_derivative()
    second = w1.depth_derivative().depth_derivative()
    k1, k2 = s.principal_curvatures
    tr_b = k1 + k2
    for _ in range(100):
        y = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        y3s = rng.uniform(0.0, 8.0)
        lhs = second.tangential(y, y3s) - w1.tangential(y, y3s).scale(LAM * LAM)
        d0 = d3w0.tangential(y, y3s)
        rhs = TangentVector(
            -2.0 * k1 * d0.c1 + tr_b * d0.c1,
            -2.0 * k2 * d0.c2 + tr_b * d0.c2,
        )
        scale = max(d0.modulus(), w1.tangential(y, y3s).modulus() * abs(LAM) ** 2, 1e-300)
        assert (lhs - rhs).modulus() <= 1e-10 * scale


def test_w1_decay_envelope():
    tr, s = cylinder_traces()
    e1_mod = tr.e1_trace.coeff.modulus()
    g_mod = mean_minus_curvature_apply(s, tr.e0_trace.coeff).modulus()
    for y3s in (0.0, 0.5, 2.0, 10.0):
        v = eval_w1(tr, LAM, (0.0, 0.0), y3s)
        bound = (e1_mod + y3s * g_mod) * math.exp(-LAM.real * y3s)
        assert v.modulus() <= bound * (1.0 + 1e-12)
    deep = eval_w1(tr, LAM, (0.0, 0.0), 30.0 / LAM.real)
    assert deep.modulus() <= 1e-11 * (e1_mod + g_mod)


def test_apply_l1_plane_harmonic():
    s = Surface.plane()
    k = (0.7, -1.3)
    tr = TraceData(
        e0_trace=HarmonicTangentField(s, TangentVector(0.4 + 0.2j, -0.9 + 0j), k),
        e1_trace=HarmonicTangentField(s, TangentVector(0j, 0j), k),
    )
    w0 = make_w0(tr, LAM)
    y, y3s = (0.3, 0.1), 0.8
    surface_part, transverse = apply_l1(s, w0, y, y3s)
    assert surface_part.modulus() <= 1e-14  # flat interface, zero normal part
    d0 = w0.depth_derivative().tangential(y, y3s)
    expected = 1j * (k[0] * d0.c1 + k[1] * d0.c2)
    assert abs(transverse - expected) <= 1e-14 * max(1.0, abs(expected))


def test_apply_l1_cylinder_axial():
    tr, s = cylinder_traces(mode=0, e0=(0j, 1.0 + 0j), e1=(0j, 0j))
    w0 = make_w0(tr, LAM)
    y, y3s = (0.0, 0.0), 1.3
    surface_part, transverse = apply_l1(s, w0, y, y3s)
    expected_axial = (1.0 / s.radius) * (-LAM) * cmath.exp(-LAM * y3s)
    assert abs(surface_part.c1) == 0.0
    assert abs(surface_part.c2 - expected_axial) <= 1e-14 * abs(expected_axial)
    assert abs(transverse) <= 1e-14


def test_apply_l1_and_b_linear_in_the_profile():
    tr1, s = cylinder_traces()
    tr2, _ = cylinder_traces(e0=(2.0 * 0.8 + 0.6j, 1.0 - 0.4j), e1=(0.2 - 0.8j, -0.6 + 1.2j))
    # tr2 traces are exactly twice tr1's, so every linear operator doubles
    y, y3s = (0.15, -0.4), 0.9
    s1, t1 = apply_l1(s, make_w1(tr1, LAM), y, y3s)
    s2, t2 = apply_l1(s, make_w1(tr2, LAM), y, y3s)
    assert (s2 - s1.scale(2.0)).modulus() <= 1e-14 * max(s2.modulus(), 1e-300)
    assert abs(t2 - 2.0 * t1) <= 1e-14 * max(abs(t2), 1e-300)
    b1 = apply_b((make_w1(tr1, LAM), make_w0(tr1, LAM)), y)
    b2 = apply_b((make_w1(tr2, LAM), make_w0(tr2, LAM)), y)
    assert (b2 - b1.scale(2.0)).modulus() <= 1e-14 * b2.modulus()


def test_apply_l1_zero_profile_is_zero():
    tr, s = cylinder_traces(e0=(0j, 0j), e1=(0j, 0j))
    surface_part, transverse = apply_l1(s, make_w1(tr, LAM), (0.2, 0.4), 0.9)
    assert surface_part.modulus() == 0.0 and transverse == 0j


def test_apply_b_leading_profile():
    tr, s = cylinder_traces()
    y = (0.25, -0.5)
    datum = apply_b((make_w0(tr, LAM), None), y)
    expected = tr.e0_trace.value(y).scale(-LAM)
    assert (datum - expected).modulus() <= 1e-14 * expected.modulus()


def test_apply_b_first_pair():
    tr, s = cylinder_traces()
    y = (0.0, 0.0)
    datum = apply_b((make_w1(tr, LAM), make_w0(tr, LAM)), y)
    expected = tr.e1_trace.value(y).scale(-LAM) + mean_minus_curvature_apply(
        s, tr.e0_trace.value(y)
    )
    assert (datum - expected).modulus() <= 1e-14 * expected.modulus()


def test_apply_b_zero_profiles():
    tr, s = cylinder_traces(e0=(0j, 0j), e1=(0j, 0j))
    assert apply_b((make_w1(tr, LAM), make_w0(tr, LAM)), (0.0, 0.0)).modulus() == 0.0


def test_gm_leading_term_and_plane():
    tr, s = cylinder_traces(e1=(0j, 0j))
    assert modulus_expansion_gm(s, tr, (0.0, 0.0), 0.0, 0.0) == 1.0
    # plane with zero e1: identically one
    plane = Surface.plane()
    tr_p = TraceData(
        e0_trace=HarmonicTangentField(plane, TangentVector(1.0 + 0j, 0j)),
        e1_trace=HarmonicTangentField(plane, TangentVector(0j, 0j)),
    )
    for y3 in (0.0, 0.3, 2.0):
        assert modulus_expansion_gm(plane, tr_p, (0.0, 0.0), y3, 0.05) == 1.0


def test_gm_cylinder_example():
    tr, s = cylinder_traces(mode=0, e0=(1.0 + 0j, 0j), e1=(0j, 0j))
    assert abs(modulus_expansion_gm(s, tr, (0.0, 0.0), 0.01, 0.0) - 1.01) <= 1e-15


def test_gm_degenerate_trace_rejected():
    tr, s = cylinder_traces(e0=(0j, 0j))
    with pytest.raises(ValueError, match="degenerate"):
        modulus_expansion_gm(s, tr, (0.0, 0.0), 0.01, 0.1)


def test_modulus_consistency_quadratic_remainder():
    # full two-term modulus against the truncated factor along eps = y3
    cfg = PhysicalConfig(omega=1, eps0=1, mu_plus=1, mu_minus=100, sigma_plus=0.01, sigma_minus=1)
    lam = derive_params(cfg).lam
    tr, s = cylinder_traces()
    y = (0.3, 0.0)
    e0_sq = tr.e0_trace.value(y).modulus() ** 2
    pts = []
    for t in log_grid(1e-4, 1e-2, 9):
        eps = y3 = t
        full = layer_modulus_sq(s, tr, lam, eps, y, y3)
        g_full = full / (e0_sq * math.exp(-2.0 * lam.real * y3 / eps))
        g_trunc = modulus_expansion_gm(s, tr, y, y3, eps)
        pts.append((t, abs(g_full - g_trunc)))
    assert abs(loglog_slope(pts) - 2.0) <= 0.1


def test_cutoff_shape_and_smoothness():
    h0 = 0.8
    assert cutoff_chi(0.0, h0) == 1.0
    assert cutoff_chi(0.5 * h0, h0) == 1.0
    assert cutoff_chi(h0, h0) == 0.0
    assert 0.0 < cutoff_chi(0.75 * h0, h0) < 1.0
    # C2 joints: first and second divided differences stay bounded across knots
    d = 1e-5
    for knot in (0.5 * h0, h0):
        left = (cutoff_chi(knot, h0) - cutoff_chi(knot - d, h0)) / d
        right = (cutoff_chi(knot + d, h0) - cutoff_chi(knot, h0)) / d
        assert abs(left - right) <= 1e-3
        second_left = (
            cutoff_chi(knot - 2 * d, h0) - 2 * cutoff_chi(knot - d, h0) + cutoff_chi(knot, h0)
        ) / d**2
        second_right = (
            cutoff_chi(knot, h0) - 2 * cutoff_chi(knot + d, h0) + cutoff_chi(knot + 2 * d, h0)
        ) / d**2
        assert abs(second_left - second_right) <= 1e-1


def test_cutoff_rejects_nan():
    # NaN passed the horizon <= 0 check and came back as the value
    with pytest.raises(ValueError, match="cutoff depth y3 must not be NaN, got nan"):
        cutoff_chi(math.nan, 1.0)
    for horizon in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"cutoff horizon must be positive, got {horizon!r}"):
            cutoff_chi(0.1, horizon)


def test_sphere_rejects_nonzero_wavevector():
    s = Surface.sphere(1.0)
    with pytest.raises(ValueError):
        HarmonicTangentField(s, TangentVector(1.0 + 0j, 0j), (1.0, 0.0))


def test_trace_wavevector_mismatch_rejected():
    s = Surface.cylinder(1.0)
    with pytest.raises(ValueError):
        TraceData(
            e0_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(1, 0), 1),
            e1_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(1, 0), 2),
        )


def assembled_layer_fields(tr, lam, eps, y, y3):
    """Reference: W0 + eps*W1 assembled from make_w0/make_w1 at every sample."""
    y3_scaled = y3 / eps
    w0 = make_w0(tr, lam)
    w1 = make_w1(tr, lam)
    tang = w0.tangential(y, y3_scaled) + w1.tangential(y, y3_scaled).scale(eps)
    return tang, eps * w1.normal(y, y3_scaled)


def assembled_modulus_sq(s, tr, lam, eps, y, y3):
    """Reference: the assembled fields under the shifted inverse metric's diagonal."""
    tang, norm = assembled_layer_fields(tr, lam, eps, y, y3)
    a = shifted_inverse_metric(s, y3).exact
    return a[0] * abs(tang.c1) ** 2 + a[1] * abs(tang.c2) ** 2 + abs(norm) ** 2


def _rand_complex(rng):
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def _layer_cases(rng):
    """(surface, traces) on the plane, cylinders and spheres, with nonzero wavevectors off the sphere."""
    cases = []
    for i in range(30):
        kind = i % 3
        e0 = TangentVector(_rand_complex(rng), _rand_complex(rng))
        e1 = TangentVector(_rand_complex(rng), _rand_complex(rng))
        if i % 5 == 4:  # zero components: their signs of zero must survive too
            e0 = TangentVector(e0.c1, 0j)
            e1 = TangentVector(0j, e1.c2)
        if kind == 0:
            s = Surface.plane()
            wavevector = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        elif kind == 1:
            s = Surface.cylinder(rng.uniform(0.3, 3.0))
            wavevector = (rng.randint(-6, 6) / s.radius, rng.uniform(-3, 3))
        else:
            s = Surface.sphere(rng.uniform(0.3, 3.0))
            wavevector = (0.0, 0.0)
        tr = TraceData(HarmonicTangentField(s, e0, wavevector), HarmonicTangentField(s, e1, wavevector))
        cases.append((s, tr))
    return cases


def test_layer_field_matches_per_sample_assembly_bit_for_bit(rng):
    for s, tr in _layer_cases(rng):
        lam = complex(rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0))
        y = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        reach = min(s.tubular_radius, 2.0)
        for eps in (0.3, 0.05, 1e-3):
            field = LayerField.at(s, tr, lam, eps, y)
            for y3 in [0.0] + [rng.uniform(0.0, 0.99 * reach) for _ in range(12)]:
                tang, norm = field.fields(y3)
                ref_tang, ref_norm = assembled_layer_fields(tr, lam, eps, y, y3)
                assert bits(tang.c1, tang.c2, norm) == bits(ref_tang.c1, ref_tang.c2, ref_norm)
                ref = assembled_modulus_sq(s, tr, lam, eps, y, y3)
                assert field.modulus_sq(y3).hex() == ref.hex()
                assert layer_modulus_sq(s, tr, lam, eps, y, y3).hex() == ref.hex()


@pytest.mark.parametrize("s", [Surface.plane(), Surface.cylinder(0.8), Surface.sphere(0.8)])
def test_layer_field_depth_errors(s):
    tr = TraceData(
        e0_trace=HarmonicTangentField(s, TangentVector(1.0 + 0j, 0.5j)),
        e1_trace=HarmonicTangentField(s, TangentVector(0.2 + 0j, 0j)),
    )
    field = LayerField.at(s, tr, LAM, 0.1, (0.0, 0.0))
    for call in (field.fields, field.modulus_sq, lambda h: layer_modulus_sq(s, tr, LAM, 0.1, (0.0, 0.0), h)):
        with pytest.raises(ValueError, match="scaled depth"):
            call(-1e-3)
    if s.tubular_radius < math.inf:
        for h in (s.tubular_radius, 1.5 * s.tubular_radius):
            with pytest.raises(ValueError, match="tubular neighborhood"):
                field.modulus_sq(h)


@pytest.mark.parametrize("s", [Surface.plane(), Surface.cylinder(2.0), Surface.sphere(2.0)])
@pytest.mark.parametrize("mu_minus", [100.0, 1e4])
def test_comparison_report_numeric_matches_per_sample_assembly(s, mu_minus):
    dp = derive_params(
        PhysicalConfig(omega=1, eps0=1, mu_plus=1, mu_minus=mu_minus, sigma_plus=0.01, sigma_minus=1)
    )
    tr = TraceData(
        e0_trace=HarmonicTangentField(s, TangentVector(1.0 + 0j, 0j)),
        e1_trace=HarmonicTangentField(s, TangentVector.zero()),
    )
    max_depth = 10.0 * dp.ell_phi
    if s.tubular_radius < math.inf:
        max_depth = min(max_depth, 0.9 * s.tubular_radius)
    reference = DecayTrace(
        sampler=lambda h: math.sqrt(assembled_modulus_sq(s, tr, dp.lam, dp.eps_small, (0.0, 0.0), h)),
        max_depth=max_depth,
    )
    expected = skin_depth_numeric(reference, dp.ell_phi)
    assert comparison_report(dp, s).numeric.hex() == expected.hex()


def _floor_fields():
    """(field, reach) for the default traces on each surface and for cylinder_traces(), mu_r 1e2..1e6."""
    for mu_minus in (1e2, 1e3, 1e4, 1e5, 1e6):
        dp = derive_params(
            PhysicalConfig(omega=1, eps0=1, mu_plus=1, mu_minus=mu_minus, sigma_plus=0.01, sigma_minus=1)
        )
        cases = []
        surfaces = [Surface.plane()] + [f(r) for f in (Surface.cylinder, Surface.sphere) for r in (1.0, 2.0)]
        for s in surfaces:
            tr = TraceData(
                e0_trace=HarmonicTangentField(s, TangentVector(1.0 + 0j, 0j)),
                e1_trace=HarmonicTangentField(s, TangentVector.zero()),
            )
            cases.append((s, tr, (0.0, 0.0)))
        for radius in (1.0, 2.0):
            tr, s = cylinder_traces(radius=radius)
            cases.append((s, tr, (0.3, -0.2)))
        for s, tr, y in cases:
            reach = min(10.0 * dp.ell_phi, 0.9 * s.tubular_radius)
            yield LayerField.at(s, tr, dp.lam, dp.eps_small, y), reach


def _random_fields(rng):
    """(field, reach) with arbitrary coefficients: slow or growing decay, vertices inside the reach."""
    for s, _ in _layer_cases(rng):
        reach = min(0.9 * s.tubular_radius, 1.0)
        yield LayerField(
            surface=s, decay_rate=complex(rng.uniform(-0.5, 1.0), rng.uniform(-2, 2)), eps=rng.uniform(0.05, 1.0),
            e0=TangentVector(_rand_complex(rng), _rand_complex(rng)),
            e1=TangentVector(_rand_complex(rng), _rand_complex(rng)),
            curvature=TangentVector(_rand_complex(rng) / reach, _rand_complex(rng) / reach),
            normal=_rand_complex(rng),
        ), reach


def test_modulus_sq_floor_bounds_dense_samples_from_below(rng):
    for field, reach in [*_floor_fields(), *_random_fields(rng)]:
        intervals = [(0.0, reach), (0.5 * reach, reach)]
        for _ in range(6):
            a = rng.uniform(0.0, reach)
            intervals.append((a, rng.uniform(a, reach)))
        for a, b in intervals:
            floor = field.modulus_sq_floor(a, b)
            values = [field.modulus_sq(a + (b - a) * i / 199) for i in range(200)]
            assert floor <= min(values), (a, b)
        # at one depth the bound is the sample, up to rounding
        for y in (0.0, 0.3 * reach, reach):
            floor = field.modulus_sq_floor(y, y)
            assert floor <= field.modulus_sq(y) <= floor * (1 + 1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["e0", "e1", "curvature", "normal", "decay_rate"])
def test_modulus_sq_floor_of_a_bad_coefficient_clears_nothing(bad, where):
    s = Surface.cylinder(1.0)
    tr, _ = cylinder_traces()
    field = LayerField.at(s, tr, LAM, 0.1, (0.0, 0.0))
    if where in ("e0", "e1", "curvature"):
        coeff = complex(bad, 0.0)
        field = dataclasses.replace(field, **{where: TangentVector(getattr(field, where).c1, coeff)})
    else:
        field = dataclasses.replace(field, **{where: complex(bad, 1.0)})
    # the scan skips a run only where 0 <= target < floor < inf
    assert not (0.0 < field.modulus_sq_floor(0.01, 0.2) < math.inf)


@pytest.mark.parametrize("a,b", [(-1e-3, 0.1), (0.2, 0.1), (0.1, 0.5), (0.1, math.nan)])
def test_modulus_sq_floor_rejects_depths_outside_the_neighborhood(a, b):
    tr, s = cylinder_traces()
    with pytest.raises(ValueError, match="outside the tubular neighborhood"):
        LayerField.at(s, tr, LAM, 0.1, (0.0, 0.0)).modulus_sq_floor(a, b)

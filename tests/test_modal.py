import cmath
import dataclasses
import functools
import inspect
import math
import re
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from magskin import modal
from magskin.bessel import bessel_h1, bessel_j
from magskin.geometry import Surface, TangentVector, mean_curvature
from magskin.ibc import robin_coefficient
from magskin.modal import (
    ConvergenceError,
    CylinderBenchmark,
    ModalSolution,
    SolverError,
    _shell_difference,
    _shell_error,
    conductor_l2_norm,
    convergence_study,
    default_benchmark,
    default_config,
    fit_convergence,
    model_errors,
    require_decreasing_errors,
    shell_l2_error,
    solve_exact,
    solve_ibc,
    truncated_expansion,
)
from magskin.params import PhysicalConfig
from magskin.profiles import HarmonicTangentField, TraceData, apply_b, make_w0, make_w1
from magskin.skin import DecayTrace, skin_depth_numeric

from conftest import bits, log_grid, loglog_slope

EPS_SWEEP = [10.0**e for e in (-3.0, -2.5, -2.0, -1.5, -1.0)]


def test_exact_solution_conditions_all_default_modes():
    for mode in range(9):
        sol = solve_exact(default_benchmark(mode=mode, eps=0.05))
        assert max(sol.residuals.values()) <= 1e-10
        assert math.isfinite(sol.condition_number)


def test_exact_solve_is_the_shell_solve_with_the_conductor_wall_coefficient():
    b = default_benchmark(mode=3, eps=0.02)
    sol = solve_exact(b)
    shell = modal._solve_shell("exact", None, b, b.conductor_gamma, 0j, b.source_amplitude)
    assert bits(*sol.shell_inner, *sol.shell_outer) == bits(*shell.shell_inner, *shell.shell_outer)
    assert sol.conductor_amplitude == shell.u(b.r_in)
    assert list(sol.residuals) == [
        "interface_u", "interface_flux", "source_u", "source_jump", "outer_flux", "wall",
    ]
    assert {k: sol.residuals[k] for k in shell.residuals} == shell.residuals
    # continuity of u and u'/mu at r_in against the conductor field itself
    u_minus, du_minus = modal._conductor_point(b, sol.conductor_amplitude, b.r_in)
    assert abs(du_minus / b.cfg.mu_minus - sol.u_prime(b.r_in) / b.cfg.mu_plus) <= 1e-12 * abs(
        du_minus / b.cfg.mu_minus
    )
    assert abs(u_minus - sol.u(b.r_in)) <= 1e-15 * abs(u_minus)


def test_exact_solution_conditions_random_benchmark():
    b = CylinderBenchmark(
        r_in=0.7, r_out=2.9, r_source=1.3, mode=3,
        cfg=default_config(eps=0.02), source_amplitude=0.8 - 1.7j,
    )
    sol = solve_exact(b)
    assert max(sol.residuals.values()) <= 1e-10


def test_transparent_interface_matches_single_medium():
    # identical materials on both sides: solve the same ring problem with no
    # interface at all (regular J basis through the origin) and compare
    import dataclasses

    cfg = default_config(eps=1.0)
    cfg = dataclasses.replace(cfg, mu_minus=cfg.mu_plus, sigma_minus=cfg.sigma_plus)
    b = CylinderBenchmark(r_in=1.0, r_out=2.0, r_source=1.5, mode=2, cfg=cfg)
    sol = solve_exact(b)

    m = b.mode
    k = b.k_plus
    assert abs(b.k_minus - k) <= 1e-12 * abs(k)
    j_s, h_s = bessel_j(m, k * b.r_source), bessel_h1(m, k * b.r_source)
    j_o, h_o = bessel_j(m, k * b.r_out), bessel_h1(m, k * b.r_out)
    rows = [
        [j_s.actual, -j_s.actual, -h_s.actual],
        [-k * j_s.actual_derivative, k * j_s.actual_derivative, k * h_s.actual_derivative],
        [0j, k * j_o.actual_derivative, k * h_o.actual_derivative],
    ]
    rhs = [0j, b.source_amplitude, 0j]
    a, d, e = np.linalg.solve(np.array(rows), np.array(rhs))
    for r in (0.4, 0.9, 1.2, 1.7, 1.95):
        if r <= b.r_source:
            ref = a * bessel_j(m, k * r).actual
        else:
            ref = d * bessel_j(m, k * r).actual + e * bessel_h1(m, k * r).actual
        assert abs(sol.u(r) - ref) <= 1e-10 * max(abs(ref), 1e-6)


def test_conductor_efolding_approaches_ell_phi():
    b = default_benchmark(mode=0, eps=1e-3)
    dp = b.params
    sol = solve_exact(b)
    trace = DecayTrace(
        sampler=lambda h: abs(sol.u(b.r_in - h)),
        max_depth=min(10 * dp.ell_phi, 0.95 * b.r_in),
    )
    root = skin_depth_numeric(trace, dp.ell_phi)
    assert abs(root / dp.ell_phi - 1.0) <= 5e-3
    # exp(i*k_minus*x), the field below a flat interface, e-folds at exactly ell*phi
    assert abs(1.0 / b.k_minus.imag - dp.ell_phi) <= 1e-12 * dp.ell_phi


def test_conductor_decay_matches_leading_profile():
    b = default_benchmark(mode=0, eps=1e-2)
    dp = b.params
    sol = solve_exact(b)
    u_surface = sol.u(b.r_in)
    for h in (0.2 * dp.ell_phi, dp.ell_phi, 2.0 * dp.ell_phi):
        ratio = abs(sol.u(b.r_in - h)) / abs(u_surface)
        predicted = math.exp(-dp.lam.real * h / dp.eps_small)
        assert abs(ratio / predicted - 1.0) <= 5.0 * (dp.eps_small + h)


def test_convex_conductor_deepens_the_skin_depth():
    # positive mean curvature: the measured depth exceeds ell*phi at large contrast
    b = default_benchmark(mode=0, eps=1e-2)
    dp = b.params
    sol = solve_exact(b)
    trace = DecayTrace(
        sampler=lambda h: abs(sol.u(b.r_in - h)),
        max_depth=min(10 * dp.ell_phi, 0.95 * b.r_in),
    )
    assert skin_depth_numeric(trace, dp.ell_phi) > dp.ell_phi


def test_shell_energy_bounded_in_contrast():
    norms = []
    for mu in (1e2, 1e3, 1e4, 1e5, 1e6):
        exact = solve_exact(default_benchmark(mode=0, eps=1.0 / math.sqrt(mu)))
        norms.append(math.sqrt(_shell_squares_quadrature(exact.benchmark, exact.source, exact.wall_amplitude)[0]))
    assert max(norms) / min(norms) <= 1.5


def test_conductor_norm_scales_like_sqrt_eps():
    pts = []
    for eps in EPS_SWEEP:
        b = default_benchmark(mode=0, eps=eps)
        pts.append((eps, conductor_l2_norm(solve_exact(b))))
    assert abs(loglog_slope(pts) - 0.5) <= 0.1


def test_ibc0_equals_order0_expansion_term():
    b = default_benchmark(mode=1, eps=0.05)
    a = solve_ibc(b, 0)
    c = modal._expansion_terms(b, 2)[0]
    for x, y in zip(a.shell_inner + a.shell_outer, c.shell_inner + c.shell_outer):
        assert abs(x - y) <= 1e-14 * max(abs(x), 1.0)


def test_ibc_error_decreases_with_eps():
    b = default_benchmark(mode=0)
    e_coarse = shell_l2_error(solve_exact(b.with_eps(1e-1)), solve_ibc(b.with_eps(1e-1), 0)).total
    e_fine = shell_l2_error(solve_exact(b.with_eps(1e-2)), solve_ibc(b.with_eps(1e-2), 0)).total
    assert e_fine < e_coarse


def test_dirichlet_limit_is_stable():
    b = default_benchmark(mode=0, eps=0.1)
    sol = modal._solve_shell("ibc-custom", None, b, 1e12 + 0j, 0j, b.source_amplitude)
    scale = max(abs(sol.u(r)) for r in (1.2, 1.5, 1.9))
    assert abs(sol.u(b.r_in)) <= 1e-9 * scale


def test_expansion_order1_datum_matches_boundary_operator():
    b = default_benchmark(mode=2, eps=0.05)
    lam = b.params.lam
    term0, term1, _ = modal._expansion_terms(b, 2)
    u0 = term0.u(b.r_in)
    s = Surface.cylinder(b.r_in)
    tr = TraceData(
        e0_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(0j, u0), b.mode),
        e1_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(0j, 0j), b.mode),
    )
    datum = apply_b((make_w0(tr, lam), None), (0.0, 0.0))
    # the inward-normal reduction flips the sign: u' at the wall is -(axial datum)
    assert abs(term1.u_prime(b.r_in) - (-datum.c2)) <= 1e-12 * abs(datum.c2)


def test_expansion_order2_datum_matches_boundary_operator():
    b = default_benchmark(mode=1, eps=0.05)
    lam = b.params.lam
    term0, term1, term2 = modal._expansion_terms(b, 2)
    u0, u1 = term0.u(b.r_in), term1.u(b.r_in)
    s = Surface.cylinder(b.r_in)
    tr = TraceData(
        e0_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(0j, u0), b.mode),
        e1_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(0j, u1), b.mode),
    )
    datum = apply_b((make_w1(tr, lam), make_w0(tr, lam)), (0.0, 0.0))
    expected = -datum.c2  # = lam*u1 - u0/(2*r_in)
    assert abs(expected - (lam * u1 - u0 / (2.0 * b.r_in))) <= 1e-12 * abs(expected)
    assert abs(term2.u_prime(b.r_in) - expected) <= 1e-12 * abs(expected)


def test_shell_error_zero_for_identical_solutions():
    b = default_benchmark(mode=0, eps=0.1)
    sol = solve_ibc(b, 1)
    err = shell_l2_error(sol, sol)
    assert err.error_e == 0.0 and err.error_h == 0.0


def test_shell_error_rejects_mismatched_benchmarks():
    a = solve_ibc(default_benchmark(mode=0, eps=0.1), 1)
    c = solve_ibc(
        CylinderBenchmark(r_in=1.0, r_out=2.5, r_source=1.5, mode=0, cfg=default_config(0.1)), 1
    )
    with pytest.raises(SolverError, match="different benchmarks"):
        shell_l2_error(a, c)


def test_truncated_solution_has_no_conductor():
    b = default_benchmark(mode=0, eps=0.1)
    sol = truncated_expansion(b, 1)
    with pytest.raises(SolverError, match="no conductor region"):
        sol.u(0.5)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -1e-300, 2.0 * (1 + 1e-11)])
def test_point_evaluation_rejects_radii_outside_the_domain(r):
    # a NaN radius used to pass the range test and fail inside bessel_j as (nan+nanj)
    sol = solve_exact(default_benchmark(mode=1, eps=0.1))
    for evaluate in (sol.u, sol.u_prime):
        with pytest.raises(ValueError, match=f"radius {r!r} outside"):
            evaluate(r)


@pytest.mark.parametrize("mode,eps", [(0, 0.1), (2, 0.01), (5, 1e-3)])
def test_conductor_value_is_the_value_of_the_full_evaluation(mode, eps):
    # u in the conductor skips the derivative; at eps = 0.1 J and the
    # normalisation J_m(k_minus r_in) are unscaled, at eps <= 0.01 scaled.
    # Outside the pieces u is the value of _eval's one bessel_j, bit for bit; on a piece it is
    # the piece's Horner pass, measured within 1.2e-13 of it (|k_minus r| = 1171, mode 5)
    b = default_benchmark(mode=mode, eps=eps)
    sol = solve_exact(b)
    on_pieces = 0
    for r in [0.0, 1e-3, 0.3] + [b.r_in * (1.0 - 2.0**-k) for k in (1, 3, 6, 12, 40)]:
        u, value = sol.u(r), sol._eval(r)[0]
        if sol._piece(r) is None:
            assert bits(u) == bits(value), r
        else:
            on_pieces += 1
            assert abs(u - value) <= 2e-13 * abs(value), r
    assert on_pieces >= 4
    assert b.conductor_ref.is_scaled is (eps < 0.1)
    ibc = solve_ibc(b, 1)
    with pytest.raises(SolverError, match="no conductor region"):
        ibc.u(0.5)


def test_conductor_field_reads_one_bessel_j_per_piece_and_per_sample_outside_the_pieces(monkeypatch):
    # a piece's first sample of u builds it from one bessel_j at its centre (J_m, J_{m-1} and their
    # exponent), a sample of u outside the pieces and every sample of u' read one bessel_j, and none
    # reads H1; mode 200 has a u' too
    calls = []
    original = modal.bessel_j
    monkeypatch.setattr(modal, "bessel_j", lambda m, z: calls.append((m, z)) or original(m, z))
    monkeypatch.setattr(modal, "bessel_h1", lambda *args, **kwargs: pytest.fail(f"bessel_h1{args}"))
    for mode in (0, 5, 200):
        b = default_benchmark(mode=mode, eps=1e-2)
        b.conductor_ref
        for r in (0.0, 1e-3, 0.3, 0.9, b.r_in * (1 - 2.0**-40)):
            calls.clear()
            assert cmath.isfinite(modal._conductor_point(b, 1.0 + 0j, r)[1]), (mode, r)
            assert calls == [(mode, b.k_minus * r)], (mode, r)
    b = default_benchmark(2).with_eps(1e-3)  # |k_minus r_in| = 376: every sample lies on a piece
    sol = _conductor_only(b, 1.0 + 0j)
    b.conductor_ref
    calls.clear()
    width = 2 * modal._PIECE_HALF / abs(b.k_minus)
    radii = (b.r_in - 0.5 * width, b.r_in - 0.25 * width, b.r_in - 0.75 * width)
    for r in radii:
        sol.u(r)
    assert calls == [(2, b.k_minus * radii[0])]
    calls.clear()
    for r in radii:
        sol.u_prime(r)
    assert calls == [(2, b.k_minus * r) for r in radii]
    b = default_benchmark(0).with_eps(0.1)  # |k_minus r| < 8 at r = 0.3: no piece
    sol = _conductor_only(b, 1.0 + 0j)
    b.conductor_ref
    for evaluate in (sol.u, sol.u_prime):
        calls.clear()
        evaluate(0.3)
        assert calls == [(0, b.k_minus * 0.3)]


def _conductor_only(b: CylinderBenchmark, amplitude: complex) -> ModalSolution:
    """A solution on b that carries the conductor field of ``amplitude`` and nothing else, so that its
    samples can be read where the shell cannot be solved (mode 200)."""
    return ModalSolution("exact", None, b, b.source_amplitude, 0j, (0j, 0j), (0j, 0j), amplitude, 1.0, {})


def _conductor_grids():
    """The skin-depth grid, the ring 12 < |k_minus r| < 20 and mode 200: (benchmark, radii) cases."""
    skin = []
    for mu_r in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7):
        for mode in (0, 1, 2, 5, 30):
            b = default_benchmark(mode).with_eps(1.0 / math.sqrt(mu_r))
            depth = min(10.0 * b.params.ell_phi, 0.95 * b.r_in)
            skin.append((b, [b.r_in - depth * 10.0 ** (-3.0 * (1 - i / 39)) for i in range(40)]))
    ring = []
    for mode in (0, 1, 2, 5, 30):
        b = default_benchmark(mode).with_eps(1e-2)
        ring.append((b, [x / abs(b.k_minus) for x in (12.01, 12.5, 14.0, 16.0, 18.0, 19.9)]))
    top = [
        (b, [b.r_in * f for f in (0.999, 0.99, 0.95, 0.9, 0.8, 0.5)])
        for b in (default_benchmark(200).with_eps(1e-2), default_benchmark(200).with_eps(1e-3))
    ]
    return skin, ring, top


_GRID_AMPLITUDE = 1.0 + 0.5j


@functools.cache
def _mp_conductor_field(b: CylinderBenchmark, r: float) -> tuple[mp.mpc, mp.mpc]:
    """u and u' at r of the conductor field _GRID_AMPLITUDE*J_m(k_minus r)/J_m(k_minus r_in), in 40-digit mpmath."""
    m = abs(b.mode)
    with mp.workdps(40):
        km = mp.mpc(b.k_minus)
        scale = mp.mpc(_GRID_AMPLITUDE) / mp.besselj(m, km * b.r_in)
        return scale * mp.besselj(m, km * r), scale * km * mp.besselj(m, km * r, derivative=1)


def _relative_error(got: complex, want: mp.mpc) -> float:
    with mp.workdps(40):
        return float(abs(got - want) / abs(want))


def test_conductor_u_prime_against_mpmath():
    # u' of one sample is bessel_j's derivative in the conductor ratio: measured worst 2.2634e-13 over
    # the skin-depth grid, 5.60e-12 on the ring 12 < |k_minus r| < 20, where J_0 reads its unsettled
    # order-0 Hankel sums (5.5e-12 at |z| = 12.01, m = 1, against Miller's 1.2e-13), and 1.1011e-13 at
    # mode 200
    for cases, bound in zip(_conductor_grids(), (3e-13, 6e-12, 2e-13)):
        worst = max(
            _relative_error(modal._conductor_point(b, _GRID_AMPLITUDE, r)[1], _mp_conductor_field(b, r)[1])
            for b, radii in cases
            for r in radii
        )
        assert worst <= bound, (worst, bound)


def test_conductor_pieces_against_mpmath():
    # u of a solution reads its Taylor pieces, u' one bessel_j per sample; the bounds are
    # test_conductor_u_prime_against_mpmath's.  Measured worst u (pieces; one bessel_j per sample at
    # the same radii) / u': 2.287e-13 (2.263e-13) / 2.263e-13 on the skin grid, 1076 of whose 1200
    # samples read 208 pieces, the worst at |k_minus r| = 3742 (mu_r = 1e7), where both routes carry
    # the rounding of their arguments; 5.31e-12 / 5.60e-12 on the ring, whose samples each read
    # bessel_j (no piece is centred there); 8.5e-14 (1.1e-13) / 1.1e-13 at mode 200, whose pieces lie
    # past |k_minus r| = 400
    read = 0
    for cases, bound in zip(_conductor_grids(), (3e-13, 6e-12, 2e-13)):
        worst = 0.0
        for b, radii in cases:
            sol = _conductor_only(b, _GRID_AMPLITUDE)
            for r in radii:
                u, du = sol.u(r), sol.u_prime(r)
                want_u, want_du = _mp_conductor_field(b, r)
                worst = max(worst, _relative_error(u, want_u), _relative_error(du, want_du))
            read += sum(piece is not None for piece in sol._pieces.values())
        assert worst <= bound, (worst, bound)
    assert read >= 150  # the skin grid's pieces; 208 at the time of writing


def test_conductor_samples_outside_the_pieces_read_bessel_j_bit_for_bit():
    # centres below |k_minus r| = 8, in the ring 10.5 < |k_minus r| < 20, above the turning point, and r = 0
    amplitude = 0.6 - 1.1j
    cases = [
        (default_benchmark(0).with_eps(0.1), [0.0, 0.05, 0.3, 0.6]),  # |k_minus r_in| = 11.9
        (default_benchmark(3).with_eps(1e-2), [0.0, 0.05, 0.1, 0.15, 0.16]),  # |k_minus r| < 20
        (default_benchmark(60).with_eps(1e-2), [0.3, 0.7, 0.95, 0.999]),  # 2m > |k_minus r_in|
        (default_benchmark(200).with_eps(1e-2), [0.5, 0.9, 0.999]),
    ]
    for b, radii in cases:
        sol, m = _conductor_only(b, amplitude), abs(b.mode)
        for r in radii:
            assert sol._piece(r) is None, (b.mode, r)
            jv = bessel_j(m, b.k_minus * r)
            assert bits(sol.u(r)) == bits(modal._conductor_ratio(b, amplitude, jv.value, jv.exponent)), (b.mode, r)
            assert bits(*sol._eval(r)) == bits(*modal._conductor_point(b, amplitude, r)), (b.mode, r)
    b = default_benchmark(0).with_eps(0.1)
    assert _conductor_only(b, amplitude)._piece(0.9) is not None  # |k_minus r| = 10.7, in the series disc


def test_conductor_pieces_are_built_once_per_piece_and_bounded_in_number(monkeypatch):
    b = default_benchmark(2).with_eps(1e-3)  # |k_minus r_in| = 376
    sol = _conductor_only(b, 1.0 + 0j)
    builds = []
    piece = modal._conductor_piece
    monkeypatch.setattr(modal, "_conductor_piece", lambda *args: builds.append(args[2]) or piece(*args))
    width = 2 * modal._PIECE_HALF / abs(b.k_minus)
    radii = [b.r_in - width * (0.01 + 0.02 * i) for i in range(100)]  # two pieces, fifty samples each
    values = [sol.u(r) for r in radii]
    assert len(builds) == 2 and sorted(sol._pieces) == [0, 1]
    assert [sol.u(r) for r in radii] == values and len(builds) == 2
    for i in range(2, 2 + 2 * modal._MAX_PIECES):
        sol.u(b.r_in - width * (i + 0.5))
    assert len(sol._pieces) <= modal._MAX_PIECES


def test_a_subnormal_source_amplitude_is_rejected():
    # at 5e-324 the exact solve returned an all-zero conductor field, at 1e-310 it kept 13 digits
    b = default_benchmark(mode=0, eps=0.1)
    for amplitude in (5e-324, 1e-310, complex(0.0, -1e-310), complex(1e-308, 1e-308)):
        with pytest.raises(ValueError, match=rf"modulus at least sys.float_info.min = .*, got {re.escape(repr(amplitude))}"):
            dataclasses.replace(b, source_amplitude=amplitude)
    sol = solve_exact(dataclasses.replace(b, source_amplitude=sys.float_info.min))
    assert max(sol.residuals.values()) <= 1e-10 and conductor_l2_norm(sol) > 0


def test_the_conductor_field_at_the_axis_is_0_or_a_named_error_not_an_overflow():
    # mode 10 at |k_minus r_in| = 7.5e-81: J_m(k_minus r_in) = s*exp(-1867), and J_10(0) = 0 was divided
    # by it through exp(1867), a bare OverflowError from both u(0) and u'(0)
    cfg = PhysicalConfig(omega=1.0, eps0=5.6e-163, mu_plus=1.0, mu_minus=100.0, sigma_plus=1.0, sigma_minus=1e-163)
    b = CylinderBenchmark(r_in=1.0, r_out=2.0, r_source=1.5, mode=10, cfg=cfg)
    sol = solve_exact(b)
    assert abs(b.k_minus * b.r_in) < 1e-80 and b.conductor_ref.exponent.real < -1800
    assert sol.u(0.0) == 0 and sol.u_prime(0.0) == 0
    assert cmath.isfinite(sol.u(0.5)) and cmath.isfinite(sol.u_prime(0.5))
    # u'(0) = A*k_minus/(2 J_1(k_minus r_in)) ~ A/r_in at mode 1: beyond the float range it is a SolverError,
    # where it read inf before
    tiny = CylinderBenchmark(r_in=1e-3, r_out=2e-3, r_source=1.5e-3, mode=1, cfg=default_config(0.1))
    beyond = _conductor_only(tiny, 1e307 + 0j)
    assert beyond.u(0.0) == 0
    with pytest.raises(SolverError, match=r"conductor field at k_minus\*r: .* leaves the float range"):
        beyond.u_prime(0.0)


@pytest.mark.parametrize("mode", [0, 1, 2])
@pytest.mark.parametrize("eps", [0.1, 1e-2])
def test_conductor_field_at_the_axis(mode, eps):
    # u(0) = A*J_m(0)/J_m(k_minus R_in) and u'(0) = A*k_minus*J_m'(0)/J_m(k_minus R_in),
    # with J_0(0) = 1, J_1'(0) = 1/2 and every other value 0; at z = 0 the
    # series prefactor would take log(0)
    b = default_benchmark(mode=mode, eps=eps)
    sol = solve_exact(b)
    ref = b.conductor_ref.actual
    value, slope = {0: (1.0, 0.0), 1: (0.0, 0.5), 2: (0.0, 0.0)}[mode]
    want_u = sol.conductor_amplitude * value / ref
    want_du = sol.conductor_amplitude * b.k_minus * slope / ref
    for got, want in ((sol.u(0.0), want_u), (sol.u_prime(0.0), want_du)):
        assert abs(got - want) <= 1e-15 * abs(want) if want else got == 0, (got, want)
    assert sol.u(0.0) == sol._eval(0.0)[0]


def test_point_evaluation_accepts_the_domain_ends():
    b = default_benchmark(mode=1, eps=0.1)
    sol = solve_exact(b)
    for r in (0.0, b.r_out * (1 + 1e-12)):
        assert cmath.isfinite(sol.u(r)) and cmath.isfinite(sol.u_prime(r))


def test_ibc2_ibc1_gap_scales_quadratically():
    b = default_benchmark(mode=0)
    pts = []
    for eps in EPS_SWEEP:
        bench = b.with_eps(eps)
        gap = shell_l2_error(solve_ibc(bench, 1), solve_ibc(bench, 2)).total
        pts.append((eps, gap))
    assert abs(loglog_slope(pts) - 2.0) <= 0.2


def test_convergence_study_end_to_end():
    fit = convergence_study(default_benchmark(mode=1), "ibc", 1, EPS_SWEEP)
    assert abs(fit.slope - 2.0) <= 0.2
    assert fit.conclusive
    assert len(fit.local_slopes) == 4


def test_convergence_study_validates_inputs():
    b = default_benchmark(mode=0)
    with pytest.raises(ValueError, match="at least 5"):
        convergence_study(b, "ibc", 1, [0.1, 0.01, 0.001, 0.0001])
    with pytest.raises(ValueError, match="unknown study"):
        convergence_study(b, "wavelets", 1, EPS_SWEEP)
    # the shared eps loop checks the family itself, before any solve
    with pytest.raises(ValueError, match="unknown study family 'wavelets'"):
        model_errors(b, "wavelets", 1, [0.1])


def test_fit_convergence_guards():
    with pytest.raises(ValueError, match="at least 4"):
        fit_convergence([(0.1, 1.0), (0.01, 0.1), (0.001, 0.01)])
    with pytest.raises(ValueError, match="two decades"):
        fit_convergence([(0.1, 1.0), (0.09, 0.9), (0.08, 0.8), (0.07, 0.7)])
    with pytest.raises(ValueError, match="positive"):
        fit_convergence([(0.1, 1.0), (0.01, -0.1), (0.001, 0.01), (0.0001, 0.001)])
    # a NaN fails every comparison, so only a finiteness check catches it
    for bad in [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0)]:
        with pytest.raises(ValueError, match=rf"finite, got {re.escape(repr(bad))}"):
            fit_convergence([bad, (1.0, 1.0), (10.0, 2.0), (100.0, 3.0)])


def _polyfit_reference(points):
    """Reference: the former numpy fit, np.polyfit on the logs and r^2 from its line."""
    lx, ly = np.log([p[0] for p in points]), np.log([p[1] for p in points])
    slope, intercept = np.polyfit(lx, ly, 1)
    ss_res = float(np.sum((ly - (slope * lx + intercept)) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot


def test_fit_convergence_closed_form_matches_polyfit(rng):
    for _ in range(200):
        # two decades, as the guard asks, and 2 to 7 points inside them
        xs = [1e-1, 1e-3] + [10 ** rng.uniform(-3, -1) for _ in range(rng.randint(2, 7))]
        rate, scale = rng.uniform(0.5, 3.5), 10 ** rng.uniform(-4, 1)
        points = [(x, scale * x**rate * math.exp(rng.gauss(0.0, 0.3))) for x in xs]
        fit = fit_convergence(points)
        for mine, ref in zip((fit.slope, fit.intercept, fit.r_squared), _polyfit_reference(points)):
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref)), points
        ordered = sorted(points)
        assert fit.local_slopes == tuple(
            (math.log(y1) - math.log(y0)) / (math.log(x1) - math.log(x0))
            for (x0, y0), (x1, y1) in zip(ordered, ordered[1:])
        )


def test_fit_convergence_rejects_repeated_abscissae():
    with pytest.raises(ValueError, match="distinct"):
        fit_convergence([(0.1, 1.0), (0.01, 0.1), (0.01, 0.05), (0.001, 0.01)])


def test_require_decreasing_errors_diagnostic():
    good = [(1e-3, 1e-4), (1e-2, 1e-3), (1e-1, 1e-2)]
    require_decreasing_errors(good, "demo")
    bad = [(1e-3, 1e-3), (1e-2, 5e-4), (1e-1, 1e-2)]
    with pytest.raises(ConvergenceError, match="do not decrease"):
        require_decreasing_errors(bad, "demo")


def test_near_singular_system_warns():
    b = default_benchmark(mode=2, eps=0.1)
    wall, outer = b.shell_closure.wall, b.shell_closure.outer
    # gamma = -N'/N at r_in makes N, which already meets u' = 0 at r_out, meet the wall too
    n = (outer[3], -outer[1])
    gamma = -(n[0] * wall[1] + n[1] * wall[3]) / (n[0] * wall[0] + n[1] * wall[2])
    with pytest.warns(UserWarning, match="near-singular: resonance number"):
        modal._shell_green("demo", b.shell_closure, gamma * (1 + 1e-13), 0j, 1.0)
    # a basis where N' + gamma*N vanishes exactly: N = f1 with f1 = f1' = 1 at the wall, gamma = -1
    low = (0j, 0j)  # the order-(m-1) values at the wall, which only the shell norms read
    closure = modal._shell_closure(1.0, (1.0, 1.0, 0.0, 1.0), (2.0, 1.0, 1.0, 3.0), (1.0, 0.0, 0.0, 1.0), low)
    with pytest.raises(SolverError, match="resonant"):
        modal._shell_green("demo", closure, -1.0, 0j, 1.0)
    # away from resonance it solves without a warning; kappa is the larger of the
    # Neumann (gamma = 0) and the Robin closure's resonance numbers
    for gamma, want in ((0.5, 2.0), (-0.9, 2.9 / 0.1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kappa = modal._shell_green("demo", closure, gamma, 2.0, 1.0)[1]
        assert kappa == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("mode", [0, 10, 60, 100])
@pytest.mark.parametrize("eps", [1e-3, 1e-1])
def test_model_differences_match_the_wall_defect_error(mode, eps):
    # u_exact - u_ibc solves the source-free shell problem with the wall datum
    # (gamma_k - gamma_exact)*u_exact(r_in), so it is t*N; subtraction must resolve it
    # where it is 1e-23 of the shell norm (mode 100, eps 1e-3), far below the fields' round-off
    b = default_benchmark(mode=mode, eps=eps)
    wall, outer = b.shell_closure.wall, b.shell_closure.outer
    n = (outer[3], -outer[1])
    n_wall, dn_wall = (n[0] * wall[0] + n[1] * wall[2], n[0] * wall[1] + n[1] * wall[3])
    exact = solve_exact(b)
    for k in (0, 1, 2):
        gamma = robin_coefficient(k, Surface.cylinder(b.r_in), b.cfg)
        t = (gamma - b.conductor_gamma) * exact.u(b.r_in) / (dn_wall + gamma * n_wall)
        want = _shell_error(b, *modal._shell_squares(b, t)).total
        got = shell_l2_error(exact, solve_ibc(b, k)).total
        assert abs(got - want) <= 1e-6 * want, (k, got, want)


# --------------------------------------------------------------------------
# the tanh-sinh rule: the integration oracle of the closed-form shell norms.
# The library takes every norm in closed form; this rule integrates the same
# (source, t) fields one shell point per node, at any loss and mode.

# The tanh-sinh quadrature stops when two step sizes agree to this relative tolerance.
_QUADRATURE_RTOL = 1e-12


def _tanh_sinh_integral(fn, a: float, b: float, max_levels: int = 8) -> list[float]:
    """Tanh-sinh rule for the densities fn(r) returns, halving its step h until two steps agree.

    Nodes r = (a+b)/2 + half*tanh(pi/2*sinh t) at t = j*h, |t| <= 3.5, weights
    half*h*(pi/2)*cosh t/cosh^2(pi/2*sinh t) (Takahashi & Mori 1974).  h halves from
    1/2 and each level adds only the odd j, reusing every density value.  A node is formed
    from its distance half*2/(1 + e^(2|u|)) to the nearer end, so it is rounded at that
    end's spacing; one other than the centre that rounds onto a or b is skipped.
    Raises SolverError after ``max_levels`` halvings (1 + 7*2^(max_levels+1) nodes at most).
    """
    half = 0.5 * (b - a)
    terms: list[list[float]] = []  # weight/(half*h*pi/2) times each density, at every node so far
    prev = None
    for level in range(max_levels + 1):
        h, n, step = 0.5 ** (level + 1), 7 * 2**level, 1 if level == 0 else 2
        for j in range(step - 1 - n, n + 1, step):
            u = 0.5 * math.pi * math.sinh(j * h)
            d = 2.0 * half / (1.0 + math.exp(2.0 * abs(u)))
            r = a + d if j <= 0 else b - d
            if j == 0 or a < r < b:
                w = math.cosh(j * h) / math.cosh(u) ** 2
                terms.append([w * v for v in fn(r)])
        vals = [half * h * 0.5 * math.pi * math.fsum(col) for col in zip(*terms)]
        if prev is not None and all(
            abs(val - old) <= _QUADRATURE_RTOL * max(abs(val), 1e-300) for val, old in zip(vals, prev)
        ):
            return vals
        if level == max_levels:
            raise SolverError(
                f"quadrature on [{a}, {b}] did not reach rtol {_QUADRATURE_RTOL:.1e} in {max_levels} "
                f"step halvings: last estimates {prev} and {vals}"
            )
        prev = vals


def _shell_squares_quadrature(b: CylinderBenchmark, source: complex, t: complex) -> tuple[float, float]:
    """Squared electric and magnetic shell norms by tanh-sinh quadrature, one basis point per node.

    (source, t) are divided by the power of two 2**e nearest above the larger
    of their moduli, and the squares multiplied back by 4**e, both exactly: a
    tiny Delta t would otherwise make subnormal coefficients and lose digits.
    """
    m = abs(b.mode)
    kp = b.k_plus
    e = math.frexp(max(abs(source), abs(t)))[1]
    inner, outer = modal._shell_field(b.shell_closure, modal._ldexp(source, -e), modal._ldexp(t, -e))

    def piece(coeff, lo: float, hi: float) -> list[float]:
        def densities(r: float) -> tuple[float, float]:
            u, du = modal._combine(coeff, modal._basis_point(m, kp, r)[0])
            u_sq = abs(u) ** 2
            return u_sq * r, (abs(du) ** 2 + (m / r) ** 2 * u_sq) * r

        return _tanh_sinh_integral(densities, lo, hi)

    e_in, h_in = piece(inner, b.r_in, b.r_source)
    e_out, h_out = piece(outer, b.r_source, b.r_out)
    return math.ldexp(e_in + e_out, 2 * e), math.ldexp(h_in + h_out, 2 * e)


def _shell_l2_error_quadrature(a: ModalSolution, b: ModalSolution) -> modal.ShellError:
    """shell_l2_error by quadrature."""
    bench, t = _shell_difference(a, b)
    return _shell_error(bench, *_shell_squares_quadrature(bench, 0j, t))


def test_composite_integral_against_closed_forms():
    (val,) = _tanh_sinh_integral(lambda r: (math.exp(-r),), 0.0, 3.0)
    assert abs(val - (1.0 - math.exp(-3.0))) <= 1e-13
    (val,) = _tanh_sinh_integral(lambda r: (r**3,), 0.0, 2.0)
    assert abs(val - 4.0) <= 1e-13


def test_quadrature_stable_under_refinement():
    b = default_benchmark(mode=1, eps=0.05)
    exact, model = solve_exact(b), solve_ibc(b, 1)
    base = shell_l2_error(exact, model)
    again = shell_l2_error(exact, model)
    assert base.error_e == again.error_e and base.error_h == again.error_h
    db = exact.shell_inner[0] - model.shell_inner[0]
    dc = exact.shell_inner[1] - model.shell_inner[1]
    kp = b.k_plus
    m = abs(b.mode)

    def density(r):
        du = db * bessel_j(m, kp * r).actual + dc * bessel_h1(m, kp * r).actual
        return (abs(du) ** 2 * r,)

    (coarse,) = _tanh_sinh_integral(density, b.r_in, b.r_source, max_levels=4)
    (fine,) = _tanh_sinh_integral(density, b.r_in, b.r_source, max_levels=8)
    assert abs(coarse - fine) <= 1e-12 * fine


def _numpy_composite_integral(fn, a, b):
    """Reference: the former numpy panel-doubling rule, np.linspace edges and np.dot panel sums."""
    x, w = np.polynomial.legendre.leggauss(48)
    prev, panels = None, 1
    while True:
        edges = np.linspace(a, b, panels + 1)
        val = 0.0
        for lo, hi in zip(edges, edges[1:]):
            r = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)
            val += 0.5 * (hi - lo) * float(np.dot(w, [fn(float(ri)) for ri in r]))
        if prev is not None and abs(val - prev) <= 1e-12 * abs(val):
            return val
        prev, panels = val, 2 * panels


@pytest.mark.parametrize("mode", [0, 1, 5, 30, 100])
def test_scalar_quadrature_matches_the_numpy_panel_sum(mode):
    # the tanh-sinh rule against the former panel-doubled Gauss rule, on the low-loss densities
    for sigma_plus in (1e-6, 9e-4):
        b = _with_sigma_plus(default_benchmark(mode=mode, eps=0.01), sigma_plus)
        _, t = _shell_difference(solve_exact(b), solve_ibc(b, 1))
        inner, outer = modal._shell_field(b.shell_closure, 0j, t)
        for coeff, lo, hi in ((inner, b.r_in, b.r_source), (outer, b.r_source, b.r_out)):

            def density(r, coeff=coeff, b=b):
                u, du = modal._combine(coeff, modal._basis_point(mode, b.k_plus, r)[0])
                return (abs(du) ** 2 + (mode / r) ** 2 * abs(u) ** 2) * r

            want = _numpy_composite_integral(density, lo, hi)
            (got,) = _tanh_sinh_integral(lambda r: (density(r),), lo, hi)
            assert abs(got - want) <= 1e-12 * want, (sigma_plus, lo, got, want)


def test_tanh_sinh_integral_raises_at_level_cap():
    # sin^2(400 r) on [0, 10] integrates to 4.999...; the rule needs more than two halvings
    with pytest.raises(SolverError, match="in 2 step halvings"):
        _tanh_sinh_integral(lambda r: (math.sin(400.0 * r) ** 2,), 0.0, 10.0, max_levels=2)
    # the default cap, 8 halvings, is at most 3585 density calls: fewer than the 6096 of the
    # former 48-point Gauss rule doubled to 64 panels
    calls = []
    with pytest.raises(SolverError, match="in 8 step halvings"):
        _tanh_sinh_integral(lambda r: calls.append(r) or (math.sin(400.0 * r) ** 2,), 0.0, 10.0)
    assert len(calls) <= 1 + 7 * 2**9


def test_overflowing_basis_surfaces_as_solver_error():
    # at mode 200 H1_m(k_plus r) overflows at every shell radius; at r_out = 1e300, and at
    # r_source = 1e5 with r_out = 2e5, the scale exp(exponent) of J_m(k_plus r) overflows,
    # which raised a raw OverflowError before.  Every model on the closure raises.
    cfg = default_config(0.1)
    for b in (
        default_benchmark(mode=200),
        CylinderBenchmark(r_in=1.0, r_out=1e300, r_source=1.5, mode=0, cfg=cfg),
        CylinderBenchmark(r_in=1.0, r_out=2e5, r_source=1e5, mode=0, cfg=cfg),
    ):
        for kind, solve in (
            ("exact", solve_exact),
            ("ibc1", lambda b_: solve_ibc(b_, 1)),
            ("ibc-custom", lambda b_: modal._solve_shell("ibc-custom", None, b_, 0.5j, 0j, b_.source_amplitude)),
            ("expansion", lambda b_: truncated_expansion(b_, 2)),
        ):
            with pytest.raises(SolverError, match="^shell basis not finite: wall "):
                solve(b)
        with pytest.raises(SolverError):
            b.shell_closure


def _numbers(value):
    """Every number in a value, through tuples, named tuples and dataclasses."""
    if isinstance(value, (int, float, complex)):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))


def test_every_cached_property_is_finite_or_raises_solver_error():
    # mode 200's shell_grams read the fields a non-finite closure left None, and raised AttributeError
    cfg = default_config(0.1)
    names = [n for n, v in vars(CylinderBenchmark).items() if isinstance(v, functools.cached_property)]
    assert names == [
        "params", "k_plus", "k_minus", "shell_closure", "shell_grams", "wall_surface", "conductor_ref",
        "conductor_gamma",
    ]
    raised = []
    for b in (
        default_benchmark(mode=150),
        default_benchmark(mode=200),
        CylinderBenchmark(r_in=1.0, r_out=1e300, r_source=1.5, mode=0, cfg=cfg),
        CylinderBenchmark(r_in=1.0, r_out=2e5, r_source=1e5, mode=0, cfg=cfg),
    ):
        for name in names:
            try:
                value = getattr(b, name)
            except SolverError:
                raised.append((b.mode, b.r_out, name))
                continue
            assert all(cmath.isfinite(v) for v in _numbers(value)), (b.mode, b.r_out, name, value)
    # a shell whose basis is not finite has no closure and no shell norms; nothing else raises
    assert raised == [(m, r, name) for m, r in ((200, 2.0), (0, 1e300), (0, 2e5)) for name in names[3:5]]


def _with_sigma_plus(b: CylinderBenchmark, sigma_plus: float) -> CylinderBenchmark:
    return dataclasses.replace(b, cfg=dataclasses.replace(b.cfg, sigma_plus=sigma_plus))


def _models(b: CylinderBenchmark):
    return [solve_ibc(b, 0), solve_ibc(b, 1), solve_ibc(b, 2), truncated_expansion(b, 2)]


def _gauss_shell_squares(b: CylinderBenchmark, diffs) -> list[tuple[float, float]]:
    """Oracle: squared shell norms of coefficient differences, one 48-node Gauss panel per piece.

    The Bessel basis is evaluated once per piece and shared by every difference.
    """
    x, w = np.polynomial.legendre.leggauss(48)
    m, k = abs(b.mode), b.k_plus
    pieces = []
    for lo, hi in ((b.r_in, b.r_source), (b.r_source, b.r_out)):
        r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        pairs = [(bessel_j(m, k * ri), bessel_h1(m, k * ri)) for ri in r]
        vals = np.array([[jv.actual, hv.actual] for jv, hv in pairs])
        ders = k * np.array([[jv.actual_derivative, hv.actual_derivative] for jv, hv in pairs])
        pieces.append((r, 0.5 * (hi - lo) * w, vals, ders))
    out = []
    for coeffs in diffs:
        e_sq = h_sq = 0.0
        for coeff, (r, wr, vals, ders) in zip(coeffs, pieces):
            u, du = vals @ np.array(coeff), ders @ np.array(coeff)
            e_sq += float(np.sum(wr * r * np.abs(u) ** 2))
            h_sq += float(np.sum(wr * r * (np.abs(du) ** 2 + (m / r) ** 2 * np.abs(u) ** 2)))
        out.append((e_sq, h_sq))
    return out


@pytest.mark.parametrize("sigma_plus", [1e-2, 1e-3])
@pytest.mark.parametrize(
    "mode, tol",
    # the ids keep the names these cases had under their former bounds, 1e-11 and 1e-9
    [pytest.param(m, 2e-12, id=f"{m}-1e-11") for m in range(6)]
    + [pytest.param(m, 2e-11, id=f"{m}-1e-09") for m in (10, 30)],
)
def test_shell_closed_form_matches_quadrature(mode, tol, sigma_plus):
    # measured worst 5.8e-13 on modes 0-5 and 5.7e-14 on modes 10/30 (the unsplit form read
    # 6.2e-13 and 7.7e-12, the per-piece coefficient Lommel sums 3.2e-12 and 1.5e-10)
    diffs = []
    for eps in (1e-1, 1e-2, 1e-3):
        b = _with_sigma_plus(default_benchmark(mode=mode, eps=eps), sigma_plus)
        exact = solve_exact(b)
        diffs += [_shell_difference(exact, model)[1] for model in _models(b)]
    # k_plus does not depend on eps, so every difference lives on the same shell basis
    fields = [modal._shell_field(b.shell_closure, 0j, t) for t in diffs]
    for t, ref in zip(diffs, _gauss_shell_squares(b, fields)):
        got = modal._shell_squares(b, t)
        assert max(abs(g - q) / q for g, q in zip(got, ref)) <= tol


@pytest.mark.parametrize("mode", [0, 3, 30, 100])
def test_a_difference_of_two_ring_sources_is_a_solver_error(mode):
    # a model error compares two models driven by one source, so it is Delta t * N; solutions
    # of different ring sources have no such difference, and comparing them names both sources
    for eps in (0.1, 1e-3):
        for sigma_plus in (1e-2, 2e-3):
            b = _with_sigma_plus(default_benchmark(mode=mode, eps=eps), sigma_plus)
            other = dataclasses.replace(b, source_amplitude=0.3 - 1.7j)
            exact = solve_exact(b)
            for model in (solve_exact(other), solve_ibc(other, 1), truncated_expansion(other, 2)):
                message = r"^solutions carry different ring sources \(1\+0j\) and \(0\.3-1\.7j\)"
                with pytest.raises(SolverError, match=message):
                    shell_l2_error(exact, model)


def _mp_basis(b: CylinderBenchmark) -> list[list]:
    """(J_m, k*J_m', H1_m, k*H1_m') of k_plus*r at r_in, r_source and r_out, in mpmath."""
    m, k = abs(b.mode), mp.mpc(b.k_plus)
    points = []
    for r in (b.r_in, b.r_source, b.r_out):
        row = []
        for fn in (mp.besselj, mp.hankel1):
            f = fn(m, k * r)
            row += [f, k * (m / (k * r) * f - fn(m + 1, k * r))]  # f' = (m/z) f_m - f_{m+1}
        points.append(row)
    return points


def _mp_field(points, gamma, datum, source):
    """Inner and outer coefficients of the shell's Green's-function solution (DLMF 10.5), in mpmath."""
    wall, ring, outer = points
    n, el = (outer[3], -outer[1]), (wall[3], -wall[1])
    n_wall, dn_wall = modal._combine(n, wall)
    n_ring, dn_ring = modal._combine(n, ring)
    l_ring, dl_ring = modal._combine(el, ring)
    w = l_ring * dn_ring - dl_ring * n_ring
    c, c_out = source * n_ring / w, source * l_ring / w
    t = (datum - gamma * c * modal._combine(el, wall)[0]) / (dn_wall + gamma * n_wall)
    return [(c * el[0] + t * n[0], c * el[1] + t * n[1]), ((c_out + t) * n[0], (c_out + t) * n[1])]


def _mp_n_field(points, t):
    """Inner and outer coefficients of the field t*N of a double wall amplitude t, in mpmath."""
    outer, t = points[2], mp.mpc(t)
    return [(t * outer[3], -t * outer[1])] * 2


def _mp_shell_error(b: CylinderBenchmark, points, a, c) -> tuple:
    """Electric and magnetic shell norms of a - c by Lommel's integrals, in mpmath."""
    k2, radii = mp.mpc(b.k_plus) ** 2, (b.r_in, b.r_source, b.r_out)
    e_sq = h_sq = 0
    for piece, (lo, hi) in enumerate(((0, 1), (1, 2))):
        diff = (a[piece][0] - c[piece][0], a[piece][1] - c[piece][1])
        flux = [radii[j] * du * mp.conj(u) for j in (lo, hi) for u, du in [modal._combine(diff, points[j])]]
        w = flux[1] - flux[0]
        e_piece = -w.imag / k2.imag
        e_sq += e_piece
        h_sq += w.real + k2.real * e_piece
    return mp.sqrt(e_sq), mp.sqrt(h_sq) / (b.cfg.omega * b.cfg.mu_plus)


def _mp_models(b: CylinderBenchmark, points) -> tuple[dict, list]:
    """The mpmath fields of ibc0-2 and the truncated expansion of order 2, and the exact field.

    Each takes the double wall coefficient, lambda, curvature and eps that the double solve takes.
    """
    source = mp.mpc(b.source_amplitude)
    want = {}
    for k in (0, 1, 2):
        gamma = robin_coefficient(k, b.wall_surface, b.cfg)
        want[f"ibc{k}"] = _mp_field(points, mp.mpc(gamma), 0, source)
    lam, curv, eps = mp.mpc(b.params.lam), mean_curvature(b.wall_surface), mp.mpf(b.params.eps_small)
    terms = [_mp_field(points, 0, 0, source)]
    u0 = modal._combine(terms[0][0], points[0])[0]
    terms.append(_mp_field(points, 0, lam * u0, 0))
    u1 = modal._combine(terms[1][0], points[0])[0]
    terms.append(_mp_field(points, 0, lam * u1 - curv * u0, 0))
    want["truncated2"] = [
        tuple(sum(eps**j * t[piece][i] for j, t in enumerate(terms)) for i in (0, 1)) for piece in (0, 1)
    ]
    return want, _mp_field(points, mp.mpc(b.conductor_gamma), 0, source)


@pytest.mark.parametrize("sigma_plus", [1e-2, 1e-6, 9e-4])
def test_shell_error_against_a_60_digit_oracle(sigma_plus):
    # the oracle takes the same double wall coefficients, lambda and k_plus, and subtracts its
    # coefficients at 60 digits.  Measured worst 2.7e-9 (ibc2, mode 0, eps 1e-3), from the 1e-16
    # rounding of the inputs; subtracting the double coefficients read 3.0e-6 (truncated 2, mode 30).
    # At mode 140 the difference's H1_m coefficient Delta t*n[1] is subnormal (~3e-318 at eps 1e-4);
    # the closed forms take Delta t scaled by a power of two, as the quadrature did.
    # Measured worst there 2.8e-12 (sigma_plus 1e-6) and 1.6e-12 (9e-4); unscaled it read 1.1e-6
    cases = {mode: ((1e-3, 1e-2, 0.1), 5e-9) for mode in (0, 3, 30)}
    if sigma_plus < 1e-3:
        cases[140] = ((1e-4, 1e-3), 1e-11)
    for mode, (eps_values, bound) in cases.items():
        b0 = _with_sigma_plus(default_benchmark(mode=mode), sigma_plus)
        with mp.workdps(60):
            points = _mp_basis(b0)
        for eps in eps_values:
            b = b0.with_eps(eps)
            exact = solve_exact(b)
            with mp.workdps(60):
                want, mp_exact = _mp_models(b, points)
                refs = [_mp_shell_error(b, points, mp_exact, field) for field in want.values()]
            for name, model, ref in zip(want, _models(b), refs):
                got = shell_l2_error(exact, model)
                rel = max(abs(got.error_e - ref[0]) / ref[0], abs(got.error_h - ref[1]) / ref[1])
                assert rel <= bound, (name, mode, eps, float(rel))


def test_shell_squares_against_a_40_digit_oracle_at_every_loss_and_mode():
    # both squared norms of the same double Delta t, the split form above an Im share
    # of 1e-3 and the Taylor-shifted brackets below it, against 40-digit Lommel sums over
    # 40-digit Bessel values.  Measured worst 1.4e-13 (mode 140, sigma_plus 9e-4); the
    # former Lommel form read 1.1e-9 at mode 140, sigma_plus 5e-3
    worst = (0.0, None)
    for mode in (0, 1, 5, 30, 60, 100, 140):
        for sigma_plus in (1e-6, 1e-4, 9e-4, 2e-3, 5e-3, 1e-2):
            b0 = _with_sigma_plus(default_benchmark(mode=mode), sigma_plus)
            with mp.workdps(40):
                points = _mp_basis(b0)
            for eps in (1e-3, 0.1):
                b = b0.with_eps(eps)
                exact = solve_exact(b)
                for model in (solve_ibc(b, 0), solve_ibc(b, 2), truncated_expansion(b, 2)):
                    _, t = _shell_difference(exact, model)
                    got = modal._shell_squares(b, t)
                    with mp.workdps(40):
                        field = _mp_n_field(points, t)
                        ref_e, ref_h = _mp_shell_error(b, points, field, [(0, 0), (0, 0)])
                        refs = (ref_e**2, (ref_h * b.cfg.omega * b.cfg.mu_plus) ** 2)
                    rel = max(float(abs(g - w) / w) for g, w in zip(got, refs))
                    worst = max(worst, (rel, (mode, sigma_plus, eps, model.kind)), key=lambda x: x[0])
    print(f"worst relative error of the squared shell norms: {worst[0]:.2e} at {worst[1]}")
    assert worst[0] <= 1e-12, worst


def test_taylor_sums_that_do_not_settle_are_a_named_solver_error():
    # h = q*x0 = 1000i: the terms peak near n = 1000, past the cap of 200
    with pytest.raises(SolverError, match=r"^shell norms at mode 0: the Taylor-shifted Lommel series .* did not settle"):
        modal._taylor_sums(0, 1e4 + 0j, 0.1j, 1.0 + 0j, 1.0 + 0j)


@pytest.mark.parametrize("mode", [0, 5, 30])
def test_shell_error_agrees_with_quadrature_oracle(mode):
    b = default_benchmark(mode=mode, eps=1e-2)
    exact, models = solve_exact(b), _models(b)
    for model in models:
        got, ref = shell_l2_error(exact, model), _shell_l2_error_quadrature(exact, model)
        assert abs(got.error_e - ref.error_e) <= 1e-11 * ref.error_e
        assert abs(got.error_h - ref.error_h) <= 1e-11 * ref.error_h


def test_low_loss_shell_error_takes_the_taylor_route(monkeypatch):
    # at sigma_plus 1e-6 Im of the split wall bracket is 2e-6 of it (mode 0), below
    # _SPLIT_MIN_IM: the electric square of N comes from the Taylor-shifted brackets, which
    # meet the quadrature where the split quotient alone is off by 3e-10
    b = _with_sigma_plus(default_benchmark(mode=0, eps=1e-2), 1e-6)
    exact, model = solve_exact(b), solve_ibc(b, 1)
    assert b.shell_grams[0] == modal._taylor_gram(b)
    ref = _shell_l2_error_quadrature(exact, model)
    got = shell_l2_error(exact, model)
    assert abs(got.error_e - ref.error_e) <= 1e-12 * ref.error_e
    assert abs(got.error_h - ref.error_h) <= 1e-12 * ref.error_h
    monkeypatch.setattr(modal, "_SPLIT_MIN_IM", 0.0)
    split = modal._shell_grams(b)[0]
    _, t = _shell_difference(exact, model)
    assert abs(abs(t) * math.sqrt(split) - ref.error_e) > 1e-11 * ref.error_e


def test_low_loss_shell_norms_evaluate_no_shell_point(monkeypatch):
    # the Taylor route reads the closure's wall and ring values and nothing else (the
    # quadrature it replaced took up to 202 shell points per norm), once per shell
    b = _with_sigma_plus(default_benchmark(mode=1, eps=1e-2), 1e-6)
    exact, model = solve_exact(b), solve_ibc(b, 1)
    monkeypatch.setattr(modal, "_eval_pair", lambda m, z: pytest.fail(f"a shell point at {z!r}"))
    taylor = modal._taylor_gram
    grams = []
    monkeypatch.setattr(modal, "_taylor_gram", lambda bench: grams.append(bench) or taylor(bench))
    shell_l2_error(exact, model)
    for eps in (0.1, 1e-3):
        other = b.with_eps(eps)
        shell_l2_error(solve_exact(other), solve_ibc(other, 2))
    assert grams == [b]


def test_conductor_norm_matches_graded_quadrature():
    x, w = np.polynomial.legendre.leggauss(24)
    benches = [
        default_benchmark(mode=mode, eps=1.0 / math.sqrt(mu_r))
        for mode in (0, 1, 2, 5, 10, 30, 60, 100)
        for mu_r in (1e2, 1e4, 1e6)
    ]
    benches.append(
        CylinderBenchmark(r_in=0.7, r_out=2.9, r_source=1.3, mode=3, cfg=default_config(eps=0.02))
    )
    for b in benches:
        sol = solve_exact(b)
        # one Gauss panel per layer [r_in - 2d, r_in - d], d doubling from the skin depth
        depth = b.params.eps_small / (2.0 * b.params.lam.real)
        edges = [b.r_in]
        while depth < b.r_in:
            edges.append(b.r_in - depth)
            depth *= 2.0
        edges.append(0.0)
        total = 0.0
        for lo, hi in zip(edges[1:], edges[:-1]):
            r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            dens = np.array([abs(sol.u(float(ri))) ** 2 * ri for ri in r])
            part = 0.5 * (hi - lo) * float(np.dot(w, dens))
            total += part
            if part <= 1e-16 * total:
                break
        ref = math.sqrt(total)
        assert abs(conductor_l2_norm(sol) - ref) <= 1e-12 * ref


def test_benchmark_validation():
    cfg = default_config(0.1)
    for r_source in (0.5, 1.0, 2.0, 2.5):  # the ring lies strictly inside the shell
        with pytest.raises(ValueError, match="r_in < r_source < r_out"):
            CylinderBenchmark(r_in=1.0, r_out=2.0, r_source=r_source, mode=0, cfg=cfg)
    with pytest.raises(ValueError, match="mode"):
        CylinderBenchmark(r_in=1.0, r_out=2.0, r_source=1.5, mode=300, cfg=cfg)
    # each of these used to pass the checks and fail later inside bessel, or not at all
    with pytest.raises(ValueError, match=r"r_out must be finite, got inf"):
        CylinderBenchmark(r_in=1.0, r_out=math.inf, r_source=1.5, mode=0, cfg=cfg)
    for mode in (True, False, 1.5, 2.0):
        with pytest.raises(ValueError, match=rf"mode must be an integer, got {mode!r}"):
            CylinderBenchmark(r_in=1.0, r_out=2.0, r_source=1.5, mode=mode, cfg=cfg)
    # shells whose basis overflows are finite inputs; test_overflowing_basis_surfaces_as_solver_error
    # a zero source reached a division by zero in the rate fit, a non-finite one all-NaN residuals
    for amplitude in (0j, 0.0, complex(math.nan, 0.0), complex(math.inf, 0.0), complex(1.0, -math.inf)):
        message = rf"source_amplitude must be finite and nonzero, got {re.escape(repr(amplitude))}"
        with pytest.raises(ValueError, match=message):
            CylinderBenchmark(r_in=1.0, r_out=2.0, r_source=1.5, mode=0, cfg=cfg, source_amplitude=amplitude)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(default_benchmark(mode=1), source_amplitude=amplitude)


def _nan_on_call(monkeypatch, n: int) -> None:
    """Make the n-th call of modal._rel return NaN: one residual of the next solve is NaN."""
    rel, calls = modal._rel, []

    def wrapped(num, scale):
        calls.append(None)
        return math.nan if len(calls) == n else rel(num, scale)

    monkeypatch.setattr(modal, "_rel", wrapped)


@pytest.mark.parametrize("call", [2, 3, 4])
def test_a_nan_residual_fails_the_shell_check(monkeypatch, call):
    # residual order: source_u, source_jump, outer_flux, wall; a NaN after the first used to pass
    b = default_benchmark(mode=1, eps=0.1)
    _nan_on_call(monkeypatch, call)
    with pytest.raises(SolverError, match="nan"):
        solve_ibc(b, 1)


@pytest.mark.parametrize("mode", [0, 3, 10, 30, 60])
def test_source_jump_residual_sees_a_relative_source_error(mode, monkeypatch):
    # the jump's scale is the size of the terms it combines, not of bare coefficients;
    # each check is repeated on the points and coefficients its solve passed in
    checks, shell_residuals = [], modal._shell_residuals

    def recorded(*args):
        checks.append(args)
        return shell_residuals(*args)

    monkeypatch.setattr(modal, "_shell_residuals", recorded)
    b = default_benchmark(mode=mode, eps=0.01)
    sols = [solve_exact(b), solve_ibc(b, 1)]
    assert len(checks) == len(sols)
    for sol, (points, inner, outer, gamma, datum, source) in zip(sols, checks):
        res = shell_residuals(points, inner, outer, gamma, datum, source * (1 + 1e-6))
        assert res["source_jump"] > modal.RESIDUAL_TOL
        assert sol.residuals["source_jump"] <= 1e-15


@pytest.mark.parametrize("mode, eps", [(0, 1e-6), (50, 3e-5), (100, 1e-5)])
def test_interface_flux_residual_holds_at_small_eps(mode, eps):
    # relative to the net flux, round-off in B*J_m + C*H1_m read ~1.2e-10 here and raised
    sol = solve_exact(default_benchmark(mode=mode).with_eps(eps))
    assert sol.residuals["interface_flux"] <= 1e-14


@pytest.mark.parametrize("mode", [0, 3, 10, 30, 60])
def test_interface_flux_residual_sees_a_relative_flux_error(mode):
    # scaling by the terms must not hide a real mismatch in the conductor-side flux
    b = default_benchmark(mode=mode, eps=0.1)
    sol = solve_exact(b)
    u_minus, du_minus = modal._conductor_point(b, sol.conductor_amplitude, b.r_in)
    res = modal._interface_residuals(b, sol.shell_inner, u_minus, du_minus * (1 + 1e-6))
    assert res["interface_flux"] > modal.RESIDUAL_TOL
    assert sol.residuals["interface_flux"] <= 1e-15


def test_with_eps_sweeps_only_mu_minus():
    b = default_benchmark(mode=0, eps=0.1)
    b2 = b.with_eps(0.01)
    assert b2.cfg.mu_minus == b.cfg.mu_plus / 0.01**2
    assert b2.cfg.sigma_minus == b.cfg.sigma_minus
    assert b2.cfg.omega == b.cfg.omega
    assert abs(b2.k_plus - b.k_plus) == 0.0


def _count_bessel_calls(monkeypatch) -> list[tuple[str, int, complex]]:
    """Record every bessel_j / bessel_h1 call that magskin.modal makes."""
    calls = []

    def counted(name, fn):
        def wrapper(m, z, **kwargs):
            calls.append((name, m, z))
            return fn(m, z, **kwargs)

        return wrapper

    monkeypatch.setattr(modal, "bessel_j", counted("j", modal.bessel_j))
    monkeypatch.setattr(modal, "bessel_h1", counted("h1", modal.bessel_h1))
    return calls


def test_one_benchmark_evaluates_each_bessel_value_once(monkeypatch):
    calls = _count_bessel_calls(monkeypatch)
    b = default_benchmark(mode=2, eps=0.01)
    exact = solve_exact(b)
    for k in (0, 1, 2):
        shell_l2_error(exact, solve_ibc(b, k))
    # J_m and H1_m at k_plus*(r_in, r_source, r_out), and J_m at k_minus*r_in
    assert len(calls) == 7
    assert len(set(calls)) == 7
    assert [c for c in calls if c[2] == b.k_minus * b.r_in] == [("j", 2, b.k_minus * b.r_in)]
    conductor_l2_norm(exact)
    for r in (b.r_in, b.r_source, b.r_out):
        exact.u(r)
    assert len(calls) == 7


def test_a_shell_closure_that_raises_is_derived_once(monkeypatch):
    # functools.cached_property keeps no exception: each read derived the basis again, 9 J and
    # 9 H1 calls for these three reads; the message is kept and handed on by with_eps
    calls = _count_bessel_calls(monkeypatch)
    b = default_benchmark(mode=200)
    messages = []
    for name in ("shell_closure", "shell_grams", "shell_closure"):
        with pytest.raises(SolverError, match="^shell basis not finite: wall ") as info:
            getattr(b, name)
        messages.append(str(info.value))
    assert [c[0] for c in calls] == ["j", "h1"] * 3
    calls.clear()
    with pytest.raises(SolverError) as info:
        b.with_eps(0.01).shell_closure
    assert calls == []
    assert {str(info.value)} == set(messages)


def test_truncated_expansion_solves_each_term_once(monkeypatch):
    calls = _count_bessel_calls(monkeypatch)
    shell_solves = []
    solve_shell = modal._solve_shell

    def counted_solve(*args):
        shell_solves.append(args[1])
        return solve_shell(*args)

    monkeypatch.setattr(modal, "_solve_shell", counted_solve)
    truncated_expansion(default_benchmark(mode=1, eps=0.05), 2)
    assert len(calls) == 6
    assert shell_solves == [0, 1, 2]


def test_truncated_expansion_is_the_weighted_sum_of_its_terms():
    b = default_benchmark(mode=3, eps=0.02)
    sol = truncated_expansion(b, 2)
    # each term on its own benchmark instance, so nothing is shared with sol
    terms = modal._expansion_terms(dataclasses.replace(b), 2)
    eps = b.params.eps_small
    # only term 0 carries the ring source; the wall amplitudes sum, and the field is formed from the two
    assert [t.source for t in terms] == [b.source_amplitude, 0j, 0j] and sol.source == b.source_amplitude
    assert sol.wall_amplitude == sum(eps**j * t.wall_amplitude for j, t in enumerate(terms))
    field = modal._shell_field(b.shell_closure, sol.source, sol.wall_amplitude)
    assert bits(*sol.shell_inner, *sol.shell_outer) == bits(*field[0], *field[1])
    for order in (-1, 3, True, False, 2.0):
        with pytest.raises(ValueError, match=f"expansion order must be 0, 1 or 2, got {order!r}"):
            truncated_expansion(b, order)
        with pytest.raises(ValueError, match=f"expansion order must be 0, 1 or 2, got {order!r}"):
            modal._expansion_terms(b, order)


def test_truncated_expansion_reports_the_worst_residual_of_its_terms():
    b = default_benchmark(mode=0, eps=0.1)
    sol = truncated_expansion(b, 2)
    terms = modal._expansion_terms(dataclasses.replace(b), 2)
    assert set(sol.residuals) == set(terms[0].residuals)
    for key, worst in sol.residuals.items():
        assert worst == max(t.residuals[key] for t in terms)
    # term 0 holds the worst residual here (source_u 2.51e-16); terms 1 and 2 read 6.1e-17, 7.3e-17
    assert max(sol.residuals.values()) >= max(terms[1].residuals.values())
    assert max(sol.residuals.values()) > max(terms[2].residuals.values())


def test_shell_basis_belongs_to_one_benchmark_instance():
    # with_eps changes mu_minus only, which k_plus does not depend on: it hands
    # an evaluated shell closure, basis points and all, to the copy, and evaluates none for it
    assert "shell_closure" not in vars(default_benchmark(mode=1, eps=0.1).with_eps(0.01))
    b = default_benchmark(mode=1, eps=0.1)
    closure, ref = b.shell_closure, b.conductor_ref
    same_eps, other_mode = b.with_eps(0.01), dataclasses.replace(b, mode=4)
    assert same_eps.k_plus == b.k_plus and same_eps.shell_closure is closure
    assert "shell_closure" not in vars(other_mode)
    assert other_mode.shell_closure is not closure and other_mode.shell_closure != closure
    for other in (same_eps, other_mode):
        assert "conductor_ref" not in vars(other)
        m, kp = abs(other.mode), other.k_plus
        points = (other.shell_closure.wall, other.shell_closure.ring, other.shell_closure.outer)
        for r, point in zip((other.r_in, other.r_source, other.r_out), points):
            jv, hv = bessel_j(m, kp * r), bessel_h1(m, kp * r)
            assert point == (jv.actual, kp * jv.actual_derivative, hv.actual, kp * hv.actual_derivative)
            assert other.shell_point(r) is point
        assert other.conductor_ref == bessel_j(m, other.k_minus * other.r_in)
        assert other.conductor_ref != ref


@pytest.mark.parametrize("solver", ["exact", "ibc1", "expansion2"])
def test_point_values_at_basis_radii_match_fresh_bessel_calls(solver):
    b = default_benchmark(mode=3, eps=0.02)
    sol = {
        "exact": solve_exact,
        "ibc1": lambda b_: solve_ibc(b_, 1),
        "expansion2": lambda b_: truncated_expansion(b_, 2),
    }[solver](b)
    m, kp = abs(b.mode), b.k_plus
    for r, (c0, c1) in (
        (b.r_in, sol.shell_inner),
        (b.r_source, sol.shell_inner),
        (b.r_out, sol.shell_outer),
    ):
        jv, hv = bessel_j(m, kp * r), bessel_h1(m, kp * r)
        assert sol.u(r) == c0 * jv.actual + c1 * hv.actual
        assert sol.u_prime(r) == c0 * (kp * jv.actual_derivative) + c1 * (kp * hv.actual_derivative)
    if solver == "exact":
        km = b.k_minus
        jv = bessel_j(m, km * b.r_in)
        u, du = modal._conductor_point(b, sol.conductor_amplitude, b.r_in)
        assert u == sol.conductor_amplitude * jv.value / jv.value * cmath.exp(0j)
        assert du == sol.conductor_amplitude * km * jv.derivative / jv.value * cmath.exp(0j)


def _solve_exact_6x6(b: CylinderBenchmark) -> tuple[complex, tuple, tuple]:
    """Reference: the exact solve with an H1_m(k_minus r) conductor column and a row pinning it to 0.

    Returns the conductor amplitude and the inner and outer shell coefficients.
    """
    m, cfg = abs(b.mode), b.cfg
    kp, km = b.k_plus, b.k_minus
    jc, hc = b.conductor_ref, bessel_h1(m, km * b.r_in)
    (j_in, h_in), (j_s, h_s), (j_o, h_o) = (
        (bessel_j(m, kp * r), bessel_h1(m, kp * r)) for r in (b.r_in, b.r_source, b.r_out)
    )
    ratio_j = km * jc.derivative / jc.value
    ratio_h = km * hc.derivative / hc.value
    rows = [
        [0j, 1.0 + 0j, 0j, 0j, 0j, 0j],
        [1.0 + 0j, 1.0 + 0j, -j_in.actual, -h_in.actual, 0j, 0j],
        [
            ratio_j / cfg.mu_minus,
            ratio_h / cfg.mu_minus,
            -kp * j_in.actual_derivative / cfg.mu_plus,
            -kp * h_in.actual_derivative / cfg.mu_plus,
            0j,
            0j,
        ],
        [0j, 0j, j_s.actual, h_s.actual, -j_s.actual, -h_s.actual],
        [
            0j,
            0j,
            -kp * j_s.actual_derivative,
            -kp * h_s.actual_derivative,
            kp * j_s.actual_derivative,
            kp * h_s.actual_derivative,
        ],
        [0j, 0j, 0j, 0j, kp * j_o.actual_derivative, kp * h_o.actual_derivative],
    ]
    rhs = [0j, 0j, 0j, 0j, b.source_amplitude, 0j]
    x = [complex(v) for v in np.linalg.solve(np.array(rows, dtype=complex), np.array(rhs, dtype=complex))]
    return x[0], (x[2], x[3]), (x[4], x[5])


def _coefficient_squares(b: CylinderBenchmark, inner, outer) -> tuple[float, float]:
    """Reference: squared shell norms of coefficient pairs, by Lommel's integrals piece by piece.

    W = [r u' conj(u)] is taken between each piece's ends from the coefficients and the
    basis points at r_in, r_source and r_out, independently of the closed form over N.
    """
    k2 = b.k_plus * b.k_plus
    closure = b.shell_closure
    e_sq = h_sq = 0.0
    for coeff, (lo, at_lo), (hi, at_hi) in (
        (inner, (b.r_in, closure.wall), (b.r_source, closure.ring)),
        (outer, (b.r_source, closure.ring), (b.r_out, closure.outer)),
    ):
        (u_lo, du_lo), (u_hi, du_hi) = modal._combine(coeff, at_lo), modal._combine(coeff, at_hi)
        w = hi * du_hi * u_hi.conjugate() - lo * du_lo * u_lo.conjugate()
        e_piece = -w.imag / k2.imag
        e_sq += e_piece
        h_sq += w.real + k2.real * e_piece
    return e_sq, h_sq


def _coefficient_error(b: CylinderBenchmark, a, c) -> float:
    """Shell error between two solutions given as (inner, outer) coefficient pairs, by their differences."""
    inner, outer = ((p[0] - q[0], p[1] - q[1]) for p, q in zip(a, c))
    return _shell_error(b, *_coefficient_squares(b, inner, outer)).total


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1])
def test_exact_solve_matches_the_6x6_reference(eps):
    # measured worst over modes 0-100: coefficients 1.2e-14, shell errors 1.6e-14 of the shell norm
    for mode in range(101):
        b = default_benchmark(mode=mode, eps=eps)
        sol = solve_exact(b)
        models = [solve_ibc(b, k) for k in (0, 1, 2)]
        amplitude, *ref = _solve_exact_6x6(b)
        got = (sol.conductor_amplitude, *sol.shell_inner, *sol.shell_outer)
        for g, w in zip(got, (amplitude, *ref[0], *ref[1])):
            assert abs(g - w) <= 1e-12 * abs(w), (mode, eps)
        # ibc errors near round-off are far below the shell norm; measure differences against it.
        # The reference has no (source, t) coordinates, so its errors come from coefficient differences
        mine = (sol.shell_inner, sol.shell_outer)
        scale = math.sqrt(_coefficient_squares(b, *ref)[0])
        assert _coefficient_error(b, mine, ref) <= 1e-12 * scale, (mode, eps)
        for model in models:
            theirs = (model.shell_inner, model.shell_outer)
            diff = shell_l2_error(sol, model).total - _coefficient_error(b, ref, theirs)
            assert abs(diff) <= 1e-12 * scale, (mode, eps)


@pytest.mark.parametrize("sigma_plus", [1e-2, 2e-3])
def test_shell_energy_balance_matches_the_per_piece_lommel_sums(sigma_plus):
    # |Delta t|^2 times N's squares against the per-piece sums over the model differences'
    # coefficients.  Measured worst 3.9e-10 (sigma_plus 1e-2) and 9.9e-10 (2e-3), both at modes
    # 90-100, where the per-piece sums are the less accurate side (test_shell_closed_form_matches_quadrature)
    for mode in range(0, 101, 5):
        for eps in (0.1, 1e-3):
            b = _with_sigma_plus(default_benchmark(mode=mode, eps=eps), sigma_plus)
            exact = solve_exact(b)
            for model in _models(b):
                _, t = _shell_difference(exact, model)
                got = modal._shell_squares(b, t)
                want = _coefficient_squares(b, *modal._shell_field(b.shell_closure, 0j, t))
                rel = max(abs(g - w) / w for g, w in zip(got, want))
                assert rel <= 2e-9, (mode, eps, model.kind, rel)


# --------------------------------------------------------------------------
# the shell closure: everything _shell_green derives from the basis, once per shell


def _reference_point(m: int, k: complex, r: float) -> tuple[complex, complex, complex, complex]:
    """The shell basis point as it was built before unscaled evaluations were read as they are."""
    jv, hv = bessel_j(m, k * r), bessel_h1(m, k * r)
    return jv.actual, k * jv.actual_derivative, hv.actual, k * hv.actual_derivative


def _reference_green(kind, wall, ring, outer, k, gamma, datum, source):
    """The shell's Green's-function solve in one function, as it was before the closure."""
    if not all(cmath.isfinite(v) for v in (*wall, *ring, *outer)):
        raise SolverError(f"{kind} shell basis not finite: wall {wall}, ring {ring}, outer {outer}")
    n, el = (outer[3], -outer[1]), (wall[3], -wall[1])
    n_wall, dn_wall = modal._combine(n, wall)
    n_ring, dn_ring = modal._combine(n, ring)
    l_ring, dl_ring = modal._combine(el, ring)
    w = l_ring * dn_ring - dl_ring * n_ring
    wall_n = dn_wall + gamma * n_wall
    if wall_n == 0 or w == 0:
        raise SolverError(f"{kind} solve is resonant: N' + gamma*N = {wall_n} at the wall, W = {w}")
    size = abs(k * n_wall) + abs(dn_wall)
    kappa = max(size / abs(dn_wall), (size + abs(gamma * n_wall)) / abs(wall_n))
    c = source * n_ring / w
    t = (datum - gamma * c * modal._combine(el, wall)[0]) / wall_n
    return (*_reference_field(wall, ring, outer, source, t), kappa, t)


def _reference_field(wall, ring, outer, source, t):
    """Inner and outer coefficients of the Neumann-wall field of the source plus t*N."""
    n, el = (outer[3], -outer[1]), (wall[3], -wall[1])
    n_ring, dn_ring = modal._combine(n, ring)
    l_ring, dl_ring = modal._combine(el, ring)
    w = l_ring * dn_ring - dl_ring * n_ring
    c, c_out = source * n_ring / w, source * l_ring / w
    inner = (c * el[0] + t * n[0], c * el[1] + t * n[1])
    return inner, ((c_out + t) * n[0], (c_out + t) * n[1])


def _reference_residuals(points, inner, outer, gamma, datum, source):
    """The shell residuals with their nested helper, as they were before it was inlined."""
    wall, ring, outer_wall = points
    u_in, du_in = modal._combine(inner, ring)
    u_out, du_out = modal._combine(outer, ring)
    _, du_outer = modal._combine(outer, outer_wall)
    u_wall, du_wall = modal._combine(inner, wall)

    def du_terms(coeff, at):
        return abs(coeff[0] * at[1]) + abs(coeff[1] * at[3])

    jump_scale = du_terms(inner, ring) + du_terms(outer, ring) + abs(source)
    u_terms = abs(inner[0] * wall[0]) + abs(inner[1] * wall[2])
    wall_scale = du_terms(inner, wall) + abs(gamma) * u_terms + abs(datum)
    return {
        "source_u": modal._rel(abs(u_in - u_out), max(abs(u_in), abs(u_out))),
        "source_jump": modal._rel(abs((du_out - du_in) - source), jump_scale),
        "outer_flux": modal._rel(abs(du_outer), du_terms(outer, outer_wall)),
        "wall": modal._rel(abs(du_wall + gamma * u_wall - datum), wall_scale),
    }


def _reference_solves(b: CylinderBenchmark, custom_gamma: complex) -> dict[str, tuple]:
    """(inner, outer, kappa, residuals, conductor amplitude) of every model, solved the old way."""
    m, kp = abs(b.mode), b.k_plus
    points = tuple(_reference_point(m, kp, r) for r in (b.r_in, b.r_source, b.r_out))

    def shell(kind, gamma, datum, source):
        inner, outer, kappa, t = _reference_green(kind, *points, kp, gamma, datum, source)
        return inner, outer, kappa, _reference_residuals(points, inner, outer, gamma, datum, source), t

    out = {}
    inner, outer, kappa, res, _ = shell("exact", b.conductor_gamma, 0j, b.source_amplitude)
    # solve_exact: the amplitude is u(r_in), the interface residuals come first
    amplitude = inner[0] * points[0][0] + inner[1] * points[0][2]
    ref = b.conductor_ref
    f = cmath.exp(ref.exponent - ref.exponent)
    u_minus = amplitude * ref.value / ref.value * f
    du_minus = amplitude * b.k_minus * ref.derivative / ref.value * f
    res = {**modal._interface_residuals(b, inner, u_minus, du_minus), **res}
    out["exact"] = (inner, outer, kappa, res, amplitude)
    for k in (0, 1, 2):
        gamma = robin_coefficient(k, Surface.cylinder(b.r_in), b.cfg)
        out[f"ibc{k}"] = (*shell(f"ibc{k}", gamma, 0j, b.source_amplitude)[:4], None)
    out["custom"] = (*shell("ibc-custom", custom_gamma, 0j, b.source_amplitude)[:4], None)
    lam, curv, eps = b.params.lam, mean_curvature(Surface.cylinder(b.r_in)), b.params.eps_small
    terms = [shell("expansion", 0j, 0j, b.source_amplitude)]
    u0 = modal._combine(terms[0][0], points[0])[0]
    terms.append(shell("expansion", 0j, lam * u0, 0j))
    u1 = modal._combine(terms[1][0], points[0])[0]
    terms.append(shell("expansion", 0j, lam * u1 - curv * u0, 0j))
    for order in (0, 1, 2):
        # only term 0 carries the source; the terms' wall amplitudes sum
        part = terms[: order + 1]
        t_sum = sum(eps**j * t[4] for j, t in enumerate(part))
        inner, outer = _reference_field(*points, b.source_amplitude, t_sum)
        kappa = max(t[2] for t in part)
        res = {key: max(t[3][key] for t in part) for key in part[0][3]}
        out[f"truncated{order}"] = (inner, outer, kappa, res, None)
    return out


def _solution_bits(inner, outer, kappa, residuals, amplitude):
    return (
        bits(*inner, *outer, kappa),
        {key: value.hex() for key, value in residuals.items()},
        list(residuals),
        None if amplitude is None else bits(amplitude),
    )


@pytest.mark.parametrize("sigma_plus", [1e-2, 1e-6])
@pytest.mark.parametrize("mode", [0, 1, 2, 5, 10, 30, 100])
def test_every_model_on_the_shell_closure_matches_the_one_function_solve_in_hex(sigma_plus, mode):
    for eps in (0.1, 1e-2, 1e-3):
        b = _with_sigma_plus(default_benchmark(mode=mode, eps=eps), sigma_plus)
        custom_gamma = b.conductor_gamma * (1 + 1e-3j)
        want = _reference_solves(b, custom_gamma)
        got = {
            "exact": solve_exact(b),
            **{f"ibc{k}": solve_ibc(b, k) for k in (0, 1, 2)},
            "custom": modal._solve_shell("ibc-custom", None, b, custom_gamma, 0j, b.source_amplitude),
            **{f"truncated{k}": truncated_expansion(b, k) for k in (0, 1, 2)},
        }
        assert list(got) == list(want)
        for name, sol in got.items():
            mine = _solution_bits(
                sol.shell_inner, sol.shell_outer, sol.condition_number, sol.residuals, sol.conductor_amplitude
            )
            assert mine == _solution_bits(*want[name]), (name, eps)


def test_one_shell_closure_per_benchmark(monkeypatch):
    built = []
    closure = modal._shell_closure
    monkeypatch.setattr(modal, "_shell_closure", lambda *args: built.append(args) or closure(*args))
    b = default_benchmark(mode=2, eps=0.1)
    exact = solve_exact(b)
    models = [solve_ibc(b, k) for k in (0, 1, 2)]
    models += [modal._solve_shell("ibc-custom", None, b, 0.3 - 0.2j, 0j, b.source_amplitude)]
    models += [truncated_expansion(b, k) for k in (0, 1, 2)]
    for model in models:
        shell_l2_error(exact, model)
    assert len(built) == 1
    # with_eps hands the closure on; a copy at another mode derives its own
    same_shell = b.with_eps(0.01)
    assert same_shell.shell_closure is b.shell_closure
    shell_l2_error(solve_exact(same_shell), truncated_expansion(same_shell, 2))
    assert len(built) == 1
    other_mode = dataclasses.replace(b, mode=4)
    assert "shell_closure" not in vars(other_mode)
    solve_ibc(other_mode, 1)
    assert len(built) == 2 and other_mode.shell_closure is not b.shell_closure
    # a benchmark that has not derived its closure hands none on
    assert "shell_closure" not in vars(default_benchmark(mode=2, eps=0.1).with_eps(0.01))


def test_shell_difference_of_one_benchmark_skips_the_comparison():
    b = default_benchmark(mode=1, eps=0.1)
    exact, model = solve_exact(b), solve_ibc(b, 1)
    bench, t = _shell_difference(exact, model)
    assert bench is b
    # equal sources: the difference is the field of (0, t_a - t_b), Delta t * N exactly
    assert t == exact.wall_amplitude - model.wall_amplitude
    n = b.shell_closure.n
    assert modal._shell_field(b.shell_closure, 0j, t) == ((t * n[0], t * n[1]),) * 2
    # the same shell closure compares: handed on by with_eps (is), or derived again (==); another shell raises
    assert _shell_difference(exact, solve_ibc(b.with_eps(0.01), 1))[0] is b
    fresh = default_benchmark(mode=-1, eps=0.01)
    assert fresh.shell_closure is not b.shell_closure and fresh.shell_closure == b.shell_closure
    assert _shell_difference(exact, solve_ibc(fresh, 1))[0] is b
    with pytest.raises(SolverError, match="different benchmarks"):
        _shell_difference(exact, solve_ibc(dataclasses.replace(b, r_out=2.5), 1))


def test_near_singular_warning_names_the_solver_that_asked(monkeypatch):
    # the warning keeps its stack level through the closure: it points into the public solver,
    # here solve_ibc at a near-resonant Robin coefficient
    b = default_benchmark(mode=2, eps=0.1)
    wall, outer = b.shell_closure.wall, b.shell_closure.outer
    n = (outer[3], -outer[1])
    gamma = -(n[0] * wall[1] + n[1] * wall[3]) / (n[0] * wall[0] + n[1] * wall[2])
    monkeypatch.setattr(modal, "robin_coefficient", lambda k, surface, cfg: gamma * (1 + 1e-13))
    with pytest.warns(UserWarning, match="^ibc1 solve near-singular") as record:
        solve_ibc(b, 1)
    lines, start = inspect.getsourcelines(solve_ibc)
    assert len(record) == 1 and record[0].filename == modal.__file__
    assert start <= record[0].lineno < start + len(lines)


def test_conductor_norm_of_a_model_is_a_solver_error():
    b = default_benchmark(mode=1, eps=0.1)
    for model in (solve_ibc(b, 1), truncated_expansion(b, 2)):
        with pytest.raises(SolverError, match="has no conductor region"):
            conductor_l2_norm(model)


def test_expansion_sweep_solves_its_terms_once(monkeypatch):
    # the expansion terms do not depend on eps: a 3-eps order-2 sweep solves 3 exact
    # shells and the 3 terms once (3 + 9 before), with every error equal in hex to the
    # one from a per-eps truncated_expansion
    b0 = default_benchmark(mode=10, eps=0.1)
    eps_values = [1e-3, 0.0123, 0.1]
    solve = modal._solve_shell
    kinds = []
    monkeypatch.setattr(modal, "_solve_shell", lambda kind, *args, **kw: kinds.append(kind) or solve(kind, *args, **kw))
    got = model_errors(b0, "expansion", 2, eps_values)
    assert sorted(kinds) == ["exact"] * 3 + ["expansion"] * 3
    monkeypatch.undo()
    for (eps, err), want_eps in zip(got, eps_values):
        bench = b0.with_eps(want_eps)
        want = shell_l2_error(solve_exact(bench), truncated_expansion(bench, 2))
        assert eps == want_eps and bits(err.error_e, err.error_h) == bits(want.error_e, want.error_h)


def test_a_sweep_derives_its_gram_matrices_once(monkeypatch):
    # each eps point is derived from the previous one, so the first point's squares of N serve
    # the rest (one derivation per sweep, was one per eps point) and every error stays equal in
    # hex to the one from a fresh benchmark
    grams, calls = modal._shell_grams, []
    monkeypatch.setattr(modal, "_shell_grams", lambda b: calls.append(b) or grams(b))
    b0 = default_benchmark(mode=3, eps=0.1)
    for family, order in (("ibc", 1), ("expansion", 2)):
        calls.clear()
        got = model_errors(b0, family, order, [1e-3, 0.01, 0.1])
        assert len(calls) == 1
        for eps, err in got:
            bench = default_benchmark(mode=3).with_eps(eps)
            model = solve_ibc(bench, 1) if family == "ibc" else truncated_expansion(bench, 2)
            want = shell_l2_error(solve_exact(bench), model)
            assert bits(err.error_e, err.error_h) == bits(want.error_e, want.error_h)
    calls.clear()
    convergence_study(b0, "ibc", 1, [1e-4, 1e-3, 0.01, 0.03, 0.1])
    assert len(calls) == 1
    # the matrices are derived after the first point's solves: where the basis is not finite
    # the sweep ends in the closure's SolverError
    calls.clear()
    with pytest.raises(SolverError, match="^shell basis not finite"):
        model_errors(default_benchmark(mode=200), "ibc", 1, [1e-3, 0.01, 0.1])
    assert calls == []


def test_convergence_study_rejects_eps_outside_the_unit_interval():
    with pytest.raises(ValueError, match=r"eps values must lie in \(0, 1\)"):
        convergence_study(default_benchmark(mode=0), "ibc", 1, [0.001, 0.01, 0.1, 0.5, 1.0])


_TINY_RADII = (1e-300, 1.5e-300, 2e-300)
_SMALL_RADII = (1e-20, 1.5e-20, 2e-20)


def _solved_at(radii, mode: int, eps: float, sigma_plus: float = 1e-2) -> tuple[ModalSolution, ModalSolution]:
    """The exact and ibc0 solutions on a shell of the given (r_in, r_source, r_out)."""
    r_in, r_source, r_out = radii
    cfg = dataclasses.replace(default_config(eps), sigma_plus=sigma_plus)
    b = CylinderBenchmark(r_in=r_in, r_out=r_out, r_source=r_source, mode=mode, cfg=cfg)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "exact solve near-singular|ibc0 solve near-singular")
        return solve_exact(b), solve_ibc(b, 0)


def test_a_negative_closed_form_square_of_a_shell_error_is_a_solver_error():
    # math.sqrt of the magnetic square raised a bare math domain error.  The magnetic
    # square of N is 6e-81 of the O(1) terms it is summed from: a square lost
    # to round-off is nan, and the norm that reads it names itself
    exact, model = _solved_at(_TINY_RADII, 0, 0.3)
    with pytest.raises(SolverError, match=r"^magnetic shell error: squared norm nan is not a finite non-negative"):
        shell_l2_error(exact, model)


def test_a_negative_square_of_a_conductor_norm_is_a_solver_error():
    exact, _ = _solved_at(_SMALL_RADII, 3, 1e-3)
    with pytest.raises(SolverError, match=r"^conductor norm: squared norm -\S+ is not a finite non-negative"):
        conductor_l2_norm(exact)


@pytest.mark.parametrize("eps", [0.3, 1e-3])
@pytest.mark.parametrize("norm", ["error"])
def test_an_overflowing_low_loss_quadrature_is_a_solver_error(norm, eps):
    # abs(u) ** 2 raised a bare OverflowError in the quadrature the closed forms replaced;
    # the magnetic square of N is lost to round-off here (test_a_low_loss_shell_norm_at_tiny_radii_matches_mpmath)
    exact, model = _solved_at(_TINY_RADII, 0, eps, sigma_plus=1e-6)
    with pytest.raises(SolverError, match=r"^magnetic shell error: squared norm nan is not a finite non-negative"):
        shell_l2_error(exact, model)


@pytest.mark.parametrize("eps", [0.3, 1e-3])
def test_a_low_loss_shell_norm_at_tiny_radii_matches_mpmath(eps):
    # the electric square stays resolved at |k_plus r| ~ 1e-300: the error's electric part
    # matches 80-digit mpmath
    exact, model = _solved_at(_TINY_RADII, 0, eps, sigma_plus=1e-6)
    b = exact.benchmark
    _, t = _shell_difference(exact, model)
    with mp.workdps(80):
        points = _mp_basis(b)
        ref_e = _mp_shell_error(b, points, _mp_n_field(points, t), [(0, 0), (0, 0)])[0]
    assert abs(math.sqrt(modal._shell_squares(b, t)[0]) - ref_e) <= 1e-14 * ref_e


@pytest.mark.parametrize("shift", [-1000, -530, 530, 1000])
def test_a_source_amplitude_times_a_power_of_two_scales_every_norm_exactly(shift):
    # the squares were formed unscaled: past |Delta t| ~ 1.3e154 shell_l2_error raised "shell norms
    # of t*N ... overflow", conductor_l2_norm a bare OverflowError at amplitude 1e160, and it
    # returned -0.0 at amplitude 1e-300, where |A|^2 underflows
    b = default_benchmark(mode=1, eps=0.1)
    scaled = dataclasses.replace(b, source_amplitude=math.ldexp(1.0, shift) * b.source_amplitude)
    exact, exact_scaled = solve_exact(b), solve_exact(scaled)
    assert conductor_l2_norm(exact_scaled) == math.ldexp(conductor_l2_norm(exact), shift)
    for model, model_scaled in ((solve_ibc(b, k), solve_ibc(scaled, k)) for k in (0, 1, 2)):
        err, err_scaled = shell_l2_error(exact, model), shell_l2_error(exact_scaled, model_scaled)
        assert (err_scaled.error_e, err_scaled.error_h) == (
            math.ldexp(err.error_e, shift), math.ldexp(err.error_h, shift)
        )


def test_a_shell_norm_beyond_the_float_range_is_a_solver_error():
    # 2**1024 overflows in the ldexp; 2**1000 over omega*mu_plus = 1e-100 in the division
    b = default_benchmark(mode=0, eps=0.1)
    assert _shell_error(b, 1.0, 1.0, 1023).error_e == math.ldexp(1.0, 1023)
    with pytest.raises(SolverError, match=r"^electric shell error: the root of squared norm 1\.0 times 2\*\*1024 over 1\.0 overflows$"):
        _shell_error(b, 1.0, 1.0, 1024)
    slow = dataclasses.replace(b, cfg=dataclasses.replace(b.cfg, omega=1e-100))
    with pytest.raises(SolverError, match=r"^magnetic shell error: the root of squared norm 1\.0 times 2\*\*1000 over 1e-100 overflows$"):
        _shell_error(slow, 1.0, 1.0, 1000)

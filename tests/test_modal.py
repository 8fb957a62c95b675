import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from magskin import modal
from magskin.bessel import bessel_h1, bessel_j
from magskin.geometry import Surface, TangentVector
from magskin.ibc import robin_coefficient
from magskin.modal import (
    ConvergenceError,
    CylinderBenchmark,
    PlaneBenchmark,
    SolverError,
    _composite_integral,
    _shell_difference,
    _shell_error,
    _shell_l2_error_quadrature,
    _shell_squares_lommel,
    conductor_l2_norm,
    convergence_study,
    default_benchmark,
    default_config,
    fit_convergence,
    require_decreasing_errors,
    shell_l2_error,
    shell_l2_norm,
    solve_exact,
    solve_expansion_term,
    solve_ibc,
    solve_ibc_with_gamma,
    solve_plane_exact,
    truncated_expansion,
)
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
    u_minus, du_minus = sol._eval_conductor(b.r_in)
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
    norms = [
        shell_l2_norm(solve_exact(default_benchmark(mode=0, eps=1.0 / math.sqrt(mu))))
        for mu in (1e2, 1e3, 1e4, 1e5, 1e6)
    ]
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
    c = solve_expansion_term(b, 0)
    for x, y in zip(a.shell_inner + a.shell_outer, c.shell_inner + c.shell_outer):
        assert abs(x - y) <= 1e-14 * max(abs(x), 1.0)


def test_ibc_error_decreases_with_eps():
    b = default_benchmark(mode=0)
    e_coarse = shell_l2_error(solve_exact(b.with_eps(1e-1)), solve_ibc(b.with_eps(1e-1), 0)).total
    e_fine = shell_l2_error(solve_exact(b.with_eps(1e-2)), solve_ibc(b.with_eps(1e-2), 0)).total
    assert e_fine < e_coarse


def test_dirichlet_limit_is_stable():
    b = default_benchmark(mode=0, eps=0.1)
    sol = solve_ibc_with_gamma(b, 1e12 + 0j)
    scale = max(abs(sol.u(r)) for r in (1.2, 1.5, 1.9))
    assert abs(sol.u(b.r_in)) <= 1e-9 * scale


def test_expansion_order1_datum_matches_boundary_operator():
    b = default_benchmark(mode=2, eps=0.05)
    lam = b.params.lam
    term0 = solve_expansion_term(b, 0)
    term1 = solve_expansion_term(b, 1)
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
    term0 = solve_expansion_term(b, 0)
    term1 = solve_expansion_term(b, 1)
    term2 = solve_expansion_term(b, 2)
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
    # normalisation J_m(k_minus r_in) are unscaled, at eps <= 0.01 scaled
    b = default_benchmark(mode=mode, eps=eps)
    sol = solve_exact(b)
    for r in [0.0, 1e-3, 0.3] + [b.r_in * (1.0 - 2.0**-k) for k in (1, 3, 6, 12, 40)]:
        assert bits(sol.u(r)) == bits(sol._eval(r)[0]), r
    assert b.conductor_ref.is_scaled is (eps < 0.1)
    ibc = solve_ibc(b, 1)
    with pytest.raises(SolverError, match="no conductor region"):
        ibc.u(0.5)


def test_point_evaluation_accepts_the_domain_ends():
    b = default_benchmark(mode=1, eps=0.1)
    sol = solve_exact(b)
    for r in (0.0, b.r_out * (1 + 1e-12)):
        assert cmath.isfinite(sol.u(r)) and cmath.isfinite(sol.u_prime(r))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 5.0, 1.0 * (1 + 1e-11)])
def test_plane_point_evaluation_rejects_coordinates_outside_the_domain(x):
    # u(nan) returned nan+nanj, u(5.0) extrapolated past the wall, u(inf) raised "math domain error"
    sol = solve_plane_exact(PlaneBenchmark(thickness=1.0, x_source=0.4, cfg=default_config(eps=0.01)))
    with pytest.raises(ValueError, match=f"coordinate x={x!r} not finite or beyond the thickness 1.0"):
        sol.u(x)


def test_plane_point_evaluation_reads_the_solve_basis():
    pb = PlaneBenchmark(thickness=1.0, x_source=0.4, cfg=default_config(eps=0.01))
    sol = solve_plane_exact(pb)
    kp = sol.k_plus
    inner, outer = sol.shell_inner, sol.shell_outer
    for x, coeff in ((0.1, inner), (0.4, inner), (0.7, outer), (1.0, outer), (1.0 * (1 + 1e-12), outer)):
        assert sol.u(x) == coeff[0] * cmath.exp(1j * kp * x) + coeff[1] * cmath.exp(-1j * kp * x)
    for x in (0.0, -0.3):
        assert sol.u(x) == sol.conductor_amplitude * cmath.exp(-1j * sol.k_minus * x)


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


def test_fit_convergence_guards():
    with pytest.raises(ValueError, match="at least 4"):
        fit_convergence([(0.1, 1.0), (0.01, 0.1), (0.001, 0.01)])
    with pytest.raises(ValueError, match="two decades"):
        fit_convergence([(0.1, 1.0), (0.09, 0.9), (0.08, 0.8), (0.07, 0.7)])
    with pytest.raises(ValueError, match="positive"):
        fit_convergence([(0.1, 1.0), (0.01, -0.1), (0.001, 0.01), (0.0001, 0.001)])


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
    wall, ring, outer = b.shell_basis
    # gamma = -N'/N at r_in makes N, which already meets u' = 0 at r_out, meet the wall too
    n = (outer[3], -outer[1])
    gamma = -(n[0] * wall[1] + n[1] * wall[3]) / (n[0] * wall[0] + n[1] * wall[2])
    with pytest.warns(UserWarning, match="near-singular: resonance number"):
        modal._shell_green("demo", wall, ring, outer, b.k_plus, gamma * (1 + 1e-13), 0j, 1.0)
    # a basis where N' + gamma*N vanishes exactly: N = f1 with f1 = f1' = 1 at the wall, gamma = -1
    wall, ring, outer = (1.0, 1.0, 0.0, 1.0), (2.0, 1.0, 1.0, 3.0), (1.0, 0.0, 0.0, 1.0)
    with pytest.raises(SolverError, match="resonant"):
        modal._shell_green("demo", wall, ring, outer, 1.0, -1.0, 0j, 1.0)
    # away from resonance it solves without a warning; kappa is the larger of the
    # Neumann (gamma = 0) and the Robin closure's resonance numbers
    for gamma, want in ((0.5, 2.0), (-0.9, 2.9 / 0.1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kappa = modal._shell_green("demo", wall, ring, outer, 1.0, gamma, 2.0, 1.0)[2]
        assert kappa == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("mode", [0, 10, 60, 100])
@pytest.mark.parametrize("eps", [1e-3, 1e-1])
def test_model_differences_match_the_wall_defect_error(mode, eps):
    # u_exact - u_ibc solves the source-free shell problem with the wall datum
    # (gamma_k - gamma_exact)*u_exact(r_in), so it is t*N; subtraction must resolve it
    # where it is 1e-23 of the shell norm (mode 100, eps 1e-3), far below the fields' round-off
    b = default_benchmark(mode=mode, eps=eps)
    wall, _, outer = b.shell_basis
    n = (outer[3], -outer[1])
    n_wall, dn_wall = (n[0] * wall[0] + n[1] * wall[2], n[0] * wall[1] + n[1] * wall[3])
    exact = solve_exact(b)
    for k in (0, 1, 2):
        gamma = robin_coefficient(k, b.mode, Surface.cylinder(b.r_in), b.cfg).gamma
        t = (gamma - b.conductor_gamma) * exact.u(b.r_in) / (dn_wall + gamma * n_wall)
        coeff = (t * n[0], t * n[1])
        want = _shell_error(b, *modal._shell_squares(b, coeff, coeff)).total
        got = shell_l2_error(exact, solve_ibc(b, k)).total
        assert abs(got - want) <= 1e-6 * want, (k, got, want)


def test_composite_integral_against_closed_forms():
    (val,) = _composite_integral(lambda r: (math.exp(-r),), 0.0, 3.0)
    assert abs(val - (1.0 - math.exp(-3.0))) <= 1e-13
    (val,) = _composite_integral(lambda r: (r**3,), 0.0, 2.0)
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

    (coarse,) = _composite_integral(density, b.r_in, b.r_source, max_panels=4)
    (fine,) = _composite_integral(density, b.r_in, b.r_source, max_panels=64)
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


@pytest.mark.parametrize("mode", [0, 1, 5])
def test_scalar_quadrature_matches_the_numpy_panel_sum(mode):
    # the panel sums moved from np.dot to math.fsum; measured worst 3.1e-16 on modes 0-30
    b = _with_sigma_plus(default_benchmark(mode=mode, eps=0.01), 1e-6)
    _, inner, outer = _shell_difference(solve_exact(b), solve_ibc(b, 1))
    for coeff, lo, hi in ((inner, b.r_in, b.r_source), (outer, b.r_source, b.r_out)):

        def density(r, coeff=coeff):
            u, du = modal._combine(coeff, modal._shell_point(mode, b.k_plus, r))
            return (abs(du) ** 2 + (mode / r) ** 2 * abs(u) ** 2) * r

        want = _numpy_composite_integral(density, lo, hi)
        (got,) = _composite_integral(lambda r: (density(r),), lo, hi)
        assert abs(got - want) <= 1e-15 * want


def test_composite_integral_raises_at_panel_cap():
    # sin^2(400 r) on [0, 10] integrates to 4.999...; two panels give 5.16
    with pytest.raises(SolverError, match="2 panels"):
        _composite_integral(lambda r: (math.sin(400.0 * r) ** 2,), 0.0, 10.0, max_panels=2)


def test_overflowing_basis_surfaces_as_solver_error():
    # at mode 200 H1_m(k_plus r) overflows at every shell radius
    with pytest.raises(SolverError, match="exact shell basis not finite"):
        solve_exact(default_benchmark(mode=200))


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
@pytest.mark.parametrize("mode, tol", [(m, 1e-11) for m in range(6)] + [(10, 1e-9), (30, 1e-9)])
def test_shell_closed_form_matches_quadrature(mode, tol, sigma_plus):
    diffs = []
    for eps in (1e-1, 1e-2, 1e-3):
        b = _with_sigma_plus(default_benchmark(mode=mode, eps=eps), sigma_plus)
        exact = solve_exact(b)
        diffs += [_shell_difference(exact, model)[1:] for model in _models(b)]
    # k_plus does not depend on eps, so every difference lives on the same shell basis
    for (inner, outer), ref in zip(diffs, _gauss_shell_squares(b, diffs)):
        got = _shell_squares_lommel(b, inner, outer)
        assert max(abs(g - q) / q for g, q in zip(got, ref)) <= tol


@pytest.mark.parametrize("mode", [0, 5, 30])
def test_shell_error_agrees_with_quadrature_oracle(mode):
    b = default_benchmark(mode=mode, eps=1e-2)
    exact, models = solve_exact(b), _models(b)
    for model in models:
        got, ref = shell_l2_error(exact, model), _shell_l2_error_quadrature(exact, model)
        assert abs(got.error_e - ref.error_e) <= 1e-11 * ref.error_e
        assert abs(got.error_h - ref.error_h) <= 1e-11 * ref.error_h


def test_low_loss_shell_error_falls_back_to_quadrature():
    b = _with_sigma_plus(default_benchmark(mode=2, eps=1e-2), 1e-6)
    exact, model = solve_exact(b), solve_ibc(b, 1)
    ref = _shell_l2_error_quadrature(exact, model)
    assert shell_l2_error(exact, model) == ref
    # the closed form alone would differ here, so equality shows the quadrature ran
    assert _shell_error(b, *_shell_squares_lommel(*_shell_difference(exact, model))) != ref


def test_low_loss_quadrature_evaluates_one_shell_point_per_node(monkeypatch):
    # two pieces, each converged at 2 panels after 1: 2 * (1 + 2) * 48 nodes,
    # one basis point each for both densities (576 points at 288 radii before)
    b = _with_sigma_plus(default_benchmark(mode=1, eps=1e-2), 1e-6)
    _, inner, outer = _shell_difference(solve_exact(b), solve_ibc(b, 1))
    radii = []
    point = modal._shell_point
    monkeypatch.setattr(modal, "_shell_point", lambda m, k, r: radii.append(r) or point(m, k, r))
    e_sq, h_sq = modal._shell_squares_quadrature(b, inner, outer)
    assert len(radii) <= 288 and len(set(radii)) == len(radii)
    monkeypatch.undo()

    # against one quadrature run per density, within the stop tolerance
    def alone(density) -> float:
        total = 0.0
        for coeff, lo, hi in ((inner, b.r_in, b.r_source), (outer, b.r_source, b.r_out)):

            def one(r, coeff=coeff):
                return (density(*modal._combine(coeff, point(1, b.k_plus, r)), r),)

            total += _composite_integral(one, lo, hi)[0]
        return total

    ref_e = alone(lambda u, du, r: abs(u) ** 2 * r)
    ref_h = alone(lambda u, du, r: (abs(du) ** 2 + (1 / r) ** 2 * abs(u) ** 2) * r)
    assert abs(e_sq - ref_e) <= 1e-12 * ref_e and abs(h_sq - ref_h) <= 1e-12 * ref_h


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
    with pytest.raises(ValueError, match="r_in < r_source < r_out"):
        CylinderBenchmark(r_in=1.0, r_out=2.0, r_source=2.5, mode=0, cfg=cfg)
    with pytest.raises(ValueError, match="mode"):
        CylinderBenchmark(r_in=1.0, r_out=2.0, r_source=1.5, mode=300, cfg=cfg)


def test_plane_solver_conditions_and_decay():
    pb = PlaneBenchmark(thickness=1.0, x_source=0.4, cfg=default_config(eps=0.01))
    sol = solve_plane_exact(pb)
    assert max(sol.residuals.values()) <= 1e-10
    dp = pb.params
    # single decaying exponential: e-folding depth is exactly ell*phi
    trace = DecayTrace(sampler=lambda h: abs(sol.u(-h)), max_depth=10 * dp.ell_phi)
    root = skin_depth_numeric(trace, dp.ell_phi)
    assert abs(root - dp.ell_phi) <= 1e-12 * dp.ell_phi


def _plane_5x5(pb: PlaneBenchmark) -> list[complex]:
    """Reference: [A, B, C, D, E] of the plane solve from its five transmission conditions."""
    dp, cfg = pb.params, pb.cfg
    kp = dp.kappa_plus * cmath.sqrt(dp.alpha_plus)
    km = dp.kappa_plus * cmath.sqrt(dp.alpha_minus) / dp.eps_small
    ep, em = (lambda x: cmath.exp(1j * kp * x)), (lambda x: cmath.exp(-1j * kp * x))
    xs, L = pb.x_source, pb.thickness
    rows = [
        [1.0, -1.0, -1.0, 0, 0],
        [-1j * km / cfg.mu_minus, -1j * kp / cfg.mu_plus, 1j * kp / cfg.mu_plus, 0, 0],
        [0, ep(xs), em(xs), -ep(xs), -em(xs)],
        [0, -1j * kp * ep(xs), 1j * kp * em(xs), 1j * kp * ep(xs), -1j * kp * em(xs)],
        [0, 0, 0, 1j * kp * ep(L), -1j * kp * em(L)],
    ]
    rhs = [0, 0, 0, pb.source_amplitude, 0]
    return list(np.linalg.solve(np.array(rows, dtype=complex), np.array(rhs, dtype=complex)))


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("thickness, x_source", [(1.0, 0.4), (3.0, 2.5)])
def test_plane_solve_matches_the_5x5_reference(eps, thickness, x_source):
    pb = PlaneBenchmark(thickness=thickness, x_source=x_source, cfg=default_config(eps=eps))
    sol = solve_plane_exact(pb)
    got = [sol.conductor_amplitude, *sol.shell_inner, *sol.shell_outer]
    scale = max(abs(v) for v in got)
    for g, w in zip(got, _plane_5x5(pb)):
        assert abs(g - w) <= 1e-13 * scale


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


@pytest.mark.parametrize("call", [2, 3, 4])
def test_a_nan_residual_fails_the_plane_check(monkeypatch, call):
    # residual order: source_u, source_jump, outer_flux, wall, as in the shell check
    pb = PlaneBenchmark(thickness=1.0, x_source=0.4, cfg=default_config(eps=0.01))
    _nan_on_call(monkeypatch, call)
    with pytest.raises(SolverError, match="nan"):
        solve_plane_exact(pb)


@pytest.mark.parametrize("mode", [0, 3, 10, 30, 60, "plane"])
def test_source_jump_residual_sees_a_relative_source_error(mode, monkeypatch):
    # the jump's scale is the size of the terms it combines, not of bare coefficients;
    # each check is repeated on the points and coefficients its solve passed in
    checks, shell_residuals = [], modal._shell_residuals

    def recorded(*args):
        checks.append(args)
        return shell_residuals(*args)

    monkeypatch.setattr(modal, "_shell_residuals", recorded)
    if mode == "plane":
        pb = PlaneBenchmark(thickness=1.0, x_source=0.4, cfg=default_config(eps=0.01))
        sols = [solve_plane_exact(pb)]
        assert list(sols[0].residuals) == ["source_u", "source_jump", "outer_flux", "wall"]
    else:
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
    u_minus, du_minus = sol._eval_conductor(b.r_in)
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
        def wrapper(m, z):
            calls.append((name, m, z))
            return fn(m, z)

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
    shell_l2_norm(exact)
    for r in (b.r_in, b.r_source, b.r_out):
        exact.u(r)
    assert len(calls) == 7


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
    terms = [solve_expansion_term(dataclasses.replace(b), j) for j in (0, 1, 2)]
    eps = b.params.eps_small
    assert sol.shell_inner[0] == sum(eps**j * t.shell_inner[0] for j, t in enumerate(terms))
    assert sol.shell_inner[1] == sum(eps**j * t.shell_inner[1] for j, t in enumerate(terms))
    assert sol.shell_outer[0] == sum(eps**j * t.shell_outer[0] for j, t in enumerate(terms))
    assert sol.shell_outer[1] == sum(eps**j * t.shell_outer[1] for j, t in enumerate(terms))
    for order in (-1, 3):
        with pytest.raises(ValueError, match="expansion order"):
            truncated_expansion(b, order)


def test_truncated_expansion_reports_the_worst_residual_of_its_terms():
    b = default_benchmark(mode=0, eps=0.1)
    sol = truncated_expansion(b, 2)
    terms = [solve_expansion_term(dataclasses.replace(b), j) for j in (0, 1, 2)]
    assert set(sol.residuals) == set(terms[0].residuals)
    for key, worst in sol.residuals.items():
        assert worst == max(t.residuals[key] for t in terms)
    # term 0 holds the worst residual here (source_u 2.51e-16); terms 1 and 2 read 6.1e-17, 7.3e-17
    assert max(sol.residuals.values()) >= max(terms[1].residuals.values())
    assert max(sol.residuals.values()) > max(terms[2].residuals.values())


def test_shell_basis_belongs_to_one_benchmark_instance():
    # with_eps changes mu_minus only, which k_plus does not depend on: it hands
    # an evaluated basis to the copy, and evaluates none for it
    assert "shell_basis" not in vars(default_benchmark(mode=1, eps=0.1).with_eps(0.01))
    b = default_benchmark(mode=1, eps=0.1)
    basis, ref = b.shell_basis, b.conductor_ref
    same_eps, other_mode = b.with_eps(0.01), dataclasses.replace(b, mode=4)
    assert same_eps.k_plus == b.k_plus and same_eps.shell_basis is basis
    assert "shell_basis" not in vars(other_mode)
    assert other_mode.shell_basis is not basis and other_mode.shell_basis != basis
    for other in (same_eps, other_mode):
        assert "conductor_ref" not in vars(other)
        m, kp = abs(other.mode), other.k_plus
        for r, point in zip((other.r_in, other.r_source, other.r_out), other.shell_basis):
            jv, hv = bessel_j(m, kp * r), bessel_h1(m, kp * r)
            assert point == (jv.actual, kp * jv.actual_derivative, hv.actual, kp * hv.actual_derivative)
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
        u, du = sol._eval_conductor(b.r_in)
        assert u == sol.conductor_amplitude * jv.value / jv.value * cmath.exp(0j)
        assert du == sol.conductor_amplitude * km * jv.derivative / jv.value * cmath.exp(0j)


def _solve_exact_6x6(b: CylinderBenchmark) -> modal.ModalSolution:
    """Reference: the exact solve with an H1_m(k_minus r) conductor column and a row pinning it to 0."""
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
    x = np.linalg.solve(np.array(rows, dtype=complex), np.array(rhs, dtype=complex))
    return modal.ModalSolution(
        kind="exact",
        order=None,
        benchmark=b,
        shell_inner=(x[2], x[3]),
        shell_outer=(x[4], x[5]),
        conductor_amplitude=x[0],
        condition_number=math.nan,
        residuals={},
    )


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1])
def test_exact_solve_matches_the_6x6_reference(eps):
    # measured worst over modes 0-100: coefficients 1.2e-14, shell errors 1.6e-14 of the shell norm
    for mode in range(101):
        b = default_benchmark(mode=mode, eps=eps)
        sol = solve_exact(b)
        models = [solve_ibc(b, k) for k in (0, 1, 2)]
        ref = _solve_exact_6x6(b)
        got = (sol.conductor_amplitude, *sol.shell_inner, *sol.shell_outer)
        want = (ref.conductor_amplitude, *ref.shell_inner, *ref.shell_outer)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w), (mode, eps)
        # ibc errors near round-off are far below the shell norm; measure differences against it
        scale = shell_l2_norm(ref)
        assert shell_l2_error(sol, ref).total <= 1e-12 * scale, (mode, eps)
        for model in models:
            diff = shell_l2_error(sol, model).total - shell_l2_error(ref, model).total
            assert abs(diff) <= 1e-12 * scale, (mode, eps)

"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line on success (run with -s to see them);
a failed assertion reads as the criterion's FAIL.
"""

import cmath
import dataclasses
import math
import time

import pytest

from magskin.bessel import bessel_h1, bessel_j, wronskian_jh1, wronskian_jy
from magskin.geometry import Surface, TangentVector
from magskin.ibc import impedance_operator, leontovich_limit_check
from magskin.modal import (
    conductor_l2_norm,
    default_benchmark,
    fit_convergence,
    shell_l2_error,
    solve_exact,
    solve_ibc,
    truncated_expansion,
)
from magskin.params import PhysicalConfig, derive_params, phi
from magskin.profiles import HarmonicTangentField, LayerField, TraceData, make_w0, make_w1
from magskin.skin import DecayTrace, skin_depth_asymptotic, skin_depth_numeric, w0_plane_trace

from conftest import log_grid, loglog_slope

EPS_SWEEP = [10.0**e for e in (-3.0, -2.5, -2.0, -1.5, -1.0)]


def _report(n: int, message: str) -> None:
    print(f"[criterion {n:2d}] PASS: {message}")


def test_criterion_01_identity_suite():
    grid = log_grid(1e-3, 1e3, 10)
    mu_grid = log_grid(1.0, 1e6, 10)
    start = time.perf_counter()
    count = 0
    worst_sq = 0.0
    worst_depth = 0.0
    for omega in grid:
        for sigma in grid:
            for mu_plus in grid:
                for mu_rel in mu_grid:
                    cfg = PhysicalConfig(
                        omega=omega, eps0=1.0, mu_plus=mu_plus, mu_minus=mu_plus * mu_rel,
                        sigma_plus=sigma, sigma_minus=sigma,
                    )
                    dp = derive_params(cfg)
                    target = dp.kappa_plus**2 * dp.alpha_minus
                    worst_sq = max(worst_sq, abs(-dp.lam**2 - target) / abs(target))
                    lhs = dp.eps_small / dp.lam.real
                    worst_depth = max(worst_depth, abs(lhs - dp.ell * dp.phi_value) / lhs)
                    count += 1
    elapsed = time.perf_counter() - start
    assert count == 10000
    assert worst_sq <= 1e-12
    assert worst_depth <= 1e-12
    assert elapsed < 1.0
    _report(1, f"{count} points, worst gaps {worst_sq:.2e} / {worst_depth:.2e}, {elapsed:.2f}s")


def test_criterion_02_phi_limits_and_slopes():
    assert abs(phi(1e-4) - 1.0) <= 1e-6
    assert abs(phi(1e4) / (math.sqrt(2.0) * 1e4) - 1.0) <= 1e-6
    small = [(d, phi(d) - 1.0) for d in log_grid(1e-4, 1e-2, 9)]
    slope_small = loglog_slope(small)
    assert abs(slope_small - 2.0) <= 0.1
    large = [(d, phi(d) / (math.sqrt(2.0) * d) - 1.0) for d in log_grid(10.0, 1000.0, 9)]
    slope_large = loglog_slope(large)
    assert abs(slope_large - (-4.0)) <= 0.1
    _report(2, f"limits met, residual slopes {slope_small:.3f} and {slope_large:.3f}")


def test_criterion_03_profile_ode_residuals(rng):
    start = time.perf_counter()
    cfg = PhysicalConfig(omega=1, eps0=1, mu_plus=1, mu_minus=100, sigma_plus=0.01, sigma_minus=1)
    lam = derive_params(cfg).lam
    s = Surface.cylinder(1.0)
    tr = TraceData(
        e0_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(0.8 + 0.3j, 0.5 - 0.2j), 2),
        e1_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(0.1 - 0.4j, -0.3 + 0.6j), 2),
    )
    w0 = make_w0(tr, lam)
    w1 = make_w1(tr, lam)
    d3w0 = w0.depth_derivative()
    second0 = d3w0.depth_derivative()
    second1 = w1.depth_derivative().depth_derivative()
    k1, k2 = s.principal_curvatures
    tr_b = k1 + k2
    worst = 0.0
    for _ in range(100):
        y = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        y3s = rng.uniform(0.0, 6.0)
        r0 = second0.tangential(y, y3s) - w0.tangential(y, y3s).scale(lam * lam)
        scale0 = max(w0.tangential(y, y3s).modulus() * abs(lam) ** 2, 1e-300)
        worst = max(worst, r0.modulus() / scale0)
        d0 = d3w0.tangential(y, y3s)
        lhs = second1.tangential(y, y3s) - w1.tangential(y, y3s).scale(lam * lam)
        rhs = TangentVector(
            -2.0 * k1 * d0.c1 + tr_b * d0.c1, -2.0 * k2 * d0.c2 + tr_b * d0.c2
        )
        scale1 = max(d0.modulus(), 1e-300)
        worst = max(worst, (lhs - rhs).modulus() / scale1)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(3, f"worst layer-equation residual {worst:.2e} at 100 random points")


def test_criterion_04_umbilic_degeneracy(rng):
    cfg = PhysicalConfig(omega=2.0, eps0=1.0, mu_plus=1.0, mu_minus=300.0,
                         sigma_plus=0.05, sigma_minus=3.0)
    d1 = impedance_operator(1, cfg)
    d2 = impedance_operator(2, cfg)
    s = Surface.sphere(0.37)
    for _ in range(100):
        v = TangentVector(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        a, b = d1.apply(s, v), d2.apply(s, v)
        assert a.c1 == b.c1 and a.c2 == b.c2
    _report(4, "order-2 action identical to order-1 on the sphere, 100 vectors, exact")


def test_criterion_05_plane_skin_depth():
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        cfg = PhysicalConfig(
            omega=10.0 ** ((i % 3) - 1),
            eps0=1.0,
            mu_plus=10.0 ** ((i % 2) - 1),
            mu_minus=10.0 ** ((i % 2) - 1) * 10.0 ** (2 + (i % 5)),
            sigma_plus=0.01,
            sigma_minus=10.0 ** ((i % 4) - 2),
        )
        dp = derive_params(cfg)
        root = skin_depth_numeric(w0_plane_trace(dp), dp.ell_phi)
        worst = max(worst, abs(root - dp.ell_phi) / dp.ell_phi)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 1.0
    _report(5, f"20 plane points, worst relative gap {worst:.2e}")


def test_criterion_06_curvature_law_rate():
    b0 = default_benchmark(mode=0)
    pts = []
    for mu_r in (1e2, 1e3, 1e4, 1e5, 1e6):
        bench = b0.with_eps(1.0 / math.sqrt(mu_r))
        dp = bench.params
        sol = solve_exact(bench)
        trace = DecayTrace(
            sampler=lambda h, s=sol, rin=bench.r_in: abs(s.u(rin - h)),
            max_depth=min(10.0 * dp.ell_phi, 0.95 * bench.r_in),
        )
        numeric = skin_depth_numeric(trace, dp.ell_phi)
        law = skin_depth_asymptotic(dp, 0.5 / bench.r_in)
        pts.append((mu_r, abs(numeric - law) / dp.ell_phi))
    fit = fit_convergence(pts)
    assert abs(fit.slope - (-1.0)) <= 0.2
    assert fit.r_squared >= 0.98
    _report(6, f"remainder slope {fit.slope:.3f}, r^2 {fit.r_squared:.4f}")


def test_criterion_07_impedance_model_rates():
    start = time.perf_counter()
    slopes = {}
    for mode in (0, 1, 2):
        b0 = default_benchmark(mode=mode)
        errors = {k: [] for k in (0, 1, 2)}
        for eps in EPS_SWEEP:
            bench = b0.with_eps(eps)
            exact = solve_exact(bench)
            for k in (0, 1, 2):
                errors[k].append((eps, shell_l2_error(exact, solve_ibc(bench, k)).total))
        for k in (0, 1, 2):
            fit = fit_convergence(errors[k])
            tol = 0.3 if k == 2 else 0.2
            assert abs(fit.slope - (k + 1.0)) <= tol, (mode, k, fit.slope)
            assert fit.r_squared >= 0.98, (mode, k, fit.r_squared)
            slopes[(mode, k)] = fit.slope
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    text = "; ".join(f"m={m},k={k}: {s:.2f}" for (m, k), s in sorted(slopes.items()))
    _report(7, f"{text} ({elapsed:.1f}s)")


def test_criterion_08_truncated_expansion_rates():
    slopes = {}
    for mode in (0, 1):
        b0 = default_benchmark(mode=mode)
        for order in (0, 1):
            pts = []
            for eps in EPS_SWEEP:
                bench = b0.with_eps(eps)
                err = shell_l2_error(solve_exact(bench), truncated_expansion(bench, order)).total
                pts.append((eps, err))
            fit = fit_convergence(pts)
            assert abs(fit.slope - (order + 1.0)) <= 0.2, (mode, order, fit.slope)
            assert fit.r_squared >= 0.98
            slopes[(mode, order)] = fit.slope
    text = "; ".join(f"m={m},order={o}: {s:.2f}" for (m, o), s in sorted(slopes.items()))
    _report(8, text)


def test_criterion_09_conductor_norm_scaling():
    b0 = default_benchmark(mode=0)
    pts = []
    for eps in EPS_SWEEP:
        pts.append((eps, conductor_l2_norm(solve_exact(b0.with_eps(eps)))))
    fit = fit_convergence(pts)
    assert abs(fit.slope - 0.5) <= 0.1
    _report(9, f"conductor-field norm slope {fit.slope:.3f}")


def test_criterion_10_strong_absorption_limit():
    cfgs = [
        PhysicalConfig(omega=1.0, eps0=1.0, mu_plus=1.0, mu_minus=100.0,
                       sigma_plus=0.01, sigma_minus=1.0 / d**2)
        for d in log_grid(1e-4, 1e-1, 7)
    ]
    rows = leontovich_limit_check(cfgs)
    pts = [(r.delta_minus, r.relative_gap) for r in rows]
    slope = loglog_slope(pts)
    assert abs(slope - 2.0) <= 0.1
    _report(10, f"impedance gap decays with slope {slope:.3f}")


def test_criterion_11_special_function_health(rng):
    worst_w = 0.0
    for radius in log_grid(1e-2, 1e3, 6):
        for arg in (-math.pi / 2, -math.pi / 4, 0.0, math.pi / 4, math.pi / 2):
            z = cmath.rect(radius, arg)
            if z.real < 0:
                z = complex(0.0, z.imag)
            for m in (0, 1, 4, 7, 40, 200):
                target = 2j / (math.pi * z)
                worst_w = max(worst_w, abs(wronskian_jh1(m, z) - target) / abs(target))
                target_jy = 2.0 / (math.pi * z)
                worst_w = max(worst_w, abs(wronskian_jy(m, z) - target_jy) / abs(target_jy))
    assert worst_w <= 1e-10

    worst_rec = 0.0
    for _ in range(50):
        m = rng.choice([1, 2, 5, 12, 33, 90])
        z = cmath.rect(10 ** rng.uniform(-1.5, 2.5), rng.uniform(-math.pi / 2, math.pi / 2))
        if z.real < 0:
            z = complex(0.0, z.imag)
        if abs(z.imag) > 28:
            continue
        triple = [bessel_j(m + d, z).actual for d in (-1, 0, 1)]
        scale = max(abs(triple[0]) + abs(triple[2]), abs(2.0 * m / z * triple[1]))
        worst_rec = max(
            worst_rec, abs(triple[0] + triple[2] - (2.0 * m / z) * triple[1]) / scale
        )
    assert worst_rec <= 1e-9

    for z in (3 + 1000j, 5 - 1000j, 700 + 980j):
        jv, hv = bessel_j(2, z), bessel_h1(2, z)
        assert all(
            cmath.isfinite(v) for v in (jv.value, jv.derivative, hv.value, hv.derivative)
        )
        assert jv.is_scaled and hv.is_scaled
    _report(11, f"worst Wronskian gap {worst_w:.2e}, worst recurrence gap {worst_rec:.2e}")


def _layer_error_slopes(mode: int) -> dict[str, list[float]]:
    """Local log-log slopes in eps of the worst gap between layer fields and the exact conductor field.

    The layer field is W0 + eps*W1 of the axial unit trace of the mode on the unit cylinder,
    with e1 = 0; the exact field is u(r_in - y3)/u(r_in).  Each gap is the maximum over
    Y3 = y3/eps in (0, 10] at 100 depths.  The controls are W0 alone and W1's curvature
    term Y3*(H - C)e0 with its sign flipped.
    """
    s = Surface.cylinder(1.0)
    tr = TraceData(
        e0_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(0j, 1 + 0j), mode),
        e1_trace=HarmonicTangentField.cylinder_mode(s, TangentVector.zero(), mode),
    )
    b0 = default_benchmark(mode=mode)
    gaps = {"w0+eps*w1": [], "w0": [], "flipped curvature": []}
    for eps in (1e-2, 3e-3, 1e-3, 3e-4):
        bench = b0.with_eps(eps)
        dp, exact = bench.params, solve_exact(bench)
        field = LayerField.at(s, tr, dp.lam, dp.eps_small, (0.0, 0.0))
        fields = (
            field,
            dataclasses.replace(field, curvature=TangentVector.zero()),
            dataclasses.replace(field, curvature=field.curvature.scale(-1.0)),
        )
        depths = [dp.eps_small * 0.1 * j for j in range(1, 101)]
        ref = [exact.u(bench.r_in - y3) / exact.conductor_amplitude for y3 in depths]
        for name, f in zip(gaps, fields):
            gaps[name].append((eps, max(abs(f.fields(y3)[0].c2 - u) for y3, u in zip(depths, ref))))
    return {
        name: [math.log(e1 / e0) / math.log(x1 / x0) for (x0, e0), (x1, e1) in zip(pts, pts[1:])]
        for name, pts in gaps.items()
    }


def test_criterion_14_layer_field_against_the_exact_conductor_field():
    # measured local slopes 2.02/2.01/2.00 on each of modes 0-2 (worst gap 1.1e-7 at mode 2,
    # eps 3e-4); both controls read 1.00 +- 0.02, so the criterion pins W1's curvature term and its sign
    text = []
    for mode in (0, 1, 2):
        slopes = _layer_error_slopes(mode)
        assert all(abs(p - 2.0) <= 0.1 for p in slopes["w0+eps*w1"]), (mode, slopes)
        for control in ("w0", "flipped curvature"):
            assert all(abs(p - 1.0) <= 0.2 for p in slopes[control]), (mode, control, slopes)
        text.append(f"m={mode}: " + "/".join(f"{p:.2f}" for p in slopes["w0+eps*w1"]))
    _report(14, "layer-field gap local slopes " + "; ".join(text))

import cmath
import math
import re

import pytest

from magskin.geometry import Surface, TangentVector
from magskin.ibc import (
    consistency_with_lambda,
    impedance_operator,
    leontovich_limit_check,
    robin_coefficient,
)
from magskin.modal import default_benchmark, solve_ibc
from magskin.params import PhysicalConfig, derive_params

from conftest import log_grid, loglog_slope


def config(mu_minus=100.0, sigma_minus=1.0, omega=1.0, eps0=1.0, mu_plus=1.0, sigma_plus=0.01):
    return PhysicalConfig(
        omega=omega, eps0=eps0, mu_plus=mu_plus, mu_minus=mu_minus,
        sigma_plus=sigma_plus, sigma_minus=sigma_minus,
    )


def test_order_zero_is_the_zero_operator():
    op = impedance_operator(0, config())
    assert op.scalar_part == 0j and op.curvature_part == 0j
    v = TangentVector(1.0 + 2j, -0.5j)
    out = op.apply(Surface.sphere(1.0), v)
    assert out.c1 == 0j and out.c2 == 0j


def test_order_one_unit_inputs():
    op = impedance_operator(1, config(mu_minus=1.0, sigma_minus=1.0))
    expected = 2.0**0.25 * cmath.exp(1j * math.pi / 8.0)
    assert abs(op.scalar_part - expected) <= 1e-15
    assert op.curvature_part == 0j


def test_order_two_curvature_coefficient():
    cfg = config(mu_minus=50.0, omega=3.0)
    op = impedance_operator(2, cfg)
    assert abs(op.curvature_part - 1.0 / (1j * cfg.omega * cfg.mu_minus)) <= 1e-18


def test_unsupported_order_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        impedance_operator(3, config())
    # bool and float orders compared equal to 0, 1 or 2 and were accepted
    for k in (True, False, 1.0, 2.0):
        with pytest.raises(ValueError, match=f"unsupported impedance order {k!r}"):
            impedance_operator(k, config())
        with pytest.raises(ValueError, match=f"unsupported impedance order {k!r}"):
            solve_ibc(default_benchmark(mode=1), k)


def test_sphere_umbilic_degeneracy(rng):
    cfg = config()
    d1 = impedance_operator(1, cfg)
    d2 = impedance_operator(2, cfg)
    s = Surface.sphere(0.8)
    for _ in range(100):
        v = TangentVector(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        a = d1.apply(s, v)
        b = d2.apply(s, v)
        assert a.c1 == b.c1 and a.c2 == b.c2


def test_consistency_with_lambda_unit_case():
    cfg = config(mu_minus=1.0, sigma_minus=1.0)
    dp = derive_params(cfg)
    op = impedance_operator(1, cfg)
    assert consistency_with_lambda(op, dp) <= 1e-12
    both = -dp.eps_small * dp.lam / (1j * cfg.omega * cfg.mu_plus)
    assert abs(both - 2.0**0.25 * cmath.exp(1j * math.pi / 8.0)) <= 1e-14


def test_consistency_with_lambda_sweep():
    for omega in log_grid(1e-3, 1e3, 4):
        for sigma in log_grid(1e-3, 1e3, 4):
            for mu_minus in log_grid(1.0, 1e6, 4):
                cfg = config(omega=omega, sigma_minus=sigma, mu_minus=mu_minus)
                dp = derive_params(cfg)
                assert consistency_with_lambda(impedance_operator(1, cfg), dp) <= 1e-12


def test_scalar_scaling_with_mu_minus():
    a = impedance_operator(1, config(mu_minus=25.0))
    b = impedance_operator(1, config(mu_minus=100.0))
    assert abs(abs(b.scalar_part) - 0.5 * abs(a.scalar_part)) <= 1e-15 * abs(a.scalar_part)


def test_scalar_growth_slope_half_in_sigma():
    pts = []
    for sigma in log_grid(1e2, 1e6, 9):
        op = impedance_operator(1, config(sigma_minus=sigma))
        pts.append((sigma, abs(op.scalar_part)))
    assert abs(loglog_slope(pts) - 0.5) <= 0.01


def test_scalar_argument_range():
    for sigma in log_grid(1e-6, 1e9, 16):
        op = impedance_operator(1, config(sigma_minus=sigma))
        arg = cmath.phase(op.scalar_part)
        assert 0.0 < arg <= math.pi / 4.0 + 1e-15
    nearly_pec = impedance_operator(1, config(sigma_minus=1e12))
    assert abs(cmath.phase(nearly_pec.scalar_part) - math.pi / 4.0) <= 1e-6


def test_robin_order_zero_is_neumann():
    assert robin_coefficient(0, Surface.cylinder(1.0), config()) == 0j


def test_robin_curvature_gap_exact():
    cfg = config(mu_minus=400.0)
    dp = derive_params(cfg)
    s = Surface.cylinder(0.5)
    g1 = robin_coefficient(1, s, cfg)
    g2 = robin_coefficient(2, s, cfg)
    expected = dp.eps_small**2 / (2.0 * 0.5)
    assert abs(abs(g2 - g1) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_robin_coefficients_truncate_the_exact_wall_coefficient(mode):
    # |gamma_exact - gamma_k| ~ C_k eps^(k+1); measured slopes 0.999 / 2.000 / 3.001 at mode 0
    eps_list = log_grid(1e-4, 3e-2, 9)
    gaps = {k: [] for k in (0, 1, 2)}
    for eps in eps_list:
        b = default_benchmark(mode=mode, eps=eps)
        for k in gaps:
            gamma_k = robin_coefficient(k, Surface.cylinder(b.r_in), b.cfg)
            gaps[k].append((eps, abs(b.conductor_gamma - gamma_k)))
    for k, points in gaps.items():
        assert abs(loglog_slope(points) - (k + 1)) <= 0.02, (mode, k)
    # the order-1 gap is the curvature term, eps^2 * H with H = 1/(2 r_in)
    eps, gap = gaps[1][0]
    assert abs(gap / eps**2 - 0.5 / b.r_in) <= 1e-3


def test_robin_rejects_other_surfaces():
    with pytest.raises(ValueError):
        robin_coefficient(1, Surface.sphere(1.0), config())
    with pytest.raises(ValueError):
        robin_coefficient(1, Surface.plane(), config())


def test_leontovich_gap_points_and_slope():
    # 7 log points hit the exact decades 1e-4 .. 1e-1
    cfgs = [config(sigma_minus=1.0 / d**2) for d in log_grid(1e-4, 1e-1, 7)]
    rows = leontovich_limit_check(cfgs)
    pts = [(row.delta_minus, row.relative_gap) for row in rows]
    assert abs(loglog_slope(pts) - 2.0) <= 0.1
    # rows follow the ascending grid: indices 2, 4, 6 are deltas 1e-3, 1e-2, 1e-1
    assert rows[2].relative_gap <= 1e-5
    assert abs(rows[6].relative_gap / rows[4].relative_gap - 100.0) <= 20.0


def test_leontovich_warns_outside_regime():
    with pytest.warns(UserWarning, match="strongly-absorbing"):
        leontovich_limit_check([config(sigma_minus=0.5)])


def test_consistency_with_lambda_needs_an_operator_of_order_one_or_more():
    cfg = config()
    with pytest.raises(ValueError, match="order >= 1"):
        consistency_with_lambda(impedance_operator(0, cfg), derive_params(cfg))


@pytest.mark.parametrize(
    "fields, orders, name",
    [
        # omega*mu_minus underflows to 0: the curvature part 1/(i*omega*mu_minus) divided by zero
        ({"omega": 1e-200, "mu_plus": 1e-199, "mu_minus": 1e-198}, (2,), "omega_mu_minus = 0.0"),
        # a subnormal omega*mu_minus (1e-310) passes, and the curvature part's modulus overflows
        ({"omega": 1e-160, "mu_plus": 1e-151, "mu_minus": 1e-150}, (2,), "curvature_part_modulus = inf"),
        # sigma_minus/omega overflows: the scalar part was (inf+infj)
        ({"omega": 1e-100, "sigma_plus": 1e155, "sigma_minus": 1e215}, (1, 2), "scalar_part_modulus = inf"),
    ],
)
def test_an_operator_part_that_is_not_representable_is_a_named_value_error(fields, orders, name):
    # the order-1 operator has no curvature part, so it builds where only that part fails
    cfg = config(**fields)
    for k in (1, 2):
        if k not in orders:
            assert math.isfinite(abs(impedance_operator(k, cfg).scalar_part))
            continue
        with pytest.raises(ValueError, match=rf"^PhysicalConfig\(.*\) gives {re.escape(name)}; need a finite positive"):
            impedance_operator(k, cfg)
        with pytest.raises(ValueError, match=re.escape(name)):
            robin_coefficient(k, Surface.cylinder(1.0), cfg)

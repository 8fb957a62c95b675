import cmath
import math

import pytest

from magskin.modal import default_benchmark, default_config
from magskin.params import PhysicalConfig, derive_params, leontovich_factor, phi

from conftest import log_grid, loglog_slope


def unit_config(mu_minus=4.0, sigma_minus=1.0, omega=1.0, eps0=1.0, mu_plus=1.0, sigma_plus=0.01):
    return PhysicalConfig(
        omega=omega, eps0=eps0, mu_plus=mu_plus, mu_minus=mu_minus,
        sigma_plus=sigma_plus, sigma_minus=sigma_minus,
    )


def test_lambda_unit_config_matches_closed_form():
    # kappa_plus = 1 and delta_minus = 1: rate is 2^(1/4) * exp(-i*3*pi/8)
    dp = derive_params(unit_config())
    expected = 2.0**0.25 * cmath.exp(-3j * math.pi / 8.0)
    assert abs(dp.lam - expected) <= 1e-15
    assert abs(-dp.lam**2 - (1 + 1j)) <= 1e-12


def test_equal_permeabilities_are_the_identity_case():
    dp = derive_params(unit_config(mu_minus=1.0))
    assert dp.mu_r == 1.0
    assert dp.eps_small == 1.0


def test_warns_when_mu_ratio_below_one():
    with pytest.warns(UserWarning, match="outside the asymptotic regime"):
        unit_config(mu_minus=0.5)


def test_permeability_warning_names_the_caller():
    # the generated __init__, dataclasses.replace and the modal constructors
    # are passed over: each warning points at the line of this file that asked
    base = unit_config()
    builders = (
        lambda: PhysicalConfig(1.0, 1.0, 1.0, 0.5, 0.01, 1.0),
        lambda: base.with_mu_minus(0.5),
        lambda: default_config(eps=1.5),
        lambda: default_benchmark(mode=1).with_eps(1.5),
    )
    for build in builders:
        with pytest.warns(UserWarning, match="^mu_minus < mu_plus: relative permeability below 1") as record:
            build()
        assert len(record) == 1
        assert record[0].category is UserWarning
        assert record[0].filename == __file__


def test_classical_skin_depth_at_50hz_iron():
    # 50-digit evaluation of sqrt(2/(omega*mu*sigma)) frozen to double precision
    cfg = unit_config(omega=2 * math.pi * 50, mu_plus=4 * math.pi * 1e-7,
                      mu_minus=4 * math.pi * 1e-4, sigma_minus=1e7)
    dp = derive_params(cfg)
    assert abs(dp.ell - 7.1176254341717706e-04) <= 1e-12 * dp.ell


@pytest.mark.parametrize("field", ["omega", "eps0", "mu_plus", "mu_minus", "sigma_plus", "sigma_minus"])
def test_nonpositive_input_rejected_by_name(field):
    kwargs = dict(omega=1.0, eps0=1.0, mu_plus=1.0, mu_minus=2.0, sigma_plus=1.0, sigma_minus=1.0)
    kwargs[field] = 0.0
    with pytest.raises(ValueError, match=field):
        PhysicalConfig(**kwargs)
    kwargs[field] = -3.0
    with pytest.raises(ValueError, match=field):
        PhysicalConfig(**kwargs)


def test_phi_at_unit_delta():
    # 50-digit oracle: (1/sqrt(2)) * 2^(-1/4) / sin(pi/8) = 1.5537739740300373...
    assert abs(phi(1.0) - 1.5537739740300373) <= 1e-12


def test_phi_limits():
    assert abs(phi(1e-4) - 1.0) <= 1e-6
    assert abs(phi(1e4) / (math.sqrt(2.0) * 1e4) - 1.0) <= 1e-6


def test_phi_domain_error():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            phi(bad)


def test_phi_residual_slopes():
    small = [(d, phi(d) - 1.0) for d in log_grid(1e-4, 1e-2, 9)]
    assert abs(loglog_slope(small) - 2.0) <= 0.1
    large = [(d, phi(d) / (math.sqrt(2.0) * d) - 1.0) for d in log_grid(10.0, 1000.0, 9)]
    assert abs(loglog_slope(large) - (-4.0)) <= 0.1


def test_identity_sweep_six_decades():
    grid = log_grid(1e-3, 1e3, 5)
    mu_grid = log_grid(1.0, 1e6, 5)
    for omega in grid:
        for sigma in grid:
            for mu_plus in grid:
                for mu_minus_rel in mu_grid:
                    cfg = unit_config(
                        omega=omega, sigma_minus=sigma, mu_plus=mu_plus,
                        mu_minus=mu_plus * mu_minus_rel, sigma_plus=sigma,
                    )
                    dp = derive_params(cfg)
                    assert dp.lam.real > 0
                    assert -math.pi / 2 < cmath.phase(dp.lam) < -math.pi / 4
                    assert 0.0 < dp.theta < math.pi / 2
                    target = dp.kappa_plus**2 * dp.alpha_minus
                    assert abs(-dp.lam**2 - target) <= 1e-12 * abs(target)
                    lhs = dp.eps_small / dp.lam.real
                    assert abs(lhs - dp.ell * dp.phi_value) <= 1e-12 * lhs


def test_scale_consistency_power_of_two():
    # scaling sigma_minus and omega by the same binary factor leaves the
    # dimensionless conductor numbers bit-identical
    base = derive_params(unit_config(omega=3.7, sigma_minus=0.9))
    scaled = derive_params(unit_config(omega=4.0 * 3.7, sigma_minus=4.0 * 0.9))
    assert scaled.delta_minus == base.delta_minus
    assert scaled.theta == base.theta
    assert scaled.phi_value == base.phi_value


def test_physical_decay_rate_accessor():
    dp = derive_params(unit_config(mu_minus=25.0))
    assert abs(dp.physical_decay_rate - dp.lam * math.sqrt(dp.mu_r)) <= 1e-15 * abs(dp.lam)


def test_leontovich_factor_unit_inputs():
    f = leontovich_factor(unit_config(mu_minus=1.0, sigma_minus=1.0))
    expected = complex(math.sqrt(2) / 2, -math.sqrt(2) / 2)
    assert abs(f - expected) <= 1e-15


def test_leontovich_factor_vanishes_at_high_conductivity():
    f1 = leontovich_factor(unit_config(mu_minus=1.0, sigma_minus=1.0))
    f2 = leontovich_factor(unit_config(mu_minus=1.0, sigma_minus=1e12))
    assert abs(f2) < 1e-5 * abs(f1)


def test_leontovich_factor_at_50hz_iron():
    cfg = unit_config(omega=2 * math.pi * 50, mu_plus=4 * math.pi * 1e-7,
                      mu_minus=4 * math.pi * 1e-4, sigma_minus=1e7)
    assert abs(abs(leontovich_factor(cfg)) - 1.9869176531592202e-04) <= 1e-12

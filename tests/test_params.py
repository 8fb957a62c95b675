import cmath
import dataclasses
import math
import re

import pytest

from magskin import params
from magskin.modal import default_benchmark, default_config
from magskin.params import PhysicalConfig, derive_params, leontovich_factor, mu_minus_for_eps, phi

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
    # bool is an int subclass, and True would otherwise pass as 1
    kwargs[field] = True
    with pytest.raises(ValueError, match=rf"{field} must be a finite positive number, got True"):
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


def test_validated_field_names_are_the_dataclass_fields():
    assert params._CONFIG_FIELDS == tuple(f.name for f in dataclasses.fields(PhysicalConfig))


@pytest.mark.parametrize(
    "eps, message",
    [
        (-1.0, "eps must be finite and positive, got -1.0"),
        (0.0, "eps must be finite and positive, got 0.0"),
        (math.nan, "eps must be finite and positive, got nan"),
        (math.inf, "eps must be finite and positive, got inf"),
        # eps^2 underflows to 0, or mu_plus/eps^2 overflows to inf or rounds to 0
        (1e-170, r"eps = 1e-170 gives mu_minus = mu_plus/eps\^2 = inf; need a finite positive value"),
        (1e-160, r"eps = 1e-160 gives mu_minus = mu_plus/eps\^2 = inf"),
        (1e200, r"eps = 1e\+200 gives mu_minus = mu_plus/eps\^2 = 0.0"),
    ],
)
def test_eps_without_a_finite_positive_mu_minus_is_rejected_by_name(eps, message):
    # default_config(-1.0) built the eps = 1 config, 1e-170 raised ZeroDivisionError,
    # and with_eps(inf) blamed mu_minus
    base = default_benchmark(mode=1)
    for build in (lambda: default_config(eps), lambda: base.with_eps(eps), lambda: mu_minus_for_eps(1.0, eps)):
        with pytest.raises(ValueError, match=f"^{message}"):
            build()


def test_mu_minus_for_eps_is_mu_plus_over_eps_squared():
    for mu_plus, eps in ((1.0, 0.1), (4e-7 * math.pi, 3e-4), (2.5, 1e-150)):
        assert mu_minus_for_eps(mu_plus, eps) == mu_plus / eps**2
    assert default_config(0.03).mu_minus == 1.0 / 0.03**2


@pytest.mark.parametrize(
    "field, value", [("omega", 1e200), ("eps0", 1e200), ("sigma_minus", 1e-200), ("omega", 1e-308), ("sigma_minus", 1e-308)]
)
def test_extreme_configs_with_representable_scalars_derive_them(field, value):
    # delta_minus**-4 or delta_minus**4 raised OverflowError here
    dp = derive_params(dataclasses.replace(default_config(), **{field: value}))
    scalars = [getattr(dp, f.name) for f in dataclasses.fields(dp) if f.name != "config"]
    assert all(cmath.isfinite(v) for v in scalars), scalars
    assert dp.lam.real > 0 and 0.0 < dp.theta <= math.pi / 2
    lhs = dp.eps_small / dp.lam.real
    assert abs(lhs - dp.ell_phi) <= 1e-12 * lhs
    assert math.isfinite(abs(leontovich_factor(dp.config)))


@pytest.mark.parametrize(
    "changes, message",
    [
        # mu_r overflowed to inf and eps_small to 0, which divided by zero downstream
        ({"mu_plus": 1e-308}, "mu_r = inf"),
        ({"omega": 1e308}, "delta_plus = inf"),
        # the classical skin depth's denominator underflows
        ({"omega": 1e-30, "mu_plus": 1e-300, "mu_minus": 1e-299}, "omega_mu_minus_sigma_minus = 0.0"),
    ],
)
def test_configs_without_representable_scalars_are_rejected_by_name(changes, message):
    cfg = dataclasses.replace(default_config(), **changes)
    with pytest.raises(ValueError, match=re.escape(f"{cfg!r} gives {message}; need a finite positive value")):
        derive_params(cfg)


def test_leontovich_modulus_past_the_float_range_is_rejected_by_name():
    cfg = dataclasses.replace(default_config(), omega=1e300, mu_minus=1e300, sigma_minus=1e-300)
    with pytest.raises(ValueError, match=re.escape(f"{cfg!r} gives leontovich_modulus = inf")):
        leontovich_factor(cfg)

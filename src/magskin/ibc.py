"""Surface impedance operators of orders 0..2 and their cylinder reduction.

The order-k operator maps the tangential electric trace to the tangential
magnetic trace on the interface.  Order 0 is the perfectly insulating
condition (zero operator), order 1 a scalar admittance, order 2 adds a
curvature correction through (H - C).  For the axial-field cylinder modes the
whole operator collapses to one complex Robin coefficient per mode.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .geometry import Surface, SurfaceKind, TangentVector, mean_minus_curvature_apply
from .params import DerivedParams, PhysicalConfig, _check_scalars, derive_params, leontovich_factor


@dataclass(frozen=True)
class ImpedanceOperator:
    """Tangential-trace impedance operator of order k in {0, 1, 2}.

    scalar_part multiplies the trace directly [1/Ohm]; curvature_part
    multiplies (H - C) applied to the trace and is nonzero only for k = 2.
    """

    order: int
    scalar_part: complex
    curvature_part: complex

    def apply(self, s: Surface, v: TangentVector) -> TangentVector:
        out = v.scale(self.scalar_part)
        if self.curvature_part != 0:
            out = out + mean_minus_curvature_apply(s, v).scale(self.curvature_part)
        return out


def impedance_operator(k: int, cfg: PhysicalConfig) -> ImpedanceOperator:
    """Build the order-k impedance operator from the physical configuration."""
    if isinstance(k, bool) or not isinstance(k, int) or k not in (0, 1, 2):
        raise ValueError(f"unsupported impedance order {k!r}; must be 0, 1 or 2")
    if k == 0:
        return ImpedanceOperator(order=0, scalar_part=0j, curvature_part=0j)
    ratio = cfg.sigma_minus / cfg.omega
    modulus = math.sqrt(math.hypot(cfg.eps0, ratio)) / math.sqrt(cfg.mu_minus)
    phase = 0.5 * math.atan(ratio / cfg.eps0)
    scalar = cmath.rect(modulus, phase)
    if k == 1:
        _check_scalars(cfg, scalar_part_modulus=modulus)
        return ImpedanceOperator(order=1, scalar_part=scalar, curvature_part=0j)
    omega_mu_minus = cfg.omega * cfg.mu_minus
    _check_scalars(cfg, scalar_part_modulus=modulus, omega_mu_minus=omega_mu_minus)
    # a subnormal omega*mu_minus passes, and its reciprocal, the curvature part's modulus, overflows
    _check_scalars(cfg, curvature_part_modulus=1.0 / omega_mu_minus)
    return ImpedanceOperator(order=2, scalar_part=scalar, curvature_part=1.0 / (1j * omega_mu_minus))


def consistency_with_lambda(op: ImpedanceOperator, dp: DerivedParams) -> float:
    """Relative gap between the scalar part and -eps*lam/(i*omega*mu_plus).

    The two expressions are algebraically identical; the returned discrepancy
    is pure floating-point noise for a correct build.
    """
    if op.order < 1:
        raise ValueError("consistency check needs an operator of order >= 1")
    cfg = dp.config
    expected = -dp.eps_small * dp.lam / (1j * cfg.omega * cfg.mu_plus)
    return abs(op.scalar_part - expected) / abs(expected)


def leontovich_gap(op: ImpedanceOperator, cfg: PhysicalConfig) -> float:
    """Relative gap between the impedance 1/scalar_part of an order >= 1 operator and Leontovich's."""
    leon = leontovich_factor(cfg)
    return abs(1.0 / op.scalar_part - leon) / abs(leon)


@dataclass(frozen=True)
class LeontovichRow:
    sigma_minus: float
    delta_minus: float
    relative_gap: float


def leontovich_limit_check(cfgs: list[PhysicalConfig]) -> list[LeontovichRow]:
    """Gap between 1/scalar_part and the strongly-absorbing impedance, per config.

    The gap decays like delta_minus^2 as the conductivity grows; configs with
    delta_minus >= 1 are outside that regime and trigger a warning.
    """
    rows = []
    for cfg in cfgs:
        dp = derive_params(cfg)
        if dp.delta_minus >= 1.0:
            warnings.warn(
                f"delta_minus={dp.delta_minus:.3g} >= 1: outside the strongly-absorbing regime",
                stacklevel=2,
            )
        rows.append(LeontovichRow(cfg.sigma_minus, dp.delta_minus, leontovich_gap(impedance_operator(1, cfg), cfg)))
    return rows


def robin_coefficient(k: int, s: Surface, cfg: PhysicalConfig) -> complex:
    """Reduce the order-k operator to the axial-field coefficient gamma in u'(R) + gamma*u(R) = 0 [1/m].

    Only the cylinder reduction exists here: gamma is i*omega*mu_plus times the
    axial component of the operator applied to the unit axial trace, so the
    order-2 curvature term enters through (H - C), which is the full mean
    curvature 1/(2R) on the axial direction.  The order-k gamma is the
    eps-truncation of the conductor's own wall coefficient
    (``CylinderBenchmark.conductor_gamma``): the two differ by O(eps^(k+1)).
    """
    if s.kind is not SurfaceKind.CYLINDER:
        raise ValueError("the Robin reduction is implemented for the cylinder only")
    axial = impedance_operator(k, cfg).apply(s, TangentVector(0j, 1 + 0j))
    return 1j * cfg.omega * cfg.mu_plus * axial.c2

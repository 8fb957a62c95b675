"""Material/frequency inputs and the derived scalars of the boundary-layer model.

Everything is SI.  The conductor occupies the region the unit normal of the
interface points into; its permeability ``mu_minus`` is large compared with the
exterior ``mu_plus``, and the small expansion parameter is
``eps = 1/sqrt(mu_minus/mu_plus)``.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace


def _caller_stacklevel() -> int:
    """``warnings.warn`` stacklevel that names the code which asked for a config.

    Walks out from the function calling this one past every frame of
    ``dataclasses`` (``replace``) and of magskin other than the command line,
    so a warning raised while a config is built points at the caller of
    ``PhysicalConfig(...)``, ``with_mu_minus`` or ``CylinderBenchmark.with_eps``,
    or at the CLI command.  (``skip_file_prefixes`` does this from Python 3.12
    on only.)
    """
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None:
        module = frame.f_globals.get("__name__", "")
        if module != "dataclasses" and not (module.startswith("magskin.") and module != "magskin.cli"):
            break
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class PhysicalConfig:
    """Raw material and frequency inputs, all strictly positive.

    omega        angular frequency [rad/s]
    eps0         electric permittivity [F/m]
    mu_plus      magnetic permeability of the exterior region [H/m]
    mu_minus     magnetic permeability of the conductor [H/m]
    sigma_plus   conductivity of the exterior region [S/m]
    sigma_minus  conductivity of the conductor [S/m]
    """

    omega: float
    eps0: float
    mu_plus: float
    mu_minus: float
    sigma_plus: float
    sigma_minus: float

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
                raise ValueError(f"{f.name} must be a finite positive number, got {v!r}")
        if self.mu_minus < self.mu_plus:
            warnings.warn(
                "mu_minus < mu_plus: relative permeability below 1, outside the "
                "asymptotic regime the model is built for",
                stacklevel=_caller_stacklevel(),
            )

    def with_mu_minus(self, mu_minus: float) -> "PhysicalConfig":
        return replace(self, mu_minus=mu_minus)


def _root4_1p(x: float) -> float:
    """(1 + x)**0.25 without overflow for huge x and full accuracy for tiny x."""
    if x > 1.0:
        # (1+x)^(1/4) = x^(1/4) * (1 + 1/x)^(1/4)
        return math.exp(0.25 * math.log(x)) * math.exp(0.25 * math.log1p(1.0 / x))
    return math.exp(0.25 * math.log1p(x))


@dataclass(frozen=True)
class DerivedParams:
    """All scalars derived from a :class:`PhysicalConfig`.

    mu_r         relative permeability mu_minus/mu_plus (dimensionless)
    eps_small    1/sqrt(mu_r), the expansion parameter (dimensionless)
    delta_plus   sqrt(omega*eps0/sigma_plus) (dimensionless)
    delta_minus  sqrt(omega*eps0/sigma_minus) (dimensionless)
    kappa_plus   omega*sqrt(eps0*mu_plus) [1/m]
    theta        arctan(1/delta_minus**2), in (0, pi/2) [rad]
    lam          complex decay rate of the layer in the stretched depth
                 variable Y3 = y3/eps_small; carries kappa_plus's 1/m unit
    alpha_plus   1 + i/delta_plus**2
    alpha_minus  1 + i/delta_minus**2
    ell          classical skin depth sqrt(2/(omega*mu_minus*sigma_minus)) [m]
    phi_value    phi(delta_minus), the low/high-frequency correction factor
    """

    config: PhysicalConfig
    mu_r: float
    eps_small: float
    delta_plus: float
    delta_minus: float
    kappa_plus: float
    theta: float
    lam: complex
    alpha_plus: complex
    alpha_minus: complex
    ell: float
    phi_value: float

    @property
    def physical_decay_rate(self) -> complex:
        """Decay rate lam*sqrt(mu_r) [1/m] seen in unscaled depth y3.

        The layer profile decays like exp(-lam*Y3) with Y3 = y3/eps_small,
        i.e. like exp(-physical_decay_rate*y3) in physical depth.
        """
        return self.lam / self.eps_small

    @property
    def ell_phi(self) -> float:
        """Product ell*phi_value [m]; equals eps_small/Re(lam) exactly."""
        return self.ell * self.phi_value


def phi(delta: float) -> float:
    """Correction factor of the skin-depth law as a function of delta > 0.

    phi(delta) = 1 / (sqrt(2) * (1+delta^4)^(1/4) * sin(arctan(delta^-2)/2)).
    Tends to 1 as delta -> 0 and behaves like sqrt(2)*delta as delta -> inf.
    """
    if not (isinstance(delta, (int, float)) and math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be a finite positive number, got {delta!r}")
    theta = math.atan(1.0 / (delta * delta))
    if delta <= 1.0:
        root4 = _root4_1p(delta**4)
    else:
        root4 = delta * _root4_1p(delta**-4)
    return 1.0 / (math.sqrt(2.0) * root4 * math.sin(0.5 * theta))


def derive_params(cfg: PhysicalConfig) -> DerivedParams:
    """Compute every derived scalar from a physical configuration.

    Pure and deterministic.  Complex powers are assembled in modulus/argument
    form so no branch-cut of a generic complex power is ever taken.
    """
    mu_r = cfg.mu_minus / cfg.mu_plus
    eps_small = 1.0 / math.sqrt(mu_r)
    delta_plus = math.sqrt(cfg.omega * cfg.eps0 / cfg.sigma_plus)
    delta_minus = math.sqrt(cfg.omega * cfg.eps0 / cfg.sigma_minus)
    kappa_plus = cfg.omega * math.sqrt(cfg.eps0 * cfg.mu_plus)
    theta = math.atan(1.0 / (delta_minus * delta_minus))

    if delta_minus <= 1.0:
        modulus = kappa_plus * _root4_1p(delta_minus**-4)
    else:
        modulus = kappa_plus / delta_minus * _root4_1p(delta_minus**4)
    # modulus * exp(i*(theta - pi)/2), with the trig of the shifted angle
    # written out so Re(lam) keeps full relative accuracy as theta -> 0
    half = 0.5 * theta
    lam = modulus * complex(math.sin(half), -math.cos(half))

    alpha_plus = complex(1.0, 1.0 / (delta_plus * delta_plus))
    alpha_minus = complex(1.0, 1.0 / (delta_minus * delta_minus))
    ell = math.sqrt(2.0 / (cfg.omega * cfg.mu_minus * cfg.sigma_minus))

    return DerivedParams(
        config=cfg,
        mu_r=mu_r,
        eps_small=eps_small,
        delta_plus=delta_plus,
        delta_minus=delta_minus,
        kappa_plus=kappa_plus,
        theta=theta,
        lam=lam,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        ell=ell,
        phi_value=phi(delta_minus),
    )


def leontovich_factor(cfg: PhysicalConfig) -> complex:
    """Classical strongly-absorbing surface impedance sqrt(mu_minus*omega/sigma_minus)*e^{-i*pi/4} [Ohm]."""
    return math.sqrt(cfg.mu_minus * cfg.omega / cfg.sigma_minus) * cmath.rect(1.0, -math.pi / 4.0)

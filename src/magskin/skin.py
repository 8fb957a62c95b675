"""Skin-depth measurement and its high-permeability asymptotics.

The measured depth is the smallest h > 0 where the layer-field modulus has
dropped to 1/e of its surface value.  The closed-form law used for comparison
is ell*phi*(1 + H*ell*phi) with H the interface's mean curvature; the two
literature comparison formulas reduce to ell*(1 + H*ell) in this setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .geometry import Surface, SurfaceKind, TangentVector, mean_curvature
from .params import DerivedParams
from .profiles import HarmonicTangentField, LayerField, TraceData

# bench/tracing.py wraps this name on magskin.skin as its "profiles" span
from .profiles import layer_modulus_sq  # noqa: F401


class SkinDepthError(RuntimeError):
    """Raised when no e-folding crossing exists within the sampling horizon."""


@dataclass(frozen=True)
class DecayTrace:
    """Modulus-vs-depth sampler at a fixed surface point.

    ``sampler(h)`` returns the field modulus at depth h >= 0 [m];
    ``max_depth`` bounds the search.
    """

    sampler: Callable[[float], float]
    max_depth: float

    def __post_init__(self) -> None:
        if not (self.max_depth > 0):
            raise ValueError("max_depth must be positive")
        if not (self.sampler(0.0) > 0):
            raise ValueError("sampler(0) must be positive (nonzero surface trace)")


def layer_trace(
    s: Surface, tr: TraceData, dp: DerivedParams, y: tuple[float, float] = (0.0, 0.0)
) -> DecayTrace:
    """Decay trace of the two-term layer field, exact shifted metric included."""
    scale = dp.ell_phi
    field = LayerField.at(s, tr, dp.lam, dp.eps_small, y)

    def sampler(h: float) -> float:
        return math.sqrt(field.modulus_sq(h))

    max_depth = 10.0 * scale
    if s.kind is not SurfaceKind.PLANE:
        max_depth = min(max_depth, 0.9 * s.tubular_radius)
    return DecayTrace(sampler=sampler, max_depth=max_depth)


def w0_plane_trace(dp: DerivedParams, amplitude: float = 1.0) -> DecayTrace:
    """Pure leading-profile trace on a plane: a single decaying exponential."""
    plane = Surface.plane()
    tr = TraceData(
        e0_trace=HarmonicTangentField(plane, TangentVector(amplitude + 0j, 0j)),
        e1_trace=HarmonicTangentField(plane, TangentVector.zero()),
    )
    return layer_trace(plane, tr, dp)


def skin_depth_numeric(trace: DecayTrace, scale: float) -> float:
    """Smallest depth where the sampled modulus reaches 1/e of its surface value.

    Scan with step scale/50 to bracket the first crossing (guards against
    non-monotone moduli), bisect the bracket to 1e-6*scale, then polish with
    three quadratic-fit steps on the log-modulus.
    """
    if not (scale > 0):
        raise ValueError("scale must be positive")
    target = trace.sampler(0.0) / math.e
    step = scale / 50.0

    lo = 0.0
    hi = None
    h = step
    while h <= trace.max_depth * (1.0 + 1e-12):
        if trace.sampler(h) - target <= 0.0:
            hi = h
            break
        lo = h
        h += step
    if hi is None:
        raise SkinDepthError(
            f"modulus never decayed to 1/e of its surface value within max_depth={trace.max_depth!r}"
        )

    tol = 1e-6 * scale
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if trace.sampler(mid) - target <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)

    # quadratic polish on g(h) = log sampler(h) - log target; exact for a
    # single exponential, so the plane case lands at machine precision
    log_target = math.log(target)
    d = max(hi - lo, tol)
    for _ in range(3):
        a, b, c = root - d, root, root + d
        if a < 0.0:
            a = 0.0
        ga = math.log(trace.sampler(a)) - log_target
        gb = math.log(trace.sampler(b)) - log_target
        gc = math.log(trace.sampler(c)) - log_target
        # Newton step from the interpolating parabola, slope taken at b
        d1 = (gc - ga) / (c - a)
        d2 = ((gc - gb) / (c - b) - (gb - ga) / (b - a)) / (c - a) * 2.0
        slope = d1 + 0.5 * d2 * (2.0 * b - a - c)
        if slope == 0.0:
            break
        new_root = b - gb / slope
        if not (root - d <= new_root <= root + d):
            new_root = min(max(new_root, root - d), root + d)
        root = new_root
        d /= 8.0
    return root


def skin_depth_asymptotic(dp: DerivedParams, mean_curv: float) -> float:
    """Closed-form law ell*phi*(1 + H*ell*phi); higher-order terms not modeled."""
    lp = dp.ell_phi
    return lp * (1.0 + mean_curv * lp)


@dataclass(frozen=True)
class SkinDepthReport:
    """Measured depth next to the asymptotic law and the literature formulas, all in m."""

    numeric: float
    asymptotic: float
    classical: float
    eddy2d: float
    high_conductivity: float

    def __post_init__(self) -> None:
        for name in ("numeric", "asymptotic", "classical", "eddy2d", "high_conductivity"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} skin depth must be positive")


def comparison_report(
    dp: DerivedParams, s: Surface, numeric_trace: DecayTrace | None = None
) -> SkinDepthReport:
    """Fill all comparison columns; the 2D eddy formula uses scalar curvature 2H.

    The high-conductivity formula is evaluated with the conductor's own
    permeability (its original statement is for non-magnetic conductors), so
    here it coincides with the eddy2d column.
    """
    mean_curv = mean_curvature(s)
    if numeric_trace is None:
        tr = TraceData(
            e0_trace=HarmonicTangentField(s, TangentVector(1.0 + 0j, 0j)),
            e1_trace=HarmonicTangentField(s, TangentVector.zero()),
        )
        numeric_trace = layer_trace(s, tr, dp)
    numeric = skin_depth_numeric(numeric_trace, dp.ell_phi)
    ell = dp.ell
    return SkinDepthReport(
        numeric=numeric,
        asymptotic=skin_depth_asymptotic(dp, mean_curv),
        classical=ell,
        eddy2d=ell * (1.0 + mean_curv * ell),
        high_conductivity=ell * (1.0 + mean_curv * ell),
    )

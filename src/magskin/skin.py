"""Skin-depth measurement and its high-permeability asymptotics.

The measured depth is the smallest h > 0 where the layer-field modulus has
dropped to 1/e of its surface value.  The closed-form law used for comparison
is ell*phi*(1 + H*ell*phi) with H the interface's mean curvature; the two
literature comparison formulas reduce to ell*(1 + H*ell) in this setting.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

from .geometry import Surface, SurfaceKind, TangentVector, mean_curvature
from .params import DerivedParams
from .profiles import HarmonicTangentField, LayerField, TraceData

# bench/tracing.py wraps this name on magskin.skin as its "profiles" span
from .profiles import layer_modulus_sq  # noqa: F401


class SkinDepthError(RuntimeError):
    """Raised when the e-folding crossing cannot be measured.

    That is: it does not exist within the sampling horizon, a sample is not a
    finite modulus, or the root solve does not converge.
    """


@dataclass(frozen=True)
class DecayTrace:
    """Modulus-vs-depth sampler at a fixed surface point.

    ``sampler(h)`` returns the field modulus at depth h >= 0 [m];
    ``max_depth`` bounds the search and must be finite and positive.
    ``floor(a, b)``, if given, returns a lower bound of the modulus over
    depths [a, b] within max_depth, so that ``skin_depth_numeric`` may skip
    the samples it proves to be above 1/e; ``None`` marks an opaque sampler,
    scanned point by point.  ``dataclasses.replace(trace, sampler=...)`` keeps
    the floor, which must then still bound the new sampler.
    ``surface_modulus`` is ``sampler(0.0)``, sampled once here, where it must
    be positive, and read by ``skin_depth_numeric``.
    """

    sampler: Callable[[float], float]
    max_depth: float
    floor: Callable[[float, float], float] | None = None
    surface_modulus: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0 < self.max_depth < math.inf):
            raise ValueError(f"max_depth must be finite and positive, got {self.max_depth!r}")
        surface = self.sampler(0.0)
        if not (surface > 0):
            raise ValueError("sampler(0) must be positive (nonzero surface trace)")
        object.__setattr__(self, "surface_modulus", surface)


def layer_trace(
    s: Surface, tr: TraceData, dp: DerivedParams, y: tuple[float, float] = (0.0, 0.0)
) -> DecayTrace:
    """Decay trace of the two-term layer field, exact shifted metric included.

    Its floor is the square root of ``LayerField.modulus_sq_floor``.
    """
    scale = dp.ell_phi
    field = LayerField.at(s, tr, dp.lam, dp.eps_small, y)

    def sampler(h: float) -> float:
        return math.sqrt(field.modulus_sq(h))

    max_depth = 10.0 * scale
    if s.kind is not SurfaceKind.PLANE:
        max_depth = min(max_depth, 0.9 * s.tubular_radius)

    def floor(a: float, b: float) -> float:
        f = field.modulus_sq_floor(a, b)
        return math.sqrt(f) if f > 0.0 else f  # a NaN stays NaN

    return DecayTrace(sampler=sampler, max_depth=max_depth, floor=floor)


def _e0_trace(s: Surface, dp: DerivedParams) -> DecayTrace:
    """``layer_trace`` on s of the constant tangential trace (1, 0), with no first-order trace."""
    tr = TraceData(
        e0_trace=HarmonicTangentField(s, TangentVector(1 + 0j, 0j)),
        e1_trace=HarmonicTangentField(s, TangentVector.zero()),
    )
    return layer_trace(s, tr, dp)


def w0_plane_trace(dp: DerivedParams) -> DecayTrace:
    """Pure leading-profile trace on a plane: a single decaying exponential."""
    return _e0_trace(Surface.plane(), dp)


# The bracketed solve ends at a step below _ROOT_RTOL of max(scale, depth).
# On the exact Bessel traces g carries the relative error of the sampled
# modulus: at most 2.8e-14 against 40-digit mpmath over the 1122 samples the
# scans and root solves of modes 0, 1, 2, 5 at mu_r 1e2..1e6 take (read from
# the conductor field's Taylor pieces; the worst, 2.79e-14, at mode 0,
# mu_r 1e2, |k_minus r| ~ 9.0, where one bessel_j per sample gives 6.0e-14),
# so the root is not resolved more finely than that anyway.
# Bisection alone reaches that width from the scan's scale/50 bracket in 41
# steps; _ROOT_MAX_STEPS bounds the solve.
_ROOT_RTOL = 1e-14
_ROOT_MAX_STEPS = 100
# A scan of more than this many steps to max_depth raises before any sample.
# The traces in magskin span at most 500 (max_depth at most 10*scale, step
# scale/50); the cap also keeps h/step far below 2**53, so h += step always
# advances h.
_MAX_SCAN_SAMPLES = 100_000
# Grid points in the first run a floor is asked to clear: 64 steps reach
# 1.28*scale, just past the depth ~scale where the crossing is expected.
_FIRST_RUN = 64


def _bad_sample(h: float, s: float) -> SkinDepthError:
    return SkinDepthError(f"sampled modulus at depth {h!r} is {s!r}; need a finite value >= 0")


def _sample(sampler: Callable[[float], float], h: float) -> float:
    """sampler(h), which must be finite and nonnegative."""
    s = sampler(h)
    if not (0.0 <= s < math.inf):
        raise _bad_sample(h, s)
    return s


def skin_depth_numeric(trace: DecayTrace, scale: float) -> float:
    """Smallest depth where the sampled modulus reaches 1/e of its surface value.

    Scan with step scale/50 to bracket the first crossing (guards against
    non-monotone moduli).  Where the trace has a floor, runs of grid points
    whose floor exceeds target*(1 + 1e-9) are skipped unsampled (a floor that
    is NaN or inf skips nothing), and the last skipped point is sampled once
    if it bounds the bracket; the grid, the bracket and so the root are the
    ones of the point-by-point scan, bit for bit.  Then solve
    g(h) = log(s(h)/target) = 0 inside the bracket by Illinois regula falsi
    (Dowell & Jarratt 1971), starting from the two scan samples that bound
    it.  A step bisects instead where the secant is unusable: after a zero
    sample (g = -inf), or when the secant point falls outside the bracket.
    The solve stops when g is at round-off (at the first step for a single
    exponential) or when a step is below _ROOT_RTOL * max(scale, depth),
    returning that step's point.

    Raises SkinDepthError before the first sample if the scan would take
    more than _MAX_SCAN_SAMPLES samples to reach ``trace.max_depth``; after
    it, if the modulus never decays to 1/e within ``trace.max_depth``, if a
    sample is negative or not finite, or if the solve has not stopped after
    _ROOT_MAX_STEPS steps.
    """
    if not (0 < scale < math.inf):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    step = scale / 50.0
    # ceil(max_depth/step) > N exactly when max_depth/step > N, which also
    # holds where the quotient overflows to inf
    if trace.max_depth / step > _MAX_SCAN_SAMPLES:
        raise SkinDepthError(
            f"scan step {step!r} (scale/50) would take more than {_MAX_SCAN_SAMPLES} samples "
            f"to reach max_depth={trace.max_depth!r}"
        )
    sampler = trace.sampler
    s0 = trace.surface_modulus  # sampled, and checked positive, when the trace was built
    if not (s0 < math.inf):
        raise _bad_sample(0.0, s0)
    target = s0 / math.e

    lo, s_lo = 0.0, s0
    hi = s_hi = None
    h = step
    horizon = trace.max_depth * (1.0 + 1e-12)
    floor, clear = trace.floor, target * (1.0 + 1e-9)
    # Galloping over the same grid: a run of grid points whose floor clears
    # the target is skipped; the run doubles until a floor first fails, then
    # halves at every floor (a bisection for the first point it cannot clear),
    # and at length 1 the point is sampled.  A sample above the target starts
    # a new gallop.
    run, doubling = (_FIRST_RUN, True) if floor is not None else (1, False)
    while h <= horizon:
        if run > 1:
            end = h
            for _ in range(run - 1):
                if end + step > horizon:
                    break
                end += step
            if clear < floor(h, end) < math.inf:
                lo, s_lo, h = end, None, end + step
                run = 2 * run if doubling else run // 2
            else:
                run, doubling = run // 2, False
            continue
        s = _sample(sampler, h)
        if s - target <= 0.0:
            hi, s_hi = h, s
            break
        lo, s_lo = h, s
        h += step
        if floor is not None:
            run, doubling = 2, True
    if hi is None:
        raise SkinDepthError(
            f"modulus never decayed to 1/e of its surface value within max_depth={trace.max_depth!r}"
        )
    if s_lo is None:
        s_lo = _sample(sampler, lo)

    def g(s: float) -> float:
        return math.log(s / target) if s > 0.0 else -math.inf

    # g(a) > 0 >= g(b).  The Illinois rule halves the stored g of the end that
    # has stayed put for two steps in a row, so both ends close in on the root.
    a, ga = lo, g(s_lo)
    b, gb = hi, g(s_hi)
    if gb == 0.0:
        return b
    tol = _ROOT_RTOL * max(scale, b)
    x = previous = b
    side = 0
    for _ in range(_ROOT_MAX_STEPS):
        x_new = b - gb * (b - a) / (gb - ga) if gb > -math.inf else math.nan
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= tol:
            return x_new
        previous, x = x, x_new
        gx = g(_sample(sampler, x))
        if abs(gx) <= 4.0 * sys.float_info.epsilon:
            return x
        if gx > 0.0:
            a, ga = x, gx
            if side > 0:
                gb *= 0.5
            side = 1
        else:
            b, gb = x, gx
            if side < 0:
                ga *= 0.5
            side = -1
    raise SkinDepthError(
        f"1/e crossing not resolved in {_ROOT_MAX_STEPS} steps: bracket [{a!r}, {b!r}], "
        f"last two iterates {previous!r} and {x!r}"
    )


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
        numeric_trace = _e0_trace(s, dp)
    numeric = skin_depth_numeric(numeric_trace, dp.ell_phi)
    ell = dp.ell
    return SkinDepthReport(
        numeric=numeric,
        asymptotic=skin_depth_asymptotic(dp, mean_curv),
        classical=ell,
        eddy2d=ell * (1.0 + mean_curv * ell),
        high_conductivity=ell * (1.0 + mean_curv * ell),
    )

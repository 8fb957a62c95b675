"""Boundary-layer profiles inside the conductor and their surface operators.

A profile is a polynomial in the stretched depth Y3 = y3/eps times a decaying
exponential exp(-lam*Y3), with coefficients that are single-harmonic fields on
the interface.  On the plane and the cylinder the tangential coordinates
(y1, y2) are arc-length coordinates of a flat intrinsic metric, so covariant
derivatives of a harmonic field reduce to multiplication by i*k_alpha; on the
sphere only constant fields (zero wavevector) are supported, which is all the
umbilic checks need.  Depth derivatives are closed-form, never finite
differences.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .geometry import (
    Surface,
    SurfaceKind,
    TangentVector,
    curvature_metric_diagonal,
    hermitian_inner,
    mean_curvature,
    mean_minus_curvature_apply,
)


def _check_wavevector(surface: Surface, wavevector: tuple[float, float]) -> None:
    if surface.kind is SurfaceKind.SPHERE and wavevector != (0.0, 0.0):
        raise ValueError("harmonic fields on the sphere are supported only with zero wavevector")


@dataclass(frozen=True)
class HarmonicScalarField:
    """coeff * exp(i k . y) on the interface."""

    surface: Surface
    coeff: complex
    wavevector: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        _check_wavevector(self.surface, self.wavevector)

    def value(self, y: tuple[float, float]) -> complex:
        k1, k2 = self.wavevector
        return self.coeff * cmath.exp(1j * (k1 * y[0] + k2 * y[1]))

    def gradient(self) -> "HarmonicTangentField":
        """Tangential derivative D_alpha, componentwise i*k_alpha."""
        k1, k2 = self.wavevector
        return HarmonicTangentField(
            self.surface,
            TangentVector(1j * k1 * self.coeff, 1j * k2 * self.coeff),
            self.wavevector,
        )

    def scale(self, a: complex) -> "HarmonicScalarField":
        return HarmonicScalarField(self.surface, a * self.coeff, self.wavevector)


@dataclass(frozen=True)
class HarmonicTangentField:
    """Tangential field coeff * exp(i k . y), components in the principal frame."""

    surface: Surface
    coeff: TangentVector
    wavevector: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        _check_wavevector(self.surface, self.wavevector)

    def value(self, y: tuple[float, float]) -> TangentVector:
        k1, k2 = self.wavevector
        return self.coeff.scale(cmath.exp(1j * (k1 * y[0] + k2 * y[1])))

    def divergence(self) -> HarmonicScalarField:
        k1, k2 = self.wavevector
        return HarmonicScalarField(
            self.surface, 1j * (k1 * self.coeff.c1 + k2 * self.coeff.c2), self.wavevector
        )

    def scale(self, a: complex) -> "HarmonicTangentField":
        return HarmonicTangentField(self.surface, self.coeff.scale(a), self.wavevector)

    @staticmethod
    def cylinder_mode(
        surface: Surface, coeff: TangentVector, mode: int, k_axial: float = 0.0
    ) -> "HarmonicTangentField":
        """Azimuthal mode exp(i*m*theta) written in arc-length coordinates."""
        if surface.kind is not SurfaceKind.CYLINDER:
            raise ValueError("cylinder_mode requires a cylinder surface")
        return HarmonicTangentField(surface, coeff, (mode / surface.radius, k_axial))


@dataclass(frozen=True)
class TraceData:
    """Interface traces feeding the layer profiles.

    e0_trace and e1_trace are the leading and first-order tangential traces of
    the exterior field; surface_divergence_e0 defaults to the closed-form
    divergence of the harmonic e0_trace but may be supplied explicitly.
    """

    e0_trace: HarmonicTangentField
    e1_trace: HarmonicTangentField
    surface_divergence_e0: HarmonicScalarField | None = None

    def __post_init__(self) -> None:
        if self.e0_trace.wavevector != self.e1_trace.wavevector:
            raise ValueError("e0 and e1 traces must share one harmonic wavevector")
        if self.surface_divergence_e0 is None:
            object.__setattr__(self, "surface_divergence_e0", self.e0_trace.divergence())

    @property
    def surface(self) -> Surface:
        return self.e0_trace.surface


_ZERO = TangentVector.zero()


@dataclass(frozen=True)
class ProfileTerm:
    """(tangential, normal) layer profile: poly(Y3) * exp(-decay_rate*Y3).

    ``tangential_coeffs[p]`` and ``normal_coeffs[p]`` are the harmonic
    coefficient fields of Y3**p.
    """

    order: int
    surface: Surface
    decay_rate: complex
    tangential_coeffs: tuple[HarmonicTangentField, ...]
    normal_coeffs: tuple[HarmonicScalarField, ...]

    def tangential(self, y: tuple[float, float], y3_scaled: float) -> TangentVector:
        if y3_scaled < 0:
            raise ValueError(f"scaled depth must be >= 0, got {y3_scaled!r}")
        acc = _ZERO
        for p, field in enumerate(self.tangential_coeffs):
            acc = acc + field.value(y).scale(y3_scaled**p)
        return acc.scale(cmath.exp(-self.decay_rate * y3_scaled))

    def normal(self, y: tuple[float, float], y3_scaled: float) -> complex:
        if y3_scaled < 0:
            raise ValueError(f"scaled depth must be >= 0, got {y3_scaled!r}")
        acc = 0j
        for p, field in enumerate(self.normal_coeffs):
            acc += field.value(y) * y3_scaled**p
        return acc * cmath.exp(-self.decay_rate * y3_scaled)

    def depth_derivative(self) -> "ProfileTerm":
        """Closed-form d/dY3, using d(Y3^p e^{-lam Y3}) structure."""
        lam = self.decay_rate
        tang = list(self.tangential_coeffs)
        norm = list(self.normal_coeffs)
        dt = []
        for p in range(len(tang)):
            c = tang[p].scale(-lam)
            if p + 1 < len(tang):
                c = HarmonicTangentField(
                    c.surface,
                    c.coeff + tang[p + 1].coeff.scale(p + 1),
                    c.wavevector,
                )
            dt.append(c)
        dn = []
        for p in range(len(norm)):
            c = norm[p].scale(-lam)
            if p + 1 < len(norm):
                c = HarmonicScalarField(
                    c.surface, c.coeff + (p + 1) * norm[p + 1].coeff, c.wavevector
                )
            dn.append(c)
        return ProfileTerm(self.order, self.surface, lam, tuple(dt), tuple(dn))


def _zero_scalar(tr: TraceData) -> HarmonicScalarField:
    return HarmonicScalarField(tr.surface, 0j, tr.e0_trace.wavevector)


def make_w0(tr: TraceData, decay_rate: complex) -> ProfileTerm:
    """Leading profile: tangential e0 trace times the decaying exponential, zero normal part."""
    return ProfileTerm(0, tr.surface, decay_rate, (tr.e0_trace,), (_zero_scalar(tr),))


def make_w1(tr: TraceData, decay_rate: complex) -> ProfileTerm:
    """First-order profile: [e1 + Y3*(H - C)e0] tangentially, div-driven normal part."""
    s = tr.surface
    curvature_term = HarmonicTangentField(
        s, mean_minus_curvature_apply(s, tr.e0_trace.coeff), tr.e0_trace.wavevector
    )
    normal = tr.surface_divergence_e0.scale(1.0 / decay_rate)
    return ProfileTerm(
        1, s, decay_rate, (tr.e1_trace, curvature_term), (normal,)
    )


def eval_w0(tr: TraceData, decay_rate: complex, y: tuple[float, float], y3_scaled: float) -> TangentVector:
    """Tangential part of the leading profile at (y, Y3)."""
    return make_w0(tr, decay_rate).tangential(y, y3_scaled)


def eval_fke1(tr: TraceData, decay_rate: complex, y: tuple[float, float], y3_scaled: float) -> complex:
    """Normal part of the first-order profile: div(e0)/lam times the exponential."""
    return make_w1(tr, decay_rate).normal(y, y3_scaled)


def eval_w1(tr: TraceData, decay_rate: complex, y: tuple[float, float], y3_scaled: float) -> TangentVector:
    """Tangential part of the first-order profile at (y, Y3)."""
    return make_w1(tr, decay_rate).tangential(y, y3_scaled)


def gamma_trace(s: Surface, tangential: TangentVector, wavevector: tuple[float, float], normal: complex) -> complex:
    """Trace of the change-of-metric tensor on a harmonic field: div - 2H*normal."""
    k1, k2 = wavevector
    div = 1j * (k1 * tangential.c1 + k2 * tangential.c2)
    return div - 2.0 * mean_curvature(s) * normal


def apply_l1(
    s: Surface, w: ProfileTerm, y: tuple[float, float], y3_scaled: float
) -> tuple[TangentVector, complex]:
    """First-order interior operator applied to a profile.

    Surface part: -2*b*d3(tangential) + d3(grad normal) + tr(b)*d3(tangential).
    Transverse part: gamma-trace of d3(profile) + tr(b)*d3(normal).
    """
    k1, k2 = s.principal_curvatures
    trace_b = k1 + k2
    d3 = w.depth_derivative()
    d3t = d3.tangential(y, y3_scaled)
    d3n = d3.normal(y, y3_scaled)

    # d3 D_alpha(normal): gradient commutes with the depth derivative
    grad_parts = [f.gradient() for f in d3.normal_coeffs]
    grad_d3n = _ZERO
    for p, g in enumerate(grad_parts):
        grad_d3n = grad_d3n + g.value(y).scale(y3_scaled**p)
    grad_d3n = grad_d3n.scale(cmath.exp(-w.decay_rate * y3_scaled))

    surface_part = TangentVector(
        -2.0 * k1 * d3t.c1 + grad_d3n.c1 + trace_b * d3t.c1,
        -2.0 * k2 * d3t.c2 + grad_d3n.c2 + trace_b * d3t.c2,
    )
    wavevector = w.tangential_coeffs[0].wavevector
    transverse_part = gamma_trace(s, d3t, wavevector, d3n) + trace_b * d3n
    return surface_part, transverse_part


def apply_b(
    w_pair: tuple[ProfileTerm, ProfileTerm | None], y: tuple[float, float]
) -> TangentVector:
    """Boundary datum d3(tangential of W_{n+1}) - D_alpha(normal of W_n) at Y3 = 0."""
    w_next, w_prev = w_pair
    datum = w_next.depth_derivative().tangential(y, 0.0)
    if w_prev is not None:
        # only the Y3^0 coefficient survives at Y3 = 0
        datum = datum - w_prev.normal_coeffs[0].gradient().value(y)
    return datum


def modulus_expansion_gm(
    s: Surface, tr: TraceData, y: tuple[float, float], y3: float, eps: float
) -> float:
    """Truncated relative squared-modulus factor 1 + 2*y3*H + 2*eps*Re<e0,e1>/|e0|^2."""
    e0 = tr.e0_trace.value(y)
    e0_sq = e0.modulus() ** 2
    if e0_sq == 0.0:
        raise ValueError("degenerate trace: |e0| vanishes at the requested point")
    e1 = tr.e1_trace.value(y)
    cross = hermitian_inner(e0, e1).real
    return 1.0 + 2.0 * y3 * mean_curvature(s) + 2.0 * eps * cross / e0_sq


def _unit_power(c: complex) -> complex:
    """c as ProfileTerm accumulates its Y3**0 coefficient, zero signs included."""
    return 0j + c * 1.0


@dataclass(frozen=True)
class LayerField:
    """The two-term layer field W0 + eps*W1 at one surface point.

    The harmonic coefficients and the surface's principal curvatures and
    tubular radius are read once, at construction; a sample at depth y3 then
    costs one exponential.  The arithmetic is the one of assembling
    ``make_w0``/``make_w1`` per sample, in the same order, so the results
    agree bit for bit.
    """

    surface: Surface
    decay_rate: complex
    eps: float
    e0: TangentVector  # W0 tangential, Y3**0
    e1: TangentVector  # W1 tangential, Y3**0
    curvature: TangentVector  # W1 tangential, Y3**1: (H - C)e0
    normal: complex  # W1 normal, Y3**0: div(e0)/lam
    principal_curvatures: tuple[float, float] = field(init=False, repr=False)
    tubular_radius: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "principal_curvatures", self.surface.principal_curvatures)
        object.__setattr__(self, "tubular_radius", self.surface.tubular_radius)

    @staticmethod
    def at(
        s: Surface, tr: TraceData, decay_rate: complex, eps: float, y: tuple[float, float]
    ) -> "LayerField":
        """Layer field of traces ``tr`` at point y, measured under the metric of ``s``."""
        w0 = make_w0(tr, decay_rate)
        w1 = make_w1(tr, decay_rate)
        e0 = w0.tangential_coeffs[0].value(y)
        e1 = w1.tangential_coeffs[0].value(y)
        return LayerField(
            surface=s,
            decay_rate=decay_rate,
            eps=eps,
            e0=TangentVector(_unit_power(e0.c1), _unit_power(e0.c2)),
            e1=TangentVector(_unit_power(e1.c1), _unit_power(e1.c2)),
            curvature=w1.tangential_coeffs[1].value(y),
            normal=_unit_power(w1.normal_coeffs[0].value(y)),
        )

    def _parts(self, y3: float) -> tuple[complex, complex, complex]:
        """Tangential components and normal part at physical depth y3."""
        eps = self.eps
        y3_scaled = y3 / eps
        if y3_scaled < 0:
            raise ValueError(f"scaled depth must be >= 0, got {y3_scaled!r}")
        decay = cmath.exp(-self.decay_rate * y3_scaled)
        e0, e1, curv = self.e0, self.e1, self.curvature
        return (
            decay * e0.c1 + eps * (decay * (e1.c1 + y3_scaled * curv.c1)),
            decay * e0.c2 + eps * (decay * (e1.c2 + y3_scaled * curv.c2)),
            eps * (self.normal * decay),
        )

    def fields(self, y3: float) -> tuple[TangentVector, complex]:
        """(tangential, normal) parts of W0 + eps*W1 at physical depth y3."""
        t1, t2, norm = self._parts(y3)
        return TangentVector(t1, t2), norm

    def modulus_sq(self, y3: float) -> float:
        """Squared modulus at depth y3: exact shifted metric tangentially, plus |normal|^2."""
        t1, t2, norm = self._parts(y3)
        a11, a22 = curvature_metric_diagonal(self.principal_curvatures, self.tubular_radius, y3)
        return float(a11 * abs(t1) ** 2 + a22 * abs(t2) ** 2) + abs(norm) ** 2

    def modulus_sq_floor(self, a: float, b: float) -> float:
        """Lower bound of ``modulus_sq`` over depths [a, b], 0 <= a <= b < tubular radius.

        modulus_sq(y) = |exp(-lam*y/eps)|^2 * (sum_i |A_i + y*B_i|^2 / (1 - k_i*y)^2
        + |eps*normal|^2), with A = e0 + eps*e1 and B the curvature coefficient.
        The product of the factors' minima bounds it: the decay and metric
        factors are monotone, so they take theirs at an endpoint, and the
        convex |A_i + y*B_i|^2 at its vertex clipped to [a, b].  Each quadratic
        is lowered by 1e-12*(|e0_i| + eps*|e1_i| + b*|B_i|)^2, far more than the
        rounding of this form or of a sample, so the bound may be negative.
        NaN coefficients give NaN.
        """
        if not (0.0 <= a <= b < self.tubular_radius):
            raise ValueError(f"depths [{a!r}, {b!r}] outside the tubular neighborhood")
        eps, e0, e1, curv = self.eps, self.e0, self.e1, self.curvature
        total = abs(eps * self.normal) ** 2
        for k, c0, c1, slope in zip(
            self.principal_curvatures, (e0.c1, e0.c2), (e1.c1, e1.c2), (curv.c1, curv.c2)
        ):
            offset = c0 + eps * c1
            y = a
            if slope:  # the vertex -Re(conj(A)*B)/|B|^2, without squaring |B|
                y = -(offset / slope).real
                y = a if y < a else b if y > b else y
            size = abs(c0) + eps * abs(c1) + b * abs(slope)
            total += (abs(offset + y * slope) ** 2 - 1e-12 * size * size) / (
                1.0 - k * (a if k >= 0.0 else b)
            ) ** 2
        rate = self.decay_rate.real
        return math.exp(-2.0 * rate * (b if rate >= 0.0 else a) / eps) * total


def layer_modulus_sq(
    s: Surface,
    tr: TraceData,
    decay_rate: complex,
    eps: float,
    y: tuple[float, float],
    y3: float,
) -> float:
    """Full squared modulus of the two-term layer field at physical depth y3.

    Assembles W0 + eps*W1 tangentially under the exact shifted inverse metric
    at depth y3, plus the |eps * normal part|^2 contribution.  Samples along
    one depth trace should build one ``LayerField`` and reuse it.
    """
    return LayerField.at(s, tr, decay_rate, eps, y).modulus_sq(y3)


def default_cutoff_horizon(s: Surface) -> float:
    """Half the tubular-neighborhood radius, the default reach of the cutoff."""
    return 0.5 * s.tubular_radius


def cutoff_chi(y3: float, horizon: float) -> float:
    """C^2 cutoff: 1 on [0, horizon/2], quintic smoothstep down to 0 at horizon.

    Multiplies layer evaluations in physical coordinates; every identity is
    checked inside the region where it equals 1.
    """
    if not horizon > 0:  # not <= 0: NaN fails every comparison
        raise ValueError(f"cutoff horizon must be positive, got {horizon!r}")
    if math.isnan(y3):
        raise ValueError(f"cutoff depth y3 must not be NaN, got {y3!r}")
    if y3 <= 0.5 * horizon:
        return 1.0
    if y3 >= horizon:
        return 0.0
    t = (y3 - 0.5 * horizon) / (0.5 * horizon)
    return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)

"""Canonical interface geometry: curvature data and the shifted metric.

Supported interfaces are the plane, the cylinder and the sphere.  The unit
normal points INTO the conductor; with the conductor convex (interior of the
cylinder/sphere) the principal curvatures are taken positive, so the sphere of
radius R has mean curvature +1/R.  All tangential quantities live in a fixed
orthonormal principal-curvature frame: (azimuthal, axial) on the cylinder, any
fixed orthonormal pair on the sphere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class SurfaceKind(enum.Enum):
    PLANE = "plane"
    CYLINDER = "cylinder"
    SPHERE = "sphere"


@dataclass(frozen=True)
class Surface:
    kind: SurfaceKind
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind is SurfaceKind.PLANE:
            if self.radius is not None:
                raise ValueError("a plane has no radius")
        else:
            if self.radius is None or not (self.radius > 0) or not math.isfinite(self.radius):
                raise ValueError(f"{self.kind.value} radius must be finite and > 0, got {self.radius!r}")

    @staticmethod
    def plane() -> "Surface":
        return Surface(SurfaceKind.PLANE)

    @staticmethod
    def cylinder(radius: float) -> "Surface":
        return Surface(SurfaceKind.CYLINDER, radius)

    @staticmethod
    def sphere(radius: float) -> "Surface":
        return Surface(SurfaceKind.SPHERE, radius)

    @property
    def principal_curvatures(self) -> tuple[float, float]:
        """(kappa_1, kappa_2) in the principal frame; cylinder order is (azimuthal, axial)."""
        if self.kind is SurfaceKind.PLANE:
            return (0.0, 0.0)
        if self.kind is SurfaceKind.CYLINDER:
            return (1.0 / self.radius, 0.0)
        return (1.0 / self.radius, 1.0 / self.radius)

    @property
    def tubular_radius(self) -> float:
        """Half the smallest curvature radius; depth range where normal coordinates are valid."""
        if self.kind is SurfaceKind.PLANE:
            return math.inf
        return 0.5 * self.radius


@dataclass(frozen=True)
class TangentVector:
    """Complex covariant components in the orthonormal principal frame."""

    c1: complex
    c2: complex

    def __add__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.c1 - other.c1, self.c2 - other.c2)

    def scale(self, a: complex) -> "TangentVector":
        return TangentVector(a * self.c1, a * self.c2)

    __rmul__ = scale  # a * v, so a scalar multiplies a complex and a vector alike

    def modulus(self) -> float:
        return math.hypot(abs(self.c1), abs(self.c2))

    @staticmethod
    def zero() -> "TangentVector":
        return TangentVector(0j, 0j)


def hermitian_inner(a: TangentVector, b: TangentVector) -> complex:
    """<a, b> = a1*conj(b1) + a2*conj(b2) in the orthonormal frame."""
    return a.c1 * b.c1.conjugate() + a.c2 * b.c2.conjugate()


def mean_curvature(s: Surface) -> float:
    """Half the trace of the curvature tensor, 1/m."""
    k1, k2 = s.principal_curvatures
    return 0.5 * (k1 + k2)


def curvature_apply(s: Surface, v: TangentVector) -> TangentVector:
    """Shape-operator action on a tangential field: componentwise principal curvatures."""
    k1, k2 = s.principal_curvatures
    return TangentVector(k1 * v.c1, k2 * v.c2)


def mean_minus_curvature_apply(s: Surface, v: TangentVector) -> TangentVector:
    """(H - C) v, composed from the shape-operator action; exactly zero on the sphere."""
    h = mean_curvature(s)
    cv = curvature_apply(s, v)
    return TangentVector(h * v.c1 - cv.c1, h * v.c2 - cv.c2)


def inverse_metric_diagonal(s: Surface, h: float) -> tuple[float, float]:
    """Diagonal 1/(1 - kappa_a*h)^2 of the exact inverse metric at depth h, 0 <= h < tubular radius."""
    return curvature_metric_diagonal(s.principal_curvatures, s.tubular_radius, h)


def curvature_metric_diagonal(
    curvatures: tuple[float, float], tubular_radius: float, h: float
) -> tuple[float, float]:
    """``inverse_metric_diagonal`` from a surface's principal curvatures and tubular radius."""
    if not (0.0 <= h < tubular_radius):
        raise ValueError(f"depth h={h!r} outside the tubular neighborhood [0, {tubular_radius!r})")
    k1, k2 = curvatures
    return 1.0 / (1.0 - k1 * h) ** 2, 1.0 / (1.0 - k2 * h) ** 2


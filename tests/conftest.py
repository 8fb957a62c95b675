import math
import random

import pytest

from magskin.geometry import Surface, TangentVector
from magskin.profiles import HarmonicTangentField, TraceData


@pytest.fixture
def rng():
    return random.Random(20240831)


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    """n log-spaced points from lo to hi inclusive."""
    if n == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**i for i in range(n)]


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(p[0]) for p in points]
    ys = [math.log(p[1]) for p in points]
    n = len(points)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def bits(*values) -> tuple[str, ...]:
    """Hex of the real and imaginary part of each value, so -0.0 and 0.0 differ."""
    return tuple(x.hex() for v in values for x in (complex(v).real, complex(v).imag))


def cylinder_traces(mode=2, e0=(0.8 + 0.3j, 0.5 - 0.2j), e1=(0.1 - 0.4j, -0.3 + 0.6j), radius=1.0):
    """Traces of one azimuthal mode on a cylinder: nonzero e1 and a curvature term."""
    s = Surface.cylinder(radius)
    return TraceData(
        e0_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(*e0), mode),
        e1_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(*e1), mode),
    ), s

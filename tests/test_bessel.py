import cmath
import itertools
import math
import re

import mpmath as mp
import pytest

from magskin import bessel
from magskin.bessel import (
    _EULER_GAMMA,
    MAX_ORDER,
    SERIES_RADIUS,
    _WEDGE_IM,
    BesselDomainError,
    BesselEval,
    _align,
    _ascend,
    _forward_stable,
    _h1_eval,
    _h1_seeds,
    _h1_seeds_via_k,
    _j_seeds,
    _j_series,
    _j_ratio,
    _maybe_fold,
    _recur,
    _validate,
    _y01_series,
    bessel_h1,
    bessel_j,
    bessel_y,
    wronskian_jh1,
    wronskian_jy,
)
from magskin.modal import default_benchmark

from conftest import bits, log_grid


def ref_digits(z: complex) -> int:
    # the J + iY cancellation inside mpmath's hankel1 costs ~0.87*|Im z| digits
    return 60 + int(abs(complex(z).imag))


def rel_to_ref(mine, ref_fn, m, z) -> float:
    """Relative error in the scaled frame, against an adaptive-precision oracle."""
    with mp.workdps(ref_digits(z)):
        ref = mp.mpc(ref_fn(m, z)) * mp.e ** (-mp.mpc(mine.exponent))
        scale = abs(ref)
        if scale == 0:
            return 0.0 if abs(mine.value) < 1e-280 else math.inf
        return float(abs(mp.mpc(mine.value) - ref) / scale)


def test_j_at_zero():
    assert bessel_j(0, 0).value == 1.0
    assert bessel_j(0, 0).derivative == 0.0
    assert bessel_j(1, 0).value == 0.0
    assert bessel_j(1, 0).derivative == 0.5
    assert bessel_j(7, 0).value == 0.0


def test_j0_at_one():
    # 50-digit ascending-series oracle
    assert abs(bessel_j(0, 1.0).value - 0.76519768655796655) <= 1e-12


def test_singular_kinds_reject_zero():
    with pytest.raises(BesselDomainError):
        bessel_y(0, 0.0)
    with pytest.raises(BesselDomainError):
        bessel_h1(2, 0.0)


def test_domain_validation():
    with pytest.raises(BesselDomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(BesselDomainError):
        bessel_j(201, 1.0)
    with pytest.raises(BesselDomainError):
        bessel_j(0, -1.0 + 0.5j)
    # bool and float orders passed as integers
    for m in (True, False, 1.0):
        for fn in (bessel_j, bessel_y, bessel_h1):
            with pytest.raises(BesselDomainError, match=rf"order must be an integer in \[0, 200\], got {m!r}"):
                fn(m, 1.0)


SPOT_POINTS = [
    (0, 0.01 + 0j),
    (0, 1 + 0j),
    (1, 0.5 + 0.2j),
    (4, 2 + 3j),
    (0, 11.9 + 0j),
    (0, 12.1 + 0j),
    (3, 13 + 0j),
    (8, 37.6 + 4.5j),
    (5, 100 + 0j),
    (0, 1000 + 0j),
    (40, 20 + 5j),
    (40, 3 + 1j),
    (100, 50 + 10j),
    (200, 12.5 + 2j),
    (10, 0.01 + 0.005j),
    (0, 5 + 30j),
    (6, 30 - 45j),
    (20, 1 + 11j),
    (20, 1 - 11j),
    (13, 150.6 + 52.9j),
    (120, 30 - 40j),
    (2, 7.1 + 8.4j),
]


@pytest.mark.parametrize("m,z", SPOT_POINTS)
def test_values_against_mpmath(m, z):
    assert rel_to_ref(bessel_j(m, z), mp.besselj, m, z) <= 5e-10
    assert rel_to_ref(bessel_y(m, z), mp.bessely, m, z) <= 5e-10
    assert rel_to_ref(bessel_h1(m, z), mp.hankel1, m, z) <= 5e-10


@pytest.mark.parametrize("m,z", SPOT_POINTS)
def test_derivatives_against_mpmath(m, z):
    jv = bessel_j(m, z)
    with mp.workdps(ref_digits(z)):
        ref = mp.mpc(mp.besselj(m, z, derivative=1)) * mp.e ** (-mp.mpc(jv.exponent))
        scale = max(abs(ref), float(abs(jv.value)))
        assert float(abs(mp.mpc(jv.derivative) - ref)) <= 5e-10 * scale


def test_wronskian_spot_example():
    z = 2 + 3j
    w = wronskian_jy(4, z)
    assert abs(w - 2.0 / (math.pi * z)) <= 1e-10 * abs(2.0 / (math.pi * z))


def wronskian_grid():
    pts = []
    for radius in log_grid(1e-2, 1e3, 6):
        for arg in (-math.pi / 2, -math.pi / 4, 0.0, math.pi / 4, math.pi / 2):
            z = cmath.rect(radius, arg)
            if z.real < 0:
                z = complex(0.0, z.imag)
            for m in (0, 1, 4, 7, 40, 200):
                pts.append((m, z))
    return pts


def test_wronskian_identity_full_domain():
    for m, z in wronskian_grid():
        target = 2j / (math.pi * z)
        w = wronskian_jh1(m, z)
        assert abs(w - target) <= 1e-10 * abs(target), (m, z)


def test_direct_product_wronskian_where_representable():
    # forming the raw J, Y products is only meaningful while exp(2|Im z|)
    # headroom exists; the identity itself is checked everywhere above
    for m, z in wronskian_grid():
        if abs(z.imag) > 6:
            continue
        jv, yv = bessel_j(m, z), bessel_y(m, z)
        if jv.is_scaled or yv.is_scaled:
            continue  # raw products not representable in doubles there
        w = (jv.actual * yv.actual_derivative - jv.actual_derivative * yv.actual)
        target = 2.0 / (math.pi * z)
        assert abs(w - target) <= 1e-9 * abs(target), (m, z)


def test_recurrence_consistency(rng):
    for _ in range(60):
        m = rng.choice([1, 2, 3, 6, 11, 25, 60, 150])
        r = 10 ** rng.uniform(-1.5, 2.5)
        z = cmath.rect(r, rng.uniform(-math.pi / 2, math.pi / 2))
        if z.real < 0:
            z = complex(0.0, z.imag)
        if abs(z.imag) > 28:
            continue
        triple = [bessel_j(m + d, z).actual for d in (-1, 0, 1)]
        lhs = triple[0] + triple[2]
        rhs = (2.0 * m / z) * triple[1]
        scale = max(map(abs, triple))
        assert abs(lhs - rhs) <= 1e-9 * max(scale, abs(rhs)), (m, z)


def test_derivative_identity(rng):
    for _ in range(60):
        m = rng.choice([1, 2, 5, 12, 33, 90])
        r = 10 ** rng.uniform(-1.5, 2.5)
        z = cmath.rect(r, rng.uniform(-math.pi / 2, math.pi / 2))
        if z.real < 0:
            z = complex(0.0, z.imag)
        if abs(z.imag) > 28:
            continue
        jm = bessel_j(m, z)
        half = 0.5 * (bessel_j(m - 1, z).actual - bessel_j(m + 1, z).actual)
        scale = max(abs(jm.actual), abs(half))
        assert abs(jm.actual_derivative - half) <= 1e-9 * scale, (m, z)


def test_scaled_representation_agrees_where_foldable():
    # |Im z| in (30, 250]: evaluations come back scaled but their folded value
    # is still representable, so it must match the oracle directly
    for m, z in [(0, 2 + 40j), (3, 15 - 75j), (9, 60 + 120j), (1, 0.5 + 200j)]:
        jv = bessel_j(m, z)
        assert jv.is_scaled
        with mp.workdps(ref_digits(z)):
            ref = mp.besselj(m, z)
            mine = mp.mpc(jv.value) * mp.e ** mp.mpc(jv.exponent)
            assert float(abs(mine - ref) / abs(ref)) <= 5e-10


def test_overflow_free_to_thousand():
    for z in (3 + 1000j, 700 + 980j, 5 - 1000j, 1000j * 1.0 + 1e-9):
        jv = bessel_j(2, z)
        hv = bessel_h1(2, z)
        for val in (jv.value, jv.derivative, hv.value, hv.derivative):
            assert cmath.isfinite(val)
        assert jv.is_scaled and hv.is_scaled
        target = 2j / (math.pi * z)
        assert abs(wronskian_jh1(2, z) - target) <= 1e-10 * abs(target)


def _j_series_two_loop(m: int, z: complex) -> tuple[complex, complex]:
    """Reference: the former single-order ascending series, (s, E) with J_m = s*exp(E)."""
    E = m * cmath.log(0.5 * z) - math.lgamma(m + 1) if m else 0j
    w = -0.25 * z * z
    term = 1.0 + 0j
    s = term
    for k in range(1, 400):
        term *= w / (k * (m + k))
        s += term
        if abs(term) < 1e-18 * abs(s):
            break
    return s, E


def _y01_series_quadratic(z: complex) -> tuple[complex, complex]:
    """Reference: the former Y_0/Y_1 series, with J_0 and J_1 from their own
    series loops and each harmonic number summed afresh (O(k^2))."""
    def harmonic(n: int) -> float:
        return sum(1.0 / k for k in range(1, n + 1))

    j0 = _j_series_two_loop(0, z)[0]
    s1, e1 = _j_series_two_loop(1, z)
    j1 = s1 * cmath.exp(e1)
    lg = cmath.log(0.5 * z) + _EULER_GAMMA
    w = 0.25 * z * z
    term = 1.0 + 0j
    acc0 = 0j
    for k in range(1, 400):
        term *= w / (k * k)
        acc0 += ((-1) ** (k + 1)) * harmonic(k) * term
        if abs(term) * (math.log(k + 1) + 1.0) < 1e-18 * max(1.0, abs(acc0)):
            break
    y0 = (2.0 / math.pi) * (lg * j0 + acc0)
    term = 1.0 + 0j
    acc1 = (harmonic(0) + harmonic(1)) * term
    for k in range(1, 400):
        term *= -w / (k * (k + 1))
        contrib = (harmonic(k) + harmonic(k + 1)) * term
        acc1 += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(acc1)):
            break
    y1 = (2.0 / math.pi) * (lg * j1 - 1.0 / z) - (z / (2.0 * math.pi)) * acc1
    return y0, y1


@pytest.mark.parametrize("z", [0.01 + 0j, 0.5 + 0.2j, 1 + 0j, 3 - 4j, 7.1 + 2j, 8 + 3.9j, 11.9 + 0j])
def test_y01_series_running_harmonic_sums_match_quadratic_reference(z):
    # one loop shares the J and Y terms; J_1 is aligned by z/2 instead of
    # exp(log(z/2)), so the two agree to rounding (worst 4.3e-16, at 3 - 4j)
    for mine, ref in zip(_y01_series(z), _y01_series_quadratic(z)):
        assert abs(mine - ref) <= 1e-15 * abs(ref), z


@pytest.mark.parametrize("m", [0, 1, 2, 7, 40, 120, 200])
@pytest.mark.parametrize("z", [0.01 + 0j, 0.5 + 0.2j, 3 - 4j, 8 + 3.9j, 11.9 + 0j])
def test_j_series_carries_order_m_plus_one_in_the_same_loop(m, z):
    s0, s1, E = _j_series(m, z)
    ref0, ref_e = _j_series_two_loop(m, z)
    ref1, ref_e1 = _j_series_two_loop(m + 1, z)
    assert bits(E) == bits(ref_e)
    assert abs(s0 - ref0) <= 1e-16 * abs(ref0)
    assert abs(s1 - ref1) <= 1e-16 * abs(ref1)
    # exp(E_{m+1} - E_m) = (z/2)/(m+1), up to the rounding of the former
    # alignment: a difference of two exponents of size up to ~860 at m = 200
    factor = cmath.exp(ref_e1 - ref_e)
    assert abs(0.5 * z / (m + 1) - factor) <= 1e-12 * abs(factor)


# Worst relative error against mpmath on WEDGE_GRID x WEDGE_ORDERS, as the
# former evaluation measured it (two J series per order; H1 as J + iY from
# the public J and Y), rounded up at the third digit: the one-loop series and
# the direct H1 branch may not get worse.  Every worst sits on the rim
# |z| ~ 12, where the ascending series cancels: J at J_0(11.9) (7.2881e-12)
# and J' at J_1'(11.9) (8.8639e-12, now 8.8643e-12: the exact z/2 alignment
# meets the same rounded series terms near a zero of J_1'), both near zeros;
# Y (4.4124e-11) and H1, H1' (1.1637e-10) at 11.53 -+ 2.94i.  J'/J at
# orders >= 30 was 8.0e-16 through the lgamma alignment; it must now stay
# below 1e-15.
WEDGE_WORST = {"J": 7.29e-12, "J'": 8.87e-12, "Y": 4.42e-11, "H1": 1.17e-10, "H1'": 1.17e-10}
WEDGE_ORDERS = (0, 1, 2, 5, 10, 30, 60, 100, 150, 200)
WEDGE_GRID = [
    w
    for z in (
        0.05 + 0j, 1.0 + 0j, 1.5 + 0.01j, 2.2 + 0.8j, 0.6j, 4.0j, 5.0 + 1.3j, 8.0 + 4.0j, 11.9 + 0j,
        11.53 + 2.94j,
    )
    for w in ((z, z.conjugate()) if z.imag else (z,))
]


def test_series_wedge_against_mpmath():
    worst = dict.fromkeys(WEDGE_WORST, 0.0)
    worst_ratio = 0.0
    with mp.workdps(40):
        for z in WEDGE_GRID:
            zm = mp.mpc(z)
            for m in WEDGE_ORDERS:
                j, dj = mp.besselj(m, zm), mp.besselj(m, zm, derivative=1)
                y, dy = mp.bessely(m, zm), mp.bessely(m, zm, derivative=1)
                jv, yv, hv = bessel_j(m, z), bessel_y(m, z), bessel_h1(m, z)

                def rel(mine, ref, exponent):
                    ref = ref * mp.exp(-mp.mpc(exponent))
                    return float(abs(mp.mpc(mine) - ref) / abs(ref))

                for name, err in (
                    ("J", rel(jv.value, j, jv.exponent)),
                    ("J'", rel(jv.derivative, dj, jv.exponent)),
                    ("Y", rel(yv.value, y, yv.exponent)),
                    ("H1", rel(hv.value, j + 1j * y, hv.exponent)),
                    ("H1'", rel(hv.derivative, dj + 1j * dy, hv.exponent)),
                ):
                    worst[name] = max(worst[name], err)
                if m >= 30:
                    worst_ratio = max(worst_ratio, rel(jv.derivative / jv.value, dj / j, 0j))
    for name, bound in WEDGE_WORST.items():
        assert worst[name] <= bound, (name, worst[name])
    assert worst_ratio <= 1e-15


def test_h1_wedge_calls_no_public_bessel_function(monkeypatch):
    def public(*args):
        raise AssertionError(f"public Bessel function called with {args}")

    monkeypatch.setattr(bessel, "bessel_j", public)
    monkeypatch.setattr(bessel, "bessel_y", public)
    for m in (0, 1, 30, 200):
        for z in (1.5 + 0.01j, 1.5 - 0.01j, 11.9 + 0j, 8.0 - 4.0j):
            assert cmath.isfinite(bessel_h1(m, z).value)


# |z| from 1e-3 to 12.3 on seven rays across both half-planes: the series
# wedge, and past it (|Im z| > 4 or |z| > 12) where a given J is only checked
J_READ_GRID = [
    cmath.rect(a, t * math.pi / 2) for a in log_grid(1e-3, 12.3, 8) for t in (-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0)
]


def test_h1_reading_the_callers_j_changes_no_bit():
    """J + iY from a given J_m evaluation equals, in hex, the sum that runs J's series itself."""
    wedge = 0
    for z in J_READ_GRID:
        wedge += abs(z) <= SERIES_RADIUS and abs(z.imag) <= _WEDGE_IM
        for m in range(MAX_ORDER + 1):
            own, read = bessel_h1(m, z), bessel_h1(m, z, j=bessel_j(m, z))
            assert (read.order, read.argument) == (m, z)
            assert bits(read.value, read.derivative, read.exponent) == bits(
                own.value, own.derivative, own.exponent
            ), (m, z)
    assert 20 < wedge < len(J_READ_GRID)


def test_h1_rejects_a_j_of_another_order_or_argument():
    z = 1.5 + 0.25j
    for m, other in (
        (3, bessel_j(2, z)),
        (3, bessel_j(3, z + 1e-12)),
        (3, bessel_j(3, z.conjugate())),
        (0, bessel_j(0, 20.0)),
    ):
        message = f"j is J_{other.order} at {other.argument!r}, but H^(1)_{m} is asked at {z!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            bessel_h1(m, z, j=other)
    # outside the series wedge a j of the right order and argument is read by no one
    assert bessel_h1(4, 30 + 2j, j=bessel_j(4, 30 + 2j)) == bessel_h1(4, 30 + 2j)


def test_a_shell_basis_runs_the_j_series_once_per_point(monkeypatch):
    """J_m and H1_m at each of the three shell radii share one J series loop."""
    runs = []

    def counted(m, z):
        runs.append((m, z))
        return _j_series(m, z)

    monkeypatch.setattr(bessel, "_j_series", counted)
    for m in (0, 1, 2):
        runs.clear()
        b = default_benchmark(m)
        b.shell_closure
        assert len(runs) == 3
        assert len(set(runs)) == 3


def _hankel_asymptotic(m: int, z: complex, kind: int) -> tuple[complex, complex]:
    """Reference: the deleted single-kind expansion of H^(kind)_m, as (value, exponent)."""
    sgn = 1.0 if kind == 1 else -1.0
    mu = 4.0 * m * m
    t = 1.0 + 0j
    s = t
    prev = abs(t)
    for k in range(90):
        t = t * ((mu - (2 * k + 1) ** 2) / (8.0 * (k + 1) * z)) * (1j * sgn)
        if abs(t) >= prev:
            break
        s += t
        prev = abs(t)
        if prev < 1e-17 * abs(s):
            break
    pref = cmath.sqrt(2.0 / (math.pi * z)) * cmath.exp(-1j * sgn * (0.5 * m + 0.25) * math.pi)
    return pref * s, 1j * sgn * z


def _hankel_sums(m: int, z: complex) -> tuple[complex, complex]:
    """Reference: the deleted per-order term loop of the H^(1)_m and H^(2)_m expansions."""
    mu = 4.0 * m * m
    t = 1.0 + 0j
    s1 = s2 = t
    prev = abs(t)
    open1 = open2 = True
    for k in range(90):
        t = t * ((mu - (2 * k + 1) ** 2) / (8.0 * (k + 1) * z)) * 1j
        size = abs(t)
        if size >= prev:
            break
        prev = size
        if open1:
            s1 += t
            open1 = not prev < 1e-17 * abs(s1)
        if open2:
            s2 = s2 + t if k % 2 else s2 - t
            open2 = not prev < 1e-17 * abs(s2)
        if not (open1 or open2):
            break
    return s1, s2


# The seed loop stops and rounds a little differently from the reference
# loop; the worst relative difference on this file's grids is 3.6e-16.
SEED_RTOL = 4e-16


def close(a: complex, b: complex, rtol: float = SEED_RTOL) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _hankel_scaled(m: int, z: complex, sgn: float, s: complex) -> tuple[complex, complex]:
    """Reference: (value, exponent) of H^(1)_m (sgn = 1) or H^(2)_m (sgn = -1) from its term sum."""
    pref = cmath.sqrt(2.0 / (math.pi * z)) * cmath.exp(-1j * sgn * (0.5 * m + 0.25) * math.pi)
    return pref * s, 1j * sgn * z


def _hankel_pair(m: int, z: complex) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Reference: the former pair evaluation, each prefactor taken per order and kind."""
    s1, s2 = _hankel_sums(m, z)
    return _hankel_scaled(m, z, 1.0, s1), _hankel_scaled(m, z, -1.0, s2)


@pytest.mark.parametrize("arg", [-1.5, -0.6, -0.05, 0.0, 0.05, 0.6, 1.5])
def test_hankel_pair_equals_two_single_kind_expansions(arg):
    for r in log_grid(12.0, 1500.0, 8):
        z = cmath.rect(r, arg)
        for m in range(61):
            (h1v, e1), (h2v, e2) = _hankel_pair(m, z)
            assert bits(h1v, e1) == bits(*_hankel_asymptotic(m, z, 1)), (m, z)
            assert bits(h2v, e2) == bits(*_hankel_asymptotic(m, z, 2)), (m, z)


@pytest.mark.parametrize("arg", [0.0, 0.05, 0.6, 1.5, math.pi / 2])
def test_hankel_seeds_equal_two_pair_evaluations(arg):
    # the pair test's grid on the closed upper half plane, where the seeds are
    # taken (exp(2iz) overflows far below it).  The shared prefactor, exp(2iz)
    # and constant phases keep H1_0, H1_1 and J = (H1 + H2)/2 on the exponent
    # of H2 within SEED_RTOL of the reference loop's pair evaluation.
    for r in log_grid(12.0, 1500.0, 8):
        z = cmath.rect(r, arg)
        (h10, h11), (j0, j1) = _h1_seeds(z), _j_seeds(z)
        for m, h1, j in ((0, h10, j0), (1, h11, j1)):
            (h1v, e1), (h2v, e2) = _hankel_pair(m, z)
            assert bits(1j * z) == bits(e1) and close(h1, h1v), (m, z)
            assert bits(-1j * z) == bits(e2), (m, z)
            assert close(j, 0.5 * (h2v + h1v * cmath.exp(e1 - e2))), (m, z)


# worst relative error of each seed against mpmath on SEED_RING_GRID, as
# measured with the reference loop: the seeds may not get worse there
SEED_RING_WORST = {"H1_0": 4.2337e-12, "H1_1": 4.3954e-12, "J_0": 3.7074e-11, "J_1": 4.0252e-11}
SEED_RING_GRID = [
    complex(max(z.real, 0.0), z.imag)
    for z in (
        cmath.rect(r, arg)
        for r in (12.01, 13.0, 14.5, 16.0, 17.5, 19.0, 19.99)
        for arg in (0.0, 0.02, 0.1, 0.3, 0.6, 1.0, 1.3, math.pi / 2)
    )
]


def test_hankel_seeds_on_the_ring_are_no_worse_than_the_reference_loop():
    worst = dict.fromkeys(SEED_RING_WORST, 0.0)
    with mp.workdps(40):
        for z in SEED_RING_GRID:
            (h10, h11), (j0, j1) = _h1_seeds(z), _j_seeds(z)
            zm = mp.mpc(z)
            for name, mine, ref in (
                ("H1_0", h10, mp.hankel1(0, zm) * mp.exp(-1j * zm)),
                ("H1_1", h11, mp.hankel1(1, zm) * mp.exp(-1j * zm)),
                ("J_0", j0, mp.besselj(0, zm) * mp.exp(1j * zm)),
                ("J_1", j1, mp.besselj(1, zm) * mp.exp(1j * zm)),
            ):
                worst[name] = max(worst[name], float(abs(mp.mpc(mine) - ref) / abs(ref)))
    for name, bound in SEED_RING_WORST.items():
        assert worst[name] <= bound, (name, worst[name])


def _hankel_seeds_both(z: complex) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Reference: the former seeds, ((H1_0, H1_1), (J_0, J_1)) from every sum and exp(2iz) at every z."""
    w = 1j / z
    sums = []
    for ratios in (bessel._hankel_ratios(0), bessel._hankel_ratios(1)):
        t = s1 = s2 = 1.0 + 0j
        prev, odd = 1.0, True
        for r in ratios:
            t = t * r * w
            size = abs(t)
            if not 1e-17 <= size < prev:
                break
            prev = size
            s1 += t
            if odd:
                s2 -= t
            else:
                s2 += t
            odd = not odd
        sums.append((s1, s2))
    (s10, s20), (s11, s21) = sums
    root = cmath.sqrt(2.0 / (math.pi * z))
    h10, h11 = root * bessel._PHASE_H1[0] * s10, root * bessel._PHASE_H1[1] * s11
    h20, h21 = root * bessel._PHASE_H2[0] * s20, root * bessel._PHASE_H2[1] * s21
    rotate = cmath.exp(2j * z)
    return (h10, h11), (0.5 * (h20 + h10 * rotate), 0.5 * (h21 + h11 * rotate))


# Im z on both sides of 20, where the H^(1) term of the J seeds falls below
# a tenth of half an ulp of |J|, and Re z from the imaginary axis (where a
# component of J is tiny and that term can still move its bits) to far out on
# the forward route
SEED_SPLIT_GRID = [
    w
    for im in (19.5, 19.99, 20.0, 20.01, 20.3, 20.5, 21.0, 22.0, 25.0, 30.5, 60.0)
    for re in (0.0, 0.05, 0.3, 1.0, 4.0, 20.0, 60.0, 200.0, 1000.0)
    for w in (complex(re, im), complex(re, -im))
]
SEED_SPLIT_ORDERS = (0, 1, 2, 5, 30, 100, 200)


def test_seeds_computing_only_the_read_sums_change_no_bit(monkeypatch):
    """J, H1 and Y equal, in hex, their values from the former seeds, which
    took all four sums and exp(2iz) at every z for every caller."""
    calls = {"_h1_seeds": 0, "_j_seeds": 0}

    def counted(name):
        fn = getattr(bessel, name)

        def seeds(z):
            calls[name] += 1
            return fn(z)

        return seeds

    def evaluate():
        out = {}
        for z in SEED_SPLIT_GRID:
            for m in SEED_SPLIT_ORDERS:
                for fn in (bessel_j, bessel_h1, bessel_y):
                    try:
                        ev = fn(m, z)
                        out[fn.__name__, m, z] = bits(ev.value, ev.derivative, ev.exponent)
                    except BesselDomainError as exc:
                        out[fn.__name__, m, z] = str(exc)
        return out

    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(bessel, name, counted(name))
        new = evaluate()
    assert min(calls.values()) > 100  # both seed kinds are taken on the grid
    with monkeypatch.context() as patch:
        patch.setattr(bessel, "_h1_seeds", lambda z: _hankel_seeds_both(z)[0])
        patch.setattr(bessel, "_j_seeds", lambda z: _hankel_seeds_both(z)[1])
        old = evaluate()
    assert new.keys() == old.keys()
    for key in new:
        assert new[key] == old[key], key


@pytest.mark.parametrize(
    "m,z,forward",
    [
        (0, 12.01 + 0.1j, True),  # order 0 ascends from its own seeds at any |z| > 12
        (1, 19.99 + 0j, False),  # orders >= 1 wait for |z| >= 20 ...
        (1, 20.0 + 0j, True),
        (2, 20.0 + 0j, True),
        (2, 19.99j, False),
        (30, 60.0 + 0j, True),  # ... and stay below the turning point 2m <= |z| ...
        (31, 60.0 + 0j, False),
        (28, 100 + 100j, True),  # ... with m^2*|Im z|/|z|^2 <= 4 (here m^2 <= 800)
        (29, 100 + 100j, False),
        (28, 100 - 100j, True),
        (29, 100 - 100j, False),
    ],
)
def test_forward_route_bounds(m, z, forward):
    assert _forward_stable(m, z) is forward


def forward_route_grid() -> list[tuple[int, complex]]:
    """Orders on both sides of the turning-point and amplification bounds, both half-planes."""
    pts = []
    for r in (12.5, 19.99, 20.0, 25.0, 60.0, 118.92, 400.0, 1189.2):
        for arg in (-math.pi / 2, -1.2, -0.6, -0.2, 0.0, 0.2, 0.6, 1.2, math.pi / 2):
            z = cmath.rect(r, arg)
            z = complex(max(z.real, 0.0), z.imag)
            orders = {0, 1, 2, 5, int(r) // 2, int(r) // 2 + 1}
            if z.imag:
                m_amp = math.isqrt(int(4.0 * r * r / abs(z.imag)))
                orders |= {m_amp, m_amp + 1}
            pts += [(m, z) for m in sorted(orders) if m <= 200]
    return pts


def test_forward_route_against_mpmath(monkeypatch):
    miller_calls = []
    miller = bessel._miller_j

    def recorded_miller(m, z):
        miller_calls.append((m, z))
        return miller(m, z)

    monkeypatch.setattr(bessel, "_miller_j", recorded_miller)
    sides = {True: 0, False: 0}
    for m, z in forward_route_grid():
        forward = _forward_stable(m, z)
        sides[forward] += 1
        jv = bessel_j(m, z)
        # below the real axis J is evaluated at conj z and reflected
        upper = z.conjugate() if z.imag < 0 else z
        assert ((m, upper) not in miller_calls) is forward
        with mp.workdps(30):
            f = mp.e ** (-mp.mpc(jv.exponent))
            val = complex(mp.besselj(m, z) * f)
            der = complex(mp.besselj(m, z, derivative=1) * f)
        err = max(abs(jv.value - val), abs(jv.derivative - der)) / max(abs(val), abs(der))
        # just past SERIES_RADIUS the order-0/1 Hankel seeds are good to ~4e-11
        assert err <= (1e-13 if abs(z) >= 20.0 else 1e-10), (m, z, err)
    assert min(sides.values()) >= 100


def test_conductor_argument_at_high_contrast_skips_miller(monkeypatch):
    def no_miller(m, z):
        raise AssertionError(f"_miller_j({m}, {z!r})")

    b = default_benchmark(mode=30, eps=1e-3)  # mu_r = 1e6, |k_minus*r_in| ~ 1189
    z = b.k_minus * b.r_in
    expected = bessel_j(30, z)
    monkeypatch.setattr(bessel, "_miller_j", no_miller)
    assert bessel_j(30, z) == expected
    assert b.conductor_ref == expected


def miller_grid() -> list[tuple[int, complex]]:
    """Eight orders from 1 to 200 at 12.5 <= |z| <= 1189 in both half-planes,
    and next to the first four zeros of J_m past SERIES_RADIUS, on the real
    axis and at Im z = 1e-3: every such point that bessel_j sends to Miller."""
    pts = []
    orders = (1, 2, 5, 30, 60, 100, 150, 200)
    for m in orders:
        for r in (12.5, 15.0, 19.9, 20.0, 40.0, 80.0, 119.0, 400.0, 1189.0):
            for arg in (0.0, 0.3, math.pi / 4, 1.2, 1.5):
                z = cmath.rect(r, arg)
                pts += [(m, z), (m, z.conjugate())] if arg else [(m, z)]
        with mp.workdps(20):
            zeros = [float(mp.besseljzero(m, n)) for n in range(1, 5)]
        pts += [(m, complex(x, im)) for x in zeros if x > SERIES_RADIUS for im in (0.0, 1e-3)]
    pts.append((5, 12.338604185128341 + 0j))  # 1.2e-8 below the second zero of J_5
    # 2 sqrt(42) rounded: a Lentz denominator is exactly 0 there, D's at m = 4 and C's at m = 5
    pts += [(4, 12.96148139681572 + 0j), (5, 12.96148139681572 + 0j)]
    return [(m, z) for m, z in pts if not _forward_stable(m, z.conjugate() if z.imag < 0 else z)]


def test_miller_route_against_mpmath():
    """The continued fraction and one descent meet the forward route's bounds,
    next to zeros of J_m too, where comparing J_m with itself cannot settle."""
    pts = miller_grid()
    assert len(pts) >= 400
    for m, z in pts:
        jv = bessel_j(m, z)
        with mp.workdps(40):
            f = mp.e ** (-mp.mpc(jv.exponent))
            val = complex(mp.besselj(m, z) * f)
            der = complex(mp.besselj(m, z, derivative=1) * f)
        err = max(abs(jv.value - val), abs(jv.derivative - der)) / max(abs(val), abs(der))
        assert err <= (1e-13 if abs(z) >= 20.0 else 1e-10), (m, z, err)


def test_miller_raises_at_the_step_cap_of_its_fraction(monkeypatch):
    monkeypatch.setattr(bessel, "_cf_step_cap", lambda m, a: 1)
    z = 50.0 + 3.0j
    assert not _forward_stable(40, z)
    with pytest.raises(BesselDomainError, match=r"J_40/J_41 at z = \(50\+3j\).* 1 steps") as info:
        bessel_j(40, z)
    # the last iterate is the first Lentz step: b_1 times (b_2 - 1/b_1)/b_2
    w = 2.0 / z
    b1, b2 = 41 * w, 42 * w
    assert repr(b1 * ((b2 - 1.0 / b1) * (1.0 / b2))) in str(info.value)


_PARENT_RESCALE = 1e250


def _ascend_per_step(c0: complex, c1: complex, z: complex, m: int) -> tuple[complex, complex, int]:
    """Reference: the former forward recurrence, checked and rescaled by 1e250 on every step.

    Returns (f_{m-1}, f_m, rescales); the values are those times 1e250**rescales.
    """
    rescales = 0
    prev, cur = c0, c1
    for k in range(1, m):
        prev, cur = cur, (2.0 * k / z) * cur - prev
        mag = max(abs(prev.real), abs(prev.imag), abs(cur.real), abs(cur.imag))
        if mag > _PARENT_RESCALE:
            prev /= _PARENT_RESCALE
            cur /= _PARENT_RESCALE
            rescales += 1
    return prev, cur, rescales


def _descend_per_step(f: complex, f_next: complex, z: complex, hi: int) -> tuple[complex, complex, int]:
    """Reference: the former downward recurrence from (f_hi, f_hi+1) to (f_0, f_1),
    checked and rescaled by 1e250 on every step.

    Returns (f_0, f_1, rescales); the values are those times 1e250**rescales.
    """
    rescales = 0
    for k in range(hi, 0, -1):
        f, f_next = (2.0 * k / z) * f - f_next, f
        if max(abs(f.real), abs(f.imag)) > _PARENT_RESCALE:
            f /= _PARENT_RESCALE
            f_next /= _PARENT_RESCALE
            rescales += 1
    return f, f_next, rescales


def _miller_descent(f: complex, f_next: complex, z: complex, hi: int) -> tuple[complex, complex, int]:
    """The library's descent from (f_hi, f_hi+1) to (f_0, f_1), as ``_miller_j`` runs it."""
    return _recur(f, f_next, z, range(hi, 0, -1), abs(2.0 * hi / z) + 1.0)


def _miller_start(m: int, z: complex) -> int:
    """The start order of the former Miller passes, which grow by up to 2**830 per block."""
    return max(m + 2, int(1.36 * abs(z)) + 2) + 20


RECURRENCE_ORDERS = (0, 1, 2, 5, 30, 60, 100, 150, 200)
RECURRENCE_GRID = [
    w
    for r in log_grid(0.05, 1189.0, 25)
    for arg in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2)
    for z in (cmath.rect(r, arg),)
    for w in ((z, z.conjugate()) if arg else (z,))
]


def _upper_seeds(z: complex) -> list[tuple[complex, complex]]:
    """The order-0/1 seed pairs the library ascends from at z, Im z >= 0."""
    if abs(z) > SERIES_RADIUS:
        return [_h1_seeds(z), _j_seeds(z)]
    seeds = [_y01_series(z)]
    if z.imag > _WEDGE_IM:
        seeds.append(_h1_seeds_via_k(z))
    return seeds


def _seeds(z: complex) -> list[tuple[complex, complex]]:
    if z.imag >= 0:
        return _upper_seeds(z)
    return [(c0.conjugate(), c1.conjugate()) for c0, c1 in _upper_seeds(z.conjugate())]


def test_forward_ascent_equals_the_per_step_recurrence():
    """One check per block reproduces the per-step recurrence bit for bit
    wherever that never rescaled.  Elsewhere its division by 1e250 rounded,
    and the two round differently on every later step: folded by their
    rescale counts they agree within 4e-15 (worst 2.7e-15, at Y_201(0.62i)),
    where each is ~2e-14 from mpmath (Y_200(0.67 + 0.67i))."""
    rescaled = 0
    with mp.workprec(200):
        for z in RECURRENCE_GRID:
            for c0, c1 in _seeds(z):
                for m in (n + d for n in RECURRENCE_ORDERS for d in (0, 1)):
                    prev, cur, count = _ascend_per_step(c0, c1, z, m)
                    new = _ascend(c0, c1, z, m)
                    if count == 0:
                        assert bits(*new) == bits(prev, cur, 0.0), (m, z)
                        continue
                    rescaled += 1
                    shift = round(new[2] / bessel._LOG_RESCALE)
                    assert new[2] == sum([bessel._LOG_RESCALE] * shift), (m, z)
                    for mine, ref in zip(new[:2], (prev, cur)):
                        ref = mp.mpc(ref) * mp.mpf(_PARENT_RESCALE) ** count
                        mine = mp.mpc(mine) * mp.mpf(2) ** (830 * shift)
                        assert abs(mine - ref) <= 4e-15 * abs(ref), (m, z)
    assert rescaled >= 500


def test_miller_descent_equals_the_per_step_recurrence():
    """The descent with one check per block reproduces the per-step
    recurrence bit for bit wherever that never rescaled: from the continued
    fraction's pair (J_m/J_{m+1}, 1) wherever bessel_j runs Miller, and from
    (1e-30, 0) at the former Miller start order, which grows past 2**830.
    Elsewhere the former divisions by 1e250 rounded, each in its own way, so
    the pairs folded by their rescale counts differ by a common factor up to
    3.2e-15 from 1; past it they agree within 2e-15 (worst 5.5e-16, in f_0
    of J_200 at 5.07)."""
    rescaled = 0
    with mp.workprec(200):
        for z in RECURRENCE_GRID:
            for m in RECURRENCE_ORDERS:
                starts = [(1e-30 + 0j, 0j, _miller_start(m, z))]
                upper = z.conjugate() if z.imag < 0 else z
                if m and abs(z) > SERIES_RADIUS and not _forward_stable(m, upper):
                    starts.append((_j_ratio(m, z), 1.0 + 0j, m))
                for f, f_next, hi in starts:
                    new = _miller_descent(f, f_next, z, hi)
                    f0, f1, count = _descend_per_step(f, f_next, z, hi)
                    if count == 0:
                        assert bits(*new) == bits(f0, f1, 0), (m, z, hi)
                        continue
                    rescaled += 1
                    mine = [mp.mpc(v) * mp.mpf(2) ** (830 * new[2]) for v in new[:2]]
                    ref = [mp.mpc(v) * mp.mpf(_PARENT_RESCALE) ** count for v in (f0, f1)]
                    i = 0 if abs(ref[0]) >= abs(ref[1]) else 1
                    factor = mine[i] / ref[i]
                    for a, b in zip(mine, ref):
                        assert abs(a - factor * b) <= 2e-15 * abs(factor * b), (m, z, hi)
    assert rescaled >= 300


def _ldexp(c: complex, e: int) -> complex:
    return complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))


def _rescale_runs(z: complex, m: int) -> tuple[tuple[complex, complex, float], tuple[complex, complex, int]]:
    """Forward ascent of Y_m from its series seeds, and one descent from the former Miller start, at z."""
    return _ascend(*_y01_series(z), z, m), _miller_descent(1e-30 + 0j, 0j, z, _miller_start(m, z))


@pytest.mark.parametrize("block", [1, 7])
def test_where_a_rescale_happens_changes_no_bit(monkeypatch, block):
    """Rescaling by the exact 2**-830 commutes with the recurrence, so a check
    on every step or every few steps changes the rescale count and nothing else."""
    points = [(0.05 + 0j, 200), (0.3 + 0.2j, 150), (840.75 + 840.75j, 200), (300 - 700j, 60), (1189j, 5)]
    default = [_rescale_runs(z, m) for z, m in points]
    monkeypatch.setattr(bessel, "_block_length", lambda bound: block)
    counts = set()
    for (z, m), ((prev, cur, extra), (f0, f1, rescales)) in zip(points, default):
        (prev2, cur2, extra2), (g0, g1, rescales2) = _rescale_runs(z, m)
        shift = round((extra2 - extra) / bessel._LOG_RESCALE)
        assert bits(_ldexp(prev2, 830 * shift), _ldexp(cur2, 830 * shift)) == bits(prev, cur), (z, m)
        shift = rescales - rescales2
        assert bits(_ldexp(g0, -830 * shift), _ldexp(g1, -830 * shift)) == bits(f0, f1), (z, m)
        counts.add(round(extra / bessel._LOG_RESCALE))
    assert max(counts) >= 2


def test_where_the_miller_descent_rescales_changes_no_bit(monkeypatch):
    """At the library's arguments the descent from order m <= 200 never grows
    past 2**830; with a threshold of 2**8 it rescales, and J is unchanged."""
    points = [(200, 12.5 + 0j), (150, 15.0 + 4.0j), (100, 40.0 - 30.0j), (60, 80.0j)]
    default = [bits(*bessel_j(m, z)) for m, z in points]
    seen = []
    recur = bessel._recur

    def recorded(*args):
        out = recur(*args)
        seen.append(out[2])
        return out

    monkeypatch.setattr(bessel, "_recur", recorded)
    monkeypatch.setattr(bessel, "_RESCALE", 2.0**8)
    monkeypatch.setattr(bessel, "_UNSCALE", 2.0**-8)
    assert [bits(*bessel_j(m, z)) for m, z in points] == default
    assert min(seen) >= 1


def test_tiny_arguments_raise_instead_of_overflowing():
    """Below |z| = 2m * 2**-190 one recurrence step could grow a value past
    the largest float, so Y_m and H1_m raise there, naming order and argument;
    J_m takes no step there.  Below MIN_ARGUMENT = 1e-300 every kind raises,
    since the derivatives (m/z) J_m and Y_0' = -Y_1 ~ 2/(pi z) overflow.
    Nothing returns a non-finite number."""
    for fn, m, z in [
        (bessel_h1, 5, 1e-200), (bessel_y, 5, 1e-200),
        (bessel_h1, 60, 1e-100 + 1e-101j), (bessel_y, 60, 1e-100 + 1e-101j),
        (bessel_h1, 200, 1e-100 + 1e-101j), (bessel_y, 200, 1e-100 + 1e-101j),
    ]:
        with pytest.raises(BesselDomainError, match=rf"order {m} at z = {re.escape(repr(complex(z)))}"):
            fn(m, z)
    for z in (9.9e-301, 1e-305j, 1e-309 + 1e-309j, 5e-324):
        for fn in (bessel_j, bessel_y, bessel_h1, wronskian_jh1):
            with pytest.raises(BesselDomainError, match=r"at least 1e-300 in modulus"):
                fn(0, z)
    raised = 0
    for r in log_grid(1e-300, 1e-40, 27):
        for arg in (-math.pi / 2, -0.7, 0.0, 0.7, math.pi / 2):
            z = cmath.rect(r, arg)
            z = complex(max(z.real, 0.0), z.imag)
            for m in (0, 1, 2, 3, 5, 30, 60, 100, 150, 200):
                for fn in (bessel_j, bessel_y, bessel_h1):
                    where = (fn.__name__, m, z)
                    try:
                        ev = fn(m, z)
                    except BesselDomainError:
                        assert fn is not bessel_j and 2.0 * m / abs(z) + 1.0 > 2.0**190, where
                        raised += 1
                        continue
                    assert all(map(cmath.isfinite, (ev.value, ev.derivative, ev.exponent))), where
    assert raised >= 500


def test_largest_block_growth_against_mpmath():
    # H1_200(0.05): the ascent grows by ~8001 per step, 14 steps per block
    # (8001**14 ~ 2**182 of the 2**190 headroom), ~1600 nats in all
    z = 0.05 + 0j
    assert bessel._block_length(2.0 * 200 / abs(z) + 1.0) == 14
    hv = bessel_h1(200, z)
    assert hv.is_scaled
    with mp.workdps(40):
        diff = mp.log(mp.mpc(hv.value)) + mp.mpc(hv.exponent) - mp.log(mp.hankel1(200, z))
    phase = (float(diff.imag) + math.pi) % (2 * math.pi) - math.pi
    assert abs(complex(float(diff.real), phase)) <= 1e-13


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(1.0, math.inf), complex(math.inf, 0.0)])
def test_a_non_finite_argument_is_rejected(z):
    for fn in (bessel_j, bessel_y, bessel_h1):
        with pytest.raises(BesselDomainError, match="argument must be finite"):
            fn(0, z)


def test_recurrence_where_its_growth_bound_rounds_to_one():
    """From |z| ~ 1.8e16 * m the bound 2m/|z| + 1 rounds to 1, and one block
    covers the whole order range (the log of the bound was a division by 0).
    J, Y and H1 there agree with 60-digit mpmath (worst measured 2.3e-15)."""
    real, both = (1e17, 1e20), (1e17, 1e20, 1e17 + 1e17j, 3e19 + 2e3j)
    assert bessel._block_length(2.0 * 200 / 1e20 + 1.0) > MAX_ORDER
    for fn, ref, zs in ((bessel_j, mp.besselj, both), (bessel_y, mp.bessely, both), (bessel_h1, mp.hankel1, real)):
        for m in (2, 3, 50, 200):
            for z in zs:
                ev = fn(m, z)
                with mp.workdps(60):
                    want = ref(m, mp.mpc(z))
                    got = mp.mpc(ev.value) * mp.exp(mp.mpc(ev.exponent))
                    assert abs(got - want) <= 1e-14 * abs(want), (fn.__name__, m, z)


def _h2_eval_mirror(m: int, z: complex) -> tuple[complex, complex, complex]:
    """Reference: the H^(2) evaluation that mirrored _h1_eval line by line."""
    if z.imag <= 0:
        if abs(z) <= SERIES_RADIUS:
            s0, s1 = _h1_seeds_via_k(z.conjugate())
            h0, h1v = s0.conjugate(), s1.conjugate()
            e0 = -1j * z
        else:
            h0, e0 = _hankel_asymptotic(0, z, 2)
            h1v, _ = _hankel_asymptotic(1, z, 2)
        if m == 0:
            return h0, -h1v, e0
        prev, cur, extra = _ascend(h0, h1v, z, m)
        return cur, prev - (m / z) * cur, e0 + extra
    jv = bessel_j(m, z)
    h1val, h1der, _, h1exp = _h1_eval(m, z)
    jval, jder, h1val, h1der, exponent = _align((jv.value, jv.derivative, jv.exponent), (h1val, h1der, h1exp))
    return 2.0 * jval - h1val, 2.0 * jder - h1der, exponent


def _bessel_h2_mirror(m: int, z: complex) -> tuple[complex, complex, complex]:
    """Reference: the mirrored H^(2) with the same series/J-Y split as bessel_h1."""
    z = _validate(m, z, singular=True)
    if abs(z) <= SERIES_RADIUS and abs(z.imag) <= _WEDGE_IM:
        jv = bessel_j(m, z)
        yv = bessel_y(m, z)
        f = cmath.exp(jv.exponent - yv.exponent)
        # the mirror carries no order-(m-1) value: prev 0j
        ev = _maybe_fold(
            m, z, jv.value * f - 1j * yv.value, jv.derivative * f - 1j * yv.derivative, 0j, yv.exponent
        )
    else:
        value, derivative, exponent = _h2_eval_mirror(m, z)
        ev = _maybe_fold(m, z, value, derivative, 0j, exponent)
    return ev.value, ev.derivative, ev.exponent


def h2_grid() -> list[tuple[int, complex]]:
    pts = []
    for r in (0.05, 0.7, 3.0, 8.0, 11.9, 12.1, 20.0, 60.0, 300.0, 1000.0):
        for arg in (-math.pi / 2, -1.2, -0.7, -0.2, -1e-3, 0.0, 1e-3, 0.2, 0.7, 1.2, math.pi / 2):
            z = cmath.rect(r, arg)
            z = complex(max(z.real, 0.0), z.imag)
            pts += [(m, z) for m in (0, 1, 2, 7, 40, 120, 200)]
    return pts


def triple(ev) -> tuple[complex, complex, complex]:
    return ev.value, ev.derivative, ev.exponent


def close_eval(a: tuple[complex, complex, complex], b: tuple[complex, complex, complex]) -> bool:
    """(value, derivative, exponent) triples: same exponent, values within SEED_RTOL."""
    return a[2] == b[2] and close(a[0], b[0]) and close(a[1], b[1])


def test_h2_by_reflection_equals_the_mirrored_code():
    """H2_m(z) = conj(H1_m(conj z)) reproduces the deleted mirror.

    The mirror ascends from the reference loop's seeds, so values agree
    within SEED_RTOL (worst on this grid: 3.6e-16) and exponents exactly, up
    to the sign of a zero (an unscaled exponent comes back as -0j, not 0j).
    """
    for m, z in h2_grid():
        hv = bessel_h1(m, z.conjugate())
        reflected = tuple(c.conjugate() for c in triple(hv))
        assert close_eval(reflected, _bessel_h2_mirror(m, z)), (m, z)
        if z.imag < 0 and not (abs(z) <= SERIES_RADIUS and abs(z.imag) <= _WEDGE_IM):
            # H1 below the real axis is 2J - H2, now with the reflected H2
            jv = bessel_j(m, z)
            jval, jder, h2val, h2der, exponent = _align(
                (jv.value, jv.derivative, jv.exponent), _h2_eval_mirror(m, z)
            )
            h1 = _maybe_fold(m, z, 2.0 * jval - h2val, 2.0 * jder - h2der, 0j, exponent)
            assert close_eval(triple(bessel_h1(m, z)), triple(h1)), (m, z)


def reflection_grid() -> list[tuple[int, complex]]:
    """Points off the real axis, r from 0.05 to 1000, in conjugate pairs."""
    pts = []
    for r in (0.05, 0.7, 3.0, 8.0, 11.9, 12.1, 20.0, 60.0, 150.0, 300.0, 1000.0):
        for arg in (1e-3, 0.2, 0.7, 1.2, math.pi / 2):
            z = cmath.rect(r, arg)
            z = complex(max(z.real, 0.0), z.imag)
            pts += [(m, w) for m in (0, 1, 2, 7, 40, 120, 200) for w in (z, z.conjugate())]
    return pts


def test_integer_order_reflections_hold_to_the_last_bit():
    """DLMF 10.11.9 for integer order: J(conj z) = conj J(z), Y(conj z) = conj Y(z),
    H1(conj z) = conj H2(z), and so W{J,H1}(conj z) = -conj W{J,H1}(z).

    J, Y and W agree in hex.  H2 is the mirrored reference above, which
    ascends from the reference loop's seeds, so H1 agrees with it within
    SEED_RTOL.
    """
    for m, z in reflection_grid():
        zc = z.conjugate()
        for fn in (bessel_j, bessel_y):
            at_zc, at_z = fn(m, zc), fn(m, z)
            assert bits(at_zc.value, at_zc.derivative, at_zc.exponent) == bits(
                at_z.value.conjugate(), at_z.derivative.conjugate(), at_z.exponent.conjugate()
            ), (fn.__name__, m, z)
        assert bits(wronskian_jh1(m, zc)) == bits(-wronskian_jh1(m, z).conjugate()), (m, z)
        hv = bessel_h1(m, zc)
        h2 = _bessel_h2_mirror(m, z)
        assert close_eval(triple(hv), tuple(c.conjugate() for c in h2)), (m, z)


def test_helpers_see_only_the_closed_upper_half_plane(monkeypatch):
    seen = {}

    def spy(name, fn, z_of):
        def recorded(*args):
            seen.setdefault(name, []).append(z_of(*args))
            return fn(*args)

        monkeypatch.setattr(bessel, name, recorded)

    spy("_h1_seeds", bessel._h1_seeds, lambda z: z)
    spy("_j_seeds", bessel._j_seeds, lambda z: z)
    spy("_miller_j", bessel._miller_j, lambda m, z: z)
    spy("_h1_eval", bessel._h1_eval, lambda m, z: z)
    spy("_k01_scaled", bessel._k01_scaled, lambda w: 1j * w)  # w = -iz
    for m, z in reflection_grid():
        if z.imag < 0:
            for fn in (bessel_j, bessel_y, bessel_h1, wronskian_jh1):
                fn(m, z)
    assert sorted(seen) == ["_h1_eval", "_h1_seeds", "_j_seeds", "_k01_scaled", "_miller_j"]
    for name, args in seen.items():
        assert min(z.imag for z in args) >= 0, name


def test_k01_trapezoid_raises_when_its_levels_never_agree(monkeypatch):
    counter = itertools.count(1)

    def drifting_level(w, h, T):
        k = next(counter)
        return complex(k), complex(k + 1)

    monkeypatch.setattr(bessel, "_k01_level", drifting_level)
    z = 3.0 + 6.0j  # inside SERIES_RADIUS, above the J + iY wedge
    with pytest.raises(BesselDomainError, match=r"w = \(6-3j\).*6 levels") as info:
        bessel_h1(0, z)
    assert next(counter) == 7  # every level ran
    assert f"{(5 + 0j, 6 + 0j)} and {(6 + 0j, 7 + 0j)}" in str(info.value)


@pytest.mark.parametrize("z", [0.2 + 4.01j, 3 + 6j, 8 + 8.9j, 11.2j, 6 + 10j])
def test_k01_seeds_against_mpmath(z):
    k0, k1 = bessel._k01_scaled(-1j * z)
    with mp.workdps(30):
        w = -1j * mp.mpc(z)
        ref0, ref1 = (complex(mp.besselk(nu, w) * mp.e**w) for nu in (0, 1))
    assert abs(k0 - ref0) <= 5e-15 * abs(ref0)
    assert abs(k1 - ref1) <= 5e-15 * abs(ref1)


def test_bessel_eval_is_an_immutable_named_tuple():
    # what callers may rely on: the named fields and properties, immutability,
    # value equality and hashing, and the tuple (order, argument, value,
    # derivative, prev, exponent) it unpacks to and compares equal with
    ev = bessel_j(3, 40.0 + 35.0j)
    assert ev.is_scaled and ev.exponent != 0
    order, argument, value, derivative, prev, exponent = ev
    assert (order, argument) == (3, 40.0 + 35.0j)
    assert (value, derivative, prev, exponent) == (ev.value, ev.derivative, ev.prev, ev.exponent)
    assert ev == (order, argument, value, derivative, prev, exponent) == bessel_j(3, 40.0 + 35.0j)
    assert hash(ev) == hash(bessel_j(3, 40.0 + 35.0j))
    assert BesselEval(0, 1j, 2j, 3j, 4j) == (0, 1j, 2j, 3j, 4j, 0j)  # exponent defaults to 0j
    with pytest.raises(AttributeError):
        ev.value = 0j
    assert ev.actual == value * cmath.exp(exponent)
    assert ev.actual_derivative == derivative * cmath.exp(exponent)


def _prev_error(ev, ref_fn, m: int, z: complex, scale=None) -> float:
    """|prev - Z_{m-1}(z)| (Z_{-1} = -Z_1) on the evaluation's scale, over ``scale`` or |Z_{m-1}|, 40 digits."""
    with mp.workdps(40):
        zm = mp.mpc(z)
        ref = (ref_fn(m - 1, zm) if m else -ref_fn(1, zm)) * mp.exp(-mp.mpc(ev.exponent))
        return float(abs(mp.mpc(ev.prev) - ref) / (abs(ref) if scale is None else scale))


def test_order_m_minus_one_value_against_mpmath():
    """``prev`` meets each route's existing bounds on the value: the series wedge (relative
    to the larger of |Z_{m-1}| and |Z_m|: at J_0(11.9), next to a zero of J_0, the step down
    from J_1 and J_2 reads 1.5e-11 of |J_0| itself), the forward ascent and Miller (relative
    to the larger of |J_m| and |J_m'|), and arguments where 2m/|z| rounds away (relative)."""
    worst = dict.fromkeys(WEDGE_WORST, 0.0)
    for z in WEDGE_GRID:
        for m in WEDGE_ORDERS:
            for name, fn, ref_fn in (("J", bessel_j, mp.besselj), ("Y", bessel_y, mp.bessely), ("H1", bessel_h1, mp.hankel1)):
                ev = fn(m, z)
                with mp.workdps(40):
                    size = float(abs(ref_fn(m, mp.mpc(z)) * mp.exp(-mp.mpc(ev.exponent))))
                    size = max(size, float(abs((ref_fn(m - 1, mp.mpc(z)) if m else ref_fn(1, mp.mpc(z))) * mp.exp(-mp.mpc(ev.exponent)))))
                worst[name] = max(worst[name], _prev_error(ev, ref_fn, m, z, size))
    for name in ("J", "Y", "H1"):
        assert worst[name] <= WEDGE_WORST[name], (name, worst[name])
    for m, z in forward_route_grid() + miller_grid():
        jv = bessel_j(m, z)
        with mp.workdps(30):
            f = mp.e ** (-mp.mpc(jv.exponent))
            size = max(abs(mp.besselj(m, z) * f), abs(mp.besselj(m, z, derivative=1) * f))
        assert _prev_error(jv, mp.besselj, m, z, size) <= (1e-13 if abs(z) >= 20.0 else 1e-10), (m, z)
    for fn, ref_fn, zs in ((bessel_j, mp.besselj, (1e17, 1e20, 1e17 + 1e17j)), (bessel_y, mp.bessely, (1e17, 3e19 + 2e3j)), (bessel_h1, mp.hankel1, (1e17, 1e20))):
        for m in (0, 1, 2, 50, 200):
            for z in zs:
                assert _prev_error(fn(m, z), ref_fn, m, z) <= 1e-14, (fn.__name__, m, z)


def test_order_m_minus_one_value_at_zero_and_order_zero():
    # J_{m-1}(0) is 1 at m = 1 and 0 otherwise; at m = 0 each function's prev is -Z_1,
    # the negated order-1 value its own evaluation holds
    assert [bessel_j(m, 0).prev for m in (0, 1, 2)] == [0j, 1.0 + 0j, 0j]
    for z in (0.3 + 0.1j, 11.9 + 0j, 25.0 - 3.0j, 300.0 + 40.0j):
        for fn in (bessel_j, bessel_y, bessel_h1):
            ev, one = fn(0, z), fn(1, z)
            with mp.workdps(30):
                got = mp.mpc(ev.prev) * mp.exp(mp.mpc(ev.exponent))
                want = mp.mpc(one.value) * mp.exp(mp.mpc(one.exponent))
            assert abs(got + want) <= 1e-13 * abs(want), (fn.__name__, z)

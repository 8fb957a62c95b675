"""Complex-argument cylinder functions J_m, Y_m, H^(1)_m with derivatives.

Self-contained implementation (no external special-function dependency) for
integer orders 0 <= m <= 200 and arguments with |arg z| <= pi/2 and z = 0 or
|z| >= 1e-300 (MIN_ARGUMENT; below it the derivatives (m/z) J_m and
Y_0' = -Y_1 ~ 2/(pi z) overflow).

J_m(z) takes one of three routes:

* |z| <= 12 (SERIES_RADIUS): the ascending series (DLMF 10.2.2), one loop
  carrying orders m and m+1, so J_m' = (m/z) J_m - J_{m+1} needs no second
  series; J_{m+1} is aligned on J_m's exponent by the exact factor
  (z/2)/(m+1);
* |z| > 12 below the turning point -- 2m <= |z|, estimated error
  amplification m^2*|Im z|/|z|^2 <= 4, and |z| >= 20 unless m = 0: J_0 and
  J_1 from the Hankel large-argument expansions (oscillatory exponential
  exp(+-iz) factored out), then forward recurrence to (J_m, J_{m+1}), O(m)
  work.  Against 30-digit mpmath values the worst relative error is 2.3e-14
  at |z| >= 20; just past |z| = 12 the order-0/1 seeds themselves are only
  good to ~4e-11 (3.9e-11 at z = 12.01*exp(-i*pi/2)), which is why orders
  m >= 1 keep the next route until |z| = 20;
* everywhere else (above the turning point, large amplification, or m >= 1
  with |z| < 20): backward (Miller) recurrence from order ~1.36|z|,
  normalised through the cross-product with the Hankel seeds (the exact
  analogue of Wronskian normalisation, immune to the exponential growth of J
  and Y at large |Im z|); it raises BesselDomainError if 8 restarts do not
  agree.  The restarts share one table of coefficients 2k/z, built once per
  call and extended when a restart raises the start order; each pass
  descends in two legs, start to m and m to 0, with no per-step order test.

Y and H^(1) ascend from order-0/1 seeds by forward recurrence, since they are
dominant as the order grows.  In the series wedge |z| <= 12, |Im z| <= 4 the
Y_0/Y_1 seeds come from their ascending series (DLMF 10.8.2), whose one loop
also builds J_0 and J_1 from the same terms, and H^(1)_m is assembled there
directly as J_m + iY_m from the two series loops and the recurrence: three
loops per evaluation, with no call of the public J or Y.

Outside |z| <= 12 the order-0/1 seeds of all three uses come from the
Hankel expansions (DLMF 10.17.5-6), and each caller gets only the sums it
reads.  The Miller normalisation and H^(1) read H1_0 and H1_1, which
``_h1_seeds`` takes from the H^(1) sums alone, with no H^(2) sum and no
exp(2iz).  The forward J route reads J_0 and J_1, which ``_j_seeds`` takes
as J = (H^(2) + H^(1) exp(2iz))/2, the factor of exp(-iz): both sums come
from one loop per order, the H^(2) sum reusing each H^(1) term with
alternating sign.  Both run the one term loop ``_hankel_sums`` over a table
of real term ratios times one i/z.  For Im z >= 20 the H^(1) term is below
exp(-40) ~ 4e-18 of |J|, a tenth of half an ulp, but the J seeds still add
it: near the imaginary axis it can move the last bit of a component of J
far smaller than |J|.

Every internal helper works for Im z >= 0 only, where the solutions' k*r
arguments lie.  The public functions reach the lower half plane by the
integer-order reflections (DLMF 10.11.9): J_m(conj z) = conj J_m(z),
Y_m(conj z) = conj Y_m(z) and H^(1)_m(conj z) = conj H^(2)_m(z), with
H^(2)_m = 2 J_m - H^(1)_m.

Values whose natural size is exponential are returned in scaled form
``value * exp(exponent)`` with the complex ``exponent`` recorded, so ratios
and cross-products of scaled evaluations are exact.  Scaling kicks in
automatically when |Im z| > 30 or when the order regime would over/underflow.
The recurrences check the size of their pair once per block of steps, as
long as the per-step growth bound 2k/|z| + 1 allows below overflow, and
rescale a pair grown past 2**830 by the exact 2**-830, so where a check falls
changes no bit.  Y_m and H^(1)_m raise BesselDomainError where one step could
overflow, 2m/|z| + 1 > 2**190.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

SERIES_RADIUS = 12.0
SCALE_IM_THRESHOLD = 30.0
MAX_ORDER = 200
MIN_ARGUMENT = 1e-300

_EULER_GAMMA = 0.5772156649015328606
# forward-recurrence J route: bound on m^2*|Im z|/|z|^2, and the radius from
# which the order-0/1 Hankel seeds are accurate enough to ascend from
_FORWARD_MAX_AMPLIFICATION = 4.0
_FORWARD_MIN_RADIUS = 20.0
# Recurrences keep their pair at most _RESCALE in each component at every
# check, and rescale it by the exact power of two 1/_RESCALE; between checks
# it may grow by _HEADROOM, since sqrt(2) * 2**830 * 2**190 < 2**1024.
_RESCALE_BITS = 830
_RESCALE = 2.0**_RESCALE_BITS
_UNSCALE = 2.0**-_RESCALE_BITS
_LOG_RESCALE = _RESCALE_BITS * math.log(2.0)
_HEADROOM = 2.0**190
_LOG_HEADROOM = math.log(_HEADROOM)


class BesselDomainError(ValueError):
    """Raised for arguments/orders outside the supported domain."""


class BesselEval(NamedTuple):
    """One cylinder-function evaluation, possibly exponentially scaled.

    The true function value is ``value * exp(exponent)`` and the true
    derivative is ``derivative * exp(exponent)``; ``exponent == 0`` means the
    evaluation is unscaled.

    An immutable named tuple (order, argument, value, derivative, exponent):
    it unpacks, indexes and compares like that plain tuple, and it is cheap
    to build, once per evaluation.
    """

    order: int
    argument: complex
    value: complex
    derivative: complex
    exponent: complex = 0j

    @property
    def is_scaled(self) -> bool:
        return self.exponent != 0

    @property
    def actual(self) -> complex:
        return self.value * cmath.exp(self.exponent)

    @property
    def actual_derivative(self) -> complex:
        return self.derivative * cmath.exp(self.exponent)


def _validate(m: int, z: complex, singular: bool) -> complex:
    if not isinstance(m, int) or m < 0 or m > MAX_ORDER:
        raise BesselDomainError(f"order must be an integer in [0, {MAX_ORDER}], got {m!r}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise BesselDomainError(f"argument must be finite, got {z!r}")
    if z == 0:
        if singular:
            raise BesselDomainError("z = 0 is a pole of Y_m / H_m")
        return z
    if z.real < 0.0:
        raise BesselDomainError(f"argument must satisfy |arg z| <= pi/2, got {z!r}")
    if abs(z) < MIN_ARGUMENT:
        raise BesselDomainError(f"argument must be 0 or at least {MIN_ARGUMENT} in modulus, got {z!r}")
    return z


def _j_series(m: int, z: complex) -> tuple[complex, complex, complex]:
    """Ascending series of orders m and m+1 in one loop (DLMF 10.2.2).

    Returns (s_m, s_{m+1}, E) with J_m(z) = s_m * exp(E) and
    J_{m+1}(z) = s_{m+1} * (z/2)/(m+1) * exp(E): each sum starts at 1, and
    the exact factor (z/2)/(m+1) aligns order m+1 on order m's exponent.
    """
    E = m * cmath.log(0.5 * z) - math.lgamma(m + 1) if m else 0j
    w = -0.25 * z * z
    t0 = t1 = 1.0 + 0j
    s0 = s1 = t0
    for k in range(1, 400):
        t0 *= w / (k * (m + k))
        t1 *= w / (k * (m + 1 + k))
        s0 += t0
        s1 += t1
        size = abs(t0)  # |t1| <= |t0|
        if size < 1e-18 * abs(s0) and size < 1e-18 * abs(s1):
            break
    return s0, s1, E


def _j_ascending(m: int, z: complex) -> tuple[complex, complex, complex]:
    """(value, derivative, exponent) of J_m from one ``_j_series`` loop, |z| <= SERIES_RADIUS."""
    s0, s1, E = _j_series(m, z)
    return s0, (m / z) * s0 - (0.5 * z / (m + 1)) * s1, E


# exp(-+i*(m/2 + 1/4)*pi): the phases of the H^(1) and H^(2) expansions at orders m = 0, 1
_PHASE_H1 = (cmath.exp(-0.25j * math.pi), cmath.exp(-0.75j * math.pi))
_PHASE_H2 = (cmath.exp(0.25j * math.pi), cmath.exp(0.75j * math.pi))
# (4m^2 - (2k+1)^2)/(8(k+1)) for m = 0, 1: the H^(1) term k+1 is term k times
# this ratio and i/z (DLMF 10.17.1, 10.17.5)
_HANKEL_RATIOS = tuple(
    tuple((4.0 * m * m - (2 * k + 1) ** 2) / (8.0 * (k + 1)) for k in range(90)) for m in (0, 1)
)


def _hankel_sums(z: complex, h2: bool) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Per order 0 and 1 the term sums (s1, s2) of the H^(1) and, with ``h2``, H^(2) expansions.

    Term k+1 is term k times ``_HANKEL_RATIOS`` and i/z; s1 sums the terms
    (DLMF 10.17.5), and with ``h2`` s2 sums them with alternating signs
    (10.17.6); without it s2 is 1 and no alternating sum is taken.  An order
    stops at its first term that does not decrease, its smallest, or below
    1e-17, since each sum is 1 + O(1/|z|).
    """
    w = 1j / z
    sums = []
    for ratios in _HANKEL_RATIOS:
        t = s1 = s2 = 1.0 + 0j
        prev, odd = 1.0, True
        for r in ratios:
            t = t * r * w
            size = abs(t)
            if not 1e-17 <= size < prev:
                break
            prev = size
            s1 += t
            if h2:
                if odd:
                    s2 -= t
                else:
                    s2 += t
                odd = not odd
        sums.append((s1, s2))
    return sums[0], sums[1]


def _h1_seeds(z: complex) -> tuple[complex, complex]:
    """(H1_0, H1_1) as the factors of exp(+iz), Im z >= 0, from the H^(1) sums alone.

    The Miller normalisation and H^(1) read these; no H^(2) sum and no
    exp(2iz) is taken.
    """
    (s10, _), (s11, _) = _hankel_sums(z, h2=False)
    root = cmath.sqrt(2.0 / (math.pi * z))
    return root * _PHASE_H1[0] * s10, root * _PHASE_H1[1] * s11


def _j_seeds(z: complex) -> tuple[complex, complex]:
    """(J_0, J_1) as the factors of exp(-iz), Im z >= 0, on which J is dominant.

    J = (H^(2) + H^(1) exp(2iz))/2 from both sums of one loop per order,
    sharing the sqrt(2/(pi z)) prefactor; the forward J route reads these.
    """
    (s10, s20), (s11, s21) = _hankel_sums(z, h2=True)
    root = cmath.sqrt(2.0 / (math.pi * z))
    h10, h11 = root * _PHASE_H1[0] * s10, root * _PHASE_H1[1] * s11
    h20, h21 = root * _PHASE_H2[0] * s20, root * _PHASE_H2[1] * s21
    rotate = cmath.exp(2j * z)
    return 0.5 * (h20 + h10 * rotate), 0.5 * (h21 + h11 * rotate)


def _y01_series(z: complex) -> tuple[complex, complex]:
    """Series evaluation of (Y_0, Y_1) for |z| <= SERIES_RADIUS (DLMF 10.8.2).

    One loop builds J_0 and J_1 with the Y sums, which share their terms:
    t0 = (-z^2/4)^k/(k!)^2 sums to J_0 and enters Y_0, and
    t1 = (-z^2/4)^k/(k!(k+1)!) sums to J_1/(z/2) and enters Y_1.  The
    harmonic numbers H_k = 1 + 1/2 + ... + 1/k are carried as running sums.
    """
    w = -0.25 * z * z
    t0 = t1 = j0 = j1 = acc1 = 1.0 + 0j
    acc0 = 0j
    h_k, h_k1 = 0.0, 1.0
    for k in range(1, 400):
        t0 *= w / (k * k)
        t1 *= w / (k * (k + 1))
        h_k, h_k1 = h_k1, h_k1 + 1.0 / (k + 1)
        j0 += t0
        j1 += t1
        acc0 -= h_k * t0
        acc1 += (h_k + h_k1) * t1
        # h_k + h_k1 >= 1 bounds every sum's next term, and |t1| <= |t0|
        size = abs(t0) * (h_k + h_k1)
        if size < 1e-18 and size < 1e-18 * abs(j0) and size < 1e-18 * abs(j1):
            break
    lg = cmath.log(0.5 * z) + _EULER_GAMMA
    y0 = (2.0 / math.pi) * (lg * j0 + acc0)
    y1 = (2.0 / math.pi) * (lg * (0.5 * z * j1) - 1.0 / z) - (z / (2.0 * math.pi)) * acc1
    return y0, y1


def _y_ascending(m: int, z: complex) -> tuple[complex, complex, complex]:
    """(value, derivative, exponent) of Y_m from the series seeds, in the wedge only."""
    y0, y1 = _y01_series(z)
    if m == 0:
        return y0, -y1, 0j
    prev, cur, extra = _ascend(y0, y1, z, m)
    return cur, prev - (m / z) * cur, complex(extra)


def _block_length(bound: float) -> int:
    """Steps between checks for a recurrence whose pair grows by at most ``bound`` per step."""
    return int(_LOG_HEADROOM / math.log(bound))


def _ascend(c0: complex, c1: complex, z: complex, m: int) -> tuple[complex, complex, float]:
    """Forward recurrence from orders (0, 1) to (m-1, m); returns extra real log scale.

    A step grows the pair by at most 2m/|z| + 1, which also bounds the
    caller's derivative f_{m-1} - (m/z) f_m, so the pair is checked once per
    block of ``_block_length`` steps.  Orders <= 2 take at most one step from
    seeds of size O(1/|z|) and skip the check.  Raises BesselDomainError
    where a single step could outgrow the headroom.
    """
    bound = 2.0 * m / abs(z) + 1.0
    if bound > _HEADROOM:
        raise BesselDomainError(
            f"order {m} at z = {z!r}: one recurrence step could grow by 2m/|z| + 1 > 2**190"
        )
    prev, cur = c0, c1
    if m <= 2:
        if m == 2:
            prev, cur = cur, (2.0 / z) * cur - prev
        return prev, cur, 0.0
    n = _block_length(bound)
    extra = 0.0
    for lo in range(1, m, n):
        for k in range(lo, min(lo + n, m)):
            prev, cur = cur, (2.0 * k / z) * cur - prev
        if max(abs(prev.real), abs(prev.imag), abs(cur.real), abs(cur.imag)) > _RESCALE:
            prev *= _UNSCALE
            cur *= _UNSCALE
            extra += _LOG_RESCALE
    return prev, cur, extra


def _descend(
    coef: list[complex], f: complex, f_next: complex, hi: int, lo: int, n: int
) -> tuple[complex, complex, int]:
    """Steps k = hi, ..., lo + 1 of f_{k-1} = coef[k] f_k - f_{k+1} from (f_hi, f_{hi+1}).

    Returns (f_lo, f_{lo+1}, rescales); the pair is checked once per block of
    n steps and multiplied by 1/_RESCALE at each of the ``rescales`` checks it fails.
    """
    rescales = 0
    for top in range(hi, lo, -n):
        for c in coef[top : max(top - n, lo) : -1]:
            f, f_next = c * f - f_next, f
        if max(abs(f.real), abs(f.imag), abs(f_next.real), abs(f_next.imag)) > _RESCALE:
            f *= _UNSCALE
            f_next *= _UNSCALE
            rescales += 1
    return f, f_next, rescales


def _unscale(c: complex, rescales: int) -> complex:
    """c / _RESCALE**rescales, exactly unless it underflows."""
    shift = -_RESCALE_BITS * rescales
    return complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift))


def _miller_pass(m: int, coef: list[complex], start: int) -> tuple[complex, complex, complex, complex]:
    """Raw downward recurrence from ``start``; returns (f0, f1, fm, fm1) on one scale.

    ``coef[k]`` is 2k/z for k <= start.  The descent runs in two legs, start
    to m and m to 0, so (f_m, f_{m+1}) are read off between them.
    """
    if start < m + 2:  # cannot happen by construction
        raise AssertionError("miller start index below target order")
    n = _block_length(abs(coef[start]) + 1.0)  # |z| > SERIES_RADIUS keeps this >= 30
    fm, fm1, _ = _descend(coef, 1e-30 + 0j, 0j, start, m, n)
    f0, f1, below = _descend(coef, fm, fm1, m, 0, n)
    if below:
        fm, fm1 = _unscale(fm, below), _unscale(fm1, below)
    return f0, f1, fm, fm1


def _miller_j(m: int, z: complex) -> tuple[complex, complex, complex]:
    """(J_m, J_{m+1}, exponent) for Im z >= 0 by backward recurrence, anchored on H1_0, H1_1.

    The coefficient table 2k/z is built once and extended as restarts raise ``start``.
    """
    h0v, h1v = _h1_seeds(z)
    target = 2j / (math.pi * z)
    jexp = -1j * z

    start = max(m + 2, int(1.36 * abs(z)) + 2) + 20
    coef: list[complex] = []
    previous = last = None
    for _ in range(8):
        coef += [2.0 * k / z for k in range(len(coef), start + 1)]
        f0, f1, fm, fm1 = _miller_pass(m, coef, start)
        denom = f1 * h0v - f0 * h1v
        cv = target / denom
        jm, jm1 = cv * fm, cv * fm1
        if last is not None:
            ok = abs(jm - last[0]) <= 1e-13 * abs(jm) and abs(jm1 - last[1]) <= 1e-13 * max(
                abs(jm1), abs(jm)
            )
            if ok:
                return jm, jm1, jexp
        previous, last = last, (jm, jm1)
        start += 24
    raise BesselDomainError(
        f"Miller recurrence for J_{m}({z!r}) did not settle in 8 restarts: "
        f"last two iterates (J_m, J_m+1) = {previous} and {last}"
    )


def _forward_stable(m: int, z: complex) -> bool:
    """Whether J_m(z), |z| > SERIES_RADIUS, may ascend from the order-0/1 Hankel seeds.

    Forward recurrence keeps J's relative accuracy below the turning point
    (2m <= |z|) while the estimated error amplification m^2*|Im z|/|z|^2
    stays small.  Just past SERIES_RADIUS the seeds themselves are only good
    to ~4e-11, against ~4e-12 from Miller, so every order but 0 (which has
    always been read off its seeds there) waits until |z| >= _FORWARD_MIN_RADIUS.
    """
    a = abs(z)
    if m >= 1 and a < _FORWARD_MIN_RADIUS:
        return False
    return 2 * m <= a and m * m * abs(z.imag) <= _FORWARD_MAX_AMPLIFICATION * a * a


def _maybe_fold(
    m: int, z: complex, value: complex, derivative: complex, exponent: complex
) -> BesselEval:
    """Fold the exponent into the values when that cannot over/underflow."""
    if exponent == 0:
        return BesselEval(m, z, value, derivative, 0j)
    if abs(z.imag) <= SCALE_IM_THRESHOLD and abs(exponent.real) <= 200.0:
        f = cmath.exp(exponent)
        return BesselEval(m, z, value * f, derivative * f, 0j)
    return BesselEval(m, z, value, derivative, exponent)


def _reflect(ev: BesselEval) -> BesselEval:
    """J_m or Y_m at conj z from its evaluation at z: each is conj of itself there (DLMF 10.11.9)."""
    value, derivative, exponent = (c.conjugate() for c in (ev.value, ev.derivative, ev.exponent))
    return BesselEval(ev.order, ev.argument.conjugate(), value, derivative, exponent)


def bessel_j(m: int, z: complex) -> BesselEval:
    """Bessel function of the first kind J_m(z) and its derivative."""
    z = _validate(m, z, singular=False)
    if z.imag < 0:
        return _reflect(bessel_j(m, z.conjugate()))
    if z == 0:
        val = 1.0 + 0j if m == 0 else 0j
        der = 0.5 + 0j if m == 1 else 0j
        return BesselEval(m, z, val, der, 0j)

    if abs(z) <= SERIES_RADIUS:
        return _maybe_fold(m, z, *_j_ascending(m, z))

    if _forward_stable(m, z):
        j0, j1 = _j_seeds(z)
        jm, jm1, extra = (j0, j1, 0.0) if m == 0 else _ascend(j0, j1, z, m + 1)
        jexp = -1j * z + extra
    else:
        jm, jm1, jexp = _miller_j(m, z)
    deriv = (m / z) * jm - jm1
    return _maybe_fold(m, z, jm, deriv, jexp)


_WEDGE_IM = 4.0
_K01_RTOL = 1e-14


def _k01_level(w: complex, h: float, T: float) -> tuple[complex, complex]:
    """One trapezoid level of ``_k01_scaled``: step h over t in [0, T]."""
    n = int(math.ceil(T / h))
    s0 = s1 = 0.5 + 0j
    for i in range(1, n + 1):
        c = math.cosh(i * h)
        g = cmath.exp(-w * (c - 1.0))
        s0 += g
        s1 += g * c
    return h * s0, h * s1


def _k01_scaled(w: complex) -> tuple[complex, complex]:
    """exp(w)*K_0(w) and exp(w)*K_1(w) for Re w >= _WEDGE_IM.

    Trapezoid rule on the even integrand exp(-w(cosh t - 1))*cosh(nu*t);
    spectrally accurate, halving the step until two levels agree to
    _K01_RTOL.  Round-off keeps converged levels up to ~9e-15 apart, so the
    rule sits above that; it raises BesselDomainError if 6 levels never agree.
    """
    T = math.acosh(1.0 + 45.0 / w.real)
    previous = last = None
    h = 0.1
    for _ in range(6):
        k0, k1 = _k01_level(w, h, T)
        if (
            last is not None
            and abs(k0 - last[0]) <= _K01_RTOL * abs(k0)
            and abs(k1 - last[1]) <= _K01_RTOL * abs(k1)
        ):
            return k0, k1
        previous, last = last, (k0, k1)
        h *= 0.5
    raise BesselDomainError(
        f"trapezoid rule for exp(w)*(K_0, K_1)(w) at w = {w!r} did not settle in 6 levels: "
        f"last two estimates {previous} and {last}"
    )


def _h1_seeds_via_k(z: complex) -> tuple[complex, complex]:
    """(H1_0, H1_1) scaled by exp(+iz), for Im z > 0, via K_nu(-iz).

    Gives the subdominant Hankel seeds at moderate |z| where the J + iY
    assembly would cancel exp(2*Im z) digits.
    """
    k0, k1 = _k01_scaled(-1j * z)
    return (-2j / math.pi) * k0, (-2.0 / math.pi) * k1


def _h1_eval(m: int, z: complex) -> tuple[complex, complex, complex]:
    """(value, derivative, exponent) of H^(1)_m, unfolded, for Im z >= 0.

    Outside the small-|z| wedge only: Im z > _WEDGE_IM or |z| > SERIES_RADIUS.
    """
    if abs(z) <= SERIES_RADIUS:
        h0, h1v = _h1_seeds_via_k(z)
    else:
        h0, h1v = _h1_seeds(z)
    e0 = 1j * z
    if m == 0:
        return h0, -h1v, e0
    prev, cur, extra = _ascend(h0, h1v, z, m)
    return cur, prev - (m / z) * cur, e0 + extra


def bessel_y(m: int, z: complex) -> BesselEval:
    """Bessel function of the second kind Y_m(z) and its derivative.

    Away from the real axis Y_m is assembled as (H1_m - J_m)/i; ascending Y
    itself by forward recurrence is unstable for complex z near the
    order-argument transition, where |Y_k| dips by exp(2|Im z|).
    """
    z = _validate(m, z, singular=True)
    if z.imag < 0:
        return _reflect(bessel_y(m, z.conjugate()))
    if abs(z) <= SERIES_RADIUS and z.imag <= _WEDGE_IM:
        return _maybe_fold(m, z, *_y_ascending(m, z))
    jv = bessel_j(m, z)
    hval, hder, hexp = _h1_eval(m, z)
    jval, jder, hval, hder, exponent = _align((jv.value, jv.derivative, jv.exponent), (hval, hder, hexp))
    value = (hval - jval) / 1j
    deriv = (hder - jder) / 1j
    return _maybe_fold(m, z, value, deriv, exponent)


def _align(
    a: tuple[complex, complex, complex], b: tuple[complex, complex, complex]
) -> tuple[complex, complex, complex, complex, complex]:
    """Bring two scaled (value, derivative, exponent) triples to one exponent."""
    if a[2].real >= b[2].real:
        f = cmath.exp(b[2] - a[2])
        return a[0], a[1], b[0] * f, b[1] * f, a[2]
    f = cmath.exp(a[2] - b[2])
    return a[0] * f, a[1] * f, b[0], b[1], b[2]


def bessel_h1(m: int, z: complex) -> BesselEval:
    """Hankel function of the first kind H^(1)_m(z) and its derivative."""
    z = _validate(m, z, singular=True)
    if abs(z) <= SERIES_RADIUS and abs(z.imag) <= _WEDGE_IM:
        # J + iY from the series at z, or conj(J - iY) at conj z below the real axis
        upper = z.imag >= 0
        zu = z if upper else z.conjugate()
        jval, jder, jexp = _j_ascending(m, zu)
        yval, yder, exponent = _y_ascending(m, zu)
        f = cmath.exp(jexp - exponent)
        iy = 1j if upper else -1j
        value, deriv = jval * f + iy * yval, jder * f + iy * yder
        if not upper:
            value, deriv, exponent = value.conjugate(), deriv.conjugate(), exponent.conjugate()
        return _maybe_fold(m, z, value, deriv, exponent)
    if z.imag >= 0:
        return _maybe_fold(m, z, *_h1_eval(m, z))
    # H1 = 2J - H2, with J_m(z) = conj J_m(conj z) and H2_m(z) = conj H1_m(conj z)
    zc = z.conjugate()
    jv = bessel_j(m, zc)
    jval, jder, hval, hder, exponent = _align((jv.value, jv.derivative, jv.exponent), _h1_eval(m, zc))
    value, deriv = 2.0 * jval - hval, 2.0 * jder - hder
    return _maybe_fold(m, z, value.conjugate(), deriv.conjugate(), exponent.conjugate())


def wronskian_jh1(m: int, z: complex) -> complex:
    """J_m*H1_m' - J_m'*H1_m, evaluated with exponents combined exactly.

    Equals 2i/(pi*z) identically, so W(z) = -conj W(conj z), which is how it
    is taken below the real axis.  Above it the exponential scalings of J and
    H1 cancel in the cross-product.
    """
    z = _validate(m, z, singular=True)
    if z.imag < 0:
        return -wronskian_jh1(m, z.conjugate()).conjugate()
    jv, hv = bessel_j(m, z), bessel_h1(m, z)
    cross = jv.value * hv.derivative - jv.derivative * hv.value
    return cross * cmath.exp(jv.exponent + hv.exponent)


def wronskian_jy(m: int, z: complex) -> complex:
    """J_m*Y_m' - J_m'*Y_m, equal to 2/(pi*z).

    Evaluated through the J/H^(1) cross-product (W{J,Y} = W{J,H1}/i), which is
    the numerically faithful factorisation: forming the J,Y products directly
    at large |Im z| would cancel ~exp(2*Im z) leading digits.
    """
    return wronskian_jh1(m, z) / 1j

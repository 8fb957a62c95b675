"""Exact and reduced per-mode solutions of the layered-cylinder benchmark.

Geometry: a conducting core r < R_in, a driven shell R_in < r < R_out with a
surface-current ring at r = r_source, and a no-flux outer boundary.  The field
is the axial electric component u(r)*exp(i*m*theta); per azimuthal mode the
problem is a scalar Helmholtz equation with radial Bessel solutions.

Every model is one shell problem over J_m(k_plus r) and H1_m(k_plus r): u' jumps
at the source ring, u' = 0 at the outer boundary, and the inner wall takes one
condition, u'(r_in) + gamma*u(r_in) = datum.  Its solution is the shell's
two-sided Green's function in closed form (``_shell_green``); no linear system
is built.  The models differ only in gamma and the datum:

* exact: the conductor carries J_m(k_minus r) alone, the solution regular at
  the origin, so continuity of u and u'/mu at r_in is the Robin condition with
  the conductor's own coefficient gamma = -(mu_plus/mu_minus)*k_minus*J_m'/J_m,
  and the conductor amplitude is u(r_in);
* impedance models of order k: gamma from the order-k operator, datum 0;
* expansion terms: gamma = 0, the datum from the lower terms' traces.

Every returned solution is checked against its defining conditions to 1e-10
relative.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

from .bessel import _FORWARD_MIN_RADIUS, SERIES_RADIUS, BesselEval, bessel_h1, bessel_j
from .geometry import Surface, mean_curvature
from .ibc import robin_coefficient
from .params import DerivedParams, PhysicalConfig, derive_params, mu_minus_for_eps

RESIDUAL_TOL = 1e-10
_COND_WARN = 1e12
_NORMAL_MIN = sys.float_info.min  # below it a float is subnormal, its relative precision lost
# Conductor samples read Taylor pieces of |k_minus|*(r - centre) <= _PIECE_HALF; a solution keeps at
# most _MAX_PIECES of them at once.  ``_conductor_piece`` says where a piece is built.
_PIECE_HALF, _PIECE_MIN_Z, _PIECE_MIN_HALF, _MAX_PIECES = 1.5, 8.0, 2.0**-26, 64


class SolverError(RuntimeError):
    """A solve violated its defining conditions or its inputs are inconsistent."""


class ConvergenceError(RuntimeError):
    """An error sweep did not decrease with the model parameter."""


def default_config(eps: float = 0.1) -> PhysicalConfig:
    """Unit-frequency configuration with delta_minus = 1, delta_plus = 10.

    Raises ValueError naming eps unless eps and mu_minus = 1/eps^2 are finite and positive.
    """
    return PhysicalConfig(
        omega=1.0,
        eps0=1.0,
        mu_plus=1.0,
        mu_minus=mu_minus_for_eps(1.0, eps),
        sigma_plus=0.01,
        sigma_minus=1.0,
    )


_Coefficients = tuple[complex, complex]
_Point = tuple[complex, complex, complex, complex]  # f1, f1', f2, f2' at one point
_OVERFLOW: _Point = (complex(math.inf),) * 4  # a point beyond the float range: not finite


def _eval_pair(m: int, z: complex) -> tuple[BesselEval, BesselEval]:
    jv = bessel_j(m, z)
    return jv, bessel_h1(m, z, j=jv)


def _basis_point(m: int, k: complex, r: float) -> tuple[_Point, _Coefficients]:
    """The shell basis point (J_m, k*J_m', H1_m, k*H1_m') of k*r and the order-(m-1) values
    (J_{m-1}, H1_{m-1}) there, from one evaluation of each function.

    An unscaled evaluation (exponent 0) is read as it is, not multiplied by exp(0).
    """
    jv, hv = _eval_pair(m, k * r)
    try:
        f1, d1, p1 = jv[2:5] if jv.exponent == 0 else (x * cmath.exp(jv.exponent) for x in jv[2:5])
        f2, d2, p2 = hv[2:5] if hv.exponent == 0 else (x * cmath.exp(hv.exponent) for x in hv[2:5])
    except OverflowError:  # the scale exp(exponent) does
        return _OVERFLOW, _OVERFLOW[:2]
    return (f1, k * d1, f2, k * d2), (p1, p2)


def _combine(coeff: _Coefficients, at: _Point) -> tuple[complex, complex]:
    """u and u' of coeff[0]*f1 + coeff[1]*f2 at one point."""
    f1, d1, f2, d2 = at
    return coeff[0] * f1 + coeff[1] * f2, coeff[0] * d1 + coeff[1] * d2


class _ShellClosure(NamedTuple):
    """The shell basis at the inner wall, source ring and outer wall, and what ``_shell_green``,
    ``_shell_field`` and the closed-form norms read of it, computed once per shell.

    ``k`` is the shell's wavenumber; ``wall``, ``ring`` and ``outer`` are
    (f1, f1', f2, f2') at the three radii, ``low`` (J_{m-1}, H1_{m-1}) at the wall.
    N = f2'(outer)*f1 - f1'(outer)*f2 and L = f2'(wall)*f1 - f1'(wall)*f2 as
    coefficient pairs over (f1, f2); N and N' at the wall, N and L at the
    ring, L at the wall, W = L*N' - L'*N at the ring and |k*N| + |N'| at the
    wall.
    """

    k: complex
    wall: _Point
    ring: _Point
    outer: _Point
    low: _Coefficients
    n: _Coefficients
    el: _Coefficients
    n_wall: complex
    dn_wall: complex
    n_ring: complex
    l_ring: complex
    l_wall: complex
    w: complex
    size: float


def _shell_closure(
    k: complex, wall: _Point, ring: _Point, outer: _Point, low: _Coefficients
) -> _ShellClosure:
    """The shell's Green's-function closure over the basis points at the wall, ring and outer wall.

    N' at the wall and W are divisors of every solve, so where the basis is not finite, or
    either is zero or subnormal (its relative precision lost), it raises SolverError.
    """
    if not all(cmath.isfinite(v) for v in (*wall, *ring, *outer)):
        raise SolverError(f"shell basis not finite: wall {wall}, ring {ring}, outer {outer}")
    n, el = (outer[3], -outer[1]), (wall[3], -wall[1])
    n_wall, dn_wall = _combine(n, wall)
    n_ring, dn_ring = _combine(n, ring)
    l_ring, dl_ring = _combine(el, ring)
    w = l_ring * dn_ring - dl_ring * n_ring
    tiny = [f"{name} = {v!r}" for name, v in (("N' at the wall", dn_wall), ("W", w)) if abs(v) < _NORMAL_MIN]
    if tiny:
        raise SolverError(f"shell closure at k_plus = {k!r} divides by a zero or subnormal {', '.join(tiny)}")
    size, l_wall = abs(k * n_wall) + abs(dn_wall), _combine(el, wall)[0]
    return _ShellClosure(k, wall, ring, outer, low, n, el, n_wall, dn_wall, n_ring, l_ring, l_wall, w, size)


@dataclass(frozen=True)
class CylinderBenchmark:
    """Layered-cylinder benchmark: interface, outer wall, ring source, one mode."""

    r_in: float
    r_out: float
    r_source: float
    mode: int
    cfg: PhysicalConfig
    source_amplitude: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        if not (0.0 < self.r_in < self.r_source < self.r_out):
            raise ValueError(
                f"need 0 < r_in < r_source < r_out, got {self.r_in}, {self.r_source}, {self.r_out}"
            )
        if not math.isfinite(self.r_out):
            raise ValueError(f"r_out must be finite, got {self.r_out!r}")
        if isinstance(self.mode, bool) or not isinstance(self.mode, int):
            raise ValueError(f"mode must be an integer, got {self.mode!r}")
        if abs(self.mode) > 200:
            raise ValueError(f"|mode| must be <= 200, got {self.mode}")
        # a zero source drives no field, and every error relative to it divides by zero
        amplitude = self.source_amplitude
        if not (cmath.isfinite(amplitude) and amplitude != 0):
            raise ValueError(f"source_amplitude must be finite and nonzero, got {amplitude!r}")
        # a subnormal one has lost its relative precision, and at 5e-324 the conductor field rounds to 0
        if math.hypot(amplitude.real, amplitude.imag) < _NORMAL_MIN:
            raise ValueError(
                f"source_amplitude must have modulus at least sys.float_info.min = {_NORMAL_MIN!r}, got {amplitude!r}"
            )

    @functools.cached_property
    def params(self) -> DerivedParams:
        return derive_params(self.cfg)

    @functools.cached_property
    def k_plus(self) -> complex:
        return self.params.kappa_plus * cmath.sqrt(self.params.alpha_plus)

    @functools.cached_property
    def k_minus(self) -> complex:
        dp = self.params
        return dp.kappa_plus * cmath.sqrt(dp.alpha_minus) / dp.eps_small

    @functools.cached_property
    def shell_closure(self) -> _ShellClosure:
        """The shell basis at r_in, r_source and r_out and its closure, derived once per instance.

        Every solve, residual check, point evaluation at those radii and
        closed-form shell norm on this benchmark reads it, so a solve costs
        only the update that depends on the model's wall coefficient and datum.
        Raises SolverError where ``_shell_closure`` does; its message is kept, so a
        later read, or one on a ``with_eps`` copy, raises it again without a Bessel call.
        """
        failure = vars(self).get("_shell_failure")
        if failure is None:
            m, kp = abs(self.mode), self.k_plus
            points, lows = zip(*(_basis_point(m, kp, r) for r in (self.r_in, self.r_source, self.r_out)))
            try:
                return _shell_closure(kp, *points, lows[0])
            except SolverError as exc:
                failure = vars(self)["_shell_failure"] = str(exc)
        raise SolverError(failure)

    @functools.cached_property
    def shell_grams(self) -> tuple[float, float]:
        """The squared electric and magnetic shell norms of N (``_shell_grams``)."""
        return _shell_grams(self)

    @functools.cached_property
    def wall_surface(self) -> Surface:
        """The interface r = r_in, the surface the impedance models are built on."""
        return Surface.cylinder(self.r_in)

    @functools.cached_property
    def conductor_ref(self) -> BesselEval:
        """J_m(k_minus r_in): the conductor field's normalisation, evaluated once per instance."""
        return bessel_j(abs(self.mode), self.k_minus * self.r_in)

    @functools.cached_property
    def conductor_gamma(self) -> complex:
        """The conductor's wall coefficient: u' + gamma*u = 0 on the shell side of r_in.

        The conductor field A*J_m(k_minus r)/J_m(k_minus r_in) has u'/u =
        k_minus*J_m'/J_m at r_in; continuity of u and u'/mu carries that ratio
        across the interface scaled by mu_plus/mu_minus.
        """
        ref = self.conductor_ref
        return -(self.cfg.mu_plus / self.cfg.mu_minus) * self.k_minus * ref.derivative / ref.value

    def shell_point(self, r: float) -> _Point:
        """The shell basis point at r; read from the shell closure at its three radii."""
        if r == self.r_in:
            return self.shell_closure.wall
        if r == self.r_source:
            return self.shell_closure.ring
        if r == self.r_out:
            return self.shell_closure.outer
        return _basis_point(abs(self.mode), self.k_plus, r)[0]

    def with_eps(self, eps: float) -> "CylinderBenchmark":
        """Same benchmark with mu_minus = mu_plus/eps^2; everything else fixed.

        k_plus does not depend on mu_minus, so the shell closure, basis points
        included, or its error, N's squared norms and the wall surface this instance has
        already derived serve the copy too; none is derived again for it.  Raises ValueError naming eps
        unless eps and mu_plus/eps^2 are finite and positive.
        """
        cfg = self.cfg
        other = replace(self, cfg=cfg.with_mu_minus(mu_minus_for_eps(cfg.mu_plus, eps)))
        mine, theirs = vars(self), vars(other)
        for name in _SHARED_ACROSS_EPS:
            if name in mine:
                theirs[name] = mine[name]
        return other


# CylinderBenchmark's cached values free of mu_minus, a failed closure's message too, handed on by with_eps
_SHARED_ACROSS_EPS = ("shell_closure", "_shell_failure", "shell_grams", "wall_surface")


def default_benchmark(mode: int = 0, eps: float = 0.1) -> CylinderBenchmark:
    return CylinderBenchmark(
        r_in=1.0, r_out=2.0, r_source=1.5, mode=mode, cfg=default_config(eps)
    )


@dataclass(frozen=True)
class ModalSolution:
    """Per-mode radial solution, held by its two shell coordinates.

    Shell: the Neumann-wall field of ``source``, the u' jump at the ring, plus
    t*N with t = ``wall_amplitude`` (see ``_shell_green``); ``shell_inner`` and
    ``shell_outer`` are its coefficients over (J_m(k_plus r), H1_m(k_plus r))
    inside and outside the ring, formed once by ``_shell_field``.  Conductor
    (exact solution only): u = A*J_m(k_minus r)/J_m(k_minus R_in) with A = u(R_in),
    evaluated through scaled Bessel ratios so deep evaluation never overflows.
    There u reads the solution's Taylor pieces (``_piece``, ``_conductor_piece``): one
    Horner pass per sample, the piece built by its first sample from one ``bessel_j`` at
    its centre; outside the pieces' domain and at r = 0 a sample of u is one ``bessel_j``.
    u' below r_in is one ``bessel_j`` at every radius (``_conductor_point``).  An amplitude
    that cancelled to 0 resolves no conductor field, and reading it raises SolverError
    (``_amplitude``).

    ``condition_number`` is the wall closure's resonance number kappa (see
    ``_shell_green``); a truncated expansion reports its terms' largest.
    """

    kind: str
    order: int | None
    benchmark: CylinderBenchmark
    source: complex
    wall_amplitude: complex
    shell_inner: tuple[complex, complex]
    shell_outer: tuple[complex, complex]
    conductor_amplitude: complex | None
    condition_number: float
    residuals: dict[str, float]

    def u(self, r: float) -> complex:
        """u at r; in the conductor a Horner pass over its Taylor piece, or the value of one
        ``bessel_j`` outside the pieces, and at r_in the amplitude."""
        b = self.benchmark
        if self.conductor_amplitude is None or not 0 <= r <= b.r_in:
            return self._eval(r)[0]
        amplitude = self._amplitude()
        if r == b.r_in:
            return amplitude
        piece = self._piece(r)
        if piece is None:
            jv = bessel_j(abs(b.mode), b.k_minus * r)
            return _conductor_ratio(b, amplitude, jv.value, jv.exponent)
        lead, rest, centre, half, factor = piece
        x, p = (r - centre) / half, lead
        for c in rest:
            p = p * x + c
        return factor * p

    def u_prime(self, r: float) -> complex:
        return self._eval(r)[1]

    def _amplitude(self) -> complex:
        """The conductor amplitude u(r_in); SolverError where there is no conductor field to read."""
        amplitude = self.conductor_amplitude
        if amplitude is None:
            raise SolverError(f"{self.kind} solution has no conductor region")
        if amplitude == 0:
            raise SolverError(f"{self.kind} solution's conductor amplitude u(r_in) cancelled to 0: no conductor field")
        return amplitude

    @functools.cached_property
    def _pieces(self) -> dict[int, _Piece | None]:
        return {}

    def _piece(self, r: float) -> _Piece | None:
        """The Taylor piece of u that holds 0 < r < r_in, built by the piece's first sample
        (``_conductor_piece``); None where the sample reads ``bessel_j`` itself, and at r = 0
        and r_in, where u is J_m(0)'s ratio and the amplitude.

        Piece i spans r_in - 2(i+1)*half < r <= r_in - 2i*half, half = 1.5/|k_minus|.
        """
        b = self.benchmark
        if not 0 < r < b.r_in:
            return None
        half = _PIECE_HALF / abs(b.k_minus)
        i = int((b.r_in - r) / (2.0 * half))
        pieces = self._pieces
        try:
            return pieces[i]
        except KeyError:
            if len(pieces) >= _MAX_PIECES:
                pieces.clear()
            piece = pieces[i] = _conductor_piece(b, self.conductor_amplitude, b.r_in - (2 * i + 1) * half, half)
            return piece

    def _eval(self, r: float) -> tuple[complex, complex]:
        b = self.benchmark
        if not (0 <= r <= b.r_out * (1 + 1e-12)):
            raise ValueError(f"radius {r!r} outside [0, r_out]")
        if r < b.r_in:
            return _conductor_point(b, self._amplitude(), r)
        coeff = self.shell_inner if r <= b.r_source else self.shell_outer
        return _combine(coeff, b.shell_point(r))


def _conductor_ratio(b: CylinderBenchmark, amplitude: complex, value: complex, exponent: complex) -> complex:
    """amplitude*J/J_m(k_minus r_in) for one J = value*exp(exponent) of ``bessel_j`` at k_minus*r,
    which lies in the closed first quadrant, since Im alpha_minus > 0.

    A zero value is 0, whatever exp(-exponent of the normalisation) is; a ratio that leaves the
    float range is a SolverError naming it.
    """
    if value == 0:
        return 0j
    ref = b.conductor_ref
    try:
        ratio = amplitude * value / ref.value * cmath.exp(exponent - ref.exponent)
    except OverflowError:  # the scale exp(exponent - ref.exponent) does
        ratio = complex(math.inf)
    if not cmath.isfinite(ratio):
        raise SolverError(
            f"conductor field at k_minus*r: {amplitude!r} times J = {value!r}*exp({exponent!r}) over "
            f"J_m(k_minus r_in) = {ref.value!r}*exp({ref.exponent!r}) leaves the float range"
        )
    return ratio


class _Piece(NamedTuple):
    """One Taylor piece of the conductor field's value: u = factor*P(x) at x = (r - centre)/half,
    P = lead*x^n + ... with ``rest`` the lower coefficients, highest first."""

    lead: complex
    rest: tuple[complex, ...]
    centre: float
    half: float
    factor: complex


def _conductor_piece(b: CylinderBenchmark, amplitude: complex, centre: float, half: float) -> _Piece | None:
    """The Taylor piece of amplitude*J_m(k_minus r)/J_m(k_minus r_in) about ``centre`` for |r - centre| <= half.

    In t = k_minus*(r - centre) = h*x, h = k_minus*half (|h| = 1.5), the coefficients a_n*h^n come
    from J_m and J_{m-1} at z0 = k_minus*centre, the value and ``prev`` of one ``bessel_j`` on one
    exponent (J_{-1} = -J_1), by ``_taylor_terms`` at q = h/z0 = half/centre, to the first pair
    below _TAYLOR_RTOL of the largest.

    None, so that the piece's samples read ``bessel_j`` each, outside the domain where
    ``bessel_j`` reads J_m at z0 to its best accuracy and below the turning point, 2m <= |z0|:
    within the series disc with the whole piece (8 <= |z0| <= 10.5) or past the ring
    (|z0| >= 20).  On the ring 12 < |z| < 20, order 0's Hankel seeds have not settled (4e-11 at
    |z| = 12.01), and a piece would carry that to every order and radius it covers; below 8 a
    piece's error reached 14 times the series' (7e-15 against 5e-16 at m = 1, |z0| = 2,
    arg k_minus = 44.5 degrees; at most 4.6 times inside the domain).  None also where
    half < 2**-26 * r_in, past which the rounding of centre and r would move x by more than 2**-25
    (past |k_minus*r_in| ~ 1e16 a piece is narrower than a rounding step of r), where a
    coefficient is not finite, the factor is not a normal float, or the bound of u on the piece
    is not finite.  u' does not read the pieces (``_conductor_point``).
    """
    m, k = abs(b.mode), b.k_minus
    z0 = k * centre
    size = abs(z0)
    if 2 * m > size or not (_PIECE_MIN_Z <= size <= SERIES_RADIUS - _PIECE_HALF or size >= _FORWARD_MIN_RADIUS):
        return None
    if half < _PIECE_MIN_HALF * b.r_in:
        return None
    ref = b.conductor_ref
    _, _, a0, _, b0, e0 = bessel_j(m, z0)
    q = half / centre
    try:
        factor = amplitude / ref.value * cmath.exp(e0 - ref.exponent)
    except OverflowError:
        return None
    coefficients, peak = [a0], abs(a0) + abs(b0)
    for a, b_n in _taylor_terms(m, z0, q, a0, b0):
        a, b_n = q * a, q * b_n
        coefficients.append(a)
        term = abs(a) + abs(b_n)
        if term <= _TAYLOR_RTOL * peak:
            break
        peak = max(peak, term)
    else:
        return None
    # |factor| * sum |c_n| bounds |u| on the piece; nan where a coefficient is
    if not (_NORMAL_MIN <= abs(factor) and abs(factor) * sum(map(abs, coefficients)) < math.inf):
        return None
    lead, *rest = reversed(coefficients)
    return _Piece(lead, tuple(rest), centre, half, factor)


def _conductor_point(b: CylinderBenchmark, amplitude: complex, r: float) -> tuple[complex, complex]:
    """u and u' at r of the conductor field amplitude*J_m(k_minus r)/J_m(k_minus r_in).

    Both come from one ``bessel_j`` at k_minus*r, u' = k_minus*J_m' in the same ratio; at r_in
    from the normalisation itself.
    """
    jv = b.conductor_ref if r == b.r_in else bessel_j(abs(b.mode), b.k_minus * r)
    u = _conductor_ratio(b, amplitude, jv.value, jv.exponent)
    return u, _conductor_ratio(b, amplitude * b.k_minus, jv.derivative, jv.exponent)


def _check_residuals(kind: str, residuals: dict[str, float]) -> None:
    # all(), not max(): a NaN residual fails every comparison, so max() can keep a smaller value
    if not all(v <= RESIDUAL_TOL for v in residuals.values()):
        raise SolverError(f"{kind} solve violated its conditions: residuals {residuals}")


def _shell_green(
    kind: str, closure: _ShellClosure, gamma: complex, datum: complex, source: complex,
) -> tuple[complex, float]:
    """The wall amplitude t of the shell's Green's-function solution, and kappa.

    u' + gamma*u = datum at the wall, u' jumps by ``source`` at the ring, u' = 0 at the
    outer wall.  N = f2'(outer)*f1 - f1'(outer)*f2 meets u' = 0 at the outer wall and
    L = f2'(wall)*f1 - f1'(wall)*f2 at the wall, so (DLMF 10.5) the Neumann-wall field is
    c*L inside the ring and c'*N outside: c = source*N/W, c' = source*L/W at the ring,
    W = L*N' - L'*N.  Adding t*N, t = (datum - gamma*c*L)/(N' + gamma*N) at the wall, meets
    the wall condition; ``_shell_field`` forms the field from (source, t).  N, L and W
    depend on the basis alone and come from ``closure`` (``_shell_closure``), so this is
    the per-model update.  kappa, the larger of (|k*N| + |N'| + |g*N|)/|N' + g*N| at the
    wall over g = 0 and g = gamma, is the closures' relative sensitivity, infinite where
    a source-free problem solves.
    """
    n_wall, dn_wall = closure.n_wall, closure.dn_wall
    wall_n = dn_wall + gamma * n_wall
    if wall_n == 0:
        raise SolverError(f"{kind} solve is resonant: N' + gamma*N = {wall_n} at the wall")
    kappa = max(closure.size / abs(dn_wall), (closure.size + abs(gamma * n_wall)) / abs(wall_n))
    if kappa > _COND_WARN:
        warnings.warn(f"{kind} solve near-singular: resonance number {kappa:.3e}", stacklevel=3)
    return (datum - gamma * (source * closure.n_ring / closure.w) * closure.l_wall) / wall_n, kappa


def _shell_field(closure: _ShellClosure, source: complex, t: complex) -> tuple[_Coefficients, _Coefficients]:
    """Inner and outer coefficients over (f1, f2) of the Neumann-wall field of ``source`` plus t*N.

    Two models with one source differ by the field of (0, t_a - t_b): t*N alone.
    """
    n, el = closure.n, closure.el
    c, c_out = source * closure.n_ring / closure.w, source * closure.l_ring / closure.w
    return (c * el[0] + t * n[0], c * el[1] + t * n[1]), ((c_out + t) * n[0], (c_out + t) * n[1])


def _ldexp(z: complex, e: int) -> complex:
    """z * 2**e, exact unless it leaves the float range."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _scaled(z: complex) -> tuple[complex, int]:
    """z over the power of two 2**e just above |z|, and e: exact, so a norm of z is 2**e times that of the
    quotient, whose square neither overflows nor forms a subnormal."""
    e = math.frexp(abs(z))[1]
    return _ldexp(z, -e), e


def _rel(num: float, scale: float) -> float:
    return num / max(scale, 1e-300)


def _shell_residuals(
    closure: _ShellClosure, inner: _Coefficients, outer: _Coefficients,
    gamma: complex, datum: complex, source: complex,
) -> dict[str, float]:
    """Source-continuity, source-jump, outer-wall and wall residuals, each relative to its terms."""
    wall, ring, outer_wall = closure.wall, closure.ring, closure.outer
    u_in, du_in = _combine(inner, ring)
    u_out, du_out = _combine(outer, ring)
    _, du_outer = _combine(outer, outer_wall)
    u_wall, du_wall = _combine(inner, wall)
    # each scale sums the moduli of the terms it measures: coeff[0]*f1' and coeff[1]*f2' for u'
    jump_scale = (
        abs(inner[0] * ring[1]) + abs(inner[1] * ring[3])
        + (abs(outer[0] * ring[1]) + abs(outer[1] * ring[3]))
        + abs(source)
    )
    u_terms = abs(inner[0] * wall[0]) + abs(inner[1] * wall[2])
    wall_scale = abs(inner[0] * wall[1]) + abs(inner[1] * wall[3]) + abs(gamma) * u_terms + abs(datum)
    return {
        "source_u": _rel(abs(u_in - u_out), max(abs(u_in), abs(u_out))),
        "source_jump": _rel(abs((du_out - du_in) - source), jump_scale),
        "outer_flux": _rel(abs(du_outer), abs(outer[0] * outer_wall[1]) + abs(outer[1] * outer_wall[3])),
        "wall": _rel(abs(du_wall + gamma * u_wall - datum), wall_scale),
    }


def _solve_shell(
    kind: str,
    order: int | None,
    b: CylinderBenchmark,
    gamma: complex,
    datum: complex,
    source: complex,
    conductor: bool = False,
) -> ModalSolution:
    """Shell solve with the wall condition u'(r_in) + gamma*u(r_in) = datum.

    u is continuous and u' jumps by ``source`` at r_source, and u' = 0 at
    r_out: ``_shell_green`` over f1 = J_m(k_plus r), f2 = H1_m(k_plus r), on
    the benchmark's shell closure.  With ``conductor``, the solution carries
    the conductor field of amplitude u(r_in), and the interface residuals
    join the shell's, checked after them.
    """
    closure = b.shell_closure
    t, kappa = _shell_green(kind, closure, gamma, datum, source)
    inner, outer = _shell_field(closure, source, t)
    res = _shell_residuals(closure, inner, outer, gamma, datum, source)
    _check_residuals(kind, res)
    amplitude = None
    if conductor:
        amplitude = _combine(inner, closure.wall)[0]
        res = {**_interface_residuals(b, inner, *_conductor_point(b, amplitude, b.r_in)), **res}
        _check_residuals(kind, res)
    return ModalSolution(kind, order, b, source, t, inner, outer, amplitude, kappa, res)


def _interface_residuals(
    b: CylinderBenchmark, inner: _Coefficients, u_minus: complex, du_minus: complex
) -> dict[str, float]:
    """Continuity of u and of u'/mu at r_in, each relative to its terms.

    Both sides of the flux are built from the terms B*J_m and C*H1_m at r_in,
    which cancel in u and u' at small eps: the shell side through their
    derivatives, the conductor side through their values times
    k_minus*J_m'/J_m.  The net flux would measure that cancellation's round-off.
    """
    cfg, ref, wall = b.cfg, b.conductor_ref, b.shell_closure.wall
    u_plus, du_plus = _combine(inner, wall)
    u_terms = abs(inner[0] * wall[0]) + abs(inner[1] * wall[2])
    du_terms = abs(inner[0] * wall[1]) + abs(inner[1] * wall[3])
    log_derivative = abs(b.k_minus * ref.derivative / ref.value)
    flux_scale = du_terms / cfg.mu_plus + log_derivative * u_terms / cfg.mu_minus
    return {
        "interface_u": _rel(abs(u_minus - u_plus), max(abs(u_minus), abs(u_plus))),
        "interface_flux": _rel(abs(du_minus / cfg.mu_minus - du_plus / cfg.mu_plus), flux_scale),
    }


def solve_exact(b: CylinderBenchmark) -> ModalSolution:
    """Exact transmission solution: the shell solve with the conductor's own wall coefficient.

    The conductor amplitude A is u(r_in).  Beside the shell residuals, the
    interface residuals check continuity of u and u'/mu at r_in against the
    conductor field A*J_m(k_minus r)/J_m(k_minus r_in) itself.
    """
    return _solve_shell("exact", None, b, b.conductor_gamma, 0j, b.source_amplitude, conductor=True)


def solve_ibc(b: CylinderBenchmark, k: int) -> ModalSolution:
    """Impedance-reduced shell solve of order k in {0, 1, 2}."""
    gamma = robin_coefficient(k, b.wall_surface, b.cfg)
    return _solve_shell(f"ibc{k}", k, b, gamma, 0j, b.source_amplitude)


def _expansion_terms(b: CylinderBenchmark, order: int) -> list[ModalSolution]:
    """Expansion terms 0..order, each solved once, in one pass.

    Wall data in u'(r_in): 0 at order 0 (with the ring source), lam*u0(r_in)
    at order 1, lam*u1(r_in) - H*u0(r_in) at order 2.  lam does not depend on
    the permeability contrast, so the terms are contrast-independent.
    """
    if isinstance(order, bool) or not isinstance(order, int) or order not in (0, 1, 2):
        raise ValueError(f"expansion order must be 0, 1 or 2, got {order!r}")
    lam = b.params.lam
    curv = mean_curvature(b.wall_surface)
    terms = [_solve_shell("expansion", 0, b, 0j, 0j, b.source_amplitude)]
    if order >= 1:
        u0 = terms[0].u(b.r_in)
        terms.append(_solve_shell("expansion", 1, b, 0j, lam * u0, 0j))
    if order >= 2:
        u1 = terms[1].u(b.r_in)
        terms.append(_solve_shell("expansion", 2, b, 0j, lam * u1 - curv * u0, 0j))
    return terms


def truncated_expansion(b: CylinderBenchmark, order: int) -> ModalSolution:
    """Shell field of the eps-weighted sum of expansion terms up to ``order``.

    Only term 0 carries the ring source, so the sum is the field of that
    source plus t*N with t the eps-weighted sum of the terms' wall amplitudes.
    Its residuals are the worst value of each residual over the terms.
    """
    return _truncation(b, _expansion_terms(b, order))


def _truncation(b: CylinderBenchmark, terms: list[ModalSolution]) -> ModalSolution:
    """``truncated_expansion`` on b from terms solved on any benchmark of its shell (they do not depend on eps)."""
    eps = b.params.eps_small
    t = sum(eps**j * term.wall_amplitude for j, term in enumerate(terms))
    inner, outer = _shell_field(b.shell_closure, terms[0].source, t)
    kappa = max(term.condition_number for term in terms)
    res = {k: max(term.residuals[k] for term in terms) for k in terms[0].residuals}
    return ModalSolution("truncated", len(terms) - 1, b, terms[0].source, t, inner, outer, None, kappa, res)


@dataclass(frozen=True)
class ShellError:
    """Weighted-L2 field differences over the shell: electric, magnetic, their sum."""

    error_e: float
    error_h: float

    @property
    def total(self) -> float:
        return self.error_e + self.error_h


_SPLIT_MIN_IM = 1e-3  # the split form needs Im of N's split wall bracket at least this share of it (~1e-12)
_TAYLOR_RTOL, _TAYLOR_MAX_TERMS = 2.0**-60, 200  # Taylor sums stop at a term below 2**-60 of their largest
_ROUNDOFF = 64.0 * sys.float_info.epsilon  # a square at or below this share of its terms has no digit left


def _resolved(value: float, scale: float) -> float:
    """A squared norm, or nan where it is round-off of terms of total modulus ``scale``."""
    return value if value > _ROUNDOFF * scale else math.nan


def _shell_grams(b: CylinderBenchmark) -> tuple[float, float]:
    """Squared electric and magnetic shell norms of N, the field every model error is a multiple of.

    Lommel's integrals (DLMF 10.22(ii)) over the shell's ends: int r u conj(v) dr =
    [r (u' conj(v) - u conj(v'))] / (conj(k)^2 - k^2), and the magnetic form is
    [r u' conj(v)] + k^2 times that.  N is smooth across the ring and N' = 0 at r_out, so the wall
    bracket alone is left.  It is split by u' = k*U - (m/r)*u, U of order m-1 (DLMF 10.6.2): the
    real m|N|^2 drops before Im is taken.  Where that keeps too few digits the electric square
    is ``_taylor_gram``'s.  A square lost to round-off (|k*r| << 1) is nan.
    """
    cl, k, r_in = b.shell_closure, b.k_plus, b.r_in
    k2, n_bar = k * k, cl.n_wall.conjugate()
    w_nn = -r_in * cl.dn_wall * n_bar
    (j_low, h_low), n = cl.low, cl.n
    s_nn = -r_in * k * (n[0] * j_low + n[1] * h_low) * n_bar
    if abs(s_nn.imag) >= _SPLIT_MIN_IM * abs(s_nn):
        g_nn = _resolved(-s_nn.imag / k2.imag, abs(s_nn) / abs(k2.imag))
    else:
        g_nn = _taylor_gram(b)
    # the magnetic form: Re [r u' conj(u)] + Re(k^2) int r |u|^2 dr
    return g_nn, _resolved(w_nn.real + k2.real * g_nn, abs(w_nn.real) + abs(k2.real * g_nn))


def _taylor_terms(m: int, x0: complex, q: complex, a0: complex, b0: complex) -> Iterator[tuple[complex, complex]]:
    """a_n*h^n/q and b_n*h^n/q for n = 1, 2, ..., _TAYLOR_MAX_TERMS, h = q*x0, the Taylor coefficients at x0 of
    A = C_m and B = C_{m-1} of one combination C, A(x0) = a0, B(x0) = b0: x*A' = x*B - m*A and
    x*B' = (m-1)*B - x*A (DLMF 10.6.2) give x0(n+1) a_{n+1} = x0 b_n + b_{n-1} - (m+n) a_n and
    x0(n+1) b_{n+1} = (m-1-n) b_n - x0 a_n - a_{n-1}.
    """
    h = q * x0
    a, b = x0 * b0 - m * a0, (m - 1) * b0 - x0 * a0
    a1, b1 = x0 * a0, x0 * b0  # h times the previous pair, over q
    for n in range(1, _TAYLOR_MAX_TERMS + 1):
        yield a, b
        f = q / (n + 1)
        a, b, a1, b1 = f * (x0 * b + b1 - (m + n) * a), f * ((m - 1 - n) * b - x0 * a - a1), h * a, h * b


def _taylor_sums(m: int, x0: complex, q: complex, a0: complex, b0: complex) -> tuple[complex, complex, float]:
    """Sums over n >= 1 of ``_taylor_terms`` and of their moduli, to the first term below _TAYLOR_RTOL of the largest."""
    sum_a = sum_b = 0j
    total = peak = 0.0
    for a, b in _taylor_terms(m, x0, q, a0, b0):
        sum_a += a
        sum_b += b
        size = abs(a) + abs(b)
        total += size
        if size <= _TAYLOR_RTOL * peak:
            return sum_a, sum_b, total
        peak = max(peak, size)
    raise SolverError(f"shell norms at mode {m}: the Taylor-shifted Lommel series at k_plus*r = {x0!r} did not "
                      f"settle in {_TAYLOR_MAX_TERMS} terms (delta/k = {q!r})")


def _taylor_gram(b: CylinderBenchmark) -> float:
    """The electric square of ``_shell_grams`` from Taylor-shifted Lommel brackets.

    With (A, B) = (N_m, N_{m-1}) and (v0, v1) = (N_m, N_{m-1})(k r), H(kappa) =
    r*(kappa*B(kappa r)*conj(v0) - conj(k)*A(kappa r)*conj(v1)) has [H(conj k)] = 0 (a
    Wronskian), so int r |N|^2 dr = -[r (b0 conj(v0) + (conj(k)/k)(sum_b conj(v0) -
    sum_a conj(v1)))] / (2 Re k), the sums ``_taylor_sums``'s at q = (conj(k) - k)/k: no
    quotient by the loss.  N is smooth across the ring, so the brackets are at r_in and r_out;
    at r_out N' = 0 gives N_{m-1} = (m/(k r_out)) N_m.
    """
    cl, k, m = b.shell_closure, b.k_plus, abs(b.mode)
    n, (j_wall, h_wall) = cl.n, cl.low
    n_out = n[0] * cl.outer[0] + n[1] * cl.outer[2]
    ends = (  # (r, sign, N, N_{m-1}) at the shell's two ends
        (b.r_in, -1.0, cl.n_wall, n[0] * j_wall + n[1] * h_wall),
        (b.r_out, 1.0, n_out, m / (k * b.r_out) * n_out),
    )
    q, ratio = (k.conjugate() - k) / k, k.conjugate() / k
    g, size = 0j, 0.0
    for r, sign, a0, b0 in ends:
        sum_a, sum_b, total = _taylor_sums(m, k * r, q, a0, b0)
        v0, v1 = a0.conjugate(), b0.conjugate()
        g += sign * r * (b0 * v0 + ratio * (sum_b * v0 - sum_a * v1))
        size += r * (abs(b0 * v0) + total * (abs(v0) + abs(v1)))
    scale = -0.5 / k.real
    return _resolved(scale * g.real, -scale * size)


def _shell_squares(b: CylinderBenchmark, t: complex) -> tuple[float, float]:
    """Squared electric and magnetic shell norms of t*N: |t|^2 times ``_shell_grams``'s."""
    t_sq = abs(t) ** 2
    return t_sq * b.shell_grams[0], t_sq * b.shell_grams[1]


def _shell_difference(a: ModalSolution, b: ModalSolution) -> tuple[CylinderBenchmark, complex]:
    """The shared benchmark and the wall amplitude Delta t of a - b, whose field is Delta t * N.

    Two solutions compare when they live on the same shell closure and carry the same ring
    source; then the Neumann part cancels exactly.
    """
    closure = a.benchmark.shell_closure
    other = b.benchmark.shell_closure
    if other is not closure and other != closure:
        raise SolverError("solutions live on different benchmarks; cannot compare")
    if a.source != b.source:
        raise SolverError(f"solutions carry different ring sources {a.source!r} and {b.source!r}; cannot compare")
    return a.benchmark, a.wall_amplitude - b.wall_amplitude


def _norm_root(what: str, square: float, e: int, unit: float = 1.0) -> float:
    """2**e times the root of a squared norm, over ``unit``; SolverError naming the norm where round-off
    left no finite square >= 0, or where the norm leaves the float range."""
    if not 0.0 <= square < math.inf:
        raise SolverError(f"{what}: squared norm {square!r} is not a finite non-negative number")
    try:
        norm = math.ldexp(math.sqrt(square), e) / unit
    except OverflowError:
        norm = math.inf
    if norm == math.inf:
        raise SolverError(f"{what}: the root of squared norm {square!r} times 2**{e} over {unit!r} overflows")
    return norm


def _shell_error(b: CylinderBenchmark, e_sq: float, h_sq: float, e: int = 0) -> ShellError:
    """The shell norms of squares ``e_sq`` and ``h_sq`` taken of a field divided by 2**e."""
    return ShellError(
        error_e=_norm_root("electric shell error", e_sq, e),
        error_h=_norm_root("magnetic shell error", h_sq, e, b.cfg.omega * b.cfg.mu_plus),
    )


def shell_l2_error(a: ModalSolution, b: ModalSolution) -> ShellError:
    """Shell L2 norms of the field difference, electric and magnetic (u' and (m/r)*u over omega*mu_plus).

    Two models of one ring source differ by Delta t * N (``_shell_difference``), so no large
    coefficient cancels, and both norms are |Delta t| times N's (``_shell_squares``), taken of
    Delta t over a power of two (``_scaled``).
    """
    bench, t = _shell_difference(a, b)
    t, e = _scaled(t)
    return _shell_error(bench, *_shell_squares(bench, t), e)


def conductor_l2_norm(sol: ModalSolution) -> float:
    """L2 norm of the conductor field, sqrt(int_0^r_in r|u|^2 dr), from its interface trace.

    u is regular at the origin and solves Bessel's equation with k_minus, so
    Green's identity gives int_0^r_in r|u|^2 dr = -Im(r_in u' conj(u)) / Im(k_minus^2)
    at r = r_in.  Im(k_minus^2)/|k_minus^2| is fixed by the conductor's loss
    (about 0.71 at the default configuration), so the form keeps its digits.
    """
    amplitude, e = _scaled(sol._amplitude())
    b = sol.benchmark
    km = b.k_minus
    # u(r_in) is the amplitude itself; u'/u is -(mu_minus/mu_plus)*gamma on the conductor side
    log_der = -(b.cfg.mu_minus / b.cfg.mu_plus) * b.conductor_gamma
    flux = b.r_in * abs(amplitude) ** 2 * log_der
    return _norm_root("conductor norm", -flux.imag / (km * km).imag, e)


@dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares power fit of error against a model parameter, in log-log."""

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    r_squared: float
    local_slopes: tuple[float, ...]

    @property
    def conclusive(self) -> bool:
        return self.r_squared >= 0.98


def fit_convergence(points: list[tuple[float, float]]) -> ConvergenceFit:
    """Fit log(error) = slope*log(x) + intercept; needs >= 4 points over >= 2 decades.

    The least-squares line in closed form: with the means of lx = log(x) and
    ly = log(error), slope = Sxy/Sxx and intercept = mean(ly) - slope*mean(lx),
    where Sxx and Sxy are the centred sums of squares and products.
    """
    if len(points) < 4:
        raise ValueError(f"need at least 4 points for a rate fit, got {len(points)}")
    for x, y in points:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"rate fit points must be finite, got {(x, y)!r}")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("rate fits need strictly positive abscissae and errors")
    if max(xs) / min(xs) < 99.9:
        raise ValueError("rate fit abscissae must span at least two decades")
    if len(set(xs)) != len(xs):
        raise ValueError("rate fit abscissae must be distinct")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    sxx = sum((a - mean_x) ** 2 for a in lx)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((b - (slope * a + intercept)) ** 2 for a, b in zip(lx, ly))
    ss_tot = sum((b - mean_y) ** 2 for b in ly)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    ordered = sorted(zip(lx, ly))
    local = tuple((b1 - b0) / (a1 - a0) for (a0, b0), (a1, b1) in zip(ordered, ordered[1:]))
    return ConvergenceFit(
        points=tuple(sorted(points)),
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        local_slopes=local,
    )


def convergence_study(
    b0: CylinderBenchmark, family: str, order: int, eps_list: list[float]
) -> ConvergenceFit:
    """Error-vs-eps rate fit for one reduced-model family on one mode.

    family "ibc" compares the impedance model of the given order against the
    exact solution; family "expansion" compares the truncated expansion.  The
    fit is per mode; errors must decrease monotonically with eps or the sweep
    is rejected with a diagnostic.
    """
    if len(eps_list) < 5:
        raise ValueError("eps sweep needs at least 5 points")
    eps_sorted = sorted(float(e) for e in eps_list)
    if eps_sorted[0] <= 0 or eps_sorted[-1] >= 1:
        raise ValueError("eps values must lie in (0, 1)")
    points = [(eps, err.total) for eps, err in model_errors(b0, family, order, eps_sorted)]
    require_decreasing_errors(points, f"{family} order {order}")
    return fit_convergence(points)


def model_errors(
    b0: CylinderBenchmark, family: str, order: int, eps_values: list[float]
) -> list[tuple[float, ShellError]]:
    """(eps, shell error of the model against the exact solution) at each eps in turn.

    family "ibc" takes the impedance model of the given order, "expansion" the truncated expansion,
    whose terms are solved once for the whole sweep.
    """
    if family not in ("ibc", "expansion"):
        raise ValueError(f"unknown study family {family!r}")
    terms = None
    out = []
    bench = b0
    for eps in eps_values:
        # from the previous point: the shell closure, derived by the first point's exact solve, and
        # N's squared norms, derived by its shell_l2_error, are handed on
        bench = bench.with_eps(eps)
        exact = solve_exact(bench)
        if family == "expansion":  # the terms do not depend on eps: solved once, on the first point
            terms = terms or _expansion_terms(bench, order)
        model = solve_ibc(bench, order) if terms is None else _truncation(bench, terms)
        out.append((eps, shell_l2_error(exact, model)))
    return out


def require_decreasing_errors(points: list[tuple[float, float]], label: str) -> None:
    """Reject a sweep whose error fails to shrink as the parameter shrinks."""
    for (_, err0), (_, err1) in zip(points, points[1:]):
        if err1 <= err0:
            table = ", ".join(f"eps={e:.3e}: err={v:.6e}" for e, v in points)
            raise ConvergenceError(f"errors do not decrease with eps for {label}: {table}")

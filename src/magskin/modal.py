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
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

from .bessel import BesselEval, bessel_h1, bessel_j
from .geometry import Surface, mean_curvature
from .ibc import robin_coefficient
from .params import DerivedParams, PhysicalConfig, derive_params

RESIDUAL_TOL = 1e-10
_COND_WARN = 1e12


class SolverError(RuntimeError):
    """A solve violated its defining conditions or its inputs are inconsistent."""


class ConvergenceError(RuntimeError):
    """An error sweep did not decrease with the model parameter."""


def default_config(eps: float = 0.1) -> PhysicalConfig:
    """Unit-frequency configuration with delta_minus = 1, delta_plus = 10."""
    return PhysicalConfig(
        omega=1.0,
        eps0=1.0,
        mu_plus=1.0,
        mu_minus=1.0 / eps**2,
        sigma_plus=0.01,
        sigma_minus=1.0,
    )


_Coefficients = tuple[complex, complex]
_Point = tuple[complex, complex, complex, complex]  # f1, f1', f2, f2' at one point


def _eval_pair(m: int, z: complex) -> tuple[BesselEval, BesselEval]:
    return bessel_j(m, z), bessel_h1(m, z)


def _shell_point(m: int, k: complex, r: float) -> _Point:
    """(J_m, k*J_m', H1_m, k*H1_m') of k*r: the shell basis and its r-derivatives at r."""
    jv, hv = _eval_pair(m, k * r)
    return jv.actual, k * jv.actual_derivative, hv.actual, k * hv.actual_derivative


def _combine(coeff: _Coefficients, at: _Point) -> tuple[complex, complex]:
    """u and u' of coeff[0]*f1 + coeff[1]*f2 at one point."""
    f1, d1, f2, d2 = at
    return coeff[0] * f1 + coeff[1] * f2, coeff[0] * d1 + coeff[1] * d2


class ShellBasis(NamedTuple):
    """(J_m, k_plus*J_m', H1_m, k_plus*H1_m') at the shell's inner wall, source ring and outer wall."""

    inner: _Point
    source: _Point
    outer: _Point


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
        if abs(self.mode) > 200:
            raise ValueError(f"|mode| must be <= 200, got {self.mode}")

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
    def shell_basis(self) -> ShellBasis:
        """The shell basis points at r_in, r_source and r_out, evaluated once per instance.

        Every solve, residual check, point evaluation at those radii and
        closed-form shell norm on this benchmark reads these values.
        """
        m, kp = abs(self.mode), self.k_plus
        return ShellBasis(*(_shell_point(m, kp, r) for r in (self.r_in, self.r_source, self.r_out)))

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
        """The shell basis point at r; read from the shell basis at its three radii."""
        if r == self.r_in:
            return self.shell_basis.inner
        if r == self.r_source:
            return self.shell_basis.source
        if r == self.r_out:
            return self.shell_basis.outer
        return _shell_point(abs(self.mode), self.k_plus, r)

    def with_eps(self, eps: float) -> "CylinderBenchmark":
        """Same benchmark with mu_minus = mu_plus/eps^2; everything else fixed.

        k_plus does not depend on mu_minus, so a shell basis this instance has
        already evaluated serves the copy too; none is evaluated for it.
        """
        if not (0.0 < eps):
            raise ValueError("eps must be positive")
        other = replace(self, cfg=self.cfg.with_mu_minus(self.cfg.mu_plus / eps**2))
        if "shell_basis" in vars(self):
            vars(other)["shell_basis"] = self.shell_basis
        return other


def default_benchmark(mode: int = 0, eps: float = 0.1) -> CylinderBenchmark:
    return CylinderBenchmark(
        r_in=1.0, r_out=2.0, r_source=1.5, mode=mode, cfg=default_config(eps)
    )


@dataclass(frozen=True)
class ModalSolution:
    """Per-mode radial solution; coefficients over the region bases.

    Shell: u = B*J_m(k_plus r) + C*H1_m(k_plus r) inside the source ring,
    D, E outside it; every model solves for these four.  Conductor (exact
    solution only): u = A*J_m(k_minus r)/J_m(k_minus R_in) with A = u(R_in),
    evaluated through scaled Bessel ratios so deep evaluation never overflows.

    ``condition_number`` is the wall closure's resonance number kappa (see
    ``_shell_green``); a truncated expansion reports its terms' largest.
    """

    kind: str
    order: int | None
    benchmark: CylinderBenchmark
    shell_inner: tuple[complex, complex]
    shell_outer: tuple[complex, complex]
    conductor_amplitude: complex | None
    condition_number: float
    residuals: dict[str, float]

    @property
    def mode_abs(self) -> int:
        return abs(self.benchmark.mode)

    def u(self, r: float) -> complex:
        """u at r; in the conductor the value of ``_eval(r)`` alone, without its derivative."""
        b = self.benchmark
        if self.conductor_amplitude is None or not 0 <= r < b.r_in:
            return self._eval(r)[0]
        ref = b.conductor_ref
        jv = bessel_j(self.mode_abs, b.k_minus * r)
        return self.conductor_amplitude * jv.value / ref.value * cmath.exp(jv.exponent - ref.exponent)

    def u_prime(self, r: float) -> complex:
        return self._eval(r)[1]

    def _eval_conductor(self, r: float) -> tuple[complex, complex]:
        if self.conductor_amplitude is None:
            raise SolverError(f"{self.kind} solution has no conductor region")
        b = self.benchmark
        k = b.k_minus
        ref = b.conductor_ref
        jv = ref if r == b.r_in else bessel_j(self.mode_abs, k * r)
        f = cmath.exp(jv.exponent - ref.exponent)
        val = self.conductor_amplitude * jv.value / ref.value * f
        der = self.conductor_amplitude * k * jv.derivative / ref.value * f
        return val, der

    def _eval(self, r: float) -> tuple[complex, complex]:
        b = self.benchmark
        if not (0 <= r <= b.r_out * (1 + 1e-12)):
            raise ValueError(f"radius {r!r} outside [0, r_out]")
        if r < b.r_in:
            return self._eval_conductor(r)
        coeff = self.shell_inner if r <= b.r_source else self.shell_outer
        return _combine(coeff, b.shell_point(r))


def _check_residuals(kind: str, residuals: dict[str, float]) -> None:
    # all(), not max(): a NaN residual fails every comparison, so max() can keep a smaller value
    if not all(v <= RESIDUAL_TOL for v in residuals.values()):
        raise SolverError(f"{kind} solve violated its conditions: residuals {residuals}")


def _shell_green(
    kind: str, wall: _Point, ring: _Point, outer: _Point,
    k: complex, gamma: complex, datum: complex, source: complex,
) -> tuple[_Coefficients, _Coefficients, float]:
    """Inner and outer coefficients over (f1, f2) from the shell's Green's function, and kappa.

    u' + gamma*u = datum at the wall, u' jumps by ``source`` at the ring, u' = 0 at the
    outer wall.  N = f2'(outer)*f1 - f1'(outer)*f2 meets u' = 0 at the outer wall and
    L = f2'(wall)*f1 - f1'(wall)*f2 at the wall, so (DLMF 10.5) the Neumann-wall field is
    c*L inside the ring and c'*N outside: c = source*N/W, c' = source*L/W at the ring,
    W = L*N' - L'*N.  Adding t*N, t = (datum - gamma*c*L)/(N' + gamma*N) at the wall, meets
    the wall condition.  The Neumann part is the same bits for every gamma, so two models
    on one benchmark differ by t*N alone, free of its round-off.  kappa, the larger of
    (|k*N| + |N'| + |g*N|)/|N' + g*N| at the wall over g = 0 and g = gamma, is the closures'
    relative sensitivity, infinite where a source-free problem solves.
    """
    if not all(cmath.isfinite(v) for v in (*wall, *ring, *outer)):
        raise SolverError(f"{kind} shell basis not finite: wall {wall}, ring {ring}, outer {outer}")
    n, el = (outer[3], -outer[1]), (wall[3], -wall[1])
    n_wall, dn_wall = _combine(n, wall)
    n_ring, dn_ring = _combine(n, ring)
    l_ring, dl_ring = _combine(el, ring)
    w = l_ring * dn_ring - dl_ring * n_ring
    wall_n = dn_wall + gamma * n_wall
    if wall_n == 0 or w == 0:
        raise SolverError(f"{kind} solve is resonant: N' + gamma*N = {wall_n} at the wall, W = {w}")
    size = abs(k * n_wall) + abs(dn_wall)
    kappa = max(size / abs(dn_wall), (size + abs(gamma * n_wall)) / abs(wall_n))
    if kappa > _COND_WARN:
        warnings.warn(f"{kind} solve near-singular: resonance number {kappa:.3e}", stacklevel=3)
    c, c_out = source * n_ring / w, source * l_ring / w
    t = (datum - gamma * c * _combine(el, wall)[0]) / wall_n
    inner = (c * el[0] + t * n[0], c * el[1] + t * n[1])
    return inner, ((c_out + t) * n[0], (c_out + t) * n[1]), kappa


def _rel(num: float, scale: float) -> float:
    return num / max(scale, 1e-300)


def _shell_residuals(
    points: tuple[_Point, _Point, _Point], inner: _Coefficients, outer: _Coefficients,
    gamma: complex, datum: complex, source: complex,
) -> dict[str, float]:
    """Source-continuity, source-jump, outer-wall and wall residuals, each relative to its terms."""
    wall, ring, outer_wall = points
    u_in, du_in = _combine(inner, ring)
    u_out, du_out = _combine(outer, ring)
    _, du_outer = _combine(outer, outer_wall)
    u_wall, du_wall = _combine(inner, wall)

    def du_terms(coeff: _Coefficients, at: _Point) -> float:
        return abs(coeff[0] * at[1]) + abs(coeff[1] * at[3])

    jump_scale = du_terms(inner, ring) + du_terms(outer, ring) + abs(source)
    u_terms = abs(inner[0] * wall[0]) + abs(inner[1] * wall[2])
    wall_scale = du_terms(inner, wall) + abs(gamma) * u_terms + abs(datum)
    return {
        "source_u": _rel(abs(u_in - u_out), max(abs(u_in), abs(u_out))),
        "source_jump": _rel(abs((du_out - du_in) - source), jump_scale),
        "outer_flux": _rel(abs(du_outer), du_terms(outer, outer_wall)),
        "wall": _rel(abs(du_wall + gamma * u_wall - datum), wall_scale),
    }


def _solve_shell(
    kind: str,
    order: int | None,
    b: CylinderBenchmark,
    gamma: complex,
    datum: complex,
    source: complex,
) -> ModalSolution:
    """Shell solve over [B, C, D, E] with the wall condition u'(r_in) + gamma*u(r_in) = datum.

    u is continuous and u' jumps by ``source`` at r_source, and u' = 0 at
    r_out: ``_shell_green`` over f1 = J_m(k_plus r), f2 = H1_m(k_plus r).
    """
    points = b.shell_basis
    inner, outer, kappa = _shell_green(kind, *points, b.k_plus, gamma, datum, source)
    res = _shell_residuals(points, inner, outer, gamma, datum, source)
    _check_residuals(kind, res)
    return ModalSolution(
        kind=kind,
        order=order,
        benchmark=b,
        shell_inner=inner,
        shell_outer=outer,
        conductor_amplitude=None,
        condition_number=kappa,
        residuals=res,
    )


def _interface_residuals(
    b: CylinderBenchmark, inner: _Coefficients, u_minus: complex, du_minus: complex
) -> dict[str, float]:
    """Continuity of u and of u'/mu at r_in, each relative to its terms.

    Both sides of the flux are built from the terms B*J_m and C*H1_m at r_in,
    which cancel in u and u' at small eps: the shell side through their
    derivatives, the conductor side through their values times
    k_minus*J_m'/J_m.  The net flux would measure that cancellation's round-off.
    """
    cfg, ref = b.cfg, b.conductor_ref
    wall = b.shell_basis.inner
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
    sol = _solve_shell("exact", None, b, b.conductor_gamma, 0j, b.source_amplitude)
    sol = replace(sol, conductor_amplitude=sol.u(b.r_in))
    interface = _interface_residuals(b, sol.shell_inner, *sol._eval_conductor(b.r_in))
    sol = replace(sol, residuals={**interface, **sol.residuals})
    _check_residuals(sol.kind, sol.residuals)
    return sol


def solve_ibc(b: CylinderBenchmark, k: int) -> ModalSolution:
    """Impedance-reduced shell solve of order k in {0, 1, 2}."""
    gamma = robin_coefficient(k, b.mode, Surface.cylinder(b.r_in), b.cfg).gamma
    return _solve_shell(f"ibc{k}", k, b, gamma, 0j, b.source_amplitude)


def solve_ibc_with_gamma(b: CylinderBenchmark, gamma: complex) -> ModalSolution:
    """Shell solve with an explicitly prescribed Robin coefficient."""
    return _solve_shell("ibc-custom", None, b, gamma, 0j, b.source_amplitude)


def _expansion_terms(b: CylinderBenchmark, order: int) -> list[ModalSolution]:
    """Expansion terms 0..order, each solved once, in one pass.

    Wall data in u'(r_in): 0 at order 0 (with the ring source), lam*u0(r_in)
    at order 1, lam*u1(r_in) - H*u0(r_in) at order 2.  lam does not depend on
    the permeability contrast, so the terms are contrast-independent.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"expansion order must be 0, 1 or 2, got {order!r}")
    lam = b.params.lam
    curv = mean_curvature(Surface.cylinder(b.r_in))
    terms = [_solve_shell("expansion", 0, b, 0j, 0j, b.source_amplitude)]
    if order >= 1:
        u0 = terms[0].u(b.r_in)
        terms.append(_solve_shell("expansion", 1, b, 0j, lam * u0, 0j))
    if order >= 2:
        u1 = terms[1].u(b.r_in)
        terms.append(_solve_shell("expansion", 2, b, 0j, lam * u1 - curv * u0, 0j))
    return terms


def solve_expansion_term(b: CylinderBenchmark, j: int) -> ModalSolution:
    """Order-j expansion term; terms below j are solved first for their traces."""
    return _expansion_terms(b, j)[j]


def truncated_expansion(b: CylinderBenchmark, order: int) -> ModalSolution:
    """Shell field of the eps-weighted sum of expansion terms up to ``order``.

    Its residuals are the worst value of each residual over the terms.
    """
    eps = b.params.eps_small
    terms = _expansion_terms(b, order)
    bi = sum(eps**j * t.shell_inner[0] for j, t in enumerate(terms))
    ci = sum(eps**j * t.shell_inner[1] for j, t in enumerate(terms))
    do = sum(eps**j * t.shell_outer[0] for j, t in enumerate(terms))
    eo = sum(eps**j * t.shell_outer[1] for j, t in enumerate(terms))
    return ModalSolution(
        kind="truncated",
        order=order,
        benchmark=b,
        shell_inner=(bi, ci),
        shell_outer=(do, eo),
        conductor_amplitude=None,
        condition_number=max(t.condition_number for t in terms),
        residuals={k: max(t.residuals[k] for t in terms) for k in terms[0].residuals},
    )


# Panel-doubled quadrature stops when two refinements agree to this relative tolerance.
_QUADRATURE_RTOL = 1e-12


@functools.cache
def _gl_rule() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the 48-point Gauss-Legendre rule on [-1, 1]."""
    # The only numpy use in magskin: imported here, so that only the low-loss
    # quadrature fallback (which no default configuration reaches) loads it.
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(48)
    return tuple(x.tolist()), tuple(w.tolist())


def _panel_integrals(fn, a: float, b: float) -> list[float]:
    """The 48-point Gauss rule on [a, b] for each density fn(r) returns, one fn call per node."""
    x, w = _gl_rule()
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    values = [fn(half * xi + mid) for xi in x]
    return [half * math.fsum(wi * v[i] for wi, v in zip(w, values)) for i in range(len(values[0]))]


def _composite_integral(fn, a: float, b: float, max_panels: int = 64) -> list[float]:
    """Panel-doubling composite Gauss rule for the densities fn(r) returns, until two refinements agree.

    fn(r) returns a tuple of densities, integrated together: every level calls
    fn once per node, and the panels double until each density's last two
    estimates agree.  Raises SolverError when ``max_panels`` panels are
    reached without agreement.
    """
    prev = None
    panels = 1
    while True:
        step = (b - a) / panels
        edges = [a + i * step for i in range(panels)] + [b]
        parts = [_panel_integrals(fn, edges[i], edges[i + 1]) for i in range(panels)]
        vals = [sum(col) for col in zip(*parts)]
        if prev is not None and all(
            abs(val - old) <= _QUADRATURE_RTOL * max(abs(val), 1e-300) for val, old in zip(vals, prev)
        ):
            return vals
        if panels >= max_panels:
            raise SolverError(
                f"quadrature on [{a}, {b}] did not reach rtol {_QUADRATURE_RTOL:.1e} in {panels} "
                f"panels: last estimates {prev} and {vals}"
            )
        prev = vals
        panels *= 2


@dataclass(frozen=True)
class ShellError:
    """Weighted-L2 field differences over the shell: electric, magnetic, their sum."""

    error_e: float
    error_h: float

    @property
    def total(self) -> float:
        return self.error_e + self.error_h


# The endpoint (Lommel) forms of the shell norms divide by Im(k_plus^2); below
# this value of Im(k_plus^2)/|k_plus^2| they cancel too many digits, and the
# shell norms are integrated by quadrature instead.
_LOMMEL_MIN_LOSS = 1e-3


def _shell_squares_lommel(
    b: CylinderBenchmark, inner: _Coefficients, outer: _Coefficients
) -> tuple[float, float]:
    """Squared electric and magnetic shell norms of u from its values at the piece ends.

    On each piece u = B*J_m(k r) + C*H1_m(k r) solves (r u')' = (m^2/r - k^2 r) u,
    so Green's identity (Lommel's integrals, DLMF 10.22(ii)) gives, with
    W = [r u' conj(u)] taken between the piece's ends,

        int r|u|^2 dr = -Im(W) / Im(k^2),
        int r(|u'|^2 + m^2|u|^2/r^2) dr = Re(W) + Re(k^2) * int r|u|^2 dr.
    """
    k2 = b.k_plus * b.k_plus

    def flux(coeff: _Coefficients, r: float, at: _Point) -> complex:
        u, du = _combine(coeff, at)
        return r * du * u.conjugate()

    at_in, at_s, at_out = b.shell_basis
    e_sq = h_sq = 0.0
    for coeff, lo, hi, at_lo, at_hi in (
        (inner, b.r_in, b.r_source, at_in, at_s),
        (outer, b.r_source, b.r_out, at_s, at_out),
    ):
        w = flux(coeff, hi, at_hi) - flux(coeff, lo, at_lo)
        e_piece = -w.imag / k2.imag
        e_sq += e_piece
        h_sq += w.real + k2.real * e_piece
    return e_sq, h_sq


def _shell_squares_quadrature(
    b: CylinderBenchmark, inner: _Coefficients, outer: _Coefficients
) -> tuple[float, float]:
    """Squared electric and magnetic shell norms by panel-doubled Gauss quadrature."""
    m = abs(b.mode)
    kp = b.k_plus

    def piece(coeff: _Coefficients, lo: float, hi: float) -> list[float]:
        def densities(r: float) -> tuple[float, float]:
            u, du = _combine(coeff, _shell_point(m, kp, r))
            u_sq = abs(u) ** 2
            return u_sq * r, (abs(du) ** 2 + (m / r) ** 2 * u_sq) * r

        return _composite_integral(densities, lo, hi)

    e_in, h_in = piece(inner, b.r_in, b.r_source)
    e_out, h_out = piece(outer, b.r_source, b.r_out)
    return e_in + e_out, h_in + h_out


def _shell_squares(
    b: CylinderBenchmark, inner: _Coefficients, outer: _Coefficients
) -> tuple[float, float]:
    """Squared shell norms; closed form unless Im(k_plus^2) is too small for it."""
    k2 = b.k_plus * b.k_plus
    if abs(k2.imag) < _LOMMEL_MIN_LOSS * abs(k2):
        return _shell_squares_quadrature(b, inner, outer)
    return _shell_squares_lommel(b, inner, outer)


def _shell_difference(
    a: ModalSolution, b: ModalSolution
) -> tuple[CylinderBenchmark, _Coefficients, _Coefficients]:
    """The shared benchmark and the shell coefficient differences a - b per piece."""
    ba, bb = a.benchmark, b.benchmark
    same = (
        ba.r_in == bb.r_in
        and ba.r_out == bb.r_out
        and ba.r_source == bb.r_source
        and abs(ba.mode) == abs(bb.mode)
        and abs(ba.k_plus - bb.k_plus) <= 1e-12 * abs(ba.k_plus)
    )
    if not same:
        raise SolverError("solutions live on different benchmarks; cannot compare")
    inner = (a.shell_inner[0] - b.shell_inner[0], a.shell_inner[1] - b.shell_inner[1])
    outer = (a.shell_outer[0] - b.shell_outer[0], a.shell_outer[1] - b.shell_outer[1])
    return ba, inner, outer


def _shell_error(b: CylinderBenchmark, e_sq: float, h_sq: float) -> ShellError:
    return ShellError(
        error_e=math.sqrt(e_sq),
        error_h=math.sqrt(h_sq) / (b.cfg.omega * b.cfg.mu_plus),
    )


def shell_l2_error(a: ModalSolution, b: ModalSolution) -> ShellError:
    """Shell L2 norms of the field difference, split at the source ring.

    Uses coefficient differences over the shared radial basis, so the result
    is accurate even when the two solutions agree to many digits.  The
    magnetic part combines the azimuthal u'-component with the radial
    (m/r)*u component, both divided by omega*mu_plus.  Both norms come in
    closed form from the difference's values at r_in, r_source and r_out
    (Lommel's integrals); when Im(k_plus^2)/|k_plus^2| < 1e-3 that form
    cancels too many digits and panel-doubled Gauss quadrature is used.
    """
    bench, inner, outer = _shell_difference(a, b)
    return _shell_error(bench, *_shell_squares(bench, inner, outer))


def _shell_l2_error_quadrature(a: ModalSolution, b: ModalSolution) -> ShellError:
    """shell_l2_error by quadrature alone: the low-loss fallback's path and the test oracle."""
    bench, inner, outer = _shell_difference(a, b)
    return _shell_error(bench, *_shell_squares_quadrature(bench, inner, outer))


def shell_l2_norm(sol: ModalSolution) -> float:
    """Weighted-L2 norm of the solution's own electric field over the shell."""
    return math.sqrt(_shell_squares(sol.benchmark, sol.shell_inner, sol.shell_outer)[0])


def conductor_l2_norm(sol: ModalSolution) -> float:
    """L2 norm of the conductor field, sqrt(int_0^r_in r|u|^2 dr), from its interface trace.

    u is regular at the origin and solves Bessel's equation with k_minus, so
    Green's identity gives int_0^r_in r|u|^2 dr = -Im(r_in u' conj(u)) / Im(k_minus^2)
    at r = r_in.  Im(k_minus^2)/|k_minus^2| is fixed by the conductor's loss
    (about 0.71 at the default configuration), so the form keeps its digits.
    """
    if sol.conductor_amplitude is None:
        raise SolverError(f"{sol.kind} solution has no conductor region")
    b = sol.benchmark
    km = b.k_minus
    # u(r_in) is the amplitude itself; u'/u is -(mu_minus/mu_plus)*gamma on the conductor side
    log_der = -(b.cfg.mu_minus / b.cfg.mu_plus) * b.conductor_gamma
    flux = b.r_in * abs(sol.conductor_amplitude) ** 2 * log_der
    return math.sqrt(-flux.imag / (km * km).imag)


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
    if family not in ("ibc", "expansion"):
        raise ValueError(f"unknown study family {family!r}")
    if len(eps_list) < 5:
        raise ValueError("eps sweep needs at least 5 points")
    eps_sorted = sorted(float(e) for e in eps_list)
    if eps_sorted[0] <= 0 or eps_sorted[-1] >= 1:
        raise ValueError("eps values must lie in (0, 1)")
    b0.shell_basis  # evaluated once, handed to every eps point by with_eps
    points = []
    for eps in eps_sorted:
        bench = b0.with_eps(eps)
        exact = solve_exact(bench)
        model = solve_ibc(bench, order) if family == "ibc" else truncated_expansion(bench, order)
        points.append((eps, shell_l2_error(exact, model).total))
    require_decreasing_errors(points, f"{family} order {order}")
    return fit_convergence(points)


def require_decreasing_errors(points: list[tuple[float, float]], label: str) -> None:
    """Reject a sweep whose error fails to shrink as the parameter shrinks."""
    for (_, err0), (_, err1) in zip(points, points[1:]):
        if err1 <= err0:
            table = ", ".join(f"eps={e:.3e}: err={v:.6e}" for e, v in points)
            raise ConvergenceError(f"errors do not decrease with eps for {label}: {table}")


@dataclass(frozen=True)
class PlaneBenchmark:
    """Flat-interface analogue: conductor x < 0, shell 0 < x < thickness."""

    thickness: float
    x_source: float
    cfg: PhysicalConfig
    source_amplitude: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        if not (0.0 < self.x_source < self.thickness):
            raise ValueError("need 0 < x_source < thickness")

    @functools.cached_property
    def params(self) -> DerivedParams:
        return derive_params(self.cfg)


@dataclass(frozen=True)
class PlaneSolution:
    """Exact one-dimensional transmission solution at normal incidence."""

    benchmark: PlaneBenchmark
    conductor_amplitude: complex
    shell_inner: tuple[complex, complex]
    shell_outer: tuple[complex, complex]
    k_plus: complex
    k_minus: complex
    residuals: dict[str, float]

    def u(self, x: float) -> complex:
        b = self.benchmark
        if not (-math.inf < x <= b.thickness * (1 + 1e-12)):
            raise ValueError(f"coordinate x={x!r} not finite or beyond the thickness {b.thickness!r}")
        if x <= 0:
            return self.conductor_amplitude * cmath.exp(-1j * self.k_minus * x)
        coeff = self.shell_inner if x <= b.x_source else self.shell_outer
        return _combine(coeff, _exp_point(self.k_plus, x))[0]


def _exp_point(k: complex, x: float) -> _Point:
    """(exp(ikx), ik*exp(ikx), exp(-ikx), -ik*exp(-ikx)): the plane's shell basis at x."""
    ep, em = cmath.exp(1j * k * x), cmath.exp(-1j * k * x)
    return ep, 1j * k * ep, em, -1j * k * em


def solve_plane_exact(b: PlaneBenchmark) -> PlaneSolution:
    """Solve the plane-layer transmission problem (normal incidence only).

    The conductor field A*exp(-i k_minus x), A = u(0), is the wall condition
    gamma = i*(mu_plus/mu_minus)*k_minus of ``_shell_green`` over exp(+-i k_plus x),
    checked by the shell's own residuals.
    """
    dp = b.params
    kp = dp.kappa_plus * cmath.sqrt(dp.alpha_plus)
    km = dp.kappa_plus * cmath.sqrt(dp.alpha_minus) / dp.eps_small

    points = tuple(_exp_point(kp, x) for x in (0.0, b.x_source, b.thickness))
    gamma = 1j * (b.cfg.mu_plus / b.cfg.mu_minus) * km
    inner, outer, _ = _shell_green("plane", *points, kp, gamma, 0j, b.source_amplitude)
    res = _shell_residuals(points, inner, outer, gamma, 0j, b.source_amplitude)
    _check_residuals("plane", res)
    return PlaneSolution(
        benchmark=b,
        conductor_amplitude=inner[0] + inner[1],
        shell_inner=inner,
        shell_outer=outer,
        k_plus=kp,
        k_minus=km,
        residuals=res,
    )

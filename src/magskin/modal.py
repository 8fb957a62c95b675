"""Exact and reduced per-mode solutions of the layered-cylinder benchmark.

Geometry: a conducting core r < R_in, a driven shell R_in < r < R_out with a
surface-current ring at r = r_source, and a no-flux outer boundary.  The field
is the axial electric component u(r)*exp(i*m*theta); per azimuthal mode the
problem is a scalar Helmholtz equation with radial Bessel solutions.

Every model is one 4x4 solve over the shell's basis coefficients, J_m(k_plus r)
and H1_m(k_plus r) on each side of the source ring.  The ring prescribes a jump
of u', the outer boundary takes u' = 0, and the inner wall takes one condition,
u'(r_in) + gamma*u(r_in) = datum.  The models differ only in gamma and the datum:

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

import numpy as np

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


_Pair = tuple[BesselEval, BesselEval]
_Coefficients = tuple[complex, complex]


def _eval_pair(m: int, z: complex) -> _Pair:
    return bessel_j(m, z), bessel_h1(m, z)


def _field(coeff: _Coefficients, pair: _Pair, k: complex) -> tuple[complex, complex]:
    """u and u' of coeff[0]*J_m(k r) + coeff[1]*H1_m(k r) from its basis pair at r."""
    jv, hv = pair
    u = coeff[0] * jv.actual + coeff[1] * hv.actual
    du = k * (coeff[0] * jv.actual_derivative + coeff[1] * hv.actual_derivative)
    return u, du


class ShellBasis(NamedTuple):
    """(J_m, H1_m) of k_plus*r at the shell's inner wall, source ring and outer wall."""

    inner: _Pair
    source: _Pair
    outer: _Pair


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
        """(J_m, H1_m) of k_plus*r at r_in, r_source and r_out, evaluated once per instance.

        Every solve, residual check, point evaluation at those radii and
        closed-form shell norm on this benchmark reads these values.
        """
        m, kp = abs(self.mode), self.k_plus
        return ShellBasis(*(_eval_pair(m, kp * r) for r in (self.r_in, self.r_source, self.r_out)))

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

    def shell_pair(self, r: float) -> _Pair:
        """(J_m, H1_m) at k_plus*r; read from the shell basis at its three radii."""
        if r == self.r_in:
            return self.shell_basis.inner
        if r == self.r_source:
            return self.shell_basis.source
        if r == self.r_out:
            return self.shell_basis.outer
        return _eval_pair(abs(self.mode), self.k_plus * r)

    def with_eps(self, eps: float) -> "CylinderBenchmark":
        """Same benchmark with mu_minus = mu_plus/eps^2; everything else fixed."""
        if not (0.0 < eps):
            raise ValueError("eps must be positive")
        return replace(self, cfg=self.cfg.with_mu_minus(self.cfg.mu_plus / eps**2))


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
    """

    kind: str
    order: int | None
    benchmark: CylinderBenchmark
    shell_inner: tuple[complex, complex]
    shell_outer: tuple[complex, complex]
    conductor_amplitude: complex | None
    condition_number: float
    residuals: dict[str, float]
    ring_source: complex = 1.0 + 0j

    @property
    def mode_abs(self) -> int:
        return abs(self.benchmark.mode)

    def u(self, r: float) -> complex:
        return self._eval(r)[0]

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
        if r < 0 or r > b.r_out * (1 + 1e-12):
            raise ValueError(f"radius {r!r} outside [0, r_out]")
        if r < b.r_in:
            return self._eval_conductor(r)
        coeff = self.shell_inner if r <= b.r_source else self.shell_outer
        return _field(coeff, b.shell_pair(r), b.k_plus)


def _check_residuals(sol: ModalSolution) -> None:
    worst = max(sol.residuals.values())
    if not (worst <= RESIDUAL_TOL):
        raise SolverError(
            f"{sol.kind} solve violated its conditions: residuals {sol.residuals}"
        )


def _solve_linear(kind: str, rows: list[list[complex]], rhs: list[complex]) -> tuple[np.ndarray, float]:
    a = np.array(rows, dtype=complex)
    b = np.array(rhs, dtype=complex)
    try:
        cond = float(np.linalg.cond(a))
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{kind} system singular: {exc}") from exc
    if not math.isfinite(cond) or cond > _COND_WARN:
        warnings.warn(f"{kind} system near-singular: condition number {cond:.3e}", stacklevel=3)
    return x, cond


def _rel(num: float, scale: float) -> float:
    return num / max(scale, 1e-300)


def _shell_residuals(
    b: CylinderBenchmark, inner: _Coefficients, outer: _Coefficients, source: complex
) -> dict[str, float]:
    """Source-continuity, source-jump and outer-wall residuals of shell coefficients."""
    kp = b.k_plus
    bi, ci = inner
    do, eo = outer
    u_in, du_in = _field(inner, b.shell_basis.source, kp)
    u_out, du_out = _field(outer, b.shell_basis.source, kp)
    _, du_outer = _field(outer, b.shell_basis.outer, kp)
    j_o, h_o = b.shell_basis.outer
    outer_scale = abs(kp) * (
        abs(do) * abs(j_o.actual_derivative) + abs(eo) * abs(h_o.actual_derivative)
    )
    jump_scale = max(abs(du_in), abs(du_out), abs(source), abs(kp) * (abs(bi) + abs(ci)))
    return {
        "source_u": _rel(abs(u_in - u_out), max(abs(u_in), abs(u_out))),
        "source_jump": _rel(abs((du_out - du_in) - source), jump_scale),
        "outer_flux": _rel(abs(du_outer), outer_scale),
    }


def _solve_shell(
    kind: str,
    order: int | None,
    b: CylinderBenchmark,
    gamma: complex,
    datum: complex,
    source: complex,
) -> ModalSolution:
    """Shell 4x4 solve over [B, C, D, E] with the wall condition u'(r_in) + gamma*u(r_in) = datum.

    The other rows: u continuous and u' jumping by ``source`` at r_source,
    u' = 0 at r_out.  When |gamma| > 1 the wall row and its datum are divided
    by gamma, so the Dirichlet limit stays well-conditioned.
    """
    kp = b.k_plus
    j_in, h_in = b.shell_basis.inner
    j_s, h_s = b.shell_basis.source
    j_o, h_o = b.shell_basis.outer

    du_j = kp * j_in.actual_derivative
    du_h = kp * h_in.actual_derivative
    if abs(gamma) > 1.0:
        wall = [du_j / gamma + j_in.actual, du_h / gamma + h_in.actual, 0j, 0j]
        wall_rhs = datum / gamma
    else:
        wall = [du_j + gamma * j_in.actual, du_h + gamma * h_in.actual, 0j, 0j]
        wall_rhs = datum
    rows = [
        wall,
        [j_s.actual, h_s.actual, -j_s.actual, -h_s.actual],
        [
            -kp * j_s.actual_derivative,
            -kp * h_s.actual_derivative,
            kp * j_s.actual_derivative,
            kp * h_s.actual_derivative,
        ],
        [0j, 0j, kp * j_o.actual_derivative, kp * h_o.actual_derivative],
    ]
    x, cond = _solve_linear(kind, rows, [wall_rhs, 0j, source, 0j])

    inner, outer = (x[0], x[1]), (x[2], x[3])
    res = _shell_residuals(b, inner, outer, source)
    u_in, du_in = _field(inner, b.shell_basis.inner, kp)
    # backward-error scale: sum of the magnitudes of the terms being combined
    term_scale = abs(kp) * (abs(x[0] * j_in.actual_derivative) + abs(x[1] * h_in.actual_derivative))
    value_scale = abs(x[0] * j_in.actual) + abs(x[1] * h_in.actual)
    res["wall"] = _rel(
        abs(du_in + gamma * u_in - datum), term_scale + abs(gamma) * value_scale + abs(datum)
    )
    sol = ModalSolution(
        kind=kind,
        order=order,
        benchmark=b,
        shell_inner=inner,
        shell_outer=outer,
        conductor_amplitude=None,
        condition_number=cond,
        residuals=res,
        ring_source=source,
    )
    _check_residuals(sol)
    return sol


def solve_exact(b: CylinderBenchmark) -> ModalSolution:
    """Exact transmission solution: the shell solve with the conductor's own wall coefficient.

    The conductor amplitude A is u(r_in).  Beside the shell residuals, the
    interface residuals check continuity of u and u'/mu at r_in against the
    conductor field A*J_m(k_minus r)/J_m(k_minus r_in) itself.
    """
    cfg = b.cfg
    sol = _solve_shell("exact", None, b, b.conductor_gamma, 0j, b.source_amplitude)
    sol = replace(sol, conductor_amplitude=sol.u(b.r_in))
    u_minus, du_minus = sol._eval_conductor(b.r_in)
    u_plus, du_plus = sol._eval(b.r_in)
    interface = {
        "interface_u": _rel(abs(u_minus - u_plus), max(abs(u_minus), abs(u_plus))),
        "interface_flux": _rel(
            abs(du_minus / cfg.mu_minus - du_plus / cfg.mu_plus),
            max(abs(du_minus) / cfg.mu_minus, abs(du_plus) / cfg.mu_plus),
        ),
    }
    sol = replace(sol, residuals={**interface, **sol.residuals})
    _check_residuals(sol)
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
        ring_source=terms[0].ring_source,
    )


@functools.lru_cache(maxsize=8)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _panel_integral(fn, a: float, b: float, order: int) -> float:
    x, w = _gl_rule(order)
    r = 0.5 * (b - a) * x + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.dot(w, fn(r)))


def _composite_integral(fn, a: float, b: float, rtol: float = 1e-12, max_panels: int = 64) -> float:
    """Panel-doubling composite Gauss rule until two refinements agree.

    Raises SolverError when ``max_panels`` panels are reached without agreement.
    """
    prev = None
    panels = 1
    while True:
        edges = np.linspace(a, b, panels + 1)
        val = sum(_panel_integral(fn, edges[i], edges[i + 1], 48) for i in range(panels))
        if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1e-300):
            return val
        if panels >= max_panels:
            raise SolverError(
                f"quadrature on [{a}, {b}] did not reach rtol {rtol:.1e} in {panels} panels: "
                f"last estimates {prev} and {val}"
            )
        prev = val
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
    kp = b.k_plus
    k2 = kp * kp

    def flux(coeff: _Coefficients, r: float, pair: _Pair) -> complex:
        u, du = _field(coeff, pair, kp)
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

    def piece(coeff: _Coefficients, lo: float, hi: float) -> tuple[float, float]:
        db, dc = coeff

        def basis(r_arr):
            vals = np.empty((2, len(r_arr)), dtype=complex)
            ders = np.empty((2, len(r_arr)), dtype=complex)
            for i, r in enumerate(r_arr):
                jv, hv = _eval_pair(m, kp * r)
                vals[0, i], vals[1, i] = jv.actual, hv.actual
                ders[0, i], ders[1, i] = kp * jv.actual_derivative, kp * hv.actual_derivative
            return vals, ders

        def e_density(r_arr):
            vals, _ = basis(r_arr)
            du = db * vals[0] + dc * vals[1]
            return (np.abs(du) ** 2) * r_arr

        def h_density(r_arr):
            vals, ders = basis(r_arr)
            du = db * vals[0] + dc * vals[1]
            ddu = db * ders[0] + dc * ders[1]
            dens = np.abs(ddu) ** 2 + (m / r_arr) ** 2 * np.abs(du) ** 2
            return dens * r_arr

        return (
            _composite_integral(e_density, lo, hi),
            _composite_integral(h_density, lo, hi),
        )

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
    """Fit log(error) = slope*log(x) + intercept; needs >= 4 points over >= 2 decades."""
    if len(points) < 4:
        raise ValueError(f"need at least 4 points for a rate fit, got {len(points)}")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("rate fits need strictly positive abscissae and errors")
    if max(xs) / min(xs) < 99.9:
        raise ValueError("rate fit abscissae must span at least two decades")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    order = np.argsort(lx)
    local = tuple(
        float((ly[order[i + 1]] - ly[order[i]]) / (lx[order[i + 1]] - lx[order[i]]))
        for i in range(len(points) - 1)
    )
    return ConvergenceFit(
        points=tuple(sorted(points)),
        slope=float(slope),
        intercept=float(intercept),
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
        if x <= 0:
            return self.conductor_amplitude * cmath.exp(-1j * self.k_minus * x)
        coeff = self.shell_inner if x <= self.benchmark.x_source else self.shell_outer
        return coeff[0] * cmath.exp(1j * self.k_plus * x) + coeff[1] * cmath.exp(
            -1j * self.k_plus * x
        )


def solve_plane_exact(b: PlaneBenchmark) -> PlaneSolution:
    """Solve the plane-layer transmission problem (normal incidence only)."""
    dp = b.params
    kp = dp.kappa_plus * cmath.sqrt(dp.alpha_plus)
    km = dp.kappa_plus * cmath.sqrt(dp.alpha_minus) / dp.eps_small
    cfg = b.cfg
    ep = lambda x: cmath.exp(1j * kp * x)
    em = lambda x: cmath.exp(-1j * kp * x)
    xs, L = b.x_source, b.thickness
    rows = [
        [1.0 + 0j, -1.0 + 0j, -1.0 + 0j, 0j, 0j],
        [-1j * km / cfg.mu_minus, -1j * kp / cfg.mu_plus, 1j * kp / cfg.mu_plus, 0j, 0j],
        [0j, ep(xs), em(xs), -ep(xs), -em(xs)],
        [0j, -1j * kp * ep(xs), 1j * kp * em(xs), 1j * kp * ep(xs), -1j * kp * em(xs)],
        [0j, 0j, 0j, 1j * kp * ep(L), -1j * kp * em(L)],
    ]
    rhs = [0j, 0j, 0j, b.source_amplitude, 0j]
    x, _ = _solve_linear("plane", rows, rhs)
    sol = PlaneSolution(
        benchmark=b,
        conductor_amplitude=x[0],
        shell_inner=(x[1], x[2]),
        shell_outer=(x[3], x[4]),
        k_plus=kp,
        k_minus=km,
        residuals={},
    )
    du = lambda x_, c: 1j * kp * (c[0] * ep(x_) - c[1] * em(x_))
    res = {
        "interface_u": _rel(
            abs(sol.u(0.0) - (x[1] + x[2])), max(abs(sol.u(0.0)), abs(x[1] + x[2]))
        ),
        "interface_flux": _rel(
            abs(-1j * km * x[0] / cfg.mu_minus - du(0.0, sol.shell_inner) / cfg.mu_plus),
            max(abs(km * x[0]) / cfg.mu_minus, abs(du(0.0, sol.shell_inner)) / cfg.mu_plus),
        ),
        "source_jump": _rel(
            abs(du(xs, sol.shell_outer) - du(xs, sol.shell_inner) - b.source_amplitude),
            max(abs(du(xs, sol.shell_inner)), abs(b.source_amplitude)),
        ),
        "outer_flux": _rel(
            abs(du(L, sol.shell_outer)),
            abs(kp) * (abs(x[3] * ep(L)) + abs(x[4] * em(L))),
        ),
    }
    sol = replace(sol, residuals=res)
    worst = max(res.values())
    if not (worst <= RESIDUAL_TOL):
        raise SolverError(f"plane solve violated its conditions: residuals {res}")
    return sol

import math

import pytest

from magskin.geometry import (
    Surface,
    TangentVector,
    curvature_apply,
    hermitian_inner,
    inverse_metric_diagonal,
    mean_curvature,
    mean_minus_curvature_apply,
)

from conftest import log_grid, loglog_slope


def rand_tangent(rng):
    return TangentVector(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


def test_mean_curvature_values():
    assert mean_curvature(Surface.plane()) == 0.0
    assert mean_curvature(Surface.cylinder(2.0)) == 0.25
    assert mean_curvature(Surface.sphere(1.0)) == 1.0


def test_curvature_apply_plane_is_zero(rng):
    v = rand_tangent(rng)
    out = curvature_apply(Surface.plane(), v)
    assert out.c1 == 0 and out.c2 == 0


def test_sphere_umbilic_identity(rng):
    s = Surface.sphere(0.7)
    for _ in range(20):
        v = rand_tangent(rng)
        cv = curvature_apply(s, v)
        k = 1.0 / 0.7
        assert cv.c1 == k * v.c1 and cv.c2 == k * v.c2
        residual = mean_minus_curvature_apply(s, v)
        assert residual.c1 == 0 and residual.c2 == 0


def test_cylinder_axial_direction(rng):
    s = Surface.cylinder(3.0)
    v = TangentVector(0j, 1.0 + 0j)
    assert curvature_apply(s, v).c2 == 0
    hm = mean_minus_curvature_apply(s, v)
    assert abs(hm.c2 - 1.0 / 6.0) <= 1e-16


def test_shifted_metric_plane_identity():
    assert inverse_metric_diagonal(Surface.plane(), 123.0) == (1.0, 1.0)


def test_shifted_metric_sphere_example():
    assert inverse_metric_diagonal(Surface.sphere(1.0), 0.1) == (1.0 / 0.81, 1.0 / 0.81)


def test_shifted_metric_cylinder_h0():
    assert inverse_metric_diagonal(Surface.cylinder(1.0), 0.0) == (1.0, 1.0)


def test_shifted_metric_domain_errors():
    with pytest.raises(ValueError):
        inverse_metric_diagonal(Surface.cylinder(1.0), 0.5)
    with pytest.raises(ValueError):
        inverse_metric_diagonal(Surface.sphere(1.0), -1e-3)


@pytest.mark.parametrize(
    "surface", [Surface.plane(), Surface.cylinder(0.7), Surface.sphere(1.0), Surface.sphere(3.1)]
)
def test_inverse_metric_diagonal_is_the_exact_matrix_diagonal(surface, rng):
    depths = [0.0, 1e-9, 1e-3] + [rng.uniform(0.0, min(surface.tubular_radius, 5.0)) for _ in range(20)]
    k1, k2 = surface.principal_curvatures
    for h in depths:
        diag = inverse_metric_diagonal(surface, h)
        assert diag == (1.0 / (1.0 - k1 * h) ** 2, 1.0 / (1.0 - k2 * h) ** 2)


@pytest.mark.parametrize("h", [-1e-3, 0.35, 0.5, math.nan])
def test_inverse_metric_diagonal_domain_errors(h):
    s = Surface.cylinder(0.7)
    with pytest.raises(ValueError, match="tubular neighborhood"):
        inverse_metric_diagonal(s, h)


@pytest.mark.parametrize("surface", [Surface.cylinder(1.0), Surface.sphere(1.0)])
def test_truncation_gap_scales_quadratically(surface):
    # the exact diagonal departs from its linearisation 1 + 2*kappa_a*h at O(h^2)
    pts = []
    for h in log_grid(1e-4, 1e-1, 10):
        linear = tuple(1.0 + 2.0 * k * h for k in surface.principal_curvatures)
        gap = max(abs(e - f) for e, f in zip(inverse_metric_diagonal(surface, h), linear))
        pts.append((h, gap))
    assert abs(loglog_slope(pts) - 2.0) <= 0.05


def test_curvature_apply_linear_and_self_adjoint(rng):
    s = Surface.cylinder(1.7)
    for _ in range(10):
        u, v = rand_tangent(rng), rand_tangent(rng)
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lin = curvature_apply(s, u.scale(a) + v)
        ref = curvature_apply(s, u).scale(a) + curvature_apply(s, v)
        assert abs(lin.c1 - ref.c1) + abs(lin.c2 - ref.c2) <= 1e-14
        lhs = hermitian_inner(curvature_apply(s, u), v)
        rhs = hermitian_inner(u, curvature_apply(s, v))
        assert abs(lhs - rhs) <= 1e-14


@pytest.mark.parametrize("surface", [Surface.plane(), Surface.cylinder(0.3), Surface.sphere(2.0)])
def test_mean_curvature_is_half_trace(surface):
    trace = curvature_apply(surface, TangentVector(1.0 + 0j, 0j)).c1 + curvature_apply(
        surface, TangentVector(0j, 1.0 + 0j)
    ).c2
    assert mean_curvature(surface) == 0.5 * trace.real


def test_surface_validation():
    with pytest.raises(ValueError):
        Surface.cylinder(0.0)
    with pytest.raises(ValueError):
        Surface.sphere(-1.0)


def test_a_plane_has_no_radius():
    with pytest.raises(ValueError, match="a plane has no radius"):
        Surface(Surface.plane().kind, 1.0)

import dataclasses
import functools
import math

import mpmath as mp
import pytest

from magskin import skin
from magskin.geometry import Surface, TangentVector
from magskin.modal import default_benchmark, solve_exact
from magskin.params import PhysicalConfig, derive_params
from magskin.profiles import HarmonicTangentField, LayerField, TraceData
from magskin.skin import (
    DecayTrace,
    SkinDepthError,
    comparison_report,
    layer_trace,
    skin_depth_asymptotic,
    skin_depth_numeric,
    w0_plane_trace,
)

from conftest import cylinder_traces


def config(mu_r=100.0, sigma_minus=1.0, omega=1.0, mu_plus=1.0):
    return PhysicalConfig(
        omega=omega, eps0=1.0, mu_plus=mu_plus, mu_minus=mu_plus * mu_r,
        sigma_plus=0.01, sigma_minus=sigma_minus,
    )


def test_pure_exponential_recovers_rate():
    d = 0.037
    trace = DecayTrace(sampler=lambda h: 5.0 * math.exp(-h / d), max_depth=10 * d)
    root = skin_depth_numeric(trace, d)
    assert abs(root - d) <= 1e-10 * d


def test_constant_sampler_has_no_root():
    trace = DecayTrace(sampler=lambda h: 1.0, max_depth=1.0)
    with pytest.raises(SkinDepthError):
        skin_depth_numeric(trace, 0.1)


def test_sampler_must_be_positive_at_surface():
    with pytest.raises(ValueError):
        DecayTrace(sampler=lambda h: 0.0, max_depth=1.0)


def test_surface_is_sampled_once_when_the_trace_is_built():
    # skin_depth_numeric sampled depth 0 again for its target: one repeat per root
    depths = []
    trace = DecayTrace(sampler=lambda h: depths.append(h) or math.exp(-h), max_depth=10.0)
    assert depths == [0.0] and trace.surface_modulus == 1.0
    root = skin_depth_numeric(trace, 1.0)
    assert 0.0 not in depths[1:]
    assert abs(root - 1.0) <= 1e-14
    assert skin_depth_numeric(dataclasses.replace(trace, max_depth=5.0), 1.0) == root
    assert depths.count(0.0) == 2  # the replaced trace sampled its own surface


def test_infinite_surface_sample_raises_naming_depth_zero():
    trace = DecayTrace(sampler=lambda h: math.inf if h == 0.0 else 1.0, max_depth=1.0)
    with pytest.raises(SkinDepthError, match=r"depth 0\.0 is inf;"):
        skin_depth_numeric(trace, 0.1)


@pytest.mark.parametrize("max_depth", [math.inf, math.nan, 0.0, -1.0])
def test_max_depth_must_be_finite_and_positive(max_depth):
    # an infinite max_depth let a sampler that never decays scan forever
    with pytest.raises(ValueError, match="max_depth must be finite and positive"):
        DecayTrace(sampler=lambda h: 1.0, max_depth=max_depth)


@pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -0.1])
def test_scale_must_be_finite_and_positive(scale):
    # scale=inf used to raise SkinDepthError, "never decayed to 1/e"
    trace = DecayTrace(sampler=lambda h: math.exp(-h), max_depth=10.0)
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        skin_depth_numeric(trace, scale)


@pytest.mark.parametrize("scale,step", [(1e-300, "2e-302"), (1e-12, "2e-14")])
def test_scan_longer_than_the_cap_raises_before_sampling(scale, step):
    # at 1e-300, h += step stopped advancing h once h >> step and the scan never
    # ended; at 1e-12 it would have taken 5e13 samples
    depths = []
    trace = DecayTrace(sampler=lambda h: depths.append(h) or 1.0, max_depth=1.0)
    depths.clear()
    with pytest.raises(SkinDepthError, match=rf"step {step} .* more than 100000 samples .* max_depth=1\.0"):
        skin_depth_numeric(trace, scale)
    assert depths == []


def test_scan_of_exactly_the_cap_runs():
    # step 1.0 (scale 50): max_depth 1e5 takes the cap's 100000 samples, one more raises
    trace = DecayTrace(sampler=lambda h: 1.0, max_depth=1e5)
    with pytest.raises(SkinDepthError, match="never decayed"):
        skin_depth_numeric(trace, 50.0)
    with pytest.raises(SkinDepthError, match="more than 100000 samples"):
        skin_depth_numeric(dataclasses.replace(trace, max_depth=1e5 + 1.0), 50.0)


def test_rescaling_sampler_leaves_root_unchanged():
    d = 0.2
    base = DecayTrace(sampler=lambda h: math.exp(-h / d) * (1 + 0.2 * h), max_depth=10 * d)
    scaled = DecayTrace(sampler=lambda h: 7.3 * math.exp(-h / d) * (1 + 0.2 * h), max_depth=10 * d)
    r1 = skin_depth_numeric(base, d)
    r2 = skin_depth_numeric(scaled, d)
    assert abs(r1 - r2) <= 1e-13 * d


def test_plane_leading_profile_reaches_ell_phi():
    # 20 parameter points spanning frequency/conductivity/contrast decades
    cases = []
    for i in range(20):
        mu_r = 10.0 ** (2 + (i % 5))
        sigma = 10.0 ** ((i % 4) - 2)
        omega = 10.0 ** ((i % 3) - 1)
        cases.append(config(mu_r=mu_r, sigma_minus=sigma, omega=omega))
    for cfg in cases:
        dp = derive_params(cfg)
        root = skin_depth_numeric(w0_plane_trace(dp), dp.ell_phi)
        assert abs(root - dp.ell_phi) <= 1e-8 * dp.ell_phi


def test_asymptotic_formula_values():
    dp = derive_params(config())
    assert skin_depth_asymptotic(dp, 0.0) == dp.ell_phi
    fake = dataclasses.replace(dp, ell=1e-3, phi_value=1.0)
    assert abs(skin_depth_asymptotic(fake, 50.0) - 1.05e-3) <= 1e-18


def test_high_conductivity_limit_consistency():
    # delta -> 0: the law collapses onto ell*(1 + H*ell)
    dp = derive_params(config(sigma_minus=1e12))
    mean_curv = 7.0
    lhs = skin_depth_asymptotic(dp, mean_curv)
    rhs = dp.ell * (1.0 + mean_curv * dp.ell)
    assert abs(lhs / rhs - 1.0) <= 1e-6


def test_comparison_report_plane():
    dp = derive_params(config())
    rep = comparison_report(dp, Surface.plane())
    assert abs(rep.numeric - dp.ell_phi) <= 1e-8 * dp.ell_phi
    assert rep.asymptotic == dp.ell_phi
    assert rep.classical == dp.ell
    assert rep.eddy2d == dp.ell
    assert rep.high_conductivity == dp.ell


def test_comparison_report_cylinder():
    dp = derive_params(config())
    rep = comparison_report(dp, Surface.cylinder(2.0))
    lp = dp.ell_phi
    assert abs(rep.asymptotic - lp * (1.0 + lp / 4.0)) <= 1e-15
    # layer-profile numeric agrees with the law to the next asymptotic order
    assert abs(rep.numeric - rep.asymptotic) / lp <= 0.05
    assert rep.eddy2d == dp.ell * (1.0 + 0.25 * dp.ell)


def test_asymptotic_vs_eddy_ratio_small_delta():
    dp = derive_params(config(sigma_minus=1e12))
    rep = comparison_report(dp, Surface.cylinder(1.0))
    assert abs(rep.asymptotic / rep.eddy2d - 1.0) <= 1e-6


# --------------------------------------------------------------------------
# the root stage: Illinois regula falsi inside the scan's bracket

MODES = (0, 1, 2, 5)
MU_RS = (1e2, 1e3, 1e4, 1e5, 1e6)


@functools.cache
def exact_case(mode: int, mu_r: float):
    """Benchmark and exact solution whose conductor field the skin workload samples."""
    bench = default_benchmark(mode).with_eps(1.0 / math.sqrt(mu_r))
    return bench, solve_exact(bench)


def exact_trace(mode: int, mu_r: float, wrap=lambda f: f) -> tuple[DecayTrace, float]:
    bench, sol = exact_case(mode, mu_r)
    scale = bench.params.ell_phi
    sampler = wrap(lambda h: abs(sol.u(bench.r_in - h)))
    return DecayTrace(sampler=sampler, max_depth=min(10.0 * scale, 0.95 * bench.r_in)), scale


def surface_trace(surface: Surface, mu_r: float, wrap=lambda f: f) -> tuple[DecayTrace, float]:
    dp = default_benchmark(0).with_eps(1.0 / math.sqrt(mu_r)).params
    tr = TraceData(
        e0_trace=HarmonicTangentField(surface, TangentVector(1.0 + 0j, 0j)),
        e1_trace=HarmonicTangentField(surface, TangentVector.zero()),
    )
    trace = layer_trace(surface, tr, dp)
    return dataclasses.replace(trace, sampler=wrap(trace.sampler)), dp.ell_phi


SURFACES = {"plane": Surface.plane(), "cylinder": Surface.cylinder(1.0), "sphere": Surface.sphere(1.0)}
TRACE_CASES = [("exact", mode, mu_r) for mode in MODES for mu_r in MU_RS] + [
    (name, None, mu_r) for name in SURFACES for mu_r in MU_RS
]


def make_trace(kind, mode, mu_r, wrap=lambda f: f) -> tuple[DecayTrace, float]:
    if kind == "exact":
        return exact_trace(mode, mu_r, wrap)
    return surface_trace(SURFACES[kind], mu_r, wrap)


def parent_scan(trace: DecayTrace, scale: float) -> list[float]:
    """Reference: the guard scan's sample depths, 0 first and the bracket's upper end last."""
    target = trace.sampler(0.0) / math.e
    step = scale / 50.0
    depths = [0.0]
    h = step
    while h <= trace.max_depth * (1.0 + 1e-12):
        depths.append(h)
        if trace.sampler(h) - target <= 0.0:
            return depths
        h += step
    raise AssertionError("no crossing")


def parent_root(trace: DecayTrace, scale: float) -> float:
    """Reference: the scan, bisection to 1e-6*scale and 3-step log-quadratic polish it replaced."""
    target = trace.sampler(0.0) / math.e
    *_, lo, hi = parent_scan(trace, scale)
    tol = 1e-6 * scale
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if trace.sampler(mid) - target <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    log_target = math.log(target)
    d = max(hi - lo, tol)
    for _ in range(3):
        a, b, c = max(root - d, 0.0), root, root + d
        ga, gb, gc = (math.log(trace.sampler(x)) - log_target for x in (a, b, c))
        d1 = (gc - ga) / (c - a)
        d2 = ((gc - gb) / (c - b) - (gb - ga) / (b - a)) / (c - a) * 2.0
        slope = d1 + 0.5 * d2 * (2.0 * b - a - c)
        if slope == 0.0:
            break
        root = min(max(b - gb / slope, root - d), root + d)
        d /= 8.0
    return root


def recording(depths: list[float]):
    def wrap(f):
        def sampler(h):
            depths.append(h)
            return f(h)

        return sampler

    return wrap


@pytest.mark.parametrize("kind,mode,mu_r", TRACE_CASES)
def test_root_stage_keeps_the_scan_bracket_and_adds_at_most_8_samples(kind, mode, mu_r):
    depths: list[float] = []
    trace, scale = make_trace(kind, mode, mu_r, recording(depths))
    scan = parent_scan(trace, scale)
    depths.clear()
    root = skin_depth_numeric(trace, scale)
    lo, hi = scan[-2:]
    # the surface sample at depth 0 was taken once, when the trace was built
    scan = scan[1:]
    if trace.floor is None:
        assert depths[: len(scan)] == scan
        stage = depths[len(scan) :]
    else:
        # a layer trace skips the grid points its floor clears: it samples
        # some of the parent's grid, hi and lo among them, then the root stage
        grid = set(scan)
        assert all(h in grid or lo < h < hi for h in depths), depths
        n = max(i for i, h in enumerate(depths) if h in grid) + 1
        assert hi in depths[:n] and (lo == 0.0 or lo in depths[:n])
        stage = depths[n:]
    assert all(lo < h < hi for h in stage), stage
    assert lo <= root <= hi
    assert len(stage) <= 8, len(stage)  # bisection + polish took 24


def counted(trace: DecayTrace) -> tuple[DecayTrace, list[str]]:
    """The trace with every sample and floor call logged."""
    calls: list[str] = []

    def sampler(h):
        calls.append("sample")
        return trace.sampler(h)

    def floor(a, b):
        calls.append("floor")
        return trace.floor(a, b)

    wrapped = dataclasses.replace(trace, sampler=sampler, floor=floor)
    calls.clear()  # the surface sample, taken when the trace was built
    return wrapped, calls


def rising_trace() -> tuple[DecayTrace, float]:
    # |1 + 40y|*exp(-10y) on a plane: rises to 1.89 at y = 0.075, crosses 1/e near 0.38
    field = LayerField(
        surface=Surface.plane(), decay_rate=1.0 + 1.0j, eps=0.1, e0=TangentVector(1.0 + 0j, 0j),
        e1=TangentVector.zero(), curvature=TangentVector(40.0 + 0j, 0j), normal=0j,
    )
    trace = DecayTrace(
        sampler=lambda h: math.sqrt(field.modulus_sq(h)),
        max_depth=1.0,
        floor=lambda a, b: math.sqrt(max(field.modulus_sq_floor(a, b), 0.0)),
    )
    return trace, 0.1


def mode_trace(mode: int, mu_r: float, radius: float) -> tuple[DecayTrace, float]:
    dp = default_benchmark(0).with_eps(1.0 / math.sqrt(mu_r)).params
    tr, s = cylinder_traces(mode=mode, radius=radius)
    return layer_trace(s, tr, dp, (0.3, -0.2)), dp.ell_phi


CERTIFIED_CASES = (
    [functools.partial(surface_trace, SURFACES[kind], mu_r) for kind in SURFACES for mu_r in MU_RS]
    + [functools.partial(mode_trace, m, mu_r, r) for m in (0, 2, 5) for mu_r in MU_RS for r in (1.0, 2.0)]
    + [rising_trace]
)


def test_certified_scan_finds_the_opaque_root_bit_for_bit():
    evaluations = []
    for make in CERTIFIED_CASES:
        trace, scale = make()
        opaque = skin_depth_numeric(dataclasses.replace(trace, floor=None), scale)
        trace, calls = counted(trace)
        assert skin_depth_numeric(trace, scale).hex() == opaque.hex(), make
        evaluations.append(len(calls) + 1)  # and the surface sample
    # samples plus floors per root, at their measured worst; the opaque scan
    # took 51 to 73 samples on the layer cases and 195 on the rising one
    *layer, rising = evaluations
    trace, _ = rising_trace()
    assert trace.sampler(0.075) > trace.sampler(0.0)
    assert max(layer) <= 17 and sum(layer) / len(layer) <= 12.6, layer
    assert rising <= 28, rising


@pytest.mark.parametrize("floor", [math.nan, math.inf])
def test_floor_that_is_not_a_finite_number_certifies_nothing(floor):
    # the scan samples every grid point and raises where the opaque scan raises
    trace = DecayTrace(sampler=step_sampler(math.nan), max_depth=1.0, floor=lambda a, b: floor)
    with pytest.raises(SkinDepthError, match=r"depth 0\.0124\d* is nan;"):
        skin_depth_numeric(trace, 0.01)


@pytest.mark.parametrize("kind,mode,mu_r", TRACE_CASES)
def test_root_agrees_with_bisection_and_polish(kind, mode, mu_r):
    trace, scale = make_trace(kind, mode, mu_r)
    assert abs(skin_depth_numeric(trace, scale) - parent_root(trace, scale)) <= 1e-12 * scale


def test_exact_trace_roots_against_mpmath():
    worst = 0.0
    with mp.workdps(40):
        for mode in MODES:
            for mu_r in MU_RS:
                bench, _ = exact_case(mode, mu_r)
                trace, scale = exact_trace(mode, mu_r)
                root = skin_depth_numeric(trace, scale)
                k, r_in = mp.mpc(bench.k_minus), mp.mpf(bench.r_in)
                surface = abs(mp.besselj(mode, k * r_in))
                ref = mp.findroot(lambda h: mp.log(abs(mp.besselj(mode, k * (r_in - h))) / surface) + 1, root)
                worst = max(worst, float(abs(root - ref) / ref))
    assert worst <= 1e-13, worst


def test_first_crossing_of_a_trace_that_rises_again():
    # dips below 1/e on (1, 1.74), climbs back to 0.54 at h = 2, decays past 1/e again at 2.20
    def sampler(h):
        return math.exp(-h) + 0.4 * math.exp(-(((h - 2.0) / 0.3) ** 2))

    trace = DecayTrace(sampler=sampler, max_depth=10.0)
    root = skin_depth_numeric(trace, 1.0)
    assert sampler(2.0) > sampler(0.0) / math.e
    assert 1.0 < root < 1.1
    assert abs(math.log(sampler(root) / sampler(0.0)) + 1.0) <= 1e-14
    assert abs(root - parent_root(trace, 1.0)) <= 1e-12


def step_sampler(beyond: float):
    return lambda h: 1.0 if h < 0.0123 else beyond


def test_zero_sample_counts_as_below_target():
    # the replaced polish took log(0) here and raised a bare ValueError
    trace = DecayTrace(sampler=step_sampler(0.0), max_depth=1.0)
    assert abs(skin_depth_numeric(trace, 0.01) - 0.0123) <= 1e-15


@pytest.mark.parametrize("bad,shown", [(math.nan, "nan"), (-1.0, "-1.0"), (math.inf, "inf")])
def test_bad_scan_sample_raises_naming_depth_and_value(bad, shown):
    # nan was reported as "never decayed to 1/e"
    trace = DecayTrace(sampler=step_sampler(bad), max_depth=1.0)
    with pytest.raises(SkinDepthError, match=rf"depth 0\.0124\d* is {shown};"):
        skin_depth_numeric(trace, 0.01)


def test_bad_sample_inside_the_bracket_raises():
    # finite on the scan grid near the crossing at 1.01 (grid points ~1.0 and
    # ~1.02), nan strictly between them, where the root stage samples
    def sampler(h):
        return math.nan if 1.001 < h < 1.019 else math.exp(-h / 1.01)

    with pytest.raises(SkinDepthError, match=r"depth 1\.0\d* is nan"):
        skin_depth_numeric(DecayTrace(sampler=sampler, max_depth=10.0), 1.0)


def test_step_cap_raises_naming_bracket_and_iterates(monkeypatch):
    trace = DecayTrace(sampler=step_sampler(0.0), max_depth=1.0)
    monkeypatch.setattr(skin, "_ROOT_MAX_STEPS", 3)
    with pytest.raises(SkinDepthError, match=r"3 steps: bracket \[0\.012\d*, 0\.012\d*\], last two iterates 0\.012\d* and 0\.012\d*$"):
        skin_depth_numeric(trace, 0.01)

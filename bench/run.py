"""magskin benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload ibc_rates --seed 0 --seconds 30 --trace 0

Runs passes of the workload (every point once per pass) in this process until
--seconds have gone by, checks every pass, and prints a summary followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones listed in BENCHMARK.json; with --trace 1
passes alternate untraced and traced and the metrics are the per-layer ones,
with the spans written to bench/out/trace-<workload>.jsonl.

One process, one thread: BLAS thread pools are pinned to 1 below, before
numpy can be imported. Workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import cmath
import contextlib
import ctypes
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
# The host's speed drifts by up to ~50% over minutes, and calibrate() slows
# down with it. Measured times are rescaled by CAL_REF_S / (its time next to
# them); CAL_REF_S is its time on the baseline host at the faster speed.
CAL_ITERATIONS = 200_000
CAL_REF_S = 0.05


def import_workloads():
    """Import the benchmark's workloads, and through them magskin from ./src only."""
    init = SRC / "magskin" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a magskin checkout")
    sys.path.insert(0, str(SRC))
    import magskin
    import workloads

    if Path(magskin.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported magskin from {magskin.__file__}, not {init}")
    return workloads


def calibrate() -> float:
    """Time a fixed pure-Python complex-arithmetic loop, like magskin's own inner loops."""
    z = 0.37 + 0.21j
    acc = 0j
    start = time.perf_counter()
    for k in range(1, CAL_ITERATIONS):
        acc += cmath.exp(z * (k * 1e-5)) / (k + z)
    elapsed = time.perf_counter() - start
    if not cmath.isfinite(acc):
        raise RuntimeError("calibration loop overflowed")
    return elapsed


def setup_probe(args) -> None:
    """Time import of magskin plus building the inputs, in this fresh process.

    Prints the time rescaled to the reference host speed.
    """
    start = time.perf_counter()
    workloads = import_workloads()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workloads.build(args.workload, args.seed, Path(tmp))
        elapsed = time.perf_counter() - start
    print(repr(elapsed * CAL_REF_S / calibrate()))


def measure_setup(args) -> float:
    """Median set-up time over SETUP_PROBES fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


@contextlib.contextmanager
def native_output_to(path: Path):
    """Send file descriptors 1 and 2 to a log while library code runs.

    LAPACK reports bad arguments (the "DLASCL" lines at modes 150 and 200)
    with C printf, which would otherwise land in our stdout, possibly after
    the result line.
    """
    libc = ctypes.CDLL(None)
    sys.stdout.flush()
    sys.stderr.flush()
    saved = [os.dup(1), os.dup(2)]
    try:
        with open(path, "wb") as log:
            os.dup2(log.fileno(), 1)
            os.dup2(log.fileno(), 2)
            try:
                yield
            finally:
                libc.fflush(None)
                sys.stdout.flush()
                sys.stderr.flush()
                os.dup2(saved[0], 1)
                os.dup2(saved[1], 2)
    finally:
        for fd in saved:
            os.close(fd)


def run_passes(workload, inputs: dict, seconds: float, tracer) -> list[dict]:
    """Whole passes for `seconds`; with a tracer every second pass is traced.

    A pass starts only if one more pass of the last pass's length still ends
    within `seconds`, so a run takes about `seconds` whatever the pass length.
    The calibration loop runs before the first pass and after every pass.
    """
    passes = []
    min_passes = 2 if tracer else 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        cal_before = calibrate()
        while (len(passes) < min_passes
               or time.perf_counter() - start + passes[-1]["wall"] <= seconds):
            traced = tracer is not None and len(passes) % 2 == 1
            t0 = time.perf_counter()
            if traced:
                res = tracer.run_pass(lambda: workload.run_pass(inputs, tracer.mark))
            else:
                res = workload.run_pass(inputs, lambda point: None)
            wall = time.perf_counter() - t0
            cal_after = calibrate()
            cond = sum("near-singular" in str(w.message) for w in caught)
            passes.append({"res": res, "wall": wall, "cal": 0.5 * (cal_before + cal_after),
                           "traced": traced, "cond_warnings": cond, "warnings": len(caught)})
            cal_before = cal_after
            caught.clear()
    return passes


def check_passes(workloads, name: str, passes: list[dict]) -> list[str]:
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    problems = []
    first = passes[0]["res"].values
    for i, p in enumerate(passes):
        res = p["res"]
        workloads.check_values(name, res, reference)
        problems += [f"pass {i}: {msg}" for msg in res.problems]
        if res.values != first:
            problems.append(f"pass {i}: values differ from pass 0")
    return problems


def points_per_s(passes: list[dict], rescale: bool) -> float:
    """Median over passes of the points that did not raise per second of the pass."""
    return statistics.median(
        (p["res"].attempted - p["res"].failed) / p["wall"] * (p["cal"] / CAL_REF_S if rescale else 1.0)
        for p in passes
    )


def end_to_end(passes: list[dict], attempted: int, failed: int, setup_s: float) -> dict[str, float]:
    return {
        "points_per_ref_s": points_per_s(passes, rescale=True),
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    m = tracer.layer_metrics(len(traced))
    traced_wall = statistics.mean(p["wall"] for p in traced)
    m["modal.cond_warnings"] = statistics.mean(p["cond_warnings"] for p in passes)
    m["trace.pass_s"] = statistics.median(p["wall"] for p in plain)
    m["trace.overhead_frac"] = statistics.median(p["wall"] for p in traced) / m["trace.pass_s"] - 1.0
    m["trace.accounted_frac"] = m.pop("trace.self_s") / traced_wall
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import and input building, print it, exit")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0

    workloads = import_workloads()
    setup_s = measure_setup(args)
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    seconds = args.seconds or spec["run_seconds"]
    native_log = OUT_DIR / f"native-{args.workload}.log"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        inputs = workloads.build(args.workload, args.seed, Path(tmp))
        with native_output_to(native_log):
            passes = run_passes(workload, inputs, seconds, tracer)
    problems = check_passes(workloads, args.workload, passes)
    attempted = sum(p["res"].attempted for p in passes)
    failed = sum(p["res"].failed for p in passes)

    if tracer is None:
        values, listed = end_to_end(passes, attempted, failed, setup_s), spec["end_to_end"]
    else:
        values, listed = per_layer(tracer, passes), spec["per_layer"]
        tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl",
                     {"workload": args.workload, "seed": args.seed})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), {attempted} points attempted, "
          f"{failed} failed, failed_frac {failed / attempted:.4g}, "
          f"points_per_s {points_per_s(passes, rescale=False):.6g} 1/s (wall clock), "
          f"calibration loop {statistics.median(p['cal'] for p in passes):.4g} s")
    for msg in sorted({e for p in passes for e in p["res"].errors}):
        print(f"  point failed: {msg}")
    lapack = sum("DLASCL" in line for line in native_log.read_text(errors="replace").splitlines())
    print(f"  warnings caught per pass: {statistics.mean(p['warnings'] for p in passes):.4g}; "
          f"LAPACK DLASCL lines: {lapack}")
    for msg in problems:
        print(f"  INCORRECT: {msg}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

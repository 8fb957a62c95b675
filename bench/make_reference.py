"""Regenerate bench/reference.json, the stored values every run is checked against.

    python3 bench/make_reference.py

The values are one pass of each workload at seed 0. Each value gets its own
relative tolerance: 10x the largest relative change seen over TRIALS passes in
which every Bessel value and derivative that magskin.modal receives is
multiplied by (1 + NOISE * complex Gaussian), floored at RTOL_FLOOR. That is
loose enough for a new algorithm whose results differ by round-off (closed-form
norms agree with the quadrature to ~6e-14) and tight enough to catch a wrong
Bessel branch. A value that moves by more than UNCHECKED / 10 under this noise
is decided by round-off today; it is stored with rtol null and not checked.
"""

from __future__ import annotations

import json
import math
import random
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

from run import BENCH_DIR, OUT_DIR, import_workloads

SEED = 0
TRIALS = 6
NOISE = 1e-14
RTOL_FLOOR = 1e-9
UNCHECKED = 1e-2


def _noisy(fn, rng: random.Random):
    def perturbed(m, z):
        ev = fn(m, z)
        f1 = 1.0 + NOISE * complex(rng.gauss(0, 1), rng.gauss(0, 1))
        f2 = 1.0 + NOISE * complex(rng.gauss(0, 1), rng.gauss(0, 1))
        return replace(ev, value=ev.value * f1, derivative=ev.derivative * f2)

    return perturbed


def _one_pass(workloads, name: str, workdir: Path) -> dict:
    inputs = workloads.build(name, SEED, workdir)
    return workloads.WORKLOADS[name].run_pass(inputs, lambda point: None).values


def main() -> None:
    workloads = import_workloads()
    import magskin.modal as modal

    exact_j, exact_h1 = modal.bessel_j, modal.bessel_h1
    table = {}
    OUT_DIR.mkdir(exist_ok=True)
    with warnings.catch_warnings(), tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        warnings.simplefilter("ignore")
        for name in workloads.WORKLOADS:
            base = _one_pass(workloads, name, Path(tmp))
            change = {key: [0.0] * len(vals) for key, vals in base.items()}
            for trial in range(TRIALS):
                rng = random.Random(trial)
                modal.bessel_j, modal.bessel_h1 = _noisy(exact_j, rng), _noisy(exact_h1, rng)
                try:
                    noisy = _one_pass(workloads, name, Path(tmp))
                finally:
                    modal.bessel_j, modal.bessel_h1 = exact_j, exact_h1
                for key, vals in base.items():
                    other = noisy.get(key, (math.inf,) * len(vals))
                    change[key] = [max(c, abs(o - v) / abs(v)) for c, o, v in zip(change[key], other, vals)]
            table[name] = {
                key: {
                    "value": list(vals),
                    "rtol": [
                        None if 10 * c > UNCHECKED else max(RTOL_FLOOR, float(f"{10 * c:.1e}"))
                        for c in change[key]
                    ],
                }
                for key, vals in sorted(base.items())
            }
            unchecked = sum(r is None for entry in table[name].values() for r in entry["rtol"])
            print(f"{name}: {len(base)} points, {unchecked} values unchecked")
    doc = {"seed": SEED, "trials": TRIALS, "noise": NOISE, "workloads": table}
    (BENCH_DIR / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Per-layer spans, recorded from outside the library.

Each layer's public functions are wrapped where another module imported them
(``magskin.modal.bessel_j``, ``magskin.cli.solve_exact``, the benchmark's own
``workloads`` names), so no file under ``src/`` changes and calls a module
makes to itself stay inside the caller's span. ``geometry`` is not wrapped: its
calls take less than a microsecond, less than a wrapper costs.

Spans are kept in memory as (name, start, end, parent, point) and written out
when the run ends. A layer's self time is its span time minus the time its
direct child spans cover; with one thread, child spans never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name)
SITES = (
    ("magskin.modal", "bessel_j", "bessel.j"),
    ("magskin.modal", "bessel_h1", "bessel.h1"),
    ("workloads", "solve_exact", "modal.solve"),
    ("workloads", "solve_ibc", "modal.solve"),
    ("magskin.cli", "solve_exact", "modal.solve"),
    ("magskin.cli", "solve_ibc", "modal.solve"),
    ("magskin.cli", "truncated_expansion", "modal.solve"),
    ("workloads", "shell_l2_error", "modal.shell_norm"),
    ("magskin.cli", "shell_l2_error", "modal.shell_norm"),
    ("workloads", "conductor_l2_norm", "modal.conductor_norm"),
    ("workloads", "fit_convergence", "modal.fit"),
    ("workloads", "modal_u", "modal.eval"),
    ("workloads", "skin_depth_numeric", "skin"),
    ("workloads", "comparison_report", "skin"),
    ("magskin.cli", "comparison_report", "skin"),
    ("magskin.skin", "layer_modulus_sq", "profiles"),
    ("magskin.cli", "layer_modulus_sq", "profiles"),
    ("magskin.modal", "robin_coefficient", "ibc"),
    ("magskin.cli", "impedance_operator", "ibc"),
    ("magskin.modal", "derive_params", "params"),
    ("magskin.ibc", "derive_params", "params"),
    ("magskin.ibc", "leontovich_factor", "params"),
    ("magskin.cli", "derive_params", "params"),
    ("magskin.cli", "leontovich_factor", "params"),
    ("workloads", "cli_main", "cli"),
)
HARNESS = "harness"
BESSEL = ("bessel.j", "bessel.h1")


class Tracer:
    """Installs the wrappers and collects spans; one instance per traced run."""

    def __init__(self) -> None:
        self.names = [HARNESS] + sorted({name for _, _, name in SITES})
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.point = -1
        self.scaled = 0  # BesselEval results with a nonzero exponent
        self._stack = [-1]
        self._originals = []
        for mod, attr, name in SITES:
            module = importlib.import_module(mod)
            self._originals.append((module, attr, getattr(module, attr), name))

    def mark(self, point: int) -> None:
        """Attribute the spans that follow to this point id."""
        self.point = point

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name_id: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name_id, start, end, self._stack[-1], self.point)

    def _wrap(self, fn, name: str):
        name_id = self.names.index(name)
        is_bessel = name in BESSEL

        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name_id, start)
            if is_bessel and result.exponent != 0:
                self.scaled += 1
            return result

        return traced

    def install(self) -> None:
        for module, attr, fn, name in self._originals:
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._originals:
            setattr(module, attr, fn)

    def run_pass(self, fn):
        """Run fn() inside one root span that takes the time between library calls."""
        self.install()
        idx = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, 0, start)
            self.uninstall()

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "fields": ["name", "start", "end", "parent", "point"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass counts and self times of every layer, from the recorded spans."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        name_ids = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(arr))
        self_time = dur - child
        parent_name = np.where(has_parent, name_ids[np.maximum(parent, 0)], -1)

        def ids(*names: str) -> np.ndarray:
            return np.array([self.names.index(n) for n in names])

        def calls(*names: str) -> int:
            return int(np.isin(name_ids, ids(*names)).sum())

        def self_s(*names: str) -> float:
            return float(self_time[np.isin(name_ids, ids(*names))].sum())

        def children(kind: tuple[str, ...], *names: str) -> int:
            return int((np.isin(name_ids, ids(*kind)) & np.isin(parent_name, ids(*names))).sum())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        bessel_calls = calls(*BESSEL)
        m = {
            "bessel.j.calls": calls("bessel.j"),
            "bessel.h1.calls": calls("bessel.h1"),
            "bessel.self_s": self_s(*BESSEL),
            "bessel.us_per_call": 1e6 * ratio(self_s(*BESSEL), bessel_calls),
            "bessel.scaled_frac": ratio(self.scaled, bessel_calls),
        }
        for layer in ("modal.shell_norm", "modal.conductor_norm", "modal.solve"):
            m[f"{layer}.calls"] = calls(layer)
            m[f"{layer}.self_s"] = self_s(layer)
            m[f"{layer}.bessel_per_call"] = ratio(children(BESSEL, layer), calls(layer))
        shell = name_ids == self.names.index("modal.shell_norm")
        m["modal.shell_norm.ms_per_call"] = 1e3 * ratio(float(dur[shell].sum()), calls("modal.shell_norm"))
        for layer in ("modal.eval", "skin", "profiles", "modal.fit", "ibc", "params", "cli"):
            m[f"{layer}.calls"] = calls(layer)
            m[f"{layer}.self_s"] = self_s(layer)
        m["skin.samples_per_root"] = ratio(children(("modal.eval", "profiles"), "skin"), calls("skin"))
        m["harness.self_s"] = self_s(HARNESS)
        per_pass = {k: v / passes for k, v in m.items() if not k.endswith(("_per_call", "_frac", "_per_root"))}
        m.update(per_pass)
        m["trace.self_s"] = float(self_time.sum()) / passes
        return m

"""Spans around evperf's public functions, installed from outside the package.

A ``Tracer`` replaces each traced function with a wrapper at the place its
caller looks it up (``evperf.gbdt.build_tree`` for ``train``,
``evperf.metrics.train`` for ``cross_validate``, ``evperf.cli.explain_matrix``
for the CLI, ...) and puts the original back on ``uninstall``. Spans (name,
start, end, parent) stay in memory; ``layer_metrics`` turns the spans of one
round into the per-layer figures, and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

# (module the caller looks the name up in, attribute, span name)
TRACED = (
    ("evperf.cli", "synth_records", "physics.synth_records"),
    ("evperf.physics", "synth_records", "physics.synth_records"),
    ("evperf.cli", "diminishing_returns_sweep", "physics.diminishing_returns_sweep"),
    ("evperf.physics", "accel_time_0_100", "physics.accel_time_0_100"),
    ("evperf.cli", "load_csv", "data.load_csv"),
    ("evperf.cli", "build_dataset", "data.build_dataset"),
    ("evperf.gbdt", "build_tree", "gbdt.build_tree"),
    ("evperf.cli", "train", "gbdt.train"),
    ("evperf.metrics", "train", "gbdt.train"),
    ("evperf.gbdt", "train", "gbdt.train"),
    ("evperf.metrics", "predict_proba_batch", "gbdt.predict_proba_batch"),
    ("evperf.cli", "save_model", "gbdt.save_model"),
    ("evperf.cli", "load_model", "gbdt.load_model"),
    ("evperf.cli", "cross_validate", "metrics.cross_validate"),
    ("evperf.cli", "explain_matrix", "treeshap.explain_matrix"),
    ("evperf.cli", "interaction_values", "treeshap.interaction_values"),
    ("evperf.figures", "bar_chart", "figures"),
    ("evperf.figures", "scatter", "figures"),
    ("evperf.figures", "heatmap", "figures"),
    ("evperf.figures", "strip_plot", "figures"),
    ("evperf.figures", "force_chart", "figures"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    "physics.synth_records.s", "physics.diminishing_returns_sweep.s",
    "physics.accel_time_0_100.calls",
    "data.load_csv.s", "data.load_csv.rows", "data.build_dataset.s", "data.rows_dropped",
    "gbdt.build_tree.s", "gbdt.build_tree.calls", "gbdt.tree_nodes",
    "gbdt.train.s", "gbdt.train.calls", "gbdt.train.self_s",
    "gbdt.predict_proba_batch.s", "gbdt.save_model.s", "gbdt.load_model.s",
    "metrics.cross_validate.s", "metrics.cross_validate.self_s",
    "treeshap.explain_matrix.s", "treeshap.explain_matrix.rows",
    "treeshap.interaction_values.s", "treeshap.interaction_values.calls",
    "figures.s", "cli.self_s",
    "setup.physics.synth_records.s", "setup.gbdt.train.s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "calib.kernel_s",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    result: object = None  # what the call returned, for counts read afterwards


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, result: object = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.result = result
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            self.close(idx, result)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]
        path.write_text(json.dumps(rows), encoding="utf-8")


def _tree_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if node.feature >= 0:
            stack.extend((node.left, node.right))
    return count


def _self_time(spans: list[Span], idx: int, children: dict[int, list[int]]) -> float:
    """Span duration minus the part of it that its child spans cover.

    The program is single-threaded, so a span's children run one after
    another inside it and their durations add up to the part they cover.
    """
    span = spans[idx]
    covered = sum(spans[c].end - spans[c].start for c in children.get(idx, ()))
    return span.end - span.start - covered


def layer_metrics(spans: list[Span], first: int, invocations: int) -> dict[str, float]:
    """Per-invocation layer figures from spans[first:], which hold whole CLI calls.

    Times are seconds; counts are read from the objects the calls returned.
    Values are means over the ``invocations`` CLI calls the spans cover.
    """
    window = range(first, len(spans))
    children: dict[int, list[int]] = {}
    for i in window:
        children.setdefault(spans[i].parent, []).append(i)
    total: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0.0) + value

    for i in window:
        s = spans[i]
        duration = s.end - s.start
        if s.name == "cli":
            add("cli.self_s", _self_time(spans, i, children))
            continue
        add(f"{s.name}.s", duration)
        add(f"{s.name}.calls", 1)
        if s.name in ("gbdt.train", "metrics.cross_validate"):
            add(f"{s.name}.self_s", _self_time(spans, i, children))
        elif s.name == "gbdt.build_tree":
            add("gbdt.tree_nodes", _tree_nodes(s.result))
        elif s.name == "data.load_csv":
            add("data.load_csv.rows", len(s.result))
            add("data.rows_dropped", len(s.result))
        elif s.name == "data.build_dataset":
            add("data.rows_dropped", -s.result.n_samples)
        elif s.name == "treeshap.explain_matrix":
            add("treeshap.explain_matrix.rows", len(s.result))
            if total.get("data.load_csv.rows"):
                add("data.rows_dropped", -len(s.result))
    return {k: v / invocations for k, v in total.items()}


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer time spent while the workload made its inputs."""
    out = {"setup.physics.synth_records.s": 0.0, "setup.gbdt.train.s": 0.0}
    for s in spans:
        key = f"setup.{s.name}.s"
        if key in out and s.parent >= 0 and spans[s.parent].name == "setup":
            out[key] += s.end - s.start
    return out

"""In-memory spans around the program's stage functions, and the per-layer
metrics derived from them.

Spans are recorded only from the benchmark: each stage function is replaced,
in the namespace of the module that calls it (``robustgsl.pipeline``,
``robustgsl.cli`` or ``robustgsl.attack``), by a wrapper that opens a span,
calls the original and closes the span. No file under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str          # "<layer>.<what>", e.g. "refine.topk"
    parent: int | None  # index of the enclosing span, None for an op root
    op: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; while ``enabled`` is false every wrapper is a pass-through."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.enabled = False

    def open(self, name: str, op: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        self.spans.append(Span(name, parent, op, time.perf_counter(), time.process_time()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack.pop()
        return span

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a spanned version; ``count(args, result)``
        returns the span's counters and runs after the span is closed."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(idx)
            if count is not None:
                span.counts = count(args, result)
            return result

        setattr(module, attr, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _path_bytes(path) -> int:
    if os.path.isdir(path):
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    return os.path.getsize(path)


def _saved_bytes(args, _result) -> dict:
    return {"bytes_written": _path_bytes(args[-1])}


def _views_recovered(_args, views) -> dict:
    # Recovery views are base + recovered edges, so the edge-count excess is the
    # recovered count; random views add and drop equally and recover nothing.
    base = views.base.num_edges
    return {"edges_recovered": sum(max(0, v.num_edges - base) for v in views.views)}


def _topk_counts(args, refined) -> dict:
    retained, _, k = args[:3]
    n = retained.num_nodes
    return {
        "edges_inserted": refined.num_edges - 2 * retained.num_edges,
        "topk_dense_bytes": 8 * n * n if k > 0 and n > 1 else 0,
    }


# Span name and counters of each stage function, by attribute name.
STAGES = {
    "dice_attack": ("attack.dice", lambda _a, r: {"changes": r[1].num_changes}),
    "random_attack": ("attack.random", lambda _a, r: {"changes": r[1].num_changes}),
    "rough_preprocess": ("preprocess.rough", lambda _a, r: {"edges_removed": len(r[1])}),
    "make_views": ("preprocess.views", _views_recovered),
    "random_perturb_views": ("preprocess.random_views", _views_recovered),
    "identical_views": ("preprocess.identical_views", _views_recovered),
    "train_encoder": ("encoder.train", None),
    "prune_edges": ("refine.prune", lambda a, r: {"edges_pruned": a[0].num_edges - r.num_edges}),
    "topk_insert": ("refine.topk", _topk_counts),
    "removal_report": ("refine.audit", None),
    "train_classifier": ("classifier.train", None),
    "predict": ("classifier.predict", None),
    "load_graph_bundle": ("data_io.load_bundle", None),
    "load_edges": ("data_io.load_edges", None),
    "load_features": ("data_io.load_features", None),
    "read_report": ("data_io.read_report", None),
    "save_graph_bundle": ("data_io.save_bundle", _saved_bytes),
    "save_edges": ("data_io.save_edges", _saved_bytes),
    "save_features": ("data_io.save_features", _saved_bytes),
    "write_report": ("data_io.write_report", _saved_bytes),
    "generate_sbm": ("data_io.generate_sbm", None),
    "run_variant": ("pipeline.run_variant", None),
    "run_gcn_baseline": ("pipeline.run_gcn_baseline", None),
    "main": ("cli.main", None),
}
# The stage functions each module looks up at call time: the pipeline and the
# CLI call their imported names, the benchmark calls ``attack.<name>``.
CALL_SITES = {
    "attack": ("dice_attack", "random_attack"),
    "pipeline": ("rough_preprocess", "make_views", "random_perturb_views", "identical_views",
                 "train_encoder", "prune_edges", "topk_insert", "train_classifier",
                 "run_variant", "run_gcn_baseline"),
    "cli": ("dice_attack", "random_attack", "rough_preprocess", "make_views", "random_perturb_views",
            "identical_views", "train_encoder", "prune_edges", "topk_insert", "removal_report",
            "train_classifier", "predict", "load_graph_bundle", "load_edges", "load_features",
            "read_report", "save_graph_bundle", "save_edges", "save_features", "write_report",
            "generate_sbm", "main"),
}


def install(tracer: Tracer) -> None:
    """Wrap every stage function where the pipeline, the CLI and the benchmark
    itself look it up. A call site that no longer exists is an error: its
    time would otherwise land silently in the glue layers' self time."""
    for module_name, attrs in CALL_SITES.items():
        module = importlib.import_module(f"robustgsl.{module_name}")
        for attr in attrs:
            if not callable(getattr(module, attr, None)):
                raise RuntimeError(f"robustgsl.{module_name}.{attr} is gone; update CALL_SITES in spans.py")
            tracer.wrap(module, attr, *STAGES[attr])


def missing_layers(tracer: Tracer, ops: list[int], layers) -> list[str]:
    """The layers of ``layers`` that some traced op reached no span of."""
    op_set = set(ops)
    seen: dict[int, set] = {op: set() for op in ops}
    for s in tracer.spans:
        if s.op in op_set and s.parent is not None:
            seen[s.op].add(s.layer)
    return [layer for layer in layers if any(layer not in seen[op] for op in ops)]


# Spans whose time also counts toward a group metric of their layer.
GROUP_OF = {
    **dict.fromkeys(("data_io.load_bundle", "data_io.load_edges", "data_io.load_features",
                     "data_io.read_report"), "data_io.load"),
    **dict.fromkeys(("data_io.save_bundle", "data_io.save_edges", "data_io.save_features",
                     "data_io.write_report"), "data_io.save"),
    **dict.fromkeys(("preprocess.random_views", "preprocess.identical_views"), "preprocess.views"),
}


def layer_metrics(tracer: Tracer, ops: list[int], untraced_s: list[float]) -> tuple[dict, float]:
    """Per-op means of each layer's busy time and counters over the traced ops.

    Returns the metric values and the accounted ratio: layer busy time plus
    the self time of the glue layers (pipeline, cli) over the traced op time.
    """
    spans = tracer.spans
    op_set = set(ops)
    roots = {s.op: s for s in spans if s.parent is None and s.op in op_set}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def outermost(i: int) -> bool:
        # A span nested in a span of its own layer is already covered by it.
        layer, p = spans[i].layer, spans[i].parent
        while p is not None:
            if spans[p].layer == layer:
                return False
            p = spans[p].parent
        return True

    busy: dict[str, float] = {}
    cpu: dict[str, float] = {}
    counts: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.op not in op_set or s.parent is None:
            continue
        for key, value in s.counts.items():
            counts[f"{s.layer}.{key}"] = counts.get(f"{s.layer}.{key}", 0) + value
        if s.layer in ("pipeline", "cli"):
            busy[s.layer] = busy.get(s.layer, 0.0) + s.duration - child_time[i]
            continue
        if not outermost(i):
            continue
        for key in {s.layer, s.name, GROUP_OF.get(s.name, s.name)}:
            busy[key] = busy.get(key, 0.0) + s.duration
            cpu[key] = cpu.get(key, 0.0) + s.cpu_end - s.cpu_start

    n = len(roots)
    op_time = sum(r.duration for r in roots.values())
    per_op = lambda key: busy.get(key, 0.0) / n  # noqa: E731
    count = lambda key: counts.get(key, 0) / n  # noqa: E731
    share = lambda key: busy.get(key, 0.0) / op_time  # noqa: E731
    cpu_per_wall = lambda key: cpu[key] / busy[key] if busy.get(key) else 0.0  # noqa: E731
    layers = ("attack", "preprocess", "encoder", "refine", "classifier", "data_io", "pipeline", "cli")
    accounted = sum(busy.get(layer, 0.0) for layer in layers) / op_time
    traced_p50 = statistics.median(r.duration for r in roots.values())
    values = {
        "attack.busy_s": per_op("attack"),
        "attack.changes": count("attack.changes"),
        "preprocess.busy_s": per_op("preprocess"),
        "preprocess.views_busy_s": per_op("preprocess.views"),
        "preprocess.edges_removed": count("preprocess.edges_removed"),
        "preprocess.edges_recovered": count("preprocess.edges_recovered"),
        "encoder.busy_s": per_op("encoder"),
        "encoder.share": share("encoder"),
        "encoder.cpu_per_wall": cpu_per_wall("encoder"),
        "refine.busy_s": per_op("refine"),
        "refine.prune_busy_s": per_op("refine.prune"),
        "refine.topk_busy_s": per_op("refine.topk"),
        "refine.edges_pruned": count("refine.edges_pruned"),
        "refine.edges_inserted": count("refine.edges_inserted"),
        "refine.topk_dense_bytes": count("refine.topk_dense_bytes"),
        "classifier.busy_s": per_op("classifier"),
        "classifier.share": share("classifier"),
        "classifier.cpu_per_wall": cpu_per_wall("classifier"),
        "pipeline.self_s": per_op("pipeline"),
        "data_io.load_busy_s": per_op("data_io.load"),
        "data_io.save_busy_s": per_op("data_io.save"),
        "data_io.bytes_written": count("data_io.bytes_written"),
        "cli.self_s": per_op("cli"),
        "trace.op_p50_s": traced_p50,
        "trace.overhead_ratio": traced_p50 / statistics.median(untraced_s),
        "trace.accounted_ratio": accounted,
    }
    return values, accounted

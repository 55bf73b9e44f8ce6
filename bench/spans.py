"""In-memory span tracer that wraps clickrisk's public functions from outside.

Wrappers are installed at the module attributes where callers look the
functions up (`cli` imports `calibrate_threshold` by name, so the traced
binding is `clickrisk.cli.calibrate_threshold`, not only the one in
`clickrisk.risk`), and `restore` puts every original object back.

Spans go only on layer boundaries. Per-item hot functions
(`metrics.admission`, `records.select_mlg`, `special.betainc`,
`cascade.decide`, `uq.combine`) are never wrapped: wrapping them costs
more than the work they do. `risk.cp_upper_bound` is called once per
threshold candidate, so it gets a counter and no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("records", "density", "uq", "risk", "special", "metrics", "cascade", "synthgen", "cli")
CLI_STAGES = ("score", "calibrate", "evaluate", "cascade", "sweep", "synth", "guarantee")


def _count_load(tracer, args, kwargs, result):
    tracer.counts["records.bytes_read"] += os.path.getsize(args[0])
    tracer.counts["records.loaded"] += len(result)


def _count_save(tracer, args, kwargs, result):
    tracer.counts["records.bytes_written"] += os.path.getsize(args[0])
    tracer.counts["records.saved"] += len(args[1])


def _count_grid(tracer, args, kwargs, result):
    tracer.counts["density.grid_bytes"] += result.values.nbytes


def _count_routed(tracer, args, kwargs, result):
    tracer.counts["cascade.records_routed"] += len(args[0])


def _count_generated(tracer, args, kwargs, result):
    tracer.counts["synthgen.generated"] += len(result)


# (span name, hook, bindings as "module:attribute"). The span name is
# "<layer>.<function>"; every binding of one function shares it.
SPANS = (
    ("records.load_records", _count_load, ("records:load_records", "cli:load_records")),
    ("records.save_records", _count_save, ("records:save_records", "cli:save_records")),
    ("records.split", None, ("records:split", "cli:split", "synthgen:split")),
    ("density.build_density_map", _count_grid,
     ("density:build_density_map", "uq:build_density_map", "cli:build_density_map")),
    ("density.extract_regions", None, ("density:extract_regions", "uq:extract_regions")),
    ("density.score_regions", None, ("density:score_regions", "uq:score_regions")),
    ("uq.score_record", None, ("uq:score_record", "cli:score_record", "synthgen:score_record")),
    ("uq.top_ambiguity", None, ("uq:top_ambiguity",)),
    ("uq.info_dispersion", None, ("uq:info_dispersion",)),
    ("uq.concentration_deficit", None, ("uq:concentration_deficit",)),
    ("risk.calibrate_threshold", None,
     ("risk:calibrate_threshold", "cli:calibrate_threshold", "synthgen:calibrate_threshold")),
    ("risk.empirical_fdr", None, ("risk:empirical_fdr", "metrics:empirical_fdr", "synthgen:empirical_fdr")),
    ("special.beta_quantile", None, ("special:beta_quantile", "risk:beta_quantile")),
    ("metrics.auroc", None, ("metrics:auroc",)),
    ("metrics.auarc", None, ("metrics:auarc",)),
    ("metrics.fdr_at", None, ("metrics:fdr_at",)),
    ("metrics.power_at", None, ("metrics:power_at",)),
    ("metrics.evaluate_split", None, ("metrics:evaluate_split",)),
    ("metrics.roc_points", None, ("metrics:roc_points",)),
    ("metrics.arc_points", None, ("metrics:arc_points",)),
    ("metrics.aggregate", None, ("metrics:aggregate",)),
    ("cascade.evaluate_cascade", _count_routed, ("cascade:evaluate_cascade",)),
    ("cascade.emit_deferrals", None, ("cascade:emit_deferrals",)),
    ("synthgen.generate_dataset", _count_generated, ("synthgen:generate_dataset", "cli:generate_dataset")),
    ("synthgen.run_guarantee_trials", None, ("synthgen:run_guarantee_trials", "cli:run_guarantee_trials")),
) + tuple((f"cli.{stage}", None, (f"cli:cmd_{stage}",)) for stage in CLI_STAGES)

# Counted, not spanned: one call per threshold candidate.
COUNTERS = (("risk.bound_calls", ("risk:cp_upper_bound",)),)


def _resolve(binding: str):
    module, attr = binding.split(":")
    return importlib.import_module(f"clickrisk.{module}"), attr


def bindings() -> list[tuple[object, str]]:
    """Every (module, attribute) the tracer replaces."""
    out = []
    for _, _, names in SPANS:
        out.extend(_resolve(b) for b in names)
    for _, names in COUNTERS:
        out.extend(_resolve(b) for b in names)
    return out


class Tracer:
    """Records one span per wrapped call: (name, parent index, start ns, end ns)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, hook, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, hook, names in SPANS:
            for binding in names:
                module, attr = _resolve(binding)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._span(name, hook, original))
        for name, names in COUNTERS:
            for binding in names:
                module, attr = _resolve(binding)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._counter(name, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path) -> None:
        """One JSON line per span: [index, parent, name, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end]))
                fh.write("\n")

    def layer_metrics(self, busy_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        `busy_s` is the time the measured phase spent in calls into the
        program, the denominator of the `*.self_frac` shares.
        """
        n = len(self.spans)
        total = defaultdict(int)  # inclusive ns per span name
        self_ns = defaultdict(int)  # exclusive ns per span name
        calls = Counter()
        child_ns = [0] * n
        layer_top_ns = defaultdict(int)  # inclusive ns of spans not called from their own layer
        root_ns = 0
        for i in range(n - 1, -1, -1):
            name, parent, start, end = self.spans[i]
            dur = end - start
            total[name] += dur
            calls[name] += 1
            self_ns[name] += dur - child_ns[i]
            layer = name.split(".", 1)[0]
            if parent >= 0:
                child_ns[parent] += dur
                if self.spans[parent][0].split(".", 1)[0] != layer:
                    layer_top_ns[layer] += dur
            else:
                root_ns += dur
                layer_top_ns[layer] += dur
        c = self.counts

        def per(ns, count, unit_ns):
            """Time per item in the given unit; 0 without items."""
            return ns / count / unit_ns if count else 0.0

        m = {
            "records.load_us_per_rec": per(total["records.load_records"], c["records.loaded"], 1e3),
            "records.save_us_per_rec": per(total["records.save_records"], c["records.saved"], 1e3),
            "records.split_ms": per(total["records.split"], calls["records.split"], 1e6),
            "records.bytes_read": float(c["records.bytes_read"]),
            "records.bytes_written": float(c["records.bytes_written"]),
            "density.build_us_per_rec": per(
                total["density.build_density_map"], calls["density.build_density_map"], 1e3),
            "density.extract_us_per_rec": per(
                total["density.extract_regions"], calls["density.extract_regions"], 1e3),
            "density.regions_us_per_rec": per(
                total["density.score_regions"], calls["density.score_regions"], 1e3),
            "density.grid_bytes_per_rec": (
                c["density.grid_bytes"] / calls["density.build_density_map"]
                if calls["density.build_density_map"] else 0.0),
            "uq.components_us_per_rec": per(
                total["uq.top_ambiguity"] + total["uq.info_dispersion"]
                + total["uq.concentration_deficit"], calls["uq.score_record"], 1e3),
            "uq.score_record_self_us": per(self_ns["uq.score_record"], calls["uq.score_record"], 1e3),
            "risk.calibrate_ms": per(
                total["risk.calibrate_threshold"], calls["risk.calibrate_threshold"], 1e6),
            "risk.bound_calls": float(c["risk.bound_calls"]),
            "risk.bound_miss_ratio": (
                calls["special.beta_quantile"] / c["risk.bound_calls"] if c["risk.bound_calls"] else 0.0),
            "special.quantile_us": per(
                total["special.beta_quantile"], calls["special.beta_quantile"], 1e3),
            "special.quantile_calls": float(calls["special.beta_quantile"]),
            "metrics.eval_ms_per_split": per(layer_top_ns["metrics"], calls["records.split"], 1e6),
            "cascade.evaluate_ms": per(
                total["cascade.evaluate_cascade"], calls["cascade.evaluate_cascade"], 1e6),
            "cascade.records_routed": float(c["cascade.records_routed"]),
            "synthgen.generate_us_per_rec": per(
                total["synthgen.generate_dataset"], c["synthgen.generated"], 1e3),
        }
        for stage in CLI_STAGES:
            m[f"cli.{stage}_s"] = per(total[f"cli.{stage}"], 1, 1e9)
            m[f"cli.{stage}_self_s"] = per(self_ns[f"cli.{stage}"], 1, 1e9)
        busy_ns = busy_s * 1e9
        for layer in LAYERS:
            layer_self = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == layer)
            m[f"{layer}.self_frac"] = layer_self / busy_ns if busy_ns else 0.0
        m["trace.unattributed_frac"] = (busy_ns - root_ns) / busy_ns if busy_ns else 0.0
        m["trace.spans"] = float(n)
        return m

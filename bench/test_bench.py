"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = [(840, 840, 10)] * 20 + [(1920, 1080, 50)] * 10


def test_generator_is_deterministic_for_a_seed(tmp_path):
    paths = []
    for i, seed in enumerate((7, 7, 8)):
        d = tmp_path / str(i)
        d.mkdir()
        paths.append(workloads.write_inputs("score_hires", seed, str(d), SMALL))
    first, again, other = (open(p, "rb").read() for p in paths)
    assert first == again
    assert first != other
    assert workloads.input_shapes("score_hires", 3) == workloads.input_shapes("score_hires", 3)


def test_traced_run_restores_every_wrapped_attribute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    raw = workloads.write_inputs("pipeline", 1, str(tmp_path), [(840, 840, 10)] * 400)
    originals = {(m.__name__, a): getattr(m, a) for m, a in spans.bindings()}
    tracer = spans.Tracer()
    with tracer:
        assert all(getattr(m, a) is not originals[m.__name__, a] for m, a in spans.bindings())
        pipeline = workloads.run_pipeline(1, raw, n_records=400)
        sweep = workloads.run_sweep(1, raw, ["--variants", "com,cd", "-r", "2"])
    assert all(getattr(m, a) is originals[m.__name__, a] for m, a in spans.bindings())
    assert all(pipeline["ok"].values()) and sweep["ok"]["sweep"]
    layers = tracer.layer_metrics((sweep["end_ns"] - pipeline["start_ns"]) / 1e9)
    assert layers["special.quantile_calls"] > 0 and layers["records.bytes_written"] > 0
    assert layers["cli.sweep_s"] > 0 and layers["cli.guarantee_s"] > 0


def test_golden_check_flags_a_single_changed_byte(tmp_path):
    path = tmp_path / "risk.csv"
    path.write_bytes(b"input,variant\nraw.jsonl,com\n")
    golden = {"risk.csv": workloads.sha256_file(str(path))}
    ops = [("sweep", 1, ["risk.csv"])]
    unit = {"ok": {"sweep": True}, "digests": {"risk.csv": workloads.sha256_file(str(path))}}
    assert run.check_unit(unit, ops, golden) == (1, 0)
    data = bytearray(path.read_bytes())
    data[5] ^= 0x01
    path.write_bytes(bytes(data))
    unit["digests"]["risk.csv"] = workloads.sha256_file(str(path))
    assert run.check_unit(unit, ops, golden) == (1, 1)
    assert run.check_unit(None, ops, golden) == (1, 1)


def test_metric_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    emitted = set(spans.Tracer().layer_metrics(1.0)) | {"trace.overhead_frac"}
    assert per_layer == emitted
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

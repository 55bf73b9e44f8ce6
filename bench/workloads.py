"""The benchmark's workloads: their inputs, why each was chosen, and how one unit runs.

A unit is what one child process measures: three passes of decisions over the
score_hires records, one `clickrisk sweep`, or one run of the six-stage
pipeline. Every unit starts in a fresh process, so lazy caches such as the
`cp_upper_bound` LRU are cold for each unit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

import gen

# Fixed acceptance threshold for the decision loops; about half of the
# generated records score at or below it, so both branches of `decide` run.
TAU = 0.85
# On sweep_grid and pipeline the set-up children each time one pass of
# decisions over the first PROBE_RECORDS input records (840x840, K=10), so
# that decide_us_p50/p99 are measured on every workload.
PROBE_RECORDS = 2000
# Passes over the records in a score_hires unit. A record's latency is its
# median pass (on the probe: its median over the set-up children).
PASSES = 3

SIDE = 840
N_SWEEP = 2000
N_PIPELINE = 10000


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # separates the input streams of workloads that share a seed
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "score_hires", 1,
            "3000 records at 1080p/4K/8K, K=10 and K=50, one score_record+decide each: "
            "the dense grid grows with screen area, so density and uq do ~all the work",
        ),
        Workload(
            "sweep_grid", 2,
            "clickrisk sweep over 2000 records at 840x840: 24 combos x 3 alphas x 20 reps = "
            "1440 calibrations, dominated by the repeated-split loops and bound lookups",
        ),
        Workload(
            "pipeline", 3,
            "synth, score, calibrate, evaluate, cascade, guarantee on 10000 records: "
            "the only workload that writes JSONL, and it calibrates at n_cal=5000",
        ),
    )
}


def hires_shapes() -> list[tuple[int, int, int]]:
    """Equal thirds per resolution; half of all records at K=10, half at K=50.

    1080p is all K=10; 4K and 8K are each 250 at K=10 and 750 at K=50.
    Sorted by latency the records form one band per resolution (1080p at
    ranks 1-1000, 4K about 1001-2000, 8K about 2001-3000), K=10 before
    K=50 within a band as far as they do not overlap. The p50 (rank 1500)
    then lies in the middle of the 4K band, inside its K=50 part, and the
    p99 (rank 2970) among the slowest 8K K=50 records: neither rank sits on
    a boundary between two classes.
    """
    return (
        [(1920, 1080, 10)] * 1000
        + [(3840, 2160, 10)] * 250
        + [(3840, 2160, 50)] * 750
        + [(7680, 4320, 10)] * 250
        + [(7680, 4320, 50)] * 750
    )


def input_shapes(name: str, seed: int) -> list[tuple[int, int, int]]:
    if name == "score_hires":
        shapes = hires_shapes()
        order = np.random.default_rng([seed, WORKLOADS[name].tag, 1]).permutation(len(shapes))
        return [shapes[i] for i in order]
    if name == "sweep_grid":
        return [(SIDE, SIDE, 10)] * N_SWEEP
    if name == "pipeline":
        return [(SIDE, SIDE, 10)] * N_PIPELINE
    raise KeyError(name)


def write_inputs(name: str, seed: int, directory: str, shapes=None) -> str:
    """Write the workload's raw record file for `seed`; returns its path."""
    shapes = shapes if shapes is not None else input_shapes(name, seed)
    path = os.path.join(directory, "raw.jsonl")
    gen.write_jsonl(path, gen.make_records(seed, WORKLOADS[name].tag, shapes))
    return path


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------------
# units, run inside the child process

def uq_configs(records):
    from clickrisk.uq import UqConfig

    return {k: UqConfig(k_samples=k) for k in sorted({len(r.samples) for r in records})}


def decision_pass(records, configs, passes: int = PASSES) -> dict:
    """Score and decide every record `passes` times, in file order.

    `latencies_ns` and `starts_ns` hold one list per pass: each decision's
    time and the `perf_counter_ns` it started at. The digest covers the
    ordered (id, uq, decision) stream, which must be the same on every pass.
    """
    from clickrisk import cascade, uq

    score_record, decide = uq.score_record, cascade.decide  # looked up after tracing starts
    latencies, starts, digests = [], [], set()
    start_ns = perf_counter_ns()
    for _ in range(passes):
        lat, st, out = [], [], []
        for record in records:
            cfg = configs[len(record.samples)]
            t = perf_counter_ns()
            score = score_record(record, cfg)
            decision = decide(score.combined, TAU)
            lat.append(perf_counter_ns() - t)
            st.append(t)
            out.append((record.id, score, decision))
        latencies.append(lat)
        starts.append(st)
        h = hashlib.sha256()
        for rec_id, s, d in out:
            h.update(f"{rec_id}\t{s.ta!r}\t{s.ie!r}\t{s.cd!r}\t{s.combined!r}\t{d.value}\n".encode())
        digests.add(h.hexdigest())
    return {
        "latencies_ns": latencies,
        "starts_ns": starts,
        "busy_s": sum(map(sum, latencies)) / 1e9,
        "start_ns": start_ns,
        "end_ns": perf_counter_ns(),
        "digest": digests.pop() if len(digests) == 1 else "passes disagree",
    }


def record_latencies_us(passes: list[list[float]]) -> list[float]:
    """Each record's median latency over its passes, in microseconds.

    The median over passes made at different moments drops the passes a
    burst of interference from other processes on the host hit.
    """
    return [statistics.median(per) / 1e3 for per in zip(*passes)]


def _cli(argv: list[str]) -> int:
    """Run one CLI command in-process; an exception counts as a failure."""
    from clickrisk import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return -1


SWEEP_ARGS = [
    "--alphas", "0.34,0.42,0.50", "--variants", "com,ta,ie,cd",
    "--weight-presets", "original,v1,v2", "--k-values", "5,10", "--ratio", "0.2", "-r", "20",
]
SWEEP_CALIBRATIONS = 4 * 3 * 2 * 3 * 20


def pipeline_stages(seed: int, raw: str, n_records: int) -> list[tuple[str, list[str], list[str]]]:
    """(stage, argv, files the stage writes), in order; paths relative to the cwd."""
    s = ["--seed", str(seed)]
    return [
        ("synth", s + ["synth", "--out", "synth.jsonl", "--n-records", str(n_records)],
         ["synth.jsonl"]),
        ("score", s + ["score", "-i", raw, "-o", "scored.jsonl"], ["scored.jsonl"]),
        ("calibrate", s + ["calibrate", "-i", "scored.jsonl", "-o", "artifact.json",
                           "-r", "1", "--ratio", "0.5", "--alpha", "0.2"], ["artifact.json"]),
        ("evaluate", s + ["evaluate", "-i", "scored.jsonl", "--alpha", "0.2", "--ratio", "0.5",
                          "-r", "20", "--report", "report.json", "--roc-csv", "roc.csv",
                          "--arc-csv", "arc.csv"], ["report.json", "roc.csv", "arc.csv"]),
        ("cascade", s + ["cascade", "-i", "scored.jsonl", "--artifact", "artifact.json",
                         "--manifest", "deferred.jsonl", "--report", "cascade.json"],
         ["cascade.json", "deferred.jsonl"]),
        ("guarantee", s + ["guarantee", "--trials", "30", "--out-csv", "trials.csv"], ["trials.csv"]),
    ]


# calibrate -r 1, evaluate -r 20 and guarantee --trials 30 each calibrate once per split
PIPELINE_CALIBRATIONS = 1 + 20 + 30


def run_sweep(seed: int, raw: str, sweep_args=SWEEP_ARGS) -> dict:
    """One sweep into ./sweep; digests of ranking.csv and risk.csv."""
    start = perf_counter_ns()
    rc = _cli(["--seed", str(seed), "sweep", "-i", raw, "--out-dir", "sweep"] + sweep_args)
    end = perf_counter_ns()
    digests = {}
    if rc == 0:
        digests = {f: sha256_file(os.path.join("sweep", f)) for f in ("ranking.csv", "risk.csv")}
    return {"start_ns": start, "end_ns": end, "ok": {"sweep": rc == 0}, "digests": digests}


def run_pipeline(seed: int, raw: str, n_records: int = N_PIPELINE) -> dict:
    """The six stages in order; digests of every file each stage writes."""
    ok, digests = {}, {}
    stages = pipeline_stages(seed, raw, n_records)
    start = perf_counter_ns()
    for stage, argv, _ in stages:
        ok[stage] = _cli(argv) == 0
    end = perf_counter_ns()
    for stage, _, files in stages:
        if ok[stage]:
            digests.update({f: sha256_file(f) for f in files})
    return {"start_ns": start, "end_ns": end, "ok": ok, "digests": digests}

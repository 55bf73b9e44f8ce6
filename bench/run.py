"""clickrisk benchmark: one workload, one seed, one line of JSON at the end.

    python3 bench/run.py --workload score_hires --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout that holds `src/clickrisk`. It writes
the workload's inputs from `--seed` before any timing, then starts fresh
child processes (`bench/child.py`) one after another, each measuring one
unit of the workload, until `--seconds` of measured time have passed.
Meanwhile `bench/speed.py` samples the host's speed in a process of its
own, pinned to the children's CPU; every time is reported at nominal
speed, its raw value beside it.
Other children, half before and half after those units, only start and
set up, to give `setup_s` several samples; on sweep_grid and pipeline
each of them then makes one pass of the decision probe.
With `--trace 1` one more child runs the same unit with spans installed
and the per-layer metrics are reported instead of the end-to-end ones.

Every child's outputs are hashed and compared with `bench/goldens.json`;
a mismatch, an exception or a nonzero exit counts as a failed operation.
Work files go to `.bench_work/` (removed at the end) and span dumps to
`.bench_out/`, both under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import workloads  # noqa: E402
from speed import Speed  # noqa: E402

SETUP_SAMPLES = 17  # set-up is timed in this many children per run, the median reported
RUN_BUDGET_S = 170.0  # a run never starts work that could take it past 180 s
GOLDENS = os.path.join(HERE, "goldens.json")
# The children and the speed sampler share one CPU, so the sampler sees the
# contention the children see (the CPUs of a shared VM slow down apart).
CPU = min(os.sched_getaffinity(0))


class ChildFailed(Exception):
    pass


def child_ops(workload: str, mode: str, n_records: int) -> list[tuple[str, int, list[str]]]:
    """(operation, how many it counts for, digest keys it must match) for one child."""
    if mode == "setup":
        return [("setup", 1, [])] + ([] if workload == "score_hires" else [("probe", 1, ["probe"])])
    if workload == "score_hires":
        return [("decisions", n_records, ["stream"])]
    if workload == "sweep_grid":
        return [("sweep", 1, ["ranking.csv", "risk.csv"])]
    return [(stage, 1, files) for stage, _, files in workloads.pipeline_stages(0, "raw.jsonl", n_records)]


def pin() -> None:
    os.sched_setaffinity(0, {CPU})


def child_env() -> dict:
    env = dict(os.environ)
    # one caller, no helper threads: keep BLAS pools and hash seeds out of the timings
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(workload: str, seed: int, raw: str, mode: str, cwd: str, timeout: float,
          spans_out: str | None = None) -> dict:
    """Start one child, wait for it, and return its JSON result."""
    os.makedirs(cwd, exist_ok=True)
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--raw", raw, "--mode", mode]
    if spans_out:
        argv += ["--spans-out", spans_out]
    t0 = time.perf_counter_ns()
    try:
        proc = subprocess.run(argv + ["--t0", str(t0)], cwd=cwd, env=child_env(), preexec_fn=pin,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return dict(json.loads(lines[-1]), t0_ns=t0)
    except ValueError:
        raise ChildFailed(f"{mode} child printed no result: {lines[-1][:200]!r}")


def start_sampler() -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.join(HERE, "speed.py")], env=child_env(),
                            preexec_fn=pin, stdout=subprocess.PIPE, text=True)


def stop_sampler(proc: subprocess.Popen) -> list:
    """Stop the speed sampler, wait for it, and return its samples ([] if it failed)."""
    proc.terminate()
    try:
        out, _ = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return []
    return json.loads(out) if proc.returncode == 0 and out else []


def timings(children: list[tuple[str, dict]], speed: Speed | None) -> dict:
    """Set-up, unit and decision times of the children, scaled by `speed` (raw if None).

    Scaled times leave out the time the sampler held the children's CPU.
    """
    at = speed.at if speed else (lambda t: 1.0)
    over = speed.over if speed else (lambda start, end: 1.0)
    sampling = speed.sampling_ns if speed else (lambda start, end: 0)

    def span_s(start: int, end: int) -> float:
        return (end - start - sampling(start, end)) / 1e9 * over(start, end)

    def passes(r: dict) -> list[list[float]]:
        return [[(ns - sampling(t, t + ns)) * at(t) for ns, t in zip(lat, st)]
                for lat, st in zip(r["latencies_ns"], r["starts_ns"])]

    out = {
        "setup_s": [span_s(r["t0_ns"], r["setup_end_ns"]) for _, r in children],
        "unit_s": {mode: [span_s(r["start_ns"], r["end_ns"]) for m, r in children if m == mode]
                   for mode in ("run", "trace")},
    }
    units = [r for mode, r in children if mode == "run"]
    if units and "latencies_ns" in units[0]:  # score_hires: the passes within each unit
        out["latencies_us"] = [us for u in units for us in workloads.record_latencies_us(passes(u))]
    else:  # the decision probe: one pass in each set-up child
        out["latencies_us"] = workloads.record_latencies_us(
            [p for mode, r in children if mode == "setup" for p in passes(r)])
    return out


def prepare_inputs(workload: str, seed: int, work: str) -> tuple[str, list[tuple[int, int, int]]]:
    """Write the workload's raw records; returns their path and (width, height, K) shapes."""
    shapes = workloads.input_shapes(workload, seed)
    os.makedirs(os.path.join(work, "inputs"))
    return workloads.write_inputs(workload, seed, os.path.join(work, "inputs"), shapes), shapes


def rank_index(n: int, q: float) -> int:
    """Index of the nearest-rank q-th percentile (q in (0, 100]) among n sorted values."""
    return max(0, math.ceil(q / 100.0 * n) - 1)


def percentile(values: list[float], q: float) -> float:
    return sorted(values)[rank_index(len(values), q)]


def class_notes(latencies: list[float], shapes: list[tuple[int, int, int]]) -> list[str]:
    """Median latency per (resolution, K) class, and the class the p50 and p99 land in."""
    by_class = defaultdict(list)
    for us, shape in zip(latencies, shapes):
        by_class[shape].append(us)
    notes = [f"class {w}x{h} K={k}: {len(v)} decisions, median {statistics.median(v):.0f} us"
             for (w, h, k), v in sorted(by_class.items())]
    ranked = sorted(zip(latencies, shapes))
    for q in (50, 99):
        w, h, k = ranked[rank_index(len(ranked), q)][1]
        notes.append(f"decide_us_p{q} lands on a {w}x{h} K={k} record")
    return notes


def check_unit(result: dict | None, ops, reference: dict) -> tuple[int, int]:
    """(attempted, failed) for one unit; a missing result fails every operation."""
    attempted = sum(weight for _, weight, _ in ops)
    if result is None:
        return attempted, attempted
    failed = 0
    for op, weight, keys in ops:
        ok = result["ok"].get(op, False) and all(
            result["digests"].get(k) is not None and result["digests"].get(k) == reference.get(k)
            for k in keys
        )
        failed += 0 if ok else weight
    return attempted, failed


def load_goldens() -> dict:
    with open(GOLDENS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[bool, dict, list[str]]:
    started = time.monotonic()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=os.path.join(ROOT, ".bench_work"))
    notes: list[str] = []
    children: list[tuple[str, dict | None]] = []  # (mode, result or None when it failed)

    def child(mode: str, timeout: float, **kw) -> dict | None:
        try:
            result = spawn(workload, seed, raw, mode, os.path.join(work, f"{mode}{len(children)}"),
                           timeout, **kw)
        except ChildFailed as exc:
            notes.append(f"failure: {exc}")
            result = None
        children.append((mode, result))
        return result

    def remaining() -> float:
        return max(1.0, RUN_BUDGET_S - (time.monotonic() - started))

    def n_runs() -> int:
        return sum(mode == "run" for mode, _ in children)

    sampler = None
    try:
        raw, shapes = prepare_inputs(workload, seed, work)
        n_records = len(shapes)
        sampler = start_sampler()
        # set-up children before and after the units spread the decision
        # probe's passes and the set-up samples over the whole run
        for _ in range(SETUP_SAMPLES // 2):
            child("setup", 30.0)
        measured = 0.0
        while measured < seconds and (not n_runs() or remaining() > 80.0):
            result = child("run", remaining())
            measured = measured + (result["end_ns"] - result["start_ns"]) / 1e9 if result else seconds
        if trace:
            spans_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(spans_dir, exist_ok=True)
            child("trace", remaining(),
                  spans_out=os.path.join(spans_dir, f"spans-{workload}-seed{seed}.jsonl"))
        while len(children) < SETUP_SAMPLES and remaining() > 10.0:
            child("setup", min(30.0, remaining()))
    finally:
        samples = stop_sampler(sampler) if sampler else []
        shutil.rmtree(work, ignore_errors=True)

    golden = load_goldens().get(workload, {}).get(str(seed))
    if golden is not None:
        reference = golden
        notes.append(f"golden: outputs checked against the recorded digests for seed {seed}")
    else:
        reference = {}
        for _, result in children:
            for key, digest in (result or {}).get("digests", {}).items():
                reference.setdefault(key, digest)
        notes.append(f"golden: skipped, no recorded digests for seed {seed}; "
                     "the children of this run were only compared with each other")
    attempted = failed = 0
    for mode, result in children:
        a, f = check_unit(result, child_ops(workload, mode, n_records), reference)
        attempted, failed = attempted + a, failed + f
    if failed:
        return False, {"attempted": attempted, "failed": failed}, notes

    runs = n_runs()
    probe_passes = sum(mode == "setup" for mode, _ in children)
    if not runs or (workload != "score_hires" and not probe_passes):
        notes.append("failure: no unit or no decision latencies were measured within the time budget")
        return False, {"attempted": attempted, "failed": failed}, notes
    passes = workloads.PASSES if workload == "score_hires" else 1
    calibrations = {"sweep_grid": workloads.SWEEP_CALIBRATIONS,
                    "pipeline": workloads.PIPELINE_CALIBRATIONS}.get(workload, 0)

    def summarize(t: dict) -> dict:
        wall = sum(t["unit_s"]["run"])
        return {
            "setup_s": (statistics.median(t["setup_s"]), "s"),
            "records_per_s": (n_records * passes * runs / wall, "1/s"),
            "decide_us_p50": (percentile(t["latencies_us"], 50), "us"),
            "decide_us_p99": (percentile(t["latencies_us"], 99), "us"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for m, r in children if m == "run"), "MB"),
            "calibrations_per_s": (calibrations * runs / wall, "1/s"),
            "fail_frac": (failed / attempted, "1"),
        }

    t = timings(children, Speed(samples))
    summary, unscaled = summarize(t), summarize(timings(children, None))
    notes.append(f"{runs} measured unit(s) in {sum(t['unit_s']['run']):.2f} s, {len(children)} set-up "
                 f"samples, {len(t['latencies_us'])} decision latencies"
                 + ("" if workload == "score_hires" else
                    f" (decision probe: median of {probe_passes} passes per record)")
                 + f"; {len(samples)} speed samples")
    if workload == "score_hires":
        notes.extend(class_notes(t["latencies_us"], shapes * runs))
    for name, (value, unit) in summary.items():
        notes.append(f"{workload} {name} = {value:.6g} {unit} (raw {unscaled[name][0]:.6g})")
    if trace:
        layers = dict(next(r for mode, r in children if mode == "trace")["layers"])
        layers["trace.overhead_frac"] = t["unit_s"]["trace"][0] / statistics.median(t["unit_s"]["run"]) - 1.0
        return True, {"attempted": attempted, "failed": failed, "per_layer": layers}, notes
    return True, {"attempted": attempted, "failed": failed, "summary": summary}, notes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "clickrisk", "__init__.py")):
        print(f"error: no clickrisk sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    correct, result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in notes:
        print(line)
    metrics = {}
    if correct:
        if args.trace:
            metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: {"value": result["summary"][m["name"]][0], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": max(1, result["attempted"]),
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

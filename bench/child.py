"""One unit of a workload in a fresh process; prints one JSON line.

    python3 bench/child.py --workload NAME --seed N --raw FILE --t0 T --mode run|setup|trace

`--t0` is the parent's `time.perf_counter_ns()` just before it started
this process; set-up runs from there to `setup_end_ns`, the first
measured operation, so it covers interpreter start, `import clickrisk`
and, for score_hires, loading the records. In `setup` mode the child of
sweep_grid or pipeline then makes one pass of the decision probe. Run it
with its working directory set to an empty scratch directory: the CLI
stages write their outputs there. The child reports raw times with their
timestamps; the runner scales them to nominal host speed (`speed.py`).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import sys
from time import perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import clickrisk  # noqa: E402,F401  (part of the measured set-up)
from clickrisk.records import load_records, parse_records  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--raw", required=True)
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args()
    raw = os.path.abspath(args.raw)

    if args.workload == "score_hires":
        records = load_records(raw)
        configs = workloads.uq_configs(records)
    out: dict = {"setup_end_ns": perf_counter_ns(), "ok": {"setup": True}, "digests": {}}
    if args.mode == "setup":
        if args.workload != "score_hires":
            # one pass of the decision probe over the first PROBE_RECORDS records
            with open(raw, "r", encoding="utf-8") as fh:
                records = parse_records(itertools.islice(fh, workloads.PROBE_RECORDS))
            decisions = workloads.decision_pass(records, workloads.uq_configs(records), 1)
            out["latencies_ns"], out["starts_ns"] = decisions["latencies_ns"], decisions["starts_ns"]
            out["ok"]["probe"] = True
            out["digests"]["probe"] = decisions["digest"]
        print(json.dumps(out))
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    with tracer or contextlib.nullcontext():
        if args.workload == "score_hires":
            unit = workloads.decision_pass(records, configs)
            unit.update(ok={"decisions": True}, digests={"stream": unit.pop("digest")})
        elif args.workload == "sweep_grid":
            unit = workloads.run_sweep(args.seed, raw)
        else:
            unit = workloads.run_pipeline(args.seed, raw)
    out.update(unit)
    if tracer:
        out["layers"] = tracer.layer_metrics(unit.get("busy_s", (unit["end_ns"] - unit["start_ns"]) / 1e9))
        if args.spans_out:
            tracer.write(args.spans_out)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

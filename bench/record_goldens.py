"""Record the golden output digests for a range of seeds.

    python3 bench/record_goldens.py 0-31

Runs one unit of every workload per seed and writes the digests of its
outputs to bench/goldens.json, replacing the entries for those seeds.
Record them only when the program's outputs change on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

# Two recorders at once (one per core of a 2-vCPU machine) halve the time
# for 32 seeds; each runs in its own processes, so the digests are the same.
RECORDERS = 2


def digests(workload: str, seed: int) -> dict:
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"golden-{workload}-{seed}-", dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        raw, _ = run.prepare_inputs(workload, seed, work)
        # a set-up child makes the decision probe's pass on sweep_grid and pipeline
        results = [run.spawn(workload, seed, raw, mode, os.path.join(work, mode), run.RUN_BUDGET_S)
                   for mode in ("run", "setup")]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {}
    for result in results:
        if not all(result["ok"].values()):
            raise RuntimeError(f"{workload} seed {seed}: failed operations {result['ok']}")
        out.update(result["digests"])
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("seeds", help="inclusive range such as 0-31")
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    jobs = [(w, s) for s in seeds for w in workloads.WORKLOADS]
    with ThreadPoolExecutor(max_workers=RECORDERS) as pool:
        results = list(pool.map(lambda job: digests(*job), jobs))
    goldens = run.load_goldens()
    for (workload, seed), d in zip(jobs, results):
        goldens.setdefault(workload, {})[str(seed)] = d
    goldens = {
        w: {s: dict(sorted(d.items())) for s, d in sorted(by_seed.items(), key=lambda kv: int(kv[0]))}
        for w, by_seed in sorted(goldens.items())
    }
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(jobs)} digest sets for seeds {seeds.start}-{seeds.stop - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

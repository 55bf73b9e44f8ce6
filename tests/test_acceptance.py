"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is pinned in the test body.
"""

import math
import time
from fractions import Fraction

import numpy as np

from clickrisk import cli
from clickrisk.cascade import evaluate_cascade
from clickrisk.density import DensityMap, extract_regions
from clickrisk.metrics import admission, auarc, auroc
from clickrisk.records import GroundingRecord, select_mlg
from clickrisk.risk import RiskSpec, calibrate_threshold, cp_upper_bound
from clickrisk.synthgen import SynthConfig, generate_dataset, run_guarantee_trials
from clickrisk.uq import concentration_deficit, info_dispersion, score_record, top_ambiguity


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def binom_cdf(k, n, p):
    return math.fsum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def test_criterion_1_clopper_pearson_correctness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_dual = 0.0
    worst_zero = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        x = int(rng.integers(0, n + 1))
        delta = float(rng.choice([0.01, 0.05, 0.1]))
        bound = cp_upper_bound(x, n, delta)
        if x == n:
            assert bound == 1.0
            continue
        worst_dual = max(worst_dual, abs(binom_cdf(x, n, bound) - delta))
        if x == 0:
            worst_zero = max(worst_zero, abs(bound - (1.0 - delta ** (1.0 / n))))
    elapsed = time.perf_counter() - start
    ok = worst_dual <= 1e-8 and worst_zero <= 1e-10 and elapsed < 10.0
    report(1, ok, f"binomial dual error {worst_dual:.2e} (<=1e-8), "
                  f"zero-failure error {worst_zero:.2e} (<=1e-10), {elapsed:.1f}s (<10s)")


def test_criterion_2_threshold_search_equivalence():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 201))
        decimals = int(rng.integers(1, 4))
        u = np.round(rng.random(n), decimals).tolist()
        err = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int).tolist()
        spec = RiskSpec(alpha=float(rng.uniform(0.02, 0.6)), delta=float(rng.choice([0.01, 0.05, 0.1])))
        outcome = calibrate_threshold(u, err, spec)
        # independent scan: every candidate re-tested from scratch
        best = None
        for tau in sorted(set(u)):
            accepted = [1 for v in u if v <= tau]
            errors = sum(1 for v, e in zip(u, err) if v <= tau and e == 1)
            if cp_upper_bound(errors, len(accepted), spec.delta) <= spec.alpha:
                best = tau
        if (outcome.threshold if outcome.feasible else None) != best:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(2, ok, f"{mismatches}/200 brute-force mismatches, {elapsed:.1f}s (<30s)")


def test_criterion_3_finite_sample_guarantee():
    start = time.perf_counter()
    alpha, delta, trials = 0.2, 0.05, 1000
    result, _ = run_guarantee_trials(SynthConfig(seed=0), alpha, delta, trials)
    elapsed = time.perf_counter() - start
    limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    ok = result.violation_rate <= limit and elapsed < 300.0
    report(3, ok, f"violation rate {result.violation_rate:.4f} (<= {limit:.4f}) over "
                  f"{trials - result.infeasible} feasible trials, {elapsed:.0f}s (<300s)")


def test_criterion_4_auroc_oracle_equivalence():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 301))
        u = np.round(rng.random(n), int(rng.integers(1, 3))).tolist()  # heavy ties
        adm = rng.integers(0, 2, size=n).tolist()
        if sum(adm) in (0, n):
            adm[0] = 1 - adm[0]
        pos = [v for v, a in zip(u, adm) if a == 0]
        neg = [v for v, a in zip(u, adm) if a == 1]
        oracle = sum(
            1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg
        ) / (len(pos) * len(neg))
        worst = max(worst, abs(auroc(u, adm) - oracle))
    ok = worst <= 1e-12
    report(4, ok, f"max |auroc - pairwise oracle| = {worst:.2e} (<=1e-12) over 100 instances")


def test_criterion_5_region_extraction_oracle_equivalence():
    rng = np.random.default_rng(23)
    mismatches = 0
    for _ in range(100):
        h = int(rng.integers(2, 41))
        w = int(rng.integers(2, 41))
        values = rng.random((h, w)) * (rng.random((h, w)) < rng.uniform(0.2, 0.7))
        if values.max() <= 0:
            values[0, 0] = 0.9
        dmap = DensityMap(grid_h=h, grid_w=w, patch_size=14, values=values)
        got = set(extract_regions(dmap, 0.3))
        # independent flood fill on the strict-threshold mask
        keep = values > 0.3 * values.max()
        seen = np.zeros_like(keep, dtype=bool)
        expected = set()
        for i in range(h):
            for j in range(w):
                if not keep[i, j] or seen[i, j]:
                    continue
                stack = [(i, j)]
                seen[i, j] = True
                comp = []
                while stack:
                    r, c = stack.pop()
                    comp.append((r, c))
                    for rr, cc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                        if 0 <= rr < h and 0 <= cc < w and keep[rr, cc] and not seen[rr, cc]:
                            seen[rr, cc] = True
                            stack.append((rr, cc))
                expected.add(frozenset(comp))
        if got != expected:
            mismatches += 1
    ok = mismatches == 0
    report(5, ok, f"{mismatches}/100 flood-fill oracle mismatches at beta=0.3")


def test_criterion_6_uncertainty_formula_checks():
    failures = []
    for m in range(2, 65):
        # exactly uniform probabilities; the correctly rounded value of the
        # real number 1 - 1/M is float(Fraction(m-1, m))
        exact_probs = (Fraction(1, m),) * m
        cd = concentration_deficit(exact_probs)
        if cd != float(Fraction(m - 1, m)):
            failures.append(f"cd(M={m})={cd!r}")
        ie = info_dispersion((1.0 / m,) * m)
        if abs(ie - 1.0) > 1e-6:
            failures.append(f"ie(M={m})={ie!r}")
    if abs(top_ambiguity((0.37, 0.37)) - 1.0) > 1e-6:
        failures.append("tied top-two ta != 1")
    for s1 in (0.2, 0.8, 0.95, 1.0):
        ta = top_ambiguity((s1,))
        if ta != max(0.1, 1.0 - s1):
            failures.append(f"single-region ta(S1={s1})={ta!r}")
    if info_dispersion((1.0,)) != 0.0 or concentration_deficit((1.0,)) != 0.0:
        failures.append("single-region ie/cd not zero")
    ok = not failures
    report(6, ok, "uniform/tied/single-region component identities"
                  + ("" if ok else f" failing: {failures[:3]}"))


def test_criterion_7_pipeline_discrimination_sanity():
    data = generate_dataset(SynthConfig(seed=0))
    u = [score_record(r).combined for r in data]
    adm = [admission(select_mlg(r, 0), r.gt_box) for r in data]
    base = sum(adm) / len(adm)
    roc_score = auroc(u, adm)
    arc_score = auarc(u, adm)
    # determinism: recompute from scratch
    again = [score_record(r).combined for r in generate_dataset(SynthConfig(seed=0))]
    ok = roc_score >= 0.75 and arc_score > base and u == again
    report(7, ok, f"AUROC {roc_score:.4f} (>=0.75), AUARC {arc_score:.4f} > base accuracy "
                  f"{base:.4f}, deterministic rescoring")


def test_criterion_8_cascade_bookkeeping():
    rng = np.random.default_rng(31)
    box = (40.0, 40.0, 60.0, 60.0)
    records = []
    u = []
    for i in range(200):
        mlg = (50.0, 50.0) if rng.random() < 0.55 else (5.0, 5.0)
        expert = (50.0, 50.0) if rng.random() < 0.8 else (5.0, 5.0)
        records.append(
            GroundingRecord(
                id=f"c{i}", image_width=100, image_height=100, gt_box=box,
                samples=(mlg,), mlg=mlg, expert=expert,
            )
        )
        u.append(float(rng.random()))
    exact = True
    rates = []
    for tau in sorted(set(u)) + [2.0]:
        expected_correct = sum(
            admission(r.mlg, box) if v <= tau else admission(r.expert, box)
            for r, v in zip(records, u)
        )
        rep = evaluate_cascade(records, u, tau)
        if rep.system_accuracy != expected_correct / 200:
            exact = False
        rates.append(rep.cascading_rate)
    monotone = all(b <= a for a, b in zip(rates, rates[1:]))
    ok = exact and monotone
    report(8, ok, f"mixture accuracy exact at {len(rates)} thresholds, "
                  f"cascading rate non-increasing: {monotone}")


def test_criterion_9_pipeline_determinism(tmp_path):
    def pipeline(base):
        base.mkdir()
        paths = {
            "data": base / "data.jsonl",
            "scored": base / "scored.jsonl",
            "artifact": base / "artifact.json",
            "roc": base / "roc.csv",
            "arc": base / "arc.csv",
            "manifest": base / "deferred.jsonl",
            "cascade_csv": base / "cascade.csv",
            "trials": base / "trials.csv",
        }
        argv_sets = [
            ["--seed", "11", "synth", "--out", str(paths["data"]), "--n-records", "120"],
            ["--seed", "11", "score", "-i", str(paths["data"]), "-o", str(paths["scored"])],
            ["--seed", "11", "calibrate", "-i", str(paths["scored"]), "-o", str(paths["artifact"]),
             "--alpha", "0.3", "--ratio", "0.5", "-r", "1"],
            ["--seed", "11", "evaluate", "-i", str(paths["scored"]), "--alpha", "0.3",
             "--ratio", "0.5", "-r", "3", "--roc-csv", str(paths["roc"]),
             "--arc-csv", str(paths["arc"])],
            ["--seed", "11", "cascade", "-i", str(paths["scored"]), "--artifact",
             str(paths["artifact"]), "--manifest", str(paths["manifest"]),
             "--csv", str(paths["cascade_csv"])],
            ["--seed", "11", "guarantee", "--trials", "3", "--n-records", "60",
             "--out-csv", str(paths["trials"])],
        ]
        for argv in argv_sets:
            assert cli.main(argv) == 0
        return paths

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    differing = [
        name for name in first if first[name].read_bytes() != second[name].read_bytes()
    ]
    ok = not differing
    report(9, ok, "synth->score->calibrate->evaluate->cascade byte-identical across runs"
                  + ("" if ok else f"; differing: {differing}"))

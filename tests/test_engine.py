"""The split engine against the per-record path it replaces.

The oracle is the record-list protocol: `split` -> `calibrate_threshold`
on the calibration side -> `fdr_at` / `power_at` / `evaluate_cascade` on
the test side. Every float must come out identical (`==`), not close.
"""

import numpy as np
import pytest

from clickrisk import engine
from clickrisk.cascade import evaluate_cascade
from clickrisk.metrics import MetricError, admission, fdr_at, power_at
from clickrisk.records import GroundingRecord, SplitError, SplitPlan, select_mlg, split, split_indices
from clickrisk.risk import RiskSpec, calibrate_threshold

BOX = (40.0, 40.0, 60.0, 60.0)
INSIDE = (50.0, 50.0)
OUTSIDE = (5.0, 5.0)
ALPHAS = (0.01, 0.1, 0.2, 0.34, 0.5)


def make_records(u, hits, expert_hits=None, variant="com"):
    """Records whose `variant` value is u[i] and whose acted-on click hits iff hits[i]."""
    records = []
    for i, (value, hit) in enumerate(zip(u, hits)):
        mlg = INSIDE if hit else OUTSIDE
        expert = None
        if expert_hits is not None and expert_hits[i] is not None:
            expert = INSIDE if expert_hits[i] else OUTSIDE
        uq = {"ta": 0.5, "ie": 0.5, "cd": 0.5, "com": 0.5}
        pc = None
        if variant == "pc":
            pc = value
        else:
            uq[variant] = value
        records.append(
            GroundingRecord(
                id=f"r{i}", image_width=100, image_height=100, gt_box=BOX,
                samples=(mlg,), mlg=mlg, expert=expert, pc=pc, uq=uq,
            )
        )
    return records


def value(record, variant):
    """The record's uncertainty under `variant`, read from its fields."""
    return record.pc if variant == "pc" else record.uq[variant]


def oracle(records, variant, plan, alphas, delta, seed=0):
    """Per repetition, per alpha: None or (tau, fdr, power, system accuracy, cascading rate)."""
    with_expert = all(r.expert is not None for r in records)
    out = []
    for rep in range(plan.repetitions):
        cal, test = split(records, plan, rep)
        cal_u = [value(r, variant) for r in cal]
        cal_err = [1 - admission(select_mlg(r, seed), r.gt_box) for r in cal]
        test_u = [value(r, variant) for r in test]
        test_adm = [admission(select_mlg(r, seed), r.gt_box) for r in test]
        per_alpha = []
        for alpha in alphas:
            outcome = calibrate_threshold(cal_u, cal_err, RiskSpec(alpha=alpha, delta=delta))
            if not outcome.feasible:
                per_alpha.append(None)
                continue
            tau = outcome.threshold
            system = rate = None
            if with_expert:
                report = evaluate_cascade(test, test_u, tau, mlg_seed=seed)
                system, rate = report.system_accuracy, report.cascading_rate
            per_alpha.append(
                (tau, fdr_at(test_u, test_adm, tau), power_at(test_u, test_adm, tau), system, rate)
            )
        out.append(per_alpha)
    return out


def columns_of(records, variant, seed=0):
    """The engine's inputs for `records`: the uncertainty, admissibility and expert vectors."""
    u = np.array([value(r, variant) for r in records], dtype=float)
    adm = np.array([admission(select_mlg(r, seed), r.gt_box) for r in records], dtype=bool)
    expert = None
    if all(r.expert is not None for r in records):
        expert = np.array([admission(r.expert, r.gt_box) for r in records], dtype=bool)
    return u, adm, expert


def via_engine(records, variant, plan, alphas, delta, seed=0, columns=None):
    """`oracle`'s cells from one `run_splits` pass, per column of `columns` (default: the records' `variant`)."""
    u, adm, expert = columns_of(records, variant, seed)
    columns = [u] if columns is None else columns
    out = [[] for _ in columns]
    for _, per_column in engine.run_splits(columns, adm, plan, alphas, delta, expert):
        for cells, per_alpha in zip(out, per_column):
            cells.append([
                None if c is None else (
                    c.tau, c.fdr, c.power,
                    None if expert is None else c.system_accuracy,
                    None if expert is None else c.cascading_rate,
                )
                for c in per_alpha
            ])
    return out


def random_case(rng, n, decimals, hit_rate, expert_missing=0.0):
    u = np.round(rng.random(n), decimals).tolist()
    hits = (rng.random(n) < hit_rate).tolist()
    expert_hits = [None if rng.random() < expert_missing else bool(rng.random() < 0.8) for _ in range(n)]
    return u, hits, expert_hits


def assert_same(records, variant, plan, alphas, delta):
    try:
        expected = oracle(records, variant, plan, alphas, delta)
    except MetricError:
        with pytest.raises(MetricError):
            via_engine(records, variant, plan, alphas, delta)
        raise
    [got] = via_engine(records, variant, plan, alphas, delta)
    assert got == expected
    # several columns in one pass each get exactly what a pass over that column alone gives
    u = columns_of(records, variant)[0]
    others = [u[::-1].copy(), np.round(u, 1), np.zeros_like(u)]
    alone = [via_engine(records, variant, plan, alphas, delta, columns=[column])[0] for column in others]
    assert via_engine(records, variant, plan, alphas, delta, columns=[u, *others]) == [expected, *alone]
    return expected


def test_engine_equals_oracle_on_random_sets():
    rng = np.random.default_rng(5)
    feasible = infeasible = 0
    for _ in range(40):
        n = int(rng.integers(2, 160))
        u, hits, expert_hits = random_case(rng, n, int(rng.integers(1, 4)), rng.uniform(0.3, 0.95))
        plan = SplitPlan(calibration_ratio=float(rng.uniform(0.2, 0.8)), seed=int(rng.integers(0, 1000)),
                         repetitions=3)
        delta = float(rng.choice([0.01, 0.05, 0.1]))
        try:
            expected = assert_same(make_records(u, hits, expert_hits), "com", plan, ALPHAS, delta)
        except MetricError:
            continue  # a test split without admissible records; covered below
        cells = [c for rep in expected for c in rep]
        feasible += sum(c is not None for c in cells)
        infeasible += sum(c is None for c in cells)
    assert feasible > 50 and infeasible > 50  # both branches are exercised


def test_heavy_ties():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(20, 120))
        u = rng.choice([0.1, 0.5, 0.9], size=n).tolist()  # three distinct values
        hits = (rng.random(n) < 0.85).tolist()
        records = make_records(u, hits, [True] * n)
        assert_same(records, "com", SplitPlan(calibration_ratio=0.5, seed=3, repetitions=4), ALPHAS, 0.05)


def test_all_correct_accepts_everything_and_all_wrong_is_infeasible():
    rng = np.random.default_rng(13)
    u = rng.random(80).tolist()
    plan = SplitPlan(calibration_ratio=0.5, seed=1, repetitions=3)
    correct = assert_same(make_records(u, [True] * 80, [False] * 80), "com", plan, (0.1, 0.3), 0.05)
    assert all(c is not None and c[1] == 0.0 and c[2] == 1.0 for rep in correct for c in rep)
    wrong = assert_same(make_records(u, [False] * 80, [True] * 80), "com", plan, (0.1, 0.5), 0.05)
    assert all(c is None for rep in wrong for c in rep)


def test_infeasible_alphas():
    rng = np.random.default_rng(17)
    u, hits, expert_hits = random_case(rng, 60, 2, 0.7)
    expected = assert_same(
        make_records(u, hits, expert_hits), "com",
        SplitPlan(calibration_ratio=0.5, seed=2, repetitions=3), (0.001, 0.01), 0.05,
    )
    assert all(c is None for rep in expected for c in rep)


def test_records_without_expert():
    rng = np.random.default_rng(19)
    u, hits, expert_hits = random_case(rng, 90, 2, 0.8, expert_missing=0.3)
    expected = assert_same(
        make_records(u, hits, expert_hits), "com",
        SplitPlan(calibration_ratio=0.4, seed=4, repetitions=3), ALPHAS, 0.05,
    )
    assert any(c is not None and c[3] is None for rep in expected for c in rep)


def test_pc_variant():
    rng = np.random.default_rng(23)
    u, hits, expert_hits = random_case(rng, 100, 2, 0.75)
    records = make_records(u, hits, expert_hits, variant="pc")
    assert_same(records, "pc", SplitPlan(calibration_ratio=0.3, seed=5, repetitions=3), ALPHAS, 0.1)


def test_test_split_without_admissible_records_raises_metric_error():
    n = 40
    plan = SplitPlan(calibration_ratio=0.5, seed=6)
    cal_idx, _ = split_indices(n, plan, 0)
    hits = [i in set(cal_idx.tolist()) for i in range(n)]  # calibration side all correct, test side all wrong
    records = make_records(np.linspace(0.0, 1.0, n).tolist(), hits, [True] * n)
    with pytest.raises(MetricError):
        oracle(records, "com", plan, (0.3,), 0.05)
    with pytest.raises(MetricError):
        via_engine(records, "com", plan, (0.3,), 0.05)


def test_too_few_records_raise_split_error():
    for n in (0, 1):
        records = make_records([0.5] * n, [True] * n, [True] * n)
        plan = SplitPlan(calibration_ratio=0.5, seed=0)
        with pytest.raises(SplitError):
            oracle(records, "com", plan, (0.3,), 0.05)
        with pytest.raises(SplitError):
            via_engine(records, "com", plan, (0.3,), 0.05)
        assert list(engine.run_splits([], np.ones(n, dtype=bool), plan, (0.3,), 0.05)) == []  # no column, no split


def test_split_indices_match_split():
    records = make_records([0.5] * 23, [True] * 23)
    plan = SplitPlan(calibration_ratio=0.3, seed=2**70 + 9, repetitions=4)
    for rep in range(plan.repetitions):
        cal_idx, test_idx = split_indices(len(records), plan, rep)
        cal, test = split(records, plan, rep)
        assert [records[i].id for i in cal_idx] == [r.id for r in cal]
        assert [records[i].id for i in test_idx] == [r.id for r in test]
        assert list(cal_idx) == sorted(cal_idx) and list(test_idx) == sorted(test_idx)


def test_thresholds_equal_calibrate_threshold():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 150))
        u = np.round(rng.random(n), int(rng.integers(1, 4)))
        err = (rng.random(n) < rng.uniform(0.0, 0.6)).astype(int)
        delta = float(rng.choice([0.01, 0.05, 0.1]))
        alphas = rng.uniform(0.01, 0.6, size=4).tolist()
        expected = [calibrate_threshold(u, err, RiskSpec(alpha=a, delta=delta)).threshold for a in alphas]
        assert engine.thresholds(u, err, alphas, delta) == expected

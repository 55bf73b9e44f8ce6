"""The split engine against the per-record path it replaces.

The oracle is the record-list protocol: `split` -> `calibrate_threshold`
on the calibration side -> `fdr_at` / `power_at` / `evaluate_cascade` on
the test side. Every float must come out identical (`==`), not close.
`per_column_splits` is the engine's direct form: each split sorts each
column's calibration side and compares every test record with each
threshold. The engine, which sorts each column once per input, must give
its counts bit for bit. Its ranking of a split's test side, cut from
each column's one sort, must give what `metrics` (AUROC, AUARC and their
curves, from `Ranking.of` on that side alone) gives, bit for bit, errors
included.
"""

import tracemalloc

import numpy as np
import pytest

from clickrisk import engine, metrics
from clickrisk.cascade import evaluate_cascade
from clickrisk.metrics import MetricError, admission, fdr_at, power_at
from clickrisk.records import GroundingRecord, SplitError, SplitPlan, select_mlg, split, split_indices
from clickrisk.risk import RiskSpec, calibrate_threshold, critical_counts, largest_feasible, threshold_candidates

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


def specs(alphas, delta) -> list[RiskSpec]:
    """A `RiskSpec` per alpha, all at `delta`: what `SortedColumns.splits` takes."""
    return [RiskSpec(alpha=alpha, delta=delta) for alpha in alphas]


def via_engine(records, variant, plan, alphas, delta, seed=0, columns=None):
    """`oracle`'s cells from one pass of the engine's splits, per column of `columns` (default: `variant`'s)."""
    u, adm, expert = columns_of(records, variant, seed)
    columns = [u] if columns is None else columns
    out = [[] for _ in columns]
    for _, per_column in engine.SortedColumns(columns, adm, expert).splits(plan, specs(alphas, delta)):
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
        no_column = engine.SortedColumns([], np.ones(n, dtype=bool))
        assert list(no_column.splits(plan, specs((0.3,), 0.05))) == []  # nothing to sort and no split drawn


def test_no_spec_gives_each_split_an_empty_list_per_column():
    """With no spec nothing is calibrated, but every split is drawn and yields its test indices."""
    u = np.array([0.1, 0.4, 0.6, 0.9, 0.2, 0.3, 0.8, 0.7])
    adm = np.array([True, False, True, True, True, True, False, True])
    plan = SplitPlan(calibration_ratio=0.5, seed=4, repetitions=3)
    got = list(engine.SortedColumns([u, 1 - u], adm).splits(plan, []))
    assert [test.tolist() for test, _ in got] == [split_indices(u.size, plan, rep)[1].tolist() for rep in range(3)]
    assert [per_column for _, per_column in got] == [[[], []]] * 3


def test_split_indices_match_split():
    records = make_records([0.5] * 23, [True] * 23)
    plan = SplitPlan(calibration_ratio=0.3, seed=2**70 + 9, repetitions=4)
    for rep in range(plan.repetitions):
        cal_idx, test_idx = split_indices(len(records), plan, rep)
        cal, test = split(records, plan, rep)
        assert [records[i].id for i in cal_idx] == [r.id for r in cal]
        assert [records[i].id for i in test_idx] == [r.id for r in test]
        assert list(cal_idx) == sorted(cal_idx) and list(test_idx) == sorted(test_idx)


def thresholds(u_cal, err_cal, alphas, delta) -> list[float | None]:
    """`calibrate_threshold(u_cal, err_cal, RiskSpec(alpha, delta)).threshold` per alpha, from one sort.

    Each alpha's threshold is `risk.largest_feasible` over the same candidates, as one row.
    """
    taus, n_accepted, n_errors = threshold_candidates(u_cal, err_cal)
    best = [largest_feasible(n_accepted, n_errors, critical_counts(u_cal.size, alpha, delta), [taus.size])
            for alpha in alphas]
    return [float(taus[i]) if i >= 0 else None for [i] in best]


def test_thresholds_equal_calibrate_threshold():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 150))
        u = np.round(rng.random(n), int(rng.integers(1, 4)))
        err = (rng.random(n) < rng.uniform(0.0, 0.6)).astype(int)
        delta = float(rng.choice([0.01, 0.05, 0.1]))
        alphas = rng.uniform(0.01, 0.6, size=4).tolist()
        expected = [calibrate_threshold(u, err, RiskSpec(alpha=a, delta=delta)).threshold for a in alphas]
        assert thresholds(u, err, alphas, delta) == expected


# --- one sort per column per input ---------------------------------------------------


def per_column_splits(columns, adm, plan, alphas, delta, expert=None):
    """The engine's splits by a sort of each column's calibration side per split and a comparison per test record."""
    for rep in range(plan.repetitions):
        cal, test = split_indices(adm.size, plan, rep)
        err_cal, adm_test = ~adm[cal], adm[test]
        expert_test = None if expert is None else expert[test]
        per_column = []
        for u in columns:
            taus, n_accepted, n_errors = threshold_candidates(u[cal], err_cal)
            cells = []
            for alpha in alphas:
                feasible = np.flatnonzero(n_errors <= critical_counts(cal.size, alpha, delta)[n_accepted])
                tau = float(taus[feasible[-1]]) if feasible.size else None
                cells.append(None if tau is None else metrics.split_counts(u[test], adm_test, tau, expert_test))
            per_column.append(cells)
        yield test, per_column


def exact(counts):
    """A cell's fields as they print: the threshold by `float.hex`, every count as a Python int."""
    if counts is None:
        return None
    assert type(counts.tau) is float
    assert all(type(n) is int for n in counts[1:] if n is not None)
    return (counts.tau.hex(), *counts[1:])


def edge_column(rng, kind, n, cal):
    """A column of `kind`; 'constant' and 'between' are shaped on the calibration side `cal`."""
    if kind == "inf":
        return rng.choice([-np.inf, np.inf, -1.0, 0.0, 0.5, 1.0], size=n)
    if kind == "signed zero":
        return rng.choice([-0.0, 0.0, -0.0, 0.0, 0.5, 1.0], size=n)
    u = np.round(rng.random(n), 1)
    if kind == "constant":  # one value on the calibration side
        u[cal] = rng.choice([-0.0, 0.0, 0.5])
    if kind == "between":  # every test-only group lies between calibration groups
        u = 2.0 * rng.integers(0, 6, size=n) + 1.0
        u[cal] -= 1.0
    return u


EDGE_KINDS = ("inf", "signed zero", "constant", "between")


def test_engine_equals_the_per_column_engine_bit_for_bit_on_edge_cases():
    rng = np.random.default_rng(43)
    seen = {"-0.0 tau": 0, "0.0 tau": 0, "inf tau": 0, "infeasible": 0}
    for case in range(300):
        n = int(rng.integers(2, 40))
        plan = SplitPlan(calibration_ratio=float(rng.uniform(0.2, 0.8)), seed=case, repetitions=3)
        cal = split_indices(n, plan, 0)[0]
        kinds = rng.choice(EDGE_KINDS, size=int(rng.integers(1, 6)))
        columns = [edge_column(rng, kind, n, cal) for kind in kinds]
        adm = rng.random(n) < rng.uniform(0.5, 1.0)
        alphas, delta = (0.05, 0.2, 0.5, 0.9), float(rng.choice([0.05, 0.2]))
        for expert in (None, rng.random(n) < 0.8):
            got = list(engine.SortedColumns(columns, adm, expert).splits(plan, specs(alphas, delta)))
            want = list(per_column_splits(columns, adm, plan, alphas, delta, expert))
            assert len(got) == len(want) == plan.repetitions
            for rep, ((test, per_column), (want_test, want_per_column)) in enumerate(zip(got, want)):
                assert test.tolist() == want_test.tolist()
                assert [[exact(c) for c in cells] for cells in per_column] == \
                    [[exact(c) for c in cells] for cells in want_per_column]
                cal_side = split_indices(n, plan, rep)[0]
                for u, cells in zip(columns, want_per_column):
                    taus = thresholds(u[cal_side], ~adm[cal_side], alphas, delta)
                    assert [None if t is None else t.hex() for t in taus] == \
                        [None if c is None else c.tau.hex() for c in cells]
                    for c in cells:
                        if c is None:
                            seen["infeasible"] += 1
                        elif c.tau == 0:
                            seen["-0.0 tau" if np.signbit(c.tau) else "0.0 tau"] += 1
                        elif np.isinf(c.tau):
                            seen["inf tau"] += 1
    assert min(seen.values()) > 20, seen  # every edge is picked as a threshold, and infeasibility too


def test_signed_zero_threshold_is_the_last_calibration_record():
    """-0.0 and 0.0 tie; the threshold is the one the group's last calibration record holds, not its last record."""
    u = np.array([0.0, -0.0, 0.0, -0.0, 0.5, 1.0])
    adm = np.array([True, True, True, True, False, False])
    for seed in range(40):
        plan = SplitPlan(calibration_ratio=0.5, seed=seed)
        cal = split_indices(u.size, plan, 0)[0]
        [(_, [[counts]])] = engine.SortedColumns([u], adm).splits(plan, [RiskSpec(alpha=0.5, delta=0.2)])
        zeros = [i for i in cal.tolist() if u[i] == 0]
        if counts is not None and counts.tau == 0:
            assert counts.tau.hex() == u[zeros[-1]].hex()


def test_a_nan_uncertainty_is_rejected_naming_its_column_and_position():
    adm = np.array([True, False, True, False, True])
    finite = np.array([0.1, 0.5, 0.2, 0.3, 0.4])
    with pytest.raises(MetricError, match=r"^column 0: uncertainty at position 0 is NaN$"):
        engine.SortedColumns([np.array([np.nan, 0.5, 0.2, np.nan, 0.1])], adm)
    with pytest.raises(MetricError, match=r"^column 2: uncertainty at position 2 is NaN$"):
        engine.SortedColumns([finite, finite, np.array([0.1, 0.5, np.nan, 0.3, np.nan])], adm, adm)


# --- rank metrics off the one sort -----------------------------------------------------

RANK_METRICS = ("auroc", "auarc", "roc_points", "arc_points")


def outcome(metric, *args):
    """What `metric(*args)` gives: floats by `float.hex`, or the text of its MetricError."""
    try:
        value = metric(*args)
    except MetricError as exc:
        return "MetricError: " + str(exc)
    if isinstance(value, float):
        return value.hex()
    return [(x.hex(), y.hex()) for x, y in value]


def ranked_outcomes(ranking):
    return [outcome(getattr(ranking, name)) for name in RANK_METRICS]


def reference_outcomes(u, adm, records=None):
    """`metrics`' outcomes on `u[records]`, `adm[records]` (default: every record)."""
    if records is not None:
        u, adm = u[records], adm[records]
    return [outcome(getattr(metrics, name), u, adm) for name in RANK_METRICS]


def test_rankings_equal_the_metrics_bit_for_bit_on_edge_cases():
    """Every column's ranking of all records and of each test side gives what `metrics` gives on them."""
    rng = np.random.default_rng(53)
    seen = {"value": 0, "one class": 0}
    for case in range(150):
        n = int(rng.integers(2, 40))
        plan = SplitPlan(calibration_ratio=float(rng.uniform(0.2, 0.8)), seed=case, repetitions=3)
        cal = split_indices(n, plan, 0)[0]
        kinds = rng.choice(EDGE_KINDS, size=int(rng.integers(1, 6)))
        columns = [edge_column(rng, kind, n, cal) for kind in kinds] + [rng.random(n)]
        adm = rng.random(n) < rng.uniform(0.5, 1.0)
        for expert in (None, rng.random(n) < 0.8):
            ranked = engine.SortedColumns(columns, adm, expert)
            sides = [None] + [test for test, _ in ranked.splits(plan, specs((0.2,), 0.05))]
            for records in sides:
                for c, u in enumerate(columns):
                    want = reference_outcomes(u, adm, records)
                    assert ranked_outcomes(ranked.ranking(c, records)) == want
                    first = want[0]
                    seen["one class" if "needs" in first else "value"] += 1
    assert min(seen.values()) > 100, seen  # one-class sides and values alike


@pytest.mark.parametrize("block", ["shared", "one per column"])
def test_rankings_of_long_columns_equal_the_metrics(block, monkeypatch):
    """Past numpy's pairwise-summation block the means still agree bit for bit, however the columns are blocked."""
    if block == "one per column":
        monkeypatch.setattr(engine, "_BLOCK", 1)
    rng = np.random.default_rng(59)
    n = 3000
    adm = rng.random(n) < 0.7
    columns = [rng.random(n), np.round(rng.random(n), 2), np.where(adm, rng.random(n), rng.random(n) + 0.3)]
    plan = SplitPlan(calibration_ratio=0.3, seed=8, repetitions=2)
    ranked = engine.SortedColumns(columns, adm)
    for records in [None] + [test for test, _ in ranked.splits(plan, specs((0.2,), 0.05))]:
        for c, u in enumerate(columns):
            assert ranked_outcomes(ranked.ranking(c, records)) == reference_outcomes(u, adm, records)


def test_one_class_test_side_raises_the_metrics_error():
    n = 40
    plan = SplitPlan(calibration_ratio=0.5, seed=6)
    cal, test = split_indices(n, plan, 0)
    adm = np.isin(np.arange(n), cal)  # calibration side all admissible, test side none
    u = np.linspace(0.0, 1.0, n)
    ranked = engine.SortedColumns([u], adm)
    [(split_test, _)] = ranked.splits(plan, specs((0.3,), 0.05))
    ranking = ranked.ranking(0, split_test)
    assert ranked_outcomes(ranking) == reference_outcomes(u, adm, test)
    assert outcome(ranking.auroc) == "MetricError: auroc needs at least one admissible and one inadmissible record"
    assert outcome(ranking.roc_points) == "MetricError: roc needs at least one admissible and one inadmissible record"
    assert outcome(ranking.auarc) == outcome(metrics.auarc, u[test], adm[test]) == (0.0).hex()


def traced_peak(columns, adm, plan, expert):
    """Peak bytes that tracemalloc sees while the engine sorts the columns and yields every split."""
    tracemalloc.start()
    try:
        for _ in engine.SortedColumns(columns, adm, expert).splits(plan, specs(ALPHAS, 0.05)):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("groups, bound", [("one per record", 40), ("about a hundred", 8)])
def test_memory_per_record_and_column_stays_bounded(groups, bound):
    """A column keeps its int32 sorted order and 24 bytes per tie group; a split's temporaries stay
    within a block of columns.

    At a group per record (distinct values, the worst case) each of four
    more columns costs about 36 bytes per record, and at about a hundred
    groups about 7. Per-group counts of 8 bytes or a pass that takes every
    column at once break the first bound, and an 8-byte order, or a 4-byte
    order kept beside 4-byte group labels, the second.
    """
    n = 20_000
    rng = np.random.default_rng(47)
    adm, expert = rng.random(n) < 0.7, rng.random(n) < 0.8
    plan = SplitPlan(calibration_ratio=0.5, seed=3, repetitions=3)
    columns = [rng.random(n) if groups == "one per record" else np.round(rng.random(n), 2) for _ in range(6)]
    traced_peak(columns[:1], adm, plan, expert)  # first-use allocations (the critical-count tables) out of the way
    two, six = traced_peak(columns[:2], adm, plan, expert), traced_peak(columns, adm, plan, expert)
    assert (six - two) / (4 * n) < bound

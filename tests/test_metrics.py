import itertools
from dataclasses import astuple

import numpy as np
import pytest

from clickrisk.metrics import (
    EvalReport,
    MetricError,
    admission,
    admissions,
    aggregate,
    arc_points,
    auarc,
    auroc,
    evaluate_split,
    fdr_at,
    power_at,
    roc_points,
    split_counts,
)
from clickrisk.engine import SortedColumns
from clickrisk.records import SplitPlan
from clickrisk.risk import RiskSpec, calibrate_threshold


def pairwise_auroc_oracle(u, adm):
    """O(n^2) comparison count: inadmissible should out-score admissible."""
    pos = [v for v, a in zip(u, adm) if a == 0]
    neg = [v for v, a in zip(u, adm) if a == 1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


# --- admission ----------------------------------------------------------------

def test_admission_interior():
    assert admission((5, 5), (0, 0, 10, 10)) == 1


def test_admission_is_boundary_inclusive():
    assert admission((10, 10), (0, 0, 10, 10)) == 1
    assert admission((0, 0), (0, 0, 10, 10)) == 1
    assert admission((0, 10), (0, 0, 10, 10)) == 1


def test_admission_exterior():
    assert admission((11, 5), (0, 0, 10, 10)) == 0
    assert admission((5, -0.001), (0, 0, 10, 10)) == 0


def test_admissions_equal_admission_on_every_edge_and_corner():
    box = (10.25, 20.5, 130.25, 140.5)
    x_min, y_min, x_max, y_max = box
    xs = [x_min, (x_min + x_max) / 2, x_max]
    ys = [y_min, (y_min + y_max) / 2, y_max]
    on_box = [(x, y) for x in xs for y in ys]  # the four corners, the four edge midpoints, the centre
    just_outside = [
        (np.nextafter(x_min, -np.inf), ys[1]), (np.nextafter(x_max, np.inf), ys[1]),
        (xs[1], np.nextafter(y_min, -np.inf)), (xs[1], np.nextafter(y_max, np.inf)),
        (np.nextafter(x_max, np.inf), np.nextafter(y_max, np.inf)),
    ]
    points = on_box + just_outside
    got = admissions(points, [box] * len(points))
    assert got.dtype == bool
    assert got.tolist() == [bool(admission(p, box)) for p in points] == [True] * 9 + [False] * 5


def test_admissions_take_one_box_per_point():
    rng = np.random.default_rng(2)
    boxes = np.sort(rng.uniform(0, 100, size=(500, 2, 2)), axis=1).reshape(500, 4)  # min corner, max corner
    points = rng.uniform(-10, 110, size=(500, 2))
    points[::7] = boxes[::7, 2:]  # some exactly on a corner
    expected = [bool(admission(tuple(p), tuple(b))) for p, b in zip(points.tolist(), boxes.tolist())]
    assert admissions(points, boxes).tolist() == expected
    assert admissions([], []).tolist() == []


def test_admission_monotone_under_enlargement():
    rng = np.random.default_rng(0)
    for _ in range(100):
        inner = np.sort(rng.uniform(0, 100, size=2))
        inner_box = (inner[0], inner[0], inner[1], inner[1])
        pad = rng.uniform(0, 10, size=4)
        outer_box = (
            inner_box[0] - pad[0],
            inner_box[1] - pad[1],
            inner_box[2] + pad[2],
            inner_box[3] + pad[3],
        )
        point = tuple(rng.uniform(-10, 110, size=2))
        if admission(point, inner_box):
            assert admission(point, outer_box)


# --- auroc ----------------------------------------------------------------------

def test_auroc_perfect_separation():
    assert auroc([0.1, 0.9], [1, 0]) == 1.0


def test_auroc_all_ties():
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        u = np.round(rng.random(n), 2).tolist()  # coarse values inject ties
        adm = rng.integers(0, 2, size=n).tolist()
        if sum(adm) in (0, n):
            adm[0] = 1 - adm[0]
        assert auroc(u, adm) == pairwise_auroc_oracle(u, adm)


def test_auroc_single_class_is_typed_error():
    with pytest.raises(MetricError):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(MetricError):
        auroc([0.1, 0.2], [0, 0])


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(13)
    u = rng.random(40)
    adm = rng.integers(0, 2, size=40)
    adm[0], adm[1] = 0, 1
    base = auroc(u.tolist(), adm.tolist())
    assert auroc((np.exp(3 * u)).tolist(), adm.tolist()) == pytest.approx(base, abs=1e-12)


# --- auarc ----------------------------------------------------------------------

def test_auarc_all_admissible():
    assert auarc([0.4, 0.1, 0.7], [1, 1, 1]) == 1.0


def test_auarc_two_records_hand_computed():
    # ascending-uncertainty flags (1, 0): (0.5 + 1.0) / 2
    assert auarc([0.2, 0.8], [1, 0]) == pytest.approx(0.75)


def test_auarc_ties_break_by_record_index():
    # equal uncertainties: retention follows input order
    assert auarc([0.5, 0.5], [0, 1]) == pytest.approx((0.5 + 0.0) / 2)
    assert auarc([0.5, 0.5], [1, 0]) == pytest.approx((0.5 + 1.0) / 2)


def test_auarc_random_ordering_matches_base_accuracy():
    rng = np.random.default_rng(29)
    flags = [1] * 30 + [0] * 20  # base accuracy 0.6
    values = []
    for _ in range(3000):
        u = rng.random(50).tolist()
        values.append(auarc(u, flags))
    assert np.mean(values) == pytest.approx(0.6, abs=0.01)


def test_auarc_perfect_ordering_is_the_maximum():
    flags = [1, 1, 1, 0, 0]
    n = len(flags)
    perfect = auarc(list(range(n)), flags)
    best = max(
        auarc(list(range(n)), list(perm)) for perm in itertools.permutations(flags)
    )
    assert perfect == pytest.approx(best)


def test_auarc_rejects_empty():
    with pytest.raises(MetricError):
        auarc([], [])


def test_arc_points_match_auarc():
    rng = np.random.default_rng(31)
    u = rng.random(25).tolist()
    adm = rng.integers(0, 2, size=25).tolist()
    points = arc_points(u, adm)
    assert len(points) == 25
    assert points[0][0] == 0.0
    assert np.mean([acc for _, acc in points]) == pytest.approx(auarc(u, adm))


# --- fdr / power ------------------------------------------------------------------

def test_fdr_at_direct_count():
    assert fdr_at([0.1, 0.2, 0.3], [1, 0, 1], 0.25) == pytest.approx(0.5)


def test_fdr_at_all_admissible():
    assert fdr_at([0.1, 0.2], [1, 1], 0.9) == 0.0


def test_fdr_at_empty_acceptance():
    assert fdr_at([0.5, 0.6], [0, 0], 0.1) == 0.0


def test_power_direct_count():
    u = [0.1, 0.2, 0.3, 0.9]
    adm = [1, 1, 1, 1]
    assert power_at(u, adm, 0.35) == pytest.approx(0.75)


def test_power_extremes():
    u = [0.2, 0.4, 0.6]
    adm = [1, 0, 1]
    assert power_at(u, adm, 0.6) == 1.0
    assert power_at(u, adm, 0.1) == 0.0


def test_power_requires_an_admissible_record():
    with pytest.raises(MetricError):
        power_at([0.1, 0.2], [0, 0], 0.5)


def test_power_non_decreasing_in_tau():
    rng = np.random.default_rng(37)
    u = rng.random(60).tolist()
    adm = rng.integers(0, 2, size=60).tolist()
    adm[0] = 1
    values = [power_at(u, adm, t) for t in np.linspace(0, 1, 41)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_metrics_reproduce_calibration_trace_counts():
    rng = np.random.default_rng(41)
    u = rng.random(100).tolist()
    adm = (rng.random(100) < 0.7).astype(int).tolist()
    spec = RiskSpec(alpha=0.4, delta=0.1)
    outcome = calibrate_threshold(u, [1 - a for a in adm], spec)
    assert outcome.feasible
    at_tau = next(p for p in outcome.trace if p.tau == outcome.threshold)
    assert fdr_at(u, adm, outcome.threshold) == pytest.approx(at_tau.n_errors / at_tau.n_accepted)
    retained_correct = at_tau.n_accepted - at_tau.n_errors
    assert power_at(u, adm, outcome.threshold) == pytest.approx(retained_correct / sum(adm))


# --- curves, bundles, aggregation ---------------------------------------------------

def test_roc_points_span_unit_square():
    rng = np.random.default_rng(43)
    u = rng.random(30).tolist()
    adm = rng.integers(0, 2, size=30).tolist()
    adm[0], adm[1] = 0, 1
    points = roc_points(u, adm)
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    fprs = [p[0] for p in points]
    tprs = [p[1] for p in points]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)


def roc_points_oracle(u, adm):
    """The threshold sweep written out: one rescan of every record per distinct value."""
    u, adm = np.asarray(u, dtype=float), np.asarray(adm, dtype=int)
    n_pos, n_neg = int((adm == 0).sum()), int((adm == 1).sum())
    points = [(0.0, 0.0)]
    for t in sorted(set(u.tolist()), reverse=True):
        flagged = u >= t
        tpr = float((flagged & (adm == 0)).sum() / n_pos)
        fpr = float((flagged & (adm == 1)).sum() / n_neg)
        points.append((fpr, tpr))
    return points


def arc_points_oracle(u, adm):
    """The rejection sweep written out: one retained-accuracy ratio per rejected count."""
    u, adm = np.asarray(u, dtype=float), np.asarray(adm, dtype=int)
    prefix = np.cumsum(adm[np.argsort(u, kind="stable")])
    n = u.size
    return [(float(j / n), float(prefix[n - j - 1] / (n - j))) for j in range(n)]


def auarc_oracle(u, adm):
    """The prefix mean written out: admissibility in stable-argsort order, its running share, averaged."""
    u, adm = np.asarray(u, dtype=float), np.asarray(adm, dtype=int)
    prefix = np.cumsum(adm[np.argsort(u, kind="stable")])
    return float((prefix / np.arange(1, u.size + 1)).mean())


def curve_cases():
    rng = np.random.default_rng(47)
    cases = [([0.3, 0.7], [0, 1]), ([0.7, 0.3], [0, 1]), ([0.5, 0.5], [1, 0])]  # one record per class
    cases.append(([0.25] * 9, [0, 1, 1, 0, 1, 1, 1, 0, 1]))  # every value equal
    cases.append(([0.0, -0.0, 0.0, 1.0], [1, 0, 0, 1]))  # signed zeros tie
    for n in (2, 5, 40, 300, 2000):
        for levels in (2, 7, n):  # heavy ties to (nearly) all distinct
            u = rng.integers(0, levels, size=n) / levels
            adm = rng.integers(0, 2, size=n)
            adm[:2] = (0, 1)
            cases.append((u.tolist(), adm.tolist()))
    return cases


def test_roc_and_arc_points_equal_their_sweeps_bit_for_bit():
    for u, adm in curve_cases():
        assert roc_points(u, adm) == roc_points_oracle(u, adm), (u, adm)
        assert arc_points(u, adm) == arc_points_oracle(u, adm), (u, adm)


def test_auarc_equals_its_prefix_mean_bit_for_bit():
    for u, adm in curve_cases():
        assert auarc(u, adm).hex() == auarc_oracle(u, adm).hex(), (u, adm)


def test_auroc_equals_the_pairwise_count_on_every_curve_case():
    """Both count whole and half pairs exactly, so they agree to the bit."""
    for u, adm in curve_cases():
        if len(u) <= 300:
            assert auroc(u, adm) == pairwise_auroc_oracle(u, adm), (u, adm)


def threshold_oracle(u, adm, tau):
    """The rule u <= tau counted record by record: (fdr, power, accepted, total), an undefined power as its text."""
    accepted = retained = admissible = 0
    for value, flag in zip(u, adm):
        accepted += value <= tau
        retained += value <= tau and flag == 1
        admissible += flag == 1
    fdr = (accepted - retained) / accepted if accepted else 0.0
    power = retained / admissible if admissible else "power undefined without admissible records"
    return fdr, power, accepted, len(u)


def hexed(value):
    return value.hex() if isinstance(value, float) else value


def exactly(metric, *args):
    """What `metric` gives, floats by `float.hex` and a report as its fields, or its MetricError's text."""
    try:
        result = metric(*args)
    except MetricError as exc:
        return str(exc)
    return [hexed(v) for v in astuple(result)] if isinstance(result, EvalReport) else hexed(result)


def threshold_cases():
    """`curve_cases` and random ones (empty, one class, signed zeros), with thresholds on and off their values."""
    rng = np.random.default_rng(53)
    cases = curve_cases()
    for _ in range(200):
        n = int(rng.integers(0, 30))
        u = rng.choice([-0.0, 0.0, 0.1, 0.5, 0.5, 0.9, 1.0], size=n) * rng.choice([1.0, -1.0], size=n)
        adm = (rng.random(n) < rng.choice([0.0, 0.5, 1.0])).astype(int)
        cases.append((u.tolist(), adm.tolist()))
    for u, adm in cases:
        on = rng.choice(u, size=min(len(u), 6), replace=False).tolist() if u else []
        yield u, adm, on + [-np.inf, -0.0, 0.0, 0.05, np.inf, np.nan]


def test_fdr_and_power_equal_a_per_record_count_to_the_bit():
    for u, adm, taus in threshold_cases():
        for tau in taus:
            fdr, power, _, _ = threshold_oracle(u, adm, tau)
            assert exactly(fdr_at, u, adm, tau) == fdr.hex(), (u, adm, tau)
            assert exactly(power_at, u, adm, tau) == hexed(power), (u, adm, tau)


def test_evaluate_split_equals_its_oracles_to_the_bit():
    """fdr, power and the counts from the per-record count; AUROC pairwise and AUARC by its prefix mean."""
    for u, adm, taus in threshold_cases():
        if not 0 < sum(adm) < len(adm):
            for tau in taus:
                assert exactly(evaluate_split, u, adm, tau) == \
                    "auroc needs at least one admissible and one inadmissible record"
            continue
        auroc_hex = pairwise_auroc_oracle(u, adm).hex() if len(u) <= 300 else auroc(u, adm).hex()
        auarc_hex = auarc_oracle(u, adm).hex()
        for tau in taus:
            fdr, power, accepted, total = threshold_oracle(u, adm, tau)
            assert exactly(evaluate_split, u, adm, tau) == \
                [auroc_hex, auarc_hex, fdr.hex(), power.hex(), accepted, total], (u, adm, tau)


def test_counts_without_an_expert_count_every_deferral_as_a_miss():
    """Without an expert vector, `split_counts` and `SortedColumns.splits` count no expert hit."""
    u = np.array([0.1, 0.4, 0.6, 0.9, 0.2, 0.3, 0.8, 0.7])
    adm = np.array([True, False, True, True, True, True, False, True])
    counts = split_counts(u, adm, 0.5)
    assert type(counts.n_expert_correct) is int and counts.n_expert_correct == 0
    assert counts.system_accuracy == 3 / 8 and type(counts.system_accuracy) is float
    plan = SplitPlan(calibration_ratio=0.5, seed=0, repetitions=5)
    splits = SortedColumns([u], adm).splits(plan, [RiskSpec(alpha=0.9, delta=0.5)])
    cells = [c for _, [per_spec] in splits for c in per_spec]
    assert any(c is not None for c in cells)
    for c in filter(None, cells):
        assert type(c.n_expert_correct) is int and c.n_expert_correct == 0
        assert c.system_accuracy == c.n_retained / c.n_total and type(c.system_accuracy) is float


def test_evaluate_split_bundles_counts():
    u = [0.1, 0.2, 0.6, 0.9]
    adm = [1, 1, 0, 1]
    report = evaluate_split(u, adm, 0.5)
    assert report.n_total == 4
    assert report.n_accepted == 2
    assert report.fdr == 0.0
    assert report.power == pytest.approx(2 / 3)
    assert 0.0 <= report.auroc <= 1.0
    u, adm = [0.1, 0.2, 0.6, 0.9, 0.4], [1, 1, 0, 1, 0]
    report = evaluate_split(u, adm, 0.5)
    assert report == EvalReport(auroc(u, adm), auarc(u, adm), fdr_at(u, adm, 0.5), power_at(u, adm, 0.5), 3, 5)


@pytest.mark.parametrize(
    "metric",
    [
        auroc,
        auarc,
        roc_points,
        arc_points,
        lambda u, adm: fdr_at(u, adm, 0.5),
        lambda u, adm: power_at(u, adm, 0.5),
        lambda u, adm: evaluate_split(u, adm, 0.5),
    ],
    ids=["auroc", "auarc", "roc_points", "arc_points", "fdr_at", "power_at", "evaluate_split"],
)
def test_metrics_reject_a_nan_uncertainty_naming_its_position(metric):
    with pytest.raises(MetricError, match=r"^uncertainty at position 0 is NaN$"):
        metric([np.nan, 0.5, 0.2, np.nan], [0, 1, 0, 1])
    with pytest.raises(MetricError, match=r"^uncertainty at position 2 is NaN$"):
        metric(np.array([0.1, 0.5, np.nan, 0.3, np.nan]), [0, 1, 0, 1, 1])


@pytest.mark.parametrize("metric", [auroc, lambda u, adm: fdr_at(u, adm, 0.5)], ids=["auroc", "fdr_at"])
def test_metrics_check_the_lengths_and_then_the_flags(metric):
    """The length first, where `risk._check_pair` checks the flags first."""
    with pytest.raises(MetricError) as caught:
        metric([0.1, 0.2, 0.3], [0, 2])
    assert str(caught.value) == "length mismatch: 3 uncertainties vs 2 flags"
    with pytest.raises(MetricError) as caught:
        metric([0.1, 0.2, 0.3], [0, 1, 2])
    assert str(caught.value) == "admissible flags must be 0 or 1"


def test_arc_points_need_a_record():
    with pytest.raises(MetricError) as caught:
        arc_points([], [])
    assert str(caught.value) == "need at least one record"


def test_aggregate_population_std():
    stat = aggregate([1.0, 2.0, 3.0, 4.0])
    assert stat.mean == pytest.approx(2.5)
    assert stat.std == pytest.approx(np.std([1, 2, 3, 4]))
    with pytest.raises(MetricError):
        aggregate([])

import itertools

import numpy as np
import pytest

from clickrisk.metrics import (
    EvalReport,
    MetricError,
    _average_ranks,
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
)
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


def loop_average_ranks(values):
    """Walks the sorted values group by group; each tie group at sorted positions i..j gets 0.5 * (i + j) + 1."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@pytest.mark.parametrize("distinct", [1, 2, 4, 7, None])
def test_average_ranks_equal_the_group_walk(distinct):
    rng = np.random.default_rng(distinct or 0)
    for n in (0, 1, 2, 3, 10, 257, 2000):
        if distinct is None:  # untied
            values = rng.random(n)
        else:  # heavily tied, with signed zeros and NaN among the values
            values = rng.choice(np.array([-0.0, 0.0, 0.5, np.nan, 1.0, 0.25, 0.75])[:distinct], size=n)
        got, expected = _average_ranks(values), loop_average_ranks(values)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()


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
        assert auroc(u, adm) == pytest.approx(pairwise_auroc_oracle(u, adm), abs=1e-12)


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


def test_evaluate_split_bundles_counts():
    u = [0.1, 0.2, 0.6, 0.9]
    adm = [1, 1, 0, 1]
    report = evaluate_split(u, adm, 0.5)
    assert report.n_total == 4
    assert report.n_accepted == 2
    assert report.fdr == 0.0
    assert report.power == pytest.approx(2 / 3)
    assert 0.0 <= report.auroc <= 1.0


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


def test_evaluate_split_checks_its_pair_once(monkeypatch):
    from clickrisk import metrics

    calls = []
    check = metrics._check_pair
    monkeypatch.setattr(metrics, "_check_pair", lambda u, adm: calls.append(1) or check(u, adm))
    u, adm = [0.1, 0.2, 0.6, 0.9, 0.4], [1, 1, 0, 1, 0]
    report = evaluate_split(u, adm, 0.5)
    assert len(calls) == 1
    monkeypatch.undo()
    assert report == EvalReport(auroc(u, adm), auarc(u, adm), fdr_at(u, adm, 0.5), power_at(u, adm, 0.5), 3, 5)


def test_aggregate_population_std():
    stat = aggregate([1.0, 2.0, 3.0, 4.0])
    assert stat.mean == pytest.approx(2.5)
    assert stat.std == pytest.approx(np.std([1, 2, 3, 4]))
    with pytest.raises(MetricError):
        aggregate([])

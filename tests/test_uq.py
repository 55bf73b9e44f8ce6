import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from clickrisk import cli, density, uq
from clickrisk.density import (
    DensityError,
    DensityMap,
    build_density_map,
    extract_regions,
    region_means,
    score_regions,
    sparse_region_scores,
)
from clickrisk.records import UQ_KEYS, GroundingRecord, load_records, read_columns
from clickrisk.uq import (
    SCORE_CHUNK,
    UncertaintyScore,
    UqConfig,
    WEIGHT_PRESETS,
    combine,
    concentration_deficit,
    info_dispersion,
    score_columns,
    score_record,
    top_ambiguity,
    variant_column,
    missing_score,
    MissingScoreError,
)
from test_records import write_records

EPS = 1e-8


# --- top ambiguity ---------------------------------------------------------

def test_tied_leaders_give_full_ambiguity():
    assert top_ambiguity((0.4, 0.4), EPS) == pytest.approx(1.0, abs=1e-7)


def test_clear_margin():
    # frozen: 1 - 0.3/(0.4 + 1e-8)
    assert top_ambiguity((0.4, 0.1), EPS) == pytest.approx(0.25, abs=1e-6)


def test_single_region_floor():
    assert top_ambiguity((0.95,), EPS) == 0.1
    assert top_ambiguity((0.5,), EPS) == 0.5


def test_top_ambiguity_requires_scores():
    with pytest.raises(ValueError):
        top_ambiguity((), EPS)


# --- info dispersion ---------------------------------------------------------

def test_uniform_two_regions_maximal():
    assert info_dispersion((0.5, 0.5), EPS) == pytest.approx(1.0, abs=1e-7)


def test_single_region_convention():
    assert info_dispersion((1.0,), EPS) == 0.0


def test_dispersion_matches_independent_evaluation():
    p = (0.7, 0.2, 0.1)
    expected = -(1.0 / math.log(3)) * sum(pi * math.log(pi + EPS) for pi in p)
    assert info_dispersion(p, EPS) == pytest.approx(expected, abs=1e-12)
    # frozen value from the same formula evaluated independently up front
    assert info_dispersion(p, EPS) == pytest.approx(0.7298466718549214, abs=1e-12)


def test_dispersion_rejects_non_distribution():
    with pytest.raises(ValueError):
        info_dispersion((0.5, 0.2), EPS)


# --- concentration deficit ----------------------------------------------------

def test_full_concentration_is_zero():
    assert concentration_deficit((1.0,)) == 0.0


def test_uniform_four_regions():
    assert concentration_deficit((0.25,) * 4) == pytest.approx(0.75)


def test_even_split_two_regions():
    assert concentration_deficit((0.5, 0.5)) == pytest.approx(0.5)


def fraction_deficit(probs):
    """Oracle: 1 - sum p_i^2 in rational arithmetic, rounded once."""
    exact = [Fraction(p) for p in probs]
    return min(1.0, max(0.0, float(1 - sum(p * p for p in exact))))


def test_deficit_matches_fraction_oracle():
    rng = np.random.default_rng(11)
    cases = [(1.0,), (0.5, 0.5), (0.25,) * 4, (1.0 / 3,) * 3, (1.0 / 7,) * 7]
    for _ in range(500):
        m = int(rng.integers(1, 40))
        scores = rng.uniform(0.001, 1.0, size=m) ** rng.uniform(0.2, 5.0)
        total = sum(float(s) for s in scores)
        cases.append(tuple(float(s) / total for s in scores))
    # off by a few ulps in total, or by a tiny probability, but inside the 1e-9 tolerance
    cases.append((0.5, 0.5 + 2**-40))
    cases.append((1.0 - 1e-10, 1e-300, 5e-324))
    cases.append((np.float64(0.3), np.float64(0.7)))
    for probs in cases:
        assert concentration_deficit(probs) == fraction_deficit(probs), probs


def test_deficit_rejects_non_distribution():
    for probs in [(0.5, 0.2), (0.6, 0.6), (1.0, 2e-9), (1.0 - 2e-9,)]:
        with pytest.raises(ValueError, match="sum to 1"):
            concentration_deficit(probs)
    with pytest.raises(ValueError):
        concentration_deficit(())


def per_element_dispersion(probs, epsilon):
    """Oracle: normalized entropy with one fsum term per element, checks included."""
    m = len(probs)
    if m == 0:
        raise ValueError("probs must be non-empty")
    if abs(math.fsum(probs) - 1.0) > 1e-9:
        raise ValueError(f"probs must sum to 1, got {math.fsum(probs)}")
    if m == 1:
        return 0.0
    entropy = -math.fsum(p * math.log(p + epsilon) for p in probs)
    return min(1.0, max(0.0, entropy / math.log(m)))


def tied_distributions(rng):
    """Distributions of 1 to 5 distinct values repeated up to M = 1000 times.

    Each comes as floats in ranked order, as `uq._score` passes them, as
    shuffled floats, and as shuffled Fractions that sum to 1 exactly.
    """
    for m in (1, 2, 3, 5, 8, 47, 200, 1000):
        for distinct in range(1, min(m, 5) + 1):
            counts = (1 + rng.multinomial(m - distinct, np.ones(distinct) / distinct)).tolist()
            weights = (rng.uniform(0.01, 1.0, size=distinct) ** rng.uniform(0.2, 5.0)).tolist()
            total = math.fsum(w * c for w, c in zip(weights, counts))
            ranked = sorted((w / total for w, c in zip(weights, counts) for _ in range(c)), reverse=True)
            exact_total = sum(Fraction(w) * c for w, c in zip(weights, counts))
            exact = [Fraction(w) / exact_total for w, c in zip(weights, counts) for _ in range(c)]
            yield ranked
            yield [ranked[i] for i in rng.permutation(m)]
            yield [exact[i] for i in rng.permutation(m)]


def test_components_cost_per_distinct_value_and_keep_every_bit():
    rng = np.random.default_rng(14)
    cases = 0
    for probs in tied_distributions(rng):
        for given in (tuple(probs), list(probs), np.array(probs, dtype=np.float64)):
            if isinstance(probs[0], Fraction) and isinstance(given, np.ndarray):
                continue  # a float64 array of Fractions is the float case again
            assert concentration_deficit(given) == fraction_deficit(probs), probs
            assert info_dispersion(given, EPS) == per_element_dispersion(probs, EPS), probs
            cases += 1
    assert cases > 200


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the exact type and message are the point
        return type(exc), str(exc)


NAN_RATIO = (ValueError, "cannot convert NaN to integer ratio")
INF_RATIO = (OverflowError, "cannot convert Infinity to integer ratio")
NAN_SUM = (ValueError, "probs must sum to 1, got nan")
ORACLE = None  # info_dispersion fails or answers as per_element_dispersion does


@pytest.mark.parametrize("probs, dispersion, deficit", [
    ((), ORACLE, (ValueError, "probs must be non-empty")),
    ((math.nan,), NAN_SUM, NAN_RATIO),
    ((math.nan, 0.5), NAN_SUM, NAN_RATIO),
    ((0.5, 0.5, math.nan, math.nan), NAN_SUM, NAN_RATIO),
    ((math.inf, 0.5), ORACLE, INF_RATIO),
    ((0.5, 0.5, -math.inf), ORACLE, INF_RATIO),
    ((math.inf, -math.inf), ORACLE, INF_RATIO),
    ((0.5, 0.2), ORACLE, (ValueError, "probs must sum to 1, got 0.7")),
    ((0.4,) * 3, ORACLE, (ValueError, "probs must sum to 1, got 1.2000000000000002")),
    ((0.3, 0.3), ORACLE, (ValueError, "probs must sum to 1, got 0.6")),
    ((1.0, -0.0, 0.0), ORACLE, 0.0),
], ids=["empty", "nan", "nan-first", "nan-run", "inf", "minus-inf-run", "inf-minus-inf", "short", "long",
        "tied-short", "signed-zeros"])
def test_components_reject_what_they_rejected_with_the_same_errors(probs, dispersion, deficit):
    """The same type and message, or value, as the per-element forms; a NaN now fails the sum check
    of info_dispersion, where the oracle lets it through as 0.0."""
    if dispersion is ORACLE:
        dispersion = outcome(per_element_dispersion, probs, EPS)
    for given in (probs, list(probs), np.array(probs, dtype=np.float64)):
        assert outcome(info_dispersion, given, EPS) == dispersion
        assert outcome(concentration_deficit, given) == deficit


# --- combine -----------------------------------------------------------------

def test_weighted_combination():
    assert combine(0.5, 1.0, 0.25, (0.6, 0.2, 0.2)) == pytest.approx(0.55)


def test_degenerate_weights_pick_one_component():
    assert combine(0.37, 0.9, 0.9, (1.0, 0.0, 0.0)) == pytest.approx(0.37)


def test_equal_components_are_a_fixed_point():
    for preset in WEIGHT_PRESETS.values():
        assert combine(0.42, 0.42, 0.42, preset) == pytest.approx(0.42)


def test_combine_rejects_bad_weights():
    with pytest.raises(ValueError):
        combine(0.5, 0.5, 0.5, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        combine(0.5, 0.5, 0.5, (-0.2, 0.6, 0.6))


# --- score_record ---------------------------------------------------------------

def record_with_samples(samples, width=280, height=280, **overrides):
    fields = dict(
        id="rec",
        image_width=width,
        image_height=height,
        gt_box=(0.0, 0.0, 50.0, 50.0),
        samples=tuple(samples),
    )
    fields.update(overrides)
    return GroundingRecord(**fields)


def columns_of(records):
    """The records' samples as one (points, offsets, dims) column, see `score_columns`."""
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum([len(r.samples) for r in records], out=offsets[1:])
    points = np.array([p for r in records for p in r.samples], dtype=float).reshape(-1, 2)
    return points, offsets, [(r.image_width, r.image_height) for r in records]


def column_scores(records, config=UqConfig()):
    """The batch path: every record scored by one `score_columns` call."""
    return [UncertaintyScore(*row) for row in score_columns(*columns_of(records), config, {}).tolist()]


def uq_fields(score):
    """A score as the `uq` object of a scored record."""
    return dict(zip(UQ_KEYS, dataclasses.astuple(score)))


def test_degenerate_cloud_trace():
    record = record_with_samples([(3.0, 3.0)] * 10, width=28, height=28)
    score = score_record(record)
    assert score.ta == pytest.approx(0.1)
    assert score.ie == 0.0
    assert score.cd == 0.0
    assert score.combined == pytest.approx(0.02)


def test_two_equal_far_clusters_trace():
    samples = [(7.0, 7.0)] * 5 + [(250.0, 250.0)] * 5
    score = score_record(record_with_samples(samples))
    assert score.ta == pytest.approx(1.0, abs=1e-6)
    assert score.ie == pytest.approx(1.0, abs=1e-6)
    assert score.cd == pytest.approx(0.5)
    assert score.combined == pytest.approx(0.7, abs=1e-6)


def test_score_is_pure():
    rng = np.random.default_rng(1)
    record = record_with_samples(rng.uniform(0, 280, size=(10, 2)).tolist())
    assert score_record(record) == score_record(record)


def test_sample_order_is_irrelevant():
    rng = np.random.default_rng(2)
    samples = rng.uniform(0, 280, size=(10, 2)).tolist()
    base = score_record(record_with_samples(samples))
    shuffled = score_record(record_with_samples(samples[::-1]))
    assert base == shuffled


def test_k_cap_uses_leading_samples():
    samples = [(7.0, 7.0)] * 5 + [(250.0, 250.0)] * 5
    capped = score_record(record_with_samples(samples), UqConfig(k_samples=5))
    assert capped == score_record(record_with_samples(samples[:5]))
    assert capped.cd == 0.0  # first five samples form a single tight cluster


def test_pc_passes_through(tmp_path):
    record = record_with_samples([(3.0, 3.0)] * 10, pc=0.77)
    assert score_record(record) == score_record(dataclasses.replace(record, pc=None))
    write_records(tmp_path / "in.jsonl", [record])
    assert cli.main(["score", "-i", str(tmp_path / "in.jsonl"), "-o", str(tmp_path / "out.jsonl")]) == 0
    assert load_records(tmp_path / "out.jsonl")[0].pc == 0.77


def test_components_stay_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        record = record_with_samples(rng.uniform(-20, 300, size=(n, 2)).tolist())
        score = score_record(record)
        for value in (score.ta, score.ie, score.cd, score.combined):
            assert 0.0 <= value <= 1.0


def test_uniform_fragmentation_monotonicity():
    # with uniform probs, cd strictly grows with the region count and ie stays ~1
    last_cd = -1.0
    for m in range(2, 30):
        probs = (1.0 / m,) * m
        cd = concentration_deficit(probs)
        assert cd > last_cd
        assert cd == pytest.approx(1.0 - 1.0 / m)
        assert info_dispersion(probs, EPS) == pytest.approx(1.0, abs=1e-6)
        last_cd = cd


def test_score_scaling_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        scores = np.sort(rng.uniform(0.05, 1.0, size=m))[::-1]
        total = scores.sum()
        probs = tuple(float(s) / total for s in scores)
        for c in (0.5, 2.0):
            scaled = tuple(float(s * c) for s in scores)
            scaled_probs = tuple(s / (total * c) for s in scaled)
            assert top_ambiguity(scaled, EPS) == pytest.approx(
                top_ambiguity(tuple(scores), EPS), abs=1e-6
            )
            assert info_dispersion(scaled_probs, EPS) == pytest.approx(
                info_dispersion(probs, EPS), abs=1e-12
            )
            assert concentration_deficit(scaled_probs) == pytest.approx(
                concentration_deficit(probs), abs=1e-12
            )


# --- config and variants ------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        UqConfig(weights=(0.5, 0.5, 0.5)).validate()
    with pytest.raises(ValueError):
        UqConfig(beta=1.0).validate()
    with pytest.raises(ValueError):
        UqConfig(k_samples=0).validate()
    UqConfig().validate()


def test_weight_presets_are_normalized():
    for name, weights in WEIGHT_PRESETS.items():
        assert abs(sum(weights) - 1.0) < 1e-12, name


def test_attach_and_variant_roundtrip(tmp_path):
    record = record_with_samples([(3.0, 3.0)] * 10, pc=0.3)
    write_records(tmp_path / "in.jsonl", [record])
    assert cli.main(["score", "-i", str(tmp_path / "in.jsonl"), "-o", str(tmp_path / "out.jsonl")]) == 0
    [chunk] = read_columns(tmp_path / "out.jsonl")
    assert variant_column(chunk, "com").tolist() == [pytest.approx(0.02)]
    assert variant_column(chunk, "ta").tolist() == [pytest.approx(0.1)]
    assert variant_column(chunk, "pc").tolist() == [0.3]
    [unscored] = read_columns(tmp_path / "in.jsonl")
    assert np.isnan(variant_column(unscored, "com")).all()


def test_variant_errors_name_the_field():
    assert isinstance(missing_score("rec", "pc"), MissingScoreError)
    assert str(missing_score("rec", "pc")) == "record 'rec' has no pc field"
    assert str(missing_score("rec", "com")) == "record 'rec' has no uq fields; run scoring first"


# --- sparse scoring against the dense chain ------------------------------------

DENSE_CELL_LIMIT = 2_500_000  # 1920x1080 at patch 1; larger grids use a window


def squeeze(indices):
    """Renumber patch rows (or cols) from 1, keeping order and adjacency:
    neighbours stay one apart and every gap shrinks to one empty line."""
    new = {}
    for old in sorted(set(indices)):
        new[old] = 1 if not new else new[prev] + min(old - prev, 2)
        prev = old
    return [new[i] for i in indices]


def dense_chain(samples, dims, patch, beta, region_sizes=None):
    """Oracle: ranked scores of the dense grid -> regions -> ranking chain.

    Grids above DENSE_CELL_LIMIT patches (4K and 8K at patch 1) would take
    hundreds of MB, so there the chain runs on a small grid instead: every
    sample moves to the centre of its clamped patch, and the occupied rows
    and columns are renumbered by `squeeze`. That keeps each patch's value,
    which patches touch, and row-major order, so the chain's output is the same.
    `region_sizes`, when given, collects the number of patches of each region.
    """
    grid_h, grid_w = math.ceil(dims[1] / patch), math.ceil(dims[0] / patch)
    if grid_h * grid_w > DENSE_CELL_LIMIT:
        cols = [min(max(math.floor(x / patch), 0), grid_w - 1) for x, _ in samples]
        rows = [min(max(math.floor(y / patch), 0), grid_h - 1) for _, y in samples]
        cols, rows = squeeze(cols), squeeze(rows)
        samples = [((c + 0.5) * patch, (r + 0.5) * patch) for c, r in zip(cols, rows)]
        dims = ((max(cols) + 2) * patch, (max(rows) + 2) * patch)
    dmap = build_density_map(samples, dims, patch)
    regions = extract_regions(dmap, beta)
    if region_sizes is not None:
        region_sizes.extend(map(len, regions))
    return score_regions(dmap, regions)


def cloud(rng, kind, k, dims, patch):
    w, h = dims
    centre = rng.uniform((0, 0), (w, h))
    if kind == "cluster":
        return centre + rng.normal(0, 2 * patch, size=(k, 2))
    if kind == "spread":
        centres = rng.uniform((0, 0), (w, h), size=(3, 2))
        return centres[rng.integers(0, 3, size=k)] + rng.normal(0, patch, size=(k, 2))
    if kind == "edges":  # exactly on patch boundaries, including the image's far edges
        corner = np.floor(centre / patch)
        pts = (corner + rng.integers(-3, 4, size=(k, 2))) * patch
        pts[rng.random(k) < 0.2] = (w, h)
        return pts
    if kind == "wrap":  # last patch of a row and first of the next: row-major neighbours only
        y = rng.uniform(0, h - patch, size=k)
        right = rng.random(k) < 0.5
        return np.column_stack([np.where(right, w - 0.5, 0.5), np.where(right, y, y + patch)])
    # outside the image: clamped onto the border patches
    return rng.uniform((-3 * patch, -3 * patch), (w + 3 * patch, h + 3 * patch), size=(k, 2)) * (
        rng.choice([-1.0, 1.0, 3.0], size=(k, 1))
    )


@pytest.mark.parametrize("dims", [(840, 840), (1920, 1080), (3840, 2160), (7680, 4320)])
def test_sparse_scoring_equals_dense_chain(dims):
    rng = np.random.default_rng(dims[0])
    for k in (1, 10, 50, 500):
        region_sizes = []
        for beta in (0.0, 0.3, 0.99):
            for patch in (1, 14, 28):
                cfg = UqConfig(k_samples=k, patch_size=patch, beta=beta)
                records, expected = [], []
                for kind in ("cluster", "spread", "edges", "wrap", "outside"):
                    samples = [tuple(p) for p in cloud(rng, kind, k, dims, patch).tolist()]
                    scores = dense_chain(samples, dims, patch, beta, region_sizes)
                    assert sparse_region_scores(samples, dims, patch, beta) == scores
                    total = sum(scores)
                    probs = tuple(s / total for s in scores)  # p_i = S_i / sum S
                    records.append(record_with_samples(samples, *dims))
                    score = score_record(records[-1], cfg)
                    ta = top_ambiguity(scores, cfg.epsilon)
                    ie = info_dispersion(probs, cfg.epsilon)
                    cd = fraction_deficit(probs)
                    assert (score.ta, score.ie, score.cd) == (ta, ie, cd)
                    assert score.combined == combine(cd, ie, ta, cfg.weights)
                    expected.append(score)
                assert column_scores(records, cfg) == expected
        if k >= 50:  # some region is averaged pairwise, as ndarray.mean sums 8 members and more
            assert max(region_sizes) >= 8


@pytest.mark.parametrize("patch", [1, 14])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("far", [1e300, -1e300, 1e20, -1e20])
def test_samples_beyond_int64_patches_land_in_the_border_patch(patch, axis, far):
    """A finite sample whose floor(coordinate / patch) is 2**63 or more clamps to the border, on every path."""
    dims, inside = (840, 560), (300.0, 200.0)
    grid_w = math.ceil(dims[0] / patch)
    far_point = list(inside)
    far_point[axis] = far if abs(far) > 1e100 else far * patch
    row, col = int(inside[1] // patch), int(inside[0] // patch)
    if axis == 0:
        col = grid_w - 1 if far > 0 else 0
    else:
        row = math.ceil(dims[1] / patch) - 1 if far > 0 else 0
    samples = [tuple(far_point), inside, (inside[0] + 15.0, inside[1])]
    dmap = build_density_map(samples, dims, patch)
    assert dmap.values[row, col] > 0
    expected = score_regions(dmap, extract_regions(dmap, 0.0))
    assert sparse_region_scores(samples, dims, patch, 0.0) == expected
    _, patches = density.occupied_patches(samples, dims, patch)
    cells, values = zip(*patches)
    assert row * grid_w + col in cells
    assert list(values) == dmap.values[dmap.values > 0].tolist()
    cfg = UqConfig(k_samples=len(samples), patch_size=patch, beta=0.0)
    record = record_with_samples(samples, *dims)
    assert column_scores([record], cfg) == [score_record(record, cfg)]


def test_the_right_edge_of_a_grid_wider_than_float_precision_stays_exact():
    dims, edge = (2**60, 1), 2**60 - 1  # the last column is not a float
    samples = [(1e300, 0.0), (2.0**59, 0.0)]
    _, patches = density.occupied_patches(samples, dims, 1)
    assert [cell for cell, _ in patches] == [2**59, edge]
    expected = sparse_region_scores(samples, dims, 1, 0.0)
    assert expected == (0.5, 0.5)
    record, cfg = record_with_samples(samples, *dims), UqConfig(beta=0.0)
    assert column_scores([record], cfg) == [score_record(record, cfg)]


@pytest.mark.parametrize("samples, dims, patch, beta, message", [
    ([(math.nan, 3.0)], (28, 28), 14, 1.0, "beta must lie"),  # beta is checked first
    ([], (28, 28), 14, 0.3, "at least one sample"),
    ([(math.nan, 3.0)], (28, 28), 0, 0.3, "patch_size"),  # then the grid, then the coordinates
    ([(math.nan, 3.0)], (0, 28), 14, 0.3, "dimensions must be positive"),
    ([(math.nan, 3.0)], (2**62, 2**62), 1, 0.3, "too large to index"),
    ([(3.0, 3.0), (3.0, -math.inf)], (28, 28), 14, 0.3, "must be finite"),
])
def test_sparse_scoring_checks_its_inputs_in_order(samples, dims, patch, beta, message):
    with pytest.raises(DensityError, match=message):
        sparse_region_scores(samples, dims, patch, beta)


def test_huge_declared_image_scores_in_bounded_memory():
    samples = [(10.0 * i, 5e5 + 3.0 * i) for i in range(10)]
    record = record_with_samples(samples, width=10**6, height=10**6)
    score_record(record_with_samples(samples))  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        score = score_record(record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the dense grid would take ~40 GB at patch 14
    assert 0.0 <= score.combined <= 1.0


def test_occupied_patches_of_a_huge_declared_image_take_bounded_memory():
    samples = [(10.0 * i, 5e5 + 3.0 * i) for i in range(10)]
    density.occupied_patches(samples, (280, 280), 14)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        grid_w, patches = density.occupied_patches(samples, (10**6, 10**6), 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert grid_w == 71429 and len(patches) <= 10


@pytest.mark.parametrize("dims", [(840, 840), (1920, 1080)])
def test_density_dump_lists_the_dense_grids_nonzero_cells(tmp_path, dims):
    """`score --dump-density` rows equal the dense grid's nonzero cells, row-major."""
    rng = np.random.default_rng(dims[1])
    for patch in (1, 14, 28):
        records = [
            record_with_samples([tuple(p) for p in cloud(rng, kind, 50, dims, patch).tolist()], *dims, id=kind)
            for kind in ("cluster", "spread", "edges", "wrap", "outside")
        ]
        src, dump = tmp_path / f"p{patch}.jsonl", tmp_path / f"dump{patch}"
        write_records(src, records)
        argv = ["score", "-i", src, "-o", tmp_path / "scored.jsonl", "--k-samples", 50,
                "--patch-size", patch, "--dump-density", dump]
        assert cli.main([str(a) for a in argv]) == 0
        for record in records:
            assert read_dump(dump / f"{record.id}.csv") == dense_nonzero(record, 50, patch)


def read_dump(path):
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    assert header == "row,col,value"
    return [(int(r), int(c), float(v)) for r, c, v in (row.split(",") for row in rows)]


def dense_nonzero(record, k, patch):
    """(row, col, value) of every nonzero cell of the record's dense grid, row-major."""
    dmap = build_density_map(record.samples[:k], (record.image_width, record.image_height), patch)
    rows, cols = np.nonzero(dmap.values)
    return list(zip(rows.tolist(), cols.tolist(), dmap.values[rows, cols].tolist()))


# --- the batch path (score_columns) against score_record ------------------------

def cloud_records(rng, dims, k, patch, per_kind=1):
    return [
        record_with_samples([tuple(p) for p in cloud(rng, kind, k, dims, patch).tolist()], *dims,
                            id=f"{kind}-{i}", pc=float(rng.random()) if rng.random() < 0.5 else None)
        for kind in ("cluster", "spread", "edges", "wrap", "outside")
        for i in range(per_kind)
    ]


def test_score_batch_mixes_image_sizes_and_sample_counts():
    rng = np.random.default_rng(21)
    records = []
    for dims in [(840, 840), (1920, 1080), (7680, 4320), (28, 14), (30, 20)]:
        for k in (1, 3, 10, 50):
            records += cloud_records(rng, dims, k, 14)
    order = rng.permutation(len(records))
    records = [records[i] for i in order]
    for cfg in (UqConfig(), UqConfig(k_samples=50, beta=0.0), UqConfig(k_samples=3, patch_size=28)):
        assert column_scores(records, cfg) == [score_record(r, cfg) for r in records]


@pytest.mark.parametrize("n", [0, 1, SCORE_CHUNK, SCORE_CHUNK + 1])
def test_score_batch_across_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    records = []
    while len(records) < n:
        records += cloud_records(rng, (1920, 1080), int(rng.integers(1, 20)), 14, per_kind=2)
    records = records[:n]
    assert column_scores(records) == [score_record(r) for r in records]


def test_score_batch_averages_large_regions_pairwise(monkeypatch):
    seen = []

    def spy(values, sizes):
        seen.append(int(sizes.max()))
        return region_means(values, sizes)

    monkeypatch.setattr(density, "region_means", spy)
    rng = np.random.default_rng(8)
    cfg = UqConfig(k_samples=50, beta=0.0)
    records = []
    for _ in range(40):  # 50 samples over a few patches: regions of 8 cells and more
        centre = rng.uniform(100, 700, size=2)
        samples = centre + rng.normal(0, float(rng.uniform(10, 30)), size=(50, 2))
        records.append(record_with_samples([tuple(p) for p in samples.tolist()], 840, 840))
    assert column_scores(records, cfg) == [score_record(r, cfg) for r in records]
    assert max(seen) >= 8


def test_region_means_reproduce_ndarray_mean():
    # ndarray.mean sums fewer than 8 items left to right and more in pairwise
    # blocks; region_means relies on that order, so a numpy whose blocking
    # differs fails here rather than moving every score by an ulp
    rng = np.random.default_rng(13)
    for size in range(1, 61):
        for _ in range(40):
            k = int(rng.integers(size + 1, 4 * size + 50))  # a record's K samples
            values = rng.integers(1, k, size=size) / k
            got = region_means(values, np.array([size]))
            assert got[0] == values.mean(), (size, values)
    sizes = rng.integers(1, 61, size=300)
    values = rng.integers(1, 97, size=int(sizes.sum())) / 97
    starts = np.cumsum(sizes) - sizes
    expected = [values[s : s + n].mean() for s, n in zip(starts, sizes)]
    assert region_means(values, sizes).tolist() == expected


def test_score_batch_with_a_huge_declared_image_stays_in_bounded_memory():
    samples = [(10.0 * i, 5e5 + 3.0 * i) for i in range(10)]
    records = [record_with_samples(samples), record_with_samples(samples, width=10**6, height=10**6)]
    column_scores(records)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        scores = column_scores(records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert scores == [score_record(r) for r in records]


def test_score_batch_rejects_the_first_bad_record_as_score_record_does():
    good = record_with_samples([(3.0, 3.0)] * 4)
    overflow = record_with_samples([(3.0, 3.0)], width=2**62, height=2**62)
    nonfinite = record_with_samples([(3.0, 3.0), (math.nan, 4.0)])
    infinite = record_with_samples([(math.inf, 3.0)])
    cfg = UqConfig(patch_size=1)
    for batch in ([good, overflow, nonfinite], [good, nonfinite, overflow], [infinite, good], [good] * 300 + [overflow]):
        bad = next(r for r in batch if r is not good)
        with pytest.raises(DensityError) as expected:
            score_record(bad, cfg)
        with pytest.raises(DensityError) as got:
            column_scores(batch, cfg)
        assert str(got.value) == str(expected.value)
    assert "too large to index" in str(expected.value)


# --- the per-call memo of score_columns -----------------------------------------

def repeated_tuple_records(rng, n):
    """n records over a few cloud shapes, each placed at a random patch offset.

    A shape moved by whole patches keeps its ranked-score tuple, so the batch
    repeats a handful of tuples on many different patch sets.
    """
    shapes = [rng.uniform(0, 60, size=(int(rng.integers(1, 12)), 2)) for _ in range(6)]
    records = []
    for i in range(n):
        shape = shapes[int(rng.integers(len(shapes)))]
        shift = 14.0 * rng.integers(0, 50, size=2)
        samples = [tuple(p) for p in (shape + shift).tolist()]
        pc = float(rng.random()) if i % 3 else None
        records.append(record_with_samples(samples, 840, 840, id=f"r{i}", pc=pc))
    return records


def test_score_batch_memo_equals_score_record_on_repeated_tuples(monkeypatch):
    records = repeated_tuple_records(np.random.default_rng(5), 3 * SCORE_CHUNK)
    calls = []
    real_score = uq._score
    monkeypatch.setattr(uq, "_score", lambda *a: calls.append(a[0]) or real_score(*a))
    got = column_scores(records)
    monkeypatch.undo()
    assert got == [score_record(r) for r in records]
    assert len(calls) == len(set(calls)) < 10  # one component evaluation per distinct tuple


def test_score_batch_memo_keeps_each_records_pc(tmp_path):
    """`score` writes each record's own pc, though the records share one cloud and its scores."""
    samples = [(20.0, 20.0), (22.0, 21.0), (100.0, 100.0)]
    a = record_with_samples(samples, id="a", pc=0.25)
    b = record_with_samples(samples, id="b", pc=0.75)
    c = record_with_samples(samples, id="c")
    write_records(tmp_path / "in.jsonl", [a, b, c])
    assert cli.main(["score", "-i", str(tmp_path / "in.jsonl"), "-o", str(tmp_path / "out.jsonl")]) == 0
    got = load_records(tmp_path / "out.jsonl")
    assert [r.pc for r in got] == [0.25, 0.75, None]
    expected = [score_record(r) for r in (a, b, c)]
    assert [r.uq for r in got] == [uq_fields(s) for s in expected]


def test_score_batch_twice_gives_identical_results():
    records = repeated_tuple_records(np.random.default_rng(6), 300)
    assert column_scores(records) == column_scores(records)


def test_uq_holds_no_module_level_state_after_a_call():
    def snapshot():
        return {name: (id(value), len(value) if isinstance(value, (dict, list, set)) else None)
                for name, value in vars(uq).items()}

    records = repeated_tuple_records(np.random.default_rng(7), 300)
    before = snapshot()
    column_scores(records)
    score_columns(*columns_of(records), UqConfig(k_samples=5), {})
    assert snapshot() == before


def test_score_columns_equals_score_batch_and_caps_k():
    rng = np.random.default_rng(9)
    records = cloud_records(rng, (840, 840), 30, 14, per_kind=40) + repeated_tuple_records(rng, 100)
    for cfg in (UqConfig(), UqConfig(k_samples=30, beta=0.0), UqConfig(k_samples=3, patch_size=28)):
        points, offsets, dims = columns_of(records)  # every sample, so score_columns caps at k
        expected = [[s.ta, s.ie, s.cd, s.combined] for s in (score_record(r, cfg) for r in records)]
        assert score_columns(points, offsets, dims, cfg, {}).tolist() == expected


def test_score_columns_memo_keeps_configs_apart():
    records = repeated_tuple_records(np.random.default_rng(10), 200)
    columns = columns_of(records)
    memo: dict = {}
    for cfg in (UqConfig(), UqConfig(weights=WEIGHT_PRESETS["v2"]), UqConfig()):
        expected = [[s.ta, s.ie, s.cd, s.combined] for s in (score_record(r, cfg) for r in records)]
        assert score_columns(*columns, cfg, memo).tolist() == expected
    assert len(memo) == 2


def test_score_batch_near_the_int64_patch_limit_equals_score_record():
    # patch 1 on images of up to 2**63 patches: a batch's (cloud, patch) keys
    # would overflow int64, so it is scored in parts, and a key plus a grid
    # width may wrap around
    cfg = UqConfig(patch_size=1, beta=0.0)
    edge = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0**61, 1.0), (2.0**61 + 4096.0, 0.0), (2.0**61, 0.0)]
    records = [
        record_with_samples(edge, width=2**62 - 2**11, height=2, id="wraps"),
        record_with_samples(edge, width=2**62, height=1, id="one-row"),
        record_with_samples(edge, width=2**40, height=2**21, id="tall"),
        record_with_samples(edge[:3] * 2, width=28, height=28, id="small"),
    ]
    for batch in (records, records[::-1], records * 3, records[:1] * 2):
        assert column_scores(batch, cfg) == [score_record(r, cfg) for r in batch]

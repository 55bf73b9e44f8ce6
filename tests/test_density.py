import numpy as np
import pytest

from clickrisk import uq
from clickrisk.density import (
    DensityError,
    DensityMap,
    build_density_map,
    extract_regions,
    score_regions,
    sparse_region_scores,
)


def distribution(scores):
    """The categorical distribution `uq._score` derives from ranked scores, as it hands it on."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uq, "concentration_deficit", lambda probs: seen.append(tuple(probs)) or 0.0)
        uq._score(scores, uq.UqConfig())
    return seen[0]


def make_map(values, patch_size=14):
    arr = np.asarray(values, dtype=float)
    return DensityMap(grid_h=arr.shape[0], grid_w=arr.shape[1], patch_size=patch_size, values=arr)


def flood_fill_oracle(values, beta):
    """Independent region finder: threshold mask + stack-based fill."""
    arr = np.asarray(values, dtype=float)
    keep = arr > beta * arr.max()
    seen = np.zeros_like(keep, dtype=bool)
    regions = set()
    h, w = arr.shape
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
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and keep[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
            regions.add(frozenset(comp))
    return regions


# --- build_density_map -----------------------------------------------------

def test_all_samples_in_one_patch():
    dmap = build_density_map([(3.0, 3.0)] * 10, (28, 28), 14)
    assert (dmap.grid_h, dmap.grid_w) == (2, 2)
    assert dmap.values[0, 0] == 1.0
    assert dmap.values.sum() == pytest.approx(1.0)


def test_two_patch_split():
    samples = [(3.0, 3.0)] * 5 + [(20.0, 20.0)] * 5
    dmap = build_density_map(samples, (28, 28), 14)
    assert dmap.values[0, 0] == pytest.approx(0.5)
    assert dmap.values[1, 1] == pytest.approx(0.5)


def test_out_of_image_sample_is_clamped():
    dmap = build_density_map([(-1.0, 5.0)], (28, 28), 14)
    assert dmap.values[0, 0] == 1.0
    dmap = build_density_map([(1000.0, 1000.0)], (28, 28), 14)
    assert dmap.values[1, 1] == 1.0


def test_grid_uses_ceiling_division():
    dmap = build_density_map([(0.0, 0.0)], (29, 15), 14)
    assert (dmap.grid_h, dmap.grid_w) == (2, 3)


def test_rejects_bad_inputs():
    with pytest.raises(DensityError):
        build_density_map([], (28, 28), 14)
    with pytest.raises(DensityError):
        build_density_map([(float("nan"), 1.0)], (28, 28), 14)
    with pytest.raises(DensityError):
        build_density_map([(1.0, 1.0)], (28, 28), 0)


def test_grid_too_large_to_index_is_rejected():
    with pytest.raises(DensityError, match="too large"):
        sparse_region_scores([(1.0, 1.0)], (10**19, 10**19), 1, 0.3)


def test_density_conservation_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        samples = rng.uniform(-10, 500, size=(n, 2)).tolist()
        dmap = build_density_map(samples, (400, 300), 14)
        assert dmap.values.sum() == pytest.approx(1.0, abs=1e-9)


# --- extract_regions --------------------------------------------------------

def test_threshold_filters_low_cells():
    values = np.zeros((3, 3))
    values[0, 0] = 1.0
    values[0, 2] = 0.4
    values[2, 0] = 0.2
    regions = extract_regions(make_map(values), beta=0.3)
    assert sorted(regions, key=min) == [frozenset({(0, 0)}), frozenset({(0, 2)})]


def test_threshold_is_strict():
    values = np.zeros((2, 2))
    values[0, 0] = 1.0
    values[1, 1] = 0.3
    regions = extract_regions(make_map(values), beta=0.3)
    assert regions == [frozenset({(0, 0)})]


def test_adjacent_cells_merge():
    values = np.zeros((2, 3))
    values[0, 0] = 0.5
    values[0, 1] = 0.5
    regions = extract_regions(make_map(values), beta=0.3)
    assert regions == [frozenset({(0, 0), (0, 1)})]


def test_diagonal_cells_do_not_merge():
    values = np.zeros((2, 2))
    values[0, 0] = 0.5
    values[1, 1] = 0.5
    regions = extract_regions(make_map(values), beta=0.3)
    assert len(regions) == 2


def test_rejects_all_zero_map():
    with pytest.raises(DensityError):
        extract_regions(make_map(np.zeros((2, 2))), beta=0.3)
    with pytest.raises(DensityError):
        extract_regions(make_map(np.ones((2, 2))), beta=1.0)


def test_matches_flood_fill_oracle():
    rng = np.random.default_rng(123)
    for _ in range(60):
        h, w = rng.integers(2, 21, size=2)
        values = rng.random((h, w)) * (rng.random((h, w)) < 0.4)
        if values.max() <= 0:
            values[0, 0] = 0.7
        regions = extract_regions(make_map(values), beta=0.3)
        assert set(regions) == flood_fill_oracle(values, 0.3)


def test_regions_are_disjoint_and_connected():
    rng = np.random.default_rng(5)
    values = rng.random((15, 15)) * (rng.random((15, 15)) < 0.5)
    values[3, 3] = 1.0
    regions = extract_regions(make_map(values), beta=0.3)
    seen = set()
    for region in regions:
        assert not (region & seen)
        seen |= region
        # re-walk adjacency: every region must be internally 4-connected
        start = next(iter(region))
        reached = {start}
        frontier = [start]
        while frontier:
            r, c = frontier.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in region and nb not in reached:
                    reached.add(nb)
                    frontier.append(nb)
        assert reached == region


# --- score_regions ----------------------------------------------------------

def test_region_score_is_mean_density():
    values = np.zeros((1, 3))
    values[0, 0] = 0.5
    values[0, 1] = 0.3
    values[0, 2] = 0.2
    scores = score_regions(make_map(values), [frozenset({(0, 0), (0, 1)})])
    assert scores == (pytest.approx(0.4),)


def test_single_region_prob_is_one():
    values = np.array([[0.6, 0.4]])
    scores = score_regions(make_map(values), [frozenset({(0, 0), (0, 1)})])
    assert distribution(scores) == (1.0,)


def test_tied_scores_split_evenly():
    values = np.zeros((1, 4))
    values[0, 0] = 0.4
    values[0, 3] = 0.4
    scores = score_regions(make_map(values), [frozenset({(0, 3)}), frozenset({(0, 0)})])
    assert scores == (0.4, 0.4)
    assert distribution(scores) == (0.5, 0.5)


def test_scores_sorted_descending():
    values = np.array([[0.1, 0.6, 0.3]])
    regions = [frozenset({(0, 0)}), frozenset({(0, 1)}), frozenset({(0, 2)})]
    scores = score_regions(make_map(values), regions)
    assert scores == (0.6, 0.3, 0.1)
    assert sum(distribution(scores)) == pytest.approx(1.0, abs=1e-9)


def test_score_rejects_empty_regions():
    with pytest.raises(DensityError):
        score_regions(make_map(np.ones((2, 2)) / 4), [])
    with pytest.raises(DensityError):
        score_regions(make_map(np.ones((2, 2)) / 4), [frozenset()])


# --- pipeline invariants ----------------------------------------------------

def run_pipeline(samples, dims, patch=14, beta=0.3):
    """The regions as a set, and their ranked scores."""
    dmap = build_density_map(samples, dims, patch)
    regions = extract_regions(dmap, beta)
    return set(regions), score_regions(dmap, regions)


def test_translation_by_patch_multiples_shifts_regions_only():
    rng = np.random.default_rng(17)
    samples = rng.uniform(50, 150, size=(20, 2)).tolist()
    base_regions, base = run_pipeline(samples, (600, 600))
    shifted_regions, shifted = run_pipeline([(x + 28, y + 14) for x, y in samples], (600, 600))
    assert base == shifted
    assert {frozenset((r + 1, c + 2) for r, c in region) for region in base_regions} == shifted_regions


def test_duplicating_samples_changes_nothing():
    rng = np.random.default_rng(23)
    samples = rng.uniform(0, 280, size=(12, 2)).tolist()
    base_regions, scores = run_pipeline(samples, (280, 280))
    doubled_regions, doubled_scores = run_pipeline(samples * 2, (280, 280))
    assert scores == pytest.approx(doubled_scores)
    assert distribution(scores) == pytest.approx(distribution(doubled_scores))
    assert base_regions == doubled_regions

"""Patch-grid density maps and connected high-density regions.

Sampled click coordinates are binned onto a grid of square patches and
normalized into a spatial probability map. Patches above an adaptive
threshold (a fixed fraction of the peak density) are grouped into
4-connected regions, each scored by its average density, and the scores
are ranked.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .records import Point

Patch = tuple[int, int]  # (row, col) on the grid

_MAX_CELLS = int(np.iinfo(np.int64).max)  # row-major patch indices are int64
_MAX_CAST = 2.0**63 - 1024  # the largest float64 below 2**63: floats up to it cast to int64 exactly


class DensityError(ValueError):
    """Invalid input to density-map construction or region extraction."""


@dataclass(eq=False)
class DensityMap:
    """Normalized per-patch sample frequencies on a discretized screen.

    `values[row, col]` is the fraction of samples whose coordinates fall
    into the patch spanning pixels [col*patch_size, (col+1)*patch_size) x
    [row*patch_size, (row+1)*patch_size), with the last row/column
    possibly covering a partial patch.
    """

    grid_h: int
    grid_w: int
    patch_size: int
    values: np.ndarray


def _checked_grid(n_samples: int, image_dims: tuple[int, int], patch_size: int) -> tuple[int, int]:
    """Grid shape for a cloud of `n_samples` samples, or the reason there is none."""
    if n_samples == 0:
        raise DensityError("need at least one sample")
    width, height = image_dims  # a [width, height] list is no cache key
    return _grid_shape(width, height, patch_size)


@functools.lru_cache(maxsize=256)
def _grid_shape(width: int, height: int, patch_size: int) -> tuple[int, int]:
    """(grid_h, grid_w) of a `width` x `height` image, or the reason there is none.

    Cached per (width, height, patch_size): a workload declares a handful
    of image sizes, so the per-click path checks each once. A rejected size
    raises again on every call, since an error is never cached.
    """
    if patch_size < 1:
        raise DensityError(f"patch_size must be >= 1, got {patch_size}")
    if width <= 0 or height <= 0:
        raise DensityError(f"image dimensions must be positive, got {(width, height)}")
    grid_h, grid_w = math.ceil(height / patch_size), math.ceil(width / patch_size)
    if grid_h * grid_w > _MAX_CELLS:
        raise DensityError(f"a {grid_h}x{grid_w} patch grid is too large to index")
    return grid_h, grid_w


def _clamped_floor(coords: np.ndarray, patch_size: int, last: int | np.ndarray) -> np.ndarray:
    """floor(coords / patch_size) clamped into [0, last], as int64.

    A floor beyond int64 is clamped before the cast, which would otherwise
    wrap it to patch 0. The clamp to `last` is done on integers, which stay
    exact where floats do not (a `last` above 2**53).
    """
    # np.minimum/np.maximum clamp as np.clip does, without its wrapper's overhead
    floors = np.floor(coords / patch_size)
    within = np.minimum(np.maximum(floors, 0.0), _MAX_CAST).astype(np.int64)
    return np.where(floors > _MAX_CAST, last, np.minimum(within, last))


def build_density_map(
    samples: Sequence[Point], image_dims: tuple[int, int], patch_size: int
) -> DensityMap:
    """Bin samples onto the patch grid and normalize counts to sum to 1.

    A sample at (x, y) lands in patch (floor(y/patch), floor(x/patch));
    coordinates outside the image are clamped to the nearest valid patch,
    so every sample contributes.
    """
    grid_h, grid_w = _checked_grid(len(samples), image_dims, patch_size)
    pts = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise DensityError("sample coordinates must be finite")
    cols = _clamped_floor(pts[:, 0], patch_size, grid_w - 1)
    rows = _clamped_floor(pts[:, 1], patch_size, grid_h - 1)
    counts = np.zeros((grid_h, grid_w), dtype=float)
    np.add.at(counts, (rows, cols), 1.0)
    values = counts / counts.sum()
    return DensityMap(grid_h=grid_h, grid_w=grid_w, patch_size=patch_size, values=values)


def extract_regions(density_map: DensityMap, beta: float) -> list[frozenset[Patch]]:
    """Maximal 4-connected components of patches with density > beta * peak.

    The comparison is strict, so the argmax patch always survives for
    beta < 1 and at least one region is returned. Components are found by
    BFS over the retained patches; the returned list is ordered by each
    component's smallest (row, col) patch.
    """
    if not 0.0 <= beta < 1.0:
        raise DensityError(f"beta must lie in [0, 1), got {beta}")
    values = density_map.values
    peak = float(values.max()) if values.size else 0.0
    if peak <= 0.0:
        raise DensityError("density map has no positive values")
    mask = values > beta * peak
    active: set[Patch] = {(int(r), int(c)) for r, c in np.argwhere(mask)}
    regions: list[frozenset[Patch]] = []
    for start in sorted(active):
        if start not in active:
            continue
        component: set[Patch] = set()
        queue = deque([start])
        active.discard(start)
        while queue:
            r, c = queue.popleft()
            component.add((r, c))
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in active:
                    active.discard(nb)
                    queue.append(nb)
        regions.append(frozenset(component))
    return regions


def score_regions(density_map: DensityMap, regions: Iterable[frozenset[Patch]]) -> tuple[float, ...]:
    """Each region's mean patch density, ranked descending."""
    region_list = [frozenset(r) for r in regions]
    if not region_list or any(len(r) == 0 for r in region_list):
        raise DensityError("regions must be a non-empty collection of non-empty patch sets")
    values = density_map.values
    scores = []
    for region in region_list:
        rows, cols = zip(*sorted(region))
        scores.append(float(values[list(rows), list(cols)].mean()))
    scores.sort(reverse=True)
    return tuple(scores)


def occupied_patches(
    samples: Sequence[Point], image_dims: tuple[int, int], patch_size: int
) -> tuple[int, list[tuple[int, float]]]:
    """Grid width, and each occupied patch's (row-major index, density), ascending.

    Patch (row, col) has index row * grid_w + col. This is the per-click
    binning at beta = 0, which retains every occupied patch: the densities
    are the nonzero cells of `build_density_map` in row-major order, bit
    for bit. K samples occupy at most K patches, so cost and memory do not
    grow with the image.
    """
    grid_w, n, counts = _retained_patches(samples, image_dims, patch_size, 0.0)
    return grid_w, [(cell, count / n) for cell, count in sorted(counts.items())]


def sparse_region_scores(
    samples: Sequence[Point], image_dims: tuple[int, int], patch_size: int, beta: float
) -> tuple[float, ...]:
    """Ranked region scores, from occupied patches only.

    Returns what `score_regions` gives for
    `extract_regions(build_density_map(samples, image_dims, patch_size), beta)`,
    bit for bit, but never builds the grid. This is the per-click path, so
    it runs in plain Python: at the few dozen samples of a click, a dozen
    small-array numpy calls would cost more than their work.
    """
    if not 0.0 <= beta < 1.0:
        raise DensityError(f"beta must lie in [0, 1), got {beta}")
    grid_w, n, retained = _retained_patches(samples, image_dims, patch_size, beta)
    return _ranked_region_scores(retained, grid_w, n)


def _retained_patches(
    samples: Sequence[Point], image_dims: tuple[int, int], patch_size: int, beta: float
) -> tuple[int, int, dict[int, int]]:
    """Grid width, sample count n, and row-major index -> count of each patch above beta * peak.

    A patch's density is `count / n`, as `build_density_map` divides it,
    and the test is `count / n > beta * peak`. When the smallest count
    passes, every occupied patch is retained and the binning's own dict is
    returned; otherwise a dict of the passing counts. A sample's patch is
    `math.floor`'s exact integer, clamped into the grid as `_clamped_floor`
    clamps it. Checks and errors are those of `build_density_map`, in its
    order. The coordinates are not tested one by one: `math.floor` rejects a NaN or an
    infinity itself, and only then does `_check_finite` walk the cloud again,
    so the error is the one a per-sample `math.isfinite` test raises. (A
    Decimal or Fraction beyond the float range, which `math.floor` reads
    exactly, lands in the border patch.)
    """
    grid_h, grid_w = _checked_grid(len(samples), image_dims, patch_size)
    last_row, last_col = grid_h - 1, grid_w - 1
    floor = math.floor
    counts: dict[int, int] = {}
    try:
        for x, y in samples:
            col, row = floor(x / patch_size), floor(y / patch_size)
            if col < 0:
                col = 0
            elif col > last_col:
                col = last_col
            if row < 0:
                row = 0
            elif row > last_row:
                row = last_row
            cell = row * grid_w + col
            counts[cell] = counts.get(cell, 0) + 1
    except (TypeError, ValueError, OverflowError):
        _check_finite(samples)
        raise
    n = len(samples)
    # the peak density; rounding is monotone, so every patch passes if the smallest does
    threshold = beta * (max(counts.values()) / n)
    if min(counts.values()) / n > threshold:
        return grid_w, n, counts
    return grid_w, n, {cell: count for cell, count in counts.items() if count / n > threshold}


def _check_finite(samples: Sequence[Point]) -> None:
    """Raise at the first sample with a coordinate that is not finite: a DensityError, or
    `math.isfinite`'s own error for a value it cannot test (an int beyond the float range)."""
    isfinite = math.isfinite
    for x, y in samples:
        if not (isfinite(x) and isfinite(y)):
            raise DensityError("sample coordinates must be finite")


# ndarray.mean adds fewer items than this left to right, and more in pairwise blocks.
_SEQUENTIAL_SUM_LIMIT = 8


def _pairwise_mean(values: np.ndarray) -> float:
    """`values.mean()` bit for bit, without its wrapper's overhead: the same pairwise
    `np.add.reduce`, divided by the count."""
    return float(np.add.reduce(values)) / values.size


def _ranked_region_scores(retained: dict[int, int], grid_w: int, n: int) -> tuple[float, ...]:
    """Mean density of each 4-connected region of `retained`, ranked.

    `retained` maps row-major patch index -> sample count, and is emptied;
    a patch's density `count / n` is divided where it is read. An isolated
    patch scores its own density, since the mean of one value is that
    value, exactly; only the patches of multi-patch regions are walked.
    Each region is averaged over its patches in row-major order, as on the
    dense path: left to right below _SEQUENTIAL_SUM_LIMIT patches and by
    `_pairwise_mean` from there (see `region_means`).
    """
    scores = []
    while retained:  # the regions come in any order: they are ranked below
        anchor, count = retained.popitem()
        # cells off the top or bottom of the grid are never keys; cell - 1 of a
        # first-column patch is the previous row's last patch and cell + 1 of a
        # last-column one the next row's first, so such a key sends the patch
        # to the walk, which finds it alone and scores (0.0 + count / n) / 1
        if (
            anchor - grid_w not in retained
            and anchor + grid_w not in retained
            and anchor - 1 not in retained
            and anchor + 1 not in retained
        ):
            scores.append(count / n)
            continue
        members = [(anchor, count)]
        stack = [anchor]
        while stack:  # each neighbour is probed in line: a list or loop per cell costs more
            cell = stack.pop()
            nb = cell - grid_w
            if nb in retained:
                members.append((nb, retained.pop(nb)))
                stack.append(nb)
            nb = cell + grid_w
            if nb in retained:
                members.append((nb, retained.pop(nb)))
                stack.append(nb)
            nb = cell - 1
            if nb in retained and cell % grid_w:  # the column only on a hit: not across the row's start
                members.append((nb, retained.pop(nb)))
                stack.append(nb)
            nb = cell + 1
            if nb in retained and nb % grid_w:  # nor across its end
                members.append((nb, retained.pop(nb)))
                stack.append(nb)
        members.sort()
        if len(members) < _SEQUENTIAL_SUM_LIMIT:
            total = 0.0
            for _, count in members:
                total += count / n
            scores.append(total / len(members))
        else:
            scores.append(_pairwise_mean(np.fromiter((count / n for _, count in members), float, len(members))))
    scores.sort(reverse=True)
    return tuple(scores)


def region_means(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each run of `values`, bit for bit as `ndarray.mean` gives it.

    `values` holds the regions' members back to back, each region in its
    own member order, and `sizes` the length of each run. Below
    _SEQUENTIAL_SUM_LIMIT members the sum is built member by member,
    vectorised across regions; a larger region's run goes to
    `_pairwise_mean`, the pairwise `np.add.reduce` that `ndarray.mean` sums
    with (np.add.reduceat would not match from three members on).
    """
    starts = np.cumsum(sizes) - sizes
    small = sizes < _SEQUENTIAL_SUM_LIMIT
    sums = np.zeros(sizes.size)
    for j in range(min(int(sizes.max(initial=0)), _SEQUENTIAL_SUM_LIMIT - 1)):
        take = np.flatnonzero(small & (sizes > j))
        sums[take] += values[starts[take] + j]
    means = sums / sizes
    for g in np.flatnonzero(~small).tolist():
        means[g] = _pairwise_mean(values[starts[g] : starts[g] + sizes[g]])
    return means


def _batch_patch_cells(
    points: np.ndarray, offsets: np.ndarray, dims: Sequence[tuple[int, int]], patch_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Each sample's cloud and row-major patch index, each cloud's grid width, and a key stride.

    The stride is the largest (grid_h + 1) * grid_w: more than any patch
    index plus a grid width. Checks every cloud as `build_density_map` does,
    in order, so the first bad cloud raises the error it raises alone. Each
    distinct image size is checked once.
    """
    sizes = np.diff(offsets)
    owner = np.repeat(np.arange(sizes.size), sizes)
    shapes = {}
    for image_dims in dict.fromkeys(dims):
        try:
            shapes[image_dims] = _grid_shape(*image_dims, patch_size)
        except DensityError:
            shapes[image_dims] = (0, 0)  # no grid: its clouds are bad below
    grid_h, grid_w = np.array([shapes[d] for d in dims], dtype=np.int64).reshape(-1, 2).T
    bad = (sizes == 0) | (grid_w == 0)
    bad[owner[~np.isfinite(points).all(axis=1)]] = True
    if bad.any():
        first = int(bad.argmax())
        _checked_grid(int(sizes[first]), dims[first], patch_size)  # raises unless only a coordinate is bad
        raise DensityError("sample coordinates must be finite")
    h, w = grid_h[owner], grid_w[owner]
    cols = _clamped_floor(points[:, 0], patch_size, w - 1)
    rows = _clamped_floor(points[:, 1], patch_size, h - 1)
    return owner, rows * w + cols, grid_w, max((h + 1) * w for h, w in shapes.values())


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest node of each node's component, for nodes 0..n-1 and edges a[i] -- b[i].

    Min-label propagation with pointer jumping: every label is a node of
    the node's own component and never grows, and a component's smallest
    node keeps its own label, so at the fixed point that is every label.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        low = np.minimum(la, lb)
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def batch_region_scores(
    points: np.ndarray,
    offsets: np.ndarray,
    dims: Sequence[tuple[int, int]],
    patch_size: int,
    beta: float,
) -> list[tuple[float, ...]]:
    """`sparse_region_scores` for many clouds at once, bit for bit.

    The clouds come as one column of samples: cloud i is
    `points[offsets[i]:offsets[i + 1]]`, an (m, 2) float array, scored on an
    image of size `dims[i]`, a (width, height) pair. A fixed number of
    array passes serves every cloud. Each sample's (cloud, row-major patch)
    pair becomes one int64 key, cloud * stride + patch (see
    `_batch_patch_cells`), so one sort bins the samples in (cloud, patch)
    order; `np.maximum.reduceat` takes each cloud's peak for the same float
    retention test; a patch's neighbour to the right is the next key, and
    its neighbour below is found by a binary search for key + grid width;
    `_components` labels the 4-connected regions. Each region is averaged
    by `region_means` over its patches in row-major order and the regions
    are ranked by one lexsort on (cloud, -score). A batch whose keys would
    overflow int64 (declared images of about 2**63 / n patches) is scored
    in halves.
    """
    if not 0.0 <= beta < 1.0:
        raise DensityError(f"beta must lie in [0, 1), got {beta}")
    n = len(offsets) - 1
    if n == 0:
        return []
    owner, cells, grid_w, stride = _batch_patch_cells(points, offsets, dims, patch_size)
    if n > 1 and n * stride > _MAX_CELLS:
        half, cut = n // 2, offsets[n // 2]
        return batch_region_scores(points[:cut], offsets[: half + 1], dims[:half], patch_size, beta) + (
            batch_region_scores(points[cut:], offsets[half:] - cut, dims[half:], patch_size, beta)
        )

    # occupied patches in (cloud, patch) order, and their normalized counts
    keys = np.sort(owner * stride + cells if n > 1 else cells)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, keys.size))
    keys = keys[starts]
    owner = keys // stride if n > 1 else np.zeros_like(keys)
    cloud_starts = np.flatnonzero(np.diff(owner, prepend=-1))  # every cloud has a patch
    values = counts / np.add.reduceat(counts, cloud_starts)[owner]
    peak = np.maximum.reduceat(values, cloud_starts)
    retained = values > beta * peak[owner]
    owner, keys, values = owner[retained], keys[retained], values[retained]

    # 4-connected components over the retained patches; a key plus a grid width
    # stays inside its cloud's stride, and wraps negative only past int64, so
    # it matches a key exactly when the patch below is retained
    width = grid_w[owner]
    col = (keys - owner * stride if n > 1 else keys) % width
    right = np.flatnonzero((keys[1:] == keys[:-1] + 1) & (col[:-1] < width[:-1] - 1))
    target = keys + width
    at = np.minimum(np.searchsorted(keys, target), keys.size - 1)
    below = np.flatnonzero(keys[at] == target)
    label = _components(keys.size, np.concatenate([right, below]), np.concatenate([right + 1, at[below]]))

    # one score per region, averaged in row-major order, then ranked per cloud
    anchors = np.flatnonzero(label == np.arange(label.size))
    region = np.searchsorted(anchors, label)
    members = np.argsort(region, kind="stable")
    sizes = np.bincount(region, minlength=anchors.size)
    scores = region_means(values[members], sizes)
    region_owner = owner[anchors]
    ranked = scores[np.lexsort((-scores, region_owner))].tolist()
    bounds = list(accumulate(np.bincount(region_owner, minlength=n).tolist(), initial=0))
    return [tuple(ranked[a:b]) for a, b in zip(bounds, bounds[1:])]

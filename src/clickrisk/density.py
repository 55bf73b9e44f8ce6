"""Patch-grid density maps and connected high-density regions.

Sampled click coordinates are binned onto a grid of square patches and
normalized into a spatial probability map. Patches above an adaptive
threshold (a fixed fraction of the peak density) are grouped into
4-connected regions, each scored by its average density; the ranked
scores induce a categorical distribution over candidate target regions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .records import Point

Patch = tuple[int, int]  # (row, col) on the grid

_MAX_CELLS = int(np.iinfo(np.int64).max)  # row-major patch indices are int64


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


@dataclass(frozen=True)
class Region:
    """A maximal 4-connected component of retained patches and its score."""

    patches: frozenset[Patch]
    score: float


@dataclass(eq=False)
class RegionSet:
    """Regions sorted by score (descending) with the induced distribution.

    `probs[i]` is regions[i].score normalized by the total score mass, so
    the vector sums to 1 and preserves the score ordering.
    """

    regions: tuple[Region, ...]
    probs: tuple[float, ...]

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(r.score for r in self.regions)


def grid_shape(image_width: int, image_height: int, patch_size: int) -> tuple[int, int]:
    """(grid_h, grid_w) covering the image with ceiling division."""
    return (
        math.ceil(image_height / patch_size),
        math.ceil(image_width / patch_size),
    )


def _checked_grid(n_samples: int, image_dims: tuple[int, int], patch_size: int) -> tuple[int, int]:
    """Grid shape for a cloud of `n_samples` samples, or the reason there is none."""
    if n_samples == 0:
        raise DensityError("need at least one sample")
    if patch_size < 1:
        raise DensityError(f"patch_size must be >= 1, got {patch_size}")
    width, height = image_dims
    if width <= 0 or height <= 0:
        raise DensityError(f"image dimensions must be positive, got {image_dims}")
    grid_h, grid_w = grid_shape(width, height, patch_size)
    if grid_h * grid_w > _MAX_CELLS:
        raise DensityError(f"a {grid_h}x{grid_w} patch grid is too large to index")
    return grid_h, grid_w


def _patch_indices(
    samples: Sequence[Point], image_dims: tuple[int, int], patch_size: int
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Grid shape and each sample's (row, col) patch, clamped into the grid."""
    grid_h, grid_w = _checked_grid(len(samples), image_dims, patch_size)
    pts = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise DensityError("sample coordinates must be finite")
    # np.minimum/np.maximum clamp as np.clip does, without its wrapper's overhead
    cols = np.minimum(np.maximum(np.floor(pts[:, 0] / patch_size).astype(int), 0), grid_w - 1)
    rows = np.minimum(np.maximum(np.floor(pts[:, 1] / patch_size).astype(int), 0), grid_h - 1)
    return grid_h, grid_w, rows, cols


def build_density_map(
    samples: Sequence[Point], image_dims: tuple[int, int], patch_size: int
) -> DensityMap:
    """Bin samples onto the patch grid and normalize counts to sum to 1.

    A sample at (x, y) lands in patch (floor(y/patch), floor(x/patch));
    coordinates outside the image are clamped to the nearest valid patch,
    so every sample contributes.
    """
    grid_h, grid_w, rows, cols = _patch_indices(samples, image_dims, patch_size)
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


def score_regions(
    density_map: DensityMap, regions: Iterable[frozenset[Patch]]
) -> RegionSet:
    """Score each region by its mean patch density and rank descending.

    Ties in score are broken by the region's smallest patch in row-major
    order, keeping the induced distribution reproducible.
    """
    region_list = [frozenset(r) for r in regions]
    if not region_list or any(len(r) == 0 for r in region_list):
        raise DensityError("regions must be a non-empty collection of non-empty patch sets")
    values = density_map.values
    scored = []
    for region in region_list:
        rows, cols = zip(*sorted(region))
        score = float(values[list(rows), list(cols)].mean())
        anchor = min((r * density_map.grid_w + c) for r, c in region)
        scored.append((region, score, anchor))
    scored.sort(key=lambda item: (-item[1], item[2]))
    total = sum(score for _, score, _ in scored)
    return RegionSet(
        regions=tuple(Region(patches=region, score=score) for region, score, _ in scored),
        probs=tuple(score / total for _, score, _ in scored),
    )


def sparse_region_scores(
    samples: Sequence[Point], image_dims: tuple[int, int], patch_size: int, beta: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ranked region scores and their distribution, from occupied patches only.

    Returns the `scores` and `probs` that `score_regions` gives for
    `extract_regions(build_density_map(samples, image_dims, patch_size), beta)`,
    bit for bit, but never builds the grid: K samples occupy at most K
    patches, so cost and memory do not grow with the image. Patches are
    keyed by their row-major index row * grid_w + col, which keeps the
    dense path's orders: each region is averaged over its patches in
    row-major order and ties are broken by its smallest patch.
    """
    if not 0.0 <= beta < 1.0:
        raise DensityError(f"beta must lie in [0, 1), got {beta}")
    grid_h, grid_w, rows, cols = _patch_indices(samples, image_dims, patch_size)
    cells, counts = np.unique(rows * grid_w + cols, return_counts=True)
    values = counts / counts.sum()
    retained = values > beta * values.max()
    values = values[retained]
    cells = cells[retained].tolist()
    position = {cell: i for i, cell in enumerate(cells)}
    scored = []
    for anchor in cells:  # ascending, so each region is met at its smallest patch
        if anchor not in position:
            continue
        members = [position.pop(anchor)]
        stack = [anchor]
        while stack:
            cell = stack.pop()
            col = cell % grid_w
            # cells off the top or bottom of the grid are never keys
            neighbours = [cell - grid_w, cell + grid_w]
            if col > 0:
                neighbours.append(cell - 1)
            if col < grid_w - 1:
                neighbours.append(cell + 1)
            for nb in neighbours:
                i = position.pop(nb, None)
                if i is not None:
                    members.append(i)
                    stack.append(nb)
        if len(members) == 1:  # the mean of one value is that value, exactly
            score = float(values[members[0]])
        else:
            members.sort()
            score = float(values[members].mean())
        scored.append((score, anchor))
    scored.sort(key=lambda item: (-item[0], item[1]))
    scores = tuple(score for score, _ in scored)
    total = sum(scores)
    return scores, tuple(score / total for score in scores)


# ndarray.mean adds fewer items than this left to right, and more in pairwise blocks.
_SEQUENTIAL_SUM_LIMIT = 8


def region_means(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each run of `values`, bit for bit as `ndarray.mean` gives it.

    `values` holds the regions' members back to back, each region in its
    own member order, and `sizes` the length of each run. Below
    _SEQUENTIAL_SUM_LIMIT members the sum is built member by member,
    vectorised across regions; larger regions call `mean` on their run,
    because ndarray.mean sums those pairwise (np.add.reduceat would not match
    from three members on).
    """
    starts = np.cumsum(sizes) - sizes
    small = sizes < _SEQUENTIAL_SUM_LIMIT
    sums = np.zeros(sizes.size)
    for j in range(min(int(sizes.max(initial=0)), _SEQUENTIAL_SUM_LIMIT - 1)):
        take = np.flatnonzero(small & (sizes > j))
        sums[take] += values[starts[take] + j]
    means = sums / sizes
    for g in np.flatnonzero(~small).tolist():
        means[g] = values[starts[g] : starts[g] + sizes[g]].mean()
    return means


def _batch_patch_cells(
    clouds: Sequence[Sequence[Point]], dims: Sequence[tuple[int, int]], patch_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sample's cloud and row-major patch index, and each cloud's grid width.

    Checks every cloud as `_patch_indices` does, in order, so the first bad
    cloud raises the error it raises alone.
    """
    pts = np.array([p for c in clouds for p in c], dtype=float).reshape(-1, 2)
    owner = np.repeat(np.arange(len(clouds)), [len(c) for c in clouds])
    finite = np.isfinite(pts).all(axis=1)
    bad = set() if finite.all() else set(owner[~finite].tolist())
    shapes = []
    for i, (cloud, image_dims) in enumerate(zip(clouds, dims)):
        shapes.append(_checked_grid(len(cloud), image_dims, patch_size))
        if i in bad:
            raise DensityError("sample coordinates must be finite")
    grid_h, grid_w = np.array(shapes, dtype=np.int64).reshape(-1, 2).T
    h, w = grid_h[owner], grid_w[owner]
    cols = np.minimum(np.maximum(np.floor(pts[:, 0] / patch_size).astype(int), 0), w - 1)
    rows = np.minimum(np.maximum(np.floor(pts[:, 1] / patch_size).astype(int), 0), h - 1)
    return owner, rows * w + cols, grid_w


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
    clouds: Sequence[Sequence[Point]],
    dims: Sequence[tuple[int, int]],
    patch_size: int,
    beta: float,
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """`sparse_region_scores` for many clouds at once, bit for bit.

    `clouds[i]` is scored on an image of size `dims[i]`. A fixed number of
    array passes serves every cloud: one lexsort on (cloud, row-major
    patch) bins the samples, `np.maximum.reduceat` takes each cloud's peak
    for the same float retention test, neighbours to the right are found
    in row-major order and neighbours below in column-major order, and
    `_components` labels the 4-connected regions. Each region is averaged
    by `region_means` over its patches in row-major order and the regions
    are ranked by one lexsort on (cloud, -score, smallest patch); only the
    per-cloud total and division are left to Python, as in the one-cloud path.
    """
    if not 0.0 <= beta < 1.0:
        raise DensityError(f"beta must lie in [0, 1), got {beta}")
    if len(clouds) == 0:
        return []
    owner, cells, grid_w = _batch_patch_cells(clouds, dims, patch_size)

    # occupied patches in (cloud, cell) order, and their normalized counts
    order = np.lexsort((cells, owner))
    owner, cells = owner[order], cells[order]
    first = np.ones(cells.size, dtype=bool)
    first[1:] = (cells[1:] != cells[:-1]) | (owner[1:] != owner[:-1])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, cells.size))
    owner, cells = owner[starts], cells[starts]
    cloud_starts = np.flatnonzero(np.diff(owner, prepend=-1))  # every cloud has a patch
    values = counts / np.add.reduceat(counts, cloud_starts)[owner]
    peak = np.maximum.reduceat(values, cloud_starts)
    retained = values > beta * peak[owner]
    owner, cells, values = owner[retained], cells[retained], values[retained]

    # 4-connected components over the retained patches
    width = grid_w[owner]
    row, col = cells // width, cells % width
    same = owner[1:] == owner[:-1]
    right = np.flatnonzero(same & (cells[1:] == cells[:-1] + 1) & (col[:-1] < width[:-1] - 1))
    by_column = np.lexsort((row, col, owner))
    r, c, o = row[by_column], col[by_column], owner[by_column]
    below = np.flatnonzero((o[1:] == o[:-1]) & (c[1:] == c[:-1]) & (r[1:] == r[:-1] + 1))
    label = _components(
        cells.size, np.concatenate([right, by_column[below]]), np.concatenate([right + 1, by_column[below + 1]])
    )

    # one score per region, averaged in row-major order, then ranked per cloud
    anchors = np.flatnonzero(label == np.arange(label.size))
    region = np.searchsorted(anchors, label)
    members = np.argsort(region, kind="stable")
    sizes = np.bincount(region, minlength=anchors.size)
    scores = region_means(values[members], sizes)
    region_owner = owner[anchors]
    ranked = np.lexsort((cells[anchors], -scores, region_owner))
    ranked_scores = scores[ranked].tolist()
    per_cloud = np.bincount(region_owner, minlength=len(clouds)).tolist()

    out = []
    at = 0
    for m in per_cloud:
        cloud_scores = tuple(ranked_scores[at : at + m])
        at += m
        total = sum(cloud_scores)
        out.append((cloud_scores, tuple(score / total for score in cloud_scores)))
    return out


def density_csv_rows(density_map: DensityMap) -> Iterable[list[float]]:
    """Grid values as CSV-ready rows (top row first), for debug dumps."""
    for row in density_map.values:
        yield [float(v) for v in row]

"""Seeded input generator owned by the benchmark.

It deliberately does not use `clickrisk.synthgen`: a change to the program
must not be able to change the benchmark's inputs. Records mimic the
program's input format (one JSON object per line) with a 60/40 mix of
easy clouds (tight, inside the target box) and hard clouds (2-4 clusters
scattered over the screen), and an expert prediction that lands in the
box 85% of the time.
"""

from __future__ import annotations

import json
import math

import numpy as np

EASY_FRACTION = 0.6
EXPERT_ACCURACY = 0.85
MIX_BLOCK = 1000
# Box and cloud sizes are in pixels and do not grow with the screen: a
# higher resolution only enlarges the dense grid the scorer builds.
BOX = 120.0
DISPERSION = 200.0


def _disc(rng: np.random.Generator, cx: float, cy: float, radius: float, count: int) -> np.ndarray:
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return np.stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)], axis=1)


def make_record(rng: np.random.Generator, index: int, width: int, height: int, k: int, easy: bool) -> dict:
    """One record on a `width` x `height` screen with `k` samples."""
    box = BOX
    x_min = float(rng.uniform(0.0, width - box))
    y_min = float(rng.uniform(0.0, height - box))
    cx, cy = x_min + box / 2.0, y_min + box / 2.0
    if easy:
        pts = _disc(rng, cx, cy, 0.35 * box, k)
    else:
        n_clusters = int(rng.integers(2, 5))
        centers = np.stack(
            [rng.uniform(0.0, width, n_clusters), rng.uniform(0.0, height, n_clusters)], axis=1
        )
        assign = rng.integers(0, n_clusters, size=k)
        pts = np.concatenate(
            [_disc(rng, *centers[a], DISPERSION, 1) for a in assign]
        )
    pts[:, 0] = np.clip(pts[:, 0], 0.0, float(width))
    pts[:, 1] = np.clip(pts[:, 1], 0.0, float(height))
    if rng.random() < EXPERT_ACCURACY:
        expert = [float(rng.uniform(x_min, x_min + box)), float(rng.uniform(y_min, y_min + box))]
    else:
        while True:
            ex, ey = float(rng.uniform(0.0, width)), float(rng.uniform(0.0, height))
            if not (x_min <= ex <= x_min + box and y_min <= ey <= y_min + box):
                expert = [ex, ey]
                break
    return {
        "id": f"bench-{index:05d}",
        "image": {"w": width, "h": height},
        "instruction": f"click target {index}",
        "gt_box": [x_min, y_min, x_min + box, y_min + box],
        "samples": [[float(x), float(y)] for x, y in pts],
        "expert": expert,
    }


def make_records(seed: int, tag: int, shapes: list[tuple[int, int, int]]) -> list[dict]:
    """Records for the (width, height, k) shapes in order, easy/hard mixed 60/40.

    The mix is exact in every block of MIX_BLOCK records, so a prefix such
    as the decision probe's first 2000 records has it too. `tag` separates
    the streams of different workloads that share a seed.
    """
    rng = np.random.default_rng([seed, tag])
    easy = np.zeros(len(shapes), dtype=bool)
    for start in range(0, len(shapes), MIX_BLOCK):
        block = easy[start : start + MIX_BLOCK]  # a view: shuffled in place
        block[: round(EASY_FRACTION * len(block))] = True
        rng.shuffle(block)
    return [make_record(rng, i, w, h, k, bool(easy[i])) for i, (w, h, k) in enumerate(shapes)]


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in records:
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")

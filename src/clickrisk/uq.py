"""Spatial uncertainty components computed from ranked region scores.

The ranked scores S_(1) >= S_(2) >= ... of a record's M regions induce a
categorical distribution over candidate target regions, p_i = S_(i) / sum S.
Three complementary signals are derived from the scores and that
distribution and blended with fixed weights:

  ta  (top ambiguity)        1 - (S_(1) - S_(2)) / (S_(1) + eps); with a
                             single region, max(0.1, 1 - S_(1))
  ie  (info dispersion)      normalized entropy of the region distribution,
                             -(1/log M) * sum p_i log(p_i + eps); 0 for M=1
  cd  (concentration deficit) 1 - sum p_i^2
  com (combined)             w_cd*cd + w_ie*ie + w_ta*ta

All components are clamped to [0, 1] after evaluation; the epsilon terms
can otherwise push them marginally outside.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

# The dense chain stays importable here: bench/spans.py wraps it at these bindings.
from .density import build_density_map, extract_regions, score_regions  # noqa: F401
from .density import batch_region_scores, sparse_region_scores
from .records import SCORE_CHUNK, UQ_KEYS, Columns, GroundingRecord

VARIANTS = ("com", "ta", "ie", "cd", "pc")

DEFAULT_WEIGHTS = (0.6, 0.2, 0.2)  # (w_cd, w_ie, w_ta)

EPSILON = 1e-8  # the eps of ta and ie: a numerical-stability term, not a setting

# Named weight presets for sweep experiments, ordered (w_cd, w_ie, w_ta).
WEIGHT_PRESETS: dict[str, tuple[float, float, float]] = {
    "original": DEFAULT_WEIGHTS,
    "v1": (0.34, 0.33, 0.33),
    "v2": (0.2, 0.2, 0.6),
    "v3": (0.2, 0.6, 0.2),
    "v4": (0.5, 0.25, 0.25),
    "v5": (0.25, 0.25, 0.5),
    "v6": (0.25, 0.5, 0.25),
}


class MissingScoreError(ValueError):
    """A requested uncertainty variant is not present on a record."""


@dataclass(frozen=True)
class UqConfig:
    """Hyperparameters of the spatial uncertainty pipeline.

    `k_samples` caps how many of a record's samples are used (the first k,
    supporting sample-budget sweeps). Weights are (w_cd, w_ie, w_ta) and
    must sum to 1.
    """

    k_samples: int = 10
    patch_size: int = 14
    beta: float = 0.3
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be positive, got {self.k_samples}")
        if self.patch_size < 1:
            raise ValueError(f"patch_size must be positive, got {self.patch_size}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if len(self.weights) != 3 or not all(w >= 0 for w in self.weights):
            raise ValueError(f"weights must be three non-negative reals, got {self.weights}")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {self.weights}")


@dataclass(frozen=True, slots=True)
class UncertaintyScore:
    """Per-record uncertainty components plus their weighted combination."""

    ta: float
    ie: float
    cd: float
    combined: float


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def top_ambiguity(scores: Sequence[float]) -> float:
    """Margin-based ambiguity between the two leading region scores."""
    if len(scores) == 0:
        raise ValueError("scores must be non-empty")
    if len(scores) >= 2:
        return _clamp01(1.0 - (scores[0] - scores[1]) / (scores[0] + EPSILON))
    return _clamp01(max(0.1, 1.0 - scores[0]))


def info_dispersion(probs: Sequence[float]) -> float:
    """Normalized entropy of the region distribution; 0 for a single region."""
    m = len(probs)
    if m == 0:
        raise ValueError("probs must be non-empty")
    if not abs(math.fsum(probs) - 1.0) <= 1e-9:  # written so that a NaN sum fails too
        raise ValueError(f"probs must sum to 1, got {math.fsum(probs)}")
    if m == 1:
        return 0.0
    return _clamp01(-math.fsum(map(operator.mul, probs, map(math.log, map(operator.add, probs, repeat(EPSILON)))))
                    / math.log(m))


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's constant, which splits a double into two halves of 26 bits
_FLOAT = {float}


def concentration_deficit(probs: Sequence[float]) -> float:
    """One minus the quadratic concentration of the region distribution.

    Evaluated exactly and rounded once at the end, so identities like the
    uniform case (M-1)/M hold to the last bit. Floats in [2^-400, 1] whose
    `fsum` lies within 5e-10 of 1 (well inside the sum check, so it passes
    as it would exactly) take `math.fsum` over 1 and the negated parts of
    each p^2 = hi^2 + 2 hi lo + lo^2, where p = hi + lo is Veltkamp's split:
    each part is an exact product, and `fsum` rounds their exact sum once.
    Anything else (NaN, infinities, tiny values, Fractions, sums near the
    check's limit) is summed over a common denominator D (a power of two
    for floats) as (D^2 - sum n_i^2) / D^2: the same float where both apply.
    """
    if len(probs) == 0:
        raise ValueError("probs must be non-empty")
    # min and max first: they screen out the infinities, whose `fsum` would raise its own error
    if (_FLOAT.issuperset(map(type, probs)) and 2.0 ** -400 <= min(probs) and max(probs) <= 1.0
            and abs(math.fsum(probs) - 1.0) <= 5e-10):
        parts = [1.0]
        for p in probs:
            t = _SPLIT * p
            hi = t - (t - p)
            lo = p - hi
            parts += (-hi * hi, -2.0 * hi * lo, -lo * lo)
        return _clamp01(math.fsum(parts))
    ratios = [p.as_integer_ratio() for p in probs]
    denom = math.lcm(*(d for _, d in ratios))
    total = squares = 0
    for n, d in ratios:
        n *= denom // d
        total += n
        squares += n * n
    if abs(total - denom) * 10**9 > denom:
        raise ValueError(f"probs must sum to 1, got {total / denom}")
    square = denom * denom
    return _clamp01((square - squares) / square)


def combine(
    cd: float, ie: float, ta: float, weights: tuple[float, float, float] = DEFAULT_WEIGHTS
) -> float:
    """Fixed weighted combination w_cd*cd + w_ie*ie + w_ta*ta."""
    if not (all(w >= 0 for w in weights) and abs(sum(weights) - 1.0) <= 1e-12):  # NaN fails too
        raise ValueError(f"weights must be non-negative and sum to 1, got {weights}")
    w_cd, w_ie, w_ta = weights
    return w_cd * cd + w_ie * ie + w_ta * ta


@functools.lru_cache(maxsize=4096)
def _score(scores: tuple[float, ...], w_cd: float, w_ie: float, w_ta: float) -> UncertaintyScore:
    """The components of one record's ranked region scores, once per distinct (scores, weights).

    A pure function of hashable floats that returns a frozen score, so a
    hit hands out exactly what a fresh evaluation would build: every score
    is a positive finite density, and equal keys are equal bit for bit. The
    cache is bounded, so it holds at most 4096 scores however many records
    are scored.
    """
    total = sum(scores)
    probs = [score / total for score in scores]
    ta = top_ambiguity(scores)
    ie = info_dispersion(probs)
    cd = concentration_deficit(probs)
    return UncertaintyScore(ta, ie, cd, w_cd * cd + w_ie * ie + w_ta * ta)


def score_record(record: GroundingRecord, config: UqConfig = UqConfig()) -> UncertaintyScore:
    """Full pipeline: occupied patches -> regions -> ranked scores -> components.

    Uses the first `config.k_samples` samples. Records with the same ranked
    scores under the same weights get the same cached `UncertaintyScore`.
    """
    samples = record.samples[: config.k_samples]
    scores = sparse_region_scores(samples, (record.image_width, record.image_height), config.patch_size, config.beta)
    return _score(scores, *config.weights)


_ROW = operator.attrgetter("ta", "ie", "cd", "combined")  # a score's fields in UQ_KEYS order


def score_columns(
    points: np.ndarray,
    offsets: np.ndarray,
    dims: Sequence[tuple[int, int]],
    config: UqConfig,
) -> np.ndarray:
    """`score_record` for clouds given as one column of samples, bit for bit, as an (n, 4) array.

    Cloud i is `points[offsets[i]:offsets[i + 1]]` on an image of size
    `dims[i]`; its first `config.k_samples` samples are scored, and row i
    holds its components in `UQ_KEYS` order: ta, ie, cd, com. SCORE_CHUNK
    clouds at a time go through `density.batch_region_scores` (a fixed
    number of numpy calls per chunk), and each ranked-score tuple through
    `_score`, whose cache `score_record` shares. The first cloud
    `score_record` would reject raises its error here.
    """
    sizes = np.diff(offsets)
    if sizes.max(initial=0) > config.k_samples:  # keep each cloud's leading k samples
        rank = np.arange(len(points)) - np.repeat(offsets[:-1], sizes)
        points = points[rank < config.k_samples]
        offsets = np.zeros_like(offsets)
        np.cumsum(np.minimum(sizes, config.k_samples), out=offsets[1:])
    rows = []
    for start in range(0, len(offsets) - 1, SCORE_CHUNK):
        stop = min(start + SCORE_CHUNK, len(offsets) - 1)
        lo, hi = offsets[start], offsets[stop]
        for scores in batch_region_scores(
            points[lo:hi], offsets[start : stop + 1] - lo, dims[start:stop], config.patch_size, config.beta
        ):
            rows.append(_ROW(_score(scores, *config.weights)))
    return np.array(rows, dtype=float).reshape(-1, 4)


def variant_column(chunk: Columns, variant: str) -> np.ndarray:
    """Each record's value of `variant`: its `pc`, or its `uq` field of that name; NaN where it has none."""
    return chunk.pc if variant == "pc" else chunk.uq[:, UQ_KEYS.index(variant)]


def missing_score(record_id: str, variant: str) -> MissingScoreError:
    """The error for a record that lacks the value of `variant`."""
    if variant == "pc":
        return MissingScoreError(f"record {record_id!r} has no pc field")
    return MissingScoreError(f"record {record_id!r} has no uq fields; run scoring first")

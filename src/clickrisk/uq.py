"""Spatial uncertainty components computed from ranked region scores.

Three complementary signals are derived from the categorical distribution
over candidate regions and blended with fixed weights:

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

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

# The dense chain stays importable here: bench/spans.py wraps it at these bindings.
from .density import build_density_map, extract_regions, score_regions  # noqa: F401
from .density import batch_region_scores, sparse_region_scores
from .records import UQ_KEYS, GroundingRecord

VARIANTS = ("com", "ta", "ie", "cd", "pc")

# Records scored per array pass in `score_batch`: large enough to amortize
# the numpy calls, small enough that a whole file's arrays never coexist.
SCORE_CHUNK = 256

DEFAULT_WEIGHTS = (0.6, 0.2, 0.2)  # (w_cd, w_ie, w_ta)

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
    epsilon: float = 1e-8
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be positive, got {self.k_samples}")
        if self.patch_size < 1:
            raise ValueError(f"patch_size must be positive, got {self.patch_size}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if len(self.weights) != 3 or any(w < 0 for w in self.weights):
            raise ValueError(f"weights must be three non-negative reals, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {self.weights}")


@dataclass(frozen=True)
class UncertaintyScore:
    """Per-record uncertainty components plus their weighted combination."""

    ta: float
    ie: float
    cd: float
    combined: float
    pc: float | None = None

    def as_dict(self) -> dict[str, float]:
        return {"ta": self.ta, "ie": self.ie, "cd": self.cd, "com": self.combined}


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def top_ambiguity(scores: Sequence[float], epsilon: float = 1e-8) -> float:
    """Margin-based ambiguity between the two leading region scores."""
    if len(scores) == 0:
        raise ValueError("scores must be non-empty")
    if len(scores) >= 2:
        return _clamp01(1.0 - (scores[0] - scores[1]) / (scores[0] + epsilon))
    return _clamp01(max(0.1, 1.0 - scores[0]))


def info_dispersion(probs: Sequence[float], epsilon: float = 1e-8) -> float:
    """Normalized entropy of the region distribution; 0 for a single region."""
    m = len(probs)
    if m == 0:
        raise ValueError("probs must be non-empty")
    if abs(math.fsum(probs) - 1.0) > 1e-9:
        raise ValueError(f"probs must sum to 1, got {math.fsum(probs)}")
    if m == 1:
        return 0.0
    entropy = -math.fsum(p * math.log(p + epsilon) for p in probs)
    return _clamp01(entropy / math.log(m))


def concentration_deficit(probs: Sequence[float]) -> float:
    """One minus the quadratic concentration of the region distribution.

    Evaluated exactly over a common denominator D (a power of two for
    floats) as (D^2 - sum n_i^2) / D^2 and rounded once at the end, so
    identities like the uniform case (M-1)/M hold to the last bit.
    """
    if len(probs) == 0:
        raise ValueError("probs must be non-empty")
    ratios = [p.as_integer_ratio() for p in probs]
    denom = math.lcm(*(d for _, d in ratios))
    nums = [n * (denom // d) for n, d in ratios]
    total = sum(nums)
    if abs(total - denom) * 10**9 > denom:
        raise ValueError(f"probs must sum to 1, got {total / denom}")
    square = denom * denom
    return _clamp01((square - sum(n * n for n in nums)) / square)


def combine(
    cd: float, ie: float, ta: float, weights: tuple[float, float, float] = DEFAULT_WEIGHTS
) -> float:
    """Fixed weighted combination w_cd*cd + w_ie*ie + w_ta*ta."""
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must be non-negative and sum to 1, got {weights}")
    w_cd, w_ie, w_ta = weights
    return w_cd * cd + w_ie * ie + w_ta * ta


def _score(
    scores: Sequence[float], probs: Sequence[float], config: UqConfig, pc: float | None
) -> UncertaintyScore:
    ta = top_ambiguity(scores, config.epsilon)
    ie = info_dispersion(probs, config.epsilon)
    cd = concentration_deficit(probs)
    combined = combine(cd, ie, ta, config.weights)
    return UncertaintyScore(ta=ta, ie=ie, cd=cd, combined=combined, pc=pc)


def score_record(record: GroundingRecord, config: UqConfig = UqConfig()) -> UncertaintyScore:
    """Full pipeline: occupied patches -> regions -> ranked scores -> components.

    Uses the first `config.k_samples` samples. The record's precomputed
    confidence baseline, when present, is carried through unchanged.
    """
    samples = record.samples[: config.k_samples]
    scores, probs = sparse_region_scores(
        samples, (record.image_width, record.image_height), config.patch_size, config.beta
    )
    return _score(scores, probs, config, record.pc)


def _columns(records: Sequence[GroundingRecord], k: int) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """The records' first k samples as one column: (points, offsets, dims), see `batch_region_scores`."""
    clouds = [r.samples[:k] for r in records]
    offsets = np.zeros(len(clouds) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in clouds], out=offsets[1:])
    points = np.array(list(chain.from_iterable(clouds)), dtype=float).reshape(-1, 2)
    return points, offsets, [(r.image_width, r.image_height) for r in records]


def _memoized_scores(
    points: np.ndarray, offsets: np.ndarray, dims: Sequence[tuple[int, int]], config: UqConfig, memo: dict
) -> list[UncertaintyScore]:
    """Each cloud's components (pc left None), computed once per distinct ranked-score tuple.

    `_score` depends on nothing but the ranked scores and `config` (the
    probabilities are derived from the scores), so a tuple seen before in
    `memo` is not scored again; `memo` serves this one config.
    """
    out = []
    for scores, probs in batch_region_scores(points, offsets, dims, config.patch_size, config.beta):
        score = memo.get(scores)
        if score is None:
            score = memo[scores] = _score(scores, probs, config, None)
        out.append(score)
    return out


def score_batch(records: Sequence[GroundingRecord], config: UqConfig = UqConfig()) -> list[UncertaintyScore]:
    """`score_record` for every record, bit for bit, with array passes over chunks.

    Records are scored SCORE_CHUNK at a time by `density.batch_region_scores`,
    a fixed number of numpy calls per chunk instead of about 15 per record;
    chunking keeps the arrays small whatever the file's length. Region means
    follow ndarray.mean's summation order (left to right below 8 members,
    pairwise from 8), see `density.region_means`. The components are computed
    by the same code as `score_record`, once per distinct ranked-score tuple
    in the call (`_memoized_scores`); each record keeps its own `pc`. The
    first record that `score_record` would reject raises the same error here.
    A single record is faster through `score_record`.
    """
    memo: dict = {}
    out: list[UncertaintyScore] = []
    for start in range(0, len(records), SCORE_CHUNK):
        chunk = records[start : start + SCORE_CHUNK]
        scores = _memoized_scores(*_columns(chunk, config.k_samples), config, memo)
        out.extend(s if r.pc is None else UncertaintyScore(s.ta, s.ie, s.cd, s.combined, r.pc)
                   for r, s in zip(chunk, scores))
    return out


def score_columns(
    points: np.ndarray,
    offsets: np.ndarray,
    dims: Sequence[tuple[int, int]],
    config: UqConfig,
    memo: dict,
) -> np.ndarray:
    """`score_batch` for clouds given as one column of samples, as an (n, 4) array.

    Cloud i is `points[offsets[i]:offsets[i + 1]]` on an image of size
    `dims[i]` (see `density.batch_region_scores`); its first
    `config.k_samples` samples are scored. Row i holds ta, ie, cd and the
    combined score, the values `score_batch` gives for a record with that
    cloud, without building a record. `memo` is a dict the caller owns
    (a new one scores this column alone): it keeps the components of every
    ranked-score tuple seen, one table per config, so a caller that scores
    many columns passes the same dict to each and drops it when done.
    """
    sizes = np.diff(offsets)
    if sizes.max(initial=0) > config.k_samples:  # keep each cloud's leading k samples
        rank = np.arange(len(points)) - np.repeat(offsets[:-1], sizes)
        points = points[rank < config.k_samples]
        offsets = np.zeros_like(offsets)
        np.cumsum(np.minimum(sizes, config.k_samples), out=offsets[1:])
    table = memo.setdefault(config, {})
    scores: list[UncertaintyScore] = []
    for start in range(0, len(offsets) - 1, SCORE_CHUNK):
        stop = min(start + SCORE_CHUNK, len(offsets) - 1)
        lo, hi = offsets[start], offsets[stop]
        scores.extend(
            _memoized_scores(points[lo:hi], offsets[start : stop + 1] - lo, dims[start:stop], config, table)
        )
    return np.array([(s.ta, s.ie, s.cd, s.combined) for s in scores], dtype=float).reshape(-1, 4)


def variant_value(record: GroundingRecord, variant: str) -> float:
    """Uncertainty value of the chosen variant for a scored record.

    Variants com/ta/ie/cd read the appended uncertainty fields; pc reads
    the precomputed confidence baseline.
    """
    if variant not in VARIANTS:
        raise MissingScoreError(f"unknown uncertainty variant {variant!r}; expected one of {VARIANTS}")
    if variant == "pc":
        if record.pc is None:
            raise MissingScoreError(f"record {record.id!r} has no pc field")
        return record.pc
    if record.uq is None:
        raise MissingScoreError(f"record {record.id!r} has no uq fields; run scoring first")
    assert variant in UQ_KEYS
    return record.uq[variant]

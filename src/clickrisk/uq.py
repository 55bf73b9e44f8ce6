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
from dataclasses import dataclass, replace
from typing import Sequence

# The dense chain stays importable here: bench/spans.py wraps it at these bindings.
from .density import build_density_map, extract_regions, score_regions  # noqa: F401
from .density import sparse_region_scores
from .records import UQ_KEYS, GroundingRecord

VARIANTS = ("com", "ta", "ie", "cd", "pc")

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


def score_record(record: GroundingRecord, config: UqConfig = UqConfig()) -> UncertaintyScore:
    """Full pipeline: occupied patches -> regions -> ranked scores -> components.

    Uses the first `config.k_samples` samples. The record's precomputed
    confidence baseline, when present, is carried through unchanged.
    """
    samples = record.samples[: config.k_samples]
    scores, probs = sparse_region_scores(
        samples, (record.image_width, record.image_height), config.patch_size, config.beta
    )
    ta = top_ambiguity(scores, config.epsilon)
    ie = info_dispersion(probs, config.epsilon)
    cd = concentration_deficit(probs)
    combined = combine(cd, ie, ta, config.weights)
    return UncertaintyScore(ta=ta, ie=ie, cd=cd, combined=combined, pc=record.pc)


def attach_score(record: GroundingRecord, score: UncertaintyScore) -> GroundingRecord:
    """Copy of `record` with the uncertainty fields appended."""
    return replace(record, uq=score.as_dict())


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

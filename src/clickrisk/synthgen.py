"""Synthetic grounding datasets and a Monte Carlo check of the FDR guarantee.

Generated records come in two flavors: "easy" records whose sample cloud
sits tightly inside the ground-truth box (a single compact region, low
uncertainty, admissible predictions) and "hard" records whose samples are
spread over several clusters straddling the screen (fragmented regions,
high uncertainty, mostly inadmissible predictions). Sample noise is
isotropic with bounded support (uniform in a disc), truncated to the
image. The guarantee harness redraws dataset and split each trial,
calibrates a threshold, and counts trials whose test FDR exceeds the
target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .engine import run_splits
from .metrics import admission
from .records import GroundingRecord, SplitPlan, select_mlg
from .risk import RiskSpec
from .uq import UqConfig, score_batch

# Unused here, but bench/spans.py wraps them at these bindings.
from .records import split  # noqa: F401
from .risk import calibrate_threshold, empirical_fdr  # noqa: F401
from .uq import score_record  # noqa: F401


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic generator (square image, square boxes)."""

    n_records: int = 200
    k_samples: int = 10
    image_size: int = 840
    box_size: int = 120
    easy_fraction: float = 0.6
    dispersion: float = 200.0
    expert_accuracy: float = 0.85
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.n_records < 1:
            raise ValueError(f"n_records must be positive, got {self.n_records}")
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be positive, got {self.k_samples}")
        if self.image_size <= 0 or self.box_size <= 0:
            raise ValueError("image_size and box_size must be positive")
        if self.box_size >= self.image_size:
            raise ValueError("box_size must be smaller than image_size")
        if not 0.0 <= self.easy_fraction <= 1.0:
            raise ValueError(f"easy_fraction must lie in [0, 1], got {self.easy_fraction}")
        if self.dispersion <= 0.0:
            raise ValueError(f"dispersion must be positive, got {self.dispersion}")
        if not 0.0 <= self.expert_accuracy <= 1.0:
            raise ValueError(f"expert_accuracy must lie in [0, 1], got {self.expert_accuracy}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class GuaranteeResult:
    """Violation bookkeeping across guarantee trials."""

    trials: int
    violations: int
    infeasible: int
    violation_rate: float


class TrialOutcome(NamedTuple):
    trial: int
    feasible: bool
    tau: float | None
    test_fdr: float | None


def generate_dataset(config: SynthConfig = SynthConfig()) -> list[GroundingRecord]:
    """Deterministic synthetic dataset with the configured easy/hard mix."""
    rng = np.random.default_rng(config.seed)
    size = float(config.image_size)
    box = float(config.box_size)
    n_easy = round(config.easy_fraction * config.n_records)
    is_easy = np.zeros(config.n_records, dtype=bool)
    is_easy[:n_easy] = True
    rng.shuffle(is_easy)

    records = []
    for i in range(config.n_records):
        x_min = float(rng.uniform(0.0, size - box))
        y_min = float(rng.uniform(0.0, size - box))
        gt_box = (x_min, y_min, x_min + box, y_min + box)

        # each sample is uniform in a disc around its centre, from one angle and one
        # radius draw; the order of the draws fixes every dataset (tests pin digests)
        if is_easy[i]:
            # tight cloud strictly inside the box; every angle is drawn before any radius
            centers, radius = np.array([x_min + box / 2.0, y_min + box / 2.0]), 0.35 * box
            turns, spreads = rng.random((2, config.k_samples))
        else:
            # several clusters scattered over the screen; each sample's draws are adjacent
            n_clusters = int(rng.integers(2, 5))
            clusters = rng.uniform(0.0, size, size=(n_clusters, 2))
            centers = clusters[rng.integers(0, n_clusters, size=config.k_samples)]
            radius = config.dispersion
            turns, spreads = rng.random((config.k_samples, 2)).T
        angles = (2.0 * math.pi) * turns
        radii = radius * np.sqrt(spreads)
        offsets = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        pts = np.clip(centers + offsets, 0.0, size)

        if rng.random() < config.expert_accuracy:
            expert = (
                float(rng.uniform(x_min, x_min + box)),
                float(rng.uniform(y_min, y_min + box)),
            )
        else:
            while True:
                candidate = (float(rng.uniform(0.0, size)), float(rng.uniform(0.0, size)))
                if not admission(candidate, gt_box):
                    expert = candidate
                    break

        records.append(
            GroundingRecord(
                id=f"synth-{i:05d}",
                image_width=config.image_size,
                image_height=config.image_size,
                instruction=f"locate target {i}",
                gt_box=gt_box,
                samples=tuple((float(x), float(y)) for x, y in pts),
                expert=expert,
            )
        )
    return records


def _trial_seed(seed: int, trial: int) -> int:
    # distinct, order-independent stream per trial
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def run_guarantee_trials(
    config: SynthConfig,
    alpha: float,
    delta: float,
    trials: int,
    calibration_ratio: float = 0.5,
) -> tuple[GuaranteeResult, list[TrialOutcome]]:
    """Monte Carlo estimate of how often the calibrated rule overshoots alpha.

    Each trial draws a fresh dataset and a fresh calibration/test split,
    calibrates a threshold at (alpha, delta) on the combined uncertainty
    of the default `UqConfig`, and measures the test-split FDR at that
    threshold. The violation rate is taken over feasible trials.

    Calibration and test records are exchangeable by construction here;
    the guarantee being checked is marginal over that draw, and
    distribution shift between the two sides would void it.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    spec = RiskSpec(alpha=alpha, delta=delta)
    plan = SplitPlan(calibration_ratio=calibration_ratio, seed=config.seed, repetitions=1)
    uq_cfg = UqConfig()

    violations = 0
    infeasible = 0
    outcomes: list[TrialOutcome] = []
    for t in range(trials):
        seed_t = _trial_seed(config.seed, t)
        data = generate_dataset(replace(config, seed=seed_t))
        u = np.array([s.combined for s in score_batch(data, uq_cfg)])
        adm = np.array([admission(select_mlg(r, seed_t), r.gt_box) for r in data], dtype=bool)
        [(_, [counts])] = run_splits(u, adm, replace(plan, seed=seed_t), [spec.alpha], spec.delta)
        if counts is None:
            infeasible += 1
            outcomes.append(TrialOutcome(trial=t, feasible=False, tau=None, test_fdr=None))
            continue
        if counts.fdr > alpha:
            violations += 1
        outcomes.append(TrialOutcome(trial=t, feasible=True, tau=counts.tau, test_fdr=counts.fdr))

    feasible_trials = trials - infeasible
    rate = violations / feasible_trials if feasible_trials else 0.0
    result = GuaranteeResult(
        trials=trials, violations=violations, infeasible=infeasible, violation_rate=rate
    )
    return result, outcomes

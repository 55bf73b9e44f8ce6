"""Synthetic grounding datasets and a Monte Carlo check of the FDR guarantee.

Generated records come in two flavors: "easy" records whose sample cloud
sits tightly inside the ground-truth box (a single compact region, low
uncertainty, admissible predictions) and "hard" records whose samples are
spread over several clusters straddling the screen (fragmented regions,
high uncertainty, mostly inadmissible predictions). Sample noise is
isotropic with bounded support (uniform in a disc), truncated to the
image. `generate_chunks` draws a dataset SCORE_CHUNK records at a time,
so `synth` and the guarantee harness hold one chunk of samples whatever
the dataset's size. The guarantee harness redraws dataset and split each
trial, calibrates a threshold, and counts trials whose test FDR exceeds
the target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .engine import run_splits
from .metrics import admission, admissions
from .records import SCORE_CHUNK, UQ_KEYS, Columns, GroundingRecord, SplitPlan, column_lines, mlg_column, parse_records
from .risk import RiskSpec
from .uq import UqConfig, score_columns

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


def _record_id(i: int) -> str:
    return f"synth-{i:05d}"


def generate_chunks(config: SynthConfig = SynthConfig()) -> Iterator[Columns]:
    """Deterministic synthetic dataset with the configured easy/hard mix, SCORE_CHUNK records per `Columns`.

    The draws are made in a fixed order that fixes every dataset (tests
    pin digests): which records are easy, for the whole dataset (one byte
    per record, the only state kept from chunk to chunk); then, record by
    record, the box corner, the samples' draws and the expert's. Each
    sample is uniform in a disc around its centre, from one angle and one
    radius draw; a chunk's raw draws are kept in arrays and the disc
    arithmetic runs once over the chunk. The ids are synth-00000,
    synth-00001, ... across chunks; no record has an mlg, pc or uq. Every
    chunk continues the stream where the one before it left off, so each
    is drawn when it is asked for.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_records
    is_easy = np.zeros(n, dtype=bool)
    is_easy[: round(config.easy_fraction * n)] = True
    rng.shuffle(is_easy)
    for start in range(0, n, SCORE_CHUNK):
        yield _chunk(config, rng, is_easy[start : start + SCORE_CHUNK], start)


def _chunk(config: SynthConfig, rng: np.random.Generator, is_easy: np.ndarray, start: int) -> Columns:
    """Records start, start + 1, ..., one per entry of `is_easy`, drawn from `rng` in `generate_chunks`' order."""
    n, k = len(is_easy), config.k_samples
    size = float(config.image_size)
    box = float(config.box_size)

    # Every uniform draw is `uniform`'s own formula, low + (high - low) * random(),
    # on the same stream: the same floats at a fifth of a scalar `uniform`'s cost
    # (so an expert's x_max - x_min stays as it is; it need not round to `box`).
    random, integers = rng.random, rng.integers
    span = size - box
    draws = np.empty((n, 2 * k))  # each record's angle and radius draws, in draw order
    easy_draws, hard_draws = draws.reshape(n, 2, k), draws.reshape(n, k, 2)
    corners: list[tuple[float, float]] = []
    clusters: list[np.ndarray] = []  # each hard record's cluster centres
    picks: list[np.ndarray] = []  # and the cluster of each of its samples
    experts: list[tuple[float, float]] = []
    for i, easy in enumerate(is_easy.tolist()):
        x_min = span * random()
        y_min = span * random()
        corners.append((x_min, y_min))
        if easy:
            # tight cloud strictly inside the box; every angle is drawn before any radius
            random(out=easy_draws[i])
        else:
            # several clusters scattered over the screen; each sample's draws are adjacent
            n_clusters = int(integers(2, 5))
            clusters.append(size * random((n_clusters, 2)))
            picks.append(integers(0, n_clusters, size=k))
            random(out=hard_draws[i])

        if random() < config.expert_accuracy:
            x_max, y_max = x_min + box, y_min + box
            experts.append((x_min + (x_max - x_min) * random(), y_min + (y_max - y_min) * random()))
        else:
            gt_box = (x_min, y_min, x_min + box, y_min + box)
            while True:
                candidate = (size * random(), size * random())
                if not admission(candidate, gt_box):
                    experts.append(candidate)
                    break

    low = np.array(corners).reshape(n, 2)
    points = np.empty((n, k, 2))  # each sample's centre, then the sample itself
    points[is_easy] = (low[is_easy] + box / 2.0)[:, None, :]
    if clusters:
        first = np.cumsum([0] + [len(c) for c in clusters[:-1]])  # each record's first row in the stack
        points[~is_easy] = np.concatenate(clusters)[np.array(picks) + first[:, None]]
    # the disc arithmetic, once for the chunk's samples and in place where it can be
    hard_draws[is_easy] = easy_draws[is_easy].transpose(0, 2, 1)  # every record as (angle, radius) pairs
    angles = hard_draws[:, :, 0] * (2.0 * math.pi)
    radii = np.sqrt(hard_draws[:, :, 1])
    radii *= np.where(is_easy, 0.35 * box, config.dispersion)[:, None]
    shift = np.cos(angles)
    shift *= radii
    points[:, :, 0] += shift
    np.sin(angles, out=shift)
    shift *= radii
    points[:, :, 1] += shift
    return Columns(
        ids=[_record_id(i) for i in range(start, start + n)],
        instructions=[f"locate target {i}" for i in range(start, start + n)],
        dims=[(config.image_size, config.image_size)] * n,
        boxes=np.concatenate([low, low + box], axis=1),
        points=np.clip(points, 0.0, size, out=points).reshape(n * k, 2),
        offsets=np.arange(0, n * k + 1, k),
        mlg=np.full((n, 2), math.nan),
        expert=np.array(experts).reshape(n, 2),
        pc=np.full(n, math.nan),
        uq=np.full((n, 4), math.nan),
    )


def generate_arrays(config: SynthConfig = SynthConfig()) -> Columns:
    """`generate_chunks` as one `Columns`: the chunks joined, or a lone chunk as it is."""
    chunks = list(generate_chunks(config))
    if len(chunks) == 1:
        return chunks[0]
    n, k = config.n_records, config.k_samples
    return Columns(
        ids=[rec_id for c in chunks for rec_id in c.ids],
        instructions=[text for c in chunks for text in c.instructions],
        dims=[dims for c in chunks for dims in c.dims],
        boxes=np.concatenate([c.boxes for c in chunks]),
        points=np.concatenate([c.points for c in chunks]),
        offsets=np.arange(0, n * k + 1, k),
        mlg=np.concatenate([c.mlg for c in chunks]),
        expert=np.concatenate([c.expert for c in chunks]),
        pc=np.concatenate([c.pc for c in chunks]),
        uq=np.concatenate([c.uq for c in chunks]),
    )


def generate_dataset(config: SynthConfig = SynthConfig()) -> list[GroundingRecord]:
    """`generate_chunks` as records: the lines `synth` writes, read back as `load_records` reads them."""
    return parse_records(line for chunk in generate_chunks(config) for line in column_lines(chunk, chunk.mlg, chunk.uq))


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

    memo: dict = {}  # the trials' datasets repeat ranked-score tuples; scored once per call
    com = UQ_KEYS.index("com")
    violations = 0
    infeasible = 0
    outcomes: list[TrialOutcome] = []
    for t in range(trials):
        seed_t = _trial_seed(config.seed, t)
        # a chunk at a time: only each record's uncertainty and admissibility outlive its chunk
        scored = [
            (score_columns(chunk.points, chunk.offsets, chunk.dims, uq_cfg, memo)[:, com],
             admissions(mlg_column(chunk, seed_t), chunk.boxes))
            for chunk in generate_chunks(replace(config, seed=seed_t))
        ]
        u, adm = (np.concatenate(column) for column in zip(*scored))
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

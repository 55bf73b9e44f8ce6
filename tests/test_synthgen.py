import dataclasses
import hashlib
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from clickrisk import synthgen
from clickrisk.metrics import admission, admissions
from clickrisk.records import (
    SCORE_CHUNK, GroundingRecord, SplitError, SplitPlan, mlg_index, select_mlg, split,
)
from clickrisk.risk import RiskSpec, calibrate_threshold
from clickrisk.synthgen import (
    SynthConfig, _trial_seed, generate_arrays, generate_chunks, generate_dataset, run_guarantee_trials,
)
from clickrisk.uq import score_record
from test_records import record_lines


def test_same_seed_gives_identical_bytes():
    cfg = SynthConfig(n_records=40, seed=13)
    a = "\n".join(record_lines(generate_dataset(cfg)))
    b = "\n".join(record_lines(generate_dataset(cfg)))
    assert a == b


def test_different_seeds_differ():
    a = generate_dataset(SynthConfig(n_records=40, seed=1))
    b = generate_dataset(SynthConfig(n_records=40, seed=2))
    assert a != b


def test_all_easy_records_are_admissible():
    cfg = SynthConfig(n_records=50, easy_fraction=1.0, seed=3)
    for record in generate_dataset(cfg):
        # every sample sits inside the box, so any selection is admissible
        for sample in record.samples:
            assert admission(sample, record.gt_box) == 1
        assert admission(select_mlg(record, seed=99), record.gt_box) == 1


def test_all_hard_admissibility_near_geometric_rate():
    cfg = SynthConfig(
        n_records=800, easy_fraction=0.0, dispersion=400.0, box_size=120, seed=4
    )
    records = generate_dataset(cfg)
    hits = [admission(select_mlg(r, 0), r.gt_box) for r in records]
    rate = np.mean(hits)
    # dispersion >> box: hit probability is small but not zero
    assert 0.0 < rate < 0.15


def test_expert_accuracy_is_respected():
    cfg = SynthConfig(n_records=600, expert_accuracy=0.7, seed=5)
    records = generate_dataset(cfg)
    hits = [admission(r.expert, r.gt_box) for r in records]
    assert np.mean(hits) == pytest.approx(0.7, abs=0.06)


def test_record_ids_and_fields_are_well_formed():
    records = generate_dataset(SynthConfig(n_records=5, k_samples=7, seed=6))
    assert [r.id for r in records] == [f"synth-{i:05d}" for i in range(5)]
    for record in records:
        record.validate()
        assert len(record.samples) == 7
        assert record.expert is not None
        assert record.mlg is None  # left to the selection rule


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_records=0)
    with pytest.raises(ValueError):
        SynthConfig(box_size=900, image_size=800)
    with pytest.raises(ValueError):
        SynthConfig(easy_fraction=1.2)
    with pytest.raises(ValueError):
        SynthConfig(seed=-1)



@pytest.mark.parametrize("kwargs, message", [
    (dict(k_samples=0), "k_samples must be positive, got 0"),
    (dict(image_size=0), "image_size and box_size must be positive"),
    (dict(box_size=0), "image_size and box_size must be positive"),
    (dict(expert_accuracy=1.5), "expert_accuracy must lie in [0, 1], got 1.5"),
])
def test_config_validation_names_the_knob(kwargs, message):
    with pytest.raises(ValueError) as caught:
        SynthConfig(**kwargs)
    assert str(caught.value) == message


# sha256 of the serialized datasets: any change to the order or arithmetic
# of the generator's draws changes every synthetic output, and these catch it.
@pytest.mark.parametrize("kwargs, digest", [
    (dict(n_records=30, k_samples=1, seed=7),
     "ac1de5062c5b4405ac39d879523a630f5ba1af5f72dc5e741c50ce44be637398"),
    (dict(n_records=20, k_samples=50, easy_fraction=0.2, seed=11),
     "6224dfffdd127dcee02879f1615ae0ee52c3c4c9caf2f066a7932e364a3120fa"),
    (dict(n_records=40, k_samples=10, easy_fraction=0.0, dispersion=350.0, seed=3),
     "da6326ee02f3a0e5e1be78bf7ed12c6b0cacf51ff52da2c731d64bfe4635c7de"),
])
def test_generated_datasets_keep_their_digests(kwargs, digest):
    text = "\n".join(record_lines(generate_dataset(SynthConfig(**kwargs))))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_guarantee_trials_keep_their_digest():
    result, outcomes = run_guarantee_trials(SynthConfig(n_records=60, seed=5), alpha=0.15, delta=0.2, trials=6)
    assert (result.violations, result.infeasible) == (1, 3)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "2542f64cb95e319bc63b7d8b685de79c516ff3bd6bf63e8293359583217d64c9"


def columns_digest(batch):
    """sha256 of every field of a `Columns`, the arrays by their bytes."""
    h = hashlib.sha256(repr((batch.ids, batch.instructions, batch.dims)).encode())
    for a in (batch.boxes, batch.points, batch.offsets.astype(np.int64), batch.mlg, batch.expert, batch.pc, batch.uq):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Recorded before the generator drew its samples a chunk at a time: datasets just
# below, at and above one SCORE_CHUNK (256) and across two boundaries. With
# easy_fraction 1 no chunk has a hard record, so none has cluster centres.
@pytest.mark.parametrize("n, k, easy_fraction, digest", [
    (255, 1, 0.0, "53d9a4019c2682534646f4372c2f9247d4c384632a32b8909cf76557da4f67bc"),
    (255, 1, 1.0, "dfa339787c3519061f042603d074d09c7b1ee46781ccfe02d8939e3dc1b11a7f"),
    (255, 7, 0.0, "46a49168304d3dbac0f7eafa03bdc90c6f7226c8fb048197986ee62c64b4a9fc"),
    (255, 7, 1.0, "5d4f08ac6fa2b97ff998e58ea9ca2d6c0ac939d207ecef2f3da7afab8421a110"),
    (256, 1, 0.0, "9fa7423a6abace7e6b155a4a48717634e379cf21f1863e8d7446383f029804b3"),
    (256, 1, 1.0, "15c5ed509ec23c20bdbf6f4203e8797bc5e40d16a2fc9711ce2184b2d6669b8b"),
    (256, 7, 0.0, "4f87dd220da59a6357363532902a0a105fec7e1679d1360c06a0788b38e6917c"),
    (256, 7, 1.0, "b094b3fdc02d226ea9edd8ce9caf0310ad3e6653eb1578be988f7e229a5863b8"),
    (257, 1, 0.0, "591013171ad136da2a2ad26b79f48feb71b42f471fb8bdcfd7fbb7649ec0e5e3"),
    (257, 1, 1.0, "595c2bb4ddad65a030cc04302cb78c293971ddc7fa43be0ef5a0a1d635246c96"),
    (257, 7, 0.0, "16975d0247a6fdc2aeb4c08d83289600799eb667bfd58eabefa21df7017481f1"),
    (257, 7, 1.0, "6ca5a8cc87b7461ce071cea635eb307b7eaf1499052b5b59e9a22eba010f4844"),
    (513, 1, 0.0, "8af9ef9a5ba2f805f2a8d52d581db024ec0744ff5ed5b7f347d09058fccced11"),
    (513, 1, 1.0, "b33a1d9c927557f5fee111660a76e2035aacfc85c0debaa7e237d6cc1d1a5585"),
    (513, 7, 0.0, "df1a5384120bc9a3ec2dacd9c2d294c8f45acc5f10021f1f8a2ba55489f8e8be"),
    (513, 7, 1.0, "8af6311ab6802c5f39282f0dfa40d21fa1c8edb38b3fa6489ff560b096795ba2"),
])
def test_datasets_across_chunk_boundaries_keep_their_digests(n, k, easy_fraction, digest):
    cfg = SynthConfig(n_records=n, k_samples=k, easy_fraction=easy_fraction, seed=n + k)
    assert columns_digest(generate_arrays(cfg)) == digest


def test_guarantee_trials_across_chunk_boundaries_keep_their_digest():
    # 600 records a trial: three chunks, scored and judged chunk by chunk
    result, outcomes = run_guarantee_trials(SynthConfig(n_records=600, seed=12), alpha=0.1, delta=0.3, trials=6)
    assert (result.violations, result.infeasible) == (1, 0)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "c1a480e0415df373720bac48e7376ef343dd24a3442d3e3fb7c8b452c1239876"


@pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
def test_chunks_hold_at_most_score_chunk_records_and_join_to_the_arrays(n):
    cfg = SynthConfig(n_records=n, k_samples=3, seed=n)
    chunks = list(generate_chunks(cfg))
    assert [len(c) for c in chunks] == [min(SCORE_CHUNK, n - start) for start in range(0, n, SCORE_CHUNK)]
    for c in chunks:
        assert c.offsets.tolist() == list(range(0, 3 * len(c) + 1, 3)) and len(c.points) == 3 * len(c)
    batch = generate_arrays(cfg)
    assert [rec_id for c in chunks for rec_id in c.ids] == batch.ids == [f"synth-{i:05d}" for i in range(n)]
    assert np.array_equal(np.concatenate([c.points for c in chunks]), batch.points)
    if n <= SCORE_CHUNK:
        assert columns_digest(chunks[0]) == columns_digest(batch)


def test_guarantee_rejects_a_bad_ratio_before_any_trial(monkeypatch):
    def never(config):
        raise AssertionError("a dataset was generated")

    monkeypatch.setattr(synthgen, "generate_chunks", never)
    with pytest.raises(SplitError, match=re.escape("calibration_ratio must lie in (0, 1), got 1.5")):
        run_guarantee_trials(SynthConfig(n_records=40), alpha=0.2, delta=0.05, trials=3, calibration_ratio=1.5)


def test_guarantee_slack_regime_has_no_violations():
    cfg = SynthConfig(n_records=80, easy_fraction=0.9, seed=7)
    result, outcomes = run_guarantee_trials(cfg, alpha=0.5, delta=0.05, trials=10)
    assert result.trials == 10
    assert result.violations == 0
    assert result.infeasible == 0
    assert all(o.test_fdr <= 0.5 for o in outcomes if o.feasible)


def test_guarantee_hopeless_regime_is_all_infeasible():
    # nearly no correct predictions: every candidate bound stays above alpha
    cfg = SynthConfig(
        n_records=60, easy_fraction=0.0, dispersion=500.0, box_size=30, seed=8
    )
    result, outcomes = run_guarantee_trials(cfg, alpha=0.1, delta=0.05, trials=8)
    assert result.infeasible == result.trials
    assert result.violation_rate == 0.0
    assert all(not o.feasible and o.tau is None for o in outcomes)


def test_guarantee_bookkeeping_is_consistent():
    cfg = SynthConfig(n_records=100, seed=9)
    result, outcomes = run_guarantee_trials(cfg, alpha=0.2, delta=0.05, trials=30)
    assert len(outcomes) == result.trials
    feasible = [o for o in outcomes if o.feasible]
    assert result.infeasible == result.trials - len(feasible)
    recomputed = sum(1 for o in feasible if o.test_fdr > 0.2)
    assert result.violations == recomputed
    if feasible:
        assert result.violation_rate == pytest.approx(recomputed / len(feasible))
    for o in feasible:
        assert o.tau is not None and 0.0 <= o.test_fdr <= 1.0


def test_feasible_trials_have_trace_bound_under_alpha():
    # replay harness trials step by step: the bound the search accepted at
    # the reported threshold must itself sit at or below alpha
    cfg = SynthConfig(n_records=100, seed=21)
    alpha, delta = 0.25, 0.05
    result, outcomes = run_guarantee_trials(cfg, alpha=alpha, delta=delta, trials=5)
    assert result.infeasible < result.trials
    for outcome in outcomes:
        seed_t = _trial_seed(cfg.seed, outcome.trial)
        data = generate_dataset(replace(cfg, seed=seed_t))
        u = {r.id: score_record(r).combined for r in data}
        err = {r.id: 1 - admission(select_mlg(r, seed_t), r.gt_box) for r in data}
        cal, _ = split(data, SplitPlan(calibration_ratio=0.5, seed=seed_t), 0)
        replayed = calibrate_threshold(
            [u[r.id] for r in cal], [err[r.id] for r in cal], RiskSpec(alpha=alpha, delta=delta)
        )
        assert replayed.feasible == outcome.feasible
        if outcome.feasible:
            assert replayed.threshold == outcome.tau
            at_tau = next(p for p in replayed.trace if p.tau == outcome.tau)
            assert at_tau.upper_bound <= alpha


def test_guarantee_is_deterministic():
    cfg = SynthConfig(n_records=60, seed=10)
    a = run_guarantee_trials(cfg, alpha=0.25, delta=0.05, trials=5)
    b = run_guarantee_trials(cfg, alpha=0.25, delta=0.05, trials=5)
    assert a == b


def test_violation_rate_stable_under_doubling():
    # sanity at the 3-sigma level, not a strict assertion of monotonicity
    cfg = SynthConfig(n_records=100, seed=11)
    short, _ = run_guarantee_trials(cfg, alpha=0.2, delta=0.05, trials=60)
    long, _ = run_guarantee_trials(cfg, alpha=0.2, delta=0.05, trials=120)
    band = 3.0 * np.sqrt(0.05 * 0.95 / 60)
    assert long.violation_rate <= short.violation_rate + band


# --- the columnar generator ------------------------------------------------------

def per_record_dataset(config):
    """The generator drawn and computed one record at a time: the oracle for the arrays."""
    rng = np.random.default_rng(config.seed)
    size, box = float(config.image_size), float(config.box_size)
    is_easy = np.zeros(config.n_records, dtype=bool)
    is_easy[: round(config.easy_fraction * config.n_records)] = True
    rng.shuffle(is_easy)
    records = []
    for i in range(config.n_records):
        x_min, y_min = float(rng.uniform(0.0, size - box)), float(rng.uniform(0.0, size - box))
        gt_box = (x_min, y_min, x_min + box, y_min + box)
        if is_easy[i]:
            centers, radius = np.array([x_min + box / 2.0, y_min + box / 2.0]), 0.35 * box
            turns, spreads = rng.random((2, config.k_samples))
        else:
            n_clusters = int(rng.integers(2, 5))
            clusters = rng.uniform(0.0, size, size=(n_clusters, 2))
            centers = clusters[rng.integers(0, n_clusters, size=config.k_samples)]
            radius = config.dispersion
            turns, spreads = rng.random((config.k_samples, 2)).T
        angles = (2.0 * math.pi) * turns
        radii = radius * np.sqrt(spreads)
        pts = np.clip(centers + np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1), 0.0, size)
        if rng.random() < config.expert_accuracy:
            expert = (float(rng.uniform(x_min, x_min + box)), float(rng.uniform(y_min, y_min + box)))
        else:
            while True:
                expert = (float(rng.uniform(0.0, size)), float(rng.uniform(0.0, size)))
                if not admission(expert, gt_box):
                    break
        records.append(GroundingRecord(
            id=f"synth-{i:05d}", image_width=config.image_size, image_height=config.image_size,
            instruction=f"locate target {i}", gt_box=gt_box,
            samples=tuple((float(x), float(y)) for x, y in pts), expert=expert,
        ))
    return records


@pytest.mark.parametrize("k", [1, 7, 10, 50])
@pytest.mark.parametrize("easy_fraction", [0.0, 0.6, 1.0])
def test_columnar_generator_equals_the_per_record_one(k, easy_fraction):
    # the second image is barely larger than its box, so most inaccurate experts are redrawn many times
    for expert_accuracy, (image_size, box_size) in itertools.product((0.0, 0.5, 0.85, 1.0), ((840, 120), (200, 196))):
        cfg = SynthConfig(n_records=120, k_samples=k, image_size=image_size, box_size=box_size,
                          easy_fraction=easy_fraction, expert_accuracy=expert_accuracy, seed=k)
        batch = generate_arrays(cfg)
        from_arrays = [
            GroundingRecord(
                id=f"synth-{i:05d}", image_width=w, image_height=h, instruction=f"locate target {i}",
                gt_box=tuple(batch.boxes[i].tolist()),
                samples=tuple(map(tuple, batch.points[batch.offsets[i] : batch.offsets[i + 1]].tolist())),
                expert=tuple(batch.expert[i].tolist()),
            )
            for i, (w, h) in enumerate(batch.dims)
        ]
        records = generate_dataset(cfg)
        expected = per_record_dataset(cfg)
        for got, built, want in zip(records, from_arrays, expected, strict=True):
            for f in dataclasses.fields(GroundingRecord):
                assert getattr(got, f.name) == getattr(built, f.name) == getattr(want, f.name), f.name
        assert batch.offsets.tolist() == list(range(0, 120 * k + 1, k))


@pytest.mark.parametrize("easy_fraction", [0.0, 0.6, 1.0])
def test_chunked_generator_equals_the_per_record_one_across_chunks(easy_fraction):
    cfg = SynthConfig(n_records=2 * SCORE_CHUNK + 1, k_samples=4, easy_fraction=easy_fraction, seed=17)
    for f in dataclasses.fields(GroundingRecord):
        assert [getattr(r, f.name) for r in generate_dataset(cfg)] == \
            [getattr(r, f.name) for r in per_record_dataset(cfg)], f.name


def test_guarantee_admission_from_arrays_equals_the_per_record_rule():
    for seed in (3, 4):
        cfg = SynthConfig(n_records=200, k_samples=7, easy_fraction=0.5, seed=seed)
        batch = generate_arrays(cfg)
        picks = [mlg_index(f"synth-{i:05d}", cfg.k_samples, seed) for i in range(cfg.n_records)]
        from_arrays = admissions(batch.points[batch.offsets[:-1] + picks], batch.boxes)
        records = generate_dataset(cfg)
        expected = [admission(select_mlg(r, seed), r.gt_box) for r in records]
        assert from_arrays.tolist() == [bool(a) for a in expected]
        assert 0 < sum(expected) < len(expected)

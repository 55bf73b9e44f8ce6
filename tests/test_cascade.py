import json

import numpy as np
import pytest

from clickrisk.cascade import (
    CascadeError,
    Decision,
    decide,
    emit_deferrals,
    evaluate_cascade,
)
from clickrisk.metrics import admission
from clickrisk.records import GroundingRecord

BOX = (40.0, 40.0, 60.0, 60.0)
INSIDE = (50.0, 50.0)
OUTSIDE = (5.0, 5.0)


def make_record(rec_id, mlg, expert=None, instruction=None):
    return GroundingRecord(
        id=rec_id,
        image_width=100,
        image_height=100,
        gt_box=BOX,
        samples=(mlg,),
        mlg=mlg,
        expert=expert,
        instruction=instruction,
    )


def test_decide_boundaries():
    assert decide(0.1, 0.5) is Decision.ACCEPT
    assert decide(0.9, 0.5) is Decision.DEFER
    assert decide(0.5, 0.5) is Decision.ACCEPT  # inclusive


def test_correct_sources_compose_to_perfect_accuracy():
    records = [
        make_record("a", INSIDE, expert=OUTSIDE),  # accepted, primary correct
        make_record("b", OUTSIDE, expert=INSIDE),  # deferred, expert correct
    ]
    report = evaluate_cascade(records, [0.1, 0.9], 0.5)
    assert report.system_accuracy == 1.0
    assert report.n_accepted == 1 and report.n_deferred == 1


def test_full_deferral_equals_expert_only():
    records = [make_record(f"r{i}", OUTSIDE, expert=INSIDE if i % 2 else OUTSIDE) for i in range(6)]
    u = [0.5 + 0.05 * i for i in range(6)]
    report = evaluate_cascade(records, u, 0.1)
    assert report.cascading_rate == 1.0
    assert report.system_accuracy == report.expert_only_accuracy


def test_full_acceptance_equals_primary_only():
    records = [make_record(f"r{i}", INSIDE if i % 3 else OUTSIDE) for i in range(6)]
    u = [0.1 * i for i in range(6)]
    report = evaluate_cascade(records, u, 0.9)
    assert report.cascading_rate == 0.0
    assert report.system_accuracy == report.primary_accuracy
    assert report.expert_only_accuracy is None


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(77)
    records = []
    u = []
    for i in range(20):
        mlg = INSIDE if rng.random() < 0.5 else OUTSIDE
        expert = INSIDE if rng.random() < 0.7 else OUTSIDE
        records.append(make_record(f"r{i}", mlg, expert=expert))
        u.append(float(rng.random()))
    tau = 0.5
    report = evaluate_cascade(records, u, tau)

    # enumerate every record by hand
    expected_correct = 0
    expected_deferred = 0
    for record, value in zip(records, u):
        if value <= tau:
            expected_correct += admission(record.mlg, record.gt_box)
        else:
            expected_deferred += 1
            expected_correct += admission(record.expert, record.gt_box)
    assert report.system_accuracy == pytest.approx(expected_correct / 20)
    assert report.n_deferred == expected_deferred
    assert report.n_accepted + report.n_deferred == report.n_total
    assert report.cascading_rate == pytest.approx(expected_deferred / 20)


def test_missing_expert_only_fails_when_deferred():
    records = [make_record("ok", INSIDE), make_record("bad", OUTSIDE)]
    # nothing deferred: fine without experts
    report = evaluate_cascade(records, [0.1, 0.2], 0.5)
    assert report.n_deferred == 0
    with pytest.raises(CascadeError, match="bad"):
        evaluate_cascade(records, [0.1, 0.9], 0.5)


def test_cascading_rate_non_increasing_in_threshold():
    rng = np.random.default_rng(5)
    records = [make_record(f"r{i}", INSIDE, expert=INSIDE) for i in range(40)]
    u = rng.random(40).tolist()
    rates = [
        evaluate_cascade(records, u, tau).cascading_rate
        for tau in sorted(set(u)) + [1.0]
    ]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_manifest_empty_when_everything_accepted(tmp_path):
    records = [make_record("a", INSIDE, expert=INSIDE)]
    path = tmp_path / "deferred.jsonl"
    assert emit_deferrals(records, [0.3], 0.9, path) == []
    assert path.read_text() == ""


def test_manifest_lists_everyone_under_full_deferral(tmp_path):
    records = [
        make_record("a", INSIDE, expert=INSIDE, instruction="click a"),
        make_record("b", INSIDE, expert=INSIDE),
    ]
    path = tmp_path / "deferred.jsonl"
    ids = emit_deferrals(records, [0.8, 0.9], 0.1, path)
    assert ids == ["a", "b"]
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert entries[0] == {"id": "a", "instruction": "click a"}
    assert entries[1] == {"id": "b"}


def test_manifest_is_written_atomically(tmp_path):
    records = [make_record("a", INSIDE, expert=INSIDE), make_record("b", INSIDE, expert=INSIDE)]
    path = tmp_path / "deferred.jsonl"
    path.write_text("previous\n")
    # the second deferred id is no JSON string, so the write fails after the first line
    unwritable = [records[0], make_record(object(), INSIDE, expert=INSIDE)]
    with pytest.raises(TypeError):
        emit_deferrals(unwritable, [0.8, 0.9], 0.1, path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["deferred.jsonl"]
    assert emit_deferrals(records, [0.8, 0.9], 0.1, path) == ["a", "b"]
    assert path.read_text() == '{"id":"a"}\n{"id":"b"}\n'


def test_manifest_is_exactly_the_defer_set(tmp_path):
    rng = np.random.default_rng(9)
    records = [make_record(f"r{i}", INSIDE, expert=INSIDE) for i in range(30)]
    u = rng.random(30).tolist()
    tau = 0.45
    path = tmp_path / "m.jsonl"
    ids = emit_deferrals(records, u, tau, path)
    expected = [r.id for r, v in zip(records, u) if decide(v, tau) is Decision.DEFER]
    assert ids == expected
    report = evaluate_cascade(records, u, tau)
    assert len(ids) == report.n_deferred


def test_length_mismatch_and_empty_are_errors():
    records = [make_record("a", INSIDE)]
    with pytest.raises(CascadeError):
        evaluate_cascade(records, [0.1, 0.2], 0.5)
    with pytest.raises(CascadeError):
        evaluate_cascade([], [], 0.5)

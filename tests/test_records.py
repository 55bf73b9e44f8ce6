import io
import json
import math
import os

import numpy as np
import pytest

from clickrisk.records import (
    GroundingRecord,
    RecordError,
    SplitError,
    SplitPlan,
    atomic_writer,
    parse_records,
    record_from_obj,
    save_records,
    select_mlg,
    serialize_records,
    split,
)


def make_record(rec_id="r1", **overrides):
    fields = dict(
        id=rec_id,
        image_width=100,
        image_height=80,
        gt_box=(10.0, 10.0, 30.0, 30.0),
        samples=((12.0, 15.0), (20.0, 25.0), (40.0, 50.0)),
    )
    fields.update(overrides)
    return GroundingRecord(**fields)


def lines(*objs):
    return io.StringIO("\n".join(json.dumps(o) for o in objs) + "\n")


VALID = {
    "id": "a",
    "image": {"w": 100, "h": 80},
    "gt_box": [10, 10, 30, 30],
    "samples": [[12, 15], [20, 25]],
}


def test_parse_valid_file_preserves_order():
    objs = [dict(VALID, id=f"rec{i}") for i in range(3)]
    records = parse_records(lines(*objs))
    assert [r.id for r in records] == ["rec0", "rec1", "rec2"]
    assert records[0].gt_box == (10.0, 10.0, 30.0, 30.0)
    assert records[0].samples == ((12.0, 15.0), (20.0, 25.0))


def test_parse_accepts_bytes_and_skips_blank_lines():
    text = json.dumps(VALID) + "\n\n"
    records = parse_records(io.BytesIO(text.encode()))
    assert len(records) == 1


def test_parse_reports_inverted_box_with_line_number():
    bad = dict(VALID, id="b", gt_box=[30, 10, 10, 30])
    with pytest.raises(RecordError, match=r"line 2.*gt_box"):
        parse_records(lines(VALID, bad))


def test_parse_reports_empty_samples():
    bad = dict(VALID, id="b", samples=[])
    with pytest.raises(RecordError, match="samples"):
        parse_records(lines(bad))


def test_parse_reports_duplicate_id():
    with pytest.raises(RecordError, match=r"line 2.*duplicate id"):
        parse_records(lines(VALID, VALID))


def test_parse_reports_malformed_json_line():
    stream = io.StringIO(json.dumps(VALID) + "\nnot json\n")
    with pytest.raises(RecordError, match="line 2"):
        parse_records(stream)


def test_parse_rejects_box_outside_image():
    bad = dict(VALID, gt_box=[10, 10, 120, 30])
    with pytest.raises(RecordError, match="gt_box"):
        parse_records(lines(bad))


def test_parse_rejects_pc_out_of_range():
    bad = dict(VALID, pc=1.5)
    with pytest.raises(RecordError, match="pc"):
        parse_records(lines(bad))


def test_parse_rejects_nonfinite_sample():
    bad = dict(VALID, samples=[[1, 2], [float("nan"), 3]])
    with pytest.raises(RecordError, match="samples"):
        parse_records(lines(bad))


# Sample lists that fail the one-pass check in `record_from_obj` and go to the
# per-pair `_as_point` loop, with the error that loop raises for each.
REJECTED_SAMPLES = {
    "bool": ("[[1, 2], [true, 3]]", RecordError,
             "line 1: samples[1]: expected a [x, y] pair of numbers, got [True, 3]"),
    "numeric string": ('[["1", 2]]', RecordError,
                       "line 1: samples[0]: expected a [x, y] pair of numbers, got ['1', 2]"),
    "NaN": ("[[1, 2], [NaN, 3]]", RecordError, "line 1: samples[1]: coordinates must be finite, got [nan, 3]"),
    "Infinity": ("[[Infinity, 3]]", RecordError, "line 1: samples[0]: coordinates must be finite, got [inf, 3]"),
    "-Infinity": ("[[4, -Infinity]]", RecordError, "line 1: samples[0]: coordinates must be finite, got [4, -inf]"),
    "one coordinate": ("[[1, 2], [1]]", RecordError, "line 1: samples[1]: expected a [x, y] pair of numbers, got [1]"),
    "three coordinates": ("[[1, 2, 3]]", RecordError,
                          "line 1: samples[0]: expected a [x, y] pair of numbers, got [1, 2, 3]"),
    "not a list": ("[[1, 2], null]", RecordError, "line 1: samples[1]: expected a [x, y] pair of numbers, got None"),
    "int too large for a float": ("[[1, 2], [1" + "0" * 400 + ", 1]]", RecordError,
                                  "line 1: samples[1]: an integer too large for a float"),
    # the first bad pair decides, whichever check the fast path would trip first
    "NaN before a huge int": ("[[NaN, 2], [1" + "0" * 400 + ", 1]]", RecordError,
                              "line 1: samples[0]: coordinates must be finite, got [nan, 2]"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_SAMPLES))
def test_parse_names_the_first_bad_sample_pair(case):
    samples, error, message = REJECTED_SAMPLES[case]
    text = json.dumps(VALID).replace('[[12, 15], [20, 25]]', samples)
    with pytest.raises(error) as info:
        parse_records(io.StringIO(text + "\n"))
    assert str(info.value) == message


HUGE = 10**400  # a JSON integer that no float can hold


@pytest.mark.parametrize("field, value", [
    ("gt_box", [10, 10, HUGE, 30]),
    ("mlg", [HUGE, 3]),
    ("expert", [3, HUGE]),
    ("pc", HUGE),
])
def test_parse_names_a_field_too_large_for_a_float(field, value):
    text = json.dumps(dict(VALID, **{field: value}))
    with pytest.raises(RecordError) as info:
        parse_records(io.StringIO(text + "\n"))
    assert str(info.value) == f"line 1: {field}: an integer too large for a float"


def test_parse_names_the_line_of_an_integer_too_long_to_read():
    text = json.dumps(VALID).replace("[12, 15]", "[1" + "0" * 5000 + ", 15]")
    with pytest.raises(RecordError, match=r"^line 2: unreadable number: Exceeds the limit"):
        parse_records(io.StringIO(json.dumps(dict(VALID, id="b")) + "\n" + text + "\n"))


def test_parse_names_a_bad_uq_value():
    scored = dict(VALID, uq={"ta": 0.1, "ie": 0.0, "cd": 0.0, "com": 0.02})
    rejected = [(None, "expected a number, got None"), ("x", "expected a number, got 'x'"),
                ([1], "expected a number, got [1]"), (HUGE, "an integer too large for a float")]
    for value, message in rejected:
        text = json.dumps(VALID) + "\n" + json.dumps(dict(scored, id="b", uq=dict(scored["uq"], cd=value)))
        with pytest.raises(RecordError) as info:
            parse_records(io.StringIO(text + "\n"))
        assert str(info.value) == f"line 2: uq.cd: {message}"
    # everything float() takes is still accepted
    for value, parsed in [("0.5", 0.5), (True, 1.0), (1, 1.0), (" 2e-1 ", 0.2)]:
        record = record_from_obj(dict(scored, uq=dict(scored["uq"], cd=value)))
        assert record.uq["cd"] == parsed


@pytest.mark.parametrize("value, shown", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), ("nan", "'nan'"), ("-Infinity", "'-Infinity'"),
])
def test_parse_rejects_a_nonfinite_uq_value(value, shown):
    scored = dict(VALID, uq={"ta": 0.1, "ie": 0.0, "cd": 0.0, "com": 0.02})
    text = json.dumps(VALID) + "\n" + json.dumps(dict(scored, id="b", uq=dict(scored["uq"], com=value)))
    with pytest.raises(RecordError) as info:
        parse_records(io.StringIO(text + "\n"))
    assert str(info.value) == f"line 2: uq.com: must be finite, got {shown}"


def test_samples_outside_the_one_pass_check_still_parse():
    accepted = {
        "tuples from a caller": [(12, 15), [20.5, 25]],
        "float subclasses": [[np.float64(12.0), 15], [20.5, np.float64(25)]],
        "a coordinate sum that overflows": [[1e308, 1e308], [20.5, 25]],
    }
    for samples in accepted.values():
        record = record_from_obj(dict(VALID, samples=samples))
        assert record.samples == tuple((float(x), float(y)) for x, y in samples)
        assert all(type(c) is float for point in record.samples for c in point)
    with pytest.raises(RecordError, match=r"samples\[0\]: expected a \[x, y\] pair of numbers"):
        record_from_obj(dict(VALID, samples=[(1, 2, 3)]))


def test_round_trip_is_field_equal():
    objs = [
        dict(VALID, id="x", instruction="click save", mlg=[13.5, 14.25], pc=0.4),
        dict(VALID, id="y", expert=[20, 20], uq={"ta": 0.1, "ie": 0.0, "cd": 0.0, "com": 0.02}),
    ]
    first = parse_records(lines(*objs))
    text = "\n".join(serialize_records(first)) + "\n"
    second = parse_records(io.StringIO(text))
    assert first == second


def test_select_mlg_prefers_explicit_field():
    record = make_record(mlg=(10.0, 20.0))
    assert select_mlg(record, seed=123) == (10.0, 20.0)


def test_select_mlg_single_sample():
    record = make_record(samples=((5.0, 5.0),))
    assert select_mlg(record, seed=9) == (5.0, 5.0)


def test_select_mlg_is_deterministic():
    record = make_record(samples=tuple((float(i), float(i)) for i in range(10)))
    picks = {select_mlg(record, seed=4) for _ in range(50)}
    assert len(picks) == 1
    assert select_mlg(record, seed=4) in record.samples


def test_select_mlg_varies_with_seed_and_id():
    records = [make_record(rec_id=f"r{i}", samples=tuple((float(j), 0.0) for j in range(10))) for i in range(40)]
    picks_a = [select_mlg(r, seed=0) for r in records]
    picks_b = [select_mlg(r, seed=1) for r in records]
    assert picks_a != picks_b  # different seeds reshuffle the choices
    assert len(set(picks_a)) > 1  # different ids get different draws


def test_split_sizes_follow_ratio():
    records = [make_record(rec_id=f"r{i}") for i in range(10)]
    cal, test = split(records, SplitPlan(calibration_ratio=0.2, seed=0), 0)
    assert len(cal) == 2 and len(test) == 8


def test_split_is_deterministic():
    records = [make_record(rec_id=f"r{i}") for i in range(30)]
    plan = SplitPlan(calibration_ratio=0.5, seed=3, repetitions=2)
    a = split(records, plan, 1)
    b = split(records, plan, 1)
    assert [r.id for r in a[0]] == [r.id for r in b[0]]
    assert [r.id for r in a[1]] == [r.id for r in b[1]]


def test_split_repetitions_differ():
    records = [make_record(rec_id=f"r{i}") for i in range(100)]
    plan = SplitPlan(calibration_ratio=0.5, seed=0, repetitions=2)
    cal0, _ = split(records, plan, 0)
    cal1, _ = split(records, plan, 1)
    assert {r.id for r in cal0} != {r.id for r in cal1}


def test_split_partition_property():
    records = [make_record(rec_id=f"r{i}") for i in range(17)]
    plan = SplitPlan(calibration_ratio=0.35, seed=11, repetitions=5)
    for rep in range(plan.repetitions):
        cal, test = split(records, plan, rep)
        cal_ids = {r.id for r in cal}
        test_ids = {r.id for r in test}
        assert cal_ids & test_ids == set()
        assert cal_ids | test_ids == {r.id for r in records}
        assert cal and test


def test_split_clamps_to_nonempty_sides():
    records = [make_record(rec_id=f"r{i}") for i in range(3)]
    cal, test = split(records, SplitPlan(calibration_ratio=0.01, seed=0), 0)
    assert len(cal) == 1 and len(test) == 2
    cal, test = split(records, SplitPlan(calibration_ratio=0.99, seed=0), 0)
    assert len(cal) == 2 and len(test) == 1


def test_split_rejects_tiny_dataset_and_bad_index():
    records = [make_record()]
    with pytest.raises(SplitError):
        split(records, SplitPlan(calibration_ratio=0.5, seed=0), 0)
    two = [make_record(rec_id="a"), make_record(rec_id="b")]
    with pytest.raises(SplitError):
        split(two, SplitPlan(calibration_ratio=0.5, seed=0, repetitions=2), 2)


def test_split_plan_validation():
    with pytest.raises(SplitError):
        SplitPlan(calibration_ratio=1.0, seed=0).validate()
    with pytest.raises(SplitError):
        SplitPlan(calibration_ratio=0.5, seed=0, repetitions=0).validate()


# --- atomic output ----------------------------------------------------------------

def test_save_records_replaces_the_file_only_when_complete(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("previous\n")

    def failing():
        yield make_record(rec_id="a")
        raise RuntimeError("stream broke")

    with pytest.raises(RuntimeError):
        save_records(path, failing())
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    records = [make_record(rec_id="a"), make_record(rec_id="b")]
    save_records(path, records)
    assert path.read_text() == "".join(line + "\n" for line in serialize_records(records))
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_atomic_writer_creates_directories_and_honours_the_umask(tmp_path):
    path = tmp_path / "new" / "file.txt"
    with atomic_writer(path) as fh:
        fh.write("x\n")
    assert path.read_text() == "x\n"
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask

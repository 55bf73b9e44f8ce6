import dataclasses
import hashlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from clickrisk import records, sidecar
from clickrisk.records import (
    SCORE_CHUNK,
    Columns,
    GroundingRecord,
    RecordError,
    SplitError,
    SplitPlan,
    UQ_KEYS,
    column_lines,
    load_records,
    mlg_column,
    parse_records,
    read_columns,
    record_fields,
    save_records,
    select_mlg,
    sidecar_path,
    split,
)


def _line(rec_id, width, height, instruction, gt_box, samples, mlg, expert, pc, uq) -> str:
    """One record's `json.dumps` line (no newline), its fields in this order and None ones left out.

    The oracle of `column_lines`, and through `record_lines` the writer of the tests' record fixtures.
    """
    obj = {"id": rec_id, "image": {"w": width, "h": height}, "instruction": instruction, "gt_box": list(gt_box),
           "samples": [list(s) for s in samples], "mlg": mlg and list(mlg), "expert": expert and list(expert),
           "pc": pc, "uq": uq and dict(zip(UQ_KEYS, uq))}
    return json.dumps({k: v for k, v in obj.items() if v is not None}, separators=(",", ":"), allow_nan=False)


def record_lines(records) -> list[str]:
    """`GroundingRecord`s as the oracle writes them, one line each: how tests write record fixtures."""
    return [_line(r.id, r.image_width, r.image_height, r.instruction, r.gt_box, r.samples, r.mlg, r.expert, r.pc,
                  r.uq and [r.uq[k] for k in UQ_KEYS]) for r in records]


def write_records(path, records) -> None:
    """A JSONL file of `record_lines(records)`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in record_lines(records))


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


def test_validate_rejects_a_record_without_samples():
    with pytest.raises(RecordError) as caught:
        make_record(samples=()).validate()
    assert str(caught.value) == "samples: must contain at least one coordinate pair"


def lines(*objs):
    return io.StringIO(text(*objs))


def text(*objs):
    return "\n".join(json.dumps(o) for o in objs) + "\n"


def rejected(content: str) -> str:
    """The error both readers give `content`: `parse_records` on its lines, `read_columns` on a file of it."""
    with pytest.raises(RecordError) as by_records:
        parse_records(io.StringIO(content))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "records.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        with pytest.raises(RecordError) as by_columns:
            for _ in read_columns(path):
                pass
    assert str(by_columns.value) == str(by_records.value)
    assert by_columns.value.line == by_records.value.line is not None
    return str(by_records.value)


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
    assert re.search(r"line 2.*gt_box", rejected(text(VALID, bad)))


def test_parse_reports_empty_samples():
    bad = dict(VALID, id="b", samples=[])
    assert "samples" in rejected(text(bad))


def test_parse_reports_duplicate_id():
    assert re.search(r"line 2.*duplicate id", rejected(text(VALID, VALID)))


def test_parse_reports_malformed_json_line():
    assert "line 2" in rejected(json.dumps(VALID) + "\nnot json\n")


def test_parse_rejects_box_outside_image():
    bad = dict(VALID, gt_box=[10, 10, 120, 30])
    assert "gt_box" in rejected(text(bad))


def test_parse_rejects_pc_out_of_range():
    bad = dict(VALID, pc=1.5)
    assert "pc" in rejected(text(bad))


def test_parse_rejects_nonfinite_sample():
    bad = dict(VALID, samples=[[1, 2], [float("nan"), 3]])
    assert "samples" in rejected(text(bad))


MISSING = object()  # a field left out of the line
IMAGE_FIELDS = 'image: expected an object with integer fields "w" and "h"'
BOX_FIELDS = "gt_box: expected [x_min, y_min, x_max, y_max], got "
UQ_FIELDS = "uq: expected an object with fields ('ta', 'ie', 'cd', 'com')"
# A field of VALID replaced (or left out), with the error `record_fields` gives the record.
REJECTED_FIELDS = {
    "missing-image": ({"image": MISSING}, "missing required field 'image'"),
    "missing-samples": ({"samples": MISSING}, "missing required field 'samples'"),
    "int-id": ({"id": 5}, "id: expected a string, got 5"),
    "empty-id": ({"id": ""}, "id: must be a non-empty string"),
    "image-list": ({"image": [100, 80]}, IMAGE_FIELDS),
    "image-without-h": ({"image": {"w": 100}}, IMAGE_FIELDS),
    "float-width": ({"image": {"w": 100.0, "h": 80}}, IMAGE_FIELDS),
    "bool-height": ({"image": {"w": 100, "h": True}}, IMAGE_FIELDS),
    "zero-width": ({"image": {"w": 0, "h": 80}}, "image: dimensions must be positive, got 0x80"),
    "negative-height": ({"image": {"w": 100, "h": -80}}, "image: dimensions must be positive, got 100x-80"),
    "int-instruction": ({"instruction": 5}, "instruction: expected a string, got 5"),
    "three-coordinate-box": ({"gt_box": [10, 10, 30]}, BOX_FIELDS + "[10, 10, 30]"),
    "string-in-box": ({"gt_box": [10, "10", 30, 30]}, BOX_FIELDS + "[10, '10', 30, 30]"),
    "bool-in-float-box": ({"gt_box": [10.0, 10.0, 30.0, True]}, BOX_FIELDS + "[10.0, 10.0, 30.0, True]"),
    "string-box": ({"gt_box": "10,10,30,30"}, BOX_FIELDS + "'10,10,30,30'"),
    "string-pc": ({"pc": "0.5"}, "pc: expected a real in [0, 1], got '0.5'"),
    "bool-pc": ({"pc": True}, "pc: expected a real in [0, 1], got True"),
    "uq-without-com": ({"uq": {"ta": 0.1, "ie": 0.0, "cd": 0.0}}, UQ_FIELDS),
    "uq-list": ({"uq": [0.1, 0.0, 0.0, 0.5]}, UQ_FIELDS),
}


@pytest.mark.parametrize("case", REJECTED_FIELDS)
def test_parse_names_a_field_of_the_wrong_shape(case):
    """Both readers give each rejected field the same text, on the record's line."""
    fields, message = REJECTED_FIELDS[case]
    bad = {k: v for k, v in {**VALID, "id": "b", **fields}.items() if v is not MISSING}
    assert rejected(text(VALID, bad)) == f"line 2: {message}"


# Sample lists with a pair that fails its check, with the error for the first such pair.
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
    line = json.dumps(VALID).replace('[[12, 15], [20, 25]]', samples)
    assert error is RecordError and rejected(line + "\n") == message


HUGE = 10**400  # a JSON integer that no float can hold


@pytest.mark.parametrize("field, value", [
    ("gt_box", [10, 10, HUGE, 30]),
    ("mlg", [HUGE, 3]),
    ("expert", [3, HUGE]),
    ("pc", HUGE),
])
def test_parse_names_a_field_too_large_for_a_float(field, value):
    line = json.dumps(dict(VALID, **{field: value}))
    assert rejected(line + "\n") == f"line 1: {field}: an integer too large for a float"


def test_parse_names_the_line_of_an_integer_too_long_to_read():
    line = json.dumps(VALID).replace("[12, 15]", "[1" + "0" * 5000 + ", 15]")
    message = rejected(json.dumps(dict(VALID, id="b")) + "\n" + line + "\n")
    assert message.startswith("line 2: unreadable number: Exceeds the limit")


def test_parse_names_a_bad_uq_value():
    scored = dict(VALID, uq={"ta": 0.1, "ie": 0.0, "cd": 0.0, "com": 0.02})
    bad_values = [(None, "expected a number, got None"), ("x", "expected a number, got 'x'"),
                ([1], "expected a number, got [1]"), (HUGE, "an integer too large for a float")]
    for value, message in bad_values:
        content = text(VALID, dict(scored, id="b", uq=dict(scored["uq"], cd=value)))
        assert rejected(content) == f"line 2: uq.cd: {message}"
    # everything float() takes is still accepted
    for value, parsed in [("0.5", 0.5), (True, 1.0), (1, 1.0), (" 2e-1 ", 0.2)]:
        [record] = parse_records(lines(dict(scored, uq=dict(scored["uq"], cd=value))))
        assert record.uq["cd"] == parsed


@pytest.mark.parametrize("value, shown", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), ("nan", "'nan'"), ("-Infinity", "'-Infinity'"),
])
def test_parse_rejects_a_nonfinite_uq_value(value, shown):
    scored = dict(VALID, uq={"ta": 0.1, "ie": 0.0, "cd": 0.0, "com": 0.02})
    content = text(VALID, dict(scored, id="b", uq=dict(scored["uq"], com=value)))
    assert rejected(content) == f"line 2: uq.com: must be finite, got {shown}"


def test_samples_outside_the_one_pass_check_still_parse():
    accepted = {
        "tuples from a caller": [(12, 15), [20.5, 25]],
        "float subclasses": [[np.float64(12.0), 15], [20.5, np.float64(25)]],
        "a coordinate sum that overflows": [[1e308, 1e308], [20.5, 25]],
    }
    for samples in accepted.values():
        coords = record_fields(dict(VALID, samples=samples))[5]
        assert coords == [float(c) for point in samples for c in point]
        assert all(type(c) is float for c in coords)
    with pytest.raises(RecordError, match=r"samples\[0\]: expected a \[x, y\] pair of numbers"):
        record_fields(dict(VALID, samples=[(1, 2, 3)]))


def test_round_trip_is_field_equal():
    objs = [
        dict(VALID, id="x", instruction="click save", mlg=[13.5, 14.25], pc=0.4),
        dict(VALID, id="y", expert=[20, 20], uq={"ta": 0.1, "ie": 0.0, "cd": 0.0, "com": 0.02}),
    ]
    first = parse_records(lines(*objs))
    second = parse_records(record_lines(first))
    assert first == second


# --- read_columns: the same records as columns, SCORE_CHUNK at a time ------------------

def mixed_objs(n):
    """n valid records that set and omit each optional field in turn, some with integer coordinates."""
    objs = []
    for i in range(n):
        obj = dict(VALID, id=f"r{i}", samples=[[12.5 + i % 7, 15.25], [20, 25], [21.5, 24.0 + i % 3]][: 1 + i % 3])
        if i % 2:
            obj["instruction"] = f"click {i}"
        if i % 3 == 0:
            obj["mlg"] = [13.0, 14.5]
        if i % 4:
            obj["expert"] = [20, 20.5]
        if i % 5 == 0:
            obj["pc"] = (i % 11) / 10
        if i % 6 < 3:
            obj["uq"] = {"ta": 0.1, "ie": 0.0, "cd": i / n, "com": 0.5}
        objs.append(obj)
    return objs


@pytest.mark.parametrize("n", [1, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1, 2 * SCORE_CHUNK + 3])
def test_read_columns_holds_what_load_records_does(tmp_path, n):
    path = tmp_path / "records.jsonl"
    path.write_text(text(*mixed_objs(n)).replace("\n", "\n\n", 7))  # blank lines are skipped
    records = load_records(path)
    chunks = list(read_columns(path))
    assert [len(c.ids) for c in chunks] == [min(SCORE_CHUNK, n - i) for i in range(0, n, SCORE_CHUNK)]
    nan_pair = (math.nan, math.nan)
    got = [
        (rec_id, instruction, dims, tuple(box), tuple(map(tuple, c.points[a:b].tolist())), tuple(m), tuple(e),
         p, tuple(u), tuple(click))
        for c in chunks
        for rec_id, instruction, dims, box, a, b, m, e, p, u, click in zip(
            c.ids, c.instructions, c.dims, c.boxes.tolist(), c.offsets[:-1].tolist(), c.offsets[1:].tolist(),
            c.mlg.tolist(), c.expert.tolist(), c.pc.tolist(), c.uq.tolist(), mlg_column(c, 5).tolist())
    ]
    expected = [
        (r.id, r.instruction, (r.image_width, r.image_height), r.gt_box, r.samples, r.mlg or nan_pair,
         r.expert or nan_pair, math.nan if r.pc is None else r.pc,
         (math.nan,) * 4 if r.uq is None else tuple(r.uq.values()), select_mlg(r, 5))
        for r in records
    ]
    assert repr(got) == repr(expected)  # repr: NaN marks an absent field on both sides


def test_a_duplicate_id_is_caught_across_chunks():
    objs = mixed_objs(SCORE_CHUNK + 20)
    objs[SCORE_CHUNK + 10]["id"] = "r3"
    assert rejected(text(*objs)) == f"line {SCORE_CHUNK + 11}: duplicate id 'r3'"


def test_blank_lines_count_toward_the_line_number():
    content = text(VALID).replace("\n", "\n\n  \n") + json.dumps(dict(VALID, id="b", pc=2)) + "\n"
    assert rejected(content) == "line 4: pc: must lie in [0, 1], got 2.0"


def test_bytes_lines_read_as_their_text(tmp_path):
    content = text(*mixed_objs(40))
    path = tmp_path / "records.jsonl"
    path.write_text(content)
    from_bytes = parse_records(io.BytesIO(content.encode()))
    assert from_bytes == parse_records(io.StringIO(content)) == load_records(path)
    assert [r.id for r in from_bytes] == [i for c in read_columns(path) for i in c.ids]


def test_lines_end_at_newline_alone(tmp_path):
    """A `\r` is JSON whitespace: `\r\n` endings read as `\n` ones, and a lone `\r` ends no line."""
    content = text(*mixed_objs(40))
    path = tmp_path / "records.jsonl"
    path.write_bytes(content.replace("\n", "\r\n").encode())
    assert load_records(path) == parse_records(io.StringIO(content))
    assert rejected(json.dumps(VALID) + "\r" + json.dumps(dict(VALID, id="b")) + "\n") == \
        "line 1: invalid JSON: Extra data"


def test_a_line_that_is_not_utf8_names_the_byte_and_its_column(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(text(VALID).encode() + b'{"id": "b\xe9"}\n')
    with pytest.raises(RecordError, match=r"^line 2: not UTF-8 \(byte 0xe9 at column 10\)$"):
        load_records(path)
    with pytest.raises(RecordError, match=r"^line 2: not UTF-8 \(byte 0xe9 at column 10\)$"):
        list(read_columns(path))


@pytest.mark.parametrize("deep", ["[" * 100_000 + "]" * 100_000, '{"id": ' + "[" * 100_000],
                         ids=["closed", "unclosed"])
def test_a_line_nested_past_the_recursion_limit_is_invalid_json(tmp_path, deep):
    path = tmp_path / "records.jsonl"
    path.write_text(text(VALID) + deep + "\n")
    for read in (load_records, lambda p: list(read_columns(p))):
        with pytest.raises(RecordError, match=r"^line 2: invalid JSON: nested too deeply$"):
            read(path)


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
        SplitPlan(calibration_ratio=1.0, seed=0)
    with pytest.raises(SplitError):
        SplitPlan(calibration_ratio=0.5, seed=0, repetitions=0)


# --- column_lines: one %-format per line, the json.dumps line of the same fields --------

# repr's edge cases: subnormal, largest, where repr switches to an exponent, integral, signed zero
EDGE_FLOATS = [5e-324, 1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-5, 1e-4, -0.0, 0.0, 3.0, 840.0,
               0.1, 1 / 3, -2.5e-300, 123456789012345.67]
AWKWARD_TEXT = ["plain", 'a "quote"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "naïve 点击 \U0001f600", ""]


def random_columns(rng, n, k):
    """`Columns` of n records with k samples each: edge and random floats, and record i omitting the
    optional fields (instruction, mlg, expert, pc, uq) whose bits are set in i % 32."""
    def floats(*shape):
        edge = rng.choice(EDGE_FLOATS, size=shape)
        wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 20, size=shape)
        integral = rng.integers(-10**6, 10**6, size=shape).astype(float)
        return np.choose(rng.integers(0, 3, size=shape), [edge, wide, integral])

    absent = [[bool(i % 32 & 1 << bit) for bit in range(5)] for i in range(n)]
    optional = [floats(n, 2), floats(n, 2), floats(n), floats(n, 4)]
    for column, bit in zip(optional, range(1, 5)):
        column[[a[bit] for a in absent]] = math.nan
    return Columns(
        ids=[AWKWARD_TEXT[i % len(AWKWARD_TEXT)] + str(i) for i in range(n)],
        instructions=[None if a[0] else AWKWARD_TEXT[i % len(AWKWARD_TEXT)] for i, a in enumerate(absent)],
        dims=[(int(w), int(h)) for w, h in rng.integers(1, 2**40, size=(n, 2))],
        boxes=floats(n, 4), points=floats(n * k, 2), offsets=np.arange(0, n * k + 1, k),
        mlg=optional[0], expert=optional[1], pc=optional[2], uq=optional[3],
    )


def json_lines(c: Columns) -> list[str]:
    """The oracle: `json.dumps` of each record's fields, an all-NaN row left out."""
    def present(row):
        return None if np.isnan(row).all() else row.tolist()

    return [
        _line(c.ids[i], *c.dims[i], c.instructions[i], c.boxes[i].tolist(),
              c.points[c.offsets[i]:c.offsets[i + 1]].tolist(), present(c.mlg[i]), present(c.expert[i]),
              present(c.pc[i]), present(c.uq[i]))
        for i in range(len(c))
    ]


@pytest.mark.parametrize("k", [1, 7, 50])
def test_column_lines_equal_the_json_dumps_lines(k):
    rng = np.random.default_rng(k)
    cols = random_columns(rng, 96, k)  # every combination of absent fields three times
    got = list(column_lines(cols))
    assert got == json_lines(cols)
    assert [json.loads(line)["id"] for line in got] == cols.ids


def test_column_lines_write_each_edge_float_as_json_does():
    for x in EDGE_FLOATS:
        cols = Columns(["e"], [None], [(1, 1)], np.full((1, 4), x), np.full((1, 2), x), np.array([0, 1]),
                       np.full((1, 2), x), np.full((1, 2), x), np.full(1, x), np.full((1, 4), x))
        [line] = column_lines(cols)
        assert line == json_lines(cols)[0]
        assert json.loads(line)["pc"] == x and math.copysign(1.0, json.loads(line)["pc"]) == math.copysign(1.0, x)


@pytest.mark.parametrize("field, value", [
    ("mlg", [math.nan, 1.0]), ("expert", [math.inf, 1.0]), ("pc", math.inf), ("uq", [0.1, 0.2, math.nan, 0.4]),
])
def test_column_lines_reject_a_nonfinite_value_that_is_no_absent_row(field, value):
    cols = random_columns(np.random.default_rng(0), 2, 3)
    column = getattr(cols, field).copy()
    column[1] = value
    cols = dataclasses.replace(cols, **{field: column})
    with pytest.raises(ValueError, match=f"^{field}: a row must be finite or all NaN$"):
        list(column_lines(cols))


@pytest.mark.parametrize("field", ["boxes", "points"])
def test_column_lines_reject_a_nonfinite_coordinate(field):
    cols = random_columns(np.random.default_rng(0), 2, 3)
    column = getattr(cols, field).copy()
    column[1, 0] = math.inf
    cols = dataclasses.replace(cols, **{field: column})
    with pytest.raises(ValueError, match="^gt_box and samples must be finite$"):
        list(column_lines(cols))


@pytest.mark.parametrize("n", [0, 1, SCORE_CHUNK, 2 * SCORE_CHUNK + 3])
def test_save_records_writes_columns_as_the_json_dumps_lines(tmp_path, n):
    chunks = [random_columns(np.random.default_rng(n + i), size, 2) for i, size in enumerate((n, n // 2, 0))]
    path = tmp_path / "cols.jsonl"
    save_records(path, iter(chunks))
    assert path.read_text() == "".join(line + "\n" for c in chunks for line in json_lines(c))


# --- the line loop: one scanner call, json.loads' errors ----------------------------

def json_loads_error(content: str) -> str:
    """The oracle: the first error of a reader that decodes each stripped line with `json.loads`."""
    for lineno, raw in enumerate(io.StringIO(content), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"line {lineno}: invalid JSON: {exc.msg}"
        except ValueError as exc:
            return f"line {lineno}: unreadable number: {exc}"
        try:
            record_fields(obj)
        except RecordError as exc:
            return f"line {lineno}: {exc}"
    raise AssertionError("every line reads")


GOOD = json.dumps(dict(VALID, gt_box=[10.5, 10.0, 30.0, 30.25], uq={"ta": 0.1, "ie": 0.0, "cd": 0.0, "com": 0.5}))
MALFORMED = {
    "bom": "\ufeff" + GOOD,
    "extra-data": GOOD + " {}",
    "extra-text": GOOD + "x",
    "two-objects": GOOD + GOOD,
    "truncated": GOOD[:-7],
    "unterminated-string": '{"id": "a',
    "nan-literal": GOOD.replace("10.5", "NaN"),
    "infinity-in-uq": GOOD.replace('"com": 0.5', '"com": -Infinity'),
    "over-long-integer": GOOD.replace("10.5", "1" * 5000),
    "null": "null",
    "a-list": "[1, 2]",
    "a-bare-word": "nope",
    "a-number": "12",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_line_fails_as_json_loads_says(case):
    content = GOOD + "\n\n" + MALFORMED[case] + "\n" + GOOD.replace('"a"', '"b"') + "\n"
    message = rejected(content)
    assert message == json_loads_error(content)
    assert message.startswith("line 3: ")


def test_float_boxes_and_scores_read_as_their_converted_forms():
    """The one-type-test paths give what the per-value conversions give."""
    obj = json.loads(GOOD)
    as_ints = dict(obj, gt_box=[10, 10, 30, 30], uq={"ta": 0, "ie": 1, "cd": 0, "com": 0.5})
    fields, int_fields = record_fields(obj), record_fields(as_ints)
    assert fields[4] == (10.5, 10.0, 30.0, 30.25) and fields[9] == (0.1, 0.0, 0.0, 0.5)
    assert int_fields[4] == (10.0, 10.0, 30.0, 30.0) and int_fields[9] == (0.0, 1.0, 0.0, 0.5)
    assert all(type(v) is float for v in int_fields[4] + int_fields[9])


# --- atomic output ----------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("mlg", [math.nan, 3.0]), ("uq", [math.inf, 0.1, 0.2, 0.3]), ("pc", -math.inf),
], ids=["nan-mlg", "inf-uq", "inf-pc"])
def test_a_non_finite_field_is_refused_before_the_file_changes(tmp_path, field, value):
    # a NaN/Infinity literal is not JSON and the readers reject it, so it is never written
    path = tmp_path / "out.jsonl"
    path.write_text("previous\n")
    good, bad = (random_columns(np.random.default_rng(seed), 2, 3) for seed in (0, 1))
    column = getattr(bad, field).copy()
    column[1] = value
    with pytest.raises(ValueError, match=f"^{field}: a row must be finite or all NaN$"):
        save_records(path, [good, dataclasses.replace(bad, **{field: column})])
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_save_records_replaces_the_file_only_when_complete(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("previous\n")

    chunk = random_columns(np.random.default_rng(0), 2, 3)

    def failing():
        yield chunk
        raise RuntimeError("stream broke")

    with pytest.raises(RuntimeError):
        save_records(path, failing())
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    save_records(path, [chunk])
    assert path.read_text() == "".join(line + "\n" for line in json_lines(chunk))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "out.jsonl.cols"]


@pytest.mark.parametrize("target", ["out/", "new/out/", "out.jsonl/"])
@pytest.mark.parametrize("writer", ["save_records", "record_writer", "staged_files", "write_manifest"])
def test_a_target_ending_in_a_separator_is_refused_before_anything_is_made(tmp_path, monkeypatch, writer, target):
    """`save_records("out/", ...)` put the sidecar at `out/.cols` in a new `out/` and then failed to rename
    the record file."""
    from clickrisk import cascade

    def staged(open_target):
        with records.staged_files() as stage, open_target(stage):
            pytest.fail("the target was opened")

    chunk = random_columns(np.random.default_rng(0), 2, 3)
    write = {
        "save_records": lambda path: save_records(path, [chunk]),
        "record_writer": lambda path: staged(lambda stage: records.record_writer(stage, path)),
        "staged_files": lambda path: staged(lambda stage: stage(path)),
        "write_manifest": lambda path: cascade.write_manifest(path, ["a"], [None]),
    }[writer]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(IsADirectoryError, match=re.escape(repr(target))):
        write(target)
    assert list(tmp_path.iterdir()) == []


def test_staged_files_replace_their_targets_together_and_only_at_the_end(tmp_path):
    old, deep = tmp_path / "old.txt", tmp_path / "new" / "deeper" / "b.txt"
    old.write_text("old\n")

    def stage_both(stage):
        with stage(old) as fh:
            fh.write("new\n")
        with stage(deep, binary=True) as fh:
            fh.write(b"b\n")
        assert old.read_text() == "old\n" and not deep.exists()  # no target is replaced inside the block

    with pytest.raises(RuntimeError):
        with records.staged_files() as stage:
            stage_both(stage)
            raise RuntimeError("a later output failed")
    assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]  # no temporary, and no directory made for one
    assert old.read_text() == "old\n"
    with records.staged_files() as stage:
        stage_both(stage)
    assert (old.read_text(), deep.read_bytes()) == ("new\n", b"b\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["b.txt", "deeper", "new", "old.txt"]


def test_staged_files_create_directories_and_honour_the_umask(tmp_path):
    path = tmp_path / "new" / "file.txt"
    with records.staged_files() as stage, stage(path) as fh:
        fh.write("x\n")
    assert path.read_text() == "x\n"
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


# --- the column sidecar: written with the lines, served in place of them --------------

ARRAY_FIELDS = ("boxes", "points", "offsets", "mlg", "expert", "pc", "uq")


def no_lines(stream):
    raise AssertionError("a line was parsed")


def assert_same_columns(got: list[Columns], expected: list[Columns]) -> None:
    """Chunk by chunk: the same ids, instructions and dims, and arrays of the same dtype, shape and bytes."""
    assert [len(c) for c in got] == [len(c) for c in expected]
    for g, e in zip(got, expected):
        assert (g.ids, g.instructions, g.dims) == (e.ids, e.instructions, e.dims)
        for name in ARRAY_FIELDS:
            a, b = getattr(g, name), getattr(e, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def served_and_parsed(path, monkeypatch) -> tuple[list[Columns], list[Columns]]:
    """`read_columns(path)` from the sidecar, with no line parsed, and from the lines, with the sidecar set aside."""
    with monkeypatch.context() as patch:
        patch.setattr(records, "_line_fields", no_lines)
        served = list(read_columns(path))
    cols = Path(sidecar_path(path))
    aside = cols.rename(cols.with_name(cols.name + ".aside"))
    try:
        parsed = list(read_columns(path))
    finally:
        aside.rename(cols)
    return served, parsed


def pieces(chunks, size: int):
    """The chunks' records cut into pieces of `size` records across their boundaries; each piece keeps
    its chunk's whole sample column, with offsets that do not start at 0."""
    for c in chunks:
        for a in range(0, len(c), size):
            b = min(a + size, len(c))
            yield Columns(ids=c.ids[a:b], instructions=c.instructions[a:b], dims=c.dims[a:b], boxes=c.boxes[a:b],
                          points=c.points, offsets=c.offsets[a : b + 1], mlg=c.mlg[a:b], expert=c.expert[a:b],
                          pc=c.pc[a:b], uq=c.uq[a:b])


def sidecar_objs(n):
    """`mixed_objs(n)` with non-ASCII text and a lone surrogate among the ids and instructions."""
    objs = mixed_objs(n)
    for i, obj in enumerate(objs):
        if i % 7 == 0:
            obj["instruction"] = "naïve 点击 \U0001f600"
        if i % 11 == 0:
            obj["id"] += " \udc80"
    return objs


def joined(chunks: list[Columns]) -> Columns:
    """Consecutive chunks whose offsets start at 0 as one: the records they hold, whatever their boundaries."""
    starts = np.cumsum([0] + [len(c.points) for c in chunks])
    return Columns(
        ids=[i for c in chunks for i in c.ids], instructions=[s for c in chunks for s in c.instructions],
        dims=[d for c in chunks for d in c.dims], boxes=np.concatenate([c.boxes for c in chunks]),
        points=np.concatenate([c.points for c in chunks]),
        offsets=np.concatenate([c.offsets[:-1] + s for c, s in zip(chunks, starts.tolist())] + [starts[-1:]]),
        mlg=np.concatenate([c.mlg for c in chunks]), expert=np.concatenate([c.expert for c in chunks]),
        pc=np.concatenate([c.pc for c in chunks]), uq=np.concatenate([c.uq for c in chunks]),
    )


def assert_served_blocks(path, monkeypatch, sizes: list[int]) -> None:
    """The sidecar of `path` is bound to it and serves blocks of `sizes` records, which hold the records its
    lines parse to."""
    served, parsed = served_and_parsed(path, monkeypatch)
    assert [len(c) for c in served] == sizes
    assert_same_columns([joined(served)], [joined(parsed)])
    header = json.loads(Path(sidecar_path(path)).read_bytes()[: sidecar._HEADER_BYTES])
    assert header["size"] == path.stat().st_size and header["records"] == sum(sizes)
    assert header["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("n", [1, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1, 600])
def test_served_chunks_equal_parsed_chunks(tmp_path, monkeypatch, n):
    """Records written in pieces of 100 go to the sidecar as blocks of those pieces, bound to the file."""
    src, path = tmp_path / "src.jsonl", tmp_path / "out.jsonl"
    src.write_text(text(*sidecar_objs(n)))
    assert not os.path.exists(sidecar_path(src))  # only the writer makes a sidecar
    save_records(path, pieces(read_columns(src), 100))
    assert_served_blocks(path, monkeypatch, [len(p) for p in pieces(read_columns(src), 100)])
    assert_same_columns([joined(list(read_columns(path)))], [joined(list(read_columns(src)))])


def test_a_chunk_longer_than_score_chunk_goes_to_the_sidecar_in_blocks_of_score_chunk(tmp_path, monkeypatch):
    """The same two files as the chunks `read_columns` cuts the lines into."""
    src, path, chunked = tmp_path / "src.jsonl", tmp_path / "out.jsonl", tmp_path / "chunked.jsonl"
    src.write_text(text(*sidecar_objs(600)))
    save_records(path, [joined(list(read_columns(src)))])
    assert_served_blocks(path, monkeypatch, [SCORE_CHUNK, SCORE_CHUNK, 600 - 2 * SCORE_CHUNK])
    save_records(chunked, read_columns(src))
    assert path.read_bytes() == chunked.read_bytes()
    assert Path(sidecar_path(path)).read_bytes() == Path(sidecar_path(chunked)).read_bytes()


def test_a_chunk_changed_after_write_returns_leaves_both_files_as_they_were(tmp_path):
    src, kept, changed = tmp_path / "src.jsonl", tmp_path / "kept.jsonl", tmp_path / "changed.jsonl"
    src.write_text(text(*sidecar_objs(300)))
    save_records(kept, read_columns(src))
    with records.staged_files() as stage, records.record_writer(stage, changed) as writer:
        for chunk in read_columns(src):
            writer.write(chunk)
            for name in ARRAY_FIELDS:
                getattr(chunk, name)[...] = 0
            for values in (chunk.ids, chunk.instructions, chunk.dims):
                values.reverse()
    assert changed.read_bytes() == kept.read_bytes()
    assert Path(sidecar_path(changed)).read_bytes() == Path(sidecar_path(kept)).read_bytes()


def test_an_empty_file_has_an_empty_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "empty.jsonl"
    save_records(path, [])
    assert path.read_bytes() == b""
    assert served_and_parsed(path, monkeypatch) == ([], [])


def test_a_dimension_past_the_float_range_is_served_as_parsed(tmp_path, monkeypatch):
    """The lines compare such a width as an integer, so every box fits; so do the array checks."""
    src, path = tmp_path / "src.jsonl", tmp_path / "out.jsonl"
    src.write_text(text(dict(VALID, image={"w": 10**400, "h": 80}), dict(VALID, id="b")))
    save_records(path, read_columns(src))
    served, parsed = served_and_parsed(path, monkeypatch)
    assert_same_columns(served, parsed)
    assert served[0].dims == [(10**400, 80), (100, 80)]


def objs_columns(tmp_path) -> list[Columns]:
    """`mixed_objs(600)` as chunks."""
    src = tmp_path / "objs.jsonl"
    src.write_text(text(*mixed_objs(600)))
    return list(read_columns(src))


def with_box_past_the_image(chunks: list[Columns]) -> list[Columns]:
    """The record on line 300 (id 'r299') given a gt_box past its image's right edge."""
    chunks[1].boxes[300 - 1 - SCORE_CHUNK, 2] = 100.5
    return chunks


def damage(path: Path, how: str) -> None:
    cols = Path(sidecar_path(path))
    data = bytearray(cols.read_bytes())
    if how == "stale":  # the record file edited after it was written: same records, one more blank line
        path.write_bytes(path.read_bytes() + b"\n")
    elif how == "truncated":
        cols.write_bytes(data[:-8])
    elif how == "flipped-body-byte":
        data[len(data) // 2] ^= 0x01
        cols.write_bytes(data)
    elif how == "header-not-json":
        cols.write_bytes(b"not json".ljust(sidecar._HEADER_BYTES - 1) + b"\n" + data[sidecar._HEADER_BYTES:])
    else:  # another format's tag, of the same length
        cols.write_bytes(data.replace(sidecar.FORMAT.encode(), sidecar.FORMAT[:-1].encode() + b"0", 1))


@pytest.mark.parametrize("broken", [False, True], ids=["valid", "box-past-the-image"])
@pytest.mark.parametrize("how", ["stale", "truncated", "flipped-body-byte", "wrong-format", "header-not-json"])
def test_a_sidecar_that_is_not_bound_takes_the_parse_path(tmp_path, monkeypatch, how, broken):
    """The same chunks, or the same `line N:` error, as with no sidecar; and the lines are parsed."""
    path = tmp_path / "out.jsonl"
    chunks = objs_columns(tmp_path)
    save_records(path, with_box_past_the_image(chunks) if broken else chunks)
    damage(path, how)
    parsed_lines = []
    parse = records._line_fields

    def counted(stream):
        parsed_lines.append(True)
        return parse(stream)

    monkeypatch.setattr(records, "_line_fields", counted)
    if broken:
        with pytest.raises(RecordError) as served:
            list(read_columns(path))
        assert str(served.value) == "line 300: gt_box: (10.0, 10.0, 100.5, 30.0) exceeds image bounds 100x80"
        assert served.value.line == 300
    else:
        got = list(read_columns(path))
        Path(sidecar_path(path)).unlink()
        assert_same_columns(got, list(read_columns(path)))
    assert parsed_lines



def bind(path: Path, body: bytes, count: int) -> None:
    """Write `body` as the sidecar of `path`, under a header of `count` records that binds it to `path` as it is."""
    header = {"format": sidecar.FORMAT, "size": path.stat().st_size,
              "sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "body_sha256": hashlib.sha256(body).hexdigest(),
              "records": count}
    Path(sidecar_path(path)).write_bytes(json.dumps(header).encode().ljust(sidecar._HEADER_BYTES - 1) + b"\n" + body)


def rebound(path: Path, chunks: list[Columns], monkeypatch) -> None:
    """Rewrite `path`'s sidecar from `chunks`, unchecked, bound to `path` as it is."""
    with monkeypatch.context() as patch:
        patch.setattr(sidecar, "column_lines", lambda chunk: iter(()))  # no lines, so no value is checked
        body = io.BytesIO()
        writer = sidecar.RecordWriter(io.BytesIO(), body)
        for chunk in chunks:
            writer.write(chunk)
    bind(path, body.getvalue()[sidecar._HEADER_BYTES:], sum(map(len, chunks)))


def nan_sample(chunks: list[Columns]) -> list[Columns]:
    """The first sample of the record on line 300 given a NaN y."""
    chunk = chunks[1]
    chunk.points[chunk.offsets[300 - 1 - SCORE_CHUNK], 1] = math.nan
    return chunks


def duplicate_id(chunks: list[Columns]) -> list[Columns]:
    """The record on line 300 given the id of the record on line 4, in the chunk before."""
    chunks[1].ids[300 - 1 - SCORE_CHUNK] = "r3"
    return chunks


def empty_id(chunks: list[Columns]) -> list[Columns]:
    """The record on line 300 given an empty id."""
    chunks[1].ids[300 - 1 - SCORE_CHUNK] = ""
    return chunks


def zero_width(chunks: list[Columns]) -> list[Columns]:
    """The record on line 300 given an image no pixel wide."""
    chunks[1].dims[300 - 1 - SCORE_CHUNK] = (0, 80)
    return chunks


@pytest.mark.parametrize("edit, record, message", [
    (with_box_past_the_image, "r299", "gt_box: (10.0, 10.0, 100.5, 30.0) exceeds image bounds 100x80"),
    (nan_sample, "r299", "samples[0]: coordinates must be finite, got [17.5, nan]"),
    (duplicate_id, "r3", "duplicate id 'r3'"),
    (empty_id, "", "id: must be a non-empty string"),
    (zero_width, "r299", "image: dimensions must be positive, got 0x80"),
], ids=["box-past-the-image", "nan-sample", "duplicate-id", "empty-id", "zero-width"])
def test_a_bound_sidecar_with_a_broken_record_names_the_sidecar_and_the_record(tmp_path, monkeypatch, edit,
                                                                              record, message):
    """The served path checks what the parse path checks, though the record file itself is valid."""
    path = tmp_path / "out.jsonl"
    save_records(path, objs_columns(tmp_path))
    rebound(path, edit(objs_columns(tmp_path)), monkeypatch)
    monkeypatch.setattr(records, "_line_fields", no_lines)
    with pytest.raises(RecordError) as served:
        list(read_columns(path))
    assert str(served.value) == f"line 300: {sidecar_path(path)}: record {record!r}: {message}"
    assert served.value.line == 300


def served_error(path, monkeypatch) -> str:
    """The RecordError `read_columns(path)` raises with no line parsed."""
    monkeypatch.setattr(records, "_line_fields", no_lines)
    with pytest.raises(RecordError) as served:
        list(read_columns(path))
    return str(served.value)


def test_a_bound_block_of_more_than_score_chunk_records_is_malformed(tmp_path, monkeypatch):
    path = tmp_path / "out.jsonl"
    save_records(path, objs_columns(tmp_path))
    with monkeypatch.context() as patch:
        patch.setattr(sidecar, "SCORE_CHUNK", 600)  # so the writer writes the 600 records as one block
        rebound(path, [joined(objs_columns(tmp_path))], monkeypatch)
    assert served_error(path, monkeypatch) == f"{sidecar_path(path)}: a malformed block"


def test_a_bound_block_that_claims_more_samples_than_the_sidecar_holds_is_cut_short(tmp_path, monkeypatch):
    """Found before anything is allocated: 2**62 samples would take 2**66 bytes."""
    path = tmp_path / "out.jsonl"
    save_records(path, objs_columns(tmp_path))
    head = {"ids": ["r0"], "instructions": [None], "dims": [[100, 80]], "samples": 2**62}
    bind(path, json.dumps(head).encode() + b"\n" + bytes(1024), 1)
    assert served_error(path, monkeypatch) == f"{sidecar_path(path)}: a block cut short"


@pytest.mark.parametrize("count", [0, 599, 601])
def test_a_bound_header_whose_record_count_differs_from_its_blocks_is_refused(tmp_path, monkeypatch, count):
    """The blocks are served as they are checked; the count is compared once the last one is read."""
    path = tmp_path / "out.jsonl"
    save_records(path, objs_columns(tmp_path))
    bind(path, Path(sidecar_path(path)).read_bytes()[sidecar._HEADER_BYTES:], count)
    assert served_error(path, monkeypatch) == f"{sidecar_path(path)}: holds 600 records where its header says {count}"


def offsets_out_of_order(chunks: list[Columns]) -> list[Columns]:
    """The sample offsets of the records on lines 300 and 301 swapped, so one record ends before it starts."""
    chunk, i = chunks[1], 300 - 1 - SCORE_CHUNK
    chunk.offsets[[i, i + 1]] = chunk.offsets[[i + 1, i]]
    return chunks


def test_a_bound_block_whose_offsets_are_out_of_order_is_malformed(tmp_path, monkeypatch):
    path = tmp_path / "out.jsonl"
    save_records(path, objs_columns(tmp_path))
    rebound(path, offsets_out_of_order(objs_columns(tmp_path)), monkeypatch)
    assert served_error(path, monkeypatch) == f"{sidecar_path(path)}: a block's offsets are out of order"

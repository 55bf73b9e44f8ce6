import dataclasses
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest

from clickrisk.records import (
    SCORE_CHUNK,
    Columns,
    GroundingRecord,
    RecordError,
    SplitError,
    SplitPlan,
    UQ_KEYS,
    atomic_writer,
    column_lines,
    load_records,
    mlg_column,
    parse_records,
    read_columns,
    record_fields,
    save_records,
    select_mlg,
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
    got = list(column_lines(cols, cols.mlg, cols.uq))
    assert got == json_lines(cols)
    assert [json.loads(line)["id"] for line in got] == cols.ids


def test_column_lines_write_each_edge_float_as_json_does():
    for x in EDGE_FLOATS:
        cols = Columns(["e"], [None], [(1, 1)], np.full((1, 4), x), np.full((1, 2), x), np.array([0, 1]),
                       np.full((1, 2), x), np.full((1, 2), x), np.full(1, x), np.full((1, 4), x))
        [line] = column_lines(cols, cols.mlg, cols.uq)
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
        list(column_lines(cols, cols.mlg, cols.uq))


@pytest.mark.parametrize("field", ["boxes", "points"])
def test_column_lines_reject_a_nonfinite_coordinate(field):
    cols = random_columns(np.random.default_rng(0), 2, 3)
    column = getattr(cols, field).copy()
    column[1, 0] = math.inf
    cols = dataclasses.replace(cols, **{field: column})
    with pytest.raises(ValueError, match="^gt_box and samples must be finite$"):
        list(column_lines(cols, cols.mlg, cols.uq))


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
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_atomic_writer_creates_directories_and_honours_the_umask(tmp_path):
    path = tmp_path / "new" / "file.txt"
    with atomic_writer(path) as fh:
        fh.write("x\n")
    assert path.read_text() == "x\n"
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask

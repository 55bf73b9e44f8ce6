import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clickrisk import cascade, cli, engine, metrics, records, risk, synthgen, uq
from clickrisk.density import build_density_map
from clickrisk.records import (
    SCORE_CHUNK, UQ_KEYS, GroundingRecord, SplitPlan, load_records, read_columns, save_records, sidecar_path, split,
    split_indices)
from clickrisk.sidecar import RecordWriter
from clickrisk.synthgen import SynthConfig, generate_dataset
from test_records import assert_same_columns, bind, no_lines, pieces, record_lines, served_and_parsed


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def easy_file(tmp_path):
    """60 records whose samples all sit inside their boxes (all correct)."""
    path = tmp_path / "easy.jsonl"
    assert run("--seed", 1, "synth", "--out", path, "--n-records", 60, "--easy-fraction", 1.0) == 0
    return path


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.jsonl"
    assert run("--seed", 2, "synth", "--out", path, "--n-records", 80) == 0
    return path


def scored(tmp_path, source, name="scored.jsonl", *extra):
    out = tmp_path / name
    assert run("--seed", 3, "score", "-i", source, "-o", out, *extra) == 0
    return out


# --- score -------------------------------------------------------------------

def test_score_appends_uq_and_preserves_fields(tmp_path, mixed_file):
    out = scored(tmp_path, mixed_file)
    before = load_records(mixed_file)
    after = load_records(out)
    assert len(after) == len(before)
    for b, a in zip(before, after):
        assert a.id == b.id
        assert a.samples == b.samples
        assert a.gt_box == b.gt_box
        assert a.expert == b.expert
        assert a.uq is not None
        assert set(a.uq) == {"ta", "ie", "cd", "com"}
        assert a.mlg in b.samples  # materialized selection


def test_score_is_idempotent(tmp_path, mixed_file):
    first = scored(tmp_path, mixed_file, "first.jsonl")
    second = tmp_path / "second.jsonl"
    assert run("--seed", 3, "score", "-i", first, "-o", second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_score_rescores_a_file_in_place(tmp_path):
    """The output and its sidecar replace the input's only after the last of its three chunks has been read."""
    data, elsewhere = tmp_path / "data.jsonl", tmp_path / "elsewhere.jsonl"
    assert run("synth", "--out", data, "--n-records", 2 * SCORE_CHUNK + 1) == 0
    assert run("score", "-i", data, "-o", elsewhere) == 0
    assert run("score", "-i", data, "-o", tmp_path / "." / "data.jsonl") == 0
    assert data.read_bytes() == elsewhere.read_bytes()
    assert Path(sidecar_path(data)).read_bytes() == Path(sidecar_path(elsewhere)).read_bytes()


@pytest.mark.parametrize("n", [1, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1, 600])
def test_synth_and_score_sidecars_serve_what_their_lines_hold(tmp_path, monkeypatch, n):
    """Synth's output, then a copy with non-ASCII text, a lone surrogate and absent instructions, then its
    score output: each file's sidecar serves the chunks its lines parse to."""
    raw, text, out = tmp_path / "raw.jsonl", tmp_path / "text.jsonl", tmp_path / "scored.jsonl"
    assert run("--seed", 2, "synth", "--out", raw, "--n-records", n) == 0
    chunks = list(read_columns(raw))
    for chunk in chunks:
        for i, rec_id in enumerate(chunk.ids):
            chunk.instructions[i] = [None, "klick ‘Öffnen’ 点击 \U0001f600", "lone \ud800 surrogate"][i % 3]
            chunk.ids[i] = rec_id + "-é" if i % 5 == 0 else rec_id
    save_records(text, chunks)
    assert run("--seed", 3, "score", "-i", text, "-o", out) == 0
    for path in (raw, text, out):
        assert_same_columns(*served_and_parsed(path, monkeypatch))


def test_score_writes_the_same_lines_whatever_blocks_its_input_sidecar_holds(tmp_path, monkeypatch):
    """An input written in pieces of 100, so that its sidecar serves blocks of 100, 100, 56 and 44 records,
    scores to the bytes its lines alone score to."""
    raw, blocks, lines = tmp_path / "raw.jsonl", tmp_path / "blocks.jsonl", tmp_path / "lines.jsonl"
    assert run("--seed", 2, "synth", "--out", raw, "--n-records", 300) == 0
    save_records(blocks, pieces(read_columns(raw), 100))
    lines.write_bytes(blocks.read_bytes())
    assert [len(c) for c in served_and_parsed(blocks, monkeypatch)[0]] == [100, 100, 56, 44]
    with monkeypatch.context() as patch:
        patch.setattr(records, "_line_fields", no_lines)
        from_blocks = scored(tmp_path, blocks, "from_blocks.jsonl")
    assert from_blocks.read_bytes() == scored(tmp_path, lines, "from_lines.jsonl").read_bytes()


def test_calibrate_reads_a_scored_file_from_its_sidecar(tmp_path, monkeypatch, mixed_file):
    """No line is parsed, and the artifact is the one the lines give."""
    src = scored(tmp_path, mixed_file)
    with monkeypatch.context() as patch:
        patch.setattr(records, "_line_fields", no_lines)
        assert run("--seed", 3, "calibrate", "-i", src, "-o", tmp_path / "served.json", "-r", 1) == 0
    Path(sidecar_path(src)).unlink()
    assert run("--seed", 3, "calibrate", "-i", src, "-o", tmp_path / "parsed.json", "-r", 1) == 0
    assert (tmp_path / "served.json").read_bytes() == (tmp_path / "parsed.json").read_bytes()


def test_the_sidecar_module_loads_only_where_a_sidecar_is_met(tmp_path, mixed_file):
    """`import clickrisk` and a `sweep` over a file with no sidecar leave `clickrisk.sidecar` unloaded, which
    keeps a command's start-up flat; a `calibrate` that reads a sidecar loads it. In a fresh process."""
    plain = tmp_path / "plain.jsonl"
    plain.write_bytes(mixed_file.read_bytes())
    script = """if True:
        import sys, clickrisk, clickrisk.cli
        plain, served, out = sys.argv[1:]
        loaded = ["clickrisk.sidecar" in sys.modules]
        for argv in (["sweep", "-i", plain, "--out-dir", out], ["calibrate", "-i", served, "-o", out + ".json"]):
            assert clickrisk.cli.main(argv) == 0
            loaded.append("clickrisk.sidecar" in sys.modules)
        print("loaded:", *loaded)
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, plain, scored(tmp_path, mixed_file), tmp_path / "sweep"],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "loaded: False False True"


def test_score_k_cap_matches_pretruncated_file(tmp_path, mixed_file):
    capped = scored(tmp_path, mixed_file, "capped.jsonl", "--k-samples", 5)
    truncated_src = tmp_path / "trunc.jsonl"
    lines = []
    for line in mixed_file.read_text().splitlines():
        obj = json.loads(line)
        obj["samples"] = obj["samples"][:5]
        lines.append(json.dumps(obj))
    truncated_src.write_text("\n".join(lines) + "\n")
    truncated = scored(tmp_path, truncated_src, "trunc_scored.jsonl")
    for a, b in zip(load_records(capped), load_records(truncated)):
        assert a.uq == b.uq


def test_score_density_dump(tmp_path, mixed_file):
    out = tmp_path / "s.jsonl"
    dump = tmp_path / "maps"
    assert run("--seed", 3, "score", "-i", mixed_file, "-o", out, "--dump-density", dump) == 0
    assert len(list(dump.iterdir())) == 80
    # each file lists the occupied patches: the dense grid's nonzero cells, row-major, exactly
    for record in load_records(mixed_file):
        header, *rows = (dump / f"{record.id}.csv").read_text().splitlines()
        assert header == "row,col,value"
        dmap = build_density_map(record.samples[:10], (record.image_width, record.image_height), 14)
        r, c = np.nonzero(dmap.values)
        expected = list(zip(r.tolist(), c.tolist(), dmap.values[r, c].tolist()))
        assert [(int(a), int(b), float(v)) for a, b, v in (row.split(",") for row in rows)] == expected


def test_score_density_dump_refuses_colliding_ids(tmp_path, capsys):
    raw, src = tmp_path / "raw.jsonl", tmp_path / "colliding.jsonl"
    assert run("synth", "--out", raw, "--n-records", 310) == 0
    objs = [json.loads(line) for line in raw.read_text().splitlines()]
    objs[0]["id"], objs[300]["id"] = "a/b", "a_b"  # both sanitize to a_b.csv, in different chunks
    src.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    dump, out = tmp_path / "maps", tmp_path / "s.jsonl"
    capsys.readouterr()
    assert run("score", "-i", src, "-o", out, "--dump-density", dump) == 1
    assert capsys.readouterr().err == "error: --dump-density: ids 'a/b' and 'a_b' would both be written to a_b.csv\n"
    assert not dump.exists() and not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["colliding.jsonl", "raw.jsonl", "raw.jsonl.cols"]


@pytest.mark.parametrize("argv, empty, one", [
    (["score", "-o", "out.jsonl"], None, None),
    (["calibrate", "-o", "a.json", "-r", 1], "need at least 2 records to split, got 0",
     "need at least 2 records to split, got 1"),
    (["calibrate", "-o", "cal", "-r", 3], "need at least 2 records to split, got 0",
     "need at least 2 records to split, got 1"),
    (["evaluate", "-r", 2], "need at least 2 records to split, got 0", "need at least 2 records to split, got 1"),
    (["evaluate", "--variant", "pc", "-r", 2], "need at least 2 records to split, got 0",
     "{path}: record 'synth-00000' has no pc field"),
    (["cascade", "--tau", 0.5], "need at least one record", None),
    (["cascade", "--tau", -1, "--manifest", "m.jsonl"], "need at least one record", None),
    (["sweep", "--out-dir", "sweep", "-r", 2], "{path}: no records", "{path}: need at least 2 records to split, got 1"),
    (["sweep", "--out-dir", "sweep", "--variants", "pc", "-r", 2], "{path}: no records", None),
], ids=["score", "calibrate", "calibrate-r3", "evaluate", "evaluate-pc", "cascade", "cascade-manifest", "sweep",
        "sweep-pc"])
def test_an_empty_and_a_one_record_file_give_the_same_errors(tmp_path, monkeypatch, capsys, argv, empty, one):
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--out", "raw.jsonl", "--n-records", 1) == 0
    assert run("score", "-i", "raw.jsonl", "-o", "one.jsonl") == 0
    Path("empty.jsonl").write_text("\n\n")
    for path, message in (("empty.jsonl", empty), ("one.jsonl", one)):
        capsys.readouterr()
        command, *rest = argv
        code = run(command, "-i", path, *rest)
        err = capsys.readouterr().err
        if message is None:
            assert code == 0 and not err.startswith("error")
        else:
            assert (code, err) == (1, f"error: {message.format(path=path)}\n")


def test_score_missing_input_is_operational_error(tmp_path, capsys):
    assert run("score", "-i", tmp_path / "nope.jsonl", "-o", tmp_path / "x.jsonl") == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["score", "--beta", "nan"], "beta must lie in [0, 1), got nan"),
    (["score", "--weights", "nan,0.5,0.5"], "weights must be three non-negative reals, got (nan, 0.5, 0.5)"),
    (["synth", "--dispersion", "nan"], "dispersion must be positive and finite, got nan"),
], ids=["score-beta", "score-weights", "synth-dispersion"])
def test_a_nan_setting_fails_before_anything_is_written(tmp_path, mixed_file, capsys, argv, message):
    out = tmp_path / "out.jsonl"
    command, *flags = argv
    source = ["-i", mixed_file] if command == "score" else []
    capsys.readouterr()
    assert run(command, *source, "-o", out, *flags) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def usage_error(capsys, *argv) -> str:
    """The last stderr line of argparse's usage error for `argv`, which must exit 2."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as caught:
        run(*argv)
    assert caught.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err.splitlines()[-1]


@pytest.mark.parametrize("weights", ["0.5,0.5", "a,b,c"], ids=["two-weights", "non-numeric"])
def test_a_malformed_weights_flag_is_an_error(tmp_path, mixed_file, capsys, weights):
    out = tmp_path / "out.jsonl"
    assert usage_error(capsys, "score", "-i", mixed_file, "-o", out, "--weights", weights) == (
        f"clickrisk score: error: argument --weights: must be {WEIGHTS_KIND}, got {weights!r}")
    assert not out.exists()


# --- calibrate ------------------------------------------------------------------

def test_calibrate_all_correct_accepts_max_uncertainty(tmp_path, easy_file):
    src = scored(tmp_path, easy_file)
    artifact = tmp_path / "artifact.json"
    assert run("--seed", 3, "calibrate", "-i", src, "-o", artifact,
               "--alpha", 0.1, "--ratio", 0.5, "-r", 1) == 0
    obj = json.loads(artifact.read_text())
    assert obj["feasible"] is True
    records = load_records(src)
    cal, _ = split(records, SplitPlan(calibration_ratio=0.5, seed=3, repetitions=1), 0)
    assert obj["threshold"] == max(r.uq["com"] for r in cal)
    assert obj["trace"][-1][3] <= 0.1


def test_calibrate_infeasible_alpha_exits_zero(tmp_path, easy_file, capsys):
    src = scored(tmp_path, easy_file)
    artifact = tmp_path / "artifact.json"
    assert run("--seed", 3, "calibrate", "-i", src, "-o", artifact,
               "--alpha", 0.01, "--ratio", 0.5, "-r", 1) == 0
    out = capsys.readouterr().out
    assert "infeasible" in out
    obj = json.loads(artifact.read_text())
    assert obj["feasible"] is False
    assert obj["threshold"] is None
    assert obj["trace"]  # trace still present for inspection


def test_calibrate_infeasible_on_every_split_writes_a_null_test_fdr(tmp_path, mixed_file, capsys):
    src = scored(tmp_path, mixed_file)
    out_dir = tmp_path / "cal"
    capsys.readouterr()
    assert run("calibrate", "-i", src, "-o", out_dir, "-r", 3, "--alpha", 0.001) == 0
    assert capsys.readouterr() == (
        f"infeasible on all 3 splits: no threshold satisfies alpha=0.001 at delta=0.05 -> {out_dir}\n", "")
    summary = json.loads((out_dir / "summary.json").read_text())
    assert (summary["infeasible_splits"], summary["test_fdr"]) == (3, None)


def test_calibrate_repeated_splits_writes_artifacts_and_summary(tmp_path, mixed_file):
    src = scored(tmp_path, mixed_file)
    out_dir = tmp_path / "cal"
    assert run("--seed", 3, "calibrate", "-i", src, "-o", out_dir,
               "--alpha", 0.3, "--ratio", 0.5, "-r", 10) == 0
    artifacts = sorted(p.name for p in out_dir.glob("calibration_r*.json"))
    assert artifacts == [f"calibration_r{i:03d}.json" for i in range(10)]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["repetitions"] == 10
    assert summary["test_fdr"] is None or set(summary["test_fdr"]) == {"mean", "std"}


def test_a_malformed_record_is_reported_before_a_missing_score(tmp_path, capsys):
    raw, src = tmp_path / "raw.jsonl", tmp_path / "scored.jsonl"
    assert run("synth", "--out", raw, "--n-records", 300) == 0
    assert run("score", "-i", raw, "-o", src) == 0
    objs = [json.loads(line) for line in src.read_text().splitlines()]
    del objs[2]["uq"]  # in the first chunk
    objs[289]["gt_box"] = [5.0, 5.0, 1.0, 1.0]  # in the second
    src.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    capsys.readouterr()
    assert run("calibrate", "-i", src, "-o", tmp_path / "a.json", "-r", 1) == 1
    assert capsys.readouterr().err == (
        f"error: {src}: line 290: gt_box: requires x_min < x_max and y_min < y_max, got (5.0, 5.0, 1.0, 1.0)\n")
    objs[289]["gt_box"] = objs[288]["gt_box"]
    src.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    assert run("calibrate", "-i", src, "-o", tmp_path / "a.json", "-r", 1) == 1
    assert capsys.readouterr().err == f"error: {src}: record 'synth-00002' has no uq fields; run scoring first\n"


# --- evaluate -------------------------------------------------------------------

def test_evaluate_reports_and_curves(tmp_path, mixed_file):
    src = scored(tmp_path, mixed_file)
    report = tmp_path / "report.json"
    roc = tmp_path / "roc.csv"
    arc = tmp_path / "arc.csv"
    assert run("--seed", 3, "evaluate", "-i", src, "--alpha", 0.3, "--ratio", 0.5,
               "-r", 5, "--report", report, "--roc-csv", roc, "--arc-csv", arc) == 0
    obj = json.loads(report.read_text())
    assert obj["repetitions"] == 5
    assert 0.0 <= obj["full_dataset"]["auroc"] <= 1.0
    assert obj["splits"]["auroc"]["mean"] > 0.5
    assert roc.read_text().splitlines()[0] == "fpr,tpr"
    assert arc.read_text().splitlines()[0] == "rejection_rate,accuracy"
    assert len(arc.read_text().splitlines()) == 81  # header + one row per record


def test_evaluate_pc_variant_without_pc_field(tmp_path, mixed_file, capsys):
    src = scored(tmp_path, mixed_file)
    assert run("--seed", 3, "evaluate", "-i", src, "--variant", "pc",
               "--alpha", 0.3, "--ratio", 0.5, "-r", 2) == 1
    assert "pc" in capsys.readouterr().err


def test_evaluate_on_an_all_correct_file_names_the_split(tmp_path, easy_file, capsys):
    src = scored(tmp_path, easy_file)
    capsys.readouterr()
    assert run("evaluate", "-i", src, "-r", 2) == 1
    assert capsys.readouterr() == (
        "", "error: repetition 0: auroc needs at least one admissible and one inadmissible record\n")


# --- cascade --------------------------------------------------------------------

def test_cascade_with_artifact_manifest_and_csv(tmp_path, mixed_file):
    src = scored(tmp_path, mixed_file)
    artifact = tmp_path / "artifact.json"
    assert run("--seed", 3, "calibrate", "-i", src, "-o", artifact,
               "--alpha", 0.3, "--ratio", 0.5, "-r", 1) == 0
    manifest = tmp_path / "deferred.jsonl"
    table = tmp_path / "rows.csv"
    report = tmp_path / "cascade.json"
    assert run("--seed", 3, "cascade", "-i", src, "--artifact", artifact,
               "--manifest", manifest, "--csv", table, "--report", report) == 0
    obj = json.loads(report.read_text())
    tau = obj["threshold"]
    records = load_records(src)
    expected = [r.id for r in records if r.uq["com"] > tau]
    got = [json.loads(line)["id"] for line in manifest.read_text().splitlines()]
    assert got == expected
    assert obj["n_deferred"] == len(expected)
    lines = table.read_text().splitlines()
    assert lines[0].startswith("label,alpha,variant")
    assert len(lines) == 2
    # appending a second row keeps the single header
    assert run("--seed", 3, "cascade", "-i", src, "--tau", 1.0, "--csv", table) == 0
    assert len(table.read_text().splitlines()) == 3


def test_cascade_csv_refuses_a_foreign_header(tmp_path, mixed_file, capsys):
    src = scored(tmp_path, mixed_file)
    table = tmp_path / "rows.csv"
    table.write_text("label,alpha,threshold\nold,0.1,0.5\n")
    assert run("--seed", 3, "cascade", "-i", src, "--tau", 0.5, "--csv", table) == 1
    err = capsys.readouterr().err
    assert str(table) in err and "'label,alpha,threshold'" in err and "'label,alpha,variant," in err
    assert table.read_text() == "label,alpha,threshold\nold,0.1,0.5\n"
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")) == []


@pytest.mark.parametrize("table", [b"foo,bar\n", b"label,\xff\n"], ids=["foreign-header", "not-utf8"])
def test_cascade_checks_its_csv_table_before_writing_any_output(tmp_path, mixed_file, capsys, table):
    src = scored(tmp_path, mixed_file)
    path = tmp_path / "t.csv"
    path.write_bytes(table)
    capsys.readouterr()
    assert run("--seed", 3, "cascade", "-i", src, "--tau", 0.5, "--report", tmp_path / "r.json",
               "--manifest", tmp_path / "m.jsonl", "--csv", path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --csv {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.jsonl").exists()
    assert path.read_bytes() == table


def test_cascade_csv_gives_an_empty_file_a_header(tmp_path, mixed_file):
    src = scored(tmp_path, mixed_file)
    table = tmp_path / "rows.csv"
    table.write_text("")
    assert run("--seed", 3, "cascade", "-i", src, "--tau", 0.5, "--csv", table) == 0
    lines = table.read_text().splitlines()
    assert lines[0].startswith("label,alpha,variant") and len(lines) == 2


@pytest.mark.parametrize("tail", ["", "\nold,0.1,com,0.5,0.9,0.8,0.7,0.2,80,64,16"], ids=["header", "row"])
def test_cascade_csv_starts_its_row_on_a_line_of_its_own(tmp_path, mixed_file, tail):
    """A table whose last line lacks its newline keeps that line whole."""
    src = scored(tmp_path, mixed_file)
    table = tmp_path / "rows.csv"
    existing = ",".join(cli.CASCADE_CSV_HEADER) + tail
    table.write_text(existing)
    assert run("--seed", 3, "cascade", "-i", src, "--tau", 0.5, "--csv", table, "--label", "new") == 0
    *kept, row, end = table.read_text().split("\n")
    assert kept == existing.split("\n") and row.startswith("new,,com,0.5,") and end == ""


@pytest.mark.parametrize("command, first, second", [
    ("evaluate", "--report", "--roc-csv"),
    ("evaluate", "--report", "--arc-csv"),
    ("evaluate", "--roc-csv", "--arc-csv"),
    ("cascade", "--report", "--manifest"),
    ("cascade", "--report", "--csv"),
    ("cascade", "--manifest", "--csv"),
    ("calibrate", "--input", "--out"),
    ("evaluate", "--input", "--roc-csv"),
    ("cascade", "--input", "--manifest"),
    ("cascade", "--artifact", "--report"),
])
def test_two_output_flags_naming_one_file_fail_before_any_work(tmp_path, mixed_file, capsys, command, first, second):
    """No output may replace another output or a file the command reads."""
    src = scored(tmp_path, mixed_file)
    (tmp_path / "link").symlink_to(tmp_path)
    out = src if first == "--input" else tmp_path / "x.out"
    alias = tmp_path / "link" / out.name  # one file, two spellings
    if first == "--artifact":
        out.write_text(json.dumps({"feasible": True, "threshold": 0.5}))
    before = out.read_bytes() if out.exists() else None
    source = [] if first == "--input" else ["-i", src]
    threshold = ["--tau", 0.5] if command == "cascade" and first != "--artifact" else []
    capsys.readouterr()
    assert run(command, *source, *threshold, first, out, second, alias) == 1
    assert capsys.readouterr() == ("", f"error: {first} and {second} name the same file: {alias}\n")
    assert (out.read_bytes() if out.exists() else None) == before


@pytest.mark.parametrize("command, first, second", [
    ("cascade", "--input", "--manifest"),
    ("score", "--input", "--output"),
], ids=["cascade-manifest-on-the-input-sidecar", "score-input-on-the-output-sidecar"])
def test_a_sidecar_counts_as_a_file_the_command_reads_or_writes(tmp_path, mixed_file, capsys, command, first,
                                                                 second):
    """`cascade -i s.jsonl --manifest s.jsonl.cols` would replace what it reads; `score -i b.jsonl.cols -o b.jsonl`
    would write the sidecar of its output over its input."""
    src = scored(tmp_path, mixed_file, "s.jsonl")
    cols = Path(sidecar_path(src))
    before = cols.read_bytes()
    argv = ["cascade", "-i", src, "--tau", 0.5, "--manifest", cols] if command == "cascade" else [
        "score", "-i", cols, "-o", src]
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", f"error: {first} and {second} name the same file: {cols}\n")
    assert cols.read_bytes() == before


def test_cascade_requires_threshold_source(tmp_path, mixed_file, capsys):
    src = scored(tmp_path, mixed_file)
    assert run("cascade", "-i", src) == 1
    assert "--tau or --artifact" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [
    ("sweep", "ranking.csv"),
    ("sweep", "risk.csv"),
    ("calibrate", "calibration_r001.json"),
    ("calibrate", "summary.json"),
])
def test_a_file_written_into_a_directory_may_not_replace_an_input(tmp_path, mixed_file, capsys, command, name):
    out_dir = tmp_path / "d"
    out_dir.mkdir()
    src = out_dir / name
    src.write_bytes((scored(tmp_path, mixed_file) if command == "calibrate" else mixed_file).read_bytes())
    before = src.read_bytes()
    if command == "sweep":
        argv, flags = ["sweep", "-i", src, "--out-dir", out_dir], "--inputs and --out-dir"
    else:
        argv, flags = ["calibrate", "-i", src, "-o", out_dir, "-r", 2], "--input and --out"
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", f"error: {flags} name the same file: {src}\n")
    assert src.read_bytes() == before
    assert [p.name for p in out_dir.iterdir()] == [name]


@pytest.mark.parametrize("clashing", ["--input", "--output", "both"])
def test_a_density_dump_may_not_replace_the_input_or_the_output(tmp_path, mixed_file, capsys, clashing):
    """The first record's dump would land on the named file; nothing is written."""
    dump = tmp_path / "dd"
    dump.mkdir()
    target = dump / f"{load_records(mixed_file)[0].id}.csv"
    src, out = mixed_file, tmp_path / "s2.jsonl"
    if clashing != "--output":
        src = target
        src.write_bytes(mixed_file.read_bytes())
    if clashing != "--input":
        out = target
    before = target.read_bytes() if target.exists() else None
    capsys.readouterr()
    assert run("score", "-i", src, "-o", out, "--dump-density", dump) == 1
    flag = "--output" if clashing == "--output" else "--input"
    assert capsys.readouterr() == ("", f"error: {flag} and --dump-density name the same file: {target}\n")
    assert (target.read_bytes() if target.exists() else None) == before
    assert [p.name for p in dump.iterdir()] == ([] if before is None else [target.name])
    assert not (tmp_path / "s2.jsonl").exists()


def test_cascade_takes_one_threshold_source(tmp_path, mixed_file, capsys):
    """--tau with --artifact fails before the input is read, whether or not the artifact could be used."""
    src = scored(tmp_path, mixed_file)
    artifact, manifest = tmp_path / "artifact.json", tmp_path / "m.jsonl"
    artifact.write_text(json.dumps({"feasible": True, "threshold": 0.5}))
    for path in (artifact, tmp_path / "nonexistent.json"):
        for source in (src, tmp_path / "missing.jsonl"):
            capsys.readouterr()
            assert run("cascade", "-i", source, "--tau", 0.3, "--artifact", path, "--manifest", manifest) == 1
            assert capsys.readouterr() == ("", "error: --tau and --artifact are mutually exclusive\n")
    assert not manifest.exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_cascade_rejects_a_nonfinite_tau(tmp_path, mixed_file, capsys, tau):
    src = scored(tmp_path, mixed_file)
    report = tmp_path / "cascade.json"
    assert run("cascade", "-i", src, f"--tau={tau}", "--report", report) == 1
    assert capsys.readouterr().err == f"error: --tau must be finite, got {float(tau)!r}\n"
    assert not report.exists()


def test_nonfinite_uq_value_fails_calibrate_naming_the_line(tmp_path, easy_file, capsys):
    src = scored(tmp_path, easy_file)
    lines = src.read_text().splitlines()
    record = json.loads(lines[4])
    record["uq"]["com"] = math.nan
    lines[4] = json.dumps(record)
    src.write_text("\n".join(lines) + "\n")
    artifact = tmp_path / "artifact.json"
    assert run("--seed", 1, "calibrate", "-i", src, "-o", artifact, "-r", 1) == 1
    assert capsys.readouterr().err == f"error: {src}: line 5: uq.com: must be finite, got nan\n"
    assert not artifact.exists()


@pytest.mark.parametrize("command, output", [("score", "-o"), ("calibrate", "-o")])
def test_a_line_that_is_not_utf8_fails_naming_the_file_the_line_and_the_byte(tmp_path, easy_file, capsys,
                                                                               command, output):
    src = scored(tmp_path, easy_file)
    lines = src.read_bytes().split(b"\n")
    column = lines[2].index(b'"id":"') + len(b'"id":"')
    lines[2] = lines[2][:column] + b"\xff" + lines[2][column:]
    src.write_bytes(b"\n".join(lines))
    out = tmp_path / "out"
    assert run(command, "-i", src, output, out) == 1
    assert capsys.readouterr().err == f"error: {src}: line 3: not UTF-8 (byte 0xff at column {column + 1})\n"
    assert not out.exists()


@pytest.mark.parametrize("what, argv", [
    ("config file", ["--config", "{path}", "cascade", "-i", "{src}", "--tau", 0.5]),
    ("artifact", ["cascade", "-i", "{src}", "--artifact", "{path}"]),
    ("--csv", ["cascade", "-i", "{src}", "--tau", 0.5, "--csv", "{path}"]),
], ids=["config", "artifact", "csv"])
def test_a_file_the_cli_reads_that_is_not_utf8_fails_naming_the_file_and_the_byte(tmp_path, mixed_file, capsys,
                                                                                   what, argv):
    src, path = scored(tmp_path, mixed_file), tmp_path / "in.txt"
    path.write_bytes(b'{"alpha": \xff}\n')
    capsys.readouterr()
    assert run(*(str(a).format(path=path, src=src) for a in argv)) == 1
    assert capsys.readouterr().err == f"error: {what} {path}: not UTF-8 (byte 0xff at position 10)\n"
    assert path.read_bytes() == b'{"alpha": \xff}\n'


DEEP = "[" * 100_000 + "]" * 100_000  # nested far past the recursion limit


@pytest.mark.parametrize("what, argv", [
    ("{path}: line 2", ["score", "-i", "{path}", "-o", "{dir}/out.jsonl"]),
    ("config file {path}", ["--config", "{path}", "score", "-i", "{src}", "-o", "{dir}/out.jsonl"]),
    ("artifact {path}", ["cascade", "-i", "{src}", "--artifact", "{path}", "--report", "{dir}/out.jsonl"]),
], ids=["record-line", "config", "artifact"])
def test_json_nested_too_deeply_fails_naming_the_file(tmp_path, mixed_file, capsys, what, argv):
    """One `error:` line, not a RecursionError traceback, and nothing written."""
    src, path = scored(tmp_path, mixed_file, "s.jsonl"), tmp_path / "deep.json"
    path.write_text(mixed_file.read_text().partition("\n")[0] + "\n" + DEEP + "\n" if "line" in what else DEEP)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert run(*(str(a).format(path=path, src=src, dir=tmp_path) for a in argv)) == 1
    assert capsys.readouterr() == ("", f"error: {what.format(path=path)}: invalid JSON: nested too deeply\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_bound_sidecar_block_nested_too_deeply_is_malformed(tmp_path, mixed_file, capsys):
    src = scored(tmp_path, mixed_file, "s.jsonl")
    bind(src, DEEP.encode() + b"\n", 80)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert run("score", "-i", src, "-o", tmp_path / "out.jsonl") == 1
    assert capsys.readouterr() == ("", f"error: {src}: {sidecar_path(src)}: a malformed block\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("flag, argv", [
    ("--dump-density", ["score", "-i", "{src}", "-o", "{dir}/out.jsonl", "--dump-density", "{src}"]),
    ("--out", ["calibrate", "-i", "{src}", "-r", 3, "--out", "{dir}/file"]),
    ("--out-dir", ["sweep", "-i", "{src}", "--out-dir", "{dir}/file"]),
], ids=["score", "calibrate", "sweep"])
def test_a_directory_flag_naming_a_file_fails_before_any_work(tmp_path, mixed_file, monkeypatch, capsys, flag, argv):
    """The command reads no record and writes nothing: `score -i s.jsonl --dump-density s.jsonl` left its output."""
    src = scored(tmp_path, mixed_file, "s.jsonl")
    (tmp_path / "file").write_text("x")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(cli, "read_columns", lambda path: pytest.fail(f"read {path}"))
    argv = [str(a).format(src=src, dir=tmp_path) for a in argv]
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {flag} {argv[argv.index(flag) + 1]}: not a directory\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv, flag, directory", [
    (["score", "-i", "{src}", "-o", "d"], "--output", "d"),
    (["score", "-i", "{src}", "-o", "new.jsonl"], "--output", "new.jsonl.cols"),
    (["score", "-i", "{src}", "-o", "d", "--dump-density", "dumps"], "--output", "d"),
    (["calibrate", "-i", "{src}", "-r", 1, "-o", "d"], "--out", "d"),
    (["calibrate", "-i", "{src}", "-r", 3, "-o", "cal"], "--out", "cal/calibration_r002.json"),
    (["calibrate", "-i", "{src}", "-r", 3, "-o", "cal"], "--out", "cal/summary.json"),
    (["evaluate", "-i", "{src}", "-r", 2, "--report", "d", "--roc-csv", "roc.csv"], "--report", "d"),
    (["evaluate", "-i", "{src}", "-r", 2, "--report", "r.json", "--roc-csv", "d"], "--roc-csv", "d"),
    (["evaluate", "-i", "{src}", "-r", 2, "--report", "r.json", "--roc-csv", "roc.csv", "--arc-csv", "d"],
     "--arc-csv", "d"),
    (["cascade", "-i", "{src}", "--tau", 0.5, "--report", "d"], "--report", "d"),
    (["cascade", "-i", "{src}", "--tau", 0.5, "--report", "c.json", "--manifest", "d"], "--manifest", "d"),
    (["cascade", "-i", "{src}", "--tau", 0.5, "--report", "c.json", "--csv", "d"], "--csv", "d"),
    (["sweep", "-i", "{src}", "-r", 2, "--out-dir", "sweep"], "--out-dir", "sweep/ranking.csv"),
    (["sweep", "-i", "{src}", "-r", 2, "--out-dir", "sweep"], "--out-dir", "sweep/risk.csv"),
    (["synth", "--out", "d"], "--out", "d"),
    (["synth", "--out", "new.jsonl"], "--out", "new.jsonl.cols"),
    (["guarantee", "--trials", 2, "--out-csv", "d"], "--out-csv", "d"),
], ids=["score", "score-sidecar", "score-with-dump", "calibrate", "calibrate-artifact", "calibrate-summary",
        "evaluate-report", "evaluate-roc", "evaluate-arc", "cascade-report", "cascade-manifest", "cascade-csv",
        "sweep-ranking", "sweep-risk", "synth", "synth-sidecar", "guarantee"])
def test_a_file_output_naming_a_directory_fails_before_any_work(tmp_path, mixed_file, monkeypatch, capsys, argv, flag,
                                                               directory):
    """`evaluate --arc-csv d` wrote its --report first, and `score -o d` left `d.cols` behind."""
    src = scored(tmp_path, mixed_file, "s.jsonl")
    monkeypatch.chdir(tmp_path)
    Path(directory).mkdir(parents=True)
    before = {str(p): p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    for name in ("read_columns", "generate_chunks", "run_guarantee_trials"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    capsys.readouterr()
    assert run(*[str(a).format(src=src) for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {flag} {directory}: is a directory\n")
    assert {str(p): p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("directory", ["out.jsonl", "out.jsonl.cols"])
def test_record_writer_refuses_a_directory_before_it_writes(tmp_path, directory):
    (tmp_path / directory).mkdir()
    with pytest.raises(IsADirectoryError, match=directory):
        with records.staged_files() as stage, records.record_writer(stage, tmp_path / "out.jsonl"):
            pytest.fail("the writer was handed out")
    assert [p.name for p in tmp_path.iterdir()] == [directory]


def test_cascade_rejects_infeasible_artifact(tmp_path, easy_file, capsys):
    src = scored(tmp_path, easy_file)
    artifact = tmp_path / "bad.json"
    assert run("--seed", 3, "calibrate", "-i", src, "-o", artifact,
               "--alpha", 0.01, "--ratio", 0.5, "-r", 1) == 0
    assert run("--seed", 3, "cascade", "-i", src, "--artifact", artifact) == 1
    assert "infeasible" in capsys.readouterr().err


def test_cascade_names_every_deferred_record_without_an_expert_across_chunks(tmp_path, capsys):
    """The manifest and the missing-expert error list the deferred records of every chunk, in file order."""
    records = [GroundingRecord(id=f"r{i}", image_width=100, image_height=80, gt_box=(10.0, 10.0, 30.0, 30.0),
                               samples=((12.0, 15.0),), instruction=f"click {i}" if i % 3 else None,
                               expert=(20.0, 20.0) if i % 7 else None,
                               uq=dict.fromkeys(("ta", "ie", "cd", "com"), (i % 10) / 10))
               for i in range(2 * SCORE_CHUNK + 9)]
    src, manifest = tmp_path / "scored.jsonl", tmp_path / "deferred.jsonl"
    src.write_text("".join(line + "\n" for line in record_lines(records)))
    deferred = [r for r in records if r.uq["com"] > 0.75]
    assert run("cascade", "-i", src, "--tau", 0.75, "--manifest", manifest) == 1
    missing = [r.id for r in deferred if r.expert is None]
    assert capsys.readouterr().err == f"error: deferred records lack expert predictions: {missing}\n"
    assert not manifest.exists()
    src.write_text("".join(line + "\n" for line in record_lines(r for r in records if r.id not in missing)))
    assert run("cascade", "-i", src, "--tau", 0.75, "--manifest", manifest) == 0
    assert manifest.read_text() == "".join(
        json.dumps({"id": r.id} | ({"instruction": r.instruction} if r.instruction else {}), separators=(",", ":"))
        + "\n" for r in deferred if r.expert is not None)


# --- sweep ----------------------------------------------------------------------

def test_sweep_produces_both_tables(tmp_path, mixed_file):
    src = scored(tmp_path, mixed_file)
    out_dir = tmp_path / "sweep"
    assert run("--seed", 3, "sweep", "-i", src, "--out-dir", out_dir,
               "--alphas", "0.2,0.3", "--variants", "com,cd",
               "--weight-presets", "original,v2", "--k-values", "5,10",
               "--ratio", 0.5, "-r", 3) == 0
    ranking = (out_dir / "ranking.csv").read_text().splitlines()
    assert ranking[0] == "input,variant,weights,k,auroc,auarc,accuracy"
    assert len(ranking) == 1 + 2 * 2 * 2  # k x presets x variants
    risk = (out_dir / "risk.csv").read_text().splitlines()
    assert len(risk) == 1 + 2 * 2 * 2 * 2  # ... x alphas
    first = ranking[1].split(",")
    assert first[0] == "scored.jsonl"
    assert 0.0 <= float(first[4]) <= 1.0


def test_sweep_rows_equal_one_combination_sweeps(tmp_path, mixed_file):
    # ta/ie/cd rows are computed once per k and repeated under each preset;
    # every row must still be what sweeping that one combination gives
    src = scored(tmp_path, mixed_file)
    common = ["--alphas", "0.2,0.3", "--ratio", 0.5, "-r", 3]

    def sweep(out, variants, presets, k_values):
        assert run("--seed", 3, "sweep", "-i", src, "--out-dir", tmp_path / out, "--variants", variants,
                   "--weight-presets", presets, "--k-values", k_values, *common) == 0
        return [(tmp_path / out / f).read_text().splitlines()[1:] for f in ("ranking.csv", "risk.csv")]

    ranking, risk = sweep("all", "ta,com,cd,ie", "v2,original,v2", "10,5")
    singles = [
        sweep(f"one-{i}", variant, preset, k)
        for i, (k, preset, variant) in enumerate(
            (k, p, v) for k in ("10", "5") for p in ("v2", "original", "v2") for v in ("ta", "com", "cd", "ie"))
    ]
    assert ranking == [row for one_ranking, _ in singles for row in one_ranking]
    assert risk == [row for _, one_risk in singles for row in one_risk]
    ta_rows = [row.split(",") for row in ranking if row.split(",")[1] == "ta"]
    assert ta_rows[0][2:] != ta_rows[1][2:] and ta_rows[0][4:] == ta_rows[1][4:]


def test_sweep_pc_rows_empty_without_pc(tmp_path, mixed_file):
    src = scored(tmp_path, mixed_file)
    out_dir = tmp_path / "sweep"
    assert run("--seed", 3, "sweep", "-i", src, "--out-dir", out_dir,
               "--alphas", "0.3", "--variants", "pc", "--ratio", 0.5, "-r", 2) == 0
    ranking = (out_dir / "ranking.csv").read_text().splitlines()
    assert len(ranking) == 2
    row = ranking[1].split(",")
    assert row[1] == "pc" and row[4] == "" and row[5] == ""


def test_a_file_where_some_records_lack_pc(tmp_path, mixed_file, capsys):
    """sweep leaves the pc cells empty, and evaluate --variant pc names the first record without one."""
    objs = [json.loads(line) for line in scored(tmp_path, mixed_file).read_text().splitlines()]
    for i, obj in enumerate(objs):
        if i not in (30, 50):
            obj["pc"] = (i % 10) / 10
    src = tmp_path / "some_pc.jsonl"
    src.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    assert run("sweep", "-i", src, "--out-dir", tmp_path / "sweep", "--variants", "com,pc", "-r", 2) == 0
    com, pc = (row.split(",") for row in (tmp_path / "sweep" / "ranking.csv").read_text().splitlines()[1:])
    assert com[1] == "com" and "" not in com
    assert pc[1:6] == ["pc", "", "", "", ""]
    [pc_risk] = [row.split(",") for row in (tmp_path / "sweep" / "risk.csv").read_text().splitlines() if ",pc," in row]
    assert pc_risk[6:] == [""] * 11
    capsys.readouterr()
    assert run("evaluate", "-i", src, "--variant", "pc", "-r", 2) == 1
    assert capsys.readouterr().err == f"error: {src}: record {objs[30]['id']!r} has no pc field\n"


def test_sweep_names_the_input_that_fails(tmp_path, monkeypatch, mixed_file, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--out", "one.jsonl", "--n-records", 1) == 0
    assert run("synth", "--out", "easy.jsonl", "--n-records", 20, "--easy-fraction", 1.0) == 0
    for second, message in (("one.jsonl", "need at least 2 records to split, got 1"),
                            ("easy.jsonl", "auroc needs at least one admissible and one inadmissible record")):
        capsys.readouterr()
        assert run("sweep", "-i", mixed_file, second, "--out-dir", "sweep", "-r", 2) == 1
        assert capsys.readouterr().err == f"error: {second}: {message}\n"
    assert not Path("sweep").exists()


def test_sweep_draws_each_split_once_per_input(tmp_path, monkeypatch, mixed_file):
    """-r splits per input, however many combinations share them; none when no column is present."""
    src = scored(tmp_path, mixed_file)
    drawn, draw = [], engine.split_indices

    def counted(n, plan, rep):
        drawn.append((n, rep))
        return draw(n, plan, rep)

    monkeypatch.setattr(engine, "split_indices", counted)
    assert run("sweep", "-i", src, mixed_file, "--out-dir", tmp_path / "all", "--variants", "com,ta,ie,cd,pc",
               "--weight-presets", "original,v1,v2", "--k-values", "5,10", "--alphas", "0.2,0.3", "-r", 3) == 0
    assert drawn == [(80, rep) for rep in range(3)] * 2
    drawn.clear()
    assert run("sweep", "-i", mixed_file, "--out-dir", tmp_path / "pc", "--variants", "pc", "-r", 3) == 0
    assert drawn == []
    ranking = (tmp_path / "pc" / "ranking.csv").read_text().splitlines()
    assert ranking[1].split(",")[1:6] == ["pc", "", "", "", ""]


def test_evaluate_and_sweep_sort_each_column_once_per_input(tmp_path, monkeypatch, mixed_file):
    """-r 20 sorts each uncertainty column once per input, however many splits; no split and no rank metric sorts.

    AUROC, AUARC and the ROC/ARC curves come off the engine's one sort:
    neither a split nor `metrics.Ranking.of` sorts.
    """
    src = scored(tmp_path, mixed_file)
    sorted_sizes, sort = [], engine.tie_groups

    def counted(u):
        sorted_sizes.append(u.size)
        return sort(u)

    def forbidden(*args):
        raise AssertionError("a split or a rank metric sorted a column")

    monkeypatch.setattr(engine, "tie_groups", counted)
    monkeypatch.setattr(risk, "threshold_candidates", forbidden)
    monkeypatch.setattr(metrics, "tie_groups", forbidden)  # `Ranking.of`'s sort
    assert run("evaluate", "-i", src, "--ratio", 0.5, "-r", 20,
               "--roc-csv", tmp_path / "roc.csv", "--arc-csv", tmp_path / "arc.csv") == 0
    assert sorted_sizes == [80]
    assert len((tmp_path / "arc.csv").read_text().splitlines()) == 81  # the header and a row per record
    sorted_sizes.clear()
    # per input: com under two presets, and ta
    assert run("sweep", "-i", src, mixed_file, "--out-dir", tmp_path / "sweep", "--variants", "com,ta",
               "--weight-presets", "original,v1", "--k-values", 5, "--alphas", "0.3,0.5", "-r", 20) == 0
    assert sorted_sizes == [80] * 6


def test_sweep_and_evaluate_name_the_repetition_without_admissible_test_records(tmp_path, monkeypatch, capsys):
    """At --seed 0 --ratio 0.5 the test side of repetition 0 holds exactly the records made inadmissible."""
    monkeypatch.chdir(tmp_path)
    _, test = split_indices(12, SplitPlan(calibration_ratio=0.5, seed=0), 0)
    records = [
        GroundingRecord(id=f"r{i}", image_width=100, image_height=100, gt_box=(40.0, 40.0, 60.0, 60.0),
                        samples=((50.0, 50.0), (52.0, 48.0)), mlg=(5.0, 5.0) if i in test else (50.0, 50.0),
                        uq=dict.fromkeys(UQ_KEYS, 0.5))
        for i in range(12)
    ]
    Path("s.jsonl").write_text("".join(line + "\n" for line in record_lines(records)))
    assert run("--seed", 0, "sweep", "-i", "s.jsonl", "--out-dir", "sweep", "--alphas", 0.5, "--variants", "com",
               "-r", 1, "--ratio", 0.5) == 1
    assert capsys.readouterr().err == "error: s.jsonl: repetition 0: power undefined without admissible records\n"
    assert run("--seed", 0, "evaluate", "-i", "s.jsonl", "-r", 1, "--ratio", 0.5) == 1
    assert capsys.readouterr().err == (
        "error: repetition 0: auroc needs at least one admissible and one inadmissible record\n")


def test_sweep_memory_stays_flat_in_the_repetitions(tmp_path, monkeypatch):
    """One split is held at a time: ten times the repetitions costs no more than a few kilobytes.

    Holding every repetition's index arrays until the input is done would
    add 45 x 2000 int64 indices, about 720 KB, between -r 5 and -r 50.
    """
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--out", "synth.jsonl", "--n-records", 2000) == 0
    argv = ["sweep", "-i", "synth.jsonl", "--out-dir", "sweep", "--variants", "com", "--weight-presets", "original",
            "--alphas", "0.3", "-r"]
    traced_peak(*argv, 5)  # first-use allocations (imports, caches) out of the way
    assert traced_peak(*argv, 50) - traced_peak(*argv, 5) < 64_000


def test_sweep_memory_stays_flat_in_the_sample_count(tmp_path, monkeypatch):
    """Each chunk is scored at every k as it is read, so no record's samples outlive its chunk.

    At K = 50 a record's samples are 100 floats; at k = 1 `uq._score`'s
    cache holds one row however many records are scored. Keeping the
    sample column to re-score it at each k costs about 2400 bytes per
    record; of the about 210 left, most is the reader's set of seen ids.
    """
    monkeypatch.chdir(tmp_path)
    small, large = 2 * SCORE_CHUNK, 20 * SCORE_CHUNK
    for n in (small, large):
        assert run("synth", "--out", f"{n}.jsonl", "--n-records", n, "--k-samples", 50) == 0
    argv = ["sweep", "--out-dir", "sweep", "--variants", "com", "--weight-presets", "original", "--alphas", "0.3",
            "-r", 2, "--k-values", 1, "-i"]
    traced_peak(*argv, f"{small}.jsonl")  # first-use allocations (imports, caches) out of the way
    small_peak, large_peak = traced_peak(*argv, f"{small}.jsonl"), traced_peak(*argv, f"{large}.jsonl")
    assert (large_peak - small_peak) / (large - small) < 512


@pytest.mark.parametrize("command", ["score", "sweep"])
def test_score_and_sweep_name_the_first_record_they_cannot_score(tmp_path, capsys, command):
    """The reader takes any positive image size, so the grid check fails later; the error names the file
    and the record. Both commands score a chunk as they read it, so the record at line 4 is reported
    before the malformed line 301, which is in the second chunk."""
    path = tmp_path / "huge.jsonl"
    assert run("synth", "--out", path, "--n-records", 300) == 0
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[3])
    record["image"] = {"w": 10**12, "h": 10**12}
    path.write_text("".join(lines[:3] + [json.dumps(record) + "\n"] + lines[4:]) + "{\n")
    argv = ["score", "-i", path, "-o", tmp_path / "out.jsonl"] if command == "score" else [
        "sweep", "-i", path, "--out-dir", tmp_path / "sweep"]
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: record 'synth-00003': a 71428571429x71428571429 patch grid is too large to index\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.jsonl", "huge.jsonl.cols"]
    path.write_text("".join(path.read_text().splitlines(keepends=True)[SCORE_CHUNK:]))  # the second chunk alone
    assert run(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line {301 - SCORE_CHUNK}: invalid JSON")


def test_sweep_rejects_bad_alpha_or_k_before_loading(tmp_path, capsys):
    """Each grid entry fails as its config object words it, before the input is read."""
    missing = tmp_path / "never-read.jsonl"
    out_dir = tmp_path / "sweep"
    assert run("sweep", "-i", missing, "--out-dir", out_dir, "--alphas", "0.2,1.5") == 1
    assert capsys.readouterr().err == "error: alpha must lie strictly inside (0, 1), got 1.5\n"
    assert run("sweep", "-i", missing, "--out-dir", out_dir, "--k-values", "5,0") == 1
    assert capsys.readouterr().err == "error: k_samples must be positive, got 0\n"
    assert run("sweep", "-i", missing, "--out-dir", out_dir, "--delta", 2) == 1
    assert capsys.readouterr().err == "error: delta must lie strictly inside (0, 1), got 2.0\n"
    sweep = ["sweep", "-i", missing, "--out-dir", out_dir]
    # an entry its flag's cast refuses is argparse's usage error, naming the flag
    assert usage_error(capsys, *sweep, "--alphas", "0.2,x") == (
        "clickrisk sweep: error: argument --alphas: must be a non-empty list of numbers, got '0.2,x'")
    assert usage_error(capsys, *sweep, "--k-values", "5,y") == (
        "clickrisk sweep: error: argument --k-values: must be a non-empty list of integers, got '5,y'")
    assert usage_error(capsys, *sweep, "--weight-presets", "v9") == (
        "clickrisk sweep: error: argument --weight-presets: unknown weight preset 'v9';"
        " expected one of ['original', 'v1', 'v2', 'v3', 'v4', 'v5', 'v6']")
    assert usage_error(capsys, *sweep, "--variants", "com,xx") == (
        "clickrisk sweep: error: argument --variants: unknown variant 'xx';"
        " expected one of ('com', 'ta', 'ie', 'cd', 'pc')")
    assert not out_dir.exists()


# --- synth / guarantee ------------------------------------------------------------

def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run("--seed", 5, "synth", "--out", a, "--n-records", 30) == 0
    assert run("--seed", 5, "synth", "--out", b, "--n-records", 30) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("easy_fraction", [0.0, 0.6, 1.0])
def test_synth_writes_the_generated_records_as_json_dumps_does(tmp_path, easy_fraction):
    """The columns go out SCORE_CHUNK rows at a time; 600 records cross two chunk boundaries."""
    out = tmp_path / "synth.jsonl"
    assert run("--seed", 9, "synth", "--out", out, "--n-records", 600, "--easy-fraction", easy_fraction) == 0
    records = generate_dataset(SynthConfig(n_records=600, easy_fraction=easy_fraction, seed=9))
    assert out.read_text() == "".join(line + "\n" for line in record_lines(records))
    assert records == load_records(out)


def test_synth_and_guarantee_reject_the_same_bad_config(tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    assert run("synth", "--out", out, "--box-size", 900) == 1
    synth_err = capsys.readouterr().err
    assert run("guarantee", "--trials", 2, "--box-size", 900) == 1
    assert capsys.readouterr().err == synth_err == "error: box_size must be smaller than image_size\n"
    assert not out.exists()


def test_a_failed_synth_leaves_the_output_as_it_was(tmp_path, monkeypatch, capsys):
    """Chunks are written as they are drawn, so a failure after the first must still change nothing."""
    out = tmp_path / "synth.jsonl"
    out.write_bytes(b"the previous file\n")
    generate = synthgen.generate_chunks

    def one_chunk_then_fail(config):
        chunks = generate(config)
        yield next(chunks)
        raise ValueError("generator failed")

    monkeypatch.setattr(cli, "generate_chunks", one_chunk_then_fail)
    assert run("synth", "--out", out, "--n-records", 3 * SCORE_CHUNK) == 1
    assert capsys.readouterr().err == "error: generator failed\n"
    assert out.read_bytes() == b"the previous file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.jsonl"]  # no .tmp-*.part left


def traced_peak(*argv) -> int:
    """Peak bytes that Python allocates while `cli.main` runs `argv`, by tracemalloc (the same on any host)."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", [["synth", "--out", "synth.jsonl"], ["guarantee", "--trials", 1]])
def test_synth_and_guarantee_memory_stays_flat_in_the_record_count(tmp_path, monkeypatch, command):
    """Both hold one SCORE_CHUNK of samples: ten times the records costs no more than a few bytes each."""
    monkeypatch.chdir(tmp_path)
    small, large = 4 * SCORE_CHUNK, 40 * SCORE_CHUNK
    traced_peak(*command, "--n-records", small)  # first-use allocations (imports, caches) out of the way
    small_peak = traced_peak(*command, "--n-records", small)
    large_peak = traced_peak(*command, "--n-records", large)
    if command[0] == "synth":
        assert large_peak <= 1.25 * small_peak
    else:  # only each record's uncertainty, admissibility and split indices outlive its chunk
        assert (large_peak - small_peak) / (large - small) < 100


def check_cascade_memory(tmp_path, monkeypatch, sidecar: bool) -> None:
    """Cascade keeps four vectors per record, and an id and instruction only for each record it defers.

    At tau 0.94 it defers none of these records (their largest `com` is
    0.93999999). The traced memory it holds when it routes, and its peak,
    are compared between 512 and 5120 records, read from their sidecars
    (where no line is parsed) or from their lines. The same bounds hold on
    both paths: the served path holds one sidecar block at a time, and a
    block holds at most SCORE_CHUNK records, as `score` writes them.
    """
    monkeypatch.chdir(tmp_path)
    small, large = 2 * SCORE_CHUNK, 20 * SCORE_CHUNK
    assert run("synth", "--out", "synth.jsonl", "--n-records", large) == 0
    scored(tmp_path, "synth.jsonl", "large.jsonl")
    with open("large.jsonl") as fh:
        Path("small.jsonl").write_text("".join(next(fh) for _ in range(small)))
    scored(tmp_path, "small.jsonl", "small.jsonl")  # the same bytes, rewritten in place with a sidecar
    if sidecar:
        monkeypatch.setattr(records, "_line_fields", None)  # no line is parsed
    else:
        for name in ("small.jsonl.cols", "large.jsonl.cols"):
            Path(name).unlink()
    held, route = [], cascade.route

    def traced_route(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return route(*args)

    monkeypatch.setattr(cascade, "route", traced_route)
    argv = ["cascade", "--tau", 0.94, "--manifest", "deferred.jsonl", "-i"]
    traced_peak(*argv, "small.jsonl")  # first-use allocations (imports, caches) out of the way
    small_peak, large_peak = traced_peak(*argv, "small.jsonl"), traced_peak(*argv, "large.jsonl")
    assert Path("deferred.jsonl").read_text() == ""
    assert (held[2] - held[1]) / (large - small) < 40  # about 25; 195 with every id and instruction
    # the reader's set of seen ids is most of the peak
    assert (large_peak - small_peak) / (large - small) < 240  # about 180; 290 with every id and instruction


def test_cascade_memory_keeps_no_row_of_a_record_it_accepts(tmp_path, monkeypatch):
    check_cascade_memory(tmp_path, monkeypatch, sidecar=False)


def test_cascade_memory_keeps_no_row_of_a_record_it_accepts_when_served_from_sidecars(tmp_path, monkeypatch):
    check_cascade_memory(tmp_path, monkeypatch, sidecar=True)


def partitions(n: int, largest: int) -> list[tuple[int, ...]]:
    """The partitions of n into parts of at most `largest`, largest part first."""
    if n == 0:
        return [()]
    return [(first, *rest) for first in range(min(n, largest), 0, -1) for rest in partitions(n - first, first)]


def test_score_memory_stays_flat_once_the_score_cache_is_full(tmp_path, monkeypatch):
    """Past the 4096 rows `uq._score` keeps, more distinct ranked-score tuples cost `score` no memory.

    One record per partition of each k from 15 to 23, in a seeded shuffle,
    with a part's samples in a patch of their own: a record's ranked scores
    are its parts over k, so two records share a tuple only when their
    partitions differ by a common factor. The live Python blocks
    (`sys.getallocatedblocks`) are read after each chunk is written; once
    the cache is full a new row replaces an evicted one, and what still
    grows is the reader's set of seen ids. (Tracing with tracemalloc would
    make the run eight times as long.)
    """
    every = [parts for k in range(15, 24) for parts in partitions(k, k)]
    records = [GroundingRecord(id=f"r{i}", image_width=840, image_height=14, gt_box=(0.0, 0.0, 14.0, 14.0),
                               samples=tuple((28.0 * j + 7.0, 7.0) for j, part in enumerate(parts) for _ in range(part)))
               for i, parts in enumerate(every[i] for i in np.random.default_rng(0).permutation(len(every)))]
    (tmp_path / "in.jsonl").write_text("".join(line + "\n" for line in record_lines(records)))
    blocks, write = [], RecordWriter.write

    def counted_write(*args):
        write(*args)
        blocks.append(sys.getallocatedblocks())

    monkeypatch.setattr(RecordWriter, "write", counted_write)
    assert run("score", "-i", tmp_path / "in.jsonl", "-o", tmp_path / "out.jsonl", "--beta", 0,
               "--k-samples", 23) == 0
    assert uq._score.cache_info().misses > 4096 + 3 * SCORE_CHUNK
    full = -(-4096 // SCORE_CHUNK)  # the chunks written by when the cache holds 4096 rows
    per_record = (blocks[-2] - blocks[full]) / ((len(blocks) - 2 - full) * SCORE_CHUNK)  # full chunks only
    assert per_record < 5  # about 2 here; 15 when every distinct tuple's row is kept


def test_sweep_rejects_an_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run("sweep", "-i", empty, "--out-dir", tmp_path / "sweep") == 1
    assert "no records" in capsys.readouterr().err


def test_guarantee_rejects_zero_trials(capsys):
    capsys.readouterr()
    assert run("guarantee", "--trials", 0) == 1
    assert capsys.readouterr() == ("", "error: trials must be positive, got 0\n")


def test_guarantee_writes_trial_csv(tmp_path, capsys):
    out_csv = tmp_path / "trials.csv"
    assert run("--seed", 5, "guarantee", "--trials", 5, "--n-records", 60,
               "--out-csv", out_csv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["trials"] == 5
    assert obj["alpha"] == 0.2
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "trial,feasible,tau,test_fdr"
    assert len(lines) == 6


# --- config file -------------------------------------------------------------------

def test_config_file_supplies_defaults_and_cli_overrides(tmp_path, mixed_file):
    src = scored(tmp_path, mixed_file)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3,
        "risk": {"alpha": 0.3, "delta": 0.05},
        "split": {"calibration_ratio": 0.5, "repetitions": 1},
        "variant": "com",
    }))
    from_config = tmp_path / "a1.json"
    assert run("--config", config, "calibrate", "-i", src, "-o", from_config) == 0
    assert json.loads(from_config.read_text())["alpha"] == 0.3

    overridden = tmp_path / "a2.json"
    assert run("--config", config, "calibrate", "-i", src, "-o", overridden,
               "--alpha", 0.45) == 0
    assert json.loads(overridden.read_text())["alpha"] == 0.45


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("config, flags, alpha", [
    (None, [], 0.1),
    ({"risk": {"alpha": 0.3}}, [], 0.3),
    ({"risk": {"alpha": 0.3}}, ["--alpha", 0.45], 0.45),
    (None, ["--alpha", 0.45], 0.45),
], ids=["default", "config", "flag-over-config", "flag"])
def test_alpha_comes_from_flag_then_config_then_default(tmp_path, mixed_file, config, flags, alpha):
    src = scored(tmp_path, mixed_file)
    prefix = ["--config", write_config(tmp_path, config)] if config else []
    artifact = tmp_path / "artifact.json"
    assert run(*prefix, "calibrate", "-i", src, "-o", artifact, "-r", 1, *flags) == 0
    assert json.loads(artifact.read_text())["alpha"] == alpha


def test_config_weights_preset_scores_like_the_flag(tmp_path, mixed_file):
    config = write_config(tmp_path, {"uq": {"weights": "v2"}})
    from_flag = scored(tmp_path, mixed_file, "flag.jsonl", "--weights", "v2")
    from_config = tmp_path / "config.jsonl"
    assert run("--config", config, "--seed", 3, "score", "-i", mixed_file, "-o", from_config) == 0
    assert from_config.read_bytes() == from_flag.read_bytes()
    assert from_config.read_bytes() != scored(tmp_path, mixed_file).read_bytes()


def test_weights_flag_scores_like_the_same_weights_in_a_config_file(tmp_path, mixed_file, capsys):
    config = write_config(tmp_path, {"uq": {"weights": [0.5, 0.3, 0.2]}})
    from_flag = scored(tmp_path, mixed_file, "flag.jsonl", "--weights", "0.5,0.3,0.2")
    from_config = tmp_path / "config.jsonl"
    capsys.readouterr()
    assert run("--config", config, "--seed", 3, "score", "-i", mixed_file, "-o", from_config) == 0
    assert capsys.readouterr().err == ""
    assert from_config.read_bytes() == from_flag.read_bytes()
    assert from_config.read_bytes() != scored(tmp_path, mixed_file).read_bytes()


def sweep_column(out_dir, table, column):
    rows = (out_dir / table).read_text().splitlines()
    index = rows[0].split(",").index(column)
    return [row.split(",")[index] for row in rows[1:]]


@pytest.mark.parametrize("config, flags, alphas", [
    (None, [], ["0.1"]),
    ({"sweep": {"alphas": [0.3, 0.4]}}, [], ["0.3", "0.4"]),
    ({"sweep": {"alphas": [0.3, 0.4]}}, ["--alphas", "0.25"], ["0.25"]),
    ({"sweep": {"alphas": [0.3, 0.4]}}, ["--alphas", ""], ["0.3", "0.4"]),
    (None, ["--alphas", ""], ["0.1"]),
], ids=["default", "config", "flag-over-config", "empty-flag-keeps-config", "empty-flag-keeps-default"])
def test_sweep_alphas_come_from_flag_then_config_then_default(tmp_path, mixed_file, config, flags, alphas):
    src = scored(tmp_path, mixed_file)
    prefix = ["--config", write_config(tmp_path, config)] if config else []
    out_dir = tmp_path / "sweep"
    assert run(*prefix, "sweep", "-i", src, "--out-dir", out_dir, "-r", 2, *flags) == 0
    assert sweep_column(out_dir, "risk.csv", "alpha") == alphas


@pytest.mark.parametrize("config, k", [
    (None, ["10"]),
    ({"uq": {"k_samples": 5}}, ["5"]),
    ({"uq": {"k_samples": 5}, "sweep": {"k_values": [3, 7]}}, ["3", "7"]),
    ({"uq": {"k_samples": 5.0}}, ["5"]),
    ({"uq": {"k_samples": "5"}}, ["5"]),
    ({"sweep": {"k_values": [2, 3.0, "7"]}}, ["2", "3", "7"]),
], ids=["default", "uq-k-samples", "sweep-k-values", "integral-float-k", "string-k", "mixed-k-values"])
def test_sweep_k_falls_back_to_uq_k_samples(tmp_path, mixed_file, config, k):
    src = scored(tmp_path, mixed_file)
    prefix = ["--config", write_config(tmp_path, config)] if config else []
    out_dir = tmp_path / "sweep"
    assert run(*prefix, "sweep", "-i", src, "--out-dir", out_dir, "-r", 2) == 0
    assert sweep_column(out_dir, "ranking.csv", "k") == k


def test_seed_flag_beats_config_seed(tmp_path, mixed_file, capsys):
    src = scored(tmp_path, mixed_file)
    config = write_config(tmp_path, {"seed": 3})
    capsys.readouterr()
    assert run("--config", config, "--seed", 5, "evaluate", "-i", src, "-r", 2) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert run("--config", config, "evaluate", "-i", src, "-r", 2) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3


def test_guarantee_defaults_and_config(tmp_path, capsys):
    argv = ["guarantee", "--trials", 2, "--n-records", 60]
    assert run(*argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["alpha"], obj["calibration_ratio"], obj["seed"]) == (0.2, 0.5, 0)
    config = write_config(tmp_path, {"risk": {"alpha": 0.3}, "split": {"calibration_ratio": 0.4}})
    assert run("--config", config, *argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["alpha"], obj["calibration_ratio"]) == (0.3, 0.4)


@pytest.mark.parametrize("config, flags, artifact_variant, variant", [
    (None, [], None, "com"),
    ({"variant": "ie"}, [], None, "ie"),
    ({"variant": "ie"}, [], "cd", "cd"),
    ({"variant": "ie"}, ["--variant", "ta"], "cd", "ta"),
], ids=["default", "config", "artifact-over-config", "flag-over-artifact"])
def test_cascade_variant_order(tmp_path, mixed_file, capsys, config, flags, artifact_variant, variant):
    src = scored(tmp_path, mixed_file)
    prefix = ["--config", write_config(tmp_path, config)] if config else []
    if artifact_variant is None:
        source = ["--tau", 0.5]
    else:
        artifact = tmp_path / "artifact.json"
        artifact.write_text(json.dumps({"feasible": True, "threshold": 0.5, "uq_variant": artifact_variant}))
        source = ["--artifact", artifact]
    capsys.readouterr()
    assert run(*prefix, "cascade", "-i", src, *source, *flags) == 0
    assert json.loads(capsys.readouterr().out)["variant"] == variant


@pytest.mark.parametrize("argv", [
    ["score", "-o", "s.jsonl", "--epsilon", "1e-6"],
    ["sweep", "--out-dir", "sweep", "--epsilon", "1e-6"],
    ["sweep", "--out-dir", "sweep", "--weights", "v2"],
], ids=["score-epsilon", "sweep-epsilon", "sweep-weights"])
def test_a_setting_that_changed_no_output_is_not_accepted(tmp_path, mixed_file, monkeypatch, capsys, argv):
    # epsilon is a numerical-stability constant, and sweep recombines com under each of --weight-presets
    monkeypatch.chdir(tmp_path)
    command, *rest = argv
    with pytest.raises(SystemExit) as caught:
        run(command, "-i", mixed_file, *rest)
    assert caught.value.code == 2
    assert f"unrecognized arguments: {' '.join(rest[-2:])}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [mixed_file, tmp_path / "mixed.jsonl.cols"]


WEIGHTS_KIND = (f"a preset name ({', '.join(sorted(uq.WEIGHT_PRESETS))}), three comma-separated numbers"
                " in a string, or a list of three numbers")
VARIANT_LIST_KIND = "a non-empty list of names from com, ta, ie, cd, pc"
PRESET_LIST_KIND = f"a non-empty list of names from {', '.join(sorted(uq.WEIGHT_PRESETS))}"
# Names a command checks only where it uses them fail at load for every command, as a wrong type does.
UNKNOWN_NAMES = {
    "unknown-variant": ({"variant": "xx"}, 'variant must be one of com, ta, ie, cd, pc, got "xx"'),
    "int-variant": ({"variant": 5}, "variant must be one of com, ta, ie, cd, pc, got 5"),
    "unknown-sweep-variant": ({"sweep": {"variants": ["com", "xx"]}},
                              f'sweep.variants must be {VARIANT_LIST_KIND}, got ["com", "xx"]'),
    "unknown-weight-preset": ({"sweep": {"weight_presets": ["vv"]}},
                              f'sweep.weight_presets must be {PRESET_LIST_KIND}, got ["vv"]'),
    "unknown-weights": ({"uq": {"weights": "zz"}}, f'uq.weights must be {WEIGHTS_KIND}, got "zz"'),
}
COMMAND_OUTPUTS = {"score": ["-o", "s.jsonl"], "calibrate": ["-o", "a.json"], "sweep": ["--out-dir", "sweep"]}


@pytest.mark.parametrize("config, argv, message", [
    ({"risk": {"alpha": None}}, ["calibrate", "-o", "a.json"], "risk.alpha must be a number, got null"),
    ({"sweep": {"alphas": 0.3}}, ["sweep", "--out-dir", "sweep"],
     "sweep.alphas must be a non-empty list of numbers, got 0.3"),
    ({"uq": {"weights": 0.5}}, ["score", "-o", "s.jsonl"],
     f"uq.weights must be {WEIGHTS_KIND}, got 0.5"),
    ({"uq": "x"}, ["score", "-o", "s.jsonl"], 'uq must be a JSON object, got "x"'),
    ({"uq": {"k_samples": "abc"}}, ["score", "-o", "s.jsonl"], 'uq.k_samples must be an integer, got "abc"'),
    ({"risk": {"Alpha": 0.02}}, ["calibrate", "-o", "a.json"], "unknown key risk.Alpha"),
    ({"Seed": 1}, ["score", "-o", "s.jsonl"], "unknown key Seed"),
    ({"risk.alpha": 0.3}, ["calibrate", "-o", "a.json"], "unknown key risk.alpha"),
    ({"uq": {"variant": "ta"}}, ["calibrate", "-o", "a.json"], "unknown key uq.variant"),
    ({"uq": {"epsilon": 1e-8}}, ["score", "-o", "s.jsonl"], "unknown key uq.epsilon"),
    ({"uq": {"k_samples": 2.7}}, ["score", "-o", "s.jsonl"], "uq.k_samples must be an integer, got 2.7"),
    ({"split": {"repetitions": True}}, ["calibrate", "-o", "a.json"],
     "split.repetitions must be an integer, got true"),
    ({"uq": {"k_samples": 2.7}, "split": {"repetitions": True}}, ["sweep", "--out-dir", "sweep"],
     "uq.k_samples must be an integer, got 2.7"),
    ({"seed": False}, ["score", "-o", "s.jsonl"], "seed must be an integer, got false"),
    ({"risk": {"alpha": True}}, ["calibrate", "-o", "a.json"], "risk.alpha must be a number, got true"),
    ({"sweep": {"k_values": [3, 4.5]}}, ["sweep", "--out-dir", "sweep"],
     "sweep.k_values must be a non-empty list of integers, got [3, 4.5]"),
    ({"sweep": {"alphas": [0.2, False]}}, ["sweep", "--out-dir", "sweep"],
     "sweep.alphas must be a non-empty list of numbers, got [0.2, false]"),
    ({"sweep": {"alphas": []}}, ["sweep", "--out-dir", "sweep"],
     "sweep.alphas must be a non-empty list of numbers, got []"),
    ({"sweep": {"k_values": []}}, ["sweep", "--out-dir", "sweep"],
     "sweep.k_values must be a non-empty list of integers, got []"),
    ({"sweep": {"variants": []}}, ["sweep", "--out-dir", "sweep"],
     f"sweep.variants must be {VARIANT_LIST_KIND}, got []"),
    ({"sweep": {"weight_presets": []}}, ["sweep", "--out-dir", "sweep"],
     f"sweep.weight_presets must be {PRESET_LIST_KIND}, got []"),
    ({"uq": {"weights": [True, 0.0, 0.0]}}, ["score", "-o", "s.jsonl"],
     f"uq.weights must be {WEIGHTS_KIND}, got [true, 0.0, 0.0]"),
    ({"uq": {"weights": [0.5, 0.5]}}, ["score", "-o", "s.jsonl"],
     f"uq.weights must be {WEIGHTS_KIND}, got [0.5, 0.5]"),
    *[(config, [command, *outputs], message)
      for config, message in UNKNOWN_NAMES.values() for command, outputs in COMMAND_OUTPUTS.items()],
], ids=["null-alpha", "scalar-alphas", "scalar-weights", "string-section", "string-k",
        "misspelled-key", "misspelled-top-level", "dotted-top-level", "top-level-key-in-a-section", "removed-epsilon",
        "fractional-k", "bool-repetitions", "fractional-k-and-bool-repetitions", "bool-seed", "bool-alpha",
        "fractional-k-value", "bool-in-alphas", "empty-alphas", "empty-k-values", "empty-variants",
        "empty-weight-presets", "bool-in-weights", "two-weights",
        *[f"{case}-{command}" for case in UNKNOWN_NAMES for command in COMMAND_OUTPUTS]])
def test_wrong_typed_config_value_names_file_and_key(tmp_path, monkeypatch, mixed_file, capsys, config, argv,
                                                     message):
    monkeypatch.chdir(tmp_path)  # where the relative outputs would go
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    command, *outputs = argv
    assert run("--config", path, command, "-i", mixed_file, *outputs) == 1
    assert capsys.readouterr().err == f"error: config file {path}: {message}\n"
    assert not (tmp_path / outputs[-1]).exists()


@pytest.mark.parametrize("text, message", [
    ("not json", "config file {path}: invalid JSON: Expecting value"),
], ids=["not-json"])
def test_a_config_file_that_cannot_be_used_is_an_error(tmp_path, mixed_file, capsys, text, message):
    path, out = tmp_path / "config.json", tmp_path / "a.json"
    path.write_text(text)
    capsys.readouterr()
    assert run("--config", path, "calibrate", "-i", mixed_file, "-o", out, "-r", 1) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")
    assert not out.exists()


VARIANT_CHOICES = "uq_variant must be one of com, ta, ie, cd, pc or null"


@pytest.mark.parametrize("artifact, message", [
    ([1, 2], "expected a JSON object"),
    ({"feasible": True, "threshold": [0.5]}, "threshold must be a number, got [0.5]"),
    ({"feasible": True, "threshold": math.nan}, "threshold must be finite, got NaN"),
    ({"feasible": True, "threshold": -math.inf}, "threshold must be finite, got -Infinity"),
    ({"feasible": True, "threshold": 10**400}, f"threshold must be finite, got {10**400}"),
    ({"feasible": True, "threshold": True}, "threshold must be a number, got true"),
    ({"feasible": 1, "threshold": 0.5}, "feasible must be true or false, got 1"),
    ({"threshold": 0.5}, "feasible must be true or false, got null"),
    ({"feasible": True, "threshold": 0.5, "alpha": "x"}, 'alpha must be a number in (0, 1), got "x"'),
    ({"feasible": True, "threshold": 0.5, "alpha": False}, "alpha must be a number in (0, 1), got false"),
    ({"feasible": True, "threshold": 0.5, "alpha": 1}, "alpha must be a number in (0, 1), got 1"),
    ({"feasible": True, "threshold": 0.5, "alpha": math.nan}, "alpha must be a number in (0, 1), got NaN"),
    ({"feasible": True, "threshold": 0.5, "uq_variant": 5}, f"{VARIANT_CHOICES}, got 5"),
    ({"feasible": True, "threshold": 0.5, "uq_variant": ["com"]}, f'{VARIANT_CHOICES}, got ["com"]'),
    ({"feasible": True, "threshold": 0.5, "uq_variant": ""}, f'{VARIANT_CHOICES}, got ""'),
    ({"feasible": True, "threshold": 0.5, "uq_variant": "xx"}, f'{VARIANT_CHOICES}, got "xx"'),
], ids=["list", "list-threshold", "nan-threshold", "infinite-threshold", "int-too-large-threshold",
        "bool-threshold", "int-feasible", "missing-feasible", "string-alpha", "bool-alpha", "alpha-of-one",
        "nan-alpha", "int-variant", "list-variant", "empty-variant", "unknown-variant"])
def test_cascade_rejects_a_malformed_artifact(tmp_path, mixed_file, capsys, artifact, message):
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(artifact))
    assert run("cascade", "-i", mixed_file, "--artifact", path) == 1
    assert capsys.readouterr().err == f"error: artifact {path}: {message}\n"


def test_cascade_checks_the_artifacts_variant_when_the_flag_overrides_it(tmp_path, mixed_file, capsys):
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps({"feasible": True, "threshold": 0.5, "uq_variant": ""}))
    assert run("cascade", "-i", mixed_file, "--artifact", path, "--variant", "com") == 1
    assert capsys.readouterr().err == f'error: artifact {path}: {VARIANT_CHOICES}, got ""\n'


def test_cascade_accepts_a_null_alpha_and_reports_it(tmp_path, mixed_file, capsys):
    path, table, data = tmp_path / "artifact.json", tmp_path / "cascade.csv", scored(tmp_path, mixed_file)
    path.write_text(json.dumps({"feasible": True, "threshold": 0.5, "alpha": None}))
    capsys.readouterr()
    assert run("cascade", "-i", data, "--artifact", path, "--csv", table) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] is None
    assert table.read_text().splitlines()[1].split(",")[1] == ""


def test_unknown_config_file_is_operational_error(tmp_path, capsys):
    assert run("--config", tmp_path / "none.json", "synth", "--out", tmp_path / "d.jsonl") == 1
    assert "config" in capsys.readouterr().err


# --- whole-pipeline determinism -----------------------------------------------------

def test_pipeline_reruns_byte_identical(tmp_path):
    def pipeline(base):
        base.mkdir()
        data = base / "data.jsonl"
        s = base / "scored.jsonl"
        artifact = base / "artifact.json"
        roc = base / "roc.csv"
        arc = base / "arc.csv"
        manifest = base / "deferred.jsonl"
        table = base / "cascade.csv"
        assert run("--seed", 11, "synth", "--out", data, "--n-records", 120) == 0
        assert run("--seed", 11, "score", "-i", data, "-o", s) == 0
        assert run("--seed", 11, "calibrate", "-i", s, "-o", artifact,
                   "--alpha", 0.3, "--ratio", 0.5, "-r", 1) == 0
        assert run("--seed", 11, "evaluate", "-i", s, "--alpha", 0.3, "--ratio", 0.5,
                   "-r", 3, "--roc-csv", roc, "--arc-csv", arc) == 0
        assert run("--seed", 11, "cascade", "-i", s, "--artifact", artifact,
                   "--manifest", manifest, "--csv", table) == 0
        return [data, s, artifact, roc, arc, manifest, table]

    files_a = pipeline(tmp_path / "a")
    files_b = pipeline(tmp_path / "b")
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes(), fa.name


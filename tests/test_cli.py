import contextlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clickrisk import cli, synthgen
from clickrisk.density import build_density_map
from clickrisk.records import SCORE_CHUNK, SplitPlan, load_records, split
from clickrisk.synthgen import SynthConfig, generate_dataset
from test_records import record_lines


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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["colliding.jsonl", "raw.jsonl"]


@pytest.mark.parametrize("argv, empty, one", [
    (["score", "-o", "out.jsonl"], None, None),
    (["calibrate", "-o", "a.json", "-r", 1], "need at least 2 records to split, got 0",
     "need at least 2 records to split, got 1"),
    (["calibrate", "-o", "cal", "-r", 3], "need at least 2 records to split, got 0",
     "need at least 2 records to split, got 1"),
    (["evaluate", "-r", 2], "need at least 2 records to split, got 0", "need at least 2 records to split, got 1"),
    (["evaluate", "--variant", "pc", "-r", 2], "need at least 2 records to split, got 0",
     "record 'synth-00000' has no pc field"),
    (["cascade", "--tau", 0.5], "need at least one record", None),
    (["cascade", "--tau", -1, "--manifest", "m.jsonl"], "need at least one record", None),
    (["sweep", "--out-dir", "sweep", "-r", 2], "{path}: no records", "need at least 2 records to split, got 1"),
], ids=["score", "calibrate", "calibrate-r3", "evaluate", "evaluate-pc", "cascade", "cascade-manifest", "sweep"])
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
    assert capsys.readouterr().err == "error: record 'synth-00002' has no uq fields; run scoring first\n"


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
])
def test_two_output_flags_naming_one_file_fail_before_any_work(tmp_path, mixed_file, capsys, command, first, second):
    src = scored(tmp_path, mixed_file)
    (tmp_path / "link").symlink_to(tmp_path)
    out, alias = tmp_path / "x.out", tmp_path / "link" / "x.out"  # one file, two spellings
    threshold = ["--tau", 0.5] if command == "cascade" else []
    capsys.readouterr()
    assert run(command, "-i", src, *threshold, first, out, second, alias) == 1
    assert capsys.readouterr() == ("", f"error: {first} and {second} name the same file: {alias}\n")
    assert not out.exists()


def test_cascade_requires_threshold_source(tmp_path, mixed_file, capsys):
    src = scored(tmp_path, mixed_file)
    assert run("cascade", "-i", src) == 1
    assert "--tau or --artifact" in capsys.readouterr().err


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


def test_cascade_rejects_infeasible_artifact(tmp_path, easy_file, capsys):
    src = scored(tmp_path, easy_file)
    artifact = tmp_path / "bad.json"
    assert run("--seed", 3, "calibrate", "-i", src, "-o", artifact,
               "--alpha", 0.01, "--ratio", 0.5, "-r", 1) == 0
    assert run("--seed", 3, "cascade", "-i", src, "--artifact", artifact) == 1
    assert "infeasible" in capsys.readouterr().err


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


def test_sweep_rejects_bad_alpha_or_k_before_loading(tmp_path, capsys):
    missing = tmp_path / "never-read.jsonl"
    out_dir = tmp_path / "sweep"
    assert run("sweep", "-i", missing, "--out-dir", out_dir, "--alphas", "0.2,1.5") == 1
    err = capsys.readouterr().err
    assert "alpha" in err and "1.5" in err and "not found" not in err
    assert run("sweep", "-i", missing, "--out-dir", out_dir, "--k-values", "5,0") == 1
    err = capsys.readouterr().err
    assert "k must be >= 1, got 0" in err and "not found" not in err
    assert run("sweep", "-i", missing, "--out-dir", out_dir, "--alphas", "0.2,x") == 1
    assert capsys.readouterr().err == "error: --alphas: cannot read 'x' as float\n"
    assert run("sweep", "-i", missing, "--out-dir", out_dir, "--k-values", "5,y") == 1
    assert capsys.readouterr().err == "error: --k-values: cannot read 'y' as int\n"
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


def test_sweep_rejects_an_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run("sweep", "-i", empty, "--out-dir", tmp_path / "sweep") == 1
    assert "no records" in capsys.readouterr().err


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


@pytest.mark.parametrize("config, argv, message", [
    ({"risk": {"alpha": None}}, ["calibrate", "-o", "a.json"], "risk.alpha must be a number, got null"),
    ({"sweep": {"alphas": 0.3}}, ["sweep", "--out-dir", "sweep"], "sweep.alphas must be a list of numbers, got 0.3"),
    ({"uq": {"weights": 0.5}}, ["score", "-o", "s.jsonl"],
     "uq.weights must be a preset name or a list of numbers, got 0.5"),
    ({"uq": "x"}, ["score", "-o", "s.jsonl"], 'uq must be a JSON object, got "x"'),
    ({"uq": {"k_samples": "abc"}}, ["score", "-o", "s.jsonl"], 'uq.k_samples must be an integer, got "abc"'),
    ({"risk": {"Alpha": 0.02}}, ["calibrate", "-o", "a.json"], "unknown key risk.Alpha"),
    ({"Seed": 1}, ["score", "-o", "s.jsonl"], "unknown key Seed"),
    ({"risk.alpha": 0.3}, ["calibrate", "-o", "a.json"], "unknown key risk.alpha"),
    ({"uq": {"variant": "ta"}}, ["calibrate", "-o", "a.json"], "unknown key uq.variant"),
    ({"uq": {"k_samples": 2.7}}, ["score", "-o", "s.jsonl"], "uq.k_samples must be an integer, got 2.7"),
    ({"split": {"repetitions": True}}, ["calibrate", "-o", "a.json"],
     "split.repetitions must be an integer, got true"),
    ({"uq": {"k_samples": 2.7}, "split": {"repetitions": True}}, ["sweep", "--out-dir", "sweep"],
     "uq.k_samples must be an integer, got 2.7"),
    ({"seed": False}, ["score", "-o", "s.jsonl"], "seed must be an integer, got false"),
    ({"risk": {"alpha": True}}, ["calibrate", "-o", "a.json"], "risk.alpha must be a number, got true"),
    ({"sweep": {"k_values": [3, 4.5]}}, ["sweep", "--out-dir", "sweep"],
     "sweep.k_values must be a list of integers, got [3, 4.5]"),
    ({"sweep": {"alphas": [0.2, False]}}, ["sweep", "--out-dir", "sweep"],
     "sweep.alphas must be a list of numbers, got [0.2, false]"),
    ({"uq": {"weights": [True, 0.0, 0.0]}}, ["score", "-o", "s.jsonl"],
     "uq.weights must be a preset name or a list of numbers, got [true, 0.0, 0.0]"),
], ids=["null-alpha", "scalar-alphas", "scalar-weights", "string-section", "string-k",
        "misspelled-key", "misspelled-top-level", "dotted-top-level", "top-level-key-in-a-section",
        "fractional-k", "bool-repetitions", "fractional-k-and-bool-repetitions", "bool-seed", "bool-alpha",
        "fractional-k-value", "bool-in-alphas", "bool-in-weights"])
def test_wrong_typed_config_value_names_file_and_key(tmp_path, mixed_file, capsys, config, argv, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    command, *outputs = argv
    assert run("--config", path, command, "-i", mixed_file, *outputs) == 1
    assert capsys.readouterr().err == f"error: config file {path}: {message}\n"
    assert not (tmp_path / outputs[-1]).exists()


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


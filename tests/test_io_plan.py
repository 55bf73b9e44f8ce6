"""Every file flag of every command goes through that command's `cli.IoPlan`.

Each command runs here with every file flag it has set (`RUNS`), in a fresh
copy of one directory of inputs. The plan checks every file before any
record is read, so each bad name below exits 1 with one `error:` line that
names the flag and changes no name or byte in the directory: an input that
is a directory, an output that is a directory or ends in a path separator,
an output directory that is a file, an output that names an input, two
outputs that name one file, and any file or directory under a plain file.
The outputs are committed together, `score`'s record file, sidecar and
density dumps included, so a failure while the last of them is staged
leaves nothing behind either.

`test_every_option_is_a_planned_file_or_listed_as_no_path` ties each
option of each command to that command's plan, so an output that a later
command adds cannot skip the checks.
"""

import errno
import shutil
import tempfile
from pathlib import Path

import pytest

from clickrisk import cli, sidecar
from test_settings import subparsers

# (name, argv with every file flag set, input flags, output file flags, output directory flags), the last three in
# the order the command's plan names them. Every run also reads `--config config.json`.
RUNS = [
    ("score", ["score", "-i", "raw.jsonl", "-o", "out.jsonl", "--dump-density", "dumps"],
     ["--input"], ["--output"], ["--dump-density"]),
    ("calibrate", ["calibrate", "-i", "scored.jsonl", "-o", "cal.json", "-r", 1], ["--input"], ["--out"], []),
    ("calibrate-r3", ["calibrate", "-i", "scored.jsonl", "-o", "cal", "-r", 3], ["--input"], [], ["--out"]),
    ("evaluate", ["evaluate", "-i", "scored.jsonl", "-r", 2, "--report", "report.json", "--roc-csv", "roc.csv",
                  "--arc-csv", "arc.csv"], ["--input"], ["--report", "--roc-csv", "--arc-csv"], []),
    ("cascade", ["cascade", "-i", "scored.jsonl", "--artifact", "artifact.json", "--report", "cascade.json",
                 "--manifest", "deferred.jsonl", "--csv", "rows.csv"],
     ["--input", "--artifact"], ["--report", "--manifest", "--csv"], []),
    ("sweep", ["sweep", "-i", "raw.jsonl", "--out-dir", "sweep", "-r", 2], ["--inputs"], [], ["--out-dir"]),
    ("synth", ["synth", "--out", "synth.jsonl", "--n-records", 40], [], ["--out"], []),
    ("guarantee", ["guarantee", "--trials", 2, "--out-csv", "trials.csv"], [], ["--out-csv"], []),
]

# The options of each command that name no file
NOT_PATHS = {
    "score": {"--k-samples", "--patch-size", "--beta", "--weights"},
    "calibrate": {"--variant", "--alpha", "--delta", "--ratio", "--repetitions"},
    "evaluate": {"--variant", "--alpha", "--delta", "--ratio", "--repetitions"},
    "cascade": {"--tau", "--variant", "--label"},
    "sweep": {"--alphas", "--variants", "--weight-presets", "--k-values", "--delta", "--ratio", "--repetitions",
              "--patch-size", "--beta"},
    "synth": {"--n-records", "--k-samples", "--image-size", "--box-size", "--easy-fraction", "--dispersion",
              "--expert-accuracy"},
    "guarantee": {"--trials", "--alpha", "--delta", "--ratio", "--n-records", "--k-samples", "--image-size",
                  "--box-size", "--easy-fraction", "--dispersion", "--expert-accuracy"},
}


def value_index(argv: list, flag: str) -> int:
    """Where the value of `flag`, or of its short form, sits in `argv`."""
    short = {"--input": "-i", "--inputs": "-i", "--output": "-o", "--out": "-o"}.get(flag)
    return next(i for i, a in enumerate(argv) if a in (flag, short)) + 1


def with_value(argv: list, flag: str, value: str) -> list:
    argv = list(argv)
    argv[value_index(argv, flag)] = value
    return argv


def flag_value(argv: list, flag: str) -> str:
    return argv[value_index(argv, flag)]


def cases():
    """(id, argv, the error without its `error: ` prefix, the number of the staged file that fails, or 0)."""
    for name, argv, inputs, outputs, dirs in RUNS:
        argv = ["--config", "config.json", *argv]
        main = (inputs or ["--config"])[0]  # the input an output is made to name
        for flag in ["--config", *inputs]:
            yield f"{name}{flag}-is-a-directory", with_value(argv, flag, "dd"), f"{flag} dd: is a directory", 0
        for flag in ["--config", *inputs, *outputs, *dirs]:
            yield (f"{name}{flag}-is-under-a-file", with_value(argv, flag, "file.txt/x"),
                   f"{flag} file.txt/x: not a directory", 0)
        for flag in outputs:
            yield f"{name}{flag}-is-a-directory", with_value(argv, flag, "dd"), f"{flag} dd: is a directory", 0
            yield (f"{name}{flag}-ends-in-a-separator", with_value(argv, flag, "new/"),
                   f"{flag} new/: ends in a path separator", 0)
            # `score -i X -o X` rescores X in place, so its output names the input's sidecar
            target = flag_value(argv, main) + (".cols" if flag == "--output" else "")
            yield (f"{name}{flag}-names-{main}", with_value(argv, flag, target),
                   f"{main} and {flag} name the same file: {target}", 0)
        for flag in dirs:
            yield (f"{name}{flag}-is-a-file", with_value(argv, flag, "file.txt"), f"{flag} file.txt: not a directory",
                   0)
            if flag != "--dump-density":  # naming a file, it is that first (the case above)
                target = flag_value(argv, main)
                yield (f"{name}{flag}-names-{main}", with_value(argv, flag, target),
                       f"{main} and {flag} name the same file: {target}", 0)
        named = outputs + dirs
        for i, first in enumerate(named):
            for second in named[i + 1:]:
                target = flag_value(argv, first)
                yield (f"{name}{first}-and{second}", with_value(argv, second, target),
                       f"{first} and {second} name the same file: {target}", 0)
        # the last file staged fails: score stages its record file, its sidecar and then one dump per record
        count = {"score": 42, "calibrate-r3": 4, "evaluate": 3, "cascade": 3, "sweep": 2, "synth": 2}.get(name, 1)
        last, path = {"score": ("--dump-density", "dumps/synth-00039.csv"),
                      "calibrate-r3": ("--out", "cal/summary.json"),
                      "sweep": ("--out-dir", "sweep/risk.csv")}.get(name, (named[-1], flag_value(argv, named[-1])))
        yield f"{name}-fails-writing-{last}", argv, f"{last} {path}: No space left on device", count
    # rescoring in place, the input is left as it was too
    yield ("score-in-place-fails-writing--dump-density",
           ["score", "-i", "raw.jsonl", "-o", "raw.jsonl", "--dump-density", "dumps"],
           "--dump-density dumps/synth-00039.csv: No space left on device", 42)


CASES = list(cases())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The directory every case runs in a copy of."""
    d = tmp_path_factory.mktemp("inputs")
    assert cli.main(["--seed", "2", "synth", "--out", str(d / "raw.jsonl"), "--n-records", "40"]) == 0
    assert cli.main(["score", "-i", str(d / "raw.jsonl"), "-o", str(d / "scored.jsonl")]) == 0
    (d / "artifact.json").write_text('{"alpha": 0.2, "feasible": true, "threshold": 0.5}\n')
    (d / "config.json").write_text("{}\n")
    (d / "file.txt").write_text("a file\n")
    (d / "dd").mkdir()
    return d


def tree(root: Path) -> dict:
    """Every name under `root` and the bytes of every file."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.fixture
def work(tmp_path, monkeypatch, inputs) -> Path:
    """A fresh copy of the inputs, as the working directory."""
    shutil.copytree(inputs, tmp_path / "work")
    monkeypatch.chdir(tmp_path / "work")
    return tmp_path / "work"


@pytest.mark.parametrize("argv, error, failing", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_a_file_the_command_cannot_use_fails_naming_its_flag_and_changes_nothing(monkeypatch, capsys, work, argv,
                                                                                 error, failing):
    if failing:  # the run computes everything, and then the temporary of its last output cannot be made
        staged, mkstemp = [], tempfile.mkstemp

        def full_disk(*args, **kwargs):
            staged.append(kwargs["dir"])
            if len(staged) == failing:
                raise OSError(errno.ENOSPC, "No space left on device")
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", full_disk)
    else:  # checked before any record is read or drawn
        for name in ("read_columns", "generate_chunks", "run_guarantee_trials"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    before = tree(work)
    capsys.readouterr()
    assert cli.main([str(a) for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert tree(work) == before
    if failing:
        assert len(staged) == failing


@pytest.mark.parametrize("output", ["out.jsonl", "raw.jsonl"])
@pytest.mark.parametrize("method", ["write", "close"])
def test_a_write_error_of_score_names_its_output_and_changes_nothing(monkeypatch, capsys, work, method, output):
    def full_disk(writer, *args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sidecar.RecordWriter, method, full_disk)
    before = tree(work)
    capsys.readouterr()
    assert cli.main(["score", "-i", "raw.jsonl", "-o", output, "--dump-density", "dumps"]) == 1
    assert capsys.readouterr() == ("", f"error: --output {output}: No space left on device\n")
    assert tree(work) == before


def test_score_reads_its_input_once_and_never_its_output(monkeypatch, work):
    read, read_columns = [], cli.read_columns
    monkeypatch.setattr(cli, "read_columns", lambda path: read.append(path) or read_columns(path))
    assert cli.main(["score", "-i", "raw.jsonl", "-o", "out.jsonl", "--dump-density", "dumps"]) == 0
    assert read == ["raw.jsonl"]
    assert len(list((work / "dumps").iterdir())) == 40


class Planned(Exception):
    """Raised in place of `IoPlan.check`, with the plan it was called on."""


def planned_flags(monkeypatch, argv) -> set[str]:
    """The flags that name a file in the first plan `argv`'s run makes."""

    def capture(plan):
        raise Planned(plan)

    monkeypatch.setattr(cli.IoPlan, "check", capture)
    with pytest.raises(Planned) as caught:
        cli.main([str(a) for a in argv])
    plan = caught.value.args[0]
    return {flag for flag, _ in plan.reads + plan.writes + plan.dirs}


def test_every_option_is_a_planned_file_or_listed_as_no_path(monkeypatch):
    parser = cli.build_parser()
    declared: dict[str, set[str]] = {}
    for name, argv, inputs, outputs, dirs in RUNS:
        flags = planned_flags(monkeypatch, argv)
        assert flags == {*inputs, *outputs, *dirs}, name
        declared.setdefault(argv[0], set()).update(flags)
    for command, sub in subparsers(parser).items():
        options = {max(a.option_strings, key=len) for a in sub._actions if a.option_strings} - {"--help"}
        assert not declared[command] & NOT_PATHS[command], command
        assert declared[command] | NOT_PATHS[command] == options, command
    # the options before the command: --config is read by every command, before it is parsed again
    assert planned_flags(monkeypatch, ["--config", "config.json", "guarantee"]) == {"--config"}
    top = {max(a.option_strings, key=len) for a in parser._actions if a.option_strings} - {"--help"}
    assert top == {"--seed", "--config"}

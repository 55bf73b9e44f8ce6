"""Every setting changes an output.

Each optional flag of every command is run twice: once at its default and
once at a value from `FLAGS`, the file-to-file commands on one 120-record
file. The two runs must differ in some byte of stdout or of a file they
write, so a flag that is accepted but reaches no output fails here, and so
does a flag the table does not list. `guarantee` runs 5 trials, not its
default 1000, and its runs write the per-trial CSV, since the summary's
counts can hide a changed trial. Every config-file key must be the default
of a flag that this scan covers.

Every config-file key and its flag are one setting: the flag's texts and the
key's values in a config file (an integer as 3, 3.0 and "3.0" too) print
and write the same bytes.
"""

import argparse
import json

import pytest

from clickrisk import cli


def run_at(tmp_path, name, monkeypatch, capsys, argv):
    """(stdout, {relative path: bytes} of every file written) of one in-process run in a fresh directory; it must exit 0."""
    workdir = tmp_path / name
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 0, err
    files = {str(p.relative_to(workdir)): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}
    return out, files


def change(flag, value, *both):
    """The default run gets `both`; the other run gets `both` and `flag value`."""
    return list(both), [*both, flag, value]


# The arguments every run of a command gets: its required ones. "{raw}",
# "{scored}", "{config}" and "{artifact}" are the files `inputs` makes.
COMMANDS = {
    "score": ["score", "-i", "{raw}", "-o", "out.jsonl"],
    "calibrate": ["calibrate", "-i", "{scored}", "-o", "cal"],
    "evaluate": ["evaluate", "-i", "{scored}"],
    "cascade": ["cascade", "-i", "{scored}"],
    "sweep": ["sweep", "-i", "{raw}", "--out-dir", "sweep"],
    "synth": ["synth", "--out", "synth.jsonl", "--n-records", 120],
    "guarantee": ["guarantee", "--trials", 5],
}

SYNTH_VALUES = {"--n-records": 60, "--k-samples": 3, "--image-size": 1000, "--box-size": 100,
                "--easy-fraction": 0.3, "--dispersion": 50.0, "--expert-accuracy": 0.5}

# (command, flag) -> (the default run's extra arguments, the other run's).
# `cli` stands for the options before the command, with calibrate as the command.
FLAGS = {
    ("cli", "--seed"): change("--seed", 5),
    ("cli", "--config"): change("--config", "{config}"),
    ("score", "--k-samples"): change("--k-samples", 3),
    ("score", "--patch-size"): change("--patch-size", 28),
    ("score", "--beta"): change("--beta", 0.6),
    ("score", "--weights"): change("--weights", "v2"),
    ("score", "--dump-density"): change("--dump-density", "dumps"),
    ("calibrate", "--variant"): change("--variant", "ta"),
    ("calibrate", "--alpha"): change("--alpha", 0.3),
    ("calibrate", "--delta"): change("--delta", 0.2),
    ("calibrate", "--ratio"): change("--ratio", 0.5),
    ("calibrate", "--repetitions"): change("--repetitions", 3),
    ("evaluate", "--variant"): change("--variant", "ta"),
    ("evaluate", "--alpha"): change("--alpha", 0.3),
    ("evaluate", "--delta"): change("--delta", 0.2),
    ("evaluate", "--ratio"): change("--ratio", 0.5),
    ("evaluate", "--repetitions"): change("--repetitions", 3),
    ("evaluate", "--report"): change("--report", "report.json"),
    ("evaluate", "--roc-csv"): change("--roc-csv", "roc.csv"),
    ("evaluate", "--arc-csv"): change("--arc-csv", "arc.csv"),
    # cascade needs a threshold from one of these two, so each flag's default run takes it from the other
    ("cascade", "--tau"): (["--artifact", "{artifact}"], ["--tau", 0.2]),
    ("cascade", "--artifact"): (["--tau", 0.2], ["--artifact", "{artifact}"]),
    ("cascade", "--variant"): change("--variant", "ta", "--tau", 0.5),
    ("cascade", "--report"): change("--report", "report.json", "--tau", 0.5),
    ("cascade", "--manifest"): change("--manifest", "deferred.jsonl", "--tau", 0.5),
    ("cascade", "--csv"): change("--csv", "rows.csv", "--tau", 0.5),
    ("cascade", "--label"): change("--label", "x", "--tau", 0.5, "--csv", "rows.csv"),
    ("sweep", "--alphas"): change("--alphas", "0.3"),
    ("sweep", "--variants"): change("--variants", "ta"),
    ("sweep", "--weight-presets"): change("--weight-presets", "v2"),
    ("sweep", "--k-values"): change("--k-values", "3"),
    ("sweep", "--delta"): change("--delta", 0.2),
    ("sweep", "--ratio"): change("--ratio", 0.5),
    ("sweep", "--repetitions"): change("--repetitions", 3),
    ("sweep", "--patch-size"): change("--patch-size", 28),
    ("sweep", "--beta"): change("--beta", 0.6),
    **{("synth", flag): change(flag, value) for flag, value in SYNTH_VALUES.items()},
    **{("guarantee", flag): change(flag, value, "--out-csv", "trials.csv") for flag, value in SYNTH_VALUES.items()},
    ("guarantee", "--trials"): change("--trials", 6),
    ("guarantee", "--alpha"): change("--alpha", 0.3, "--out-csv", "trials.csv"),
    ("guarantee", "--delta"): change("--delta", 0.2, "--out-csv", "trials.csv"),
    ("guarantee", "--ratio"): change("--ratio", 0.3, "--out-csv", "trials.csv"),
    ("guarantee", "--out-csv"): change("--out-csv", "trials.csv"),
}


def optional_flags(parser: argparse.ArgumentParser) -> set[str]:
    """The long name of each option of `parser` that has a default (neither required nor --help)."""
    return {
        max(action.option_strings, key=len)
        for action in parser._actions
        if action.option_strings and not action.required and not isinstance(action, argparse._HelpAction)
    }


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The files the scanned runs read, by the name `COMMANDS` and `FLAGS` give them."""
    d = tmp_path_factory.mktemp("inputs")
    paths = {name: d / file for name, file in (
        ("raw", "raw.jsonl"), ("scored", "scored.jsonl"), ("artifact", "artifact.json"), ("config", "config.json"))}
    assert cli.main(["--seed", "2", "synth", "--out", str(paths["raw"]), "--n-records", "120"]) == 0
    assert cli.main(["score", "-i", str(paths["raw"]), "-o", str(paths["scored"])]) == 0
    assert cli.main(["calibrate", "-i", str(paths["scored"]), "-o", str(paths["artifact"]), "-r", "1",
                     "--alpha", "0.3"]) == 0
    paths["config"].write_text('{"risk": {"alpha": 0.3}}')
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("command", ["cli", *COMMANDS])
def test_every_optional_flag_changes_an_output(tmp_path, monkeypatch, capsys, inputs, command):
    parser = cli.build_parser()
    scanned = optional_flags(parser if command == "cli" else subparsers(parser)[command])
    assert scanned == {flag for cmd, flag in FLAGS if cmd == command}, "each flag needs exactly one FLAGS entry"
    base = COMMANDS["calibrate" if command == "cli" else command]
    inert = []
    for flag in sorted(scanned):
        runs = []
        for i, extra in enumerate(FLAGS[command, flag]):
            argv = [*extra, *base] if command == "cli" else [*base, *extra]
            argv = [a.format(**inputs) if isinstance(a, str) else a for a in argv]
            runs.append(run_at(tmp_path, f"{flag[2:]}-{i}", monkeypatch, capsys, argv))
        if runs[0] == runs[1]:
            inert.append(flag)
    assert inert == []


@pytest.mark.parametrize("command", COMMANDS)
def test_the_parsed_arguments_hold_only_settings_a_flag_gives(command):
    """`vars(args)` is what a run used: each flag's value, the command and its `func`, and nothing else but
    cascade's `fallback_variant`, the config file's variant, which stands behind the artifact's."""
    parser = cli.build_parser()
    args = parser.parse_args([a.format(raw="r.jsonl", scored="s.jsonl") if isinstance(a, str) else str(a)
                              for a in COMMANDS[command]])
    dests = {action.dest for p in (parser, subparsers(parser)[command]) for action in p._actions
             if not isinstance(action, argparse._HelpAction)}
    assert "config" in dests and "command" in dests
    assert set(vars(args)) == dests | {"func"} | ({"fallback_variant"} if command == "cascade" else set())


class Recorder:
    """A loaded config whose every lookup returns a marker naming its key."""

    def __init__(self):
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return Setting(key)


class Setting:
    """The default a `Recorder` gives: the config key it stands for."""

    def __init__(self, key):
        self.key = key


def test_every_config_key_is_the_default_of_a_scanned_flag():
    config = Recorder()
    parser = cli.build_parser(config)
    assert config.read == set(cli._CASTS)  # every key is read, and nothing else is
    scanned = set()  # the keys that are the default of a flag in FLAGS
    for command, sub in [("cli", parser), *subparsers(parser).items()]:
        for action in sub._actions:
            if isinstance(action.default, Setting) and (command, max(action.option_strings, key=len)) in FLAGS:
                scanned.add(action.default.key)
    assert sorted(config.read - scanned) == []


def spellings(n: int) -> tuple[list[str], list]:
    """The flag texts and the config-file values that all mean the integer `n`."""
    return [str(n), f"{n}.0"], [n, float(n), f"{n}.0"]


CALIBRATE = ["calibrate", "-i", "{scored}", "-o", "cal.json", "-r", 1]
SWEEP = ["sweep", "-i", "{raw}", "--out-dir", "sweep", "-r", 2]

# config key -> (the command's arguments, the key's flag, flag texts, config-file values), all one setting
SAME_SETTING = {
    "seed": (CALIBRATE, "--seed", *spellings(5)),
    "uq.k_samples": (COMMANDS["score"], "--k-samples", *spellings(3)),
    "uq.patch_size": (COMMANDS["score"], "--patch-size", *spellings(28)),
    "uq.beta": (COMMANDS["score"], "--beta", ["0.6"], [0.6]),
    "uq.weights": (COMMANDS["score"], "--weights", ["0.5,0.3,0.2"], [[0.5, 0.3, 0.2], "0.5,0.3,0.2"]),
    "risk.alpha": (CALIBRATE, "--alpha", ["0.3"], [0.3]),
    "risk.delta": (CALIBRATE, "--delta", ["0.2"], [0.2]),
    "split.calibration_ratio": (CALIBRATE, "--ratio", ["0.5"], [0.5]),
    "split.repetitions": (COMMANDS["evaluate"], "--repetitions", *spellings(3)),
    "variant": (CALIBRATE, "--variant", ["ta"], ["ta"]),
    "sweep.alphas": (SWEEP, "--alphas", ["0.3,0.4"], [[0.3, 0.4]]),
    "sweep.k_values": (SWEEP, "--k-values", ["3,5", "3.0,5.0"], [[3, 5], [3.0, 5.0], ["3.0", "5.0"]]),
    "sweep.variants": (SWEEP, "--variants", ["ta,ie"], [["ta", "ie"]]),
    "sweep.weight_presets": (SWEEP, "--weight-presets", ["v1,v2"], [["v1", "v2"]]),
}


def test_every_config_key_has_a_same_setting_case():
    assert set(SAME_SETTING) == set(cli._CASTS)


@pytest.mark.parametrize("key", sorted(SAME_SETTING))
def test_a_flag_and_its_config_key_are_one_setting(tmp_path, monkeypatch, capsys, inputs, key):
    """Each text of the flag and each value of the key in a config file print and write the same bytes."""
    command, flag, texts, values = SAME_SETTING[key]
    command = [a.format(**inputs) if isinstance(a, str) else a for a in command]
    section, _, name = key.rpartition(".")
    runs = []
    for i, text in enumerate(texts):
        argv = [flag, text, *command] if flag == "--seed" else [*command, flag, text]
        runs.append(run_at(tmp_path, f"flag-{i}", monkeypatch, capsys, argv))
    for i, value in enumerate(values):
        config = tmp_path / f"config-{i}.json"
        config.write_text(json.dumps({section: {name: value}} if section else {name: value}))
        runs.append(run_at(tmp_path, f"config-{i}", monkeypatch, capsys, ["--config", config, *command]))
    assert all(run == runs[0] for run in runs[1:])

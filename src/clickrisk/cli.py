"""Command-line pipeline: score, calibrate, evaluate, cascade, sweep, synth, guarantee.

Stages communicate through files (line-delimited records, JSON artifacts,
CSV tables) so long experiments can be resumed and reproduced. A command's
outputs are staged beside their targets and renamed together once it has
computed them all, and every run is deterministic given its inputs,
configuration, and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np

from . import cascade as cascade_mod
from . import engine
from . import metrics as metrics_mod
from .records import (
    UQ_KEYS,
    Columns,
    RecordError,
    SplitPlan,
    mlg_column,
    read_columns,
    record_writer,
    save_records,
    sidecar_path,
    split_indices,
    staged_files,
)
from .density import occupied_patches
from .risk import CalibrationOutcome, RiskSpec, calibrate_threshold
from .synthgen import SynthConfig, generate_chunks, run_guarantee_trials
from .uq import (
    VARIANTS,
    WEIGHT_PRESETS,
    UqConfig,
    combine,
    missing_score,
    score_columns,
    variant_column,
)

# Unused here, but bench/spans.py wraps them at these bindings (ROADMAP item 4
# points the spans at the column path and drops these).
from .density import build_density_map  # noqa: F401
from .records import load_records, split  # noqa: F401
from .synthgen import generate_dataset  # noqa: F401
from .uq import score_record  # noqa: F401

DEFAULT_ALPHA = 0.1


class CliError(Exception):
    """Operational failure that should stop the command with a nonzero exit."""


# ---------------------------------------------------------------------------
# files: each command names its own once, checks them before it reads a record, and writes them together

def _read_text(path: str, what: str) -> str:
    """The file at `path` as UTF-8 text; a byte that is not UTF-8 is a CliError naming `what` and `path`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} {path}: not UTF-8 (byte 0x{data[exc.start]:02x} at position {exc.start})") from None


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_table(path: str, header: list[str]) -> str:
    """The text of the table at `path` that a row is appended to, ending in a newline; it must start with `header`.

    A missing or empty file is `header`'s line alone.
    """
    expected = ",".join(header)
    existing = _read_text(path, "--csv") if os.path.exists(path) else ""
    if not existing:
        return expected + "\n"
    found = existing.partition("\n")[0]
    if found != expected:
        raise CliError(f"--csv {path}: existing header {found!r} does not match {expected!r}")
    return existing if existing.endswith("\n") else existing + "\n"  # so the row starts a line of its own


class IoPlan:
    """The files one command reads and writes, named once from its `args` and checked (`check`) as it is made.

    An entry of `reads` or `writes` is a flag, standing for the file (or each file) its option names, or a
    (flag, paths) pair: the directory that flag names and the files written into it. `dirs` are directories whose
    files the data names (`score --dump-density`), which the command checks itself. A record file (a flag in
    `records`) stands for its sidecar too. `in_place` is a pair of flags that may name one file, read and then
    replaced. Every command reads its `--config`."""

    def __init__(self, args, reads=(), writes=(), dirs=(), records=("--input", "--inputs", "--output"), in_place=()):
        def value(flag: str):
            return getattr(args, flag[2:].replace("-", "_"))

        def named(entries, sidecars=()) -> list[tuple[str, str]]:
            files = []
            for entry in entries:
                flag, paths = entry if isinstance(entry, tuple) else (entry, value(entry))
                for path in filter(None, paths if isinstance(paths, list) else [paths]):
                    files += [(flag, path), (flag, sidecar_path(path))] if flag in sidecars else [(flag, path)]
            return files

        self.inputs = named(("--config", *reads))  # the files it reads, each as named
        self.reads = named(("--config", *reads), records)
        self.writes = named(writes, records)
        # the directories it writes named files into, which no other flag may name; then `dirs`
        self.holders = [(entry[0], value(entry[0])) for entry in writes if isinstance(entry, tuple)]
        self.dirs = self.holders + named(dirs)
        self.in_place = set(in_place) if len({os.path.realpath(value(flag)) for flag in in_place}) == 1 else set()
        self.check()

    def check(self) -> None:
        """A CliError naming the flag of the first file the command could not use, in this order: an input that is a
        directory; an output that ends in a path separator or is a directory; two flags, but the `in_place` pair,
        naming one real file; an output directory that is a file; a path whose nearest existing ancestor is not a
        directory. A missing input is its reader's to report."""
        for flag, path in self.inputs:
            if os.path.isdir(path):
                raise CliError(f"{flag} {path}: is a directory")
        for flag, path in self.writes:
            if not os.path.basename(path):
                raise CliError(f"{flag} {path}: ends in a path separator")
            if os.path.isdir(path):
                raise CliError(f"{flag} {path}: is a directory")
        self.named: dict[str, str] = {}  # real path -> the first flag naming it
        written = {flag for flag, _ in self.writes}  # a file its own flag reads and replaces counts as an output
        files = [read for read in self.reads if read[0] not in written] + self.holders + self.writes
        for i, (flag, path) in enumerate(files + self.dirs):  # a directory holding files is claimed with them
            if i >= len(files) and os.path.exists(path) and not os.path.isdir(path):
                raise CliError(f"{flag} {path}: not a directory")
            other = self.named.setdefault(os.path.realpath(path), flag)
            if other != flag and {other, flag} != self.in_place:
                raise CliError(f"{other} and {flag} name the same file: {path}")
        for flag, path in self.inputs + self.dirs + self.writes:  # a directory before the files it holds
            parent = os.path.dirname(path)
            while parent and not os.path.exists(parent):
                parent = os.path.dirname(parent)
            if parent and not os.path.isdir(parent):
                raise CliError(f"{flag} {path}: not a directory")


@contextlib.contextmanager
def _output(flag: str, path: str) -> Iterator[None]:
    """An OSError raised in the block, which writes only the output `flag` names at `path`, as a CliError."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"{flag} {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _outputs() -> Iterator[tuple[Callable[..., None], Callable]]:
    """(`write`, `stage`) of the command's one commit. `write(flag, path, texts=(), rows=())` stages each of `texts`
    and then `rows` as CSV lines for `path`, if it is set (`csv` writes None as an empty cell and a float as its
    `repr`); `stage` is `records.staged_files`' own. All the files staged replace their targets when the block ends
    cleanly, and none does on an error."""
    with staged_files() as stage:
        def write(flag: str, path: str | None, texts: Iterable[str] = (), rows: Iterable = ()) -> None:
            if path:
                with _output(flag, path), stage(path) as fh:
                    fh.writelines(texts)
                    csv.writer(fh, lineterminator="\n").writerows(rows)

        yield write, stage


def _read(path: str) -> Iterator[Columns]:
    """`read_columns(path)`, with a missing file or a bad record as a CliError naming `path`."""
    try:
        yield from read_columns(path)
    except FileNotFoundError:
        raise CliError(f"input file not found: {path}")
    except RecordError as exc:
        raise CliError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# configuration: a config file's settings become the parser's defaults

def _integer(value) -> int:
    """`int(value)` for an integer, an integral float or a string of either ("2", "2.0", "1e3"); no bool."""
    if isinstance(value, str):  # digits alone go through `int`, exact past a float's 53 bits
        value = int(value) if value.strip().lstrip("+-").isdigit() else float(value)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _number(value) -> float:
    """`float(value)` for anything but a bool."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _name_in(names, what: str):
    """Cast for one of `names`; anything else is a CliError naming `what` and listing `names`."""
    def parse(value) -> str:
        if value not in names:
            raise CliError(f"unknown {what} {value!r}; expected one of {names!r}")
        return value
    return parse


# The casts of a variant and a weight preset name
_variant = _name_in(VARIANTS, "variant")
_preset = _name_in(sorted(WEIGHT_PRESETS), "weight preset")


def _list_of(cast):
    """Cast for a non-empty list, or a string of comma-separated items, whose every item takes `cast`."""
    def parse(value) -> list:
        if isinstance(value, str):
            value = value.split(",")
        if not isinstance(value, list) or not value:
            raise TypeError(value)
        return [cast(v) for v in value]
    return parse


def _weights(value) -> tuple[float, ...]:
    """A weight preset's weights, or three numbers given as a list or as a comma-separated string."""
    if isinstance(value, str) and value in WEIGHT_PRESETS:
        return WEIGHT_PRESETS[value]
    weights = tuple(_list_of(_number)(value))
    if len(weights) != 3:
        raise ValueError(value)
    return weights


# The config-file settings, as "section.key", grouped by the one cast each gets,
# at load and as its flag's text, and what that cast accepts.
CONFIG_FIELDS = {
    "an integer": (_integer, ("seed", "uq.k_samples", "uq.patch_size", "split.repetitions")),
    "a number": (_number, ("uq.beta", "risk.alpha", "risk.delta", "split.calibration_ratio")),
    f"a preset name ({', '.join(sorted(WEIGHT_PRESETS))}), three comma-separated numbers in a string,"
    " or a list of three numbers": (_weights, ("uq.weights",)),
    "a non-empty list of numbers": (_list_of(_number), ("sweep.alphas",)),
    "a non-empty list of integers": (_list_of(_integer), ("sweep.k_values",)),
    f"one of {', '.join(VARIANTS)}": (_variant, ("variant",)),
    f"a non-empty list of names from {', '.join(VARIANTS)}": (_list_of(_variant), ("sweep.variants",)),
    f"a non-empty list of names from {', '.join(sorted(WEIGHT_PRESETS))}": (
        _list_of(_preset), ("sweep.weight_presets",)),
}
_KINDS = {cast: kind for kind, (cast, _) in CONFIG_FIELDS.items()}
_CASTS = {field: cast for cast, names in CONFIG_FIELDS.values() for field in names}
_SECTIONS = {field.partition(".")[0] for field in _CASTS if "." in field}
_TOP_LEVEL = {field for field in _CASTS if "." not in field}


def _load_json_object(path: str, what: str) -> dict:
    try:
        obj = json.loads(_read_text(path, what))
    except FileNotFoundError:
        raise CliError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} {path}: invalid JSON: {exc.msg}")
    except RecursionError:
        raise CliError(f"{what} {path}: invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise CliError(f"{what} {path}: expected a JSON object")
    return obj


def _load_config(path: str) -> dict:
    """The config file's settings as {"section.key": value}, every key known and every value cast."""
    settings = {}
    for key, value in _load_json_object(path, "config file").items():
        if key not in _SECTIONS:
            entries = {key: value}
        elif isinstance(value, dict):
            entries = {f"{key}.{k}": v for k, v in value.items()}
        else:
            raise CliError(f"config file {path}: {key} must be a JSON object, got {json.dumps(value)}")
        for field in entries:
            if field not in (_CASTS if key in _SECTIONS else _TOP_LEVEL):
                raise CliError(f"config file {path}: unknown key {field}")
        settings.update(entries)
    for field, cast in _CASTS.items():
        if field in settings:
            try:
                settings[field] = cast(settings[field])
            except (TypeError, ValueError, OverflowError, CliError):
                raise CliError(
                    f"config file {path}: {field} must be {_KINDS[cast]}, got {json.dumps(settings[field])}")
    return settings


def _split_plan(args) -> SplitPlan:
    return SplitPlan(calibration_ratio=args.ratio, seed=args.seed, repetitions=args.repetitions)


# The synthetic generator's knobs, one flag each (--n-records, ...).
SYNTH_FLAGS = tuple(f for f in fields(SynthConfig) if f.name != "seed")


def _synth_config(args) -> SynthConfig:
    return SynthConfig(seed=args.seed, **{f.name: getattr(args, f.name) for f in SYNTH_FLAGS})


# ---------------------------------------------------------------------------
# shared evaluation plumbing: per-record vectors for the split engine

def _admissible(chunk: Columns, seed: int) -> np.ndarray:
    """Whether each record's acted-on click (`select_mlg`) lies in its box."""
    return metrics_mod.admissions(mlg_column(chunk, seed), chunk.boxes)


def _expert(chunk: Columns) -> tuple[np.ndarray, np.ndarray]:
    """Whether each record's expert click lies in its box (False where there is none), and whether it has one."""
    return metrics_mod.admissions(chunk.expert, chunk.boxes), ~np.isnan(chunk.expert[:, 0])


def _stacked(rows: list[tuple], width: int) -> list[np.ndarray]:
    """Per-chunk tuples of `width` arrays, joined position by position; empty arrays for no chunks."""
    return [np.concatenate(column) for column in zip(*rows)] if rows else [np.zeros(0)] * width


def _scored_chunks(path: str, variant: str, seed: int) -> Iterator[tuple[Columns, np.ndarray, np.ndarray]]:
    """Each chunk of `path` with its variant values and its acted-on clicks' admissibility.

    A record without the variant fails once the whole file has been read,
    so a malformed record anywhere in it is reported first.
    """
    missing = None
    for chunk in _read(path):
        u = variant_column(chunk, variant).copy()  # not a view that would keep the chunk's (n, 4) uq array
        if missing is None and np.isnan(u).any():
            missing = chunk.ids[int(np.isnan(u).argmax())]
        yield chunk, u, _admissible(chunk, seed)
    if missing is not None:
        raise CliError(f"{path}: {missing_score(missing, variant)}")


def _scores(path: str, chunk: Columns, config: UqConfig) -> np.ndarray:
    """`score_columns` of `chunk`; a record it cannot score is a CliError naming `path` and the record."""
    try:
        return score_columns(chunk.points, chunk.offsets, chunk.dims, config)
    except ValueError:
        bounds = chunk.offsets.tolist()
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):  # the first record that fails alone
            try:
                score_columns(chunk.points[a:b], np.array([0, b - a]), chunk.dims[i : i + 1], config)
            except ValueError as exc:
                raise CliError(f"{path}: record {chunk.ids[i]!r}: {exc}") from None
        raise


def _mean_std(values: list[float]) -> list:
    if not values:
        return [None, None]
    stat = metrics_mod.aggregate(values)
    return [stat.mean, stat.std]


def _artifact_obj(outcome: CalibrationOutcome, spec: RiskSpec, variant: str) -> dict:
    return {
        "alpha": spec.alpha,
        "delta": spec.delta,
        "feasible": outcome.feasible,
        "threshold": outcome.threshold,
        "uq_variant": variant,
        "trace": [[p.tau, p.n_accepted, p.n_errors, p.upper_bound] for p in outcome.trace],
    }


# ---------------------------------------------------------------------------
# subcommands

def _dump_name(rec_id: str) -> str:
    """The --dump-density file of a record."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in rec_id) + ".csv"


def cmd_score(args) -> int:
    uq_cfg = UqConfig(k_samples=args.k_samples, patch_size=args.patch_size, beta=args.beta, weights=args.weights)
    files = IoPlan(args, reads=["--input"], writes=["--output"], dirs=["--dump-density"],
                   in_place=("--input", "--output"))
    owners: dict[str, str] = {}  # --dump-density file name -> the first id written to it
    n_records = 0
    with _outputs() as (write, stage), contextlib.ExitStack() as stack:
        # each use of the record writer names --output; the loop's reads are named by `_read`
        with _output("--output", args.output):
            out = stack.enter_context(record_writer(stage, args.output))
        for chunk in _read(args.input):  # a chunk at a time: read, score, write its lines and its dumps
            scored = replace(chunk, mlg=mlg_column(chunk, args.seed), uq=_scores(args.input, chunk, uq_cfg))
            with _output("--output", args.output):
                out.write(scored)
            n_records += len(chunk)
            bounds = chunk.offsets.tolist()
            for rec_id, dims, a, b in zip(chunk.ids, chunk.dims, bounds, bounds[1:]) if args.dump_density else ():
                name = _dump_name(rec_id)
                dump = os.path.join(args.dump_density, name)
                if owners.setdefault(name, rec_id) != rec_id:
                    raise CliError(
                        f"--dump-density: ids {owners[name]!r} and {rec_id!r} would both be written to {name}")
                if flag := files.named.get(os.path.realpath(dump)):
                    raise CliError(f"{flag} and --dump-density name the same file: {dump}")
                cloud = chunk.points[a : min(b, a + uq_cfg.k_samples)].tolist()
                grid_w, patches = occupied_patches(cloud, dims, uq_cfg.patch_size)
                write("--dump-density", dump, rows=[
                    ["row", "col", "value"], *((*divmod(cell, grid_w), value) for cell, value in patches)])
        with _output("--output", args.output):
            stack.close()  # the sidecar's header, and the last bytes of both files
    print(f"scored {n_records} records -> {args.output}")
    return 0


def cmd_calibrate(args) -> int:
    single = args.repetitions == 1
    summary = os.path.join(args.out, "summary.json")
    artifacts = [args.out] if single else [
        os.path.join(args.out, f"calibration_r{rep:03d}.json") for rep in range(args.repetitions)]
    IoPlan(args, reads=["--input"], writes=["--out"] if single else [("--out", [*artifacts, summary])])
    spec = RiskSpec(alpha=args.alpha, delta=args.delta)
    plan = _split_plan(args)
    u, adm = _stacked([(u, adm) for _, u, adm in _scored_chunks(args.input, args.variant, args.seed)], 2)

    fdrs = []
    with _outputs() as (write, _):
        for rep in range(plan.repetitions):
            cal, test = split_indices(u.size, plan, rep)
            outcome = calibrate_threshold(u[cal], ~adm[cal], spec)  # the full trace, for the artifact
            if outcome.feasible:
                fdrs.append(metrics_mod.split_counts(u[test], adm[test], outcome.threshold).fdr)
            write("--out", artifacts[rep], [_json_text(_artifact_obj(outcome, spec, args.variant))])
        infeasible = plan.repetitions - len(fdrs)
        mean, std = _mean_std(fdrs)
        if not single:
            write("--out", summary, [_json_text({
                "alpha": spec.alpha,
                "delta": spec.delta,
                "uq_variant": args.variant,
                "repetitions": plan.repetitions,
                "calibration_ratio": plan.calibration_ratio,
                "seed": args.seed,
                "infeasible_splits": infeasible,
                "test_fdr": {"mean": mean, "std": std} if fdrs else None,
            })])
    if single and fdrs:
        print(f"feasible: threshold={outcome.threshold!r} (test FDR {mean:.4f}) -> {args.out}")
    elif single:
        print(f"infeasible: no threshold satisfies alpha={spec.alpha} at "
              f"delta={spec.delta} on the calibration split -> {args.out}")
    elif fdrs:
        print(f"{plan.repetitions} splits ({infeasible} infeasible): "
              f"test FDR {mean:.4f} +/- {std:.4f} -> {args.out}")
    else:
        print(f"infeasible on all {plan.repetitions} splits: no threshold satisfies "
              f"alpha={spec.alpha} at delta={spec.delta} -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    IoPlan(args, reads=["--input"], writes=["--report", "--roc-csv", "--arc-csv"])
    spec = RiskSpec(alpha=args.alpha, delta=args.delta)
    plan = _split_plan(args)
    u, adm = _stacked([(u, adm) for _, u, adm in _scored_chunks(args.input, args.variant, args.seed)], 2)

    per_split: dict[str, list[float]] = {k: [] for k in ("auroc", "auarc", "test_fdr", "power", "n_accepted")}
    ranked = engine.SortedColumns([u], adm)
    for rep, (test, [(counts,)]) in enumerate(ranked.splits(plan, [spec])):
        ranking = ranked.ranking(0, test)
        try:
            per_split["auroc"].append(ranking.auroc())
        except metrics_mod.MetricError as exc:
            raise CliError(f"repetition {rep}: {exc}")
        per_split["auarc"].append(ranking.auarc())
        if counts is not None:
            per_split["test_fdr"].append(counts.fdr)
            per_split["power"].append(counts.power)
            per_split["n_accepted"].append(float(counts.n_accepted))

    full = ranked.ranking(0)
    report_obj = {
        "input": args.input,
        "variant": args.variant,
        "alpha": spec.alpha,
        "delta": spec.delta,
        "calibration_ratio": plan.calibration_ratio,
        "repetitions": plan.repetitions,
        "seed": args.seed,
        "n_records": u.size,
        "infeasible_splits": plan.repetitions - len(per_split["test_fdr"]),
        "splits": {
            name: dict(zip(("mean", "std"), _mean_std(vals))) if vals else None
            for name, vals in per_split.items()
        },
        "full_dataset": {
            "accuracy": int(adm.sum()) / adm.size,
            "auroc": full.auroc(),
            "auarc": full.auarc(),
        },
    }
    with _outputs() as (write, _):
        write("--report", args.report, [_json_text(report_obj)])
        if args.roc_csv:
            write("--roc-csv", args.roc_csv, rows=chain([["fpr", "tpr"]], full.roc_points()))
        if args.arc_csv:
            write("--arc-csv", args.arc_csv, rows=chain([["rejection_rate", "accuracy"]], full.arc_points()))
    print(json.dumps(report_obj, indent=2))
    return 0


def _threshold_from_args(args) -> tuple[float, float | None, str | None]:
    """(threshold, alpha, variant) from --tau or a calibration artifact."""
    if args.tau is not None and args.artifact is not None:
        raise CliError("--tau and --artifact are mutually exclusive")
    if args.tau is not None:
        if not math.isfinite(args.tau):
            raise CliError(f"--tau must be finite, got {args.tau!r}")
        return args.tau, None, None
    if not args.artifact:
        raise CliError("provide either --tau or --artifact")
    artifact = _load_json_object(args.artifact, "artifact")
    feasible, threshold, alpha = (artifact.get(k) for k in ("feasible", "threshold", "alpha"))
    if not isinstance(feasible, bool):
        raise CliError(f"artifact {args.artifact}: feasible must be true or false, got {json.dumps(feasible)}")
    if not feasible or threshold is None:
        raise CliError(
            f"artifact {args.artifact} is infeasible; no threshold available for cascading"
        )
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise CliError(f"artifact {args.artifact}: threshold must be a number, got {json.dumps(threshold)}")
    if not abs(threshold) <= sys.float_info.max:  # NaN, +-inf, or an int too large for a float
        raise CliError(f"artifact {args.artifact}: threshold must be finite, got {json.dumps(threshold)}")
    if alpha is not None and (isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0 < alpha < 1):
        raise CliError(f"artifact {args.artifact}: alpha must be a number in (0, 1), got {json.dumps(alpha)}")
    variant = artifact.get("uq_variant")
    if variant is not None and variant not in VARIANTS:
        raise CliError(
            f"artifact {args.artifact}: uq_variant must be one of {', '.join(VARIANTS)} or null,"
            f" got {json.dumps(variant)}"
        )
    return float(threshold), alpha, variant


CASCADE_CSV_HEADER = [
    "label", "alpha", "variant", "threshold", "system_accuracy",
    "primary_accuracy", "expert_only_accuracy", "cascading_rate",
    "n_total", "n_accepted", "n_deferred",
]


def cmd_cascade(args) -> int:
    IoPlan(args, reads=["--input", "--artifact", "--csv"], writes=["--report", "--manifest", "--csv"])
    threshold, alpha, artifact_variant = _threshold_from_args(args)
    # the flag, then the artifact's variant, then the config file's, then com
    variant = args.variant or artifact_variant or args.fallback_variant
    ids, instructions, per_chunk = [], [], []  # the ids and instructions of the deferred records only
    for chunk, u, adm in _scored_chunks(args.input, variant, args.seed):
        for i in cascade_mod.deferred_rows(u, threshold).tolist():
            ids.append(chunk.ids[i])
            instructions.append(chunk.instructions[i])
        per_chunk.append((u, adm, *_expert(chunk)))
    report = cascade_mod.route(*_stacked(per_chunk, 4), ids, threshold)

    report_obj = {
        "input": args.input,
        "variant": variant,
        "threshold": threshold,
        "alpha": alpha,
        **asdict(report),
    }
    with _outputs() as (write, _):
        write("--report", args.report, [_json_text(report_obj)])
        write("--manifest", args.manifest, cascade_mod.manifest_lines(ids, instructions))
        if args.csv:
            row = [args.label or os.path.basename(args.input)] + [report_obj[k] for k in CASCADE_CSV_HEADER[1:]]
            write("--csv", args.csv, [_csv_table(args.csv, CASCADE_CSV_HEADER)], [row])
    print(json.dumps(report_obj, indent=2))
    if args.manifest:
        print(f"deferral manifest: {len(ids)} records -> {args.manifest}", file=sys.stderr)
    return 0


def _sweep_input(path: str, name: str, args, configs: list[UqConfig], specs: list[RiskSpec],
                 plan: SplitPlan) -> tuple[list, list]:
    """One input's ranking rows and risk rows, in table order, each starting with `name`.

    Each chunk is scored under every config (one per k) as it is read, so
    only per-record vectors outlive it. A row reads the column its key
    (variant, k, preset or None) names: only com depends on the weight
    preset, so ta, ie and cd get one column per k, repeated under every
    preset, and pc one row, last, whose column is absent when some record
    lacks it. One `engine.SortedColumns` sorts each column once: its splits
    are drawn once for all of them, at every spec, and its rankings give
    each one's AUROC/AUARC.
    """
    adm, expert, has_expert, pc, *per_k = _stacked([
        (_admissible(chunk, args.seed), *_expert(chunk), chunk.pc, *(_scores(path, chunk, cfg) for cfg in configs))
        for chunk in _read(path)
    ], 4 + len(configs))
    if not adm.size:
        raise CliError(f"{path}: no records")

    rows: list[tuple[list, tuple]] = []  # per table row: its head and its column's key
    columns: dict[tuple, np.ndarray] = {}  # per key of a present column: its uncertainty vector
    for k, scores in zip(args.k_values, per_k):
        parts = dict(zip(UQ_KEYS, scores.T))
        for preset in args.weight_presets:
            for variant in args.variants:
                if variant == "pc":
                    continue
                key = (variant, k, preset if variant == "com" else None)
                rows.append(([name, variant, preset, k], key))
                if key not in columns:
                    columns[key] = parts[variant] if variant != "com" else combine(
                        parts["cd"], parts["ie"], parts["ta"], WEIGHT_PRESETS[preset])
    if "pc" in args.variants:
        rows.append(([name, "pc", None, None], ("pc", None, None)))
        if not np.isnan(pc).any():
            columns["pc", None, None] = pc

    # per column, per spec: the tau, FDR, power, system accuracy and cascading rate of each feasible split
    feasible = [[[] for _ in specs] for _ in columns]
    ranked = engine.SortedColumns(list(columns.values()), adm, expert)
    for rep, (_, per_column) in enumerate(ranked.splits(plan, specs)):
        for per_spec, kept in zip(per_column, feasible):
            for counts, stats in zip(per_spec, kept):
                if counts is not None:
                    try:  # power is undefined without admissible test records; name the split, as evaluate does
                        stats.append((counts.tau, counts.fdr, counts.power, counts.system_accuracy,
                                      counts.cascading_rate))
                    except metrics_mod.MetricError as exc:
                        raise metrics_mod.MetricError(f"repetition {rep}: {exc}") from None

    cascaded = has_expert.all()  # routing needs every record's expert click

    def risk_cells(stats: list[tuple]) -> list:
        tau, fdr, power, accuracy, rate = zip(*stats) if stats else [()] * 5
        return [len(stats), plan.repetitions - len(stats), _mean_std(tau)[0], *_mean_std(fdr), *_mean_std(power),
                *(_mean_std(accuracy) + _mean_std(rate) if cascaded else [None] * 4)]

    cells = {  # per key of a present column: its AUROC and AUARC, and its risk cells per spec
        key: ([ranking.auroc(), ranking.auarc()], [risk_cells(stats) for stats in kept])
        for key, ranking, kept in zip(columns, map(ranked.ranking, range(len(columns))), feasible)
    }
    empty = [None, None], [[None] * 11] * len(specs)  # an absent column's
    base_accuracy = int(adm.sum()) / adm.size
    return ([head + cells.get(key, empty)[0] + [base_accuracy] for head, key in rows],
            [head + [spec.alpha, spec.delta] + risk
             for head, key in rows for spec, risk in zip(specs, cells.get(key, empty)[1])])


def cmd_sweep(args) -> int:
    # the grid, each entry checked as it is built, before any input is read
    specs = [RiskSpec(alpha=alpha, delta=args.delta) for alpha in args.alphas]
    configs = [UqConfig(k_samples=k, patch_size=args.patch_size, beta=args.beta) for k in args.k_values]
    plan = _split_plan(args)
    tables = [os.path.join(args.out_dir, name) for name in ("ranking.csv", "risk.csv")]
    IoPlan(args, reads=["--inputs"], writes=[("--out-dir", tables)])
    # an input is named by its basename, or by its path as given where another input shares that basename
    names = [os.path.basename(path) for path in args.inputs]
    names = [path if names.count(name) > 1 else name for path, name in zip(args.inputs, names)]

    ranking_rows: list[list] = []
    risk_rows: list[list] = []
    for path, name in zip(args.inputs, names):
        try:
            ranking, risk = _sweep_input(path, name, args, configs, specs, plan)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}")
        ranking_rows += ranking
        risk_rows += risk

    with _outputs() as (write, _):
        write("--out-dir", tables[0], rows=[["input", "variant", "weights", "k", "auroc", "auarc", "accuracy"],
                                            *ranking_rows])
        write("--out-dir", tables[1], rows=[[
            "input", "variant", "weights", "k", "alpha", "delta",
            "feasible_splits", "infeasible_splits", "tau_mean",
            "test_fdr_mean", "test_fdr_std", "power_mean", "power_std",
            "system_accuracy_mean", "system_accuracy_std",
            "cascading_rate_mean", "cascading_rate_std",
        ], *risk_rows])
    print(f"sweep: {len(ranking_rows)} ranking rows, {len(risk_rows)} risk rows -> {args.out_dir}")
    return 0


class _Generated:
    """A synthetic dataset as `generate_chunks` draws it, one chunk at a time on each pass.

    `save_records` only iterates it; `len` is for bench/spans.py, which
    counts the records saved by `len` (ROADMAP item 4 drops that).
    """

    def __init__(self, config: SynthConfig):
        self.config = config

    def __len__(self) -> int:
        return self.config.n_records

    def __iter__(self) -> Iterator[Columns]:
        return generate_chunks(self.config)


def cmd_synth(args) -> int:
    IoPlan(args, writes=["--out"], records=["--out"])
    records = _Generated(_synth_config(args))
    with _output("--out", args.out):
        save_records(args.out, records)  # each chunk is written before the next is drawn
    print(f"generated {len(records)} records -> {args.out}")
    return 0


def cmd_guarantee(args) -> int:
    IoPlan(args, writes=["--out-csv"])
    cfg = _synth_config(args)
    spec = RiskSpec(alpha=args.alpha, delta=args.delta)
    result, outcomes = run_guarantee_trials(cfg, spec.alpha, spec.delta, args.trials, calibration_ratio=args.ratio)
    obj = {
        "alpha": spec.alpha,
        "delta": spec.delta,
        "trials": result.trials,
        "violations": result.violations,
        "infeasible": result.infeasible,
        "violation_rate": result.violation_rate,
        "calibration_ratio": args.ratio,
        "seed": args.seed,
    }
    with _outputs() as (write, _):
        write("--out-csv", args.out_csv, rows=[["trial", "feasible", "tau", "test_fdr"], *(
            [o.trial, "true" if o.feasible else "false", o.tau, o.test_fdr] for o in outcomes)])
    print(json.dumps(obj, indent=2))
    return 0


# ---------------------------------------------------------------------------
# argument parsing: every setting's value is resolved here, so `vars(args)`
# holds what a run used. An explicit flag wins over the config file, and the
# config file over the built-in default.

def _typed(cast, default=None):
    """The argparse `type` of a flag whose text takes `cast`: a text it refuses is argparse's usage error.

    That error names the flag and what `cast` accepts, or keeps a name cast's
    CliError text. A list flag's empty text keeps `default`, the config file's list or the built-in one."""
    def parse(text: str):
        if not text and isinstance(default, list):
            return default
        try:
            return cast(text)
        except CliError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except (TypeError, ValueError, OverflowError):
            raise argparse.ArgumentTypeError(f"must be {_KINDS[cast]}, got {text!r}") from None
    return parse


def _add_uq_flags(parser: argparse.ArgumentParser, setting) -> None:
    parser.add_argument("--patch-size", **setting("uq.patch_size", UqConfig.patch_size), help="patch size in pixels")
    parser.add_argument("--beta", **setting("uq.beta", UqConfig.beta), help="region threshold ratio in [0,1)")


def _add_risk_flags(parser: argparse.ArgumentParser, setting, default_alpha: float = DEFAULT_ALPHA) -> None:
    parser.add_argument("--alpha", **setting("risk.alpha", default_alpha), help="target risk level in (0,1)")
    parser.add_argument("--delta", **setting("risk.delta", RiskSpec.delta), help="significance level in (0,1)")


def _add_split_flags(parser: argparse.ArgumentParser, setting) -> None:
    parser.add_argument("--ratio", **setting("split.calibration_ratio", 0.2), help="calibration split ratio in (0,1)")
    parser.add_argument("--repetitions", "-r", **setting("split.repetitions", 100),
                        help="number of repeated calibration/test splits")


def _add_synth_flags(parser: argparse.ArgumentParser) -> None:
    for f in SYNTH_FLAGS:
        cast = _integer if isinstance(f.default, int) else _number
        parser.add_argument("--" + f.name.replace("_", "-"), type=_typed(cast), default=f.default)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with a loaded config file's settings (`_load_config`) as its defaults."""
    get = (config or {}).get

    def setting(key: str, default=None) -> dict:
        """The `add_argument` keywords of config key `key`'s flag: the file's value (else `default`) and its cast."""
        value = get(key, default)
        return {"type": _typed(_CASTS[key], value), "default": value}

    parser = argparse.ArgumentParser(
        prog="clickrisk",
        description="Risk-controlled accept/defer decisions for recorded GUI-grounding predictions.",
    )
    parser.add_argument("--seed", **setting("seed", 0), help="global random seed (default 0)")
    parser.add_argument("--config", default=None, help="JSON config file with defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="append spatial uncertainty scores to a record file")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--k-samples", **setting("uq.k_samples", UqConfig.k_samples),
                   help="use only the first K samples of each record")
    _add_uq_flags(p, setting)
    p.add_argument("--weights", **setting("uq.weights", UqConfig.weights),
                   help="component weights: preset name or 'w_cd,w_ie,w_ta'")
    p.add_argument("--dump-density", default=None, metavar="DIR",
                   help="also write each record's occupied patches as row,col,value CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("calibrate", help="calibrate an acceptance threshold with an FDR bound")
    p.add_argument("--input", "-i", required=True, help="scored record file")
    p.add_argument("--out", "-o", required=True, help="artifact file (or directory when --repetitions > 1)")
    p.add_argument("--variant", **setting("variant", "com"), help=_KINDS[_variant])
    _add_risk_flags(p, setting)
    _add_split_flags(p, setting)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="selective-prediction metrics over repeated splits")
    p.add_argument("--input", "-i", required=True, help="scored record file")
    p.add_argument("--variant", **setting("variant", "com"), help=_KINDS[_variant])
    _add_risk_flags(p, setting)
    _add_split_flags(p, setting)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--roc-csv", default=None, help="write full-dataset ROC curve CSV")
    p.add_argument("--arc-csv", default=None, help="write full-dataset accuracy-rejection CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cascade", help="apply a threshold: accept locally or defer to the expert")
    p.add_argument("--input", "-i", required=True, help="scored record file (test set)")
    p.add_argument("--tau", type=_typed(_number), default=None, help="explicit threshold")
    p.add_argument("--artifact", default=None, help="calibration artifact supplying the threshold")
    p.add_argument("--variant", type=_typed(_variant), default=None, help=_KINDS[_variant])
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--manifest", default=None, help="write deferral manifest (JSONL) here")
    p.add_argument("--csv", default=None, help="append a summary CSV row here")
    p.add_argument("--label", default=None, help="label for the CSV row (default: input basename)")
    p.set_defaults(func=cmd_cascade, fallback_variant=get("variant", "com"))

    p = sub.add_parser("sweep", help="grid of (alpha x variant x weights x K) over input files")
    p.add_argument("--inputs", "-i", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--alphas", **setting("sweep.alphas", [DEFAULT_ALPHA]), help="comma-separated risk levels")
    p.add_argument("--variants", **setting("sweep.variants", ["com"]), help="comma-separated uncertainty variants")
    p.add_argument("--weight-presets", **setting("sweep.weight_presets", ["original"]),
                   help=f"comma-separated presets from {sorted(WEIGHT_PRESETS)}")
    # sweep has no --k-samples: its k values fall back to uq.k_samples
    p.add_argument("--k-values", **setting("sweep.k_values", [get("uq.k_samples", UqConfig.k_samples)]),
                   help="comma-separated sample budgets")
    p.add_argument("--delta", **setting("risk.delta", RiskSpec.delta))
    _add_split_flags(p, setting)
    _add_uq_flags(p, setting)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic grounding dataset")
    p.add_argument("--out", "-o", required=True)
    _add_synth_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("guarantee", help="Monte Carlo validation of the FDR guarantee")
    p.add_argument("--trials", type=_typed(_integer), default=1000)
    _add_risk_flags(p, setting, 0.2)
    p.add_argument("--ratio", **setting("split.calibration_ratio", 0.5), help="calibration split ratio (default 0.5)")
    p.add_argument("--out-csv", default=None, help="write per-trial results here")
    _add_synth_flags(p)
    p.set_defaults(func=cmd_guarantee)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config is not None:  # parse again, with the file's settings as the defaults
            IoPlan(args)  # the config file is an input of every command
            args = build_parser(_load_config(args.config)).parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:  # ValueError covers RecordError and MissingScoreError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: score, calibrate, evaluate, cascade, sweep, synth, guarantee.

Stages communicate through files (line-delimited records, JSON artifacts,
CSV tables) so long experiments can be resumed and reproduced. All output
files are written atomically (write-then-rename) and every run is
deterministic given its inputs, configuration, and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from typing import Iterator

import numpy as np

from . import cascade as cascade_mod
from . import engine
from . import metrics as metrics_mod
from .records import (
    UQ_KEYS,
    Columns,
    RecordError,
    SplitPlan,
    atomic_writer,
    mlg_column,
    read_columns,
    save_records,
    split_indices,
    write_columns,
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
DEFAULT_DELTA = 0.05


class CliError(Exception):
    """Operational failure that should stop the command with a nonzero exit."""


# ---------------------------------------------------------------------------
# file helpers

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with atomic_writer(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _append_csv_row(path: str, header: list[str], row: list) -> None:
    """Append `row` to the table at `path`, which must start with `header`.

    A missing or empty file gets the header first; the result replaces
    the old file atomically.
    """
    expected = ",".join(header)
    existing = ""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            existing = fh.read()
    found = existing.partition("\n")[0]
    if existing and found != expected:
        raise CliError(f"--csv {path}: existing header {found!r} does not match {expected!r}")
    if existing and not existing.endswith("\n"):
        existing += "\n"  # so the row starts a line of its own
    with atomic_writer(path) as fh:
        fh.write(existing or expected + "\n")
        csv.writer(fh, lineterminator="\n").writerow([_fmt(v) for v in row])


def _distinct_outputs(args, *flags: str) -> None:
    """A CliError naming both flags when two of the output `flags` given name one file."""
    first: dict[str, str] = {}  # real path -> the first flag naming it
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        other = path and first.setdefault(os.path.realpath(path), flag)
        if other and other != flag:
            raise CliError(f"{other} and {flag} name the same file: {path}")


def _write_json(path: str, obj) -> None:
    with atomic_writer(path) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


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
    """`int(value)` for an integer, an integral float or a numeric string; never a bool or a fraction."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _number(value) -> float:
    """`float(value)` for anything but a bool."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _list_of(cast):
    """Cast for a JSON list whose every item takes `cast`."""
    def parse(value) -> list:
        if not isinstance(value, list):
            raise TypeError(value)
        return [cast(v) for v in value]
    return parse


# The config-file settings, as "section.key", grouped by the cast each gets at
# load and what that cast accepts; `build_parser` makes each the default of its
# flag. The top-level "variant" is also allowed and is checked where it is used.
CONFIG_FIELDS = {
    "an integer": (_integer, ("seed", "uq.k_samples", "uq.patch_size", "split.repetitions")),
    "a number": (_number, ("uq.beta", "uq.epsilon", "risk.alpha", "risk.delta", "split.calibration_ratio")),
    "a preset name or a list of numbers": (
        lambda v: v if isinstance(v, str) else tuple(_list_of(_number)(v)), ("uq.weights",)),
    "a list of numbers": (_list_of(_number), ("sweep.alphas",)),
    "a list of integers": (_list_of(_integer), ("sweep.k_values",)),
    "a list of names": (_list_of(str), ("sweep.variants", "sweep.weight_presets")),
}
_CASTS = {field: (kind, cast) for kind, (cast, names) in CONFIG_FIELDS.items() for field in names}
_SECTIONS = {field.partition(".")[0] for field in _CASTS if "." in field}
_TOP_LEVEL = {field for field in _CASTS if "." not in field} | {"variant"}


def _load_json_object(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} {path}: invalid JSON: {exc.msg}")
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
    for field, (kind, cast) in _CASTS.items():
        if field in settings:
            try:
                settings[field] = cast(settings[field])
            except (TypeError, ValueError, OverflowError):
                raise CliError(f"config file {path}: {field} must be {kind}, got {json.dumps(settings[field])}")
    return settings


def _parse_weights(text: str) -> tuple[float, float, float]:
    if text in WEIGHT_PRESETS:
        return WEIGHT_PRESETS[text]
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(
            f"weights must be a preset ({', '.join(sorted(WEIGHT_PRESETS))}) "
            f"or three comma-separated reals, got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise CliError(f"weights must be numeric, got {text!r}")


def _uq_config(args) -> UqConfig:
    return UqConfig(k_samples=args.k_samples, patch_size=args.patch_size, beta=args.beta,
                    epsilon=args.epsilon, weights=args.weights)


def _split_plan(args) -> SplitPlan:
    return SplitPlan(calibration_ratio=args.ratio, seed=args.seed, repetitions=args.repetitions)


# The synthetic generator's knobs, one flag each (--n-records, ...).
SYNTH_FLAGS = tuple(f for f in fields(SynthConfig) if f.name != "seed")


def _synth_config(args) -> SynthConfig:
    return SynthConfig(seed=args.seed, **{f.name: getattr(args, f.name) for f in SYNTH_FLAGS})


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise CliError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return variant


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
        u = variant_column(chunk, variant)
        if missing is None and np.isnan(u).any():
            missing = chunk.ids[int(np.isnan(u).argmax())]
        yield chunk, u, _admissible(chunk, seed)
    if missing is not None:
        raise missing_score(missing, variant)


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
    uq_cfg, memo = _uq_config(args), {}
    owners: dict[str, str] = {}  # --dump-density file name -> the first id written to it
    clash, n_records = None, 0
    with atomic_writer(args.output) as fh:
        for chunk in _read(args.input):  # a chunk at a time: read, score, write
            scores = score_columns(chunk.points, chunk.offsets, chunk.dims, uq_cfg, memo)
            write_columns(fh, chunk, mlg_column(chunk, args.seed), scores)
            n_records += len(chunk)
            for rec_id in chunk.ids if args.dump_density else ():
                name = _dump_name(rec_id)
                if owners.setdefault(name, rec_id) != rec_id and clash is None:
                    clash = f"--dump-density: ids {owners[name]!r} and {rec_id!r} would both be written to {name}"
        if clash:  # raised inside the writer, so no scored file is left either
            raise CliError(clash)
    if args.dump_density:  # from the finished file, so that a failure anywhere in the input leaves no dump
        os.makedirs(args.dump_density, exist_ok=True)
        for chunk in _read(args.output):
            bounds = chunk.offsets.tolist()
            for rec_id, dims, a, b in zip(chunk.ids, chunk.dims, bounds, bounds[1:]):
                cloud = chunk.points[a : min(b, a + uq_cfg.k_samples)].tolist()
                grid_w, patches = occupied_patches(cloud, dims, uq_cfg.patch_size)
                _write_csv(os.path.join(args.dump_density, _dump_name(rec_id)), ["row", "col", "value"],
                           [(*divmod(cell, grid_w), value) for cell, value in patches])
    print(f"scored {n_records} records -> {args.output}")
    return 0


def cmd_calibrate(args) -> int:
    spec = RiskSpec(alpha=args.alpha, delta=args.delta)
    plan = _split_plan(args)
    variant = _check_variant(args.variant)
    u, adm = _stacked([(u, adm) for _, u, adm in _scored_chunks(args.input, variant, args.seed)], 2)

    single = plan.repetitions == 1
    if not single:
        os.makedirs(args.out, exist_ok=True)
    fdrs = []
    for rep in range(plan.repetitions):
        cal, test = split_indices(u.size, plan, rep)
        outcome = calibrate_threshold(u[cal], ~adm[cal], spec)  # the full trace, for the artifact
        if outcome.feasible:
            fdrs.append(engine.split_counts(u[test], adm[test], outcome.threshold).fdr)
        path = args.out if single else os.path.join(args.out, f"calibration_r{rep:03d}.json")
        _write_json(path, _artifact_obj(outcome, spec, variant))
    infeasible = plan.repetitions - len(fdrs)
    mean, std = _mean_std(fdrs)
    if not single:
        _write_json(os.path.join(args.out, "summary.json"), {
            "alpha": spec.alpha,
            "delta": spec.delta,
            "uq_variant": variant,
            "repetitions": plan.repetitions,
            "calibration_ratio": plan.calibration_ratio,
            "seed": args.seed,
            "infeasible_splits": infeasible,
            "test_fdr": {"mean": mean, "std": std} if fdrs else None,
        })
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
    _distinct_outputs(args, "--report", "--roc-csv", "--arc-csv")
    spec = RiskSpec(alpha=args.alpha, delta=args.delta)
    plan = _split_plan(args)
    variant = _check_variant(args.variant)
    u, adm = _stacked([(u, adm) for _, u, adm in _scored_chunks(args.input, variant, args.seed)], 2)

    per_split: dict[str, list[float]] = {k: [] for k in ("auroc", "auarc", "test_fdr", "power", "n_accepted")}
    for rep, (test, (counts,)) in enumerate(engine.run_splits(u, adm, plan, [spec.alpha], spec.delta)):
        try:
            per_split["auroc"].append(metrics_mod.auroc(u[test], adm[test]))
        except metrics_mod.MetricError as exc:
            raise CliError(f"repetition {rep}: {exc}")
        per_split["auarc"].append(metrics_mod.auarc(u[test], adm[test]))
        if counts is not None:
            per_split["test_fdr"].append(counts.fdr)
            per_split["power"].append(counts.power)
            per_split["n_accepted"].append(float(counts.n_accepted))

    report_obj = {
        "input": args.input,
        "variant": variant,
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
            "auroc": metrics_mod.auroc(u, adm),
            "auarc": metrics_mod.auarc(u, adm),
        },
    }
    print(json.dumps(report_obj, indent=2))
    if args.report:
        _write_json(args.report, report_obj)
    if args.roc_csv:
        _write_csv(args.roc_csv, ["fpr", "tpr"], metrics_mod.roc_points(u, adm))
    if args.arc_csv:
        _write_csv(args.arc_csv, ["rejection_rate", "accuracy"], metrics_mod.arc_points(u, adm))
    return 0


def _threshold_from_args(args) -> tuple[float, float | None, str | None]:
    """(threshold, alpha, variant) from --tau or a calibration artifact."""
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
    _distinct_outputs(args, "--report", "--manifest", "--csv")
    threshold, alpha, artifact_variant = _threshold_from_args(args)
    # the flag, then the artifact's variant, then the config file's, then com
    variant = _check_variant(args.variant or artifact_variant or args.fallback_variant)
    ids, instructions, per_chunk = [], [], []
    for chunk, u, adm in _scored_chunks(args.input, variant, args.seed):
        ids += chunk.ids
        instructions += chunk.instructions
        per_chunk.append((u, adm, *_expert(chunk)))
    report, deferred = cascade_mod.route(*_stacked(per_chunk, 4), ids, threshold)

    report_obj = {
        "input": args.input,
        "variant": variant,
        "threshold": threshold,
        "alpha": alpha,
        **asdict(report),
    }
    print(json.dumps(report_obj, indent=2))
    if args.report:
        _write_json(args.report, report_obj)
    if args.manifest:
        written = cascade_mod.write_manifest(args.manifest, ids, instructions, deferred)
        print(f"deferral manifest: {len(written)} records -> {args.manifest}", file=sys.stderr)
    if args.csv:
        label = args.label or os.path.basename(args.input)
        _append_csv_row(args.csv, CASCADE_CSV_HEADER, [label] + [report_obj[k] for k in CASCADE_CSV_HEADER[1:]])
    return 0


def _combo_rows(u, adm, expert, plan, alphas, delta, splits) -> tuple[list, list[list]]:
    """One sweep combination's AUROC/AUARC and its per-alpha risk columns.

    `u` is None when the variant is absent from the records ("--" style
    empty columns); `splits` is `engine.run_splits`' index-array cache.
    """
    if u is None:
        return [None, None], [[alpha, delta] + [None] * 11 for alpha in alphas]
    feasible: list[list[engine.SplitCounts]] = [[] for _ in alphas]
    for _, per_alpha in engine.run_splits(u, adm, plan, alphas, delta, expert, splits):
        for kept, counts in zip(feasible, per_alpha):
            if counts is not None:
                kept.append(counts)
    risk = []
    for alpha, kept in zip(alphas, feasible):
        cascaded = kept if expert is not None else []
        risk.append(
            [alpha, delta, len(kept), plan.repetitions - len(kept)]
            + _mean_std([c.tau for c in kept])[:1]
            + _mean_std([c.fdr for c in kept])
            + _mean_std([c.power for c in kept])
            + _mean_std([c.system_accuracy for c in cascaded])
            + _mean_std([c.cascading_rate for c in cascaded])
        )
    return [metrics_mod.auroc(u, adm), metrics_mod.auarc(u, adm)], risk


def cmd_sweep(args) -> int:
    base_uq = _uq_config(args)
    alphas, variants, presets = args.alphas, args.variants, args.weight_presets
    k_values = args.k_values if args.k_values is not None else [base_uq.k_samples]
    for alpha in alphas:
        try:
            RiskSpec(alpha=alpha, delta=args.delta)
        except ValueError as exc:
            raise CliError(f"--alphas: {exc}")
    for k in k_values:
        if k < 1:
            raise CliError(f"--k-values: k must be >= 1, got {k}")
    for variant in variants:
        _check_variant(variant)
    for preset in presets:
        if preset not in WEIGHT_PRESETS:
            raise CliError(f"unknown weight preset {preset!r}; expected one of {sorted(WEIGHT_PRESETS)}")
    plan = _split_plan(args)

    ranking_rows: list[list] = []
    risk_rows: list[list] = []
    for path in args.inputs:
        dims, per_chunk = [], []
        for chunk in _read(path):  # the sample column is kept: it is re-scored at each k
            dims += chunk.dims
            per_chunk.append((chunk.points, np.diff(chunk.offsets), _admissible(chunk, args.seed), *_expert(chunk),
                              chunk.pc))
        if not dims:
            raise CliError(f"{path}: no records")
        name = os.path.basename(path)
        points, sizes, adm, expert, has_expert, pc = _stacked(per_chunk, 6)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        expert = expert if has_expert.all() else None
        base_accuracy = int(adm.sum()) / adm.size
        splits: dict = {}  # the same index arrays serve every combination
        memo: dict = {}  # the score row of each ranked-score tuple, per k

        def emit(head: list, ranking: list, risk: list[list]) -> None:
            ranking_rows.append(head + ranking + [base_accuracy])
            risk_rows.extend(head + row for row in risk)

        # component scores are computed once per k; only com depends on the weight
        # preset, so ta, ie and cd get one key per k and their rows are repeated
        # under every preset
        rows: dict[tuple, tuple[list, list[list]]] = {}  # per key: its ranking tail and risk tails
        for k in k_values:
            scores = score_columns(points, offsets, dims, replace(base_uq, k_samples=k), memo)
            parts = dict(zip(UQ_KEYS, scores.T))
            for preset in presets:
                for variant in variants:
                    if variant == "pc":
                        continue
                    key = (variant, k, preset if variant == "com" else None)
                    if key not in rows:
                        u = parts[variant] if variant != "com" else combine(
                            parts["cd"], parts["ie"], parts["ta"], WEIGHT_PRESETS[preset]
                        )
                        rows[key] = _combo_rows(u, adm, expert, plan, alphas, args.delta, splits)
                    emit([name, variant, preset, k], *rows[key])
        if "pc" in variants:
            u = None if np.isnan(pc).any() else pc
            emit([name, "pc", None, None], *_combo_rows(u, adm, expert, plan, alphas, args.delta, splits))

    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(args.out_dir, "ranking.csv"),
        ["input", "variant", "weights", "k", "auroc", "auarc", "accuracy"],
        ranking_rows,
    )
    _write_csv(
        os.path.join(args.out_dir, "risk.csv"),
        [
            "input", "variant", "weights", "k", "alpha", "delta",
            "feasible_splits", "infeasible_splits", "tau_mean",
            "test_fdr_mean", "test_fdr_std", "power_mean", "power_std",
            "system_accuracy_mean", "system_accuracy_std",
            "cascading_rate_mean", "cascading_rate_std",
        ],
        risk_rows,
    )
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
    records = _Generated(_synth_config(args))
    save_records(args.out, records)  # each chunk is written before the next is drawn
    print(f"generated {len(records)} records -> {args.out}")
    return 0


def cmd_guarantee(args) -> int:
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
    print(json.dumps(obj, indent=2))
    if args.out_csv:
        _write_csv(
            args.out_csv,
            ["trial", "feasible", "tau", "test_fdr"],
            [[o.trial, o.feasible, o.tau, o.test_fdr] for o in outcomes],
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing: every setting's value is resolved here, so `vars(args)`
# holds what a run used. An explicit flag wins over the config file, and the
# config file over the built-in default.

class _ListFlag(argparse.Action):
    """A comma-separated list flag whose entries take `cast`; an empty value keeps the default."""

    def __init__(self, *args, cast, **kwargs):
        super().__init__(*args, **kwargs)
        self.cast = cast

    def __call__(self, parser, namespace, text, option_string=None):
        items = []
        for entry in filter(None, text.split(",")):
            try:
                items.append(self.cast(entry))
            except ValueError:
                raise CliError(f"{option_string}: cannot read {entry!r} as {self.cast.__name__}") from None
        if items:
            setattr(namespace, self.dest, items)


def _add_uq_flags(parser: argparse.ArgumentParser, setting, with_k: bool = True) -> None:
    if with_k:
        parser.add_argument("--k-samples", type=int, help="use only the first K samples of each record")
    # sweep has no --k-samples, but its k falls back to this value
    parser.set_defaults(k_samples=setting("uq.k_samples", UqConfig.k_samples))
    parser.add_argument("--patch-size", type=int, default=setting("uq.patch_size", UqConfig.patch_size),
                        help="patch size in pixels")
    parser.add_argument("--beta", type=float, default=setting("uq.beta", UqConfig.beta),
                        help="region threshold ratio in [0,1)")
    parser.add_argument("--epsilon", type=float, default=setting("uq.epsilon", UqConfig.epsilon),
                        help="numerical stability term")
    # argparse also casts a string default, so a config file's preset name arrives as a tuple
    parser.add_argument("--weights", type=_parse_weights, default=setting("uq.weights", UqConfig.weights),
                        help="component weights: preset name or 'w_cd,w_ie,w_ta'")


def _add_risk_flags(parser: argparse.ArgumentParser, setting, default_alpha: float = DEFAULT_ALPHA) -> None:
    parser.add_argument("--alpha", type=float, default=setting("risk.alpha", default_alpha),
                        help="target risk level in (0,1)")
    parser.add_argument("--delta", type=float, default=setting("risk.delta", DEFAULT_DELTA),
                        help="significance level in (0,1)")


def _add_split_flags(parser: argparse.ArgumentParser, setting) -> None:
    parser.add_argument("--ratio", type=float, default=setting("split.calibration_ratio", 0.2),
                        help="calibration split ratio in (0,1)")
    parser.add_argument("--repetitions", "-r", type=int, default=setting("split.repetitions", 100),
                        help="number of repeated calibration/test splits")


def _add_synth_flags(parser: argparse.ArgumentParser) -> None:
    for f in SYNTH_FLAGS:
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with a loaded config file's settings (`_load_config`) as its defaults."""
    setting = (config or {}).get
    parser = argparse.ArgumentParser(
        prog="clickrisk",
        description="Risk-controlled accept/defer decisions for recorded GUI-grounding predictions.",
    )
    parser.add_argument("--seed", type=int, default=setting("seed", 0), help="global random seed (default 0)")
    parser.add_argument("--config", default=None, help="JSON config file with defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="append spatial uncertainty scores to a record file")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    _add_uq_flags(p, setting)
    p.add_argument("--dump-density", default=None, metavar="DIR",
                   help="also write each record's occupied patches as row,col,value CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("calibrate", help="calibrate an acceptance threshold with an FDR bound")
    p.add_argument("--input", "-i", required=True, help="scored record file")
    p.add_argument("--out", "-o", required=True, help="artifact file (or directory when --repetitions > 1)")
    p.add_argument("--variant", default=setting("variant", "com"), choices=VARIANTS)
    _add_risk_flags(p, setting)
    _add_split_flags(p, setting)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="selective-prediction metrics over repeated splits")
    p.add_argument("--input", "-i", required=True, help="scored record file")
    p.add_argument("--variant", default=setting("variant", "com"), choices=VARIANTS)
    _add_risk_flags(p, setting)
    _add_split_flags(p, setting)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--roc-csv", default=None, help="write full-dataset ROC curve CSV")
    p.add_argument("--arc-csv", default=None, help="write full-dataset accuracy-rejection CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cascade", help="apply a threshold: accept locally or defer to the expert")
    p.add_argument("--input", "-i", required=True, help="scored record file (test set)")
    p.add_argument("--tau", type=float, default=None, help="explicit threshold")
    p.add_argument("--artifact", default=None, help="calibration artifact supplying the threshold")
    p.add_argument("--variant", default=None, choices=VARIANTS)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--manifest", default=None, help="write deferral manifest (JSONL) here")
    p.add_argument("--csv", default=None, help="append a summary CSV row here")
    p.add_argument("--label", default=None, help="label for the CSV row (default: input basename)")
    p.set_defaults(func=cmd_cascade, fallback_variant=setting("variant", "com"))

    p = sub.add_parser("sweep", help="grid of (alpha x variant x weights x K) over input files")
    p.add_argument("--inputs", "-i", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--alphas", action=_ListFlag, cast=float, default=setting("sweep.alphas", [DEFAULT_ALPHA]),
                   help="comma-separated risk levels")
    p.add_argument("--variants", action=_ListFlag, cast=str, default=setting("sweep.variants", ["com"]),
                   help="comma-separated uncertainty variants")
    p.add_argument("--weight-presets", action=_ListFlag, cast=str,
                   default=setting("sweep.weight_presets", ["original"]),
                   help=f"comma-separated presets from {sorted(WEIGHT_PRESETS)}")
    p.add_argument("--k-values", action=_ListFlag, cast=int, default=setting("sweep.k_values"),
                   help="comma-separated sample budgets")
    p.add_argument("--delta", type=float, default=setting("risk.delta", DEFAULT_DELTA))
    _add_split_flags(p, setting)
    _add_uq_flags(p, setting, with_k=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic grounding dataset")
    p.add_argument("--out", "-o", required=True)
    _add_synth_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("guarantee", help="Monte Carlo validation of the FDR guarantee")
    p.add_argument("--trials", type=int, default=1000)
    _add_risk_flags(p, setting, 0.2)
    p.add_argument("--ratio", type=float, default=setting("split.calibration_ratio", 0.5),
                   help="calibration split ratio (default 0.5)")
    p.add_argument("--out-csv", default=None, help="write per-trial results here")
    _add_synth_flags(p)
    p.set_defaults(func=cmd_guarantee)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config is not None:  # parse again, with the file's settings as the defaults
            args = build_parser(_load_config(args.config)).parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:  # ValueError covers RecordError and MissingScoreError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

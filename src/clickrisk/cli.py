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
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import cascade as cascade_mod
from . import engine
from . import metrics as metrics_mod
from .records import (
    GroundingRecord,
    RecordError,
    SplitPlan,
    atomic_writer,
    load_records,
    save_records,
    select_mlg,
    split_indices,
    with_mlg,
)
from .density import build_density_map, density_csv_rows
from .risk import CalibrationOutcome, RiskSpec, calibrate_threshold
from .synthgen import SynthConfig, generate_dataset, run_guarantee_trials
from .uq import (
    SCORE_CHUNK,
    VARIANTS,
    WEIGHT_PRESETS,
    UqConfig,
    attach_score,
    combine,
    score_batch,
    variant_value,
)

# Unused here, but bench/spans.py wraps them at these bindings.
from .records import split  # noqa: F401
from .uq import score_record  # noqa: F401

DEFAULT_ALPHA = 0.1
DEFAULT_GUARANTEE_ALPHA = 0.2
DEFAULT_DELTA = 0.05
DEFAULT_RATIO = 0.2
DEFAULT_REPETITIONS = 100


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
    with atomic_writer(path) as fh:
        fh.write(existing or expected + "\n")
        csv.writer(fh, lineterminator="\n").writerow([_fmt(v) for v in row])


def _write_json(path: str, obj) -> None:
    with atomic_writer(path) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _load_scored(path: str) -> list[GroundingRecord]:
    try:
        return load_records(path)
    except FileNotFoundError:
        raise CliError(f"input file not found: {path}")
    except RecordError as exc:
        raise CliError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# configuration resolution

def _list_of(cast):
    """Cast for a JSON list whose every item takes `cast`."""
    def parse(value) -> list:
        if not isinstance(value, list):
            raise TypeError(value)
        return [cast(v) for v in value]
    return parse


# The config-file values the subcommands read, as "section.key", grouped by
# the cast each gets when the file is loaded and what that cast accepts.
CONFIG_FIELDS = {
    "an integer": (int, ("seed", "uq.k_samples", "uq.patch_size", "split.repetitions")),
    "a number": (float, ("uq.beta", "uq.epsilon", "risk.alpha", "risk.delta", "split.calibration_ratio")),
    "a preset name or a list of numbers": (
        lambda v: v if isinstance(v, str) else tuple(_list_of(float)(v)), ("uq.weights",)),
    "a list of numbers": (_list_of(float), ("sweep.alphas",)),
    "a list of integers": (_list_of(int), ("sweep.k_values",)),
    "a list of names": (_list_of(str), ("sweep.variants", "sweep.weight_presets")),
}


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


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = _load_json_object(path, "config file")
    for kind, (cast, names) in CONFIG_FIELDS.items():
        for field in names:
            section, _, key = field.rpartition(".")
            table = cfg.get(section, {}) if section else cfg
            if not isinstance(table, dict):
                raise CliError(f"config file {path}: {section} must be a JSON object, got {json.dumps(table)}")
            if key in table:
                try:
                    table[key] = cast(table[key])
                except (TypeError, ValueError, OverflowError):
                    raise CliError(f"config file {path}: {field} must be {kind}, got {json.dumps(table[key])}")
    return cfg


def _pick(cli_value, config: dict, section: str, key: str, default):
    if cli_value is not None:
        return cli_value
    return config.get(section, {}).get(key, default)


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


def _resolve_uq_config(args, config: dict) -> UqConfig:
    weights = _pick(args.weights, config, "uq", "weights", UqConfig.weights)
    return UqConfig(
        k_samples=_pick(getattr(args, "k_samples", None), config, "uq", "k_samples", UqConfig.k_samples),
        patch_size=_pick(args.patch_size, config, "uq", "patch_size", UqConfig.patch_size),
        beta=_pick(args.beta, config, "uq", "beta", UqConfig.beta),
        epsilon=_pick(args.epsilon, config, "uq", "epsilon", UqConfig.epsilon),
        weights=_parse_weights(weights) if isinstance(weights, str) else weights,
    )


def _resolve_risk_spec(args, config: dict, default_alpha: float = DEFAULT_ALPHA) -> RiskSpec:
    return RiskSpec(
        alpha=_pick(args.alpha, config, "risk", "alpha", default_alpha),
        delta=_pick(args.delta, config, "risk", "delta", DEFAULT_DELTA),
    )


def _resolve_split_plan(args, config: dict, seed: int) -> SplitPlan:
    return SplitPlan(
        calibration_ratio=_pick(args.ratio, config, "split", "calibration_ratio", DEFAULT_RATIO),
        seed=seed,
        repetitions=_pick(args.repetitions, config, "split", "repetitions", DEFAULT_REPETITIONS),
    )


# The synthetic generator's knobs, one flag each (--n-records, ...).
SYNTH_FLAGS = tuple(f for f in fields(SynthConfig) if f.name != "seed")


def _synth_config(args, seed: int) -> SynthConfig:
    return SynthConfig(seed=seed, **{f.name: getattr(args, f.name) for f in SYNTH_FLAGS})


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise CliError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return variant


def _resolve_variant(args, config: dict) -> str:
    return _check_variant(args.variant if args.variant is not None else config.get("variant", "com"))


def _resolve_seed(args, config: dict) -> int:
    return args.seed if args.seed is not None else config.get("seed", 0)


# ---------------------------------------------------------------------------
# shared evaluation plumbing: per-record vectors for the split engine

def _variant_values(records: list[GroundingRecord], variant: str) -> np.ndarray:
    return np.array([variant_value(r, variant) for r in records], dtype=float)


def _admissible(records: list[GroundingRecord], seed: int) -> np.ndarray:
    return np.array([metrics_mod.admission(select_mlg(r, seed), r.gt_box) for r in records], dtype=bool)


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

def _density_dump_names(records: list[GroundingRecord]) -> list[str]:
    """One CSV file name per record; fails if two ids would share a file."""
    owners: dict[str, str] = {}
    for record in records:
        safe_id = "".join(c if c.isalnum() or c in "-_." else "_" for c in record.id)
        name = f"{safe_id}.csv"
        if name in owners:
            raise CliError(
                f"--dump-density: ids {owners[name]!r} and {record.id!r} would both be written to {name}"
            )
        owners[name] = record.id
    return list(owners)


def cmd_score(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    uq_cfg = _resolve_uq_config(args, config)
    records = _load_scored(args.input)
    dump_names = _density_dump_names(records) if args.dump_density else []
    # a chunk at a time, so the whole file's scores never sit beside the scored copies
    scored: list[GroundingRecord] = []
    for start in range(0, len(records), SCORE_CHUNK):
        chunk = records[start : start + SCORE_CHUNK]
        scored.extend(attach_score(with_mlg(r, seed), s) for r, s in zip(chunk, score_batch(chunk, uq_cfg)))
    save_records(args.output, scored)
    if args.dump_density:
        os.makedirs(args.dump_density, exist_ok=True)
        for record, name in zip(scored, dump_names):
            dmap = build_density_map(
                record.samples[: uq_cfg.k_samples],
                (record.image_width, record.image_height),
                uq_cfg.patch_size,
            )
            _write_csv(
                os.path.join(args.dump_density, name),
                [f"c{j}" for j in range(dmap.grid_w)],
                density_csv_rows(dmap),
            )
    print(f"scored {len(scored)} records -> {args.output}")
    return 0


def cmd_calibrate(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    spec = _resolve_risk_spec(args, config)
    plan = _resolve_split_plan(args, config, seed)
    variant = _resolve_variant(args, config)
    records = _load_scored(args.input)
    u = _variant_values(records, variant)
    adm = _admissible(records, seed)

    single = plan.repetitions == 1
    if not single:
        os.makedirs(args.out, exist_ok=True)
    fdrs = []
    for rep in range(plan.repetitions):
        cal, test = split_indices(len(records), plan, rep)
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
            "seed": seed,
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


def cmd_evaluate(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    spec = _resolve_risk_spec(args, config)
    plan = _resolve_split_plan(args, config, seed)
    variant = _resolve_variant(args, config)
    records = _load_scored(args.input)
    u = _variant_values(records, variant)
    adm = _admissible(records, seed)

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
        "seed": seed,
        "n_records": len(records),
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
        return args.tau, None, None
    if not args.artifact:
        raise CliError("provide either --tau or --artifact")
    artifact = _load_json_object(args.artifact, "artifact")
    threshold = artifact.get("threshold")
    if not artifact.get("feasible") or threshold is None:
        raise CliError(
            f"artifact {args.artifact} is infeasible; no threshold available for cascading"
        )
    if not isinstance(threshold, (int, float)):
        raise CliError(f"artifact {args.artifact}: threshold must be a number, got {json.dumps(threshold)}")
    return float(threshold), artifact.get("alpha"), artifact.get("uq_variant")


CASCADE_CSV_HEADER = [
    "label", "alpha", "variant", "threshold", "system_accuracy",
    "primary_accuracy", "expert_only_accuracy", "cascading_rate",
    "n_total", "n_accepted", "n_deferred",
]


def cmd_cascade(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    threshold, alpha, artifact_variant = _threshold_from_args(args)
    variant = _check_variant(args.variant or artifact_variant or config.get("variant", "com"))
    records = _load_scored(args.input)
    u = _variant_values(records, variant).tolist()
    report = cascade_mod.evaluate_cascade(records, u, threshold, mlg_seed=seed)

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
        ids = cascade_mod.emit_deferrals(records, u, threshold, args.manifest)
        print(f"deferral manifest: {len(ids)} records -> {args.manifest}", file=sys.stderr)
    if args.csv:
        label = args.label or os.path.basename(args.input)
        _append_csv_row(args.csv, CASCADE_CSV_HEADER, [label] + [report_obj[k] for k in CASCADE_CSV_HEADER[1:]])
    return 0


def _list_option(text: str | None, sweep_cfg: dict, key: str, default: list, cast) -> list:
    """A comma-separated flag, else the config file's "sweep" list, else `default`."""
    return [cast(part) for part in text.split(",") if part] if text else sweep_cfg.get(key, default)


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


def cmd_sweep(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    delta = _pick(args.delta, config, "risk", "delta", DEFAULT_DELTA)
    base_uq = _resolve_uq_config(args, config)
    sweep_cfg = config.get("sweep", {})
    alphas = _list_option(args.alphas, sweep_cfg, "alphas", [DEFAULT_ALPHA], float)
    variants = _list_option(args.variants, sweep_cfg, "variants", ["com"], str)
    presets = _list_option(args.weight_presets, sweep_cfg, "weight_presets", ["original"], str)
    k_values = _list_option(args.k_values, sweep_cfg, "k_values", [base_uq.k_samples], int)
    for alpha in alphas:
        try:
            RiskSpec(alpha=alpha, delta=delta)
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
    plan = _resolve_split_plan(args, config, seed)

    ranking_rows: list[list] = []
    risk_rows: list[list] = []
    for path in args.inputs:
        records = _load_scored(path)
        if not records:
            raise CliError(f"{path}: no records")
        name = os.path.basename(path)
        adm = _admissible(records, seed)
        expert = None
        if all(r.expert is not None for r in records):
            expert = np.array([metrics_mod.admission(r.expert, r.gt_box) for r in records], dtype=bool)
        base_accuracy = int(adm.sum()) / adm.size

        # uncertainty values per combination, component scores computed once per k;
        # only com depends on the weight preset, so ta, ie and cd get one key per k
        # and their rows are repeated under every preset
        combos: list[tuple[list, tuple]] = []  # (row head, key into `values`)
        values: dict[tuple, np.ndarray | None] = {}
        for k in k_values:
            scores = score_batch(records, replace(base_uq, k_samples=k))
            parts = {v: np.array([getattr(s, v) for s in scores]) for v in ("ta", "ie", "cd")}
            for preset in presets:
                for variant in variants:
                    if variant == "pc":
                        continue
                    key = (variant, k, preset if variant == "com" else None)
                    if key not in values:
                        values[key] = parts[variant] if variant != "com" else combine(
                            parts["cd"], parts["ie"], parts["ta"], WEIGHT_PRESETS[preset]
                        )
                    combos.append(([name, variant, preset, k], key))
        if "pc" in variants:
            has_pc = all(r.pc is not None for r in records)
            values[("pc", None, None)] = np.array([r.pc for r in records], dtype=float) if has_pc else None
            combos.append(([name, "pc", None, None], ("pc", None, None)))

        splits: dict = {}  # the same index arrays serve every combination
        rows: dict[tuple, tuple[list, list[list]]] = {}  # per key: its ranking tail and risk tails
        for head, key in combos:
            if key not in rows:
                rows[key] = _combo_rows(values[key], adm, expert, plan, alphas, delta, splits)
            ranking, risk = rows[key]
            ranking_rows.append(head + ranking + [base_accuracy])
            risk_rows.extend(head + row for row in risk)

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


def cmd_synth(args, config: dict) -> int:
    records = generate_dataset(_synth_config(args, _resolve_seed(args, config)))
    save_records(args.out, records)
    print(f"generated {len(records)} records -> {args.out}")
    return 0


def cmd_guarantee(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    cfg = _synth_config(args, seed)
    spec = _resolve_risk_spec(args, config, DEFAULT_GUARANTEE_ALPHA)
    ratio = _pick(args.ratio, config, "split", "calibration_ratio", 0.5)
    result, outcomes = run_guarantee_trials(cfg, spec.alpha, spec.delta, args.trials, calibration_ratio=ratio)
    obj = {
        "alpha": spec.alpha,
        "delta": spec.delta,
        "trials": result.trials,
        "violations": result.violations,
        "infeasible": result.infeasible,
        "violation_rate": result.violation_rate,
        "calibration_ratio": ratio,
        "seed": seed,
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
# argument parsing

def _add_uq_flags(parser: argparse.ArgumentParser, with_k: bool = True) -> None:
    if with_k:
        parser.add_argument("--k-samples", type=int, default=None,
                            help="use only the first K samples of each record")
    parser.add_argument("--patch-size", type=int, default=None, help="patch size in pixels")
    parser.add_argument("--beta", type=float, default=None, help="region threshold ratio in [0,1)")
    parser.add_argument("--epsilon", type=float, default=None, help="numerical stability term")
    parser.add_argument("--weights", default=None, help="component weights: preset name or 'w_cd,w_ie,w_ta'")


def _add_risk_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None, help="target risk level in (0,1)")
    parser.add_argument("--delta", type=float, default=None, help="significance level in (0,1)")


def _add_split_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ratio", type=float, default=None, help="calibration split ratio in (0,1)")
    parser.add_argument("--repetitions", "-r", type=int, default=None,
                        help="number of repeated calibration/test splits")


def _add_synth_flags(parser: argparse.ArgumentParser) -> None:
    for f in SYNTH_FLAGS:
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clickrisk",
        description="Risk-controlled accept/defer decisions for recorded GUI-grounding predictions.",
    )
    parser.add_argument("--seed", type=int, default=None, help="global random seed (default 0)")
    parser.add_argument("--config", default=None, help="JSON config file with defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="append spatial uncertainty scores to a record file")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    _add_uq_flags(p)
    p.add_argument("--dump-density", default=None, metavar="DIR",
                   help="also write each record's density map as a CSV grid")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("calibrate", help="calibrate an acceptance threshold with an FDR bound")
    p.add_argument("--input", "-i", required=True, help="scored record file")
    p.add_argument("--out", "-o", required=True, help="artifact file (or directory when --repetitions > 1)")
    p.add_argument("--variant", default=None, choices=VARIANTS)
    _add_risk_flags(p)
    _add_split_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="selective-prediction metrics over repeated splits")
    p.add_argument("--input", "-i", required=True, help="scored record file")
    p.add_argument("--variant", default=None, choices=VARIANTS)
    _add_risk_flags(p)
    _add_split_flags(p)
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
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("sweep", help="grid of (alpha x variant x weights x K) over input files")
    p.add_argument("--inputs", "-i", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--alphas", default=None, help="comma-separated risk levels")
    p.add_argument("--variants", default=None, help="comma-separated uncertainty variants")
    p.add_argument("--weight-presets", default=None, help=f"comma-separated presets from {sorted(WEIGHT_PRESETS)}")
    p.add_argument("--k-values", default=None, help="comma-separated sample budgets")
    p.add_argument("--delta", type=float, default=None)
    _add_split_flags(p)
    _add_uq_flags(p, with_k=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic grounding dataset")
    p.add_argument("--out", "-o", required=True)
    _add_synth_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("guarantee", help="Monte Carlo validation of the FDR guarantee")
    p.add_argument("--trials", type=int, default=1000)
    _add_risk_flags(p)
    p.add_argument("--ratio", type=float, default=None, help="calibration split ratio (default 0.5)")
    p.add_argument("--out-csv", default=None, help="write per-trial results here")
    _add_synth_flags(p)
    p.set_defaults(func=cmd_guarantee)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (CliError, ValueError, OSError) as exc:  # ValueError covers RecordError and MissingScoreError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

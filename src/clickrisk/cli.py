"""Command-line pipeline: score, calibrate, evaluate, cascade, sweep, synth, guarantee.

Stages communicate through files (line-delimited records, JSON artifacts,
CSV tables) so long experiments can be resumed and reproduced. All output
files are written atomically (write-then-rename) and every run is
deterministic given its inputs, configuration, and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

from . import cascade as cascade_mod
from . import metrics as metrics_mod
from .records import (
    GroundingRecord,
    RecordError,
    SplitPlan,
    load_records,
    save_records,
    select_mlg,
    split,
    with_mlg,
)
from .density import build_density_map, density_csv_rows
from .risk import CalibrationOutcome, RiskSpec, calibrate_threshold
from .synthgen import SynthConfig, generate_dataset, run_guarantee_trials
from .uq import (
    VARIANTS,
    WEIGHT_PRESETS,
    MissingScoreError,
    UqConfig,
    attach_score,
    combine,
    score_record,
    variant_value,
)

DEFAULT_ALPHA = 0.1
DEFAULT_GUARANTEE_ALPHA = 0.2
DEFAULT_DELTA = 0.05
DEFAULT_RATIO = 0.2
DEFAULT_REPETITIONS = 100


class CliError(Exception):
    """Operational failure that should stop the command with a nonzero exit."""


# ---------------------------------------------------------------------------
# file helpers

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write(path, buf.getvalue())


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2) + "\n")


def _load_scored(path: str) -> list[GroundingRecord]:
    try:
        return load_records(path)
    except FileNotFoundError:
        raise CliError(f"input file not found: {path}")
    except RecordError as exc:
        raise CliError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# configuration resolution

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path}: invalid JSON: {exc.msg}")
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path}: expected a JSON object")
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
    weights = _pick(args.weights, config, "uq", "weights", None)
    if isinstance(weights, str):
        weights = _parse_weights(weights)
    elif isinstance(weights, list):
        weights = tuple(float(w) for w in weights)
    cfg = UqConfig(
        k_samples=int(_pick(getattr(args, "k_samples", None), config, "uq", "k_samples", UqConfig.k_samples)),
        patch_size=int(_pick(args.patch_size, config, "uq", "patch_size", UqConfig.patch_size)),
        beta=float(_pick(args.beta, config, "uq", "beta", UqConfig.beta)),
        epsilon=float(_pick(args.epsilon, config, "uq", "epsilon", UqConfig.epsilon)),
        weights=weights if weights is not None else UqConfig.weights,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise CliError(str(exc))
    return cfg


def _resolve_risk_spec(args, config: dict) -> RiskSpec:
    spec = RiskSpec(
        alpha=float(_pick(args.alpha, config, "risk", "alpha", DEFAULT_ALPHA)),
        delta=float(_pick(args.delta, config, "risk", "delta", DEFAULT_DELTA)),
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise CliError(str(exc))
    return spec


def _resolve_split_plan(args, config: dict, seed: int) -> SplitPlan:
    plan = SplitPlan(
        calibration_ratio=float(_pick(args.ratio, config, "split", "calibration_ratio", DEFAULT_RATIO)),
        seed=seed,
        repetitions=int(_pick(args.repetitions, config, "split", "repetitions", DEFAULT_REPETITIONS)),
    )
    try:
        plan.validate()
    except ValueError as exc:
        raise CliError(str(exc))
    return plan


def _resolve_variant(args, config: dict) -> str:
    variant = args.variant if args.variant is not None else config.get("variant", "com")
    if variant not in VARIANTS:
        raise CliError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return variant


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return args.seed
    return int(config.get("seed", 0))


# ---------------------------------------------------------------------------
# shared evaluation plumbing

def _variant_values(records: list[GroundingRecord], variant: str) -> list[float]:
    try:
        return [variant_value(r, variant) for r in records]
    except MissingScoreError as exc:
        raise CliError(str(exc))


def _admission_flags(records: list[GroundingRecord], seed: int) -> list[int]:
    return [metrics_mod.admission(select_mlg(r, seed), r.gt_box) for r in records]


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
    scored = []
    for record in records:
        record = with_mlg(record, seed)
        scored.append(attach_score(record, score_record(record, uq_cfg)))
    save_records(args.output, scored)
    if args.dump_density:
        os.makedirs(args.dump_density, exist_ok=True)
        for record, name in zip(scored, dump_names):
            dmap = build_density_map(
                record.samples[: uq_cfg.k_samples],
                (record.image_width, record.image_height),
                uq_cfg.patch_size,
            )
            rows = [list(row) for row in density_csv_rows(dmap)]
            _write_csv(
                os.path.join(args.dump_density, name),
                [f"c{j}" for j in range(dmap.grid_w)],
                rows,
            )
    print(f"scored {len(scored)} records -> {args.output}")
    return 0


def _calibrate_one(
    records: list[GroundingRecord], plan: SplitPlan, rep: int, spec: RiskSpec, variant: str, seed: int
) -> tuple[CalibrationOutcome, float | None]:
    """Calibrate on the rep-th calibration split; test FDR at the threshold."""
    cal, test = split(records, plan, rep)
    cal_u = _variant_values(cal, variant)
    cal_adm = _admission_flags(cal, seed)
    outcome = calibrate_threshold(cal_u, [1 - a for a in cal_adm], spec)
    if not outcome.feasible:
        return outcome, None
    test_u = _variant_values(test, variant)
    test_adm = _admission_flags(test, seed)
    return outcome, metrics_mod.fdr_at(test_u, test_adm, outcome.threshold)


def cmd_calibrate(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    spec = _resolve_risk_spec(args, config)
    plan = _resolve_split_plan(args, config, seed)
    variant = _resolve_variant(args, config)
    records = _load_scored(args.input)

    if plan.repetitions == 1:
        outcome, test_fdr = _calibrate_one(records, plan, 0, spec, variant, seed)
        _write_json(args.out, _artifact_obj(outcome, spec, variant))
        if outcome.feasible:
            print(
                f"feasible: threshold={outcome.threshold!r} "
                f"(test FDR {test_fdr:.4f}) -> {args.out}"
            )
        else:
            print(
                f"infeasible: no threshold satisfies alpha={spec.alpha} at "
                f"delta={spec.delta} on the calibration split -> {args.out}"
            )
        return 0

    os.makedirs(args.out, exist_ok=True)
    fdrs = []
    infeasible = 0
    for rep in range(plan.repetitions):
        outcome, test_fdr = _calibrate_one(records, plan, rep, spec, variant, seed)
        _write_json(
            os.path.join(args.out, f"calibration_r{rep:03d}.json"),
            _artifact_obj(outcome, spec, variant),
        )
        if test_fdr is None:
            infeasible += 1
        else:
            fdrs.append(test_fdr)
    summary = {
        "alpha": spec.alpha,
        "delta": spec.delta,
        "uq_variant": variant,
        "repetitions": plan.repetitions,
        "calibration_ratio": plan.calibration_ratio,
        "seed": seed,
        "infeasible_splits": infeasible,
        "test_fdr": None,
    }
    if fdrs:
        stat = metrics_mod.aggregate(fdrs)
        summary["test_fdr"] = {"mean": stat.mean, "std": stat.std}
    _write_json(os.path.join(args.out, "summary.json"), summary)
    if infeasible == plan.repetitions:
        print(
            f"infeasible on all {plan.repetitions} splits: no threshold satisfies "
            f"alpha={spec.alpha} at delta={spec.delta} -> {args.out}"
        )
    else:
        stat = metrics_mod.aggregate(fdrs)
        print(
            f"{plan.repetitions} splits ({infeasible} infeasible): "
            f"test FDR {stat.mean:.4f} +/- {stat.std:.4f} -> {args.out}"
        )
    return 0


def cmd_evaluate(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    spec = _resolve_risk_spec(args, config)
    plan = _resolve_split_plan(args, config, seed)
    variant = _resolve_variant(args, config)
    records = _load_scored(args.input)
    all_u = _variant_values(records, variant)
    all_adm = _admission_flags(records, seed)

    per_split: dict[str, list[float]] = {
        "auroc": [], "auarc": [], "test_fdr": [], "power": [], "n_accepted": []
    }
    infeasible = 0
    for rep in range(plan.repetitions):
        cal, test = split(records, plan, rep)
        cal_u = _variant_values(cal, variant)
        cal_adm = _admission_flags(cal, seed)
        outcome = calibrate_threshold(cal_u, [1 - a for a in cal_adm], spec)
        test_u = _variant_values(test, variant)
        test_adm = _admission_flags(test, seed)
        try:
            per_split["auroc"].append(metrics_mod.auroc(test_u, test_adm))
        except metrics_mod.MetricError as exc:
            raise CliError(f"repetition {rep}: {exc}")
        per_split["auarc"].append(metrics_mod.auarc(test_u, test_adm))
        if not outcome.feasible:
            infeasible += 1
            continue
        report = metrics_mod.evaluate_split(test_u, test_adm, outcome.threshold)
        per_split["test_fdr"].append(report.fdr)
        per_split["power"].append(report.power)
        per_split["n_accepted"].append(float(report.n_accepted))

    report_obj = {
        "input": args.input,
        "variant": variant,
        "alpha": spec.alpha,
        "delta": spec.delta,
        "calibration_ratio": plan.calibration_ratio,
        "repetitions": plan.repetitions,
        "seed": seed,
        "n_records": len(records),
        "infeasible_splits": infeasible,
        "splits": {
            name: (
                {"mean": metrics_mod.aggregate(vals).mean, "std": metrics_mod.aggregate(vals).std}
                if vals
                else None
            )
            for name, vals in per_split.items()
        },
        "full_dataset": {
            "accuracy": sum(all_adm) / len(all_adm),
            "auroc": metrics_mod.auroc(all_u, all_adm),
            "auarc": metrics_mod.auarc(all_u, all_adm),
        },
    }
    text = json.dumps(report_obj, indent=2)
    print(text)
    if args.report:
        _atomic_write(args.report, text + "\n")
    if args.roc_csv:
        _write_csv(args.roc_csv, ["fpr", "tpr"], [list(p) for p in metrics_mod.roc_points(all_u, all_adm)])
    if args.arc_csv:
        _write_csv(
            args.arc_csv,
            ["rejection_rate", "accuracy"],
            [list(p) for p in metrics_mod.arc_points(all_u, all_adm)],
        )
    return 0


def _threshold_from_args(args) -> tuple[float, float | None, str | None]:
    """(threshold, alpha, variant) from --tau or a calibration artifact."""
    if args.tau is not None:
        return args.tau, None, None
    if not args.artifact:
        raise CliError("provide either --tau or --artifact")
    try:
        with open(args.artifact, "r", encoding="utf-8") as fh:
            artifact = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"artifact not found: {args.artifact}")
    except json.JSONDecodeError as exc:
        raise CliError(f"artifact {args.artifact}: invalid JSON: {exc.msg}")
    if not artifact.get("feasible") or artifact.get("threshold") is None:
        raise CliError(
            f"artifact {args.artifact} is infeasible; no threshold available for cascading"
        )
    return float(artifact["threshold"]), artifact.get("alpha"), artifact.get("uq_variant")


def cmd_cascade(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    threshold, alpha, artifact_variant = _threshold_from_args(args)
    variant = args.variant or artifact_variant or config.get("variant", "com")
    if variant not in VARIANTS:
        raise CliError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    records = _load_scored(args.input)
    u = _variant_values(records, variant)
    try:
        report = cascade_mod.evaluate_cascade(records, u, threshold, mlg_seed=seed)
    except cascade_mod.CascadeError as exc:
        raise CliError(str(exc))

    report_obj = {
        "input": args.input,
        "variant": variant,
        "threshold": threshold,
        "alpha": alpha,
        "system_accuracy": report.system_accuracy,
        "primary_accuracy": report.primary_accuracy,
        "expert_only_accuracy": report.expert_only_accuracy,
        "cascading_rate": report.cascading_rate,
        "n_total": report.n_total,
        "n_accepted": report.n_accepted,
        "n_deferred": report.n_deferred,
        "n_correct_accepted": report.n_correct_accepted,
        "n_correct_deferred": report.n_correct_deferred,
    }
    text = json.dumps(report_obj, indent=2)
    print(text)
    if args.report:
        _atomic_write(args.report, text + "\n")
    if args.manifest:
        ids = cascade_mod.emit_deferrals(records, u, threshold, args.manifest)
        print(f"deferral manifest: {len(ids)} records -> {args.manifest}", file=sys.stderr)
    if args.csv:
        label = args.label or os.path.basename(args.input)
        header = [
            "label", "alpha", "variant", "threshold", "system_accuracy",
            "primary_accuracy", "expert_only_accuracy", "cascading_rate",
            "n_total", "n_accepted", "n_deferred",
        ]
        row = [
            label, alpha, variant, threshold, report.system_accuracy,
            report.primary_accuracy, report.expert_only_accuracy, report.cascading_rate,
            report.n_total, report.n_accepted, report.n_deferred,
        ]
        new_file = not os.path.exists(args.csv)
        with open(args.csv, "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new_file:
                writer.writerow(header)
            writer.writerow([_fmt(v) for v in row])
    return 0


def _parse_list(text: str, cast) -> list:
    return [cast(part) for part in text.split(",") if part]


def cmd_sweep(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    delta = float(_pick(args.delta, config, "risk", "delta", DEFAULT_DELTA))
    base_uq = _resolve_uq_config(args, config)
    sweep_cfg = config.get("sweep", {})
    alphas = _parse_list(args.alphas, float) if args.alphas else [
        float(a) for a in sweep_cfg.get("alphas", [DEFAULT_ALPHA])
    ]
    variants = _parse_list(args.variants, str) if args.variants else list(
        sweep_cfg.get("variants", ["com"])
    )
    presets = _parse_list(args.weight_presets, str) if args.weight_presets else list(
        sweep_cfg.get("weight_presets", ["original"])
    )
    k_values = _parse_list(args.k_values, int) if args.k_values else [
        int(k) for k in sweep_cfg.get("k_values", [base_uq.k_samples])
    ]
    for alpha in alphas:
        try:
            RiskSpec(alpha=alpha, delta=delta).validate()
        except ValueError as exc:
            raise CliError(f"--alphas: {exc}")
    for k in k_values:
        if k < 1:
            raise CliError(f"--k-values: k must be >= 1, got {k}")
    for variant in variants:
        if variant not in VARIANTS:
            raise CliError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    for preset in presets:
        if preset not in WEIGHT_PRESETS:
            raise CliError(f"unknown weight preset {preset!r}; expected one of {sorted(WEIGHT_PRESETS)}")
    ratio = float(_pick(args.ratio, config, "split", "calibration_ratio", DEFAULT_RATIO))
    repetitions = int(_pick(args.repetitions, config, "split", "repetitions", DEFAULT_REPETITIONS))
    plan = SplitPlan(calibration_ratio=ratio, seed=seed, repetitions=repetitions)
    plan.validate()

    ranking_rows: list[list] = []
    risk_rows: list[list] = []
    for path in args.inputs:
        records = [with_mlg(r, seed) for r in _load_scored(path)]
        name = os.path.basename(path)
        adm = _admission_flags(records, seed)
        has_pc = all(r.pc is not None for r in records)
        has_expert = all(r.expert is not None for r in records)
        base_accuracy = sum(adm) / len(adm)

        # uncertainty values per combination, component scores computed once per k
        combos: list[tuple[str, str | None, int | None, list[float] | None]] = []
        for k in k_values:
            cfg_k = replace(base_uq, k_samples=k)
            components = [score_record(r, cfg_k) for r in records]
            for preset in presets:
                weights = WEIGHT_PRESETS[preset]
                for variant in variants:
                    if variant == "pc":
                        continue
                    if variant == "com":
                        values = [combine(s.cd, s.ie, s.ta, weights) for s in components]
                    else:
                        values = [getattr(s, variant) for s in components]
                    combos.append((variant, preset, k, values))
        if "pc" in variants:
            pc_values = [r.pc for r in records] if has_pc else None
            combos.append(("pc", None, None, pc_values))

        for variant, preset, k, values in combos:
            if values is None:  # pc requested but absent: "--" style empty row
                ranking_rows.append([name, variant, preset, k, None, None, base_accuracy])
                for alpha in alphas:
                    risk_rows.append(
                        [name, variant, preset, k, alpha, delta] + [None] * 11
                    )
                continue
            ranking_rows.append(
                [
                    name, variant, preset, k,
                    metrics_mod.auroc(values, adm),
                    metrics_mod.auarc(values, adm),
                    base_accuracy,
                ]
            )
            for alpha in alphas:
                spec = RiskSpec(alpha=alpha, delta=delta)
                taus, fdrs, powers, sys_accs, casc_rates = [], [], [], [], []
                infeasible = 0
                by_id = {r.id: (u, a) for r, u, a in zip(records, values, adm)}
                for rep in range(plan.repetitions):
                    cal, test = split(records, plan, rep)
                    cal_u = [by_id[r.id][0] for r in cal]
                    cal_err = [1 - by_id[r.id][1] for r in cal]
                    outcome = calibrate_threshold(cal_u, cal_err, spec)
                    if not outcome.feasible:
                        infeasible += 1
                        continue
                    tau = outcome.threshold
                    test_u = [by_id[r.id][0] for r in test]
                    test_adm = [by_id[r.id][1] for r in test]
                    taus.append(tau)
                    fdrs.append(metrics_mod.fdr_at(test_u, test_adm, tau))
                    powers.append(metrics_mod.power_at(test_u, test_adm, tau))
                    if has_expert:
                        rep_report = cascade_mod.evaluate_cascade(test, test_u, tau, mlg_seed=seed)
                        sys_accs.append(rep_report.system_accuracy)
                        casc_rates.append(rep_report.cascading_rate)

                def _ms(vals):
                    if not vals:
                        return None, None
                    stat = metrics_mod.aggregate(vals)
                    return stat.mean, stat.std

                tau_mean, _ = _ms(taus)
                fdr_mean, fdr_std = _ms(fdrs)
                power_mean, power_std = _ms(powers)
                sys_mean, sys_std = _ms(sys_accs)
                casc_mean, casc_std = _ms(casc_rates)
                risk_rows.append(
                    [
                        name, variant, preset, k, alpha, delta,
                        plan.repetitions - infeasible, infeasible, tau_mean,
                        fdr_mean, fdr_std, power_mean, power_std,
                        sys_mean, sys_std, casc_mean, casc_std,
                    ]
                )

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
    seed = _resolve_seed(args, config)
    cfg = SynthConfig(
        n_records=args.n_records,
        k_samples=args.k_samples,
        image_size=args.image_size,
        box_size=args.box_size,
        easy_fraction=args.easy_fraction,
        dispersion=args.dispersion,
        expert_accuracy=args.expert_accuracy,
        seed=seed,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise CliError(str(exc))
    records = generate_dataset(cfg)
    save_records(args.out, records)
    print(f"generated {len(records)} records -> {args.out}")
    return 0


def cmd_guarantee(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    cfg = SynthConfig(
        n_records=args.n_records,
        k_samples=args.k_samples,
        image_size=args.image_size,
        box_size=args.box_size,
        easy_fraction=args.easy_fraction,
        dispersion=args.dispersion,
        expert_accuracy=args.expert_accuracy,
        seed=seed,
    )
    alpha = float(_pick(args.alpha, config, "risk", "alpha", DEFAULT_GUARANTEE_ALPHA))
    delta = float(_pick(args.delta, config, "risk", "delta", DEFAULT_DELTA))
    spec = RiskSpec(alpha=alpha, delta=delta)
    try:
        spec.validate()
    except ValueError as exc:
        raise CliError(str(exc))
    ratio = float(_pick(args.ratio, config, "split", "calibration_ratio", 0.5))
    try:
        result, outcomes = run_guarantee_trials(
            cfg, spec.alpha, spec.delta, args.trials, calibration_ratio=ratio
        )
    except ValueError as exc:
        raise CliError(str(exc))
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
    parser.add_argument("--weights", default=None,
                        help="component weights: preset name or 'w_cd,w_ie,w_ta'")


def _add_risk_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None, help="target risk level in (0,1)")
    parser.add_argument("--delta", type=float, default=None, help="significance level in (0,1)")


def _add_split_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ratio", type=float, default=None, help="calibration split ratio in (0,1)")
    parser.add_argument("--repetitions", "-r", type=int, default=None,
                        help="number of repeated calibration/test splits")


def _add_synth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-records", type=int, default=SynthConfig.n_records)
    parser.add_argument("--k-samples", type=int, default=SynthConfig.k_samples)
    parser.add_argument("--image-size", type=int, default=SynthConfig.image_size)
    parser.add_argument("--box-size", type=int, default=SynthConfig.box_size)
    parser.add_argument("--easy-fraction", type=float, default=SynthConfig.easy_fraction)
    parser.add_argument("--dispersion", type=float, default=SynthConfig.dispersion)
    parser.add_argument("--expert-accuracy", type=float, default=SynthConfig.expert_accuracy)


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
    p.add_argument("--out", "-o", required=True,
                   help="artifact file (or directory when --repetitions > 1)")
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
    p.add_argument("--weight-presets", default=None,
                   help=f"comma-separated presets from {sorted(WEIGHT_PRESETS)}")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecordError, MissingScoreError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

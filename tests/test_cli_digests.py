"""Every CLI output pinned by sha256, across several SCORE_CHUNK boundaries.

The pipeline below runs synth, score (with --dump-density), calibrate,
evaluate, cascade, sweep and guarantee on seeds 1 and 2. Its input mixes what the
file path must carry through unchanged: a `pc` on every record, an
explicit `mlg` on every seventh, integer coordinates on every eleventh,
and blank lines. The digests were recorded before the commands read
files as columns; any change to an output's bytes fails here. The column
sidecars that synth and score write beside their record files are pinned
too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from clickrisk import cli

N_RECORDS = 600  # more than two SCORE_CHUNKs of 256

DIGESTS = {
    1: {
        "arc.csv": "8e92549705a157ffd89f468a3ed8c246c1629176cedae15bf0658df9a54e6694",
        "artifact.json": "07aca53d6dbeca1683118e5fd75277843d6dcc82e7e2c93bebfc1d328ac27405",
        "cal/calibration_r000.json": "07aca53d6dbeca1683118e5fd75277843d6dcc82e7e2c93bebfc1d328ac27405",
        "cal/calibration_r001.json": "dcdc703edb1b745c39f29c81b4d91b45fa23b3171735d72f2965677d275cc361",
        "cal/calibration_r002.json": "9a110ec6f4d8d76435f545beade58d438aadb6b029a4acb00d5b36f8aff11d7a",
        "cal/summary.json": "f4c4222af0b918379aa3285e66e8909d31c4f3f465c83dc61dcd14a2427aaa28",
        "cascade.csv": "e66d75be3f87231ff9097010f9db740de18e26703d41ba5605d6c283dba20e29",
        "cascade.json": "92347ff2430525033fe66fd0953e1f77c6f34a226b6a2cee34b3669b02cef044",
        "deferred.jsonl": "07ff91a5ddda26a89aca04e41df12cf52763c70519f7203458554f5ea3015d73",
        "dumps/*": "8b82da367d7b33369828215915a442888f50b3ac7ac5ea47e9d9cc79e9d5f0f2",
        "mixed.jsonl": "46367e9a64c15f8af9391468728510a5d7c0be21800b60b00a2659878650df65",
        "raw.jsonl": "7e1378728e3af9fff09822c05e0c5e980a719cab3bcb86c8bd57ee149e2bfe60",
        "raw.jsonl.cols": "91209e741a7d1cc924446594b1465541c31c01d26b07cfe35c8bdec5cc5b5c7e",
        "report.json": "32eab0c74d1dc3749f815f92d94ea0c4d8597146844dd4fe06991fc7ad97862c",
        "report_pc.json": "4a71a4800137443823f7b538ee26c46ba40ed20358d4f6a4f9f02e97a5b48524",
        "roc.csv": "30513ff8c269d67f477d968e85d4055c81f6ef7240d5e8b73cca448902c88db4",
        "scored.jsonl": "0ba0b3122c48af43b693eef5bb496ad67b258ee3e2450fd6d9a71158dbcd219f",
        "scored.jsonl.cols": "050764360e7e6dbba3095564c49837bc1c0db90f643804228d0b23c7e36fbfee",
        "sweep/ranking.csv": "cbe9bf500bd908febcfba9e010c99dd6cfd95f0ebe231a751b74b61ea25d6ece",
        "sweep/risk.csv": "cc45069e9af899136b63b4e3be560c337596bd2c7102783880b5177df39571ec",
        "trials.csv": "db9557ce6f0cc4776b2a26e41f5a43af18220c7204a71a7ef2778434eaee196e",
    },
    2: {
        "arc.csv": "1a4d9a376156b0f2f5ce26f3b7710d08d9c0f8765c2f93226c7e2e0db97eeb60",
        "artifact.json": "4784f53c960d7ceeb6e778a4ff07d83f7f4eb440424f7bfa2be1c5cc7ebabb23",
        "cal/calibration_r000.json": "4784f53c960d7ceeb6e778a4ff07d83f7f4eb440424f7bfa2be1c5cc7ebabb23",
        "cal/calibration_r001.json": "132386e2c2eee3ff2f7ca5f515e7553f138fc0a1808b9933323fd7df0add15c8",
        "cal/calibration_r002.json": "b4e6a8899002efd5303bf9b4401d2420c90e1fbc3bf24e843c84d60e6fcf7fd3",
        "cal/summary.json": "4a79351e322b085823616635a991aeefb8fe0758f02d3d2aec84cb088e8fed82",
        "cascade.csv": "c15540d68738dd02d63ac0690efb2eeedffa6fa92c1f7674227bdc061f3fc935",
        "cascade.json": "983099cc7883ba62988cd8b1ec689bda0330c295f8c34660a6692bffb418d8ba",
        "deferred.jsonl": "e7e2ae5a9f939c9e560b3bb6d29b452788a3ed1cc9c7f908e3b6514661220fc2",
        "dumps/*": "dbe8f111d806973cdb3d4267fa6067643e3facc33fd68ab13e7f7a0b8acea56d",
        "mixed.jsonl": "1ec1c400d4c36209daae873df05cf8205c2fbb3aa62b468ea7137900e4bb4268",
        "raw.jsonl": "4164c0f8647496a8b55d66efb8142961257460130891784361e8c5b126981328",
        "raw.jsonl.cols": "eac6e6505e7b4a923c0f9f1185c09855373c6d64f10b29dabdbff54a0cecd5d2",
        "report.json": "f10ea6669a42c4ce19f6387e63fc3b5a69da4fb787aebf0fc1aea7d01379473a",
        "report_pc.json": "e661744aec190b86fc09711cba6390675ba00bc4c23799699403d422a8ce9eee",
        "roc.csv": "a518e7fa7989122fd4e670571b448509d49e05ca00ec36428a66b29d41614bab",
        "scored.jsonl": "4dcc696f537a42d1f9249bcbc4c390403d5d25bfeaa428af8f4cb391269b1326",
        "scored.jsonl.cols": "e90ebca854f78d8df6689011715d011439e162b6c12f13d1ebf1e2349c6c6d42",
        "sweep/ranking.csv": "b62e56373d0a631d994516ea386fe34f3cc5e71bac34036d22063a3c851d61c0",
        "sweep/risk.csv": "72a562c1f80b969a8a30fb64ae89e31c7228fd0165f1b60faeef0601c5b5e523",
        "trials.csv": "fd43f278d0e1c48d038574b1687afe4a92a5e0caf822642ff1e479de0f07ebe6",
    },
}


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def mixed_input(raw: Path, path: Path) -> None:
    """`raw`'s records with a pc each, an explicit mlg or integer samples on some, and blank lines."""
    lines = []
    for i, line in enumerate(raw.read_text().splitlines()):
        obj = json.loads(line)
        obj["pc"] = (i * 37 % 101) / 100.0
        if i % 7 == 0:
            obj["mlg"] = obj["samples"][-1]
        if i % 11 == 0:
            obj["samples"] = [[int(x), int(y)] for x, y in obj["samples"]]
        lines.append(json.dumps(obj))
        if i % 100 == 0:
            lines.append("")
    path.write_text("\n".join(lines) + "\n")


def pipeline(seed: int) -> dict[str, str]:
    """Run every command in the current directory; the reports name the relative paths."""
    s = ["--seed", seed]
    raw, mixed, scored = Path("raw.jsonl"), Path("mixed.jsonl"), Path("scored.jsonl")
    run(*s, "synth", "--out", raw, "--n-records", N_RECORDS)
    mixed_input(raw, mixed)
    run(*s, "score", "-i", mixed, "-o", scored, "--dump-density", "dumps")
    run(*s, "calibrate", "-i", scored, "-o", "artifact.json", "--alpha", 0.3, "--ratio", 0.5, "-r", 1)
    run(*s, "calibrate", "-i", scored, "-o", "cal", "--alpha", 0.3, "--ratio", 0.5, "-r", 3)
    run(*s, "evaluate", "-i", scored, "--alpha", 0.3, "--ratio", 0.5, "-r", 5, "--report", "report.json",
        "--roc-csv", "roc.csv", "--arc-csv", "arc.csv")
    run(*s, "evaluate", "-i", scored, "--variant", "pc", "--alpha", 0.5, "-r", 2, "--report", "report_pc.json")
    run(*s, "cascade", "-i", scored, "--artifact", "artifact.json", "--report", "cascade.json",
        "--manifest", "deferred.jsonl", "--csv", "cascade.csv")
    run(*s, "sweep", "-i", mixed, scored, "--out-dir", "sweep", "--alphas", "0.2,0.3",
        "--variants", "com,cd,pc", "--weight-presets", "original,v2", "--k-values", "5,10", "--ratio", 0.5, "-r", 3)
    run(*s, "guarantee", "--trials", 10, "--n-records", 40, "--alpha", 0.25, "--out-csv", "trials.csv")
    feasible = {line.split(",")[1] for line in Path("trials.csv").read_text().splitlines()[1:]}
    assert feasible == {"true", "false"}  # both cells of the one boolean column are pinned
    digests = {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(Path().rglob("*")) if p.is_file() and p.parent.name != "dumps"}
    dumps = hashlib.sha256()
    for p in sorted(Path("dumps").iterdir()):
        dumps.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    digests["dumps/*"] = dumps.hexdigest()
    return digests


@pytest.mark.parametrize("seed", [1, 2])
def test_every_output_matches_its_pinned_digest(tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    assert pipeline(seed) == DIGESTS[seed]

"""Calibrated, risk-controlled accept/defer decisions for GUI-grounding clicks.

The toolkit turns recorded stochastic click predictions into spatial
uncertainty scores, calibrates an acceptance threshold with an exact
binomial false-discovery-rate bound, and evaluates selective prediction
and two-model cascading on held-out data.

The package namespace holds what the demos and the README example use;
everything else is imported from its module (`clickrisk.records`, ...).
"""

from .cascade import evaluate_cascade
from .density import build_density_map, extract_regions, score_regions
from .metrics import admission, auarc, auroc, fdr_at, power_at
from .records import GroundingRecord, SplitPlan, select_mlg, split
from .risk import RiskSpec, calibrate_threshold, cp_upper_bound
from .synthgen import SynthConfig, generate_dataset, run_guarantee_trials
from .uq import UqConfig, score_record

__all__ = [
    "evaluate_cascade",
    "build_density_map",
    "extract_regions",
    "score_regions",
    "admission",
    "auarc",
    "auroc",
    "fdr_at",
    "power_at",
    "GroundingRecord",
    "SplitPlan",
    "select_mlg",
    "split",
    "RiskSpec",
    "calibrate_threshold",
    "cp_upper_bound",
    "SynthConfig",
    "generate_dataset",
    "run_guarantee_trials",
    "UqConfig",
    "score_record",
]

__version__ = "0.1.0"

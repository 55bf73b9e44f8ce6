"""Config objects validate themselves when built, also through `dataclasses.replace`."""

import dataclasses
import math
import re

import pytest

from clickrisk.records import SplitError, SplitPlan
from clickrisk.risk import RiskError, RiskSpec
from clickrisk.synthgen import SynthConfig
from clickrisk.uq import UqConfig

# (a valid instance, an invalid field value, the error type, its message)
CASES = [
    (UqConfig(), {"k_samples": 0}, ValueError, "k_samples must be positive, got 0"),
    (UqConfig(), {"beta": 1.0}, ValueError, "beta must lie in [0, 1), got 1.0"),
    (UqConfig(), {"weights": (0.5, 0.5, 0.5)}, ValueError, "weights must sum to 1, got (0.5, 0.5, 0.5)"),
    (UqConfig(), {"weights": (math.nan, 0.5, 0.5)}, ValueError,
     "weights must be three non-negative reals, got (nan, 0.5, 0.5)"),
    (RiskSpec(alpha=0.2), {"alpha": 1.5}, RiskError, "alpha must lie strictly inside (0, 1), got 1.5"),
    (RiskSpec(alpha=0.2), {"delta": 0.0}, RiskError, "delta must lie strictly inside (0, 1), got 0.0"),
    (SplitPlan(calibration_ratio=0.5), {"calibration_ratio": 1.0}, SplitError,
     "calibration_ratio must lie in (0, 1), got 1.0"),
    (SplitPlan(calibration_ratio=0.5), {"repetitions": 0}, SplitError, "repetitions must be positive, got 0"),
    (SynthConfig(), {"box_size": 900}, ValueError, "box_size must be smaller than image_size"),
    (SynthConfig(), {"seed": -1}, ValueError, "seed must be non-negative, got -1"),
    (SynthConfig(), {"dispersion": math.nan}, ValueError, "dispersion must be positive and finite, got nan"),
    (SynthConfig(), {"dispersion": math.inf}, ValueError, "dispersion must be positive and finite, got inf"),
]


def _case_ids(cases) -> list[str]:
    """class-field for each case, and class-field-value for a later case of the same field."""
    ids: list[str] = []
    for valid, bad, _, _ in cases:
        (field, value), = bad.items()
        name = f"{type(valid).__name__}-{field}"
        ids.append(name if name not in ids else f"{name}-{value}")
    return ids


IDS = _case_ids(CASES)


def _raises_exactly(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("valid, bad, error, message", CASES, ids=IDS)
def test_an_invalid_config_cannot_be_built(valid, bad, error, message):
    with _raises_exactly(error, message) as caught:
        type(valid)(**{**dataclasses.asdict(valid), **bad})
    assert type(caught.value) is error


@pytest.mark.parametrize("valid, bad, error, message", CASES, ids=IDS)
def test_replace_validates_the_new_config(valid, bad, error, message):
    with _raises_exactly(error, message) as caught:
        dataclasses.replace(valid, **bad)
    assert type(caught.value) is error

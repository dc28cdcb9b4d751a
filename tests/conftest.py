"""Shared builders for the test suite."""

import os
import tempfile

import numpy as np
import pytest

from sinegate.detector_model import (
    AfterpulseModel,
    DetectorParams,
    GateConfig,
    JitterModel,
)

# Hypothesis caches literals and Unicode tables under ./.hypothesis unless
# told otherwise; keep them out of the checkout.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "sinegate-hypothesis")
)


def quiet_detector(**overrides) -> DetectorParams:
    """Detector with the dark channel off; kwargs override top-level fields."""
    base = dict(dark_law=None)
    base.update(overrides)
    return DetectorParams(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def default_detector():
    return DetectorParams()

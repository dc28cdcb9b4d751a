"""Tests on the gate lags between a run's accepted detections.

After an accepted detection, with a hold-off of H gates and a per-gate click
probability p, the next accepted detection comes a geometric number of gates
after the hold-off ends (the renewal law). Afterpulsing adds an excess at
short lags; the jitter tail, which shifts detection times but not gate
indices, does not. `geometric_lag_gof` tests a lag sample against the law,
`short_lag_excess_pvalue` its short-lag share against a baseline sample's.
Both need scipy, so the engine and the CLI, which never call them, do not
import this module.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

__all__ = ["geometric_lag_gof", "short_lag_excess_pvalue"]


def geometric_lag_gof(
    lags, holdoff_gates: int, p_per_gate: float, min_expected: float = 5.0
) -> tuple[float, int, float]:
    """Chi-square goodness of fit of accepted lags against the renewal law.

    After an accepted detection with per-gate click probability p and a
    hold-off of H gates, the lag L satisfies P(L = H+1+k) = p*(1-p)^k.
    Bins are grown until each expects at least `min_expected` counts, with
    one open tail bin. Returns (chi2, dof, p_value).
    """
    lags = np.asarray(lags, dtype=np.int64)
    if lags.size < 10:
        raise ValueError("need at least 10 lags for a goodness-of-fit test")
    if np.any(lags <= holdoff_gates):
        raise ValueError("lags at or below the hold-off are impossible post-acceptance")
    if not (0.0 < p_per_gate < 1.0):
        raise ValueError("p_per_gate must be in (0, 1)")
    k = lags - (holdoff_gates + 1)
    n = k.size
    q = 1.0 - p_per_gate
    edges = []  # bin = [lo, hi)
    lo = 0
    while True:
        # grow the bin until it expects min_expected counts or holds all the
        # mass left at or above lo (which the closed form reaches in floating point)
        left = q**lo
        hi = lo + 1
        while (left - q**hi) * n < min_expected and left - q**hi < left:
            hi += 1
        if q**hi * n < min_expected:
            edges.append((lo, None))  # open tail bin
            break
        edges.append((lo, hi))
        lo = hi
    observed = []
    expected = []
    for lo, hi in edges:
        if hi is None:
            observed.append(int(np.count_nonzero(k >= lo)))
            expected.append(n * q**lo)
        else:
            observed.append(int(np.count_nonzero((k >= lo) & (k < hi))))
            expected.append(n * (q**lo - q**hi))
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    dof = max(1, len(edges) - 1)
    return chi2, dof, float(stats.chi2.sf(chi2, dof))


def short_lag_excess_pvalue(
    lags_test,
    lags_baseline,
    holdoff_gates: int,
    short_window_gates: int,
) -> float:
    """One-sided two-sample chi-square: is the short-lag share larger than the baseline's?

    Splits each lag sample at holdoff + short_window_gates and tests the 2x2
    contingency table. Small p-value = the test run has a short-lag excess
    (afterpulsing signature) relative to the baseline; a short-lag deficit
    gives p >= 0.5.
    """
    cut = holdoff_gates + short_window_gates
    table = np.asarray(
        [
            [np.count_nonzero(np.asarray(lags_test) <= cut),
             np.count_nonzero(np.asarray(lags_test) > cut)],
            [np.count_nonzero(np.asarray(lags_baseline) <= cut),
             np.count_nonzero(np.asarray(lags_baseline) > cut)],
        ],
        dtype=float,
    )
    if np.any(table.sum(axis=1) == 0) or np.any(table.sum(axis=0) == 0):
        return 1.0  # degenerate table carries no evidence
    _, p_two_sided, _, _ = stats.chi2_contingency(table, correction=False)
    shares = table[:, 0] / table.sum(axis=1)  # short-lag share of test, baseline
    return float(p_two_sided / 2 if shares[0] > shares[1] else 1.0 - p_two_sided / 2)

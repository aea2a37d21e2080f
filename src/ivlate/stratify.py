"""Propensity-score stratification.

Units are binned on the estimated instrument propensity score at
empirical quantiles ("equal-sized bins"); the bins act as a categorical
covariate, on which the interacted 2SLS collapses to per-stratum Wald
ratios. Bins that end up empty, single-armed, or without first-stage
variation are merged into their lower neighbor (the first bin merges
upward) until every stratum is usable, so a requested count is an upper
bound on the delivered count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complier import PC_FLOOR, PropensityFit
from .errors import NoCompliersError, UnpartitionableError
from .estimators import Dataset, _arm_moments


@dataclass(frozen=True)
class StratumPartition:
    """A partition of units by propensity score.

    ``boundaries`` holds the k - 1 interior cutpoints; stratum j covers
    (boundaries[j-2], boundaries[j-1]] with the outer strata open toward
    0 and 1. ``labels`` assigns each unit a stratum in 1..k.
    ``merged_from`` records the originally requested stratum count.
    """

    k: int
    boundaries: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    merged_from: int


@dataclass(frozen=True)
class StratifiedResult:
    """LATE estimate and per-stratum conditional LATEs from one partition."""

    tau_star: float
    beta_star: np.ndarray
    partition: StratumPartition


def partition_by_propensity(ehat, k: int, z=None, d=None) -> StratumPartition:
    """Partition units into at most ``k`` propensity strata.

    Cutpoints are empirical quantiles of ``ehat`` at probabilities
    j / k, so ties share a stratum (units with equal scores are never
    split) and a unit exactly on a cutpoint joins the lower stratum.
    When ``z`` (and optionally ``d``) are given, a stratum is only valid
    if it contains both instrument arms (and a nonzero first-stage
    difference); invalid strata trigger merging. ``z`` and ``d`` must be
    binary with one entry per unit.

    Raises UnpartitionableError when even the fully merged single
    stratum is invalid.
    """
    e = np.asarray(ehat, dtype=float).reshape(-1)
    n = e.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2 * k:
        raise ValueError(f"need at least 2k = {2 * k} units, got {n}")
    if not np.all(np.isfinite(e)) or e.min() < 0.0 or e.max() > 1.0:
        raise ValueError("propensity scores must be finite and within [0, 1]")
    z = None if z is None else np.asarray(z, dtype=float).reshape(-1)
    d = None if d is None else np.asarray(d, dtype=float).reshape(-1)
    for name, v in (("z", z), ("d", d)):
        if v is not None and (v.shape != (n,) or not np.all((v == 0.0) | (v == 1.0))):
            raise ValueError(f"{name} must be a binary vector with one entry per unit")

    cuts = np.quantile(e, np.arange(1, k) / k) if k > 1 else np.empty(0)
    bins = np.searchsorted(cuts, e, side="left")

    # Per-bin tallies: units, Z = 1 units, treated Z = 1 units, treated
    # Z = 0 units. A group of adjacent bins [lo, hi) sums a slice; the
    # tallies are integers, so every validity decision is exact.
    arm1 = np.zeros(n, dtype=bool) if z is None else z == 1.0
    treated = np.zeros(n, dtype=bool) if d is None else d == 1.0
    tallies = np.stack(
        [np.bincount(bins[mask], minlength=k)
         for mask in (np.ones(n, dtype=bool), arm1, treated & arm1, treated & ~arm1)]
    )

    def valid(lo: int, hi: int) -> bool:
        units, units1, treated1, treated0 = tallies[:, lo:hi].sum(axis=1)
        if units == 0:
            return False
        if z is not None:
            if units1 in (0, units):
                return False
            if d is not None and treated1 / units1 - treated0 / (units - units1) == 0.0:
                return False
        return True

    groups = [(j, j + 1) for j in range(k)]
    while True:
        bad = next((g for g, (lo, hi) in enumerate(groups) if not valid(lo, hi)), None)
        if bad is None:
            break
        if len(groups) == 1:
            raise UnpartitionableError("no valid propensity stratification exists")
        # Merge into the lower neighbor; the first group merges upward.
        g = max(bad, 1)
        groups[g - 1 : g + 1] = [(groups[g - 1][0], groups[g][1])]

    label_of_bin = np.empty(k, dtype=int)
    for idx, (lo, hi) in enumerate(groups):
        label_of_bin[lo:hi] = idx + 1
    boundaries = cuts[[hi - 1 for _, hi in groups[:-1]]]
    counts = np.add.reduceat(tallies[0], [lo for lo, _ in groups])
    return StratumPartition(
        k=len(groups),
        boundaries=boundaries,
        labels=label_of_bin[bins],
        counts=counts,
        merged_from=k,
    )


def stratified_late(data: Dataset, prop: PropensityFit, k: int) -> StratifiedResult:
    """LATE and per-stratum effects from per-stratum instrument-arm means.

    On the saturated basis of stratum dummies the interacted 2SLS
    coefficients are the stratum Wald ratios, beta_star_j = dy_j / dd_j,
    where dy_j and dd_j are the Z = 1 minus Z = 0 gaps of mean Y and
    mean D in stratum j. The centered interacted fit with a saturated
    propensity averages them with complier-share weights n_j dd_j, so
    tau_star = sum_j n_j dy_j / sum_j n_j dd_j. The kappa complier share
    under a saturated propensity is sum_j n_j dd_j / n, and
    NoCompliersError is raised when it does not exceed PC_FLOOR.
    """
    partition = partition_by_propensity(prop.ehat, k, z=data.z, d=data.d)
    _, d_diff, y_diff = _arm_moments(data, partition.labels - 1, partition.k)
    complier_mass = partition.counts @ d_diff
    pc_hat = complier_mass / data.n
    if pc_hat <= PC_FLOOR:
        raise NoCompliersError(f"estimated complier share {pc_hat:.4f} <= {PC_FLOOR}")
    tau_star = float(partition.counts @ y_diff / complier_mass)
    return StratifiedResult(tau_star=tau_star, beta_star=y_diff / d_diff, partition=partition)


def regressogram(data: Dataset, prop: PropensityFit, k: int) -> list[tuple[float, float, float]]:
    """Piecewise-constant approximation of the conditional LATE over the propensity.

    Returns one (interval_low, interval_high, estimate) triple per
    stratum, with the outer intervals extended to 0 and 1.
    """
    result = stratified_late(data, prop, k)
    bounds = result.partition.boundaries
    lows = np.concatenate([[0.0], bounds])
    highs = np.concatenate([bounds, [1.0]])
    return [
        (float(lo), float(hi), float(est))
        for lo, hi, est in zip(lows, highs, result.beta_star)
    ]

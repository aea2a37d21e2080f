"""Propensity-score stratification.

Units are binned on the estimated instrument propensity score at
empirical quantiles ("equal-sized bins"); the bins act as a categorical
covariate, on which the interacted 2SLS collapses to per-stratum Wald
ratios. Bins that end up empty, single-armed, or without first-stage
variation are merged into their lower neighbor (the first bin merges
upward) until every stratum is usable, so a requested count is an upper
bound on the delivered count.

Tallies are bincounts over combined cells, (bin, arm, treated) for the
merge loop and (stratum, arm) for the Wald ratios. A bincount adds each
cell's entries in row order, so each sum equals a per-arm masked sum bit
for bit. Counts (a bootstrap resample's) weigh the tallies and repeat
the scores the cutpoints come from, so strata are those of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complier import PropensityFit, require_compliers
from .errors import UnpartitionableError
from .estimators import Dataset, _arm_moments
from .inference import _sorted_quantile


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


def _quantile_bins(e, k, counts=None):
    """Cuts np.quantile(e, j / k), 0 < j < k, read off one sort by ``_sorted_quantile``, the
    bootstrap intervals' rule, and each unit's count of cuts below it by searchsorted (the
    cuts ascend). With ``counts``, the cuts are those of the scores repeated by their counts."""
    cuts = _sorted_quantile(np.sort(e if counts is None else np.repeat(e, counts)), np.arange(1, k) / k)
    return cuts, np.searchsorted(cuts, e)


def partition_by_propensity(ehat, k: int, z, d, counts=None) -> StratumPartition:
    """Partition units into at most ``k`` propensity strata.

    Cutpoints are ``np.quantile`` of ``ehat`` at j / k, read off one
    sort, so ties share a stratum (units with equal scores are never
    split) and a unit exactly on a cutpoint joins the lower stratum.
    A stratum is valid if it contains both instrument arms ``z`` and a
    nonzero first-stage difference in the treatment ``d``; invalid
    strata trigger merging. ``z`` and ``d`` must be binary with one
    entry per unit. Whole-number ``counts`` repeat unit i counts[i]
    times; labels stay one per unit.

    Raises UnpartitionableError when even the fully merged single
    stratum is invalid.
    """
    e = np.asarray(ehat, dtype=float).reshape(-1)
    reps = None if counts is None else np.asarray(counts).astype(np.intp)
    whole = reps is None or (reps.shape == e.shape and (reps >= 0).all() and np.array_equal(reps, counts))
    if not whole:
        raise ValueError("counts must be non-negative whole numbers, one per unit")
    n = e.shape[0] if reps is None else int(reps.sum())
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2 * k:
        raise ValueError(f"need at least 2k = {2 * k} units, got {n}")
    if not np.all(np.isfinite(e)) or e.min() < 0.0 or e.max() > 1.0:
        raise ValueError("propensity scores must be finite and within [0, 1]")
    z, d = (np.asarray(v, dtype=float).reshape(-1) for v in (z, d))
    for name, v in (("z", z), ("d", d)):
        if v.shape != e.shape or not np.all((v == 0.0) | (v == 1.0)):
            raise ValueError(f"{name} must be a binary vector with one entry per unit")

    cuts, bins = _quantile_bins(e, k, reps)

    # Per-bin counts of (Z, D) = (0, 0), (0, 1), (1, 0), (1, 1) units as Python-int
    # prefix sums: bins [lo, hi) hold prefix[hi] - prefix[lo], exactly.
    tally = np.bincount(4 * bins + 2 * (z == 1.0) + (d == 1.0), reps, 4 * k).astype(int).reshape(k, 4)
    prefix = [[0] * 4, *tally.cumsum(axis=0).tolist()]

    def valid(lo: int, hi: int) -> bool:
        untreated0, treated0, untreated1, treated1 = (u - v for u, v in zip(prefix[hi], prefix[lo]))
        units0, units1 = untreated0 + treated0, untreated1 + treated1
        return units0 > 0 and units1 > 0 and treated1 / units1 - treated0 / units0 != 0.0

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
    return StratumPartition(
        k=len(groups),
        boundaries=cuts[[hi - 1 for _, hi in groups[:-1]]],
        labels=label_of_bin[bins],
        counts=np.add.reduceat(tally.sum(axis=1), [lo for lo, _ in groups]),
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
    partition = partition_by_propensity(prop.ehat, k, z=data.z, d=data.d, counts=data.weights)
    _, d_diff, y_diff = _arm_moments(data, partition.labels - 1, partition.k)
    complier_mass = partition.counts @ d_diff
    require_compliers(complier_mass / data.size)
    tau_star = float(partition.counts @ y_diff / complier_mass)
    return StratifiedResult(tau_star=tau_star, beta_star=y_diff / d_diff, partition=partition)


def regressogram(result: StratifiedResult) -> list[tuple[float, float, float]]:
    """Piecewise-constant approximation of the conditional LATE over the propensity.

    Returns one (interval_low, interval_high, estimate) triple per stratum
    of ``result``, with the outer intervals extended to 0 and 1.
    """
    bounds = result.partition.boundaries.tolist()
    return list(zip([0.0, *bounds], [*bounds, 1.0], result.beta_star.tolist()))

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

``stratified_late`` is the kernel ``stratified`` on a batch of one. On an
``estimators.Batch`` of several samples the stacked scores are checked and
sorted once, for every requested count. At each count the tallies and arm
moments of all samples are one bincount each, with cells numbered apart by
sample, and only a partition with an invalid bin runs the merge loop. The kernel returns one result per sample or
raises; ``estimators.each`` gives each sample its own outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .complier import PropensityFit, require_compliers
from .errors import UnpartitionableError
from .estimators import Batch, Dataset, alone, arm_gaps, stack, values
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


def _bins(ordered: np.ndarray, e: np.ndarray, k: int):
    """Cuts np.quantile(e, j / k), 0 < j < k, of samples stacked on a leading axis, read off
    each one's sorted scores ``ordered`` by ``_sorted_quantile``, the bootstrap intervals' rule,
    and each unit's count of cuts strictly below it: a unit on a cut joins the lower bin."""
    cuts = _sorted_quantile(ordered.T, np.arange(1, k) / k).T
    bins = np.zeros(e.shape, dtype=np.intp)
    for j in range(k - 1):
        bins += e > cuts[:, j : j + 1]
    return cuts, bins


def partition_by_propensity(ehat, k: int, z, d, counts=None) -> StratumPartition:
    """Partition units into at most ``k`` propensity strata.

    Cutpoints are ``np.quantile`` of ``ehat`` at j / k, read off one
    sort, so ties share a stratum (units with bitwise-equal scores are
    never split; scores that differ in the last bit may be) and a unit
    exactly on a cutpoint joins the lower stratum.
    A stratum is valid if it contains both instrument arms ``z`` and a
    nonzero first-stage difference in the treatment ``d``; invalid
    strata trigger merging. ``z`` and ``d`` must be binary with one
    entry per unit. Whole-number ``counts`` repeat unit i counts[i]
    times; labels stay one per unit.

    Raises UnpartitionableError when even the fully merged single
    stratum is invalid.
    """
    e, z, d = (np.asarray(v, dtype=float).reshape(-1)[None] for v in (ehat, z, d))
    return _partitions(e, z, d, None if counts is None else [counts], k)[0]


def _whole(counts, shape):
    """``counts`` as integers, checked to be non-negative whole numbers, one per unit."""
    reps = None if counts is None else np.asarray(counts).astype(np.intp)
    if not (reps is None or (reps.shape == shape and (reps >= 0).all() and np.array_equal(reps, counts))):
        raise ValueError("counts must be non-negative whole numbers, one per unit")
    return reps


def _check_units(e, z, d) -> None:
    if not np.all(np.isfinite(e)) or e.min() < 0.0 or e.max() > 1.0:
        raise ValueError("propensity scores must be finite and within [0, 1]")
    for name, v in (("z", z), ("d", d)):
        if v.shape != e.shape or not np.all((v == 0.0) | (v == 1.0)):
            raise ValueError(f"{name} must be a binary vector with one entry per unit")


def _partitions(e, z, d, weights, k: int, sorted_scores=None) -> list[StratumPartition]:
    """The partition of each stacked sample at ``k`` strata, cut from one sort of its scores.
    Raises, in this order, the error of the ``weights`` (one sample's), of the count, of the
    scores, z and d, then the UnpartitionableError of a sample. A partition whose bins are all
    valid keeps them; any other runs the merge loop. ``sorted_scores``, if given, returns the
    unweighted samples' checked and sorted scores in place of the check and the sort here."""
    reps = None if weights is None else _whole(weights[0], e.shape[1:])[None]  # one sample
    units = e.shape[1] if reps is None else int(reps.sum())
    if k < 1:
        raise ValueError("k must be at least 1")
    if units < 2 * k:
        raise ValueError(f"need at least 2k = {2 * k} units, got {units}")
    if sorted_scores is not None:
        ordered = sorted_scores()
    else:
        _check_units(e, z, d)
        ordered = np.sort(e if reps is None else np.repeat(e[0], reps[0])[None], axis=-1)
    cuts, bins = _bins(ordered, e, k)
    cell = 4 * k * np.arange(len(e))[:, None] + 4 * bins + 2 * (z == 1.0) + (d == 1.0)
    tally = np.bincount(cell.ravel(), None if reps is None else reps.ravel(), 4 * k * len(e))
    tally = tally.astype(int).reshape(len(e), k, 4)
    valid, sizes = _valid(tally), tally.sum(axis=-1)
    return [StratumPartition(k, cuts[i].copy(), bins[i] + 1, sizes[i], k) if valid[i].all()
            else _merged(k, cuts[i], bins[i], tally[i]) for i in range(len(e))]


def _valid(tally: np.ndarray) -> np.ndarray:
    """Whether each stratum of the (..., 4) integer tallies of its (Z, D) = (0, 0), (0, 1),
    (1, 0), (1, 1) units holds both instrument arms and a nonzero first-stage difference."""
    units0, units1 = tally[..., 0] + tally[..., 1], tally[..., 2] + tally[..., 3]
    with np.errstate(invalid="ignore", divide="ignore"):
        return (units0 > 0) & (units1 > 0) & (tally[..., 3] / units1 - tally[..., 1] / units0 != 0.0)


def _merged(k: int, cuts, bins, tally) -> StratumPartition:
    """The partition whose invalid bins merge into their lower neighbour (the first upward)."""
    # Group g holds bins edges[g] to edges[g + 1] - 1, whose tallies are differences of
    # integer prefix sums, exactly.
    prefix, edges = np.concatenate([np.zeros((1, 4), dtype=int), tally.cumsum(axis=0)]), list(range(k + 1))
    while not (valid := _valid(np.diff(prefix[edges], axis=0))).all():
        if len(edges) == 2:
            raise UnpartitionableError("no valid propensity stratification exists")
        # The first invalid group merges into its lower neighbour; the first group merges upward.
        del edges[max(int(valid.argmin()), 1)]
    return StratumPartition(
        k=len(edges) - 1,
        boundaries=cuts[[hi - 1 for hi in edges[1:-1]]],
        labels=np.repeat(np.arange(1, len(edges)), np.diff(edges))[bins],
        counts=np.add.reduceat(tally.sum(axis=1), edges[:-1]),
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
    return alone(stratified, data, [prop], k)


def stratified(batch: Batch, props, k: int) -> list[StratifiedResult]:
    """Each sample's ``stratified_late`` at its propensity fit in ``props``, with y's arm moments taken of
    y / s and its effects multiplied by s, s its frame (``Batch.scales``). Raises, in this order, the
    first error in ``props``, then the partitions' errors, then a complier share's."""
    e, z, d, weights = stack([prop.ehat for prop in values(props)]), batch.z, batch.d, batch.weights
    if len(batch) == 1:  # one sample's partition: the public one
        parts = [partition_by_propensity(e[0], k, z[0], d[0], None if weights is None else weights[0])]
    else:
        parts = _partitions(e, z, d, weights, k, partial(_sorted_scores, batch, props, e))
    # One bincount per moment over the samples' partitions, their strata numbered apart.
    strata = np.cumsum([0] + [part.k for part in parts])
    cell = 2 * (strata[:-1, None] + stack([part.labels for part in parts]) - 1) + (z == 1.0)
    scale, flat = batch.scales[:, 0], None if weights is None else weights.ravel()
    d_diff, y_diff = arm_gaps(cell.ravel(), flat, batch.weighted(d).ravel(),
                              batch.weighted(batch.y / scale[:, None]).ravel(), int(strata[-1]))[1:]
    size = batch.size if weights is None else batch.size[0]
    out = []
    with np.errstate(over="ignore"):  # a resample's effects may lie past the float range
        for part, lo, hi, unit in zip(parts, strata, strata[1:], scale.tolist()):
            dd, dy = d_diff[lo:hi], y_diff[lo:hi]
            complier_mass = part.counts @ dd
            require_compliers(complier_mass / size)
            out.append(StratifiedResult(float(part.counts @ dy / complier_mass * unit), dy / dd * unit, part))
    return out


def _sorted_scores(batch: Batch, props, e) -> np.ndarray:
    """``e``, the stacked scores of ``props``, checked with the batch's z and d and sorted: once per
    batch and ``props``, kept on the batch for every requested count."""
    if batch.scores is None or batch.scores[0] is not props:
        _check_units(e, batch.z, batch.d)
        batch.scores = props, np.sort(e, axis=-1)
    return batch.scores[1]


def regressogram(result: StratifiedResult) -> list[tuple[float, float, float]]:
    """Piecewise-constant approximation of the conditional LATE over the propensity.

    Returns one (interval_low, interval_high, estimate) triple per stratum
    of ``result``, with the outer intervals extended to 0 and 1.
    """
    bounds = result.partition.boundaries.tolist()
    return list(zip([0.0, *bounds], [*bounds, 1.0], result.beta_star.tolist()))

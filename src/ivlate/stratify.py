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

``stratified_late`` is a kernel on an ``estimators.Batch`` for several
requested counts at once: each sample's scores are sorted once for every
count, the tallies and arm moments of all samples at one count are one
bincount each, with cells numbered apart by sample, and only a partition
with an invalid bin runs the merge loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complier import PropensityFit, PC_FLOOR, _no_compliers
from .errors import UnpartitionableError
from .estimators import Batch, Dataset, arm_gaps, stack, values
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
    and each unit's count of cuts below it by searchsorted (the cuts ascend)."""
    cuts = _sorted_quantile(ordered.T, np.arange(1, k) / k).T
    return cuts, np.stack([np.searchsorted(c, v) for c, v in zip(cuts, e)])


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
    return values(_checked_partitions(e, z, d, None if counts is None else [counts], [k])[0])[0]


def _whole(counts, shape):
    """``counts`` as integers, checked to be non-negative whole numbers, one per unit."""
    reps = None if counts is None else np.asarray(counts).astype(np.intp)
    if not (reps is None or (reps.shape == shape and (reps >= 0).all() and np.array_equal(reps, counts))):
        raise ValueError("counts must be non-negative whole numbers, one per unit")
    return reps


def _check_count(k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2 * k:
        raise ValueError(f"need at least 2k = {2 * k} units, got {n}")


def _checked_partitions(e, z, d, weights, ks) -> list[list]:
    """``_partitions`` of stacked samples at each count in ``ks``, with in its place the first
    error of a sample at a count: of its ``weights`` (one sample's), of the count, then of its
    scores, z and d. ``partition_by_propensity`` is this on one sample at one count."""
    try:
        reps = None if weights is None else _whole(weights[0], e.shape[1:])[None]  # one sample
    except ValueError as exc:
        return [[exc] * len(ks)]
    units = e.shape[1] if reps is None else int(reps.sum())
    counted = [_error(_check_count, k, units) for k in ks]
    inputs = [_error(_check_units, *sample) for sample in zip(e, z, d)]
    out = [[count or sample for count in counted] for sample in inputs]
    sound = [s for s, exc in enumerate(inputs) if exc is None]
    kept = [j for j, exc in enumerate(counted) if exc is None]
    if len(sound) < len(e):
        e, z, d = e[sound], z[sound], d[sound]
    for s, row in zip(sound, _partitions(e, z, d, reps, [ks[j] for j in kept]) if sound and kept else ()):
        for j, part in zip(kept, row):
            out[s][j] = part
    return out


def _error(check, *args) -> ValueError | None:
    """The ValueError that ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return exc
    return None


def _check_units(e, z, d) -> None:
    if not np.all(np.isfinite(e)) or e.min() < 0.0 or e.max() > 1.0:
        raise ValueError("propensity scores must be finite and within [0, 1]")
    for name, v in (("z", z), ("d", d)):
        if v.shape != e.shape or not np.all((v == 0.0) | (v == 1.0)):
            raise ValueError(f"{name} must be a binary vector with one entry per unit")


def _partitions(e, z, d, reps, ks) -> list[list]:
    """Per stacked sample, its partition (or UnpartitionableError) for each count in ``ks``,
    all cut from one sort of its scores. A partition whose bins are all valid keeps them;
    any other runs the merge loop."""
    ordered = np.sort(e if reps is None else np.repeat(e[0], reps[0])[None], axis=-1)
    arm_treated = 2 * (z == 1.0) + (d == 1.0)
    out: list[list] = [[] for _ in range(len(e))]
    for k in ks:
        cuts, bins = _bins(ordered, e, k)
        offset = 4 * k * np.arange(len(e))[:, None]
        weights = None if reps is None else reps.ravel()
        tally = np.bincount((offset + 4 * bins + arm_treated).ravel(), weights, 4 * k * len(e))
        tally = tally.astype(int).reshape(len(e), k, 4)
        units0, units1 = tally[..., 0] + tally[..., 1], tally[..., 2] + tally[..., 3]
        with np.errstate(invalid="ignore", divide="ignore"):
            valid = (units0 > 0) & (units1 > 0) & (tally[..., 3] / units1 - tally[..., 1] / units0 != 0.0)
        sizes = tally.sum(axis=-1)
        for i in range(len(e)):
            if valid[i].all():
                out[i].append(StratumPartition(k, cuts[i].copy(), bins[i] + 1, sizes[i], k))
            else:
                try:
                    out[i].append(_merged(k, cuts[i], bins[i], tally[i]))
                except UnpartitionableError as exc:
                    out[i].append(exc)
    return out


def _merged(k: int, cuts, bins, tally) -> StratumPartition:
    """The partition whose invalid bins merge into their lower neighbour (the first upward)."""
    # Per-bin counts of (Z, D) = (0, 0), (0, 1), (1, 0), (1, 1) units as Python-int
    # prefix sums: bins [lo, hi) hold prefix[hi] - prefix[lo], exactly.
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
    return values(stratified(Batch([data]), [prop], [k])[0])[0]


def stratified(batch: Batch, props, ks) -> list[list]:
    """Per sample, ``stratified_late`` at its propensity fit in ``props`` for each count in
    ``ks``, or the error it raised; a sample whose fit is an error gets it for every count."""
    out = [[prop] * len(ks) if isinstance(prop, Exception) else [None] * len(ks) for prop in props]
    live = [i for i, prop in enumerate(props) if not isinstance(prop, Exception)]
    if not live:
        return out
    sub = batch.take(live)
    e = stack([props[i].ehat for i in live])
    if len(sub) == 1 and len(ks) == 1:  # one sample's partition at one count: the public one
        try:
            partitions = [[partition_by_propensity(e[0], ks[0], sub.z[0], sub.d[0],
                                                   None if sub.weights is None else sub.weights[0])]]
        except (UnpartitionableError, ValueError) as exc:
            partitions = [[exc]]
    else:
        partitions = _checked_partitions(e, sub.z, sub.d, sub.weights, ks)
    arm, d, y = sub.z == 1.0, sub.weighted(sub.d), sub.weighted(sub.y)
    size = sub.size if sub.weights is None else sub.size[0]
    for j in range(len(ks)):
        for s, row in enumerate(partitions):
            if isinstance(row[j], Exception):
                out[live[s]][j] = row[j]
        rows = [s for s, row in enumerate(partitions) if not isinstance(row[j], Exception)]
        if not rows:
            continue
        parts = [partitions[s][j] for s in rows]
        # One bincount per moment over the samples' partitions, their strata numbered apart.
        strata = np.cumsum([0] + [part.k for part in parts])
        every = len(rows) == len(sub)
        cell = 2 * (strata[:-1, None] + stack([part.labels for part in parts]) - 1) + (arm if every else arm[rows])
        weights = None if sub.weights is None else sub.weights.ravel()
        moments = [(v if every else v[rows]).ravel() for v in (d, y)]
        _, d_diff, y_diff = arm_gaps(cell.ravel(), weights, *moments, int(strata[-1]))
        for s, part, lo, hi in zip(rows, parts, strata, strata[1:]):
            dd, dy = d_diff[lo:hi], y_diff[lo:hi]
            complier_mass = part.counts @ dd
            if complier_mass / size <= PC_FLOOR:
                out[live[s]][j] = _no_compliers(complier_mass / size)
            else:
                out[live[s]][j] = StratifiedResult(float(part.counts @ dy / complier_mass), dy / dd, part)
    return out


def regressogram(result: StratifiedResult) -> list[tuple[float, float, float]]:
    """Piecewise-constant approximation of the conditional LATE over the propensity.

    Returns one (interval_low, interval_high, estimate) triple per stratum
    of ``result``, with the outer intervals extended to 0 and 1.
    """
    bounds = result.partition.boundaries.tolist()
    return list(zip([0.0, *bounds], [*bounds, 1.0], result.beta_star.tolist()))

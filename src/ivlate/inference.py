"""Nonparametric bootstrap over arbitrary estimator pipelines, and the
replicate loop that bootstraps and Monte Carlo studies share.

Bootstrap replicate r draws n rows iid, once, from a private stream keyed
by (seed, replicate), and every estimator bootstrapped together shares the
draw, so output depends only on the inputs and never on execution order.
A replicate is the point sample with counts c = bincount(drawn indices):
a weighted ``Dataset`` of the drawn rows that reads the point sample's
factors. Only package code sees it; a user pipeline gets its rows.
Replicates that fail an identification condition, or whose estimate
changes shape, are dropped and counted rather than retried; retrying
would bias the resampling law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IdentificationError, TooManyFailuresError
from .estimators import Dataset
from .streams import RESAMPLE, substream


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with bootstrap spread and percentile interval.

    ``ci_lower`` and ``ci_upper`` are the alpha / 2 and 1 - alpha / 2
    percentiles of the kept replicates by np.quantile's linear rule,
    read off one sort (``_sorted_quantile``). Percentile intervals may
    exclude the point estimate in finite samples; no ordering between
    them is asserted.
    """

    point: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    b_effective: int
    b_requested: int


def _sorted_quantile(ordered: np.ndarray, q) -> np.ndarray:
    """np.quantile(a, q, axis=0) by its linear rule, bit for bit, from ``ordered`` =
    np.sort(a, axis=0): virtual index (n - 1) q, lerp with its t >= 1/2 branch, the last
    value from an index at or past n - 1, and a column's NaN wherever it holds one."""
    index = (len(ordered) - 1) * np.asarray(q, dtype=float)
    last = index >= len(ordered) - 1
    at = np.where(last, -1.0, np.floor(index))
    # t broadcasts over the trailing axes; it is index + 1 at the last value, as in numpy.
    t = (index - at).reshape(index.shape + (1,) * (ordered.ndim - 1))
    lo = at.astype(np.intp)
    below, above = ordered[lo], ordered[np.where(last, -1, lo + 1)]
    diff = above - below
    cuts = np.where(t >= 0.5, above - diff * (1 - t), below + diff * t)
    return np.where(np.isnan(ordered[-1]), ordered[-1], cuts)


def require_distinct(tags) -> None:
    """Raise ValueError naming the first estimator tag that repeats an earlier one."""
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(f"estimator tag {tag!r} is repeated")


def run_replicates(
    seed: int, reps: int, step: Callable[[int], dict], tags
) -> tuple[dict[str, list[tuple[int, np.ndarray]]], dict[str, int]]:
    """The one replicate loop: call ``step(r)`` for each replicate r < reps.

    ``step(r)`` maps replicate r to each tag's estimate or to the
    IdentificationError the tag raised. Returns each tag's (replicate,
    estimate) pairs in replicate order and its count of identification
    failures. Any other error aborts the loop, as its own class with
    ``seed S, replicate r: `` before its message and the original as its
    cause; a class whose constructor does not take one message
    propagates unchanged.
    """
    draws: dict[str, list[tuple[int, np.ndarray]]] = {tag: [] for tag in tags}
    failures = {tag: 0 for tag in tags}
    for r in range(reps):
        try:
            outs = step(r)
        except Exception as exc:
            try:
                named = type(exc)(f"seed {seed}, replicate {r}: {exc}")
            except TypeError:
                named = None
            if named is None:
                raise
            raise named from exc
        for tag, out in outs.items():
            if isinstance(out, IdentificationError):
                failures[tag] += 1
            else:
                draws[tag].append((r, out))
    return draws, failures


def bootstrap(
    data: Dataset,
    pipeline: Callable[[Dataset], np.ndarray],
    b: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
) -> BootstrapResult:
    """Bootstrap ``pipeline`` over row-resamples of ``data``.

    ``pipeline`` receives each resample as its rows (``Dataset.rows``), with no
    point sample, so a package pipeline (``pipeline_for``) fits them from zero,
    where ``montecarlo.bootstrap_tags`` starts each resample's fit from the point's.

    Parameters
    ----------
    data : Dataset
    pipeline : callable
        Maps a Dataset to a scalar or vector estimate. It must be pure
        with respect to its input and re-estimate everything it needs
        (propensity scores, complier means, partitions) so the interval
        reflects all estimation uncertainty.
    b : number of replicates, at least 10.
    alpha : two-sided level for the percentile interval.
    seed : base seed; replicate r draws from the stream (seed, r).

    Returns
    -------
    BootstrapResult

    Raises
    ------
    TooManyFailuresError
        If fewer than half the replicates survive identification checks
        and give an estimate of the point estimate's shape.
    """

    def evaluate(sample: Dataset, tags) -> dict[str, np.ndarray | IdentificationError]:
        try:
            return {"": np.atleast_1d(np.asarray(pipeline(sample.rows), dtype=float))}
        except IdentificationError as exc:
            return {"": exc}

    return _resample_loop(data, evaluate, [""], b=b, alpha=alpha, seed=seed)[""]


def _resample_loop(data: Dataset, evaluate: Callable[[Dataset, list[str]], dict], tags: list[str],
                   b: int = 1000, alpha: float = 0.05, seed: int = 0) -> dict[str, BootstrapResult]:
    """Bootstrap several estimators over one shared set of weighted resamples.

    ``evaluate(sample, tags)`` maps a sample to each tag's estimate, or
    to the IdentificationError that tag raised on it, so work shared by
    the tags (such as one propensity fit) happens once per sample. The
    point estimates come first; replicate r then draws its resample once
    from the stream (seed, r) and evaluates every tag whose point
    estimate succeeded. Each tag's result equals a one-tag run.

    A resample reaches ``evaluate`` as ``data.resample(counts)``, its
    drawn rows with their counts as frequency weights, so ``evaluate``
    must weigh by ``sample.weights``. A replicate estimate of another
    shape than its tag's point estimate counts as a failure; the error
    for too few survivors names those apart from the unidentified ones.

    Returns one BootstrapResult per tag: the spread of its kept
    replicates in replicate order, and both interval bounds read off
    one sort of them by ``_sorted_quantile``.

    Raises
    ------
    ValueError
        If b < 10, alpha is outside (0, 1), or a tag is repeated.
    IdentificationError, TooManyFailuresError
        Checked per tag in the order of ``tags``: the tag's point
        estimate error first, then fewer than half of its replicates
        surviving, reported with the tag's name.
    Exception
        Any other error a replicate raises aborts the run, named by
        ``run_replicates``; skipping such replicates would bias the
        resampling law.
    """
    if b < 10:
        raise ValueError("bootstrap needs b >= 10 replicates")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    require_distinct(tags)
    points = evaluate(data, tags)
    live = [tag for tag in points if not isinstance(points[tag], IdentificationError)]

    def step(r: int) -> dict[str, np.ndarray | IdentificationError]:
        idx = substream(seed, r, RESAMPLE).integers(0, data.n, size=data.n)
        return evaluate(data.resample(np.bincount(idx, minlength=data.n)), live)

    draws, _ = run_replicates(seed, b if live else 0, step, live)

    results = {}
    for tag in tags:
        if isinstance(points[tag], IdentificationError):
            raise points[tag]
        kept = [estimate for _, estimate in draws[tag] if estimate.shape == points[tag].shape]
        if len(kept) < b / 2:
            label = f"estimator {tag}: " if tag else ""
            reshaped = len(draws[tag]) - len(kept)
            raise TooManyFailuresError(
                f"{label}only {len(kept)} of {b} bootstrap replicates were identified"
                + (f"; {reshaped} more gave an estimate of another shape, as when strata merge to "
                   "another count" if reshaped else "")
            )
        stacked = np.vstack(kept)
        ci_lower, ci_upper = _sorted_quantile(np.sort(stacked, axis=0), [alpha / 2.0, 1.0 - alpha / 2.0])
        results[tag] = BootstrapResult(
            point=points[tag],
            se=stacked.std(axis=0, ddof=1),
            ci_lower=ci_lower,
            ci_upper=ci_upper,
            b_effective=len(kept),
            b_requested=b,
        )
    return results

"""Nonparametric bootstrap over arbitrary estimator pipelines.

Replicates are iid row-resamples, drawn once and shared by every
estimator bootstrapped together, with a private random stream keyed by
(seed, replicate), so output depends only on the inputs and never on
execution order. Replicates that fail an identification condition are
dropped and counted rather than retried; retrying would bias the
resampling law.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import IdentificationError, TooManyFailuresError
from .estimators import Dataset
from .streams import RESAMPLE, substream


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with bootstrap spread and percentile interval.

    Percentile intervals may exclude the point estimate in finite
    samples; no ordering between them is asserted.
    """

    point: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    b_effective: int
    b_requested: int


def require_distinct(tags) -> None:
    """Raise ValueError naming the first estimator tag that repeats an earlier one."""
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(f"estimator tag {tag!r} is repeated")


@contextlib.contextmanager
def replicate_errors(seed: int, replicate: int):
    """Re-raise a replicate's error with ``seed S, replicate r: `` before its message.

    The error keeps its class and has the original as its cause; a class
    whose constructor does not take one message propagates unchanged.
    """
    try:
        yield
    except Exception as exc:
        try:
            named = type(exc)(f"seed {seed}, replicate {replicate}: {exc}")
        except TypeError:
            named = None
        if named is None:
            raise
        raise named from exc


def bootstrap(
    data: Dataset,
    pipeline: Callable[[Dataset], np.ndarray],
    b: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
) -> BootstrapResult:
    """Bootstrap ``pipeline`` over row-resamples of ``data``.

    The one-pipeline case of ``bootstrap_tags``.

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
        If fewer than half the replicates survive identification checks.
    """

    def evaluate(sample: Dataset, tags) -> dict[str, np.ndarray | IdentificationError]:
        try:
            return {"": np.atleast_1d(np.asarray(pipeline(sample), dtype=float))}
        except IdentificationError as exc:
            return {"": exc}

    return bootstrap_tags(data, evaluate, [""], b=b, alpha=alpha, seed=seed)[""]


def bootstrap_tags(
    data: Dataset,
    evaluate: Callable[[Dataset, list[str]], dict[str, np.ndarray | IdentificationError]],
    tags: list[str],
    b: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
) -> dict[str, BootstrapResult]:
    """Bootstrap several estimators over one shared set of row-resamples.

    ``evaluate(sample, tags)`` maps a sample to each tag's estimate, or
    to the IdentificationError that tag raised on it, so work shared by
    the tags (such as one propensity fit) happens once per sample. The
    point estimates come first; replicate r then draws its resample once
    from the stream (seed, r) and evaluates every tag whose point
    estimate succeeded. Each tag's result equals a one-tag run.

    Returns one BootstrapResult per tag.

    Raises
    ------
    ValueError
        If b < 10, alpha is outside (0, 1), or a tag is repeated.
    IdentificationError, TooManyFailuresError
        Checked per tag in the order of ``tags``: the tag's point
        estimate error first, then fewer than half of its replicates
        surviving identification checks, reported with the tag's name.
    Exception
        Any other error a replicate raises aborts the run, as its own
        class with ``seed S, replicate r: `` before its message; skipping
        such replicates would bias the resampling law.
    """
    if b < 10:
        raise ValueError("bootstrap needs b >= 10 replicates")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    require_distinct(tags)
    points = evaluate(data, tags)
    live = [tag for tag in points if not isinstance(points[tag], IdentificationError)]

    draws: dict[str, list[np.ndarray]] = {tag: [] for tag in live}
    for r in range(b if live else 0):
        rng = substream(seed, r, RESAMPLE)
        idx = rng.integers(0, data.n, size=data.n)
        sample = replace(data, y=data.y[idx], d=data.d[idx], z=data.z[idx], x=data.x[idx])
        with replicate_errors(seed, r):
            ests = evaluate(sample, live)
        for tag, est in ests.items():
            if not isinstance(est, IdentificationError):
                draws[tag].append(est)

    results = {}
    for tag in tags:
        if isinstance(points[tag], IdentificationError):
            raise points[tag]
        b_effective = len(draws[tag])
        if b_effective < b / 2:
            label = f"estimator {tag}: " if tag else ""
            raise TooManyFailuresError(
                f"{label}only {b_effective} of {b} bootstrap replicates were identified"
            )
        stacked = np.vstack(draws[tag])
        results[tag] = BootstrapResult(
            point=points[tag],
            se=stacked.std(axis=0, ddof=1),
            ci_lower=np.quantile(stacked, alpha / 2.0, axis=0),
            ci_upper=np.quantile(stacked, 1.0 - alpha / 2.0, axis=0),
            b_effective=b_effective,
            b_requested=b,
        )
    return results

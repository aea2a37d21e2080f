"""Two-stage least squares estimators for a binary treatment and binary instrument.

The family differs only in which interactions enter each stage:

* additive:            lm(D ~ Z + X),       then lm(Y ~ Dhat + X)
* interacted-additive: lm(D ~ Z*X + X),     then lm(Y ~ Dhat + X)
* interacted:          lm(D*X ~ Z*X + X),   then lm(Y ~ DXhat + X)
* partially interacted / generalized first stage as restrictions or
  extensions of the above.

Every variant fits column subsets of one block [X | Z*X | D*X | Y]: with
X's column 0 the constant, Z and D are column 0 of Z*X and D*X. A
``Dataset`` reduces the block once to its triangular factor R
(``Dataset.factor``), and ``_two_stage`` fits both stages on blocks of R,
which give the coefficients of the two n-row regressions. Variants that
nest select the same columns of the same R, so they agree bit for bit; a
generalized first stage whose rows are leading Z*X columns then X reads R
for that reason, and any other one on one factor of [R | X | D | Y].
R's leading X columns also whiten the logistic IRLS and give the CLI's
covariate rank check, so a sample is factored once.
A weighted sample factors its block with row i scaled by sqrt(w_i); a
bootstrap resample with counts reads that R off its point sample's
factorization instead, where it can.

The fits are kernels on a ``Batch``: samples of one size stacked on a
leading axis, each with its own factor, both stages stacked solves on the
stacked factors. A Monte Carlo study evaluates its replicates in batches;
every public function here is its kernel on a batch of one, so each
estimator has one code path and a batch changes no result. A kernel
returns one value per sample, or raises where any sample fails; ``each``
then evaluates the samples one by one, so a sample's error is the one it
raises alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import DegenerateStratumError


@dataclass(frozen=True)
class Dataset:
    """Observed sample for instrumental-variable estimation.

    Attributes
    ----------
    y : ndarray, shape (n,)
        Outcome.
    d : ndarray, shape (n,)
        Binary treatment status in {0, 1}.
    z : ndarray, shape (n,)
        Binary instrument in {0, 1}.
    x : ndarray, shape (n, k)
        Covariate matrix. When ``has_constant`` is True its first column
        is exactly one.
    has_constant : bool
        Whether column 0 of ``x`` is the constant. Categorical designs
        coded as a full set of dummies carry no constant.
    weights : ndarray, shape (n,), optional
        Non-negative row weights: row i enters every sum ``weights[i]``
        times, so a bootstrap resample is its point sample's drawn rows
        with counts (``resample``) and a finite population is its atoms
        with their probabilities; None means once. Estimators weigh their
        sums through ``weighted`` and ``size`` and their fits through
        sqrt(w)-scaled rows. Only ``rows`` and the strata need whole
        numbers. ``generalized_additive_2sls`` and the saturated
        propensity raise ValueError on a weighted sample.

    The arrays are never mutated after construction; ``factor`` is cached
    from them, and ``dataclasses.replace`` makes a new sample with its own.
    """

    y: np.ndarray
    d: np.ndarray
    z: np.ndarray
    x: np.ndarray
    has_constant: bool = True
    weights: np.ndarray | None = None
    # The unweighted sample whose factors and logistic fit a resample reads, and the index
    # of its rows there; ``resample`` sets it, and any other sample has None.
    origin = None

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def size(self) -> float:
        """Sample size: n, or the total count."""
        return self.n if self.weights is None else float(self.weights.sum())

    def weighted(self, v: np.ndarray) -> np.ndarray:
        """``v`` (an entry or row per row) times each row's count: its sums are the sample's."""
        if self.weights is None:
            return v
        return v * (self.weights if v.ndim == 1 else self.weights[:, None])

    def resample(self, counts: np.ndarray) -> "Dataset":
        """This sample with row i drawn ``counts[i]`` times: the drawn rows weighted by their
        counts, reading this sample's factors."""
        if self.weights is not None:
            raise ValueError("resample draws from an unweighted sample")
        drawn = np.nonzero(np.asarray(counts) > 0)[0]
        sample = Dataset(self.y[drawn], self.d[drawn], self.z[drawn], self.x.take(drawn, axis=0),
                         self.has_constant, np.asarray(counts, dtype=float)[drawn])
        sample.__dict__["origin"] = self, drawn  # past the frozen __setattr__
        return sample

    @cached_property
    def rows(self) -> "Dataset":
        """The sample as rows, row i repeated ``weights[i]`` times in order."""
        if self.weights is None:
            return self
        reps = self.weights.astype(np.intp)
        if not ((reps >= 0).all() and np.array_equal(reps, self.weights)):
            raise ValueError("weights must be non-negative whole numbers to repeat rows")
        idx = np.repeat(np.arange(self.n), reps)
        return Dataset(self.y[idx], self.d[idx], self.z[idx], self.x[idx], self.has_constant)

    @cached_property
    def factor(self) -> np.ndarray:
        """Triangular factor R of [X | Z*X | D*X | Y] (k, k, k and 1 columns), rows scaled by
        sqrt(w), computed once. A resample's is U R from its point's B = Q R, with U'U = Q'CQ
        for the counts C (see ``linalg``), where ``linalg.bounded_choleskys`` gives a U."""
        if self.origin is not None and (q := self.origin[0].basis) is not None:
            counts = np.zeros(q.shape[0])
            counts[self.origin[1]] = self.weights
            chol, (bounded,) = linalg.bounded_choleskys(((q.T * counts) @ q)[None])
            if bounded:
                return chol[0] @ self.origin[0].factor
        return linalg.triangular_factor(*self._block())

    # The sample's ``Batch.scales``, computed once: its resamples, whose rows are some of its rows, read them.
    scales = cached_property(lambda self: Batch([self]).scales[0])

    @cached_property
    def basis(self) -> np.ndarray | None:
        """Orthonormal Q of the block = Q ``factor``, computed once for resamples; None if a
        column is dependent, where U R would carry R's rounding instead of the rows'."""
        if linalg.dependent_columns(self.factor).any():
            return None
        return linalg.orthonormal_basis(self.factor, *self._block())

    def _block(self):
        x, y = self.x, self.y
        if self.weights is not None:
            root = np.sqrt(self.weights)
            x, y = root[:, None] * x, root * y
        return x, _interact(self.z, x), _interact(self.d, x), y

    @classmethod
    def from_arrays(cls, y, d, z, x, has_constant: bool = True) -> "Dataset":
        """Build a validated dataset from array-likes.

        Raises ValueError when the sample violates a basic invariant:
        non-binary d or z, non-finite entries, a missing constant column,
        fewer than 2k + 2 rows, or an instrument arm with no units.
        """
        # x is made C-ordered (copied only if it is not): the fits' rounding depends on its layout.
        data = cls(
            y=np.asarray(y, dtype=float).reshape(-1),
            d=np.asarray(d, dtype=float).reshape(-1),
            z=np.asarray(z, dtype=float).reshape(-1),
            x=np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=float))),
            has_constant=has_constant,
        )
        data.validate()
        return data

    def validate(self) -> None:
        n = self.n
        if self.d.shape != (n,) or self.z.shape != (n,) or self.x.shape[0] != n:
            raise ValueError("y, d, z, x must share the same number of rows")
        for name, arr in (("y", self.y), ("d", self.d), ("z", self.z), ("x", self.x)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        for name, arr in (("d", self.d), ("z", self.z)):
            if not np.all((arr == 0.0) | (arr == 1.0)):
                raise ValueError(f"{name} must be strictly binary in {{0, 1}}")
        if self.has_constant and not np.all(self.x[:, 0] == 1.0):
            raise ValueError("has_constant is set but column 0 of x is not all ones")
        if n < 2 * self.k + 2:
            raise ValueError(f"need at least 2k + 2 = {2 * self.k + 2} rows, got {n}")
        if self.z.min() == self.z.max():
            raise ValueError("instrument takes a single value; both arms required")


class Batch:
    """Samples of one size n, width k and constant flag, evaluated together: unweighted
    samples, or one sample of any kind. Their arrays and factors are stacked on a leading
    sample axis. A kernel gives every sample of a batch what a batch of it alone gives, or
    raises; ``each`` gives each sample its outcome."""

    def __init__(self, samples: Sequence[Dataset]):
        self.samples = tuple(samples)
        first = self.samples[0]
        self.n, self.k, self.has_constant = first.n, first.k, first.has_constant
        # Each requested count's ``stratify.stratified`` outcomes, filled once by the tags that read them.
        self.strata: dict[int, list] = {}

    @classmethod
    def stacked(cls, samples: list[Dataset]) -> "Batch":
        """The batch of unweighted ``samples``, rebuilt as views of its stacked arrays, so that
        the samples' own arrays can be freed; a single sample keeps its own."""
        if len(samples) == 1:
            return cls(samples)
        arrays = {name: np.stack([getattr(sample, name) for sample in samples]) for name in ("y", "d", "z", "x")}
        batch = cls([Dataset(*(arrays[name][i] for name in ("y", "d", "z", "x")), sample.has_constant)
                     for i, sample in enumerate(samples)])
        batch.__dict__.update(arrays)
        return batch

    def __len__(self) -> int:
        return len(self.samples)

    def _gather(self, name: str) -> np.ndarray | None:
        if getattr(self.samples[0], name) is None:
            return None
        return stack([getattr(sample, name) for sample in self.samples])

    y = cached_property(lambda self: self._gather("y"))
    d = cached_property(lambda self: self._gather("d"))
    z = cached_property(lambda self: self._gather("z"))
    x = cached_property(lambda self: self._gather("x"))
    weights = cached_property(lambda self: self._gather("weights"))

    @cached_property
    def size(self):
        """Each sample's size: n, or its total count."""
        return self.n if self.weights is None else self.weights.sum(axis=-1)

    def weighted(self, v: np.ndarray) -> np.ndarray:
        """``v``, an (S, n) entry per row, times each row's count."""
        return v if self.weights is None else v * self.weights

    @cached_property
    def factor(self) -> np.ndarray:
        """The samples' ``Dataset.factor``s, stacked; each sample computes and caches its own."""
        return stack([sample.factor for sample in self.samples])

    @cached_property
    def scales(self) -> np.ndarray:
        """Each sample's ``linalg.exact_scale`` of max|y| and of each column's max|x_j|, (S, 1 + k); a resample
        reads its point sample's. Columns are reduced one by one: a reduction along x's rows is slower."""
        if (origin := self.samples[0].origin) is not None:
            return origin[0].scales[None]
        return linalg.exact_scale(np.stack([np.abs(v).max(axis=-1) for v in (self.y, *self.x.transpose(2, 0, 1))], -1))

    @cached_property
    def interacted(self) -> list:
        """Each sample's ``interacted_2sls`` fit, or the error it raised."""
        return each(_interacted, self)

    def take(self, idx) -> "Batch":
        """The batch of the samples at ``idx``, which carry their own factors and fits; every
        sample in order is the batch itself."""
        return self if list(idx) == list(range(len(self))) else Batch([self.samples[i] for i in idx])


def stack(arrays: list) -> np.ndarray:
    """``np.stack(arrays)``; one array's stack is a view of it."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def each(kernel, batch: Batch, *args) -> list:
    """``kernel(batch, *args)``, one outcome per sample; where it raises, each sample's batch of
    one, whose error is then that sample's outcome. ``args`` hold one entry per sample. A kernel
    returns one value per sample or raises, so only a batch that holds a failing sample is
    evaluated sample by sample."""
    try:
        return kernel(batch, *args)
    except Exception as exc:
        if len(batch) == 1:
            return [exc]
        return [each(kernel, batch.take([i]), *([arg[i]] for arg in args))[0] for i in range(len(batch))]


def alone(kernel, data: Dataset, *args):
    """``kernel`` on the batch of ``data`` alone: its value, or the error it raises."""
    return kernel(Batch([data]), *args)[0]


def values(outcomes: list) -> list:
    """``outcomes``, one per sample, where none is an error; else raises the first error."""
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    return outcomes


@dataclass(frozen=True)
class TwoSlsFit:
    """Coefficients of an interacted (or interacted-OLS) fit.

    ``beta`` holds the coefficients of the instrumented treatment block,
    ``gamma`` the second-stage coefficients of the covariates. ``c1`` and
    ``c0`` are the first-stage coefficient blocks on the instrument
    interactions and on the covariates: row j fits D*X_j, so the fitted
    block is ``(Z*X) @ c1.T + X @ c0.T``.
    """

    beta: np.ndarray
    gamma: np.ndarray
    c1: np.ndarray
    c0: np.ndarray


def _interact(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    return v[:, None] * x


def _two_stage(batch: Batch, instruments, responses, first: bool = False):
    """lm(responses ~ X + instruments), then lm(Y ~ X + fitted), on each sample's factor R of
    [X | Z*X | D*X | Y]; ``instruments`` index Z*X, ``responses`` D*X.

    The first w rows of R hold W = [X | instruments], the responses and Y in an orthonormal
    basis of W (the columns are factored again unless W leads R): W's own R, so the first
    stage needs no QR, and one stacked solve fits it for every sample. X and the fitted
    responses lie in W, so the second stage fits Y's coordinates on those of [X | responses],
    by one stacked least squares (``least_squares`` for a sample alone). Returns the first
    stage's stacked coefficients (with ``first``, else None, its rank still checked) and the
    second's, rows ordered [instruments, X] and [fitted, X]: those of the two n-row fits.
    Raises where a sample's stage has a dependent column.
    """
    k, rmat = batch.k, batch.factor
    cols = [*range(k), *(k + i for i in instruments)]
    resp = [2 * k + j for j in responses]
    w = len(cols)
    if cols != list(range(w)):
        rmat = stack([linalg.triangular_factor(r) for r in rmat[..., [*cols, *resp, -1]]])
        resp = list(range(w, w + len(resp)))
    stage = None
    if first:
        linalg.check_finite(rmat[..., resp], "responses")
        linalg.check_finite(rmat[..., :w], "regressors")
    linalg.check_rank(rmat[:, :w, :w])
    if first:
        stage = np.linalg.solve(rmat[:, :w, :w], rmat[:, :w, resp])
        stage = np.concatenate([stage[:, k:], stage[:, :k]], axis=1)
    regressors = [*range(k), *resp]
    if len(batch) == 1:  # a sample alone fits through the public least_squares
        coef = linalg.least_squares(rmat[0, :w, -1], rmat[0][:w, regressors]).coef[None]
    else:
        responses, design = rmat[:, :w, -1:], rmat[:, :w][..., regressors]
        linalg.check_finite(responses, "responses")
        linalg.check_finite(design, "regressors")
        coef = linalg.stacked_least_squares(responses, design)[0]
    return stage, np.concatenate([coef[:, k:], coef[:, :k]], axis=1)


def _additive(batch: Batch) -> list:
    """Each sample's ``additive_2sls``."""
    _require_constant(batch, "additive_2sls")
    return _two_stage(batch, [0], [0])[1][:, 0, 0].tolist()


def _interacted_additive(batch: Batch) -> list:
    """Each sample's ``interacted_additive_2sls``."""
    _require_constant(batch, "interacted_additive_2sls")
    return _two_stage(batch, range(batch.k), [0])[1][:, 0, 0].tolist()


def _interacted(batch: Batch) -> list:
    """Each sample's ``interacted_2sls`` fit."""
    k = batch.k
    first, second = _two_stage(batch, range(k), range(k), first=True)
    return [TwoSlsFit(out[:k, 0].copy(), out[k:, 0].copy(), f[:k, :].T, f[k:, :].T)
            for f, out in zip(first, second)]


def additive_2sls(data: Dataset) -> float:
    """Additive 2SLS: lm(D ~ Z + X) then lm(Y ~ Dhat + X); returns the Dhat coefficient."""
    return alone(_additive, data)


def interacted_2sls(data: Dataset) -> TwoSlsFit:
    """Interacted 2SLS: component-wise lm(D*X ~ Z*X + X) then lm(Y ~ DXhat + X)."""
    return alone(_interacted, data)


def interacted_additive_2sls(data: Dataset) -> float:
    """Interacted first stage, additive second: lm(D ~ Z*X + X) then lm(Y ~ Dhat + X)."""
    return alone(_interacted_additive, data)


def partially_interacted_2sls(data: Dataset, v_cols: Sequence[int]) -> np.ndarray:
    """Interact treatment and instrument with the covariate subset ``v_cols`` only.

    Fits lm(D*V ~ Z*V + X) then lm(Y ~ DVhat + X) and returns the
    coefficient vector of the fitted block, one entry per selected column.
    Selecting every column reproduces the interacted fit; selecting only
    the constant reproduces the additive fit.
    """
    cols = list(v_cols)
    if not cols:
        raise ValueError("v_cols must select at least one covariate column")
    if len(set(cols)) != len(cols):
        raise ValueError("v_cols contains duplicates")
    if min(cols) < 0 or max(cols) >= data.k:
        raise ValueError(f"v_cols out of range for k = {data.k}")
    return _two_stage(Batch([data]), cols, cols)[1][0, : len(cols), 0].copy()


def generalized_additive_2sls(
    data: Dataset, first_stage_builder: Callable[[float, np.ndarray], Sequence[float]]
) -> float:
    """Arbitrary first stage lm(D ~ R) with R built row-wise, additive second stage.

    ``first_stage_builder(z_i, x_row)`` must return a fixed-width row of
    finite regressors; no intercept is added, so include one if wanted.
    Leading Z*X columns then X read the sample's factor, so one or all k of them give
    ``additive_2sls`` or ``interacted_additive_2sls`` bit for bit; any other R fits
    both stages on one factor of [R | X | D | Y].
    """
    _require_constant(data, "generalized_additive_2sls")
    if data.weights is not None:
        raise ValueError("generalized_additive_2sls takes no weighted sample")
    rows = [np.asarray(first_stage_builder(float(zi), xi), dtype=float) for zi, xi in zip(data.z, data.x)]
    widths = {row.shape for row in rows}
    if len(widths) != 1 or rows[0].ndim != 1:
        raise ValueError("first_stage_builder must return fixed-width 1-d rows")
    r = np.vstack(rows)
    k, a = data.k, r.shape[1] - data.k
    if 0 < a <= k and np.array_equal(r, np.column_stack([_interact(data.z, data.x[:, :a]), data.x])):
        return float(_two_stage(Batch([data]), range(a), [0])[1][0, 0, 0])
    a, rmat = r.shape[1], linalg.triangular_factor(r, data.x, data.d, data.y)
    fitted = rmat[:, :a] @ linalg.least_squares(rmat[:, a + k], rmat[:, :a]).coef
    return float(linalg.least_squares(rmat[:, -1], np.column_stack([fitted, rmat[:, a : a + k]])).coef[0, 0])


def interacted_ols(data: Dataset) -> TwoSlsFit:
    """Interacted OLS: the interacted fit with the treatment as its own instrument."""
    return interacted_2sls(replace(data, z=data.d))


def stratum_wald(data: Dataset, stratum_labels) -> np.ndarray:
    """Per-stratum Wald estimates, ordered by sorted stratum label.

    For each stratum: (mean Y | Z=1 - mean Y | Z=0) / (mean D | Z=1 - mean D | Z=0).
    On the stratum dummies these are the interacted 2SLS coefficients.

    Raises DegenerateStratumError when a stratum lacks an instrument arm
    or its first-stage difference is exactly zero.
    """
    labels = np.asarray(stratum_labels)
    if labels.shape != (data.n,):
        raise ValueError("stratum_labels must have one entry per unit")
    levels, codes = np.unique(labels, return_inverse=True)
    single_arm, d_diff, y_diff = _arm_moments(data, codes.reshape(-1), levels.size)
    for j, level in enumerate(levels):
        if single_arm[j]:
            raise DegenerateStratumError(f"stratum {level!r} contains a single instrument arm")
        if d_diff[j] == 0.0:
            raise DegenerateStratumError(f"stratum {level!r} has zero first-stage difference")
    return y_diff / d_diff


def _arm_moments(data: Dataset, codes: np.ndarray, m: int):
    """Per-stratum instrument-arm gaps of the treatment and outcome means.

    ``codes`` assigns each unit a stratum in 0..m-1. Returns
    (single_arm, d_diff, y_diff): whether each stratum lacks an
    instrument arm, and mean(. | Z=1) - mean(. | Z=0) of D and of Y
    within each stratum (NaN where an arm is empty). Sums are weighted
    by the sample's counts; the treatment sums are exact integer counts.
    """
    return arm_gaps(2 * codes + (data.z == 1.0), data.weights, data.weighted(data.d), data.weighted(data.y), m)


def arm_gaps(cell: np.ndarray, weights, d: np.ndarray, y: np.ndarray, m: int):
    """``_arm_moments`` from each unit's (stratum, arm) cell in 0..2m-1, its count and its
    weighted D and Y, flat over any number of samples whose strata are numbered apart. A
    bincount adds each cell's entries in order, so every stratum gets its own sample's sums."""
    units = np.bincount(cell, weights, 2 * m).reshape(m, 2)

    def gap(v: np.ndarray) -> np.ndarray:
        arm_mean = np.bincount(cell, v, 2 * m).reshape(m, 2) / units
        return arm_mean[:, 1] - arm_mean[:, 0]

    with np.errstate(invalid="ignore", divide="ignore"):
        return (units == 0).any(axis=1), gap(d), gap(y)


def _require_constant(data: Dataset, op: str) -> None:
    if not data.has_constant:
        raise ValueError(f"{op} requires a dataset with a constant column")

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
        for the counts C (see ``linalg``), where ``bounded_cholesky`` gives a U."""
        if self.origin is not None and (q := self.origin[0].basis) is not None:
            counts = np.zeros(q.shape[0])
            counts[self.origin[1]] = self.weights
            if (chol := linalg.bounded_cholesky((q.T * counts) @ q)) is not None:
                return chol @ self.origin[0].factor
        return linalg.triangular_factor(*self._block())

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


def _two_stage(data: Dataset, instruments, responses, first: bool = False):
    """lm(responses ~ X + instruments), then lm(Y ~ X + fitted), on the sample's factor R of
    [X | Z*X | D*X | Y]; ``instruments`` index Z*X, ``responses`` D*X.

    The first w rows of R hold W = [X | instruments], the responses and Y in an orthonormal
    basis of W (the columns are factored again unless W leads R): W's own R, so the first
    stage needs no QR. X and the fitted responses lie in W, so the second stage fits Y's
    coordinates on those of [X | responses]. Returns the first stage's coefficients (with
    ``first``, else None, its rank still checked) and the second's, rows ordered
    [instruments, X] and [fitted, X]: those of the two n-row fits.
    """
    k, rmat = data.k, data.factor
    cols = [*range(k), *(k + i for i in instruments)]
    resp = [2 * k + j for j in responses]
    w = len(cols)
    if cols != list(range(w)):
        rmat = linalg.triangular_factor(rmat[:, [*cols, *resp, -1]])
        resp = list(range(w, w + len(resp)))
    stage = None
    if first:
        stage = linalg.least_squares(rmat[:, resp], rmat[:, :w]).coef
        stage = np.concatenate([stage[k:], stage[:k]])
    else:
        linalg.triangular_condition(rmat[:w, :w])
    second = linalg.least_squares(rmat[:w, -1], rmat[:w, [*range(k), *resp]]).coef
    return stage, np.concatenate([second[k:], second[:k]])


def additive_2sls(data: Dataset) -> float:
    """Additive 2SLS: lm(D ~ Z + X) then lm(Y ~ Dhat + X); returns the Dhat coefficient."""
    _require_constant(data, "additive_2sls")
    _, second = _two_stage(data, [0], [0])
    return float(second[0, 0])


def interacted_2sls(data: Dataset) -> TwoSlsFit:
    """Interacted 2SLS: component-wise lm(D*X ~ Z*X + X) then lm(Y ~ DXhat + X)."""
    k = data.k
    first, second = _two_stage(data, range(k), range(k), first=True)
    return TwoSlsFit(second[:k, 0].copy(), second[k:, 0].copy(), first[:k, :].T, first[k:, :].T)


def interacted_additive_2sls(data: Dataset) -> float:
    """Interacted first stage, additive second: lm(D ~ Z*X + X) then lm(Y ~ Dhat + X)."""
    _require_constant(data, "interacted_additive_2sls")
    _, second = _two_stage(data, range(data.k), [0])
    return float(second[0, 0])


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
    _, second = _two_stage(data, cols, cols)
    return second[: len(cols), 0].copy()


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
        _, second = _two_stage(data, range(a), [0])
        return float(second[0, 0])
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
    cell = 2 * codes + (data.z == 1.0)
    units = np.bincount(cell, data.weights, 2 * m).reshape(m, 2)

    def gap(v: np.ndarray) -> np.ndarray:
        arm_mean = np.bincount(cell, data.weighted(v), 2 * m).reshape(m, 2) / units
        return arm_mean[:, 1] - arm_mean[:, 0]

    with np.errstate(invalid="ignore", divide="ignore"):
        return (units == 0).any(axis=1), gap(data.d), gap(data.y)


def _require_constant(data: Dataset, op: str) -> None:
    if not data.has_constant:
        raise ValueError(f"{op} requires a dataset with a constant column")

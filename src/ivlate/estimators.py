"""Two-stage least squares estimators for a binary treatment and binary instrument.

The family differs only in which interactions enter each stage:

* additive:            lm(D ~ Z + X),       then lm(Y ~ Dhat + X)
* interacted-additive: lm(D ~ Z*X + X),     then lm(Y ~ Dhat + X)
* interacted:          lm(D*X ~ Z*X + X),   then lm(Y ~ DXhat + X)
* partially interacted / generalized first stage as restrictions or
  extensions of the above.

Every variant fits column subsets of one block [Z*X | X | D*X | Y]: with
X's column 0 the constant, Z and D are column 0 of Z*X and D*X. A
``Dataset`` reduces the block once to its triangular factor R
(``Dataset.factor``), and ``_two_stage`` fits both stages on column
blocks of R, which give the coefficients of the two n-row regressions.
Variants that nest select the same columns of the same R, so they agree
bit for bit; a generalized first stage whose rows are leading Z*X columns
then X reads R for that reason, and any other one factors its own block.
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

    The arrays are never mutated after construction; ``factor`` is cached
    from them, and ``dataclasses.replace`` makes a new sample with its own.
    """

    y: np.ndarray
    d: np.ndarray
    z: np.ndarray
    x: np.ndarray
    has_constant: bool = True

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @cached_property
    def factor(self) -> np.ndarray:
        """Triangular factor R of [Z*X | X | D*X | Y] (k, k, k and 1 columns), computed once."""
        return linalg.triangular_factor(_interact(self.z, self.x), self.x, _interact(self.d, self.x), self.y)

    @classmethod
    def from_arrays(cls, y, d, z, x, has_constant: bool = True) -> "Dataset":
        """Build a validated dataset from array-likes.

        Raises ValueError when the sample violates a basic invariant:
        non-binary d or z, non-finite entries, a missing constant column,
        fewer than 2k + 2 rows, or an instrument arm with no units.
        """
        data = cls(
            y=np.asarray(y, dtype=float).reshape(-1),
            d=np.asarray(d, dtype=float).reshape(-1),
            z=np.asarray(z, dtype=float).reshape(-1),
            x=np.atleast_2d(np.asarray(x, dtype=float)),
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


def _two_stage(rmat: np.ndarray, a: int, k: int, instruments, responses, controls: bool = True):
    """lm(responses ~ instruments + X), then lm(Y ~ fitted + X), on column blocks of R.

    ``rmat`` factors a block [A | X | B | Y] with a, k, any and 1 columns;
    ``instruments`` and ``responses`` index columns of A and of B. The
    first stage leaves out X when ``controls`` is False; the second always
    includes it. Returns both stages' coefficient matrices, which equal
    those of the two n-row fits.
    """
    design = rmat[:, [*instruments, *(range(a, a + k) if controls else ())]]
    first = linalg.least_squares(rmat[:, [a + k + j for j in responses]], design)
    second = linalg.least_squares(rmat[:, -1], np.column_stack([design @ first.coef, rmat[:, a : a + k]]))
    return first.coef, second.coef


def additive_2sls(data: Dataset) -> float:
    """Additive 2SLS: lm(D ~ Z + X) then lm(Y ~ Dhat + X); returns the Dhat coefficient."""
    _require_constant(data, "additive_2sls")
    _, second = _two_stage(data.factor, data.k, data.k, [0], [0])
    return float(second[0, 0])


def interacted_2sls(data: Dataset) -> TwoSlsFit:
    """Interacted 2SLS: component-wise lm(D*X ~ Z*X + X) then lm(Y ~ DXhat + X)."""
    k = data.k
    first, second = _two_stage(data.factor, k, k, range(k), range(k))
    return TwoSlsFit(second[:k, 0].copy(), second[k:, 0].copy(), first[:k, :].T, first[k:, :].T)


def interacted_additive_2sls(data: Dataset) -> float:
    """Interacted first stage, additive second: lm(D ~ Z*X + X) then lm(Y ~ Dhat + X)."""
    _require_constant(data, "interacted_additive_2sls")
    _, second = _two_stage(data.factor, data.k, data.k, range(data.k), [0])
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
    _, second = _two_stage(data.factor, data.k, data.k, cols, cols)
    return second[: len(cols), 0].copy()


def generalized_additive_2sls(
    data: Dataset, first_stage_builder: Callable[[float, np.ndarray], Sequence[float]]
) -> float:
    """Arbitrary first stage lm(D ~ R) with R built row-wise, additive second stage.

    ``first_stage_builder(z_i, x_row)`` must return a fixed-width row of
    finite regressors; no intercept is added, so include one if wanted.
    """
    _require_constant(data, "generalized_additive_2sls")
    rows = [np.asarray(first_stage_builder(float(zi), xi), dtype=float) for zi, xi in zip(data.z, data.x)]
    widths = {row.shape for row in rows}
    if len(widths) != 1 or rows[0].ndim != 1:
        raise ValueError("first_stage_builder must return fixed-width 1-d rows")
    r = np.vstack(rows)
    k, a = data.k, r.shape[1] - data.k
    # Rows ending with the covariate row make lm(D ~ R) an instrument + X first stage.
    controls = a > 0 and np.array_equal(r[:, a:], data.x)
    a = a if controls else r.shape[1]
    if controls and a <= k and np.array_equal(r[:, :a], _interact(data.z, data.x[:, :a])):
        rmat, width = data.factor, k  # leading Z*X columns
    else:
        rmat, width = linalg.triangular_factor(r[:, :a], data.x, data.d, data.y), a
    _, second = _two_stage(rmat, width, k, range(a), [0], controls)
    return float(second[0, 0])


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
    within each stratum (NaN where an arm is empty). The treatment sums
    are exact integer counts.
    """
    cell = 2 * codes + (data.z == 1.0)
    units = np.bincount(cell, minlength=2 * m).reshape(m, 2)

    def gap(v: np.ndarray) -> np.ndarray:
        arm_mean = np.bincount(cell, v, 2 * m).reshape(m, 2) / units
        return arm_mean[:, 1] - arm_mean[:, 0]

    with np.errstate(invalid="ignore", divide="ignore"):
        return (units == 0).any(axis=1), gap(data.d), gap(data.y)


def _require_constant(data: Dataset, op: str) -> None:
    if not data.has_constant:
        raise ValueError(f"{op} requires a dataset with a constant column")

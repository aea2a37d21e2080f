"""Two-stage least squares estimators for a binary treatment and binary instrument.

The family differs only in which interactions enter each stage:

* additive:            lm(D ~ Z + X),       then lm(Y ~ Dhat + X)
* interacted-additive: lm(D ~ Z*X + X),     then lm(Y ~ Dhat + X)
* interacted:          lm(D*X ~ Z*X + X),   then lm(Y ~ DXhat + X)
* partially interacted / generalized first stage as restrictions or
  extensions of the above.

Second stages always regress on the stored first-stage fitted values, so
algebraic identities between the variants are properties of the numbers,
not of shared code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    """Result of an interacted (or interacted-OLS) fit.

    ``beta`` holds the coefficients of the instrumented treatment block,
    ``gamma`` the second-stage coefficients of the covariates. ``c1`` and
    ``c0`` are the first-stage coefficient blocks on the instrument
    interactions and on the covariates. ``fitted_block`` is the
    first-stage fitted block and ``controls`` the covariate matrix, both
    held by reference.
    """

    beta: np.ndarray
    gamma: np.ndarray
    c1: np.ndarray
    c0: np.ndarray
    fitted_block: np.ndarray = field(repr=False, compare=False)
    controls: np.ndarray = field(repr=False, compare=False)

    @property
    def fwl_design(self) -> np.ndarray:
        """The first-stage fitted block residualized on the covariates.

        Regressing the outcome on it alone reproduces ``beta``. Computed
        on access, since no estimator needs it.
        """
        return linalg.residualize(self.fitted_block, self.controls)


@dataclass(frozen=True)
class ScalarEstimate:
    """A single treatment-effect estimate with its estimator tag."""

    value: float
    label: str


def _interact(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    return v[:, None] * x


def additive_2sls(data: Dataset) -> ScalarEstimate:
    """Additive 2SLS: lm(D ~ Z + X) then lm(Y ~ Dhat + X); returns the Dhat coefficient."""
    _require_constant(data, "additive_2sls")
    first = linalg.least_squares(data.d, np.column_stack([data.z, data.x]))
    second = linalg.least_squares(data.y, np.column_stack([first.fitted, data.x]))
    return ScalarEstimate(value=float(second.coef[0, 0]), label="++")


def interacted_2sls(data: Dataset) -> TwoSlsFit:
    """Interacted 2SLS: component-wise lm(D*X ~ Z*X + X) then lm(Y ~ DXhat + X)."""
    k = data.k
    dx = _interact(data.d, data.x)
    zx = _interact(data.z, data.x)
    first = linalg.least_squares(dx, np.column_stack([zx, data.x]))
    # Row j of c1/c0 holds the first-stage coefficients for response D*X_j.
    c1 = first.coef[:k, :].T
    c0 = first.coef[k:, :].T
    second = linalg.least_squares(data.y, np.column_stack([first.fitted, data.x]))
    return TwoSlsFit(
        beta=second.coef[:k, 0].copy(),
        gamma=second.coef[k:, 0].copy(),
        c1=c1,
        c0=c0,
        fitted_block=first.fitted,
        controls=data.x,
    )


def interacted_additive_2sls(data: Dataset) -> ScalarEstimate:
    """Interacted first stage, additive second: lm(D ~ Z*X + X) then lm(Y ~ Dhat + X)."""
    _require_constant(data, "interacted_additive_2sls")
    zx = _interact(data.z, data.x)
    first = linalg.least_squares(data.d, np.column_stack([zx, data.x]))
    second = linalg.least_squares(data.y, np.column_stack([first.fitted, data.x]))
    return ScalarEstimate(value=float(second.coef[0, 0]), label="x+")


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
    v = data.x[:, cols]
    dv = _interact(data.d, v)
    zv = _interact(data.z, v)
    first = linalg.least_squares(dv, np.column_stack([zv, data.x]))
    second = linalg.least_squares(data.y, np.column_stack([first.fitted, data.x]))
    return second.coef[: len(cols), 0].copy()


def generalized_additive_2sls(
    data: Dataset, first_stage_builder: Callable[[float, np.ndarray], Sequence[float]]
) -> ScalarEstimate:
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
    first = linalg.least_squares(data.d, r)
    second = linalg.least_squares(data.y, np.column_stack([first.fitted, data.x]))
    return ScalarEstimate(value=float(second.coef[0, 0]), label="*+")


def interacted_ols(data: Dataset) -> TwoSlsFit:
    """Interacted OLS: the interacted fit with the treatment as its own instrument."""
    return interacted_2sls(replace(data, z=data.d))


def stratum_wald(data: Dataset, stratum_labels) -> list[ScalarEstimate]:
    """Per-stratum Wald estimates, ordered by sorted stratum label.

    For each stratum: (mean Y | Z=1 - mean Y | Z=0) / (mean D | Z=1 - mean D | Z=0).

    Raises DegenerateStratumError when a stratum lacks an instrument arm
    or its first-stage difference is exactly zero.
    """
    labels = np.asarray(stratum_labels)
    if labels.shape != (data.n,):
        raise ValueError("stratum_labels must have one entry per unit")
    levels, codes = np.unique(labels, return_inverse=True)
    single_arm, d_diff, y_diff = _arm_moments(data, codes.reshape(-1), levels.size)
    estimates = []
    for j, level in enumerate(levels):
        if single_arm[j]:
            raise DegenerateStratumError(f"stratum {level!r} contains a single instrument arm")
        if d_diff[j] == 0.0:
            raise DegenerateStratumError(f"stratum {level!r} has zero first-stage difference")
        estimates.append(ScalarEstimate(value=float(y_diff[j] / d_diff[j]), label="wald"))
    return estimates


def _arm_moments(data: Dataset, codes: np.ndarray, m: int):
    """Per-stratum instrument-arm gaps of the treatment and outcome means.

    ``codes`` assigns each unit a stratum in 0..m-1. Returns
    (single_arm, d_diff, y_diff): whether each stratum lacks an
    instrument arm, and mean(. | Z=1) - mean(. | Z=0) of D and of Y
    within each stratum (NaN where an arm is empty). The treatment sums
    are exact integer counts.
    """
    arm1 = data.z == 1.0
    c1, c0 = codes[arm1], codes[~arm1]
    n1 = np.bincount(c1, minlength=m)
    n0 = np.bincount(c0, minlength=m)

    def gap(v: np.ndarray) -> np.ndarray:
        return np.bincount(c1, v[arm1], m) / n1 - np.bincount(c0, v[~arm1], m) / n0

    with np.errstate(invalid="ignore", divide="ignore"):
        return (n1 == 0) | (n0 == 0), gap(data.d), gap(data.y)


def _require_constant(data: Dataset, op: str) -> None:
    if not data.has_constant:
        raise ValueError(f"{op} requires a dataset with a constant column")

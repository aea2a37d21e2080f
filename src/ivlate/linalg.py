"""Dense multi-response least squares and residualization.

Every estimator in the package is expressed through the two functions in
this module. Fits go through a column-pivoted QR factorization rather
than the normal equations because interacted designs are moderately
ill-conditioned. Rank deficiency is always an error, never resolved by a
pseudo-inverse: downstream identification results presuppose full-rank
designs, and silently dropping a direction would mask the violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonFiniteError, RankDeficientError

# A pivot counts as zero below this fraction of the largest pivot.
# Categorical dummy designs produce exact zeros plus float noise, so the
# threshold is far above machine epsilon but far below any real pivot.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class LsFit:
    """Least-squares fit of p response columns on a common n-by-q design.

    Attributes
    ----------
    coef : ndarray, shape (q, p)
        One coefficient column per response column.
    fitted : ndarray, shape (n, p)
        ``regressors @ coef``.
    residuals : ndarray, shape (n, p)
        ``responses - fitted``; orthogonal to the design columns.
    condition_estimate : float
        Ratio of the largest to the smallest QR pivot, a cheap condition
        number proxy.
    """

    coef: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    condition_estimate: float


def _as_matrix(values, name: str) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty vector or 2-d array")
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return out


def least_squares(responses, regressors) -> LsFit:
    """Regress every column of ``responses`` on ``regressors``.

    Parameters
    ----------
    responses : array-like, shape (n,) or (n, p)
    regressors : array-like, shape (n,) or (n, q), requires n >= q

    Returns
    -------
    LsFit

    Raises
    ------
    RankDeficientError
        If the design has effective rank < q at relative pivot tolerance
        ``RANK_RTOL``.
    NonFiniteError
        If any input entry is NaN or infinite.
    """
    y = _as_matrix(responses, "responses")
    x = _as_matrix(regressors, "regressors")
    n, q = x.shape
    if y.shape[0] != n:
        raise ValueError(f"responses have {y.shape[0]} rows, regressors {n}")
    if n < q:
        raise ValueError(f"need at least as many rows ({n}) as regressors ({q})")

    qmat, rmat, pivot = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rmat))
    if diag[0] <= 0.0 or diag[-1] < RANK_RTOL * diag[0]:
        rank = 0 if diag[0] <= 0.0 else int(np.sum(diag >= RANK_RTOL * diag[0]))
        raise RankDeficientError(
            f"design has effective rank {rank} < {q} (pivot ratio "
            f"{diag[-1] / diag[0] if diag[0] > 0 else 0.0:.2e})"
        )

    coef_pivoted = scipy.linalg.solve_triangular(rmat, qmat.T @ y)
    coef = np.empty_like(coef_pivoted)
    coef[pivot] = coef_pivoted
    fitted = x @ coef
    return LsFit(
        coef=coef,
        fitted=fitted,
        residuals=y - fitted,
        condition_estimate=float(diag[0] / diag[-1]),
    )


def residualize(targets, controls) -> np.ndarray:
    """Return ``targets`` minus their least-squares projection on ``controls``.

    The result has columns orthogonal to every control column. Applying
    the projection twice is a no-op up to float noise.
    """
    return least_squares(targets, controls).residuals

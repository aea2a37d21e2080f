"""Dense multi-response least squares, triangular reduction, residualization.

Every regression in the package is a ``least_squares`` call. Fits go
through a column-pivoted QR factorization rather than the normal
equations because interacted designs are moderately ill-conditioned.
Rank deficiency is always an error, never resolved by a pseudo-inverse:
downstream identification results presuppose full-rank designs, and
silently dropping a direction would mask the violation.

Chains of fits on one sample (both 2SLS stages of every estimator, each
IRLS step) first reduce the column-stacked n-row block to its triangular
factor R with ``triangular_factor`` and then fit on column blocks of R,
which has at most as many rows as the block has columns. The block
equals Q R with Q orthonormal, so every fit among its columns has the
same coefficients, pivots and condition estimate on R, without squaring
the condition number as the normal equations would. Those fits are at
most about 10 by 10, so ``least_squares`` calls LAPACK's ``dgeqp3``,
``dormqr`` and ``dtrtrs`` directly, skipping scipy's wrapper overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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
    if not np.isfinite(out).all():
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

    # The dgeqp3 of scipy.linalg.qr(pivoting=True) (same pivots and R below
    # LAPACK's 128-column blocking crossover), Q^T y from the stored
    # reflectors without forming Q, and the dtrtrs of solve_triangular.
    qr, jpvt, tau, _, _ = lapack.dgeqp3(x)
    diag = np.abs(qr.diagonal()[:q])
    if diag[0] <= 0.0 or diag[-1] < RANK_RTOL * diag[0]:
        rank = 0 if diag[0] <= 0.0 else int(np.sum(diag >= RANK_RTOL * diag[0]))
        raise RankDeficientError(
            f"design has effective rank {rank} < {q} (pivot ratio "
            f"{diag[-1] / diag[0] if diag[0] > 0 else 0.0:.2e})"
        )

    qty = lapack.dormqr("L", "T", qr, tau, y, y.shape[1])[0]
    coef = np.empty((q, y.shape[1]))
    coef[jpvt - 1] = lapack.dtrtrs(qr[:q], qty[:q])[0]
    fitted = x @ coef
    return LsFit(coef, fitted, y - fitted, condition_estimate=float(diag[0] / diag[-1]))


def triangular_factor(*blocks) -> np.ndarray:
    """Upper-triangular factor R of the column-stacked ``blocks``.

    The blocks (vectors or 2-d arrays with n rows each) are stacked into
    an n-by-m block B = Q R, reduced by one unpivoted Householder QR;
    Q is never formed. Returns R with shape (min(n, m), m). Columns of R
    have the norms and inner products of the matching columns of B, so
    ``least_squares`` on column blocks of R gives the coefficients it
    gives on the columns of B, and with n < m it still sees only n rows.

    Raises
    ------
    NonFiniteError
        If any entry is NaN or infinite; checked before factoring.
    """
    cols = [np.asarray(b, dtype=float) for b in blocks]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    n = cols[0].shape[0]
    if n < 1 or any(c.ndim != 2 or c.shape[0] != n for c in cols):
        raise ValueError("blocks must be nonempty vectors or 2-d arrays with equal row counts")
    stacked = np.empty((n, sum(c.shape[1] for c in cols)), order="F")
    start = 0
    for c in cols:
        stacked[:, start : start + c.shape[1]] = c
        start += c.shape[1]
    if not np.isfinite(stacked).all():
        raise NonFiniteError("factored block contains non-finite entries")
    factored = lapack.dgeqrf(stacked, overwrite_a=1)[0]
    return np.triu(factored[: min(n, stacked.shape[1])])


def residualize(targets, controls) -> np.ndarray:
    """Return ``targets`` minus their least-squares projection on ``controls``.

    The result has columns orthogonal to every control column. Applying
    the projection twice is a no-op up to float noise.
    """
    return least_squares(targets, controls).residuals

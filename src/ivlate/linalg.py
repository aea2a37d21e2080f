"""Dense multi-response least squares and triangular reduction.

Every regression in the package is a ``least_squares`` call. Fits go
through a column-pivoted QR factorization rather than the normal
equations because interacted designs are moderately ill-conditioned.
Rank deficiency is always an error, never resolved by a pseudo-inverse:
downstream identification results presuppose full-rank designs, and
silently dropping a direction would mask the violation.

Chains of fits on one sample (both 2SLS stages of every estimator, the
first IRLS step) reduce the column-stacked n-row block to its triangular
factor R with ``triangular_factor`` and fit on column blocks of R, which
has at most as many rows as the block has columns; later IRLS steps fit
on k-row factors from whitened Grams (see ``complier``). The block is
Q R with Q orthonormal, so every fit among its columns has the same
coefficients, pivots and condition estimate on R, without squaring the
condition number. Those fits are at most about 10 by 10, so
``least_squares`` calls ``dgeqp3``, ``dormqr`` and ``dtrtrs`` directly.

The block with row i counted c_i times (a bootstrap resample) has Gram
R'(Q'CQ)R, so U R with U'U = Q'CQ (``bounded_cholesky``, Q from
``orthonormal_basis``) factors it; Q'CQ is conditioned like C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NonFiniteError, RankDeficientError

# A pivot counts as zero below this fraction of the largest pivot.
# Categorical dummy designs produce exact zeros plus float noise, so the
# threshold is far above machine epsilon but far below any real pivot.
RANK_RTOL = 1e-10

# Fits on U T, U'U = Q'WQ, lose about 1.1e-16 (max/min diag U)^2 relative accuracy: 1e-8 here.
GRAM_RATIO_MAX = 1e4


@dataclass(frozen=True)
class LsFit:
    """Least-squares fit of p response columns on a common n-by-q design.

    Attributes
    ----------
    coef : ndarray, shape (q, p)
        One coefficient column per response column; the fitted values
        are ``regressors @ coef``.
    condition_estimate : float
        Ratio of the largest to the smallest QR pivot, a cheap condition
        number proxy.
    """

    coef: np.ndarray
    condition_estimate: float


def _as_matrix(values, name: str) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty vector or 2-d array")
    # A finite sum has finite terms; an overflowed one gets the entrywise check.
    if not math.isfinite(out.sum()) and not np.isfinite(out).all():
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
    # Pivoting orders |diag R| non-increasingly, so the checks read its first and last entries.
    first, last = abs(float(qr[0, 0])), abs(float(qr[q - 1, q - 1]))
    if first <= 0.0 or last < RANK_RTOL * first:
        diag = np.abs(qr.diagonal()[:q])
        rank = 0 if first <= 0.0 else int(np.sum(diag >= RANK_RTOL * first))
        raise RankDeficientError(
            f"design has effective rank {rank} < {q} (pivot ratio "
            f"{last / first if first > 0 else 0.0:.2e})"
        )

    p = y.shape[1]
    qty = lapack.dormqr("L", "T", qr, tau, y, p)[0]
    coef = np.empty((q, p))
    coef[jpvt - 1] = lapack.dtrtrs(qr[:q], qty[:q])[0]
    return LsFit(coef, first / last)


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
    factored = _householder(blocks)[0]
    return np.triu(factored[: min(factored.shape)])


def orthonormal_basis(*blocks) -> np.ndarray:
    """The Q, Fortran-ordered and (n, min(n, m)), of B = Q ``triangular_factor(*blocks)``."""
    factored, tau = _householder(blocks)
    return lapack.dorgqr(factored[:, : min(factored.shape)], tau, overwrite_a=1)[0]


def _householder(blocks) -> tuple[np.ndarray, np.ndarray]:
    """dgeqrf's reflectors and scalars for the column-stacked ``blocks``."""
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
    return lapack.dgeqrf(stacked, overwrite_a=1)[:2]


def dependent_columns(rmat: np.ndarray) -> np.ndarray:
    """Whether each column of the block factored by ``rmat`` is within RANK_RTOL of the span of
    the earlier ones: |R_jj|, its distance from it, is at most RANK_RTOL times its norm."""
    diag = np.zeros(rmat.shape[1])
    diag[: min(rmat.shape)] = np.abs(rmat.diagonal())
    return diag <= RANK_RTOL * np.linalg.norm(rmat, axis=0)


def bounded_cholesky(gram: np.ndarray) -> np.ndarray | None:
    """U with U'U = ``gram``; None if it does not exist or max/min diag U exceeds GRAM_RATIO_MAX."""
    chol, info = lapack.dpotrf(gram)
    if info != 0 or (diag := chol.diagonal()).max() > GRAM_RATIO_MAX * diag.min():
        return None
    return chol

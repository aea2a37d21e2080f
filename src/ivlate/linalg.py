"""Dense multi-response least squares and triangular reduction, on ``numpy.linalg``.

Every regression in the package is a ``least_squares`` call: one
unpivoted Householder QR of [X | Y], whose first q rows are R of X and
Q'Y, then one triangular solve. The normal equations would square the
condition number of the moderately ill-conditioned interacted designs.
Rank deficiency is always an error, never resolved by a pseudo-inverse:
downstream identification results presuppose full-rank designs. The
check reads |R_jj|, the distance of column j from the span of the earlier
ones, against the norm of column j, so no column's scale decides the rank;
unpivoted R stops showing the rank after the first dependent column, so an
error counts it from the singular values of R with unit-norm columns.

Chains of fits on one sample (both 2SLS stages of every estimator) reduce
the column-stacked n-row block to its triangular factor R with
``triangular_factor`` and fit on blocks of R, which has at most as many
rows as the block has columns; IRLS steps solve on k-row factors from
whitened Grams (see ``complier``). The block is Q R with Q orthonormal,
so every fit among its columns has the same coefficients and condition
estimate on R. Leading columns of a factor are upper trapezoidal, their
own R, so ``least_squares`` skips their QR.

The block with row i counted c_i times (a bootstrap resample) has Gram
R'(Q'CQ)R, so U R with U'U = Q'CQ (``bounded_cholesky``, Q from
``orthonormal_basis``) factors it; Q'CQ is conditioned like C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteError, RankDeficientError

# A column of R is dependent where |R_jj| is at most this fraction of the column's norm.
# Categorical dummy designs produce exact zeros plus float noise, so the threshold is far
# above machine epsilon but far below any real distance.
RANK_RTOL = 1e-10

# Fits on U T, U'U = Q'WQ, lose about 1.1e-16 (max/min diag U)^2 relative accuracy: 1e-8 here.
GRAM_RATIO_MAX = 1e4

# A block with rows for several groups of GROUP_ROWS factors each group, then their stacked R's.
GROUP_ROWS = 1024


@dataclass(frozen=True)
class LsFit:
    """Least-squares fit of p response columns on a common n-by-q design.

    Attributes
    ----------
    coef : ndarray, shape (q, p)
        One coefficient column per response column; the fitted values
        are ``regressors @ coef``.
    condition_estimate : float
        Ratio of the largest to the smallest |R_jj| of the unpivoted QR
        of the design, a cheap lower bound on its condition number.
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


@lru_cache(maxsize=64)
def _upper(rows: int, cols: int) -> np.ndarray:
    """Read-only boolean mask of the upper triangle of a rows-by-cols matrix."""
    mask = np.triu(np.ones((rows, cols), dtype=bool))
    mask.flags.writeable = False
    return mask


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
        If a column of the design is dependent (see ``dependent_columns``).
    NonFiniteError
        If any input entry is NaN or infinite.
    """
    y = _as_matrix(responses, "responses")
    x = _as_matrix(regressors, "regressors")
    n, q = x.shape
    if y.shape[0] != n:
        raise ValueError(f"responses have {y.shape[0]} rows, regressors {n}")
    if x[~_upper(n, q)].any():
        factor = _r_factor(np.concatenate([x, y], axis=1))
        rmat, qty = factor[:q, :q], factor[:q, q:]
    else:  # Householder QR would leave upper trapezoidal X, and so Y, as they are
        rmat, qty = x[:q], y[:q]
    condition = triangular_condition(rmat)
    return LsFit(np.linalg.solve(rmat, qty), condition)


def triangular_condition(rmat: np.ndarray) -> float:
    """max/min |diag R| of the square upper-triangular ``rmat``, the fit's condition estimate.

    Raises RankDeficientError when a column is dependent (``dependent_columns``),
    naming the smallest ratio of |R_jj| to its column's norm, and ValueError when
    ``rmat`` has fewer rows than columns.
    """
    rows, q = rmat.shape
    if rows < q:
        raise ValueError(f"need at least as many rows ({rows}) as regressors ({q})")
    diag = [abs(v) for v in rmat.diagonal().tolist()]
    norms = np.hypot.reduce(rmat, axis=0)  # hypot neither overflows nor underflows
    for d, norm in zip(diag, norms.tolist()):
        if d <= RANK_RTOL * norm:
            unit = rmat / np.where(norms > 0.0, norms, 1.0)
            sv = np.linalg.svd(unit, compute_uv=False)
            rank = int(np.sum(sv >= RANK_RTOL * sv[0])) if sv[0] > 0.0 else 0
            ratio = np.abs(unit.diagonal()).min()
            raise RankDeficientError(f"design has effective rank {rank} < {q} (diagonal ratio {ratio:.2e})")
    return max(diag) / min(diag)


def triangular_factor(*blocks) -> np.ndarray:
    """Upper-triangular factor R of the column-stacked ``blocks``.

    The blocks (vectors or 2-d arrays with n rows each) are stacked into
    an n-by-m block B = Q R and reduced by Householder QR without
    pivoting; Q is never formed. Returns R with shape (min(n, m), m).
    Columns of R have the norms and inner products of the matching
    columns of B, so ``least_squares`` on column blocks of R gives the
    coefficients it gives on the columns of B, and with n < m it still
    sees only n rows. Groups of rows that stay in cache are factored
    one by one, then their stacked R's.

    Raises
    ------
    NonFiniteError
        If any entry is NaN or infinite; each group is checked before it is factored.
    """
    cols = _columns(blocks)
    n, m = cols[0].shape[0], sum(c.shape[1] for c in cols)
    groups = max(1, n // max(GROUP_ROWS, m))
    bounds = [n * g // groups for g in range(groups + 1)]
    parts = [_r_factor(_stack(cols, start, stop)) for start, stop in zip(bounds, bounds[1:])]
    return parts[0] if groups == 1 else _r_factor(np.concatenate(parts))


def orthonormal_basis(rmat: np.ndarray, *blocks) -> np.ndarray:
    """Q = B R^-1 for the column-stacked ``blocks`` B and R = ``triangular_factor(B)``, square
    and nonsingular: B = Q R and Q'Q = I up to the rounding unit times the condition number
    of R with unit-norm columns."""
    cols = _columns(blocks)
    qmat, inverse = _stack(cols, 0, cols[0].shape[0]), np.linalg.inv(rmat)
    for start in range(0, qmat.shape[0], GROUP_ROWS):  # in place, a group of rows at a time
        qmat[start : start + GROUP_ROWS] = qmat[start : start + GROUP_ROWS] @ inverse
    return qmat


def _columns(blocks) -> list[np.ndarray]:
    cols = [np.asarray(b, dtype=float) for b in blocks]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    if cols[0].shape[0] < 1 or any(c.ndim != 2 or c.shape[0] != cols[0].shape[0] for c in cols):
        raise ValueError("blocks must be nonempty vectors or 2-d arrays with equal row counts")
    return cols


def _stack(cols, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the column-stacked ``cols``, checked finite, in whole columns."""
    out = np.empty((stop - start, sum(c.shape[1] for c in cols)), order="F")
    np.concatenate([c[start:stop] for c in cols], axis=1, out=out)
    if not math.isfinite(out.sum()) and not np.isfinite(out).all():
        raise NonFiniteError("factored block contains non-finite entries")
    return out


def _r_factor(block: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(block, mode="r")`` bit for bit, with a cached mask for its ``np.triu``."""
    rows = min(block.shape)
    factored = np.linalg.qr(block, mode="raw")[0][:, :rows].T  # raw is the transposed factor
    return np.where(_upper(rows, block.shape[1]), factored, 0.0)


def dependent_columns(rmat: np.ndarray) -> np.ndarray:
    """Whether each column of the block factored by ``rmat`` is within RANK_RTOL of the span of
    the earlier ones: |R_jj|, its distance from it, is at most RANK_RTOL times its norm."""
    diag = np.zeros(rmat.shape[1])
    diag[: min(rmat.shape)] = np.abs(rmat.diagonal())
    return diag <= RANK_RTOL * np.hypot.reduce(rmat, axis=0)


def bounded_cholesky(gram: np.ndarray) -> np.ndarray | None:
    """U with U'U = ``gram``; None if it does not exist or max/min diag U exceeds GRAM_RATIO_MAX."""
    try:
        chol = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        return None
    diag = chol.diagonal().tolist()
    return None if max(diag) > GRAM_RATIO_MAX * min(diag) else chol

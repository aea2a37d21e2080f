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
estimate on R. Leading columns of a factor are upper trapezoidal, their own
R, and the QR of ``least_squares`` keeps them bit for bit (each Householder tau is 0).

The block with row i counted c_i times (a bootstrap resample) has Gram
R'(Q'CQ)R, so U R with U'U = Q'CQ (``bounded_choleskys``, Q from
``orthonormal_basis``) factors it; Q'CQ is conditioned like C.

A Monte Carlo study generates and evaluates its samples in batches of at
most BATCH_ROWS rows, a budget sized by the batch's peak memory:
``stacked_least_squares``, ``check_rank`` and ``dependent_columns`` take
blocks and factors stacked on a leading sample axis. numpy's stacked
QR, solve, Cholesky and inverse, stacked matmul and reductions along a
contiguous row give every sample the bits of its own 2-d call, so a batch
changes no result. A stacked fit raises where any of
its samples has a dependent column; ``estimators.each`` then fits each
sample alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Samples of a Monte Carlo study are generated and evaluated together up to this many rows in
# all (sixteen samples at n = 1000); a larger sample is a batch of one. Past it a design-B study
# gains at most 2 % in speed while its peak memory grows with the budget (see README).
BATCH_ROWS = 16384


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
    check_finite(out, name)
    return out


def check_finite(values: np.ndarray, name: str) -> None:
    """Raise NonFiniteError naming ``name`` if an entry of ``values`` is NaN or infinite."""
    # A finite sum has finite terms; an overflowed one gets the entrywise check.
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if not math.isfinite(total) and not np.isfinite(values).all():
        raise NonFiniteError(f"{name} contains non-finite entries")


def exact_scale(magnitude) -> np.ndarray:
    """2^(e - 1), e >= -1022 the np.frexp exponent of each ``magnitude`` (so the reciprocal is a float):
    it brings the magnitude into [1, 2), and dividing by it and multiplying a sum or square back is exact
    while results stay normal. It is 1 where squares and sums stay normal, |e| <= 256 (inf and NaN: 0)."""
    e = np.frexp(magnitude)[1]
    return np.where(np.abs(e) <= 256, 1.0, np.ldexp(0.5, np.maximum(e, -1022)))


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
    if y.shape[0] != x.shape[0]:
        raise ValueError(f"responses have {y.shape[0]} rows, regressors {x.shape[0]}")
    coef, rmat = stacked_least_squares(y[None], x[None])
    return LsFit(coef[0], _condition(rmat[0]))


def stacked_least_squares(y: np.ndarray, x: np.ndarray):
    """``least_squares`` of finite (S, n, p) responses on (S, n, q) regressors stacked on a
    leading axis. Returns the (S, q, p) coefficients and the regressors' (S, q, q) factors;
    raises the first sample's RankDeficientError (``check_rank``)."""
    q = x.shape[-1]
    factor = np.linalg.qr(np.concatenate([x, y], axis=-1), mode="r")
    rmat, qty = factor[..., :q, :q], factor[..., :q, q:]
    check_rank(rmat)
    return np.linalg.solve(rmat, qty), rmat


def _condition(rmat: np.ndarray) -> float:
    diag = [abs(v) for v in rmat.diagonal().tolist()]
    return max(diag) / min(diag)


def check_rank(rmats: np.ndarray) -> None:
    """Raise the ``rank_error`` of the first of the stacked (S, rows, q) upper-triangular
    factors ``rmats`` with a dependent column (``dependent_columns``), or ValueError when they
    have fewer rows than columns."""
    rows, q = rmats.shape[-2:]
    if rows < q:
        raise ValueError(f"need at least as many rows ({rows}) as regressors ({q})")
    dependent = dependent_columns(rmats).any(axis=-1)
    if dependent.any():
        raise rank_error(rmats[dependent.argmax()])


def solve_where(ok, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` of the stacked systems where ``ok`` holds, NaN elsewhere. The
    sound systems are solved together, each with the bits of its own solve."""
    if all(ok):
        return np.linalg.solve(a, b)
    out, ok = np.full(a.shape[:-1] + b.shape[-1:], np.nan), np.asarray(ok, dtype=bool)
    if ok.any():
        out[ok] = np.linalg.solve(a[ok], b[ok])
    return out


def rank_error(rmat: np.ndarray) -> RankDeficientError:
    """The error of the factor ``rmat`` with a dependent column: its rank, from the singular
    values of R with unit-norm columns, and its smallest ratio of |R_jj| to its column's norm."""
    norms = np.hypot.reduce(rmat, axis=0)
    unit = rmat / np.where(norms > 0.0, norms, 1.0)
    sv = np.linalg.svd(unit, compute_uv=False)
    rank = int(np.sum(sv >= RANK_RTOL * sv[0])) if sv[0] > 0.0 else 0
    ratio = np.abs(unit.diagonal()).min()
    return RankDeficientError(f"design has effective rank {rank} < {rmat.shape[1]} (diagonal ratio {ratio:.2e})")


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
    parts = [np.linalg.qr(_stack(cols, start, stop), mode="r") for start, stop in zip(bounds, bounds[1:])]
    return parts[0] if groups == 1 else np.linalg.qr(np.concatenate(parts), mode="r")


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
    if cols[0].ndim != 2 or cols[0].shape[0] < 1 or any(c.shape[:-1] != cols[0].shape[:-1] for c in cols):
        raise ValueError("blocks must be nonempty vectors or 2-d arrays with equal row counts")
    return cols


def _stack(cols, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the column-stacked ``cols``, checked finite, in whole columns."""
    out = np.empty((stop - start, sum(c.shape[1] for c in cols)), order="F")
    np.concatenate([c[start:stop] for c in cols], axis=1, out=out)
    check_finite(out, "factored block")
    return out


def dependent_columns(rmat: np.ndarray) -> np.ndarray:
    """Whether each column of the block factored by ``rmat``, or by each of a stack of factors, is
    within RANK_RTOL of the span of the earlier ones: |R_jj|, its distance from it, is at most
    RANK_RTOL times its norm (a hypot norm, which neither overflows nor underflows)."""
    rows, cols = rmat.shape[-2:]
    if rows < cols:  # zero rows give the columns past the last row their |R_jj|, 0
        rmat = np.concatenate([rmat, np.zeros(rmat.shape[:-2] + (cols - rows, cols))], axis=-2)
    return np.abs(rmat.diagonal(axis1=-2, axis2=-1)) <= RANK_RTOL * np.hypot.reduce(rmat, axis=-2)


def bounded_choleskys(grams: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """The factors U with U'U = each of the stacked ``grams``, and whether each exists with
    max/min diag U within GRAM_RATIO_MAX (where not, its U is meaningless)."""
    try:
        chol, exists = np.linalg.cholesky(grams).swapaxes(-1, -2), [True] * len(grams)
    except np.linalg.LinAlgError:  # one gram is not positive definite: factor each alone
        chol, exists = np.zeros_like(grams), []
        for i, gram in enumerate(grams):
            try:
                chol[i] = np.linalg.cholesky(gram).T
            except np.linalg.LinAlgError:
                exists.append(False)
            else:
                exists.append(True)
    diags = chol.diagonal(axis1=-2, axis2=-1).tolist()
    return chol, [ok and max(diag) <= GRAM_RATIO_MAX * min(diag) for ok, diag in zip(exists, diags)]

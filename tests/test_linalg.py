import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _helpers import residualize

from ivlate import linalg
from ivlate.errors import NonFiniteError, RankDeficientError


def test_self_regression_recovers_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 4))
    fit = linalg.least_squares(x, x)
    assert np.allclose(fit.coef, np.eye(4), atol=1e-12)
    assert np.allclose(x - x @ fit.coef, 0.0, atol=1e-12)


def test_intercept_only_fit_is_the_mean():
    fit = linalg.least_squares(np.array([1.0, 2.0, 3.0]), np.ones(3))
    assert fit.coef[0, 0] == pytest.approx(2.0, abs=1e-14)


def test_two_regressor_fit_matches_hand_solved_normal_equations():
    # X'X = [[3, 3], [3, 5]], X'y = [5, 6]  ->  coef = (7/6, 1/2)
    y = np.array([1.0, 2.0, 2.0])
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    fit = linalg.least_squares(y, x)
    assert np.allclose(fit.coef[:, 0], [7.0 / 6.0, 0.5], atol=1e-12)


def test_fitted_plus_residuals_reconstruct_responses():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((30, 3))
    x = rng.standard_normal((30, 5))
    fitted = x @ linalg.least_squares(y, x).coef
    assert np.allclose(fitted + residualize(y, x), y, atol=1e-12)


def test_residualize_against_self_is_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((15, 3))
    assert np.allclose(residualize(x, x), 0.0, atol=1e-12)


def test_residualize_on_constant_demeans():
    y = np.array([1.0, 4.0, 7.0, 8.0])
    out = residualize(y, np.ones(4))
    assert np.allclose(out[:, 0], y - y.mean(), atol=1e-14)


def test_residualize_matches_hand_computation():
    # Residuals of the (7/6, 1/2) fit above: (-1/6, 1/3, -1/6).
    y = np.array([1.0, 2.0, 2.0])
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    out = residualize(y, x)
    assert np.allclose(out[:, 0], [-1.0 / 6.0, 1.0 / 3.0, -1.0 / 6.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_residuals_orthogonal_to_design(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 120))
    q = int(rng.integers(1, min(8, n)))
    x = rng.standard_normal((n, q))
    y = rng.standard_normal((n, 2)) * 10.0
    bound = 1e-8 * np.linalg.norm(x) * np.linalg.norm(y)
    assert np.abs(x.T @ residualize(y, x)).max() <= bound


@pytest.mark.parametrize("seed", range(4))
def test_residualize_is_idempotent(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal((40, 4))
    a = rng.standard_normal((40, 3))
    once = residualize(a, x)
    twice = residualize(once, x)
    scale = max(np.abs(once).max(), 1.0)
    assert np.abs(twice - once).max() <= 1e-10 * scale


def test_joint_row_permutation_leaves_coefficients_unchanged():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((25, 3))
    y = rng.standard_normal((25, 2))
    perm = rng.permutation(25)
    base = linalg.least_squares(y, x)
    permuted = linalg.least_squares(y[perm], x[perm])
    assert np.abs(base.coef - permuted.coef).max() <= 1e-12
    assert np.allclose((x @ base.coef)[perm], x[perm] @ permuted.coef, atol=1e-12)
    assert np.allclose((y - x @ base.coef)[perm], y[perm] - x[perm] @ permuted.coef, atol=1e-12)


def test_duplicate_column_raises_rank_deficient():
    rng = np.random.default_rng(4)
    col = rng.standard_normal(20)
    x = np.column_stack([col, col])
    with pytest.raises(RankDeficientError):
        linalg.least_squares(rng.standard_normal(20), x)


def test_near_duplicate_column_below_tolerance_raises():
    rng = np.random.default_rng(5)
    col = rng.standard_normal(50)
    x = np.column_stack([col, col * (1.0 + 1e-13)])
    with pytest.raises(RankDeficientError):
        linalg.least_squares(rng.standard_normal(50), x)


def test_nonfinite_input_raises():
    y = np.array([1.0, np.nan, 2.0])
    with pytest.raises(NonFiniteError):
        linalg.least_squares(y, np.ones(3))
    with pytest.raises(NonFiniteError):
        linalg.least_squares(np.ones(3), np.array([1.0, np.inf, 2.0]))


def test_more_regressors_than_rows_rejected():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        linalg.least_squares(rng.standard_normal(3), rng.standard_normal((3, 5)))


def test_condition_estimate_reflects_scaling():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 2))
    x_bad = x.copy()
    x_bad[:, 1] *= 1e-6
    y = rng.standard_normal(30)
    assert linalg.least_squares(y, x_bad).condition_estimate > linalg.least_squares(y, x).condition_estimate


def test_check_rank_and_solve_where_keep_each_sound_system_alone():
    """A stack of factors, one with a dependent column: a stack that holds it raises its error,
    as ``least_squares`` raises it, and one without it passes; ``solve_where`` gives it NaN
    coefficients and the others the bits of their own solve. Solving on the identity gives
    ``np.linalg.inv`` bit for bit (both are gesv)."""
    rng = np.random.default_rng(5)
    rmats = np.triu(rng.standard_normal((4, 3, 3)) * 10.0 ** rng.uniform(-4, 4, (4, 1, 3)))
    rmats[2, :, 2] = rmats[2, :, 0] * 3.0
    rhs = rng.standard_normal((4, 3, 2))
    for idx in ([0], [1], [3], [0, 1, 3]):
        linalg.check_rank(rmats[idx])
    with pytest.raises(RankDeficientError) as raised:
        linalg.least_squares(rhs[2], rmats[2])
    with pytest.raises(RankDeficientError) as stacked:
        linalg.check_rank(rmats)
    assert str(stacked.value) == str(raised.value)
    other = rmats.copy()
    other[0, :, 1:] = other[0, :, :1]  # a second dependent factor, of rank 1, ahead: its error comes first
    with pytest.raises(RankDeficientError) as first:
        linalg.check_rank(other)
    assert str(first.value) == str(linalg.rank_error(other[0])) != str(raised.value)
    with pytest.raises(ValueError, match="at least as many rows"):
        linalg.check_rank(rmats[:, :2, :])
    ok = [True, True, False, True]
    coef = linalg.solve_where(ok, rmats, rhs)
    assert np.isnan(coef[2]).all()
    for i in (0, 1, 3):
        assert coef[i].tobytes() == np.linalg.solve(rmats[i], rhs[i]).tobytes()
    inverse = linalg.solve_where(ok, rmats, np.broadcast_to(np.eye(3), rmats.shape))
    assert inverse[[0, 1, 3]].tobytes() == np.linalg.inv(rmats[[0, 1, 3]]).tobytes()


def test_triangular_factor_keeps_inner_products_fits_and_pivots():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 4)) * np.array([1.0, 1e3, 1e-3, 1.0])
    y = rng.standard_normal((60, 2))
    r = linalg.triangular_factor(x, y)
    assert r.shape == (6, 6)
    assert np.array_equal(r, np.triu(r))
    assert np.allclose(r.T @ r, np.column_stack([x, y]).T @ np.column_stack([x, y]), rtol=1e-12, atol=1e-9)
    tall, short = linalg.least_squares(y, x), linalg.least_squares(r[:, 4:], r[:, :4])
    assert np.allclose(short.coef, tall.coef, rtol=1e-10, atol=0.0)
    assert short.condition_estimate == pytest.approx(tall.condition_estimate, rel=1e-10)


def test_householder_qr_leaves_an_upper_trapezoidal_design_as_it_is():
    """A column already zero below the diagonal has Householder tau = 0, even on a zero diagonal
    entry, so the QR of [X | Y] keeps upper trapezoidal X and the first q rows of Y bit for bit.
    In a stack that mixes such designs with full ones, each gets its own 2-d call's fit, and a
    trapezoidal one the solve of its first q rows."""
    rng = np.random.default_rng(12)
    n, q = 7, 4
    upper = np.triu(rng.standard_normal((n, q)))
    sparse = upper.copy()
    sparse[0, 2] = sparse[1, 3] = 0.0  # zeros above the diagonal too
    x = np.stack([rng.standard_normal((n, q)), upper, sparse, rng.standard_normal((n, q))])
    y = rng.standard_normal((4, n, 2))
    coef, rmat = linalg.stacked_least_squares(y, x)
    for i in range(4):
        own_coef, own_rmat = linalg.stacked_least_squares(y[i : i + 1], x[i : i + 1])
        assert coef[i].tobytes() == own_coef[0].tobytes() == linalg.least_squares(y[i], x[i]).coef.tobytes()
        assert rmat[i].tobytes() == own_rmat[0].tobytes()
    for i in (1, 2):
        assert rmat[i].tobytes() == x[i, :q].tobytes()
        assert coef[i].tobytes() == np.linalg.solve(x[i, :q], y[i, :q]).tobytes()

    singular = upper.copy()
    singular[2, 2] = 0.0
    block = np.column_stack([singular, y[0]])
    assert np.linalg.qr(block, mode="r")[:q].tobytes() == block[:q].tobytes()
    with pytest.raises(RankDeficientError):
        linalg.stacked_least_squares(np.stack([y[0], y[1]]), np.stack([x[0], singular]))


def test_triangular_factor_of_an_upper_triangular_block_is_the_block():
    rng = np.random.default_rng(13)
    upper = np.triu(rng.standard_normal((5, 5)))
    singular = upper.copy()
    singular[3, 3] = 0.0
    for block in (upper, singular):
        assert linalg.triangular_factor(block).tobytes() == block.tobytes()
    tall = np.concatenate([upper, np.zeros((3, 5))])
    assert linalg.triangular_factor(tall).tobytes() == upper.tobytes()


def test_triangular_factor_of_a_wide_block_keeps_the_row_count():
    rng = np.random.default_rng(9)
    r = linalg.triangular_factor(rng.standard_normal((3, 5)), rng.standard_normal(3))
    assert r.shape == (3, 6)
    with pytest.raises(ValueError, match=r"rows \(3\) as regressors \(5\)"):
        linalg.least_squares(r[:, 5], r[:, :5])


def test_triangular_factor_checks_finiteness_first():
    x = np.ones((4, 2))
    for bad in (np.nan, np.inf, -np.inf):
        y = np.array([1.0, bad, 2.0, 3.0])
        with pytest.raises(NonFiniteError):
            linalg.triangular_factor(x, y)
    with pytest.raises(ValueError):
        linalg.triangular_factor(x, np.ones(3))


def test_orthonormal_basis_pairs_with_the_factor():
    """Q = B R^-1 for the R that triangular_factor returns, on one group of rows and on several."""
    rng = np.random.default_rng(10)
    for n in (40, 3 * linalg.GROUP_ROWS + 5):
        x = rng.standard_normal((n, 4)) * np.array([1.0, 1e3, 1e-3, 1.0])
        y = rng.standard_normal(n)
        r = linalg.triangular_factor(x, y)
        q = linalg.orthonormal_basis(r, x, y)
        block = np.column_stack([x, y])
        assert np.abs(q @ r - block).max() <= 1e-12 * np.abs(block).max(axis=0).max()
        assert np.abs(q.T @ q - np.eye(5)).max() <= 1e-12


def test_a_tall_block_factored_by_groups_keeps_inner_products():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4 * linalg.GROUP_ROWS + 3, 6)) * np.array([1.0, 1e2, 1e-2, 1.0, 5.0, 1.0])
    r = linalg.triangular_factor(x)
    assert r.shape == (6, 6) and np.array_equal(r, np.triu(r))
    assert np.allclose(r.T @ r, x.T @ x, rtol=1e-12, atol=1e-9)


def test_the_package_imports_no_scipy():
    """Every factorization goes through numpy.linalg, so a process that runs ivlate pays
    nothing for scipy's import (about 0.3 s, most of an `ivlate estimate` start-up)."""
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ivlate, ivlate.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

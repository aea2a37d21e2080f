from dataclasses import replace

import numpy as np
import pytest
from _helpers import dummy_coded, fwl_design, simulate_iv

from ivlate.complier import centered_interacted_2sls, complier_mean, fit_propensity
from ivlate.errors import DegenerateStratumError, NonFiniteError, RankDeficientError
from ivlate.estimators import (
    Dataset,
    additive_2sls,
    generalized_additive_2sls,
    interacted_2sls,
    interacted_additive_2sls,
    interacted_ols,
    partially_interacted_2sls,
    stratum_wald,
)
from ivlate.linalg import least_squares


def wald(data):
    z1 = data.z == 1.0
    return (data.y[z1].mean() - data.y[~z1].mean()) / (data.d[z1].mean() - data.d[~z1].mean())


# ---------------------------------------------------------------------------
# Dataset validation
# ---------------------------------------------------------------------------


def test_from_arrays_accepts_valid_sample():
    data = simulate_iv(0)
    rebuilt = Dataset.from_arrays(data.y, data.d, data.z, data.x)
    assert rebuilt.n == data.n and rebuilt.k == data.k


@pytest.mark.parametrize(
    "mutate",
    [
        lambda y, d, z, x: (y, d + 1.0, z, x),            # non-binary d
        lambda y, d, z, x: (y, d, z * 0.5, x),            # non-binary z
        lambda y, d, z, x: (y, d, np.ones_like(z), x),    # single instrument arm
        lambda y, d, z, x: (np.where(np.arange(len(y)) == 0, np.nan, y), d, z, x),
        lambda y, d, z, x: (y, d, z, x + 1.0),            # breaks the constant column
    ],
)
def test_from_arrays_rejects_invalid_samples(mutate):
    data = simulate_iv(1)
    with pytest.raises(ValueError):
        Dataset.from_arrays(*mutate(data.y, data.d, data.z, data.x))


def test_from_arrays_requires_enough_rows():
    data = simulate_iv(2, n=400, k=3)
    with pytest.raises(ValueError):
        Dataset.from_arrays(data.y[:7], data.d[:7], data.z[:7], data.x[:7])


# ---------------------------------------------------------------------------
# Non-finite input past validation
# ---------------------------------------------------------------------------


TWO_STAGE_ESTIMATORS = {
    "additive": additive_2sls,
    "interacted-additive": interacted_additive_2sls,
    "interacted": interacted_2sls,
    "interacted-ols": interacted_ols,
    "partially-interacted": lambda data: partially_interacted_2sls(data, [0, 2]),
    "generalized (z, x)": lambda data: generalized_additive_2sls(data, lambda z, xr: np.concatenate([[z], xr])),
    "generalized (1, z, z x2)": lambda data: generalized_additive_2sls(
        data, lambda z, xr: np.array([1.0, z, z * xr[2]])
    ),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "name, column",
    # Interacted OLS instruments with d, so z does not enter it.
    [(name, col) for name in sorted(TWO_STAGE_ESTIMATORS) for col in "ydzx"
     if (name, col) != ("interacted-ols", "z")],
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_entry_raises_from_every_two_stage_estimator(name, column, value):
    data = simulate_iv(15, n=120)
    bad = getattr(data, column).copy()
    if column == "x":
        bad[37, 2] = value
    else:
        bad[37] = value
    # Built directly, so Dataset.validate never sees the entry.
    with pytest.raises(NonFiniteError):
        TWO_STAGE_ESTIMATORS[name](replace(data, **{column: bad}))


# ---------------------------------------------------------------------------
# Additive 2SLS
# ---------------------------------------------------------------------------


def test_estimators_return_numbers():
    data = simulate_iv(17, n=200)
    prop = fit_propensity(data, "logistic")
    scalars = (
        additive_2sls(data),
        interacted_additive_2sls(data),
        generalized_additive_2sls(data, lambda z, xr: np.concatenate([[z], xr])),
        centered_interacted_2sls(data, prop),
    )
    assert all(type(value) is float for value in scalars)
    assert complier_mean(data, prop, [1]).shape == (1,)
    assert complier_mean(data, prop, []).shape == (0,)
    dummies, cat = dummy_coded(18)
    walds = stratum_wald(dummies, cat)
    assert isinstance(walds, np.ndarray) and walds.dtype == float
    assert np.abs(walds - interacted_2sls(dummies).beta).max() <= 1e-10


def test_additive_2sls_perfect_compliance_unit_effect():
    rng = np.random.default_rng(3)
    n = 60
    z = (rng.random(n) < 0.5).astype(float)
    z[:2] = [0.0, 1.0]
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    data = Dataset(y=z.copy(), d=z.copy(), z=z, x=x, has_constant=True)
    assert additive_2sls(data) == pytest.approx(1.0, abs=1e-10)


def test_additive_2sls_matches_two_step_normal_equations():
    # Handcrafted 8-row sample, checked against an independent two-stage
    # normal-equations solve.
    y = np.array([2.0, 1.0, 3.0, 5.0, 4.0, 0.0, 2.5, 3.5])
    d = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    z = np.array([1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    x = np.column_stack([np.ones(8), np.array([0.5, -1.0, 2.0, 0.0, 1.0, -0.5, 1.5, -2.0])])
    data = Dataset(y=y, d=d, z=z, x=x, has_constant=True)

    w = np.column_stack([z, x])
    dhat = w @ np.linalg.solve(w.T @ w, w.T @ d)
    q = np.column_stack([dhat, x])
    expected = np.linalg.solve(q.T @ q, q.T @ y)[0]
    assert additive_2sls(data) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# Interacted 2SLS
# ---------------------------------------------------------------------------


def test_interacted_2sls_constant_only_covariate_is_wald():
    data = simulate_iv(4, n=300, k=3)
    collapsed = Dataset(y=data.y, d=data.d, z=data.z, x=data.x[:, :1], has_constant=True)
    fit = interacted_2sls(collapsed)
    assert fit.beta[0] == pytest.approx(wald(collapsed), rel=1e-10)


def test_interacted_2sls_dummy_coding_equals_stratum_wald():
    data, cat = dummy_coded(5)
    fit = interacted_2sls(data)
    assert np.abs(fit.beta - stratum_wald(data, cat)).max() <= 1e-10


def test_fwl_identity():
    for seed in range(5):
        data = simulate_iv(seed, n=250)
        fit = interacted_2sls(data)
        direct = least_squares(data.y, fwl_design(data, fit)).coef[:, 0]
        assert np.abs(fit.beta - direct).max() <= 1e-8 * max(1.0, np.abs(fit.beta).max())


def test_first_stage_blocks_reproduce_fitted_values():
    data = simulate_iv(6, n=200)
    fit = interacted_2sls(data)
    dx_hat = (data.z[:, None] * data.x) @ fit.c1.T + data.x @ fit.c0.T
    design = np.column_stack([data.z[:, None] * data.x, data.x])
    first = least_squares(data.d[:, None] * data.x, design)
    assert np.allclose(dx_hat, design @ first.coef, atol=1e-10)


def test_transformation_equivariance_of_beta():
    data = simulate_iv(7, n=300, k=3)
    rng = np.random.default_rng(8)
    gamma = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    transformed = Dataset(
        y=data.y, d=data.d, z=data.z, x=data.x @ gamma.T, has_constant=False
    )
    beta_t = interacted_2sls(transformed).beta
    beta = interacted_2sls(data).beta
    expected = np.linalg.solve(gamma.T, beta)
    assert np.abs(beta_t - expected).max() <= 1e-8 * max(1.0, np.abs(expected).max())


def test_scalar_estimators_invariant_to_constant_preserving_transforms():
    data = simulate_iv(9, n=300, k=3)
    gamma = np.array([[1.0, 0.0, 0.0], [0.7, 2.0, -1.0], [-0.3, 0.5, 1.5]])
    transformed = Dataset(y=data.y, d=data.d, z=data.z, x=data.x @ gamma.T, has_constant=True)
    assert additive_2sls(transformed) == pytest.approx(additive_2sls(data), rel=1e-8)
    assert interacted_additive_2sls(transformed) == pytest.approx(
        interacted_additive_2sls(data), rel=1e-8
    )


def test_forbidden_regression_equality_for_dummies():
    # With categorical covariates the component-wise first stage equals the
    # scalar first stage times the dummies, entrywise.
    data, _ = dummy_coded(10)
    design = np.column_stack([data.z[:, None] * data.x, data.x])
    multi = design @ least_squares(data.d[:, None] * data.x, design).coef
    scalar = design @ least_squares(data.d, design).coef
    assert np.abs(multi - scalar[:, 0][:, None] * data.x).max() <= 1e-10


# ---------------------------------------------------------------------------
# Interacted-additive and generalized first stages
# ---------------------------------------------------------------------------


def test_interacted_additive_collapses_to_additive_with_constant_only():
    data = simulate_iv(11, n=200)
    collapsed = Dataset(y=data.y, d=data.d, z=data.z, x=data.x[:, :1], has_constant=True)
    assert interacted_additive_2sls(collapsed) == additive_2sls(collapsed)


def test_generalized_first_stage_nesting_is_exact():
    data = simulate_iv(12, n=220)
    as_additive = generalized_additive_2sls(data, lambda z, xr: np.concatenate([[z], xr]))
    assert as_additive == additive_2sls(data)
    as_hybrid = generalized_additive_2sls(data, lambda z, xr: np.concatenate([z * xr, xr]))
    assert as_hybrid == interacted_additive_2sls(data)


def test_generalized_first_stage_matches_independent_two_step():
    data = simulate_iv(13, n=240)
    builder = lambda z, xr: np.concatenate([[z, z * xr[1] ** 2], xr])
    estimate = generalized_additive_2sls(data, builder)
    r = np.array([builder(zi, xi) for zi, xi in zip(data.z, data.x)])
    dhat = r @ np.linalg.solve(r.T @ r, r.T @ data.d)
    q = np.column_stack([dhat, data.x])
    expected = np.linalg.solve(q.T @ q, q.T @ data.y)[0]
    assert estimate == pytest.approx(expected, abs=1e-10)


def test_generalized_first_stage_rejects_ragged_rows():
    data = simulate_iv(14, n=100)
    with pytest.raises(ValueError):
        generalized_additive_2sls(data, lambda z, xr: [1.0] * (2 + int(z)))


# ---------------------------------------------------------------------------
# Partially interacted 2SLS
# ---------------------------------------------------------------------------


def test_partial_interactions_with_all_columns_reduce_to_interacted():
    data = simulate_iv(15, n=260, k=3)
    full = interacted_2sls(data).beta
    partial = partially_interacted_2sls(data, range(data.k))
    assert np.array_equal(partial, full)


def test_partial_interactions_with_constant_reduce_to_additive():
    data = simulate_iv(16, n=260, k=3)
    partial = partially_interacted_2sls(data, [0])
    assert partial[0] == additive_2sls(data)


def test_partial_interactions_match_independent_projection():
    data = simulate_iv(17, n=300, k=3)
    v = data.x[:, [1]]
    dv = data.d[:, None] * v
    zv = data.z[:, None] * v
    w = np.column_stack([zv, data.x])
    dv_hat = w @ np.linalg.solve(w.T @ w, w.T @ dv)
    resid = dv_hat - data.x @ np.linalg.solve(data.x.T @ data.x, data.x.T @ dv_hat)
    expected = float(resid[:, 0] @ data.y / (resid[:, 0] @ resid[:, 0]))
    got = partially_interacted_2sls(data, [1])
    assert got[0] == pytest.approx(expected, abs=1e-9)


def test_partial_interactions_validate_columns():
    data = simulate_iv(18, n=100)
    with pytest.raises(ValueError):
        partially_interacted_2sls(data, [])
    with pytest.raises(ValueError):
        partially_interacted_2sls(data, [0, 0])
    with pytest.raises(ValueError):
        partially_interacted_2sls(data, [7])


# ---------------------------------------------------------------------------
# Interacted OLS
# ---------------------------------------------------------------------------


def test_interacted_ols_is_interacted_2sls_with_d_as_instrument():
    from dataclasses import replace

    data = simulate_iv(19, n=240)
    via_ols = interacted_ols(data)
    via_2sls = interacted_2sls(replace(data, z=data.d))
    assert np.array_equal(via_ols.beta, via_2sls.beta)
    assert np.array_equal(via_ols.gamma, via_2sls.gamma)


def test_interacted_ols_recovers_effect_projection_under_randomization():
    rng = np.random.default_rng(20)
    n = 20000
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    d = (rng.random(n) < 0.5).astype(float)
    z = (rng.random(n) < 0.5).astype(float)
    z[:2] = [0.0, 1.0]
    tau = x[:, 1]
    y = 0.3 + 0.8 * x[:, 1] + d * tau + rng.standard_normal(n)
    data = Dataset(y=y, d=d, z=z, x=x, has_constant=True)
    beta = interacted_ols(data).beta
    assert np.abs(beta - np.array([0.0, 1.0])).max() < 0.06


def test_interacted_ols_with_constant_treatment_raises():
    data = simulate_iv(21, n=120)
    constant_d = Dataset(y=data.y, d=np.ones(data.n), z=data.z, x=data.x, has_constant=True)
    with pytest.raises(RankDeficientError):
        interacted_ols(constant_d)


# ---------------------------------------------------------------------------
# Per-stratum Wald
# ---------------------------------------------------------------------------


def test_stratum_wald_perfect_compliance_scaled_outcome():
    rng = np.random.default_rng(22)
    n = 40
    z = (rng.random(n) < 0.5).astype(float)
    z[:2] = [0.0, 1.0]
    data = Dataset(y=3.0 * z, d=z.copy(), z=z, x=np.ones((n, 1)), has_constant=True)
    (est,) = stratum_wald(data, np.zeros(n))
    assert est == pytest.approx(3.0, abs=1e-12)


def test_stratum_wald_matches_hand_computed_cell_means():
    # Stratum 1: arm means y (5, 2), d (1, 0)   -> 3
    # Stratum 2: arm means y (6, 3), d (0.5, 0) -> 6
    y = np.array([4.0, 6.0, 1.0, 3.0, 10.0, 2.0, 1.0, 5.0])
    d = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    z = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    labels = np.array([1, 1, 1, 1, 2, 2, 2, 2])
    data = Dataset(y=y, d=d, z=z, x=np.ones((8, 1)), has_constant=True)
    assert stratum_wald(data, labels) == pytest.approx([3.0, 6.0], abs=1e-12)


def test_stratum_wald_rejects_single_arm_and_zero_first_stage():
    y = np.arange(8.0)
    z = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    d = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    data = Dataset(y=y, d=d, z=z, x=np.ones((8, 1)), has_constant=True)
    with pytest.raises(DegenerateStratumError):
        stratum_wald(data, np.array([1, 1, 1, 1, 2, 2, 2, 2]))  # stratum 1 single-arm
    z2 = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    d2 = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])  # equal arm means
    data2 = Dataset(y=y, d=d2, z=z2, x=np.ones((8, 1)), has_constant=True)
    with pytest.raises(DegenerateStratumError):
        stratum_wald(data2, np.ones(8))

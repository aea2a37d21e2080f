import warnings
from dataclasses import replace

import numpy as np
import pytest
from _helpers import dummy_coded, simulate_iv

from ivlate.complier import (
    _weighted_means,
    abadie_beta,
    centered_interacted_2sls,
    complier_mean,
    dkappa_weights,
    fit_propensity,
    kappa_weights,
)
from ivlate.errors import NoCompliersError, NonFiniteError, NoOverlapCellError
from ivlate.estimators import Batch, Dataset, interacted_2sls
from ivlate.montecarlo import dgp_a, dgp_b, generate
from ivlate.stratify import stratified_late


def _supplied(data, values):
    return fit_propensity(data, np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# Propensity estimation
# ---------------------------------------------------------------------------


def test_saturated_scores_are_cell_means_on_binary_design():
    data, _ = generate(dgp_a(), 100_000, seed=41)
    prop = fit_propensity(data, "saturated")
    x1 = data.x[:, 1]
    for value, truth in ((0.0, 0.5), (1.0, 0.9)):
        mask = x1 == value
        se = np.sqrt(truth * (1.0 - truth) / mask.sum())
        assert abs(prop.ehat[mask][0] - truth) <= 4.0 * se
        # within-cell exactness of the fitted scores
        assert abs((data.z[mask] - prop.ehat[mask]).mean()) <= 1e-12


def test_saturated_requires_both_arms_per_cell():
    n = 40
    x = np.column_stack([np.ones(n), np.repeat([0.0, 1.0], n // 2)])
    z = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])  # arm == cell
    data = Dataset(y=np.zeros(n), d=z.copy(), z=z, x=x, has_constant=True)
    with pytest.raises(NoOverlapCellError):
        fit_propensity(data, "saturated")


def test_fits_do_not_depend_on_the_layout_of_the_covariates():
    """``Dataset.from_arrays`` stores x C-ordered, so an F-ordered x gives the same bits."""
    data, _ = generate(dgp_b(), 10_000, seed=0)
    x = np.ascontiguousarray(data.x)
    c_ordered = Dataset.from_arrays(data.y, data.d, data.z, x)
    f_ordered = Dataset.from_arrays(data.y, data.d, data.z, np.asfortranarray(x))
    assert c_ordered.x is x and f_ordered.x.flags.c_contiguous
    fits = [fit_propensity(sample, "logistic") for sample in (c_ordered, f_ordered)]
    assert np.array_equal(fits[0].coefficients, fits[1].coefficients)
    assert centered_interacted_2sls(c_ordered, fits[0]) == centered_interacted_2sls(f_ordered, fits[1])
    cuts = [stratified_late(s, fit, 10).partition.boundaries for s, fit in zip((c_ordered, f_ordered), fits)]
    assert np.array_equal(cuts[0], cuts[1])


def test_logistic_slope_near_zero_for_independent_instrument():
    rng = np.random.default_rng(42)
    n = 2000
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    z = (rng.random(n) < 0.5).astype(float)
    data = Dataset(y=np.zeros(n), d=z.copy(), z=z, x=x, has_constant=True)
    prop = fit_propensity(data, "logistic")
    assert prop.converged
    assert abs(prop.coefficients[1]) < 0.3
    assert abs(prop.ehat.mean() - z.mean()) < 0.01


def test_logistic_irls_matches_grid_search_likelihood_maximizer():
    x1 = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0])
    z = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    x = np.column_stack([np.ones(6), x1])
    data = Dataset(y=np.zeros(6), d=z.copy(), z=z, x=x, has_constant=True)
    prop = fit_propensity(data, "logistic")

    def loglik(b0, b1):
        eta = b0[..., None] + b1[..., None] * x1
        return (z * eta - np.logaddexp(0.0, eta)).sum(axis=-1)

    center = np.zeros(2)
    half = 5.0
    for _ in range(3):
        b0 = np.linspace(center[0] - half, center[0] + half, 201)
        b1 = np.linspace(center[1] - half, center[1] + half, 201)
        grid = loglik(b0[:, None], b1[None, :])
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        center = np.array([b0[i], b1[j]])
        half = 2.0 * half / 200.0
    assert np.abs(prop.coefficients - center).max() <= 1e-3


def test_logistic_iteration_cap_flags_non_convergence(monkeypatch):
    data = simulate_iv(43, n=200)
    monkeypatch.setattr("ivlate.complier.IRLS_MAX_ITER", 1)
    with pytest.warns(RuntimeWarning, match="within 1 iterations"):
        prop = fit_propensity(data, "logistic")
    assert not prop.converged
    assert prop.coefficients is not None


def test_supplied_scores_are_clipped_with_warning():
    data = simulate_iv(44, n=100)
    raw = np.full(data.n, 0.5)
    raw[0] = 0.0
    raw[1] = 1.0
    with pytest.warns(RuntimeWarning):
        prop = _supplied(data, raw)
    assert prop.n_clipped == 2
    assert prop.coefficients is None
    assert prop.ehat.min() >= 1e-6 and prop.ehat.max() <= 1.0 - 1e-6


def test_supplied_scores_outside_unit_interval_rejected():
    data = simulate_iv(45, n=100)
    with pytest.raises(ValueError):
        _supplied(data, np.full(data.n, -0.1))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("column", ["x", "z"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_logistic_fit_rejects_a_non_finite_entry(column, value):
    # The propensity model reads only z and x; y does not enter the fit.
    data = simulate_iv(16, n=120)
    bad = getattr(data, column).copy()
    if column == "x":
        bad[5, 1] = value
    else:
        bad[5] = value
    with pytest.raises(NonFiniteError):
        fit_propensity(replace(data, **{column: bad}), "logistic")


@pytest.mark.parametrize("column", ["x", "z"])
def test_saturated_fit_rejects_a_non_finite_entry(column):
    # A NaN covariate row must not pass as a one-unit cell (NoOverlapCellError).
    data, _ = dummy_coded(1)
    bad = getattr(data, column).copy()
    if column == "x":
        bad[5, 1] = np.nan
    else:
        bad[5] = np.nan
    with pytest.raises(NonFiniteError):
        fit_propensity(replace(data, **{column: bad}), "saturated")


# ---------------------------------------------------------------------------
# Kappa weights
# ---------------------------------------------------------------------------


def test_kappa_is_one_under_perfect_compliance():
    data = simulate_iv(46, n=150)
    perfect = Dataset(y=data.y, d=data.z.copy(), z=data.z, x=data.x, has_constant=True)
    kappa = kappa_weights(perfect, _supplied(perfect, np.full(perfect.n, 0.4)))
    assert np.abs(kappa - 1.0).max() <= 1e-12


def test_kappa_single_unit_formulas():
    one = Dataset(
        y=np.zeros(1), d=np.array([0.0]), z=np.array([1.0]), x=np.ones((1, 1)), has_constant=True
    )
    kappa = kappa_weights(one, _supplied(one, [0.5]))
    assert kappa[0] == pytest.approx(-1.0, abs=1e-12)

    treated = Dataset(
        y=np.zeros(1), d=np.array([1.0]), z=np.array([1.0]), x=np.ones((1, 1)), has_constant=True
    )
    dkappa = dkappa_weights(treated, _supplied(treated, [0.8]))
    assert dkappa[0] == pytest.approx(1.25, abs=1e-12)


def test_kappa_mean_equals_ipw_first_stage_exactly_under_saturation():
    data, _ = generate(dgp_a(), 10_000, seed=47)
    prop = fit_propensity(data, "saturated")
    kappa = kappa_weights(data, prop)
    ipw = (data.d * data.z / prop.ehat - data.d * (1.0 - data.z) / (1.0 - prop.ehat)).mean()
    assert abs(kappa.mean() - ipw) <= 1e-12


def test_kappa_mean_tracks_ipw_first_stage_under_logistic_scores():
    data = simulate_iv(48, n=10_000, k=3)
    prop = fit_propensity(data, "logistic")
    kappa = kappa_weights(data, prop)
    ipw = (data.d * data.z / prop.ehat - data.d * (1.0 - data.z) / (1.0 - prop.ehat)).mean()
    assert abs(kappa.mean() - ipw) <= 4.0 / np.sqrt(data.n)


def test_dkappa_sums_to_zero_within_saturated_cells():
    data, _ = generate(dgp_a(), 5_000, seed=49)
    prop = fit_propensity(data, "saturated")
    dkappa = dkappa_weights(data, prop)
    for value in (0.0, 1.0):
        mask = data.x[:, 1] == value
        assert abs(dkappa[mask].sum()) <= 1e-10 * mask.sum()


# ---------------------------------------------------------------------------
# Complier means
# ---------------------------------------------------------------------------


def test_complier_mean_perfect_compliance_gives_sample_means():
    data = simulate_iv(50, n=300, k=3)
    perfect = Dataset(y=data.y, d=data.z.copy(), z=data.z, x=data.x, has_constant=True)
    prop = _supplied(perfect, np.full(perfect.n, 0.5))
    assert kappa_weights(perfect, prop).mean() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(complier_mean(perfect, prop, [1, 2]), perfect.x[:, 1:].mean(axis=0), atol=1e-12)


def test_complier_mean_constant_column_is_exact():
    data = simulate_iv(51, n=300)
    prop = fit_propensity(data, "logistic")
    (mean,) = complier_mean(data, prop, [0])
    assert mean == pytest.approx(1.0, abs=1e-12)


def test_complier_mean_on_binary_design_recovers_conditional_share():
    # P(X1 = 1 | complier) = 0.5 * 0.2 / 0.45 = 2/9
    data, _ = generate(dgp_a(), 100_000, seed=52)
    prop = fit_propensity(data, "saturated")
    (mean,) = complier_mean(data, prop, [1])
    assert abs(mean - 2.0 / 9.0) <= 0.02
    assert abs(kappa_weights(data, prop).mean() - 0.45) <= 0.02


@pytest.mark.parametrize("scale", [1e307, 5e307])
def test_complier_mean_of_a_covariate_near_the_float_limit_is_finite(scale):
    """With x1 x ``scale`` the product kappa'x1 overflows: the mean is taken of x1 / max|x1|
    and scaled back, so it is the unscaled mean times ``scale``, and nothing warns."""
    data, _ = generate(dgp_b(), 2000, seed=0)
    prop = fit_propensity(data, "logistic")
    x = data.x.copy()
    x[:, 1] *= scale
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = complier_mean(replace(data, x=x), prop, [1, 2])
    expected = complier_mean(data, prop, [1, 2])
    assert np.isfinite(got).all()
    assert got[0] == pytest.approx(expected[0] * scale, rel=1e-13, abs=0.0)
    assert got[1:].tobytes() == expected[1:].tobytes()


def test_inside_the_band_the_complier_means_keep_their_unscaled_bits():
    """Columns of x inside the band of ``linalg.exact_scale`` are averaged as they are: the means
    of a stack of samples, and of each sample alone, have the bits of w'x / sum(w) on x's own
    strided columns, whose product a contiguous copy would change. A column x 2^600 has 2^600
    times its means."""
    rng = np.random.default_rng(6)
    z = np.tile([0.0, 1.0], 500)
    samples = [Dataset(y=rng.standard_normal(1000), d=z, z=z, has_constant=True,
                       x=np.column_stack([np.ones(1000), np.ldexp(rng.standard_normal((1000, 2)), [-200, 200])]))
               for _ in range(5)]
    weights = rng.standard_normal((5, 1000))
    total = weights.sum(axis=-1)
    for batch, w, t in [(Batch.stacked(samples), weights, total),
                        *((Batch([s]), weights[i : i + 1], total[i : i + 1]) for i, s in enumerate(samples))]:
        expected = (w[:, None, :] @ batch.x[:, :, 1:])[:, 0] / t[:, None]
        assert _weighted_means(w, batch, slice(1, None), t).tobytes() == expected.tobytes()
    big = Batch.stacked([replace(s, x=np.ldexp(s.x, [0, 600, 0])) for s in samples])
    expected = (weights[:, None, :] @ Batch.stacked(samples).x[:, :, 1:])[:, 0] / total[:, None]
    assert _weighted_means(weights, big, slice(1, None), total).tobytes() == np.ldexp(expected, [600, 0]).tobytes()


def test_no_compliers_floor():
    rng = np.random.default_rng(53)
    n = 400
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    z = (rng.random(n) < 0.5).astype(float)
    d = (rng.random(n) < 0.5).astype(float)  # treatment unrelated to instrument
    data = Dataset(y=np.zeros(n), d=d, z=z, x=x, has_constant=True)
    with pytest.raises(NoCompliersError):
        complier_mean(data, _supplied(data, np.full(n, 0.5)), [1])


# ---------------------------------------------------------------------------
# Centered interacted 2SLS
# ---------------------------------------------------------------------------


def test_centered_estimator_exact_under_constant_effect_and_perfect_compliance():
    rng = np.random.default_rng(54)
    n = 200
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    z = (rng.random(n) < 0.5).astype(float)
    z[:2] = [0.0, 1.0]
    y = 2.5 * z + x @ np.array([0.7, -0.3])
    data = Dataset(y=y, d=z.copy(), z=z, x=x, has_constant=True)
    prop = fit_propensity(data, "logistic")
    for centering in ("first-stage", "kappa"):
        assert centered_interacted_2sls(data, prop, centering=centering) == pytest.approx(2.5, abs=1e-9)


def test_centering_invariant_to_covariate_shifts():
    data = simulate_iv(55, n=500, k=3)
    prop = fit_propensity(data, "logistic")
    shifted = Dataset(
        y=data.y,
        d=data.d,
        z=data.z,
        x=data.x + np.array([0.0, 3.0, -2.0]),
        has_constant=True,
    )
    prop_shifted = fit_propensity(shifted, "logistic")
    for centering in ("first-stage", "kappa"):
        base = centered_interacted_2sls(data, prop, centering=centering)
        moved = centered_interacted_2sls(shifted, prop_shifted, centering=centering)
        assert moved == pytest.approx(base, abs=1e-8 * max(1.0, abs(base)))


def test_first_stage_share_is_exact_on_saturated_design():
    data, _ = generate(dgp_a(), 20_000, seed=56)
    share = data.x @ interacted_2sls(data).c1[0]
    for value in (0.0, 1.0):
        mask = data.x[:, 1] == value
        arm1 = mask & (data.z == 1.0)
        arm0 = mask & (data.z == 0.0)
        gap = data.d[arm1].mean() - data.d[arm0].mean()
        assert np.abs(share[mask] - gap).max() <= 1e-10


def test_unknown_centering_rejected():
    data = simulate_iv(57, n=120)
    prop = fit_propensity(data, "logistic")
    with pytest.raises(ValueError):
        centered_interacted_2sls(data, prop, centering="oracle")


# ---------------------------------------------------------------------------
# Weighting estimate of the effect projection
# ---------------------------------------------------------------------------


def test_abadie_beta_zero_outcome_gives_zero_vector():
    data = simulate_iv(58, n=300)
    zeroed = Dataset(y=np.zeros(data.n), d=data.d, z=data.z, x=data.x, has_constant=True)
    prop = fit_propensity(zeroed, "logistic")
    assert np.allclose(abadie_beta(zeroed, prop), 0.0, atol=1e-12)


def test_abadie_beta_recovers_linear_effect_coefficients():
    data, _ = generate(dgp_a(), 100_000, seed=59)
    prop = fit_propensity(data, "saturated")
    beta = abadie_beta(data, prop)
    assert np.abs(beta - np.array([-1.0, 5.0])).max() <= 0.15


def test_abadie_beta_agrees_with_interacted_fit_on_categorical_design():
    data, _ = generate(dgp_a(), 10_000, seed=60)
    prop = fit_propensity(data, "saturated")
    assert np.abs(abadie_beta(data, prop) - interacted_2sls(data).beta).max() <= 1e-8

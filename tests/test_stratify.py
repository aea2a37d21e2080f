import numpy as np
import pytest
from _helpers import simulate_iv

from ivlate.complier import fit_propensity
from ivlate.errors import UnpartitionableError
from ivlate.estimators import Dataset, interacted_2sls, stratum_wald
from ivlate.montecarlo import DgpCell, from_cells, generate
from ivlate.stratify import partition_by_propensity, regressogram, stratified_late


def unbalanced_binary_spec():
    # Two covariate cells with distinct propensities; the low-propensity
    # cell holds 70% of the mass so its score is the sample median.
    return from_cells(
        "two-cell",
        (
            DgpCell(x=(1.0, 0.0), prob=0.7, e=0.4, p_always=0.1, p_complier=0.6,
                    y1_mean=(1.0, 1.0, 1.0)),
            DgpCell(x=(1.0, 1.0), prob=0.3, e=0.8, p_always=0.1, p_complier=0.4,
                    y1_mean=(3.0, 3.0, 3.0)),
        ),
    )


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def alternating(n):
    """Instrument arms 0, 1, 0, 1, ... with treatment equal to the instrument."""
    z = np.tile([0.0, 1.0], n // 2)
    return z, z


def test_single_stratum_contains_everything():
    part = partition_by_propensity(np.linspace(0.1, 0.9, 20), 1, *alternating(20))
    assert part.k == 1
    assert np.all(part.labels == 1)
    assert part.counts.tolist() == [20]
    assert part.boundaries.size == 0


def test_ten_sorted_scores_split_into_consecutive_pairs():
    ehat = np.arange(1, 11) / 10.0
    part = partition_by_propensity(ehat, 5, *alternating(10))
    assert part.labels.tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    assert np.allclose(part.boundaries, [0.28, 0.46, 0.64, 0.82], atol=1e-12)
    assert part.counts.tolist() == [2, 2, 2, 2, 2]


def test_constant_scores_merge_to_single_stratum():
    part = partition_by_propensity(np.full(30, 0.37), 4, *alternating(30))
    assert part.k == 1
    assert part.merged_from == 4
    assert np.all(part.labels == 1)


def test_tied_scores_share_a_stratum():
    ehat = np.array([0.2] * 6 + [0.8] * 4)
    part = partition_by_propensity(ehat, 2, *alternating(10))
    assert part.k == 2
    assert np.all(part.labels[:6] == 1) and np.all(part.labels[6:] == 2)


def test_single_arm_bins_get_merged():
    ehat = np.concatenate([np.linspace(0.1, 0.4, 10), np.linspace(0.6, 0.9, 10)])
    z = np.concatenate([np.tile([0.0, 1.0], 5), np.ones(10)])  # top half single-arm
    part = partition_by_propensity(ehat, 2, z=z, d=z)
    assert part.k == 1
    assert part.merged_from == 2


def test_unpartitionable_when_first_stage_is_flat():
    ehat = np.linspace(0.2, 0.8, 20)
    z = np.tile([0.0, 1.0], 10)
    d = np.zeros(20)  # no first-stage variation anywhere
    with pytest.raises(UnpartitionableError):
        partition_by_propensity(ehat, 3, z=z, d=d)


def test_partition_validates_inputs():
    with pytest.raises(ValueError):
        partition_by_propensity(np.linspace(0.1, 0.9, 10), 0, *alternating(10))
    with pytest.raises(ValueError):
        partition_by_propensity(np.linspace(0.1, 0.9, 10), 6, *alternating(10))  # n < 2k
    with pytest.raises(ValueError):
        partition_by_propensity(np.array([0.5, 1.2, 0.3, 0.4]), 2, *alternating(4))


@pytest.mark.parametrize("k", [2, 5, 9])
def test_merging_never_exceeds_request(k):
    data = simulate_iv(70, n=300)
    prop = fit_propensity(data, "logistic")
    part = partition_by_propensity(prop.ehat, k, z=data.z, d=data.d)
    assert part.k <= k
    assert part.merged_from == k
    assert part.counts.sum() == data.n


# ---------------------------------------------------------------------------
# Stratified estimation
# ---------------------------------------------------------------------------


def test_single_stratum_late_equals_unconditional_wald():
    data = simulate_iv(71, n=400)
    prop = fit_propensity(data, "logistic")
    result = stratified_late(data, prop, 1)
    z1 = data.z == 1.0
    wald = (data.y[z1].mean() - data.y[~z1].mean()) / (data.d[z1].mean() - data.d[~z1].mean())
    assert result.tau_star == pytest.approx(wald, rel=1e-10)
    assert result.beta_star[0] == pytest.approx(wald, rel=1e-10)


def test_beta_star_equals_stratum_wald_on_partition_labels():
    data = simulate_iv(72, n=500, k=3)
    prop = fit_propensity(data, "logistic")
    result = stratified_late(data, prop, 4)
    assert np.abs(result.beta_star - stratum_wald(data, result.partition.labels)).max() <= 1e-10


def test_two_cell_design_recovers_conditional_effects():
    spec = unbalanced_binary_spec()
    data, _ = generate(spec, 100_000, seed=73)
    prop = fit_propensity(data, "saturated")
    result = stratified_late(data, prop, 2)
    # strata sorted by propensity: cell e=0.4 (effect 1), cell e=0.8 (effect 3)
    assert result.partition.k == 2
    assert np.abs(result.beta_star - np.array([1.0, 3.0])).max() <= 0.1


def test_stratified_results_match_direct_categorical_fit():
    spec = unbalanced_binary_spec()
    data, _ = generate(spec, 20_000, seed=74)
    prop = fit_propensity(data, "saturated")
    result = stratified_late(data, prop, 2)
    dummies = np.column_stack([1.0 - data.x[:, 1], data.x[:, 1]])
    direct = interacted_2sls(
        Dataset(y=data.y, d=data.d, z=data.z, x=dummies, has_constant=False)
    )
    assert np.abs(result.beta_star - direct.beta).max() <= 1e-10


def test_constant_effect_gives_flat_stratum_estimates():
    rng = np.random.default_rng(75)
    n = 8000
    data = simulate_iv(75, n=n, k=3, het=False)
    prop = fit_propensity(data, "logistic")
    result = stratified_late(data, prop, 5)
    assert np.abs(result.beta_star - 1.0).max() < 0.6
    assert result.tau_star == pytest.approx(1.0, abs=0.15)


def test_regressogram_interval_layout():
    data = simulate_iv(76, n=400)
    prop = fit_propensity(data, "logistic")
    result = stratified_late(data, prop, 4)
    bins = regressogram(result)
    assert len(bins) == result.partition.k
    lows = [b[0] for b in bins]
    highs = [b[1] for b in bins]
    assert lows[0] == 0.0 and highs[-1] == 1.0
    assert highs[:-1] == lows[1:]
    assert [b[2] for b in bins] == pytest.approx(result.beta_star.tolist(), rel=1e-12)

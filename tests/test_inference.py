import numpy as np
import pytest
from _helpers import simulate_iv

import ivlate.complier
from ivlate.errors import NoCompliersError, RankDeficientError, TooManyFailuresError
from ivlate.estimators import Dataset
from ivlate.inference import _resample_loop, bootstrap
from ivlate.montecarlo import bootstrap_tags, dgp_b, evaluate_tags, generate, pipeline_for
from ivlate.stratify import stratified_late


def mean_pipeline(data):
    return np.array([data.y.mean()])


def test_constant_data_has_zero_spread():
    n = 40
    z = np.tile([0.0, 1.0], n // 2)
    data = Dataset(y=np.full(n, 3.0), d=z.copy(), z=z, x=np.ones((n, 1)), has_constant=True)
    result = bootstrap(data, mean_pipeline, b=200, seed=1)
    assert result.point[0] == 3.0
    assert result.se[0] == 0.0
    assert result.ci_lower[0] == result.ci_upper[0] == 3.0


def test_bootstrap_se_of_the_mean_tracks_analytic_value():
    rng = np.random.default_rng(2)
    n = 400
    sigma = 2.5
    y = rng.normal(0.0, sigma, size=n)
    z = np.tile([0.0, 1.0], n // 2)
    data = Dataset(y=y, d=z.copy(), z=z, x=np.ones((n, 1)), has_constant=True)
    result = bootstrap(data, mean_pipeline, b=2000, seed=3)
    analytic = sigma / np.sqrt(n)
    assert abs(result.se[0] - analytic) <= 0.15 * analytic
    assert result.ci_lower[0] < result.point[0] < result.ci_upper[0]


def test_a_resample_error_outside_identification_names_its_replicate():
    calls = []

    def pipeline(data):
        calls.append(None)
        if len(calls) == 4:  # the point estimate, then replicates 0, 1, 2
            raise ZeroDivisionError("boom")
        return np.array([data.y.mean()])

    with pytest.raises(ZeroDivisionError, match=r"^seed 5, replicate 2: boom$") as info:
        bootstrap(simulate_iv(4, n=60), pipeline, b=10, seed=5)
    assert str(info.value.__cause__) == "boom"
    assert len(calls) == 4


def test_bootstrap_is_deterministic():
    data = simulate_iv(4, n=120)
    first = bootstrap(data, mean_pipeline, b=60, alpha=0.1, seed=9)
    second = bootstrap(data, mean_pipeline, b=60, alpha=0.1, seed=9)
    assert np.array_equal(first.point, second.point)
    assert np.array_equal(first.se, second.se)
    assert np.array_equal(first.ci_lower, second.ci_lower)
    assert np.array_equal(first.ci_upper, second.ci_upper)
    assert first.b_effective == second.b_effective
    different = bootstrap(data, mean_pipeline, b=60, alpha=0.1, seed=10)
    assert not np.array_equal(first.se, different.se)


def test_failed_replicates_are_dropped_and_counted():
    # Resamples drawing no instrumented units fail identification.
    n = 5
    z = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    data = Dataset(y=np.arange(5.0), d=z.copy(), z=z, x=np.ones((5, 1)), has_constant=True)

    def picky(sample):
        if sample.z.max() == 0.0:
            raise RankDeficientError("no instrumented units in resample")
        return np.array([sample.y.mean()])

    result = bootstrap(data, picky, b=200, seed=5)
    assert result.b_effective < result.b_requested
    # P(no z=1 in a resample) = (4/5)^5, about a third of replicates
    assert 30 <= result.b_requested - result.b_effective <= 120


def test_too_many_failures_raises():
    data = simulate_iv(6, n=80)

    def fails_on_resamples(sample):
        if sample.y is not data.y:
            raise RankDeficientError("nope")
        return np.array([0.0])

    with pytest.raises(TooManyFailuresError):
        bootstrap(data, fails_on_resamples, b=20, seed=7)


def test_parameter_validation():
    data = simulate_iv(8, n=80)
    with pytest.raises(ValueError):
        bootstrap(data, mean_pipeline, b=5, seed=0)
    with pytest.raises(ValueError):
        bootstrap(data, mean_pipeline, b=50, alpha=1.5, seed=0)


def test_estimator_pipelines_refit_propensity_in_every_replicate(monkeypatch):
    data = simulate_iv(9, n=200, k=2)
    calls = {"n": 0}
    original = ivlate.complier.fit_propensity

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr("ivlate.montecarlo.fit_propensity", counting)
    pipeline, _ = pipeline_for("xx")
    result = bootstrap(data, pipeline, b=25, seed=11)
    # one fit for the point estimate plus one per surviving replicate
    assert calls["n"] == 1 + result.b_effective + (result.b_requested - result.b_effective)


def test_multi_tag_errors_are_checked_in_request_order():
    data = simulate_iv(10, n=80)
    seen = []

    def evaluate(sample, tags):
        seen.append(list(tags))
        out = {}
        for tag in tags:
            if tag == "point-fails" and sample is data:
                out[tag] = NoCompliersError("no compliers in the full sample")
            elif tag == "resamples-fail" and sample is not data:
                out[tag] = RankDeficientError("nope")
            else:  # a resample comes with counts
                out[tag] = np.array([sample.weighted(sample.y).sum() / sample.size])
        return out

    with pytest.raises(TooManyFailuresError, match="estimator resamples-fail: only 0 of 20"):
        _resample_loop(data, evaluate, ["ok", "resamples-fail", "point-fails"], b=20, seed=1)
    # A tag whose point estimate failed is not evaluated on the resamples.
    assert seen[1:] == [["ok", "resamples-fail"]] * 20
    with pytest.raises(NoCompliersError):
        _resample_loop(data, evaluate, ["ok", "point-fails", "resamples-fail"], b=20, seed=1)
    results = _resample_loop(data, evaluate, ["ok"], b=20, seed=1)
    # ``bootstrap`` hands the pipeline the same draws as rows: equal up to summation order.
    assert results["ok"].se == pytest.approx(bootstrap(data, mean_pipeline, b=20, seed=1).se, rel=1e-12)


def test_multi_tag_bootstrap_rejects_a_repeated_tag():
    data = simulate_iv(11, n=80)
    calls = []

    def evaluate(sample, tags):
        calls.append(tags)
        return {tag: np.array([sample.y.mean()]) for tag in tags}

    with pytest.raises(ValueError, match="estimator tag 'b' is repeated"):
        _resample_loop(data, evaluate, ["a", "b", "b"], b=20, seed=1)
    assert calls == []


def strata_pipeline(k, seen):
    """(tau*, beta*) of ``k`` requested strata, whose length is the delivered stratum count;
    each estimate is appended to ``seen``."""

    def pipeline(sample):
        res = stratified_late(sample, ivlate.complier.fit_propensity(sample, "logistic"), k)
        seen.append(np.concatenate([[res.tau_star], res.beta_star]))
        return seen[-1]

    return pipeline


def test_a_replicate_estimate_of_another_shape_counts_as_a_failure():
    data = generate(dgp_b(), 60, seed=3)[0]
    # Most resamples merge 12 requested strata to another count than the point's.
    with pytest.raises(TooManyFailuresError, match="only 8 of 40"):
        bootstrap(data, strata_pipeline(12, []), b=40, seed=1)
    seen = []
    result = bootstrap(data, strata_pipeline(4, seen), b=40, seed=1)
    point, draws = seen[0], seen[1:]
    kept = np.vstack([draw for draw in draws if draw.shape == point.shape])
    assert len(draws) == 40 and result.b_requested == 40
    assert 20 <= result.b_effective == len(kept) < 40
    assert np.array_equal(result.point, point)
    assert np.array_equal(result.se, kept.std(axis=0, ddof=1))
    assert np.array_equal(result.ci_lower, np.quantile(kept, 0.025, axis=0))
    assert np.array_equal(result.ci_upper, np.quantile(kept, 0.975, axis=0))


def test_bootstrap_tags_takes_tags_not_an_evaluate():
    data = simulate_iv(12, n=80)
    with pytest.raises(TypeError):
        bootstrap_tags(data, evaluate_tags, ["++"])
    with pytest.raises(TypeError):
        bootstrap_tags(data, evaluate_tags, ["++"], b=20)
    assert set(bootstrap_tags(data, ["++"], b=20)) == {"++"}

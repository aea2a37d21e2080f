import numpy as np
import pytest
from _helpers import simulate_iv

import ivlate.complier
from ivlate.errors import NoCompliersError, RankDeficientError, TooManyFailuresError
from ivlate.estimators import Dataset
from ivlate.inference import bootstrap, bootstrap_tags
from ivlate.montecarlo import pipeline_for


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
            else:
                out[tag] = np.array([sample.y.mean()])
        return out

    with pytest.raises(TooManyFailuresError, match="estimator resamples-fail: only 0 of 20"):
        bootstrap_tags(data, evaluate, ["ok", "resamples-fail", "point-fails"], b=20, seed=1)
    # A tag whose point estimate failed is not evaluated on the resamples.
    assert seen[1:] == [["ok", "resamples-fail"]] * 20
    with pytest.raises(NoCompliersError):
        bootstrap_tags(data, evaluate, ["ok", "point-fails", "resamples-fail"], b=20, seed=1)
    results = bootstrap_tags(data, evaluate, ["ok"], b=20, seed=1)
    assert np.array_equal(results["ok"].se, bootstrap(data, mean_pipeline, b=20, seed=1).se)


def test_multi_tag_bootstrap_rejects_a_repeated_tag():
    data = simulate_iv(11, n=80)
    calls = []

    def evaluate(sample, tags):
        calls.append(tags)
        return {tag: np.array([sample.y.mean()]) for tag in tags}

    with pytest.raises(ValueError, match="estimator tag 'b' is repeated"):
        bootstrap_tags(data, evaluate, ["a", "b", "b"], b=20, seed=1)
    assert calls == []

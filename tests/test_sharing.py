"""One propensity fit, one factor and one resample per sample, shared by every tag.

Evaluating several estimator tags on one sample must give, bit for bit,
what each tag gives on its own: the shared logistic propensity fit is
the same deterministic computation on the same data. These tests pin
that equality for the replication engine and the CLI bootstrap, and
count the fits, factorizations and resamples the sharing saves.
"""

from dataclasses import replace

import numpy as np
import pytest
from _helpers import load_report, simulate_iv

import ivlate.inference
import ivlate.linalg
import ivlate.montecarlo
from ivlate.cli import main
from ivlate.complier import fit_propensity
from ivlate.errors import RankDeficientError
from ivlate.estimators import additive_2sls, interacted_2sls, interacted_ols
from ivlate.inference import bootstrap, bootstrap_tags
from ivlate.montecarlo import dgp_a, dgp_b, evaluate_tags, generate, pipeline_for, run_study
from ivlate.streams import RESAMPLE

PROPENSITY_TAGS = ("xx", "strat-5", "strat-10", "strat-15")


def weak_first_stage_b():
    """Design B with a 5 % complier share, so xx and strat-K often fail."""
    return replace(dgp_b(), name="B-weak", p_complier=lambda x: np.full(x.shape[0], 0.05))


STUDIES = {
    # strat-10 and strat-15 fail on one replicate each.
    "B": (dgp_b, ("++", "x+", "xx", "beta", "strat-5", "strat-10", "strat-15"), 100, 32, 0),
    # xx and every strat-K fail on about half of the replicates.
    "B-weak": (weak_first_stage_b, ("++", "x+", "xx", "beta", "strat-5", "strat-10", "strat-15"), 40, 40, 0),
    # Every tag fails on some replicates.
    "A": (dgp_a, ("++", "x+", "xx", "beta", "strat-2", "strat-5"), 30, 12, 5),
}


def counting_fit(monkeypatch, fail_on=None):
    """Count ``ivlate.montecarlo.fit_propensity`` calls, optionally failing on one sample."""
    calls = []
    original = ivlate.montecarlo.fit_propensity

    def counted(data, *args, **kwargs):
        calls.append(data)
        if fail_on is not None and np.array_equal(data.y, fail_on.y):
            raise RankDeficientError("injected failure of the shared propensity fit")
        return original(data, *args, **kwargs)

    monkeypatch.setattr("ivlate.montecarlo.fit_propensity", counted)
    return calls


@pytest.mark.parametrize("design", sorted(STUDIES))
def test_all_tags_together_equal_each_tag_alone(design):
    make, tags, reps, n, seed = STUDIES[design]
    together = run_study(make(), list(tags), reps=reps, n=n, seed=seed, keep_estimates=True)
    assert any(together.failures[tag] for tag in tags if tag not in ("++", "x+", "beta"))
    for tag in tags:
        alone = run_study(make(), [tag], reps=reps, n=n, seed=seed, keep_estimates=True)
        assert together.failures[tag] == alone.failures[tag]
        assert np.array_equal(together.estimates[tag], alone.estimates[tag])
        assert np.array_equal(together.bias[tag], alone.bias[tag], equal_nan=True)
        assert np.array_equal(together.sd[tag], alone.sd[tag], equal_nan=True)


def test_one_propensity_fit_per_replicate(monkeypatch):
    calls = counting_fit(monkeypatch)
    run_study(dgp_b(), ["++", "xx", "strat-5", "strat-10"], reps=4, n=300, seed=3)
    assert len(calls) == 4
    assert len({id(data) for data in calls}) == 4

    calls.clear()
    run_study(dgp_b(), ["++", "x+", "beta"], reps=4, n=300, seed=3)
    assert calls == []


def test_failed_shared_fit_fails_each_propensity_tag_once(monkeypatch):
    spec, reps, n, seed = dgp_b(), 5, 300, 4
    tags = ["++", "x+", "beta", *PROPENSITY_TAGS]
    baseline = run_study(spec, tags, reps=reps, n=n, seed=seed, keep_estimates=True)
    assert all(count == 0 for count in baseline.failures.values())

    bad, _ = generate(spec, n, seed, replicate=2)
    calls = counting_fit(monkeypatch, fail_on=bad)
    summary = run_study(spec, tags, reps=reps, n=n, seed=seed, keep_estimates=True)
    assert len(calls) == reps  # the failed fit is not retried for later tags
    keep = [r for r in range(reps) if r != 2]
    for tag in tags:
        expected = 1 if tag in PROPENSITY_TAGS else 0
        assert summary.failures[tag] == expected
        rows = keep if expected else list(range(reps))
        assert np.array_equal(summary.estimates[tag], baseline.estimates[tag][rows])


def test_pipeline_raises_the_shared_fit_error(monkeypatch):
    data = simulate_iv(12, n=200)
    counting_fit(monkeypatch, fail_on=data)
    with pytest.raises(RankDeficientError, match="injected"):
        pipeline_for("strat-5")[0](data)
    assert isinstance(evaluate_tags(data, ["xx"])["xx"], RankDeficientError)
    assert pipeline_for("++")[0](data).shape == (1,)


def test_multi_tag_bootstrap_equals_one_tag_bootstraps():
    data = simulate_iv(13, n=300)
    tags = ["++", "x+", "xx", "strat-5"]
    together = bootstrap_tags(data, evaluate_tags, tags, b=30, alpha=0.1, seed=2)
    for tag in tags:
        alone = bootstrap(data, pipeline_for(tag)[0], b=30, alpha=0.1, seed=2)
        got = together[tag]
        for field in ("point", "se", "ci_lower", "ci_upper"):
            assert np.array_equal(getattr(got, field), getattr(alone, field))
        assert (got.b_effective, got.b_requested) == (alone.b_effective, 30)


def test_estimate_shares_one_resample_per_replicate(tmp_path, monkeypatch):
    data, _ = generate(dgp_b(), 400, seed=14)
    path = tmp_path / "b.csv"
    rows = np.column_stack([data.y, data.d, data.z, data.x[:, 1:]]).tolist()
    path.write_text(
        "y,d,z,x1,x2\n" + "".join(",".join(repr(v) for v in row) + "\n" for row in rows),
        encoding="utf-8",
    )

    def estimate(tags, out):
        code = main(["estimate", "--input", str(path), "--estimators", tags, "--b", "25",
                     "--seed", "6", "--output", str(tmp_path / out)])
        assert code == 0
        return load_report(tmp_path / out)

    resamples = []
    original = ivlate.inference.substream

    def counted(*path_):
        if path_[-1] == RESAMPLE:
            resamples.append(path_)
        return original(*path_)

    monkeypatch.setattr("ivlate.inference.substream", counted)
    together = estimate("++,x+,xx,strat-5", "all.json")
    assert sorted(resamples) == [(6, r, RESAMPLE) for r in range(25)]
    monkeypatch.undo()

    singles = [estimate(tag, f"{i}.json") for i, tag in enumerate(["++", "x+", "xx", "strat-5"])]
    assert together["results"] == [s["results"][0] for s in singles]
    assert together["failures"] == {k: v for s in singles for k, v in s["failures"].items()}


def counting_factor(monkeypatch):
    """Count ``ivlate.linalg.triangular_factor`` calls (the n-row QRs)."""
    calls = []
    original = ivlate.linalg.triangular_factor

    def counted(*blocks):
        calls.append(blocks)
        return original(*blocks)

    monkeypatch.setattr("ivlate.linalg.triangular_factor", counted)
    return calls


def test_two_stage_tags_share_one_factor(monkeypatch):
    data, _ = generate(dgp_b(), 300, seed=15)
    expected = evaluate_tags(data, ["++", "x+", "beta"])
    calls = counting_factor(monkeypatch)
    fresh = replace(data)
    got = evaluate_tags(fresh, ["++", "x+", "beta"])
    assert len(calls) == 1
    assert all(np.array_equal(got[tag], expected[tag]) for tag in expected)

    calls.clear()
    fit_propensity(replace(data), "logistic")
    irls_steps = len(calls)
    assert irls_steps == 1
    calls.clear()
    evaluate_tags(replace(data), ["++", "x+", "xx"])
    assert len(calls) == 1 + irls_steps


def test_a_changed_sample_gets_its_own_factor(monkeypatch):
    data = simulate_iv(16, n=300)
    calls = counting_factor(monkeypatch)
    base = additive_2sls(data)
    # Adding 2 D to the outcome adds 2 to every IV estimate of the effect of D.
    shifted = additive_2sls(replace(data, y=data.y + 2.0 * data.d))
    assert len(calls) == 2
    assert shifted == pytest.approx(base + 2.0, rel=1e-12)

    calls.clear()
    beta_iv = interacted_2sls(data).beta
    beta_ols = interacted_ols(data).beta
    assert len(calls) == 1  # the interacted OLS fit factors its own sample
    assert not np.allclose(beta_iv, beta_ols)

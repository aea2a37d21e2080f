"""One propensity fit, one factor and one resample per sample, shared by every tag.

Evaluating several estimator tags on one sample must give, bit for bit,
what each tag gives on its own: the shared logistic propensity fit is
the same deterministic computation on the same data. These tests pin
that equality for the study runner and the CLI bootstrap, and
count the fits, factorizations and resamples the sharing saves. A
study's replicates evaluated in batches must likewise give what each
gives alone, whatever the batch size, with the same warnings.
"""

import dataclasses
import sys
import warnings
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from _helpers import fits_by, load_report, row_budget, simulate_iv, warm_fit
from hypothesis import given, settings
from hypothesis import strategies as st

import ivlate.complier
import ivlate.inference
import ivlate.linalg
import ivlate.montecarlo
from ivlate.cli import main
from ivlate.complier import _centered, fit_propensity, logistic_fits
from ivlate.errors import IdentificationError, RankDeficientError
from ivlate.estimators import (Batch, Dataset, _additive, _interacted, _interacted_additive, additive_2sls, each,
                               interacted_2sls, interacted_ols)
from ivlate.inference import bootstrap
from ivlate.montecarlo import (bootstrap_tags, dgp_a, dgp_b, dgp_c, evaluate_tags, generate, pipeline_for, run_study,
                               study_truth)
from ivlate.stratify import stratified
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
    # xx fails on one replicate.
    "C": (dgp_c, ("++", "x+", "xx", "beta", "strat-5", "strat-10"), 40, 40, 0),
}


def counting_fit(monkeypatch, fail_on=None):
    """Record each sample whose logistic fit ``ivlate.montecarlo.logistic_fits`` is asked
    for, optionally failing one sample's."""
    calls = []
    original = ivlate.montecarlo.logistic_fits

    def counted(batch):
        calls.extend(batch.samples)
        fits = original(batch)
        injected = RankDeficientError("injected failure of the shared propensity fit")
        return [injected if fail_on is not None and np.array_equal(data.y, fail_on.y) else fit
                for data, fit in zip(batch.samples, fits)]

    monkeypatch.setattr("ivlate.montecarlo.logistic_fits", counted)
    return calls


@pytest.mark.parametrize("design", sorted(STUDIES))
def test_all_tags_together_equal_each_tag_alone(design):
    make, tags, reps, n, seed = STUDIES[design]
    together = run_study(make(), list(tags), reps=reps, n=n, seed=seed)
    assert any(together.failures[tag] for tag in tags if tag not in ("++", "x+", "beta"))
    for tag in tags:
        alone = run_study(make(), [tag], reps=reps, n=n, seed=seed)
        assert together.failures[tag] == alone.failures[tag]
        assert np.array_equal(together.estimates[tag], alone.estimates[tag])
        assert np.array_equal(together.bias[tag], alone.bias[tag], equal_nan=True)
        assert np.array_equal(together.sd[tag], alone.sd[tag], equal_nan=True)


def assert_same_summary(got, expected):
    assert got.failures == expected.failures
    for tag in expected.failures:
        assert np.array_equal(got.replicates[tag], expected.replicates[tag])
        assert got.estimates[tag].tobytes() == expected.estimates[tag].tobytes()
        assert got.bias[tag].tobytes() == expected.bias[tag].tobytes()
        assert got.sd[tag].tobytes() == expected.sd[tag].tobytes()


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(STUDIES)), st.integers(0, 2**16), st.integers(1, 20))
def test_the_batch_size_does_not_change_a_study(design, seed, reps):
    """Batches of one sample, of three and of the default row budget give each replicate the
    same bits, failures included."""
    make, tags, _, n, _ = STUDIES[design]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        summaries = []
        for rows in (n, 3 * n, ivlate.linalg.BATCH_ROWS):
            with row_budget(rows):
                summaries.append(run_study(make(), list(tags), reps=reps, n=n, seed=seed))
    for summary in summaries[1:]:
        assert_same_summary(summary, summaries[0])


@pytest.mark.parametrize("design", sorted(STUDIES))
def test_a_batched_study_fails_each_replicate_as_alone(design, monkeypatch):
    """The designs' failing replicates, evaluated in one batch, fail as in batches of one, and
    each replicate's [X | Z*X | D*X | Y] block is factored once either way."""
    make, tags, reps, n, seed = STUDIES[design]
    factored = counting_n_row_factors(monkeypatch, n, 3 * generate(make(), n, seed)[0].k + 1)
    for tag in tags:  # the truths' factors: design A's population has n atoms too
        study_truth(make(), pipeline_for(tag)[1])
    truths = len(factored)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        factored.clear()
        with row_budget(n):
            alone = run_study(make(), list(tags), reps=reps, n=n, seed=seed)
        assert len(factored) == truths + reps
        factored.clear()
        together = run_study(make(), list(tags), reps=reps, n=n, seed=seed)
        assert len(factored) == truths + reps
    assert any(together.failures.values())
    assert_same_summary(together, alone)


def kernel_outcomes(batch):
    """Each kernel's outcome per sample of ``batch``, through ``each``."""
    props = logistic_fits(batch)
    return {"propensity": props, "++": each(_additive, batch), "x+": each(_interacted_additive, batch),
            "beta": each(_interacted, batch), "xx": each(_centered, batch, props),
            "xx-kappa": each(partial(_centered, centering="kappa"), batch, props),
            "strat-5": each(partial(stratified, k=5), batch, props)}


def bits(outcome):
    """An outcome as comparable bits: an error's class and message, or its fields' bytes, a
    nested dataclass's (a stratified result's partition) field by field."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    if dataclasses.is_dataclass(outcome):
        return tuple(bits(getattr(outcome, field.name)) for field in dataclasses.fields(outcome))
    return None if outcome is None else np.asarray(outcome).tobytes()


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**16), st.integers(2, 4), st.integers(0, 3), st.sampled_from(["rank", "compliers", "step"]))
def test_each_gives_every_sample_of_a_failing_stack_its_batch_of_one(seed, size, where, kind):
    """A stack of design-B samples, one of which fails: its covariates are rank-deficient, it
    has no compliers (D = 1 - Z), or a logistic IRLS step raises (injected where its T steps).
    The stacked kernels raise, and through ``each`` every kernel gives each sample the bits,
    or the error class and message, of its batch of one."""
    where %= size
    samples = []
    for r in range(size):
        data, _ = generate(dgp_b(), 300, seed, replicate=r)
        d, x = data.d, data.x.copy()
        if r == where and kind == "rank":
            x[:, 2] = 2.0 * x[:, 1]
        elif r == where and kind == "compliers":
            d = 1.0 - data.z
        samples.append((data.y, d, data.z, x))
    marked = ivlate.complier._whitenings(Batch([Dataset(*samples[where])]))[1][0].tobytes() if kind == "step" else None
    original = ivlate.complier._whitened_step

    def step(qt, tmat, inverse, w, working):
        if any(t.tobytes() == marked for t in tmat):
            raise RankDeficientError("injected step failure")
        return original(qt, tmat, inverse, w, working)

    with warnings.catch_warnings(), mock.patch.object(ivlate.complier, "_whitened_step", step):
        warnings.simplefilter("ignore", RuntimeWarning)
        together = kernel_outcomes(Batch.stacked([Dataset(*sample) for sample in samples]))
        alone = [kernel_outcomes(Batch([Dataset(*sample)])) for sample in samples]
    for name, outcomes in together.items():
        assert [bits(out) for out in outcomes] == [bits(one[name][0]) for one in alone], name
    failed = [i for i in range(size) if any(isinstance(outs[i], Exception) for outs in together.values())]
    assert failed == [where]


@pytest.mark.parametrize("capped", [False, True], ids=["clipped", "not-converged"])
def test_a_batched_study_warns_as_one_sample_at_a_time(monkeypatch, capped):
    """Clip and non-convergence warnings come in the text and order that evaluating each
    replicate's sample on its own gives them."""
    if capped:
        monkeypatch.setattr(ivlate.complier, "IRLS_MAX_ITER", 2)
    make, tags, reps, n, seed = STUDIES["A"]

    def messages(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return [(w.category, str(w.message)) for w in caught]

    one_by_one = messages(lambda: [evaluate_tags(generate(make(), n, seed, replicate=r)[0], list(tags))
                                   for r in range(reps)])
    assert any(("converge" if capped else "clipped") in text for _, text in one_by_one)
    assert messages(lambda: run_study(make(), list(tags), reps=reps, n=n, seed=seed)) == one_by_one


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
    baseline = run_study(spec, tags, reps=reps, n=n, seed=seed)
    assert all(count == 0 for count in baseline.failures.values())

    bad, _ = generate(spec, n, seed, replicate=2)
    calls = counting_fit(monkeypatch, fail_on=bad)
    summary = run_study(spec, tags, reps=reps, n=n, seed=seed)
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


def warm_rows_pipeline(data, tag):
    """``tag``'s pipeline with the fits of a ``bootstrap_tags`` run on ``data``: ``data`` fitted
    from zero, every other sample from its coefficients."""
    start = fit_propensity(data, "logistic").coefficients

    def fit(sample):
        return fit_propensity(sample, "logistic") if sample is data else warm_fit(sample, start)

    def pipeline(sample):
        with mock.patch.object(ivlate.montecarlo, "logistic_fits", fits_by(fit)):
            out = evaluate_tags(sample, [tag])[tag]
        if isinstance(out, IdentificationError):
            raise out
        return out

    return pipeline


def test_multi_tag_bootstrap_equals_one_tag_bootstraps():
    """One-tag ``bootstrap_tags`` runs see the same weighted resamples, so they agree bit for
    bit. ``bootstrap`` hands the drawn rows to a pipeline whose fits start as those of
    ``bootstrap_tags``; they agree to rounding."""
    data = simulate_iv(13, n=300)
    tags = ["++", "x+", "xx", "strat-5"]
    together = bootstrap_tags(data, tags, b=30, alpha=0.1, seed=2)
    for tag in tags:
        alone = bootstrap_tags(data, [tag], b=30, alpha=0.1, seed=2)[tag]
        rows = bootstrap(data, warm_rows_pipeline(data, tag), b=30, alpha=0.1, seed=2)
        got = together[tag]
        for field in ("point", "se", "ci_lower", "ci_upper"):
            assert np.array_equal(getattr(got, field), getattr(alone, field))
            assert getattr(got, field) == pytest.approx(getattr(rows, field), rel=1e-10, abs=0.0)
        assert np.array_equal(got.point, rows.point)
        assert (got.b_effective, got.b_requested) == (alone.b_effective, 30) == (rows.b_effective, 30)


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
    assert len(calls) == 1  # the IRLS whitens its steps from the block's factor
    calls.clear()
    evaluate_tags(replace(data), ["++", "x+", "xx"])
    assert len(calls) == 1


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


def counting_n_row_factors(monkeypatch, n, columns=None):
    """Record, once per sample, the n-row blocks (of ``columns`` columns, where given) that
    ``triangular_factor`` factors through any binding of it in the package; a block stacked on
    a leading sample axis counts each of its samples."""
    calls = []
    original = ivlate.linalg.triangular_factor

    def counted(*blocks):
        shapes = [np.shape(block) for block in blocks]
        rows = shapes[0][-2] if len(shapes[0]) > 1 else shapes[0][0]
        width = sum(shape[-1] if len(shape) > 1 else 1 for shape in shapes)
        if rows == n and columns in (None, width):
            calls.extend([blocks] * (shapes[0][0] if len(shapes[0]) == 3 else 1))
        return original(*blocks)

    for name, module in list(sys.modules.items()):
        if name == "ivlate" or name.startswith("ivlate."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "command",
    [["estimate", "--estimators", "++,x+,xx,strat-5"], ["stratify", "--k", "5"]],
    ids=lambda c: c[0],
)
def test_a_cli_run_factors_its_sample_once(tmp_path, monkeypatch, command):
    """The covariate check, every fit on the sample and its logistic IRLS read one factor."""
    data, _ = generate(dgp_b(), 600, seed=17)
    path = tmp_path / "b.csv"
    np.savetxt(path, np.column_stack([data.y, data.d, data.z, data.x[:, 1:]]), delimiter=",",
               header="y,d,z,x1,x2", comments="")
    calls = counting_n_row_factors(monkeypatch, data.n)
    assert main([*command, "--input", str(path), "--b", "10", "--seed", "4",
                 "--output", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1

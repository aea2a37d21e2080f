"""A bootstrap resample as the point sample with counts, against its materialised rows.

``Dataset.resample(counts)`` keeps the point sample's drawn rows with their
counts and reads its factors; ``.rows`` repeats each drawn row by its count. Every estimator that the
CLI bootstraps must give the same numbers on both, to rounding, and the
same error class and message where one fails. The weighted path falls
back to its √w-scaled rows where the point factors cannot serve it (a
resample that drops a whole cell, a separated resample), and must then
agree exactly.
"""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from _helpers import dummy_coded, simulate_iv, warm_fit
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ivlate.linalg
from ivlate import complier, montecarlo, stratify
from ivlate.complier import IRLS_TOL, fit_propensity
from ivlate.errors import IdentificationError
from ivlate.estimators import Dataset, generalized_additive_2sls, interacted_2sls
from ivlate.linalg import RANK_RTOL
from ivlate.montecarlo import bootstrap_tags, evaluate_tags
from ivlate.stratify import partition_by_propensity, stratified_late

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TAGS = ["++", "x+", "xx", "beta", "strat-3"]
RTOL = 1e-10


def fresh(data):
    """The same rows as a new sample, with nothing cached."""
    return Dataset(data.y, data.d, data.z, data.x, data.has_constant)


def outcome(fn, *args):
    """("ok", value) or ("error", class, message)."""
    try:
        return "ok", fn(*args)
    except (IdentificationError, ValueError) as exc:
        return "error", type(exc), str(exc)


def noise_free(message):
    """A rank-deficient fit's diagonal ratio below RANK_RTOL is rounding noise, which the two
    paths do not share (both stages are checked, and a second stage can lose rank where the
    block keeps it): keep only that it is below."""
    ratio = re.search(r"diagonal ratio ([0-9.e+-]+)\)", message)
    if ratio is None or float(ratio.group(1)) >= RANK_RTOL:
        return message
    return message[: ratio.start(1)] + "< RANK_RTOL" + message[ratio.end(1):]


def rounding_ties(e):
    """Whether two distinct scores agree to 1e-12: equal in exact arithmetic, such as two
    cells with the same instrument share, their order, and so the strata, is rounding
    (either path may hold them equal and the other apart)."""
    return np.unique(np.round(e, 12)).size < np.unique(e).size


def assert_same(weighted, rows, rtol=RTOL):
    assert weighted[0] == rows[0]
    if rows[0] == "error":
        assert weighted[1] is rows[1] and noise_free(weighted[2]) == noise_free(rows[2])
        return
    got, expected = np.atleast_1d(weighted[1]), np.atleast_1d(rows[1])
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= rtol * max(1.0, float(np.abs(expected).max()))


def fit_fields(fit):
    """An outcome of a propensity fit with its fields as bytes, to compare bit for bit."""
    if fit[0] == "error":
        return fit
    fields = ("ehat", "coefficients", "converged", "n_clipped")
    return "ok", *(np.asarray(getattr(fit[1], field)).tobytes() for field in fields)


def with_constant_dummies(seed, n, levels):
    """``dummy_coded`` recoded as a constant plus the dummies of levels 1.., so ``++``,
    ``x+`` and ``xx`` apply; dropping a level's units zeroes its column."""
    data, cat = dummy_coded(seed, n=n, levels=levels)
    x = np.column_stack([np.ones(n), data.x[:, 1:]])
    return Dataset(data.y, data.d, data.z, x, has_constant=True), cat


@st.composite
def resamples(draw):
    """A point sample and counts: continuous covariates, or dummy-coded cells whose
    resample may drop a cell, at sizes where identification sometimes fails."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "cells", "cells-drop"]))
    n = draw(st.integers(30, 300))
    if kind == "continuous":
        data = simulate_iv(int(rng.integers(1 << 30)), n=n, k=draw(st.integers(2, 4)))
        idx = rng.integers(0, n, n)
    else:
        data, cat = with_constant_dummies(int(rng.integers(1 << 30)), n, draw(st.integers(2, 4)))
        pool = np.flatnonzero(cat != cat[0]) if kind == "cells-drop" else np.arange(n)
        idx = rng.choice(pool, n) if pool.size else rng.integers(0, n, n)
    return data, np.bincount(idx, minlength=n).astype(float)


@settings(PROPERTY)
@given(resamples())
def test_weighted_resample_equals_its_rows(case):
    data, counts = case
    weighted = data.resample(counts)
    rows = fresh(weighted.rows)
    assert rows.n == counts.sum() and np.array_equal(rows.y, np.repeat(data.y, counts.astype(int)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        point = outcome(fit_propensity, data, "logistic")
        start = point[1].coefficients if point[0] == "ok" else None
        # The resample's own fit starts from the point's coefficients, or raises the point's error.
        own = fit_fields(outcome(fit_propensity, weighted, "logistic"))
        assert own == fit_fields(point if start is None else outcome(warm_fit, weighted, start))
        for fit in (None,) if start is None else (None, start):
            props = [outcome(warm_fit, s, fit) for s in (weighted, rows)]
            scores = [("ok", prop[1].ehat) if prop[0] == "ok" else prop for prop in props]
            if scores[0][0] == "ok":
                scores[0] = ("ok", np.repeat(scores[0][1], weighted.weights.astype(int)))
            assert_same(*scores)
            tied = any(prop[0] == "ok" and rounding_ties(prop[1].ehat) for prop in props)
            tags = [tag for tag in TAGS if not (tied and tag.startswith("strat"))]
            with mock.patch.object(montecarlo, "fit_propensity", lambda s, spec: warm_fit(s, fit)):
                pair = [outcome(evaluate_tags, s, tags) for s in (weighted, rows)]
            for tag in tags:
                got, expected = (out[1][tag] for out in pair)
                as_outcome = [("error", type(v), str(v)) if isinstance(v, Exception) else ("ok", v)
                              for v in (got, expected)]
                assert_same(*as_outcome)


@settings(PROPERTY)
@given(resamples(), st.integers(1, 6))
def test_weighted_strata_equal_the_strata_of_the_rows(case, k):
    data, counts = case
    weighted = data.resample(counts)
    rows = weighted.rows
    scores = data.x[:, -1] - data.x[:, -1].min()
    scores = np.round(scores / max(scores.max(), 1.0), 1)  # ties
    pair = [outcome(stratified_late, s, complier.PropensityFit(e, None, True), k)
            for s, e in ((weighted, scores[counts > 0]), (rows, np.repeat(scores, counts.astype(int))))]
    assert pair[0][0] == pair[1][0]
    if pair[1][0] == "error":
        assert pair[0] == pair[1]
        return
    got, expected = pair[0][1].partition, pair[1][1].partition
    assert (got.k, got.merged_from) == (expected.k, expected.merged_from)
    assert np.array_equal(got.counts, expected.counts)
    assert np.array_equal(got.boundaries, expected.boundaries)
    assert np.array_equal(np.repeat(got.labels, weighted.weights.astype(int)), expected.labels)
    got, expected = pair[0][1], pair[1][1]
    assert_same(("ok", got.tau_star), ("ok", expected.tau_star))
    assert_same(("ok", got.beta_star), ("ok", expected.beta_star))


@st.composite
def counted_scores(draw):
    """Scores with ties and counts with zeros, at least 2k units in the resample."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 12))
    n = draw(st.integers(2 * k, 2 * k + 200))
    e = rng.choice(np.round(rng.random(draw(st.integers(1, 6))), 2), n)
    if draw(st.booleans()):
        e = rng.random(n)
    return e, np.bincount(rng.integers(0, n, n), minlength=n).astype(float), k


@settings(PROPERTY, max_examples=400)
@given(counted_scores())
def test_cutpoints_of_counts_equal_np_quantile_of_the_repeated_scores(case):
    e, counts, k = case
    reps = counts.astype(int)
    cuts, bins = stratify._quantile_bins(e, k, reps)
    expected = np.quantile(np.repeat(e, reps), np.arange(1, k) / k)
    assert cuts.tobytes() == expected.tobytes()
    assert np.array_equal(bins, np.searchsorted(expected, e, side="left"))


def counting(monkeypatch, name, module=ivlate.linalg):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_resample_that_drops_a_cell_falls_back_to_its_rows(monkeypatch):
    """Without cell 1 the resample's dummy for it is zero: the block's reweighted Gram and
    the propensity fit's whitened Gram are singular, so both factor the √w-scaled rows, the
    IRLS within its weighted runs (it never refits on the materialised rows): the run from
    the point's coefficients fails, and so does its rerun from zero."""
    data, cat = with_constant_dummies(5, n=240, levels=3)
    rng = np.random.default_rng(0)
    kept = np.bincount(rng.choice(np.flatnonzero(cat != 1), data.n), minlength=data.n).astype(float)
    every = np.bincount(rng.integers(0, data.n, data.n), minlength=data.n).astype(float)
    evaluate_tags(data.resample(every), ["++", "xx"])  # the point's factors and fit come first
    point = fit_propensity(data, "logistic").coefficients
    for tag in ("++", "beta", "xx"):
        for counts, fell_back in ((every, False), (kept, True)):
            factors = counting(monkeypatch, "triangular_factor")
            runs = counting(monkeypatch, "_irls_steps", complier)
            weighted = data.resample(counts)
            got = evaluate_tags(weighted, [tag])[tag]
            irls = [True] + [False] * fell_back if tag == "xx" else []  # from the point's fit
            assert [args[3] is point for args in runs] == irls
            assert all(args[4] is not None for args in runs)  # weighted
            # Only a fallback factors n rows: the block's, or the IRLS's in each of its runs.
            assert len(factors) == (len(irls) if tag == "xx" else 1) * fell_back
            monkeypatch.undo()
            with mock.patch.object(montecarlo, "fit_propensity", lambda s, spec: warm_fit(s, point)):
                expected = evaluate_tags(fresh(weighted.rows), [tag])[tag]
            if fell_back:
                assert type(got) is type(expected) and str(got) == str(expected)
                assert isinstance(got, IdentificationError) and "effective rank" in str(got)
            else:
                assert_same(("ok", got), ("ok", expected))


def test_fractional_weights_fit_a_block_with_a_dependent_column():
    """A sample with fractional weights and a dependent column (Y = 2D) fits on its
    √w-scaled rows."""
    rng = np.random.default_rng(0)
    d = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0], dtype=float)
    z = np.array([0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0], dtype=float)
    x = np.column_stack([np.ones(12), rng.standard_normal(12)])
    fit = interacted_2sls(Dataset(2.0 * d, d, z, x, True, weights=rng.random(12)))
    assert np.abs(fit.beta - [2.0, 0.0]).max() <= RTOL


def test_a_separated_resample_reruns_its_fit_from_zero():
    """The arms split at x1 = 0 but for a third of the units with |x1| < 1/2; a resample
    without those is separated, so its warm fit reaches the eta clip and reruns from zero,
    on the whitening as the rows' fit does on its own."""
    rng = np.random.default_rng(4)
    n = 200
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    z = (x[:, 1] > 0.0).astype(float)
    flip = np.flatnonzero((np.abs(x[:, 1]) < 0.5) & (rng.random(n) < 1 / 3))
    z[flip] = 1.0 - z[flip]
    data = Dataset(y=rng.standard_normal(n), d=z.copy(), z=z, x=x)
    point = fit_propensity(data, "logistic")
    assert point.converged and np.abs(x @ point.coefficients).max() < 30.0
    counts = np.bincount(rng.choice(np.setdiff1d(np.arange(n), flip), n), minlength=n).astype(float)
    weighted = data.resample(counts)

    runs = []  # (weighted, from zero) of each IRLS run
    original = complier._irls_steps

    def counted(z, x, whiten, beta, counts=None):
        runs.append((counts is not None, not beta.any()))
        return original(z, x, whiten, beta, counts)

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("ignore", RuntimeWarning)
        patch.setattr(complier, "_irls_steps", counted)
        got = fit_propensity(weighted, "logistic")
        assert runs == [(True, False), (True, True)]
        runs.clear()
        expected = warm_fit(fresh(weighted.rows), point.coefficients)
        assert runs == [(False, False), (False, True)]
    assert got.converged == expected.converged and got.n_clipped == expected.n_clipped > 0
    assert_same(("ok", got.coefficients), ("ok", expected.coefficients))
    assert_same(("ok", np.repeat(got.ehat, weighted.weights.astype(int))), ("ok", expected.ehat))


def test_a_replicate_that_does_not_fall_back_factors_no_n_rows(monkeypatch):
    data = simulate_iv(21, n=400)
    tags = ["++", "x+", "xx", "strat-5"]
    qrs = {}
    for b in (10, 30):
        factors = counting(monkeypatch, "triangular_factor")
        bases = counting(monkeypatch, "orthonormal_basis")
        sample = Dataset(data.y, data.d, data.z, data.x)
        bootstrap_tags(sample, tags, b=b, seed=3)
        qrs[b] = (len(factors), len(bases))
        monkeypatch.undo()
    # The point block, whose leading X block whitens the point's IRLS and the resamples'; one basis.
    assert qrs[10] == qrs[30] == (1, 1)


def test_a_resample_fit_is_the_same_before_or_after_its_point_fit(monkeypatch):
    """A resample's logistic fit starts from its point sample's, which is fitted once, from
    zero, whichever of the two ``fit_propensity`` sees first: the fits agree bit for bit."""
    data = simulate_iv(23, n=300)
    counts = np.bincount(np.random.default_rng(1).integers(0, data.n, data.n), minlength=data.n)
    fits = []
    for resample_first in (False, True):
        point = fresh(data)
        resample = point.resample(counts.astype(float))
        runs = counting(monkeypatch, "_irls_logistic", complier)
        for sample in (resample, point) if resample_first else (point, resample):
            fit_propensity(sample, "logistic")
        got = [fit_propensity(sample, "logistic") for sample in (point, resample)]  # cached
        monkeypatch.undo()
        assert len(runs) == 2 and runs[0][3] is None  # the point's, from zero, once
        assert runs[1][3] is got[0].coefficients
        fits.append([fit_fields(("ok", fit)) for fit in got])
    assert fits[0] == fits[1]


def test_bootstrap_starts_every_resample_fit_from_the_point_fit(monkeypatch):
    data = simulate_iv(24, n=300)
    runs = counting(monkeypatch, "_irls_logistic", complier)
    bootstrap_tags(data, ["xx", "strat-5"], b=40, seed=3)
    point = fit_propensity(data, "logistic").coefficients  # cached: no run
    assert len(runs) == 41 and runs[0][3] is None
    assert all(args[3] is point for args in runs[1:])


def test_functions_without_a_weighted_form_raise():
    data = simulate_iv(22, n=100)
    weighted = data.resample(np.ones(data.n))
    with pytest.raises(ValueError, match="weighted"):
        generalized_additive_2sls(weighted, lambda z, x: [z, *x])
    with pytest.raises(ValueError, match="weighted"):
        fit_propensity(weighted, "saturated")
    with pytest.raises(ValueError, match="unweighted"):
        weighted.resample(np.ones(data.n))
    with pytest.raises(ValueError, match="whole numbers"):
        Dataset(data.y, data.d, data.z, data.x, weights=np.full(data.n, 1.5)).rows
    with pytest.raises(ValueError, match="whole numbers"):
        partition_by_propensity(np.linspace(0, 1, 10), 2, np.tile([0.0, 1.0], 5), np.ones(10),
                                counts=np.full(10, 0.5))


def test_unit_counts_reproduce_the_point_sample():
    """Counts of one read the point factors through U = I up to rounding."""
    data = simulate_iv(23, n=300)
    weighted = data.resample(np.ones(data.n))
    point = evaluate_tags(data, TAGS)
    got = evaluate_tags(weighted, TAGS)
    for tag in TAGS:
        assert_same(("ok", got[tag]), ("ok", point[tag]), rtol=10 * IRLS_TOL if tag in ("xx",) else RTOL)

"""Closed-form estimators against the refit implementations they replace.

The centered interacted 2SLS, the stratified LATE, and the stratum merge
are computed from identities: equivariance of the interacted fit, the
collapse of 2SLS on saturated stratum dummies to stratum Wald ratios,
and per-bin counts. The slow implementations those identities replace
are kept here as references: a column-shifted refit, a dummy design with
a saturated propensity and a centered fit, and a merge loop that masks
all units at every check. Random small samples must give the same
numbers (to 1e-9 relative), partitions, and error classes. CSV ingestion
parses rows into Python floats and builds its arrays once; the per-row
numpy loop it replaces must give identical arrays or the same error on
random small files. The two-stage estimators and the logistic IRLS fit
on the triangular factor of one column-stacked block; the two n-row
fits per estimator and the n-row weighted IRLS step they replace must
give the same coefficients (to 1e-9 relative) and the same error
classes, rank deficiency included. Later IRLS steps solve on the
whitened k-by-k Gram; the n-row factor per step they replace must give
the same convergence flag, errors and messages, scores to 1e-12 and
coefficients to 1e-9, also on a quasi-separated design whose steps fall
back to n rows. Partition cutpoints read off one sort must equal
np.quantile, and their bins np.searchsorted, bit for bit. Finite-support
designs evaluate their laws on the drawn cell index; the laws that
recover each unit's cell from its covariate row, which they replace,
must generate identical samples and latent truths. The oracle's
regression limits are the estimators' two stages on the factor of a
design's weighted atoms; the population moment blocks they replace must
give the same limits to 1e-10 on the bundled, curved and categorical
designs and on random finite-support designs, and their bias terms must
carry the complier projection to the oracle's interacted limit.
"""

import csv
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import scipy.linalg
from _helpers import categorical_spec, curved_spec, fwl_design, ref_oracle_estimands, residualize
from scipy.special import expit

from ivlate import complier, estimators, linalg, stratify
from ivlate.cli import ingest_csv
from ivlate.complier import (
    PC_FLOOR,
    PropensityFit,
    centered_interacted_2sls,
    complier_mean,
    fit_propensity,
    kappa_weights,
    require_compliers,
)
from ivlate.errors import (
    IdentificationError,
    InvalidSpecError,
    NoCompliersError,
    RankDeficientError,
    SchemaError,
    UnpartitionableError,
)
from ivlate.estimators import (
    Dataset,
    additive_2sls,
    generalized_additive_2sls,
    interacted_2sls,
    interacted_additive_2sls,
    partially_interacted_2sls,
    stratum_wald,
)
from ivlate.montecarlo import DgpCell, DgpSpec, dgp_a, evaluate_tags, from_cells, generate, oracle_estimands
from ivlate.stratify import StratumPartition, partition_by_propensity, stratified_late

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
RTOL = 1e-9


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def ref_centered_interacted_2sls(data, prop, centering="first-stage"):
    """Shift the non-constant columns by complier means and refit."""
    means = complier_mean(data, prop, range(1, data.k))
    if centering == "kappa":
        mu = means
    elif centering == "first-stage":
        zx = data.z[:, None] * data.x
        fit = linalg.least_squares(data.d, np.column_stack([zx, data.x]))
        share = data.x @ fit.coef[: data.k, 0]
        total = share.sum()
        require_compliers(total / data.n)
        mu = (share @ data.x[:, 1:]) / total if data.k > 1 else np.empty(0)
    else:
        raise ValueError(f"unknown centering {centering!r}")
    x0 = data.x.copy()
    if data.k > 1:
        x0[:, 1:] -= mu
    return float(interacted_2sls(replace(data, x=x0)).beta[0])


def ref_partition(ehat, k, z, d):
    """Merge loop that masks every unit with np.isin at every validity check."""
    e = np.asarray(ehat, dtype=float)
    n = e.shape[0]
    if k < 1 or n < 2 * k:
        raise ValueError("bad k")
    cuts = np.quantile(e, np.arange(1, k) / k) if k > 1 else np.empty(0)
    bins = np.searchsorted(cuts, e, side="left")

    def valid(members):
        mask = np.isin(bins, members)
        if not mask.any():
            return False
        zs = z[mask]
        if zs.min() == zs.max():
            return False
        return d[mask & (z == 1.0)].mean() - d[mask & (z == 0.0)].mean() != 0.0

    groups = [[j] for j in range(k)]
    while True:
        bad = next((g for g, members in enumerate(groups) if not valid(members)), None)
        if bad is None:
            break
        if len(groups) == 1:
            raise UnpartitionableError("no valid propensity stratification exists")
        if bad == 0:
            groups[1] = groups[0] + groups[1]
            del groups[0]
        else:
            groups[bad - 1] = groups[bad - 1] + groups[bad]
            del groups[bad]
    labels = np.empty(n, dtype=int)
    for idx, members in enumerate(groups):
        labels[np.isin(bins, members)] = idx + 1
    boundaries = np.array([cuts[groups[g][-1]] for g in range(len(groups) - 1)])
    counts = np.bincount(labels, minlength=len(groups) + 1)[1:]
    return len(groups), boundaries, labels, counts


def ref_stratified_late(data, prop, k):
    """Dummy design, saturated propensity, centered fit, and the dummy-basis fit."""
    _, _, labels, _ = ref_partition(prop.ehat, k, z=data.z, d=data.d)
    dummies = (labels[:, None] == np.arange(1, labels.max() + 1)).astype(float)
    data_hat = replace(data, x=np.column_stack([np.ones(data.n), dummies[:, 1:]]), has_constant=True)
    tau_star = ref_centered_interacted_2sls(data_hat, fit_propensity(data_hat, "saturated"))
    beta_star = interacted_2sls(replace(data, x=dummies, has_constant=False)).beta
    return tau_star, beta_star


def stratified_complier_share(data, labels):
    """sum_j n_j (mean D | Z=1 - mean D | Z=0 in stratum j) / n."""
    total = 0.0
    for j in np.unique(labels):
        s = labels == j
        total += s.sum() * (data.d[s & (data.z == 1.0)].mean() - data.d[s & (data.z == 0.0)].mean())
    return total / data.n


def outcome(fn, *args):
    """Return ("ok", value) or ("error", exception class)."""
    try:
        return "ok", fn(*args)
    except (IdentificationError, ValueError) as exc:
        return "error", type(exc)


def assert_close(actual, expected):
    actual, expected = np.atleast_1d(actual), np.atleast_1d(expected)
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.abs(actual - expected).max() <= RTOL * scale


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def partition_inputs(draw):
    """Scores on a coarse grid (ties, empty bins) with sparse arms and treatment."""
    k = draw(st.integers(1, 15))
    n = draw(st.integers(max(2, 2 * k - 1), 2 * k + 30))
    levels = draw(st.integers(1, 8))
    ehat = np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))) / levels
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    z = np.array(draw(flags), dtype=float)
    d = np.array(draw(flags), dtype=float) if draw(st.booleans()) else np.zeros(n)
    return ehat, k, z, d


@st.composite
def samples(draw, max_k=3):
    """Small dataset with a constant and a propensity on a grid around 0.5."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(8, 60))
    k = draw(st.integers(1, max_k))
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    if k > 1 and draw(st.booleans()):
        x[:, 1] = rng.integers(0, 3, n)  # a categorical covariate
    z = (rng.random(n) < 0.5).astype(float)
    complier = rng.random(n) < draw(st.floats(0.0, 1.0))
    d = np.where(complier, z, (rng.random(n) < 0.3).astype(float))
    y = x @ rng.standard_normal(k) + d * (1.0 + x[:, -1]) + rng.standard_normal(n)
    spread = draw(st.integers(0, 4))
    ehat = 0.5 + rng.integers(-spread, spread + 1, n) / 10.0
    data = Dataset(y=y, d=d, z=z, x=x, has_constant=True)
    return data, fit_propensity(data, ehat)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@PROPERTY
@given(partition_inputs())
def test_partition_matches_isin_merge_loop(inputs):
    ehat, k, z, d = inputs
    kind, ref = outcome(ref_partition, ehat, k, z, d)
    new_kind, part = outcome(partition_by_propensity, ehat, k, z, d)
    assert new_kind == kind
    if kind == "error":
        assert part is ref
        return
    ref_k, ref_bounds, ref_labels, ref_counts = ref
    assert part.k == ref_k and part.merged_from == k
    assert np.array_equal(part.labels, ref_labels)
    assert np.array_equal(part.boundaries, ref_bounds)
    assert np.array_equal(part.counts, ref_counts)

    assert 1 <= part.k <= k
    assert part.counts.sum() == ehat.size
    assert np.all(part.counts > 0)
    order = np.argsort(ehat, kind="stable")
    assert np.all(np.diff(part.labels[order]) >= 0)  # monotone in the score
    for value in np.unique(ehat):
        assert np.unique(part.labels[ehat == value]).size == 1  # ties never split
    if z is not None:
        for j in range(1, part.k + 1):
            arm1 = (part.labels == j) & (z == 1.0)
            arm0 = (part.labels == j) & (z == 0.0)
            assert arm1.any() and arm0.any()
            if d is not None:
                assert d[arm1].mean() != d[arm0].mean()


@PROPERTY
@given(samples(), st.sampled_from(["first-stage", "kappa"]))
def test_centered_2sls_matches_shift_and_refit(sample, centering):
    data, prop = sample
    kind, ref = outcome(ref_centered_interacted_2sls, data, prop, centering)
    new_kind, est = outcome(centered_interacted_2sls, data, prop, centering)
    assert new_kind == kind
    if kind == "error":
        # The one fit includes the second stage, which the reference ran
        # only after its share check: a first stage without variation makes
        # that fit rank deficient before the share check is reached.
        assert est is ref or (ref is NoCompliersError and est is RankDeficientError)
    else:
        assert_close(est, ref)


@PROPERTY
@given(samples(max_k=1), st.integers(1, 15))
def test_stratified_late_matches_dummy_refit(sample, k):
    data, prop = sample
    kind, part = outcome(ref_partition, prop.ehat, k, data.z, data.d)
    if kind == "ok":
        # Exactly at the identification floor the kappa mean and the count
        # formula may round to opposite sides of it.
        assume(abs(stratified_complier_share(data, part[2]) - PC_FLOOR) > 1e-9)
    kind, ref = outcome(ref_stratified_late, data, prop, k)
    new_kind, result = outcome(stratified_late, data, prop, k)
    assert new_kind == kind
    if kind == "error":
        assert result is ref
        return
    assert_close(result.tau_star, ref[0])
    assert_close(result.beta_star, ref[1])


def test_unknown_centering_still_checks_the_floor_first():
    rng = np.random.default_rng(3)
    n = 40
    z = np.tile([0.0, 1.0], n // 2)
    data = Dataset(y=rng.standard_normal(n), d=np.zeros(n), z=z,
                   x=np.column_stack([np.ones(n), rng.standard_normal(n)]))
    prop = fit_propensity(data, np.full(n, 0.5))
    with pytest.raises(NoCompliersError):
        centered_interacted_2sls(data, prop, centering="oracle")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def ref_ingest_csv(path, add_constant=True):
    """Fill numpy arrays row by row and check each row with numpy."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header row") from None
        rows = list(reader)

    names = [h.strip() for h in header]
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate columns in header: {names}")
    for required in ("y", "d", "z"):
        if required not in names:
            raise SchemaError(f"missing required column {required!r}")
    x_names = [c for c in names if c not in ("y", "d", "z")]
    bad = [c for c in x_names if not c.startswith("x")]
    if bad:
        raise SchemaError(f"unexpected non-covariate columns: {bad}")
    if not x_names and not add_constant:
        raise SchemaError("no covariate columns and no constant requested")

    index = {name: names.index(name) for name in names}
    n = len(rows)
    if n == 0:
        raise SchemaError("file contains a header but no data rows")
    y = np.empty(n)
    d = np.empty(n)
    z = np.empty(n)
    x = np.empty((n, len(x_names)))
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise ValueError(f"row {i + 1}: expected {len(names)} fields, got {len(row)}")
        try:
            y[i] = float(row[index["y"]])
            d[i] = float(row[index["d"]])
            z[i] = float(row[index["z"]])
            for j, name in enumerate(x_names):
                x[i, j] = float(row[index[name]])
        except ValueError:
            raise ValueError(f"row {i + 1}: non-numeric cell") from None
        if not (np.isfinite(y[i]) and np.isfinite(x[i]).all()):
            raise ValueError(f"row {i + 1}: non-finite cell")
        if d[i] not in (0.0, 1.0):
            raise ValueError(f"row {i + 1}: d must be 0 or 1, got {row[index['d']]!r}")
        if z[i] not in (0.0, 1.0):
            raise ValueError(f"row {i + 1}: z must be 0 or 1, got {row[index['z']]!r}")

    if add_constant:
        x = np.column_stack([np.ones(n), x])
    return Dataset(y=y, d=d, z=z, x=x, has_constant=add_constant)


# Cell tokens by kind; "1_0" parses as 10 and padded cells parse.
ODD_NUMBERS = ("-0", "0.0", "1.0", " 1 ", "1 ", " 0", "2", "-1.5", "0.25", "1e3", "1_0", "0_1")
NON_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity")
NON_NUMERIC = ("abc", "", " ", "0x1", "--1", "1,5")
VALID_HEADERS = (
    ("y", "d", "z"),
    ("y", "d", "z", "x1"),
    ("x2", "z", "y", "x1", "d"),
    (" y", "d ", "z", "x1"),
)
BAD_HEADERS = (
    ("y", "d", "z", "w1"),
    ("y", "d", "x1"),
    ("y", "d", "z", "x1", "x1"),
)


@st.composite
def csv_files(draw):
    header = draw(st.sampled_from(VALID_HEADERS if draw(st.integers(0, 5)) else BAD_HEADERS))
    width = len(header)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        fields = width + draw(st.sampled_from((0,) * 12 + (-1, 1)))
        # Mostly 0/1 cells, so files reach the later checks.
        kinds = (NON_NUMERIC, NON_FINITE, ODD_NUMBERS, ODD_NUMBERS) + (("0", "1"),) * 8
        rows.append([draw(st.sampled_from(draw(st.sampled_from(kinds)))) for _ in range(fields)])
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    return text, draw(st.booleans())


@settings(PROPERTY, max_examples=400)
@given(csv_files())
@example(("y,d,z,x1\n1,0,1,0\n1,0,1,nan\n", True))
@example(("x2,z,y,x1,d\n-inf,1,0,0,1\n", False))
@example(("x2,z,y,x1,d\n0,1,0,NaN,1\n", True))
@example(("y,d,z,x1\n1,nan,1,0\n", True))
@example(("y,d,z,x1\n1,1,inf,0\n", True))
@example(("y,d,z,x1\n1,1_0,1,0\n", True))
@example(("y,d,z,x1\n 1 , 1 ,0 , -0 \n1_0,0,1,2\n", False))
@example(("y,d,z,x1\n1,0,1,0\n1,0,1,abc\n1,0,1,0\n1,0,1\n", True))
@example(("y,d,z,x1\n1,0,1,0\n1,2,1,0\n1,0,1,inf\n", True))
@example(("y,d,z,x1\n" + "1,0,1,0.5\n" * 1999 + "1,0,1,--1\n", True))
def test_ingest_matches_row_by_row_reference(tmp_path_factory, csv_file):
    text, add_constant = csv_file
    path = tmp_path_factory.mktemp("ingest") / "data.csv"
    path.write_text(text, encoding="utf-8")

    def load(fn):
        try:
            return fn(path, add_constant)
        except ValueError as exc:  # SchemaError included
            return exc

    expected, got = load(ref_ingest_csv), load(ingest_csv)
    if isinstance(expected, ValueError):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert not isinstance(got, ValueError), got
    for name in ("y", "d", "z", "x"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.flags.c_contiguous
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    assert got.has_constant == expected.has_constant


# ---------------------------------------------------------------------------
# Two-stage fits and IRLS steps on one triangular factor
# ---------------------------------------------------------------------------


def ref_two_stage(responses, design, data):
    """First stage on the n-row design, second on its stored n-row fitted block."""
    first = linalg.least_squares(responses, design)
    second = linalg.least_squares(data.y, np.column_stack([design @ first.coef, data.x]))
    return first, second


def ref_estimators(data, v_cols, builder):
    """Reference values of the five two-stage estimators and of the FWL design."""
    zx, dx = data.z[:, None] * data.x, data.d[:, None] * data.x
    v = data.x[:, v_cols]
    rows = np.vstack([np.asarray(builder(float(zi), xi), dtype=float) for zi, xi in zip(data.z, data.x)])
    return {
        "++": lambda: ref_two_stage(data.d, np.column_stack([data.z, data.x]), data)[1].coef[0, 0],
        "x+": lambda: ref_two_stage(data.d, np.column_stack([zx, data.x]), data)[1].coef[0, 0],
        "beta": lambda: ref_two_stage(dx, np.column_stack([zx, data.x]), data)[1].coef[: data.k, 0],
        "fwl": lambda: residualize(
            np.column_stack([zx, data.x]) @ ref_two_stage(dx, np.column_stack([zx, data.x]), data)[0].coef,
            data.x,
        ),
        "partial": lambda: ref_two_stage(
            data.d[:, None] * v, np.column_stack([data.z[:, None] * v, data.x]), data
        )[1].coef[: len(v_cols), 0],
        "generalized": lambda: ref_two_stage(data.d, rows, data)[1].coef[0, 0],
    }


def new_estimators(data, v_cols, builder):
    return {
        "++": lambda: additive_2sls(data),
        "x+": lambda: interacted_additive_2sls(data),
        "beta": lambda: interacted_2sls(data).beta,
        "fwl": lambda: fwl_design(data, interacted_2sls(data)),
        "partial": lambda: partially_interacted_2sls(data, v_cols),
        "generalized": lambda: generalized_additive_2sls(data, builder),
    }


def logistic_deviance(z, eta):
    """-2 log-likelihood at the clipped linear predictor, one positive term per unit."""
    ex = np.exp(-eta)
    return 2.0 * float(np.log1p(z * ex + (1.0 - z) / ex).sum())


def ref_irls_coefficients(z, x, max_iter=100, tol=1e-8):
    """The logistic IRLS with each weighted step fitted on the n-row design."""
    beta = np.zeros(x.shape[1])
    eta = np.clip(x @ beta, -30.0, 30.0)
    mu = expit(eta)
    dev_prev = np.inf
    for _ in range(max_iter):
        w = mu * (1.0 - mu)
        working = eta + (z - mu) / w
        sw = np.sqrt(w)
        beta = linalg.least_squares(sw * working, sw[:, None] * x).coef[:, 0]
        eta = np.clip(x @ beta, -30.0, 30.0)
        mu = expit(eta)
        dev = logistic_deviance(z, eta)
        if np.isfinite(dev_prev) and abs(dev - dev_prev) < tol * (abs(dev_prev) + 1e-300):
            break
        dev_prev = dev
    return beta


def logistic_coefficients(data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fit_propensity(data, "logistic").coefficients


# First-stage builders: two nest the additive and interacted-additive
# designs (the covariates come last), one does not end with them.
BUILDERS = {
    "z, x": lambda z, xr: np.concatenate([[z], xr]),
    "z x, x": lambda z, xr: np.concatenate([z * xr, xr]),
    "1, z, z x_last": lambda z, xr: np.array([1.0, z, z * xr[-1]]),
}


@st.composite
def iv_samples(draw, degenerate=None):
    """Small constant-carrying dataset, optionally made rank deficient.

    ``degenerate`` is None, "duplicate" (the last covariate copies the
    one before it) or "flat" (a constant treatment, so the first stage
    has no variation).
    """
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(3 if degenerate == "duplicate" else 1, 4))
    n = draw(st.integers(4 * k + 4 if degenerate else 8, 80))
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1)) * draw(st.sampled_from([1.0, 1e-3, 50.0]))])
    if k > 1 and draw(st.booleans()):
        x[:, 1] = rng.integers(0, 3, n)  # a categorical covariate
    if degenerate == "duplicate":
        x[:, -1] = x[:, -2]
    e = expit(draw(st.floats(-1.5, 1.5)) * (x[:, -1] - x[:, -1].mean()))
    z = (rng.random(n) < e).astype(float)
    z[:2] = [0.0, 1.0]  # both instrument arms
    complier = rng.random(n) < draw(st.floats(0.05, 1.0))
    d = np.where(complier, z, (rng.random(n) < 0.3).astype(float))
    if degenerate == "flat":
        d = np.full(n, float(draw(st.integers(0, 1))))
    y = x @ rng.standard_normal(k) + d * (1.0 + x[:, -1]) + rng.standard_normal(n)
    v_cols = sorted(draw(st.sets(st.integers(0, k - 1), min_size=1)))
    return Dataset(y=y, d=d, z=z, x=x, has_constant=True), v_cols, draw(st.sampled_from(sorted(BUILDERS)))


@settings(PROPERTY, max_examples=200)
@given(iv_samples())
def test_two_stage_estimators_match_two_tall_fits(sample):
    data, v_cols, builder = sample
    refs = ref_estimators(data, v_cols, BUILDERS[builder])
    news = new_estimators(data, v_cols, BUILDERS[builder])
    for name in refs:
        kind, ref = outcome(refs[name])
        new_kind, got = outcome(news[name])
        assert new_kind == kind, (name, ref, got)
        if kind == "error":
            assert got is ref, name
        else:
            assert_close(got, ref)


@PROPERTY
@given(iv_samples())
def test_logistic_coefficients_match_tall_irls(sample):
    data = sample[0]
    kind, ref = outcome(ref_irls_coefficients, data.z, data.x)
    new_kind, got = outcome(logistic_coefficients, data)
    assert new_kind == kind
    if kind == "error":
        assert got is ref
    else:
        assert_close(got, ref)


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from(["duplicate", "flat"]).flatmap(lambda how: st.tuples(st.just(how), iv_samples(how))))
def test_rank_deficiency_raises_on_both_routes(drawn):
    how, (data, v_cols, builder) = drawn
    refs = ref_estimators(data, v_cols, BUILDERS[builder])
    news = new_estimators(data, v_cols, BUILDERS[builder])
    for name in refs:
        assert outcome(refs[name]) == ("error", RankDeficientError), name
        assert outcome(news[name]) == ("error", RankDeficientError), name
    if how == "duplicate":  # the covariates alone are rank deficient
        assert outcome(ref_irls_coefficients, data.z, data.x) == ("error", RankDeficientError)
        assert outcome(logistic_coefficients, data) == ("error", RankDeficientError)


# ---------------------------------------------------------------------------
# The least-squares kernel: direct LAPACK calls against scipy.linalg
# ---------------------------------------------------------------------------


def ref_least_squares(responses, regressors):
    """scipy.linalg.qr with column pivoting, Q formed, then solve_triangular."""
    y = linalg._as_matrix(responses, "responses")
    x = linalg._as_matrix(regressors, "regressors")
    n, q = x.shape
    if n < q:
        raise ValueError(f"need at least as many rows ({n}) as regressors ({q})")
    qmat, rmat, pivot = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rmat))
    if diag[0] <= 0.0 or diag[-1] < linalg.RANK_RTOL * diag[0]:
        rank = 0 if diag[0] <= 0.0 else int(np.sum(diag >= linalg.RANK_RTOL * diag[0]))
        raise RankDeficientError(
            f"design has effective rank {rank} < {q} (pivot ratio "
            f"{diag[-1] / diag[0] if diag[0] > 0 else 0.0:.2e})"
        )
    coef_pivoted = scipy.linalg.solve_triangular(rmat, qmat.T @ y)
    coef = np.empty_like(coef_pivoted)
    coef[pivot] = coef_pivoted
    return linalg.LsFit(coef, float(diag[0] / diag[-1]))


def exact_outcome(fn, *args):
    """Return ("ok", value) or ("error", exception class, message)."""
    try:
        return "ok", fn(*args)
    except (IdentificationError, ValueError) as exc:
        return "error", type(exc), str(exc)


@st.composite
def ls_problems(draw):
    """Tall, square or triangular-factor designs with scaled and copied columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, p = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["tall", "square", "R"]))
    n = q if shape == "square" else draw(st.integers(q + 1 if shape == "tall" else q, q + 40))
    x = rng.standard_normal((n, q)) * 10.0 ** rng.uniform(-4.0, 4.0, q)
    copy = draw(st.sampled_from(["none", "duplicate", "near-duplicate"]))
    if q > 1 and copy != "none":
        i, j = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
        x[:, j] = x[:, i] * (1.0 + 1e-13 if copy == "near-duplicate" else 1.0)
    y = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-4.0, 4.0)
    if shape == "R":
        rmat = linalg.triangular_factor(x, y)
        x, y = rmat[:, :q], rmat[:, q:]
    return y, x


@settings(PROPERTY, max_examples=400)
@given(ls_problems())
def test_least_squares_kernel_matches_scipy_qr_route(problem):
    y, x = problem
    ref, got = exact_outcome(ref_least_squares, y, x), exact_outcome(linalg.least_squares, y, x)
    assert got[0] == ref[0]
    if ref[0] == "error":
        assert got == ref
        return
    got, ref = got[1], ref[1]
    assert got.condition_estimate == ref.condition_estimate
    # Errors are on the scale of the responses; a coefficient's is its
    # error times the magnitude of its design column.
    bound = 1e-12 * max(1.0, float(np.abs(y).max()))
    assert np.abs((got.coef - ref.coef) * np.abs(x).max(axis=0)[:, None]).max() <= bound
    fitted, ref_fitted = x @ got.coef, x @ ref.coef
    assert np.abs(fitted - ref_fitted).max() <= bound
    assert np.abs((y - fitted) - (y - ref_fitted)).max() <= bound


# ---------------------------------------------------------------------------
# Strata from one bincount against per-mask tallies
# ---------------------------------------------------------------------------


def ref_partition_by_propensity(ehat, k, z, d):
    """Four masked bincounts per bin and a numpy slice-sum per validity check."""
    e = np.asarray(ehat, dtype=float).reshape(-1)
    n = e.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2 * k:
        raise ValueError(f"need at least 2k = {2 * k} units, got {n}")
    cuts = np.quantile(e, np.arange(1, k) / k) if k > 1 else np.empty(0)
    bins = np.searchsorted(cuts, e, side="left")
    arm1, treated = z == 1.0, d == 1.0
    tallies = np.stack(
        [np.bincount(bins[mask], minlength=k)
         for mask in (np.ones(n, dtype=bool), arm1, treated & arm1, treated & ~arm1)]
    )

    def valid(lo, hi):
        units, units1, treated1, treated0 = tallies[:, lo:hi].sum(axis=1)
        if units1 in (0, units):
            return False
        return treated1 / units1 - treated0 / (units - units1) != 0.0

    groups = [(j, j + 1) for j in range(k)]
    while True:
        bad = next((g for g, (lo, hi) in enumerate(groups) if not valid(lo, hi)), None)
        if bad is None:
            break
        if len(groups) == 1:
            raise UnpartitionableError("no valid propensity stratification exists")
        g = max(bad, 1)
        groups[g - 1 : g + 1] = [(groups[g - 1][0], groups[g][1])]
    label_of_bin = np.empty(k, dtype=int)
    for idx, (lo, hi) in enumerate(groups):
        label_of_bin[lo:hi] = idx + 1
    return StratumPartition(
        k=len(groups),
        boundaries=cuts[[hi - 1 for _, hi in groups[:-1]]],
        labels=label_of_bin[bins],
        counts=np.add.reduceat(tallies[0], [lo for lo, _ in groups]),
        merged_from=k,
    )


def ref_arm_moments(data, codes, m):
    """Per-stratum arm gaps from one bincount per instrument arm and moment."""
    arm1 = data.z == 1.0
    c1, c0 = codes[arm1], codes[~arm1]
    n1 = np.bincount(c1, minlength=m)
    n0 = np.bincount(c0, minlength=m)

    def gap(v):
        return np.bincount(c1, v[arm1], m) / n1 - np.bincount(c0, v[~arm1], m) / n0

    with np.errstate(invalid="ignore", divide="ignore"):
        return (n1 == 0) | (n0 == 0), gap(data.d), gap(data.y)


@st.composite
def strata_samples(draw):
    """Scores on a coarse grid with sparse arms and sparse or absent treatment.

    Ties, empty bins, single-arm bins and zero first-stage gaps are
    common; a one-level grid or a constant treatment merges everything
    into one stratum or leaves none valid.
    """
    k = draw(st.integers(1, 15))
    n = draw(st.integers(2 * k, 2 * k + 40))
    levels = draw(st.integers(1, 8))
    ehat = np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))) / levels
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    z = np.array(draw(flags), dtype=float)
    treatment = draw(st.sampled_from(["complier", "random", "none"]))
    if treatment == "complier":
        d = np.where(draw(flags), z, np.array(draw(flags), dtype=float))
    else:
        d = np.array(draw(flags), dtype=float) if treatment == "random" else np.zeros(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = Dataset(y=rng.standard_normal(n) + d, d=d, z=z, x=np.ones((n, 1)))
    prop = PropensityFit(ehat=ehat, coefficients=None, converged=True)
    labels = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return data, prop, k, labels


def assert_same_partition(got, ref):
    assert (got.k, got.merged_from) == (ref.k, ref.merged_from)
    for name in ("labels", "counts", "boundaries"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@settings(PROPERTY, max_examples=300)
@given(strata_samples())
def test_one_bincount_strata_equal_the_masked_tallies(sample):
    data, prop, k, labels = sample
    ref = exact_outcome(ref_partition_by_propensity, prop.ehat, k, data.z, data.d)
    got = exact_outcome(partition_by_propensity, prop.ehat, k, data.z, data.d)
    assert got[0] == ref[0]
    if ref[0] == "error":
        assert got == ref
    else:
        assert_same_partition(got[1], ref[1])

    with mock.patch.object(stratify, "partition_by_propensity", ref_partition_by_propensity), \
            mock.patch.object(stratify, "_arm_moments", ref_arm_moments):
        ref = exact_outcome(stratified_late, data, prop, k)
    got = exact_outcome(stratified_late, data, prop, k)
    assert got[0] == ref[0]
    if ref[0] == "error":
        assert got == ref
    else:
        assert got[1].tau_star == ref[1].tau_star
        assert np.array_equal(got[1].beta_star, ref[1].beta_star)
        assert_same_partition(got[1].partition, ref[1].partition)

    strata = [labels] if ref[0] == "error" else [labels, ref[1].partition.labels]
    for codes in strata:
        with mock.patch.object(estimators, "_arm_moments", ref_arm_moments):
            ref = exact_outcome(stratum_wald, data, codes)
        got = exact_outcome(stratum_wald, data, codes)
        assert got[0] == ref[0]
        if ref[0] == "error":
            assert got == ref
        else:
            assert np.array_equal(got[1], ref[1])


# ---------------------------------------------------------------------------
# Equivariance under constant-preserving covariate transformations
# ---------------------------------------------------------------------------


@settings(PROPERTY, max_examples=100)
@given(iv_samples(), st.integers(0, 2**32 - 1))
def test_two_stage_estimators_are_equivariant(sample, seed):
    """With X -> X G and G[:, 0] = e1, ++, x+ and xx are invariant and beta maps to G^-1 beta.

    The transformed sample is a ``replace`` of one whose factor is already
    cached, so a stale factor would show as an unchanged beta.
    """
    data = sample[0]
    rng = np.random.default_rng(seed)
    g = np.eye(data.k)
    g[:, 1:] = rng.standard_normal((data.k, data.k - 1))
    g[1:, 1:] += 3.0 * np.eye(data.k - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        kind, prop = outcome(fit_propensity, data, "logistic")
        if kind == "ok":
            # Exactly at the identification floor the two fits may round to opposite sides of it.
            assume(abs(kappa_weights(data, prop).mean() - PC_FLOOR) > 1e-9)
        tags = ["++", "x+", "xx", "beta"]
        before = evaluate_tags(data, tags)
        after = evaluate_tags(replace(data, x=data.x @ g), tags)
    if isinstance(before["beta"], np.ndarray):
        before["beta"] = np.linalg.solve(g, before["beta"])
    for tag in tags:
        assert isinstance(after[tag], np.ndarray) == isinstance(before[tag], np.ndarray), tag
        if isinstance(before[tag], np.ndarray):
            scale = max(1.0, float(np.abs(before[tag]).max()))
            assert np.abs(after[tag] - before[tag]).max() <= 1e-8 * scale, tag
        else:
            assert type(after[tag]) is type(before[tag]), tag


# ---------------------------------------------------------------------------
# Whitened IRLS steps against an n-row factor per step
# ---------------------------------------------------------------------------


def ref_irls_logistic(z, x, max_iter=100, tol=1e-8):
    """The logistic IRLS that factors the n-row weighted block at every step."""
    beta = np.zeros(x.shape[1])
    eta = np.clip(x @ beta, -30.0, 30.0)
    mu = complier.expit(eta)
    dev_prev = np.inf
    converged = False
    for _ in range(max_iter):
        w = mu * (1.0 - mu)
        working = eta + (z - mu) / w
        sw = np.sqrt(w)
        rmat = linalg.triangular_factor(sw[:, None] * x, sw * working)
        beta = linalg.least_squares(rmat[:, -1], rmat[:, :-1]).coef[:, 0]
        eta = np.clip(x @ beta, -30.0, 30.0)
        mu = complier.expit(eta)
        dev = logistic_deviance(z, eta)
        if np.isfinite(dev_prev) and abs(dev - dev_prev) < tol * (abs(dev_prev) + 1e-300):
            converged = True
            break
        dev_prev = dev
    return mu, beta, converged


def assert_same_irls(z, x):
    ref = exact_outcome(ref_irls_logistic, z, x)
    got = exact_outcome(complier._irls_logistic, z, x)
    assert got[0] == ref[0]
    if ref[0] == "error":
        assert got == ref
        return
    (mu, beta, converged), (ref_mu, ref_beta, ref_converged) = got[1], ref[1]
    assert converged == ref_converged
    assert np.abs(mu - ref_mu).max() <= 1e-12
    # Relative to the linear predictor: a coefficient's error times its column's magnitude.
    scale = np.abs(x).max(axis=0)
    assert np.abs((beta - ref_beta) * scale).max() <= 1e-9 * max(1.0, np.abs(ref_beta * scale).max())


@st.composite
def logistic_designs(draw):
    """Tall designs: column scales 1e-3..1e3, near-collinear or copied columns, few rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["plain", "near-collinear", "copy", "few rows"]))
    n = draw(st.integers(1, k - 1)) if shape == "few rows" and k > 1 else draw(st.integers(k + 2, 400))
    x = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    if k > 2 and shape == "near-collinear":
        x[:, -1] = x[:, -2] + draw(st.sampled_from([1e-1, 1e-2, 1e-3])) * rng.standard_normal(n)
    elif k > 1 and shape == "copy":
        x[:, -1] = x[:, 0]
    eta = draw(st.floats(-3.0, 3.0)) * (x[:, -1] - x[:, -1].mean()) + draw(st.floats(-1.0, 1.0))
    z = (rng.random(n) < expit(eta)).astype(float)
    x *= 10.0 ** rng.uniform(-3.0, 3.0, k)
    return z, x


@settings(PROPERTY, max_examples=300)
@given(logistic_designs())
def test_whitened_irls_matches_n_row_steps(design):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_same_irls(*design)


def test_quasi_separated_design_takes_the_n_row_fallback():
    """Arms split by the sign of x1 except at x1 = 0: the fit pushes x1's
    coefficient toward infinity, the weights of most units collapse and
    the whitened Gram of the later steps is far from well conditioned."""
    rng = np.random.default_rng(7)
    n = 400
    x1 = np.round(rng.standard_normal(n), 1)
    x = np.column_stack([np.ones(n), x1, rng.standard_normal(n)])
    z = np.where(x1 == 0.0, rng.random(n) < 0.5, x1 > 0.0).astype(float)
    fell_back = []
    original = complier._whitened_system

    def counted(*args):
        system = original(*args)
        fell_back.append(system is None)
        return system

    with warnings.catch_warnings(), mock.patch.object(complier, "_whitened_system", counted):
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_same_irls(z, x)
    assert any(fell_back) and not all(fell_back)


def logistic_data(z, x):
    return Dataset(y=np.zeros(len(z)), d=z.copy(), z=z, x=x, has_constant=True)


@st.composite
def warm_starts(draw):
    """A resample of a logistic design and the start a bootstrap gives it: the design's
    cold coefficients, perturbed or scaled up, or random ones when that fit fails.
    A third of the designs are near-separated, their arms split by the last column
    but for up to two flipped units, so fits reach the eta clip and the score clip."""
    z, x = draw(logistic_designs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = x.shape
    if draw(st.integers(0, 2)) == 0:
        z = (x[:, -1] > np.median(x[:, -1])).astype(float)
        flip = rng.choice(n, size=min(n, draw(st.integers(0, 2))), replace=False)
        z[flip] = 1.0 - z[flip]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        kind, fit = outcome(complier._irls_logistic, z, x)
    if kind == "ok":
        start = fit[1] * (1.0 + draw(st.sampled_from([0.0, 1e-3, 0.3])) * rng.standard_normal(k))
        start *= draw(st.sampled_from([1.0, 1.0, 10.0]))
    else:
        start = rng.standard_normal(k) / np.abs(x).max(axis=0)
    idx = rng.integers(0, n, n)
    return logistic_data(z[idx], x[idx]), start


# Both fits stop once the deviance changes by less than IRLS_TOL relative, so their
# scores agree to about IRLS_TOL, not below it: over 21 000 random draws of
# ``warm_starts`` the largest gap was 1.8e-8, and about one fitted draw in 700
# exceeded 1e-8.
WARM_SCORE_ATOL = 10 * complier.IRLS_TOL


@settings(PROPERTY, max_examples=300)
@given(warm_starts())
def test_warm_started_fit_matches_the_cold_fit(case):
    data, start = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cold = exact_outcome(fit_propensity, data, "logistic")
        warm = exact_outcome(fit_propensity, data, "logistic", start)
    assert warm[0] == cold[0]
    if cold[0] == "error":
        assert warm == cold
        return
    assert warm[1].converged == cold[1].converged
    assert warm[1].n_clipped == cold[1].n_clipped
    assert np.abs(warm[1].ehat - cold[1].ehat).max() <= WARM_SCORE_ATOL


def test_warm_start_whose_first_step_fails_reruns_from_zero():
    """The start clips eta where |x1| > 0.5, so those units weigh about 1e-13 at the
    first step, and the column that differs from x1 only where x1 > 1.5 drops below
    the rank tolerance. From zero every unit weighs 1/4 and the fit succeeds."""
    rng = np.random.default_rng(3)
    n = 300
    x1 = rng.standard_normal(n)
    x = np.column_stack([np.ones(n), x1, x1 + 1e-4 * (x1 > 1.5) * rng.standard_normal(n)])
    z = (rng.random(n) < expit(0.5 * x1)).astype(float)
    start = np.array([0.0, 60.0, 0.0])
    with pytest.raises(RankDeficientError):
        complier._irls_steps(z, x, start)
    data = logistic_data(z, x)
    cold = fit_propensity(data, "logistic")
    warm = fit_propensity(data, "logistic", start)
    assert cold.converged and warm.converged
    assert np.array_equal(warm.ehat, cold.ehat) and np.array_equal(warm.coefficients, cold.coefficients)


# ---------------------------------------------------------------------------
# Cutpoints from one sort against np.quantile and np.searchsorted
# ---------------------------------------------------------------------------


@st.composite
def score_vectors(draw):
    """Scores with ties, rounding or clusters; n from 2k, k from 1 to 20."""
    k = draw(st.integers(1, 20))
    n = draw(st.integers(2 * k, 2 * k + draw(st.sampled_from([0, 10, 300]))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "rounded", "ties", "clustered", "grid"]))
    e = rng.random(n)
    if kind == "rounded":
        e = np.round(e, draw(st.integers(0, 3)))
    elif kind == "ties":
        e = rng.choice(rng.random(draw(st.integers(1, 4))), n)
    elif kind == "clustered":
        e = np.clip(rng.choice([0.0, 0.3, 0.8, 1.0], n) + 1e-12 * rng.standard_normal(n), 0.0, 1.0)
    elif kind == "grid":
        levels = draw(st.integers(1, 8))
        e = rng.integers(0, levels + 1, n) / levels
    return e, k


@settings(PROPERTY, max_examples=400)
@given(score_vectors())
def test_cutpoints_from_one_sort_equal_np_quantile(sample):
    e, k = sample
    cuts, bins = stratify._quantile_bins(e, k)
    expected = np.quantile(e, np.arange(1, k) / k)
    assert cuts.dtype == expected.dtype and cuts.tobytes() == expected.tobytes()
    assert np.array_equal(bins, np.searchsorted(expected, e, side="left"))


# ---------------------------------------------------------------------------
# Finite-support generation: drawn cell index against the covariate-row lookup
# ---------------------------------------------------------------------------


def ref_from_cells(name, cells, noise_sd=0.0):
    """Finite-support design whose laws recover each unit's cell from its covariate row."""
    cells = tuple(cells)
    xmat = np.array([c.x for c in cells], dtype=float)
    probs = np.array([c.prob for c in cells], dtype=float)
    e_arr = np.array([c.e for c in cells], dtype=float)
    pa_arr = np.array([c.p_always for c in cells], dtype=float)
    pc_arr = np.array([c.p_complier for c in cells], dtype=float)
    y0_arr = np.array([c.y0_mean for c in cells], dtype=float)
    y1_arr = np.array([c.y1_mean for c in cells], dtype=float)

    def cell_index(x):
        match = np.all(x[:, None, :] == xmat[None, :, :], axis=2)
        if not match.any(axis=1).all():
            raise InvalidSpecError("covariate row outside the declared support")
        return match.argmax(axis=1)

    def draw(rng, n):
        x = xmat[rng.choice(len(cells), size=n, p=probs)]
        return x, x

    return DgpSpec(
        name=name,
        k=xmat.shape[1],
        draw_covariates=draw,
        propensity=lambda x: e_arr[cell_index(x)],
        p_always=lambda x: pa_arr[cell_index(x)],
        p_complier=lambda x: pc_arr[cell_index(x)],
        y0_mean=lambda x, u: y0_arr[cell_index(x), u],
        y1_mean=lambda x, u: y1_arr[cell_index(x), u],
        noise_sd=noise_sd,
        cells=cells,
    )


@st.composite
def cell_designs(draw):
    """Dummy-coded designs with or without a constant, or the curved design,
    with or without outcome noise, and a sample size, seed and replicate."""
    if draw(st.booleans()):
        cells = curved_spec().cells
    else:
        levels = draw(st.integers(1, 4))
        constant = draw(st.booleans())
        weights = np.array([draw(st.integers(1, 20)) for _ in range(levels)], dtype=float)
        unit = st.floats(0.02, 0.98)
        mean = st.tuples(*[st.floats(-5.0, 5.0)] * 3)
        cells = []
        for j, prob in enumerate(weights / weights.sum()):
            dummies = [float(j == level) for level in range(1 if constant else 0, levels)]
            p_always = draw(st.floats(0.0, 0.5))
            cells.append(DgpCell(
                x=tuple(([1.0] if constant else []) + dummies), prob=float(prob), e=draw(unit),
                p_always=p_always, p_complier=draw(st.floats(0.0, 1.0 - p_always)),
                y0_mean=draw(mean), y1_mean=draw(mean),
            ))
    noise_sd = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.01, 3.0))
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    replicate = draw(st.integers(0, 50))
    return tuple(cells), noise_sd, n, seed, replicate


@settings(PROPERTY, max_examples=200)
@given(cell_designs())
@example((dgp_a().cells, 0.0, 10_000, 20250802, 0))
@example((curved_spec().cells, 0.5, 500, 7, 3))
def test_cell_index_laws_match_the_covariate_row_lookup(design):
    cells, noise_sd, n, seed, replicate = design
    data, latent = generate(from_cells("new", cells, noise_sd), n, seed, replicate)
    ref_data, ref_latent = generate(ref_from_cells("ref", cells, noise_sd), n, seed, replicate)
    for got, ref, fields in ((data, ref_data, ("y", "d", "z", "x")), (latent, ref_latent, ("u", "y0", "y1", "tau", "e"))):
        for name in fields:
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert data.has_constant == ref_data.has_constant


# ---------------------------------------------------------------------------
# Oracle regression limits: population moment blocks
# ---------------------------------------------------------------------------


@st.composite
def oracle_designs(draw):
    """Finite-support designs that dummy-code 2 to 5 levels, with or without
    a constant, or that place 3 to 5 points on the basis (1, j)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(2, 5))
    basis = draw(st.sampled_from(["dummies", "dummies and constant", "(1, j)"]))
    if basis == "(1, j)":
        xs = [(1.0, float(j)) for j in range(levels + 1)]
    else:
        xs = [tuple(float(j == i) for i in range(levels)) for j in range(levels)]
        if basis == "dummies and constant":
            xs = [(1.0, *x[1:]) for x in xs]
    probs = rng.uniform(0.05, 1.0, len(xs))
    cells = []
    for x, prob in zip(xs, probs / probs.sum()):
        p_always = rng.uniform(0.0, 0.4)
        cells.append(DgpCell(
            x=x, prob=float(prob), e=rng.uniform(0.05, 0.95), p_always=p_always,
            p_complier=rng.uniform(0.05, 1.0 - p_always),
            y0_mean=tuple(rng.uniform(-3.0, 3.0, 3)), y1_mean=tuple(rng.uniform(-3.0, 3.0, 3)),
        ))
    return from_cells(basis, cells)


@settings(PROPERTY, max_examples=300)
@given(oracle_designs())
@example(dgp_a())
@example(curved_spec())
@example(categorical_spec())
def test_oracle_limits_match_the_population_moment_blocks(spec):
    oracle, ref = oracle_estimands(spec), ref_oracle_estimands(spec)
    assert np.abs(oracle.beta_c - ref["beta_c"]).max() <= 1e-10
    assert np.abs(oracle.plim_beta_2sls - ref["plim_beta_2sls"]).max() <= 1e-10
    assert oracle.plim_taa_projection == pytest.approx(ref["plim_taa_projection"], abs=1e-10)
    assert oracle.plim_tia_projection == pytest.approx(ref["plim_tia_projection"], abs=1e-10)
    if ref["plim_xx_first_stage"] is None:
        assert oracle.plim_xx_first_stage is None
    else:
        assert oracle.plim_xx_first_stage == pytest.approx(ref["plim_xx_first_stage"], abs=1e-10)


@settings(PROPERTY, max_examples=100)
@given(oracle_designs())
@example(curved_spec())
def test_interacted_limit_is_the_complier_projection_plus_the_bias_terms(spec):
    """plim beta = beta_c + G^-1 (b1 + b2), with the bias terms and the design
    Gram G from the moment blocks and the limit from the oracle's own fit."""
    oracle, ref = oracle_estimands(spec), ref_oracle_estimands(spec)
    correction = linalg.least_squares(ref["b1"] + ref["b2"], ref["design_gram"]).coef[:, 0]
    assert np.abs(oracle.plim_beta_2sls - (ref["beta_c"] + correction)).max() <= 1e-10

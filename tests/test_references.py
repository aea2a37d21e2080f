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
random small files.
"""

import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ivlate import linalg
from ivlate.cli import ingest_csv
from ivlate.complier import PC_FLOOR, centered_interacted_2sls, complier_mean, fit_propensity
from ivlate.errors import (
    IdentificationError,
    NoCompliersError,
    RankDeficientError,
    SchemaError,
    UnpartitionableError,
)
from ivlate.estimators import Dataset, interacted_2sls
from ivlate.stratify import partition_by_propensity, stratified_late

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
        mu = means.mu
    elif centering == "first-stage":
        zx = data.z[:, None] * data.x
        fit = linalg.least_squares(data.d, np.column_stack([zx, data.x]))
        share = data.x @ fit.coef[: data.k, 0]
        total = share.sum()
        if total <= 0.0:
            raise NoCompliersError("first-stage complier share sums to a non-positive value")
        mu = (share @ data.x[:, 1:]) / total if data.k > 1 else np.empty(0)
    else:
        raise ValueError(f"unknown centering {centering!r}")
    x0 = data.x.copy()
    if data.k > 1:
        x0[:, 1:] -= mu
    return float(interacted_2sls(replace(data, x=x0)).beta[0])


def ref_partition(ehat, k, z=None, d=None):
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
        if z is not None:
            zs = z[mask]
            if zs.min() == zs.max():
                return False
            if d is not None:
                d_diff = d[mask & (z == 1.0)].mean() - d[mask & (z == 0.0)].mean()
                if d_diff == 0.0:
                    return False
        return True

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
    which = draw(st.sampled_from(["none", "z", "zd"]))
    return ehat, k, (z if which != "none" else None), (d if which == "zd" else None)


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
        assert_close(est.value, ref)


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

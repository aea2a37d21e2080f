"""Closed-form estimators against the refit implementations they replace.

The centered interacted 2SLS, the stratified LATE, and the stratum merge
are computed from identities: equivariance of the interacted fit, the
collapse of 2SLS on saturated stratum dummies to stratum Wald ratios,
and per-bin counts. The slow implementations those identities replace
are kept here as references: a column-shifted refit, a dummy design with
a saturated propensity and a centered fit, and a merge loop that masks
all units at every check. Random small samples must give the same
numbers (to 1e-9 relative), partitions, and error classes. CSV ingestion
parses a plain-number body with one np.loadtxt pass, other files with
csv.reader and Python floats; the per-row numpy loop it replaces must
give identical arrays or the same error on random small files, whatever
their line ends. The two-stage estimators and the logistic IRLS fit
on the triangular factor of one column-stacked block; the two n-row
fits per estimator and the n-row weighted IRLS step they replace must
give the same coefficients (to 1e-9 relative) and the same error
classes, rank deficiency included. Later IRLS steps solve on the
whitened k-by-k Gram; the n-row factor per step they replace must give
the same convergence flag, errors and messages, scores to 1e-12 and
coefficients to 1e-9, also on a quasi-separated design whose steps fall
back to n rows. Partition cutpoints read off one sort must equal
np.quantile, and their bins np.searchsorted, bit for bit, as must the
order statistics of any sorted table, NaN columns included. Finite-support
designs evaluate their laws on the drawn cell index; the laws that
recover each unit's cell from its covariate row, which they replace,
must generate identical samples and latent truths. The oracle's
regression limits are the estimators' two stages on the factor of a
design's weighted atoms; the population moment blocks they replace must
give the same limits to 1e-10 on the bundled, curved and categorical
designs and on random finite-support designs, and their bias terms must
carry the complier projection to the oracle's interacted limit; on the
same atoms at the true propensity, Abadie's kappa weighting must give the
complier projection (to 1e-10). Scaling one covariate must leave ++, x+,
xx and strat-K as they are and rescale its beta coefficient (to 1e-9).
"""

import csv
import operator
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import scipy.linalg
from _helpers import (categorical_spec, curved_spec, fwl_design, irls_alone, quantile_bins, ref_oracle_estimands,
                      residualize, warm_fit)
from scipy.special import expit

from ivlate import cli, complier, estimators, inference, linalg, montecarlo, stratify
from ivlate.cli import ingest_csv
from ivlate.complier import (
    PC_FLOOR,
    PropensityFit,
    abadie_beta,
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
from ivlate.montecarlo import (
    DgpCell,
    DgpSpec,
    dgp_a,
    dgp_b,
    evaluate_tags,
    from_cells,
    generate,
    oracle_estimands,
)
from ivlate.stratify import StratifiedResult, StratumPartition, partition_by_propensity, stratified_late

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


# Cell tokens by kind; "1_0" parses as 10 and padded cells parse. Plain numbers
# (only "0-9.eE+-") take the loadtxt route, overflow and underflow included.
ODD_NUMBERS = ("-0", "0.0", "1.0", " 1 ", "1 ", " 0", "2", "-1.5", "0.25", "1e3", "1_0", "0_1")
PLAIN_NUMBERS = ("1e400", "-1e400", "1e-400", "4.9e-324", "-0", ".5", "5.", "+1", "+0", "1e0",
                 "0.30000000000000004", "-2.2250738858072014e-308", "1.7976931348623157e+308")
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
    ("y", "d", "z", "x1", ""),
)


@st.composite
def csv_files(draw):
    header = draw(st.sampled_from(VALID_HEADERS if draw(st.integers(0, 5)) else BAD_HEADERS))
    if draw(st.integers(0, 7)) == 0:
        header = [f'"{name}"' for name in header]
    width = len(header)
    # Mostly 0/1 cells, so files reach the later checks; half the files have only plain cells.
    kinds = (PLAIN_NUMBERS,) + (("0", "1"),) * 4
    if draw(st.booleans()):
        kinds += (NON_NUMERIC, NON_FINITE, ODD_NUMBERS) + (("0", "1"),) * 4
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        fields = width + draw(st.sampled_from((0,) * 12 + (-1, 1)))
        rows.append([
            repr(draw(st.floats(allow_nan=False, allow_infinity=False))) if draw(st.integers(0, 9)) == 0
            else draw(st.sampled_from(draw(st.sampled_from(kinds))))
            for _ in range(fields)
        ])
    # Mostly LF line ends, so most files are plain; the last line may lack its end or be blank.
    eol = draw(st.sampled_from(("\n",) * 4 + ("\r\n", "\r")))
    end = draw(st.sampled_from((eol,) * 4 + ("", eol * 2)))
    text = eol.join([",".join(header), *(",".join(row) for row in rows)]) + end
    return "\ufeff" * draw(st.booleans()) + text, draw(st.booleans())


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
@example(("y,d,z,x1\n0.30000000000000004,1,0,-2.2250738858072014e-308\n1e-400,0,1,4.9e-324\n", True))
@example(("x1,z,y,d\n-0,1,.5,1\n5.,+1,-0,0\n", False))
@example(("y,d,z,x1\n1,0,1,0\n1e400,0,1,0\n", True))
@example(("y,d,z,x1\n1,0,1,0\n1,0,1,-1e400\n", True))
@example(("y,d,z,x1\n1,0,1,0\n1,1e400,1,0\n", True))
@example(("y,d,z,x1\r\n1,0,1,-0\r\n0.5,1,0,2\r\n", True))
@example(("y,d,z,x1\r1,0,1,-0\r0.5,1,0,2\r", True))
@example(("y,d,z,x1\n1,0,1,-0\r0.5,1,0,2\n", True))
@example(("y,d,z,x1\n1,0,1,0\n0.5,1,0,2\n\n", True))
@example(("y,d,z,x1\n\n1,0,1,0\n", True))
@example(("y,d,z,x1\n1,0,1,0\n0.5,1,0,-0", True))
@example(("\ufeffy,d,z,x1\n1,0,1,0\n0.5,1,0,-0\n", True))
@example(("\ufeff\ufeffy,d,z,x1\n1,0,1,0\n", True))
@example(('"y","d",z,x1\n1,0,1,0\n0.5,1,0,-0\n', True))
@example(('y,d,z,"x1\n1,0,1,0\n', True))
@example(('"y","d","z","x1"\r\n1,0,1,0\r\n0.5,1,0,-0\r\n', True))
@example(('"y","d","z","x1\r\n"\n1,0,1,0\n', True))
@example(('y,d,z,x"1"\n1,0,1,0\n', True))
@example(('"y,d",z,x1\n1,0,1\n', True))
@example(("y,d,z,x1\n1,0,1,0,\n", True))
@example(("y,d,z,x1,\n1,0,1,0,\n", True))
@example(("y,d,z,x1\n1,0,1,0\n", False))
@example(("y,d,z,x1\n", True))
@example(("y,d,z,x1\n\n", True))
@example(("\n1,0,1,0\n", True))
def test_ingest_matches_row_by_row_reference(tmp_path_factory, csv_file):
    text, add_constant = csv_file
    path = tmp_path_factory.mktemp("ingest") / "data.csv"
    path.write_bytes(text.encode("utf-8"))

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


def test_plain_file_is_parsed_without_a_csv_reader_over_its_body(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    cells = rng.standard_normal((2000, 3)).tolist()
    rows = [f"{y!r},{i % 2},{i // 2 % 2},{-x1!r},{x2!r}" for i, (y, x1, x2) in enumerate(cells)]
    paths = tmp_path / "lf.csv", tmp_path / "crlf.csv", tmp_path / "quoted.csv"
    headers = "y,d,z,x1,x2", "y,d,z,x1,x2", '"y","d","z","x1","x2"'
    for path, eol, header in zip(paths, ("\n", "\r\n", "\n"), headers):
        path.write_bytes(eol.join([header, *rows, ""]).encode("utf-8"))
    expected = ref_ingest_csv(paths[0])
    sources = []
    reader = csv.reader
    monkeypatch.setattr(cli.csv, "reader", lambda source: sources.append(source) or reader(source))
    for path in paths:
        got = ingest_csv(path)
        for name in ("y", "d", "z", "x"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.flags.c_contiguous and a.shape == b.shape and a.tobytes() == b.tobytes()
    # The one reader per file is over the header line alone, quoted or not.
    assert sources == [[header + "\n"] for header in headers]


@pytest.mark.parametrize(
    "bad",
    [{1500: (0, "1e400"), 1800: (2, "2")}, {1500: (2, "2"), 1800: (3, "1e400")},
     {1500: (3, "1e"), 1800: (1, "2")}, {1500: (None, ""), 1800: (0, "1e400")}],
    ids=["non-finite", "non-binary", "non-numeric", "short-row"],
)
def test_padded_and_quoted_twins_parse_as_the_plain_file(tmp_path, bad):
    """Padded or quoted cells take the csv route, whose one float pass gives the plain route's
    arrays bit for bit, and whose row walk on a failed check the plain route's message."""
    rng = np.random.default_rng(8)
    rows = [[repr(y), str(i % 2), str(i // 2 % 2), repr(x1)]
            for i, (y, x1) in enumerate(rng.standard_normal((2000, 2)).tolist())]
    twins = {"plain": ",{}", "padded": ", {}", "quoted": ',"{}"'}

    def write(name, rows):
        lines = ["y,d,z,x1", *(row[0] + "".join(twins[name].format(c) for c in row[1:]) for row in rows)]
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    expected = ingest_csv(write("plain", rows))
    for name in ("padded", "quoted"):
        got = ingest_csv(write(name, rows))
        for column in ("y", "d", "z", "x"):
            a, b = getattr(got, column), getattr(expected, column)
            assert a.flags.c_contiguous and a.shape == b.shape and a.tobytes() == b.tobytes()
    for i, (j, cell) in bad.items():
        rows[i] = rows[i][:-1] if j is None else [*rows[i][:j], cell, *rows[i][j + 1 :]]
    with pytest.raises(ValueError) as plain:
        ingest_csv(write("plain", rows))
    assert str(plain.value).startswith("row 1501: ")
    # Only a binary column's message echoes its cell, padding included.
    for name, message in (("padded", str(plain.value).replace("got '2'", "got ' 2'")), ("quoted", str(plain.value))):
        with pytest.raises(ValueError) as twin:
            ingest_csv(write(name, rows))
        assert str(twin.value) == message


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
# The least-squares kernel: unpivoted QR through numpy.linalg against
# scipy.linalg's pivoted QR
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


def exact_least_squares(responses, regressors):
    """The solution of the normal equations X'X b = X'Y in exact rational arithmetic, rounded."""
    q = regressors.shape[1]
    columns = [[Fraction(v) for v in column] for column in regressors.T.tolist()]
    targets = [[Fraction(v) for v in column] for column in responses.T.tolist()]
    rows = [[sum(map(operator.mul, xj, v)) for v in columns + targets] for xj in columns]
    for c in range(q):  # Gauss-Jordan elimination
        pivot = next(r for r in range(c, q) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(q):
            if r != c:
                rows[r] = [u - rows[r][c] * v for u, v in zip(rows[r], rows[c])]
    return np.array([[float(v) for v in row[q:]] for row in rows])


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


def rank_count(message):
    """The "effective rank r < q" of a rank-deficiency message; any other message whole."""
    found = re.search(r"effective rank \d+ < \d+", message)
    return message if found is None else found.group(0)


@settings(PROPERTY, max_examples=400)
@given(ls_problems())
def test_least_squares_kernel_matches_scipy_qr_route(problem):
    """The kernel's rank check reads the diagonal of unpivoted R, so its ratio differs from
    the pivoted route's; the outcome, the error class and the rank an error reports agree,
    and each route's fit is within the least-squares error bound of the exact solution."""
    y, x = problem
    ref, got = exact_outcome(ref_least_squares, y, x), exact_outcome(linalg.least_squares, y, x)
    assert got[0] == ref[0]
    if ref[0] == "error":
        assert got[1] is ref[1] and rank_count(got[2]) == rank_count(ref[2])
        return
    got, ref = got[1], ref[1]
    q = x.shape[1]
    diag = np.abs(np.diag(np.linalg.qr(np.column_stack([x, y]), mode="r")[:q, :q]))
    assert got.condition_estimate == diag.max() / diag.min()
    # Householder QR, pivoted or not, solves with a column-wise backward error of about
    # eps = 2 (n + q) u. By the perturbation bound for least squares (Higham, Accuracy and
    # Stability of Numerical Algorithms, Thm 20.1), the error of a response's coefficients
    # b against the exact b* is then |D (b - b*)| <= eps k (2 |D b*| + (k + 1) |r*| / |A|)
    # / (1 - eps k), with D the columns' max-abs, A = X / D, k the condition number of A and
    # r* = Y - X b*. The error is column-wise, so the bound holds whatever the columns' scales.
    scale = np.abs(x).max(axis=0)
    design = x / scale
    kappa = np.linalg.cond(design)
    eps = (x.shape[0] + q) * np.finfo(float).eps  # 2 (n + q) u
    exact = exact_least_squares(y, x)
    residual = np.linalg.norm(y - x @ exact, axis=0) / np.linalg.norm(design, 2)
    bound = eps * kappa * (2 * np.linalg.norm(exact * scale[:, None], axis=0) + (kappa + 1) * residual)
    for fit in (got, ref):
        error = np.linalg.norm((fit.coef - exact) * scale[:, None], axis=0)
        assert eps * kappa >= 0.5 or (error <= bound / (1 - eps * kappa)).all()
    # Fitted values and residuals do not carry the condition number: the routes agree on the
    # scale of the responses.
    bound = 1e-12 * max(1.0, float(np.abs(y).max()))
    fitted, ref_fitted = x @ got.coef, x @ ref.coef
    assert np.abs(fitted - ref_fitted).max() <= bound
    assert np.abs((y - fitted) - (y - ref_fitted)).max() <= bound


# ---------------------------------------------------------------------------
# Strata from one bincount against per-mask tallies
# ---------------------------------------------------------------------------


def ref_partition_by_propensity(ehat, k, z, d, counts=None):
    """Four masked bincounts per bin and a numpy slice-sum per validity check; unweighted only."""
    assert counts is None
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


def ref_tally_stratified_late(data, prop, k):
    """``stratified_late`` on the masked-tally partition and arm moments."""
    partition = ref_partition_by_propensity(prop.ehat, k, z=data.z, d=data.d, counts=data.weights)
    _, d_diff, y_diff = ref_arm_moments(data, partition.labels - 1, partition.k)
    complier_mass = partition.counts @ d_diff
    require_compliers(complier_mass / data.size)
    return StratifiedResult(float(partition.counts @ y_diff / complier_mass), y_diff / d_diff, partition)


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

    ref = exact_outcome(ref_tally_stratified_late, data, prop, k)
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


@settings(PROPERTY, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(200, 1000), st.integers(1, 2), st.integers(-200, 200))
@example(0, 1000, 1, 10)
def test_estimators_are_equivariant_to_the_scale_of_a_covariate(seed, n, column, exponent):
    """Scaling covariate ``column`` by 10^exponent leaves ++, x+, xx and strat-5 as they are
    and divides its beta coefficient by the scale: the rank rule judges each column against
    its own norm, computed without overflow, so no scale reads as rank deficiency (at the
    example, x1 times 1e10 once gave "effective rank 3 < 6")."""
    data, _ = generate(dgp_b(), n, seed)
    scale = 10.0**exponent
    x = data.x.copy()
    x[:, column] *= scale
    tags = ["++", "x+", "xx", "strat-5", "beta"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        before = evaluate_tags(data, tags)
        after = evaluate_tags(replace(data, x=x), tags)
    if isinstance(after["beta"], np.ndarray):
        after["beta"][column] *= scale
    for tag in tags:
        assert type(after[tag]) is type(before[tag]), tag
        if isinstance(before[tag], np.ndarray):
            assert np.abs(after[tag] - before[tag]).max() <= 1e-9 * np.abs(before[tag]).max(), tag


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


def row_whitening(z, x):
    """The whitening of ``complier._whitenings`` taken from the rows: T is R of X / 2 from the
    factor of [X / 2 | working / 2], the first step of ``ref_irls_logistic``, which its
    ``least_squares`` fit checks, raising that step's error."""
    mu = complier.expit(np.zeros(len(z)))  # eta = 0 at the start from zero
    w = mu * (1.0 - mu)
    sw, working = np.sqrt(w), (z - mu) / w
    rmat = linalg.triangular_factor(sw[:, None] * x, sw * working)
    linalg.least_squares(rmat[:, -1], rmat[:, :-1])
    tmat = rmat[: x.shape[1], :-1]
    inverse = np.linalg.inv(tmat)
    return inverse.T @ x.T, tmat, inverse


def assert_same_irls(z, x):
    ref = exact_outcome(ref_irls_logistic, z, x)
    got = exact_outcome(lambda: irls_alone(z, x, row_whitening(z, x)))
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
    original = complier._whitened_step

    def counted(*args):
        system = original(*args)
        fell_back.append(len(system[1]) > 0)  # the samples whose step could not be whitened
        return system

    with warnings.catch_warnings(), mock.patch.object(complier, "_whitened_step", counted):
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
        kind, fit = outcome(lambda: irls_alone(z, x, row_whitening(z, x)))
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
        warm = exact_outcome(warm_fit, data, start)
    assert warm[0] == cold[0]
    if cold[0] == "error":
        assert warm == cold
        return
    assert warm[1].converged == cold[1].converged
    assert warm[1].n_clipped == cold[1].n_clipped
    assert np.abs(warm[1].ehat - cold[1].ehat).max() <= WARM_SCORE_ATOL


def test_warm_start_whose_first_step_fails_reruns_from_zero():
    """The start puts eta = 40 x1 - 30 at its clip where x1 > 1.5, so those units weigh
    about 1e-13 at the first step, while units near x1 = 3/4 weigh about 1/4. The column
    that differs from x1 only where x1 > 1.5 then lies within the rank tolerance of the
    span of the others, relative to its own norm (about 1e-11). From zero every unit
    weighs 1/4 and the fit succeeds."""
    rng = np.random.default_rng(3)
    n = 300
    x1 = rng.standard_normal(n)
    x = np.column_stack([np.ones(n), x1, x1 + 1e-5 * (x1 > 1.5) * rng.standard_normal(n)])
    z = (rng.random(n) < expit(0.5 * x1)).astype(float)
    start = np.array([-30.0, 40.0, 0.0])
    verdicts, original = [], complier._reruns  # (error, rerun) of each fit from a start

    def judged(x, beta, converged, error):
        verdicts.append((error, original(x, beta, converged, error)))
        return verdicts[-1][1]

    with mock.patch.object(complier, "_reruns", judged):
        irls_alone(z, x, row_whitening(z, x), start)
    assert len(verdicts) == 1 and isinstance(verdicts[0][0], RankDeficientError) and verdicts[0][1]
    data = logistic_data(z, x)
    cold = fit_propensity(data, "logistic")
    warm = warm_fit(data, start)
    assert cold.converged and warm.converged
    assert np.array_equal(warm.ehat, cold.ehat) and np.array_equal(warm.coefficients, cold.coefficients)


def mixed_start_sample(rng, kind: str, n: int):
    """(z, x, start) of one logistic sample of three columns: from zero, from near its cold
    fit, from the start that fails the first step above (it reruns from zero), or with arms
    split by x1 (separated: its fit reaches the eta clip), from zero or from a random start."""
    x1 = rng.standard_normal(n)
    last = x1 + 1e-5 * (x1 > 1.5) * rng.standard_normal(n) if kind == "rerun" else rng.standard_normal(n)
    x = np.column_stack([np.ones(n), x1, last])
    z = (x1 > 0.0 if kind == "separated" else rng.random(n) < expit(0.5 * x1)).astype(float)
    if kind == "warm":
        start = irls_alone(z, x, row_whitening(z, x))[1] * (1.0 + 1e-3 * rng.standard_normal(3))
    elif kind == "rerun":
        start = np.array([-30.0, 40.0, 0.0])
    else:
        start = rng.standard_normal(3) if kind == "separated" and rng.random() < 0.5 else None
    return z, x, start


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(["zero", "warm", "rerun", "separated"]),
                                            min_size=1, max_size=5), st.booleans())
def test_a_stacked_irls_gives_each_sample_its_batch_of_one(seed, kinds, counted):
    """Samples with mixed starts, stacked (with counts or without), get the bits, convergence
    and errors that each gets alone, reruns from zero included."""
    rng = np.random.default_rng(seed)
    n = 300
    samples = [mixed_start_sample(rng, kind, n) for kind in kinds]
    z, x = (np.stack(parts) for parts in zip(*[sample[:2] for sample in samples]))
    starts = [sample[2] for sample in samples]
    whiten = [row_whitening(*sample[:2]) for sample in samples]
    counts = rng.integers(1, 4, z.shape).astype(float) if counted else None
    verdicts, original = [], complier._reruns

    def judged(*args):
        verdicts.append(original(*args))
        return verdicts[-1]

    with warnings.catch_warnings(), mock.patch.object(complier, "_reruns", judged):
        warnings.simplefilter("ignore", RuntimeWarning)
        together = complier._irls_batch(z, x, tuple(np.stack(parts) for parts in zip(*whiten)), starts, counts)
        alone = [complier._irls_batch(z[[i]], x[[i]], tuple(a[None] for a in whiten[i]), [starts[i]],
                                      None if counts is None else counts[[i]]) for i in range(len(kinds))]
    assert ("rerun" not in kinds or any(verdicts)) and len(verdicts) == 2 * sum(s is not None for s in starts)
    for i, (mu, beta, converged, errors) in enumerate(alone):
        assert together[0][i].tobytes() == mu[0].tobytes() and together[1][i].tobytes() == beta[0].tobytes()
        assert together[2][i] == converged[0]
        assert repr(together[3][i]) == repr(errors[0])


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
    cuts, bins = quantile_bins(e, k)
    expected = np.quantile(e, np.arange(1, k) / k)
    assert cuts.dtype == expected.dtype and cuts.tobytes() == expected.tobytes()
    assert np.array_equal(bins, np.searchsorted(expected, e, side="left"))


@st.composite
def replicate_tables(draw):
    """b from 2 replicates of 1 to 3 dimensions, with ties, constant columns or a NaN, and
    levels q spread over [0, 1] or at its ends. Ties hold no 0.0 beside -0.0: np.quantile's
    partition may leave either one where they tie, so they agree only as values."""
    b, dim = draw(st.integers(2, draw(st.sampled_from([3, 12, 400])))), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "ties", "constant", "nan"]))
    values = rng.standard_normal((b, dim))
    if kind == "ties":
        values = np.round(values, draw(st.integers(0, 1))) + 0.0  # -0.0 + 0.0 is 0.0
    elif kind == "constant":
        values[:, rng.integers(dim)] = draw(st.sampled_from([0.0, -0.0, 1.5, np.inf]))
    elif kind == "nan":
        values[rng.integers(b), rng.integers(dim)] = np.nan
    ends = (0.0, 5e-324, 1e-3, 0.025, 0.975, 1 - 1e-3, np.nextafter(1.0, 0.0), 1.0)
    q = draw(st.sampled_from([rng.random(), rng.random(3), *ends]))
    return values, q


@settings(PROPERTY, max_examples=400)
@given(replicate_tables())
@example((np.array([[0.0, np.nan], [1.0, 2.0]]), 0.5))
@example((np.array([[-0.0], [-0.0], [-0.0]]), 1.0))  # numpy's t is n here, so -0.0 reads 0.0
def test_quantile_from_one_sort_equals_np_quantile(table):
    values, q = table
    with np.errstate(invalid="ignore"):  # inf - inf in a constant infinite column
        got = inference._sorted_quantile(np.sort(values, axis=0), q)
        expected = np.quantile(values, q, axis=0)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


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
    return from_cells(basis, random_cells(rng, xs))


def random_cells(rng, xs):
    """Cells at the covariate rows ``xs`` with random probabilities, propensities in
    [0.05, 0.95], complier shares of at least 0.05 and outcome means in [-3, 3]."""
    probs = rng.uniform(0.05, 1.0, len(xs))
    cells = []
    for x, prob in zip(xs, probs / probs.sum()):
        p_always = rng.uniform(0.0, 0.4)
        cells.append(DgpCell(
            x=x, prob=float(prob), e=rng.uniform(0.05, 0.95), p_always=p_always,
            p_complier=rng.uniform(0.05, 1.0 - p_always),
            y0_mean=tuple(rng.uniform(-3.0, 3.0, 3)), y1_mean=tuple(rng.uniform(-3.0, 3.0, 3)),
        ))
    return cells


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


@st.composite
def planar_designs(draw):
    """Finite-support designs of 3 to 6 cells at random points of the covariates (1, x1, x2):
    three near the corners of a unit triangle, so that no design is nearly degenerate, and
    the rest standard normal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = draw(st.integers(3, 6))
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) + rng.uniform(-0.2, 0.2, (3, 2))
    points = np.concatenate([corners, rng.standard_normal((cells - 3, 2))])
    xs = [(1.0, *point) for point in points.tolist()]
    return from_cells("planar", random_cells(rng, xs))


@settings(PROPERTY, max_examples=200)
@given(planar_designs())
@example(dgp_a())
def test_abadie_weighting_gives_the_complier_projection_on_the_atoms(spec):
    """Abadie (2003): at the true propensity, the kappa-weighted projection of Y on X among
    compliers, with E[dkappa X Y] for the cross moments, is the complier projection of the
    effect. On the design's weighted atoms the identity holds exactly."""
    population, e = montecarlo._atoms(spec)
    beta_c = oracle_estimands(spec).beta_c
    got = abadie_beta(population, PropensityFit(e, None, True))
    assert np.abs(got - beta_c).max() <= 1e-10 * np.abs(beta_c).max()


@settings(PROPERTY, max_examples=100)
@given(oracle_designs())
@example(curved_spec())
def test_interacted_limit_is_the_complier_projection_plus_the_bias_terms(spec):
    """plim beta = beta_c + G^-1 (b1 + b2), with the bias terms and the design
    Gram G from the moment blocks and the limit from the oracle's own fit."""
    oracle, ref = oracle_estimands(spec), ref_oracle_estimands(spec)
    correction = linalg.least_squares(ref["b1"] + ref["b2"], ref["design_gram"]).coef[:, 0]
    assert np.abs(oracle.plim_beta_2sls - (ref["beta_c"] + correction)).max() <= 1e-10

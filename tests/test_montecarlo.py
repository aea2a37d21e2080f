import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from _helpers import categorical_spec, curved_spec, ref_oracle_estimands, row_budget
from hypothesis import given, settings
from hypothesis import strategies as st

from ivlate import streams
from ivlate.complier import PC_FLOOR, centered_interacted_2sls, expit, fit_propensity, kappa_weights
from ivlate.errors import InfiniteSupportError, InvalidSpecError, NoCompliersError, RankDeficientError
from ivlate.linalg import least_squares
from ivlate.montecarlo import (
    DgpCell,
    DgpSpec,
    U_ALWAYS,
    U_COMPLIER,
    U_NEVER,
    _generated,
    dgp_a,
    dgp_b,
    dgp_c,
    from_cells,
    generate,
    named_dgp,
    oracle_estimands,
    pipeline_for,
    regressogram_deviation,
    run_study,
    study_truth,
)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_design_a_compliance_shares_match_the_model():
    data, latent = generate(dgp_a(), 100_000, seed=80)
    x1 = data.x[:, 1]
    for value, p_c in ((0.0, 0.7), (1.0, 0.2)):
        mask = x1 == value
        share = (latent.u[mask] == U_COMPLIER).mean()
        se = np.sqrt(p_c * (1.0 - p_c) / mask.sum())
        assert abs(share - p_c) <= 4.0 * se
    share_a = (latent.u == U_ALWAYS).mean()
    assert abs(share_a - 0.1) <= 4.0 * np.sqrt(0.09 / data.n)


def test_design_c_effect_moment():
    _, latent = generate(dgp_c(), 100_000, seed=81)
    se = np.sqrt((1.0 / 5.0 - 1.0 / 9.0) / 100_000)
    assert abs(latent.tau.mean() - 1.0 / 3.0) <= 4.0 * se


def test_all_always_takers_are_always_treated():
    spec = from_cells(
        "always",
        (DgpCell(x=(1.0,), prob=1.0, e=0.5, p_always=1.0, p_complier=0.0),),
    )
    data, latent = generate(spec, 500, seed=82)
    assert np.all(data.d == 1.0)
    assert np.all(latent.u == U_ALWAYS)


def test_reconstruction_identities_hold_exactly():
    for spec in (dgp_a(), dgp_b(), dgp_c()):
        data, latent = generate(spec, 2_000, seed=83)
        assert np.array_equal(data.y, data.d * latent.y1 + (1.0 - data.d) * latent.y0)
        rebuilt = ((latent.u == U_ALWAYS) | ((latent.u == U_COMPLIER) & (data.z == 1.0))).astype(float)
        assert np.array_equal(data.d, rebuilt)


def test_generation_is_deterministic_and_replicates_differ():
    spec = dgp_b()
    a1, _ = generate(spec, 300, seed=84, replicate=2)
    a2, _ = generate(spec, 300, seed=84, replicate=2)
    b, _ = generate(spec, 300, seed=84, replicate=3)
    assert np.array_equal(a1.y, a2.y) and np.array_equal(a1.x, a2.x)
    assert not np.array_equal(a1.y, b.y)


def test_invalid_specs_are_rejected():
    with pytest.raises(InvalidSpecError):
        from_cells("bad", (DgpCell(x=(1.0,), prob=0.7, e=0.5, p_always=0.1, p_complier=0.5),))
    with pytest.raises(InvalidSpecError):
        from_cells("bad", (DgpCell(x=(1.0,), prob=1.0, e=1.0, p_always=0.1, p_complier=0.5),))
    with pytest.raises(InvalidSpecError):
        from_cells("bad", (DgpCell(x=(1.0,), prob=1.0, e=0.5, p_always=0.6, p_complier=0.5),))
    with pytest.raises(InvalidSpecError):
        generate(dgp_a(), 0, seed=1)


def test_type_shares_past_one_by_rounding_leave_no_never_takers():
    # p_always + p_complier may exceed one by up to 1e-12: the never-taker mass is 0, not negative.
    cells = (
        DgpCell(x=(1.0, 0.0), prob=0.5, e=0.5, p_always=0.3, p_complier=0.7 + 5e-13,
                y0_mean=(0.0, 1.0, 2.0), y1_mean=(0.5, 2.0, 2.5)),
        DgpCell(x=(1.0, 1.0), prob=0.5, e=0.4, p_always=0.2, p_complier=0.5,
                y0_mean=(0.0, 0.5, 1.0), y1_mean=(1.0, 1.5, 2.0)),
    )
    spec = from_cells("rounded", cells)
    oracle = oracle_estimands(spec)
    for name, value in vars(oracle).items():
        values = list(value.values()) if isinstance(value, dict) else value
        assert value is None or np.all(np.isfinite(values)), name
    data, latent = generate(spec, 400, seed=0)
    assert not np.any((data.x[:, 1] == 0.0) & (latent.u == U_NEVER))


def test_ragged_cells_name_the_covariate_dimension():
    cells = (
        DgpCell(x=(1.0, 0.0), prob=0.5, e=0.5, p_always=0.1, p_complier=0.5),
        DgpCell(x=(1.0,), prob=0.5, e=0.5, p_always=0.1, p_complier=0.5),
    )
    with pytest.raises(InvalidSpecError, match="all cells must share the covariate dimension"):
        from_cells("ragged", cells)


def test_duplicate_covariate_rows_are_rejected_by_sampler_and_oracle():
    # Two cells at one covariate row would give one law to both: reject them.
    cells = (
        DgpCell(x=(1.0, 0.0), prob=0.5, e=0.5, p_always=0.1, p_complier=0.5),
        DgpCell(x=(1.0, 0.0), prob=0.5, e=0.9, p_always=0.1, p_complier=0.5),
    )
    with pytest.raises(InvalidSpecError, match="distinct covariate rows"):
        from_cells("dup", cells)
    with pytest.raises(InvalidSpecError, match="distinct covariate rows"):
        oracle_estimands(replace(dgp_a(), cells=cells))


def test_outcome_means_need_three_entries_per_cell():
    # Outcome means are indexed by compliance type (never, complier, always).
    short = DgpCell(x=(1.0,), prob=1.0, e=0.5, p_always=0.1, p_complier=0.5, y0_mean=(0.0, 1.0))
    with pytest.raises(InvalidSpecError, match="three entries per cell"):
        from_cells("short", (short,))
    ragged = (
        DgpCell(x=(1.0, 0.0), prob=0.5, e=0.5, p_always=0.1, p_complier=0.5, y1_mean=(1.0, 2.0, 3.0)),
        DgpCell(x=(1.0, 1.0), prob=0.5, e=0.5, p_always=0.1, p_complier=0.5, y1_mean=(1.0, 2.0, 3.0, 4.0)),
    )
    with pytest.raises(InvalidSpecError, match="three entries per cell"):
        from_cells("ragged", ragged)


@pytest.mark.parametrize("noise_sd", [-1.0, float("nan"), float("inf")])
def test_noise_sd_must_be_finite_and_nonnegative(noise_sd):
    with pytest.raises(InvalidSpecError, match="noise_sd"):
        from_cells("noisy", dgp_a().cells, noise_sd=noise_sd)


@pytest.mark.parametrize("field", ["prob", "e", "p_always", "p_complier"])
def test_nan_cell_probabilities_are_rejected(field):
    cell = DgpCell(x=(1.0,), prob=1.0, e=0.5, p_always=0.1, p_complier=0.5)
    with pytest.raises(InvalidSpecError):
        from_cells("nan", (replace(cell, **{field: float("nan")}),))


def test_generate_rejects_nan_laws_of_a_user_design():
    def draw(rng, n):
        x = np.ones((n, 1))
        return x, x

    ok = DgpSpec(
        name="user", k=1, draw_covariates=draw,
        propensity=lambda x: np.full(x.shape[0], 0.5),
        p_always=lambda x: np.full(x.shape[0], 0.1),
        p_complier=lambda x: np.full(x.shape[0], 0.5),
        y0_mean=lambda x, u: np.zeros(x.shape[0]),
        y1_mean=lambda x, u: np.ones(x.shape[0]),
    )
    generate(ok, 10, seed=1)
    nan = lambda x: np.full(x.shape[0], np.nan)  # noqa: E731
    for law in ("propensity", "p_always", "p_complier"):
        with pytest.raises(InvalidSpecError):
            generate(replace(ok, **{law: nan}), 10, seed=1)


@pytest.mark.parametrize("n", [50, 2])
def test_generate_names_a_sampler_that_returns_only_the_matrix(n):
    # At n = 2 the (2, k) matrix would unpack into two rows.
    def matrix_only(rng, n):
        return np.column_stack([np.ones(n), rng.standard_normal((n, 2))])

    with pytest.raises(InvalidSpecError, match="draw_covariates must return an"):
        generate(replace(dgp_b(), draw_covariates=matrix_only), n, seed=1)


def test_cell_sampler_returns_the_drawn_cell_index_as_units():
    spec = categorical_spec()
    x, units = spec.draw_covariates(np.random.default_rng(5), 500)
    xs = np.array([c.x for c in spec.cells])
    assert units.shape == (500,) and set(np.unique(units)) <= {0, 1, 2}
    assert np.array_equal(x, xs[units])
    data, latent = generate(spec, 500, seed=5)
    assert np.array_equal(latent.e, np.array([c.e for c in spec.cells])[data.x.argmax(axis=1)])


def ref_generate(spec, n, seed, replicate):
    """Reference: one replicate drawn and computed alone, each law called on its units only."""
    def stream(purpose):
        return streams.substream(seed, replicate, purpose)

    x, units = spec.draw_covariates(stream(streams.COVARIATES), n)
    x = np.ascontiguousarray(x, dtype=float)
    e, pa, pc = (np.asarray(law(units), dtype=float) for law in (spec.propensity, spec.p_always, spec.p_complier))
    z = (stream(streams.INSTRUMENT).random(n) < e).astype(float)
    r = stream(streams.COMPLIANCE).random(n)
    u = np.where(r < pa, U_ALWAYS, np.where(r < pa + pc, U_COMPLIER, U_NEVER)).astype(np.int8)
    d = ((u == U_ALWAYS) | ((u == U_COMPLIER) & (z == 1.0))).astype(float)
    y0, y1 = (np.asarray(law(units, u), dtype=float) for law in (spec.y0_mean, spec.y1_mean))
    if spec.noise_sd > 0.0:
        eps = stream(streams.NOISE).standard_normal((n, 2))
        y0, y1 = y0 + spec.noise_sd * eps[:, 0], y1 + spec.noise_sd * eps[:, 1]
    return (d * y1 + (1.0 - d) * y0, d, z, x, np.all(x[:, 0] == 1.0)), (u, y0, y1, y1 - y0, e)


def units_are_x():
    """A user design whose units are its covariate rows, with curved laws and outcome noise."""
    def draw(rng, n):
        x = np.column_stack([np.ones(n), rng.random(n), rng.standard_normal(n)])
        return x, x

    return DgpSpec(
        name="units are x", k=3, draw_covariates=draw,
        propensity=lambda x: expit(2.0 * x[:, 1] - x[:, 2]) * 0.9 + 0.05,
        p_always=lambda x: 0.2 / (1.0 + x[:, 2] ** 2),
        p_complier=lambda x: 0.3 + 0.4 * x[:, 1],
        y0_mean=lambda x, u: np.sin(x[:, 2]) + u,
        y1_mean=lambda x, u: np.exp(x[:, 1]) * x[:, 2] - u,
        noise_sd=0.3,
    )


GENERATED = {
    "A": dgp_a,
    "B": dgp_b,
    "C": dgp_c,
    "noisy cells": lambda: from_cells("noisy", categorical_spec().cells, noise_sd=0.5),
    "units are x": units_are_x,
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(GENERATED)), st.integers(1, 80), st.integers(0, 2**16), st.integers(0, 1000),
       st.integers(1, 7))
def test_replicates_generated_together_are_each_generated_alone(design, n, seed, start, count):
    """The stacked kernel gives each replicate, bit for bit, the sample and latent truth that
    ``generate`` and a reference that draws it alone give it."""
    spec = GENERATED[design]()
    replicates = range(start, start + count)
    y, d, z, x, constant, u, y0, y1, e = _generated(spec, n, seed, replicates)
    for i, r in enumerate(replicates):
        data, latent = generate(spec, n, seed, replicate=r)
        assert data.x.flags.c_contiguous and isinstance(data.has_constant, bool)
        together = ((y[i], d[i], z[i], x[i], constant[i]), (u[i], y0[i], y1[i], y1[i] - y0[i], e[i]))
        alone = ((data.y, data.d, data.z, data.x, data.has_constant),
                 (latent.u, latent.y0, latent.y1, latent.tau, latent.e))
        for got in (together, alone):
            for value, expected in zip(sum(got, ()), sum(ref_generate(spec, n, seed, r), ())):
                value, expected = np.asarray(value), np.asarray(expected)
                assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes()


def test_a_study_calls_each_law_once_per_batch():
    calls = []

    def counted(name, law):
        def call(*args):
            calls.append((name, len(args[0])))
            return law(*args)
        return call

    laws = ("propensity", "p_always", "p_complier", "y0_mean", "y1_mean")
    spec = dgp_b()
    spec = replace(spec, **{name: counted(name, getattr(spec, name)) for name in laws})
    with row_budget(450):  # four replicates of 100 rows a batch: 4, 4 and 2
        run_study(spec, ["++"], reps=10, n=100, seed=0)
    assert calls == [(name, rows) for rows in (400, 400, 200) for name in laws]


def test_a_study_tag_without_a_registered_truth_is_named_before_any_draw(monkeypatch):
    drawn = []
    monkeypatch.setattr(streams, "substream", lambda *path: drawn.append(path))
    with pytest.raises(ValueError, match=r"^estimator tag 'strata-5' has no registered truth: "
                                         r"a study reports bias against one$"):
        run_study(named_dgp("B"), ["++", "strata-5"], reps=2, n=200, seed=0)
    assert drawn == []


# The tracemalloc peak of the study below, measured at linalg.BATCH_ROWS = 16384 (sixteen
# replicates a batch), was 2.05 MiB; with the 25 % allowance a larger budget cannot creep in.
STUDY_PEAK_MIB = 2.05 * 1.25


def test_a_study_batch_stays_within_its_measured_peak_memory():
    tags = ["++", "x+", "xx", "strat-5", "strat-10", "strat-15"]
    run_study(named_dgp("B"), tags, reps=1, n=100, seed=0)  # first-call allocations are not the batch's
    tracemalloc.start()
    try:
        run_study(named_dgp("B"), tags, reps=25, n=1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < STUDY_PEAK_MIB


def test_named_lookup():
    assert named_dgp("a").name == "A"
    assert named_dgp("D").name == "C"
    with pytest.raises(InvalidSpecError):
        named_dgp("Z")


# ---------------------------------------------------------------------------
# Exact oracle
# ---------------------------------------------------------------------------


def test_design_a_oracle_matches_hand_enumeration():
    oracle = oracle_estimands(dgp_a())
    assert oracle.tau_c == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert oracle.tau_c_by_cell[(1.0, 0.0)] == pytest.approx(-1.0, abs=1e-12)
    assert oracle.tau_c_by_cell[(1.0, 1.0)] == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(oracle.beta_c, [-1.0, 5.0], atol=1e-12)
    assert oracle.p_complier == pytest.approx(0.45, abs=1e-12)
    # Additive limit, evaluated by hand over the two cells.
    expected_taa = (0.5 * 0.25 * 0.7 * (-1.0) + 0.5 * 0.09 * 0.2 * 4.0) / (
        0.5 * 0.25 * 0.7 + 0.5 * 0.09 * 0.2
    )
    assert oracle.plim_taa == pytest.approx(expected_taa, abs=1e-12)
    assert oracle.plim_taa == pytest.approx(-0.5336787564766839, abs=1e-12)
    # With a saturating basis the share projection is exact, so the
    # interacted-additive weights collapse to the correct-first-stage form.
    expected_tia = (0.5 * 0.25 * 0.7**2 * (-1.0) + 0.5 * 0.09 * 0.2**2 * 4.0) / (
        0.5 * 0.25 * 0.7**2 + 0.5 * 0.09 * 0.2**2
    )
    assert oracle.plim_tia == pytest.approx(expected_tia, abs=1e-12)
    assert np.allclose(ref_oracle_estimands(dgp_a())["pi_tilde_coeffs"], [0.7, -0.5], atol=1e-12)


def test_weights_average_to_one_under_the_cell_law():
    for spec in (dgp_a(), categorical_spec(), curved_spec()):
        oracle = oracle_estimands(spec)
        probs = np.array([c.prob for c in spec.cells])
        keys = [tuple(map(float, c.x)) for c in spec.cells]
        for weights in (oracle.w_plus, oracle.w_times, oracle.w):
            total = sum(p * weights[key] for p, key in zip(probs, keys))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_cell_effects_aggregate_to_the_overall_effect():
    for spec in (dgp_a(), categorical_spec(), curved_spec()):
        oracle = oracle_estimands(spec)
        total = 0.0
        for cell in spec.cells:
            key = tuple(map(float, cell.x))
            total += cell.prob * cell.p_complier / oracle.p_complier * oracle.tau_c_by_cell[key]
        assert total == pytest.approx(oracle.tau_c, abs=1e-12)


def test_bias_terms_vanish_for_saturating_bases():
    for spec in (dgp_a(), categorical_spec()):
        oracle, ref = oracle_estimands(spec), ref_oracle_estimands(spec)
        assert np.abs(ref["b1"]).max() <= 1e-12
        assert np.abs(ref["b2"]).max() <= 1e-12
        assert np.abs(oracle.plim_beta_2sls - oracle.beta_c).max() <= 1e-10


def test_weighting_limits_agree_with_projection_limits_when_linear():
    for spec in (dgp_a(), categorical_spec()):
        oracle = oracle_estimands(spec)
        assert oracle.plim_taa == pytest.approx(oracle.plim_taa_projection, abs=1e-10)
        assert oracle.plim_tia == pytest.approx(oracle.plim_tia_projection, abs=1e-10)


@st.composite
def dummy_coded_specs(draw):
    """Finite-support designs whose covariates dummy-code 2 to 6 levels, with or without a constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(2, 6))
    constant = draw(st.booleans())
    probs = rng.uniform(0.05, 1.0, levels)
    probs /= probs.sum()
    cells = []
    for j in range(levels):
        dummies = [float(j == i) for i in range(levels)]
        p_always = rng.uniform(0.0, 0.4)
        cells.append(DgpCell(
            x=tuple([1.0, *dummies[1:]] if constant else dummies),
            prob=float(probs[j]),
            e=rng.uniform(0.05, 0.95),
            p_always=p_always,
            p_complier=rng.uniform(0.05, 1.0 - p_always),
            y0_mean=tuple(rng.uniform(-3.0, 3.0, 3)),
            y1_mean=tuple(rng.uniform(-3.0, 3.0, 3)),
        ))
    return from_cells("dummies", cells)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dummy_coded_specs())
def test_condition_ia_makes_weighting_and_projection_limits_equal(spec):
    """Dummy-coded covariates saturate the cells, so the instrument
    propensity is linear in them (the paper's condition (ia)) and the
    weighting limits of ++ and x+ are the 2SLS probability limits."""
    oracle = oracle_estimands(spec)
    assert oracle.plim_taa == pytest.approx(oracle.plim_taa_projection, abs=1e-10)
    assert oracle.plim_tia == pytest.approx(oracle.plim_tia_projection, abs=1e-10)


def test_weighting_and_projection_limits_differ_without_condition_ia():
    oracle = oracle_estimands(curved_spec())
    assert abs(oracle.plim_taa - oracle.plim_taa_projection) > 1e-3
    assert abs(oracle.plim_tia - oracle.plim_tia_projection) > 1e-3


def test_bias_decomposition_reproduces_the_projection_limit():
    # The decomposition of the interacted limit into the complier
    # projection plus the design-gram-weighted bias terms is an algebraic
    # identity; on a curved design the bias terms are genuinely nonzero.
    # The terms come from the moment-block reference, the limit from the oracle.
    oracle, ref = oracle_estimands(curved_spec()), ref_oracle_estimands(curved_spec())
    assert np.abs(ref["b1"]).max() > 1e-4
    assert np.abs(ref["b2"]).max() > 1e-4
    correction = least_squares(ref["b1"] + ref["b2"], ref["design_gram"]).coef[:, 0]
    assert np.abs(oracle.plim_beta_2sls - (oracle.beta_c + correction)).max() <= 1e-10


def test_projection_limits_need_covariates_that_span_the_constant():
    # No column is the constant and the cell rows do not sum to one, so ++ and x+,
    # which need a constant, have no limit; the interacted fit, which does not, has one.
    spec = from_cells("no-constant", (
        DgpCell(x=(1.0, 0.0), prob=0.3, e=0.4, p_always=0.1, p_complier=0.6,
                y0_mean=(0.0, 0.5, 1.0), y1_mean=(1.0, 2.0, 1.5)),
        DgpCell(x=(0.0, 2.0), prob=0.3, e=0.6, p_always=0.2, p_complier=0.5,
                y0_mean=(0.2, 0.1, 0.0), y1_mean=(1.0, -1.0, 0.5)),
        DgpCell(x=(1.0, 1.0), prob=0.4, e=0.7, p_always=0.1, p_complier=0.4,
                y0_mean=(0.3, 0.0, 0.2), y1_mean=(0.0, 1.5, 2.0)),
    ))
    oracle = oracle_estimands(spec)
    assert oracle.plim_taa_projection is None and oracle.plim_tia_projection is None
    assert oracle.plim_xx_first_stage is None and oracle.plim_xx_kappa is None
    assert np.abs(oracle.plim_beta_2sls - ref_oracle_estimands(spec)["plim_beta_2sls"]).max() <= 1e-10


def test_oracle_rejects_continuous_designs():
    with pytest.raises(InfiniteSupportError):
        oracle_estimands(dgp_b())


# ---------------------------------------------------------------------------
# Theorems 1-2: probability limits of the interacted and centered fits
# ---------------------------------------------------------------------------


def four_point_cells(e, p_complier, y0_mean, y1_mean, probs=(0.25,) * 4, p_always=(0.1,) * 4):
    """Cells at x = (1, j), j = 0..3; the outcome means are per cell, by type."""
    return tuple(
        DgpCell(x=(1.0, float(j)), prob=probs[j], e=e[j], p_always=p_always[j],
                p_complier=p_complier[j], y0_mean=tuple(y0_mean[j]), y1_mean=tuple(y1_mean[j]))
        for j in range(4)
    )


@st.composite
def four_point_specs(draw, condition):
    """Random four-point designs on the basis (1, j) under condition (ib) or (ii).

    (ib): the instrument propensity is constant; outcome means are free.
    (ii): Y(0) = X'gamma and Y(1) = X'gamma + X'b for every compliance
    type; the propensity is free, so not linear in X.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.uniform(0.05, 1.0, 4)
    p_always = rng.uniform(0.0, 0.4, 4)
    p_complier = rng.uniform(0.05, 1.0 - p_always)
    if condition == "ib":
        e = np.full(4, rng.uniform(0.05, 0.95))
        y0, y1 = rng.uniform(-3.0, 3.0, (2, 4, 3))
    else:
        e = rng.uniform(0.05, 0.95, 4)
        gamma, b = rng.uniform(-3.0, 3.0, (2, 2))
        y0 = np.repeat((gamma[0] + gamma[1] * np.arange(4.0))[:, None], 3, axis=1)
        y1 = y0 + (b[0] + b[1] * np.arange(4.0))[:, None]
    return from_cells(condition, four_point_cells(e, p_complier, y0, y1, probs / probs.sum(), p_always))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(four_point_specs("ib"))
def test_constant_propensity_makes_both_centerings_consistent(spec):
    oracle = oracle_estimands(spec)
    assert np.abs(oracle.plim_beta_2sls - oracle.beta_c).max() <= 1e-10
    assert oracle.plim_xx_first_stage == pytest.approx(oracle.tau_c, abs=1e-10)
    assert oracle.plim_xx_kappa == pytest.approx(oracle.tau_c, abs=1e-10)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(four_point_specs("ii"))
def test_linear_outcomes_make_the_kappa_centering_consistent(spec):
    oracle = oracle_estimands(spec)
    assert np.abs(oracle.plim_beta_2sls - oracle.beta_c).max() <= 1e-10
    assert oracle.plim_xx_kappa == pytest.approx(oracle.tau_c, abs=1e-10)


def test_first_stage_centering_misses_under_linear_outcomes_alone():
    # Condition (ii) with a propensity that is not linear in (1, j): the
    # first-stage share X c1[0] is then not the complier share.
    y0 = [[0.5 + 0.2 * j] * 3 for j in range(4)]
    y1 = [[0.5 + 0.2 * j + 1.0 + j] * 3 for j in range(4)]
    oracle = oracle_estimands(from_cells("ii", four_point_cells((0.5, 0.9, 0.5, 0.1), (0.3, 0.6, 0.3, 0.6), y0, y1)))
    assert oracle.plim_xx_kappa == pytest.approx(oracle.tau_c, abs=1e-10)
    assert abs(oracle.plim_xx_first_stage - oracle.tau_c) > 0.1


def test_neither_condition_misses_with_both_centerings():
    oracle = oracle_estimands(curved_spec())
    assert np.abs(oracle.plim_beta_2sls - oracle.beta_c).max() > 0.1
    assert abs(oracle.plim_xx_first_stage - oracle.tau_c) > 0.05
    assert abs(oracle.plim_xx_kappa - oracle.tau_c) > 0.05


def test_centered_limits_need_a_constant_and_a_positive_first_stage_share():
    dummies = oracle_estimands(categorical_spec())
    assert dummies.plim_xx_first_stage is None and dummies.plim_xx_kappa is None
    # Complier shares this small against extreme propensities give E[X c1[0]] <= 0.
    unit = [[0.0, 1.0, 0.0]] * 4
    oracle = oracle_estimands(from_cells("weak", four_point_cells(
        (0.05, 0.95, 0.1, 0.1), (0.05, 0.05, 0.15, 0.5), [[0.0] * 3] * 4, unit,
        probs=(0.5, 0.3, 0.15, 0.05), p_always=(0.4, 0.25, 0.35, 0.1))))
    assert oracle.plim_xx_first_stage is None
    assert oracle.plim_xx_kappa is not None


def test_first_stage_centering_floors_the_share_it_divides_by():
    # Weak-design cells with P(complier) = 0.19: the kappa share clears the
    # floor, while the first-stage share X c1[0] averages 0.005.
    cells = four_point_cells(
        (0.05, 0.95, 0.1, 0.1), (0.275, 0.05, 0.15, 0.275), [[0.0] * 3] * 4, [[0.0, 1.0, 0.0]] * 4,
        probs=(0.5, 0.3, 0.15, 0.05), p_always=(0.4, 0.25, 0.35, 0.1))
    spec = from_cells("weak", cells)
    data, _ = generate(spec, 100_000, seed=1)
    prop = fit_propensity(data, "saturated")
    assert kappa_weights(data, prop).mean() > PC_FLOOR
    with pytest.raises(NoCompliersError, match="0.0052"):
        centered_interacted_2sls(data, prop)
    # The oracle takes the same floor at the population share E[X c1[0]] = 0.0031.
    assert oracle_estimands(spec).plim_xx_first_stage is None


def test_large_sample_estimate_close_to_oracle_effect():
    pipeline, _ = pipeline_for("xx")
    data, _ = generate(dgp_a(), 100_000, seed=85)
    bound = 5.0 * 0.157 * np.sqrt(1000.0 / 100_000.0)
    assert abs(pipeline(data)[0] - 1.0 / 9.0) <= bound


# ---------------------------------------------------------------------------
# Study runner
# ---------------------------------------------------------------------------


def test_run_study_is_deterministic():
    spec = dgp_a()
    one = run_study(spec, ["++", "xx"], reps=3, n=500, seed=86)
    two = run_study(spec, ["++", "xx"], reps=3, n=500, seed=86)
    for tag in ("++", "xx"):
        assert np.array_equal(one.estimates[tag], two.estimates[tag])
        assert np.array_equal(one.bias[tag], two.bias[tag])
    assert one.failures == two.failures


def test_run_study_rejects_a_repeated_tag(monkeypatch):
    calls = []
    monkeypatch.setattr("ivlate.montecarlo._generated", lambda *a, **k: calls.append(a))
    for tags in (["xx", "xx"], ["++", "beta", "strat-5", "beta"]):
        with pytest.raises(ValueError, match=f"estimator tag '{tags[-1]}' is repeated"):
            run_study(dgp_b(), tags, reps=2, n=100, seed=1)
    assert calls == []  # rejected before any replicate is drawn


@pytest.mark.parametrize("study", [
    lambda spec: run_study(spec, ["++"], reps=4, n=100, seed=7),
    lambda spec: regressogram_deviation(spec, n=100, reps=4, k=2, seed=7),
], ids=["run_study", "regressogram_deviation"])
def test_a_replicate_error_outside_identification_names_its_replicate(study):
    x1 = [generate(dgp_b(), 100, 7, replicate=r)[0].x[:, 1] for r in range(4)]
    calls = []

    def law(x, u):  # a function of each unit: it raises on replicate 2's units
        calls.append(x[:, 1].copy())
        if np.isin(x1[2], x[:, 1]).all():
            raise ZeroDivisionError("boom")
        return x[:, 1] ** 2

    with pytest.raises(ZeroDivisionError, match=r"^seed 7, replicate 2: boom$") as info:
        study(replace(dgp_b(), y1_mean=law))
    assert str(info.value.__cause__) == "boom"
    # The study stops at the failing replicate: none after it is drawn alone.
    alone = [r for units in calls for r in range(4) if np.array_equal(units, x1[r])]
    assert alone == [0, 1, 2]

    # A class that cannot be built from one message propagates as it is.
    undecodable = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def unreadable(x, u):
        raise undecodable

    with pytest.raises(UnicodeDecodeError) as info:
        study(replace(dgp_b(), y1_mean=unreadable))
    assert info.value is undecodable


@pytest.mark.parametrize("study", [
    lambda: run_study(dgp_b(), ["++"], reps=0, n=100, seed=1),
    lambda: regressogram_deviation(dgp_c(), n=100, reps=0, k=2, seed=1),
], ids=["run_study", "regressogram_deviation"])
def test_zero_replicates_is_a_value_error(study):
    with pytest.raises(ValueError, match="^reps must be at least 1$"):
        study()


def test_complier_effect_truth_needs_no_complier_projection():
    # Compliers live in one cell only, so E[XX' | complier] is singular and
    # beta_c is undefined, while tau_c is the complier cell's effect.
    spec = from_cells("one complier cell", (
        DgpCell(x=(1.0, 0.0), prob=0.5, e=0.5, p_always=0.1, p_complier=0.6, y1_mean=(1.0, 2.0, 1.0)),
        DgpCell(x=(1.0, 1.0), prob=0.5, e=0.7, p_always=0.2, p_complier=0.0, y1_mean=(3.0, 3.0, 3.0)),
    ))
    assert study_truth(spec, "tau_c").tolist() == [2.0]
    summary = run_study(spec, ["++"], reps=3, n=400, seed=8)
    assert summary.truth["++"].tolist() == [2.0]
    assert summary.estimates["++"].shape == (3 - summary.failures["++"], 1)
    with pytest.raises(RankDeficientError):
        study_truth(spec, "beta_c")


def test_study_truth_sources():
    assert study_truth(dgp_a(), "tau_c")[0] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert study_truth(dgp_b(), "tau_c")[0] == 2.0
    assert np.allclose(study_truth(dgp_c(), "beta_c"), [-1.0 / 6.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError):
        study_truth(dgp_a(), "late")


def test_pipeline_tags():
    for tag in ("++", "x+", "xx", "beta", "strat-5"):
        fn, kind = pipeline_for(tag)
        assert callable(fn)
        assert kind in ("tau_c", "beta_c")
    with pytest.raises(ValueError):
        pipeline_for("magic")
    for tag in ("strat-0", "strat-05", "strat-5\n"):
        with pytest.raises(ValueError, match="unknown estimator tag"):
            pipeline_for(tag)


def test_beta_pipeline_returns_vector_and_study_shapes_align():
    summary = run_study(dgp_c(), ["beta"], reps=3, n=400, seed=87)
    assert summary.bias["beta"].shape == (2,)
    assert summary.sd["beta"].shape == (2,)

import numpy as np
import pytest
from _helpers import categorical_spec, curved_spec

from ivlate.errors import InfiniteSupportError, InvalidSpecError
from ivlate.linalg import least_squares
from ivlate.montecarlo import (
    DgpCell,
    U_ALWAYS,
    U_COMPLIER,
    dgp_a,
    dgp_b,
    dgp_c,
    from_cells,
    generate,
    named_dgp,
    oracle_estimands,
    pipeline_for,
    run_study,
    spec_from_json,
    spec_to_json,
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
    assert np.allclose(oracle.pi_tilde_coeffs, [0.7, -0.5], atol=1e-12)


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
        oracle = oracle_estimands(spec)
        assert np.abs(oracle.b1).max() <= 1e-12
        assert np.abs(oracle.b2).max() <= 1e-12
        assert np.abs(oracle.plim_beta_2sls - oracle.beta_c).max() <= 1e-10


def test_weighting_limits_agree_with_projection_limits_when_linear():
    for spec in (dgp_a(), categorical_spec()):
        oracle = oracle_estimands(spec)
        assert oracle.plim_taa == pytest.approx(oracle.plim_taa_projection, abs=1e-10)
        assert oracle.plim_tia == pytest.approx(oracle.plim_tia_projection, abs=1e-10)


def test_bias_decomposition_reproduces_the_projection_limit():
    # The decomposition of the interacted limit into the complier
    # projection plus the design-gram-weighted bias terms is an algebraic
    # identity; on a curved design the bias terms are genuinely nonzero.
    oracle = oracle_estimands(curved_spec())
    assert np.abs(oracle.b1).max() > 1e-4
    assert np.abs(oracle.b2).max() > 1e-4
    correction = least_squares(oracle.b1 + oracle.b2, oracle.interacted_design_gram).coef[:, 0]
    assert np.abs(oracle.plim_beta_2sls - (oracle.beta_c + correction)).max() <= 1e-10


def test_oracle_rejects_continuous_designs():
    with pytest.raises(InfiniteSupportError):
        oracle_estimands(dgp_b())


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
    one = run_study(spec, ["++", "xx"], reps=3, n=500, seed=86, keep_estimates=True)
    two = run_study(spec, ["++", "xx"], reps=3, n=500, seed=86, keep_estimates=True)
    for tag in ("++", "xx"):
        assert np.array_equal(one.estimates[tag], two.estimates[tag])
        assert np.array_equal(one.bias[tag], two.bias[tag])
    assert one.failures == two.failures


def test_run_study_rejects_a_repeated_tag(monkeypatch):
    calls = []
    monkeypatch.setattr("ivlate.montecarlo.generate", lambda *a, **k: calls.append(a))
    for tags in (["xx", "xx"], ["++", "beta", "strat-5", "beta"]):
        with pytest.raises(ValueError, match=f"estimator tag '{tags[-1]}' is repeated"):
            run_study(dgp_b(), tags, reps=2, n=100, seed=1)
    assert calls == []  # rejected before any replicate is drawn


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
    with pytest.raises(ValueError):
        pipeline_for("strat-0")


def test_beta_pipeline_returns_vector_and_study_shapes_align():
    summary = run_study(dgp_c(), ["beta"], reps=3, n=400, seed=87)
    assert summary.bias["beta"].shape == (2,)
    assert summary.sd["beta"].shape == (2,)


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_named_design_roundtrip():
    doc = spec_to_json(dgp_b())
    assert doc == {"name": "B"}
    rebuilt = spec_from_json(doc)
    a, _ = generate(dgp_b(), 200, seed=88)
    b, _ = generate(rebuilt, 200, seed=88)
    assert np.array_equal(a.y, b.y)


def test_finite_support_roundtrip_preserves_the_oracle():
    spec = curved_spec()
    rebuilt = spec_from_json(spec_to_json(spec))
    first = oracle_estimands(spec)
    second = oracle_estimands(rebuilt)
    assert first.tau_c == second.tau_c
    assert np.array_equal(first.beta_c, second.beta_c)
    assert np.array_equal(first.b1, second.b1)

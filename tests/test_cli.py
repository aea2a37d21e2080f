import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from _helpers import dummy_coded, load_report
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ivlate
from ivlate import complier
from ivlate.cli import ingest_csv, main
from ivlate.complier import fit_propensity
from ivlate.errors import SchemaError
from ivlate.inference import bootstrap
from ivlate.montecarlo import dgp_a, dgp_b, dgp_c, evaluate_tags, generate, pipeline_for
from ivlate.stratify import regressogram, stratified_late


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def export_design_a(path, n=400, seed=1):
    data, _ = generate(dgp_a(), n, seed=seed)
    rows = np.column_stack([data.y, data.d, data.z, data.x[:, 1]])
    return write_csv(path, ["y", "d", "z", "x1"], rows.tolist())


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def test_three_row_file_loads_with_correct_binding(tmp_path):
    path = write_csv(
        tmp_path / "tiny.csv",
        ["y", "d", "z", "x1"],
        [[1.5, 1, 1, 0.2], [0.5, 0, 0, -0.1], [2.0, 1, 1, 0.4]],
    )
    data = ingest_csv(path)
    assert data.n == 3
    assert data.k == 2  # constant + x1
    assert data.y.tolist() == [1.5, 0.5, 2.0]
    assert data.d.tolist() == [1.0, 0.0, 1.0]
    assert data.z.tolist() == [1.0, 0.0, 1.0]
    assert data.x[:, 0].tolist() == [1.0, 1.0, 1.0]
    assert data.x[:, 1].tolist() == [0.2, -0.1, 0.4]


def test_non_binary_treatment_names_the_row(tmp_path):
    rows = [[float(i), 1, i % 2, 0.1] for i in range(10)]
    rows[6][1] = 2  # data row 7
    path = write_csv(tmp_path / "bad.csv", ["y", "d", "z", "x1"], rows)
    with pytest.raises(ValueError, match="row 7"):
        ingest_csv(path)


def test_schema_errors(tmp_path):
    with pytest.raises(SchemaError, match="missing required column"):
        ingest_csv(write_csv(tmp_path / "a.csv", ["y", "d", "x1"], [[1, 0, 0.5]]))
    with pytest.raises(SchemaError, match="duplicate"):
        ingest_csv(write_csv(tmp_path / "b.csv", ["y", "d", "z", "z"], [[1, 0, 1, 1]]))
    with pytest.raises(SchemaError, match="non-covariate"):
        ingest_csv(write_csv(tmp_path / "c.csv", ["y", "d", "z", "w1"], [[1, 0, 1, 1]]))
    with pytest.raises(SchemaError, match="no covariate columns"):
        ingest_csv(
            write_csv(tmp_path / "d.csv", ["y", "d", "z"], [[1, 0, 1]]),
            add_constant=False,
        )


def test_outcome_only_file_gets_constant_design(tmp_path):
    rows = [[float(i % 3), i % 2, (i + 1) % 2, ][:3] for i in range(12)]
    rows = [[float(i % 3), float(i % 2), float((i // 2) % 2)] for i in range(12)]
    path = write_csv(tmp_path / "nox.csv", ["y", "d", "z"], rows)
    data = ingest_csv(path)
    assert data.k == 1
    assert np.all(data.x == 1.0)


def test_non_finite_cell_rejected(tmp_path):
    rows = [[1.0, 1, 1, 0.1], [np.inf, 0, 0, 0.2], [1.0, 1, 0, 0.3]]
    path = write_csv(tmp_path / "inf.csv", ["y", "d", "z", "x1"], rows)
    with pytest.raises(ValueError, match="row 2"):
        ingest_csv(path)


def test_over_long_field_is_a_schema_error_naming_the_line(tmp_path):
    # The csv module refuses fields above its 131 072-character limit.
    path = tmp_path / "long.csv"
    path.write_text("y,d,z\n1,0,1\n" + "1" * 131_073 + ",0,1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 3"):
        ingest_csv(str(path))
    assert main(["estimate", "--input", str(path), "--b", "10"]) == 2


def test_finite_over_long_field_is_a_schema_error_naming_the_line(tmp_path):
    # The cell parses to 0.0, so only the field limit rejects it on the plain-number route too.
    path = tmp_path / "long.csv"
    path.write_text("y,d,z,x1\n1,0,1,0\n1,0,1,0." + "0" * 131_072 + "1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="^line 3: field larger than field limit"):
        ingest_csv(str(path))
    assert main(["estimate", "--input", str(path), "--b", "10"]) == 2


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("bad_row", [3, 2000])
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, capsys, bom, newline, bad_row):
    # Row 2000 lies past the first chunk that the text reader decodes.
    rows = [b"1.5,1,0,0.25"] * 2500
    rows[bad_row - 1] = b"1.5,1,0,0.2\xff5"
    path = tmp_path / "latin.csv"
    path.write_bytes(bom + newline.join([b"y,d,z,x1", *rows]) + newline)
    with pytest.raises(SchemaError, match=f"^line {bad_row + 1}: not valid UTF-8$"):
        ingest_csv(str(path))
    assert main(["estimate", "--input", str(path), "--b", "10"]) == 2
    assert capsys.readouterr().err == f"data error: line {bad_row + 1}: not valid UTF-8\n"


@pytest.mark.parametrize("command, extra", [("estimate", ["--estimators", "++"]), ("stratify", ["--k", "2"])])
def test_commands_read_their_csv_through_the_module_global_once(tmp_path, monkeypatch, command, extra):
    # Tracing wraps ``ivlate.cli.ingest_csv`` there, so each command must look it up there.
    path = export_design_a(tmp_path / "a.csv")
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return ingest_csv(*args, **kwargs)

    monkeypatch.setattr("ivlate.cli.ingest_csv", spy)
    assert main([command, "--input", path, "--b", "10", "--output", str(tmp_path / "r.json"), *extra]) == 0
    assert calls == [(path,)]


# ---------------------------------------------------------------------------
# estimate command
# ---------------------------------------------------------------------------


def test_estimate_rejects_tiny_bootstrap(tmp_path, capsys):
    path = export_design_a(tmp_path / "a.csv")
    code = main(["estimate", "--input", path, "--b", "0", "--seed", "1"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_estimate_unknown_tag_is_config_error(tmp_path, capsys):
    path = export_design_a(tmp_path / "a.csv")
    code = main(["estimate", "--input", path, "--estimators", "nope", "--b", "20"])
    assert code == 1


@pytest.mark.parametrize("tags", ["xx,xx", "++,x+,++", "strat-5, strat-5"])
def test_estimate_repeated_tag_is_config_error(tmp_path, capsys, tags):
    path = export_design_a(tmp_path / "a.csv")
    out = tmp_path / "out.json"
    code = main(["estimate", "--input", path, "--estimators", tags, "--b", "20", "--output", str(out)])
    assert code == 1
    repeated = tags.split(",")[-1].strip()
    assert f"estimator tag {repeated!r} is repeated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tags", ["strat-5,strat-05", "strat-0"])
def test_estimate_stratum_count_has_one_spelling(tmp_path, capsys, tags):
    path = export_design_a(tmp_path / "a.csv")
    out = tmp_path / "out.json"
    code = main(["estimate", "--input", path, "--estimators", tags, "--b", "10", "--output", str(out)])
    assert code == 1
    assert f"unknown estimator tag {tags.split(',')[-1]!r}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_repeated_tag_is_config_error(tmp_path, capsys):
    out = tmp_path / "sim.json"
    args = ["simulate", "--dgp", "B", "--estimators", "++,xx,++", "--reps", "2",
            "--n", "200", "--seed", "1", "--output", str(out)]
    assert main(args) == 1
    assert "estimator tag '++' is repeated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["estimate", "--alpha", "1.5"], "--alpha must lie strictly between 0 and 1"),
        (["stratify", "--k", "3", "--alpha", "0"], "--alpha must lie strictly between 0 and 1"),
        (["estimate", "--seed", "-1"], "--seed must be non-negative"),
        (["simulate", "--dgp", "B", "--seed", "1", "--reps", "0"], "--reps must be at least 1"),
        (["simulate", "--dgp", "B", "--seed", "1", "--n", "0"], "--n must be at least 1"),
        (["stratify", "--k", "0"], "--k must be at least 1"),
        (["estimate", "--estimators", ","], "no estimators requested"),
        (["estimate", "--estimators", "++,beta"],
         "estimator 'beta' is a vector: estimate reports scalar estimators only"),
        (["estimate", "--estimators", "strat-3,strata-3"],
         "estimator 'strata-3' is a vector: estimate reports scalar estimators only"),
        (["simulate", "--dgp", "B", "--seed", "1", "--estimators", "++,strata-5"],
         "estimator 'strata-5' has no registered truth: simulate reports bias against one"),
    ],
    ids=["alpha", "alpha-zero", "seed", "reps", "n", "k", "no-tags", "beta", "strata-estimate", "strata-simulate"],
)
def test_bad_flag_is_a_config_error_naming_it(tmp_path, capsys, args, message):
    extra = [] if args[0] == "simulate" else ["--input", export_design_a(tmp_path / "a.csv"), "--b", "10"]
    out = tmp_path / "out.json"
    assert main([*args, *extra, "--output", str(out)]) == 1
    assert f"configuration error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def export_dummy_coding(path):
    """A three-level categorical as a full dummy coding, x1..x3, which spans the constant."""
    data, _ = dummy_coded(8, n=600)
    rows = np.column_stack([data.y, data.d, data.z, data.x])
    return write_csv(path, ["y", "d", "z", "x1", "x2", "x3"], rows.tolist())


@pytest.mark.parametrize("tag", ["++", "x+", "xx"])
def test_no_constant_with_a_tag_that_needs_it_is_a_config_error(tmp_path, capsys, tag):
    path = export_dummy_coding(tmp_path / "dummies.csv")
    out = tmp_path / "out.json"
    code = main(["estimate", "--input", path, "--no-constant", "--estimators", f"strat-3,{tag}",
                 "--b", "10", "--output", str(out)])
    assert code == 1
    expected = f"configuration error: estimator {tag!r} needs the constant column that --no-constant drops"
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "stratify"])
def test_no_constant_runs_on_a_full_dummy_coding(tmp_path, command):
    path = export_dummy_coding(tmp_path / "dummies.csv")
    out = tmp_path / "out.json"
    extra = ["--estimators", "strat-3"] if command == "estimate" else ["--k", "3"]
    assert main([command, "--input", path, "--no-constant", *extra, "--b", "20", "--seed", "2",
                 "--output", str(out)]) == 0
    report = load_report(out)
    assert report["config"]["no_constant"] is True
    late = report["results"][0]["point"] if command == "estimate" else report["late"]["estimate"]
    assert np.isfinite(late)


def test_estimate_echoes_header_in_file_order(tmp_path):
    data, _ = generate(dgp_a(), 200, seed=3)
    rows = np.column_stack([data.x[:, 1], data.z, data.y, data.d]).tolist()
    path = write_csv(tmp_path / "cols.csv", ["x1 ", " z", "y", "d"], rows)
    header = []
    ingest_csv(path, header=header)
    assert header == ["x1", "z", "y", "d"]
    out = tmp_path / "out.json"
    assert main(["estimate", "--input", path, "--estimators", "++", "--b", "10",
                 "--output", str(out)]) == 0
    assert load_report(out)["config"]["columns"] == header


def test_estimate_missing_file_is_data_error(tmp_path):
    code = main(["estimate", "--input", str(tmp_path / "missing.csv"), "--b", "20"])
    assert code == 2


def test_estimate_bad_cell_is_data_error(tmp_path):
    rows = [[1.0, 2, 1, 0.1]] * 8
    path = write_csv(tmp_path / "bad.csv", ["y", "d", "z", "x1"], rows)
    assert main(["estimate", "--input", path, "--b", "20"]) == 2


def test_estimate_degenerate_design_is_estimation_failure(tmp_path):
    # x1 constant duplicates the constant column: rank deficient.
    rows = [[float(i), float(i % 2), float((i // 2) % 2), 5.0] for i in range(20)]
    path = write_csv(tmp_path / "flat.csv", ["y", "d", "z", "x1"], rows)
    assert main(["estimate", "--input", path, "--b", "20", "--seed", "3"]) == 3


@pytest.mark.filterwarnings("ignore:.*clipped:RuntimeWarning")
@pytest.mark.parametrize(
    "rows, command, code, message",
    [
        # Fewer rows than regressors is a data error.
        ([[1.0, 1, 1, 0.5], [0.0, 0, 0, 1.5]], "estimate", 2,
         "data error: need at least as many rows (2) as regressors (3)"),
        ([[1.0, 1, 1, 0.5], [0.0, 0, 0, 1.5]], "stratify", 2,
         "data error: need at least 2k = 4 units, got 2"),
        # A single instrument arm is an estimation failure.
        ([[float(i), i % 2, 1, 0.1 * i] for i in range(40)], "estimate", 3, "estimation failure: "),
        ([[float(i), i % 2, 1, 0.1 * i] for i in range(40)], "stratify", 3, "estimation failure: "),
    ],
)
def test_too_few_rows_is_a_data_error_and_one_arm_an_estimation_failure(
    tmp_path, capsys, rows, command, code, message
):
    path = write_csv(tmp_path / "small.csv", ["y", "d", "z", "x1"], rows)
    extra = ["--k", "2"] if command == "stratify" else []
    assert main([command, "--input", path, *extra, "--b", "10", "--output", str(tmp_path / "r.json")]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["estimate", "stratify"])
def test_fewer_rows_than_covariate_columns_is_the_fits_data_error(tmp_path, capsys, command):
    """With n < k the covariate check has no diagonal to read, so it leaves the fits to
    raise their row count instead of naming a collinear column."""
    rows = [[1.0, 1, 1, 0.5, 0.2, 0.3], [0.0, 0, 0, 1.5, 0.1, 0.9]]
    path = write_csv(tmp_path / "wide.csv", ["y", "d", "z", "x1", "x2", "x3"], rows)
    extra = ["--k", "1"] if command == "stratify" else []
    assert main([command, "--input", path, *extra, "--b", "10", "--output", str(tmp_path / "r.json")]) == 2
    regressors = 5 if command == "estimate" else 4  # the first stage of ++; the IRLS on X
    expected = f"data error: need at least as many rows (2) as regressors ({regressors})"
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "command, arm",
    [("estimate", 0), ("estimate", 1), ("stratify", 0), ("stratify", 1)],
    ids=["0", "1", "stratify-0", "stratify-1"],
)
def test_constant_instrument_names_its_column(tmp_path, capsys, command, arm):
    rows = [[float(i), i % 2, arm, 0.1 * i] for i in range(40)]
    path = write_csv(tmp_path / "one_arm.csv", ["y", "d", "z", "x1"], rows)
    extra = ["--k", "2"] if command == "stratify" else []
    assert main([command, "--input", path, *extra, "--b", "10", "--output", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "estimation failure: column 'z' is constant: both instrument arms are required" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["estimate", "stratify"])
@pytest.mark.parametrize("case, column", [("constant", "x1"), ("duplicate", "x2"), ("zero", "x1")])
def test_collinear_covariate_names_its_column(tmp_path, capsys, command, case, column):
    x1 = [{"constant": 3.0, "zero": 0.0}.get(case, 0.1 * i) for i in range(40)]
    x2 = x1 if case == "duplicate" else [(0.37 * i) % 1.0 for i in range(40)]
    rows = [[float(i), i % 2, (i // 2) % 2, x1[i], x2[i]] for i in range(40)]
    path = write_csv(tmp_path / "collinear.csv", ["y", "d", "z", "x1", "x2"], rows)
    extra = ["--k", "2"] if command == "stratify" else []
    assert main([command, "--input", path, *extra, "--b", "10", "--output", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    why = "zero" if case == "zero" else "collinear with the constant and earlier covariates"
    expected = f"column '{column}' is {why}"
    assert f"estimation failure: {expected}" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("scale", [1e-11, 1e10, 1e200])
def test_a_rescaled_covariate_estimates_as_the_original(tmp_path, scale):
    """The rank rule judges each column against its own norm, computed without overflow, so
    no scale of x1 reads as collinear and the report carries the same estimates."""
    data, _ = generate(dgp_b(), 400, seed=2)
    reports = []
    for factor in (1.0, scale):
        rows = np.column_stack([data.y, data.d, data.z, factor * data.x[:, 1], data.x[:, 2]])
        path = write_csv(tmp_path / f"{factor}.csv", ["y", "d", "z", "x1", "x2"], rows.tolist())
        out = tmp_path / f"{factor}.json"
        assert main(["estimate", "--input", path, "--estimators", "++,x+,xx,strat-3", "--b", "20",
                     "--output", str(out)]) == 0
        reports.append(load_report(out))
    expected, got = reports
    assert got["failures"] == expected["failures"]
    for row, ref in zip(got["results"], expected["results"]):
        for field in ("point", "sd", "ci"):
            assert row[field] == pytest.approx(ref[field], rel=1e-9, abs=0.0), (row["estimator"], field)


def test_estimate_report_is_deterministic_and_parses(tmp_path):
    path = export_design_a(tmp_path / "a.csv", n=300, seed=4)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["estimate", "--input", path, "--estimators", "++,x+,xx", "--b", "30",
            "--seed", "11", "--output"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = load_report(out1)
    assert report["command"] == "estimate"
    assert [r["estimator"] for r in report["results"]] == ["++", "x+", "xx"]
    for row in report["results"]:
        assert np.isfinite(row["point"]) and row["sd"] >= 0.0
        assert row["ci"][0] <= row["ci"][1]
    assert report["config"]["n"] == 300


def test_estimators_coincide_with_wald_without_covariates(tmp_path):
    data, _ = generate(dgp_a(), 500, seed=5)
    rows = np.column_stack([data.y, data.d, data.z]).tolist()
    path = write_csv(tmp_path / "nox.csv", ["y", "d", "z"], rows)
    out = tmp_path / "r.json"
    assert main(["estimate", "--input", path, "--estimators", "++,x+,xx",
                 "--b", "20", "--seed", "2", "--output", str(out)]) == 0
    report = load_report(out)
    z1 = data.z == 1.0
    wald = (data.y[z1].mean() - data.y[~z1].mean()) / (data.d[z1].mean() - data.d[~z1].mean())
    for row in report["results"]:
        assert row["point"] == pytest.approx(wald, rel=1e-10)


def test_estimate_round_trip_centered_estimator_lands_nearest_truth(tmp_path):
    # Export a design-A sample, run all three LATE estimators through the
    # CLI, and check the centered one sits closest to the known effect.
    path = export_design_a(tmp_path / "a.csv", n=2000, seed=12)
    out = tmp_path / "r.json"
    assert main(["estimate", "--input", path, "--estimators", "++,x+,xx",
                 "--b", "25", "--seed", "4", "--output", str(out)]) == 0
    report = load_report(out)
    points = {row["estimator"]: row["point"] for row in report["results"]}
    assert all(np.isfinite(v) for v in points.values())
    gaps = {tag: abs(value - 1.0 / 9.0) for tag, value in points.items()}
    assert min(gaps, key=gaps.get) == "xx"


def test_estimate_csv_format(tmp_path):
    path = export_design_a(tmp_path / "a.csv", n=200, seed=6)
    out = tmp_path / "r.csv"
    assert main(["estimate", "--input", path, "--estimators", "++", "--b", "20",
                 "--seed", "1", "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "estimator,point,sd,ci_low,ci_high"
    assert lines[1].startswith("++,")


def test_report_with_control_character_in_input_path_is_valid_json(tmp_path):
    path = export_design_a(tmp_path / "tab\there.csv", n=200, seed=6)
    out = tmp_path / "r.json"
    assert main(["estimate", "--input", path, "--estimators", "++", "--b", "20",
                 "--seed", "1", "--output", str(out)]) == 0
    report = load_report(out)
    assert report["config"]["input"] == path


def test_csv_with_byte_order_mark_matches_plain_file(tmp_path):
    plain = export_design_a(tmp_path / "plain.csv", n=200, seed=7)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
    reports = []
    for path, out in ((plain, tmp_path / "p.json"), (str(bom), tmp_path / "b.json")):
        assert main(["estimate", "--input", path, "--estimators", "++,xx", "--b", "20",
                     "--seed", "1", "--output", str(out)]) == 0
        reports.append(load_report(out))
    assert reports[1]["results"] == reports[0]["results"]
    assert reports[1]["config"]["columns"][0] == "y"


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------


def test_simulate_requires_seed_and_known_design(tmp_path, capsys):
    assert main(["simulate", "--dgp", "A", "--reps", "2", "--n", "60"]) == 1
    assert main(["simulate", "--dgp", "Q", "--reps", "2", "--n", "60", "--seed", "1"]) == 1


@pytest.mark.parametrize(
    "design, n, tags, cause",
    [
        ("B", "3", "++,x+,xx", "need at least as many rows (3) as regressors (4)"),
        ("C", "5", "strat-3", "need at least 2k = 6 units, got 5"),
    ],
)
def test_simulate_with_too_small_n_is_config_error(tmp_path, capsys, design, n, tags, cause):
    # simulate reads no data, so a sample too small for a fit is a bad --n (exit 1, not 2).
    out = tmp_path / "sim.json"
    args = ["simulate", "--dgp", design, "--n", n, "--estimators", tags, "--reps", "2",
            "--seed", "0", "--output", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # clipped scores on five units
        assert main(args) == 1
    err = capsys.readouterr().err
    assert f"configuration error: --n {n} is too small" in err
    assert cause in err
    assert not out.exists()


@pytest.mark.parametrize(
    "design, n, tags, message",
    [
        # Replicate 0 only fails identification, so the error is replicate 1's.
        ("A", "3", "xx", "seed 0, replicate 1: need at least as many rows (3) as regressors (4)"),
        ("B", "5", "strat-5", "seed 0, replicate 0: need at least 2k = 10 units, got 5"),
    ],
)
def test_a_batched_study_names_the_first_replicate_that_raises(tmp_path, capsys, design, n, tags, message):
    """The three replicates are evaluated as one batch; the error is the one that evaluating
    them one by one meets first."""
    args = ["simulate", "--dgp", design, "--n", n, "--estimators", tags, "--reps", "3",
            "--seed", "0", "--output", str(tmp_path / "sim.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(args) == 1
    assert f"configuration error: --n {n} is too small for these estimators: {message}\n" in capsys.readouterr().err


def test_simulate_reports_and_per_replicate_csv(tmp_path):
    out = tmp_path / "sim.json"
    reps_out = tmp_path / "reps.csv"
    args = [
        "simulate", "--dgp", "A", "--estimators", "++,xx", "--reps", "2",
        "--n", "120", "--seed", "7", "--output", str(out),
        "--replicates-out", str(reps_out),
    ]
    assert main(args) == 0
    report = load_report(out)
    assert report["config"]["dgp"] == "A"
    assert {r["estimator"] for r in report["results"]} == {"++", "xx"}
    lines = reps_out.read_text().strip().splitlines()
    assert lines[0] == "rep,estimator,dim,value"
    assert len(lines) == 1 + 2 * 2  # two replicates, two estimators

    out2 = tmp_path / "sim2.json"
    reps2 = tmp_path / "reps2.csv"
    args2 = args[:-4] + ["--output", str(out2), "--replicates-out", str(reps2)]
    assert main(args2) == 0
    assert out.read_bytes() == out2.read_bytes()
    assert reps_out.read_bytes() == reps2.read_bytes()


def test_replicates_out_numbers_rows_by_the_replicate_that_produced_them(tmp_path):
    # At n=20, xx fails identification in one of the eight replicates.
    reps_out = tmp_path / "r.csv"
    assert main(["simulate", "--dgp", "A", "--estimators", "++,xx", "--n", "20", "--reps", "8",
                 "--seed", "3", "--output", str(tmp_path / "s.json"),
                 "--replicates-out", str(reps_out)]) == 0
    rows = [line.split(",") for line in reps_out.read_text().splitlines()[1:]]
    assert [int(rep) for rep, tag, _, _ in rows if tag == "++"] == list(range(8))
    assert len([rep for rep, tag, _, _ in rows if tag == "xx"]) == 7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for rep, tag, dim, value in rows:
            sample = generate(dgp_a(), 20, seed=3, replicate=int(rep))[0]
            assert float(value) == evaluate_tags(sample, [tag])[tag][int(dim)], (rep, tag)


def test_simulate_tag_failing_every_replicate_is_null_in_json_and_empty_in_csv(tmp_path):
    # At n=6 the complier-centered fit is unidentified in all three replicates.
    args = ["simulate", "--dgp", "A", "--n", "6", "--reps", "3", "--seed", "0",
            "--estimators", "++,xx,strat-2"]
    out, table = tmp_path / "sim.json", tmp_path / "sim.csv"
    assert main(args + ["--output", str(out)]) == 0
    assert main(args + ["--format", "csv", "--output", str(table)]) == 0
    report = load_report(out)
    assert report["failures"]["xx"] == 3
    xx = report["results"][1]
    assert xx["estimator"] == "xx" and xx["bias"] == [None] and xx["sd"] == [None]
    assert xx["truth"][0] == pytest.approx(1.0 / 9.0)
    row = table.read_text().splitlines()[2].split(",")
    assert row[:2] == ["xx", "0"] and float(row[2]) == xx["truth"][0]
    assert row[3:] == ["", ""]


# ---------------------------------------------------------------------------
# stratify command
# ---------------------------------------------------------------------------


def test_stratify_single_stratum_row_matches_wald(tmp_path):
    path = export_design_a(tmp_path / "a.csv", n=300, seed=8)
    out = tmp_path / "s.csv"
    assert main(["stratify", "--input", path, "--k", "1", "--b", "30",
                 "--seed", "5", "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "interval_low,interval_high,estimate,ci_low,ci_high"
    assert len(lines) == 2
    data = ingest_csv(path)
    z1 = data.z == 1.0
    wald = (data.y[z1].mean() - data.y[~z1].mean()) / (data.d[z1].mean() - data.d[~z1].mean())
    assert float(lines[1].split(",")[2]) == pytest.approx(wald, rel=1e-10)


def test_stratify_constant_scores_merge_with_warning(tmp_path, capsys):
    data, _ = generate(dgp_a(), 400, seed=9)
    rows = np.column_stack([data.y, data.d, data.z]).tolist()
    path = write_csv(tmp_path / "nox.csv", ["y", "d", "z"], rows)
    out = tmp_path / "s.json"
    assert main(["stratify", "--input", path, "--k", "3", "--b", "30",
                 "--seed", "5", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert "merged 3 requested strata down to 1" in err
    report = load_report(out)
    assert report["config"]["k_effective"] == 1
    assert len(report["strata"]) == 1
    assert report["warnings"]


def test_stratify_emits_at_most_k_rows(tmp_path):
    data, _ = generate(dgp_c(), 1000, seed=11)
    rows = np.column_stack([data.y, data.d, data.z, data.x[:, 1]]).tolist()
    path = write_csv(tmp_path / "c.csv", ["y", "d", "z", "x1"], rows)
    out = tmp_path / "s.csv"
    assert main(["stratify", "--input", path, "--k", "10", "--b", "20",
                 "--seed", "3", "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert 2 <= len(lines) <= 11


def test_stratify_report_rows_are_the_regressogram(tmp_path):
    # tests/test_stratify.py checks that the regressogram's intervals tile [0, 1].
    data, _ = generate(dgp_c(), 1000, seed=11)
    rows = np.column_stack([data.y, data.d, data.z, data.x[:, 1]]).tolist()
    path = write_csv(tmp_path / "c.csv", ["y", "d", "z", "x1"], rows)
    out = tmp_path / "s.json"
    assert main(["stratify", "--input", path, "--k", "10", "--b", "20",
                 "--seed", "3", "--output", str(out)]) == 0
    sample = ingest_csv(path)
    bins = regressogram(stratified_late(sample, fit_propensity(sample, "logistic"), 10))
    report = load_report(out)
    assert len(bins) == report["config"]["k_effective"] > 1
    assert [row["interval"] for row in report["strata"]] == [[low, high] for low, high, _ in bins]
    assert [row["estimate"] for row in report["strata"]] == [b[2] for b in bins]


def test_stratify_json_report_is_deterministic(tmp_path):
    path = export_design_a(tmp_path / "a.csv", n=400, seed=10)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ["stratify", "--input", path, "--k", "2", "--b", "40", "--seed", "6", "--output"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = load_report(out1)
    assert len(report["strata"]) == report["config"]["k_effective"]
    assert np.isfinite(report["late"]["estimate"])


def export_design_b(path, n=600, seed=2):
    data, _ = generate(dgp_b(), n, seed=seed)
    rows = np.column_stack([data.y, data.d, data.z, data.x[:, 1:]])
    return write_csv(path, ["y", "d", "z", "x1", "x2"], rows.tolist())


def test_an_outcome_near_the_float_limit_keeps_a_finite_spread(tmp_path):
    """With y x 1e300 the squared deviations of the replicates would overflow: the replicates
    are spread in their power-of-two frame, so every sd is still reported, the sd of y x 1 times
    1e300, beside the point and interval."""
    data, _ = generate(dgp_b(), 60, seed=0)
    reports = {}
    for scale in (1.0, 1e300):
        rows = np.column_stack([data.y * scale, data.d, data.z, data.x[:, 1:]])
        path = write_csv(tmp_path / f"b{scale}.csv", ["y", "d", "z", "x1", "x2"], rows.tolist())
        for argv in (["estimate", "--estimators", "++,xx,strat-3"], ["stratify", "--k", "3"]):
            out = tmp_path / f"{argv[0]}{scale}.json"
            assert main(argv + ["--input", path, "--b", "20", "--seed", "0", "--output", str(out)]) == 0
            report = load_report(out)
            results = report["results"] if argv[0] == "estimate" else [report["late"]]
            reports[argv[0], scale] = [(row["sd"], row.get("point", row.get("estimate"))) for row in results]
    for command in ("estimate", "stratify"):
        for (sd, point), (plain_sd, plain_point) in zip(reports[command, 1e300], reports[command, 1.0]):
            assert point == pytest.approx(plain_point * 1e300, rel=1e-9)
            assert sd is not None and sd == pytest.approx(plain_sd * 1e300, rel=1e-9)


def test_a_covariate_near_the_float_limit_keeps_xx_finite(tmp_path):
    """With x1 x 1e307 the complier-mean products w'x1 of two resamples would overflow: they are
    taken of x1 in its power-of-two frame, so xx reports the finite sd and interval of x1 x 1e306.
    Nothing overflows there, and the finiteness check's handled overflow warns nothing."""
    data, _ = generate(dgp_b(), 60, seed=0)
    reports = []
    for scale in (1e306, 1e307):
        rows = np.column_stack([data.y, data.d, data.z, data.x[:, 1] * scale, data.x[:, 2]])
        path = write_csv(tmp_path / f"x{scale}.csv", ["y", "d", "z", "x1", "x2"], rows.tolist())
        out = tmp_path / f"x{scale}.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            assert main(["estimate", "--estimators", "xx,strat-3", "--input", path, "--b", "20", "--seed", "0",
                         "--output", str(out)]) == 0
        assert [str(w.message) for w in caught if "overflow" in str(w.message)] == []
        reports.append(load_report(out))
    expected, got = reports
    assert got["failures"] == expected["failures"]
    for row, ref in zip(got["results"], expected["results"]):
        assert row["sd"] is not None and None not in row["ci"]
        for field in ("point", "sd", "ci"):
            assert row[field] == pytest.approx(ref[field], rel=1e-9, abs=0.0), (row["estimator"], field)


def test_an_outcome_near_the_float_limit_keeps_strat_finite(tmp_path):
    """With y x 1e307 the per-(stratum, arm) sums of y would overflow, and so would a resample's
    counts times y: the Wald ratios, linear in y, are taken of y in its power-of-two frame, so
    strat-3 reports ten times its fields at y x 1e306, with no overflow warning."""
    data, _ = generate(dgp_b(), 60, seed=0)
    rows = {}
    for scale in (1e306, 1e307):
        cols = np.column_stack([data.y * scale, data.d, data.z, data.x[:, 1:]])
        path = write_csv(tmp_path / f"y{scale}.csv", ["y", "d", "z", "x1", "x2"], cols.tolist())
        out = tmp_path / f"y{scale}.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            assert main(["estimate", "--estimators", "xx,strat-3", "--input", path, "--b", "20", "--seed", "0",
                         "--output", str(out)]) == 0
        assert [str(w.message) for w in caught if "overflow" in str(w.message)] == []
        rows[scale] = {row["estimator"]: row for row in load_report(out)["results"]}["strat-3"]
    for field in ("point", "sd", "ci"):
        got, ref = np.array(rows[1e307][field], dtype=float), 10.0 * np.array(rows[1e306][field], dtype=float)
        assert np.isfinite(got).all() and np.isfinite(ref).all(), field
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0), field


def scaled_run(folder, column: str, m: int):
    """The estimate (``++,x+,xx,strat-3``) and stratify (``--k 3``) reports, ``--b 20 --seed 0``,
    on the n = 60 design-B sample with ``column`` times 2^m, their input paths cleared, and the
    RuntimeWarnings the two runs raised."""
    data, _ = generate(dgp_b(), 60, seed=0)
    cols = {"y": data.y, "d": data.d, "z": data.z, "x1": data.x[:, 1], "x2": data.x[:, 2]}
    cols[column] = np.ldexp(cols[column], m)
    path = write_csv(folder / f"{column}{m}.csv", list(cols), np.column_stack(list(cols.values())).tolist())
    reports = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        for argv in (["estimate", "--estimators", "++,x+,xx,strat-3"], ["stratify", "--k", "3"]):
            out = folder / f"{column}{m}{argv[0]}.json"
            assert main(argv + ["--input", path, "--b", "20", "--seed", "0", "--output", str(out)]) == 0
            reports[argv[0]] = load_report(out)
            reports[argv[0]]["config"]["input"] = None
    return reports, [str(w.message) for w in caught]


def times_power_of_two(report: dict, m: int) -> dict:
    """``report`` with each number that is linear in y, its points, sds and interval bounds,
    times 2^m."""
    out = json.loads(json.dumps(report))
    for row in out["results"] if out["command"] == "estimate" else [out["late"], *out["strata"]]:
        for field in ("point", "estimate", "sd"):
            if row.get(field) is not None:
                row[field] = float(np.ldexp(row[field], m))
        row["ci"] = [None if v is None else float(np.ldexp(v, m)) for v in row["ci"]]
    return out


@pytest.fixture(scope="module")
def unit_run(tmp_path_factory):
    reports, caught = scaled_run(tmp_path_factory.mktemp("unit"), "y", 0)
    assert caught == []
    return reports


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(-1000, 1019))
@example(-1000)
@example(-540)
@example(900)
@example(1000)
@example(1018)
@example(1019)
def test_reports_follow_a_power_of_two_scale_of_the_data_bit_for_bit(tmp_path_factory, unit_run, m):
    """With y x 2^m, every number of the estimate and stratify reports that is linear in y is the
    unit run's times 2^m, bit for bit, and every other field is the unit run's: the complier
    means, stratum moments and replicate spreads and bounds are taken in exact power-of-two
    frames. Squares of y x 2^-540 would underflow, sums of y x 2^1018 overflow. With x1 x 2^m,
    |m| <= 1000, every field is the unit run's: no estimate depends on a covariate's scale.
    Neither run raises a RuntimeWarning."""
    runs = [("y", m)] + ([("x1", 0)] if abs(m) <= 1000 else [])
    for column, power in runs:
        reports, caught = scaled_run(tmp_path_factory.mktemp(column), column, m)
        assert caught == []
        for command, report in reports.items():
            assert json.dumps(report) == json.dumps(times_power_of_two(unit_run[command], power)), (column, command)


@pytest.mark.parametrize("m", [-540, 1018])
def test_the_point_and_sd_table_keeps_the_magnitude(tmp_path, capsys, m):
    """The stderr table prints each point and sd to four significant digits, so a run with
    y x 2^m neither prints hundreds of digits nor rounds every cell to zero."""
    reports, _ = scaled_run(tmp_path, "y", m)
    lines = capsys.readouterr().err.splitlines()
    for name in ("point", "sd"):
        cells = next(line for line in lines if line.startswith(name)).split()[1:]
        expected = [row[name] for row in reports["estimate"]["results"]]
        assert all(len(cell) <= 11 for cell in cells), cells  # as in -1.234e+300
        assert [float(cell) for cell in cells] == pytest.approx(expected, rel=5e-4, abs=0.0)


@pytest.mark.parametrize("n, k", [(120, 6), (120, 8), (200, 10), (60, 4)])
def test_the_stratify_late_interval_is_the_estimate_strat_interval_bit_for_bit(tmp_path, n, k):
    """stratify bootstraps tau* as estimate's strat-K, over every identified resample: its
    point, sd, interval and failures equal estimate's bit for bit, though some resamples merge
    to another stratum count, which only the per-stratum intervals leave out."""
    path = export_design_b(tmp_path / "b.csv", n=n, seed=0)
    common = ["--input", path, "--b", "100", "--seed", "0"]
    assert main(["stratify", "--k", str(k), *common, "--output", str(tmp_path / "s.json")]) == 0
    assert main(["estimate", "--estimators", f"strat-{k}", *common, "--output", str(tmp_path / "e.json")]) == 0
    strata, estimate = load_report(tmp_path / "s.json"), load_report(tmp_path / "e.json")
    (row,) = estimate["results"]
    assert strata["late"] == {"estimate": row["point"], "sd": row["sd"], "ci": row["ci"]}
    assert strata["failures"] == {"strat": estimate["failures"][f"strat-{k}"]}
    assert strata["strata_kept"] < 100


def test_stratify_leaves_resamples_that_merged_apart_out_of_the_strata_intervals(tmp_path):
    """At k = 8 on the n = 120 sample, 66 of 100 resamples merge to another stratum count than
    the point's. Too few keep it for the per-stratum intervals, which are null beside the kept
    count; the LATE interval takes every identified resample, and the run succeeds."""
    path = export_design_b(tmp_path / "b.csv", n=120, seed=0)
    out = tmp_path / "s.json"
    assert main(["stratify", "--input", path, "--k", "8", "--b", "100", "--seed", "0", "--output", str(out)]) == 0
    report = load_report(out)
    assert list(report) == ["command", "config", "late", "strata", "warnings", "failures", "strata_kept"]
    assert report["strata_kept"] == 34 and report["failures"] == {"strat": 0}
    assert [row["ci"] for row in report["strata"]] == [[None, None]] * 8
    assert None not in [report["late"]["sd"], *report["late"]["ci"]]


def test_a_resample_effect_past_the_float_range_is_left_out_and_counted(tmp_path):
    """With y x 1e307, one resample's stratum-3 effect lies past the float range. It is left
    out of the per-stratum intervals and counted, beside the two resamples that merged apart:
    no bound is null from NaN arithmetic, and no RuntimeWarning fires."""
    data, _ = generate(dgp_b(), 60, seed=0)
    rows = np.column_stack([data.y * 1e307, data.d, data.z, data.x[:, 1:]])
    path = write_csv(tmp_path / "b.csv", ["y", "d", "z", "x1", "x2"], rows.tolist())
    out = tmp_path / "s.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        assert main(["stratify", "--input", path, "--k", "3", "--b", "20", "--seed", "0",
                     "--output", str(out)]) == 0
    assert caught == []
    report = load_report(out)
    assert report["strata_kept"] == 17 and report["failures"] == {"strat": 0}
    numbers = [report["late"]["sd"], *report["late"]["ci"], *(v for row in report["strata"] for v in row["ci"])]
    assert None not in numbers


def test_estimate_and_stratify_load_no_numpy_ma(tmp_path):
    """Intervals and strata cuts are read off one sort, not np.quantile, whose first call
    imports numpy.ma (about 1 MiB resident). Other tests call np.quantile: a fresh process."""
    path = export_design_b(tmp_path / "b.csv", n=400, seed=0)
    src = str(Path(ivlate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    common = ["--b", "10", "--input", path, "--output", str(tmp_path / "r.json")]
    code = (
        "import sys; from ivlate.cli import main\n"
        "for argv in (['estimate', '--estimators', '++,xx,strat-3'], ['stratify', '--k', '3']):\n"
        f"    assert main(argv + {common!r}) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def counting_starts(monkeypatch):
    """Record the start of every logistic IRLS run."""
    starts = []
    original = complier._irls_batch

    def run(z, x, whiten, batch_starts, counts=None):
        starts.extend(batch_starts)
        return original(z, x, whiten, batch_starts, counts)

    monkeypatch.setattr(complier, "_irls_batch", run)
    return starts


def assert_warm_starts(starts, data, b):
    """The point sample is fitted once, from zero, and each of the b resamples starts from its
    coefficients."""
    assert starts[0] is None and len(starts) == b + 1
    point = fit_propensity(data, "logistic").coefficients
    assert all(np.array_equal(start, point) for start in starts[1:])


def test_estimate_bootstrap_warm_starts_match_cold_fits(tmp_path, monkeypatch):
    path = export_design_b(tmp_path / "b.csv")
    tags = ["++", "xx", "strat-5"]
    # ``bootstrap`` hands each resample's rows to the pipeline, which fits them from zero.
    cold = {tag: bootstrap(ingest_csv(path), pipeline_for(tag)[0], b=40, seed=5) for tag in tags}
    starts = counting_starts(monkeypatch)
    out = tmp_path / "r.json"
    assert main(["estimate", "--input", path, "--estimators", ",".join(tags), "--b", "40",
                 "--seed", "5", "--output", str(out)]) == 0
    monkeypatch.undo()
    assert_warm_starts(starts, ingest_csv(path), 40)
    report = load_report(out)
    for row in report["results"]:
        boot = cold[row["estimator"]]
        assert row["point"] == boot.point[0]
        assert row["sd"] == pytest.approx(boot.se[0], rel=1e-6, abs=0.0)
        assert row["ci"] == pytest.approx([boot.ci_lower[0], boot.ci_upper[0]], rel=1e-6, abs=0.0)
        assert report["failures"][row["estimator"]] == boot.b_requested - boot.b_effective


def test_stratify_bootstrap_warm_starts_match_cold_fits(tmp_path, monkeypatch):
    path = export_design_b(tmp_path / "b.csv")
    data = ingest_csv(path)

    def cold_pipeline(sample):
        res = stratified_late(sample, fit_propensity(sample, "logistic"), 4)
        return np.concatenate([[res.tau_star], res.beta_star])

    cold = bootstrap(data, cold_pipeline, b=40, seed=5)
    starts = counting_starts(monkeypatch)
    out = tmp_path / "s.json"
    assert main(["stratify", "--input", path, "--k", "4", "--b", "40", "--seed", "5",
                 "--output", str(out)]) == 0
    monkeypatch.undo()
    assert_warm_starts(starts, ingest_csv(path), 40)
    report = load_report(out)
    assert report["config"]["k_effective"] == 4
    assert report["late"]["estimate"] == cold.point[0]
    assert report["late"]["sd"] == pytest.approx(cold.se[0], rel=1e-6, abs=0.0)
    lows = [report["late"]["ci"][0]] + [row["ci"][0] for row in report["strata"]]
    assert lows == pytest.approx(cold.ci_lower.tolist(), rel=1e-6, abs=0.0)
    assert report["failures"]["strat"] == cold.b_requested - cold.b_effective


def test_help_exits_cleanly():
    assert main(["--help"]) == 0


# ---------------------------------------------------------------------------
# Malformed input never escapes as a traceback
# ---------------------------------------------------------------------------


FUZZ_HEADERS = ("y,d,z,x1", "x1,z,y,d", "y,d,z", "y,d,z,x1,x1", "y,d,w1", "y,d", "")
NUMBERS = ("0", "1", "0.25", "-1.5", "3")
DIRTY_CELLS = ("2", "-1", "0.5", "nan", "inf", "-inf", "", "abc", '"1"', '"0', '1"', "\x00",
               "1e308", " 1 ", "\ufeff1")
STRAY_BYTES = (b"\x00", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\r", b'"', b",", b"\n")


@st.composite
def malformed_csvs(draw):
    """A well-formed CSV, then up to three defects: a dirty cell, a ragged row, a stray byte."""
    header = draw(st.sampled_from(FUZZ_HEADERS))
    names = header.split(",")
    rows = [
        [draw(st.sampled_from(("0", "1") if name in ("d", "z") else NUMBERS)) for name in names]
        for _ in range(draw(st.integers(0, 40)))
    ]
    defects = draw(st.lists(st.sampled_from(("cell", "ragged", "byte")), max_size=3))
    for defect in defects:
        row = draw(st.sampled_from(rows)) if rows else []
        if defect == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(DIRTY_CELLS))
        elif defect == "ragged" and row:
            row.append("1") if draw(st.booleans()) else row.pop()
    raw = "".join(",".join(line) + "\n" for line in [names, *rows]).encode("utf-8")
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    for _ in range(defects.count("byte")):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from(STRAY_BYTES)) + raw[at:]
    return raw


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(("estimate", "stratify")), malformed_csvs())
@example("estimate", b"y,d,z\n" + b"1" * 131_073 + b",0,1\n")
@example("stratify", b"y,d,z,x1\n" + b"1" * 131_073 + b",0,1,0\n")
@example("estimate", b"")
@example("stratify", b"y,d,z,x1\n")
@example("estimate", b'y,d,z\n1,0,"1\n0,1,0\n')
@example("estimate", b"y,d,z\n\xff,0,1\n")
def test_malformed_csv_gives_an_exit_code_and_strict_json(tmp_path_factory, command, raw):
    folder = tmp_path_factory.mktemp("fuzz")
    path, out = folder / "data.csv", folder / "report.json"
    path.write_bytes(raw)
    extra = ["--k", "2"] if command == "stratify" else []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # clipped propensities
        code = main([command, "--input", str(path), "--b", "10", "--seed", "0",
                     "--output", str(out), *extra])
    assert code in (0, 1, 2, 3)
    if code == 0:
        load_report(out)

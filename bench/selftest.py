"""Tests of the benchmark itself (not of ivlate).

Run from the repository root with either of:

    python3 bench/selftest.py
    python3 -m pytest -q bench/selftest.py

The file is not named ``test_*.py`` so the package's own test run does not
collect it; the smoke test starts the benchmark for every workload.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span(0, None, "report", 0.0, 10.0),
        Span(1, 0, "complier.fit_propensity", 1.0, 4.0),
        Span(2, 1, "linalg.least_squares", 2.0, 3.0),
        Span(3, 0, "estimators.interacted_2sls", 5.0, 9.0),
        Span(4, 3, "linalg.least_squares", 4.5, 6.0),   # only [5, 6] lies inside its parent
        Span(5, None, "setup", 20.0, 30.0),
        Span(6, 5, "montecarlo.generate", 21.0, 25.0),
        Span(7, 5, "montecarlo.generate", 23.0, 27.0),  # overlaps its sibling
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.5, 5: 4.0, 6: 4.0, 7: 4.0}
    spans[2].attrs.update(flops=10, condition=3.0)
    spans[4].attrs.update(flops=5, condition=7.0)
    layers = tracing.layer_metrics(spans)
    assert layers["linalg.least_squares.calls"] == 2
    assert layers["linalg.least_squares.self_s"] == 2.5
    assert layers["linalg.least_squares.flops_computed"] == 15
    assert layers["linalg.least_squares.max_condition"] == 7.0
    assert layers["complier.fit_propensity.irls_iters"] == 1
    assert layers["complier.fit_propensity.self_s"] == 2.0
    assert layers["estimators.calls"] == 1 and layers["estimators.self_s"] == 3.0
    assert layers["montecarlo.generate.calls"] == 2
    assert layers["inference.bootstrap.useful_ratio"] == 0.0   # layer did not run


def test_wrappers_cover_every_binding_site_and_are_removed():
    import ivlate
    import ivlate.inference
    import ivlate.montecarlo

    original = ivlate.linalg.least_squares
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert ivlate.montecarlo.least_squares is not original
        assert ivlate.inference.substream is not ivlate.streams.substream.__wrapped__
        assert ivlate.least_squares.__wrapped__ is original
        with tracer.span("report"):
            ivlate.run_study(ivlate.dgp_b(), ["++", "strat-5"], reps=1, n=400, seed=0)
    assert ivlate.montecarlo.least_squares is original
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["montecarlo.generate.calls"] == 1
    assert layers["streams.substream.calls"] == 3      # covariates, instrument, compliance
    assert layers["stratify.partition_by_propensity.calls"] == 1
    assert layers["complier.fit_propensity.calls"] == 2  # logistic + saturated
    assert layers["complier.fit_propensity.irls_iters"] >= 1
    assert tracing.partition_violations(tracer.spans) == 0


def test_gate_rejects_perturbed_outputs():
    reference = gate.load_reference()
    for name, number in (("study-b", ("bias", "strat-15", 0)), ("cli-estimate", ("results", "xx", "ci"))):
        wl = workloads.get(name)
        good = reference[name]["0"]["output"]
        problems, note = gate.check(wl, 0, copy.deepcopy(good), reference)
        assert problems == [] and "reference check" in note and "skipped" not in note

        close = copy.deepcopy(good)
        bad = copy.deepcopy(good)
        key, tag, index = number
        if name == "study-b":
            close[key][tag][index] *= 1 + 1e-9
            bad[key][tag][index] *= 1 + 1e-4
        else:
            close[key][tag][index][1] *= 1 + 1e-9
            bad[key][tag][index][1] *= 1 + 1e-4
        assert gate.check(wl, 0, close, reference)[0] == []
        assert gate.check(wl, 0, bad, reference)[0]

        miscounted = copy.deepcopy(good)
        miscounted["failures"][wl.tags[0]] += 1
        assert gate.check(wl, 0, miscounted, reference)[0]

        # An unrecorded seed skips the reference but keeps the invariants.
        problems, note = gate.check(wl, 12345, copy.deepcopy(bad), reference)
        assert problems == [] and "skipped" in note
    broken = copy.deepcopy(reference["cli-estimate"]["0"]["output"])
    broken["results"]["++"]["ci"] = [2.0, 1.0]
    assert gate.check(workloads.get("cli-estimate"), 7, broken, reference)[0]


def test_names_and_units_are_well_formed():
    doc = definition()
    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
    computed = set(tracing.layer_metrics([])) | {"trace.overhead_ratio", "failed_frac"}
    assert computed == {m["name"] for m in doc["per_layer"]}
    assert set(tracing.COUNT_METRICS) <= computed


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_smoke_runs_every_workload():
    doc = definition()
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, doc["end_to_end"]), (1, doc["per_layer"])):
            proc = _run(["--smoke", "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in wanted]
            assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in wanted)
            assert "reference check skipped for seed 3" in proc.stdout


def test_refuses_to_run_without_the_program():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(BENCH_DIR, os.path.join(scratch, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "study-b", "--seed", "0", "--seconds", "1"], cwd=scratch)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)

"""The benchmark's tracing hooks and correctness gate read what the program returns.

``bench/tracing.py`` wraps the functions it names in ``TARGETS`` and reads
fields of their arguments and results in ``HOOKS``. Deleting or renaming
one of those would otherwise break only the benchmark. Here a small
study, one ``estimate`` run, one ``stratify`` run and one bootstrap run
under its tracer must call every hooked function, with no span recording
an error. Each
workload, run at full size on the reference seeds, must also pass
``bench/gate.py`` against ``bench/reference.json``: its gated numbers
and the fields ``bench/workloads.py`` reads are unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from _helpers import simulate_iv

import ivlate.cli
import ivlate.inference
import ivlate.montecarlo
from ivlate.montecarlo import dgp_b, generate, pipeline_for

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_reads_what_its_function_returns(tmp_path, monkeypatch):
    tracing = load_bench(monkeypatch, "tracing")
    data, _ = generate(dgp_b(), 400, seed=3)
    csv_path = tmp_path / "data.csv"
    columns = np.column_stack([data.y, data.d, data.z, data.x[:, 1:]])
    np.savetxt(csv_path, columns, delimiter=",", header="y,d,z,x1,x2", comments="")

    # Entry points are looked up on their modules, where the tracer rebinds them.
    with tracing.installed(tracing.Tracer()) as tracer:
        ivlate.montecarlo.run_study(dgp_b(), ["++", "x+", "xx", "strat-2", "beta"], reps=2, n=400, seed=1)
        args = ["estimate", "--input", str(csv_path), "--estimators", "++,x+,xx,strat-2",
                "--b", "10", "--output", str(tmp_path / "report.json")]
        assert ivlate.cli.main(args) == 0
        args = ["stratify", "--input", str(csv_path), "--k", "3", "--b", "10",
                "--output", str(tmp_path / "strata.json")]
        assert ivlate.cli.main(args) == 0
        ivlate.inference.bootstrap(simulate_iv(4, n=200), pipeline_for("++")[0], b=10)

    called = {span.name for span in tracer.spans}
    assert set(tracing.HOOKS) | {"montecarlo.run_study", "cli.main"} <= called
    errors = [(span.name, span.attrs["error"]) for span in tracer.spans if "error" in span.attrs]
    assert errors == []
    for span in tracer.spans:
        if span.name in tracing.HOOKS:
            assert span.attrs, span.name  # its hook ran and recorded counts


@pytest.mark.filterwarnings("ignore:.*clipped:RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["study-b", "cli-estimate"])
def test_workloads_pass_the_correctness_gate_on_the_reference_seeds(tmp_path, monkeypatch, name, seed):
    workloads, gate = load_bench(monkeypatch, "workloads"), load_bench(monkeypatch, "gate")
    wl = workloads.get(name)
    entry = workloads.Entry(wl, seed, workloads.write_inputs(wl, seed, str(tmp_path)), str(tmp_path))
    entry.setup()
    problems, note = gate.check(wl, seed, entry.output(entry.call()), gate.load_reference())
    assert problems == []
    assert note == f"reference check against seed {seed} at rtol {gate.RTOL}"

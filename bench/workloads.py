"""Workload definitions shared by ``run.py`` and its run processes.

A workload fixes the program's input size (design, tags, n, reps, b). The
seed argument picks the random inputs; the program sees only what
``write_inputs`` generates from it. The entry call is ``run_study(...)`` for
study workloads and ``ivlate.cli.main(["estimate", ...])`` for CLI workloads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "study" or "cli"
    design: str               # bundled design name the inputs come from
    tags: tuple[str, ...]
    n: int
    reps: int = 0             # study replicates
    b: int = 0                # bootstrap replicates

    def size(self) -> dict:
        """The input size a reference value is valid for."""
        return {"n": self.n, "reps": self.reps, "b": self.b}

    def attempted_replicates(self) -> int:
        return (self.reps if self.kind == "study" else self.b) * len(self.tags)


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-b", "study", "B", ("++", "x+", "xx", "strat-5", "strat-10", "strat-15"),
                 n=1000, reps=25),
        Workload("cli-estimate", "cli", "B", ("++", "x+", "xx", "strat-5"), n=10_000, b=20),
    )
}

# Smoke sizes: every layer still runs, in a fraction of a second per call.
SMOKE = {
    "study-b": {"reps": 2},
    "cli-estimate": {"n": 2000, "b": 10},
}


def get(name: str, smoke: bool = False) -> Workload:
    wl = WORKLOADS[name]
    return replace(wl, **SMOKE[name]) if smoke else wl


def write_inputs(wl: Workload, seed: int, workdir: str) -> dict:
    """Write the workload's input files into ``workdir`` and return their paths.

    CLI workloads read an n-row CSV drawn from the design with
    ``ivlate.generate``. Floats go through ``repr(float(v))`` because numpy 2
    scalar reprs (``np.float64(...)``) are not parseable.
    """
    if wl.kind == "study":
        return {}
    import ivlate

    data, _ = ivlate.generate(ivlate.named_dgp(wl.design), wl.n, seed)
    cov = data.x[:, 1:]
    header = ["y", "d", "z"] + [f"x{j + 1}" for j in range(cov.shape[1])]
    path = os.path.join(workdir, f"{wl.name}.csv")
    cols = np.column_stack([data.y, data.d, data.z, cov]).tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in cols:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
    return {"csv": path}


class Entry:
    """Set-up and entry call of one workload, inside a run process."""

    def __init__(self, wl: Workload, seed: int, inputs: dict, workdir: str):
        self.wl = wl
        self.seed = seed
        self.inputs = inputs
        self.report_path = os.path.join(workdir, f"report-{os.getpid()}.json")

    def setup(self) -> None:
        """Build what the entry call needs: the design and its truth, or the argv.

        A study user builds the design and looks up its truth before
        replicating, so set-up does too.
        """
        import ivlate
        import ivlate.cli
        from ivlate.montecarlo import study_truth

        self.ivlate = ivlate
        wl = self.wl
        if wl.kind == "study":
            self.spec = ivlate.named_dgp(wl.design)
            self.truth = {
                tag: study_truth(self.spec, ivlate.pipeline_for(tag)[1]) for tag in wl.tags
            }
        else:
            self.argv = [
                "estimate", "--input", self.inputs["csv"], "--estimators", ",".join(wl.tags),
                "--b", str(wl.b), "--seed", str(self.seed), "--output", self.report_path,
            ]

    def call(self):
        """The timed entry call, looked up at call time so traced runs see the wrappers."""
        wl = self.wl
        if wl.kind == "study":
            return self.ivlate.run_study(self.spec, list(wl.tags), reps=wl.reps, n=wl.n, seed=self.seed)
        return self.ivlate.cli.main(self.argv)

    def output(self, result) -> dict:
        """The numbers the correctness gate checks, as plain JSON data."""
        if self.wl.kind == "study":
            return {
                "truth": {t: [float(v) for v in result.truth[t]] for t in self.wl.tags},
                "bias": {t: [float(v) for v in result.bias[t]] for t in self.wl.tags},
                "sd": {t: [float(v) for v in result.sd[t]] for t in self.wl.tags},
                "failures": {t: int(result.failures[t]) for t in self.wl.tags},
            }
        if result != 0:
            raise RuntimeError(f"ivlate.cli.main returned exit code {result}")
        with open(self.report_path, encoding="utf-8") as handle:
            report = json.loads(handle.read())
        return {
            "results": {
                row["estimator"]: {"point": row["point"], "sd": row["sd"], "ci": row["ci"]}
                for row in report["results"]
            },
            "failures": report["failures"],
        }

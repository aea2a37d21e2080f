"""The README's library quick tour runs as written, every exported name
resolves, and the README names every field the oracle returns."""

import dataclasses
import re
from pathlib import Path

import numpy as np

import ivlate
from ivlate.montecarlo import OracleEstimands, dgp_b, generate

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_tour_runs_on_a_generated_sample():
    sample, _ = generate(dgp_b(), 1000, seed=5)
    names = {"y": sample.y, "d": sample.d, "z": sample.z, "x": sample.x}
    exec(compile(quick_tour(), str(README), "exec"), names)
    assert len(names["bins"]) == names["strat"].partition.k
    assert np.isfinite(names["tau_xx"]) and names["boot"].b_effective > 0
    assert names["oracle"].plim_xx_kappa is not None


def test_every_exported_name_resolves():
    assert sorted(set(ivlate.__all__)) == sorted(ivlate.__all__)
    assert [name for name in ivlate.__all__ if not hasattr(ivlate, name)] == []


def test_readme_names_every_oracle_field():
    text = README.read_text(encoding="utf-8")
    assert [f.name for f in dataclasses.fields(OracleEstimands) if f"`{f.name}`" not in text] == []

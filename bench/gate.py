"""Correctness gate for one workload's output.

Every seed gets the invariant checks that hold for any seed: finite
outputs, failures within what was attempted, ``ci_low <= ci_high``. Seeds
with a recorded reference (``reference.json``, recorded with
``run.py --record-reference`` at the commit that defined the benchmark) are
also compared number by number at relative tolerance ``RTOL``; failure
counts must match exactly. Stratum counts (``k_effective <= k``) are checked
in traced runs, where partitions are visible.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-6
ATOL = 1e-12
REFERENCE_SEEDS = (0, 1)   # the default seed and one held-out seed
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def invariants(wl, output: dict) -> list[str]:
    problems = []
    if set(output["failures"]) != set(wl.tags):
        problems.append(f"failures are keyed by {sorted(output['failures'])}, expected {sorted(wl.tags)}")
    per_tag = wl.reps if wl.kind == "study" else wl.b
    for tag, count in output["failures"].items():
        if not isinstance(count, int) or not 0 <= count <= per_tag:
            problems.append(f"{tag}: {count!r} failures out of {per_tag} attempted")
    if wl.kind == "study":
        numbers = {f"{key}[{tag}]": output[key][tag] for key in ("truth", "bias", "sd") for tag in wl.tags}
    else:
        if set(output["results"]) != set(wl.tags):
            problems.append(f"report estimators {sorted(output['results'])}, expected {sorted(wl.tags)}")
        numbers = {}
        for tag, row in output["results"].items():
            numbers.update({f"{tag}.point": [row["point"]], f"{tag}.sd": [row["sd"]], f"{tag}.ci": row["ci"]})
            if not row["ci"][0] <= row["ci"][1]:
                problems.append(f"{tag}: ci_low {row['ci'][0]!r} > ci_high {row['ci'][1]!r}")
    for name, values in numbers.items():
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"{name} is not finite: {values!r}")
    return problems


def compare(expected, actual, path: str = "output") -> list[str]:
    """Numbers within RTOL, integers and everything else exactly equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} differ from reference {sorted(expected)}"]
        return [p for key in expected for p in compare(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} differs from reference {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual)) for p in compare(e, a, f"{path}[{i}]")]
    # The CLI writes floats with %.17g, so an integral estimate parses as an int.
    if _is_number(expected) and _is_number(actual) and float in (type(expected), type(actual)):
        if abs(actual - expected) <= RTOL * max(abs(expected), abs(actual)) + ATOL:
            return []
        return [f"{path}: {actual!r} differs from reference {expected!r} beyond rtol {RTOL}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} differs from reference {expected!r}"]
    return []


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check(wl, seed: int, output: dict, reference: dict) -> tuple[list[str], str]:
    """Return (problems, note); the gate passes when ``problems`` is empty."""
    problems = invariants(wl, output)
    entry = reference.get(wl.name, {}).get(str(seed))
    if entry is None or entry["size"] != wl.size():
        return problems, f"reference check skipped for seed {seed}: no reference at this size; invariants checked"
    problems += compare(entry["output"], output)
    return problems, f"reference check against seed {seed} at rtol {RTOL}"

"""The README's library quick tour runs as written, every exported name
resolves, the README names every field the oracle returns, the package
defines no name that its code never reads and no parameter that its function
never reads, and the package's names that the docs cite exist."""

import ast
import dataclasses
import importlib
import json
import re
from pathlib import Path

import numpy as np

import ivlate
from ivlate.montecarlo import OracleEstimands, dgp_b, generate

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SOURCE = Path(ivlate.__file__).resolve().parent
MODULES = {"ivlate": ivlate} | {path.stem: importlib.import_module(f"ivlate.{path.stem}")
                                for path in sorted(SOURCE.glob("*.py")) if path.stem != "__init__"}


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


def unread_definitions(source: Path, exported) -> list[str]:
    """Module-level names and methods defined in the modules under ``source`` that no code
    there reads as a name or an attribute (docstrings do not count), other than the
    ``exported`` names, the public methods of exported classes, and dunders."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(source.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                names = []
            unread += [f"{module}.{name}" for name in names
                       if name not in read and name not in exported and not name.startswith("__")]
            methods = [item.name for item in node.body if isinstance(item, ast.FunctionDef)] \
                if isinstance(node, ast.ClassDef) else []
            unread += [f"{module}.{node.name}.{name}" for name in methods
                       if name not in read and not name.startswith("__")
                       and not (node.name in exported and not name.startswith("_"))]
    return unread


def test_every_definition_in_the_package_is_read_or_exported():
    """Code that nothing calls leaves ``src/``; a reference kept for tests lives in the tests."""
    assert unread_definitions(SOURCE, set(ivlate.__all__)) == []


def unread_parameters(source: Path) -> list[str]:
    """Parameters of the module-level functions and methods defined in the modules under
    ``source`` that the function never reads, a nested function in it included. Nested functions
    and lambdas are not checked themselves: their caller fixes their signature."""
    unread = []
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        funcs += [(f"{node.name}.{item.name}", item) for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, ast.FunctionDef)]
        for name, func in funcs:
            args = func.args
            params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a]
            read = {node.id for node in ast.walk(func) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{name}({param})" for param in params if param not in read]
    return unread


def test_every_parameter_in_the_package_is_read():
    """A parameter that nothing reads leaves its signature, and its callers stop passing it."""
    assert unread_parameters(SOURCE) == []


def overflow_errstates(source: Path) -> list[str]:
    """The module-level functions in the modules under ``source`` that call ``np.errstate`` with
    an ``over`` setting, once per call, in source order."""
    found = []
    for path in sorted(source.glob("*.py")):
        for func in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(func, ast.FunctionDef):
                found += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                          and node.func.attr == "errstate" and any(kw.arg == "over" for kw in node.keywords)]
    return found


def test_only_the_finiteness_check_and_the_strata_effects_ignore_overflow():
    """A sum that could leave the float range is taken in an exact power-of-two frame
    (``linalg.exact_scale``), not computed, tested and redone: only the finiteness check's
    shortcut sum and a resample's strata effects, which may lie past the float range, ignore
    an overflow."""
    assert overflow_errstates(SOURCE) == ["linalg.check_finite", "stratify.stratified"]


def test_the_cli_imports_no_private_name_of_the_package():
    """The command line reaches the package through its public names only."""
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "ivlate")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def has_path(obj, parts) -> bool:
    """Whether ``obj`` has the attribute path ``parts``; a dataclass's field may end it."""
    if not parts:
        return True
    if hasattr(obj, parts[0]):
        return has_path(getattr(obj, parts[0]), parts[1:])
    return len(parts) == 1 and parts[0] in getattr(obj, "__dataclass_fields__", {})


def stale(names) -> list[str]:
    """The ``names`` that cite the package but resolve to nothing in it: a private name, or a
    dotted one whose first part is a module of the package or a name bound in one, that is no
    attribute path there. A dotted name whose first part the package does not bind
    (``dataclasses.replace``) cites another package."""
    out = []
    for name in names:
        head, *rest = name.split(".")
        found = [MODULES[head]] if head in MODULES else [vars(m)[head] for m in MODULES.values() if head in vars(m)]
        if (found or head.startswith("_")) and not any(has_path(obj, rest) for obj in found):
            out.append(name)
    return out


def test_every_private_or_dotted_name_in_a_docstring_resolves():
    cited = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
                cited += [name for name in re.findall(r"``([A-Za-z_][\w.]*)``", ast.get_docstring(node))
                          if name.startswith("_") or "." in name]
    assert len(cited) > 30
    assert stale(cited) == []


def test_every_module_name_in_the_readme_resolves():
    """Bench metric names (``linalg.least_squares.max_condition``) read like names, and are not."""
    metrics = {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    cited = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text(encoding="utf-8"))
    cited = [name for name in cited if name.split(".")[0] in MODULES and name not in metrics]
    assert len(cited) > 10
    assert stale(cited) == []

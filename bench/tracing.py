"""Spans around ivlate's public functions, recorded from outside the package.

``installed(tracer)`` rebinds each traced function at every module binding
site (``ivlate.linalg.least_squares`` is also ``ivlate.montecarlo.least_squares``,
``substream`` is also ``ivlate.inference.substream``) to a wrapper that records
a span: name, start, end, parent id, plus counts read from the arguments and
the return value. Spans stay in memory; the run process writes them to a
trace file when it ends. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

# Layer (ivlate module) -> traced public functions.
TARGETS = {
    "linalg": ("least_squares",),
    "estimators": (
        "additive_2sls", "interacted_2sls", "interacted_additive_2sls",
        "partially_interacted_2sls", "generalized_additive_2sls", "interacted_ols",
        "stratum_wald",
    ),
    "complier": ("fit_propensity", "centered_interacted_2sls"),
    "stratify": ("partition_by_propensity", "stratified_late"),
    "inference": ("bootstrap",),
    "montecarlo": ("generate", "run_study"),
    "streams": ("substream",),
    "cli": ("ingest_csv", "main"),
}

# Per-layer metrics that are pure functions of the seed and the workload size;
# every other per-layer metric is a time.
COUNT_METRICS = (
    "linalg.least_squares.calls",
    "linalg.least_squares.flops_computed",
    "linalg.least_squares.max_condition",
    "estimators.calls",
    "complier.fit_propensity.calls",
    "complier.fit_propensity.irls_iters",
    "complier.fit_propensity.unique_ratio",
    "complier.clipped_units",
    "complier.nonconverged",
    "stratify.partition_by_propensity.calls",
    "stratify.merged_strata",
    "inference.bootstrap.replicates",
    "inference.bootstrap.useful_ratio",
    "montecarlo.generate.calls",
    "streams.substream.calls",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(span.attrs, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# Counts read from arguments and return values
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _least_squares(attrs, args, kwargs, fit):
    x = _arg(args, kwargs, 1, "regressors")
    shape = getattr(x, "shape", None) or (len(x),)
    n, q = shape[0], (shape[1] if len(shape) > 1 else 1)
    attrs["flops"] = 2 * n * q * q
    attrs["condition"] = fit.condition_estimate


def _fit_propensity(attrs, args, kwargs, prop):
    data = _arg(args, kwargs, 0, "data")
    digest = hashlib.blake2b(digest_size=16)
    for arr in (data.y, data.d, data.z, data.x):
        digest.update(arr.tobytes())
    attrs["dataset"] = digest.hexdigest()
    attrs["clipped"] = int(prop.n_clipped)
    attrs["nonconverged"] = int(not prop.converged)


def _partition(attrs, args, kwargs, part):
    attrs["merged"] = int(part.merged_from - part.k)
    attrs["k_ok"] = bool(1 <= part.k <= part.merged_from)


def _bootstrap(attrs, args, kwargs, boot):
    attrs["b_requested"] = int(boot.b_requested)
    attrs["b_effective"] = int(boot.b_effective)


def _ingest(attrs, args, kwargs, data):
    attrs["rows"] = int(data.n)


HOOKS = {
    "linalg.least_squares": _least_squares,
    "complier.fit_propensity": _fit_propensity,
    "stratify.partition_by_propensity": _partition,
    "inference.bootstrap": _bootstrap,
    "cli.ingest_csv": _ingest,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function at every ``ivlate`` binding site, then restore."""
    for layer in TARGETS:
        importlib.import_module(f"ivlate.{layer}")
    package = [m for name, m in sys.modules.items() if name == "ivlate" or name.startswith("ivlate.")]
    patched = []
    try:
        for layer, names in TARGETS.items():
            home = sys.modules[f"ivlate.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = tracer.wrap(f"{layer}.{fname}", original, HOOKS.get(f"{layer}.{fname}"))
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def subtree(spans: list[Span], roots: set[int]) -> list[Span]:
    """The spans under the given root span ids (roots included)."""
    root_of: dict[int, int] = {}
    for span in spans:  # a parent is always recorded before its children
        root_of[span.id] = span.id if span.parent is None else root_of[span.parent]
    return [s for s in spans if root_of[s.id] in roots]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times over all recorded spans.

    A metric of a layer that did not run reads 0, ratios included.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum((own[s.id] for s in named(name)), 0.0)

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    lsq = named("linalg.least_squares")
    fits = named("complier.fit_propensity")
    fit_ids = {s.id for s in fits}
    estimators = [s for s in spans if s.name.startswith("estimators.")]
    b_requested = total("inference.bootstrap", "b_requested")
    ingest = named("cli.ingest_csv")
    ingest_wall = sum(s.end - s.start for s in ingest)
    return {
        "linalg.least_squares.calls": len(lsq),
        "linalg.least_squares.self_s": self_s("linalg.least_squares"),
        "linalg.least_squares.flops_computed": total("linalg.least_squares", "flops"),
        "linalg.least_squares.max_condition": max((s.attrs.get("condition", 0.0) for s in lsq), default=0.0),
        "estimators.calls": len(estimators),
        "estimators.self_s": sum((own[s.id] for s in estimators), 0.0),
        "complier.fit_propensity.calls": len(fits),
        "complier.fit_propensity.self_s": self_s("complier.fit_propensity"),
        "complier.fit_propensity.irls_iters": sum(1 for s in lsq if s.parent in fit_ids),
        "complier.fit_propensity.unique_ratio": (
            len({s.attrs.get("dataset") for s in fits}) / len(fits) if fits else 0.0
        ),
        "complier.clipped_units": total("complier.fit_propensity", "clipped"),
        "complier.nonconverged": total("complier.fit_propensity", "nonconverged"),
        "complier.centered_interacted_2sls.self_s": self_s("complier.centered_interacted_2sls"),
        "stratify.partition_by_propensity.calls": len(named("stratify.partition_by_propensity")),
        "stratify.partition_by_propensity.self_s": self_s("stratify.partition_by_propensity"),
        "stratify.merged_strata": total("stratify.partition_by_propensity", "merged"),
        "stratify.stratified_late.self_s": self_s("stratify.stratified_late"),
        "inference.bootstrap.self_s": self_s("inference.bootstrap"),
        "inference.bootstrap.replicates": b_requested,
        "inference.bootstrap.useful_ratio": (
            total("inference.bootstrap", "b_effective") / b_requested if b_requested else 0.0
        ),
        "montecarlo.generate.calls": len(named("montecarlo.generate")),
        "montecarlo.generate.self_s": self_s("montecarlo.generate"),
        "montecarlo.run_study.self_s": self_s("montecarlo.run_study"),
        "streams.substream.calls": len(named("streams.substream")),
        "streams.substream.self_s": self_s("streams.substream"),
        "cli.ingest_csv.self_s": self_s("cli.ingest_csv"),
        "cli.ingest_csv.rows_per_s": (
            total("cli.ingest_csv", "rows") / ingest_wall if ingest_wall > 0 else 0.0
        ),
        "cli.main.self_s": self_s("cli.main"),
    }


def partition_violations(spans: list[Span]) -> int:
    """Partitions that delivered more strata than requested (or none)."""
    return sum(1 for s in spans if s.name == "stratify.partition_by_propensity" and not s.attrs.get("k_ok", True))


def median_metrics(runs: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time metric across runs; counts must repeat exactly.

    Returns the combined metrics and the names of counts that differed.
    """
    combined, differing = {}, []
    for name in runs[0]:
        values = [r[name] for r in runs]
        if name in COUNT_METRICS:
            combined[name] = values[0]
            if any(v != values[0] for v in values):
                differing.append(name)
        else:
            combined[name] = statistics.median(values)
    return combined, differing

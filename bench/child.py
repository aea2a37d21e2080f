"""One run process of the benchmark: import, set up, make entry calls.

Started fresh by ``run.py``, with BLAS and OpenMP pinned to one thread and
``src/`` on ``PYTHONPATH``. After set-up it makes entry calls one after
another until the deadline ``calls_until`` (at least one). Prints one JSON
line with the moment the inputs were ready (``time.monotonic``, comparable
with the parent's clock), each entry call's wall time, peak RSS and the
distinct outputs the correctness gate checks. With ``traced`` set, every
ivlate public function in ``tracing.TARGETS`` is wrapped before set-up and
the per-layer metrics of each invocation (set-up plus one entry call) are
returned as well.

Usage: python3 bench/child.py '<json config>'
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
import warnings


def main(cfg: dict) -> dict:
    import ivlate

    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(ivlate.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported ivlate from {ivlate.__file__}, expected it under {src}")
    # Clip and non-convergence counts come from return values, not from this stream.
    warnings.simplefilter("ignore", RuntimeWarning)

    import tracing
    import workloads

    wl = workloads.get(cfg["workload"], cfg["smoke"])
    entry = workloads.Entry(wl, cfg["seed"], cfg["inputs"], cfg["workdir"])
    tracer = tracing.Tracer()
    traced = cfg["traced"]
    span = tracer.span if traced else (lambda name: contextlib.nullcontext())
    out = {"report_s": [], "outputs": []}
    roots = []
    with tracing.installed(tracer) if traced else contextlib.nullcontext():
        with span("setup"):
            entry.setup()
        out["ready"] = time.monotonic()
        # Closed loop: the next entry call starts when the previous one has
        # returned, until the deadline the parent gave this process.
        while True:
            roots.append(len(tracer.spans))
            start = time.perf_counter()
            try:
                with span("report"):
                    result = entry.call()
            except Exception:
                out["error"] = traceback.format_exc()
            out["report_s"].append(time.perf_counter() - start)
            if "error" in out:
                break
            try:
                output = entry.output(result)
            except Exception:
                out["error"] = traceback.format_exc()
                break
            if output not in out["outputs"]:
                out["outputs"].append(output)
            if time.monotonic() >= cfg["calls_until"]:
                break
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        # One invocation = set-up plus one entry call; one metrics dict per call.
        out["layers"] = [tracing.layer_metrics(tracing.subtree(tracer.spans, {0, root}))
                         for root in roots]
        out["partition_violations"] = tracing.partition_violations(tracer.spans)
        if cfg.get("trace_file"):
            with open(cfg["trace_file"], "w", encoding="utf-8") as handle:
                json.dump([vars(s) for s in tracer.spans], handle)
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    print(json.dumps(main(json.loads(sys.argv[1]))))

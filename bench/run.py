"""ivlate benchmark: time to a finished result on Monte Carlo and CLI workloads.

Usage (from the repository root):

    python3 bench/run.py --workload study-b --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload study-b --seed 0 --seconds 55 --trace 1
    python3 bench/run.py --workload cli-estimate --smoke --seconds 1 --trace 0
    python3 bench/run.py --record-reference

One run makes the workload's inputs from ``--seed`` (outside any timed
phase), then starts a fixed number of fresh run processes one after another
(BLAS and OpenMP pinned to one thread), which share ``--seconds`` between
them. Each run process imports ivlate from ``src/``, sets up, then makes
entry calls in a closed loop (one caller, the next call starts when the
previous one has returned) until its share of the time is spent.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` is the median over run processes of the time from process start
to inputs ready, ``report_s`` the median over all entry calls, and
``peak_rss_mb`` the median over run processes of ``ru_maxrss``.
``--trace 1`` alternates untraced and traced run processes and reports the
per-layer metrics (``tracing.py``) of one invocation, set-up plus one entry
call, as medians over the traced entry calls. Every run applies the
correctness gate (``gate.py``) to every output. Each metric is printed by
name with its unit; the last stdout line is the JSON result. Samples, environment and gate notes
go to ``.bench_out/result-*.json``, spans to ``.bench_out/trace-*.json``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and (through the environment) in every run process.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(BENCH_DIR, "child.py")

# A run must end within 180 s: run processes share at most DEADLINE_S - 30 s
# and are killed at DEADLINE_S.
DEADLINE_S = 165.0
# Run processes per run: four set-up samples, or with --trace 1 untraced and
# traced alternating. Smoke runs start one (one of each with --trace 1).
PROCESSES = 4


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, crashed run process)."""


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        definition = json.load(handle)
    names = [w["name"] for w in definition["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {names} differ from {sorted(workloads.WORKLOADS)}")
    return definition


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "ivlate", "__init__.py")):
        raise BenchError(f"no ivlate sources at {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": PINNED,
    }


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one fresh run process to completion and return its measurements."""
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=cfg["workdir"], **PINNED)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(cfg)], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a run process did not finish before the run's deadline") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"run process exited with code {proc.returncode}:\n{err[-3000:]}")
    res = json.loads(lines[-1])
    res["setup_s"] = res.pop("ready") - started
    res["traced"] = cfg["traced"]
    return res


def sample(base_cfg: dict, seconds: float, trace: int, smoke: bool, deadline: float) -> list[dict]:
    """Start the run processes one at a time; they share ``seconds`` between them."""
    count = 1 + trace if smoke else PROCESSES
    # Leave room for the last entry calls to overrun their share.
    stop_at = min(time.monotonic() + seconds, deadline - 30.0)
    results: list[dict] = []
    for i in range(count):
        traced = bool(trace) and i % 2 == 1
        calls_until = time.monotonic() + (stop_at - time.monotonic()) / (count - i)
        cfg = dict(base_cfg, traced=traced, calls_until=calls_until,
                   trace_file=base_cfg["trace_file"] if traced and i == 1 else None)
        results.append(spawn(cfg, deadline))
    return results


def summarize(values: list[float]) -> str:
    """Sample count, quartiles, and the highest percentile with ten samples above it."""
    n = len(values)
    if n < 2:
        return f"n={n}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    text = f"median of n={n}, min {min(values):.6g}, q1 {q1:.6g}, q3 {q3:.6g}, max {max(values):.6g}"
    if n > 10:
        text += f", p{100 * (n - 10) // n} (10 samples above) {sorted(values)[n - 11]:.6g}"
    return text


def apply_gate(wl, seed: int, results: list[dict], reference: dict) -> tuple[list[str], str, float]:
    """Check every entry call of a run; return (problems, note, failed_frac).

    Every entry call must return, all outputs must agree (traced ones
    included), and the output must pass the invariants and the reference.
    ``failed_frac`` is the share of replicates that raised inside the program,
    or 1 when the gate fails.
    """
    problems = [f"entry call raised:\n{r['error']}" for r in results if "error" in r]
    outputs = [o for r in results for o in r["outputs"]]
    if not outputs:
        return problems, "no output to check", 1.0
    if any(o != outputs[0] for o in outputs):
        problems.append("entry calls with the same inputs returned different outputs")
    gate_problems, note = gate.check(wl, seed, outputs[0], reference)
    problems += gate_problems
    problems += [f"{r['partition_violations']} partitions with k outside [1, requested]"
                 for r in results if r.get("partition_violations")]
    if problems:  # a run that fails the gate counts every replicate as failed
        return problems, note, 1.0
    return problems, note, sum(outputs[0]["failures"].values()) / wl.attempted_replicates()


def run(args) -> dict:
    definition = load_definition()
    require_sources()
    started = time.monotonic()
    wl = workloads.get(args.workload, args.smoke)
    reference = gate.load_reference()
    env = environment()
    print("env " + json.dumps(env))
    print(f"workload {wl.name} seed {args.seed}: {wl.kind} {wl.size()} tags {','.join(wl.tags)}; "
          f"closed loop, 1 caller, one entry call at a time")

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    workdir = tempfile.mkdtemp(prefix=f"run-{tag}-", dir=OUT_DIR)
    try:
        base_cfg = {
            "workload": wl.name, "seed": args.seed, "smoke": args.smoke, "src": SRC,
            "workdir": workdir, "inputs": workloads.write_inputs(wl, args.seed, workdir),
            "trace_file": os.path.join(OUT_DIR, f"trace-{tag}.json"),
        }
        seconds = args.seconds or (1.0 if args.smoke else definition["run_seconds"])
        results = sample(base_cfg, seconds, args.trace, args.smoke, started + DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems, note, failed_frac = apply_gate(wl, args.seed, results, reference)
    print(f"gate: {'passed' if not problems else 'FAILED'}; {note}")
    for problem in problems:
        print(f"gate problem: {problem}")

    plain = [r for r in results if not r["traced"]]
    plain_calls = [t for r in plain for t in r["report_s"]]
    if args.trace:
        traced = [r for r in results if r["traced"]]
        values, differing = tracing.median_metrics([m for r in traced for m in r["layers"]])
        values["trace.overhead_ratio"] = (
            statistics.median(t for r in traced for t in r["report_s"]) / statistics.median(plain_calls)
        )
        values["failed_frac"] = failed_frac
        for name in differing:
            print(f"warning: count {name} differs between traced entry calls")
        wanted = definition["per_layer"]
    else:
        samples = {
            "setup_s": [r["setup_s"] for r in plain],
            "report_s": plain_calls,
            "peak_rss_mb": [r["maxrss_kib"] / 1024.0 for r in plain],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        wanted = definition["end_to_end"]
        print(f"failed_frac = {failed_frac!r} ratio (replicates that raised / {wl.attempted_replicates()} attempted)")
        for name, v in samples.items():
            print(f"  {name}: {summarize(v)}")
    if sorted(values) != sorted(m["name"] for m in wanted):
        raise BenchError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")

    attempted = sum(len(r["report_s"]) for r in results)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump({"env": env, "workload": wl.name, "size": wl.size(), "seed": args.seed,
                   "gate": {"note": note, "problems": problems}, "samples": results, "result": result},
                  handle, indent=1)
    return result


def record_reference() -> None:
    """Record the reference outputs for the default and held-out seeds."""
    require_sources()
    os.makedirs(OUT_DIR, exist_ok=True)
    doc: dict = {}
    for name in workloads.WORKLOADS:
        wl = workloads.get(name)
        for seed in gate.REFERENCE_SEEDS:
            workdir = tempfile.mkdtemp(prefix="record-", dir=OUT_DIR)
            try:
                cfg = {"workload": name, "seed": seed, "smoke": False, "src": SRC, "workdir": workdir,
                       "inputs": workloads.write_inputs(wl, seed, workdir), "traced": False,
                       "calls_until": 0.0}
                res = spawn(cfg, time.monotonic() + 600.0)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if "error" in res:
                raise BenchError(f"{name} seed {seed}: {res['error']}")
            problems = gate.invariants(wl, res["outputs"][0])
            if problems:
                raise BenchError(f"{name} seed {seed}: {problems}")
            doc.setdefault(name, {})[str(seed)] = {"size": wl.size(), "output": res["outputs"][0]}
            print(f"recorded {name} seed {seed}")
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json, 1 with --smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes, fewest run processes")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json for the reference seeds and exit")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: estimate on a CSV, simulate a design, stratify.

Input data is a UTF-8 CSV (a leading byte-order mark is accepted) with
header ``y,d,z,x1,...,xm``. Reports are JSON or CSV, written by the
standard library from one set of rows per command. Every number is a
float at its shortest round-trip ``repr``; a non-finite value is
``null`` in JSON and an empty cell in CSV. Identical configuration and
seed produce byte-identical output files.

Both ``estimate`` and ``stratify`` bootstrap by ``montecarlo.bootstrap_tags``
on weighted resamples whose logistic propensity fits start from the full
sample's (see ``complier.fit_propensity``). ``stratify`` bootstraps the tags
"strat-K" (tau*, over every identified resample, as ``estimate`` does) and
"strata-K" (beta*, over the resamples that keep the point's stratum count),
which share one strata pass per resample.

Exit codes: 0 success, 1 configuration error, 2 data error,
3 estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import operator
import sys

import numpy as np

from .complier import fit_propensity
from .errors import IdentificationError, InvalidSpecError, RankDeficientError, SchemaError, TooManyFailuresError
from .estimators import Dataset
from .inference import require_distinct
from .linalg import dependent_columns
from .montecarlo import bootstrap_tags, named_dgp, pipeline_for, run_study
from .stratify import regressogram, stratified_late

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_DATA = 2
_EXIT_ESTIMATION = 3


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def ingest_csv(path: str, add_constant: bool = True, header: list[str] | None = None) -> Dataset:
    """Read a dataset from ``path``.

    Requires columns y, d, z plus zero or more x-prefixed covariate
    columns; a constant column is prepended unless ``add_constant`` is
    False. When ``header`` is a list, the stripped column names are
    appended to it, so a caller can echo them without a second read.
    Raises SchemaError for header problems and bytes that are not UTF-8
    (with the 1-based file line), and ValueError (with the 1-based data
    row) for bad cells.

    The file's bytes are read once. A body of plain decimal numbers
    (``_plain_cells``) is parsed by one ``np.loadtxt`` pass, with the values
    and failures of Python's ``float``, and checked on whole columns. Any
    other file is read by ``csv.reader``, its widths checked and its cells
    parsed by one ``float`` pass, and checked on whole columns too. A file
    that fails a check is walked row by row, so the error names the first
    bad row and check.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    plain = _plain_cells(raw)
    raw_header, rows = _csv_rows(raw) if plain is None else (plain[0], None)
    if raw_header is None:
        raise SchemaError("empty file: missing header row")

    names = [h.strip() for h in raw_header]
    if header is not None:
        header.extend(names)
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate columns in header: {names}")
    for required in ("y", "d", "z"):
        if required not in names:
            raise SchemaError(f"missing required column {required!r}")
    x_names = [c for c in names if c not in ("y", "d", "z")]
    bad = [c for c in x_names if not c.startswith("x")]
    if bad:
        raise SchemaError(f"unexpected non-covariate columns: {bad}")
    if not x_names and not add_constant:
        raise SchemaError("no covariate columns and no constant requested")

    width = len(names)
    order = [names.index(name) for name in ("y", "d", "z", *x_names)]
    if plain is None and not rows:
        raise SchemaError("file contains a header but no data rows")
    cells = _float_cells(rows, width) if plain is None else plain[1]
    # Binary d and z are finite, so every cell finite with d and z binary is the column check.
    if cells is None or cells.shape[1] != width or not (
        np.isfinite(cells).all() and np.isin(cells[:, order[1:3]], (0.0, 1.0)).all()
    ):
        pick = operator.itemgetter(*order)
        for i, row in enumerate(_csv_rows(raw)[1] if rows is None else rows):
            _check_row(i, row, width, pick)

    y, d, z, *covariates = cells[:, order].T  # column views: x and the copies below are C-ordered
    x = np.column_stack(([np.ones(len(cells))] if add_constant else []) + covariates)
    # Schema and cells are validated above; tiny files still load and echo.
    # Too few rows for the fits or the strata is a data error (exit 2) and a
    # single instrument arm an estimation failure (exit 3), both raised later.
    return Dataset(y=y.copy(), d=d.copy(), z=z.copy(), x=x, has_constant=add_constant)


_PLAIN_BYTES = b"0123456789.eE+-,\n"


def _plain_cells(raw: bytes) -> tuple[list[str], np.ndarray] | None:
    """The header row and the body's cells of ``raw`` when its body is plain decimal numbers that
    ``np.loadtxt`` reads as one table, else None. Plain: after a leading byte-order mark and CRLF
    line ends, a non-empty body of ``_PLAIN_BYTES`` only, no empty line, no line longer than the
    csv field limit, and a header line with no CR or open quote. ``csv.reader`` reads it to the
    same rows."""
    text = raw.removeprefix(b"\xef\xbb\xbf").replace(b"\r\n", b"\n")
    head, _, body = text.partition(b"\n")
    if not body or b"\r" in head or b"\n\n" in text or body.translate(None, _PLAIN_BYTES):
        return None
    line_ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))
    if np.diff(line_ends, prepend=-1, append=len(text)).max() - 1 > csv.field_size_limit():
        return None
    try:
        header = next(csv.reader([head.decode("utf-8") + "\n"]))
        # A field takes in the line end only when its quote is still open: the header goes on.
        if any("\n" in name for name in header):
            return None
        # The body is ASCII, so loadtxt's default latin-1 decoding reads it as is.
        return header, np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error):  # a bad token, ragged rows, a header csv or UTF-8 rejects
        return None


def _csv_rows(raw: bytes) -> tuple[list[str] | None, list[list[str]]]:
    """The header row (None for an empty file) and the data rows of ``raw``, read by
    ``csv.reader`` as UTF-8 text; reading errors are SchemaErrors naming the file line."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""))
    try:
        return next(reader, None), list(reader)
    except csv.Error as exc:
        raise SchemaError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # Its offsets skip a byte-order mark and restart with each chunk: count on the raw bytes.
        text = raw.removeprefix(b"\xef\xbb\xbf")
        try:
            text.decode("utf-8")
        except UnicodeDecodeError as exc:
            text = text[: exc.start]
        line = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise SchemaError(f"line {line}: not valid UTF-8") from None


def _float_cells(rows: list[list[str]], width: int) -> np.ndarray | None:
    """The cells of ``rows`` as floats, one row each, by one ``float`` pass; None when a row
    is not ``width`` cells long or a cell is not a number."""
    if any(len(row) != width for row in rows):
        return None
    try:
        cells = np.fromiter(map(float, itertools.chain.from_iterable(rows)), float, len(rows) * width)
    except ValueError:
        return None
    return cells.reshape(len(rows), width)


def _check_row(i: int, row: list[str], width: int, pick) -> None:
    """Raise the ValueError for data row ``i + 1`` at the first check it fails, if any;
    ``pick`` puts its cells in y, d, z, x order."""
    if len(row) != width:
        raise ValueError(f"row {i + 1}: expected {width} fields, got {len(row)}")
    try:
        cells = list(map(float, pick(row)))
    except ValueError:
        raise ValueError(f"row {i + 1}: non-numeric cell") from None
    if not (math.isfinite(cells[0]) and all(map(math.isfinite, cells[3:]))):
        raise ValueError(f"row {i + 1}: non-finite cell")
    if cells[1] not in (0.0, 1.0):
        raise ValueError(f"row {i + 1}: d must be 0 or 1, got {pick(row)[1]!r}")
    if cells[2] not in (0.0, 1.0):
        raise ValueError(f"row {i + 1}: z must be 0 or 1, got {pick(row)[2]!r}")


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------


def _num(value) -> float | None:
    """A report number: a Python float, or None when ``value`` is not finite."""
    value = float(value)
    return value if math.isfinite(value) else None


def _csv_text(header: list[str], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    tags = _parse_tags(args.estimators)
    for tag in tags:
        if pipeline_for(tag)[1] != "tau_c":  # the vectors: "beta" and "strata-K"
            raise InvalidSpecError(f"estimator {tag!r} is a vector: estimate reports scalar estimators only")
        if args.no_constant and tag in ("++", "x+", "xx"):
            raise InvalidSpecError(f"estimator {tag!r} needs the constant column that --no-constant drops")
    columns: list[str] = []
    data = ingest_csv(args.input, add_constant=not args.no_constant, header=columns)
    print(f"read {data.n} rows, columns: {','.join(columns)}", file=sys.stderr)
    _require_identifiable(data, columns)

    boots = bootstrap_tags(data, tags, b=args.b, alpha=args.alpha, seed=args.seed)
    results = []
    failures = {}
    for tag in tags:
        boot = boots[tag]
        results.append(
            {
                "estimator": tag,
                "point": _num(boot.point[0]),
                "sd": _num(boot.se[0]),
                "ci": [_num(boot.ci_lower[0]), _num(boot.ci_upper[0])],
            }
        )
        failures[tag] = boot.b_requested - boot.b_effective

    report = {
        "command": "estimate",
        "config": {
            "input": args.input,
            "n": data.n,
            "columns": columns,
            "estimators": tags,
            "b": args.b,
            "alpha": _num(args.alpha),
            "seed": args.seed,
            "no_constant": bool(args.no_constant),
        },
        "results": results,
        "warnings": [],
        "failures": failures,
    }
    rows = [(r["estimator"], r["point"], r["sd"], *r["ci"]) for r in results]
    _emit_report(args, report, ["estimator", "point", "sd", "ci_low", "ci_high"], rows)
    _print_point_sd_table(results)
    return _EXIT_OK


def cmd_simulate(args) -> int:
    spec = named_dgp(args.dgp)
    tags = _parse_tags(args.estimators)
    for tag in tags:
        if pipeline_for(tag)[1] is None:
            raise InvalidSpecError(f"estimator {tag!r} has no registered truth: simulate reports bias against one")
    try:
        summary = run_study(spec, tags, reps=args.reps, n=args.n, seed=args.seed)
    except ValueError as exc:  # simulate reads no data: a sample too small for a fit is a bad --n
        raise InvalidSpecError(f"--n {args.n} is too small for these estimators: {exc}") from exc

    results = []
    for tag in tags:
        results.append(
            {
                "estimator": tag,
                "truth": [_num(v) for v in summary.truth[tag]],
                "bias": [_num(v) for v in summary.bias[tag]],
                "sd": [_num(v) for v in summary.sd[tag]],
            }
        )
    report = {
        "command": "simulate",
        "config": {
            "dgp": args.dgp,
            "estimators": tags,
            "reps": args.reps,
            "n": args.n,
            "seed": args.seed,
        },
        "results": results,
        "warnings": [],
        "failures": summary.failures,
    }
    rows = [
        (r["estimator"], dim, *cells)
        for r in results
        for dim, cells in enumerate(zip(r["truth"], r["bias"], r["sd"]))
    ]
    _emit_report(args, report, ["estimator", "dim", "truth", "bias", "sd"], rows)

    if args.replicates_out is not None:
        rows = [
            (int(rep), tag, dim, _num(value))
            for tag in tags
            for rep, values in zip(summary.replicates[tag], summary.estimates[tag])
            for dim, value in enumerate(values)
        ]
        _write_text(args.replicates_out, _csv_text(["rep", "estimator", "dim", "value"], rows))
    return _EXIT_OK


def cmd_stratify(args) -> int:
    columns: list[str] = []
    data = ingest_csv(args.input, add_constant=not args.no_constant, header=columns)
    _require_identifiable(data, columns)
    point = stratified_late(data, fit_propensity(data, "logistic"), args.k)
    k_point = point.partition.k
    warnings_list = []
    if k_point < args.k:
        warnings_list.append(f"merged {args.k} requested strata down to {k_point}")
        print(warnings_list[-1], file=sys.stderr)

    # beta*'s intervals keep the resamples whose strata merge to the point's count; tau*'s keep all.
    late, effects = bootstrap_tags(data, [f"strat-{args.k}", f"strata-{args.k}"], b=args.b, alpha=args.alpha,
                                   seed=args.seed).values()
    strata = [{"interval": [_num(low), _num(high)], "estimate": _num(estimate),
               "ci": [_num(effects.ci_lower[j]), _num(effects.ci_upper[j])]}
              for j, (low, high, estimate) in enumerate(regressogram(point))]

    report = {
        "command": "stratify",
        "config": {
            "input": args.input,
            "k": args.k,
            "k_effective": k_point,
            "b": args.b,
            "alpha": _num(args.alpha),
            "seed": args.seed,
            "no_constant": bool(args.no_constant),
        },
        "late": {
            "estimate": _num(point.tau_star),
            "sd": _num(late.se[0]),
            "ci": [_num(late.ci_lower[0]), _num(late.ci_upper[0])],
        },
        "strata": strata,
        "warnings": warnings_list,
        "failures": {"strat": late.b_requested - late.b_effective},
        "strata_kept": effects.b_effective,
    }
    rows = [(*row["interval"], row["estimate"], *row["ci"]) for row in strata]
    _emit_report(args, report, ["interval_low", "interval_high", "estimate", "ci_low", "ci_high"], rows)
    print(f"late estimate {report['late']['estimate']!r} ({k_point} strata)", file=sys.stderr)
    return _EXIT_OK


def _require_identifiable(data: Dataset, columns: list[str]) -> None:
    """Raise an IdentificationError naming the column that leaves the sample unidentified: a
    constant ``z``, or the first covariate that is zero or collinear with the constant and
    earlier covariates, by ``linalg.dependent_columns`` on X's columns of the sample's factor."""
    if data.z.min() == data.z.max():
        raise IdentificationError("column 'z' is constant: both instrument arms are required")
    if data.n < data.k:
        return  # too few rows, and a short diagonal: the fits raise the data error
    dependent = dependent_columns(data.factor)[: data.k]
    if dependent.any():
        j = int(dependent.argmax())
        names = ["constant"] * data.has_constant + [c for c in columns if c not in ("y", "d", "z")]
        earlier = "the constant and earlier covariates" if data.has_constant else "earlier covariates"
        why = "zero" if not data.x[:, j].any() else f"collinear with {earlier}"
        raise RankDeficientError(f"column {names[j]!r} is {why}")


def _parse_tags(raw: str) -> list[str]:
    tags = [t.strip() for t in raw.split(",") if t.strip()]
    if not tags:
        raise InvalidSpecError("no estimators requested")
    try:
        require_distinct(tags)
        for tag in tags:
            pipeline_for(tag)
    except ValueError as exc:
        raise InvalidSpecError(str(exc)) from None
    return tags


def _print_point_sd_table(results: list[dict]) -> None:
    out = io.StringIO()
    tags = [row["estimator"] for row in results]
    width = max(10, *(len(t) for t in tags)) + 2
    out.write(" " * 8 + "".join(f"{t:>{width}}" for t in tags) + "\n")
    for name in ("point", "sd"):
        cells = ("-" if row[name] is None else f"{row[name]:.4g}" for row in results)
        out.write(f"{name:<8}" + "".join(f"{c:>{width}}" for c in cells) + "\n")
    print(out.getvalue(), end="", file=sys.stderr)


def _emit_report(args, report: dict, header: list[str], rows) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    else:
        text = _csv_text(header, rows)
    _write_text(args.output, text)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivlate",
        description="Interacted 2SLS estimation of local average treatment effects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="output file (default: stdout)")
    common.add_argument("--format", choices=["json", "csv"], default="json")

    est = sub.add_parser("estimate", parents=[common], help="estimate effects from a CSV")
    est.add_argument("--input", required=True, help="CSV with columns y,d,z,x1,...")
    est.add_argument("--estimators", default="++,x+,xx", help="comma-separated tags")
    est.add_argument("--b", type=int, default=1000, help="bootstrap replicates")
    est.add_argument("--alpha", type=float, default=0.05)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--no-constant", action="store_true")

    sim = sub.add_parser("simulate", parents=[common], help="replicate a bundled design")
    sim.add_argument("--dgp", required=True, help="design name: A, B, C, or D")
    sim.add_argument("--estimators", default="++,x+,xx")
    sim.add_argument("--reps", type=int, default=1000)
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--replicates-out", default=None, help="per-replicate CSV path")

    strat = sub.add_parser("stratify", parents=[common], help="propensity-score strata")
    strat.add_argument("--input", required=True)
    strat.add_argument("--k", type=int, required=True, help="requested stratum count")
    strat.add_argument("--b", type=int, default=1000)
    strat.add_argument("--alpha", type=float, default=0.05)
    strat.add_argument("--seed", type=int, default=0)
    strat.add_argument("--no-constant", action="store_true")
    return parser


def _validate_config(args) -> None:
    if getattr(args, "b", 10) < 10:
        raise InvalidSpecError("--b must be at least 10")
    if not 0.0 < getattr(args, "alpha", 0.05) < 1.0:
        raise InvalidSpecError("--alpha must lie strictly between 0 and 1")
    if getattr(args, "seed", 0) is not None and args.seed < 0:
        raise InvalidSpecError("--seed must be non-negative")
    if getattr(args, "reps", 1) < 1:
        raise InvalidSpecError("--reps must be at least 1")
    if getattr(args, "n", 2) < 1:
        raise InvalidSpecError("--n must be at least 1")
    if getattr(args, "k", 1) < 1:
        raise InvalidSpecError("--k must be at least 1")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _validate_config(args)
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_stratify(args)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        return _EXIT_OK if exc.code in (0, None) else _EXIT_CONFIG
    except InvalidSpecError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (SchemaError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except (IdentificationError, TooManyFailuresError) as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return _EXIT_ESTIMATION
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

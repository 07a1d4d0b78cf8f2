"""Command-line surface.

Subcommands: table (asymptotic constants), pvalue (engine vs rank-based),
predict (CSV in, hedged predictions out), validate (exact audits or Monte
Carlo coverage), dominate (exhaustive dominance check).

Exit codes: 0 success, 1 audit or dominance failure, 2 usage/parse error.
Every command takes --json; JSON output is a single object with a
schema_version and a command field, floats rendered at 12 significant
digits, keys sorted — identical invocations produce byte-identical
output.

predict reads each CSV with read_csv_dataset, which opens the file once
and returns the header and the rows as one (n, d + 1) float64 array.

Importing the module loads what predict and pvalue run: numpy, the
pipelines and the p-value engine; pvalue takes the rank-based
(k+1)/(m+1) from the pipelines and reduces it with math.gcd, so it loads
nothing more.  The other commands import what they need when they run:
table, validate --mode exact and dominate the exact audits (the audits
module), validate --mode exact and dominate also the p-variables
(ranks), and validate --mode mc the Monte Carlo harness (validity),
which replays a failing block of trials through the per-trial pipeline
path to raise that path's error.  Each call reads the function from its
module then, so a wrapper set on the module applies.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import warnings
from functools import partial
from itertools import chain, repeat
from typing import Iterable, List, Optional, Tuple

import click
import numpy as np

from .core import EXACT_M_LIMIT, DataSplit, HedgedPrediction, Interval
from .pipelines import (
    ClassifierSpec,
    RegressorSpec,
    _incertitude,
    fit_classification_pipeline,
    fit_regression_pipeline,
    prediction_set,
)
from .pvalues import M_MAX, asymptotic_constant, binary_irp_pvalue, m_error
from .records import Record

SCHEMA_VERSION = "1"

__all__ = ["main", "read_csv_dataset"]


def _fmt(x: float) -> str:
    """Render a float at 12 significant digits (shared by text and JSON)."""
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _jsonify(value):
    """Shape a payload for json.dumps: rounded floats, no non-finite
    values, and a record as the dict of its fields."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return None if not math.isfinite(value) else _round12(value)
    if isinstance(value, Record):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_text(payload) -> str:
    """The layout of every --json output: keys sorted, indent 2."""
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2)


def _write(text: str) -> None:
    """Write text and a newline to stdout.  No output holds an ANSI escape
    code, so color=True spares click's regex strip over the whole text."""
    click.echo(text, color=True)


def _envelope(command: str, payload: dict) -> dict:
    """payload under the schema version and the command's name, as every
    --json output holds it."""
    return {"schema_version": SCHEMA_VERSION, "command": command, **payload}


def _emit(as_json: bool, payload: dict, lines: Iterable[str]) -> None:
    """Write the command's output: payload as JSON, in its envelope, or
    else the text lines."""
    if as_json:
        _write(_json_text(_envelope(click.get_current_context().command.name, payload)))
    else:
        _write("\n".join(lines))


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _set_payload(s) -> dict:
    if isinstance(s, Interval):
        return {"type": "interval", **s._asdict()}
    return {"type": "labels", "members": sorted(int(v) for v in s)}


def _set_text(s) -> str:
    if isinstance(s, Interval):
        return f"[{_fmt(s.lower)}, {_fmt(s.upper)}]"
    return "{" + ", ".join(f"{v:+d}" for v in sorted(s)) + "}"


def _json_value(x: float) -> str:
    """x as json.dumps(_jsonify(x)) renders it."""
    return repr(_round12(x)) if math.isfinite(x) else "null"


# Stand-ins rendered into a row and then cut out of it: a row number and
# interval bounds whose text occurs nowhere else in a row.
_ROW_STAND_IN = 918273645546372819
_BOUND_STAND_INS = (-1.111e300, 2.222e300)


def _prediction_record(row: int, prediction: HedgedPrediction, gamma) -> dict:
    return {
        "row": row,
        "prediction_set": _set_payload(prediction.prediction_set),
        "incertitude": prediction.incertitude,
        "degenerate": prediction.degenerate,
        "vacuous": prediction.vacuous,
        "set_at_epsilon": _set_payload(gamma),
    }


def _prediction_line(row: int, prediction: HedgedPrediction, gamma, epsilon: float) -> str:
    flags = [name for name in ("degenerate", "vacuous") if getattr(prediction, name)]
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    return (
        f"row {row}: set={_set_text(prediction.prediction_set)} "
        f"incertitude={_fmt(prediction.incertitude)} "
        f"level-{epsilon} set={_set_text(gamma)}{suffix}"
    )


def _row_pieces(
    prediction: HedgedPrediction, epsilon: float, indent: Optional[str]
) -> Tuple[List[str], List[int]]:
    """One output row for prediction, cut at its fields.

    The row is rendered once, with the stand-in row number and (for an
    interval) the stand-in bounds, and cut where their text stands.
    Returns the text between the cuts, one piece more than there are
    cuts, and the field at each cut: 0 for the row number, 1 and 2 for
    the lower and upper bound.  indent None renders a text line;
    otherwise a JSON record nested at that indent, as _json_text lays
    it out.
    """
    gamma = prediction_set(prediction, epsilon)
    if indent is None:
        text = _prediction_line(_ROW_STAND_IN, prediction, gamma, epsilon)
        value = _fmt
    else:
        record = _prediction_record(_ROW_STAND_IN, prediction, gamma)
        text = _json_text(record).replace("\n", "\n" + indent)
        value = _json_value
    stand_ins = [str(_ROW_STAND_IN), *map(value, _BOUND_STAND_INS)]
    parts = re.split("(" + "|".join(map(re.escape, stand_ins)) + ")", text)
    return parts[::2], [stand_ins.index(part) for part in parts[1::2]]


def _bound_texts(bounds: np.ndarray, as_json: bool) -> List[str]:
    """Every bound as _fmt renders it, or as _json_value does if as_json."""
    values = bounds.tolist()
    texts = list(map("{:.12g}".format, values))
    if not as_json:
        return texts
    # A text with a "." and no "e" is positional with a fraction part, so
    # its decimal exponent lies in [-4, 12).  There repr of its value has
    # the same digits, as no two decimals of at most 15 significant digits
    # name the same float, and the same layout.  The rest (integer values,
    # -0, exponent forms, infinities) go through _json_value.
    return [
        text if "." in text and "e" not in text else _json_value(value)
        for text, value in zip(texts, values)
    ]


def _prediction_rows(
    pipeline, X, method: str, epsilon: float, separator: str, indent=None
) -> Iterable[str]:
    """Texts that join to the output row of every test object in X, in
    order, each but the first after separator.

    The sets come from the pipeline's batch method for its task.  Each
    row is spliced from the pieces of one rendered row: one for
    intervals, one per label set.  Interval rows are built column-wise:
    each bound column is formatted in one pass, and the texts interleave
    the pieces with the row numbers and the bounds, for the caller's one
    join.
    """
    rows = range(1, len(X) + 1)
    if pipeline.task == "classification":
        label_sets = pipeline.label_sets(X)
        pieces = {
            labels: _row_pieces(pipeline.hedge(labels, method), epsilon, indent)[0]
            for labels in set(label_sets)
        }
        # the row number is the only field of a label-set row
        lines = [str(row).join(pieces[labels]) for row, labels in zip(rows, label_sets)]
        return [separator.join(lines)]
    lower, upper = pipeline.interval_bounds(X)
    stand_in = Interval(*_BOUND_STAND_INS)
    pieces, fields = _row_pieces(pipeline.hedge(stand_in, method), epsilon, indent)
    values = [list(map(str, rows)), *(_bound_texts(b, indent is not None) for b in (lower, upper))]
    # every row but the first opens with the separator
    columns = [chain(pieces[:1], repeat(separator + pieces[0]))]
    for field, piece in zip(fields, pieces[1:]):
        columns += [values[field], repeat(piece)]
    return chain.from_iterable(zip(*columns))


def _predict_json(method: str, epsilon: float, pipeline, X) -> str:
    """The `predict --json` output, laid out as _json_text lays it out."""
    payload = {
        "task": pipeline.task,
        "method": method,
        "epsilon": epsilon,
        "m": pipeline.m,
        "k": pipeline.k,
        "fallback": pipeline.fallback_reason,
        "predictions": [_ROW_STAND_IN],
    }
    text = _json_text(_envelope("predict", payload))
    head, tail = text.split(str(_ROW_STAND_IN))
    indent = head[head.rindex("\n") + 1 :]
    rows = _prediction_rows(pipeline, X, method, epsilon, ",\n" + indent, indent)
    return "".join(chain([head], rows, [tail]))


def _predict_text(method: str, epsilon: float, pipeline, X) -> str:
    """The `predict` text output: a header line, the fallback note if
    any, and one line per test row."""
    lines = [
        f"task={pipeline.task} method={method} m={pipeline.m} k={pipeline.k} epsilon={epsilon}"
    ]
    if pipeline.fallback_reason:
        lines.append(f"note: {pipeline.fallback_reason}")
    head = "\n".join(lines) + "\n"
    return "".join(chain([head], _prediction_rows(pipeline, X, method, epsilon, "\n")))


def _read_header(path: str, reader) -> list:
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"{path}: row 1: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    if len(header) < 2:
        raise ValueError(
            f"{path}: header must name at least one feature column and a label column"
        )
    return header


# Characters numpy's reader strips around a cell, as it strips whitespace,
# but float() rejects.
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _numpy_lines(handle):
    """The lines left in handle, read in batches of about 64k characters,
    for numpy's reader.

    A batch raises ValueError where numpy might read it otherwise than
    csv.reader and float do: a line longer than csv's field size limit,
    or a cell padded with _NUMPY_ONLY_SPACES.
    """
    limit = csv.field_size_limit()

    def checked(batch):
        text = "".join(batch)
        if max(map(len, batch)) > limit or any(c in text for c in _NUMPY_ONLY_SPACES):
            raise ValueError("left to the reference pass")
        return batch

    return chain.from_iterable(map(checked, iter(partial(handle.readlines, 1 << 16), [])))


def _numpy_rows(handle, width: int, task: str) -> Optional[np.ndarray]:
    """The data rows left in handle as an (n, width) float64 array, read
    by numpy's C reader, or None where the reference pass must read them.

    numpy converts each cell with the function float uses, so a cell it
    accepts has float's value.  It rejects what it cannot read as
    csv.reader does (quoted and empty cells, underscores, non-ASCII
    digits) and ragged rows.  Rows that are not finite, have labels other
    than -1 or 1, or a width other than the header's give None too.
    """
    try:
        with warnings.catch_warnings():
            # a file of blank lines: the reference pass names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(
                _numpy_lines(handle), delimiter=",", comments=None, ndmin=2, dtype=np.float64
            )
    except ValueError:
        return None
    if not len(rows) or rows.shape[1] != width or not np.isfinite(rows).all():
        return None
    y = rows[:, -1]
    if task == "classification" and not ((y == 1.0) | (y == -1.0)).all():
        return None
    return rows


def _reference_rows(path: str, handle, task: str) -> Tuple[list, np.ndarray]:
    """The header and the data rows of the file open as handle, from its
    start, as an (n, d + 1) float64 array, read by csv.reader with every
    cell parsed by float.

    Raises ValueError naming the first row, in file order, that
    read_csv_dataset rejects, by the line its record starts on, and the
    column at fault.
    """
    handle.seek(0)
    reader = csv.reader(handle)
    header = _read_header(path, reader)

    def values():
        while True:
            row_number = reader.line_num + 1
            try:
                row = next(reader, None)
            except csv.Error as exc:
                raise ValueError(f"{path}: row {row_number}: {exc}") from None
            if row is None:
                return
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_number}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                parsed = [*map(float, row)]
            except ValueError:
                parsed = None
            if parsed is None or not all(map(math.isfinite, parsed)):
                # name the first faulty cell in column order
                for column, cell in zip(header, row):
                    where = f"{path}: row {row_number}, column {column!r}"
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ValueError(
                            f"{where}: could not parse {cell.strip()!r} as a number"
                        ) from None
                    if not math.isfinite(value):
                        raise ValueError(f"{where}: value must be finite, got {cell.strip()!r}")
            if task == "classification" and parsed[-1] not in (-1.0, 1.0):
                raise ValueError(
                    f"{path}: row {row_number}, column {header[-1]!r}: "
                    f"classification labels must be -1 or 1, got {row[-1].strip()!r}"
                )
            yield from parsed

    rows = np.fromiter(values(), dtype=np.float64)
    if not len(rows):
        raise ValueError(f"{path}: no data rows after the header")
    return header, rows.reshape(-1, len(header))


def read_csv_dataset(path: str, task: str = "regression") -> Tuple[list, np.ndarray]:
    """Read a rectangular CSV of finite decimals: d features then a label.

    Returns the header, a list of d + 1 column names, and the data rows
    as an (n, d + 1) float64 array whose last column holds the labels.
    Blank rows are skipped, and every cell takes the value Python's float
    gives it.  Classification labels must be exactly -1 or 1.  The file
    is opened once.  After csv.reader reads the header, numpy's C reader
    parses the rest in one pass.  A file it rejects or might misread, or
    whose rows fail a check, is read again from its start by the
    reference pass, which parses each cell with float and names the first
    faulty row, by the line its record starts on, and column.  task must
    be "regression" or "classification".
    """
    if task not in ("regression", "classification"):
        raise ValueError(f"task must be 'regression' or 'classification', got {task!r}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            header = _read_header(path, csv.reader(handle))
            rows = _numpy_rows(handle, len(header), task)
            if rows is None:
                header, rows = _reference_rows(path, handle, task)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return header, rows


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file of per-command option defaults; explicit flags win.",
)
@click.pass_context
def main(ctx: click.Context, config: Optional[str]) -> None:
    """Randomness predictors over binary nonconformity summaries."""
    if config is not None:
        with open(config) as handle:
            try:
                defaults = json.load(handle)
            except json.JSONDecodeError as exc:
                raise click.UsageError(f"--config {config}: invalid JSON ({exc})")
        if not isinstance(defaults, dict):
            raise click.UsageError(f"--config {config}: expected a JSON object")
        ctx.default_map = defaults


@main.command()
@click.option("--k-max", type=click.IntRange(0, 64), default=7, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def table(k_max: int, as_json: bool) -> None:
    """Print the asymptotic incertitude-numerator table."""
    from . import audits

    rows = [
        {**row._asdict(), "a_k_rounded": row.a_k_rounded, "ratio_rounded": row.ratio_rounded}
        for row in audits.reproduce_table_k(k_max)
    ]
    # one text line per column of the table: label, format, row key
    lines = [
        f"{label:6s}" + "".join(format(row[key], ">8" + spec) for row in rows)
        for label, spec, key in (
            ("k", "d", "k"),
            ("irp", ".3f", "a_k_rounded"),
            ("icp", "d", "icp_numerator"),
            ("ratio", ".3f", "ratio_rounded"),
        )
    ]
    _emit(as_json, {"k_max": k_max, "rows": rows}, lines)


@main.command()
@click.option("--m", type=click.IntRange(min=1), required=True)
@click.option("--k", type=click.IntRange(min=0), required=True)
@click.option(
    "--finite/--asymptotic",
    "finite",
    default=True,
    help="Exact finite-m p-value (default) or the a_k/m approximation.",
)
@click.option("--json", "as_json", is_flag=True)
def pvalue(m: int, k: int, finite: bool, as_json: bool) -> None:
    """Engine p-value at (m, k) next to the rank-based one."""
    if k > m:
        raise click.UsageError(f"--k must not exceed --m (got k={k}, m={m})")
    if m > M_MAX:
        raise click.BadParameter(str(m_error(m)), param_hint="'--m'")
    try:
        if finite:
            engine = binary_irp_pvalue(m, k)
            mode, extra = "finite", {}
        else:
            extra = asymptotic_constant(k)._asdict()
            mode, engine = "asymptotic", extra["a_k"] / m
    except RuntimeError as exc:
        # past the engine's range (the module docstring of pvalues)
        raise click.ClickException(str(exc)) from None
    except ValueError as exc:
        # a k too large for the a_k/m approximation (asymptotic_constant)
        raise click.BadParameter(str(exc), param_hint="'--k'") from None
    icp = _incertitude("icp", m, k)
    gcd = math.gcd(k + 1, m + 1)
    exact = f"{(k + 1) // gcd}/{(m + 1) // gcd}"
    payload = {
        **extra,
        "m": m,
        "k": k,
        "mode": mode,
        "icp_pvalue": icp,
        "icp_exact": exact,
        "engine_pvalue": engine,
        "ratio": engine / icp,
        "degenerate": finite and k == m,
    }
    lines = [
        f"m = {m}  k = {k}  ({mode})",
        f"engine p-value : {_fmt(engine)}",
        f"rank p-value   : {_fmt(icp)}  ({exact})",
        f"ratio          : {_fmt(payload['ratio'])}",
    ]
    if payload["degenerate"]:
        lines.append("degenerate: k = m, every configuration conforms")
    _emit(as_json, payload, lines)


@main.command()
@click.option("--train", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option(
    "--split-at",
    "split_at",
    type=click.IntRange(min=1),
    required=True,
    help="Leading rows forming the proper training sequence; the rest calibrate.",
)
@click.option("--test", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option(
    "--task",
    type=click.Choice(["regression", "classification"]),
    default="regression",
    show_default=True,
)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--method", type=click.Choice(["irp", "icp"]), default="irp", show_default=True)
@click.option(
    "--seed", type=click.IntRange(min=0), default=None, help="Classifier initialization seed."
)
@click.option("--json", "as_json", is_flag=True)
def predict(
    train: str,
    split_at: int,
    test: str,
    task: str,
    epsilon: float,
    method: str,
    seed: Optional[int],
    as_json: bool,
) -> None:
    """Hedged predictions for every test row.

    Both files share the header: feature columns then a label column.
    Test labels are parsed but not used for prediction.
    """
    if not 0.0 < epsilon < 1.0:
        raise click.UsageError(f"--epsilon must lie strictly between 0 and 1, got {epsilon}")
    try:
        train_header, train_rows = read_csv_dataset(train, task)
        test_header, test_rows = read_csv_dataset(test, "regression")
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if test_header[:-1] != train_header[:-1]:
        raise click.UsageError(
            f"{test}: feature columns {test_header[:-1]} do not match "
            f"the training header {train_header[:-1]}"
        )
    try:
        split = DataSplit(train_rows[:, :-1], train_rows[:, -1], split_at)
        if task == "regression":
            pipeline = fit_regression_pipeline(split, RegressorSpec())
        else:
            pipeline = fit_classification_pipeline(split, ClassifierSpec(seed=seed))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    render = _predict_json if as_json else _predict_text
    try:
        output = render(method, epsilon, pipeline, test_rows[:, :-1])
    except ValueError as exc:
        raise click.UsageError(f"{test}: {exc}")
    _write(output)


@main.command()
@click.option(
    "--mode", type=click.Choice(["exact", "mc"]), default="exact", show_default=True
)
@click.option("--m", type=click.IntRange(min=1), default=None, help="Calibration size.")
@click.option("--trials", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def validate(
    mode: str, m: Optional[int], trials: int, epsilon: float, seed: int, as_json: bool
) -> None:
    """Audit the validity contract P(p-variable <= eps) <= eps."""
    if mode == "exact":
        m = 10 if m is None else m
        if m > EXACT_M_LIMIT:
            raise click.UsageError(f"--m is capped at {EXACT_M_LIMIT} in exact mode, got {m}")
        from . import audits, ranks

        reports = {
            "binary-irp": audits.audit_pvariable(ranks.binary_irp_pvariable, m),
            "icp": audits.audit_pvariable(ranks.icp_pvariable, m),
            "dominating": audits.audit_pvariable(ranks.dominating_pvariable, m),
        }
        passed = all(report.passed for report in reports.values())
        # exact cells carry neither a name nor a standard error
        pvariables = [
            {
                "name": name,
                "passed": report.passed,
                "cells": [
                    {
                        key: value
                        for key, value in cell._asdict().items()
                        if key not in ("name", "standard_error")
                    }
                    for cell in report.cells
                ],
            }
            for name, report in reports.items()
        ]
        payload = {"mode": "exact", "m": m, "passed": passed, "pvariables": pvariables}
        lines = [f"mode=exact m={m}"] + [
            f"{name:11s} eps={_fmt(cell.epsilon):<15s} "
            f"URP={_fmt(cell.probability):<15s} {_verdict(cell.passed)}"
            for name, report in reports.items()
            for cell in report.cells
        ]
    else:
        if not 0.0 < epsilon < 1.0:
            raise click.UsageError(
                f"--epsilon must lie strictly between 0 and 1, got {epsilon}"
            )
        from . import validity

        generator = validity.BoundedNoiseLinearGenerator(calibration_size=30 if m is None else m)
        report = validity.monte_carlo_coverage(
            validity.PipelineSpec(), generator, epsilon, trials, seed
        )
        passed = report.passed
        payload = {**report._asdict(), "mode": "mc", "epsilon": epsilon, "passed": passed}
        lines = [
            f"mode=mc m={report.m} trials={report.trials} seed={report.seed} epsilon={epsilon}"
        ] + [
            f"{cell.name:18s} rate={_fmt(cell.probability):<15s} "
            f"se={_fmt(cell.standard_error):<15s} {_verdict(cell.passed)} ({cell.detail})"
            for cell in report.cells
        ]
    lines.append(f"overall: {_verdict(passed)}")
    _emit(as_json, payload, lines)
    if not passed:
        sys.exit(1)


@main.command()
@click.option("--m", type=click.IntRange(min=1, max=EXACT_M_LIMIT), required=True)
@click.option(
    "--threshold",
    type=float,
    default=0.5,
    show_default=True,
    help="Summary threshold in (0, 1).  On binary summaries every such value "
    "gives the same verdict and witness.",
)
@click.option("--json", "as_json", is_flag=True)
def dominate(m: int, threshold: float, as_json: bool) -> None:
    """Check that the threshold construction dominates the rank-based p-variable."""
    if not 0.0 < threshold < 1.0:
        raise click.UsageError(
            f"--threshold must lie strictly between 0 and 1 (the summary range), got {threshold}"
        )
    from . import audits, ranks

    result = audits.check_dominance(
        partial(ranks.dominating_pvariable, threshold_a=threshold), ranks.icp_pvariable, m
    )
    witness = result.witness
    payload = {"m": m, "threshold": threshold, "verdict": result.verdict, "witness": None}
    lines = [f"m={m} threshold={_fmt(threshold)} verdict={result.verdict}"]
    if witness is not None:
        # the keys name the p-variables compared as p1 and p2
        payload["witness"] = {
            "calibration_ones": witness.calibration_ones,
            "test_summary": witness.test_summary,
            "dominating_pvalue": witness.p1_value,
            "icp_pvalue": witness.p2_value,
        }
        lines += [
            f"witness: calibration ones={witness.calibration_ones} "
            f"test summary={witness.test_summary}",
            f"  dominating p-value = {_fmt(witness.p1_value)}",
            f"  rank-based p-value = {_fmt(witness.p2_value)}",
        ]
    _emit(as_json, payload, lines)
    if result.verdict != "strict":
        sys.exit(1)


if __name__ == "__main__":
    main()

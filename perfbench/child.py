"""Child-process entry points: the timed units and the traced runs.

    python child.py stream PAIRS [TRACE]
    python child.py batches ARGS [TRACE]

Run with the package under test on PYTHONPATH.  ``stream`` reads "m k"
lines from PAIRS and calls ``randpred.binary_irp_pvalue`` on each pair
in turn.  ``batches`` reads one JSON list of CLI arguments per line from
ARGS and runs ``randpred.cli.main(args, standalone_mode=False)`` on each
in turn, with its output captured.  Both print one JSON object per unit,
{"key", "out", "ns", "ref_ns"}, where ns is the unit's own time and
ref_ns that time at the reference speed of speed.py, then "total_s S"
with the time of all units after import.

With TRACE, timing wrappers replace the package's public functions before
the run, from this file only, and the spans are written to TRACE as JSON
when the run ends.  A wrapped name the package no longer has is skipped.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys
from collections import Counter
from time import perf_counter_ns

import speed

# (module, attribute, span name).  A function imported by name into
# several modules is wrapped once and the wrapper set in each of them.
FUNCTIONS = [
    ("randpred.cli", "read_csv_dataset", "cli.parse"),
    ("randpred.cli", "fit_regression_pipeline", "pipelines.fit"),
    ("randpred.cli", "fit_classification_pipeline", "pipelines.fit"),
    ("randpred.pipelines", "fit_regression_pipeline", "pipelines.fit"),
    ("randpred.pipelines", "fit_classification_pipeline", "pipelines.fit"),
    ("randpred.cli", "prediction_set", "pipelines.set"),
    ("randpred.pipelines", "prediction_set", "pipelines.set"),
    ("randpred.pipelines", "score_regression", "summaries.score"),
    ("randpred.pipelines", "score_margin", "summaries.score"),
    ("randpred.summaries", "score_regression", "summaries.score"),
    ("randpred.summaries", "score_margin", "summaries.score"),
    ("randpred.cli", "monte_carlo_coverage", "validity.mc"),
    ("randpred.validity", "monte_carlo_coverage", "validity.mc"),
]
# (module, class, method, span name)
METHODS = [
    ("randpred.pipelines", "FittedRegressionPipeline", "predict", "pipelines.predict"),
    ("randpred.pipelines", "FittedClassificationPipeline", "predict", "pipelines.predict"),
    ("randpred.validity", "BoundedNoiseLinearGenerator", "sample", "validity.sample"),
]
PVALUE_OWNERS = ["randpred", "randpred.cli", "randpred.pipelines", "randpred.pvalues"]
# Spans that run once per row, trial or query are only aggregated.
PER_ROW = {"pipelines.predict", "pipelines.set", "predictors.predict", "summaries.score",
           "pvalues.cached", "validity.sample"}
RAW_SPAN_LIMIT = 10_000


class Tracer:
    """Spans kept in memory: per-name calls, total and self time, the
    first RAW_SPAN_LIMIT spans not in PER_ROW as (name, start_ns, end_ns,
    parent index), and plain counters."""

    def __init__(self):
        self.stats = {}
        self.counts = Counter()
        self.spans = []
        self.wrapped = []
        self._stack = []

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == name:
            # A fallback predictor called by its own kind: one span.
            return fn(*args, **kwargs)
        parent = stack[-1][2] if stack else None
        raw = name not in PER_ROW and len(self.spans) < RAW_SPAN_LIMIT
        if raw:
            self.spans.append([name, 0, 0, parent])
        index = len(self.spans) - 1 if raw else parent
        frame = [name, 0, index]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            entry = self.stats.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if raw:
                self.spans[index][1:3] = [start, end]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({
                "stats": {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                          for name, (c, t, s) in self.stats.items()},
                "counts": dict(self.counts),
                "wrapped": self.wrapped,
                "spans": self.spans,
            }, handle)


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _wrap(tracer, fn, name, on_result=None):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if on_result is not None:
            on_result(result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _set_all(tracer, owners, attribute, make):
    """Replace owner.attribute in every owner by one wrapper per original."""
    wrappers = {}
    for owner in owners:
        original = getattr(owner, attribute, None) if owner is not None else None
        if original is None:
            continue
        if id(original) not in wrappers:
            wrappers[id(original)] = make(original)
        setattr(owner, attribute, wrappers[id(original)])
        tracer.wrapped.append(f"{getattr(owner, '__name__', owner)}.{attribute}")


def install(tracer: Tracer) -> None:
    counts = tracer.counts
    for module, attribute, name in FUNCTIONS:
        on_result = None
        if name == "cli.parse":
            def on_result(dataset):
                counts["cli.parse_rows"] += len(getattr(dataset, "examples", ()))
        _set_all(tracer, [_module(module)], attribute,
                 lambda fn, name=name, on_result=on_result: _wrap(tracer, fn, name, on_result))
    for module, cls, method, name in METHODS:
        owner = getattr(_module(module), cls, None)
        if owner is not None and method in vars(owner):
            _set_all(tracer, [owner], method, lambda fn, name=name: _wrap(tracer, fn, name))
    predictors = _module("randpred.predictors")
    for cls in vars(predictors).values() if predictors else ():
        if (inspect.isclass(cls) and cls.__module__ == predictors.__name__
                and not getattr(cls, "_is_protocol", False)):
            for method in ("fit", "predict"):
                if method in vars(cls):
                    _set_all(tracer, [cls], method,
                             lambda fn, name=f"predictors.{method}": _wrap(tracer, fn, name))

    seen = set()

    def pvalue(fn):
        def wrapper(m, k, *args, **kwargs):
            key = (m, k)
            if key in seen:
                return tracer.call("pvalues.cached", fn, (m, k) + args, kwargs)
            seen.add(key)
            counts["pvalues.terms"] += k + 1
            return tracer.call("pvalues.cold", fn, (m, k) + args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    _set_all(tracer, [_module(name) for name in PVALUE_OWNERS], "binary_irp_pvalue", pvalue)

    def objective(fn):
        def wrapper(*args, **kwargs):
            counts["pvalues.objective_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    _set_all(tracer, [_module("randpred.pvalues")], "objective", objective)
    config = getattr(_module("randpred.pvalues"), "DEFAULT_CONFIG", None)
    counts["pvalues.grid_points"] = getattr(config, "grid_points", 0)


def _call_main(tracer, args) -> int:
    """randpred.cli.main(args) in this process; its exit code."""
    import click

    import randpred.cli

    try:
        if tracer:
            tracer.call("cli.main", randpred.cli.main, (args,), {"standalone_mode": False})
        else:
            randpred.cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return 0


def run_units(units, make_call, trace_path) -> int:
    """Time call(*args) for each (key, args) in units, where call is
    make_call(tracer), made after the wrappers are in place; print the
    records.  Untraced, the speedometer runs throughout and each record
    also holds the unit's time scaled to the probe's reference speed."""
    tracer = Tracer() if trace_path else None
    if tracer:
        install(tracer)
    call = make_call(tracer)
    meter = None if tracer else speed.Speedometer("mixed")
    spans, records = [], []

    def run_all():
        for key, args in units:
            begin = meter.begin() if meter else perf_counter_ns()
            out = call(*args)
            spans.append((begin, meter.end() if meter else perf_counter_ns()))
            records.append({"key": key, "out": out})

    if tracer:
        start = perf_counter_ns()
        tracer.call("units", run_all, (), {})
        elapsed = perf_counter_ns() - start
        for record, (begin, end) in zip(records, spans):
            record["ns"] = record["ref_ns"] = end - begin
    else:
        meter.sample(speed.MIN_SAMPLES)
        meter.start()
        start = perf_counter_ns()
        try:
            run_all()
        finally:
            meter.stop()
        elapsed = perf_counter_ns() - start - sum(meter.walls[speed.MIN_SAMPLES:])
        meter.sample(speed.MIN_SAMPLES)
        for record, span in zip(records, spans):
            record["ns"], record["ref_ns"] = meter.scale(*span)
    sys.stdout.write("".join(json.dumps(record) + "\n" for record in records))
    sys.stdout.write(f"total_s {elapsed / 1e9!r}\n")
    sys.stdout.flush()
    if tracer:
        tracer.dump(trace_path)
    return 0


def stream_query(tracer):
    return importlib.import_module("randpred").binary_irp_pvalue


def cli_batch(tracer):
    def call(args):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = _call_main(tracer, args)
        return {"code": code, "stdout": buffer.getvalue()}
    return call


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    with open(rest[0]) as handle:
        lines = [line for line in handle if line.strip()]
    trace = rest[1] if len(rest) > 1 else None
    # The imports are not part of any unit.
    if mode == "stream":
        import randpred  # noqa: F401

        units = [(pair, pair) for pair in ([int(v) for v in line.split()] for line in lines)]
        sys.exit(run_units(units, stream_query, trace))
    import randpred.cli  # noqa: F401

    units = [(args, [args]) for args in map(json.loads, lines)]
    sys.exit(run_units(units, cli_batch, trace))

"""The randpred benchmark of record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package under test is its ./src and
nothing needs building.  Each repeat of a workload runs in a fresh
single-threaded child process, one at a time: a closed loop with one
client, as a CLI user or a library caller waits for each result.  A
repeat is a list of short units, CLI calls or p-value queries, each timed
in the child.  Inputs are generated from --seed under ./.perfbench and
removed at exit.

--trace 0 repeats the workload for about S seconds and prints the
end-to-end metrics, their times at the reference speed of speed.py.
--trace 1 runs one repeat as is and one under the timing wrappers of
child.py, and prints the per-layer metrics and the tracing overhead;
the spans go to ./.perfbench/traces.  Every output is checked against
checks.py; the last line of stdout is one JSON object with correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
PYTHON = sys.executable
CHILD = str(BENCH / "child.py")
EPSILON = 0.05
IMPORTTIME_REPEATS = 3
MIN_OPS = 3
# No repeat starts once the run has used this much, whatever MIN_OPS.
HARD_CAP_S = 120.0
# One mc-coverage repeat: MC_BATCHES validate calls of MC_BATCH_TRIALS
# trials each.  A call of about 0.1 s is a unit short enough for the
# probes around it to see the speed it ran at.
MC_BATCHES = 20
MC_BATCH_TRIALS = 100
# One predict-wide repeat: the 30k test rows in this many calls.
PREDICT_CALLS = 10
# One calibrate-deep repeat: this many calls, each on a dataset of its own.
CALIBRATE_CALLS = 4
# Stream answers checked against mpmath besides every k = 0 one: one pair
# from each of this many strata by m and as many by k, and the pairs with
# the largest k, which are the costliest queries.
STREAM_REFERENCE_STRATA = 12
STREAM_REFERENCE_LARGEST_K = 3
# One import in a fresh interpreter under the speedometer; prints the
# import's own ns and its ns at the probe's reference speed.
IMPORT_CODE = ("import sys, time; sys.path.insert(0, {bench!r}); import speed; "
               "sys.path.pop(0); meter = speed.Speedometer('python'); "
               "meter.sample(speed.MIN_SAMPLES); meter.start(); "
               "begin = meter.begin(); import {entry}; end = meter.end(); "
               "meter.stop(); meter.sample(speed.MIN_SAMPLES); print(*meter.scale(begin, end))")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


ENV = child_env()


class Op:
    """One finished child process: wall time, peak RSS, exit code, stdout."""

    def __init__(self, argv, out: Path):
        err = out.with_suffix(".err")
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=ENV, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall_s = perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.out = out
        self.stderr = err.read_text(errors="replace")[-2000:]


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class UnitWorkload:
    """Short units run in turn in one child process per repeat, each
    timed in the child: distinct queries or CLI calls in one process."""

    def __init__(self, work, keys):
        self.keys = keys
        self.path = work / "units.txt"
        self.first = None

    def argv(self):
        return [PYTHON, CHILD, self.mode, str(self.path)]

    def traced_argv(self, trace: Path):
        return [*self.argv(), str(trace)]

    @staticmethod
    def parse(op: Op):
        """(keys, outputs, per-unit times in ms, the same at the probe's
        reference speed, time of all units in s)."""
        lines = op.out.read_text().splitlines()
        records = [json.loads(line) for line in lines[:-1]]
        return ([r["key"] for r in records], [r["out"] for r in records],
                [r["ns"] / 1e6 for r in records], [r["ref_ns"] / 1e6 for r in records],
                float(lines[-1].split()[1]))

    def op_time(self, op: Op) -> float:
        return self.parse(op)[4] if op.code == 0 else op.wall_s

    def check(self, op: Op) -> checks.Verdict:
        """The first repeat's outputs against the references, and every
        later repeat's against the first: one failure per wrong unit."""
        units = len(self.keys)
        if op.code != 0:
            return checks.Verdict([f"exit code {op.code}: {op.stderr.strip()[-300:]}"] * units)
        keys, outputs = self.parse(op)[:2]
        if keys != self.keys:
            return checks.Verdict(["the child ran other units than asked"] * units)
        if self.first is not None:
            mismatched = sum(a != b for a, b in zip(outputs, self.first))
            return checks.Verdict(["output differs from the first repeat"] * mismatched)
        verdict = checks.Verdict()
        for index, (key, output) in enumerate(zip(keys, outputs)):
            self.check_unit(verdict, index, key, output)
        if not verdict.failures:
            self.first = outputs
        return verdict

    def output_bytes(self, op: Op) -> int:
        return 0


class CliBatches(UnitWorkload):
    """CLI commands called in turn in one process, each call a unit."""

    entry = "randpred.cli"
    mode = "batches"
    unit = "call"

    def __init__(self, work, calls):
        super().__init__(work, calls)
        self.path.write_text("".join(json.dumps(args) + "\n" for args in calls))

    def check_unit(self, verdict, index, args, output):
        if output["code"] != 0:
            verdict.failures.append(f"call {index}: exit code {output['code']}")
            return
        unit = self.check_call(index, output["stdout"])
        verdict.failures += [f"call {index}: {message}" for message in unit.failures]
        verdict.rel_err = max(verdict.rel_err, unit.rel_err)

    def output_bytes(self, op: Op) -> int:
        return sum(len(out["stdout"].encode()) for out in self.parse(op)[1])


class PredictWide(CliBatches):
    """`predict` on PREDICT_CALLS files of test rows against one train file."""

    name = "predict-wide"

    def __init__(self, seed, work):
        self.data = inputs.regression_dataset(seed, work)
        self.chunks = inputs.test_chunks(self.data, PREDICT_CALLS)
        super().__init__(work, [["predict", "--train", str(c.train_csv), "--split-at",
                                 str(c.split_at), "--test", str(c.test_csv), "--json"]
                                for c in self.chunks])

    def check_call(self, index, text):
        return checks.check_regression(text, self.chunks[index], EPSILON)

    def describe(self):
        return (_describe_data(self.data) + f"; the test rows split into {PREDICT_CALLS} "
                f"files of {len(self.chunks[0].test_y)} rows, one call each")


class CalibrateDeep(CliBatches):
    """`predict --task classification` on CALIBRATE_CALLS datasets, each
    with its own seed."""

    name = "calibrate-deep"

    def __init__(self, seed, work):
        self.seeds = [seed * CALIBRATE_CALLS + i for i in range(CALIBRATE_CALLS)]
        self.datasets = [inputs.classification_dataset(s, work / f"call{i}")
                         for i, s in enumerate(self.seeds)]
        self.references = [checks.classification_reference(d) for d in self.datasets]
        # The mpmath references are cached here, before any timing.
        for m, k, _ in self.references:
            checks.reference_pvalue(m, k)
        super().__init__(work, [["predict", "--task", "classification", "--train",
                                 str(d.train_csv), "--split-at", str(d.split_at),
                                 "--test", str(d.test_csv), "--json"] for d in self.datasets])

    def check_call(self, index, text):
        return checks.check_classification(text, self.datasets[index], EPSILON,
                                           self.references[index], self.seeds[index])

    def describe(self):
        return (f"{CALIBRATE_CALLS} calls, seeds {self.seeds[0]}-{self.seeds[-1]}, each: "
                + _describe_data(self.datasets[0]) + "; reference (m, k) = "
                + ", ".join(f"({m}, {k})" for m, k, _ in self.references))


class McCoverage(CliBatches):
    """`validate --mode mc` in batches of MC_BATCH_TRIALS trials, each with
    its own seed."""

    name = "mc-coverage"

    def __init__(self, seed, work):
        self.seeds = [seed * MC_BATCHES + b for b in range(MC_BATCHES)]
        super().__init__(work, [["validate", "--mode", "mc", "--trials", str(MC_BATCH_TRIALS),
                                 "--seed", str(s), "--epsilon", str(EPSILON), "--json"]
                                for s in self.seeds])
        self.references = [checks.mc_reference(s, MC_BATCH_TRIALS, EPSILON) for s in self.seeds]

    def check_call(self, index, text):
        return checks.check_mc(text, self.seeds[index], self.references[index])

    def describe(self):
        irp = sum(r["irp"] for r in self.references)
        icp = sum(r["icp"] for r in self.references)
        return (f"{MC_BATCHES} calls of {MC_BATCH_TRIALS} trials at m = {checks.MC_M}, "
                f"seeds {self.seeds[0]}-{self.seeds[-1]}; reference misses irp {irp}, "
                f"icp {icp}")


class PvalueStream(UnitWorkload):
    """Distinct (m, k) queries to binary_irp_pvalue in one process, so
    every call is a cold engine call."""

    name = "pvalue-stream"
    entry = "randpred"
    mode = "stream"
    unit = "query"

    def __init__(self, seed, work):
        pairs = inputs.pvalue_stream(seed)
        super().__init__(work, [list(p) for p in pairs])
        inputs.write_pairs(self.path, pairs)
        rng = np.random.default_rng([seed, 1])
        positive = [p for p in pairs if p[1] >= 1]
        by_k = sorted(positive, key=lambda p: (p[1], p[0]))
        self.subset = set(by_k[-STREAM_REFERENCE_LARGEST_K:])
        for ordered in (sorted(positive), by_k):
            strata = np.array_split(np.arange(len(ordered)), STREAM_REFERENCE_STRATA)
            self.subset |= {ordered[rng.choice(s)] for s in strata if s.size}
        self.subset |= {p for p in pairs if p[1] == 0}
        for m, k in self.subset:
            checks.reference_pvalue(m, k)

    def check_unit(self, verdict, index, key, value):
        m, k = key
        if (m, k) in self.subset:
            verdict.pvalue(value, m, k, "stream")

    def describe(self):
        ms = [m for m, _ in self.keys]
        ks = [k for _, k in self.keys]
        return (f"{len(self.keys)} distinct (m, k): m in [{min(ms)}, {max(ms)}], "
                f"k in [{min(ks)}, {max(ks)}], {sum(k == 0 for k in ks)} with k = 0, "
                f"sum of k+1 = {sum(k + 1 for k in ks)}; "
                f"{len(self.subset)} checked against mpmath")


WORKLOADS = {w.name: w for w in (PredictWide, CalibrateDeep, PvalueStream, McCoverage)}


def _describe_data(data) -> str:
    return (f"train {len(data.train_y)} rows ({data.train_csv.stat().st_size} B, "
            f"split at {data.split_at}), test {len(data.test_y)} rows "
            f"({data.test_csv.stat().st_size} B), {data.train_x.shape[1]} features")


def environment() -> str:
    versions = ", ".join(f"{p} {importlib.metadata.version(p)}"
                         for p in ("numpy", "scipy", "click"))
    return (f"python {sys.version.split()[0]}, {versions}, nproc {os.cpu_count()}, "
            f"affinity {len(os.sched_getaffinity(0))}")


def import_time(entry: str, out: Path):
    """One fresh-interpreter import of the entry module: (seconds, seconds
    at the probe's reference speed)."""
    op = Op([PYTHON, "-c", IMPORT_CODE.format(bench=str(BENCH), entry=entry)], out)
    if op.code != 0:
        raise RuntimeError(f"import {entry} failed: {op.stderr}")
    own, ref = out.read_text().split()
    return float(own) / 1e9, float(ref) / 1e9


def import_breakdown(entry: str):
    """(package import s, scipy import s) from `python -X importtime`.

    The package time is the cumulative time of its top-level entries.  The
    scipy time is the cumulative time of every scipy entry with no scipy
    module above it, so it includes whatever else only scipy pulls in.
    """
    proc = subprocess.run([PYTHON, "-X", "importtime", "-c", f"import {entry}"],
                          env=ENV, cwd=ROOT, capture_output=True, text=True)
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        entries.append((depth, parts[2].strip().split(".")[0], cumulative_us))
    # importtime prints each module after its imports; reversed, every
    # entry follows its parent, so the stack holds its ancestors.
    total = scipy = 0
    stack = []
    for depth, package, cumulative_us in reversed(entries):
        del stack[depth:]
        if depth == 0 and package == "randpred":
            total += cumulative_us
        if package == "scipy" and "scipy" not in stack:
            scipy += cumulative_us
        stack.append(package)
    return total / 1e6, scipy / 1e6


def measure(workload, seconds: float, work: Path):
    """Repeat a fresh-interpreter import and the workload for about
    `seconds` of child-process time, after one warm-up import.

    Returns the ops, their times, the import times as (s, reference s),
    per-unit times in ms and in reference ms (one list per op), and the
    attempted and failed counts.
    """
    ops, walls, setups, latencies, references = [], [], [], [], []
    rounds = []
    attempted = failed = 0

    def projected():
        """Child time so far plus one more typical round."""
        return sum(rounds) + median(rounds)

    import_time(workload.entry, work / "setup.out")
    while len(ops) < MIN_OPS or projected() <= seconds:
        if projected() > HARD_CAP_S:
            break
        start = perf_counter()
        setups.append(import_time(workload.entry, work / "setup.out"))
        op = Op(workload.argv(), work / f"op{len(ops)}.out")
        rounds.append(perf_counter() - start)
        ops.append(op)
        walls.append(workload.op_time(op))
        verdict = workload.check(op)
        attempted += len(workload.keys)
        failed += min(len(verdict.failures), len(workload.keys))
        if op.code == 0:
            _, _, timed, reference, _ = workload.parse(op)
            latencies.append(timed)
            references.append(reference)
        for message in verdict.failures[:3]:
            print(f"FAIL {workload.name} op {len(ops)}: {message}")
        op.out.unlink()
    return ops, walls, setups, latencies, references, attempted, failed


def end_to_end(workload, seconds: float, work: Path):
    """Op time, import time, peak RSS and per-unit latency.

    Times are at the probe's reference speed (speed.py), so that the
    phases in which other tenants slow this machine cancel out.  Each
    unit's time is its median over the run's repeats; wall_s is the sum of
    those and latency_p50_ms their median.  setup_s is the median import.
    """
    ops, walls, setup, latencies, references, attempted, failed = measure(
        workload, seconds, work)
    for name, pick in (("as timed", 0), ("at reference speed", 1)):
        print(f"setup: import {workload.entry}, one fresh interpreter before each repeat, "
              f"{name}: " + " ".join(f"{t[pick]:.4f}" for t in setup) + " s")
    print(f"repeats: {len(ops)}, time of all units " + " ".join(f"{w:.4f}" for w in walls) + " s")
    for name, samples in (("as timed", latencies), ("at reference speed", references)):
        times = [median(unit) for unit in zip(*samples)]
        print(f"time per {workload.unit} {name}, median of {len(samples)} repeats, over "
              f"{len(times)} units: p50 {percentile(times, 50):.4f} ms, "
              f"p99 {percentile(times, 99):.4f} ms, max {max(times):.4f} ms, "
              f"sum {sum(times) / 1e3:.4f} s")
    times = [median(unit) for unit in zip(*references)]
    metrics = {
        "wall_s": (sum(times) / 1e3, "s"),
        "setup_s": (median([ref for _, ref in setup]), "s"),
        "peak_rss_mb": (median([op.rss_mb for op in ops]), "MB"),
        "latency_p50_ms": (percentile(times, 50), "ms"),
    }
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6g}")
    return metrics, attempted, failed


def per_layer(workload, work: Path, seed: int):
    plain = Op(workload.argv(), work / "plain.out")
    trace_path = WORK / "traces" / f"{workload.name}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    traced = Op(workload.traced_argv(trace_path), work / "traced.out")
    verdicts = [workload.check(plain), workload.check(traced)]
    attempted = 2 * len(workload.keys)
    failed = sum(min(len(v.failures), len(workload.keys)) for v in verdicts)
    for verdict in verdicts:
        for message in verdict.failures[:3]:
            print(f"FAIL {workload.name}: {message}")
    trace = json.loads(trace_path.read_text()) if trace_path.exists() else {}
    stats, counts = trace.get("stats", {}), trace.get("counts", {})

    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    breakdown = [import_breakdown(workload.entry) for _ in range(IMPORTTIME_REPEATS)]
    cold, cached = calls("pvalues.cold"), calls("pvalues.cached")
    terms = counts.get("pvalues.terms", 0)
    trials = calls("validity.sample")
    plain_wall, traced_wall = workload.op_time(plain), workload.op_time(traced)
    queries = (workload.parse(plain)[2]
               if workload.name == "pvalue-stream" and plain.code == 0 else [])
    metrics = {
        "cli.import_s": (median([b[0] for b in breakdown]), "s"),
        "cli.import_scipy_s": (median([b[1] for b in breakdown]), "s"),
        "cli.parse_s": (total("cli.parse"), "s"),
        "cli.parse_rows_per_s": (counts.get("cli.parse_rows", 0) / total("cli.parse")
                                 if total("cli.parse") else 0.0, "rows/s"),
        "cli.render_s": (self_time("cli.main"), "s"),
        "cli.output_bytes": (workload.output_bytes(plain) if plain.code == 0 else 0, "B"),
        "predictors.fit_s": (total("predictors.fit"), "s"),
        "predictors.fit_calls": (calls("predictors.fit"), "count"),
        "predictors.predict_s": (total("predictors.predict"), "s"),
        "predictors.predict_calls": (calls("predictors.predict"), "count"),
        "summaries.score_s": (total("summaries.score"), "s"),
        "summaries.score_calls": (calls("summaries.score"), "count"),
        "pipelines.fit_s": (total("pipelines.fit"), "s"),
        "pipelines.predict_s": (self_time("pipelines.predict"), "s"),
        "pipelines.predict_calls": (calls("pipelines.predict"), "count"),
        "pipelines.set_s": (total("pipelines.set"), "s"),
        "pvalues.cold_calls": (cold, "count"),
        "pvalues.cold_s": (total("pvalues.cold"), "s"),
        "pvalues.cached_calls": (cached, "count"),
        "pvalues.cached_s": (total("pvalues.cached"), "s"),
        "pvalues.hit_ratio": (cached / (cold + cached) if cold + cached else 0.0, "ratio"),
        "pvalues.terms": (terms, "count"),
        "pvalues.ns_per_term": (total("pvalues.cold") * 1e9 / terms if terms else 0.0, "ns"),
        "pvalues.objective_evals": (counts.get("pvalues.objective_evals", 0), "count"),
        "pvalues.grid_evals": (counts.get("pvalues.grid_points", 0) * terms, "count"),
        "pvalues.rel_err_max": (max(v.rel_err for v in verdicts), "ratio"),
        "pvalues.query_p50_ms": (percentile(queries, 50), "ms"),
        "pvalues.query_p99_ms": (percentile(queries, 99), "ms"),
        "validity.trials": (trials, "count"),
        "validity.sample_s": (total("validity.sample"), "s"),
        "validity.fits_per_trial": (calls("pipelines.fit") / trials if trials else 0.0, "ratio"),
        "validity.self_s": (self_time("validity.mc"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }
    print(f"traced run: {traced_wall:.4f} s, untraced {plain_wall:.4f} s; spans in {trace_path}")
    print(f"wrapped {len(trace.get('wrapped', []))} package attributes, listed in the trace")
    print("pvalues.grid_evals is computed as grid_points * terms, not counted")
    print("core: no public entry point of its own; Example, Interval and HedgedPrediction "
          "are built inside cli.parse_s, pipelines.predict_s and validity.sample_s")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an error: kill the running child, wait for
    # it and remove the inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "randpred" / "__init__.py").is_file():
        print(f"no package to measure: {ROOT / 'src' / 'randpred'} is missing", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        print(f"workload {args.workload}, seed {args.seed}: {workload.describe()}")
        print(f"environment: {environment()}")
        if args.trace:
            metrics, attempted, failed = per_layer(workload, work, args.seed)
        else:
            metrics, attempted, failed = end_to_end(workload, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

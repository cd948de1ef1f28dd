"""fracspec benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload ode-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports fracspec from ./src.
Workloads (see workloads.py and BENCHMARK.json): ode-sweep, pde-2d, cli-study.

One client drives each workload in a closed loop from this process: the next
operation starts when the previous one returns, and no thread or process
pools are used.  A pass runs every operation of the workload once, in an
order the seed permutes; passes repeat until --seconds have elapsed.  The
thread variables of the environment (BLAS, OpenMP, FRACSPEC_THREADS) are left
as found and recorded.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics:
passes then alternate between untraced and traced with the span wrappers of
spans.py installed, and the ratio of the two pass-time medians is the
tracing overhead.  Human-readable lines come first; the last line of
standard output is the JSON result.  A result file with the environment
record goes to perfbench/out/.

An operation the seed code refused (reference.json) may still be refused
with the same error type: it counts as attempted but not answered, which
lowers answered_frac without making the run incorrect.  Any other exception,
and any answer outside its error bound, is a failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FRACSPEC_THREADS")
ERR_CAP = 1e-16
TAIL_BEYOND = 10
COUNT_SUFFIXES = (".calls", ".amount", ".failed", "mode_solves")
SETUP_RUNS = 5  # fresh-interpreter set-ups timed; setup_s is their median

sys.path.insert(0, SRC)
import spans  # noqa: E402

try:
    import workloads  # noqa: E402  (imports fracspec from SRC)
except ModuleNotFoundError as exc:
    if exc.name != "fracspec":
        raise
    workloads = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def measure_setup(workload: str, scratch: str) -> list[float]:
    """Launch-to-first-result times of fresh interpreters; one untimed run first."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for k in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload, scratch], cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if k > 0:
            times.append(elapsed)
    return times


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Record:
    """What one measured stretch of passes produced."""

    def __init__(self, ops):
        self.pass_s: list[float] = []
        self.latency = {op.name: [] for op in ops}
        self.attempted = self.answered = self.refused = self.failed = 0
        self.errors: dict[str, float] = {}
        self.digits: list[float] = []
        self.problems: dict[str, str] = {}
        self.csv_bytes: list[int] = []


def run_pass(order, record: Record, tracer=None, ops_log=None):
    """One closed-loop pass: each operation starts when the previous one returned."""
    pass_ns = 0
    csv_bytes = 0
    for op in order:
        if tracer is not None:
            tracer.op = len(ops_log)
            ops_log.append((len(record.pass_s), op.name))
            root = tracer.begin(spans.ROOT)
        exc = None
        start = time.perf_counter_ns()
        try:
            result = op.run()
        except Exception as caught:  # an operation's failure is a measurement
            exc = caught
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.end(root, raised=exc is not None)
            tracer.op = -1
        pass_ns += elapsed
        record.latency[op.name].append(elapsed / 1e6)
        record.attempted += 1
        if exc is not None:
            if op.refusal_expected(exc):
                record.refused += 1
            else:
                record.failed += 1
                record.problems[op.name] = f"{type(exc).__name__}: {exc}"
            continue
        if isinstance(op, workloads.CliOp):
            csv_bytes += op.csv_bytes()
        err, problems = op.check(result)
        record.errors[op.name] = err
        if problems:
            record.failed += 1
            record.problems[op.name] = "; ".join(problems)
        else:
            record.answered += 1
            record.digits.append(-math.log10(max(err, ERR_CAP)))
    record.pass_s.append(pass_ns / 1e9)
    record.csv_bytes.append(csv_bytes)


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def gmean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and that percentile.

    With too few samples for that, the maximum (percentile 100).
    """
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(record: Record, setup: list[float]) -> tuple[dict, dict]:
    # Times are reported at the tail, not the median.  On a shared host the
    # machine runs in a slow state most of the time, with short fast bursts
    # in which an operation takes about 0.6 of its usual time.  The median and
    # upper quartile move with the share of bursts in a run (IQR/median up to
    # 0.3 over ten runs), the minimum with whether a long operation met a
    # burst at all; the tail sits on the slow state and stays put.
    p_tail, pct = tail(record.pass_s)
    point_tail = [tail(v)[0] for v in record.latency.values() if v]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s.tail": p_tail,
        "op_ms.tail_gmean": gmean(point_tail),
        "answered_frac": record.answered / record.attempted,
        "err_digits": statistics.fmean(record.digits) if record.digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "pass_s.p50": statistics.median(record.pass_s),
        "pass_s.p75": upper_quartile(record.pass_s),
        "pass_s.tail_percentile": pct,
        "op_ms.p50_gmean": gmean([statistics.median(v) for v in record.latency.values() if v]),
        "op_ms.best_gmean": gmean([min(v) for v in record.latency.values() if v]),
        "setup_runs_s": setup,
        **outcome_notes(record),
    }
    return metrics, notes


def outcome_notes(record: Record) -> dict:
    return {
        "passes": len(record.pass_s),
        "attempted": record.attempted,
        "refused": record.refused,
        "failed": record.failed,
        "fail_frac": (record.refused + record.failed) / record.attempted,
    }


def per_layer(tracer, ops_log, traced: Record, untraced: Record) -> tuple[dict, dict, bool]:
    selfs = tracer.self_times()
    checked, bad, threaded = tracer.check_self_times(selfs)
    metrics, per_pass = spans.layer_metrics(tracer, selfs, [p for p, _ in ops_log])
    metrics["cli.csv_bytes"] = statistics.median(traced.csv_bytes)
    traced_p50 = statistics.median(traced.pass_s)
    untraced_p50 = statistics.median(untraced.pass_s)
    metrics["trace.overhead"] = traced_p50 / untraced_p50
    # Counts must repeat exactly from pass to pass, and per operation.
    unsteady = sorted(
        name for name, vals in per_pass.items()
        if name.endswith(COUNT_SUFFIXES) and len(set(vals)) > 1
    )
    op_counts = spans.op_counts(tracer, [name for _, name in ops_log])
    unsteady += sorted(name for name, counts in op_counts.items() if len(counts) > 1)
    notes = {
        "traced_pass_s.p50": traced_p50,
        "untraced_pass_s.p50": untraced_p50,
        "self_time_check": {"ops_checked": checked, "ops_mismatched": bad,
                            "ops_threaded": threaded},
        "unsteady_counts": unsteady,
        "rule_builds_per_scalar_solve": {n: c[0][0] for n, c in op_counts.items() if c[0][0]},
        "mode_solves_per_op": {n: c[0][1] for n, c in op_counts.items() if c[0][1]},
        "missing_bindings": tracer.missing,
        "spans": len(tracer.names),
    }
    ok = bad == 0 and not unsteady and checked > 0
    return metrics, notes, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if workloads is None:
        print(f"fracspec sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"scratch-{os.getpid()}")
    try:
        return run(args, wanted, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, wanted, scratch) -> int:
    setup = [] if args.trace else measure_setup(args.workload, scratch)
    env = environment()
    workload = workloads.build(args.workload, scratch)
    workload.attach_reference(workloads.load_reference())
    for op in workload.ops:  # untimed warm-up: lazy imports, caches, page faults
        try:
            op.run()
        except Exception:  # outcomes are judged in the measured passes
            pass

    rng = random.Random(args.seed)
    order = list(workload.ops)
    untraced = Record(workload.ops)
    traced = Record(workload.ops)
    tracer = spans.Tracer()
    ops_log: list[tuple[int, str]] = []
    deadline = time.perf_counter() + args.seconds
    # With --trace 1, traced and untraced passes alternate, so the overhead
    # compares passes that saw the same machine state.
    for k in itertools.count():
        rng.shuffle(order)
        if args.trace and k % 2:
            tracer.install()
            try:
                run_pass(order, traced, tracer, ops_log)
            finally:
                tracer.uninstall()
        else:
            run_pass(order, untraced)
        if time.perf_counter() >= deadline and (k >= 1 or not args.trace):
            break

    if args.trace:
        metrics, notes, trace_ok = per_layer(tracer, ops_log, traced, untraced)
        tracer.dump(os.path.join(OUT, f"{args.workload}.spans.json.gz"))
        notes.update(outcome_notes(traced))
        record = traced
    else:
        metrics, notes = end_to_end(untraced, setup)
        trace_ok = True
        record = untraced
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed

    values = {m["name"]: metrics.get(m["name"], 0.0) for m in wanted}
    correct = failed == 0 and trace_ok
    report(args, env, values, wanted, notes, record, correct)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(
        os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
        encoding="utf-8",
    ) as fh:
        json.dump({"args": vars(args), "environment": env, "notes": notes,
                   "errors": record.errors, "problems": {**untraced.problems, **traced.problems},
                   "pass_s": record.pass_s,
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def report(args, env, values, wanted, notes, record, correct):
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))
    for m in wanted:
        print(f"  {m['name']:<45} {values[m['name']]:>16.6g} {m['unit']}")
    for key, val in notes.items():
        print(f"  note {key}: {val}")
    for name, lat in record.latency.items():
        err = record.errors.get(name)
        lat_tail, pct = tail(lat)
        print(f"  op {name:<34} median {statistics.median(lat):9.3f} ms"
              f"  tail {lat_tail:9.3f} ms (p{pct:.0f})  n={len(lat):<5}"
              f" error={err if err is None else format(err, '.3e')}"
              f"{'  PROBLEM: ' + record.problems[name] if name in record.problems else ''}")
    print(f"  correct={correct}")


if __name__ == "__main__":
    sys.exit(main())

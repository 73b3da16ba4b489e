"""One measurement process, started by run.py with BLAS threads pinned.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --probe

A probe imports pumpslab, builds the workload's scenario, makes one
warm-up request and exits: run.py times it from outside as set-up.  A
measurement run does the same set-up, then a closed loop with one caller:
each request is preceded by the host-reference kernel, timed separately,
and followed by its (untimed) checks.  With --trace 1 every request runs
twice, untraced and traced in alternating order, and the traced spans of
the first ``trace_requests`` requests give the per-layer counters.

The last line of standard output is one JSON object with the metrics, the
context figures and the provenance.
"""
import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import checkout
import hostref
import tracing

MAX_REPORTED_FAILURES = 5
PROBE_REFERENCE_RUNS = 2  # before and again after set-up


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


class Tally:
    """Checked requests and the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, problems, label):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{label}: {problems[0]}")


def timed_run(workload, job, span=contextlib.nullcontext()):
    """The call into pumpslab, inside `span`: (seconds, raw output, problems)."""
    clock = time.perf_counter
    with span:
        start = clock()
        try:
            raw = workload.run(job)
        except Exception as exc:  # any escape from the library is a failure
            return clock() - start, None, [f"{type(exc).__name__}: {exc}"]
        return clock() - start, raw, []


def check(workload, job, raw, want):
    """Checks of one output: (outcome or None, problems)."""
    import workloads

    try:
        outcome = workload.extract(job, raw)
    except Exception as exc:
        return None, [f"unreadable output: {type(exc).__name__}: {exc}"]
    problems = list(outcome.problems)
    if want is not None:
        mismatch = workloads.table_mismatch(outcome.table, want, outcome.columns)
        if mismatch:
            problems.append(f"mismatch with reference: {mismatch}")
    return outcome, problems


def checked_call(workload, job, want, span=contextlib.nullcontext()):
    """Run and check one request: (seconds, outcome or None, problems)."""
    elapsed, raw, problems = timed_run(workload, job, span)
    if problems:
        return elapsed, None, problems
    outcome, problems = check(workload, job, raw, want)
    return elapsed, outcome, problems


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles' exclusive rule."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def reference_seconds():
    """Wall time of one run of the host-reference kernel."""
    start = time.perf_counter()
    hostref.host_reference_kernel()
    return time.perf_counter() - start


def measure(workload, ctx, pool, order, seconds, tally):
    """Closed loop for `seconds`, or until the pool's order is used up.

    Returns one (reference seconds, request seconds, items) sample per
    correct request, where the reference is the mean of the kernel runs
    right before and right after the request.
    """
    samples = []
    clock = time.perf_counter
    end = clock() + seconds
    ref_before = reference_seconds()
    for index in order:
        if clock() >= end:
            break
        entry = pool.entry(index)
        job = workload.prepare(ctx, entry["spec"])
        elapsed, raw, problems = timed_run(workload, job)
        ref_after = reference_seconds()
        outcome = None
        if not problems:
            outcome, problems = check(workload, job, raw, entry["table"])
        tally.record(problems, f"request {index}")
        if outcome is not None and not problems:
            samples.append((0.5 * (ref_before + ref_after), elapsed, outcome.items))
        ref_before = ref_after
    return samples


def end_to_end_metrics(samples, tally, pool_size):
    refs = [s[0] for s in samples]
    times = [s[1] for s in samples]
    norms = [s[1] / s[0] for s in samples]
    items = sum(s[2] for s in samples)
    metrics = {
        "latency_p50_norm": (statistics.median(norms), "ref"),
        "latency_p90_norm": (percentile(norms, 90), "ref"),
        "throughput_norm": (items / sum(norms), "items/ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    context = {
        "latency_p50_ms": (1e3 * statistics.median(times), "ms"),
        "latency_p90_ms": (1e3 * percentile(times, 90), "ms"),
        "rows_per_s": (items / sum(times), "items/s"),
        "host_ref_ms": (1e3 * statistics.median(refs), "ms"),
        "error_rate": (tally.failed / max(tally.attempted, 1), "ratio"),
        "samples": (len(samples), "count"),
        "pool_size": (pool_size, "count"),
    }
    return metrics, context


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_metrics(workload, ctx, pool, order, seconds, tally, trace_path):
    """Untraced/traced pairs; per-layer counters from the first requests."""
    tracer = tracing.Tracer()
    tracer.install()
    counted = workload.trace_requests
    counts = Counter()
    rows = 0
    pairs = []
    clock = time.perf_counter
    end = clock() + seconds
    i = 0
    try:
        for index in order:
            if i >= counted and clock() >= end:
                break
            entry = pool.entry(index)
            mark = tracer.mark()
            timings = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                job = workload.prepare(ctx, entry["spec"])
                span = tracer.request(i) if traced else contextlib.nullcontext()
                elapsed, outcome, problems = checked_call(
                    workload, job, entry["table"], span
                )
                tally.record(problems, f"request {index} traced={traced}")
                timings[traced] = elapsed
                if traced and i < counted and outcome is not None:
                    counts.update(outcome.counts)
                    rows += outcome.rows
            pairs.append((timings[False], timings[True]))
            if i >= counted:
                tracer.drop_since(mark)
            i += 1
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    return per_layer_metrics(tracer, counts, rows, pairs, counted)


def per_layer_metrics(tracer, counts, rows, pairs, requests):
    import workloads

    summary = tracer.summary()
    metrics = {}
    for name, _, _ in tracing.TARGETS:
        metrics[f"{name}.calls"] = (summary[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (summary[name]["self_s"], "s")
    resonance = (summary["kinematics.pdc_resonance"]["calls"]
                 + summary["kinematics.puc_resonance"]["calls"])
    metrics["kinematics.resonance.calls_per_row"] = (
        resonance / rows if rows else 0.0, "calls/row")
    metrics["dispersion.mu.calls_per_row"] = (
        summary["dispersion.mu"]["calls"] / rows if rows else 0.0, "calls/row")
    solve = summary["oracle.exact_solve"]
    metrics["oracle.systems_per_s"] = (
        solve["calls"] / solve["total_s"] if solve["total_s"] else 0.0, "1/s")
    metrics["oracle.conditioning_refusals"] = (
        solve["errors"].get("ConditioningError", 0), "count")
    metrics["oracle.breaches"] = (counts["breaches"], "count")
    metrics["oracle.exact_applicable_fraction"] = (
        counts["exact_applicable"] / counts["exact_rows"]
        if counts["exact_rows"] else 0.0, "ratio")
    metrics["sweep.write_rows.bytes"] = (counts["bytes"], "bytes")
    for status in workloads.SKIP_STATUSES:
        metrics[f"sweep.skip.{status}"] = (counts[f"sweep.skip.{status}"], "count")
    metrics["sweep.ok_fraction"] = (
        counts["ok"] / counts["rows"] if counts["rows"] else 0.0, "ratio")
    metrics["trace.overhead_ms"] = (
        1e3 * statistics.median(t - u for u, t in pairs), "ms")
    metrics["trace.overhead_share"] = (
        statistics.median((t - u) / u for u, t in pairs), "ratio")
    metrics["trace.requests"] = (requests, "count")
    metrics["trace.rows"] = (rows, "count")
    metrics["trace.absent_names"] = (len(tracer.absent), "count")
    return metrics


def provenance():
    import numpy
    import scipy

    import pumpslab

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pumpslab": pumpslab.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def main(argv=None):
    args = parse_args(argv)
    if args.probe:
        # host speed right before set-up; more runs follow right after it
        refs = [reference_seconds() for _ in range(PROBE_REFERENCE_RUNS)]
    try:
        checkout.use_checkout_source()
    except checkout.MissingSource as exc:
        print(f"bench worker: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tmpdir = os.path.join(checkout.TMP_DIR, f"{workload.name}-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        ctx = workload.setup(tmpdir)
        warm_up = workload.prepare(ctx, workload.make_spec(random.Random(args.seed)))
        _, _, problems = checked_call(workload, warm_up, None)
        if args.probe:
            refs += [reference_seconds() for _ in range(PROBE_REFERENCE_RUNS)]
            print(json.dumps({"problems": problems, "ref_s": refs}))
            return 0 if not problems else 1
        tally = Tally()
        tally.record(problems, "warm-up")
        pool = checkout.ReferencePool(workload.name)
        order = workloads.request_order(pool.groups(), random.Random(args.seed))
        os.makedirs(checkout.OUT_DIR, exist_ok=True)
        if args.trace:
            trace_path = os.path.join(
                checkout.OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl"
            )
            metrics = trace_metrics(workload, ctx, pool, order, args.seconds,
                                    tally, trace_path)
            context = {}
        else:
            samples = measure(workload, ctx, pool, order, args.seconds, tally)
            samples_path = os.path.join(
                checkout.OUT_DIR, f"samples-{workload.name}-seed{args.seed}.json"
            )
            with open(samples_path, "w", encoding="utf-8") as fh:
                json.dump({"columns": ["ref_s", "request_s", "items"],
                           "samples": samples}, fh)
            if not samples:
                print(f"bench worker: no successful request; {tally.failures}",
                      file=sys.stderr)
                metrics, context = {}, {}
            else:
                metrics, context = end_to_end_metrics(samples, tally, len(pool))
        pool.close()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(checkout.TMP_DIR)  # only if no other run is using it
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "context": {k: {"value": v, "unit": u} for k, (v, u) in context.items()},
        "provenance": provenance(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: set-up probes, one measurement process, one result.

    python3 bench/run.py --workload sweep_dense --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it measures that checkout's
``src/pumpslab``.  BLAS and OpenMP threads are pinned to 1 here, in the
benchmark's own launcher, for every process it starts.

With --trace 0 it times SETUP_PROBES fresh interpreters (import, scenario
build, one warm-up request) for ``setup_s`` and runs the workload untraced
for the end-to-end metrics.  With --trace 1 it runs the traced pass that
gives the per-layer metrics.  Human-readable lines come first; the last line
of standard output is the JSON result.  See bench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from checkout import BENCH_DIR, OUT_DIR, ROOT, MissingSource, require_source

WORKER = os.path.join(BENCH_DIR, "worker.py")
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # every probe compiles pumpslab from source, as the first one would
    "PYTHONDONTWRITEBYTECODE": "1",
}
SETUP_PROBES = 7
# set-up time is reported for a host whose reference kernel takes this long
NOMINAL_REF_S = 0.010
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, deadline):
    """Run a worker to completion, killing it at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        # subprocess.run kills and reaps the child on timeout
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def setup_seconds(args, deadline):
    """Set-up time of fresh interpreters doing import, set-up and a warm-up.

    Each probe's wall time, less the reference-kernel runs it makes before
    and after its set-up, is divided by the median of those runs and
    rescaled to a host whose kernel takes NOMINAL_REF_S.  Returns the median of that over the
    probes, and the probes' raw (wall, reference) seconds.
    """
    normalized, raw = [], []
    for i in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = run_child(["--workload", args.workload, "--seed", str(args.seed + i),
                           "--probe"], deadline)
        wall = time.perf_counter() - start - sum(probe["ref_s"])
        ref = statistics.median(probe["ref_s"])
        normalized.append(wall / ref * NOMINAL_REF_S)
        raw.append((wall, ref))
    return statistics.median(normalized), raw


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    deadline = time.monotonic() + TIME_LIMIT_S
    require_source()
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    probes = []
    if not args.trace:
        setup_s, probes = setup_seconds(args, deadline)
    result = run_child(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline,
    )
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        result["context"]["setup_wall_s"] = {
            "value": statistics.median(wall for wall, _ in probes), "unit": "s"}
    if result["correct"] and set(metrics) != set(expected):
        raise BenchError(
            f"metrics {sorted(set(metrics) ^ set(expected))} disagree with "
            "BENCHMARK.json"
        )
    for name, unit in expected.items():
        if name in metrics and metrics[name]["unit"] != unit:
            raise BenchError(f"{name}: unit {metrics[name]['unit']} vs {unit}")

    provenance = dict(result["provenance"], git=git_revision())
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_probes_s=probes, provenance=provenance)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for group, values in (("metric", metrics), ("context", result["context"])):
        for name, m in values.items():
            print(f"{group:8s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, MissingSource) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)

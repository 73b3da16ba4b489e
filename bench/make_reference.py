"""Regenerate the committed request pools and their reference outputs.

    python3 bench/make_reference.py [workload ...]

Run this only on a commit whose outputs are known to be right: every later
run is checked against what it writes.  Each pool is drawn from a fixed
generator seed, so regenerating on the same code gives the same file.
"""
import os
import random
import shutil
import sys
from collections import Counter

import checkout

checkout.use_checkout_source()

import pumpslab  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 1997
SIGNIFICANT = 10


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{SIGNIFICANT}g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def entries(workload, counts):
    """Each pool request with its reference output, in pool order."""
    rng = random.Random(f"{POOL_SEED}:{workload.name}")
    ctx = workload.setup(checkout.TMP_DIR)
    for spec in workloads.make_pool(workload, rng):
        job = workload.prepare(ctx, spec)
        outcome = workload.extract(job, workload.run(job))
        if outcome.problems:
            raise SystemExit(f"{workload.name}: {spec}: {outcome.problems[0]}")
        counts.update(outcome.counts)
        counts["requests"] += 1
        yield {"spec": spec, "table": _rounded(outcome.table)}


def build(workload):
    meta = {
        "workload": workload.name,
        "pool_seed": POOL_SEED,
        "pumpslab_version": pumpslab.__version__,
        "significant_digits": SIGNIFICANT,
    }
    counts = Counter()
    checkout.save_reference(workload.name, meta, entries(workload, counts),
                            workloads.request_group)
    statuses = {k: v for k, v in sorted(counts.items())
                if k == "ok" or k.startswith("sweep.skip.") or k == "breaches"}
    print(f"{workload.name}: {counts['requests']} requests, {counts['rows']} rows, "
          f"{statuses}, exact rows {counts['exact_applicable']}/{counts['exact_rows']}"
          " applicable")


def main(names):
    os.makedirs(checkout.TMP_DIR, exist_ok=True)
    try:
        for name in names or list(workloads.WORKLOADS):
            build(workloads.WORKLOADS[name])
    finally:
        shutil.rmtree(checkout.TMP_DIR, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])

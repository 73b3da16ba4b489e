"""Check the checkout's pumpslab against the benchmark's reference pools.

    python3 tools/check_pools.py                 # all three workloads
    python3 tools/check_pools.py oracle_exact    # named ones only

Every entry of each named pool (bench/reference/<workload>.gz) runs once,
untimed, through bench/worker.checked_call: the same call, reference
comparison and reference-free checks as a benchmark request, against the
src/ of this checkout.  Prints one line per workload and one per failing
entry; exits 1 if any entry fails.  Nothing under bench/ is written.
"""
import argparse
import os
import shutil
import sys

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")
sys.path.insert(0, BENCH_DIR)

import checkout  # noqa: E402
import worker  # noqa: E402


def check_pool(workloads, name):
    """Failures of every entry of one pool: (entries, [(index, problems)])."""
    workload = workloads.WORKLOADS[name]
    tmpdir = os.path.join(checkout.TMP_DIR, f"check-{name}-{os.getpid()}")
    os.makedirs(tmpdir)
    pool = checkout.ReferencePool(name)
    try:
        ctx = workload.setup(tmpdir)
        failures = []
        for index in range(len(pool)):
            entry = pool.entry(index)
            job = workload.prepare(ctx, entry["spec"])
            _, _, problems = worker.checked_call(workload, job, entry["table"])
            if problems:
                failures.append((index, problems))
        return len(pool), failures
    finally:
        pool.close()
        shutil.rmtree(tmpdir, ignore_errors=True)


def main(argv=None):
    checkout.use_checkout_source()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="*",
                        help=f"pools to check (default: all of {', '.join(workloads.WORKLOADS)})")
    names = parser.parse_args(argv).workload or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    failed = 0
    try:
        for name in names:
            entries, failures = check_pool(workloads, name)
            failed += len(failures)
            print(f"{name}: {entries} entries, {len(failures)} failed")
            for index, problems in failures:
                print(f"  entry {index}: {'; '.join(problems)}")
    finally:
        if os.path.isdir(checkout.TMP_DIR) and not os.listdir(checkout.TMP_DIR):
            os.rmdir(checkout.TMP_DIR)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

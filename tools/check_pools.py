"""Check the checkout's pumpslab against the benchmark's reference pools.

    python3 tools/check_pools.py                 # all three workloads
    python3 tools/check_pools.py oracle_exact    # named ones only

Every entry of each named pool (bench/reference/<workload>.gz) runs once,
untimed, through bench/worker.checked_call: the same call, reference
comparison and reference-free checks as a benchmark request, against the
src/ of this checkout.  Prints one line per workload and one per failing
entry; exits 1 if any entry fails.  For a pool with exact_excess rows it
also prints, on each side of the tolerance, the row whose rel_err lies
nearest its tol and its entry: the statuses a small change in p0 or in
the oracle would flip first.  Nothing under bench/ is written.
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


def exact_margins(outcome):
    """Per side of the tolerance ("ok" below it, "breach" above), the
    (|tol - rel_err|, rel_err) of the output's exact_excess row nearest it."""
    columns = outcome.columns
    if "quantity" not in columns:
        return {}
    at = {name: columns.index(name) for name in ("quantity", "rel_err", "tol")}
    nearest = {}
    for row in outcome.table:
        rel_err, tol = row[at["rel_err"]], row[at["tol"]]
        if row[at["quantity"]] == "exact_excess" and isinstance(rel_err, float):
            side = "ok" if rel_err <= tol else "breach"
            gap = (abs(tol - rel_err), rel_err)
            nearest[side] = min(nearest.get(side, gap), gap)
    return nearest


def check_pool(workloads, name):
    """Check every entry of one pool: (entries, [(index, problems)],
    {side: (margin, rel_err, index)} of its exact_margins)."""
    workload = workloads.WORKLOADS[name]
    tmpdir = os.path.join(checkout.TMP_DIR, f"check-{name}-{os.getpid()}")
    os.makedirs(tmpdir)
    pool = checkout.ReferencePool(name)
    try:
        ctx = workload.setup(tmpdir)
        failures = []
        margins = {}
        for index in range(len(pool)):
            entry = pool.entry(index)
            job = workload.prepare(ctx, entry["spec"])
            _, outcome, problems = worker.checked_call(workload, job, entry["table"])
            if problems:
                failures.append((index, problems))
            for side, row in (exact_margins(outcome) if outcome else {}).items():
                margins[side] = min(margins.get(side, (*row, index)), (*row, index))
        return len(pool), failures, margins
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
            entries, failures, margins = check_pool(workloads, name)
            failed += len(failures)
            print(f"{name}: {entries} entries, {len(failures)} failed")
            for index, problems in failures:
                print(f"  entry {index}: {'; '.join(problems)}")
            for side, (margin, rel_err, index) in sorted(margins.items(), reverse=True):
                print(f"  exact_excess row nearest its tol on the {side} side: entry "
                      f"{index}, rel_err {rel_err:.7g}, {margin:.2g} from tol")
    finally:
        if os.path.isdir(checkout.TMP_DIR) and not os.listdir(checkout.TMP_DIR):
            os.rmdir(checkout.TMP_DIR)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

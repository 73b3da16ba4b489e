"""Check the checkout's pumpslab against the benchmark's reference pools.

    python3 tools/check_pools.py                 # all three workloads
    python3 tools/check_pools.py oracle_exact    # named ones only
    python3 tools/check_pools.py --grid-bits     # resonance grid hashes

Every entry of each named pool (bench/reference/<workload>.gz) runs once,
untimed, through bench/worker.checked_call: the same call, reference
comparison and reference-free checks as a benchmark request, against the
src/ of this checkout.  Prints one line per workload and one per failing
entry; exits 1 if any entry fails.  For a pool with oracle rows it also
prints, per quantity, the ok row with the largest rel_err/tol and the
breach row with the smallest, with their entries: the statuses a small
change in p0 or in an oracle would flip first, and how far the others
pass.

With --grid-bits each entry's request runs unchecked instead, and one line
per pool gives a sha256 over the float.hex of every resonance grid the
requests solve (p, status, residual and the four Omegas, in order), the
grid count and the polish steps per solved root, so that two checkouts can
be compared bit for bit.  Nothing under bench/ is written.
"""
import argparse
import collections
import hashlib
import math
import os
import shutil
import sys

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")
sys.path.insert(0, BENCH_DIR)

import checkout  # noqa: E402
import worker  # noqa: E402


def nearer(status, ratio, kept):
    """Whether an ok row's rel_err/tol ratio is larger than the kept one, a
    breach row's smaller: the row nearer its tol (the first one on a tie)."""
    return kept is None or (ratio > kept[0] if status == "ok" else ratio < kept[0])


def margins(outcome):
    """Per (quantity, status) of the output's ok and breach rows, the
    (rel_err / tol, rel_err) of the row nearest its tol; a NaN rel_err,
    which breaches by no margin, is left out."""
    columns = outcome.columns
    if "quantity" not in columns:
        return {}
    at = {name: columns.index(name) for name in ("quantity", "status", "rel_err", "tol")}
    nearest = {}
    for row in outcome.table:
        status, rel_err, tol = row[at["status"]], row[at["rel_err"]], row[at["tol"]]
        if status in ("ok", "breach") and not math.isnan(rel_err):
            key = (row[at["quantity"]], status)
            if nearer(status, rel_err / tol, nearest.get(key)):
                nearest[key] = (rel_err / tol, rel_err)
    return nearest


def pool_jobs(workloads, name):
    """(workload, index, entry, job) of every entry of one pool, prepared
    in a temporary directory that is removed once the entries are done."""
    workload = workloads.WORKLOADS[name]
    tmpdir = os.path.join(checkout.TMP_DIR, f"check-{name}-{os.getpid()}")
    os.makedirs(tmpdir)
    pool = checkout.ReferencePool(name)
    try:
        ctx = workload.setup(tmpdir)
        for index in range(len(pool)):
            entry = pool.entry(index)
            yield workload, index, entry, workload.prepare(ctx, entry["spec"])
    finally:
        pool.close()
        shutil.rmtree(tmpdir, ignore_errors=True)


def check_pool(workloads, name):
    """Check every entry of one pool: (entries, [(index, problems)],
    {(quantity, status): (rel_err / tol, rel_err, index)} of the row
    nearest its tol over all entries' margins)."""
    entries, failures, nearest = 0, [], {}
    for workload, index, entry, job in pool_jobs(workloads, name):
        entries += 1
        _, outcome, problems = worker.checked_call(workload, job, entry["table"])
        if problems:
            failures.append((index, problems))
        for key, (ratio, rel_err) in (margins(outcome) if outcome else {}).items():
            if nearer(key[1], ratio, nearest.get(key)):
                nearest[key] = (ratio, rel_err, index)
    return entries, failures, nearest


GRID_FIELDS = ("p", "status", "residual", "Omega1", "Omega2", "Omega10", "Omega20")


def grid_bits(workloads, name):
    """(sha256 over the float.hex of the GRID_FIELDS of every resonance grid
    the pool's requests solve, in order; the grid count; {polish steps:
    solved roots with p0 > 0})."""
    import pumpslab.kinematics as kinematics

    solve, grids = kinematics._resonance_grid, []

    def recorded(*args):
        grids.append(solve(*args))
        return grids[-1]

    # every module binding of the kernel, as sweep holds its own
    bound = [(module, key) for module_name, module in list(sys.modules.items())
             if module_name.split(".")[0] == "pumpslab"
             for key, value in vars(module).items() if value is solve]
    for module, key in bound:
        setattr(module, key, recorded)
    digest, count, steps = hashlib.sha256(), 0, collections.Counter()
    try:
        for workload, _, _, job in pool_jobs(workloads, name):
            workload.run(job)
            for grid in grids:
                for field in GRID_FIELDS:
                    values = getattr(grid, field).ravel().tolist()
                    digest.update(" ".join(float(x).hex() for x in values).encode() + b"\n")
                solved = (grid.status == kinematics.OK) & (grid.p > 0.0)
                steps.update(grid.iterations[solved].tolist())
            count += len(grids)
            grids.clear()
    finally:
        for module, key in bound:
            setattr(module, key, solve)
    return digest.hexdigest(), count, dict(sorted(steps.items()))


def main(argv=None):
    checkout.use_checkout_source()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="*",
                        help=f"pools to check (default: all of {', '.join(workloads.WORKLOADS)})")
    parser.add_argument("--grid-bits", action="store_true",
                        help="print each pool's resonance grid hash instead of checking it")
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    failed = 0
    try:
        for name in names:
            if args.grid_bits:
                digest, count, steps = grid_bits(workloads, name)
                print(f"{name}: grid bits {digest} over {count} grids; "
                      f"polish steps per solved root {steps}")
                continue
            entries, failures, nearest = check_pool(workloads, name)
            failed += len(failures)
            print(f"{name}: {entries} entries, {len(failures)} failed")
            for index, problems in failures:
                print(f"  entry {index}: {'; '.join(problems)}")
            for quantity in dict.fromkeys(quantity for quantity, _ in nearest):
                for status, extreme in (("ok", "largest"), ("breach", "smallest")):
                    if (quantity, status) in nearest:
                        ratio, rel_err, index = nearest[quantity, status]
                        print(f"  {quantity} {status} row with the {extreme} rel_err/tol: "
                              f"entry {index}, rel_err {rel_err:.7g}, rel_err/tol {ratio:.7g}")
    finally:
        if os.path.isdir(checkout.TMP_DIR) and not os.listdir(checkout.TMP_DIR):
            os.rmdir(checkout.TMP_DIR)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

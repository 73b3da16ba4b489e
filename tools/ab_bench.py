"""Alternating-pairs benchmark of the working tree against a git revision.

    python3 tools/ab_bench.py BASE [--workload W ...] [--pairs 10] [--seconds 30] [--seed N]

BASE (a commit, branch or tag) is exported with ``git archive`` into a
temporary directory, removed on exit, also on error.  Pair i runs
``python3 bench/run.py --trace 0`` with seed N + i in that tree and in the
working tree, alternating which side runs first.  Per workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the change's wins, whether the gain rule holds (the change
wins at least 9 runs in 10 and its median beats the base median by more
than the base's interquartile range) and the no-regression verdict: the
metric regressed where the change median is worse than the base median
by more than the metric's ``bound``, a fraction of the base median, and
is unresolved where the base's interquartile range exceeds that bound and
not every change run beats every base run.  A run with ``correct: false``, or
with no result line, is reported and makes the tool exit 1; so does a
workload with fewer than 2 pairs in which both runs completed, whose table
reads "fewer than 2 complete pairs" while the other workloads go on.
Without --workload every workload of BENCHMARK.json runs.

With --record PATH it also writes those tables as JSON with sorted keys:
per workload and metric the rows above (a workload with fewer than 2
complete pairs holds the string instead), the base revision's commit, the
working tree's HEAD commit and whether the tree differs from it, --pairs,
--seconds, --seed, and the host's CPU count and Python and numpy versions.
"""
import argparse
import importlib.metadata
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9  # the change must win this share of the pairs
FEW_PAIRS = "fewer than 2 complete pairs"


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def export(revision, directory, paths=()):
    """Extract the tree of revision, or only its paths, into directory with
    git archive."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision, *paths],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")


def run_bench(tree, workload, seed, seconds):
    """The result dict of one bench/run.py run in tree, or None if it printed
    no result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def quartiles(values):
    """(q1, median, q3) of values, by linear interpolation between ranks."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metrics, base_runs, change_runs):
    """Per metric, the comparison of paired runs; metrics are BENCHMARK.json's
    end_to_end entries, the runs result dicts of the same seeds in order.

    Returns a list of dicts: name, unit, base and change (q1, median, q3),
    wins (pairs in which the change is strictly better), pairs, gain:
    whether the change wins at least WIN_SHARE of the pairs and its median
    beats the base median by more than the base interquartile range, and
    regressed: "yes" where the change median is worse than the base median
    by more than bound times the base median, else "unresolved" where the
    base interquartile range exceeds that margin and not every change run
    beats every base run, else "no".
    """
    out = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(base_runs, change_runs)
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        base = quartiles([b for b, _ in pairs])
        change = quartiles([c for _, c in pairs])
        wins = sum(sign * (b - c) > 0.0 for b, c in pairs)
        gap = sign * (base[1] - change[1])
        margin = metric["bound"] * abs(base[1])
        beats_all = max(sign * c for _, c in pairs) < min(sign * b for b, _ in pairs)
        regressed = ("yes" if -gap > margin else
                     "unresolved" if base[2] - base[0] > margin and not beats_all else "no")
        out.append(dict(name=name, unit=metric["unit"], base=base, change=change,
                        wins=wins, pairs=len(pairs),
                        gain=wins >= math.ceil(WIN_SHARE * len(pairs))
                        and gap > base[2] - base[0], regressed=regressed))
    return out


def format_rows(workload, rows):
    """The table of workload's summarize rows, or the FEW_PAIRS line where
    rows is None."""
    if rows is None:
        return [f"## {workload}", FEW_PAIRS]
    lines = [f"## {workload}",
             f"{'metric':18s} {'base q1 / median / q3':>32s}  "
             f"{'change q1 / median / q3':>32s}  wins  gain  regressed"]
    for row in rows:
        cells = ["/".join(f"{v:.4g}" for v in row[side]) for side in ("base", "change")]
        verdict = "yes" if row["gain"] else "no"
        lines.append(f"{row['name']:18s} {cells[0]:>32s}  {cells[1]:>32s}  "
                     f"{row['wins']:2d}/{row['pairs']:<2d} {verdict:4s}  {row['regressed']}")
    return lines


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def record(args, tables):
    """The --record document of the tables, workload -> summarize rows or
    None, measured with args."""
    return {
        "base": {"revision": args.base, "sha": git("rev-parse", f"{args.base}^{{commit}}")},
        "change": {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "numpy": importlib.metadata.version("numpy")},
        "workloads": {
            workload: FEW_PAIRS if rows is None else {
                row["name"]: {key: value for key, value in row.items() if key != "name"}
                for row in rows}
            for workload, rows in tables.items()},
    }


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare the working tree against")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", metavar="PATH", help="also write the tables as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    failed, tables = False, {}
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as base_tree:
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for workload in args.workload or names:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                seed = args.seed + i
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    result = run_bench(trees[side], workload, seed, args.seconds)
                    if result is None or not result["correct"]:
                        failed = True
                        print(f"# {workload} seed {seed} {side}: "
                              f"{'no result line' if result is None else 'correct: false'}",
                              flush=True)
                        result = None
                    runs[side].append(result)
            paired = [(b, c) for b, c in zip(runs["base"], runs["change"]) if b and c]
            tables[workload] = (summarize(spec["end_to_end"], *zip(*paired))
                                if len(paired) >= 2 else None)
            print("\n".join(format_rows(workload, tables[workload])), flush=True)
    if args.record:
        doc = record(args, tables)  # before the file exists, which would make the tree dirty
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

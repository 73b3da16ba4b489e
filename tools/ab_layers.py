"""Interleaved layer timings of the working tree against a git revision.

    python3 tools/ab_layers.py BASE [--rounds 10]

BASE (a commit, branch or tag) has its src/pumpslab exported with ``git
archive`` into a temporary directory, removed on exit, as the package
``pumpslab_base``; the package imports its own modules only relatively, so
the rename is safe.  Both packages are imported into this one process, and
each round times every layer on both, alternating which side goes first:
the minimum of 3 repeats of a fixed number of calls, with BLAS threads
pinned to 1.  Per layer it prints the base median in microseconds, the
median and quartiles of the change/base ratio over the rounds, the rounds
the change won, and the base's own quartiles relative to its median, the
spread a ratio must stay inside to count as no change.  A layer whose
base build or first call raises anything (it does not exist at BASE, or
has another API there) is reported, not fatal.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_bench import ROOT, export, quartiles  # noqa: E402

REPEATS = 3
REPEAT_SECONDS = 0.01  # the calls per repeat are chosen to take about this long
KINDS = ("pdc", "puc")


def _modules(package):
    return {name: importlib.import_module(f"{package}.{name}")
            for name in ("coupled", "kinematics", "lamina", "oracle", "presets", "sweep")}


def _cli(package, argv, output):
    cli = importlib.import_module(f"{package}.cli")
    calibration = ["--theta-d-deg", "10", "--mu2", "1.51", "--output", output]
    return lambda: cli.main([*argv, *calibration])


def _samples(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _grid(package, omegas):
    m = _modules(package)
    scenario = m["presets"].reference_scenario()
    return lambda: m["kinematics"]._resonance_grid(scenario, omegas, KINDS)


def _outcomes(package, band=(0.3, 0.7), samples=7):
    m = _modules(package)
    scenario = m["presets"].reference_scenario()
    omegas = _samples(*band, samples)
    return lambda: m["sweep"]._outcomes(scenario, omegas, KINDS)


def _on_record(package, module, entry):
    """entry of module on the record of a pdc resonance at 0.45, in the
    oracle_exact regime: weak coupling, thick slab."""
    m = _modules(package)
    scenario = m["presets"].reference_scenario(g=1e-5, l=2800.0)
    res = m["kinematics"].pdc_resonance(scenario, 0.45)
    call = getattr(m[module], entry)
    return lambda: call(scenario, res)


def _exact_pairs(package):
    """oracle._exact_averages of the pdc pairs of compare_oracle 5 omega
    exact (64 phases), from mode pair columns built once."""
    m = _modules(package)
    averages = m["oracle"]._exact_averages
    scenario = m["presets"].reference_scenario(g=1e-5, l=2800.0)
    records = [m["kinematics"].pdc_resonance(scenario, omega) for omega in _samples(0.3, 0.7, 5)]
    pairs = m["coupled"]._Pairs(*np.array([m["coupled"]._Pairs.of_record(r) for r in records]).T)
    return lambda: averages(scenario, pairs)


def _sweep(package, exact, samples=5):
    m = _modules(package)
    if exact:  # the oracle_exact regime: weak coupling, thick slab
        scenario = m["presets"].reference_scenario(g=1e-5, l=2800.0)
        request = m["sweep"].SweepRequest(scenario, (0.3, 0.7), samples, KINDS)
        return lambda: m["sweep"].compare_oracle(request, include_exact=True)
    request = m["sweep"].SweepRequest(m["presets"].reference_scenario(), (0.05, 1.95),
                                      201, KINDS)
    return lambda: m["sweep"].run_sweep(request)


def _oracle_table(package):
    """The table of cli compare-oracle --samples 3 --no-exact (the CLI's
    default scenario, band and kind), without argparse or file I/O."""
    m = _modules(package)
    request = m["sweep"].SweepRequest(m["presets"].reference_scenario(), (0.3, 0.7), 3)
    return lambda: m["sweep"].compare_oracle(request, include_exact=False)


def _text(package, output_format, oracle=False):
    """rows_to_text of the rows of run_sweep 201 omega (the sweep_dense
    text) or, with oracle, of compare_oracle 5 omega exact, built once."""
    m = _modules(package)
    if oracle:
        rows, _ = _sweep(package, exact=True)()
        columns = m["sweep"].ORACLE_COLUMNS
    else:
        rows, columns = _sweep(package, exact=False)(), m["sweep"].SWEEP_COLUMNS
    return lambda: m["sweep"].rows_to_text(rows, columns, output_format)


def _file(package, output, band, samples):
    """cli._write, to the scratch file output, of the csv text of run_sweep
    on samples omega of band, both kinds, built once."""
    m = _modules(package)
    request = m["sweep"].SweepRequest(m["presets"].reference_scenario(), band, samples, KINDS)
    text = m["sweep"].rows_to_text(m["sweep"].run_sweep(request), m["sweep"].SWEEP_COLUMNS,
                                   "csv")
    write = importlib.import_module(f"{package}.cli")._write
    return lambda: write(output, text)


def layers(output):
    """Layer name -> a function of a package name giving the zero-argument
    call that is timed; output is a scratch file for the CLI calls."""
    def point(name):
        def build(package):
            m = _modules(package)
            scenario = m["presets"].reference_scenario()
            call = getattr(m["coupled" if name == "channel_report" else "kinematics"], name)
            return lambda: call(scenario, 0.45)
        return build

    def fresnel(package):
        step = _modules(package)["lamina"].fresnel_step
        return lambda: step(0.4, 0.6)

    return {
        "_resonance_grid 1 omega": lambda p: _grid(p, [0.45]),
        "_resonance_grid 7 omega": lambda p: _grid(p, _samples(0.3, 0.7, 7)),
        "_resonance_grid 9 omega 0.3-1.5": lambda p: _grid(p, _samples(0.3, 1.5, 9)),
        "_resonance_grid 201 omega": lambda p: _grid(p, _samples(0.05, 1.95, 201)),
        "pdc_resonance": point("pdc_resonance"),
        "channel_report": point("channel_report"),
        "sweep._outcomes 7 omega both kinds": _outcomes,
        # the report table of a sweep_dense request, without its rows or text
        "sweep._outcomes 201 omega both kinds": lambda p: _outcomes(p, (0.05, 1.95), 201),
        "epsilon_roots g 1e-5 l 2800": lambda p: _on_record(p, "coupled", "epsilon_roots"),
        "quartic_wavenumbers g 1e-5 l 2800": lambda p: _on_record(
            p, "coupled", "quartic_wavenumbers"),
        "thickness_averaged_intensities 64 phases": lambda p: _on_record(
            p, "oracle", "thickness_averaged_intensities"),
        "_exact_averages 5 pdc pairs": _exact_pairs,
        "fresnel_step": fresnel,
        "run_sweep 201 omega": lambda p: _sweep(p, exact=False),
        "compare_oracle 5 omega exact": lambda p: _sweep(p, exact=True),
        # 41 exact pdc averages: three chunks of the reduced stack
        "compare_oracle 41 omega exact": lambda p: _sweep(p, exact=True, samples=41),
        "compare_oracle 3 omega no exact": _oracle_table,
        "rows_to_text jsonl 201 omega": lambda p: _text(p, "jsonl"),
        "rows_to_text csv 201 omega": lambda p: _text(p, "csv"),
        "rows_to_text csv compare_oracle 5 omega exact": lambda p: _text(p, "csv", oracle=True),
        # the file of cli sweep --samples 7 --kind both (2.8 KB), of sweep_dense (52 KB)
        "cli._write sweep csv 14 rows": lambda p: _file(p, output, (0.3, 0.7), 7),
        "cli._write sweep csv 201 omega both kinds": lambda p: _file(
            p, output, (0.05, 1.95), 201),
        "cli calibrate": lambda p: _cli(p, ["calibrate"], output),
        "cli degenerate": lambda p: _cli(p, ["degenerate"], output),
        "cli degenerate --kind both": lambda p: _cli(p, ["degenerate", "--kind", "both"],
                                                     output),
        "cli sweep --samples 7": lambda p: _cli(p, ["sweep", "--samples", "7"], output),
        "cli sweep --samples 7 --kind both": lambda p: _cli(
            p, ["sweep", "--samples", "7", "--kind", "both"], output),
        "cli sweep --samples 7 --format jsonl": lambda p: _cli(
            p, ["sweep", "--samples", "7", "--format", "jsonl"], output),
        "cli compare-oracle --samples 3 --no-exact": lambda p: _cli(
            p, ["compare-oracle", "--samples", "3", "--no-exact"], output),
        "cli compare-oracle --samples 3 --no-exact --kind both": lambda p: _cli(
            p, ["compare-oracle", "--samples", "3", "--no-exact", "--kind", "both"], output),
    }


def calls_per_repeat(call):
    """The number of calls of one repeat: doubled until it takes REPEAT_SECONDS."""
    number, timer = 1, timeit.Timer(call)
    while timer.timeit(number) < REPEAT_SECONDS:
        number *= 2
    return number


def summarize(timings):
    """Per layer, the comparison of its rounds.

    timings maps a layer to {"base": [...], "change": [...]}, seconds per
    call of the same rounds in order, or to None where the layer does not
    exist at BASE.  Returns a list of dicts: name, absent, and for a
    present layer base_us (the base median in microseconds), ratio (q1,
    median, q3 of change / base per round), wins (rounds in which the
    change was strictly faster), rounds, and spread (the base's q1 and q3
    over its median).
    """
    rows = []
    for name, sides in timings.items():
        if sides is None:
            rows.append(dict(name=name, absent=True))
            continue
        base, change = sides["base"], sides["change"]
        q1, median, q3 = quartiles(base)
        rows.append(dict(name=name, absent=False, base_us=median * 1e6,
                         ratio=quartiles([c / b for b, c in zip(base, change)]),
                         wins=sum(c < b for b, c in zip(base, change)), rounds=len(base),
                         spread=(q1 / median, q3 / median)))
    return rows


def format_rows(rows):
    lines = [f"{'layer':54s} {'base us':>10s}  {'ratio q1 / median / q3':>22s}  "
             f"{'wins':>5s}  base spread"]
    for row in rows:
        if row["absent"]:
            lines.append(f"{row['name']:54s} {'absent at BASE':>10s}")
            continue
        ratio = " / ".join(f"{v:.3f}" for v in row["ratio"])
        spread = " / ".join(f"{v:.3f}" for v in row["spread"])
        lines.append(f"{row['name']:54s} {row['base_us']:10.1f}  {ratio:>22s}  "
                     f"{row['wins']:2d}/{row['rounds']:<2d}  {spread}")
    return lines


def at_base(name, build):
    """The base package's call of build, run once, or None where building
    or running it raises anything: the layer is reported absent at BASE,
    which may lack it or give it another API."""
    try:
        base = build("pumpslab_base")
        base()
    except Exception as exc:
        print(f"# {name}: absent at BASE ({type(exc).__name__}: {exc})", flush=True)
        return None
    return base


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare the working tree against")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory(prefix="ab_layers_") as tmp:
        export(args.base, tmp, ["src/pumpslab"])
        shutil.move(os.path.join(tmp, "src", "pumpslab"), os.path.join(tmp, "pumpslab_base"))
        sys.path[:0] = [os.path.join(ROOT, "src"), tmp]
        calls, timings = {}, {}
        for name, build in layers(os.path.join(tmp, "out")).items():
            change, base = build("pumpslab"), at_base(name, build)
            if base is None:
                timings[name] = None
                continue
            calls[name] = (base, change, calls_per_repeat(change))
            timings[name] = {"base": [], "change": []}
        for i in range(args.rounds):
            for name, (base, change, number) in calls.items():
                sides = (("base", base), ("change", change))
                for side, call in sides if i % 2 == 0 else sides[::-1]:
                    best = min(timeit.Timer(call).repeat(REPEATS, number))
                    timings[name][side].append(best / number)
        print("\n".join(format_rows(summarize(timings))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: request generation, the timed call, checks.

Each workload turns a JSON-able request spec into a call through pumpslab's
public functions.  A request goes through three steps:

``prepare(ctx, spec)``
    untimed: build the arguments (scenario objects, argv, config files);
``run(job)``
    timed: the call into pumpslab and nothing else;
``extract(job, raw)``
    untimed: turn the output into a table that is compared with the
    committed reference, plus the checks that need no reference.

Calls go through module attributes (``sweep.run_sweep``, not a name
imported into this file), so the tracer's wrappers see them.
"""
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

from pumpslab import cli, coupled, dispersion, scenario, sweep

RTOL = 1e-7  # relative tolerance for every float the library returns
ATOL = 1e-15
# An oracle row's abs_err / rel_err are differences of nearly equal numbers
# at their noise floor: a root from another converged iteration changes
# them by orders of magnitude.  Their closed_form and oracle inputs are
# compared, and so is the status that rel_err <= tol decides, so only their
# presence is checked.
ERR_COLUMNS = frozenset({"abs_err", "rel_err"})
# An oracle value can be a cancellation (a quartic root minus the uncoupled
# wavenumber; the thickness-averaged t1 + r1 - 1 of an 8x8 solve whose
# condition number reaches 1e8), good to about 1e-5 under a different
# solver or summation order.  Cells of an oracle row are therefore compared
# within a tenth of the tolerance the row itself checks, if that is looser.
ORACLE_TOL_SHARE = 0.1
IDENTITY_LIMIT = 1e-10
SKIP_STATUSES = (
    "guard_band",
    "out_of_band",
    "evanescent",
    "no_resonance",
    "geometry",
    "conditioning_error",
    "not_applicable",
)
# calibration used by the sweep and oracle workloads (the reference scenario)
THETA_D_DEG = 10.0
MU2 = 1.51


@dataclass
class Outcome:
    """What one request produced, reduced to what the checks and counters need.

    table: rows compared cell by cell with the reference.
    items: work units for throughput (rows, or 1 per CLI request).
    rows: data rows produced, the denominator of the calls-per-row counters.
    counts: layer counters (status counts, bytes written, ...).
    problems: failed checks that need no reference.
    columns: column names of the table's cells, for the tolerance choice.
    """

    table: list
    items: int
    rows: int
    columns: tuple = ()
    counts: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)


def _jitter(rng, centre, spread):
    return centre * (1.0 + spread * rng.uniform(-1.0, 1.0))


def _table(rows, columns):
    return [[row[c] for c in columns] for row in rows]


def _status_counts(statuses):
    counts = Counter()
    for status in statuses:
        counts["rows"] += 1
        if status == "ok":
            counts["ok"] += 1
        elif status in SKIP_STATUSES:
            counts[f"sweep.skip.{status}"] += 1
    return counts


def _identity_problems(scen, rows):
    """channel_report's flux identity on every ok (omega, kind) row."""
    problems = []
    for omega, kind in rows:
        residual = coupled.channel_report(scen, omega, kind=kind).identity_residual()
        if not residual <= IDENTITY_LIMIT:
            problems.append(
                f"identity residual {residual:.3e} at omega={omega!r} {kind}"
            )
    return problems


def _reference_scenario(spec, model):
    return scenario.CrystalScenario(
        omega0=1.0, g=spec["g"], l=spec["l"], dispersion=model
    )


class SweepDense:
    """run_sweep over ~201 omega x both kinds on a band crossing skip regimes."""

    name = "sweep_dense"
    pool_size = 320
    trace_requests = 4

    def make_spec(self, rng):
        return {
            "g": _jitter(rng, 1e-4, 0.1),
            "l": _jitter(rng, 100.0, 0.1),
            "band": [0.05 + 0.01 * rng.random(), 1.95 - 0.01 * rng.random()],
            "samples": rng.randint(199, 203),
        }

    def setup(self, tmpdir):
        model = dispersion.calibrate_degenerate_angle(math.radians(THETA_D_DEG), MU2)
        return {"model": model}

    def prepare(self, ctx, spec):
        scen = _reference_scenario(spec, ctx["model"])
        return sweep.SweepRequest(
            scenario=scen,
            band=tuple(spec["band"]),
            samples=spec["samples"],
            kinds=("pdc", "puc"),
        )

    def run(self, job):
        rows = sweep.run_sweep(job)
        buf = io.StringIO()
        sweep.write_rows(rows, sweep.SWEEP_COLUMNS, buf)
        return rows, buf.getvalue()

    def extract(self, job, raw):
        rows, text = raw
        counts = _status_counts(row["status"] for row in rows)
        counts["bytes"] += len(text.encode())
        problems = _identity_problems(
            job.scenario,
            [(r["omega"], r["kind"]) for r in rows if r["status"] == "ok"],
        )
        if text.count("\n") != len(rows) + 1:
            problems.append("CSV line count does not match the rows")
        return Outcome(
            table=_table(rows, sweep.SWEEP_COLUMNS),
            items=len(rows),
            rows=len(rows),
            columns=sweep.SWEEP_COLUMNS,
            counts=counts,
            problems=problems,
        )


class OracleExact:
    """compare_oracle with exact rows: thickness-averaged 8x8 boundary solves."""

    name = "oracle_exact"
    pool_size = 320
    trace_requests = 4

    def make_spec(self, rng):
        # g*l stays below 0.029, so gamma stays under the exact rows'
        # 1e-4 applicability limit and every request does the same work
        return {
            "g": 1e-5 * rng.uniform(0.95, 1.0),
            "l": rng.uniform(2700.0, 2900.0),
            "band": [0.3 + 0.02 * rng.uniform(-1, 1), 0.7 + 0.02 * rng.uniform(-1, 1)],
            "samples": 5,
        }

    setup = SweepDense.setup
    prepare = SweepDense.prepare

    def run(self, job):
        rows, breached = sweep.compare_oracle(job, include_exact=True)
        buf = io.StringIO()
        sweep.write_rows(rows, sweep.ORACLE_COLUMNS, buf)
        return rows, breached, buf.getvalue()

    def extract(self, job, raw):
        rows, breached, text = raw
        counts = _status_counts(row["status"] for row in rows)
        counts["bytes"] += len(text.encode())
        for row in rows:
            if row["quantity"] == "exact_excess":
                counts["exact_rows"] += 1
                if row["status"] != "not_applicable":
                    counts["exact_applicable"] += 1
        # A breach row is checked like any other cell: it must match the
        # reference.  The seed's exact rows breach EXACT_TOL on a few per
        # cent of frequencies; that is its known output, counted here, and
        # any breach the reference does not have is a mismatch.
        counts["breaches"] = sum(row["status"] == "breach" for row in rows)
        problems = []
        if breached != (counts["breaches"] > 0):
            problems.append("compare_oracle's breach flag disagrees with its rows")
        return Outcome(
            table=_table(rows, sweep.ORACLE_COLUMNS),
            items=len(rows),
            rows=len(rows),
            columns=sweep.ORACLE_COLUMNS,
            counts=counts,
            problems=problems,
        )


class CliSmallRequests:
    """In-process pumpslab.cli.main calls: a fixed mix of small verbs."""

    name = "cli_small_requests"
    # every block of requests holds one of each verb, so each run has the
    # same mix whatever its length
    verbs = (
        "calibrate",
        "degenerate",
        "sweep_csv",
        "sweep_jsonl",
        "sweep_config",
        "compare_oracle",
    )
    pool_size = 400 * len(verbs)
    trace_requests = 2 * len(verbs)

    def make_spec(self, rng, verb="sweep_csv"):
        return {
            "verb": verb,
            "theta_d_deg": rng.uniform(9.5, 10.5),
            "mu2": rng.uniform(1.505, 1.515),
            "g": _jitter(rng, 1e-4, 0.1),
            "l": _jitter(rng, 100.0, 0.1),
            "band": [0.3 + 0.02 * rng.uniform(-1, 1), 0.7 + 0.02 * rng.uniform(-1, 1)],
        }

    def make_pool(self, rng):
        per_verb = self.pool_size // len(self.verbs)
        return [self.make_spec(rng, verb) for verb in self.verbs for _ in range(per_verb)]

    def setup(self, tmpdir):
        return {"tmpdir": tmpdir}

    def prepare(self, ctx, spec):
        verb = spec["verb"]
        out = os.path.join(ctx["tmpdir"], "out")
        calib = ["--theta-d-deg", repr(spec["theta_d_deg"]), "--mu2", repr(spec["mu2"])]
        physics = calib + ["--g", repr(spec["g"]), "--l", repr(spec["l"])]
        band = ["--band", repr(spec["band"][0]), repr(spec["band"][1])]
        if verb == "calibrate":
            argv = ["calibrate", *calib, "--output", out]
        elif verb == "degenerate":
            argv = ["degenerate", *physics, "--kind", "both", "--output", out]
        elif verb == "sweep_csv":
            argv = ["sweep", *physics, *band, "--samples", "7", "--kind", "both",
                    "--output", out]
        elif verb == "sweep_jsonl":
            argv = ["sweep", *physics, *band, "--samples", "7", "--kind", "both",
                    "--format", "jsonl", "--output", out]
        elif verb == "sweep_config":
            config = os.path.join(ctx["tmpdir"], "request.ini")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(
                    "[scenario]\n"
                    f"theta_d_deg = {spec['theta_d_deg']!r}\n"
                    f"mu2 = {spec['mu2']!r}\n"
                    f"g = {spec['g']!r}\n"
                    f"l = {spec['l']!r}\n"
                    "[sweep]\n"
                    f"omega_lo = {spec['band'][0]!r}\n"
                    f"omega_hi = {spec['band'][1]!r}\n"
                    "samples = 7\n"
                    "kind = both\n"
                    "[output]\n"
                    f"path = {out}\n"
                )
            argv = ["sweep", "--config", config]
        elif verb == "compare_oracle":
            argv = ["compare-oracle", *physics, *band, "--samples", "3",
                    "--kind", "both", "--no-exact", "--output", out]
        else:
            raise ValueError(f"unknown CLI request verb {verb!r}")
        if os.path.exists(out):
            os.remove(out)
        return {"argv": argv, "out": out, "spec": spec}

    def run(self, job):
        return cli.main(job["argv"])

    def extract(self, job, raw):
        spec = job["spec"]
        outcome = Outcome(table=[], items=1, rows=0)
        if raw != 0:
            outcome.problems.append(f"exit code {raw} for {' '.join(job['argv'])}")
            return outcome
        with open(job["out"], encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        if spec["verb"] == "calibrate":
            outcome.table = [_record_row(line) for line in lines]
            return outcome
        outcome.counts["bytes"] += len(text.encode())
        if spec["verb"] == "sweep_jsonl":
            outcome.table = [list(json.loads(line).values()) for line in lines]
            columns = sweep.SWEEP_COLUMNS
            data = outcome.table
        else:
            outcome.table = [[_cell(c) for c in line.split(",")] for line in lines]
            columns = tuple(outcome.table[0])
            data = outcome.table[1:]
        outcome.columns = columns
        status = columns.index("status")
        outcome.rows = len(data)
        outcome.counts.update(_status_counts(row[status] for row in data))
        if spec["verb"] != "compare_oracle":
            ok = [(row[0], row[1]) for row in data if row[status] == "ok"]
            # every request has its own calibration, so the check builds
            # its own model for it
            model = dispersion.calibrate_degenerate_angle(
                math.radians(spec["theta_d_deg"]), spec["mu2"]
            )
            outcome.problems.extend(
                _identity_problems(_reference_scenario(spec, model), ok)
            )
        return outcome


def _cell(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _record_row(line):
    key, _, value = line.partition("=")
    return [key, *(_cell(v) for v in value.split(","))]


WORKLOADS = {w.name: w for w in (SweepDense(), OracleExact(), CliSmallRequests())}


def make_pool(workload, rng):
    maker = getattr(workload, "make_pool", None)
    if maker is not None:
        return maker(rng)
    return [workload.make_spec(rng) for _ in range(workload.pool_size)]


def request_group(spec):
    """The group a request is drawn from: its CLI verb, else one group."""
    return spec.get("verb", "")


def request_order(groups, rng):
    """Seeded order over pool indices, each index at most once.

    `groups` gives each pool entry's group.  Every block takes the next
    request of each group, in shuffled order, so the mix stays the same
    whatever a run's length; the order ends when a group is used up, so no
    request repeats within a run.
    """
    queues = {}
    for index, group in enumerate(groups):
        queues.setdefault(group, []).append(index)
    for queue in queues.values():
        rng.shuffle(queue)
    block = list(queues)
    while all(queues.values()):
        rng.shuffle(block)
        for group in block:
            yield queues[group].pop()


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + ATOL


def table_mismatch(got, want, columns=()):
    """First difference between an output table and its reference, or None.

    Strings, None and statuses must match exactly, floats within RTOL (or
    ORACLE_TOL_SHARE of an oracle row's own tol); the abs_err / rel_err
    diagnostics must only be present where the reference has them.
    """
    if len(got) != len(want):
        return f"{len(got)} rows, reference has {len(want)}"
    tol_at = columns.index("tol") if "tol" in columns else None
    for i, (grow, wrow) in enumerate(zip(got, want)):
        if len(grow) != len(wrow):
            return f"row {i}: {len(grow)} cells, reference has {len(wrow)}"
        rtol = RTOL
        if tol_at is not None and isinstance(wrow[tol_at], float):
            rtol = max(RTOL, ORACLE_TOL_SHARE * wrow[tol_at])
        for j, (g, w) in enumerate(zip(grow, wrow)):
            column = columns[j] if j < len(columns) else str(j)
            if isinstance(w, float) and isinstance(g, (int, float)):
                if column not in ERR_COLUMNS and not _close(float(g), w, rtol):
                    return f"row {i} {column}: {g!r} vs reference {w!r}"
            elif g != w:
                return f"row {i} {column}: {g!r} vs reference {w!r}"
    return None

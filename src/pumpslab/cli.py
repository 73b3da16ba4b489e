"""Command-line driver.

Verbs: sweep, degenerate, compare-oracle, calibrate.  Physical inputs use
c = 1 units with the pump frequency normalized to 1 by default; angles
cross the CLI boundary in degrees.  Exit codes: 0 success, 1 usage or
configuration error, 2 oracle tolerance breach, 3 no valid samples.
"""
import argparse
import configparser
import math
import sys

from .dispersion import DispersionModel, calibrate_degenerate_angle
from .errors import PumpslabError, SweepError
from .scenario import CrystalScenario
from .sweep import (
    ORACLE_COLUMNS,
    SWEEP_COLUMNS,
    SweepRequest,
    compare_oracle,
    degenerate_rows,
    run_sweep,
    write_rows,
)

USAGE_EXIT = 1
BREACH_EXIT = 2
EMPTY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _add_scenario_args(sub):
    sub.add_argument("--config", help="INI config with [scenario]/[sweep]/[output]")
    sub.add_argument("--omega0", type=float, help="pump frequency (default 1.0)")
    sub.add_argument("--g", type=float, help="effective coupling")
    sub.add_argument("--l", type=float, help="slab thickness")
    sub.add_argument("--theta-d-deg", type=float, dest="theta_d_deg",
                     help="degenerate emission angle target, degrees")
    sub.add_argument("--mu2", type=float, help="refractive index at omega0")
    sub.add_argument("--model", help="dispersion model record file")
    sub.add_argument("--guard-width", type=float, dest="guard_width",
                     help="guard-band half width in units of omega0")


def _add_sweep_args(sub):
    sub.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"),
                     help="sweep band in frequency units")
    sub.add_argument("--samples", type=int, help="number of samples (>= 2)")
    sub.add_argument("--kind", choices=("pdc", "puc", "both"),
                     help="conversion kind(s) per row")


def _add_output_args(sub):
    sub.add_argument("--format", choices=("csv", "jsonl"), dest="output_format",
                     help="output encoding (default csv)")
    sub.add_argument("--output", help="output path (default stdout)")


def build_parser():
    parser = _Parser(prog="pumpslab",
                     description="pumped nonlinear slab spectrum tables")
    subs = parser.add_subparsers(dest="verb", required=True)

    sweep = subs.add_parser("sweep", help="frequency sweep table")
    _add_scenario_args(sweep)
    _add_sweep_args(sweep)
    sweep.add_argument("--detuning", type=float,
                       help="working-p offset from p0 in units of omega")
    _add_output_args(sweep)

    degen = subs.add_parser("degenerate", help="single row at omega0/2")
    _add_scenario_args(degen)
    degen.add_argument("--kind", choices=("pdc", "puc", "both"))
    _add_output_args(degen)

    comp = subs.add_parser("compare-oracle",
                           help="closed forms vs brute-force oracles")
    _add_scenario_args(comp)
    _add_sweep_args(comp)
    _add_output_args(comp)
    comp.add_argument("--no-exact", action="store_true",
                      help="skip the exact boundary-solve rows")

    calib = subs.add_parser("calibrate",
                            help="emit a calibrated dispersion model record")
    calib.add_argument("--theta-d-deg", type=float, dest="theta_d_deg",
                       required=True)
    calib.add_argument("--mu2", type=float, required=True)
    calib.add_argument("--omega0", type=float, default=1.0)
    calib.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"))
    calib.add_argument("--output", help="output path (default stdout)")
    return parser


# argparse keeps no state between parse_args calls (every call fills a
# fresh Namespace), so one parser serves every main() call.
_PARSER = build_parser()


def _load_config(path):
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise PumpslabError(f"config file not found: {path}")
    return cfg


def _setting(args, cfg, section, key, cast, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if cfg is not None and cfg.has_option(section, key):
        return cast(cfg.get(section, key))
    return default


def _build_scenario(args, cfg):
    omega0 = _setting(args, cfg, "scenario", "omega0", float, 1.0)
    g = _setting(args, cfg, "scenario", "g", float, 1e-4)
    l = _setting(args, cfg, "scenario", "l", float, 100.0)
    guard = _setting(args, cfg, "scenario", "guard_width", float, 0.02)
    model_file = _setting(args, cfg, "scenario", "model", str)
    theta_d_deg = _setting(args, cfg, "scenario", "theta_d_deg", float)
    mu2 = _setting(args, cfg, "scenario", "mu2", float)
    if model_file:
        with open(model_file, "r", encoding="utf-8") as fh:
            dispersion = DispersionModel.from_record(fh.read())
    elif theta_d_deg is not None and mu2 is not None:
        dispersion = calibrate_degenerate_angle(
            math.radians(theta_d_deg), mu2, omega0=omega0
        )
    else:
        raise PumpslabError(
            "scenario needs either --model FILE or --theta-d-deg with --mu2"
        )
    return CrystalScenario(omega0=omega0, g=g, l=l, dispersion=dispersion,
                           guard_width=guard)


def _kinds(args, cfg):
    kind = _setting(args, cfg, "sweep", "kind", str, "pdc")
    return ("pdc", "puc") if kind == "both" else (kind,)


def _emit(rows, columns, args, cfg):
    fmt = _setting(args, cfg, "output", "output_format", str) or _setting(
        args, cfg, "output", "format", str, "csv"
    )
    path = _setting(args, cfg, "output", "output", str) or _setting(
        args, cfg, "output", "path", str
    )
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            write_rows(rows, columns, fh, fmt)
    else:
        write_rows(rows, columns, sys.stdout, fmt)


def _build_request(args, cfg, scenario):
    omega0 = scenario.omega0
    band = getattr(args, "band", None)
    if band is None and cfg is not None and cfg.has_option("sweep", "omega_lo"):
        band = (cfg.getfloat("sweep", "omega_lo"), cfg.getfloat("sweep", "omega_hi"))
    if band is None:
        band = (0.3 * omega0, 0.7 * omega0)
    samples = _setting(args, cfg, "sweep", "samples", int, 9)
    detuning = _setting(args, cfg, "sweep", "detuning", float, 0.0)
    return SweepRequest(
        scenario=scenario,
        band=tuple(band),
        samples=samples,
        kinds=_kinds(args, cfg),
        detuning=detuning,
    )


def main(argv=None):
    args = _PARSER.parse_args(argv)
    cfg = None
    try:
        if getattr(args, "config", None):
            cfg = _load_config(args.config)
        if args.verb == "calibrate":
            band = tuple(args.band) if args.band else None
            model = calibrate_degenerate_angle(
                math.radians(args.theta_d_deg), args.mu2,
                omega0=args.omega0, band=band,
            )
            record = model.to_record()
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(record)
            else:
                sys.stdout.write(record)
            return 0
        scenario = _build_scenario(args, cfg)
        if args.verb == "degenerate":
            kind = getattr(args, "kind", None) or "pdc"
            kinds = ("pdc", "puc") if kind == "both" else (kind,)
            rows = degenerate_rows(scenario, kinds=kinds)
            _emit(rows, SWEEP_COLUMNS, args, cfg)
            return 0
        request = _build_request(args, cfg, scenario)
        if args.verb == "sweep":
            rows = run_sweep(request)
            _emit(rows, SWEEP_COLUMNS, args, cfg)
            return 0
        if args.verb == "compare-oracle":
            rows, breached = compare_oracle(
                request, include_exact=not args.no_exact
            )
            _emit(rows, ORACLE_COLUMNS, args, cfg)
            return BREACH_EXIT if breached else 0
    except SweepError as exc:
        print(f"pumpslab: {exc}", file=sys.stderr)
        return EMPTY_EXIT
    except (PumpslabError, ValueError, OSError) as exc:
        print(f"pumpslab: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())

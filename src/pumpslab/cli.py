"""Command-line driver.

Verbs: sweep, degenerate, compare-oracle, calibrate.  Physical inputs use
c = 1 units with the pump frequency normalized to 1 by default; angles
cross the CLI boundary in degrees.  Exit codes: 0 success, 1 usage or
configuration error, 2 oracle tolerance breach, 3 no valid samples.
"""
import argparse
import configparser
import math
import os
import sys

from .dispersion import DispersionModel, calibrate_degenerate_angle
from .errors import PumpslabError, SweepError
from .kinematics import KINDS
from .scenario import DEFAULT_GUARD_WIDTH, CrystalScenario
from .sweep import (
    MAX_SAMPLES,
    ORACLE_COLUMNS,
    SWEEP_COLUMNS,
    SweepRequest,
    compare_oracle,
    degenerate_rows,
    rows_to_text,
    run_sweep,
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
    sub.add_argument("--samples", type=int,
                     help=f"number of samples (2 to {MAX_SAMPLES})")
    sub.add_argument("--kind", choices=(*KINDS, "both"),
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
    degen.add_argument("--kind", choices=(*KINDS, "both"))
    _add_output_args(degen)

    comp = subs.add_parser("compare-oracle",
                           help="closed forms vs brute-force oracles")
    _add_scenario_args(comp)
    _add_sweep_args(comp)
    _add_output_args(comp)
    comp.add_argument("--no-exact", action="store_true",
                      help="skip the exact boundary-solve rows")
    # no --detuning flag, but a [sweep] detuning in --config is read so
    # that compare_oracle can refuse a nonzero one instead of ignoring it
    comp.set_defaults(detuning=None)

    calib = subs.add_parser("calibrate",
                            help="emit a calibrated dispersion model record")
    calib.add_argument("--theta-d-deg", type=float, dest="theta_d_deg",
                       required=True)
    calib.add_argument("--mu2", type=float, required=True)
    calib.add_argument("--omega0", type=float)
    calib.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"))
    calib.add_argument("--output", help="output path (default stdout)")
    parser.verbs = subs.choices  # verb -> its subparser, for _parse
    return parser


# argparse keeps no state between parse_args calls (every call fills a
# fresh Namespace), so one parser serves every main() call.
_PARSER = build_parser()

# setting (its flag's dest) -> INI section, INI key, type, default; the type
# applies to whichever of the three gives the value.  A verb reads the
# settings its parser defines; the band is the [sweep] pair omega_lo/omega_hi,
# resolved in _resolve.  A --config file may hold only the keys in INI_KEYS.
_SETTINGS = {
    "omega0": ("scenario", "omega0", float, 1.0),
    "g": ("scenario", "g", float, 1e-4),
    "l": ("scenario", "l", float, 100.0),
    "guard_width": ("scenario", "guard_width", float, DEFAULT_GUARD_WIDTH),
    "model": ("scenario", "model", str, None),
    "theta_d_deg": ("scenario", "theta_d_deg", float, None),
    "mu2": ("scenario", "mu2", float, None),
    "samples": ("sweep", "samples", int, 9),
    "kind": ("sweep", "kind", lambda k: KINDS if k == "both" else (k,), "pdc"),
    "detuning": ("sweep", "detuning", float, 0.0),
    "output_format": ("output", "format", str, "csv"),
    "output": ("output", "path", str, None),
}
INI_KEYS = {entry[:2] for entry in _SETTINGS.values()} | {
    ("sweep", "omega_lo"), ("sweep", "omega_hi")}


def _resolve(args):
    """Set every setting of the verb in args: flag, else --config file, else default.

    "kind" becomes the tuple of kinds and "band" a (lo, hi) tuple, or None
    when neither --band nor the file's omega_lo/omega_hi pair gives one.
    """
    cfg = None  # built only for --config: a ConfigParser is slow to build
    if getattr(args, "config", None):
        # no header is empty, so [DEFAULT] is a plain section, its keys unknown
        cfg = configparser.ConfigParser(default_section="")
        if not cfg.read(args.config):
            raise PumpslabError(f"config file not found: {args.config}")
        unknown = [f"[{section}] {key}" for section in cfg.sections()
                   for key in cfg.options(section) if (section, key) not in INI_KEYS]
        if unknown:
            raise PumpslabError(f"unknown config keys: {', '.join(unknown)}")
    settings = vars(args)
    for name, (section, key, cast, default) in _SETTINGS.items():
        if name in settings:
            value = settings[name]
            if value is None:
                value = default if cfg is None else cfg.get(section, key, fallback=default)
            settings[name] = None if value is None else _cast(cast, value, section, key)
    if "band" in settings:
        band = settings["band"]
        if band is None and cfg is not None and (
            cfg.has_option("sweep", "omega_lo") or cfg.has_option("sweep", "omega_hi")
        ):
            band = [_cast(float, cfg.get("sweep", key), "sweep", key)
                    for key in ("omega_lo", "omega_hi")]
        settings["band"] = band and tuple(band)


def _cast(cast, value, section, key):
    """cast(value); a value it refuses is a PumpslabError naming [section] key."""
    try:
        return cast(value)
    except ValueError as exc:
        raise PumpslabError(f"[{section}] {key}: {exc}") from None


def _scenario(args):
    if args.model:
        with open(args.model, "r", encoding="utf-8") as fh:
            dispersion = DispersionModel.from_record(fh.read())
    elif args.theta_d_deg is not None and args.mu2 is not None:
        dispersion = calibrate_degenerate_angle(
            math.radians(args.theta_d_deg), args.mu2, omega0=args.omega0
        )
    else:
        raise PumpslabError(
            "scenario needs either --model FILE or --theta-d-deg with --mu2"
        )
    return CrystalScenario(omega0=args.omega0, g=args.g, l=args.l,
                           dispersion=dispersion, guard_width=args.guard_width)


def _request(args):
    scenario = _scenario(args)
    band = args.band or (0.3 * scenario.omega0, 0.7 * scenario.omega0)
    return SweepRequest(scenario=scenario, band=band, samples=args.samples,
                        kinds=args.kind, detuning=args.detuning)


def _write(path, text):
    """text to sys.stdout, or as UTF-8 to the file path.

    The file goes straight to its descriptor, with the flags and mode that
    open(path, "w") passes, so the bytes are those of a text-mode file on
    POSIX without the buffer and text layers' fstat, isatty and seek calls.
    os.write may write fewer bytes than asked, so it runs until all are out.
    """
    if not path:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _parse(argv):
    """_PARSER.parse_args(argv) in one argparse pass where argv starts with a verb.

    The full parser would hand everything after the verb to that verb's
    subparser, so that subparser parses it directly; what it leaves over
    is the full parser's usage error, as there.  No verb, help before a
    verb or an unknown one go through the full parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = _PARSER.verbs.get(argv[0]) if argv else None
    if verb is None:
        return _PARSER.parse_args(argv)
    args, extras = verb.parse_known_args(argv[1:], argparse.Namespace(verb=argv[0]))
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None):
    args = _parse(argv)
    code = 0
    try:
        _resolve(args)
        if args.verb == "calibrate":
            text = calibrate_degenerate_angle(
                math.radians(args.theta_d_deg), args.mu2,
                omega0=args.omega0, band=args.band,
            ).to_record()
        elif args.verb == "degenerate":
            rows = degenerate_rows(_scenario(args), kinds=args.kind)
            text = rows_to_text(rows, SWEEP_COLUMNS, args.output_format)
        elif args.verb == "sweep":
            rows = run_sweep(_request(args))
            text = rows_to_text(rows, SWEEP_COLUMNS, args.output_format)
        else:
            rows, breached = compare_oracle(_request(args),
                                            include_exact=not args.no_exact)
            text = rows_to_text(rows, ORACLE_COLUMNS, args.output_format)
            code = BREACH_EXIT if breached else 0
        # rendered before the output is opened, so a rejected format or an
        # empty sweep leaves an existing file as it was
        _write(args.output, text)
    except SweepError as exc:
        print(f"pumpslab: {exc}", file=sys.stderr)
        return EMPTY_EXIT
    except (PumpslabError, ValueError, OSError, configparser.Error) as exc:
        print(f"pumpslab: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())

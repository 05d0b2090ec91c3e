"""Command line front end.

Exit codes: 0 success, 1 usage or out-of-range constants (including ones the
fermion table cannot be calibrated with), 2 unreadable or malformed data
(config, calibration, observed CSV) or output that cannot be written (`--out` or
stdout), 3 tolerance breach under `compare --check`. Data goes to stdout, diagnostics
to stderr, and output is deterministic on one Python: same inputs, same bytes
(argparse's words vary by version).

Each command but `sweep` makes one `evaluate` call. Every number it prints is a field
of that `Evaluation`, or a fixed unit conversion or rounding of one, apart from input
constants, the fixed baryon split and the closed-form column of `bosons`; `sweep` gets
its points' rows from one column pass. Handlers raise and `run()` alone reports: it prints the
one `dimorb: error:` line and picks the exit code, also for a stdout that `_write` cannot
write (`--help` included) and a `--out` file, which is written whole or not at all. Arguments
are checked before any file is read or output written. Every input file goes through `_load`,
so one that cannot be read, decoded as UTF-8 (a leading byte-order mark is dropped), parsed
or used exits 2 and names its path. Diagnostics go through `_say` alone, so a stderr that
cannot be written loses them and nothing else.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from pathlib import Path

from . import spectrum as _spectrum
from .ladder import _LEVELS, closed_form_mass
from .quantities import (
    ALPHA_E_DEFAULT,
    ModelConstants,
    _FieldError,
    _LocatedError,
    _TO_MEV,
    format_rows,
    gev,
    mev,
    parse_key_values,
)
from .spectrum import (
    ANCHOR_CHOICES,
    TABLE,
    CalibrationError,
    evaluate,
    load_bases,
)

ENV_CONFIG = "DIMORB_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TOLERANCE = 3

MAX_SWEEP_STEPS = 100000
MAX_DIGITS = 2**31 - 1  # the largest precision `format` accepts on every supported Python

# config key (the flag is "--" plus the key with "-" for "_"):
# (ModelConstants field, wrapper, --help text)
_CONSTANTS = {
    "alpha": ("alpha_e", float, f"fine structure constant (default {ALPHA_E_DEFAULT})"),
    "m_electron_mev": ("m_electron", mev, "electron mass in MeV (default 0.510999)"),
    "m_z_gev": ("m_z", gev, "Z0 mass in GeV (default 91.177)"),
    "theta_w_deg": ("theta_w_deg", float, "mixing angle in degrees (default 29.69)"),
    "planck_gev": ("planck_ref", gev, "Planck-scale reference in GeV (default 1.2e19)"),
}

_EPILOG = """examples:
  dimorb bosons --closed-form
  dimorb calibrate --out calibration.txt
  dimorb fermions --calibrate --format csv
  dimorb compare --check --tol 0.005
  dimorb sweep alpha --from 0.0073 --to 0.0146 --steps 3
"""


class _UsageError(ValueError):
    """A bad argument or constant: exit 1, where other `ValueError`s exit 2."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_USAGE)

    def print_help(self, file=None):
        if file is None:  # argparse from 3.11 on drops a failed write; `_write` reports it
            return _write(self.format_help())
        super().print_help(file)


def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("model constants (override config and defaults)")
    for key, (_, _, text) in _CONSTANTS.items():
        g.add_argument("--" + key.replace("_", "-"), type=float, metavar="X", help=text)
    p.add_argument("--digits", type=int, default=6, metavar="N",
                   help="significant digits in rendered numbers (default 6)")
    return p


def build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(
        prog="dimorb",
        description="Deterministic calculator for the dimensional-orbital mass model.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    b = sub.add_parser("bosons", parents=[common],
                       help="print the seven-level gauge boson mass table")
    b.add_argument("--closed-form", action="store_true",
                   help="add the top-down power-law approximation as an extra column")
    b.add_argument("--format", choices=("table", "csv", "json"), default="table")
    b.set_defaults(handler=_cmd_bosons)

    c = sub.add_parser("calibrate", parents=[common],
                       help="solve the two calibrated bases and write a calibration file")
    c.add_argument("--out", default="calibration.txt", metavar="FILE",
                   help="calibration file to write (default calibration.txt)")
    c.add_argument("--anchors", choices=ANCHOR_CHOICES, default="d", metavar="ROW",
                   help="quark row that anchors the level-7 base (default d; "
                        f"one of {', '.join(ANCHOR_CHOICES)})")
    c.set_defaults(handler=_cmd_calibrate)

    f = sub.add_parser("fermions", parents=[common],
                       help="print the twelve-row fermion spectrum")
    mode = f.add_mutually_exclusive_group(required=True)
    mode.add_argument("--calibration", metavar="FILE",
                      help="read calibrated bases from FILE")
    mode.add_argument("--calibrate", action="store_true",
                      help="calibrate in memory instead of reading a file")
    f.add_argument("--format", choices=("table", "csv", "json"), default="table")
    f.set_defaults(handler=_cmd_fermions)

    m = sub.add_parser("compare", parents=[common],
                       help="compare computed values against observed ones")
    m.add_argument("--observed", metavar="FILE",
                   help="observed CSV file (default: built-in reference set)")
    m.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    m.add_argument("--check", action="store_true",
                   help="exit 3 if any compared row misses the tolerance")
    m.add_argument("--tol", type=float, default=0.005, metavar="X",
                   help="relative tolerance used by --check (default 0.005)")
    m.set_defaults(handler=_cmd_compare)

    s = sub.add_parser("sweep", parents=[common],
                       help="recompute key outputs while one constant sweeps a range")
    s.add_argument("param", choices=tuple(_CONSTANTS), help="constant to sweep")
    s.add_argument("--from", dest="start", type=float, required=True, metavar="X",
                   help="first value (inclusive)")
    s.add_argument("--to", dest="stop", type=float, required=True, metavar="Y",
                   help="last value (inclusive)")
    s.add_argument("--steps", type=int, required=True, metavar="N",
                   help="number of evaluation points")
    s.add_argument("--format", choices=("table", "csv", "json"), default="table")
    s.set_defaults(handler=_cmd_sweep)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # parse_args leaves the parser as it found it, so one parser serves every run()
    return build_parser()


def _load(path: str, what: str, parse):
    """`parse` of the UTF-8 text of the `what` file at `path`, less one leading BOM.

    Any failure to read, decode (at a position counted from the file's first
    byte) or parse raises a `ValueError` naming the path, as
    "<path>[:<line>[:<column>]]: <reason>" for a parse error.
    """
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {what} file {path!r}: {exc}") from None
    try:
        return parse(text)
    except _LocatedError as exc:
        where = "".join(f":{n}" for n in (exc.line, exc.column) if n)
        raise ValueError(f"{path}{where}: {exc.reason}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _constants(fields: dict, values: dict[str, tuple[float, str]]) -> ModelConstants:
    """`ModelConstants(**fields)` once each config-key `(value, source)` is set in `fields`.

    Any value the constants reject raises a `_UsageError`; one outside its
    field's own range names the field and its source: the flag,
    `config:<path>` or the sweep.
    """
    for key, (raw, source) in values.items():
        field, wrap, _ = _CONSTANTS[key]
        try:
            fields[field] = wrap(raw)
        except ValueError as exc:
            raise _UsageError(f"{field} from {source} is out of range: {exc}") from None
    try:
        return ModelConstants(**fields)
    except _FieldError as exc:
        source = next(where for key, (_, where) in values.items()
                      if _CONSTANTS[key][0] == exc.field)
        raise _UsageError(f"{exc.field} from {source} is out of range: {exc}") from None
    except ValueError as exc:
        raise _UsageError(exc) from None


def _resolve_constants(args) -> ModelConstants:
    # precedence: defaults < config file < command line flags
    values: dict[str, tuple[float, str]] = {}
    config_path = os.environ.get(ENV_CONFIG)
    if config_path:
        config = _load(config_path, "config",
                       lambda text: parse_key_values(text, tuple(_CONSTANTS)))
        values.update((key, (raw, f"config:{config_path}")) for key, raw in config.items())
    for key in _CONSTANTS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = (flag, "--" + key.replace("_", "-"))
    return _constants({}, values)


def _say(text: str) -> None:
    """Write `text` as a line to stderr; a stderr that cannot be written loses it alone."""
    try:
        sys.stderr.write(f"{text}\n")
        sys.stderr.flush()
    except (AttributeError, OSError):  # sys.stderr is None when fd 2 was closed at start
        pass


def _write(text: str) -> None:
    """Write `text` to stdout and flush it, so that a stdout it cannot write exits 2."""
    try:
        if sys.stdout is None:  # so Python leaves it when fd 1 is closed at start
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise OSError(f"cannot write stdout: {exc}") from None


def _cmd_bosons(args, constants: ModelConstants) -> int:
    columns = ["d", "gauge", "symmetry", "mass_gev"]
    if args.closed_form:
        columns.append("closed_form_gev")
    rows = []
    for (orbital, gauge, symmetry), mass in zip(_LEVELS, evaluate(constants).ladder_gev):
        cells = [orbital.d, gauge.value, symmetry, mass]
        if args.closed_form:
            cells.append(closed_form_mass(orbital, constants).magnitude)
        rows.append(cells)
    _write(format_rows(args.format, columns, rows, args.digits))
    return EXIT_OK


def _cmd_calibrate(args, constants: ModelConstants) -> int:
    ev = evaluate(constants, args.anchors)
    bases = _spectrum.AuxBaseSet(*map(mev, (ev.lepton_base, ev.quark_base, ev.top_lump)))
    # a new file beside it (or beside a symlink's target) is renamed onto it
    target = os.path.realpath(args.out) if os.path.islink(args.out) else args.out
    # one there that is not a regular file, as /dev/null or a loop of links, is opened as is
    in_place = os.path.lexists(target) and not os.path.isfile(target)
    temp = args.out if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with open(temp, "w" if in_place else "x") as file:
            file.write(_spectrum.format_calibration(bases))
        if not in_place:
            os.replace(temp, target)
    except OSError as exc:
        if not in_place and not isinstance(exc, FileExistsError) and os.path.exists(temp):
            os.remove(temp)  # one that was there before, as a killed run's, is not ours
        # errno and reason alone, as the temporary file's name holds the process id
        raise OSError(f"cannot write calibration file {args.out!r}: "
                      f"[Errno {exc.errno}] {exc.strerror}") from None
    _say(f"wrote {args.out}")
    rows = _spectrum._residuals(ev.rows, args.anchors)
    _write(format_rows("table", ["name", "role", "rel_error"], rows, args.digits))
    return EXIT_OK


def _cmd_fermions(args, constants: ModelConstants) -> int:
    if args.calibration:
        # the rows are evaluated in the loader, so a base it cannot use names the file
        ev = _load(args.calibration, "calibration", lambda text: _spectrum._ev_from_bases(
            evaluate(constants), load_bases(text, constants)))
    else:
        ev = evaluate(constants, "d")
    columns = ["name", "orbitals", "constituents", "mass", "unit", "note"]
    rows = [[row.name, row.orbitals, row.constituents, mass / _TO_MEV[row.display_unit],
             row.display_unit.value, row.note] for row, mass in zip(TABLE, ev.rows)]
    _write(format_rows(args.format, columns, rows, args.digits))
    return EXIT_OK


def _cmd_compare(args, constants: ModelConstants) -> int:
    from .compare import BARYON_SPLIT, _claims, _compare, default_observed, parse_observed, render
    if args.observed:
        records = _load(args.observed, "observed", parse_observed)
    else:
        records = default_observed()
    ev = evaluate(constants, "d")
    # each row in its display unit, as fermions prints it: the top in GeV, the rest in MeV
    spectrum = [(row.name, mass / _TO_MEV[row.display_unit]) for row, mass in zip(TABLE, ev.rows)]
    claims = _claims(ev.ladder_gev, ev.alpha_w, constants.theta_w_deg, ev.sin2_theta_w,
                     BARYON_SPLIT, spectrum)
    try:
        report = _compare(claims, records)
    except ValueError as exc:
        # the built-in set always compares, so only a row of the observed file gets here
        raise ValueError(f"{args.observed}: {exc}") from None
    _write(render(report, args.format, sig=args.digits))
    if args.format == "json" and (report.skipped_computed or report.skipped_observed):
        # json output is a pure array, so the skip summary goes to stderr
        if report.skipped_computed:
            _say(f"skipped computed: {', '.join(report.skipped_computed)}")
        if report.skipped_observed:
            _say(f"skipped observed: {', '.join(report.skipped_observed)}")
    if args.check:
        breaches = [row.name for row in report.rows if row.rel_error > args.tol]
        if breaches:
            _say(f"tolerance check failed at {args.tol:g}: {', '.join(breaches)}")
            return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_sweep(args, constants: ModelConstants) -> int:
    step = (args.stop - args.start) / max(args.steps - 1, 1)
    # point 0 is --from itself: 0 * step is nan for an infinite step
    points = [args.start, *(args.start + i * step for i in range(1, args.steps))]
    field, wrap, _ = _CONSTANTS[args.param]
    rows = _spectrum._sweep(constants, field, getattr(wrap(1.0), "unit", None), points)
    # the points the rows stop before, in turn, through `_constants`, which words the first
    # one's rejection and names the sweep as the value's source
    for point in points[len(rows):]:
        _constants(constants._asdict(), {args.param: (point, f"the sweep of {args.param}")})
    columns = [args.param, "muon_mev", "tau_mev", "boson_6_gev", "boson_11_gev", "alpha_w"]
    _write(format_rows(args.format, columns, rows, args.digits))
    return EXIT_OK


def run(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        # the flags argparse cannot check, before the config file is read
        if args.digits < 1:
            raise _UsageError("--digits must be at least 1")
        if args.digits > MAX_DIGITS:
            raise _UsageError(f"--digits must be at most {MAX_DIGITS}")
        if args.command == "sweep" and args.steps < 1:
            raise _UsageError("--steps must be at least 1")
        if args.command == "sweep" and args.steps > MAX_SWEEP_STEPS:
            # every row is held until the table is laid out, so memory grows with steps
            raise _UsageError(f"--steps must be at most {MAX_SWEEP_STEPS}")
        if args.command == "compare" and args.check and not (
                math.isfinite(args.tol) and args.tol > 0.0):
            raise _UsageError("--tol must be a finite positive number")
        return args.handler(args, _resolve_constants(args))
    except SystemExit as exc:  # from argparse: a usage error, or --help written
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ValueError, OSError) as exc:
        _say(f"dimorb: error: {exc}")
        # the table is built in, so a CalibrationError means out-of-range constants
        return EXIT_USAGE if isinstance(exc, (_UsageError, CalibrationError)) else EXIT_DATA


def main() -> None:
    import gc  # only the process entry point needs it
    code = run()
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        try:
            stream.flush()  # a stream is None when its fd was closed at start
        except (AttributeError, OSError):  # the fd at os.devnull keeps the flush at exit quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
    # frozen objects are skipped by the full collection CPython runs at exit
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()

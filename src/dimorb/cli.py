"""Command line front end.

Exit codes: 0 success, 1 usage or out-of-range constants (including ones the fermion table
cannot be calibrated with), 2 unreadable or malformed data (config, calibration, observed CSV)
or output that cannot be written (`--out`, or stdout, also one whose encoding cannot hold the
text), 3 tolerance breach under `compare --check`. Data goes to stdout, diagnostics to stderr,
and output is deterministic on one Python: same inputs, same bytes (argparse's words vary by
version).

Each command but `sweep` makes one `evaluate` call. Every number it prints is a field
of that `Evaluation`, or a fixed unit conversion or rounding of one, apart from input
constants, the fixed baryon split and the closed-form column of `bosons`; `sweep` evaluates
its points in one pass, and a column the swept constant does not enter is that field of the
start set's `Evaluation`, given to the writer once for every row. Handlers raise and `run()`
alone reports: it prints the one `dimorb: error:` line and picks the exit code, also for a
stdout that `_write` cannot write (`--help` included) and a `--out` file, which is written
whole or not at all. A rejected constant set is a `_FieldError` that cites its fields, and
`run()` names each one's source (a flag, `config:<path>`, the default or the sweep) before the
library's message. Arguments are checked before any file is read or output written. Every
input file goes through `_load`, so one that cannot be read, decoded as UTF-8 (a leading
byte-order mark is dropped), parsed or used exits 2 and names its path as given; an empty
`--calibration` or `--observed` path is such a file, not an absent flag. Diagnostics go
through `_say` alone, so a stderr that cannot be written loses them and nothing else.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

from . import spectrum as _spectrum
from .ladder import _LEVELS, closed_form_mass
from .quantities import (
    ALPHA_E_DEFAULT,
    MassValue,
    ModelConstants,
    Unit,
    _FieldError,
    _LocatedError,
    _TO_MEV,
    _format_columns,
    format_rows,
    mev,
    parse_key_values,
)
from .spectrum import (
    ANCHOR_CHOICES,
    TABLE,
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
# (ModelConstants field, unit of a mass or None, --help text)
_CONSTANTS = {
    "alpha": ("alpha_e", None, f"fine structure constant (default {ALPHA_E_DEFAULT})"),
    "m_electron_mev": ("m_electron", Unit.MEV, "electron mass in MeV (default 0.510999)"),
    "m_z_gev": ("m_z", Unit.GEV, "Z0 mass in GeV (default 91.177)"),
    "theta_w_deg": ("theta_w_deg", None, "mixing angle in degrees (default 29.69)"),
    "planck_gev": ("planck_ref", Unit.GEV, "Planck-scale reference in GeV (default 1.2e19)"),
}

_EPILOG = """examples:
  dimorb bosons --closed-form
  dimorb calibrate --out calibration.txt
  dimorb fermions --calibrate --format csv
  dimorb compare --check --tol 0.005
  dimorb sweep alpha --from 0.0073 --to 0.0146 --steps 3
"""


class _UsageError(ValueError):
    """A bad argument: exit 1, as for a rejected constant set, where other `ValueError`s exit 2."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_USAGE)

    def print_help(self, file=None):
        if file is None:  # argparse from 3.11 on drops a failed write; `_write` reports it
            return _write(self.format_help())
        super().print_help(file)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    g = common.add_argument_group("model constants (override config and defaults)")
    for key, (_, _, text) in _CONSTANTS.items():
        g.add_argument("--" + key.replace("_", "-"), type=float, metavar="X", help=text)
    common.add_argument("--digits", type=int, default=6, metavar="N",
                        help="significant digits in rendered numbers (default 6)")
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


# parse_args leaves the parser as it found it, so one parser serves every run()
_shared_parser = functools.cache(build_parser)


def _load(path: str, what: str, parse):
    """`parse` of the UTF-8 text of the `what` file at `path`, less one leading BOM, read by
    `open` with its newline translation.

    Any failure to read, decode (at a position counted from the file's first
    byte) or parse raises a `ValueError` naming the path, as
    "<path>[:<line>[:<column>]]: <reason>" for a parse error.
    """
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {what} file {path!r}: {exc}") from None
    try:
        return parse(text)
    except _LocatedError as exc:
        where = "".join(f":{n}" for n in (exc.line, exc.column) if n)
        raise ValueError(f"{path}{where}: {exc.reason}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _field_value(key: str, raw: float):
    """Config key `key`'s field value of `raw`, as a mass in its unit if any, or a `_FieldError`."""
    field, unit, _ = _CONSTANTS[key]
    try:
        return raw if unit is None else MassValue(raw, unit)
    except ValueError as exc:
        raise _FieldError(str(exc), field) from None


def _resolve_constants(args, sources: dict[str, str]) -> ModelConstants:
    """The run's constant set; `sources` gets the flag or `config:<path>` of each field set."""
    # precedence: defaults < config file < command line flags
    values: dict[str, float] = {}
    if config_path := os.environ.get(ENV_CONFIG):
        values = _load(config_path, "config",
                       lambda text: parse_key_values(text, tuple(_CONSTANTS)))
        sources.update((_CONSTANTS[key][0], f"config:{config_path}") for key in values)
    for key, (field, _, _) in _CONSTANTS.items():
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
            sources[field] = "--" + key.replace("_", "-")
    return ModelConstants(**{_CONSTANTS[key][0]: _field_value(key, raw)
                             for key, raw in values.items()})


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
    except (OSError, UnicodeEncodeError) as exc:
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
    if args.calibration is not None:
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
    if args.observed is not None:
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
    # start + i * step; point 0 is --from itself: 0 * step is nan for an infinite step
    start = args.start
    points = [start, *[start + i * step for i in range(1, args.steps)]]
    field, unit, _ = _CONSTANTS[args.param]
    columns = _spectrum._sweep(constants, field, unit, points)
    # the points the columns stop before, in turn, through the checked constructor, so the
    # first one's rejection is raised; `run()` names the sweep as the field's source
    for point in points[len(columns[0]):]:
        constants._replace(**{field: _field_value(args.param, point)})
    names = [args.param, "muon_mev", "tau_mev", "boson_6_gev", "boson_11_gev", "alpha_w"]
    _write(_format_columns(args.format, names, columns, len(columns[0]), args.digits,
                           float_columns=True))
    return EXIT_OK


def run(argv=None) -> int:
    sources = dict.fromkeys(ModelConstants._fields, "the default")  # named by a rejection
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
        constants = _resolve_constants(args, sources)
        if args.command == "sweep":  # every set rejected from here on holds a swept value
            sources[_CONSTANTS[args.param][0]] = f"the sweep of {args.param}"
        return args.handler(args, constants)
    except SystemExit as exc:  # from argparse: a usage error, or --help written
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except _FieldError as exc:  # a rejected constant set; the table is built in, so exit 1
        cited = ", ".join(f"{field} from {sources[field]}" for field in exc.fields)
        _say(f"dimorb: error: {cited} {'are' if exc.fields[1:] else 'is'} out of range: {exc}")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        _say(f"dimorb: error: {exc}")
        return EXIT_USAGE if isinstance(exc, _UsageError) else EXIT_DATA


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

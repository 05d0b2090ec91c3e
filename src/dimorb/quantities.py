"""Mass values with explicit units, index types, the model's input constants,
the `key=value` text format that config and calibration files share, and the
row writer behind every table the command line prints.

Internally the package computes in plain floats, mostly in MeV; a
`MassValue` is built only for a mass that a public function takes or
returns, so it carries its unit with it. The two units, MeV and GeV, differ
by an exact factor of 10**3, so a mass that is finite in MeV converts to
either unit without overflow.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain
from typing import NamedTuple

__all__ = [
    "Unit",
    "MassValue",
    "OrbitalIndex",
    "ModelConstants",
    "KeyValueError",
    "parse_key_values",
    "round_to_sig",
    "mev",
    "gev",
]

ALPHA_E_DEFAULT = 7.2973525693e-3  # fine structure constant


class Unit(Enum):
    MEV = "MeV"
    GEV = "GeV"

    # Members are singletons compared by identity, so hashing by identity
    # agrees with ==, and keeps dict lookups such as _TO_MEV[unit] in C
    # instead of Enum.__hash__'s hash of the member name.
    __hash__ = object.__hash__


# bound once: before Python 3.12 a read of Unit.MEV costs about 5x a plain class attribute
_MEV, _GEV = Unit.MEV, Unit.GEV
_TO_MEV = {_MEV: 1.0, _GEV: 1e3}


def _convert(mass, target: Unit) -> float:
    """`mass.to(target).magnitude` bit for bit, building no MassValue; `mass`
    may also be a (magnitude, unit) pair."""
    magnitude, unit = mass
    return magnitude if target is unit else magnitude * _TO_MEV[unit] / _TO_MEV[target]


class _Checked:
    """Base of a checked NamedTuple: `_make`, and so `_replace`, builds through its constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))


def _number(x) -> bool:
    # the range checks after it reject nan, inf and a huge int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class _MassFields(NamedTuple):
    magnitude: float
    unit: Unit


class MassValue(_Checked, _MassFields):
    """A non-negative mass magnitude tagged with its unit.

    The magnitude must also stay finite when expressed in MeV, so `mev`
    never overflows.
    """

    __slots__ = ()

    def __new__(cls, magnitude: float, unit: Unit) -> "MassValue":
        if not isinstance(unit, Unit):
            raise ValueError(f"unknown mass unit: {unit!r}")
        if not _number(magnitude):
            raise ValueError(f"mass magnitude must be an int or float, got {magnitude!r}")
        try:
            m = float(magnitude)
        except OverflowError:  # an int no float holds, which the test below rejects
            m = math.inf
        # a finite product also means a finite m, so one test covers both
        if not math.isfinite(m * _TO_MEV[unit]) or m < 0.0:
            raise ValueError(f"mass magnitude must be finite and >= 0 in MeV, "
                             f"got {magnitude!r} {unit.value}")
        return tuple.__new__(cls, (m, unit))

    @property
    def mev(self) -> float:
        """Magnitude expressed in MeV."""
        return self.magnitude * _TO_MEV[self.unit]

    def to(self, target: Unit) -> "MassValue":
        if target is self.unit:
            return self
        return MassValue(_convert(self, target), target)

    def __str__(self) -> str:
        return f"{self.magnitude:.6g} {self.unit.value}"


def mev(magnitude: float) -> MassValue:
    return MassValue(magnitude, _MEV)


def gev(magnitude: float) -> MassValue:
    return MassValue(magnitude, _GEV)


class _OrbitalFields(NamedTuple):
    d: int


class OrbitalIndex(_Checked, _OrbitalFields):
    """Main orbital number D; the model's mass levels live at D = 5..11."""

    __slots__ = ()

    def __new__(cls, d: int) -> "OrbitalIndex":
        if isinstance(d, bool) or not isinstance(d, int) or not 5 <= d <= 11:
            raise ValueError(f"orbital number must be an integer in 5..11, got {d!r}")
        return tuple.__new__(cls, (d,))

    def __int__(self) -> int:
        return self.d


class _FieldError(ValueError):
    """A constant outside its own range, read as "<field> <reason>"."""

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(f"{field} {reason}")
        self.field = field


class _ConstantsFields(NamedTuple):
    alpha_e: float
    m_electron: MassValue
    m_z: MassValue
    theta_w_deg: float
    planck_ref: MassValue


class ModelConstants(_Checked, _ConstantsFields):
    """Input constants that fix every output of the model.

    alpha_e, the electron mass and the Z0 mass drive the mass ladder (seven
    levels, D = 5..11) and the fermion spectrum; theta_w_deg only enters the
    electroweak mixing view, and planck_ref only the closed-form
    approximation and the agreement report.

    Besides each constant's own range, a set is rejected when it would
    drive the top of the ladder, the tau row or alpha_w out of float range;
    the message names the constants involved. A set built by `_replace`,
    `_make`, `copy` or `pickle` is checked the same way.
    """

    __slots__ = ()

    def __new__(cls, alpha_e: float = ALPHA_E_DEFAULT,
                m_electron: MassValue = MassValue(0.510999, Unit.MEV),
                m_z: MassValue = MassValue(91.177, Unit.GEV),
                theta_w_deg: float = 29.69,
                planck_ref: MassValue = MassValue(1.2e19, Unit.GEV)) -> "ModelConstants":
        if not _number(alpha_e) or not 0.0 < alpha_e < 1.0:
            raise _FieldError("alpha_e", f"must lie strictly inside (0, 1), got {alpha_e!r}")
        _positive_mass("m_electron", m_electron)
        _positive_mass("m_z", m_z)
        _positive_mass("planck_ref", planck_ref)
        if not _number(theta_w_deg) or not 0.0 < theta_w_deg < 90.0:
            raise _FieldError("theta_w_deg",
                              f"must lie strictly inside (0, 90), got {theta_w_deg!r}")
        constants = tuple.__new__(cls, (alpha_e, m_electron, m_z, theta_w_deg, planck_ref))
        _spectrum._core(constants)  # raises for a set out of range; its readers reuse the result
        return constants


def _positive_mass(field: str, value) -> None:
    if not isinstance(value, MassValue):
        raise _FieldError(field, f"must be a MassValue, got {value!r}")
    if value.magnitude <= 0.0:
        raise _FieldError(field, f"must be positive, got {value}")


class _LocatedError(ValueError):
    """Unusable input text: `reason` at a 1-based `line` and `column`, each 0 when unknown."""

    def __init__(self, reason: str, line: int = 0, column: int = 0) -> None:
        where = f"line {line}, column {column}" if column else f"line {line}"
        super().__init__(f"{where}: {reason}" if line else reason)
        self.reason = reason
        self.line = line
        self.column = column


class KeyValueError(_LocatedError):
    """Unusable `key=value` text; a line is at fault unless `line` is 0."""


def parse_key_values(text: str, keys: tuple[str, ...],
                     error: type[KeyValueError] = KeyValueError) -> dict[str, float]:
    """Read `key=value` lines into floats, skipping blank lines and '#' comments.

    A line without '=', an unknown or repeated key, or a value that is not a
    number raises `error` with the line number.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise error(f"expected key=value, got {line!r}", lineno)
        if key not in keys:
            raise error(f"unknown key {key!r} (expected one of: {', '.join(keys)})", lineno)
        if key in values:
            raise error(f"duplicate key {key!r}", lineno)
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise error(f"value for {key!r} is not a number: {value.strip()!r}", lineno) from None
    return values


def round_to_sig(value: float, figures: int) -> float:
    """Round to the given number of significant figures."""
    if figures < 1:
        raise ValueError(f"need at least one significant figure, got {figures!r}")
    if value == 0.0 or not math.isfinite(value):
        return value
    return float(f"{value:.{figures}g}")


def _cell(value) -> str:
    # floats are formatted by the caller; None is an empty cell
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_line(cells) -> str:
    import csv  # only a row that needs quoting comes here
    import io
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def format_rows(fmt: str, columns, rows, digits: int) -> str:
    """Lay out rows as an aligned "table", "markdown", "csv" or "json" text.

    Floats show `digits` significant digits, json rounds them to that many
    instead; booleans read true/false, and None is an empty cell that json
    leaves out of its row's object. `rows` is a sequence, and a column whose
    cells all hold one nonzero float is turned into text once.
    """
    if digits < 1:
        raise ValueError(f"need at least one significant digit, got {digits!r}")
    spec = f".{digits}g"
    # per column, the one value its cells all hold, else None. Equal nonzero floats
    # have the same bits and so the same text; 0.0 == -0.0 print apart, nan equals nothing
    fixed = []
    if rows:
        last = rows[-1]
        for j, value in enumerate(rows[0]):
            # first against last before the rest, so a varying column costs two reads
            fixed.append(value if type(value) is float and value and type(last[j]) is float
                         and last[j] == value
                         and all(type(row[j]) is float and row[j] == value for row in rows)
                         else None)
    if fmt == "json":
        # the bytes of json.dumps(rows as objects, indent=2) + "\n", written
        # here because under indent json.dumps runs its pure-Python encoder
        from json.encoder import encode_basestring_ascii as quote  # slow to import

        # 17 significant digits round-trip every float; fewer can round up to inf
        exact = digits >= 17
        isfinite = math.isfinite

        def text(value) -> str:
            if type(value) is not float:
                return quote(value) if isinstance(value, str) else _cell(value)
            number = value if exact else float(format(value, spec))  # round_to_sig's value
            if isfinite(number):
                return repr(number)
            # spelled as json.dumps spells them
            return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(number)]

        prefixes = [f"    {quote(name)}: " for name in columns]
        fixed_text = [None if value is None else prefix + text(value)
                      for prefix, value in zip(prefixes, fixed)]
        # an exact finite float, the usual cell at 17 digits, is written inline
        objects = [",\n".join([cell or prefix + (repr(value) if exact and type(value) is float
                                                 and isfinite(value) else text(value))
                               for prefix, cell, value in zip(prefixes, fixed_text, row)
                               if value is not None])
                   for row in rows]
        body = ",\n".join(f"  {{\n{fields}\n  }}" if fields else "  {}" for fields in objects)
        return f"[\n{body}\n]\n" if objects else "[]\n"
    fixed_text = [None if value is None else format(value, spec) for value in fixed]
    # a generator, so csv holds no second copy of a long sweep's cells
    texts = ([cell or (format(value, spec) if type(value) is float else _cell(value))
              for cell, value in zip(fixed_text, row)] for row in rows)
    if fmt == "csv":
        lines = []
        for cells in chain((columns,), texts):
            line = ",".join(cells)
            # csv.writer quotes a field with a comma, quote, CR or LF, spells a lone
            # empty field as "", and cannot write NUL before Python 3.11: those rows
            # are its to write, as each Python version writes them
            if ('"' in line or "\r" in line or "\n" in line or "\0" in line
                    or line.count(",") >= len(cells) or not line):
                line = _csv_line(cells)
            else:
                line += "\n"
            lines.append(line)
        return "".join(lines)
    texts = list(texts)
    if fmt == "markdown":
        lines = [columns, ["---"] * len(columns), *texts]
        return "".join(f"| {' | '.join(line)} |\n" for line in lines)
    widths = [max(map(len, cells)) for cells in zip(columns, *texts)]
    # each cell padded on the right to its column's width, as str.ljust pads it
    template = "  ".join(f"%-{width}s" for width in widths)
    lines = [columns, ["-" * width for width in widths], *texts]
    return "".join([(template % tuple(line)).rstrip() + "\n" for line in lines])


# at the end, because spectrum imports this module; ModelConstants calls its _core
from . import spectrum as _spectrum

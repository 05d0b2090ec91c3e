"""Mass values with explicit units, index types, the model's input constants,
the `key=value` text format that config and calibration files share, and the
row writer behind every table the command line prints, which classes each column
once and writes each row with one precompiled `%` template.

Values are checked where they enter: in public constructors, `ModelConstants`'
range check and the config, calibration and observed-file parsers. Inside, the
package computes in plain floats, mostly in MeV, and builds a record (a
`MassValue` too) only to return it, from checked floats, on hot paths with
`tuple.__new__`, which skips the constructor's checks. MeV and GeV differ by
an exact factor of 10**3, so a mass finite in MeV is finite in either unit.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from typing import NamedTuple

from . import _EXPORTS

__all__ = [*_EXPORTS["quantities"], "KeyValueError", "parse_key_values"]

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
        if not isinstance(target, Unit):
            raise ValueError(f"unknown mass unit: {target!r}")
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


class _FieldError(ValueError):
    """A rejected constant set: `text`, which cites the `ModelConstants` fields in `fields`."""

    def __init__(self, text: str, *fields: str) -> None:
        super().__init__(text)
        self.fields = fields


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
        _check_field("alpha_e", alpha_e)
        _check_field("m_electron", m_electron)
        _check_field("m_z", m_z)
        _check_field("planck_ref", planck_ref)
        _check_field("theta_w_deg", theta_w_deg)
        constants = tuple.__new__(cls, (alpha_e, m_electron, m_z, theta_w_deg, planck_ref))
        _spectrum._core(constants)  # raises for a set out of range; its readers reuse the result
        return constants


# the open upper bound of each float field; a mass field must be a positive MassValue
_UPPER = {"alpha_e": 1.0, "theta_w_deg": 90.0}


def _check_field(field: str, value) -> None:
    high = _UPPER.get(field)
    if high is not None:
        if not _number(value) or not 0.0 < value < high:
            raise _FieldError(f"{field} must lie strictly inside (0, {high:g}), got {value!r}",
                              field)
    elif not isinstance(value, MassValue):
        raise _FieldError(f"{field} must be a MassValue, got {value!r}", field)
    elif value.magnitude <= 0.0:
        raise _FieldError(f"{field} must be positive, got {value}", field)


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


def _cell(value, spec: str) -> str:
    if type(value) is float:
        return format(value, spec)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_special(text: str) -> bool:
    # csv.writer quotes a field with a comma, quote, CR or LF, or a lone empty one, and cannot
    # write NUL before Python 3.11; a row with none of those it writes as the plain join
    return "," in text or '"' in text or "\r" in text or "\n" in text or "\0" in text


def format_rows(fmt: str, columns, rows, digits: int) -> str:
    """Lay out a sequence of rows as an aligned "table", "markdown", "csv" or "json" text.

    Floats show `digits` significant digits; json rounds the value instead, but writes a finite
    float that rounds past the largest float as the other formats do. Booleans read true/false;
    None is an empty cell, left out of a json object. Each row is one `template % cells`: a column
    of one nonzero float is a literal of it, a column of floats is formatted by it (a table takes
    their texts first, for its widths), and other cells are turned into text one by one.
    """
    if digits < 1:
        raise ValueError(f"need at least one significant digit, got {digits!r}")
    spec = f".{digits}g"
    specs = repeat(spec)  # endless, so every map below reuses it
    is_json, is_csv, table = fmt == "json", fmt == "csv", fmt not in ("json", "markdown", "csv")
    if is_json:
        # json.dumps(row objects, indent=2) + "\n" by hand: under indent it runs in Python
        from json.encoder import encode_basestring_ascii as quote  # slow to import
        exact = digits >= 17  # 17 significant digits round-trip every float

        def text(value) -> str:
            if type(value) is not float:
                return quote(value) if isinstance(value, str) else _cell(value, spec)
            if not math.isfinite(value):  # spelled as json.dumps spells them
                return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(value)]
            number = value if exact else float(format(value, spec))  # round_to_sig's value
            return repr(number) if math.isfinite(number) else format(value, spec)
    n, lone, pieces, args, widths = len(rows), len(columns) == 1, [], [], []
    quoted = is_csv and (_csv_special("".join(columns)) or lone and not columns[0])
    for name, cells in zip(columns, [*zip(*rows)] or [()] * len(columns)):
        floats = n and type(cells[0]) is float and {*map(type, cells)} == {float}
        # equal nonzero floats share a text (0.0 and -0.0 do not), as does one nan object repeated
        fixed = floats and cells[0] and cells.count(cells[0]) == n
        prefix = f"{',' if pieces else ''}\n    {quote(name)}: " if is_json else ""
        literal = prefix.replace("%", "%%")  # the prefix as the template holds it
        if fixed:
            piece = literal + text(cells[0]) if is_json else format(cells[0], spec)
            if table:
                widths.append(max(len(name), len(piece)))
        elif is_json:
            values = cells if exact or not floats else [*map(float, map(format, cells, specs))]
            finite = floats and all(map(math.isfinite, values))  # else the column is other
            piece = literal + "%r" if finite else "%s"
            args.append(values if finite
                        else ["" if value is None else prefix + text(value) for value in cells])
        elif floats and not table:
            piece = "%" + spec  # float text never needs quoting
            args.append(cells)
        else:
            piece = "%s"
            texts = [*map(format if floats else _cell, cells, specs)]
            args.append(texts)
            if table:
                widths.append(max([len(name), *map(len, texts)]))
            quoted = quoted or is_csv and (_csv_special("".join(texts)) or lone and "" in texts)
        pieces.append(piece)
    rest = zip(*args) if args else repeat((), n)
    if is_json:
        body = ",\n".join(map(("  {" + "".join(pieces) + "\n  }").__mod__, rest))
        if not pieces or pieces[0] == "%s" and "" in args[0]:
            # rows without a first field, or without any; no json string holds a raw newline
            body = body.replace("{,\n", "{\n").replace("{\n  }", "{}")
        return f"[\n{body}\n]\n" if n else "[]\n"
    if fmt == "markdown":
        head = f"| {' | '.join(columns)} |\n| {' | '.join(['---'] * len(columns))} |\n"
        return "".join([head, *map(("| " + " | ".join(pieces) + " |\n").__mod__, rest)])
    if table:
        # each cell padded on the right to its column's width, as str.ljust pads it
        template = "  ".join(f"%-{w}s" if p == "%s" else p.ljust(w) for p, w in zip(pieces, widths))
        lines = ["  ".join(map(str.ljust, columns, widths)), "  ".join("-" * w for w in widths),
                 *map(template.__mod__, rest), ""]
        return "\n".join(map(str.rstrip, lines))
    if not quoted:
        return "".join([",".join(columns) + "\n", *map((",".join(pieces) + "\n").__mod__, rest)])
    import csv  # only a text that needs quoting comes here
    import io
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([columns, *(map(_cell, r, specs) for r in rows)])
    return out.getvalue()


# at the end, because spectrum imports this module; ModelConstants calls its _core
from . import spectrum as _spectrum

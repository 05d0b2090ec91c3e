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
from typing import NamedTuple

__all__ = [
    "Unit",
    "MassValue",
    "OrbitalIndex",
    "ModelConstants",
    "relative_error",
    "KeyValueError",
    "parse_key_values",
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


_TO_MEV = {Unit.MEV: 1.0, Unit.GEV: 1e3}


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
        m = float(magnitude)
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
    return MassValue(magnitude, Unit.MEV)


def gev(magnitude: float) -> MassValue:
    return MassValue(magnitude, Unit.GEV)


def relative_error(computed, reference) -> float:
    """|computed - reference| / |reference|, independent of unit choice.

    Takes either two MassValue (brought to a common unit first) or two
    plain numbers for dimensionless comparisons. A zero reference has no
    relative error; that case raises instead of returning inf.
    """
    if isinstance(computed, MassValue) != isinstance(reference, MassValue):
        raise TypeError("relative_error needs two MassValue or two plain numbers")
    if isinstance(computed, MassValue):
        c, r = computed.mev, reference.mev
    else:
        c, r = float(computed), float(reference)
    if r == 0.0:
        raise ValueError("undefined relative error: reference value is zero")
    return abs(c - r) / abs(r)


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

    def __index__(self) -> int:
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
    n_orbitals: int


class ModelConstants(_Checked, _ConstantsFields):
    """Input constants that fix every output of the model.

    alpha_e, the electron mass, the Z0 mass and the orbital count drive the
    mass ladder and the fermion spectrum; theta_w_deg only enters the
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
                planck_ref: MassValue = MassValue(1.2e19, Unit.GEV),
                n_orbitals: int = 7) -> "ModelConstants":
        if not _number(alpha_e) or not 0.0 < alpha_e < 1.0:
            raise _FieldError("alpha_e", f"must lie strictly inside (0, 1), got {alpha_e!r}")
        for name, value in (("m_electron", m_electron), ("m_z", m_z),
                            ("planck_ref", planck_ref)):
            if not isinstance(value, MassValue):
                raise _FieldError(name, f"must be a MassValue, got {value!r}")
            if value.magnitude <= 0.0:
                raise _FieldError(name, f"must be positive, got {value}")
        if not _number(theta_w_deg) or not 0.0 < theta_w_deg < 90.0:
            raise _FieldError("theta_w_deg",
                              f"must lie strictly inside (0, 90), got {theta_w_deg!r}")
        if n_orbitals != 7:
            raise ValueError(f"the model has exactly 7 orbitals per set, got {n_orbitals!r}")
        constants = tuple.__new__(
            cls, (alpha_e, m_electron, m_z, theta_w_deg, planck_ref, n_orbitals)
        )
        import dimorb.spectrum as spectrum  # which imports this module, so not at the top
        spectrum._core(constants)  # raises for a set out of range; its readers reuse the result
        return constants


def _number(x) -> bool:
    # the range comparisons after it reject nan and inf, and compare a huge int exactly
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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


def format_rows(fmt: str, columns, rows, digits: int) -> str:
    """Lay out rows as an aligned "table", "markdown", "csv" or "json" text.

    Floats show `digits` significant digits, json rounds them to that many
    instead; booleans read true/false, and None is an empty cell that json
    leaves out of its row's object.
    """
    if digits < 1:
        raise ValueError(f"need at least one significant digit, got {digits!r}")
    if fmt == "json":
        # the bytes of json.dumps(rows as objects, indent=2) + "\n", written
        # here because under indent json.dumps runs its pure-Python encoder
        from json.encoder import encode_basestring_ascii as quote  # slow to import

        def text(value) -> str:
            if type(value) is not float:
                return quote(value) if isinstance(value, str) else _cell(value)
            # 17 significant digits round-trip every float; fewer can round up to inf
            number = value if digits >= 17 else round_to_sig(value, digits)
            if math.isfinite(number):
                return repr(number)
            # spelled as json.dumps spells them
            return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(number)]

        prefixes = [f"    {quote(name)}: " for name in columns]
        objects = [",\n".join(prefix + text(value) for prefix, value in zip(prefixes, row)
                              if value is not None) for row in rows]
        body = ",\n".join(f"  {{\n{fields}\n  }}" if fields else "  {}" for fields in objects)
        return f"[\n{body}\n]\n" if objects else "[]\n"
    spec = f".{digits}g"
    # a generator, so csv holds no second copy of a long sweep's cells
    texts = ([format(value, spec) if type(value) is float else _cell(value) for value in row]
             for row in rows)
    if fmt == "csv":
        import csv
        import io
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(texts)
        return out.getvalue()
    texts = list(texts)
    if fmt == "markdown":
        lines = [columns, ["---"] * len(columns), *texts]
        return "".join(f"| {' | '.join(line)} |\n" for line in lines)
    widths = [max(map(len, cells)) for cells in zip(columns, *texts)]
    lines = [columns, ["-" * width for width in widths], *texts]
    return "".join("  ".join(map(str.ljust, line, widths)).rstrip() + "\n" for line in lines)

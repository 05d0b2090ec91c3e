"""Charged lepton and quark masses as integer combinations of a few numbers.

Once the ladder is known, every row of the fermion table is

    mass = electrons*Me + muons*(Me + L) + lump*top_lump + lepton_w*L + quark_w*Q

added left to right. Me is the electron mass, Me + L the computed muon, and L
and Q the level-7 auxiliary bases of the charged leptons and the quarks, each
weighted by quartic_sum(a) = sum(k**4 for k = 0..a) for the row's auxiliary
index a, so the three generations climb steeply with a. L = (3/2) * B6 comes
from the ladder; Q and top_lump, the model's only calibrated constants, are
solved in floats by one function, `_solve`, each from one row: Q from an anchor
row, then top_lump from the top row.

`_rows` evaluates that sum for each row of a weight matrix such as
`_COEFFICIENTS`, TABLE's compositions as floats: a small int's float is exact,
so float weights give int weights' bits without a conversion per term. It has
no branch: every value it reads is finite and >= 0 (the constructor, the range
check and `MassValue` see to that; a base of weight 0 is passed as 0.0), so a
zero-weight term adds an exact +0.0, as if skipped. It does not use `sum()`,
which compensates its rounding from Python 3.12 on.

The float core is here too, since its range check reads the tau row. `_core` gives the
uncalibrated `Evaluation` of a set's five fields when the set is built and words a failed
check with them; `_sweep` gives its bits and checks for a sweep's points, column by column.
`evaluate` returns that record, calibrated from an anchor by `_calibrated_ev`;
`_ev_from_bases` calibrates it from a base set, the one source of an inf row, and checks
each row. Each command prints the fields of one `Evaluation`, or fixed unit conversions or
roundings of them; the public functions, here and in `ladder` and `compare`, wrap the same
private functions and build their records from those floats unchecked.
"""

from __future__ import annotations

import math
from itertools import compress, count, repeat
from operator import add, mul, not_, truediv
from typing import NamedTuple

from . import _EXPORTS
from .quantities import (
    KeyValueError,
    MassValue,
    ModelConstants,
    Unit,
    _convert,
    _GEV,
    _MEV,
    _TO_MEV,
    _UPPER,
    _FieldError,
    mev,
    parse_key_values,
)

__all__ = [*_EXPORTS["spectrum"], "Coefficients", "ANCHOR_CHOICES"]


class UncalibratedBaseError(ValueError):
    """A row needs an auxiliary base that has not been provided."""


class CalibrationError(_FieldError):
    """An anchor row produced an unusable calibrated constant; `fields` are those it cites."""


class CalibrationFileError(KeyValueError):
    """A calibration file could not be parsed."""


class Coefficients(NamedTuple):
    """Integer weights of one table row; see the module docstring."""

    electrons: int
    muons: int
    lump: int
    lepton_w: int
    quark_w: int


class SpectrumRow(NamedTuple):
    """One row of the built-in composition table."""

    name: str
    orbitals: str            # occupied level_index slots, e.g. "6_0 + 7_0 + 7_1"
    constituents: str        # the same row spelled as named pieces
    composition: Coefficients
    table_mass: MassValue    # the mass the table states for this row
    display_unit: Unit
    note: str = ""           # "given" for inputs, "massless" for zero rows


def lepton_aux_base(constants: ModelConstants) -> MassValue:
    """Auxiliary base for charged leptons at level 7: (3/2) * B6.

    B6 = M_e / alpha_e, so this needs no calibration at all.
    """
    return mev(evaluate(constants).lepton_base)


class AuxBaseSet(NamedTuple):
    """The three auxiliary bases; the two calibrated ones may be absent."""

    lepton_base_7: MassValue
    quark_base_7: MassValue | None = None
    top_lump_8: MassValue | None = None

    @classmethod
    def lepton_only(cls, constants: ModelConstants) -> "AuxBaseSet":
        return cls(lepton_base_7=lepton_aux_base(constants))


_C = Coefficients

# the weights are quartic_sum(a) for the row's 7_a slot with a >= 1:
# 1, 17, 98, 354, 979 for a = 1..5
TABLE: tuple[SpectrumRow, ...] = (
    SpectrumRow("nu_e", "5_0", "nu_e", _C(0, 0, 0, 0, 0), mev(0.0), Unit.MEV, "massless"),
    SpectrumRow("e", "6_0", "e", _C(1, 0, 0, 0, 0), mev(0.51), Unit.MEV, "given"),
    SpectrumRow("nu_mu", "7_0", "nu_mu", _C(0, 0, 0, 0, 0), mev(0.0), Unit.MEV, "massless"),
    SpectrumRow("nu_tau", "8_0", "nu_tau", _C(0, 0, 0, 0, 0), mev(0.0), Unit.MEV, "massless"),
    SpectrumRow("mu", "6_0 + 7_0 + 7_1", "e + nu_mu + mu_7",
                _C(1, 0, 0, 1, 0), mev(105.6), Unit.MEV),
    SpectrumRow("tau", "6_0 + 7_0 + 7_2", "e + nu_mu + tau_7",
                _C(1, 0, 0, 17, 0), mev(1786.0), Unit.MEV),
    SpectrumRow("u", "5_0 + 7_0 + 7_1", "u_5 + q_7 + u_7",
                _C(0, 3, 0, 0, 1), mev(330.8), Unit.MEV),
    SpectrumRow("d", "6_0 + 7_0 + 7_1", "d_6 + q_7 + d_7",
                _C(3, 3, 0, 0, 1), mev(332.3), Unit.MEV),
    SpectrumRow("s", "6_0 + 7_0 + 7_2", "d_6 + q_7 + s_7",
                _C(3, 3, 0, 0, 17), mev(558.0), Unit.MEV),
    SpectrumRow("c", "5_0 + 7_0 + 7_3", "u_5 + q_7 + c_7",
                _C(0, 3, 0, 0, 98), mev(1701.0), Unit.MEV),
    SpectrumRow("b", "6_0 + 7_0 + 7_4", "d_6 + q_7 + b_7",
                _C(3, 3, 0, 0, 354), mev(5318.0), Unit.MEV),
    SpectrumRow("t", "5_0 + 7_0 + 7_5 + 8_0 + 8_2", "u_5 + q_7 + t_7 + q_8 + t_8",
                _C(0, 3, 1, 0, 979), MassValue(176.5, Unit.GEV), Unit.GEV),
)

_BY_NAME = {row.name: row for row in TABLE}
_NAMES = tuple(row.name for row in TABLE)
# plain tuples of floats, which unpack faster than the NamedTuples; see the module docstring
_COEFFICIENTS = tuple(tuple(map(float, row.composition)) for row in TABLE)
# the rows before u have no quark or lump weight, so they alone need no anchor
_LEPTONS = _COEFFICIENTS[:TABLE.index(_BY_NAME["u"])]
_NO_QUARK_ROWS = (None,) * (len(TABLE) - len(_LEPTONS))
# the rows a sweep prints; the range check reads the tau row too
_MU, _TAU = (TABLE.index(_BY_NAME[name]) for name in ("mu", "tau"))
# (index, name, table mass in MeV) of each row neither given nor massless, as _residuals reads it
_PREDICTED = [(i, row.name, row.table_mass.mev) for i, row in enumerate(TABLE) if not row.note]

# rows eligible to anchor the quark-base solve; the top is excluded because
# its row also contains the lump
ANCHOR_CHOICES = ("u", "d", "s", "c", "b")


def spectrum_row(name: str) -> SpectrumRow:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no spectrum row named {name!r}") from None


def composition(name: str) -> Coefficients:
    return spectrum_row(name).composition


def _calibrated(base: MassValue | None, what: str) -> float:
    if base is None:
        raise UncalibratedBaseError(f"uncalibrated base: {what} has not been calibrated")
    return base.mev


def _rows(weights, me: float, lepton: float, quark: float, lump: float) -> list[float]:
    # the term order is part of the output contract; the module docstring says why no branch
    muon = me + lepton
    return [electrons * me + muons * muon + lump_w * lump + lepton_w * lepton + quark_w * quark
            for electrons, muons, lump_w, lepton_w, quark_w in weights]


def fermion_mass(comp: Coefficients, bases: AuxBaseSet,
                 constants: ModelConstants) -> MassValue:
    """Evaluate one coefficient row against the auxiliary bases."""
    lump = _calibrated(bases.top_lump_8, "the lumped level-8 term") if comp.lump else 0.0
    quark = _calibrated(bases.quark_base_7, "the quark base at level 7") if comp.quark_w else 0.0
    return mev(_rows((comp,), evaluate(constants).electron, bases.lepton_base_7.mev, quark,
                     lump)[0])


def _quark_base(constants: ModelConstants, ev: Evaluation, anchor: str) -> float:
    if anchor not in ANCHOR_CHOICES:
        raise ValueError(f"anchor must be one of {', '.join(ANCHOR_CHOICES)}, got {anchor!r}")
    return _solve(constants, ev, anchor)


def _solve(constants: ModelConstants, ev: Evaluation, name: str, quark: float = 0.0) -> float:
    """Row `name`'s one unknown base in MeV: (table mass - known) / w, which must be > 0.

    The unknown is the lump if the row has one (the top, after the quark base `quark`), else
    the quark base; `known` is the row with the unknown's term at 0.0, and `w` its weight.
    """
    row = _BY_NAME[name]
    weights = row.composition
    known = _rows((weights,), ev.electron, ev.lepton_base, quark, 0.0)[0]
    base = (row.table_mass.mev - known) / (weights.lump or weights.quark_w)
    if base <= 0.0:
        what = ("the solved top lump is not positive" if weights.lump
                else f"anchor row {name!r} gives a non-positive quark base")
        # the table is built in, so only the two constants the solve reads can be at fault
        raise CalibrationError(f"inconsistent calibration: {what} (alpha_e = {constants.alpha_e}, "
                               f"m_electron = {constants.m_electron})", "alpha_e", "m_electron")
    return base


def calibrate_quark_base_7(constants: ModelConstants, anchor: str = "d") -> MassValue:
    """Solve the level-7 quark base exactly from one anchor row.

    The anchor row is linear in the base with integer weight
    quartic_sum(a), so the solve is a single division.
    """
    return mev(_quark_base(constants, evaluate(constants), anchor))


def calibrate_top_lump(constants: ModelConstants, quark_base_7: MassValue) -> MassValue:
    """Solve the top's lumped level-8 contribution from its table row."""
    return mev(_solve(constants, evaluate(constants), "t", quark_base_7.mev))


class Evaluation(NamedTuple):
    """Every number of one constant set as floats, in MeV unless named; rows follow TABLE."""

    ladder_gev: tuple[float, ...]
    electron: float
    lepton_base: float
    quark_base: float | None
    top_lump: float | None
    rows: tuple[float | None, ...]
    alpha_w: float
    sin2_theta_w: float


# `_core`'s last (constants, result), one tuple so that a thread reads a matching pair; a
# sweep's points are evaluated by `_sweep`, column by column, and leave it as it is
_LAST: tuple = (None, None)


def _overflow(what: str, **fields) -> _FieldError:
    """The error of a set whose `what` leaves float range, citing the fields it is read from."""
    values = ", ".join(f"{name} = {value}" for name, value in fields.items())
    return _FieldError(f"constants out of range: {what} overflows a float ({values})", *fields)


def _core(constants: ModelConstants) -> Evaluation:
    """The float core: the uncalibrated `Evaluation` of a set's five fields, kept in `_LAST`.

    ModelConstants rejects a set with it: it raises a `_FieldError` citing the fields concerned
    when the ladder top in MeV (compare's unit for a boson row), the tau row (which bounds every
    lepton row and B6) or alpha_w leaves float range, in that order.
    """
    global _LAST
    alpha_e, m_electron, m_z, theta_w_deg, _ = constants
    me_mev = m_electron.mev
    lepton = 1.5 * me_mev / alpha_e  # L = (3/2) * B6, in MeV
    top = alpha_w = math.inf
    try:
        # B5..B11 in GeV: B5 and B6 from Me, B7 = M_Z, and each level above divides by step
        me_gev, mz_gev, step = _convert(m_electron, _GEV), _convert(m_z, _GEV), alpha_e * alpha_e
        b8 = mz_gev / step
        b9 = b8 / step
        b10 = b9 / step
        ladder = (alpha_e * me_gev, me_gev / alpha_e, mz_gev, b8, b9, b10, b10 / step)
        top = ladder[-1] * 1e3
        theta = math.radians(theta_w_deg)
        alpha_w = math.sqrt(ladder[1] / (ladder[2] * math.cos(theta)))  # from B6 and B7 = M_Z
        sin2_theta_w = math.sin(theta) ** 2
    except ZeroDivisionError:  # alpha_e**2 or m_z * cos(theta_w) underflowed
        pass
    if not math.isfinite(top):
        raise _overflow("the top boson mass m_z / alpha_e**8 in MeV", m_z=m_z, alpha_e=alpha_e)
    rows = tuple(_rows(_LEPTONS, me_mev, lepton, 0.0, 0.0)) + _NO_QUARK_ROWS
    if not math.isfinite(rows[_TAU]):
        raise _overflow("the tau mass m_electron * (1 + 25.5 / alpha_e)",
                        m_electron=m_electron, alpha_e=alpha_e)
    if not math.isfinite(alpha_w):  # as is alpha_w**2, since sqrt keeps finiteness
        raise _overflow("alpha_w**2 = m_electron / (alpha_e * m_z * cos(theta_w))",
                        m_electron=m_electron, alpha_e=alpha_e, m_z=m_z, theta_w_deg=theta_w_deg)
    # tuple.__new__ skips the keyword handling of the NamedTuple's own __new__
    result = tuple.__new__(Evaluation,
                           (ladder, me_mev, lepton, None, None, rows, alpha_w, sin2_theta_w))
    _LAST = (constants, result)
    return result


def evaluate(constants: ModelConstants, anchor: str | None = None) -> Evaluation:
    """Evaluate the whole model once; Q and the lump are solved from `anchor`.

    Without an anchor they and the quark rows are None, so constants the
    table cannot be calibrated with still give the ladder and the leptons.
    The set evaluated last is not evaluated again.
    """
    last, ev = _LAST
    if last is not constants:
        ev = _core(constants)
    if anchor is None:
        return ev
    quark = _quark_base(constants, ev, anchor)
    return _calibrated_ev(ev, ev.lepton_base, quark, _solve(constants, ev, "t", quark))


def _calibrated_ev(ev: Evaluation, lepton: float, quark: float, lump: float) -> Evaluation:
    """`ev` with these three bases, in MeV, and all twelve rows evaluated from them."""
    ladder, me, _, _, _, _, alpha_w, sin2_theta_w = ev
    rows = tuple(_rows(_COEFFICIENTS, me, lepton, quark, lump))
    return tuple.__new__(Evaluation, (ladder, me, lepton, quark, lump, rows, alpha_w, sin2_theta_w))


def _ev_from_bases(ev: Evaluation, bases: AuxBaseSet) -> Evaluation:
    """`_calibrated_ev` of a base set, maybe hand-built; a missing base or inf/NaN row raises."""
    quark = _calibrated(bases.quark_base_7, "the quark base at level 7")
    lump = _calibrated(bases.top_lump_8, "the lumped level-8 term")
    ev = _calibrated_ev(ev, bases.lepton_base_7.mev, quark, lump)
    if not all(map(math.isfinite, ev.rows)):
        name, mass = next(pair for pair in zip(_NAMES, ev.rows) if not math.isfinite(pair[1]))
        raise ValueError(f"row {name!r}: mass magnitude must be finite and >= 0 in MeV, "
                         f"got {mass!r} MeV")
    return ev


def _residuals(rows, anchor: str) -> list[tuple[str, str, float]]:
    """(name, role, relative error) of each row neither given nor massless, in table order."""
    return [(name, "anchor" if name in (anchor, "t") else "held-out",
             abs(rows[i] - table_mass) / table_mass) for i, name, table_mass in _PREDICTED]


class CalibrationResult(NamedTuple):
    bases: AuxBaseSet
    residuals: dict[str, float]
    non_anchor_residuals: dict[str, float]


def calibrate(constants: ModelConstants, anchor: str = "d") -> CalibrationResult:
    """Calibrate both constants, then report how every table row lands.

    `residuals` holds the anchor rows (zero up to rounding);
    `non_anchor_residuals` holds the held-out rows, which is where the
    model's actual predictive claim lives.
    """
    ev = evaluate(constants, anchor)
    rows = _residuals(ev.rows, anchor)
    residuals = {name: err for name, role, err in rows if role == "anchor"}
    held_out = {name: err for name, role, err in rows if role != "anchor"}
    # L, Q and the lump: finite, as _core's tau check bounds what they are solved from, and > 0
    bases = tuple.__new__(AuxBaseSet, [tuple.__new__(MassValue, (m, _MEV)) for m in ev[2:5]])
    return tuple.__new__(CalibrationResult, (bases, residuals, held_out))


def full_spectrum(constants: ModelConstants,
                  bases: AuxBaseSet) -> list[tuple[str, MassValue]]:
    """All twelve rows in table order as (name, mass in MeV); an overflow names its row."""
    rows = _ev_from_bases(evaluate(constants), bases).rows
    return [(name, tuple.__new__(MassValue, (mass, _MEV))) for name, mass in zip(_NAMES, rows)]


# calibration file format: one key=value per line, '#' comments allowed,
# values written with 17 significant digits so a write/read/write round
# trip is byte identical; each key with the unit its value is written and read in
_CAL_UNITS = {"quark_base_7_mev": _MEV, "top_lump_8_gev": _GEV}
_CAL_TEXT = "# calibrated auxiliary bases\n" + "".join(f"{key}=%.17g\n" for key in _CAL_UNITS)


def format_calibration(bases: AuxBaseSet) -> str:
    _, quark, lump = bases
    if quark is None or lump is None:
        raise ValueError("cannot format an AuxBaseSet with missing calibrated bases")
    return _CAL_TEXT % tuple(map(_convert, (quark, lump), _CAL_UNITS.values()))


def load_bases(text: str, constants: ModelConstants) -> AuxBaseSet:
    """The full base set from calibration-file text; bad text raises CalibrationFileError."""
    values = parse_key_values(text, tuple(_CAL_UNITS), CalibrationFileError)
    bases = []
    for key, unit in _CAL_UNITS.items():
        if key not in values:
            raise CalibrationFileError(f"missing key {key!r}")
        if not values[key] > 0.0:
            raise CalibrationFileError(f"{key} must be positive, got {values[key]!r}")
        try:
            bases.append(MassValue(values[key], unit))  # a value no MassValue can hold, such as inf
        except ValueError as exc:
            raise CalibrationFileError(f"{key} is out of range: {exc}") from None
    return AuxBaseSet(lepton_aux_base(constants), *bases)


def _sweep(constants: ModelConstants, field: str, unit: Unit | None, points: list) -> list:
    """The rows (point, muon, tau, B6, B11, alpha_w) of a sweep of `field`, column by column.

    A point is a mass in `unit`, or a float where `unit` is None. Each row is, bit for bit, that
    of `_core` of its point's set. The rows stop before the first point out of its field's own
    range or rejected by `_core`. There are none when alpha_e**2 or m_z * cos(theta_w)
    underflows at some point, which `_core` rejects too; the caller finds the point.
    """
    def each(f, *args):  # `f` at each point: a list holds one value a point, else it is fixed
        if list not in map(type, args):
            return f(*args)
        return [*map(f, *(arg if type(arg) is list else repeat(arg) for arg in args))]

    scale, high = (_TO_MEV[unit] if unit else 1.0), _UPPER.get(field, math.inf)
    n = next((i for i, x in enumerate(points) if not 0.0 < x * scale < high), len(points))
    points, where = points[:n], ModelConstants._fields.index(field)
    swept = [*zip(points, repeat(unit))] if unit else points  # a mass as `_convert` reads it
    alpha, m_electron, m_z, theta_w_deg, _ = (swept if i == where else value
                                              for i, value in enumerate(constants))
    me, mz = each(_convert, m_electron, _MEV), each(_convert, m_z, _GEV)
    lepton, step = each(truediv, each(mul, 1.5, me), alpha), each(mul, alpha, alpha)
    # a lepton row is 1*Me + lepton_w*L, its other terms an exact +0.0 (the module docstring)
    muon, tau = (each(add, me, each(mul, _COEFFICIENTS[row][3], lepton)) for row in (_MU, _TAU))
    b6, b11 = each(truediv, each(_convert, m_electron, _GEV), alpha), mz
    try:
        for _ in range(4):  # B8..B11, as `_core` divides M_Z by alpha_e**2 level by level
            b11 = each(truediv, b11, step)
        cos = each(math.cos, each(math.radians, theta_w_deg))
        columns = [muon, tau, b6, b11, each(math.sqrt, each(truediv, b6, each(mul, mz, cos)))]
    except ZeroDivisionError:
        return []
    muon, tau, b6, b11, alpha_w = (c if type(c) is list else [c] * n for c in columns)
    for column in each(mul, b11, _TO_MEV[_GEV]), tau, alpha_w:  # `_core`'s checks
        n = min(n, next(compress(count(), map(not_, map(math.isfinite, column))), n))
    return [*zip(points[:n], muon, tau, b6, b11, alpha_w)]

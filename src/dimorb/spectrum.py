"""Charged lepton and quark masses as integer combinations of a few numbers.

Once the ladder is known, every row of the fermion table is

    mass = electrons*Me + muons*(Me + L) + lump*top_lump + lepton_w*L + quark_w*Q

added left to right. Me is the electron mass, Me + L the computed muon, and L
and Q the level-7 auxiliary bases of the charged leptons and the quarks, each
weighted by quartic_sum(a) = sum(k**4 for k = 0..a) for the row's auxiliary
index a, so the three generations climb steeply with a.

`_row` has no branch: every value it reads is finite and >= 0 (the constructor,
the range check and `MassValue` see to that; a base of weight 0 is passed as
0.0), so a zero-weight term adds an exact +0.0, as if skipped. It does not use
`sum()`, which compensates its rounding from Python 3.12 on. (A hand-built
`AuxBaseSet` whose lepton base takes Me + L past the float range gives NaN.)

L = (3/2) * B6 is fixed by the ladder itself and never calibrated. Q and
the top's lumped level-8 contribution are the model's only two calibrated
constants: each is solved exactly from one anchor row of the table.

The float core is here too, since its range check reads the tau row: `_core`
computes each set's uncalibrated `Evaluation` when the set is built, and every
public function, here and in `ladder`, reads it through `evaluate`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .quantities import (
    KeyValueError,
    MassValue,
    ModelConstants,
    Unit,
    _convert,
    gev,
    mev,
    parse_key_values,
)

__all__ = [
    "Coefficients",
    "SpectrumRow",
    "TABLE",
    "AuxBaseSet",
    "CalibrationResult",
    "UncalibratedBaseError",
    "CalibrationError",
    "CalibrationFileError",
    "lepton_aux_base",
    "fermion_mass",
    "calibrate_quark_base_7",
    "calibrate_top_lump",
    "calibrate",
    "full_spectrum",
    "format_calibration",
    "parse_calibration",
    "load_bases",
    "composition",
    "spectrum_row",
    "ANCHOR_CHOICES",
]


class UncalibratedBaseError(ValueError):
    """A row needs an auxiliary base that has not been provided."""


class CalibrationError(ValueError):
    """An anchor row produced an unusable calibrated constant."""


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
# plain tuples, which unpack faster than the NamedTuples
_COEFFICIENTS = tuple(tuple(row.composition) for row in TABLE)
_TAU = TABLE.index(_BY_NAME["tau"])

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


def _row(comp: tuple[int, ...], me: float, lepton: float, quark: float, lump: float) -> float:
    # the term order is part of the output contract; the module docstring says why no branch
    electrons, muons, lump_w, lepton_w, quark_w = comp
    return (electrons * me + muons * (me + lepton) + lump_w * lump + lepton_w * lepton
            + quark_w * quark)


def fermion_mass(comp: Coefficients, bases: AuxBaseSet,
                 constants: ModelConstants) -> MassValue:
    """Evaluate one coefficient row against the auxiliary bases."""
    lump = _calibrated(bases.top_lump_8, "the lumped level-8 term") if comp.lump else 0.0
    quark = _calibrated(bases.quark_base_7, "the quark base at level 7") if comp.quark_w else 0.0
    return mev(_row(comp, evaluate(constants).electron, bases.lepton_base_7.mev, quark, lump))


def _inconsistent(what: str, constants: ModelConstants) -> CalibrationError:
    # the table is built in, so only the two constants the solves read can be at fault
    return CalibrationError(f"inconsistent calibration: {what} (alpha_e = {constants.alpha_e}, "
                            f"m_electron = {constants.m_electron})")


def calibrate_quark_base_7(constants: ModelConstants, anchor: str = "d") -> MassValue:
    """Solve the level-7 quark base exactly from one anchor row.

    The anchor row is linear in the base with integer weight
    quartic_sum(a), so the solve is a single division.
    """
    if anchor not in ANCHOR_CHOICES:
        raise ValueError(f"anchor must be one of {', '.join(ANCHOR_CHOICES)}, got {anchor!r}")
    row = _BY_NAME[anchor]
    ev = evaluate(constants)
    # 0.0 for the unknown base, so its term adds nothing
    fixed = _row(row.composition, ev.electron, ev.lepton_base, 0.0, 0.0)
    base = (row.table_mass.mev - fixed) / row.composition.quark_w
    if base <= 0.0:
        raise _inconsistent(f"anchor row {anchor!r} gives a non-positive quark base", constants)
    return mev(base)


def calibrate_top_lump(constants: ModelConstants, quark_base_7: MassValue) -> MassValue:
    """Solve the top's lumped level-8 contribution from its table row."""
    row, ev = _BY_NAME["t"], evaluate(constants)
    lump = row.table_mass.mev - _row(row.composition, ev.electron, ev.lepton_base,
                                     quark_base_7.mev, 0.0)
    if lump <= 0.0:
        raise _inconsistent("the solved top lump is not positive", constants)
    return mev(lump)


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


def _ladder_gev(alpha_e: float, me_gev: float, mz_gev: float) -> tuple[float, ...]:
    """The seven ladder masses B5..B11 in GeV, from the three anchors."""
    step = alpha_e * alpha_e  # each level above B7 divides by it once
    b8 = mz_gev / step
    b9 = b8 / step
    b10 = b9 / step
    return (alpha_e * me_gev, me_gev / alpha_e, mz_gev, b8, b9, b10, b10 / step)


# `_core`'s last (constants, result), one tuple so that a thread reads a matching pair
_LAST: tuple = (None, None)


def _out_of_range(what: str, **named) -> ValueError:
    values = ", ".join(f"{key} = {value}" for key, value in named.items())
    return ValueError(f"constants out of range: {what} overflows a float ({values})")


def _core(constants: ModelConstants) -> Evaluation:
    """The uncalibrated `Evaluation`; ModelConstants rejects a set with it.

    A set fails, naming its constants, when the ladder top in MeV (compare's unit for a
    boson row), the tau row (which bounds every lepton row and B6) or alpha_w leaves float range.
    """
    global _LAST
    alpha_e, m_electron, m_z, theta_w_deg = constants[:4]
    me = m_electron.mev
    lepton = 1.5 * me / alpha_e  # L = (3/2) * B6, in MeV
    top = alpha_w = math.inf
    try:
        ladder = _ladder_gev(alpha_e, _convert(m_electron, Unit.GEV), _convert(m_z, Unit.GEV))
        top = ladder[-1] * 1e3
        theta = math.radians(theta_w_deg)
        alpha_w = math.sqrt(ladder[1] / (ladder[2] * math.cos(theta)))  # from B6 and B7 = M_Z
        sin2_theta_w = math.sin(theta) ** 2
    except ZeroDivisionError:  # alpha_e**2 or m_z * cos(theta_w) underflowed
        pass
    if not math.isfinite(top):
        raise _out_of_range("the top boson mass m_z / alpha_e**8 in MeV",
                            m_z=m_z, alpha_e=alpha_e)
    # a row with a lump or a quark weight (comp[2], comp[4]) needs an anchor
    rows = tuple([None if comp[2] or comp[4] else _row(comp, me, lepton, 0.0, 0.0)
                  for comp in _COEFFICIENTS])
    if not math.isfinite(rows[_TAU]):
        raise _out_of_range("the tau mass m_electron * (1 + 25.5 / alpha_e)",
                            m_electron=m_electron, alpha_e=alpha_e)
    if not math.isfinite(alpha_w):  # as is alpha_w**2, since sqrt keeps finiteness
        raise _out_of_range("alpha_w**2 = m_electron / (alpha_e * m_z * cos(theta_w))",
                            m_electron=m_electron, alpha_e=alpha_e, m_z=m_z,
                            theta_w_deg=theta_w_deg)
    result = Evaluation(ladder, me, lepton, None, None, rows, alpha_w, sin2_theta_w)
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
    quark_base = calibrate_quark_base_7(constants, anchor)
    quark, lump = quark_base.mev, calibrate_top_lump(constants, quark_base).mev
    rows = tuple([_row(comp, ev.electron, ev.lepton_base, quark, lump) if mass is None else mass
                  for comp, mass in zip(_COEFFICIENTS, ev.rows)])
    return ev._replace(quark_base=quark, top_lump=lump, rows=rows)


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
    residuals: dict[str, float] = {}
    held_out: dict[str, float] = {}
    for row, computed in zip(TABLE, ev.rows):
        table_mass = row.table_mass.mev
        if table_mass == 0.0 or row.note == "given":
            continue
        err = abs(computed - table_mass) / table_mass  # relative_error, as table masses are > 0
        (residuals if row.name in (anchor, "t") else held_out)[row.name] = err
    bases = AuxBaseSet(mev(ev.lepton_base), mev(ev.quark_base), mev(ev.top_lump))
    return CalibrationResult(bases, residuals, held_out)


def full_spectrum(constants: ModelConstants,
                  bases: AuxBaseSet) -> list[tuple[str, MassValue]]:
    """All twelve rows in table order as (name, mass in MeV); an overflow names its row."""
    quark = _calibrated(bases.quark_base_7, "the quark base at level 7")
    lump = _calibrated(bases.top_lump_8, "the lumped level-8 term")
    me, lepton = evaluate(constants).electron, bases.lepton_base_7.mev
    spectrum = []
    for row, comp in zip(TABLE, _COEFFICIENTS):
        try:
            spectrum.append((row.name, mev(_row(comp, me, lepton, quark, lump))))
        except ValueError as exc:
            raise ValueError(f"row {row.name!r}: {exc}") from None
    return spectrum


# calibration file format: one key=value per line, '#' comments allowed,
# values written with 17 significant digits so a write/read/write round
# trip is byte identical
_CAL_QUARK_KEY = "quark_base_7_mev"
_CAL_LUMP_KEY = "top_lump_8_gev"
_CAL_KEYS = (_CAL_QUARK_KEY, _CAL_LUMP_KEY)


def format_calibration(bases: AuxBaseSet) -> str:
    if bases.quark_base_7 is None or bases.top_lump_8 is None:
        raise ValueError("cannot format an AuxBaseSet with missing calibrated bases")
    return (
        "# calibrated auxiliary bases\n"
        f"{_CAL_QUARK_KEY}={bases.quark_base_7.mev:.17g}\n"
        f"{_CAL_LUMP_KEY}={bases.top_lump_8.to(Unit.GEV).magnitude:.17g}\n"
    )


def parse_calibration(text: str) -> dict[str, float]:
    values = parse_key_values(text, _CAL_KEYS, CalibrationFileError)
    for key, mass in ((_CAL_QUARK_KEY, mev), (_CAL_LUMP_KEY, gev)):
        if key not in values:
            raise CalibrationFileError(f"missing key {key!r}")
        if not values[key] > 0.0:
            raise CalibrationFileError(f"{key} must be positive, got {values[key]!r}")
        try:
            mass(values[key])  # a value no MassValue can hold, such as inf
        except ValueError as exc:
            raise CalibrationFileError(f"{key} is out of range: {exc}") from None
    return values


def load_bases(text: str, constants: ModelConstants) -> AuxBaseSet:
    """Rebuild the full base set from calibration-file text."""
    values = parse_calibration(text)
    return AuxBaseSet(
        lepton_base_7=lepton_aux_base(constants),
        quark_base_7=mev(values[_CAL_QUARK_KEY]),
        top_lump_8=gev(values[_CAL_LUMP_KEY]),
    )

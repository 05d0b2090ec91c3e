"""Computed-versus-observed agreement reports.

Observed values arrive as CSV with the exact header
`name,value,unit,uncertainty,source`; `#` lines and blank lines are
ignored, `uncertainty` and `source` may be empty, and `unit` is one of
MeV, GeV, dimensionless, degree, where a mass (MeV or GeV) must not be
negative. Computed claims are matched to observed rows by name, converted
to the observed row's unit, and reported with a relative error (and a
within-uncertainty verdict when an uncertainty was given).

One wrinkle is deliberate: a claim the model states only to a few
significant figures carries that precision with it, and the comparison
rounds the computed value to the stated figures first. Currently that
applies to the gravity-level mass alone, which the boson table states at
two significant figures.
"""

from __future__ import annotations

import csv
import math
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .ladder import BosonLadder, ElectroweakMix
from .quantities import MassValue, Unit, _convert, format_rows, round_to_sig

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ObservedUnit",
    "ObservedRecord",
    "ObservedFormatError",
    "ComputedClaim",
    "ComparisonRow",
    "ComparisonReport",
    "baryon_fractions",
    "BARYON_SPLIT",
    "parse_observed",
    "format_observed_csv",
    "default_observed",
    "computed_claims",
    "compare_all",
    "render",
    "round_to_sig",
    "OBSERVED_HEADER",
]

OBSERVED_HEADER = "name,value,unit,uncertainty,source"

RENDER_FORMATS = ("markdown", "csv", "json")
_REPORT_COLUMNS = ("name", "computed", "observed", "unit", "rel_error", "within_uncertainty")

# the ladder states its top entry at two significant figures
_PLANCK_CLAIM_SIGFIGS = 2


class ObservedUnit(Enum):
    MEV = "MeV"
    GEV = "GeV"
    DIMENSIONLESS = "dimensionless"
    DEGREE = "degree"

    # by identity, as Unit hashes, so `unit in _MASS_UNITS` stays in C
    __hash__ = object.__hash__


_MASS_UNITS = {ObservedUnit.MEV: Unit.MEV, ObservedUnit.GEV: Unit.GEV}


def _unit_kind(unit: ObservedUnit) -> str:
    return "mass" if unit in _MASS_UNITS else unit.value


class ObservedFormatError(ValueError):
    """Malformed observed CSV; carries the offending line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class _ObservedFields(NamedTuple):
    name: str
    value: float
    unit: ObservedUnit
    uncertainty: float | None
    source: str


class ObservedRecord(_ObservedFields):
    __slots__ = ()

    def __new__(cls, name: str, value: float, unit: ObservedUnit,
                uncertainty: float | None = None, source: str = "") -> "ObservedRecord":
        if not name:
            raise ValueError("observed record needs a name")
        if not math.isfinite(value):
            raise ValueError(f"observed value must be finite, got {value!r}")
        if not isinstance(unit, ObservedUnit):
            raise ValueError(f"unknown observed unit: {unit!r}")
        if value < 0.0 and unit in _MASS_UNITS:
            raise ValueError(f"observed mass must be >= 0, got {value!r} {unit.value}")
        if uncertainty is not None:
            if not math.isfinite(uncertainty) or uncertainty < 0.0:
                raise ValueError(f"uncertainty must be finite and >= 0, got {uncertainty!r}")
        return tuple.__new__(cls, (name, value, unit, uncertainty, source))


class ComputedClaim(NamedTuple):
    name: str
    value: float
    unit: ObservedUnit
    printed_sigfigs: int | None = None


class ComparisonRow(NamedTuple):
    name: str
    computed: float          # expressed in the observed row's unit
    observed: float
    unit: ObservedUnit
    rel_error: float
    within_uncertainty: bool | None = None


class ComparisonReport(NamedTuple):
    rows: tuple[ComparisonRow, ...]
    skipped_computed: tuple[str, ...]
    skipped_observed: tuple[str, ...]


# one of the seven orbital sets carries the baryonic matter
_ORBITAL_SETS = 7
_BARYONIC_SETS = 1

# the split as floats, for callers that need no exact value; each is one
# correctly rounded division, so it equals float() of baryon_fractions()
BARYON_SPLIT = (_BARYONIC_SETS / _ORBITAL_SETS,
                (_ORBITAL_SETS - _BARYONIC_SETS) / _ORBITAL_SETS)


def baryon_fractions() -> tuple[Fraction, Fraction]:
    """Baryonic and dark fractions of the mass budget, exactly.

    One of the seven orbital sets carries the baryonic matter, so the
    split is 1/7 against 6/7 and the two sum to exactly 1.
    """
    from fractions import Fraction  # only this function needs it; it is slow to import
    return (Fraction(_BARYONIC_SETS, _ORBITAL_SETS),
            Fraction(_ORBITAL_SETS - _BARYONIC_SETS, _ORBITAL_SETS))


def parse_observed(text: str) -> list[ObservedRecord]:
    """Parse observed CSV text; empty input parses to an empty list."""
    records: list[ObservedRecord] = []
    seen: set[str] = set()
    header_done = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_done:
            if stripped != OBSERVED_HEADER:
                raise ObservedFormatError(
                    lineno, 1, f"expected header {OBSERVED_HEADER!r}, got {stripped!r}"
                )
            header_done = True
            continue
        try:
            fields = next(csv.reader([raw]))
        except csv.Error as exc:  # a field over csv.field_size_limit(), or NUL before 3.11
            raise ObservedFormatError(lineno, 1, str(exc)) from None
        if len(fields) != 5:
            raise ObservedFormatError(
                lineno, len(fields), f"expected 5 fields, got {len(fields)}"
            )
        name = fields[0].strip()
        if not name:
            raise ObservedFormatError(lineno, 1, "empty name")
        if name in seen:
            raise ObservedFormatError(lineno, 1, f"duplicate name {name!r}")
        try:
            value = float(fields[1])
        except ValueError:
            raise ObservedFormatError(
                lineno, 2, f"value is not a number: {fields[1]!r}"
            ) from None
        unit_text = fields[2].strip()
        try:
            unit = ObservedUnit(unit_text)
        except ValueError:
            choices = ", ".join(u.value for u in ObservedUnit)
            raise ObservedFormatError(
                lineno, 3, f"unknown unit {unit_text!r} (expected one of: {choices})"
            ) from None
        unc_text = fields[3].strip()
        uncertainty = None
        if unc_text:
            try:
                uncertainty = float(unc_text)
            except ValueError:
                raise ObservedFormatError(
                    lineno, 4, f"uncertainty is not a number: {unc_text!r}"
                ) from None
        try:
            record = ObservedRecord(name, value, unit, uncertainty, fields[4].strip())
        except ValueError as exc:
            # name and unit are checked above, so only the value (column 2,
            # checked first) or the uncertainty (column 4) can be at fault
            bad_value = not math.isfinite(value) or (value < 0.0 and unit in _MASS_UNITS)
            column = 2 if bad_value else 4
            raise ObservedFormatError(lineno, column, str(exc)) from None
        seen.add(name)
        records.append(record)
    return records


def format_observed_csv(records: Iterable[ObservedRecord]) -> str:
    """Canonical observed CSV; parse(format(parse(x))) is byte stable."""
    rows = [(record.name, repr(record.value), record.unit.value,
             "" if record.uncertainty is None else repr(record.uncertainty), record.source)
            for record in records]
    return format_rows("csv", OBSERVED_HEADER.split(","), rows, 1)


def default_observed() -> list[ObservedRecord]:
    """The four reference values the model is usually held against."""
    return [
        ObservedRecord("top_quark", 176.0, ObservedUnit.GEV, 13.0, "collider top search"),
        ObservedRecord("theta_w", 28.7, ObservedUnit.DEGREE, None, "electroweak fit"),
        ObservedRecord("baryon_fraction", 0.13, ObservedUnit.DIMENSIONLESS, None,
                       "primordial deuterium abundance"),
        ObservedRecord("planck_mass", 1.2e19, ObservedUnit.GEV, None, "reference scale"),
    ]


# composition-table symbol -> comparison claim name, where the two differ
_SPECTRUM_CLAIM_NAMES = {
    "mu": "muon", "u": "u_quark", "d": "d_quark", "s": "s_quark", "c": "c_quark",
    "b": "b_quark", "t": "top_quark",
}


def computed_claims(
    spectrum: Sequence[tuple[str, MassValue]],
    ladder: BosonLadder,
    mix: ElectroweakMix,
    fractions: tuple[Fraction | float, Fraction | float],
) -> list[ComputedClaim]:
    """Everything the model claims, keyed by stable comparison names."""
    claims = [
        ComputedClaim(f"boson_{int(row.orbital)}", _convert(row.mass, Unit.GEV),
                      ObservedUnit.GEV)
        for row in ladder
    ]
    claims.append(ComputedClaim(
        "planck_mass", _convert(ladder.mass(11), Unit.GEV),
        ObservedUnit.GEV, printed_sigfigs=_PLANCK_CLAIM_SIGFIGS,
    ))
    claims.append(ComputedClaim("theta_w", mix.theta_w_deg, ObservedUnit.DEGREE))
    claims.append(ComputedClaim("alpha_w", mix.alpha_w, ObservedUnit.DIMENSIONLESS))
    claims.append(ComputedClaim("sin2_theta_w", mix.sin2_theta_w, ObservedUnit.DIMENSIONLESS))
    baryonic, dark = fractions
    claims.append(ComputedClaim("baryon_fraction", float(baryonic), ObservedUnit.DIMENSIONLESS))
    claims.append(ComputedClaim("dark_fraction", float(dark), ObservedUnit.DIMENSIONLESS))
    for name, mass in spectrum:
        claim_name = _SPECTRUM_CLAIM_NAMES.get(name, name)
        if name == "t":
            claims.append(ComputedClaim(claim_name, _convert(mass, Unit.GEV),
                                        ObservedUnit.GEV))
        else:
            claims.append(ComputedClaim(claim_name, mass.mev, ObservedUnit.MEV))
    return claims


def compare_all(
    spectrum: Sequence[tuple[str, MassValue]],
    ladder: BosonLadder,
    mix: ElectroweakMix,
    fractions: tuple[Fraction | float, Fraction | float],
    observed: Sequence[ObservedRecord],
) -> ComparisonReport:
    """Match claims to observed rows by name, in observed input order."""
    claims = computed_claims(spectrum, ladder, mix, fractions)
    by_name = {claim.name: claim for claim in claims}
    rows: list[ComparisonRow] = []
    matched: set[str] = set()
    skipped_observed: list[str] = []
    for record in observed:
        claim = by_name.get(record.name)
        if claim is None:
            skipped_observed.append(record.name)
            continue
        if _unit_kind(claim.unit) != _unit_kind(record.unit):
            raise ValueError(
                f"unit kind mismatch for {record.name!r}: computed in {claim.unit.value}, "
                f"observed in {record.unit.value}"
            )
        computed = claim.value
        if claim.unit in _MASS_UNITS:
            computed = _convert((computed, _MASS_UNITS[claim.unit]), _MASS_UNITS[record.unit])
        if claim.printed_sigfigs is not None:
            computed = round_to_sig(computed, claim.printed_sigfigs)
        if computed == 0.0 and record.value == 0.0:
            rel = 0.0
        elif record.value == 0.0:
            raise ValueError(
                f"undefined relative error for {record.name!r}: observed value is zero"
            )
        else:
            rel = abs(computed - record.value) / abs(record.value)
            if not math.isfinite(rel):
                raise ValueError(f"relative error for {record.name!r} overflows a float: "
                                 f"computed {computed!r}, observed {record.value!r}")
        within = None
        if record.uncertainty is not None:
            within = abs(computed - record.value) <= record.uncertainty
        rows.append(ComparisonRow(record.name, computed, record.value,
                                  record.unit, rel, within))
        matched.add(record.name)
    skipped_computed = tuple(c.name for c in claims if c.name not in matched)
    return ComparisonReport(tuple(rows), skipped_computed, tuple(skipped_observed))


def render(report: ComparisonReport, fmt: str = "markdown", sig: int = 6) -> str:
    """Render a comparison report as markdown, csv, or json text.

    Numbers are shown with `sig` significant digits (default 6). Markdown
    and csv also list the skipped names; json is a pure array of rows.
    """
    if fmt not in RENDER_FORMATS:
        raise ValueError(f"format must be one of {', '.join(RENDER_FORMATS)}, got {fmt!r}")
    if sig < 1:
        raise ValueError(f"need at least one significant digit, got {sig!r}")
    # a None cell is left out of a json row, so json rows carry no unit
    is_json = fmt == "json"
    rows = [(row.name, row.computed, row.observed, None if is_json else row.unit.value,
             row.rel_error, row.within_uncertainty) for row in report.rows]
    text = format_rows(fmt, _REPORT_COLUMNS, rows, sig)
    only_computed = ", ".join(report.skipped_computed)
    only_observed = ", ".join(report.skipped_observed)
    if fmt == "csv":
        if only_computed:
            text += f"# skipped computed: {only_computed}\n"
        if only_observed:
            text += f"# skipped observed: {only_observed}\n"
    elif not is_json and (only_computed or only_observed):
        text += "\nSkipped (no matching name):\n"
        if only_computed:
            text += f"- computed only: {only_computed}\n"
        if only_observed:
            text += f"- observed only: {only_observed}\n"
    return text

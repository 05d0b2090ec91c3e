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
from .quantities import (MassValue, Unit, _Checked, _convert, _LocatedError, format_rows,
                         round_to_sig)

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
_UNITS_BY_TEXT = {unit.value: unit for unit in ObservedUnit}


class ObservedFormatError(_LocatedError):
    """Malformed observed CSV, at the offending line and column."""


class _ObservedFields(NamedTuple):
    name: str
    value: float
    unit: ObservedUnit
    uncertainty: float | None
    source: str


class ObservedRecord(_Checked, _ObservedFields):
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
                    f"expected header {OBSERVED_HEADER!r}, got {stripped!r}", lineno, 1
                )
            header_done = True
            continue
        try:
            fields = next(csv.reader([raw]))
        except csv.Error as exc:  # a field over csv.field_size_limit(), or NUL before 3.11
            raise ObservedFormatError(str(exc), lineno, 1) from None
        if len(fields) != 5:
            raise ObservedFormatError(
                f"expected 5 fields, got {len(fields)}", lineno, len(fields)
            )
        name = fields[0].strip()
        if not name:
            raise ObservedFormatError("empty name", lineno, 1)
        if name in seen:
            raise ObservedFormatError(f"duplicate name {name!r}", lineno, 1)
        try:
            value = float(fields[1])
        except ValueError:
            raise ObservedFormatError(
                f"value is not a number: {fields[1]!r}", lineno, 2
            ) from None
        unit_text = fields[2].strip()
        unit = _UNITS_BY_TEXT.get(unit_text)
        if unit is None:
            raise ObservedFormatError(f"unknown unit {unit_text!r} "
                                      f"(expected one of: {', '.join(_UNITS_BY_TEXT)})", lineno, 3)
        unc_text = fields[3].strip()
        uncertainty = None
        if unc_text:
            try:
                uncertainty = float(unc_text)
            except ValueError:
                raise ObservedFormatError(
                    f"uncertainty is not a number: {unc_text!r}", lineno, 4
                ) from None
        try:
            record = ObservedRecord(name, value, unit, uncertainty, fields[4].strip())
        except ValueError as exc:
            # name and unit are checked above, so only the value (column 2,
            # checked first) or the uncertainty (column 4) can be at fault
            bad_value = not math.isfinite(value) or (value < 0.0 and unit in _MASS_UNITS)
            column = 2 if bad_value else 4
            raise ObservedFormatError(str(exc), lineno, column) from None
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


# the ladder's claim names, bottom to top
_BOSON_CLAIM_NAMES = tuple(f"boson_{d}" for d in range(5, 12))

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
    return [ComputedClaim._make(claim) for claim in _claims(spectrum, ladder, mix, fractions)]


def _claims(spectrum, ladder, mix, fractions) -> list[tuple]:
    # computed_claims as (name, value, unit, printed_sigfigs) tuples, for compare_all
    gev, dimensionless = ObservedUnit.GEV, ObservedUnit.DIMENSIONLESS
    baryonic, dark = fractions
    claims = [(name, _convert(row.mass, Unit.GEV), gev, None)
              for name, row in zip(_BOSON_CLAIM_NAMES, ladder)]
    claims += [("planck_mass", _convert(ladder[-1].mass, Unit.GEV), gev, _PLANCK_CLAIM_SIGFIGS),
               ("theta_w", mix.theta_w_deg, ObservedUnit.DEGREE, None),
               ("alpha_w", mix.alpha_w, dimensionless, None),
               ("sin2_theta_w", mix.sin2_theta_w, dimensionless, None),
               ("baryon_fraction", float(baryonic), dimensionless, None),
               ("dark_fraction", float(dark), dimensionless, None)]
    for name, mass in spectrum:
        claim_name = _SPECTRUM_CLAIM_NAMES.get(name, name)
        if name == "t":
            claims.append((claim_name, _convert(mass, Unit.GEV), gev, None))
        else:
            claims.append((claim_name, mass.mev, ObservedUnit.MEV, None))
    return claims


def compare_all(
    spectrum: Sequence[tuple[str, MassValue]],
    ladder: BosonLadder,
    mix: ElectroweakMix,
    fractions: tuple[Fraction | float, Fraction | float],
    observed: Sequence[ObservedRecord],
) -> ComparisonReport:
    """Match claims to observed rows by name, in observed input order."""
    claims = _claims(spectrum, ladder, mix, fractions)
    by_name = {claim[0]: claim for claim in claims}
    rows: list[ComparisonRow] = []
    matched: set[str] = set()
    skipped_observed: list[str] = []
    for record in observed:
        claim = by_name.get(record.name)
        if claim is None:
            skipped_observed.append(record.name)
            continue
        _, computed, unit, printed_sigfigs = claim
        if unit is not record.unit:
            # only the two mass units convert into each other
            if unit not in _MASS_UNITS or record.unit not in _MASS_UNITS:
                raise ValueError(
                    f"unit kind mismatch for {record.name!r}: computed in {unit.value}, "
                    f"observed in {record.unit.value}"
                )
            computed = _convert((computed, _MASS_UNITS[unit]), _MASS_UNITS[record.unit])
        if printed_sigfigs is not None:
            computed = round_to_sig(computed, printed_sigfigs)
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
    skipped_computed = tuple(claim[0] for claim in claims if claim[0] not in matched)
    return ComparisonReport(tuple(rows), skipped_computed, tuple(skipped_observed))


def render(report: ComparisonReport, fmt: str = "markdown", sig: int = 6) -> str:
    """Render a comparison report as markdown, csv, or json text.

    Numbers are shown with `sig` significant digits (default 6). Markdown
    and csv also list the skipped names; json is a pure array of rows.
    """
    if fmt not in RENDER_FORMATS:
        raise ValueError(f"format must be one of {', '.join(RENDER_FORMATS)}, got {fmt!r}")
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

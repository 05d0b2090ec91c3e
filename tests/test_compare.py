import csv
import json
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimorb import compare
from dimorb.compare import (
    BARYON_SPLIT,
    OBSERVED_HEADER,
    ComparisonReport,
    ComparisonRow,
    ObservedFormatError,
    ObservedRecord,
    ObservedUnit,
    baryon_fractions,
    compare_all,
    computed_claims,
    default_observed,
    format_observed_csv,
    parse_observed,
    render,
)
from dimorb.ladder import boson_ladder, electroweak_mix
from dimorb.quantities import _TO_MEV, ModelConstants, mev, round_to_sig
from dimorb.spectrum import ANCHOR_CHOICES, TABLE, calibrate, full_spectrum

C = ModelConstants()


def _report(observed):
    bases = calibrate(C).bases
    return compare_all(
        full_spectrum(C, bases),
        boson_ladder(C),
        electroweak_mix(C),
        baryon_fractions(),
        observed,
    )


def test_baryon_fractions_are_exact():
    baryonic, dark = baryon_fractions()
    assert baryonic == Fraction(1, 7)
    assert dark == Fraction(6, 7)
    assert baryonic + dark == 1
    # the float split the command line uses is bit-identical to the exact one
    assert BARYON_SPLIT == (float(baryonic), float(dark))


def test_observed_unit_members_hash_by_identity():
    assert ObservedUnit("degree") is ObservedUnit.DEGREE
    by_unit = {unit: unit.value for unit in ObservedUnit}
    assert by_unit[ObservedUnit("dimensionless")] == "dimensionless"
    assert ObservedUnit("GeV") in {ObservedUnit.GEV: None}
    for unit in ObservedUnit:
        assert pickle.loads(pickle.dumps(unit)) is unit
        assert by_unit[pickle.loads(pickle.dumps(unit))] == unit.value
    record = ObservedRecord("muon", 105.6, ObservedUnit("MeV"))
    assert pickle.loads(pickle.dumps(record)) == record


def test_round_to_sig():
    assert round_to_sig(1.1338684260539054e19, 2) == 1.1e19
    assert round_to_sig(91.177, 5) == 91.177
    assert round_to_sig(0.0, 3) == 0.0
    assert round_to_sig(105.5488867, 6) == 105.549
    with pytest.raises(ValueError):
        round_to_sig(1.0, 0)


def test_parse_observed_basic():
    text = (
        "name,value,unit,uncertainty,source\n"
        "# reference values\n"
        "top_quark,176,GeV,13,collider\n"
        "theta_w,28.7,degree,,fit\n"
        "\n"
    )
    records = parse_observed(text)
    assert records == [
        ObservedRecord("top_quark", 176.0, ObservedUnit.GEV, 13.0, "collider"),
        ObservedRecord("theta_w", 28.7, ObservedUnit.DEGREE, None, "fit"),
    ]


def test_parse_observed_empty_inputs():
    assert parse_observed("") == []
    assert parse_observed("# nothing here\n\n") == []
    assert parse_observed(OBSERVED_HEADER + "\n") == []


@pytest.mark.parametrize(
    "body, line, column",
    [
        ("muon,105.6\n", 2, 2),                       # too few fields
        ("muon,abc,MeV,,x\n", 2, 2),                  # value not numeric
        ("muon,105.6,parsec,,x\n", 2, 3),             # unknown unit
        ("muon,105.6,MeV,abc,x\n", 2, 4),             # uncertainty not numeric
        ("muon,105.6,MeV,-1,x\n", 2, 4),              # negative uncertainty
        ("muon,105.6,MeV,inf,x\n", 2, 4),             # non-finite uncertainty
        ("muon,nan,MeV,,\n", 2, 2),                   # non-finite value
        ("muon,-inf,MeV,,x\n", 2, 2),                 # non-finite value
        ("muon,-105.6,MeV,300,x\n", 2, 2),            # negative mass
        ("muon,0,MeV,-1,x\n", 2, 4),                  # a zero mass is fine, its uncertainty not
        ("muon,105.6,mev,,x\n", 2, 3),                # unit is case sensitive
        (",105.6,MeV,,x\n", 2, 1),                    # empty name
        ("muon,1,MeV,,x\nmuon,2,MeV,,y\n", 3, 1),     # duplicate name
        # a csv.Error, which is no ValueError, is reported at column 1
        pytest.param(f"muon,{'1' * (csv.field_size_limit() + 1)},MeV,,x\n", 2, 1,
                     id="field-over-csv-limit"),
    ],
)
def test_parse_observed_reports_line_and_column(body, line, column):
    text = OBSERVED_HEADER + "\n" + body
    with pytest.raises(ObservedFormatError) as exc_info:
        parse_observed(text)
    assert exc_info.value.line == line
    assert exc_info.value.column == column
    assert f"line {line}" in str(exc_info.value)


@pytest.mark.parametrize("kwargs, message", [
    ({"value": 10**400}, f"observed value must be finite, got {10**400!r}"),
    ({"value": -10**400}, f"observed value must be finite, got {-10**400!r}"),
    ({"uncertainty": 10**400}, f"uncertainty must be finite and >= 0, got {10**400!r}"),
], ids=["huge-value", "huge-negative-value", "huge-uncertainty"])
def test_a_huge_int_observed_number_gets_its_message(kwargs, message):
    # no float holds it, so it is not finite rather than an OverflowError
    with pytest.raises(ValueError) as info:
        ObservedRecord(**{"name": "x", "value": 1.0, "unit": ObservedUnit.GEV, **kwargs})
    assert str(info.value) == message


def _outcome(parse, text):
    try:
        return parse(text)
    except (ObservedFormatError, csv.Error) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _reader_split(raw, limit):
    return next(csv.reader([raw]))


# quoted commas, doubled and unterminated quotes, NUL, spaces and the line breaks
# that `splitlines` cuts at but csv does not
_PIECES = st.sampled_from(["muon", "105.6", "MeV", "1.5", "x", "", ",", '"', '""', '"a,b"', "\0",
                           " ", "\x0b", "\x1c", "\u2028", "-1", "nan", "1" * 9, "GeV"])
_LINES = st.one_of(st.lists(_PIECES, max_size=12).map("".join),
                   st.lists(st.lists(_PIECES, max_size=3).map("".join),
                            min_size=5, max_size=5).map(",".join))


@given(lines=st.lists(_LINES, min_size=1, max_size=4),
       limit=st.sampled_from([4, 8, 16, 131072]))
@settings(max_examples=400)
def test_parse_observed_reads_each_line_as_csv_reader_does(lines, limit):
    # a small field limit puts over-long fields within reach
    text = OBSERVED_HEADER + "\n" + "\n".join(lines) + "\n"
    saved = csv.field_size_limit(limit)
    try:
        for raw in filter(None, text.splitlines()):  # parse_observed skips empty lines
            assert (_outcome(lambda raw: compare._split(raw, limit), raw)
                    == _outcome(lambda raw: _reader_split(raw, limit), raw)), raw
        outcome = _outcome(parse_observed, text)
        with mock.patch.object(compare, "_split", _reader_split):
            assert _outcome(parse_observed, text) == outcome
    finally:
        csv.field_size_limit(saved)


def test_parse_observed_requires_header():
    with pytest.raises(ObservedFormatError, match="expected header") as info:
        parse_observed("# observed\n\nmuon,105.6,MeV,,x\n")
    assert (info.value.line, info.value.column) == (3, 1)
    assert str(info.value).startswith("line 3, column 1: ")


def test_observed_csv_write_read_write_is_stable():
    text = format_observed_csv(default_observed())
    records = parse_observed(text)
    assert records == default_observed()
    assert format_observed_csv(records) == text


_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_,"


def _record(name, value, unit, uncertainty, source):
    # a mass is never negative; dimensionless and degree rows keep their sign
    if unit in (ObservedUnit.MEV, ObservedUnit.GEV):
        value = abs(value)
    return ObservedRecord(name, value, unit, uncertainty, source)


@given(
    records=st.lists(
        st.builds(
            _record,
            name=st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=12),
            value=st.floats(min_value=-1e12, max_value=1e12),
            unit=st.sampled_from(list(ObservedUnit)),
            uncertainty=st.one_of(
                st.none(), st.floats(min_value=0.0, max_value=1e12)
            ),
            source=st.text(alphabet=_NAME_ALPHABET, max_size=12),
        ),
        max_size=8,
        unique_by=lambda r: r.name,
    )
)
@settings(max_examples=150)
def test_observed_csv_round_trips_any_records(records):
    text = format_observed_csv(records)
    parsed = parse_observed(text)
    assert parsed == records
    assert format_observed_csv(parsed) == text


def test_compare_against_default_observed():
    report = _report(default_observed())
    rows = {row.name: row for row in report.rows}
    assert [row.name for row in report.rows] == [
        "top_quark", "theta_w", "baryon_fraction", "planck_mass",
    ]
    assert rows["top_quark"].rel_error == pytest.approx(0.5 / 176.0, rel=1e-9)
    assert rows["top_quark"].within_uncertainty is True
    assert rows["theta_w"].rel_error == pytest.approx(0.0344948, abs=1e-6)
    assert rows["theta_w"].within_uncertainty is None
    assert rows["baryon_fraction"].rel_error == pytest.approx(0.0989011, abs=1e-6)
    # the gravity-level mass is claimed at two significant figures, so the
    # comparison sees 1.1e19 against 1.2e19
    assert rows["planck_mass"].computed == 1.1e19
    assert rows["planck_mass"].rel_error == pytest.approx(1.0 / 12.0, rel=1e-9)


def test_skipped_names_are_reported():
    observed = default_observed() + [
        ObservedRecord("zzz_unknown", 1.0, ObservedUnit.MEV, None, ""),
    ]
    report = _report(observed)
    assert "zzz_unknown" in report.skipped_observed
    assert "muon" in report.skipped_computed
    assert "boson_5" in report.skipped_computed
    assert len(report.rows) == 4


def test_observed_unit_drives_the_comparison_unit():
    observed = [ObservedRecord("muon", 0.1056, ObservedUnit.GEV, None, "")]
    report = _report(observed)
    row = report.rows[0]
    assert row.unit is ObservedUnit.GEV
    assert row.computed == pytest.approx(0.1055489, abs=1e-6)
    assert row.rel_error < 0.005


def test_unit_kind_mismatch_raises():
    observed = [ObservedRecord("theta_w", 29.0, ObservedUnit.MEV, None, "")]
    with pytest.raises(ValueError, match="unit kind mismatch"):
        _report(observed)


def test_zero_observed_values():
    # both sides exactly zero agree; a zero reference for a nonzero claim
    # has no relative error
    report = _report([ObservedRecord("nu_e", 0.0, ObservedUnit.MEV, None, "")])
    assert report.rows[0].rel_error == 0.0
    with pytest.raises(ValueError, match="undefined relative error"):
        _report([ObservedRecord("muon", 0.0, ObservedUnit.MEV, None, "")])


def test_claim_names_cover_the_ladder_and_spectrum():
    bases = calibrate(C).bases
    claims = computed_claims(
        full_spectrum(C, bases), boson_ladder(C), electroweak_mix(C), baryon_fractions()
    )
    names = [claim[0] for claim in claims]
    for expected in (
        "boson_5", "boson_11", "planck_mass", "theta_w", "alpha_w",
        "sin2_theta_w", "baryon_fraction", "dark_fraction",
        "nu_e", "e", "muon", "tau", "u_quark", "top_quark",
    ):
        assert expected in names
    assert len(names) == len(set(names))


@pytest.mark.parametrize("anchor", ANCHOR_CHOICES)
@pytest.mark.parametrize("constants", [C, ModelConstants(0.0075, mev(0.52), theta_w_deg=31.0)])
def test_each_spectrum_claim_is_its_row_in_the_rows_display_unit(constants, anchor):
    # the unit `fermions` prints each row in, as TABLE states it
    spectrum = full_spectrum(constants, calibrate(constants, anchor).bases)
    claims = {name: (value, unit) for name, value, unit, _ in computed_claims(
        spectrum, boson_ladder(constants), electroweak_mix(constants), baryon_fractions())}
    for row, (name, mass) in zip(TABLE, spectrum, strict=True):
        value, unit = claims[compare._SPECTRUM_CLAIM_NAMES.get(name, name)]
        assert (name, unit.value) == (row.name, row.display_unit.value)
        assert value.hex() == (mass.mev / _TO_MEV[row.display_unit]).hex()


def test_render_markdown_ladder_rows():
    # an observed file quoting the whole ladder renders seven data rows
    observed = [
        ObservedRecord(f"boson_{d}", value, ObservedUnit.GEV, None, "")
        for d, value in [
            (5, 3.7e-6), (6, 7e-2), (7, 91.177), (8, 1.7e6),
            (9, 3.2e10), (10, 6.0e14), (11, 1.1e19),
        ]
    ]
    report = _report(observed)
    table, skips = render(report, "markdown").split("\n\n")
    lines = table.splitlines()
    assert lines[0].startswith("| name |")
    assert len(lines) == 2 + 7
    assert skips.startswith("Skipped (no matching name):\n- computed only: planck_mass, ")


def test_render_markdown_with_both_skip_lists_is_exact():
    report = _report(default_observed() + [
        ObservedRecord("zzz_unknown", 1.0, ObservedUnit.MEV, None, ""),
    ])
    assert render(report, "markdown") == (
        "| name | computed | observed | unit | rel_error | within_uncertainty |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| top_quark | 176.5 | 176 | GeV | 0.00284091 | true |\n"
        "| theta_w | 29.69 | 28.7 | degree | 0.0344948 |  |\n"
        "| baryon_fraction | 0.142857 | 0.13 | dimensionless | 0.0989011 |  |\n"
        "| planck_mass | 1.1e+19 | 1.2e+19 | GeV | 0.0833333 |  |\n"
        "\n"
        "Skipped (no matching name):\n"
        "- computed only: boson_5, boson_6, boson_7, boson_8, boson_9, boson_10, boson_11, "
        "alpha_w, sin2_theta_w, dark_fraction, nu_e, e, nu_mu, nu_tau, muon, tau, u_quark, "
        "d_quark, s_quark, c_quark, b_quark\n"
        "- observed only: zzz_unknown\n"
    )


def test_render_csv():
    report = _report(default_observed())
    text = render(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "name,computed,observed,unit,rel_error,within_uncertainty"
    assert lines[1].startswith("top_quark,176.5,176,GeV,")
    assert lines[1].endswith(",true")
    # rows without an uncertainty leave the verdict column empty
    assert lines[2].endswith(",")
    assert any(line.startswith("# skipped computed:") for line in lines)


def test_render_csv_lists_an_observed_name_the_model_lacks():
    report = _report([ObservedRecord("zzz_unknown", 1.0, ObservedUnit.MEV, None, ""),
                      ObservedRecord("graviton", 1.0, ObservedUnit.GEV, None, "")])
    assert render(report, "csv").endswith("\n# skipped observed: zzz_unknown, graviton\n")


@pytest.mark.parametrize("name, unit, message", [
    ("", ObservedUnit.GEV, "observed record needs a name"),
    ("x", "GeV", "unknown observed unit: 'GeV'"),
], ids=["no-name", "unit-not-an-ObservedUnit"])
def test_an_observed_record_rejects_a_missing_name_and_a_bad_unit(name, unit, message):
    with pytest.raises(ValueError) as info:
        ObservedRecord(name, 1.0, unit)
    assert str(info.value) == message


def test_render_json_shape():
    report = _report(default_observed())
    entries = json.loads(render(report, "json"))
    assert [entry["name"] for entry in entries] == [
        "top_quark", "theta_w", "baryon_fraction", "planck_mass",
    ]
    top = entries[0]
    assert set(top) == {"name", "computed", "observed", "rel_error", "within_uncertainty"}
    assert top["within_uncertainty"] is True
    theta = entries[1]
    assert set(theta) == {"name", "computed", "observed", "rel_error"}
    assert theta["rel_error"] == pytest.approx(0.0344948, abs=1e-6)


def test_render_is_deterministic():
    report = _report(default_observed())
    for fmt in ("markdown", "csv", "json"):
        assert render(report, fmt) == render(report, fmt)


def test_render_digit_override():
    row = ComparisonRow("x", 105.5488867436542, 105.6, ObservedUnit.MEV, 4.840270487e-4)
    report = ComparisonReport((row,), (), ())
    assert "105.549" in render(report, "markdown")
    assert "105.54888674" in render(report, "markdown", sig=11)
    with pytest.raises(ValueError):
        render(report, "markdown", sig=0)


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="format must be one of"):
        render(ComparisonReport((), (), ()), "xml")

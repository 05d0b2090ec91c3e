"""The package's records: immutable, compared by value, validated on construction."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dimorb
from dimorb import (
    AuxBaseSet,
    BosonLadder,
    BosonRow,
    CalibrationResult,
    ComparisonReport,
    ComparisonRow,
    ElectroweakMix,
    GaugeLabel,
    MassValue,
    ModelConstants,
    ObservedRecord,
    ObservedUnit,
    OrbitalIndex,
    SpectrumRow,
    Unit,
    boson_ladder,
    calibrate,
    electroweak_mix,
    gev,
    mev,
)
from dimorb.spectrum import Coefficients

C = ModelConstants()


def _row():
    return ComparisonRow("muon", 105.5, 105.6, ObservedUnit.MEV, 1e-3, True)


# each factory builds a fresh, equal value on every call; the name is one of
# the record's fields (a BosonLadder is a plain tuple, so its `row` method)
RECORDS = {
    "MassValue": (lambda: MassValue(0.511, Unit.MEV), "magnitude"),
    "OrbitalIndex": (lambda: OrbitalIndex(7), "d"),
    "ModelConstants": (lambda: ModelConstants(alpha_e=0.0073), "alpha_e"),
    "BosonRow": (lambda: BosonRow(OrbitalIndex(7), GaugeLabel.Z_L, "weak", gev(91.0)), "mass"),
    "BosonLadder": (lambda: boson_ladder(C), "row"),
    "ElectroweakMix": (lambda: electroweak_mix(C), "alpha_w"),
    "Coefficients": (lambda: Coefficients(1, 0, 0, 17, 0), "lepton_w"),
    "SpectrumRow": (lambda: SpectrumRow("e", "6_0", "e", Coefficients(1, 0, 0, 0, 0),
                                        mev(0.51), Unit.MEV, "given"), "note"),
    "AuxBaseSet": (lambda: AuxBaseSet(mev(105.0), mev(14.5)), "quark_base_7"),
    "CalibrationResult": (lambda: calibrate(C), "residuals"),
    "ObservedRecord": (lambda: ObservedRecord("muon", 105.6, ObservedUnit.MEV, 0.5, "x"),
                       "value"),
    "ComparisonRow": (_row, "rel_error"),
    "ComparisonReport": (lambda: ComparisonReport((_row(),), ("tau",), ()), "rows"),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_records_are_immutable(kind):
    make, field = RECORDS[kind]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_equal_inputs_give_equal_records(kind):
    make, _ = RECORDS[kind]
    first, second = make(), make()
    assert first is not second
    assert first == second
    if kind == "CalibrationResult":
        # it holds the residual dicts, so it has no hash
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize(
    "kind, kwargs, message",
    [
        ("MassValue", {"magnitude": -1.0, "unit": Unit.MEV}, "finite and >= 0"),
        ("MassValue", {"magnitude": 1.0, "unit": "MeV"}, "unknown mass unit"),
        ("OrbitalIndex", {"d": 12}, "integer in 5..11"),
        ("ModelConstants", {"alpha_e": 1.5}, "alpha_e"),
        ("ModelConstants", {"m_z": gev(1e300)}, "out of range"),
        ("ModelConstants", {"theta_w_deg": 90.0}, "theta_w_deg"),
        ("ModelConstants", {"m_electron": 0.510999}, "m_electron must be a MassValue"),
        ("ObservedRecord", {"name": "muon", "value": math.nan, "unit": ObservedUnit.MEV},
         "observed value must be finite"),
        ("ObservedRecord", {"name": "muon", "value": 1.0, "unit": ObservedUnit.MEV,
                            "uncertainty": -1.0}, "uncertainty"),
        ("ObservedRecord", {"name": "top_quark", "value": -176.0, "unit": ObservedUnit.GEV},
         "observed mass must be >= 0"),
        # a bool would be written as True, which parse_observed rejects
        ("ObservedRecord", {"name": "x", "value": True, "unit": ObservedUnit.GEV},
         "observed value must be finite, got True"),
        ("ObservedRecord", {"name": "x", "value": "176.0", "unit": ObservedUnit.GEV},
         "observed value must be finite, got '176.0'"),
        ("ObservedRecord", {"name": "x", "value": 1.0, "unit": ObservedUnit.GEV,
                            "uncertainty": False},
         "uncertainty must be finite and >= 0, got False"),
        ("ObservedRecord", {"name": "x", "value": 1.0, "unit": ObservedUnit.GEV,
                            "uncertainty": "13"},
         "uncertainty must be finite and >= 0, got '13'"),
    ],
)
def test_validated_records_reject_bad_keywords(kind, kwargs, message):
    with pytest.raises(ValueError, match=message):
        getattr(dimorb, kind)(**kwargs)


@pytest.mark.parametrize("make, fields", [
    (lambda: mev(1.0), {"magnitude": -1.0}),
    (lambda: mev(1.0), {"unit": "MeV"}),
    (lambda: OrbitalIndex(7), {"d": 99}),
    (lambda: ObservedRecord("muon", 105.6, ObservedUnit.MEV), {"value": math.nan}),
    (lambda: ObservedRecord("muon", 105.6, ObservedUnit.MEV), {"uncertainty": -1.0}),
], ids=["mass-negative", "mass-unit", "orbital", "observed-nan", "observed-uncertainty"])
def test_replace_and_make_build_through_the_constructor(make, fields):
    record = make()
    kind = type(record)
    with pytest.raises(ValueError) as rejected:
        kind(**{**record._asdict(), **fields})
    for build in (lambda: record._replace(**fields),
                  lambda: kind._make({**record._asdict(), **fields}.values())):
        with pytest.raises(ValueError) as raised:
            build()
        assert type(raised.value) is type(rejected.value)
        assert str(raised.value) == str(rejected.value)
    assert type(record._replace()) is kind and record._replace() == record
    with pytest.raises(TypeError):  # the NamedTuple length check still runs first
        kind._make([*record, None])


def test_mass_value_stores_a_float():
    value = MassValue(1, Unit.GEV)
    assert type(value.magnitude) is float
    assert value == gev(1.0)


def test_boson_ladder_is_a_tuple_of_its_rows():
    ladder = boson_ladder(C)
    assert len(ladder) == 7
    assert ladder.row(11) is ladder[6]
    assert ladder.mass(7) == C.m_z
    assert BosonLadder(ladder) == ladder


def test_cli_import_loads_no_slow_stdlib_modules():
    # compared against the modules present before the import, so modules a
    # site hook preloads do not count
    code = ("import sys; before = set(sys.modules); import dimorb.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(dimorb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "dimorb.cli" in added
    # compare and csv load only when a subcommand uses them
    assert not {"dataclasses", "inspect", "fractions", "decimal", "json",
                "dimorb.compare", "csv"} & set(added)

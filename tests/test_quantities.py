import json
import math
import pickle
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimorb.quantities import (
    ALPHA_E_DEFAULT,
    MassValue,
    ModelConstants,
    OrbitalIndex,
    Unit,
    format_rows,
    gev,
    mev,
    relative_error,
    round_to_sig,
)

UNITS = list(Unit)


def test_adjacent_units_differ_by_thousand():
    one = mev(1.0)
    assert one.to(Unit.GEV).magnitude == pytest.approx(1e-3, rel=1e-12)


def test_masses_come_in_mev_and_gev_only():
    assert set(Unit) == {Unit.MEV, Unit.GEV}


@given(magnitude=st.floats(min_value=0.0, allow_infinity=False),
       unit=st.sampled_from(UNITS), target=st.sampled_from(UNITS))
@settings(max_examples=300)
def test_every_valid_mass_converts_to_every_unit(magnitude, unit, target):
    try:
        value = MassValue(magnitude, unit)
    except ValueError:
        assume(False)
    converted = value.to(target)
    assert converted.unit is target
    assert math.isfinite(converted.magnitude)


def test_conversion_examples():
    assert mev(0.511).to(Unit.GEV).magnitude == pytest.approx(0.000511, rel=1e-12)
    assert gev(91.177).to(Unit.MEV).magnitude == pytest.approx(91177.0, rel=1e-12)
    assert gev(1.2e19).to(Unit.MEV).magnitude == pytest.approx(1.2e22, rel=1e-12)


def test_conversion_to_same_unit_is_identity():
    m = gev(91.177)
    assert m.to(Unit.GEV) is m


@given(
    magnitude=st.floats(min_value=1e-30, max_value=1e30),
    path=st.lists(st.sampled_from(UNITS), min_size=1, max_size=4),
)
@settings(max_examples=200)
def test_conversion_chains_invert(magnitude, path):
    start = mev(magnitude)
    value = start
    for unit in path:
        value = value.to(unit)
    back = value.to(Unit.MEV)
    assert back.magnitude == pytest.approx(start.magnitude, rel=1e-12)


@given(
    a=st.floats(min_value=1e-20, max_value=1e20),
    b=st.floats(min_value=1e-20, max_value=1e20),
    unit_a=st.sampled_from(UNITS),
    unit_b=st.sampled_from(UNITS),
)
@settings(max_examples=200)
def test_relative_error_ignores_unit_choice(a, b, unit_a, unit_b):
    base = relative_error(mev(a), mev(b))
    shuffled = relative_error(mev(a).to(unit_a), mev(b).to(unit_b))
    assert shuffled == pytest.approx(base, rel=1e-12)


def test_relative_error_values():
    assert relative_error(mev(0.511), mev(0.511)) == 0.0
    assert relative_error(1.1e19, 1.2e19) == pytest.approx(1.0 / 12.0, rel=1e-9)
    assert relative_error(gev(176.5), gev(176.0)) == pytest.approx(0.5 / 176.0, rel=1e-12)


def test_relative_error_rejects_zero_reference():
    with pytest.raises(ValueError, match="undefined relative error"):
        relative_error(mev(1.0), mev(0.0))
    with pytest.raises(ValueError, match="undefined relative error"):
        relative_error(0.5, 0.0)


def test_relative_error_rejects_mixed_types():
    with pytest.raises(TypeError):
        relative_error(mev(1.0), 1.0)


@pytest.mark.parametrize("magnitude", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_mass_value_rejects_bad_magnitudes(magnitude):
    with pytest.raises(ValueError):
        MassValue(magnitude, Unit.MEV)


@pytest.mark.parametrize("magnitude", [1e306, 1.8e305])
def test_mass_value_rejects_magnitudes_that_overflow_in_mev(magnitude):
    with pytest.raises(ValueError, match=re.escape(f"in MeV, got {magnitude!r} GeV")):
        gev(magnitude)


def test_largest_gev_mass_stays_finite_in_mev():
    top = gev(1.7e305)
    assert math.isfinite(top.mev)
    assert top.to(Unit.MEV).magnitude == top.mev


def test_unit_members_hash_by_identity():
    assert Unit("GeV") is Unit.GEV
    by_unit = {unit: unit.value for unit in Unit}
    assert by_unit[Unit("MeV")] == "MeV"
    assert MassValue(2.0, Unit("GeV")).mev == 2000.0
    for unit in Unit:
        assert pickle.loads(pickle.dumps(unit)) is unit
        assert by_unit[pickle.loads(pickle.dumps(unit))] == unit.value
    assert pickle.loads(pickle.dumps(gev(1.5))) == gev(1.5)


def test_mass_value_rejects_bad_unit():
    with pytest.raises(ValueError, match="unknown mass unit"):
        MassValue(1.0, "MeV")


def test_mass_value_str():
    assert str(mev(0.510999)) == "0.510999 MeV"
    assert str(gev(1.2e19)) == "1.2e+19 GeV"


def test_default_constants():
    c = ModelConstants()
    assert c.alpha_e == ALPHA_E_DEFAULT
    assert c.m_electron == mev(0.510999)
    assert c.m_z == gev(91.177)
    assert c.theta_w_deg == 29.69
    assert c.planck_ref == gev(1.2e19)
    assert c.n_orbitals == 7


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha_e": 0.0},
        {"alpha_e": 1.0},
        {"alpha_e": -0.5},
        {"alpha_e": 2.0},
        {"alpha_e": float("nan")},
        {"theta_w_deg": 0.0},
        {"theta_w_deg": 90.0},
        {"theta_w_deg": -10.0},
        {"theta_w_deg": 120.0},
        {"theta_w_deg": float("nan")},
        {"m_electron": mev(0.0)},
        {"m_electron": 0.510999},
        {"m_z": gev(0.0)},
        {"planck_ref": 1.2e19},
        {"n_orbitals": 6},
        {"n_orbitals": 8},
    ],
)
def test_constants_reject_out_of_range_fields(kwargs):
    with pytest.raises(ValueError):
        ModelConstants(**kwargs)


_OVERFLOWS = "constants out of range: {} overflows a float ({})"


@pytest.mark.parametrize("kwargs, what, values", [
    ({"m_z": gev(1e300)}, "the top boson mass m_z / alpha_e**8 in MeV",
     "m_z = 1e+300 GeV, alpha_e = 0.0072973525693"),
    # alpha_e**2 underflows to zero
    ({"alpha_e": 1e-200}, "the top boson mass m_z / alpha_e**8 in MeV",
     "m_z = 91.177 GeV, alpha_e = 1e-200"),
    ({"m_electron": mev(1e306)}, "the tau mass m_electron * (1 + 25.5 / alpha_e)",
     "m_electron = 1e+306 MeV, alpha_e = 0.0072973525693"),
    ({"m_electron": mev(1e300), "m_z": gev(1e-10)},
     "alpha_w**2 = m_electron / (alpha_e * m_z * cos(theta_w))",
     "m_electron = 1e+300 MeV, alpha_e = 0.0072973525693, m_z = 1e-10 GeV, "
     "theta_w_deg = 29.69"),
    # m_z * cos(theta_w) underflows to zero
    ({"m_z": gev(5e-324), "theta_w_deg": 89.9999},
     "alpha_w**2 = m_electron / (alpha_e * m_z * cos(theta_w))",
     "m_electron = 0.510999 MeV, alpha_e = 0.0072973525693, m_z = 4.94066e-324 GeV, "
     "theta_w_deg = 89.9999"),
], ids=["top", "top-underflow", "tau", "alpha_w", "alpha_w-underflow"])
def test_constants_out_of_float_range_name_the_constants_involved(kwargs, what, values):
    with pytest.raises(ValueError) as info:
        ModelConstants(**kwargs)
    assert str(info.value) == _OVERFLOWS.format(what, values)


@given(
    alpha=st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda x: not (0.0 < x < 1.0)
    )
)
@settings(max_examples=100)
def test_constants_reject_every_bad_alpha(alpha):
    with pytest.raises(ValueError):
        ModelConstants(alpha_e=alpha)


@given(
    theta=st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda x: not (0.0 < x < 90.0)
    )
)
@settings(max_examples=100)
def test_constants_reject_every_bad_theta(theta):
    with pytest.raises(ValueError):
        ModelConstants(theta_w_deg=theta)


@pytest.mark.parametrize("field, bounds", [("alpha_e", "(0, 1)"), ("theta_w_deg", "(0, 90)")])
@pytest.mark.parametrize("value", [10**400, -10**400], ids=["huge", "huge-negative"])
def test_a_huge_int_constant_gets_its_field_message(field, bounds, value):
    # compared as an int, so no float() overflows on the way
    with pytest.raises(ValueError) as info:
        ModelConstants(**{field: value})
    assert str(info.value) == f"{field} must lie strictly inside {bounds}, got {value!r}"


def test_orbital_index_bounds():
    for d in range(5, 12):
        assert int(OrbitalIndex(d)) == d
    for bad in (4, 12, 0, -5):
        with pytest.raises(ValueError):
            OrbitalIndex(bad)
    with pytest.raises(ValueError):
        OrbitalIndex(7.0)
    with pytest.raises(ValueError):
        OrbitalIndex(True)



# quotes, backslashes, control characters, non-ASCII (one outside the BMP)
# and the separators JavaScript treats as line ends
_CORPUS_CHARS = 'ab Z09"\\/\n\r\t\b\f\x00\x1f\x7f\u00e9\u4e2d\u2028\U0001f600'
_CORPUS_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, 123456789.0,
                  1e16, 1e-5, math.nan, math.inf, -math.inf)


def _corpus_text(rng):
    return "".join(rng.choice(_CORPUS_CHARS) for _ in range(rng.randint(0, 6)))


def _corpus_cell(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return None
    if kind == 1:
        return _corpus_text(rng)
    if kind == 2:
        return rng.choice((True, False, 0, -1, 7, 10**25, -(10**25)))
    if kind == 3:
        return rng.choice(_CORPUS_FLOATS)
    # exponent form at both ends of the range, and plain decimals between
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323.0, 308.0)


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1.7976931348623157e308,
                                   -1.7976931348623157e308])
def test_json_edge_floats_match_json_dumps_at_every_digits(value):
    for digits in range(1, 21):
        expected = json.dumps([{"x": round_to_sig(value, digits)}], indent=2) + "\n"
        assert format_rows("json", ["x"], [[value]], digits) == expected, digits


def test_json_spells_a_float_that_rounds_up_to_inf_as_json_dumps_does():
    assert format_rows("json", ["x", "y"], [[1.7976931348623157e308, -1.7e308]], 1) == (
        '[\n  {\n    "x": Infinity,\n    "y": -Infinity\n  }\n]\n')
    assert format_rows("json", ["x"], [[1.7976931348623157e308]], 17) == (
        '[\n  {\n    "x": 1.7976931348623157e+308\n  }\n]\n')


def test_json_rows_match_json_dumps_byte_for_byte():
    rng = random.Random(20261018)
    for _ in range(3000):
        columns = [f"{_corpus_text(rng)}{i}" for i in range(rng.randint(0, 4))]
        rows = [[None] * len(columns) if rng.random() < 0.1
                else [_corpus_cell(rng) for _ in columns] for _ in range(rng.randint(0, 4))]
        digits = rng.randint(1, 20)
        entries = [{name: round_to_sig(value, digits) if type(value) is float else value
                    for name, value in zip(columns, row) if value is not None} for row in rows]
        expected = json.dumps(entries, indent=2) + "\n"
        assert format_rows("json", columns, rows, digits) == expected, (columns, rows, digits)


@pytest.mark.parametrize("digits", [0, -1])
@pytest.mark.parametrize("fmt", ["table", "markdown", "csv", "json"])
def test_every_format_rejects_fewer_than_one_digit_alike(fmt, digits):
    with pytest.raises(ValueError, match=f"^need at least one significant digit, got {digits}$"):
        format_rows(fmt, ["x"], [[1.5]], digits)

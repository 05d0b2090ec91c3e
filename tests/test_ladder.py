import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimorb import ladder as ladder_module
from dimorb.ladder import (
    GaugeLabel,
    boson_ladder,
    closed_form_mass,
    electroweak_mix,
    quartic_sum,
)
from dimorb.quantities import ModelConstants, Unit, mev

C = ModelConstants()
ALPHA = C.alpha_e
ME_GEV = 0.510999e-3
MZ_GEV = 91.177

# the seven masses as the model's table states them, with the number of
# significant figures each is stated at
TABLE_PRINTED_GEV = {
    5: (3.7e-6, 2),
    6: (7e-2, 1),
    7: (91.177, 5),
    8: (1.7e6, 2),
    9: (3.2e10, 2),
    10: (6.0e14, 2),
    11: (1.1e19, 2),
}

# independently evaluated: 91.177 / ALPHA**8
B11_GEV = 1.1338684260539054e19


def _round_sig(x: float, sig: int) -> float:
    return float(f"{x:.{sig}g}")


def test_quartic_sum_small_values():
    # brute-force oracle for the first few a
    for a in range(0, 12):
        assert quartic_sum(a) == sum(k**4 for k in range(a + 1))
    assert quartic_sum(0) == 0
    assert quartic_sum(1) == 1
    assert quartic_sum(2) == 17
    assert quartic_sum(3) == 98
    assert quartic_sum(4) == 354
    assert quartic_sum(5) == 979


@given(a=st.integers(min_value=0, max_value=2000))
@settings(max_examples=200)
def test_quartic_sum_matches_brute_force(a):
    assert quartic_sum(a) == sum(k**4 for k in range(a + 1))


def test_quartic_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        quartic_sum(-1)
    with pytest.raises(ValueError):
        quartic_sum(2.5)


def test_ladder_anchors():
    ladder = boson_ladder(C)
    assert ladder.mass(5).to(Unit.GEV).magnitude == pytest.approx(ALPHA * ME_GEV, rel=1e-12)
    assert ladder.mass(6).to(Unit.GEV).magnitude == pytest.approx(ME_GEV / ALPHA, rel=1e-12)
    # the electroweak row is the Z0 input itself, no arithmetic applied
    assert ladder.mass(7).to(Unit.GEV).magnitude == MZ_GEV


def test_ladder_matches_direct_powers():
    ladder = boson_ladder(C)
    for k, d in enumerate(range(8, 12), start=1):
        expected = MZ_GEV / ALPHA ** (2 * k)
        assert ladder.mass(d).to(Unit.GEV).magnitude == pytest.approx(expected, rel=1e-12)
    assert ladder.mass(11).to(Unit.GEV).magnitude == pytest.approx(B11_GEV, rel=1e-12)


def test_ladder_reproduces_printed_table():
    ladder = boson_ladder(C)
    for d, (printed, sig) in TABLE_PRINTED_GEV.items():
        computed = ladder.mass(d).to(Unit.GEV).magnitude
        assert _round_sig(computed, sig) == printed, f"level {d}"


def test_ladder_geometric_ratio_above_electroweak():
    ladder = boson_ladder(C)
    target = 1.0 / ALPHA**2
    for d in range(8, 12):
        ratio = ladder.mass(d).mev / ladder.mass(d - 1).mev
        assert ratio == pytest.approx(target, rel=1e-12)


def test_ladder_cross_product_identity():
    # B5 * B6 = (alpha Me)(Me / alpha) = Me**2, alpha cancels exactly
    ladder = boson_ladder(C)
    product = ladder.mass(5).mev * ladder.mass(6).mev
    assert product == pytest.approx(C.m_electron.mev ** 2, rel=1e-12)


def test_ladder_is_strictly_increasing():
    masses = [row.mass.mev for row in boson_ladder(C)]
    assert all(lo < hi for lo, hi in zip(masses, masses[1:]))


def test_row_labels():
    ladder = boson_ladder(C)
    gauges = [row.gauge for row in ladder]
    assert gauges == [
        GaugeLabel.A, GaugeLabel.PI_HALF, GaugeLabel.Z_L, GaugeLabel.X_R,
        GaugeLabel.X_L, GaugeLabel.Z_R, GaugeLabel.G,
    ]
    assert ladder.row(5).symmetry == "electromagnetic, U(1)"
    assert ladder.row(6).symmetry == "strong, SU(3) -> U(1)"
    assert ladder.row(7).symmetry == "weak (left), SU(2)_L"
    assert ladder.row(10).symmetry == "weak (right), SU(2)_R"
    assert ladder.row(11).symmetry == "gravity"
    assert len(ladder) == 7


def test_closed_form_values():
    # alpha**0 leaves the reference untouched at the top
    assert closed_form_mass(11, C).to(Unit.GEV).magnitude == 1.2e19
    assert closed_form_mass(10, C).to(Unit.GEV).magnitude == pytest.approx(
        1.2e19 * ALPHA**2, rel=1e-12
    )
    assert closed_form_mass(5, C).to(Unit.GEV).magnitude == pytest.approx(
        1.2e19 * ALPHA**12, rel=1e-12
    )


def test_closed_form_tracks_ladder_within_order_of_magnitude():
    ladder = boson_ladder(C)
    for d in range(5, 12):
        exact = ladder.mass(d).to(Unit.GEV).magnitude
        approx = closed_form_mass(d, C).to(Unit.GEV).magnitude
        assert max(exact / approx, approx / exact) < 15.0, f"level {d}"


def test_closed_form_rejects_out_of_range_levels():
    with pytest.raises(ValueError):
        closed_form_mass(4, C)
    with pytest.raises(ValueError):
        closed_form_mass(12, C)


@pytest.mark.parametrize("d", [4, 12, -2, True, 7.9, 7.0, "7"])
def test_every_reader_rejects_what_is_not_an_orbital_number(d):
    # an orbital number, not a tuple index: -2 and 4 would index D=5 and D=11
    ladder = boson_ladder(C)
    message = f"orbital number must be an integer in 5..11, got {d!r}"
    for read in (ladder.row, ladder.mass, lambda d: closed_form_mass(d, C)):
        with pytest.raises(ValueError) as rejected:
            read(d)
        assert str(rejected.value) == message


def test_rows_are_read_by_int_or_by_orbital_index():
    ladder = boson_ladder(C)
    for d, row in zip(range(5, 12), ladder):
        assert ladder.row(d) is ladder.row(row.orbital) is row
        assert ladder.mass(row.orbital) is row.mass
        assert closed_form_mass(row.orbital, C) == closed_form_mass(d, C)


def test_electroweak_mix_against_direct_formula():
    mix = electroweak_mix(C)
    cos_theta = math.cos(math.radians(29.69))
    b6_gev = ME_GEV / ALPHA
    assert mix.alpha_w == pytest.approx(math.sqrt(b6_gev / (MZ_GEV * cos_theta)), rel=1e-12)
    assert mix.alpha_w == pytest.approx(0.02973345023755107, rel=1e-12)
    assert mix.sin2_theta_w == pytest.approx(math.sin(math.radians(29.69)) ** 2, rel=1e-12)
    assert mix.sin2_theta_w == pytest.approx(0.245329, abs=1e-6)
    assert mix.theta_w_deg == 29.69


def test_mix_definition_inverts():
    # alpha_w is defined by alpha_w**2 * cos(theta) * M_Z = B6
    mix = electroweak_mix(C)
    cos_theta = math.cos(math.radians(C.theta_w_deg))
    b6_gev = boson_ladder(C).mass(6).to(Unit.GEV).magnitude
    assert mix.alpha_w**2 * cos_theta * MZ_GEV == pytest.approx(b6_gev, rel=1e-12)


def test_ladder_defines_only_what_it_exports():
    # the ladder, its mixing view and the closed form are the whole public
    # surface; a helper with no caller would show up here
    module = ladder_module.__name__
    own = {name for name, value in vars(ladder_module).items()
           if not name.startswith("_") and not inspect.ismodule(value)
           and getattr(value, "__module__", module) == module}
    assert own == set(ladder_module.__all__) == {
        "GaugeLabel", "BosonRow", "BosonLadder", "ElectroweakMix",
        "quartic_sum", "closed_form_mass", "electroweak_mix", "boson_ladder",
    }


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_electron_scaling_splits_the_ladder(lam):
    # the two electron-anchored rows scale with the electron mass, the
    # Z0-anchored rows do not move at all
    scaled = ModelConstants(m_electron=mev(0.510999 * lam))
    base = boson_ladder(C)
    moved = boson_ladder(scaled)
    for d in (5, 6):
        assert moved.mass(d).mev == pytest.approx(lam * base.mass(d).mev, rel=1e-12)
    for d in range(7, 12):
        assert moved.mass(d).mev == base.mass(d).mev

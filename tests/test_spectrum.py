import contextlib
import copy
import io
import math
import operator
import pickle
import re
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimorb.cli import run
from dimorb.ladder import boson_ladder, electroweak_mix, quartic_sum
from dimorb.quantities import MassValue, ModelConstants, Unit, gev, mev
from dimorb.spectrum import (
    ANCHOR_CHOICES,
    TABLE,
    AuxBaseSet,
    CalibrationError,
    CalibrationFileError,
    UncalibratedBaseError,
    calibrate,
    calibrate_quark_base_7,
    calibrate_top_lump,
    composition,
    evaluate,
    fermion_mass,
    format_calibration,
    full_spectrum,
    lepton_aux_base,
    load_bases,
    parse_calibration,
    spectrum_row,
)

C = ModelConstants()
ALPHA = C.alpha_e
ME = 0.510999

# held-out agreement everywhere in the table is half a percent
TOL = 0.005


def _lepton_bases():
    return AuxBaseSet.lepton_only(C)


def _rel_error(computed, reference):
    return abs(computed.mev - reference.mev) / reference.mev


def _muon_mev(constants=C):
    bases = AuxBaseSet.lepton_only(constants)
    return fermion_mass(composition("mu"), bases, constants).mev


def test_lepton_aux_base_formula():
    # (3/2) * B6, nothing calibrated
    base = lepton_aux_base(C)
    assert base.mev == pytest.approx(1.5 * ME / ALPHA, rel=1e-12)
    assert base.mev == pytest.approx(105.0378877436542, rel=1e-12)
    b6 = boson_ladder(C).mass(6).mev
    assert base.mev == pytest.approx(1.5 * b6, rel=1e-12)


def test_charged_leptons_need_no_calibration():
    bases = _lepton_bases()
    muon = fermion_mass(composition("mu"), bases, C)
    tau = fermion_mass(composition("tau"), bases, C)
    assert muon.mev == pytest.approx(ME + 1.5 * ME / ALPHA, rel=1e-12)
    assert tau.mev == pytest.approx(ME + 17.0 * 1.5 * ME / ALPHA, rel=1e-12)
    assert _rel_error(muon, spectrum_row("mu").table_mass) < TOL
    assert _rel_error(tau, spectrum_row("tau").table_mass) < TOL


def test_massless_and_given_rows():
    bases = _lepton_bases()
    for name in ("nu_e", "nu_mu", "nu_tau"):
        assert fermion_mass(composition(name), bases, C).mev == 0.0
    assert fermion_mass(composition("e"), bases, C).mev == ME


def test_table_states_each_rows_mass_and_display_unit():
    # the paper's table values: calibrate reads them for its anchor and
    # held-out rows, but no command prints the given electron's
    stated = {row.name: (row.table_mass, row.display_unit) for row in TABLE}
    assert stated == {
        "nu_e": (mev(0.0), Unit.MEV), "e": (mev(0.51), Unit.MEV),
        "nu_mu": (mev(0.0), Unit.MEV), "nu_tau": (mev(0.0), Unit.MEV),
        "mu": (mev(105.6), Unit.MEV), "tau": (mev(1786.0), Unit.MEV),
        "u": (mev(330.8), Unit.MEV), "d": (mev(332.3), Unit.MEV),
        "s": (mev(558.0), Unit.MEV), "c": (mev(1701.0), Unit.MEV),
        "b": (mev(5318.0), Unit.MEV), "t": (gev(176.5), Unit.GEV),
    }
    # a MassValue is a (magnitude, unit) tuple, so == compares the unit too
    assert all(type(mass) is MassValue for mass, _ in stated.values())


def test_table_coefficients_match_orbitals():
    # a nonzero level-7 weight is quartic_sum(a) of the row's one 7_a slot with a >= 1
    for row in TABLE:
        c = row.composition
        aux = [int(slot[2:]) for slot in row.orbitals.split(" + ")
               if slot.startswith("7_") and slot != "7_0"]
        weights = [w for w in (c.lepton_w, c.quark_w) if w]
        assert weights == [quartic_sum(a) for a in aux], row.name
        assert bool(c.lump) == (row.name == "t"), row.name
        assert bool(c.lepton_w) == (row.name in ("mu", "tau")), row.name
        assert bool(c.quark_w) == (row.name in ANCHOR_CHOICES + ("t",)), row.name


def test_default_calibration_text_is_exact():
    # the 17-digit file is the byte-level contract for both calibrated bases
    assert format_calibration(calibrate(C).bases) == (
        "# calibrated auxiliary bases\n"
        "quark_base_7_mev=14.120342769037393\n"
        "top_lump_8_gev=162.35953776888141\n"
    )


# anchor d is pinned above
@pytest.mark.parametrize("anchor, quark, lump", [
    ("u", "14.153339769037416", "162.32723370588141"),
    ("s", "14.107078986413963", "162.37252301206976"),
    ("c", "14.126054487439157", "162.3539459965661"),
    ("b", "14.123786279008581", "162.35616657261963"),
])
def test_calibration_text_is_exact_for_every_other_anchor(anchor, quark, lump):
    assert format_calibration(calibrate(C, anchor).bases) == (
        f"# calibrated auxiliary bases\nquark_base_7_mev={quark}\ntop_lump_8_gev={lump}\n")


def _five_branch_row(comp, me, lepton, quark, lump):
    # the row sum as it was once written, skipping each zero-weight term
    total = 0.0
    if comp.electrons:
        total += comp.electrons * me
    if comp.muons:
        total += comp.muons * (me + lepton)
    if comp.lump:
        total += comp.lump * lump
    if comp.lepton_w:
        total += comp.lepton_w * lepton
    if comp.quark_w:
        total += comp.quark_w * quark
    return total


_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@given(me=_NON_NEGATIVE, lepton=_NON_NEGATIVE, quark=_NON_NEGATIVE, lump=_NON_NEGATIVE)
@settings(max_examples=500)
def test_the_branch_free_row_equals_the_five_branch_row_bit_for_bit(me, lepton, quark, lump):
    from dimorb.spectrum import _COEFFICIENTS, _rows
    # the muon Me + L is finite wherever L comes from a checked constant set
    assume(math.isfinite(me + lepton))
    expected = [_five_branch_row(row.composition, me, lepton, quark, lump) for row in TABLE]
    # the float weight matrix and the int compositions give the same bits
    for weights in (_COEFFICIENTS, [row.composition for row in TABLE]):
        got = _rows(weights, me, lepton, quark, lump)
        assert [value.hex() for value in got] == [value.hex() for value in expected]
    for row, weights, want in zip(TABLE, _COEFFICIENTS, expected):
        assert weights == row.composition and all(type(w) is float for w in weights), row.name
        # a caller passes 0.0 for a base whose weight is 0
        zeroed = (quark if row.composition.quark_w else 0.0, lump if row.composition.lump else 0.0)
        assert _rows((weights,), me, lepton, *zeroed)[0].hex() == want.hex(), row.name


_QUARK_MISSING = "uncalibrated base: the quark base at level 7 has not been calibrated"
_LUMP_MISSING = "uncalibrated base: the lumped level-8 term has not been calibrated"


@pytest.mark.parametrize("quark, lump, message", [
    (None, None, _QUARK_MISSING),
    (None, gev(162.0), _QUARK_MISSING),
    (mev(14.0), None, _LUMP_MISSING),
], ids=["both", "quark", "lump"])
def test_full_spectrum_names_the_missing_base(quark, lump, message):
    with pytest.raises(UncalibratedBaseError) as info:
        full_spectrum(C, AuxBaseSet(lepton_aux_base(C), quark, lump))
    assert str(info.value) == message


def test_uncalibrated_bases_raise():
    lepton_only = _lepton_bases()
    with pytest.raises(UncalibratedBaseError, match="uncalibrated base"):
        fermion_mass(composition("u"), lepton_only, C)
    # quark base present but no lump: the top still cannot be evaluated
    partial = AuxBaseSet(lepton_aux_base(C), quark_base_7=mev(14.0))
    with pytest.raises(UncalibratedBaseError, match="uncalibrated base"):
        fermion_mass(composition("t"), partial, C)


def test_quark_base_solved_from_default_anchor():
    base = calibrate_quark_base_7(C)
    expected = (332.3 - 3.0 * ME - 3.0 * _muon_mev()) / quartic_sum(1)
    assert base.mev == pytest.approx(expected, rel=1e-12)
    assert base.mev == pytest.approx(14.120342769037393, rel=1e-12)
    assert float(f"{base.mev:.3g}") == 14.1


def test_quark_base_anchor_choices_agree():
    reference = calibrate_quark_base_7(C, "d").mev
    for anchor in ANCHOR_CHOICES:
        other = calibrate_quark_base_7(C, anchor).mev
        assert abs(other - reference) / reference < TOL, anchor
    # the s row solves with weight 17
    s_base = calibrate_quark_base_7(C, "s").mev
    assert s_base == pytest.approx(
        (558.0 - 3.0 * ME - 3.0 * _muon_mev()) / quartic_sum(2), rel=1e-12
    )


def test_quark_base_rejects_unknown_anchor():
    with pytest.raises(ValueError, match="anchor"):
        calibrate_quark_base_7(C, "t")
    with pytest.raises(ValueError, match="anchor"):
        calibrate_quark_base_7(C, "mu")


def test_top_lump_solve():
    base = calibrate_quark_base_7(C)
    lump = calibrate_top_lump(C, base)
    expected = 176500.0 - 3.0 * _muon_mev() - base.mev * quartic_sum(5)
    assert lump.mev == pytest.approx(expected, rel=1e-12)
    assert lump.to(Unit.GEV).magnitude == pytest.approx(162.3595377688814, rel=1e-12)
    assert 0.0 < lump.to(Unit.GEV).magnitude < 176.5


def test_top_lump_inconsistent_inputs():
    # a large alpha makes the level-7 terms overshoot the top row
    strange = ModelConstants(alpha_e=0.05)
    base = calibrate_quark_base_7(strange)
    with pytest.raises(CalibrationError, match="inconsistent calibration"):
        calibrate_top_lump(strange, base)


def test_calibration_residuals():
    result = calibrate(C)
    assert set(result.residuals) == {"d", "t"}
    assert all(err <= 1e-12 for err in result.residuals.values())
    assert set(result.non_anchor_residuals) == {"mu", "tau", "u", "s", "c", "b"}
    assert all(err < TOL for err in result.non_anchor_residuals.values())


def test_full_spectrum_rows_and_values():
    result = calibrate(C)
    spectrum = full_spectrum(C, result.bases)
    assert [name for name, _ in spectrum] == [
        "nu_e", "e", "nu_mu", "nu_tau", "mu", "tau",
        "u", "d", "s", "c", "b", "t",
    ]
    masses = dict(spectrum)
    assert masses["u"].mev == pytest.approx(330.767003, rel=1e-12)
    assert masses["d"].mev == pytest.approx(332.3, rel=1e-12)
    assert masses["s"].mev == pytest.approx(558.2254843045982, rel=1e-12)
    assert masses["c"].mev == pytest.approx(1700.4402515966271, rel=1e-12)
    assert masses["b"].mev == pytest.approx(5316.7809974701995, rel=1e-12)
    assert masses["t"].mev == pytest.approx(176500.0, rel=1e-12)
    for row in TABLE:
        if row.table_mass.mev > 0.0 and row.note != "given":
            assert _rel_error(masses[row.name], row.table_mass) < TOL, row.name


def test_spectrum_difference_identities():
    result = calibrate(C)
    masses = dict(full_spectrum(C, result.bases))
    quark_base = result.bases.quark_base_7.mev
    b6 = boson_ladder(C).mass(6).mev
    # d and u differ by swapping three neutrinos for three electrons
    assert masses["d"].mev - masses["u"].mev == pytest.approx(3.0 * ME, rel=1e-12)
    # tau and mu differ by (17 - 1) * lepton base = 24 * B6
    assert masses["tau"].mev - masses["mu"].mev == pytest.approx(24.0 * b6, rel=1e-12)
    # s and d differ by (17 - 1) quark-base units
    assert masses["s"].mev - masses["d"].mev == pytest.approx(16.0 * quark_base, rel=1e-12)


def test_top_level7_contribution_size():
    result = calibrate(C)
    aux_7 = result.bases.quark_base_7.mev * quartic_sum(5)
    assert 13_000.0 < aux_7 < 15_000.0  # MeV


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_lepton_masses_scale_with_electron_mass(lam):
    scaled = ModelConstants(m_electron=mev(ME * lam))
    for name in ("mu", "tau"):
        base_mass = fermion_mass(composition(name), _lepton_bases(), C).mev
        new_mass = fermion_mass(composition(name), AuxBaseSet.lepton_only(scaled), scaled).mev
        assert new_mass == pytest.approx(lam * base_mass, rel=1e-12)
    for name in ("nu_e", "nu_mu", "nu_tau"):
        assert fermion_mass(composition(name), AuxBaseSet.lepton_only(scaled), scaled).mev == 0.0


def test_calibration_is_deterministic():
    first = calibrate(C)
    second = calibrate(C)
    assert first.bases == second.bases
    assert full_spectrum(C, first.bases) == full_spectrum(C, second.bases)


def test_calibration_file_round_trip():
    bases = calibrate(C).bases
    text = format_calibration(bases)
    again = format_calibration(load_bases(text, C))
    assert again == text
    rebuilt = load_bases(text, C)
    assert rebuilt.quark_base_7 == bases.quark_base_7
    assert rebuilt.top_lump_8.mev == pytest.approx(bases.top_lump_8.mev, rel=1e-12)


def test_calibration_file_tolerates_comments():
    text = (
        "# a comment\n"
        "\n"
        "quark_base_7_mev = 14.5\n"
        "top_lump_8_gev=162.0  \n"
    )
    values = parse_calibration(text)
    assert values == {"quark_base_7_mev": 14.5, "top_lump_8_gev": 162.0}


@pytest.mark.parametrize(
    "text, match",
    [
        ("quark_base_7_mev=14.5\n", "missing key"),
        ("quark_base_7_mev=14.5\ntop_lump_8_gev=abc\n", "not a number"),
        ("quark_base_7_mev=14.5\nbogus_key=1\ntop_lump_8_gev=162\n", "unknown key"),
        ("quark_base_7_mev=14.5\nquark_base_7_mev=14.5\ntop_lump_8_gev=162\n", "duplicate"),
        ("quark_base_7_mev\ntop_lump_8_gev=162\n", "key=value"),
        ("quark_base_7_mev=-1\ntop_lump_8_gev=162\n", "positive"),
        ("quark_base_7_mev=inf\ntop_lump_8_gev=162\n", "quark_base_7_mev is out of range"),
        # finite in GeV, but not in MeV
        ("quark_base_7_mev=14.5\ntop_lump_8_gev=1e306\n", "top_lump_8_gev is out of range"),
    ],
)
def test_calibration_file_rejects_malformed_text(text, match):
    with pytest.raises(CalibrationFileError, match=match):
        parse_calibration(text)


def test_format_calibration_needs_both_bases():
    with pytest.raises(ValueError):
        format_calibration(_lepton_bases())


@given(
    quark=st.floats(min_value=1e-6, max_value=1e6),
    lump=st.floats(min_value=1e-6, max_value=1e6),
)
@settings(max_examples=100)
def test_calibration_file_preserves_every_bit(quark, lump):
    bases = AuxBaseSet(lepton_aux_base(C), mev(quark), gev(lump))
    rebuilt = load_bases(format_calibration(bases), C)
    assert rebuilt.quark_base_7.mev == quark
    assert rebuilt.top_lump_8.to(Unit.GEV).magnitude == lump


def _log_uniform(low, high):
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0 ** e)


# (alpha_e, m_electron, m_z): wide draws span far-off magnitudes, narrow ones
# stay near the defaults, where about a third of the anchors calibrate
_LADDER_INPUTS = st.one_of(
    st.tuples(_log_uniform(-12.0, -1e-9), _log_uniform(-30.0, 30.0), _log_uniform(-30.0, 30.0)),
    st.tuples(_log_uniform(-3.0, -1.3), _log_uniform(-2.0, 0.3), _log_uniform(1.0, 3.0)),
)
_SWEPT = {"alpha": 0, "m_electron_mev": 1, "m_z_gev": 2, "theta_w_deg": 3, "planck_gev": 4}


def test_evaluate_reuses_the_core_only_for_the_instance_just_built(monkeypatch):
    from dimorb import spectrum
    calls = []
    core = spectrum._core
    monkeypatch.setattr(spectrum, "_core", lambda c: calls.append(c) or core(c))
    twin = ModelConstants(m_z=gev(90.0))
    built = ModelConstants(m_z=gev(90.0))
    assert twin == built and twin is not built
    assert calls == [twin, built]
    reused = evaluate(built)
    assert len(calls) == 2
    # an equal but distinct instance recomputes, and gets the same floats
    assert evaluate(twin) == reused
    assert len(calls) == 3 and calls[2] is twin
    assert evaluate(built, "d").rows[1:6] == reused.rows[1:6]
    assert len(calls) == 4



@pytest.mark.parametrize("fields", [
    {"alpha_e": 1e-300},
    {"m_z": gev(1e-320)},
    {"m_electron": mev(1e300), "alpha_e": 1e-10},
    {"alpha_e": -0.5},
    {"alpha_e": 2.0},
], ids=["top", "alpha_w", "tau", "alpha_e-negative", "alpha_e-above-1"])
def test_a_replace_built_set_is_checked_when_it_is_read(fields):
    # _replace and _make build through the constructor, so they raise its
    # message, each field's own check included
    with pytest.raises(ValueError) as rejected:
        ModelConstants(**fields)
    for build in (lambda: C._replace(**fields),
                  lambda: ModelConstants._make({**C._asdict(), **fields}.values())):
        with pytest.raises(ValueError) as raised:
            build()
        assert type(raised.value) is type(rejected.value)
        assert str(raised.value) == str(rejected.value)


def test_a_quark_base_below_one_mev_is_accepted():
    # anchor d leaves 332.3 - 6 Me - 3 L MeV for the base, under 1 MeV at this electron mass
    c = ModelConstants(m_electron=mev(0.5329))
    base = calibrate_quark_base_7(c).mev
    assert 0.0 < base < 1.0
    assert calibrate(c).bases.quark_base_7.mev == base


def test_a_ladder_top_just_inside_float_range_in_mev_is_accepted():
    # B11 = m_z / alpha_e**8 lands within a thousandth of the largest float once in MeV
    top = boson_ladder(ModelConstants(m_z=gev(1.797e305 * ALPHA**8)))[-1].mass
    assert math.isfinite(top.mev) and top.mev > sys.float_info.max / 1.001
    with pytest.raises(ValueError, match="the top boson mass"):
        ModelConstants(m_z=gev(1.7985e305 * ALPHA**8))


def test_copies_are_built_by_the_constructor(monkeypatch):
    from dimorb import spectrum
    built = ModelConstants(alpha_e=0.0074, m_z=gev(90.0))
    checked = []
    core = spectrum._core
    monkeypatch.setattr(spectrum, "_core", lambda c: checked.append(c) or core(c))
    copies = [copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built)),
              built._replace(theta_w_deg=built.theta_w_deg), ModelConstants._make(built)]
    assert all(type(c) is ModelConstants and c == built for c in copies)
    assert len(checked) == len(copies) and all(map(operator.is_, checked, copies))
    # the NamedTuple errors are unchanged
    with pytest.raises(TypeError):
        ModelConstants._make(list(built)[:4])
    # namedtuple._replace raises TypeError from Python 3.13 on, ValueError before
    with pytest.raises(TypeError if sys.version_info >= (3, 13) else ValueError,
                       match="unexpected field names"):
        built._replace(bogus=1)


@given(
    inputs=_LADDER_INPUTS,
    units=st.tuples(st.sampled_from(Unit), st.sampled_from(Unit)),
    theta=_log_uniform(-3.0, 1.95),
    planck=_log_uniform(-30.0, 30.0),
    anchor=st.sampled_from(ANCHOR_CHOICES),
    param=st.sampled_from(sorted(_SWEPT)),
)
@settings(max_examples=200, deadline=None)
def test_evaluate_equals_every_public_path_bit_for_bit(inputs, units, theta, planck, anchor,
                                                       param):
    alpha, electron, z = inputs
    try:
        c = ModelConstants(alpha, MassValue(electron, units[0]), MassValue(z, units[1]), theta,
                           gev(planck))
    except ValueError:
        assume(False)
    ev = evaluate(c)
    assert list(ev.ladder_gev) == [row.mass.magnitude for row in boson_ladder(c)]
    mix = electroweak_mix(c)
    assert (ev.alpha_w, ev.sin2_theta_w) == (mix.alpha_w, mix.sin2_theta_w)
    assert (ev.electron, ev.lepton_base) == (c.m_electron.mev, lepton_aux_base(c).mev)
    assert (ev.quark_base, ev.top_lump) == (None, None)
    lepton_only = AuxBaseSet.lepton_only(c)
    for row, mass in zip(TABLE, ev.rows):
        if mass is None:
            assert row.composition.quark_w
            with pytest.raises(UncalibratedBaseError):
                fermion_mass(row.composition, lepton_only, c)
        else:
            assert mass == fermion_mass(row.composition, lepton_only, c).mev

    # the six numbers a one-point sweep prints at 17 digits, which round-trip
    values = [alpha, c.m_electron.mev, c.m_z.to(Unit.GEV).magnitude, theta, planck]
    flags = ["--alpha", "--m-electron-mev", "--m-z-gev", "--theta-w-deg", "--planck-gev"]
    point = repr(values[_SWEPT[param]])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(["sweep", param, "--from", point, "--to", point, "--steps", "1",
                    "--digits", "17", "--format", "csv",
                    *(text for pair in zip(flags, map(repr, values)) for text in pair)])
    # the command line holds the masses in MeV and GeV
    swept = ModelConstants(alpha, mev(values[1]), gev(values[2]), theta, gev(planck))
    assert code == 0
    cli = evaluate(swept)
    mu, tau = TABLE.index(spectrum_row("mu")), TABLE.index(spectrum_row("tau"))
    assert [float(cell) for cell in out.getvalue().splitlines()[1].split(",")] == [
        values[_SWEPT[param]], cli.rows[mu], cli.rows[tau], cli.ladder_gev[1],
        cli.ladder_gev[6], cli.alpha_w]

    try:
        cal = calibrate(c, anchor)
    except CalibrationError as exc:
        with pytest.raises(CalibrationError, match=re.escape(str(exc))):
            evaluate(c, anchor)
        return
    ev = evaluate(c, anchor)
    assert (ev.lepton_base, ev.quark_base, ev.top_lump) == tuple(b.mev for b in cal.bases)
    assert ev.quark_base == calibrate_quark_base_7(c, anchor).mev
    assert ev.top_lump == calibrate_top_lump(c, cal.bases.quark_base_7).mev
    assert list(ev.rows) == [mass.mev for _, mass in full_spectrum(c, cal.bases)]
    expected = {row.name: abs(mass - row.table_mass.mev) / row.table_mass.mev
                for row, mass in zip(TABLE, ev.rows)
                if row.table_mass.mev != 0.0 and row.note != "given"}
    assert {**cal.residuals, **cal.non_anchor_residuals} == expected
    assert set(cal.residuals) == {anchor, "t"}


def _masses(ev) -> list[float]:
    return [*ev.ladder_gev, ev.electron, ev.lepton_base, *(m for m in ev.rows if m is not None)]


@given(inputs=_LADDER_INPUTS, theta=_log_uniform(-3.0, 1.95),
       k=st.integers(min_value=-20, max_value=20))
@settings(max_examples=300, deadline=None)
def test_a_power_of_two_on_both_masses_scales_every_mass_exactly(inputs, theta, k):
    # each mass is built from terms that carry one power of the two input
    # masses, so a power of two passes through every rounding unchanged while
    # the numbers stay normal; a term that does not scale breaks this
    alpha, electron, z = inputs
    try:
        base = evaluate(ModelConstants(alpha, mev(electron), gev(z), theta))
        scaled = evaluate(ModelConstants(alpha, mev(math.ldexp(electron, k)),
                                         gev(math.ldexp(z, k)), theta))
    except ValueError:
        assume(False)
    assume(all(m == 0.0 or sys.float_info.min <= m < math.inf
               for m in _masses(base) + _masses(scaled)))
    assert _masses(scaled) == [math.ldexp(m, k) for m in _masses(base)]
    assert scaled.rows.count(None) == base.rows.count(None)
    # the couplings are ratios of masses, so they do not move at all
    assert (scaled.alpha_w, scaled.sin2_theta_w) == (base.alpha_w, base.sin2_theta_w)

import contextlib
import io
import json
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimorb import cli, spectrum
from dimorb.cli import run
from dimorb.quantities import ModelConstants, gev, mev
from dimorb.spectrum import calibrate, format_calibration

LEPTON_CSV = (
    "name,value,unit,uncertainty,source\n"
    "muon,105.6,MeV,,reference table\n"
    "tau,1786,MeV,,reference table\n"
)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bosons_table(capsys):
    code, out, err = _run(capsys, "bosons")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 + 7
    assert lines[2].startswith("5")
    assert "91.177" in out
    assert "1.13387e+19" in out


def test_bosons_csv_has_seven_data_rows(capsys):
    code, out, _ = _run(capsys, "bosons", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,gauge,symmetry,mass_gev"
    assert len(lines) == 1 + 7


def test_bosons_closed_form_column(capsys):
    code, out, _ = _run(capsys, "bosons", "--closed-form", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(",closed_form_gev")
    top = lines[-1].split(",")
    assert top[0] == "11"
    assert top[-1] == "1.2e+19"


def test_bosons_json(capsys):
    code, out, _ = _run(capsys, "bosons", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 7
    assert entries[0]["d"] == 5
    assert entries[6]["symmetry"] == "gravity"


def test_explicit_default_flag_changes_nothing(capsys):
    _, plain, _ = _run(capsys, "bosons")
    _, flagged, _ = _run(capsys, "bosons", "--alpha", "0.0072973525693")
    assert plain == flagged


def test_calibrate_writes_file(tmp_path, capsys):
    out_path = tmp_path / "cal.txt"
    code, out, err = _run(capsys, "calibrate", "--out", str(out_path))
    assert code == 0
    assert f"wrote {out_path}" in err
    assert out_path.read_text() == format_calibration(calibrate(ModelConstants()).bases)
    assert "anchor" in out and "held-out" in out
    # a second run produces identical bytes
    first = out_path.read_text()
    assert _run(capsys, "calibrate", "--out", str(out_path))[0] == 0
    assert out_path.read_text() == first


def test_calibrate_alternate_anchor(tmp_path, capsys):
    d_path = tmp_path / "d.txt"
    s_path = tmp_path / "s.txt"
    assert _run(capsys, "calibrate", "--out", str(d_path))[0] == 0
    assert _run(capsys, "calibrate", "--out", str(s_path), "--anchors", "s")[0] == 0
    d_base = float(d_path.read_text().splitlines()[1].split("=")[1])
    s_base = float(s_path.read_text().splitlines()[1].split("=")[1])
    assert d_base != s_base
    assert abs(s_base - d_base) / d_base < 0.005


def test_fermions_needs_a_calibration_source(capsys):
    code, _, err = _run(capsys, "fermions")
    assert code == 1
    assert "--calibration" in err and "--calibrate" in err
    assert "(--calibration FILE | --calibrate)" in err


def test_fermions_in_memory_calibration(capsys):
    code, out, _ = _run(capsys, "fermions", "--calibrate")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 + 12
    assert "105.549" in out
    assert out.count("massless") == 3
    assert out.count("given") == 1
    top = lines[-1]
    assert top.startswith("t") and "176.5" in top and "GeV" in top


def test_fermions_from_calibration_file(tmp_path, capsys):
    path = tmp_path / "cal.txt"
    assert _run(capsys, "calibrate", "--out", str(path))[0] == 0
    code, out, _ = _run(capsys, "fermions", "--calibration", str(path))
    assert code == 0
    _, in_memory, _ = _run(capsys, "fermions", "--calibrate")
    assert out == in_memory


def test_fermions_missing_calibration_file(tmp_path, capsys):
    code, _, err = _run(capsys, "fermions", "--calibration", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error" in err


def test_fermions_bad_calibration_file(tmp_path, capsys):
    path = tmp_path / "cal.txt"
    path.write_text("quark_base_7_mev=oops\ntop_lump_8_gev=1\n")
    code, _, err = _run(capsys, "fermions", "--calibration", str(path))
    assert code == 2
    assert "not a number" in err


def test_fermions_calibration_error_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("quark_base_7_mev=14.5\nbogus\ntop_lump_8_gev=162\n")
    code, out, err = _run(capsys, "fermions", "--calibration", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}:2: expected key=value" in err


def test_fermions_sources_are_mutually_exclusive(capsys):
    code, _, _ = _run(capsys, "fermions", "--calibrate", "--calibration", "x.txt")
    assert code == 1


def test_fermions_csv(capsys):
    code, out, _ = _run(capsys, "fermions", "--calibrate", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,orbitals,constituents,mass,unit,note"
    assert len(lines) == 1 + 12


def test_compare_default_markdown(capsys):
    code, out, err = _run(capsys, "compare")
    assert code == 0
    assert "| top_quark | 176.5 | 176 | GeV |" in out
    assert "| planck_mass | 1.1e+19 |" in out
    assert "Skipped (no matching name):" in out


def test_compare_check_default_set_breaches(capsys):
    # theta_w sits 3.4% away, far beyond half a percent
    code, _, err = _run(capsys, "compare", "--check", "--tol", "0.005")
    assert code == 3
    assert "theta_w" in err


def test_compare_check_lepton_rows_pass(tmp_path, capsys):
    path = tmp_path / "leptons.csv"
    path.write_text(LEPTON_CSV)
    code, out, _ = _run(capsys, "compare", "--observed", str(path), "--check",
                        "--tol", "0.005")
    assert code == 0
    assert "| muon |" in out and "| tau |" in out
    tight = _run(capsys, "compare", "--observed", str(path), "--check",
                 "--tol", "0.0001")
    assert tight[0] == 3


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_compare_check_rejects_bad_tolerance(tol, tmp_path, capsys):
    code, out, err = _run(capsys, "compare", "--check", "--tol", tol)
    assert code == 1
    assert out == ""
    assert "--tol" in err
    # the argument is checked before the observed file is read
    code, out, err = _run(capsys, "compare", "--check", "--tol", tol,
                          "--observed", str(tmp_path / "absent.csv"))
    assert (code, out) == (1, "")
    assert err == "dimorb: error: --tol must be a finite positive number\n"


def test_compare_json_parses(capsys):
    code, out, err = _run(capsys, "compare", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 4
    assert "skipped computed:" in err


_SKIPPED_BY_DEFAULT = (
    "boson_5, boson_6, boson_7, boson_8, boson_9, boson_10, boson_11, alpha_w, "
    "sin2_theta_w, dark_fraction, nu_e, e, nu_mu, nu_tau, muon, tau, u_quark, d_quark, "
    "s_quark, c_quark, b_quark"
)


def test_compare_csv_is_exact(capsys):
    assert _run(capsys, "compare", "--format", "csv") == (0, (
        "name,computed,observed,unit,rel_error,within_uncertainty\n"
        "top_quark,176.5,176,GeV,0.00284091,true\n"
        "theta_w,29.69,28.7,degree,0.0344948,\n"
        "baryon_fraction,0.142857,0.13,dimensionless,0.0989011,\n"
        "planck_mass,1.1e+19,1.2e+19,GeV,0.0833333,\n"
        f"# skipped computed: {_SKIPPED_BY_DEFAULT}\n"
    ), "")


def test_compare_json_is_exact(capsys):
    entries = [
        ("top_quark", "176.5", "176.0", "0.00284091", True),
        ("theta_w", "29.69", "28.7", "0.0344948", None),
        ("baryon_fraction", "0.142857", "0.13", "0.0989011", None),
        ("planck_mass", "1.1e+19", "1.2e+19", "0.0833333", None),
    ]
    expected = ",\n".join(
        f'  {{\n    "name": "{name}",\n    "computed": {computed},\n'
        f'    "observed": {observed},\n    "rel_error": {rel}'
        + (',\n    "within_uncertainty": true' if within else "") + "\n  }"
        for name, computed, observed, rel, within in entries
    )
    # json output is a pure array, so the skip summary goes to stderr
    assert _run(capsys, "compare", "--format", "json") == (
        0, f"[\n{expected}\n]\n", f"skipped computed: {_SKIPPED_BY_DEFAULT}\n")


def test_bosons_json_is_exact(capsys):
    rows = [
        (5, "A", "electromagnetic, U(1)", "3.72894e-06"),
        (6, "pi_1/2", "strong, SU(3) -> U(1)", "0.0700253"),
        (7, "Z_L^0", "weak (left), SU(2)_L", "91.177"),
        (8, "X_R", "CP (right) nonconservation, U(1)_R", "1712200.0"),
        (9, "X_L", "CP (left) nonconservation, U(1)_L", "32153200000.0"),
        (10, "Z_R^0", "weak (right), SU(2)_R", "603800000000000.0"),
        (11, "G", "gravity", "1.13387e+19"),
    ]
    expected = ",\n".join(
        f'  {{\n    "d": {d},\n    "gauge": "{gauge}",\n    "symmetry": "{symmetry}",\n'
        f'    "mass_gev": {mass}\n  }}'
        for d, gauge, symmetry, mass in rows
    )
    assert _run(capsys, "bosons", "--format", "json") == (0, f"[\n{expected}\n]\n", "")


def test_compare_malformed_observed(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("name,value,unit,uncertainty,source\nmuon,105.6,parsec,,x\n")
    code, out, err = _run(capsys, "compare", "--observed", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}:2:3: unknown unit 'parsec'" in err


@pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--check"]])
def test_compare_negative_observed_mass_exits_2(extra, tmp_path, capsys):
    path = tmp_path / "negative.csv"
    path.write_text("name,value,unit,uncertainty,source\nmuon,-105.6,MeV,300,x\n")
    code, out, err = _run(capsys, "compare", "--observed", str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == f"dimorb: error: {path}:2:2: observed mass must be >= 0, got -105.6 MeV\n"


@pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--check"]])
def test_compare_tiny_observed_value_exits_2(extra, tmp_path, capsys):
    # 105.5 MeV against 1e-320 MeV has a relative error beyond float range
    path = tmp_path / "tiny.csv"
    path.write_text("name,value,unit,uncertainty,source\nmuon,1e-320,MeV,,x\n")
    code, out, err = _run(capsys, "compare", "--observed", str(path), *extra)
    assert code == 2
    assert out == ""
    assert f"{path}: relative error for 'muon' overflows a float" in err


def test_compare_unit_kind_mismatch_names_the_file(tmp_path, capsys):
    path = tmp_path / "angle.csv"
    path.write_text("name,value,unit,uncertainty,source\ntheta_w,29.0,MeV,,x\n")
    code, out, err = _run(capsys, "compare", "--observed", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}: unit kind mismatch for 'theta_w'" in err


def test_compare_is_deterministic(capsys):
    first = _run(capsys, "compare", "--format", "csv")
    second = _run(capsys, "compare", "--format", "csv")
    assert first == second


def test_sweep_rows_and_monotonic_muon(capsys):
    code, out, _ = _run(capsys, "sweep", "alpha", "--from", "0.0072973525693",
                        "--to", "0.0145947051386", "--steps", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,muon_mev,tau_mev,boson_6_gev,boson_11_gev,alpha_w"
    assert len(lines) == 1 + 3
    muons = [float(line.split(",")[1]) for line in lines[1:]]
    assert muons[0] == pytest.approx(105.549, abs=1e-3)
    assert muons[0] > muons[1] > muons[2]


def test_sweep_rejects_bad_ranges(capsys):
    assert _run(capsys, "sweep", "alpha", "--from", "0.001", "--to", "0.002",
                "--steps", "0")[0] == 1
    assert _run(capsys, "sweep", "alpha", "--from", "-1", "--to", "0.5",
                "--steps", "2")[0] == 1


def _sweep_17(param, start, stop):
    return ["sweep", param, "--from", start, "--to", stop, "--steps", "3", "--digits", "17"]


_SWEEP_17 = _sweep_17("alpha", "0.0073", "0.0146")
_SWEEP_17_ROWS = [
    ["alpha", "muon_mev", "tau_mev", "boson_6_gev", "boson_11_gev", "alpha_w"],
    ["0.0073000000000000001", "105.51079352054794", "1785.5075058493151",
     "0.069999863013698621", "1.1305829131092953e+19", "0.029728058156235738"],
    ["0.01095", "70.510862013698627", "1190.5086702328767",
     "0.046666575342465752", "4.4113584172531565e+17", "0.024272857842187082"],
    ["0.0146", "53.010896260273967", "893.00925242465746",
     "0.034999931506849311", "44163395043331848", "0.021020911513782343"],
]
# the ladder is fixed by alpha_e, Me and M_Z alone, so a theta_w_deg sweep keeps four
# columns at one value, a planck_gev sweep five and a zero-width sweep all six
_THETA_17 = _sweep_17("theta_w_deg", "28", "31")
_PLANCK_17 = _sweep_17("planck_gev", "1e19", "1.4e19")
_FLAT_17 = _sweep_17("m_electron_mev", "0.5", "0.5")
_FIXED_17 = ["105.54888674365419", "1786.1550906421214", "0.07002525849576946",
             "1.1338684260539054e+19"]
_FLAT_17_ROW = ["0.5", "103.27699931277185", "1747.7089883171213", "0.068517999541847896",
                "1.1338684260539054e+19", "0.029411710614288957"]
_SWEEP_17_CSV = [
    (_SWEEP_17, _SWEEP_17_ROWS),
    (_THETA_17, [["theta_w_deg", *_SWEEP_17_ROWS[0][1:]],
                 ["28", *_FIXED_17, "0.029492884337194929"],
                 ["29.5", *_FIXED_17, "0.029705462817499185"],
                 ["31", *_FIXED_17, "0.029933114952143684"]]),
    (_PLANCK_17, [["planck_gev", *_SWEEP_17_ROWS[0][1:]],
                  *([point, *_FIXED_17, "0.029733450237551071"]
                    for point in ("1e+19", "1.2e+19", "1.4e+19"))]),
    (_FLAT_17, [["m_electron_mev", *_SWEEP_17_ROWS[0][1:]], *[_FLAT_17_ROW] * 3]),
]


def test_sweep_csv_is_exact(capsys):
    # every digit a double carries, so any reordered arithmetic shows
    for argv, rows in _SWEEP_17_CSV:
        code, out, _ = _run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out == "".join(",".join(row) + "\n" for row in rows), argv


_SWEEP_17_TABLES = [
    (_SWEEP_17,
        "alpha                  muon_mev            tau_mev             boson_6_gev"
        "           boson_11_gev            alpha_w\n"
        "---------------------  ------------------  ------------------  --------------------"
        "  ----------------------  --------------------\n"
        "0.0073000000000000001  105.51079352054794  1785.5075058493151  0.069999863013698621"
        "  1.1305829131092953e+19  0.029728058156235738\n"
        "0.01095                70.510862013698627  1190.5086702328767  0.046666575342465752"
        "  4.4113584172531565e+17  0.024272857842187082\n"
        "0.0146                 53.010896260273967  893.00925242465746  0.034999931506849311"
        "  44163395043331848       0.021020911513782343\n"),
    (_THETA_17,
        "theta_w_deg  muon_mev            tau_mev             boson_6_gev        "
        "  boson_11_gev            alpha_w\n"
        "-----------  ------------------  ------------------  -------------------"
        "  ----------------------  --------------------\n"
        "28           105.54888674365419  1786.1550906421214  0.07002525849576946"
        "  1.1338684260539054e+19  0.029492884337194929\n"
        "29.5         105.54888674365419  1786.1550906421214  0.07002525849576946"
        "  1.1338684260539054e+19  0.029705462817499185\n"
        "31           105.54888674365419  1786.1550906421214  0.07002525849576946"
        "  1.1338684260539054e+19  0.029933114952143684\n"),
    (_PLANCK_17,
        "planck_gev  muon_mev            tau_mev             boson_6_gev        "
        "  boson_11_gev            alpha_w\n"
        "----------  ------------------  ------------------  -------------------"
        "  ----------------------  --------------------\n"
        "1e+19       105.54888674365419  1786.1550906421214  0.07002525849576946"
        "  1.1338684260539054e+19  0.029733450237551071\n"
        "1.2e+19     105.54888674365419  1786.1550906421214  0.07002525849576946"
        "  1.1338684260539054e+19  0.029733450237551071\n"
        "1.4e+19     105.54888674365419  1786.1550906421214  0.07002525849576946"
        "  1.1338684260539054e+19  0.029733450237551071\n"),
    (_FLAT_17,
        "m_electron_mev  muon_mev            tau_mev             boson_6_gev         "
        "  boson_11_gev            alpha_w\n"
        "--------------  ------------------  ------------------  --------------------"
        "  ----------------------  --------------------\n"
        + "0.5             103.27699931277185  1747.7089883171213  0.068517999541847896"
        "  1.1338684260539054e+19  0.029411710614288957\n" * 3),
]


def test_sweep_table_is_exact(capsys):
    for argv, expected in _SWEEP_17_TABLES:
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert out == expected, argv


def _json_rows(columns, rows):
    # json.dumps(..., indent=2) layout; each cell is given as its json text
    return "[\n" + ",\n".join(
        "  {\n" + ",\n".join(f'    "{name}": {cell}' for name, cell in zip(columns, row))
        + "\n  }" for row in rows) + "\n]\n"


_SWEEP_JSON_COLUMNS = ["muon_mev", "tau_mev", "boson_6_gev", "boson_11_gev", "alpha_w"]


@pytest.mark.parametrize("param, start, stop, rows", [
    ("alpha", "0.0073", "0.0146", [
        ["0.0073", "105.51079352054794", "1785.507505849315", "0.06999986301369862",
         "1.1305829131092953e+19", "0.029728058156235738"],
        ["0.01095", "70.51086201369863", "1190.5086702328767", "0.04666657534246575",
         "4.4113584172531565e+17", "0.024272857842187082"],
        ["0.0146", "53.01089626027397", "893.0092524246575", "0.03499993150684931",
         "4.416339504333185e+16", "0.021020911513782343"],
    ]),
    ("m_z_gev", "80", "100", [
        ["80.0", "105.5488867436542", "1786.1550906421214", "0.07002525849576946",
         "9.94872326182178e+18", "0.031742634096902776"],
        ["90.0", "105.5488867436542", "1786.1550906421214", "0.07002525849576946",
         "1.11923136695495e+19", "0.029927242430191032"],
        ["100.0", "105.5488867436542", "1786.1550906421214", "0.07002525849576946",
         "1.2435904077277225e+19", "0.028391475050230902"],
    ]),
    ("m_electron_mev", "0.5", "0.5", [
        ["0.5", "103.27699931277185", "1747.7089883171213", "0.0685179995418479",
         "1.1338684260539054e+19", "0.029411710614288957"],
    ] * 3),
])
def test_sweep_json_is_exact(param, start, stop, rows, capsys):
    argv = ["sweep", param, "--from", start, "--to", stop, "--steps", "3",
            "--format", "json", "--digits", "17"]
    expected = _json_rows([param, *_SWEEP_JSON_COLUMNS], rows)
    assert _run(capsys, *argv) == (0, expected, "")


# each sweepable key: the field it sets, its wrapper and a range that stays in range
_SWEEPS = {
    "alpha": ("alpha_e", float, 1e-3, 0.5),
    "m_electron_mev": ("m_electron", mev, 1e-3, 1e3),
    "m_z_gev": ("m_z", gev, 1.0, 1e4),
    "theta_w_deg": ("theta_w_deg", float, 1.0, 89.0),
    "planck_gev": ("planck_ref", gev, 1e10, 1e25),
}


def _printed_rows(fmt, out):
    if fmt == "json":
        return [list(row.values()) for row in json.loads(out)]
    if fmt == "csv":
        return [line.split(",") for line in out.splitlines()[1:]]
    return [line.split() for line in out.splitlines()[2:]]


@given(data=st.data(), fmt=st.sampled_from(("table", "csv", "json")), steps=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_every_sweep_row_is_the_evaluation_of_its_point(data, fmt, steps):
    param = data.draw(st.sampled_from(tuple(_SWEEPS)))
    field, wrap, low, high = _SWEEPS[param]
    start, stop = data.draw(st.floats(low, high)), data.draw(st.floats(low, high))
    code, out, _ = _run_quiet(["sweep", param, "--from", repr(start), "--to", repr(stop),
                               "--steps", str(steps), "--format", fmt, "--digits", "17"])
    assert code == 0
    step = (stop - start) / (steps - 1) if steps > 1 else 0.0
    points = [start + i * step for i in range(steps)]
    rows = _printed_rows(fmt, out)
    assert len(rows) == steps
    mu, tau = (spectrum.TABLE.index(spectrum.spectrum_row(name)) for name in ("mu", "tau"))
    for point, row in zip(points, rows):
        ev = spectrum.evaluate(ModelConstants(**{field: wrap(point)}))
        expected = [point, ev.rows[mu], ev.rows[tau], ev.ladder_gev[1], ev.ladder_gev[6],
                    ev.alpha_w]
        # 17 digits print every float exactly
        assert [float(cell).hex() for cell in row] == [value.hex() for value in expected]


_FERMION_JSON_COLUMNS = ["name", "orbitals", "constituents", "mass", "unit", "note"]
# (name, orbitals, constituents, unit, note, mass at --digits 6, mass at --digits 17)
_FERMION_JSON_ROWS = [
    ("nu_e", "5_0", "nu_e", "MeV", "massless", "0.0", "0.0"),
    ("e", "6_0", "e", "MeV", "given", "0.510999", "0.510999"),
    ("nu_mu", "7_0", "nu_mu", "MeV", "massless", "0.0", "0.0"),
    ("nu_tau", "8_0", "nu_tau", "MeV", "massless", "0.0", "0.0"),
    ("mu", "6_0 + 7_0 + 7_1", "e + nu_mu + mu_7", "MeV", "", "105.549", "105.5488867436542"),
    ("tau", "6_0 + 7_0 + 7_2", "e + nu_mu + tau_7", "MeV", "", "1786.16",
     "1786.1550906421214"),
    ("u", "5_0 + 7_0 + 7_1", "u_5 + q_7 + u_7", "MeV", "", "330.767", "330.767003"),
    ("d", "6_0 + 7_0 + 7_1", "d_6 + q_7 + d_7", "MeV", "", "332.3", "332.3"),
    ("s", "6_0 + 7_0 + 7_2", "d_6 + q_7 + s_7", "MeV", "", "558.225", "558.2254843045982"),
    ("c", "5_0 + 7_0 + 7_3", "u_5 + q_7 + c_7", "MeV", "", "1700.44", "1700.4402515966271"),
    ("b", "6_0 + 7_0 + 7_4", "d_6 + q_7 + b_7", "MeV", "", "5316.78", "5316.7809974701995"),
    ("t", "5_0 + 7_0 + 7_5 + 8_0 + 8_2", "u_5 + q_7 + t_7 + q_8 + t_8", "GeV", "",
     "176.5", "176.5"),
]


@pytest.mark.parametrize("digits, mass_at", [("6", 5), ("17", 6)])
def test_fermions_json_is_exact(digits, mass_at, capsys):
    rows = [[f'"{row[0]}"', f'"{row[1]}"', f'"{row[2]}"', row[mass_at], f'"{row[3]}"',
             f'"{row[4]}"'] for row in _FERMION_JSON_ROWS]
    argv = ["fermions", "--calibrate", "--format", "json"]
    if digits != "6":
        argv += ["--digits", digits]
    assert _run(capsys, *argv) == (0, _json_rows(_FERMION_JSON_COLUMNS, rows), "")


def test_sweep_steps_are_capped(capsys, monkeypatch):
    argv = ["sweep", "alpha", "--from", "0.007", "--to", "0.008"]
    code, out, err = _run(capsys, *argv, "--steps", "100001")
    assert code == 1
    assert out == ""
    assert "--steps must be at most 100000" in err
    # the cap itself is allowed; a lowered cap keeps the check fast
    monkeypatch.setattr(cli, "MAX_SWEEP_STEPS", 3)
    code, out, _ = _run(capsys, *argv, "--steps", "3", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3
    assert _run(capsys, *argv, "--steps", "4")[:2] == (1, "")


def test_usage_errors_exit_1(capsys):
    assert _run(capsys)[0] == 1
    assert _run(capsys, "frobnicate")[0] == 1
    assert _run(capsys, "bosons", "--alpha", "not-a-number")[0] == 1
    assert _run(capsys, "bosons", "--format", "yaml")[0] == 1


def test_out_of_range_constants_exit_1(capsys):
    code, _, err = _run(capsys, "bosons", "--alpha", "2.0")
    assert code == 1
    assert "alpha_e" in err
    assert _run(capsys, "bosons", "--m-electron-mev", "-1")[0] == 1
    assert _run(capsys, "bosons", "--theta-w-deg", "95")[0] == 1


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["bosons", "--m-z-gev", "-1"], None, "m_z from --m-z-gev is out of range"),
        (["bosons", "--m-electron-mev", "nan"], None,
         "m_electron from --m-electron-mev is out of range"),
        (["bosons"], "m_z_gev=-1\n", "m_z from config:{config} is out of range"),
        # finite in GeV, but not once converted to MeV
        (["compare", "--planck-gev", "1e306"], None, "planck_ref from --planck-gev is out of range"),
        (["sweep", "m_z_gev", "--from", "90", "--to", "-90", "--steps", "2"], None,
         "m_z from the sweep of m_z_gev is out of range"),
        # values the constructor's own field check rejects, past the mass wrappers
        (["bosons", "--alpha", "2"], None, "alpha_e from --alpha is out of range: "
         "alpha_e must lie strictly inside (0, 1), got 2.0\n"),
        (["bosons"], "alpha=2\n", "alpha_e from config:{config} is out of range: "
         "alpha_e must lie strictly inside (0, 1), got 2.0\n"),
        (["bosons"], "theta_w_deg=95\n", "theta_w_deg from config:{config} is out of range: "
         "theta_w_deg must lie strictly inside (0, 90), got 95.0\n"),
        (["bosons", "--m-z-gev", "0"], None,
         "m_z from --m-z-gev is out of range: m_z must be positive, got 0 GeV\n"),
        (["sweep", "theta_w_deg", "--from", "10", "--to", "95", "--steps", "2"], None,
         "theta_w_deg from the sweep of theta_w_deg is out of range: "
         "theta_w_deg must lie strictly inside (0, 90), got 95.0\n"),
        # an infinite step: the first point is --from itself, not --from + 0 * inf (nan)
        (["sweep", "alpha", "--from", "0.007", "--to", "inf", "--steps", "2"], None,
         "alpha_e from the sweep of alpha is out of range: "
         "alpha_e must lie strictly inside (0, 1), got inf\n"),
        (["sweep", "alpha", "--from=-1e308", "--to", "1e308", "--steps", "3"], None,
         "alpha_e from the sweep of alpha is out of range: "
         "alpha_e must lie strictly inside (0, 1), got -1e+308\n"),
    ],
    ids=["flag", "flag-nan", "config", "mev-overflow", "sweep", "field-flag", "field-config",
         "field-config-angle", "field-zero-mass", "field-sweep", "sweep-to-inf",
         "sweep-step-overflow"],
)
def test_bad_mass_constant_names_field_and_source(argv, config, named, tmp_path, capsys,
                                                  monkeypatch):
    path = tmp_path / "model.conf"
    if config is not None:
        path.write_text(config)
        monkeypatch.setenv("DIMORB_CONFIG", str(path))
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert named.format(config=path) in err


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (["bosons", "--m-z-gev", "1e308"], "m_z"),
        (["bosons", "--alpha", "1e-40"], "alpha_e"),
        (["compare", "--m-electron-mev", "1e306"], "m_electron"),
        (["sweep", "alpha", "--from", "0.007", "--to", "0.008", "--steps", "2",
          "--m-electron-mev", "1e306"], "m_electron"),
        (["sweep", "m_z_gev", "--from", "90", "--to", "1e308", "--steps", "2"], "m_z"),
        # finite in GeV, but compare converts it to the observed row's MeV
        (["compare", "--m-z-gev", "1e290", "--observed", "{observed}"], "m_z"),
    ],
)
def test_overflowing_constants_exit_1_and_name_the_culprit(argv, culprit, tmp_path, capsys):
    observed = tmp_path / "observed.csv"
    observed.write_text("name,value,unit,uncertainty,source\nboson_11,1e300,MeV,,x\n")
    code, out, err = _run(capsys, *(arg.format(observed=observed) for arg in argv))
    assert code == 1
    assert out == ""
    assert "out of range" in err and culprit in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--alpha", "0.001"],
        ["fermions", "--calibrate", "--m-electron-mev", "5"],
        ["calibrate", "--alpha", "0.001", "--out", "{out}"],
    ],
)
def test_uncalibratable_constants_exit_1_and_name_them(argv, tmp_path, capsys):
    out_path = tmp_path / "cal.txt"
    code, out, err = _run(capsys, *(arg.format(out=out_path) for arg in argv))
    assert code == 1
    assert out == ""
    assert "inconsistent calibration" in err
    assert "alpha_e = " in err and "m_electron = " in err
    assert not out_path.exists()


def _run_quiet(argv):
    # capsys is function scoped, so Hypothesis tests capture by hand
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


_LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)
_CONSTANT_FLAGS = ("--alpha", "--m-electron-mev", "--m-z-gev", "--theta-w-deg", "--planck-gev")
_SWEEP_PARAMS = ("alpha", "m_electron_mev", "m_z_gev", "theta_w_deg", "planck_gev")
_NON_FINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)


@given(
    values=st.tuples(*[_LOG_UNIFORM] * len(_CONSTANT_FLAGS)),
    param=st.sampled_from(_SWEEP_PARAMS),
    start=_LOG_UNIFORM,
    stop=_LOG_UNIFORM,
)
@settings(max_examples=300, deadline=None)
def test_extreme_constants_exit_0_or_1_and_print_only_finite_numbers(values, param, start,
                                                                      stop):
    flags = [text for flag, value in zip(_CONSTANT_FLAGS, values)
             for text in (flag, repr(value))]
    for argv in (
        ["bosons", "--closed-form", *flags],
        ["sweep", param, "--from", repr(start), "--to", repr(stop), "--steps", "2", *flags],
    ):
        code, out, _ = _run_quiet(argv)
        assert code in (0, 1), argv
        assert not _NON_FINITE.search(out), argv
        if code == 1:
            assert out == ""


def _count_core_calls(monkeypatch) -> dict[str, int]:
    # `_core` computes Me and L, `_ladder_gev` the ladder that alpha_w is read from
    calls = {"core": 0, "ladder": 0}
    for name, key in (("_core", "core"), ("_ladder_gev", "ladder")):
        def counted(*args, _wrapped=getattr(spectrum, name), _key=key):
            calls[_key] += 1
            return _wrapped(*args)
        monkeypatch.setattr(spectrum, name, counted)
    return calls


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_a_sweep_evaluates_each_point_once(steps, capsys, monkeypatch):
    # once per point, and once for the constants the sweep starts from
    calls = _count_core_calls(monkeypatch)
    code, out, _ = _run(capsys, "sweep", "alpha", "--from", "0.007", "--to", "0.008",
                        "--steps", str(steps), "--format", "csv")
    assert (code, len(out.splitlines())) == (0, 1 + steps)
    assert calls == {"core": steps + 1, "ladder": steps + 1}


@pytest.mark.parametrize("argv", [["bosons", "--closed-form"], ["calibrate", "--out"],
                                  ["fermions", "--calibrate"], ["compare"]])
def test_each_command_computes_the_core_once(argv, capsys, monkeypatch, tmp_path):
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "cal.txt")]
    calls = _count_core_calls(monkeypatch)
    assert _run(capsys, *argv)[0] == 0
    assert calls == {"core": 1, "ladder": 1}


def test_digits_flag(capsys):
    code, out, _ = _run(capsys, "fermions", "--calibrate", "--digits", "10")
    assert code == 0
    assert "105.5488867" in out
    assert _run(capsys, "bosons", "--digits", "0")[0] == 1


def test_config_file_via_environment(tmp_path, capsys, monkeypatch):
    config = tmp_path / "model.conf"
    config.write_text("# test config\nm_z_gev=90\n")
    monkeypatch.setenv("DIMORB_CONFIG", str(config))
    _, out, _ = _run(capsys, "bosons", "--format", "csv")
    z_row = out.splitlines()[3]
    assert z_row.split(",")[-1] == "90"
    # a flag still wins over the config file
    _, out, _ = _run(capsys, "bosons", "--format", "csv", "--m-z-gev", "91.177")
    assert out.splitlines()[3].split(",")[-1] == "91.177"


def test_config_file_errors(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "absent.conf"
    monkeypatch.setenv("DIMORB_CONFIG", str(missing))
    assert _run(capsys, "bosons")[0] == 2

    bad = tmp_path / "bad.conf"
    bad.write_text("m_z_gev ninety\n")
    monkeypatch.setenv("DIMORB_CONFIG", str(bad))
    code, _, err = _run(capsys, "bosons")
    assert code == 2
    assert "key=value" in err

    unknown = tmp_path / "unknown.conf"
    unknown.write_text("zeppelin=1\n")
    monkeypatch.setenv("DIMORB_CONFIG", str(unknown))
    code, _, err = _run(capsys, "bosons")
    assert code == 2
    assert "unknown key" in err

    out_of_range = tmp_path / "range.conf"
    out_of_range.write_text("alpha=2\n")
    monkeypatch.setenv("DIMORB_CONFIG", str(out_of_range))
    assert _run(capsys, "bosons")[0] == 1


@pytest.mark.parametrize("argv, message", [
    (["bosons", "--digits", "0"], "--digits must be at least 1"),
    (["sweep", "alpha", "--from", "0.007", "--to", "0.008", "--steps", "0"],
     "--steps must be at least 1"),
    (["sweep", "alpha", "--from", "0.007", "--to", "0.008", "--steps", "100001"],
     "--steps must be at most 100000"),
    (["compare", "--check", "--tol", "0"], "--tol must be a finite positive number"),
])
def test_bad_flag_wins_over_a_malformed_config(argv, message, tmp_path, capsys, monkeypatch):
    # every flag is checked before the config file is read
    bad = tmp_path / "bad.conf"
    bad.write_text("m_z_gev ninety\n")
    monkeypatch.setenv("DIMORB_CONFIG", str(bad))
    assert _run(capsys, *argv) == (1, "", f"dimorb: error: {message}\n")


# each input file: the command that reads it and a text its parser rejects
_INPUT_FILES = {
    "config": (["bosons"], "m_z_gev ninety\n"),
    "calibration": (["fermions", "--calibration"], "quark_base_7_mev=14.5\nbogus\n"),
    "observed": (["compare", "--observed"], "name,value\n"),
}


def _run_reading(kind, path):
    """Run the command that reads `path` as its `kind` input file, in-process."""
    argv, _ = _INPUT_FILES[kind]
    if kind == "config":
        with mock.patch.dict(os.environ, {"DIMORB_CONFIG": str(path)}):
            return _run_quiet(argv)
    return _run_quiet([*argv, str(path)])


@pytest.mark.parametrize("fault", ["missing", "directory", "not_utf8", "malformed"])
@pytest.mark.parametrize("kind", sorted(_INPUT_FILES))
def test_unusable_input_file_exits_2_and_names_it(kind, fault, tmp_path):
    path = tmp_path / f"{kind}.txt"
    if fault == "directory":
        path.mkdir()
    elif fault == "not_utf8":
        path.write_bytes(b"# \xff\xfe\n")
    elif fault == "malformed":
        path.write_text(_INPUT_FILES[kind][1])
    code, out, err = _run_reading(kind, path)
    assert (code, out) == (2, "")
    assert err.startswith("dimorb: error: ") and err.count("\n") == 1
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, key", [
    ("quark_base_7_mev=inf\ntop_lump_8_gev=162\n", "quark_base_7_mev"),
    ("quark_base_7_mev=14.5\ntop_lump_8_gev=1e306\n", "top_lump_8_gev"),
    # a valid mass, but the b row built from it overflows
    ("quark_base_7_mev=1e306\ntop_lump_8_gev=162\n", "row 'b'"),
])
def test_calibration_values_the_spectrum_cannot_use_name_their_source(text, key, tmp_path,
                                                                         capsys):
    path = tmp_path / "cal.txt"
    path.write_text(text)
    code, out, err = _run(capsys, "fermions", "--calibration", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"dimorb: error: {path}: ")
    assert key in err


# each input file: a text its command accepts
_USABLE_FILES = {
    "config": "m_z_gev=90\n",
    "calibration": format_calibration(calibrate(ModelConstants()).bases),
    "observed": LEPTON_CSV,
}


@pytest.mark.parametrize("kind", sorted(_USABLE_FILES))
def test_input_file_may_start_with_a_byte_order_mark(kind, tmp_path):
    path = tmp_path / f"{kind}.txt"
    path.write_text(_USABLE_FILES[kind], encoding="utf-8")
    plain = _run_reading(kind, path)
    assert plain[0] == 0
    path.write_text(_USABLE_FILES[kind], encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert _run_reading(kind, path) == plain


def test_decode_error_after_a_byte_order_mark_counts_from_the_first_byte(tmp_path, capsys,
                                                                        monkeypatch):
    path = tmp_path / "model.conf"
    path.write_bytes(b"\xef\xbb\xbf# \xff\n")
    monkeypatch.setenv("DIMORB_CONFIG", str(path))
    code, out, err = _run(capsys, "bosons")
    assert (code, out) == (2, "")
    assert "can't decode byte 0xff in position 5" in err


_NUMBER_TEXT = st.one_of(st.floats().map(repr), st.text(max_size=6),
                         st.sampled_from(["inf", "nan", "1e306", "1e-320", "0", "-1", ""]))
_KEY_VALUE_LINE = st.tuples(
    st.sampled_from([*_SWEEP_PARAMS, "quark_base_7_mev", "top_lump_8_gev", "bogus"]),
    _NUMBER_TEXT).map("=".join)
_OBSERVED_LINE = st.tuples(
    st.sampled_from(["muon", "tau", "top_quark", "theta_w", "alpha_w", "boson_5", ""]),
    _NUMBER_TEXT, st.sampled_from(["MeV", "GeV", "dimensionless", "degree", "parsec"]),
    _NUMBER_TEXT, st.text(max_size=4)).map(",".join)
_FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(st.one_of(_KEY_VALUE_LINE, _OBSERVED_LINE, st.text(max_size=20),
                       st.just("name,value,unit,uncertainty,source")),
             max_size=6).map(lambda lines: "\n".join(lines).encode()),
)


@pytest.mark.parametrize("kind", sorted(_INPUT_FILES))
@given(data=_FILE_BYTES)
@settings(max_examples=150, deadline=None)
def test_any_input_file_bytes_end_in_a_documented_exit(kind, data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}.txt"
    path.write_bytes(data)
    code, out, err = _run_reading(kind, path)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert not _NON_FINITE.search(out)
    if code != 0:
        assert out == ""
    if code == 2:
        assert str(path) in err


def test_help_exits_zero(capsys):
    assert _run(capsys, "--help")[0] == 0
    assert _run(capsys, "compare", "--help")[0] == 0

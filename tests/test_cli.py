import argparse
import contextlib
import csv
import errno
import functools
import io
import json
import math
import os
import re
import struct
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimorb import cli, spectrum
from dimorb.cli import run
from dimorb.quantities import ModelConstants, format_rows, gev, mev
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


@pytest.mark.parametrize("anchor", spectrum.ANCHOR_CHOICES)
def test_calibrate_writes_file(anchor, tmp_path, capsys):
    out_path = tmp_path / "cal.txt"
    code, out, err = _run(capsys, "calibrate", "--out", str(out_path), "--anchors", anchor)
    assert code == 0
    assert f"wrote {out_path}" in err
    assert out_path.read_text() == format_calibration(calibrate(ModelConstants(), anchor).bases)
    assert "anchor" in out and "held-out" in out
    # a second run produces identical bytes
    first = out_path.read_text()
    assert _run(capsys, "calibrate", "--out", str(out_path), "--anchors", anchor)[0] == 0
    assert out_path.read_text() == first


def test_calibrate_replaces_a_symlinks_target_not_the_link(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "real.txt").write_text("# an older file\n")
    (tmp_path / "cal.txt").symlink_to("real.txt")
    assert _run(capsys, "calibrate", "--out", "cal.txt")[0] == 0
    assert os.readlink(tmp_path / "cal.txt") == "real.txt"
    whole = format_calibration(calibrate(ModelConstants()).bases)
    assert (tmp_path / "real.txt").read_text() == whole
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cal.txt", "real.txt"]


def test_calibrate_to_a_loop_of_links_exits_2_and_keeps_the_link(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cal.txt").symlink_to("cal.txt")
    code, out, err = _run(capsys, "calibrate", "--out", "cal.txt")
    assert (code, out) == (2, "")
    assert err == ("dimorb: error: cannot write calibration file 'cal.txt': "
                   f"[Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["cal.txt"]
    assert os.readlink(tmp_path / "cal.txt") == "cal.txt"


def test_calibrate_leaves_a_file_that_holds_its_temporary_name(tmp_path, capsys):
    # as one a killed run with the same process id left behind
    files = {"cal.txt": b"# an older file\n", f"cal.txt.{os.getpid()}.tmp": b"not ours\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = _run(capsys, "calibrate", "--out", str(tmp_path / "cal.txt"))
    assert (code, out) == (2, "")
    assert err.startswith(f"dimorb: error: cannot write calibration file '{tmp_path / 'cal.txt'}'")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("argv", ["calibrate --out cal.txt", "bosons --alpha 2",
                                  "bosons --digits x", "fermions --calibration missing.txt",
                                  "compare --check --tol 1e-9", "compare --format json"])
def test_a_stderr_that_cannot_be_written_changes_neither_exit_code_nor_stdout(argv, tmp_path,
                                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    outcomes = []
    # a writable stderr, then one whose reader has gone, then none, as with fd 2 closed at start
    for stderr in (io.StringIO(), _BrokenPipe(), None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
            outcomes.append((run(argv.split()), out.getvalue()))
    assert outcomes[2] == outcomes[1] == outcomes[0]


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


@pytest.mark.parametrize("argv, what", [(["fermions", "--calibration", ""], "calibration"),
                                       (["compare", "--observed", "", "--check"], "observed")])
def test_an_empty_input_path_is_read_and_named_not_taken_as_no_flag(argv, what, capsys):
    # not the in-memory calibration or the built-in observed set, which exit 0 (3 under --check)
    assert _run(capsys, *argv) == (2, "", f"dimorb: error: cannot read {what} file '': "
                                          "[Errno 2] No such file or directory: ''\n")


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


def test_compare_json_names_an_observed_row_the_model_lacks_on_stderr(tmp_path, capsys):
    observed = tmp_path / "obs.csv"
    observed.write_text("name,value,unit,uncertainty,source\n"
                        "top_quark,176,GeV,13,collider\ngraviton,1,GeV,,none\n")
    code, out, err = _run(capsys, "compare", "--format", "json", "--observed", str(observed))
    assert code == 0
    assert [entry["name"] for entry in json.loads(out)] == ["top_quark"]
    assert err.endswith("\nskipped observed: graviton\n")
    assert err.startswith("skipped computed: boson_5, ")


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


def test_a_claim_that_rounds_to_inf_in_the_observed_unit_is_named_as_the_model_states_it(
        tmp_path, capsys):
    # at the ladder-top edge the two-figure planck_mass claim is 1.8e+305 GeV, which the
    # conversion to MeV then rounds up to inf
    path = tmp_path / "planck.csv"
    path.write_text("name,value,unit,uncertainty,source\nplanck_mass,1.2e22,MeV,,\n")
    argv = ["compare", "--m-z-gev", "1.4450095375723133e+288", "--observed", str(path)]
    assert _run(capsys, *argv) == (
        2, "", f"dimorb: error: {path}: relative error for 'planck_mass' overflows a float: "
               f"computed 1.8e+305 GeV, observed 1.2e+22 MeV\n")
    # the same claim against a GeV row compares
    path.write_text("name,value,unit,uncertainty,source\nplanck_mass,1.2e19,GeV,,\n")
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "| planck_mass | 1.8e+305 | 1.2e+19 | GeV | 1.5e+286 |  |" in out


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
        # a set rejected as a whole: each field its message cites, with its source, before it
        (["bosons"], "m_z_gev=1e300\n",
         "dimorb: error: m_z from config:{config}, alpha_e from the default are out of range: "
         "constants out of range: the top boson mass m_z / alpha_e**8 in MeV overflows a float "
         "(m_z = 1e+300 GeV, alpha_e = 0.0072973525693)\n"),
        (["sweep", "m_z_gev", "--from", "1.2e288", "--to", "1.6e288", "--steps", "3",
          "--alpha", "0.0072973525693"], None,
         "dimorb: error: m_z from the sweep of m_z_gev, alpha_e from --alpha are out of range: "
         "constants out of range: the top boson mass m_z / alpha_e**8 in MeV overflows a float "
         "(m_z = 1.6e+288 GeV, alpha_e = 0.0072973525693)\n"),
        (["compare", "--m-electron-mev", "1e306"], None,
         "dimorb: error: m_electron from --m-electron-mev, alpha_e from the default are out of "
         "range: constants out of range: the tau mass m_electron * (1 + 25.5 / alpha_e) "
         "overflows a float (m_electron = 1e+306 MeV, alpha_e = 0.0072973525693)\n"),
        (["sweep", "m_z_gev", "--from", "4e-309", "--to", "2e-310", "--steps", "3"],
         "theta_w_deg=29.69\n",
         "dimorb: error: m_electron from the default, alpha_e from the default, m_z from the "
         "sweep of m_z_gev, theta_w_deg from config:{config} are out of range: constants out of "
         "range: alpha_w**2 = m_electron / (alpha_e * m_z * cos(theta_w)) overflows a float "
         "(m_electron = 0.510999 MeV, alpha_e = 0.0072973525693, m_z = 2e-310 GeV, "
         "theta_w_deg = 29.69)\n"),
        (["fermions", "--calibrate", "--alpha", "0.001"], "m_electron_mev=0.510999\n",
         "dimorb: error: alpha_e from --alpha, m_electron from config:{config} are out of range: "
         "inconsistent calibration: anchor row 'd' gives a non-positive quark base "
         "(alpha_e = 0.001, m_electron = 0.510999 MeV)\n"),
        (["compare", "--alpha", "0.05"], None,
         "dimorb: error: alpha_e from --alpha, m_electron from the default are out of range: "
         "inconsistent calibration: the solved top lump is not positive "
         "(alpha_e = 0.05, m_electron = 0.510999 MeV)\n"),
    ],
    ids=["flag", "flag-nan", "config", "mev-overflow", "sweep", "field-flag", "field-config",
         "field-config-angle", "field-zero-mass", "field-sweep", "sweep-to-inf",
         "sweep-step-overflow", "top-config-default", "top-sweep-flag", "tau-flag-default",
         "alpha_w-sweep-config", "quark-base-flag-config", "top-lump-flag-default"],
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
        # the top boson, tau and alpha_w checks, each failing at the last of three points only
        (["sweep", "m_z_gev", "--from", "1.2e288", "--to", "1.6e288", "--steps", "3"], "m_z"),
        (["sweep", "m_electron_mev", "--from", "5e304", "--to", "5.2e304", "--steps", "3"],
         "m_electron"),
        (["sweep", "m_z_gev", "--from", "4e-309", "--to", "2e-310", "--steps", "3"], "alpha_w"),
    ],
)
def test_overflowing_constants_exit_1_and_name_the_culprit(argv, culprit, tmp_path, capsys):
    observed = tmp_path / "observed.csv"
    observed.write_text("name,value,unit,uncertainty,source\nboson_11,1e300,MeV,,x\n")
    code, out, err = _run(capsys, *(arg.format(observed=observed) for arg in argv))
    assert code == 1
    assert out == ""
    assert "out of range" in err and culprit in err
    if argv[0] == "sweep":
        # a sweep here fails at its last point, or at its start constants, and reads as the
        # one-point sweep of that last point
        alone = [*argv]
        alone[argv.index("--from") + 1] = argv[argv.index("--to") + 1]
        alone[argv.index("--steps") + 1] = "1"
        assert _run(capsys, *alone) == (code, out, err)


_TINY_Z = ("--m-electron-mev", "5e-324", "--theta-w-deg", "89.99")


@pytest.mark.parametrize(
    "param, start, stop, flags, accepted, kind",
    [
        ("alpha", 0.5, 1.5, (), "+--", "must lie strictly inside (0, 1), got 1.0"),
        ("m_z_gev", 1.2e288, 2e288, (), "++---", "the top boson mass"),
        ("m_electron_mev", 5e304, 5.3e304, (), "++--", "the tau mass"),
        ("m_z_gev", 4e-309, 1e-310, (), "++++-", "alpha_w**2"),
        # m_z * cos(theta_w) underflows to 0 at 5e-324 GeV; B6 is 0, so alpha_w is 0 before it
        ("m_z_gev", 1e-310, 5e-324, _TINY_Z, "+-", "alpha_w**2"),
        # alpha_e**2 underflows below about 1e-162, and no point of a linear sweep from an
        # alpha_e that passes the top check (above about 1e-79) lands between 0 and there,
        # so this sweep fails at its first point, and its later points pass
        ("alpha", 1e-170, 0.5, (), "-++", "the top boson mass"),
    ],
    ids=["own-range", "top", "tau", "alpha_w", "m_z-cos-underflow", "alpha-squared-underflow"],
)
def test_a_sweep_names_its_first_failing_point(param, start, stop, flags, accepted, kind,
                                               capsys):
    # `accepted` marks each point that `_point_through_constants` accepts (+) or rejects (-);
    # the sweep exits with the error of the first it rejects
    steps = len(accepted)
    step = (stop - start) / (steps - 1)
    points = [start, *(start + i * step for i in range(1, steps))]
    assert "".join("+" if _accepted(param, x, flags) else "-" for x in points) == accepted
    with pytest.raises(cli._UsageError) as exc:
        _point_through_constants(param, points[accepted.index("-")], flags)
    assert kind in str(exc.value)
    argv = ["sweep", param, f"--from={start!r}", f"--to={stop!r}", "--steps", str(steps), *flags]
    assert _run(capsys, *argv) == (1, "", f"dimorb: error: {exc.value}\n")


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


# each field named with a source its value can come from, as a rejection names it: the
# field's flag, the case's config file (under the corpus tool's name for its directory), the
# default or a sweep of the field
_NAMED_SOURCE = {field: re.compile(rf"\b{field} from (--{key.replace('_', '-')}|"
                                   rf"config:<tmp>/config\.txt|the default|the sweep of {key})"
                                   r"[,: ]")
                 for key, (field, _, _) in cli._CONSTANTS.items()}


def test_every_rejection_in_the_identity_corpus_names_the_source_of_each_field_it_cites(
        identity_run):
    # a rejected constant set exits 1; every other use of a field name is in an exit-2 line
    # about a file, such as the list of config keys, which names theta_w_deg
    _, cases, records = identity_run
    unnamed = []
    for case, record in zip(cases, records):
        for argv, (code, _, err) in zip(case["argvs"], record["steps"]):
            if code != 1:
                continue
            missing = [(field, line) for line in err.splitlines()
                       if line.startswith("dimorb: error: ")
                       for field, named in _NAMED_SOURCE.items()
                       if re.search(rf"\b{field}\b", line) and not named.search(line)]
            if missing:
                unnamed.append((argv, case["config"], missing))
    assert not unnamed, f"{len(unnamed)} argvs, among them {unnamed[:3]}"


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


# the tau row of this electron mass is finite, about 1.8e308, and one digit rounds it up
# past the largest float
_ROUNDS_PAST_THE_LARGEST = 5.142999054417304e+304


@given(
    values=st.tuples(*[_LOG_UNIFORM] * len(_CONSTANT_FLAGS)),
    param=st.sampled_from(_SWEEP_PARAMS),
    start=_LOG_UNIFORM,
    stop=_LOG_UNIFORM,
    fmt=st.sampled_from(("table", "csv", "json")),
    digits=st.sampled_from(("1", "6", "17")),
)
@example(values=(0.0072973525693, 0.510999, 91.177, 29.69, 1.2e19), param="m_electron_mev",
         start=_ROUNDS_PAST_THE_LARGEST, stop=_ROUNDS_PAST_THE_LARGEST, fmt="json", digits="1")
@settings(max_examples=300, deadline=None)
def test_extreme_constants_exit_0_or_1_and_print_only_finite_numbers(values, param, start,
                                                                      stop, fmt, digits):
    flags = [text for flag, value in zip(_CONSTANT_FLAGS, values)
             for text in (flag, repr(value))]
    flags += ["--format", fmt, "--digits", digits]
    for argv in (
        ["bosons", "--closed-form", *flags],
        ["sweep", param, "--from", repr(start), "--to", repr(stop), "--steps", "2", *flags],
    ):
        code, out, _ = _run_quiet(argv)
        assert code in (0, 1), argv
        assert not _NON_FINITE.search(out), argv
        if code == 1:
            assert out == ""


_EDGE_OR_LOG_UNIFORM = st.one_of(
    st.sampled_from((0.0, 5e-324, sys.float_info.max, math.inf, math.nan, 90.0)), _LOG_UNIFORM)
_CLAIM_NAMES = ("muon", "tau", "b_quark", "top_quark", "boson_7", "boson_11", "planck_mass",
                "theta_w", "alpha_w", "baryon_fraction", "graviton")
_OBSERVED_ROWS = st.lists(st.tuples(st.sampled_from(_CLAIM_NAMES), _EDGE_OR_LOG_UNIFORM,
                                    st.sampled_from(("MeV", "GeV", "dimensionless", "degree")),
                                    st.one_of(st.none(), _EDGE_OR_LOG_UNIFORM)),
                          max_size=5, unique_by=lambda row: row[0])
# the commands that read a data file or calibrate, each as (argv, its formats)
_CALIBRATING_COMMANDS = {
    "calibrate": (["calibrate", "--out", "{dir}/written.txt"], (None,)),
    "fermions": (["fermions", "--calibrate"], ("table", "csv", "json")),
    "fermions_file": (["fermions", "--calibration", "{dir}/cal.txt"], ("table", "csv", "json")),
    "compare": (["compare"], ("markdown", "csv", "json")),
    "compare_file": (["compare", "--observed", "{dir}/observed.csv", "--check"],
                     ("markdown", "csv", "json")),
}
# what stderr may hold besides an error: calibrate's note, json's skip lists and --check's
# breach line
_NOTES = ("wrote ", "skipped computed: ", "skipped observed: ", "tolerance check failed at ")


@given(
    command=st.sampled_from(tuple(_CALIBRATING_COMMANDS)),
    flags=st.dictionaries(st.sampled_from(_CONSTANT_FLAGS), _EDGE_OR_LOG_UNIFORM, max_size=3),
    config=st.one_of(st.none(), st.dictionaries(st.sampled_from(_SWEEP_PARAMS),
                                                _EDGE_OR_LOG_UNIFORM, max_size=3)),
    bases=st.tuples(_EDGE_OR_LOG_UNIFORM, _EDGE_OR_LOG_UNIFORM),
    observed=_OBSERVED_ROWS,
    fmt=st.integers(0, 2),
    digits=st.sampled_from(("1", "6", "17")),
)
# a calibration file whose quark base overflows the b row
@example(command="fermions_file", flags={}, config=None, bases=(1e306, 162.0), observed=[],
         fmt=0, digits="6")
@settings(max_examples=300, deadline=None)
def test_every_calibrating_command_exits_0_to_3_and_prints_only_finite_numbers(
        command, flags, config, bases, observed, fmt, digits, tmp_path_factory):
    where = tmp_path_factory.getbasetemp() / "calibrating"
    where.mkdir(exist_ok=True)
    (where / "cal.txt").write_text(f"quark_base_7_mev={bases[0]!r}\ntop_lump_8_gev={bases[1]!r}\n")
    (where / "observed.csv").write_text("name,value,unit,uncertainty,source\n" + "".join(
        f"{name},{value!r},{unit},{'' if unc is None else repr(unc)},drawn\n"
        for name, value, unit, unc in observed))
    env = {}
    if config is not None:
        (where / "model.conf").write_text("".join(f"{key}={value!r}\n"
                                                  for key, value in config.items()))
        env["DIMORB_CONFIG"] = str(where / "model.conf")
    argv, formats = _CALIBRATING_COMMANDS[command]
    argv = [arg.format(dir=where) for arg in argv]
    argv += [text for flag, value in flags.items() for text in (flag, repr(value))]
    argv += ["--digits", digits] + (["--format", formats[fmt]] if formats[0] else [])
    with mock.patch.dict(os.environ, env):
        code, out, err = _run_quiet(argv)
    assert code in (0, 1, 2, 3), argv
    if code in (1, 2):
        assert out == "", argv
        assert err.startswith(("dimorb: error:", "usage:")), argv
    else:
        assert all(line.startswith(_NOTES) for line in err.splitlines()), argv
        assert not _NON_FINITE.search(out), argv


@pytest.mark.parametrize("fmt, expected", [
    ("table", "m_electron_mev  muon_mev  tau_mev  boson_6_gev  boson_11_gev  alpha_w\n"
              "--------------  --------  -------  -----------  ------------  -------\n"
              "5e+304          1e+307    2e+308   7e+303       1e+19         9e+150\n"),
    ("csv", "m_electron_mev,muon_mev,tau_mev,boson_6_gev,boson_11_gev,alpha_w\n"
            "5e+304,1e+307,2e+308,7e+303,1e+19,9e+150\n"),
    ("json", '[\n  {\n    "m_electron_mev": 5e+304,\n    "muon_mev": 1e+307,\n'
             '    "tau_mev": 2e+308,\n    "boson_6_gev": 7e+303,\n    "boson_11_gev": 1e+19,\n'
             '    "alpha_w": 9e+150\n  }\n]\n'),
], ids=["table", "csv", "json"])
def test_a_finite_value_rounded_past_the_largest_float_prints_its_rounded_text(capsys, fmt,
                                                                                expected):
    # json writes the rounded text too, not json.dumps' Infinity, which is not JSON
    point = repr(_ROUNDS_PAST_THE_LARGEST)
    assert _run(capsys, "sweep", "m_electron_mev", "--from", point, "--to", point, "--steps",
                "1", "--format", fmt, "--digits", "1") == (0, expected, "")


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _flag_values(flags) -> argparse.Namespace:
    # constant flags as `cli.run` parses them: one attribute each config key, None if not given
    given = {flag[2:].replace("-", "_"): float(value)
             for flag, value in zip(flags[::2], flags[1::2])}
    return argparse.Namespace(**{**dict.fromkeys(cli._CONSTANTS), **given})


def _point_through_constants(param: str, point: float, flags) -> cli.ModelConstants:
    """The set of a sweep of `param` at `point`, built as `cli.run` builds it; a rejected one
    raises a `_UsageError` worded by hand: each cited field with its source, then the message."""
    sources = dict.fromkeys(cli.ModelConstants._fields, "the default")
    try:
        start = cli._resolve_constants(_flag_values(flags), sources)
        field = cli._CONSTANTS[param][0]
        sources[field] = f"the sweep of {param}"
        return start._replace(**{field: cli._field_value(param, point)})
    except cli._FieldError as exc:
        cited = ", ".join(f"{name} from {sources[name]}" for name in exc.fields)
        verb = "is" if len(exc.fields) == 1 else "are"
        raise cli._UsageError(f"{cited} {verb} out of range: {exc}") from None


def _accepted(param: str, point: float, flags) -> bool:
    try:
        _point_through_constants(param, point, flags)
    except ValueError:
        return False
    return True


def _last_accepted(param: str, flags, accepted: float, rejected: float) -> float:
    """The last float from `accepted` towards `rejected` that a set accepts, by bisection
    over the bits of two finite floats of one sign."""
    assert _accepted(param, accepted, flags) and not _accepted(param, rejected, flags)
    good, bad = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (accepted, rejected))
    while abs(bad - good) > 1:
        middle = (good + bad) // 2
        if _accepted(param, struct.unpack("<d", struct.pack("<q", middle))[0], flags):
            good = middle
        else:
            bad = middle
    return struct.unpack("<d", struct.pack("<q", good))[0]


@functools.cache
def _sweep_edges() -> list[tuple[str, tuple[str, ...], float]]:
    """(param, constant flags, edge) for each field's own range and each overflow check."""
    largest_gev_mass = _last_accepted("planck_gev", (), 1.0, 1e306)  # about 1.8e305
    edges = [("alpha", (), 0.0), ("alpha", (), 1.0), ("theta_w_deg", (), 0.0),
             ("theta_w_deg", (), 90.0), ("m_electron_mev", (), sys.float_info.max)]
    edges += [(param, (), edge) for param in ("m_electron_mev", "m_z_gev", "planck_gev")
              for edge in (0.0, 5e-324)]
    edges += [(param, (), largest_gev_mass) for param in ("m_z_gev", "planck_gev")]
    # the top boson, tau and alpha_w checks, each reached from two constants
    tiny_z = ("--m-z-gev", "1e-300")
    for param, flags, accepted, rejected in (
            ("m_z_gev", (), 1.0, 1e300), ("alpha", (), 0.5, 1e-40),
            ("m_electron_mev", (), 1.0, 1e308),
            ("alpha", ("--m-electron-mev", "1e300"), 0.5, 1e-10),
            ("m_z_gev", (), 1.0, 5e-324), ("theta_w_deg", tiny_z, 45.0, 90.0 - 1e-12),
            ("alpha", tiny_z, 0.5, 1e-20), ("m_electron_mev", tiny_z, 1.0, 1e20)):
        edges.append((param, flags, _last_accepted(param, flags, accepted, rejected)))
    return edges


# each sweepable key: its field, and whether a point in the key's unit is in that field's
# own range (a mass is positive and finite in MeV)
_OWN_RANGES = {
    "alpha": ("alpha_e", lambda x: 0.0 < x < 1.0),
    "theta_w_deg": ("theta_w_deg", lambda x: 0.0 < x < 90.0),
    "m_electron_mev": ("m_electron", lambda x: 0.0 < x < math.inf),
    "m_z_gev": ("m_z", lambda x: 0.0 < x * 1e3 < math.inf),
    "planck_gev": ("planck_ref", lambda x: 0.0 < x * 1e3 < math.inf),
}


@given(data=st.data(), ulps=st.integers(-2, 2), fmt=st.sampled_from(("table", "csv", "json")),
       digits=st.sampled_from(("1", "6", "17")))
@settings(max_examples=300, deadline=None)
def test_a_sweep_point_is_accepted_and_rejected_as_its_constant_set_is(data, ulps, fmt, digits):
    param, flags, edge = data.draw(st.sampled_from(_sweep_edges()))
    point = _nudged(edge, ulps)
    # "--from=X", since argparse reads "-5e-324" after "--from" as a flag
    argv = ["sweep", param, f"--from={point!r}", f"--to={point!r}", "--steps", "1",
            "--format", fmt, "--digits", digits, *flags]
    try:
        constants = _point_through_constants(param, point, flags)
    except cli._UsageError as exc:
        expected = (1, "", f"dimorb: error: {exc}\n")
    else:
        ev = spectrum.evaluate(constants)
        row = [point, ev.rows[spectrum._MU], ev.rows[spectrum._TAU], ev.ladder_gev[1],
               ev.ladder_gev[6], ev.alpha_w]
        columns = [param, "muon_mev", "tau_mev", "boson_6_gev", "boson_11_gev", "alpha_w"]
        expected = (0, format_rows(fmt, columns, [row], int(digits)), "")
    code, out, err = _run_quiet(argv)
    assert (code, out, err) == expected
    # and each field's own range holds, whoever checks it: a point outside it is rejected
    # as that field's, any other point evaluates to finite numbers or fails an overflow check
    field, inside = _OWN_RANGES[param]
    own = f"dimorb: error: {field} from the sweep of {param} is out of range: "
    assert err.startswith(own) is not inside(point)
    assert code == 1 or not _NON_FINITE.search(out)


def _count_core_calls(monkeypatch, **more) -> dict[str, int]:
    # `_core` checks a set and computes the ladder that alpha_w is read from, and `more`
    # maps further keys to the names of other spectrum functions to count
    names = {"core": "_core", **more}
    calls = dict.fromkeys(names, 0)
    for key, name in names.items():
        def counted(*args, _wrapped=getattr(spectrum, name), _key=key):
            calls[_key] += 1
            return _wrapped(*args)
        monkeypatch.setattr(spectrum, name, counted)
    return calls


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_a_sweep_evaluates_its_points_in_one_pass(steps, capsys, monkeypatch):
    # the float core runs once, for the constants the sweep starts from, which alone are
    # checked as a set; every point is evaluated in one pass over the points
    calls = _count_core_calls(monkeypatch, sweep="_sweep")
    code, out, _ = _run(capsys, "sweep", "alpha", "--from", "0.007", "--to", "0.008",
                        "--steps", str(steps), "--format", "csv")
    assert (code, len(out.splitlines())) == (0, 1 + steps)
    assert calls == {"core": 1, "sweep": 1}


@pytest.mark.parametrize("argv", [["bosons", "--closed-form"], ["calibrate", "--out"],
                                  ["fermions", "--calibrate"], ["compare"]])
def test_each_command_computes_the_core_once(argv, capsys, monkeypatch, tmp_path):
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "cal.txt")]
    calls = _count_core_calls(monkeypatch)
    assert _run(capsys, *argv)[0] == 0
    assert calls == {"core": 1}


def test_digits_flag(capsys):
    code, out, _ = _run(capsys, "fermions", "--calibrate", "--digits", "10")
    assert code == 0
    assert "105.5488867" in out
    assert _run(capsys, "bosons", "--digits", "0")[0] == 1


@pytest.mark.parametrize("argv", [["bosons", "--format", "csv"], ["compare"],
                                  ["calibrate", "--out", "{out}"]])
def test_digits_past_the_largest_precision_is_a_usage_error(argv, tmp_path, capsys):
    # `format` accepts a precision up to 2**31 - 1 on every supported Python
    out_path = tmp_path / "cal.txt"
    argv = [arg.format(out=out_path) for arg in argv]
    assert _run(capsys, *argv, "--digits", "2147483647")[0] == 0
    out_path.unlink(missing_ok=True)
    assert _run(capsys, *argv, "--digits", "2147483648") == (
        1, "", "dimorb: error: --digits must be at most 2147483647\n")
    assert not out_path.exists()


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


def test_an_empty_config_variable_means_unset(capsys, monkeypatch):
    unset = _run(capsys, "bosons")  # the autouse fixture unsets it
    monkeypatch.setenv("DIMORB_CONFIG", "")
    assert _run(capsys, "bosons") == unset


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
    (["bosons", "--digits", "2147483648"], "--digits must be at most 2147483647"),
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


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
def test_a_stdout_that_cannot_encode_the_report_exits_2_with_one_line(fmt, tmp_path, capsys,
                                                                      monkeypatch):
    # an observed row the model has no claim for is listed by its name, as given
    (tmp_path / "obs.csv").write_text("name,value,unit,uncertainty,source\nmüon,1,MeV,,\n",
                                      encoding="utf-8")
    written = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(written, encoding="ascii"))
    code = run(["compare", "--observed", str(tmp_path / "obs.csv"), "--format", fmt])
    assert (code, written.getvalue()) == (2, b"")
    assert re.fullmatch(r"dimorb: error: cannot write stdout: 'ascii' codec can't encode "
                        r"character '\\xfc' in position \d+: ordinal not in range\(128\)\n",
                        capsys.readouterr().err)


def test_each_constant_flag_states_the_default_it_gets():
    # the --help text spells each default by hand (1.2e19, not the 1.2e+19 of format)
    defaults = ModelConstants()
    for key, (field, unit, text) in cli._CONSTANTS.items():
        stated = float(re.fullmatch(r".* \(default (\S+)\)", text)[1])
        default = getattr(defaults, field)
        # a mass in the flag's unit, where the flag has one
        assert stated == (default.to(unit).magnitude if unit else default), key


_FLAGS_17 = ("--alpha", "0.0075", "--m-electron-mev", "0.52", "--theta-w-deg", "31",
             "--digits", "17")
# one observed row for each kind of claim, in the unit the model states it in
_EVERY_KIND_CSV = ("name,value,unit,uncertainty,source\n"
                   "boson_7,91,GeV,,x\nplanck_mass,1e19,GeV,,x\ntheta_w,28.7,degree,,x\n"
                   "alpha_w,0.03,dimensionless,,x\nsin2_theta_w,0.23,dimensionless,,x\n"
                   "baryon_fraction,0.13,dimensionless,,x\nmuon,105.7,MeV,,x\n"
                   "b_quark,5318,MeV,,x\ntop_quark,176,GeV,,x\n")


def _csv_cells(out):
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


@pytest.mark.parametrize("command", ["bosons", "calibrate", "fermions --calibrate",
                                     "fermions --calibration", "compare"])
def test_each_command_prints_from_one_evaluation(command, tmp_path, capsys, monkeypatch):
    calibration, observed = tmp_path / "cal.txt", tmp_path / "observed.csv"
    constants = cli._resolve_constants(_flag_values(_FLAGS_17[:-2]), {})
    calibration.write_text(format_calibration(calibrate(constants).bases))
    observed.write_text(_EVERY_KIND_CSV)
    evaluations = []

    def recording(*args):
        evaluations.append(spectrum.evaluate(*args))
        return evaluations[-1]

    monkeypatch.setattr(cli, "evaluate", recording)
    argv = {"bosons": ["bosons", "--format", "csv"],
            "calibrate": ["calibrate", "--out", str(tmp_path / "written.txt")],
            "fermions --calibrate": ["fermions", "--calibrate", "--format", "csv"],
            "fermions --calibration": ["fermions", "--calibration", str(calibration),
                                       "--format", "csv"],
            "compare": ["compare", "--observed", str(observed), "--format", "csv"]}[command]
    code, out, _ = _run(capsys, *argv, *_FLAGS_17)
    assert code == 0
    assert len(evaluations) == 1
    (ev,) = evaluations
    # 17 digits print every float exactly, so each printed number reads back as its float
    if command == "bosons":
        assert tuple(float(row["mass_gev"]) for row in _csv_cells(out)) == ev.ladder_gev
    elif command == "calibrate":
        rows = {name: float(err) for name, _, err in map(str.split, out.splitlines()[2:])}
        assert rows == {row.name: abs(mass - row.table_mass.mev) / row.table_mass.mev
                        for row, mass in zip(spectrum.TABLE, ev.rows) if not row.note}
        written = dict(line.split("=") for line in
                       (tmp_path / "written.txt").read_text().splitlines()[1:])
        assert float(written["quark_base_7_mev"]) == ev.quark_base
        assert float(written["top_lump_8_gev"]) == ev.top_lump / 1e3
    elif command.startswith("fermions"):
        if command == "fermions --calibration":
            # the uncalibrated record, calibrated from the file's two values
            assert ev.quark_base is None
            bases = spectrum.load_bases(calibration.read_text(), constants)
            ev = spectrum._calibrated_ev(ev, ev.lepton_base, bases.quark_base_7.mev,
                                         bases.top_lump_8.mev)
        masses = [float(row["mass"]) for row in _csv_cells(out)]
        assert masses == [*ev.rows[:-1], ev.rows[-1] / 1e3]
    else:
        computed = {row["name"]: float(row["computed"]) for row in _csv_cells(out)}
        rows = dict(zip((row.name for row in spectrum.TABLE), ev.rows))
        assert computed == {
            "boson_7": ev.ladder_gev[2], "planck_mass": float(f"{ev.ladder_gev[6]:.2g}"),
            "theta_w": 31.0, "alpha_w": ev.alpha_w, "sin2_theta_w": ev.sin2_theta_w,
            "baryon_fraction": 1 / 7, "muon": rows["mu"], "b_quark": rows["b"],
            "top_quark": rows["t"] / 1e3}


# constants under which the lump in GeV does not read back as the same MeV float
_LUMP_ROUNDING = ("--alpha", "0.007537540769194876", "--m-electron-mev", "0.4715009178945339")


def test_a_calibration_file_gives_every_row_but_the_top_bit_for_bit(tmp_path, capsys):
    path = tmp_path / "cal.txt"
    assert _run(capsys, "calibrate", "--out", str(path), *_LUMP_ROUNDING)[0] == 0
    read = ["--digits", "17", "--format", "csv", *_LUMP_ROUNDING]
    from_file = _run(capsys, "fermions", "--calibration", str(path), *read)[1].splitlines()
    in_memory = _run(capsys, "fermions", "--calibrate", *read)[1].splitlines()
    assert from_file[:-1] == in_memory[:-1]
    assert (from_file[-1].split(",")[3], in_memory[-1].split(",")[3]) == (
        "176.49999999999997", "176.5")


@given(alpha=st.floats(0.0066, 0.0080), m_electron=st.floats(0.46, 0.56),
       anchor=st.sampled_from(spectrum.ANCHOR_CHOICES))
@example(alpha=0.007537540769194876, m_electron=0.4715009178945339, anchor="d")
@settings(max_examples=300, deadline=None)
def test_the_top_row_read_from_a_calibration_file_differs_only_by_the_lump_in_gev(
        alpha, m_electron, anchor):
    try:
        constants = ModelConstants(alpha_e=alpha, m_electron=mev(m_electron))
        ev = spectrum.evaluate(constants, anchor)
    except ValueError:
        return
    text = format_calibration(calibrate(constants, anchor).bases)
    from_file = spectrum._ev_from_bases(spectrum.evaluate(constants),
                                        spectrum.load_bases(text, constants))
    assert from_file.rows[:-1] == ev.rows[:-1]
    lump = float(repr(ev.top_lump / 1e3)) * 1e3
    assert from_file.rows[-1] == spectrum._calibrated_ev(ev, ev.lepton_base, ev.quark_base,
                                                         lump).rows[-1]

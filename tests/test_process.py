"""What a `dimorb` process loads, prints and exits with, run as a fresh interpreter."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dimorb
from dimorb.cli import run
from dimorb.quantities import ModelConstants
from dimorb.spectrum import calibrate, format_calibration

SRC = str(Path(dimorb.__file__).resolve().parents[1])
# stdout stays block-buffered, as it is in a pipe by default, so output that
# exit fails to flush would go missing
ENV = {key: value for key, value in os.environ.items()
       if key not in ("DIMORB_CONFIG", "PYTHONUNBUFFERED")}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

# every name the package namespace offers, by the submodule that defines it
PUBLIC = {
    "quantities": ("MassValue", "ModelConstants", "OrbitalIndex", "Unit", "gev", "mev",
                   "round_to_sig"),
    "ladder": ("BosonLadder", "BosonRow", "ElectroweakMix", "GaugeLabel", "boson_ladder",
               "closed_form_mass", "electroweak_mix", "quartic_sum"),
    "spectrum": ("AuxBaseSet", "CalibrationError", "CalibrationFileError", "CalibrationResult",
                 "SpectrumRow", "TABLE", "UncalibratedBaseError", "calibrate",
                 "calibrate_quark_base_7", "calibrate_top_lump", "composition", "fermion_mass",
                 "format_calibration", "full_spectrum", "lepton_aux_base", "load_bases",
                 "spectrum_row"),
    "compare": ("ComparisonReport", "ComparisonRow", "ObservedFormatError", "ObservedRecord",
                "ObservedUnit", "baryon_fractions", "compare_all", "computed_claims",
                "default_observed", "format_observed_csv", "parse_observed", "render"),
}
# names a submodule's `__all__` offers beyond its share of the package namespace
OWN = {"quantities": ("KeyValueError", "parse_key_values"), "ladder": (),
       "spectrum": ("Coefficients", "ANCHOR_CHOICES"),
       "compare": ("BARYON_SPLIT", "OBSERVED_HEADER")}


def _python(*args, cwd=None):
    return subprocess.run([sys.executable, *args], env=ENV, cwd=cwd, capture_output=True)


def _dimorb(*argv, cwd=None):
    return _python("-m", "dimorb", *argv, cwd=cwd)


# what no command loads: `typing` and `pathlib` (with what `pathlib` brings) are slow to import;
# `re` and `shutil` are not here, as argparse loads them
NEVER = {"typing", "pathlib", "urllib.parse", "ipaddress"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["bosons"], {"dimorb.compare", "fractions", "decimal", "numbers"}),
        (["calibrate", "--out", "cal.txt"], {"dimorb.compare", "fractions", "decimal", "numbers"}),
        (["fermions", "--calibrate"], {"dimorb.compare", "fractions", "decimal", "numbers"}),
        (["sweep", "alpha", "--from", "0.007", "--to", "0.008", "--steps", "3"],
         {"dimorb.compare", "fractions", "decimal", "numbers"}),
        (["compare"], {"fractions", "decimal", "numbers"}),
        (["bosons", "--format", "json"], {"dimorb.compare"}),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, absent, tmp_path):
    # -S runs no site hook, which could load any module before the package does
    child = _python("-S", "-X", "importtime", "-m", "dimorb", *argv, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    names = [line.rpartition("|")[2].strip() for line in child.stderr.decode().splitlines()
             if line.startswith("import time:")]
    # `-m` imports runpy right before the package, so what follows is the command's own
    loaded = set(names[names.index("runpy") + 1:])
    assert "dimorb.cli" in loaded
    assert not (absent | NEVER) & loaded


def test_the_package_loads_only_the_standard_library():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import dimorb.cli, dimorb.compare\n"
            "print(*sorted(set(sys.modules) - before))\n")
    child = _python("-c", code)
    assert child.returncode == 0, child.stderr
    added = child.stdout.decode().split()
    assert "dimorb.compare" in added
    assert [name for name in added
            if name.partition(".")[0] not in {*sys.stdlib_module_names, "dimorb"}] == []


def test_package_names_resolve_on_first_use():
    code = (
        "import importlib, json, sys\n"
        "import dimorb\n"
        "eager = sorted(m for m in sys.modules if m.startswith('dimorb.'))\n"
        f"public = {PUBLIC!r}\n"
        "same = all(getattr(dimorb, name) is getattr(importlib.import_module('dimorb.' + m), name)\n"
        "           for m, names in public.items() for name in names)\n"
        "modules = all(getattr(dimorb, m) is sys.modules['dimorb.' + m] for m in public)\n"
        "star = {}\n"
        "exec('from dimorb import *', star)\n"
        "print(json.dumps({'eager': eager, 'same': same, 'modules': modules,\n"
        "                  'star': sorted(star), 'dir': dir(dimorb)}))\n"
    )
    child = _python("-c", code)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["eager"] == []
    assert result["same"] and result["modules"]
    # nothing beyond PUBLIC: any other name is an AttributeError
    expected = {*PUBLIC, *(name for names in PUBLIC.values() for name in names)}
    assert set(result["star"]) - {"__builtins__"} == expected
    assert {name for name in result["dir"] if not name.startswith("_")} == expected


def test_package_names_import_as_before():
    for module, names in PUBLIC.items():
        namespace = {}
        exec(f"from dimorb import {module}, {', '.join(names)}", namespace)
        assert namespace[module] is sys.modules[f"dimorb.{module}"]
        for name in names:
            assert namespace[name] is getattr(namespace[module], name) is getattr(dimorb, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        dimorb.no_such_name
    with pytest.raises(ImportError):
        exec("from dimorb import no_such_name", {})


@pytest.mark.parametrize("module", PUBLIC)
def test_each_submodule_exports_its_package_names_and_its_own(module):
    namespace = importlib.import_module(f"dimorb.{module}")
    exported = namespace.__all__
    assert sorted(exported) == sorted({*PUBLIC[module], *OWN[module]})  # and no name twice
    star = {}
    exec(f"from dimorb.{module} import *", star)
    for name in exported:
        assert star[name] is getattr(namespace, name)


def test_round_to_sig_comes_from_quantities():
    child = _python("-c", "import sys\nfrom dimorb import round_to_sig\n"
                          "print(round_to_sig.__module__, 'dimorb.compare' in sys.modules)")
    assert child.returncode == 0, child.stderr
    assert child.stdout == b"dimorb.quantities False\n"


def test_process_prints_what_run_prints(capsys):
    argv = ["sweep", "alpha", "--from", "0.005", "--to", "0.02", "--steps", "5000",
            "--format", "csv", "--digits", "17"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    child = _dimorb(*argv)
    assert child.returncode == 0
    assert child.stdout == expected.encode()
    assert len(child.stdout.splitlines()) == 5001


_REUSE_SCRIPT = """
import contextlib, io, json, sys
from dimorb.cli import run
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_one_process_runs_like_fresh_ones():
    # run() reuses one parser per process, so an error or --help must leave
    # nothing behind for the commands after it
    argvs = [["bosons", "--format", "yaml"], ["--help"], ["bosons", "--closed-form"],
             ["sweep", "theta_w_deg", "--from", "20", "--to", "40", "--steps", "4",
              "--format", "csv", "--digits", "17"]]
    child = _python("-c", _REUSE_SCRIPT, json.dumps(argvs))
    assert child.returncode == 0, child.stderr
    in_one = json.loads(child.stdout)
    expected = [1, 0, 0, 0]
    for argv, (code, out), want in zip(argvs, in_one, expected):
        fresh = _dimorb(*argv)
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout), argv
        assert code == want
    assert in_one[1][1].startswith("usage: dimorb")


def test_process_writes_the_whole_calibration_file(tmp_path):
    child = _dimorb("calibrate", "--out", "cal.txt", cwd=tmp_path)
    assert child.returncode == 0
    assert (tmp_path / "cal.txt").read_text() == format_calibration(
        calibrate(ModelConstants()).bases)

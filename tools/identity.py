"""Byte identity of the dimorb command line between two source trees.

    python3 tools/identity.py PARENT_TREE CHANGE_TREE [--python PATH ...] [--seed N]

A tree is a directory holding `src/dimorb`, such as a checkout or an unpacked
`git archive`. For every case of the corpus below, and under each interpreter
given (the running one by default), the case's argvs run through
`dimorb.cli.run` in-process, once per tree, in a fresh directory that holds the
case's input files, with `DIMORB_CONFIG` set when the case has a config file.
The script compares each argv's stdout, stderr and exit code, and the files the
case leaves in its directory, with that directory's path written as `<tmp>`.
It also compares each tree's public names: `sorted(dir(dimorb))` right after
`import dimorb`, and the sorted `__all__` of the package and of each submodule.
An exception that escapes `run` is recorded as that argv's exit code. For each
interpreter the script prints the number of argvs and of differences, then the number
of argvs that raised in each tree and each of them, then each difference. It lists up
to the first `LISTED` (20) of each: an argv that raised with its case, tree and exception,
a difference in outputs with its case, what differs (the exit code, stdout or stderr of an
argv, or the files left) and both values, and a difference in public names with the names
only in the parent and those only in the change, each value cut to `SHOWN` (240)
characters. It exits 1 if any output differs or any argv raised, and when its stdout cannot
be written, with one stderr line that says so.

The corpus is fixed by `--seed` (default 1):
- the golden argvs of `bench/golden/cli_oneshot.json`, with its input files,
  and the shell lines of the README, run in order in one directory;
- every command in every format at `--digits` 1, 6, 17 and 20, under the
  default constants and under a second constant set, each command's `--help`,
  `--digits` at the largest precision `format` accepts and one past it, `--steps`
  one past its cap, `calibrate --out` to a path that cannot be written and to
  `/dev/null`, `fermions --calibration` and `compare --observed` on a missing path,
  a directory and a file that begins with a byte-order mark, a config file that
  does, and an observed file with an empty name and one with a repeated name;
- sweeps of all five constants in every format;
- a seeded fuzz of every command: constants drawn from edge values (0, the
  smallest subnormal, the largest float, inf, nan, 90) and log-uniform ones, set
  by flag and by config file, and drawn calibration and observed files. Each of
  its value flags is written `--flag=VALUE`, since argparse reads a lone negative
  token such as `-inf` or `-8.8e+44` as an option, not as the flag's value.

It needs the standard library alone: no pytest and no install, so it runs on
every interpreter, 3.10 included. `digest` gives a short SHA-256 of a case's record, and
`tests/test_identity_digest.py` checks each seed-1 case's against the committed
`tests/golden/identity-seed1.txt`. The corpus is read from the tree this script is in;
the two trees given are only run. Given one tree twice (`python tools/identity.py . .`,
a CI step on each Python), it checks that no argv raises and, since each tree runs in a
worker process of its own with a random hash seed, that no output depends on that seed.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import random
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGITS = ("1", "6", "17", "20")
FORMATS = {"bosons": ("table", "csv", "json"), "fermions": ("table", "csv", "json"),
           "compare": ("markdown", "csv", "json"), "sweep": ("table", "csv", "json")}
FLAGS = ("--alpha", "--m-electron-mev", "--m-z-gev", "--theta-w-deg", "--planck-gev")
CONFIG_KEYS = ("alpha", "m_electron_mev", "m_z_gev", "theta_w_deg", "planck_gev")
DEFAULTS = (7.2973525693e-3, 0.510999, 91.177, 29.69, 1.2e19)
EDGES = (0.0, 5e-324, sys.float_info.max, math.inf, math.nan, 90.0)
ANCHORS = ("u", "d", "s", "c", "b")
CLAIMS = ("boson_5", "boson_6", "boson_7", "boson_8", "boson_9", "boson_10", "boson_11",
          "planck_mass", "theta_w", "alpha_w", "sin2_theta_w", "baryon_fraction",
          "dark_fraction", "nu_e", "e", "nu_mu", "nu_tau", "muon", "tau", "u_quark", "d_quark",
          "s_quark", "c_quark", "b_quark", "top_quark")
UNITS = ("MeV", "GeV", "dimensionless", "degree")
LISTED = 20   # differences listed for each interpreter
SHOWN = 240   # characters of each listed value
OBSERVED = ("# observed values\nname,value,unit,uncertainty,source\n"
            "top_quark,176,GeV,13,collider\nmuon,105.66,MeV,,pdg\ntheta_w,28.7,degree,,fit\n"
            "boson_7,91187.6,MeV,2.1,lep\nalpha_w,0.03,dimensionless,0.01,\n"
            "graviton,1,GeV,,none\n")
CALIBRATION = ("# calibrated auxiliary bases\nquark_base_7_mev=14.120342769037393\n"
               "top_lump_8_gev=162.35953776888141\n")


# the corpus: a case is {"files": {name: text}, "config": text or None, "argvs": [argv, ...]}

def _case(argvs, files=None, config=None) -> dict:
    return {"files": files or {}, "config": config, "argvs": argvs}


def _golden_cases() -> list:
    golden = json.loads((ROOT / "bench" / "golden" / "cli_oneshot.json").read_text())
    files = {**golden["files"], "cal.txt": golden["cal_txt"]}
    cases = []
    for entries in golden["kinds"].values():
        for entry in entries:
            writes_cal = entry["argv"][0] == "calibrate"
            cases.append(_case([entry["argv"]], {name: text for name, text in files.items()
                                                 if not (writes_cal and name == "cal.txt")}))
    return cases


def _readme_case() -> dict:
    readme = (ROOT / "README.md").read_text()
    argvs = []
    for block in re.findall(r"^```sh\n(.*?)^```$", readme, re.S | re.M):
        for line in block.splitlines():
            if line.startswith("dimorb "):
                argvs.append(shlex.split(line, comments=True)[1:])
    return _case(argvs, {"my.csv": OBSERVED})


def _grid_cases() -> list:
    cases = []
    for constants in ([], ["--alpha", "0.0075", "--m-electron-mev", "0.52", "--theta-w-deg", "31"]):
        for digits in DIGITS:
            common = [*constants, "--digits", digits]
            for fmt in FORMATS["bosons"]:
                cases.append(_case([["bosons", "--format", fmt, *common],
                                    ["bosons", "--closed-form", "--format", fmt, *common]]))
            for anchor in ANCHORS:
                cases.append(_case([["calibrate", "--anchors", anchor, "--out", "cal.txt", *common],
                                    *(["fermions", "--calibration", "cal.txt", "--format", fmt,
                                       *common] for fmt in FORMATS["fermions"])]))
            cases.append(_case([["calibrate", *common]]))  # the default --out
            cases.append(_case([["fermions", "--calibrate", "--format", fmt, *common]
                                for fmt in FORMATS["fermions"]]))
            for fmt in FORMATS["compare"]:
                cases.append(_case([["compare", "--format", fmt, *common],
                                    ["compare", "--format", fmt, "--check", *common],
                                    ["compare", "--observed", "obs.csv", "--format", fmt, *common],
                                    ["compare", "--observed", "obs.csv", "--check", "--tol", "0.5",
                                     "--format", fmt, *common]], {"obs.csv": OBSERVED}))
            for param, start, stop in (("alpha", "0.0073", "0.0146"),
                                       ("m_electron_mev", "0.4", "0.6"),
                                       ("m_z_gev", "80", "100"), ("theta_w_deg", "1", "89"),
                                       ("planck_gev", "1e18", "1e20")):
                cases.append(_case([["sweep", param, "--from", start, "--to", stop, "--steps",
                                     "7", "--format", fmt, *common]
                                    for fmt in FORMATS["sweep"]]))
    for argv in (["--help"], *([command, "--help"] for command in
                               ("bosons", "calibrate", "fermions", "compare", "sweep")),
                 [], ["nope"], ["fermions"], ["bosons", "--digits", "0"],
                 ["sweep", "alpha", "--from", "1", "--to", "2", "--steps", "0"],
                 # the largest precision `format` accepts, and one past it
                 ["bosons", "--format", "csv", "--digits", "2147483647"],
                 ["bosons", "--format", "csv", "--digits", "2147483648"],
                 ["sweep", "alpha", "--from", "1", "--to", "2", "--steps", "100001"],
                 # a calibration file that cannot be written: its directory is missing, or
                 # the path is a directory; and one that is no regular file, written in place
                 ["calibrate", "--out", "missing/cal.txt"], ["calibrate", "--out", "."],
                 ["calibrate", "--out", "/dev/null"]):
        cases.append(_case([argv]))
    # input files that are missing, a directory, or begin with a byte-order mark
    bom = {"cal.txt": "\ufeff" + CALIBRATION, "obs.csv": "\ufeff" + OBSERVED}
    for calibration, observed in (("missing.txt", "missing.csv"), (".", "."),
                                  ("cal.txt", "obs.csv")):
        cases.append(_case([["fermions", "--calibration", calibration],
                            ["compare", "--observed", observed]], bom))
    cases.append(_case([["bosons"]], config="\ufeffm_z_gev=90\n"))
    # an observed file with an empty name, and one with a repeated name
    for rows in (",1,MeV,,\n", "muon,105.66,MeV,,\nmuon,105.7,MeV,,\n"):
        cases.append(_case([["compare", "--observed", "obs.csv"]],
                           {"obs.csv": "name,value,unit,uncertainty,source\n" + rows}))
    return cases


def _value(rng: random.Random, typical: float) -> float:
    draw = rng.random()
    if draw < 0.25:
        return rng.choice(EDGES)
    if draw < 0.6:
        return 10.0 ** rng.uniform(-300.0, 300.0)
    return typical * rng.uniform(0.9, 1.1)


def _number(rng: random.Random, typical: float) -> str:
    value = _value(rng, typical) * (-1.0 if rng.random() < 0.1 else 1.0)
    return repr(value) if rng.random() < 0.7 else f"{value:.6g}"


def _constants(rng: random.Random) -> tuple:
    """(flags, config text or None) setting 0 to 3 constants each way."""
    flags = []
    for i in rng.sample(range(len(FLAGS)), rng.randint(0, 3)):
        flags.append(f"{FLAGS[i]}={_number(rng, DEFAULTS[i])}")
    config = None
    if rng.random() < 0.3:
        keys = rng.sample(range(len(CONFIG_KEYS)), rng.randint(0, 3))
        config = "# drawn config\n" + "".join(f"{CONFIG_KEYS[i]} = {_number(rng, DEFAULTS[i])}\n"
                                              for i in keys)
        if rng.random() < 0.1:
            config += rng.choice(("bogus=1\n", "alpha\n", "alpha=x\n", "alpha=1\nalpha=2\n"))
    return flags, config


def _calibration(rng: random.Random) -> str:
    quark, lump = (_value(rng, typical) for typical in (14.120342769037393, 162.35953776888141))
    lines = ["# calibrated auxiliary bases", f"quark_base_7_mev={quark!r}",
             f"top_lump_8_gev={lump!r}"]
    if rng.random() < 0.15:
        lines.pop(rng.randrange(1, 3))  # a missing key
    if rng.random() < 0.1:
        lines.append(rng.choice(("nonsense", "extra=1", "quark_base_7_mev=2")))
    return "\n".join(lines) + "\n"


def _observed(rng: random.Random) -> str:
    lines = ["name,value,unit,uncertainty,source"]
    for name in rng.sample(CLAIMS + ("graviton", "proton"), rng.randint(0, 8)):
        value = rng.choice(EDGES) if rng.random() < 0.05 else 10.0 ** rng.uniform(-30.0, 30.0)
        unit = (UNITS[:2] if name.startswith(("boson", "planck", "top")) or name in CLAIMS[13:]
                else UNITS[3:] if name == "theta_w" else UNITS[2:3])
        uncertainty = rng.choice(("", repr(value * 0.05), repr(value * 1e6)))
        lines.append(f"{name},{value!r},{rng.choice(unit if rng.random() < 0.9 else UNITS)},"
                     f"{uncertainty},drawn")
    if rng.random() < 0.1:
        lines.append(rng.choice(("top_quark,1,GeV", "x,1,furlong,,", 'q,"1,5",GeV,,', "")))
    return "\n".join(lines) + "\n"


def _fuzz_cases(rng: random.Random, n: int) -> list:
    cases = []
    for _ in range(n):
        flags, config = _constants(rng)
        command = rng.choice(("bosons", "calibrate", "fermions", "fermions_file", "compare",
                              "compare_file", "sweep"))
        common = [*flags, f"--digits={rng.choice(('1', '2', '6', '15', '17', '20'))}"]
        files = {}
        if command == "bosons":
            argv = ["bosons", f"--format={rng.choice(FORMATS['bosons'])}", *common]
            if rng.random() < 0.5:
                argv.insert(1, "--closed-form")
        elif command == "calibrate":
            argv = ["calibrate", f"--anchors={rng.choice(ANCHORS)}", "--out=cal.txt", *common]
        elif command == "fermions":
            argv = ["fermions", "--calibrate", f"--format={rng.choice(FORMATS['fermions'])}",
                    *common]
        elif command == "fermions_file":
            files["cal.txt"] = _calibration(rng)
            argv = ["fermions", "--calibration=cal.txt",
                    f"--format={rng.choice(FORMATS['fermions'])}", *common]
        elif command.startswith("compare"):
            argv = ["compare", f"--format={rng.choice(FORMATS['compare'])}", *common]
            if command == "compare_file":
                files["obs.csv"] = _observed(rng)
                argv.append("--observed=obs.csv")
            if rng.random() < 0.5:
                argv += ["--check", f"--tol={rng.choice(('0.005', '0.5', '1e-9', 'nan', '0'))}"]
        else:
            param = rng.randrange(len(CONFIG_KEYS))
            start, stop = (_number(rng, DEFAULTS[param]) for _ in range(2))
            argv = ["sweep", CONFIG_KEYS[param], f"--from={start}", f"--to={stop}",
                    f"--steps={rng.randint(1, 7)}", f"--format={rng.choice(FORMATS['sweep'])}",
                    *common]
        cases.append(_case([argv], files, config))
    return cases


def corpus(seed: int, fuzz: int = 3000) -> list:
    """Every case, in a fixed order for a given seed."""
    return [*_golden_cases(), _readme_case(), *_grid_cases(),
            *_fuzz_cases(random.Random(seed), fuzz)]


# the worker: `python identity.py --worker TREE` reads cases as json on stdin

def _run_case(run, case: dict) -> dict:
    where = tempfile.mkdtemp(prefix="dimorb-identity-")
    home = os.getcwd()
    try:
        for name, text in case["files"].items():
            Path(where, name).write_text(text, encoding="utf-8")
        os.environ.pop("DIMORB_CONFIG", None)
        if case["config"] is not None:
            Path(where, "config.txt").write_text(case["config"], encoding="utf-8")
            os.environ["DIMORB_CONFIG"] = os.path.join(where, "config.txt")
        os.chdir(where)
        steps = []
        for argv in case["argvs"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(argv)
                except BaseException:  # an escaped exception is an output too
                    code = "raised " + traceback.format_exc().splitlines()[-1]
            steps.append([code, out.getvalue().replace(where, "<tmp>"),
                          err.getvalue().replace(where, "<tmp>")])
        files = {path.name: path.read_text("utf-8", "replace").replace(where, "<tmp>")
                 for path in sorted(Path(where).iterdir())}
        return {"steps": steps, "files": files}
    finally:
        os.chdir(home)
        os.environ.pop("DIMORB_CONFIG", None)
        shutil.rmtree(where, ignore_errors=True)


def digest(result: dict) -> str:
    """A short SHA-256 of one case's record from `_run_case`: its steps and the files it left."""
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()[:16]


def _surface(dimorb) -> dict:
    """The package's names before any submodule loads, then each module's sorted `__all__`."""
    surface = {"dir(dimorb)": sorted(dir(dimorb))}
    for module in ("", *(f".{info.name}" for info in pkgutil.iter_modules(dimorb.__path__)
                         if not info.name.startswith("_"))):
        names = getattr(importlib.import_module("dimorb" + module), "__all__", None)
        surface[f"dimorb{module}.__all__"] = None if names is None else sorted(names)
    return surface


def _worker(tree: str) -> None:
    sys.path.insert(0, os.path.join(tree, "src"))
    import dimorb
    surface = _surface(dimorb)
    from dimorb import cli
    source = Path(cli.__file__).resolve()
    if Path(tree).resolve() not in source.parents:
        raise SystemExit(f"imported {source}, not the tree {tree}")
    cases = json.load(sys.stdin)
    json.dump({"surface": surface, "cases": [_run_case(cli.run, case) for case in cases]},
              sys.stdout)


# the driver

def run_tree(python: str, tree: str, cases: list) -> dict:
    """The public names of `tree` and each case's outputs, under `python`."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("DIMORB_CONFIG", "PYTHONPATH", "PYTHONHASHSEED")}
    env["COLUMNS"] = "80"  # argparse wraps --help to the terminal's width
    child = subprocess.run([python, str(Path(__file__).resolve()), "--worker", tree],
                           input=json.dumps(cases), capture_output=True, text=True, env=env)
    if child.returncode:
        raise SystemExit(f"{python} in {tree} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def differences(cases: list, before: dict, after: dict) -> list:
    """(case index, what, parent's value, change's value) of each output that differs.

    A difference in public names has no case, and its index is None.
    """
    found = [(None, f"public names {key}", before["surface"].get(key), after["surface"].get(key))
             for key in sorted({*before["surface"], *after["surface"]})
             if before["surface"].get(key) != after["surface"].get(key)]
    for i, (case, a, b) in enumerate(zip(cases, before["cases"], after["cases"])):
        for step, (argv, x, y) in enumerate(zip(case["argvs"], a["steps"], b["steps"])):
            for what, u, v in zip(("exit code", "stdout", "stderr"), x, y):
                if u != v:
                    found.append((i, f"{what} of {shlex.join(argv)}", u, v))
        if a["files"] != b["files"]:
            found.append((i, "files left", a["files"], b["files"]))
    return found


def raised(cases: list, result: dict) -> list:
    """(case index, argv, exception) of each argv of `result` whose run raised, not exited."""
    return [(i, argv, code) for i, (case, outputs) in enumerate(zip(cases, result["cases"]))
            for argv, (code, _, _) in zip(case["argvs"], outputs["steps"])
            if isinstance(code, str)]


def _shown(value) -> str:
    text = repr(value)
    return text if len(text) <= SHOWN else f"{text[:SHOWN]}... ({len(text)} characters)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the tree to compare against")
    parser.add_argument("change", help="the tree to check")
    parser.add_argument("--python", action="append", metavar="PATH",
                        help="interpreter to run both trees under; repeat for several "
                             "(default: the one running this script)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the fuzzed cases")
    args = parser.parse_args(argv)
    cases = corpus(args.seed)
    argvs = sum(len(case["argvs"]) for case in cases)
    failed = False
    for python in args.python or [sys.executable]:
        before = run_tree(python, args.parent, cases)
        after = run_tree(python, args.change, cases)
        found = differences(cases, before, after)
        crashed = [(tree, *entry) for tree, result in (("parent", before), ("change", after))
                   for entry in raised(cases, result)]
        in_parent = sum(tree == "parent" for tree, *_ in crashed)
        print(f"{python}: {argvs} argvs in {len(cases)} cases and the public names, "
              f"{len(found)} differences\n{python}: {in_parent} argvs raised in the parent, "
              f"{len(crashed) - in_parent} in the change")
        failed = failed or bool(found) or bool(crashed)
        for tree, i, argv, code in crashed[:LISTED]:
            print(f"  case {i}, {shlex.join(argv)} in the {tree}: {_shown(code)}")
        if len(crashed) > LISTED:
            print(f"  and {len(crashed) - LISTED} more raised")
        for i, what, u, v in found[:LISTED]:
            if i is None:  # two lists of names: show the names each side alone has
                u, v = set(u or ()), set(v or ())
                print(f"  {what}\n    only in the parent: {_shown(sorted(u - v))}\n"
                      f"    only in the change: {_shown(sorted(v - u))}")
                continue
            print(f"  case {i}, {what}\n    files: {sorted(cases[i]['files'])}, "
                  f"config: {cases[i]['config']!r}\n"
                  f"    parent: {_shown(u)}\n    change: {_shown(v)}")
        if len(found) > LISTED:
            print(f"  and {len(found) - LISTED} more")
    return 1 if failed else 0


def _script(argv=None) -> int:
    """`main`, but a stdout whose reader is gone is one stderr line and exit 1, not a traceback."""
    try:
        code = main(argv)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # fd 1 at os.devnull keeps the flush at exit quiet (the Python docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"identity.py: cannot write stdout: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2])
    else:
        sys.exit(_script())

"""`tools/identity.py` finds no difference between a tree and itself, finds a changed byte
of a written file and a name dropped from a module's `__all__` (and names it), lists every
difference, fails on an argv that raised in either tree, though both trees raise alike, and
reports a stdout it cannot write in one line."""

import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def test_the_corpus_is_fixed_by_its_seed_and_covers_every_command():
    cases = identity.corpus(1)
    assert cases == identity.corpus(1) != identity.corpus(2)
    argvs = [argv for case in cases for argv in case["argvs"]]
    assert len(argvs) >= 3000
    assert {argv[0] for argv in argvs if argv} >= {"bosons", "calibrate", "fermions", "compare",
                                                   "sweep"}
    assert any(case["config"] for case in cases)
    # a value that starts with "-" reaches the program only as "--flag=VALUE": argparse reads a
    # lone "-inf" or "-8.8e+44" after a flag as an option, and the argv stops at a usage error;
    # only a plain negative decimal such as "-1" or "-.5" it reads as the value, on every Python
    value_flags = {*identity.FLAGS, "--digits", "--from", "--to", "--steps", "--tol", "--format",
                   "--anchors", "--out", "--observed", "--calibration"}
    assert not [argv for argv in argvs
                if any(flag in value_flags and value.startswith("-")
                       and not re.fullmatch(r"-\d+|-\d*\.\d+", value)
                       for flag, value in zip(argv, argv[1:]))]


def _changed_tree(tmp_path, module: str, old: str, new: str) -> str:
    """A copy of the source tree with `old` replaced by `new` once in `module`."""
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = changed / "src" / "dimorb" / f"{module}.py"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return str(changed)


def test_a_tree_matches_itself_and_a_changed_digit_is_found(tmp_path):
    cases = identity.corpus(1)[:60]  # the golden argvs, the README lines and part of the grid
    # the calibration file's values at 16 digits instead of 17
    changed = _changed_tree(tmp_path, "spectrum", '=%.17g\\n"', '=%.16g\\n"')
    before = identity.run_tree(sys.executable, str(ROOT), cases)
    assert identity.differences(cases, before, identity.run_tree(sys.executable, str(ROOT),
                                                                 cases)) == []
    found = identity.differences(cases, before,
                                 identity.run_tree(sys.executable, changed, cases))
    assert "files left" in {what for _, what, _, _ in found}
    assert all(i is not None for i, _, _, _ in found)  # the public names did not change


def test_a_name_dropped_from_a_module_is_found(tmp_path, capsys, monkeypatch):
    changed = _changed_tree(tmp_path, "compare", ', "OBSERVED_HEADER"]', "]")
    results = {str(ROOT): identity.run_tree(sys.executable, str(ROOT), []),
               changed: identity.run_tree(sys.executable, changed, [])}
    found = identity.differences([], results[str(ROOT)], results[changed])
    assert [(i, what) for i, what, _, _ in found] == [(None, "public names dimorb.compare.__all__")]
    _, _, parent, change = found[0]
    assert set(parent) - set(change) == {"OBSERVED_HEADER"}
    # main names the dropped name itself, however long the lists are
    monkeypatch.setattr(identity, "corpus", lambda seed: [])
    monkeypatch.setattr(identity, "run_tree", lambda python, tree, cases: results[tree])
    assert identity.main([str(ROOT), changed]) == 1
    assert capsys.readouterr().out.endswith(
        "\n  public names dimorb.compare.__all__\n"
        "    only in the parent: ['OBSERVED_HEADER']\n    only in the change: []\n")


def test_main_lists_each_difference_up_to_its_cap(tmp_path, capsys, monkeypatch):
    changed = _changed_tree(tmp_path, "cli", '"muon_mev"', '"muon_MeV"')
    argvs = [["sweep", "alpha", "--from=0.007", "--to=0.008", "--steps=2", f"--format={fmt}"]
             for fmt in ("csv", "json")]
    monkeypatch.setattr(identity, "corpus", lambda seed: [identity._case([a]) for a in argvs])
    assert identity.main([str(ROOT), changed]) == 1
    out = capsys.readouterr().out
    assert ": 2 argvs in 2 cases and the public names, 2 differences\n" in out
    for i, argv in enumerate(argvs):
        assert f"\n  case {i}, stdout of {shlex.join(argv)}\n    files: [], config: None\n" in out
    assert out.count("\n    parent: ") == out.count("\n    change: ") == 2
    assert "muon_MeV" in out and " more\n" not in out
    monkeypatch.setattr(identity, "LISTED", 1)
    assert identity.main([str(ROOT), changed]) == 1
    out = capsys.readouterr().out
    assert "case 0, stdout" in out and "case 1," not in out and out.endswith("\n  and 1 more\n")


_RAISED = "raised ZeroDivisionError: float division by zero"


def _result_with_raises() -> tuple[list, dict]:
    """Three argvs in two cases and a hand-made result of them, in which two raised."""
    cases = [identity._case([["bosons"], ["sweep", "alpha", "--from=1e-170"]]),
             identity._case([["compare", "--format=json"]])]
    result = {"surface": {}, "cases": [
        {"steps": [[0, "out\n", ""], [_RAISED, "", ""]], "files": {}},
        {"steps": [["raised KeyError: 'GeV'", "", ""]], "files": {}},
    ]}
    return cases, result


def test_raised_lists_each_argv_whose_run_raised():
    cases, result = _result_with_raises()
    assert identity.raised(cases, result) == [
        (0, ["sweep", "alpha", "--from=1e-170"], _RAISED),
        (1, ["compare", "--format=json"], "raised KeyError: 'GeV'"),
    ]
    result["cases"][0]["steps"][1][0] = 1
    result["cases"][1]["steps"][0][0] = 2
    assert identity.raised(cases, result) == []


def test_main_fails_on_an_argv_that_raised_alike_in_both_trees(capsys, monkeypatch):
    cases, result = _result_with_raises()
    monkeypatch.setattr(identity, "corpus", lambda seed: cases)
    monkeypatch.setattr(identity, "run_tree", lambda python, tree, cases: result)
    assert identity.main(["parent", "change"]) == 1
    out = capsys.readouterr().out
    assert ": 3 argvs in 2 cases and the public names, 0 differences\n" in out
    assert ": 2 argvs raised in the parent, 2 in the change\n" in out
    for tree in ("parent", "change"):
        assert f"\n  case 0, sweep alpha --from=1e-170 in the {tree}: {_RAISED!r}\n" in out
        assert f"\n  case 1, compare --format=json in the {tree}: \"raised KeyError: 'GeV'\"" in out
    monkeypatch.setattr(identity, "LISTED", 3)
    assert identity.main(["parent", "change"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n  case ") == 3 and out.endswith("\n  and 1 more raised\n")


# the script's entry on the first three cases of the corpus, run in a process of its own
_ON_A_SLICE = """import importlib.util, sys
spec = importlib.util.spec_from_file_location("identity", sys.argv[1])
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)
whole = identity.corpus
identity.corpus = lambda seed: whole(seed)[:3]
sys.exit(identity._script([sys.argv[2], sys.argv[2]]))
"""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_stdout_whose_reader_is_gone_is_one_stderr_line_and_exit_1(unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-c", _ON_A_SLICE, str(ROOT / "tools" / "identity.py"), str(ROOT)],
            stdout=write, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    # no traceback, and no "Exception ignored" from the flush at exit
    assert (child.returncode, child.stderr.decode().splitlines()) == (
        1, ["identity.py: cannot write stdout: [Errno 32] Broken pipe"])

"""`tools/identity.py` finds no difference between a tree and itself, and finds a changed byte
of a written file and a name dropped from a module's `__all__`."""

import importlib.util
import shutil
import sys
from pathlib import Path

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
    # lone "-inf" or "-8.8e+44" after a flag as an option, and the argv stops at a usage error
    value_flags = {*identity.FLAGS, "--digits", "--from", "--to", "--steps", "--tol", "--format",
                   "--anchors", "--out", "--observed", "--calibration"}
    assert not [argv for argv in argvs
                if any(flag in value_flags and value.startswith("-")
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


def test_a_name_dropped_from_a_module_is_found(tmp_path):
    changed = _changed_tree(tmp_path, "compare", ', "OBSERVED_HEADER"]', "]")
    before = identity.run_tree(sys.executable, str(ROOT), [])
    found = identity.differences([], before, identity.run_tree(sys.executable, changed, []))
    assert [(i, what) for i, what, _, _ in found] == [(None, "public names dimorb.compare.__all__")]
    _, _, parent, change = found[0]
    assert set(parent) - set(change) == {"OBSERVED_HEADER"}

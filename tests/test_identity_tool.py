"""`tools/identity.py` finds no difference between a tree and itself, and finds a changed byte."""

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


def test_a_tree_matches_itself_and_a_changed_digit_is_found(tmp_path):
    cases = identity.corpus(1)[:60]  # the golden argvs, the README lines and part of the grid
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "dimorb" / "cli.py"
    text = cli.read_text()
    assert text.count("ev.top_lump / 1e3") == 1
    cli.write_text(text.replace("ev.top_lump / 1e3", "ev.top_lump / 1e3 + 1e-9"))
    before = identity.run_tree(sys.executable, str(ROOT), cases)
    assert identity.differences(cases, before, identity.run_tree(sys.executable, str(ROOT),
                                                                 cases)) == []
    found = identity.differences(cases, before,
                                 identity.run_tree(sys.executable, str(changed), cases))
    assert "files left" in {what for _, what, _, _ in found}

"""The output contract: every case of the seed-1 identity corpus gives its committed digest.

`tests/golden/identity-seed1.txt` holds one line for each case of `tools/identity.py`'s corpus
at seed 1: a digest and the case's first argv. The digest is `identity.digest` of
the case's record, a short SHA-256 of each argv's exit code, stdout and stderr and of the
files the case leaves. The corpus runs in-process in this tree, once a session (the
`identity_run` fixture).

argparse words a few texts differently by Python, such as `dimorb --help` on 3.13. The digest
of such a case is pinned per Python, as `exit=<exit codes>,<version>=<digest>,...`. On a
Python the line does not list, the case is checked by its exit codes alone, and
`test_every_committed_line_matches_a_case` says so on the terminal.

The committed lines are matched to the corpus's cases in order by first argv, with `difflib`,
so a case added or lost anywhere in the corpus shows as that one case and that one line of the
file, not as a shift of every later case. A case with no line is added, a line with no case
is lost, and either fails, as does a matched case whose digest changed or an argv that raised.
Each hand-written case, the corpus before its seeded fuzz, is its own test, named by its first
command and a hash of the case (`written_case` in `conftest.py`); the fuzz is one test, which
lists its first `LISTED` failing cases, and one more test lists the lost lines. A failure shows
each case's argvs and outputs, and the path of the file this tree gives, written under pytest's
temporary directory. A change that means to change output bytes commits that file, so its diff
lists the cases that changed.
"""

import difflib
import platform
import shlex
from pathlib import Path

import pytest

DIGESTS = Path(__file__).resolve().parent / "golden" / "identity-seed1.txt"
PYTHON = platform.python_version()
LISTED = 20
HEADER = """\
# Digests of tools/identity.py's corpus at seed 1, one line a case: digest, first argv.
# A digest is identity.digest of the case's exit codes, stdout, stderr and files left; one
# that argparse words by Python is pinned per Python: exit=<codes>,<version>=<digest>,...
# Checked by tests/test_identity_digest.py, which writes this file anew on a mismatch.
"""


def _committed() -> list[tuple[str, str]]:
    """Each (digest field, first argv) of the committed file, in its order."""
    lines = DIGESTS.read_text().splitlines() if DIGESTS.exists() else []
    return [(token, argv.rstrip()) for token, argv in
            ((line + " ").split(" ", 1) for line in lines if line and not line.startswith("#"))]


def _codes(record: dict) -> str:
    return "/".join(str(code) for code, _, _ in record["steps"])


def _pinned(token: str) -> dict | None:
    """A per-Python digest field as {"exit": codes, version: digest, ...}, else None."""
    return dict(entry.split("=", 1) for entry in token.split(",")) if "=" in token else None


def _outputs(case: dict, record: dict) -> str:
    """Each argv with its outputs, then the files the case wrote or changed."""
    text = "".join(f"  $ dimorb {shlex.join(argv)}\n  exit {code}\n  stdout: {out!r}\n"
                   f"  stderr: {err!r}\n" for argv, (code, out, err) in
                   zip(case["argvs"], record["steps"]))
    given = {**case["files"], "config.txt": case["config"]}
    written = {name: text for name, text in record["files"].items() if given.get(name) != text}
    return f"{text}  files written: {written!r}\n"


@pytest.fixture(scope="module")
def checked(identity_run, tmp_path_factory):
    """The corpus's cases matched to the committed lines, as a dict: `tokens`, each matched
    case's committed digest field by index; `lost`, the lines no case matches; `differing`,
    the indices of the cases whose digest is not the committed one; `by_exit_code`, those the
    file pins for other Pythons only; and `fresh`, the file this tree gives, written when a
    case differs or a line is lost."""
    identity, cases, records = identity_run
    committed = _committed()
    firsts = [shlex.join(case["argvs"][0]) if case["argvs"] else "" for case in cases]
    matcher = difflib.SequenceMatcher(None, [argv for _, argv in committed], firsts,
                                      autojunk=False)
    tokens = {block.b + k: committed[block.a + k][0]
              for block in matcher.get_matching_blocks() for k in range(block.size)}
    lost = [committed[j][1] for tag, j1, j2, _, _ in matcher.get_opcodes() if tag != "equal"
            for j in range(j1, j2)]
    lines, differing, by_exit_code = [], set(), []
    for i, (record, first) in enumerate(zip(records, firsts)):
        token = tokens.get(i, "")
        pinned, digest = _pinned(token), identity.digest(record)
        if pinned is None:
            new, same = digest, digest == token
        else:  # on a Python the line does not list, by exit codes alone
            new = ",".join(f"{key}={value}" for key, value in
                           {**pinned, "exit": _codes(record), PYTHON: digest}.items())
            same = pinned["exit"] == _codes(record) and pinned.get(PYTHON, digest) == digest
            if PYTHON not in pinned:
                by_exit_code.append(i)
        lines.append(f"{new} {first}".rstrip() + "\n")
        if not same:
            differing.add(i)
    fresh = None
    if differing or lost:
        fresh = tmp_path_factory.mktemp("identity") / DIGESTS.name
        fresh.write_text(HEADER + "".join(lines))
    return {"tokens": tokens, "lost": lost, "differing": differing,
            "by_exit_code": by_exit_code, "fresh": fresh}


def _failures(identity_run, checked: dict, indices) -> list:
    """The listing of each case of `indices` whose digest differs or whose run raised."""
    identity, cases, records = identity_run
    listed = []
    for i in indices:
        raised = identity.raised([cases[i]], {"cases": [records[i]]})
        if raised or i in checked["differing"]:
            listed.append(f"case {i}{'' if i in checked['tokens'] else ' (added)'}"
                          f"{' raised' if raised else ''}:\n{_outputs(cases[i], records[i])}")
    return listed


def test_a_written_case_gives_its_committed_digest(written_case, identity_run, checked):
    failed = _failures(identity_run, checked, [written_case])
    if failed:
        pytest.fail(f"differs from {DIGESTS}; this tree's file is {checked['fresh']}\n"
                    f"{failed[0]}", pytrace=False)


def test_every_fuzz_case_gives_its_committed_digest(identity_run, checked):
    identity, cases, _ = identity_run
    fuzz = range(len(identity.corpus(1, fuzz=0)), len(cases))
    failed = _failures(identity_run, checked, fuzz)
    if failed:
        pytest.fail(f"{len(failed)} of {len(fuzz)} fuzz cases differ from {DIGESTS}; this tree's "
                    f"file is {checked['fresh']}\n{''.join(failed[:LISTED])}", pytrace=False)


def test_every_committed_line_matches_a_case(checked, capsys):
    if checked["by_exit_code"]:
        with capsys.disabled():
            print(f"\n{DIGESTS.name} pins no digest for Python {PYTHON}: cases "
                  f"{', '.join(map(str, checked['by_exit_code']))} checked by exit code only")
    lost = checked["lost"]
    if lost:
        pytest.fail(f"{len(lost)} lines of {DIGESTS} match no case; this tree's file is "
                    f"{checked['fresh']}\n" + "".join(f"line (lost): {argv}\n"
                                                    for argv in lost[:LISTED]), pytrace=False)

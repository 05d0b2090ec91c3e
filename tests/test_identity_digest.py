"""The output contract: every case of the seed-1 identity corpus gives its committed digest.

`tests/golden/identity-seed1.txt` holds one line for each case of `tools/identity.py`'s corpus
at seed 1: the case's index, a digest and its first argv. The digest is `identity.digest` of
the case's record, a short SHA-256 of each argv's exit code, stdout and stderr and of the
files the case leaves. The corpus runs in-process in this tree, once a session (the
`identity_run` fixture).

argparse words a few texts differently by Python, such as `dimorb --help` on 3.13. The digest
of such a case is pinned per Python, as `exit=<exit codes>,<version>=<digest>,...`. On a
Python the line does not list, the case is checked by its exit codes alone, and the test says
so on the terminal.

On a mismatch the test lists the first `LISTED` differing cases with their argvs and outputs,
and writes the file this tree gives under pytest's temporary directory. A change that means
to change output bytes commits that file, so its diff lists the cases that changed.
"""

import platform
import shlex
from pathlib import Path

import pytest

DIGESTS = Path(__file__).resolve().parent / "golden" / "identity-seed1.txt"
PYTHON = platform.python_version()
LISTED = 20
HEADER = """\
# Digests of tools/identity.py's corpus at seed 1, one line a case: index, digest, first argv.
# A digest is identity.digest of the case's exit codes, stdout, stderr and files left; one
# that argparse words by Python is pinned per Python: exit=<codes>,<version>=<digest>,...
# Checked by tests/test_identity_digest.py, which writes this file anew on a mismatch.
"""


def _committed() -> dict[int, tuple[str, str]]:
    """Each index's (digest field, first argv) in the committed file."""
    lines = DIGESTS.read_text().splitlines() if DIGESTS.exists() else []
    return {int(index): (token, argv) for index, token, argv in
            ((line + " ").split(" ", 2) for line in lines if line and not line.startswith("#"))}


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


def test_every_case_of_the_corpus_gives_its_committed_digest(identity_run, tmp_path, capsys):
    identity, cases, records = identity_run
    assert not identity.raised(cases, {"cases": records})
    committed = _committed()
    lines, differing, by_exit_code = [], [], []
    for i, (case, record) in enumerate(zip(cases, records)):
        token, argv = committed.get(i, ("", ""))
        first = shlex.join(case["argvs"][0]) if case["argvs"] else ""
        pinned, digest = _pinned(token), identity.digest(record)
        if pinned is None:
            new, same = digest, digest == token
        else:  # on a Python the line does not list, by exit codes alone
            new = ",".join(f"{key}={value}" for key, value in
                           {**pinned, "exit": _codes(record), PYTHON: digest}.items())
            same = pinned["exit"] == _codes(record) and pinned.get(PYTHON, digest) == digest
            if PYTHON not in pinned:
                by_exit_code.append(i)
        lines.append(f"{i} {new} {first}".rstrip() + "\n")
        if not same or argv.rstrip() != first:
            differing.append(i)
    differing += sorted(set(committed) - set(range(len(cases))))  # cases the corpus lost
    if by_exit_code:
        with capsys.disabled():
            print(f"\n{DIGESTS.name} pins no digest for Python {PYTHON}: cases "
                  f"{', '.join(map(str, by_exit_code))} checked by exit code only")
    if differing:
        fresh = tmp_path / DIGESTS.name
        fresh.write_text(HEADER + "".join(lines))
        listed = "".join(f"case {i}:\n{_outputs(cases[i], records[i])}"
                         for i in differing[:LISTED] if i < len(cases))
        pytest.fail(f"{len(differing)} of {len(cases)} cases differ from {DIGESTS}; this tree's "
                    f"file is {fresh}\n{listed}", pytrace=False)

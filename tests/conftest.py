import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    # tests must not pick up a config file from the environment
    monkeypatch.delenv("DIMORB_CONFIG", raising=False)


@functools.cache
def _identity():
    """`tools/identity.py`, loaded once a session."""
    spec = importlib.util.spec_from_file_location(
        "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    return identity


def pytest_generate_tests(metafunc):
    """A test that takes `written_case` runs once for each hand-written case of the seed-1
    corpus, the cases before its fuzz, given as the case's index. A case's id is its first
    command and a hash of the case, so adding or moving a case renames no other."""
    if "written_case" in metafunc.fixturenames:
        cases = _identity().corpus(1, fuzz=0)
        firsts = [(case["argvs"] or [[]])[0] for case in cases]
        ids = [f"{first[0] if first and first[0] else 'empty'}-"
               f"{hashlib.sha256(json.dumps(case, sort_keys=True).encode()).hexdigest()[:10]}"
               for first, case in zip(firsts, cases)]
        metafunc.parametrize("written_case", range(len(cases)), ids=ids)


@pytest.fixture(scope="session")
def identity_run():
    """(`tools/identity.py`, its seed-1 corpus, each case's record): the corpus is run through
    `cli.run` in-process once a session, as the tool's worker runs it, for every test that
    reads it."""
    identity = _identity()
    from dimorb.cli import run
    cases = identity.corpus(1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")  # the worker's width, to which argparse wraps --help
        records = [identity._run_case(run, case) for case in cases]
    return identity, cases, records

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    # tests must not pick up a config file from the environment
    monkeypatch.delenv("DIMORB_CONFIG", raising=False)


@pytest.fixture(scope="session")
def identity_run():
    """(`tools/identity.py`, its seed-1 corpus, each case's record): the corpus is run through
    `cli.run` in-process once a session, as the tool's worker runs it, for every test that
    reads it."""
    spec = importlib.util.spec_from_file_location(
        "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    from dimorb.cli import run
    cases = identity.corpus(1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")  # the worker's width, to which argparse wraps --help
        records = [identity._run_case(run, case) for case in cases]
    return identity, cases, records

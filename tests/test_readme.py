"""The README's Python examples run as written and print what their comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dimorb

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)
# an unindented print whose trailing comment is the line it prints
EXPECTED = re.compile(r"^print\(.*\)\s+# (.+)$", re.M)

SRC = str(Path(dimorb.__file__).resolve().parents[1])
ENV = {key: value for key, value in os.environ.items() if key != "DIMORB_CONFIG"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


def test_readme_examples_state_their_output():
    assert len(BLOCKS) >= 3
    assert "1.13387e+19 GeV" in EXPECTED.findall(README)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_prints_its_comments(block, tmp_path):
    child = subprocess.run([sys.executable, "-c", block], env=ENV, cwd=tmp_path,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    printed = iter(child.stdout.splitlines())
    for expected in EXPECTED.findall(block):
        # `in` consumes the iterator, so the lines must appear in this order
        assert expected in printed, f"{expected!r} not printed in order:\n{child.stdout}"

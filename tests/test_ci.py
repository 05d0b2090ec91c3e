"""The two settings that make the CI tier-1 step stricter than a plain local run: Python's
development mode (`-X dev`) and pytest's `filterwarnings`, which begins with "error". And the
CI identity step, which runs `tools/identity.py` on one tree twice for seeds 1 and 7, in two
worker processes with their own hash seeds; tier-1 checks seed 1 alone, in one process. Both
files are read with `re`: PyYAML is no declared test dependency, and Python 3.10 has no
`tomllib`."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_ci_tier1_step_runs_pytest_in_development_mode():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    # the step's one-line `run:`, after any comment lines
    step = re.search(r"^ *- name: Tier-1 tests\n(?: *#.*\n)* *run: (.+)$", workflow, re.M)
    assert step, "no step named Tier-1 tests with a one-line run:"
    assert re.search(r"(^| )python -X dev -m pytest( |$)", step.group(1)), step.group(1)


def test_the_ci_identity_step_runs_the_tool_on_one_tree_for_seeds_1_and_7():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    # the step's `run: |` block, after any comment lines: each line indented past `run:`
    step = re.search(r"^( *)- name: Identity corpus.*\n(?: *#.*\n)* *run: \|\n((?:\1   .*\n)+)",
                     workflow, re.M)
    assert step, "no step named Identity corpus with a run: | block"
    seeds = {(run.group(1) or "1") for line in step.group(2).splitlines()
             if (run := re.fullmatch(r" *python3? tools/identity\.py \. \.(?: --seed (\d+))?",
                                     line))}
    assert seeds >= {"1", "7"}, step.group(2)


def test_pytest_turns_every_warning_into_an_error():
    pyproject = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[tool\.pytest\.ini_options\]\n(.*?)(?=^\[|\Z)", pyproject,
                        re.M | re.S)
    assert section, "no [tool.pytest.ini_options] table"
    # the first entry of the list, with nothing but white space before it
    first = re.search(r'^filterwarnings = \[\s*"([^"]*)"', section.group(1), re.M)
    assert first and first.group(1) == "error", section.group(1)

"""The two settings that make the CI tier-1 step stricter than a plain local run: Python's
development mode (`-X dev`) and pytest's `filterwarnings`, which begins with "error". And the
CI identity step, which runs `tools/identity.py` on one tree twice for seeds 1 and 7, in two
worker processes with their own hash seeds; tier-1 checks seed 1 alone, in one process. And the
CI benchmark step, which runs the sweep workload on two seeds and fails on any failed op. Both
files are read with `re`: PyYAML is no declared test dependency, and Python 3.10 has no
`tomllib`."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _bench_step() -> str:
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    # the step's `run: |` block, after any comment lines: each line indented past `run:`
    step = re.search(r"^( *)- name: Benchmark oracles.*\n(?: *#.*\n)* *run: \|\n((?:\1   .*\n)+)",
                     workflow, re.M)
    assert step, "no step named Benchmark oracles with a run: | block"
    return step.group(2)


def test_the_ci_bench_step_runs_the_sweep_workload_on_two_seeds():
    loop = re.search(r"^ *for run in ((?:\"\w+ \d+\" ?)+); do$", _bench_step(), re.M)
    assert loop, _bench_step()
    runs = re.findall(r"\"(\w+) (\d+)\"", loop.group(1))
    assert len({seed for workload, seed in runs if workload == "sweep_inproc"}) >= 2, runs


@pytest.mark.parametrize("failed, code", [(0, 0), (1, 1)])
def test_the_ci_bench_step_fails_on_a_failed_op(failed, code):
    # the step's inline checker reads the summary line of one run and exits 1 if an op failed
    checker = re.search(r"python3 -c \"([^\"]+)\" \"\$1\" \"\$2\"", _bench_step())
    assert checker, _bench_step()
    summary = json.dumps({"correct": not failed, "attempted": 5, "failed": failed,
                          "metrics": {}})
    result = subprocess.run([sys.executable, "-c", checker.group(1), "sweep_inproc", "1"],
                            input=summary + "\n", capture_output=True, text=True, check=False)
    assert (result.returncode, result.stderr) == (code, ""), result
    assert result.stdout == f"sweep_inproc seed 1 5 ops, {failed} failed\n"

"""The benchmark's golden command lines, replayed in-process on this Python.

`bench/golden/cli_oneshot.json` records, for each argv of the `cli_oneshot`
workload, the exit code and stdout that `dimorb` gave, the input files those
argvs read and the calibration file `calibrate` wrote. Each argv runs here
through `cli.run` in a directory that holds those files, so the byte contract
is checked on every Python the tests run under. The record is only read.
"""

import json
from pathlib import Path

import pytest

from dimorb.cli import run

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden"
                     / "cli_oneshot.json").read_text())
ENTRIES = [(f"{kind}-{i}", entry) for kind, entries in GOLDEN["kinds"].items()
           for i, entry in enumerate(entries)]


@pytest.mark.parametrize("entry", [entry for _, entry in ENTRIES],
                         ids=[name for name, _ in ENTRIES])
def test_golden_argv_gives_its_recorded_exit_stdout_and_file(entry, tmp_path, monkeypatch,
                                                             capsys):
    for name, text in {**GOLDEN["files"], "cal.txt": GOLDEN["cal_txt"]}.items():
        (tmp_path / name).write_text(text)
    writes_cal = entry["argv"][0] == "calibrate"
    if writes_cal:
        (tmp_path / "cal.txt").unlink()
    monkeypatch.chdir(tmp_path)
    code = run(entry["argv"])
    assert (code, capsys.readouterr().out) == (entry["exit"], entry["stdout"])
    if writes_cal:
        assert (tmp_path / "cal.txt").read_text() == GOLDEN["cal_txt"]

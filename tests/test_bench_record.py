"""`tools/bench_record.py` groups result files by tree, workload and seed, and keeps each
metric's median, interquartile range and values in the order the runs started."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _result(commit: str, started: str, ops: float, workload: str = "sweep_inproc") -> dict:
    return {"workload": workload, "seed": 1, "seconds": 30.0, "trace": 0, "attempted": 100,
            "failed": 0, "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"}},
            "environment": {"python": "3.11.7 (main) [GCC]", "git_commit": commit,
                            "src_sha256": "sha-" + commit, "started_utc": started}}


def test_runs_are_grouped_by_tree_and_summarised(tmp_path):
    results = [_result("b", "T02", 700.0), _result("a", "T01", 480.0), _result("a", "T03", 500.0),
               _result("a", "T05", 470.0), _result("b", "T04", 760.0),
               _result("a", "T00", 5000.0, "pipeline")]
    paths = []
    for i, result in enumerate(results):
        paths.append(tmp_path / f"{i}-result.json")
        paths[-1].write_text(json.dumps(result))
    out = tmp_path / "BENCH.json"
    assert bench_record.main([*map(str, paths), "--out", str(out)]) == 0
    groups = json.loads(out.read_text())["groups"]
    assert [(g["workload"], g["commit"], g["runs"]) for g in groups] == [
        ("pipeline", "a", 1), ("sweep_inproc", "a", 3), ("sweep_inproc", "b", 2)]
    parent = groups[1]
    assert (parent["python"], parent["seed"], parent["src_sha256"], parent["attempted"],
            parent["failed"]) == ("3.11.7", 1, "sha-a", 300, 0)
    assert parent["metrics"]["ops_per_s"] == {"unit": "1/s", "median": 480.0, "iqr": 15.0,
                                              "values": [480.0, 500.0, 470.0]}
    assert groups[0]["metrics"]["ops_per_s"]["iqr"] == 0.0

"""Record benchmark runs in one file that can be committed.

    python3 tools/bench_record.py RESULT.json... --out BENCH_N.json

Each RESULT.json is a result file that `bench/run.py` writes under `bench/results/`.
The runs are grouped by tree (the git commit and the sha256 of `src/dimorb/*.py`, as each
result file records them; a tree that is not a git checkout has an "unknown" commit),
workload, seed, Python version, run length and trace flag. For each group the output
holds those, the number of runs, the failed and attempted ops summed over the runs,
the time each run started, and for each metric its unit, the median and interquartile
range (IQR, from inclusive quartiles) over the runs, and every run's value in the order
the runs started. The groups are sorted by workload, seed, Python version, run length,
trace flag and the start of their first run. It needs the standard library alone.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def _group_key(result: dict) -> tuple:
    env = result["environment"]
    return (result["workload"], result["seed"], env["python"].split()[0], result["seconds"],
            result["trace"], env["git_commit"], env["src_sha256"])


def record(results: list) -> dict:
    """The groups of `results`, each a parsed result file, as `--out` writes them."""
    groups: dict[tuple, list] = {}
    for result in sorted(results, key=lambda r: r["environment"]["started_utc"]):
        groups.setdefault(_group_key(result), []).append(result)
    out = []
    # a stable sort, so groups that differ only in tree stay in the order of their first run
    for key, runs in sorted(groups.items(), key=lambda item: item[0][:5]):
        workload, seed, python, seconds, trace, commit, src = key
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else [values[0]] * 3)
            metrics[name] = {"unit": first["unit"], "median": statistics.median(values),
                             "iqr": quartiles[2] - quartiles[0], "values": values}
        out.append({"workload": workload, "seed": seed, "python": python, "seconds": seconds,
                    "trace": trace, "commit": commit, "src_sha256": src, "runs": len(runs),
                    "attempted": sum(run["attempted"] for run in runs),
                    "failed": sum(run["failed"] for run in runs),
                    "started_utc": [run["environment"]["started_utc"] for run in runs],
                    "metrics": metrics})
    return {"groups": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", metavar="RESULT.json",
                        help="result file written by bench/run.py")
    parser.add_argument("--out", required=True, metavar="FILE", help="file to write")
    args = parser.parse_args(argv)
    results = [json.loads(Path(path).read_text()) for path in args.results]
    Path(args.out).write_text(json.dumps(record(results), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

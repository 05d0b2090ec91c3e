#!/usr/bin/env python3
"""Layered benchmark of dimorb, standard library only.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --write-golden

Run from the root of a checkout. Without --workload it runs every workload
in turn. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer ones; each run also writes a result file under bench/results/.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--write-golden` records the current
code's stdout and exit code for every argv of `cli_oneshot` in
bench/golden/cli_oneshot.json. See bench/README.md for the workloads and
every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from measure import LAYERS, Loop, Speed, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "dimorb"
GOLDEN = BENCH / "golden" / "cli_oneshot.json"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
WORKER = BENCH / "worker.py"
PY = sys.executable

WORKLOADS = ("cli_oneshot", "pipeline", "sweep_inproc")
SETUP_SAMPLES = 5       # set-up is repeated and its median reported
BARE_SAMPLES = 7
IMPORT_SAMPLES = 7
PROC_SAMPLES = 5
CHILD_TIMEOUT_S = 150
# reference for ops that are whole processes: a bare `python -c pass`,
# about this long on the host the benchmark was tuned on (see
# measure.REFERENCE_NS)
BARE_REFERENCE_NS = 50_000_000
BARE_INTERVAL_NS = 200_000_000
DIMORB_MODULES = ("dimorb", "dimorb.quantities", "dimorb.ladder", "dimorb.spectrum",
                  "dimorb.compare", "dimorb.cli")
# one representative argv kind per subcommand for the cli.proc probes
PROC_KINDS = {"bosons": "bosons", "calibrate": "calibrate", "fermions": "fermions_csv",
              "compare": "compare", "sweep": "sweep"}


class Child:
    """One finished process: output, exit code, wall time and its own rusage."""

    def __init__(self, out, err, code, start_ns, wall_ns, ready_ns, cpu_ns, rss_kb):
        self.out, self.err, self.code = out, err, code
        self.start_ns, self.wall_ns, self.ready_ns = start_ns, wall_ns, ready_ns
        self.cpu_ns, self.rss_kb = cpu_ns, rss_kb


def run_child(cmd, cwd, env, ready=False):
    """Run `cmd` to the end, killing it after CHILD_TIMEOUT_S.

    With `ready`, the first stdout line must be `ready` and `ready_ns` is
    the wall time until it arrived. stderr is read after stdout, which is
    safe because no child here writes more than a pipe buffer to it.
    """
    started = []
    timer = threading.Timer(CHILD_TIMEOUT_S, lambda: started and started[0].kill())
    timer.start()
    try:
        t0 = time.perf_counter_ns()
        p = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        started.append(p)
        ready_ns = None
        with p.stdout, p.stderr:
            if ready:
                first = p.stdout.readline()
                ready_ns = time.perf_counter_ns() - t0 if first == b"ready\n" else None
            out = p.stdout.read()
            err = p.stderr.read()
        _, status, usage = os.wait4(p.pid, 0)
        wall_ns = time.perf_counter_ns() - t0
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return Child(out, err, p.returncode, t0, wall_ns, ready_ns,
                 round((usage.ru_utime + usage.ru_stime) * 1e9), usage.ru_maxrss)


def make_tree(path, files=None):
    """A private copy of src/dimorb with no bytecode, plus the files the ops read."""
    shutil.copytree(SRC, path / "src" / "dimorb",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, text in (files or {}).items():
        (path / name).write_text(text)
    return path


def child_env(tree):
    env = {k: v for k, v in os.environ.items()
           if k not in ("DIMORB_CONFIG", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                        "PYTHONSTARTUP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(tree / "src")
    return env


def bare_speed(tree):
    env = child_env(tree)
    return Speed(lambda: run_child([PY, "-c", "pass"], tree, env), BARE_REFERENCE_NS,
                 BARE_INTERVAL_NS)


def dimorb_cmd(argv, importtime=False):
    return [PY, *(("-X", "importtime") if importtime else ()), "-m", "dimorb", *argv]


def parse_importtime(text, marker=None):
    """(name, depth, self_us, cumulative_us) per `-X importtime` line after `marker`."""
    lines = text.splitlines()
    if marker is not None:
        lines = lines[lines.index(marker) + 1:]
    entries = []
    for line in lines:
        if not line.startswith("import time:"):
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        if not self_us.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((name.strip(), depth, int(self_us), int(cum_us)))
    return entries


def check_cli(entry, child):
    """Exit code and stdout bytes against the golden record.

    Error paths (exit 1 or 2) are held to an empty stdout only, so their
    stderr wording may change.
    """
    errors = []
    argv = " ".join(entry["argv"])
    if child.code != entry["exit"]:
        errors.append(f"dimorb {argv}: exit {child.code}, golden {entry['exit']}")
    want = "" if entry["exit"] in (1, 2) else entry["stdout"]
    if child.out != want.encode():
        errors.append(f"dimorb {argv}: stdout differs from golden ({len(child.out)} bytes)")
    return errors


class Run:
    """What one benchmark run of one workload measures and checks."""

    def __init__(self, workload, seed, seconds, trace, work):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.golden = json.loads(GOLDEN.read_text())
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.metrics = {}
        self.details = {}

    def count(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 20 - len(self.errors))])

    def count_loop(self, summary):
        self.attempted += summary["ops"]
        self.failed += summary["failed"]
        self.errors.extend(summary["errors"][: max(0, 20 - len(self.errors))])

    def metric(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def tree(self, name):
        files = dict(self.golden["files"], **{"cal.txt": self.golden["cal_txt"]})
        return make_tree(self.work / name, files)

    def entry(self, kind, rng=None):
        entries = self.golden["kinds"][kind]
        return rng.choice(entries) if rng else entries[0]

    def run_entry(self, entry, tree, tracer=None, kind=None):
        child = run_child(dimorb_cmd(entry["argv"], importtime=tracer is not None),
                          tree, child_env(tree))
        errors = check_cli(entry, child)
        if entry["argv"][0] == "calibrate" and (tree / "cal.txt").read_text() != \
                self.golden["cal_txt"]:
            errors.append("calibrate wrote a calibration file that differs from golden")
        if tracer is not None:
            # the process, and inside it the child's own -X importtime report,
            # placed at process start, where imports run
            imported_us = sum(cum for _, depth, _, cum in
                              parse_importtime(child.err.decode(errors="replace"))
                              if depth == 0)
            tracer.start(f"proc.{kind}", "interp", child.start_ns)
            tracer.start("import", "import", child.start_ns)
            tracer.end(child.start_ns + imported_us * 1000)
            tracer.end(child.start_ns + child.wall_ns)
        return child, errors

    # -- workloads --------------------------------------------------------

    def cli_oneshot(self):
        def first_run(tree):
            child, errors = self.run_entry(self.entry("compare"), tree)
            self.count(errors)
            return child

        setups = []
        for k in range(SETUP_SAMPLES if not self.trace else 1):  # traced runs report no setup_s
            tree = self.tree(f"cli{k}")  # no bytecode yet: this run writes it
            setups.append(self.timed_setup(lambda: first_run(tree)))
        rng = random.Random(f"cli_oneshot-{self.seed}")
        if not self.trace:
            self.metric("setup_s", statistics.median(setups), "s")
            summary, peak_kb = self.cli_loop(tree, rng, self.seconds)
            self.end_to_end(summary)
            self.metric("peak_rss_mb", peak_kb / 1024, "MB")
            return
        untraced, _ = self.cli_loop(tree, rng, self.seconds / 2)
        tracer = Tracer()
        traced, _ = self.cli_loop(tree, rng, self.seconds / 2, tracer)
        tracer.dump(self.result_path("trace-spans.jsonl"))
        self.trace_metrics(untraced, traced, tracer.self_shares(), tree)

    def cli_loop(self, tree, rng, seconds, tracer=None):
        """One client runs `python -m dimorb` over a seeded shuffle of every argv kind."""
        stats = Loop()
        speed = bare_speed(tree)
        peak_kb = 0
        order = []
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline:
            if not order:
                order = sorted(self.golden["kinds"])
                rng.shuffle(order)
            kind = order.pop()
            entry = self.entry(kind, rng)
            if tracer is not None:
                tracer.op = stats.ops
                tracer.start("op", "bench")
            child, errors = self.run_entry(entry, tree, tracer, kind)
            if tracer is not None:
                tracer.end()
            stats.record(child.wall_ns, child.cpu_ns, len(child.out), errors, speed.tick())
            peak_kb = max(peak_kb, child.rss_kb)
        summary = stats.summary()
        self.count_loop(summary)
        return summary, peak_kb

    def inproc(self):
        """`pipeline` or `sweep_inproc`: a worker interpreter runs the loop."""
        tree = self.tree(self.workload)
        warm = run_child([PY, "-c", "import dimorb.cli"], tree, child_env(tree))
        if warm.code != 0:  # it also wrote the bytecode every later import reads
            raise RuntimeError(f"cannot import dimorb: {warm.err.decode(errors='replace')}")
        setups = [self.timed_setup(lambda: self.worker(tree, "setup"))
                  for _ in range(SETUP_SAMPLES if not self.trace else 0)]
        child = self.worker(tree, "trace" if self.trace else "run")
        result = json.loads(child.out.splitlines()[-1])
        self.count_loop(result)
        if not self.trace:
            self.metric("setup_s", statistics.median(setups), "s")
            self.end_to_end(result)
            self.metric("peak_rss_mb", child.rss_kb / 1024, "MB")
            return
        self.trace_metrics(result["untraced"], result["traced"], result["self_shares"], tree)

    def worker(self, tree, mode):
        spans = self.result_path(f"{mode}-spans.jsonl")
        child = run_child([PY, str(WORKER), self.workload, mode, str(self.seed),
                           repr(self.seconds), str(spans)], tree, child_env(tree), ready=True)
        if child.code != 0 or child.ready_ns is None:
            raise RuntimeError(f"worker {mode} failed with exit {child.code}:\n"
                               f"{child.err.decode(errors='replace')}")
        return child

    # -- metrics ----------------------------------------------------------

    def timed_setup(self, start):
        """Seconds until the process `start()` launches can run its first op.

        Scaled by a bare interpreter started just before and just after.
        """
        speed = bare_speed(self.work)
        speed.sample()
        child = start()
        speed.sample()
        seconds = (child.ready_ns if child.ready_ns is not None else child.wall_ns) / 1e9
        self.details.setdefault("setup_raw_s", []).append(seconds)
        return seconds * speed.local

    def end_to_end(self, s):
        for name in ("ops_per_s", "latency_ms_p50", "latency_ms_p90", "cpu_ms_per_op"):
            self.metric(name, s["scaled"][name], "1/s" if name == "ops_per_s" else "ms")
        self.details.update(ops=s["ops"], raw=s["raw"], blocks=s["blocks"])

    def trace_metrics(self, untraced, traced, shares, tree):
        for layer in LAYERS:
            self.metric(f"trace.{layer}.self_share", shares[layer], "share")
        self.metric("trace.overhead_share",
                    traced["scaled"]["mean_ms"] / untraced["scaled"]["mean_ms"] - 1, "share")
        self.metric("cli.stdout_bytes", untraced["stdout_bytes_per_op"], "bytes")
        self.import_probe(tree)
        self.proc_probe(tree)
        probe = json.loads(self.worker(tree, "probe")
                           .out.splitlines()[-1])
        self.count_loop(probe)
        for name, value in probe["metrics"].items():
            self.metric(name, value, "us" if name.endswith("_us") else "count")

    def import_probe(self, tree):
        """Fresh `-X importtime` runs of `import dimorb.cli`; medians."""
        marker = "import-probe-start"
        code = f"import sys; print({marker!r}, file=sys.stderr); import dimorb.cli"
        runs = []
        for _ in range(IMPORT_SAMPLES):
            child = run_child([PY, "-X", "importtime", "-c", code], tree, child_env(tree))
            self.count([] if child.code == 0 else [f"import probe exited {child.code}"])
            runs.append(parse_importtime(child.err.decode(errors="replace"), marker))
        med = lambda f: statistics.median(f(entries) for entries in runs)  # noqa: E731
        self.metric("import.total_ms", med(lambda e: sum(c for _, d, _, c in e if d == 0) / 1e3),
                    "ms")
        for module in DIMORB_MODULES:
            short = module.rpartition(".")[2]
            self.metric(f"import.{short}.self_ms",
                        med(lambda e: sum(s for n, _, s, _ in e if n == module) / 1e3), "ms")
        self.metric("import.stdlib_ms",
                    med(lambda e: sum(s for n, _, s, _ in e if n.split(".")[0] != "dimorb") / 1e3),
                    "ms")
        self.metric("import.modules_loaded", med(len), "count")

    def proc_probe(self, tree):
        """Fresh `python -m dimorb` runs of each subcommand, interleaved; medians."""
        walls = {sub: [] for sub in PROC_KINDS}
        for _ in range(PROC_SAMPLES):
            for sub, kind in PROC_KINDS.items():
                child, errors = self.run_entry(self.entry(kind), tree)
                self.count(errors)
                walls[sub].append(child.wall_ns / 1e6)
        for sub, values in walls.items():
            self.metric(f"cli.proc.{sub}_ms", statistics.median(values), "ms")

    def result_path(self, suffix):
        return RESULTS / f"{self.workload}-seed{self.seed}-trace{self.trace}-{os.getpid()}-{suffix}"


def interp_bare_ms(work):
    env = child_env(work)
    return statistics.median(run_child([PY, "-c", "pass"], work, env).wall_ns / 1e6
                             for _ in range(BARE_SAMPLES))


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(work):
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version,
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "interp_bare_ms": interp_bare_ms(work),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(workload, seed, seconds, trace, work, env_info):
    run = Run(workload, seed, seconds, trace, work)
    if workload == "cli_oneshot":
        run.cli_oneshot()
    else:
        run.inproc()
    if trace:
        run.metric("interp.bare_ms", env_info["interp_bare_ms"], "ms")
    run.details["failed_share"] = run.failed / run.attempted
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env_info, "attempted": run.attempted, "failed": run.failed,
              "errors": run.errors, "details": run.details,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()}}
    run.result_path("result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_result(result):
    w = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{w:<13} {name:<32} {m['value']:>16.6g} {m['unit']}")
    d = result["details"]
    if "blocks" in d:
        print(f"{w:<13} {'latency samples':<32} {d['ops']:>16d} count "
              f"(in {len(d['blocks']['mean_ms'])} blocks of up to {Loop.BLOCK_OPS} ops)")
        for name, value in d["raw"].items():
            print(f"{w:<13} {'raw ' + name:<32} {value:>16.6g}")
    print(f"{w:<13} {'failed_share':<32} {d['failed_share']:>16.6g} share "
          f"({result['failed']} of {result['attempted']} ops)")
    for error in result["errors"]:
        print(f"{w:<13} FAILED: {error}")


def write_golden(work):
    """Record the current code's stdout and exit code for the cli_oneshot pool."""
    kinds, files = inputs.cli_pool()
    tree = make_tree(work / "golden", files)
    env = child_env(tree)
    golden = {"about": "dimorb stdout and exit code per argv; written by "
                       "`python3 bench/run.py --write-golden`",
              "python": sys.version.split()[0], "files": files, "kinds": {}}
    for kind, argvs in kinds.items():  # calibrate runs before the op reading cal.txt
        golden["kinds"][kind] = []
        for argv in argvs:
            child = run_child(dimorb_cmd(argv), tree, env)
            if child.code not in (0, 1, 2, 3) or b"Traceback" in child.err:
                raise RuntimeError(f"dimorb {' '.join(argv)} crashed:\n{child.err.decode()}")
            golden["kinds"][kind].append({"argv": argv, "exit": child.code,
                                          "stdout": child.out.decode()})
    golden["cal_txt"] = (tree / "cal.txt").read_text()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no dimorb package at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not args.write_golden and not GOLDEN.is_file():
        print(f"error: {GOLDEN} is missing; create it with --write-golden", file=sys.stderr)
        return 2
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.write_golden:
            write_golden(work)
            return 0
        env_info = environment(work)
        results = []
        for workload in [args.workload] if args.workload else WORKLOADS:
            results.append(run_workload(workload, args.seed, args.seconds, args.trace, work,
                                        env_info))
            print_result(results[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): v
               for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process worker of the dimorb benchmark; bench/run.py starts it.

    python3 bench/worker.py WORKLOAD MODE SEED SECONDS SPANS_FILE

WORKLOAD is `pipeline` or `sweep_inproc`; MODE is `setup` (import and one
warm-up op, then exit), `run` (closed loop for SECONDS), `trace` (half the
time untraced, half traced) or `probe` (time each public function on its
own). dimorb must be importable through PYTHONPATH.

dimorb is imported before any module of the benchmark, and the warm-up op
needs nothing else, so the set-up time run.py measures holds dimorb's
imports and no import of the benchmark's own.
"""

import io
import sys

from dimorb import (
    AuxBaseSet,
    ModelConstants,
    Unit,
    baryon_fractions,
    boson_ladder,
    calibrate,
    closed_form_mass,
    compare_all,
    composition,
    computed_claims,
    default_observed,
    electroweak_mix,
    fermion_mass,
    format_calibration,
    format_observed_csv,
    full_spectrum,
    gev,
    load_bases,
    mev,
    parse_observed,
    render,
)
from dimorb.cli import build_parser, run

import oracle  # needs only math, which dimorb has imported already

PROBE_REPS = 200
PROBE_SWEEP = ["sweep", "alpha", "--from", "0.0073", "--to", "0.0146", "--steps", "3"]


def make_constants(k):
    return ModelConstants(alpha_e=k["alpha"], m_electron=mev(k["m_electron_mev"]),
                          m_z=gev(k["m_z_gev"]), theta_w_deg=k["theta_w_deg"],
                          planck_ref=gev(k["planck_gev"]))


def pipeline_op(t, case):
    """The library path: constants -> ladder -> mix -> calibrate -> spectrum -> report."""
    c = t.call("quantities", "model_constants", make_constants, case["constants"])
    ladder = t.call("ladder", "boson_ladder", boson_ladder, c)
    mix = t.call("ladder", "electroweak_mix", electroweak_mix, c)
    cal = t.call("spectrum", "calibrate", calibrate, c, case["anchor"])
    spectrum = t.call("spectrum", "full_spectrum", full_spectrum, c, cal.bases)
    records = t.call("compare", "parse_observed", parse_observed, case["csv"])
    report = t.call("compare", "compare_all", compare_all, spectrum, ladder, mix,
                    baryon_fractions(), records)
    text = t.call("compare", f"render_{case['format']}", render, report, case["format"])
    return ladder, mix, spectrum, report, text


def captured_run(argv):
    """dimorb.cli.run with stdout captured; returns (exit code, stdout text)."""
    buf, saved = io.StringIO(), sys.stdout
    sys.stdout = buf
    try:
        code = run(argv)
    finally:
        sys.stdout = saved
    return code, buf.getvalue()


def sweep_op(t, case):
    return t.call("cli", "run_sweep", captured_run, case["argv"])


class NoTrace:
    """Stand-in for measure.Tracer in untraced runs: calls straight through."""

    op = 0

    def start(self, name, layer):
        pass

    def end(self):
        pass

    def call(self, layer, name, fn, *args):
        return fn(*args)


WARMUP = {
    "pipeline": lambda: pipeline_op(NoTrace(), {
        "constants": oracle.DEFAULTS, "anchor": "d",
        "csv": format_observed_csv(default_observed()), "format": "markdown"}),
    "sweep_inproc": lambda: captured_run(
        ["sweep", "alpha", "--from", "0.0073", "--to", "0.0074", "--steps", "200"]),
}


def rendered_names(fmt, text):
    """Row names as the rendered report lists them."""
    import csv
    import json
    if fmt == "json":
        return [entry["name"] for entry in json.loads(text)]
    lines = text.splitlines()
    if fmt == "csv":
        return [r[0] for r in csv.reader(lines[1:]) if r and not r[0].startswith("#")]
    rows = []
    for line in lines[2:]:
        if not line.startswith("| "):
            break
        rows.append(line[2:].split(" | ")[0])
    return rows


def check_pipeline(case, result):
    ladder, mix, spectrum, report, text = result
    k, anchor = case["constants"], case["anchor"]
    errors = []
    oracle.check_ladder(errors, k, {d: ladder.mass(d).to(Unit.GEV).magnitude
                                    for d in range(5, 12)})
    oracle.check_mix(errors, k, mix.alpha_w, mix.sin2_theta_w)
    oracle.check_spectrum(errors, k, anchor, {name: m.mev for name, m in spectrum})
    oracle.check_report(errors, k, anchor, case["observed"],
                        [(r.name, r.computed) for r in report.rows],
                        report.skipped_observed, report.skipped_computed)
    names = [r.name for r in report.rows]
    if rendered_names(case["format"], text) != names:
        errors.append(f"{case['format']} render lists {rendered_names(case['format'], text)}, "
                      f"report has {names}")
    return errors


def parse_sweep(fmt, text):
    import json
    if fmt == "json":
        return [[float(v) for v in entry.values()] for entry in json.loads(text)]
    lines = text.splitlines()
    if fmt == "csv":
        return [[float(v) for v in line.split(",")] for line in lines[1:]]
    return [[float(v) for v in line.split()] for line in lines[2:]]


def check_sweep(case, result):
    code, text = result
    if code != 0:
        return [f"sweep exited {code}"]
    errors = []
    try:
        rows = parse_sweep(case["format"], text)
    except ValueError as exc:
        return [f"unreadable {case['format']} sweep output: {exc}"]
    oracle.check_sweep(errors, oracle.DEFAULTS, case["param"], case["points"], rows)
    return errors


def out_bytes(workload, result):
    return len(result[4] if workload == "pipeline" else result[1])


def loop(workload, cases, seconds, tracer):
    """Run ops back to back for `seconds`; only dimorb's calls are timed."""
    from time import perf_counter_ns, process_time_ns
    from measure import Loop, Speed
    op, check = (pipeline_op, check_pipeline) if workload == "pipeline" else (sweep_op, check_sweep)
    stats = Loop()
    speed = Speed()
    speed.sample()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while perf_counter_ns() < deadline:
        case = cases[i % len(cases)]
        tracer.op = i
        i += 1
        tracer.start("op", "bench")
        c0, t0 = process_time_ns(), perf_counter_ns()
        try:
            result = op(tracer, case)
        except Exception as exc:  # a failing op is counted, and the loop goes on
            t1, c1 = perf_counter_ns(), process_time_ns()
            tracer.end()
            stats.record(t1 - t0, c1 - c0, 0, [f"{type(exc).__name__}: {exc}"], speed.tick())
            continue
        t1, c1 = perf_counter_ns(), process_time_ns()
        errors = tracer.call("bench", "oracle", check, case, result)
        tracer.end()
        stats.record(t1 - t0, c1 - c0, out_bytes(workload, result), errors, speed.tick())
    return stats.summary()


def probe(seed, tracer):
    """Time each public function on its own, interleaved, on seeded inputs."""
    import inputs
    cases = inputs.pipeline_cases(seed, 16)
    mu = composition("mu")
    errors = []
    failed = 0
    for i in range(PROBE_REPS):
        tracer.op = i
        case = cases[i % len(cases)]
        k = case["constants"]
        c = tracer.call("quantities", "model_constants", make_constants, k)
        tracer.call("quantities", "mass_value", mev, k["m_electron_mev"])
        ladder = tracer.call("ladder", "boson_ladder", boson_ladder, c)
        mix = tracer.call("ladder", "electroweak_mix", electroweak_mix, c)
        tracer.call("ladder", "closed_form_mass", closed_form_mass, 5 + i % 7, c)
        cal = tracer.call("spectrum", "calibrate", calibrate, c, case["anchor"])
        spectrum = tracer.call("spectrum", "full_spectrum", full_spectrum, c, cal.bases)
        lepton = AuxBaseSet.lepton_only(c)
        tracer.call("spectrum", "fermion_mass_mu", fermion_mass, mu, lepton, c)
        tracer.call("spectrum", "load_bases", load_bases, format_calibration(cal.bases), c)
        records = tracer.call("compare", "parse_observed", parse_observed, case["csv"])
        report = tracer.call("compare", "compare_all", compare_all, spectrum, ladder, mix,
                             baryon_fractions(), records)
        for fmt in ("markdown", "csv", "json"):
            text = tracer.call("compare", f"render_{fmt}", render, report, fmt)
        rep_errors = check_pipeline(dict(case, format="json"),
                                    (ladder, mix, spectrum, report, text))
        tracer.call("cli", "build_parser", build_parser)
        for name, argv in (("run_bosons", ["bosons"]), ("run_compare", ["compare"]),
                           ("run_sweep", PROBE_SWEEP)):
            code, _ = tracer.call("cli", name, captured_run, argv)
            if code != 0:
                rep_errors.append(f"{argv} exited {code}")
        failed += bool(rep_errors)
        errors += rep_errors
    metrics = {f"{name}_us": us for name, us in tracer.durations_us().items()}
    metrics["compare.claims"] = len(computed_claims(spectrum, ladder, mix, baryon_fractions()))
    return {"ops": PROBE_REPS, "failed": failed, "errors": errors[:20], "metrics": metrics}


def main(argv):
    workload, mode, seed, seconds, spans_file = argv
    if workload in WARMUP:
        WARMUP[workload]()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import json

    import inputs
    from measure import Tracer

    seed, seconds = int(seed), float(seconds)
    if mode == "probe":
        tracer = Tracer()
        result = probe(seed, tracer)
        tracer.dump(spans_file)
        print(json.dumps(result))
        return 0
    cases = (inputs.pipeline_cases(seed) if workload == "pipeline"
             else inputs.sweep_cases(seed))
    if mode == "run":
        result = loop(workload, cases, seconds, NoTrace())
    else:
        untraced = loop(workload, cases, seconds / 2, NoTrace())
        tracer = Tracer()
        traced = loop(workload, cases, seconds / 2, tracer)
        tracer.dump(spans_file)
        result = {"ops": untraced["ops"] + traced["ops"],
                  "failed": untraced["failed"] + traced["failed"],
                  "errors": untraced["errors"] + traced["errors"],
                  "untraced": untraced, "traced": traced,
                  "self_shares": tracer.self_shares()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

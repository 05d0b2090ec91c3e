"""Seeded input generator for the dimorb benchmark.

The same seed gives the same inputs. dimorb never sees the seed, only the
constants, argv and CSV text made from it. See README.md for why each
input mix was chosen.
"""

import random

from oracle import CLAIM_NAMES, DEFAULTS, claims, in_unit

# Relative ranges around the defaults. ModelConstants accepts much more
# (alpha in (0, 1), masses > 0, theta in (0, 90)), but calibration only
# succeeds while 3*muon stays below the u row's 330.8 MeV: with alpha down
# to 0.97x default and the electron up to 1.01x, 3*muon is 329.7 MeV, so
# every anchor u..b gives a positive quark base and top lump.
RANGES = {
    "alpha": (0.97, 1.10),
    "m_electron_mev": (0.99, 1.01),
    "m_z_gev": (0.98, 1.02),
    "theta_w_deg": (0.95, 1.05),
    "planck_gev": (0.90, 1.10),
}
PARAMS = tuple(RANGES)
ANCHORS = ("u", "d", "s", "c", "b")
UNMATCHED = ("higgs", "w_boson", "proton", "neutron", "pion", "graviton")
# the report rows the oracle always wants to see
ALWAYS_OBSERVED = ("muon", "top_quark", "baryon_fraction")
SOURCES = ("PDG", "collider fit", "lattice, 2019", "")


def constants(rng):
    return {k: DEFAULTS[k] * rng.uniform(lo, hi) for k, (lo, hi) in RANGES.items()}


def observed(rng, near=False, matched=8, unmatched=2):
    """An observed set as (name, value, unit, uncertainty, source) rows.

    Values sit within 0.2% of the oracle's default-constant claims when
    `near`, else within 10%. Mass claims are observed in MeV or GeV at
    random, so the unit conversion runs; every value is non-zero.
    """
    ref = claims(DEFAULTS)
    names = list(ALWAYS_OBSERVED) + rng.sample(
        [n for n in CLAIM_NAMES if n not in ALWAYS_OBSERVED], matched - len(ALWAYS_OBSERVED))
    names += rng.sample(UNMATCHED, unmatched)
    rng.shuffle(names)
    spread = 0.002 if near else 0.1
    rows = []
    for name in names:
        value, unit = ref.get(name, (1.0, "GeV"))
        if value == 0.0:
            value = 1e-6  # the neutrino rows compute to zero; observed must not
        if unit in ("MeV", "GeV"):
            target = rng.choice(("MeV", "GeV"))
            value, unit = in_unit(value, unit, target), target
        value *= 1 + rng.uniform(-spread, spread)
        uncertainty = abs(value) * rng.uniform(0.001, 0.05) if rng.random() < 0.5 else None
        rows.append((name, value, unit, uncertainty, rng.choice(SOURCES)))
    return rows


def observed_csv(rows, rng):
    """CSV text in the documented format, with comments and blank lines mixed in."""
    lines = ["# observed values for the dimorb benchmark", "name,value,unit,uncertainty,source"]
    for name, value, unit, uncertainty, source in rows:
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "# a comment line")))
        unc = "" if uncertainty is None else repr(uncertainty)
        src = f'"{source}"' if "," in source else source
        lines.append(f"{name},{value!r},{unit},{unc},{src}")
    return "\n".join(lines) + "\n"


def malformed_csv(rng):
    """An observed CSV with exactly one defect, which must end in exit code 2."""
    good = observed_csv(observed(rng, matched=4, unmatched=1), rng).splitlines()
    defect = rng.choice(("header", "fields", "unit", "value"))
    if defect == "header":
        good[1] = "name,value,unit"
    elif defect == "fields":
        good.append("muon_extra,105.6,MeV")
    elif defect == "unit":
        good.append("muon_extra,105.6,furlong,,")
    else:
        good.append("muon_extra,not-a-number,MeV,,")
    return "\n".join(good) + "\n"


def sweep_range(rng):
    """A seeded sweep: parameter and an increasing [start, stop] inside its range."""
    param = rng.choice(PARAMS)
    lo, hi = RANGES[param]
    mid = (lo + hi) / 2
    start = DEFAULTS[param] * rng.uniform(lo, mid)
    stop = DEFAULTS[param] * rng.uniform(mid, hi)
    return param, start, stop


def sweep_points(start, stop, steps):
    """The points `dimorb sweep` evaluates, by its documented even spacing."""
    if steps == 1:
        return [start]
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps)]


def pipeline_cases(seed, count=64):
    """Library-path ops: constants, anchor, observed set and render format."""
    rng = random.Random(f"pipeline-{seed}")
    cases = []
    for i in range(count):
        rows = observed(rng, near=rng.random() < 0.5)
        cases.append({
            "constants": constants(rng),
            "anchor": rng.choice(ANCHORS),
            "observed": [(n, v, u) for n, v, u, _, _ in rows],
            "csv": observed_csv(rows, rng),
            "format": ("markdown", "csv", "json")[i % 3],
        })
    rng.shuffle(cases)
    return cases


def sweep_cases(seed, count=32):
    """In-process sweep ops: about 200 points each, every format, full precision."""
    rng = random.Random(f"sweep-{seed}")
    cases = []
    for i in range(count):
        param, start, stop = sweep_range(rng)
        steps = rng.randint(180, 220)
        fmt = ("table", "csv", "json")[i % 3]
        cases.append({
            "param": param,
            "points": sweep_points(start, stop, steps),
            # 17 digits print every float exactly, so the oracle can hold the
            # printed values to 1e-12
            "argv": ["sweep", param, "--from", repr(start), "--to", repr(stop),
                     "--steps", str(steps), "--format", fmt, "--digits", "17"],
            "format": fmt,
        })
    rng.shuffle(cases)
    return cases


def cli_pool(seed=0):
    """The argv pool of `cli_oneshot` and the files it reads.

    Made once from a fixed seed and frozen, with its expected stdout, in
    golden/cli_oneshot.json; the run seed only picks the order and the
    variant of each op. File names are relative to the run directory.
    """
    rng = random.Random(f"cli-pool-{seed}")
    files = {}
    kinds = {
        "bosons": [["bosons", "--closed-form"]],
        "calibrate": [["calibrate", "--out", "cal.txt"]],
        "fermions_file": [["fermions", "--calibration", "cal.txt"]],
        "fermions_csv": [["fermions", "--calibrate", "--format", "csv"]],
        "compare": [["compare"]],
        "compare_observed": [],
        "sweep": [],
        "malformed": [],
    }
    for i in range(4):
        name = f"observed_{i}.csv"
        files[name] = observed_csv(observed(rng, near=i % 2 == 0), rng)
        kinds["compare_observed"].append(["compare", "--observed", name, "--check"])
        param, start, stop = sweep_range(rng)
        kinds["sweep"].append(["sweep", param, "--from", f"{start:.6g}", "--to", f"{stop:.6g}",
                               "--steps", "3"])
    for i in range(2):
        name = f"malformed_{i}.csv"
        files[name] = malformed_csv(rng)
        kinds["malformed"].append(["compare", "--observed", name])
    return kinds, files

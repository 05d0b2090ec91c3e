"""Independent value oracle for the dimorb benchmark.

Everything here is computed from the drawn inputs with the model's own
formulas, written out again as one integer coefficient row per fermion:
mass = n_e*Me + n_mu*mu + w*base (+ lump for the top), where
mu = Me + L, L = 1.5*Me/alpha and w = sum(k**4 for k = 0..a). Nothing is
taken from dimorb's output, so a wrong dimorb value cannot hide itself.
"""

import math

REL_TOL = 1e-12

DEFAULTS = {
    "alpha": 7.2973525693e-3,
    "m_electron_mev": 0.510999,
    "m_z_gev": 91.177,
    "theta_w_deg": 29.69,
    "planck_gev": 1.2e19,
}

# the composition table's stated masses in MeV; u..b can anchor the
# level-7 quark base, the top row fixes the level-8 lump
TABLE_MEV = {"u": 330.8, "d": 332.3, "s": 558.0, "c": 1701.0, "b": 5318.0, "t": 176500.0}

# name -> (electrons, muons, quartic weight of the level-7 term); the lepton
# rows use the lepton base, the quark rows the quark base, and the top adds
# the level-8 lump
_LEPTONS = {"nu_e": (0, 0, 0), "e": (1, 0, 0), "nu_mu": (0, 0, 0), "nu_tau": (0, 0, 0),
            "mu": (1, 0, 1), "tau": (1, 0, 17)}
_QUARKS = {"u": (0, 3, 1), "d": (3, 3, 1), "s": (3, 3, 17), "c": (0, 3, 98),
           "b": (3, 3, 354), "t": (0, 3, 979)}

# comparison claim name -> kind of quantity
CLAIM_NAMES = {
    **{f"boson_{d}": "mass" for d in range(5, 12)},
    "planck_mass": "mass",
    "theta_w": "degree",
    "alpha_w": "dimensionless",
    "sin2_theta_w": "dimensionless",
    "baryon_fraction": "dimensionless",
    "dark_fraction": "dimensionless",
    "nu_e": "mass", "e": "mass", "nu_mu": "mass", "nu_tau": "mass",
    "muon": "mass", "tau": "mass",
    "u_quark": "mass", "d_quark": "mass", "s_quark": "mass", "c_quark": "mass",
    "b_quark": "mass", "top_quark": "mass",
}
_ROW_CLAIM = {"mu": "muon", "tau": "tau", "u": "u_quark", "d": "d_quark", "s": "s_quark",
              "c": "c_quark", "b": "b_quark", "t": "top_quark", "nu_e": "nu_e", "e": "e",
              "nu_mu": "nu_mu", "nu_tau": "nu_tau"}


def ladder_gev(c):
    """Boson masses d = 5..11 in GeV."""
    a = c["alpha"]
    me_gev = c["m_electron_mev"] / 1e3
    b = {5: a * me_gev, 6: me_gev / a, 7: c["m_z_gev"]}
    for d in range(8, 12):
        b[d] = b[d - 1] / (a * a)
    return b


def alpha_w(c):
    me_gev = c["m_electron_mev"] / 1e3
    theta = math.radians(c["theta_w_deg"])
    return math.sqrt((me_gev / c["alpha"]) / (c["m_z_gev"] * math.cos(theta)))


def spectrum_mev(c, anchor):
    """All twelve rows in MeV, with the quark base solved from `anchor`."""
    me = c["m_electron_mev"]
    lepton_base = 1.5 * me / c["alpha"]
    mu = me + lepton_base
    out = {name: n_e * me + w * lepton_base for name, (n_e, _, w) in _LEPTONS.items()}
    n_e, n_mu, w = _QUARKS[anchor]
    quark_base = (TABLE_MEV[anchor] - (n_e * me + n_mu * mu)) / w
    n_e, n_mu, w = _QUARKS["t"]
    lump = TABLE_MEV["t"] - (n_e * me + n_mu * mu + w * quark_base)
    for name, (n_e, n_mu, w) in _QUARKS.items():
        out[name] = n_e * me + n_mu * mu + w * quark_base + (lump if name == "t" else 0.0)
    return out


def claims(c, anchor="d"):
    """Every comparison claim as (value, unit) in the unit dimorb computes it."""
    b = ladder_gev(c)
    theta = math.radians(c["theta_w_deg"])
    out = {f"boson_{d}": (b[d], "GeV") for d in range(5, 12)}
    out["planck_mass"] = (float(f"{b[11]:.2g}"), "GeV")
    out["theta_w"] = (c["theta_w_deg"], "degree")
    out["alpha_w"] = (alpha_w(c), "dimensionless")
    out["sin2_theta_w"] = (math.sin(theta) ** 2, "dimensionless")
    out["baryon_fraction"] = (1 / 7, "dimensionless")
    out["dark_fraction"] = (6 / 7, "dimensionless")
    for row, mass in spectrum_mev(c, anchor).items():
        out[_ROW_CLAIM[row]] = (mass / 1e3, "GeV") if row == "t" else (mass, "MeV")
    return out


def in_unit(value, unit, target):
    """Express a claim value in an observed unit (only MeV <-> GeV differ)."""
    if unit == target or unit not in ("MeV", "GeV"):
        return value
    return value * 1e3 if target == "MeV" else value / 1e3


def close(got, want):
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= REL_TOL * abs(want)


def _check(errors, label, got, want):
    if not close(got, want):
        errors.append(f"{label}: got {got!r}, want {want!r}")


def check_ladder(errors, c, masses_gev):
    """B5*B6 = Me**2, B7 = M_Z and the 1/alpha**2 steps above it."""
    a = c["alpha"]
    me_gev = c["m_electron_mev"] / 1e3
    _check(errors, "B5*B6", masses_gev[5] * masses_gev[6], me_gev * me_gev)
    _check(errors, "B7", masses_gev[7], c["m_z_gev"])
    for d in range(7, 11):
        _check(errors, f"B{d + 1}/B{d}", masses_gev[d + 1] / masses_gev[d], 1 / (a * a))


def check_mix(errors, c, alpha_w_value, sin2):
    _check(errors, "alpha_w", alpha_w_value, alpha_w(c))
    _check(errors, "sin2_theta_w", sin2, math.sin(math.radians(c["theta_w_deg"])) ** 2)


def check_spectrum(errors, c, anchor, masses_mev):
    """Muon, tau, anchor row, top, and every other row of the coefficient table."""
    me = c["m_electron_mev"]
    lepton_base = 1.5 * me / c["alpha"]
    _check(errors, "muon", masses_mev["mu"], me + lepton_base)
    _check(errors, "tau", masses_mev["tau"], me + 17 * lepton_base)
    _check(errors, f"anchor {anchor}", masses_mev[anchor], TABLE_MEV[anchor])
    _check(errors, "top", masses_mev["t"], TABLE_MEV["t"])
    for name, want in spectrum_mev(c, anchor).items():
        _check(errors, f"row {name}", masses_mev[name], want)


def check_report(errors, c, anchor, observed, rows, skipped_observed, skipped_computed):
    """Rows match the claims by name, in observed order, in the observed unit.

    `observed` is the generator's list of (name, value, unit); `rows` the
    report's (name, computed) pairs.
    """
    want = claims(c, anchor)
    matched = [(n, u) for n, _, u in observed if n in CLAIM_NAMES]
    if [n for n, _ in matched] != [n for n, _ in rows]:
        errors.append(f"report rows {[n for n, _ in rows]} != matched {[n for n, _ in matched]}")
        return
    unmatched = [n for n, _, _ in observed if n not in CLAIM_NAMES]
    if list(skipped_observed) != unmatched:
        errors.append(f"skipped observed {list(skipped_observed)} != {unmatched}")
    if len(rows) + len(skipped_computed) != len(CLAIM_NAMES):
        errors.append(f"{len(rows)} rows + {len(skipped_computed)} skipped != "
                      f"{len(CLAIM_NAMES)} claims")
    for (name, unit), (_, got) in zip(matched, rows):
        value, claim_unit = want[name]
        if name == "planck_mass":
            continue  # rounded to two figures before comparison; the ladder check covers it
        _check(errors, f"report {name}", got, in_unit(value, claim_unit, unit))
    if "baryon_fraction" in dict(rows):
        _check(errors, "baryon fraction", dict(rows)["baryon_fraction"], 1 / 7)


def sweep_point(c, param, value):
    """One sweep row: param, muon, tau, boson_6, boson_11, alpha_w."""
    swept = dict(c, **{param: value})
    b = ladder_gev(swept)
    me = swept["m_electron_mev"]
    lepton_base = 1.5 * me / swept["alpha"]
    return (value, me + lepton_base, me + 17 * lepton_base, b[6], b[11], alpha_w(swept))


def check_sweep(errors, c, param, points, rows):
    if len(rows) != len(points):
        errors.append(f"sweep printed {len(rows)} rows, want {len(points)}")
        return
    labels = (param, "muon", "tau", "boson_6", "boson_11", "alpha_w")
    for point, row in zip(points, rows):
        for label, got, want in zip(labels, row, sweep_point(c, param, point)):
            _check(errors, f"sweep {param}={point!r} {label}", got, want)

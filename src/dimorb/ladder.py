"""Gauge-boson mass ladder over the seven main orbitals D = 5..11.

The ladder is anchored in three places: the bottom two levels at the
electron mass (B5 = alpha_e * M_e and B6 = M_e / alpha_e), and the
electroweak level at the observed Z0 mass (B7 = M_Z). Above that each
step multiplies by 1 / alpha_e**2, so the mass climbs geometrically to
the gravity level B11, which lands near the Planck scale.

A closed-form power law (planck_ref * alpha_e**(2 * (11 - D))) describes
the same hierarchy from the top down. It is an approximation only: the
electroweak anchor breaks the uniform ratio, so the two paths agree to
within an order of magnitude but not better. The closed form never feeds
the ladder; `boson_ladder` is the authoritative path.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .quantities import MassValue, ModelConstants, OrbitalIndex, Unit, _convert, gev

__all__ = [
    "GaugeLabel",
    "BosonRow",
    "BosonLadder",
    "ElectroweakMix",
    "quartic_sum",
    "closed_form_mass",
    "electroweak_mix",
    "boson_ladder",
]


class GaugeLabel(Enum):
    A = "A"
    PI_HALF = "pi_1/2"
    Z_L = "Z_L^0"
    X_R = "X_R"
    X_L = "X_L"
    Z_R = "Z_R^0"
    G = "G"


# each level's orbital, gauge boson and broken-symmetry tag, built once so
# that boson_ladder validates no OrbitalIndex per call
_LEVELS: tuple[tuple[OrbitalIndex, GaugeLabel, str], ...] = tuple(
    (OrbitalIndex(d), gauge, symmetry) for d, gauge, symmetry in (
        (5, GaugeLabel.A, "electromagnetic, U(1)"),
        (6, GaugeLabel.PI_HALF, "strong, SU(3) -> U(1)"),
        (7, GaugeLabel.Z_L, "weak (left), SU(2)_L"),
        (8, GaugeLabel.X_R, "CP (right) nonconservation, U(1)_R"),
        (9, GaugeLabel.X_L, "CP (left) nonconservation, U(1)_L"),
        (10, GaugeLabel.Z_R, "weak (right), SU(2)_R"),
        (11, GaugeLabel.G, "gravity"),
    )
)


def quartic_sum(a: int) -> int:
    """Sum of k**4 for k = 0..a, exactly, via the closed form.

    The closed form a(a+1)(2a+1)(3a^2+3a-1)/30 is an integer for every
    a >= 0, so this stays in exact integer arithmetic.
    """
    n = int(a)
    if n != a or n < 0:
        raise ValueError(f"quartic_sum needs an integer a >= 0, got {a!r}")
    return n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) // 30


class BosonRow(NamedTuple):
    orbital: OrbitalIndex
    gauge: GaugeLabel
    symmetry: str
    mass: MassValue


class BosonLadder(tuple):
    """The seven boson rows, bottom (D=5) to top (D=11)."""

    __slots__ = ()

    def row(self, d: int) -> BosonRow:
        return self[int(d) - 5]

    def mass(self, d: int) -> MassValue:
        return self.row(d).mass


class ElectroweakMix(NamedTuple):
    """Mixing view of the electroweak level.

    alpha_w is defined so that alpha_w**2 * cos(theta_w) * M_Z = B6, i.e.
    it absorbs the anchor mismatch between the strong level and the Z0
    mass into a coupling specific to the weak level.
    """

    alpha_w: float
    theta_w_deg: float
    sin2_theta_w: float


def _ladder_gev(alpha_e: float, me_gev: float, mz_gev: float) -> tuple[float, ...]:
    """The seven ladder masses B5..B11 in GeV, from the three anchors."""
    step = alpha_e * alpha_e  # each level above B7 divides by it once
    b8 = mz_gev / step
    b9 = b8 / step
    b10 = b9 / step
    return (alpha_e * me_gev, me_gev / alpha_e, mz_gev, b8, b9, b10, b10 / step)


def _ladder_of(constants: ModelConstants) -> tuple[float, ...]:
    return _ladder_gev(constants.alpha_e, _convert(constants.m_electron, Unit.GEV),
                       _convert(constants.m_z, Unit.GEV))


def _mix(ladder_gev, theta_w_deg: float) -> tuple[float, float]:
    """alpha_w and sin**2(theta_w), from B6 and B7 = M_Z of the ladder."""
    theta = math.radians(theta_w_deg)
    return (math.sqrt(ladder_gev[1] / (ladder_gev[2] * math.cos(theta))),
            math.sin(theta) ** 2)


def electroweak_mix(constants: ModelConstants) -> ElectroweakMix:
    alpha_w, sin2_theta_w = _mix(_ladder_of(constants), constants.theta_w_deg)
    return ElectroweakMix(alpha_w, constants.theta_w_deg, sin2_theta_w)


def boson_ladder(constants: ModelConstants) -> BosonLadder:
    """Build the seven-row boson table from the three anchors."""
    masses = _ladder_of(constants)
    return BosonLadder([BosonRow(orbital, gauge, symmetry, gev(mass))
                        for (orbital, gauge, symmetry), mass in zip(_LEVELS, masses)])


def closed_form_mass(d: int, constants: ModelConstants) -> MassValue:
    """Power-law approximation of the level-D boson mass.

    Descends from the Planck-scale reference as alpha_e**(2 * (11 - D)).
    Kept separate from `boson_ladder` on purpose: the ladder is exact by
    construction, this is a cross-check that only tracks it to within an
    order of magnitude below the electroweak level.
    """
    n = int(OrbitalIndex(int(d)))
    return gev(_convert(constants.planck_ref, Unit.GEV) * constants.alpha_e ** (2 * (11 - n)))


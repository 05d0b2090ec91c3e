"""Records and views of the gauge-boson ladder over the main orbitals D = 5..11.

The ladder is anchored in three places: the bottom two levels at the
electron mass (B5 = alpha_e * M_e and B6 = M_e / alpha_e), and the
electroweak level at the observed Z0 mass (B7 = M_Z). Above that each
step multiplies by 1 / alpha_e**2, so the mass climbs geometrically to
the gravity level B11, which lands near the Planck scale.

That arithmetic is in `spectrum`'s float core; this module holds the boson
table's records, its views of the core's floats, and the closed form.

A closed-form power law (planck_ref * alpha_e**(2 * (11 - D))) describes
the same hierarchy from the top down. It is an approximation only: the
electroweak anchor breaks the uniform ratio, so the two paths agree to
within an order of magnitude but not better. The closed form never feeds
the ladder; `boson_ladder` is the authoritative path.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from . import _EXPORTS
from .quantities import MassValue, ModelConstants, OrbitalIndex, Unit, _convert, _GEV, gev
from .spectrum import evaluate

__all__ = [*_EXPORTS["ladder"]]


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


BosonRow = namedtuple("BosonRow", "orbital gauge symmetry mass")
BosonRow.__doc__ = """One level of the ladder: its `OrbitalIndex`, `GaugeLabel`, the name of the
symmetry it breaks, and its `MassValue`."""


def _orbital(d: int | OrbitalIndex) -> int:
    # OrbitalIndex's own check, so a bool, a float or a level off the ladder raises
    return d.d if isinstance(d, OrbitalIndex) else OrbitalIndex(d).d


class BosonLadder(tuple):
    """The seven boson rows, bottom (D=5) to top (D=11)."""

    __slots__ = ()

    def row(self, d: int | OrbitalIndex) -> BosonRow:
        return self[_orbital(d) - 5]

    def mass(self, d: int | OrbitalIndex) -> MassValue:
        return self.row(d).mass


ElectroweakMix = namedtuple("ElectroweakMix", "alpha_w theta_w_deg sin2_theta_w")
ElectroweakMix.__doc__ = """Mixing view of the electroweak level, three floats.

alpha_w is defined so that alpha_w**2 * cos(theta_w) * M_Z = B6, i.e.
it absorbs the anchor mismatch between the strong level and the Z0
mass into a coupling specific to the weak level.
"""


def electroweak_mix(constants: ModelConstants) -> ElectroweakMix:
    ev = evaluate(constants)
    return ElectroweakMix(ev.alpha_w, constants.theta_w_deg, ev.sin2_theta_w)


def boson_ladder(constants: ModelConstants) -> BosonLadder:
    """The seven-row boson table of the float core's ladder."""
    masses = evaluate(constants).ladder_gev
    # _core's top-boson and tau checks showed every level finite in MeV, and none is negative
    return BosonLadder([tuple.__new__(BosonRow, (*level, tuple.__new__(MassValue, (mass, _GEV))))
                        for level, mass in zip(_LEVELS, masses)])


def closed_form_mass(d: int | OrbitalIndex, constants: ModelConstants) -> MassValue:
    """Power-law approximation of the level-D boson mass.

    Descends from the Planck-scale reference as alpha_e**(2 * (11 - D)).
    Kept separate from `boson_ladder` on purpose: the ladder is exact by
    construction, this is a cross-check that only tracks it to within an
    order of magnitude below the electroweak level.
    """
    power = 2 * (11 - _orbital(d))
    return gev(_convert(constants.planck_ref, Unit.GEV) * constants.alpha_e ** power)


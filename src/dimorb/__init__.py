"""Deterministic calculator for a dimensional-orbital particle mass model.

Seven mass levels host a gauge boson ladder anchored at the electron and
Z0 masses; charged leptons and quarks are sums of fixed constituents
plus auxiliary-orbital terms that grow with the running sum of fourth
powers. Two constants are calibrated from anchor rows, everything else
follows from the inputs. See `quantities`, `ladder`, `spectrum`,
`compare`, and `cli` for the pieces.
"""

from .quantities import (
    MassValue,
    ModelConstants,
    OrbitalIndex,
    Unit,
    gev,
    mev,
    relative_error,
)
from .ladder import (
    BosonLadder,
    BosonRow,
    ElectroweakMix,
    GaugeLabel,
    LadderAlphas,
    boson_ladder,
    closed_form_mass,
    dimensional_fermion_mass,
    electroweak_mix,
    quartic_sum,
)
from .spectrum import (
    AuxBaseSet,
    CalibrationError,
    CalibrationFileError,
    CalibrationResult,
    SpectrumRow,
    TABLE,
    UncalibratedBaseError,
    calibrate,
    calibrate_quark_base_7,
    calibrate_top_lump,
    composition,
    fermion_mass,
    format_calibration,
    full_spectrum,
    lepton_aux_base,
    load_bases,
    parse_calibration,
    spectrum_row,
)
from .compare import (
    ComparisonReport,
    ComparisonRow,
    ComputedClaim,
    ObservedFormatError,
    ObservedRecord,
    ObservedUnit,
    baryon_fractions,
    compare_all,
    computed_claims,
    default_observed,
    format_observed_csv,
    parse_observed,
    render,
    round_to_sig,
)

__version__ = "0.1.0"

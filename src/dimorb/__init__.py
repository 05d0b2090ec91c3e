"""Deterministic calculator for a dimensional-orbital particle mass model.

Seven mass levels host a gauge boson ladder anchored at the electron and
Z0 masses; charged leptons and quarks are sums of fixed constituents
plus auxiliary-orbital terms that grow with the running sum of fourth
powers. Two constants are calibrated from anchor rows, everything else
follows from the inputs. See `quantities`, `ladder`, `spectrum`,
`compare`, and `cli` for the pieces.

`_EXPORTS` is the one list of public names, by the submodule that defines
them: each submodule's `__all__` is its entry plus the few names only that
module offers. A submodule loads on first use of a name it defines (PEP 562),
so a process pays only for the modules it runs; `from dimorb import X` works
as if every name were imported here.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "quantities": (
        "MassValue",
        "ModelConstants",
        "OrbitalIndex",
        "Unit",
        "gev",
        "mev",
        "round_to_sig",
    ),
    "ladder": (
        "BosonLadder",
        "BosonRow",
        "ElectroweakMix",
        "GaugeLabel",
        "boson_ladder",
        "closed_form_mass",
        "electroweak_mix",
        "quartic_sum",
    ),
    "spectrum": (
        "AuxBaseSet",
        "CalibrationError",
        "CalibrationFileError",
        "CalibrationResult",
        "SpectrumRow",
        "TABLE",
        "UncalibratedBaseError",
        "calibrate",
        "calibrate_quark_base_7",
        "calibrate_top_lump",
        "composition",
        "fermion_mass",
        "format_calibration",
        "full_spectrum",
        "lepton_aux_base",
        "load_bases",
        "spectrum_row",
    ),
    "compare": (
        "ComparisonReport",
        "ComparisonRow",
        "ObservedFormatError",
        "ObservedRecord",
        "ObservedUnit",
        "baryon_fractions",
        "compare_all",
        "computed_claims",
        "default_observed",
        "format_observed_csv",
        "parse_observed",
        "render",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule also binds it here, so this runs once per module
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

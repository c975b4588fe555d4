"""Forward model and parameter extraction for two NV spin ensembles
coupled through one transmission-line cavity mode."""

import importlib

__version__ = "0.1.17"

# Each public name, grouped under the module that defines it.  Names
# resolve on first use (PEP 562), so `import cavitybus.cli` loads only
# the modules a command runs.
_EXPORTS = {
    "coupled": ("CavitySpec", "EnsembleSpec", "collective_coupling", "collective_modes"),
    "dispersive": (
        "DispersiveModel", "build_dispersive_model", "dispersive_shift", "dispersive_spin_modes",
        "drive_weights", "ensemble_ensemble_coupling", "pump_probe_signal",
    ),
    "fitting": (
        "FitResult", "SpinTuning", "fit_avoided_crossing", "fit_full_transmission",
        "fit_lorentzian", "fit_polariton_width", "jacobian_check",
    ),
    "spin": (
        "AxisClass", "CrystalOrientation", "FieldSetting", "NVParameters",
        "thermal_polarization", "transition_frequencies",
    ),
    "transmission": ("SpectrumGrid", "peak_positions", "peak_splitting", "s21", "sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    # Not stored in globals(): a patched attribute of the home module
    # (such as a tracing wrapper) must stay visible, and so must its
    # restoration.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

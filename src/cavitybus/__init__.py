"""Forward model and parameter extraction for two NV spin ensembles
coupled through one transmission-line cavity mode."""

__version__ = "0.1.17"

from .coupled import (
    CavitySpec,
    EnsembleSpec,
    collective_coupling,
    collective_modes,
)
from .dispersive import (
    DispersiveModel,
    build_dispersive_model,
    dispersive_shift,
    dispersive_spin_modes,
    drive_weights,
    ensemble_ensemble_coupling,
    pump_probe_signal,
)
from .fitting import (
    FitResult,
    SpinTuning,
    fit_avoided_crossing,
    fit_full_transmission,
    fit_lorentzian,
    fit_polariton_width,
    jacobian_check,
)
from .spin import (
    AxisClass,
    CrystalOrientation,
    FieldSetting,
    NVParameters,
    thermal_polarization,
    transition_frequencies,
)
from .transmission import SpectrumGrid, peak_positions, peak_splitting, s21, sweep

__all__ = [
    "__version__",
    "AxisClass",
    "CavitySpec",
    "CrystalOrientation",
    "DispersiveModel",
    "EnsembleSpec",
    "FieldSetting",
    "FitResult",
    "NVParameters",
    "SpectrumGrid",
    "SpinTuning",
    "build_dispersive_model",
    "collective_coupling",
    "collective_modes",
    "dispersive_shift",
    "dispersive_spin_modes",
    "drive_weights",
    "ensemble_ensemble_coupling",
    "fit_avoided_crossing",
    "fit_full_transmission",
    "fit_lorentzian",
    "fit_polariton_width",
    "jacobian_check",
    "peak_positions",
    "peak_splitting",
    "pump_probe_signal",
    "s21",
    "sweep",
    "thermal_polarization",
    "transition_frequencies",
]

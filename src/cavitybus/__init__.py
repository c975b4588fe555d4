"""Forward model and parameter extraction for two NV spin ensembles
coupled through one transmission-line cavity mode."""

__version__ = "0.1.5"

from .coupled import (
    CavitySpec,
    EnsembleSpec,
    SingleExcitationModel,
    collective_coupling,
    photon_weight,
    single_excitation_model,
)
from .dispersive import (
    DispersiveModel,
    PumpProbeSignal,
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
    lorentzian,
)
from .spin import (
    AxisClass,
    CrystalOrientation,
    FieldSetting,
    NVParameters,
    SpinLevels,
    nv_axis_vectors,
    spin_hamiltonian,
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
    "PumpProbeSignal",
    "SingleExcitationModel",
    "SpectrumGrid",
    "SpinLevels",
    "SpinTuning",
    "build_dispersive_model",
    "collective_coupling",
    "dispersive_shift",
    "dispersive_spin_modes",
    "drive_weights",
    "ensemble_ensemble_coupling",
    "fit_avoided_crossing",
    "fit_full_transmission",
    "fit_lorentzian",
    "fit_polariton_width",
    "jacobian_check",
    "lorentzian",
    "nv_axis_vectors",
    "peak_positions",
    "peak_splitting",
    "photon_weight",
    "pump_probe_signal",
    "s21",
    "single_excitation_model",
    "spin_hamiltonian",
    "sweep",
    "thermal_polarization",
    "transition_frequencies",
]

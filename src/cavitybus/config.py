"""Flat key-value experiment configuration.

One file fully determines a run.  Lines are ``key = value`` with ``#``
comments; keys carry their unit in the suffix (``cavity.center_mhz``)
and a few alternate unit suffixes are converted on load.  Unknown keys,
missing required keys and bad unit suffixes are all rejected with the
offending line number.  Defaults applied for optional keys are echoed
to the log.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from .coupled import CavitySpec, EnsembleSpec
from .errors import ConfigError
from .spin import AxisClass, CrystalOrientation, FieldSetting, NVParameters

__all__ = [
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "default_config",
    "DEFAULT_CONFIG_TEXT",
    "parse_range",
    "MAX_RANGE_POINTS",
    "format_float",
    "FLOAT_SPEC",
]

log = logging.getLogger("cavitybus.config")


# Every float the package writes uses this spec; gridio builds its
# batched row formats from it, so one change here moves both.
FLOAT_SPEC = ".9g"


def format_float(value: float) -> str:
    """Nine significant digits, plain decimal point, no grouping."""
    return format(value, FLOAT_SPEC)


# value kinds: float kinds carry a unit family for suffix conversion
_FREQ_ALTERNATES = {"ghz": 1e3, "khz": 1e-3, "hz": 1e-6}
_FIELD_ALTERNATES = {"t": 1e3, "ut": 1e-3}

_UNIT_FAMILIES = {
    # canonical suffix -> alternates {suffix: factor to canonical}
    "mhz": _FREQ_ALTERNATES,
    "mt": _FIELD_ALTERNATES,
    "deg": {},
    "mhz_per_mt": {},
}


@dataclass(frozen=True)
class _KeySpec:
    kind: str  # "float" | "int" | "bool" | "sign" | "range"
    required: bool = False
    default: object = None
    minimum: float | None = None
    maximum: float | None = None


def _ensemble_keys(prefix: str, coupling: float, hwhm: float, azimuth: float) -> dict:
    return {
        f"{prefix}.d_splitting_mhz": _KeySpec("float", default=2870.0, minimum=1e-9),
        f"{prefix}.e_strain_mhz": _KeySpec("float", default=13.0, minimum=0.0),
        f"{prefix}.gyromagnetic_mhz_per_mt": _KeySpec(
            "float", default=28.03, minimum=1e-9
        ),
        f"{prefix}.azimuth_deg": _KeySpec("float", default=azimuth),
        f"{prefix}.axis_class": _KeySpec("int", default=0, minimum=0, maximum=3),
        f"{prefix}.coupling_mhz": _KeySpec("float", required=True, minimum=0.0),
        f"{prefix}.spin_hwhm_mhz": _KeySpec("float", default=hwhm, minimum=1e-9),
    }


# Calibrated geometry: the azimuths and field magnitudes below are the
# output of the `calibrate` subcommand run on this same file (resonance
# angles 79 and 23 deg, relative azimuth 24.2 deg, both pinned to the
# cavity frequency at one field magnitude; dispersive magnitude chosen
# so the smaller spin-cavity detuning at the 23 deg resonance angle is
# 14 MHz).  Values carry 9 significant digits so config dumps round-trip
# bit-exactly.
_CALIBRATED_AZIMUTH_I = 173.9
_CALIBRATED_AZIMUTH_II = 198.1
_CALIBRATED_MAGNITUDE_MT = 7.69336558
_CALIBRATED_DISPERSIVE_MT = 8.74222984

SCHEMA: dict = {
    **_ensemble_keys("ensemble_i", 7.5, 4.58, _CALIBRATED_AZIMUTH_I),
    **_ensemble_keys("ensemble_ii", 5.6, 4.24, _CALIBRATED_AZIMUTH_II),
    "cavity.center_mhz": _KeySpec("float", required=True, minimum=1e-9),
    "cavity.total_hwhm_mhz": _KeySpec("float", required=True, minimum=1e-12),
    "cavity.external_hwhm_mhz": _KeySpec("float", default=None, minimum=1e-12),
    "cavity.antinode_sign_i": _KeySpec("sign", default=1),
    "cavity.antinode_sign_ii": _KeySpec("sign", default=-1),
    "field.magnitude_mt": _KeySpec(
        "float", default=_CALIBRATED_MAGNITUDE_MT, minimum=0.0
    ),
    "field.dispersive_magnitude_mt": _KeySpec(
        "float", default=_CALIBRATED_DISPERSIVE_MT, minimum=0.0
    ),
    "calibration.resonance_angle_i_deg": _KeySpec("float", default=79.0),
    "calibration.resonance_angle_ii_deg": _KeySpec("float", default=23.0),
    "calibration.relative_azimuth_deg": _KeySpec("float", default=24.2),
    "calibration.dispersive_margin_mhz": _KeySpec("float", default=14.0, minimum=0.0),
    "dispersive.floor_mhz": _KeySpec("float", default=12.0, minimum=0.0),
    "dispersive.enforce_floor": _KeySpec("bool", default=True),
    "fit.peak_prominence": _KeySpec("float", default=0.05, minimum=0.0, maximum=1.0),
    "fit.max_iterations": _KeySpec("int", default=200, minimum=1),
    "sweep.angles_deg": _KeySpec("range", default="0:90:0.1"),
    "sweep.magnitudes_mt": _KeySpec("range", default="0:12:0.02"),
    "sweep.probe_mhz": _KeySpec("range", default="2720:2780:0.05"),
}

# alternate-unit lookup: file key -> (canonical key, conversion factor)
_ALTERNATES: dict = {}
_BASES: dict = {}
for _canonical in SCHEMA:
    for _suffix, _alts in _UNIT_FAMILIES.items():
        tail = "_" + _suffix
        if _canonical.endswith(tail):
            base = _canonical[: -len(tail)]
            _BASES[base] = _canonical
            for _alt, _factor in _alts.items():
                _ALTERNATES[base + "_" + _alt] = (_canonical, _factor)
            break


# Largest number of values a start:stop:step range may expand to; checked
# before anything is allocated.
MAX_RANGE_POINTS = 10**6


def parse_range(text: str, *, key: str = "range") -> tuple:
    """Parse ``start:stop:step`` into three finite floats (validated)."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{key}: non-numeric range {text!r}") from exc
    if not np.all(np.isfinite((start, stop, step))):
        raise ConfigError(f"{key}: start, stop and step must be finite in {text!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"{key}: need stop >= start and step > 0 in {text!r}")
    if (stop - start) / step > MAX_RANGE_POINTS - 1:
        raise ConfigError(f"{key}: {text!r} has more than {MAX_RANGE_POINTS} points")
    return start, stop, step


def range_values(text: str, *, key: str = "range"):
    start, stop, step = parse_range(text, key=key)
    n = int(round((stop - start) / step)) + 1
    values = start + step * np.arange(n)
    return values[values <= stop + 1e-9 * max(abs(stop), 1.0)]


def _parse_value(key: str, spec: _KeySpec, raw: str, line_no: int, factor: float):
    where = f"line {line_no}: {key}"
    if spec.kind == "float":
        try:
            value = float(raw) * factor
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    elif spec.kind == "int":
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None
    elif spec.kind == "bool":
        lowered = raw.strip().lower()
        if lowered not in ("true", "false"):
            raise ConfigError(f"{where}: expected true/false, got {raw!r}")
        value = lowered == "true"
    elif spec.kind == "sign":
        if raw.strip() not in ("+1", "-1", "1"):
            raise ConfigError(f"{where}: expected +1 or -1, got {raw!r}")
        value = 1 if raw.strip() in ("+1", "1") else -1
    elif spec.kind == "range":
        parse_range(raw.strip(), key=key)
        value = raw.strip()
    else:  # pragma: no cover - schema is static
        raise AssertionError(spec.kind)
    if spec.kind in ("float", "int"):
        if spec.minimum is not None and value < spec.minimum:
            raise ConfigError(f"{where}: value {value!r} below minimum {spec.minimum}")
        if spec.maximum is not None and value > spec.maximum:
            raise ConfigError(f"{where}: value {value!r} above maximum {spec.maximum}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with typed accessors for the model specs."""

    values: dict
    hash: str
    applied_defaults: tuple

    def get(self, key: str):
        return self.values[key]

    def _prefix(self, which: str) -> str:
        if which not in ("i", "ii"):
            raise ValueError("which must be 'i' or 'ii'")
        return f"ensemble_{which}"

    def nv(self, which: str) -> NVParameters:
        p = self._prefix(which)
        return NVParameters(
            d_splitting=self.values[f"{p}.d_splitting_mhz"],
            e_strain=self.values[f"{p}.e_strain_mhz"],
            gyromagnetic=self.values[f"{p}.gyromagnetic_mhz_per_mt"],
        )

    def orientation(self, which: str) -> CrystalOrientation:
        p = self._prefix(which)
        return CrystalOrientation(
            azimuth=self.values[f"{p}.azimuth_deg"],
            axis_class=AxisClass(self.values[f"{p}.axis_class"]),
        )

    def ensemble(self, which: str) -> EnsembleSpec:
        p = self._prefix(which)
        return EnsembleSpec(
            nv=self.nv(which),
            orientation=self.orientation(which),
            coupling=self.values[f"{p}.coupling_mhz"],
            spin_hwhm=self.values[f"{p}.spin_hwhm_mhz"],
        )

    def cavity(self) -> CavitySpec:
        external = self.values["cavity.external_hwhm_mhz"]
        total = self.values["cavity.total_hwhm_mhz"]
        return CavitySpec(
            center=self.values["cavity.center_mhz"],
            total_hwhm=total,
            external_hwhm=total if external is None else external,
            antinode_signs=(
                self.values["cavity.antinode_sign_i"],
                self.values["cavity.antinode_sign_ii"],
            ),
        )

    def field(self, angle: float, magnitude: float | None = None) -> FieldSetting:
        if magnitude is None:
            magnitude = self.values["field.magnitude_mt"]
        return FieldSetting(magnitude=magnitude, angle=angle)

    def dispersive_field(self, angle: float) -> FieldSetting:
        return FieldSetting(
            magnitude=self.values["field.dispersive_magnitude_mt"], angle=angle
        )

    def with_updates(self, updates: dict) -> "ExperimentConfig":
        merged = dict(self.values)
        for key, value in updates.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown key {key!r} in update")
            merged[key] = value
        return _finalize(merged, applied_defaults=())

    def dump(self) -> str:
        """Canonical text form; load(dump()) reproduces the config."""
        lines = ["# cavitybus experiment configuration"]
        for key in sorted(self.values):
            value = self.values[key]
            if value is None:
                continue
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = format_float(value)
            elif isinstance(value, int):
                text = ("+1" if value == 1 else "-1") if SCHEMA[key].kind == "sign" else str(value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"


def _config_hash(values: dict) -> str:
    blob = []
    for key in sorted(values):
        blob.append(f"{key}={values[key]!r}")
    return hashlib.sha256("\n".join(blob).encode("utf-8")).hexdigest()


def _finalize(values: dict, applied_defaults: tuple) -> ExperimentConfig:
    return ExperimentConfig(
        values=dict(values),
        hash=_config_hash(values),
        applied_defaults=tuple(applied_defaults),
    )


def parse_config_text(text: str, source: str = "<text>") -> ExperimentConfig:
    """Parse and validate a config from text (see module docstring)."""
    seen: dict = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {line_no}: expected 'key = value'")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        factor = 1.0
        canonical = key
        if key not in SCHEMA:
            if key in _ALTERNATES:
                canonical, factor = _ALTERNATES[key]
            else:
                base = _match_base(key)
                if base is not None:
                    raise ConfigError(
                        f"{source}: line {line_no}: bad unit suffix on {key!r} "
                        f"(canonical key is {_BASES[base]!r})"
                    )
                raise ConfigError(f"{source}: line {line_no}: unknown key {key!r}")
        if canonical in seen:
            raise ConfigError(
                f"{source}: line {line_no}: duplicate key {canonical!r}"
            )
        seen[canonical] = _parse_value(canonical, SCHEMA[canonical], raw_value, line_no, factor)

    values = {}
    applied = []
    for key, spec in SCHEMA.items():
        if key in seen:
            values[key] = seen[key]
        elif spec.required:
            raise ConfigError(f"{source}: missing required key {key!r}")
        else:
            values[key] = spec.default
            applied.append(key)
            log.info("%s: default applied: %s = %r", source, key, spec.default)
    return _finalize(values, applied_defaults=tuple(applied))


def _match_base(key: str):
    for base in _BASES:
        if key == base or (key.startswith(base + "_")):
            return base
    return None


def load_config(path) -> ExperimentConfig:
    """Load and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


DEFAULT_CONFIG_TEXT = f"""\
# cavitybus default experiment configuration
#
# Two NV ensembles on separate diamond crystals coupled to one
# transmission-line resonator mode.  Frequencies in MHz, fields in mT,
# angles in degrees.  Azimuths and field magnitudes were derived with
# the `calibrate` subcommand (see README).

ensemble_i.d_splitting_mhz = 2870.0
ensemble_i.e_strain_mhz = 13.0
ensemble_i.gyromagnetic_mhz_per_mt = 28.03
ensemble_i.azimuth_deg = {_CALIBRATED_AZIMUTH_I}
ensemble_i.axis_class = 0
ensemble_i.coupling_mhz = 7.5
ensemble_i.spin_hwhm_mhz = 4.58

ensemble_ii.d_splitting_mhz = 2870.0
ensemble_ii.e_strain_mhz = 13.0
ensemble_ii.gyromagnetic_mhz_per_mt = 28.03
ensemble_ii.azimuth_deg = {_CALIBRATED_AZIMUTH_II}
ensemble_ii.axis_class = 0
ensemble_ii.coupling_mhz = 5.6
ensemble_ii.spin_hwhm_mhz = 4.24

# kappa (HWHM) = center/(2 Q) with Q = 4300
cavity.center_mhz = 2749.1
cavity.total_hwhm_mhz = 0.320
cavity.external_hwhm_mhz = 0.320
cavity.antinode_sign_i = +1
cavity.antinode_sign_ii = -1

field.magnitude_mt = {_CALIBRATED_MAGNITUDE_MT}
field.dispersive_magnitude_mt = {_CALIBRATED_DISPERSIVE_MT}

calibration.resonance_angle_i_deg = 79.0
calibration.resonance_angle_ii_deg = 23.0
calibration.relative_azimuth_deg = 24.2
calibration.dispersive_margin_mhz = 14.0

dispersive.floor_mhz = 12.0
dispersive.enforce_floor = true

fit.peak_prominence = 0.05
fit.max_iterations = 200

sweep.angles_deg = 0:90:0.1
sweep.magnitudes_mt = 0:12:0.02
sweep.probe_mhz = 2720:2780:0.05
"""


def default_config() -> ExperimentConfig:
    """The built-in default configuration (same content the shipped
    default.cfg carries)."""
    return parse_config_text(DEFAULT_CONFIG_TEXT, source="<default>")

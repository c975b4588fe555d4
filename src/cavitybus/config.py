"""Flat key-value experiment configuration.

One file fully determines a run.  Lines are ``key = value`` with ``#``
comments; keys carry their unit in the suffix (``cavity.center_mhz``)
and a few alternate unit suffixes are converted on load.  Unknown keys,
missing required keys and bad unit suffixes are all rejected with the
offending line number.  An optional key a file leaves out takes its
value from the shipped default.cfg, or None if that file leaves it out
too; each such default is echoed to the log.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .coupled import CavitySpec, EnsembleSpec
from .errors import ConfigError
from .spin import AxisClass, CrystalOrientation, NVParameters

__all__ = [
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "default_config",
    "parse_range",
    "MAX_RANGE_POINTS",
    "format_float",
    "FLOAT_SPEC",
]

log = logging.getLogger("cavitybus.config")


# Every float the package writes uses this spec.  gridio's vectorized
# writer reads its digit count from it and holds at most 9 digits.
FLOAT_SPEC = ".9g"


def format_float(value: float) -> str:
    """Nine significant digits, plain decimal point, no grouping."""
    return format(value, FLOAT_SPEC)


# value kinds: float kinds carry a unit family for suffix conversion
_FREQ_ALTERNATES = {"ghz": 1e3, "khz": 1e-3, "hz": 1e-6}
_FIELD_ALTERNATES = {"t": 1e3, "ut": 1e-3}

_UNIT_FAMILIES = {
    # canonical suffix -> alternates {suffix: factor to canonical}, longest first
    "mhz_per_mt": {},
    "mhz": _FREQ_ALTERNATES,
    "mt": _FIELD_ALTERNATES,
    "deg": {},
}


@dataclass(frozen=True)
class _KeySpec:
    kind: str  # "float" | "int" | "sign" | "range"
    required: bool = False
    minimum: float | None = None
    maximum: float | None = None


def _ensemble_keys(prefix: str) -> dict:
    return {
        f"{prefix}.d_splitting_mhz": _KeySpec("float", minimum=1e-9),
        f"{prefix}.e_strain_mhz": _KeySpec("float", minimum=0.0),
        f"{prefix}.gyromagnetic_mhz_per_mt": _KeySpec("float", minimum=1e-9),
        f"{prefix}.azimuth_deg": _KeySpec("float"),
        f"{prefix}.axis_class": _KeySpec("int", minimum=0, maximum=3),
        f"{prefix}.coupling_mhz": _KeySpec("float", required=True, minimum=1e-9),
        f"{prefix}.spin_hwhm_mhz": _KeySpec("float", minimum=1e-9),
    }


# Kinds and bounds only: an optional key a file leaves out takes its
# value from the shipped default.cfg.
SCHEMA: dict = {
    **_ensemble_keys("ensemble_i"),
    **_ensemble_keys("ensemble_ii"),
    "cavity.center_mhz": _KeySpec("float", required=True, minimum=1e-9),
    "cavity.total_hwhm_mhz": _KeySpec("float", required=True, minimum=1e-12),
    "cavity.external_hwhm_mhz": _KeySpec("float", minimum=1e-12),
    "cavity.antinode_sign_i": _KeySpec("sign"),
    "cavity.antinode_sign_ii": _KeySpec("sign"),
    "field.magnitude_mt": _KeySpec("float", minimum=0.0),
    "field.dispersive_magnitude_mt": _KeySpec("float", minimum=0.0),
    "calibration.resonance_angle_i_deg": _KeySpec("float"),
    "calibration.resonance_angle_ii_deg": _KeySpec("float"),
    "calibration.relative_azimuth_deg": _KeySpec("float"),
    "calibration.dispersive_margin_mhz": _KeySpec("float", minimum=0.0),
    "dispersive.floor_mhz": _KeySpec("float", minimum=0.0),
    "fit.peak_prominence": _KeySpec("float", minimum=0.0, maximum=1.0),
    "fit.max_iterations": _KeySpec("int", minimum=1),
    "sweep.angles_deg": _KeySpec("range"),
    "sweep.magnitudes_mt": _KeySpec("range"),
    "sweep.probe_mhz": _KeySpec("range"),
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


# file spellings of the sign kind
_SIGNS = {"+1": 1, "1": 1, "-1": -1}


def _parse_value(key: str, spec: _KeySpec, raw: str, line_no: int, factor: float):
    """Convert a file value to its kind and check it; text that does not
    convert is checked as it is, and so rejected."""
    text = raw.strip()
    try:
        if spec.kind == "float":
            value = float(raw) * factor
        elif spec.kind == "int":
            value = int(raw)
        elif spec.kind == "range":
            value = text
        else:
            value = _SIGNS[text]
    except (ValueError, KeyError):
        value = raw
    return _check_value(key, spec, value, f"line {line_no}: {key}", shown=raw)


def _check_value(key: str, spec: _KeySpec, value, where: str, shown=None):
    """Kind and min/max check of a typed value from a file or `with_updates`;
    errors name `where` and quote `shown` (the file text) or the value."""
    got = repr(value if shown is None else shown)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    integer = number and isinstance(value, int)
    expected, ok = {
        "float": ("a number", number),
        "int": ("an integer", integer),
        "sign": ("+1 or -1", integer and value in (1, -1)),
        "range": ("start:stop:step", isinstance(value, str)),
    }[spec.kind]
    if not ok:
        raise ConfigError(f"{where}: expected {expected}, got {got}")
    if spec.kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {got}")
    if spec.kind == "range":
        parse_range(value, key=key)
    # only float and int keys carry bounds
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

    def with_updates(self, updates: dict) -> "ExperimentConfig":
        merged = dict(self.values)
        for key, value in updates.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown key {key!r} in update")
            merged[key] = _check_value(key, SCHEMA[key], value, f"update: {key}")
        return _finalize(merged, source="update")

    def dump(self) -> str:
        """Canonical text form; load(dump()) reproduces the config."""
        lines = ["# cavitybus experiment configuration"]
        for key in sorted(self.values):
            value = self.values[key]
            if value is None:
                continue
            if isinstance(value, float):
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


def _finalize(values: dict, source: str) -> ExperimentConfig:
    # the one cross-key bound: CavitySpec needs external <= total width
    external = values["cavity.external_hwhm_mhz"]
    total = values["cavity.total_hwhm_mhz"]
    if external is not None and external > total:
        raise ConfigError(
            f"{source}: cavity.external_hwhm_mhz: value {external!r} above "
            f"cavity.total_hwhm_mhz {total!r}"
        )
    return ExperimentConfig(values=dict(values), hash=_config_hash(values))


def _read_values(text: str, source: str) -> dict:
    """The checked values of the keys a config text sets."""
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
    return seen


def parse_config_text(text: str, source: str = "<text>") -> ExperimentConfig:
    """Parse and validate a config from text (see module docstring)."""
    seen = _read_values(text, source)
    shipped = _read_values(_shipped_text(), "<default>")
    values = {}
    for key, spec in SCHEMA.items():
        if key in seen:
            values[key] = seen[key]
        elif spec.required:
            raise ConfigError(f"{source}: missing required key {key!r}")
        else:
            values[key] = shipped.get(key)
            log.info("%s: default applied: %s = %r", source, key, values[key])
    return _finalize(values, source=source)


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


def _shipped_text() -> str:
    return resources.files(__package__).joinpath("default.cfg").read_text(encoding="utf-8")


def default_config() -> ExperimentConfig:
    """The built-in default configuration: the default.cfg shipped in
    the package."""
    return parse_config_text(_shipped_text(), source="<default>")

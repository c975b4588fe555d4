import logging
import re
from pathlib import Path

import pytest

import cavitybus
from cavitybus.config import (
    MAX_RANGE_POINTS,
    SCHEMA,
    default_config,
    load_config,
    parse_config_text,
    parse_range,
    range_values,
)
from cavitybus.errors import ConfigError

# the default config shipped as package data
DEFAULT_CFG = Path(cavitybus.__file__).with_name("default.cfg")
DEFAULT_TEXT = DEFAULT_CFG.read_text(encoding="utf-8")


def test_default_config_values(config):
    assert config.get("cavity.center_mhz") == 2749.1
    assert config.get("cavity.total_hwhm_mhz") == 0.320
    assert config.get("ensemble_i.coupling_mhz") == 7.5
    assert config.get("ensemble_ii.coupling_mhz") == 5.6
    assert config.get("ensemble_ii.azimuth_deg") == pytest.approx(
        config.get("ensemble_i.azimuth_deg") + 24.2
    )


def test_default_config_hash_stable():
    assert default_config().hash == default_config().hash


def test_dump_roundtrip(config):
    again = parse_config_text(config.dump(), source="<dump>")
    assert again.values == config.values
    assert again.hash == config.hash


def test_load_from_file():
    config = load_config(DEFAULT_CFG)
    assert config.get("cavity.center_mhz") == 2749.1
    assert config.values == default_config().values


def test_required_keys_alone_load_to_the_default_config(config):
    # every optional key a file leaves out takes the shipped file's value
    required = [key for key, spec in SCHEMA.items() if spec.required]
    minimal = parse_config_text("".join(f"{key} = {config.get(key)!r}\n" for key in required))
    assert minimal.values == default_config().values
    assert minimal.hash == config.hash


def test_shipped_file_names_every_optional_key_but_the_external_width():
    lines = (line.split("#", 1)[0] for line in DEFAULT_TEXT.splitlines())
    named = {line.split("=", 1)[0].strip() for line in lines if "=" in line}
    optional = {key for key, spec in SCHEMA.items() if not spec.required}
    # an external width left out equals the total width
    assert optional - named == {"cavity.external_hwhm_mhz"}


def test_missing_required_key_names_it():
    text = DEFAULT_TEXT.replace("ensemble_ii.coupling_mhz = 5.6\n", "")
    with pytest.raises(ConfigError, match="ensemble_ii.coupling_mhz"):
        parse_config_text(text)


def test_unknown_key_reports_line_number():
    text = "cavity.center_mhz = 2749.1\nbogus.key = 1\n"
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config_text(text)


def test_bad_unit_suffix_reports_line_number():
    text = DEFAULT_TEXT + "ensemble_i.coupling_mt = 7.5\n"
    with pytest.raises(ConfigError, match="bad unit suffix"):
        parse_config_text(text)


def test_per_tesla_gyromagnetic_key_is_a_bad_unit_suffix():
    # "_mhz_per_t" is no field alternate of "_mhz_per_mt": only frequency
    # and field keys take alternates
    text = DEFAULT_TEXT.replace(
        "ensemble_i.gyromagnetic_mhz_per_mt = 28.03", "ensemble_i.gyromagnetic_mhz_per_t = 28030"
    )
    message = (
        "line 10: bad unit suffix on 'ensemble_i.gyromagnetic_mhz_per_t' "
        "(canonical key is 'ensemble_i.gyromagnetic_mhz_per_mt')"
    )
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)


def test_ghz_suffix_converts_exactly():
    text = DEFAULT_TEXT.replace(
        "cavity.center_mhz = 2749.1", "cavity.center_ghz = 2.5"
    )
    config = parse_config_text(text)
    assert config.get("cavity.center_mhz") == 2500.0


def test_duplicate_key_rejected():
    text = DEFAULT_TEXT + "cavity.center_mhz = 2749.1\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(text)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")


def test_bad_sign_rejected():
    text = DEFAULT_TEXT.replace(
        "cavity.antinode_sign_ii = -1", "cavity.antinode_sign_ii = 2"
    )
    with pytest.raises(ConfigError, match=r"\+1 or -1"):
        parse_config_text(text)


def test_value_bounds_checked():
    text = DEFAULT_TEXT.replace(
        "ensemble_i.axis_class = 0", "ensemble_i.axis_class = 7"
    )
    with pytest.raises(ConfigError, match="above maximum"):
        parse_config_text(text)


def test_defaults_are_echoed(caplog):
    minimal = "\n".join(
        [
            "ensemble_i.coupling_mhz = 7.5",
            "ensemble_ii.coupling_mhz = 5.6",
            "cavity.center_mhz = 2749.1",
            "cavity.total_hwhm_mhz = 0.32",
        ]
    )
    with caplog.at_level(logging.INFO, logger="cavitybus.config"):
        parse_config_text(minimal)
    messages = [record.getMessage() for record in caplog.records]
    assert "<text>: default applied: ensemble_i.spin_hwhm_mhz = 4.58" in messages
    assert not any("coupling_mhz" in message for message in messages)


def test_with_updates_rejects_unknown_key(config):
    with pytest.raises(ConfigError):
        config.with_updates({"nope": 1.0})


def test_with_updates_changes_hash(config):
    updated = config.with_updates({"field.magnitude_mt": 5.0})
    assert updated.hash != config.hash
    assert updated.get("field.magnitude_mt") == 5.0


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("ensemble_i.coupling_mhz", -2.0, "value -2.0 below minimum"),
        ("fit.peak_prominence", 3.0, "value 3.0 above maximum 1.0"),
        ("fit.max_iterations", 2.5, "expected an integer, got 2.5"),
        ("field.magnitude_mt", float("nan"), "value must be finite, got nan"),
        ("field.magnitude_mt", True, "expected a number, got True"),
        ("cavity.antinode_sign_i", 2, "expected +1 or -1, got 2"),
        ("sweep.angles_deg", "0:90:-1", "need stop >= start and step > 0"),
    ],
)
def test_with_updates_applies_the_schema_checks(config, key, value, message):
    # the same kind and bound checks as a file, in an error naming the key
    with pytest.raises(ConfigError, match=re.escape(message)) as info:
        config.with_updates({key: value})
    assert key in str(info.value)


def _with_external(value: str) -> str:
    """The shipped config text with an external width added."""
    return DEFAULT_TEXT + f"cavity.external_hwhm_mhz = {value}\n"


def test_external_hwhm_defaults_to_total():
    config = parse_config_text(DEFAULT_TEXT)
    assert config.get("cavity.external_hwhm_mhz") is None
    cavity = config.cavity()
    assert cavity.external_hwhm == cavity.total_hwhm


@pytest.mark.parametrize("external", ["0.5", "0.320000001"])
def test_external_hwhm_above_total_rejected(external):
    text = _with_external(external)
    with pytest.raises(ConfigError, match="cavity.external_hwhm_mhz: value .* above "
                       r"cavity.total_hwhm_mhz 0.32"):
        parse_config_text(text)


def test_external_hwhm_equal_to_total_accepted():
    cavity = parse_config_text(_with_external("0.320")).cavity()
    assert cavity.external_hwhm == cavity.total_hwhm == 0.320


def test_with_updates_checks_the_cavity_widths():
    config = parse_config_text(_with_external("0.320"))
    with pytest.raises(ConfigError, match="cavity.external_hwhm_mhz"):
        config.with_updates({"cavity.total_hwhm_mhz": 0.2})


@pytest.mark.parametrize("which", ["i", "ii"])
@pytest.mark.parametrize("value", ["0", "0.0", "-1"])
def test_coupling_must_be_strictly_positive(which, value):
    key = f"ensemble_{which}.coupling_mhz"
    default = "7.5" if which == "i" else "5.6"
    text = DEFAULT_TEXT.replace(f"{key} = {default}\n", f"{key} = {value}\n")
    assert text != DEFAULT_TEXT
    with pytest.raises(ConfigError, match=rf"{key}: value .* below minimum"):
        parse_config_text(text)


def test_typed_accessors(config):
    cavity = config.cavity()
    assert cavity.antinode_signs == (1, -1)
    ens = config.ensemble("i")
    assert ens.coupling == 7.5
    assert ens.nv.d_splitting == 2870.0
    with pytest.raises(ValueError):
        config.ensemble("iii")


def test_parse_range():
    assert parse_range("0:90:0.05") == (0.0, 90.0, 0.05)
    with pytest.raises(ConfigError):
        parse_range("0:90")
    with pytest.raises(ConfigError):
        parse_range("90:0:1")
    with pytest.raises(ConfigError):
        parse_range("a:b:c")


@pytest.mark.parametrize(
    "text", ["0:90:nan", "nan:90:1", "0:nan:1", "0:inf:1", "-inf:0:1", "0:90:inf"]
)
def test_parse_range_rejects_non_finite_parts(text):
    with pytest.raises(ConfigError, match="finite"):
        parse_range(text)


def test_parse_range_caps_the_point_count():
    assert MAX_RANGE_POINTS == 10**6
    assert range_values(f"0:{MAX_RANGE_POINTS - 1}:1").size == MAX_RANGE_POINTS
    for text in (f"0:{MAX_RANGE_POINTS}:1", "0:1e9:1e-9", "0:1:5e-324"):
        with pytest.raises(ConfigError, match="more than 1000000 points"):
            parse_range(text)


def test_range_values_inclusive_endpoints():
    values = range_values("2720:2780:0.05")
    assert values.size == 1201
    assert values[0] == 2720.0
    assert values[-1] == pytest.approx(2780.0, abs=1e-9)

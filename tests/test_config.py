import logging

import pytest

from cavitybus.config import (
    DEFAULT_CONFIG_TEXT,
    MAX_RANGE_POINTS,
    default_config,
    load_config,
    parse_config_text,
    parse_range,
    range_values,
)
from cavitybus.errors import ConfigError


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


def test_load_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT, encoding="utf-8")
    config = load_config(path)
    assert config.get("cavity.center_mhz") == 2749.1


def test_missing_required_key_names_it():
    text = DEFAULT_CONFIG_TEXT.replace("ensemble_ii.coupling_mhz = 5.6\n", "")
    with pytest.raises(ConfigError, match="ensemble_ii.coupling_mhz"):
        parse_config_text(text)


def test_unknown_key_reports_line_number():
    text = "cavity.center_mhz = 2749.1\nbogus.key = 1\n"
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config_text(text)


def test_bad_unit_suffix_reports_line_number():
    text = DEFAULT_CONFIG_TEXT + "ensemble_i.coupling_mt = 7.5\n"
    with pytest.raises(ConfigError, match="bad unit suffix"):
        parse_config_text(text)


def test_ghz_suffix_converts_exactly():
    text = DEFAULT_CONFIG_TEXT.replace(
        "cavity.center_mhz = 2749.1", "cavity.center_ghz = 2.5"
    )
    config = parse_config_text(text)
    assert config.get("cavity.center_mhz") == 2500.0


def test_duplicate_key_rejected():
    text = DEFAULT_CONFIG_TEXT + "cavity.center_mhz = 2749.1\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(text)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")


def test_bad_bool_rejected():
    text = DEFAULT_CONFIG_TEXT.replace(
        "dispersive.enforce_floor = true", "dispersive.enforce_floor = yes"
    )
    with pytest.raises(ConfigError, match="true/false"):
        parse_config_text(text)


def test_bad_sign_rejected():
    text = DEFAULT_CONFIG_TEXT.replace(
        "cavity.antinode_sign_ii = -1", "cavity.antinode_sign_ii = 2"
    )
    with pytest.raises(ConfigError, match=r"\+1 or -1"):
        parse_config_text(text)


def test_value_bounds_checked():
    text = DEFAULT_CONFIG_TEXT.replace(
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
        config = parse_config_text(minimal)
    assert "ensemble_i.spin_hwhm_mhz" in config.applied_defaults
    assert any("default applied" in record.message for record in caplog.records)


def test_with_updates_rejects_unknown_key(config):
    with pytest.raises(ConfigError):
        config.with_updates({"nope": 1.0})


def test_with_updates_changes_hash(config):
    updated = config.with_updates({"field.magnitude_mt": 5.0})
    assert updated.hash != config.hash
    assert updated.get("field.magnitude_mt") == 5.0


def test_external_hwhm_defaults_to_total():
    text = DEFAULT_CONFIG_TEXT.replace("cavity.external_hwhm_mhz = 0.320\n", "")
    cavity = parse_config_text(text).cavity()
    assert cavity.external_hwhm == cavity.total_hwhm


def test_typed_accessors(config):
    cavity = config.cavity()
    assert cavity.antinode_signs == (1, -1)
    ens = config.ensemble("i")
    assert ens.coupling == 7.5
    assert ens.nv.d_splitting == 2870.0
    field = config.field(45.0)
    assert field.magnitude == config.get("field.magnitude_mt")
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

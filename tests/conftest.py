import pytest

from cavitybus import acceptance
from cavitybus.config import default_config


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def selftest_results(config):
    """Every acceptance criterion on the default config, evaluated once."""
    return acceptance.run_all(config)


@pytest.fixture(scope="session")
def cavity(config):
    return config.cavity()


@pytest.fixture(scope="session")
def ens_i(config):
    return config.ensemble("i")


@pytest.fixture(scope="session")
def ens_ii(config):
    return config.ensemble("ii")


@pytest.fixture(scope="session")
def resonant_magnitude(config):
    return config.get("field.magnitude_mt")


@pytest.fixture(scope="session")
def dispersive_magnitude(config):
    return config.get("field.dispersive_magnitude_mt")

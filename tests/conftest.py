import numpy as np
import pytest

from repisac import ScenarioConfig
from repisac.harness import _gain_setup, _pod_drop
from repisac.precoding import build_precoders


def clear_setup_caches() -> None:
    """Empty the harness's per-process caches of the PoD drop and of each gain's setup."""
    _pod_drop.cache_clear()
    _gain_setup.cache_clear()


@pytest.fixture(autouse=True)
def cold_setup_caches():
    """Each test starts on empty setup caches, so that no setup an earlier test
    cached skips a drop or precoder build that this test patches or records."""
    clear_setup_caches()


def tiny_config(**overrides) -> ScenarioConfig:
    """Small, fast scenario used across the unit tests."""
    base = dict(
        n_tx_antennas=2, n_rx_antennas=2, n_users=2, slot_length=4,
        sensing_power_fraction=0.4, mc_trials=50, calibration_trials=200,
        master_seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture
def small_setup():
    """(config, channels, clutter model, precoders) of the tiny config's PoD drop."""
    config = tiny_config()
    channels, clutter_model = _pod_drop(config)
    return config, channels, clutter_model, build_precoders(config, channels)


@pytest.fixture
def rng():
    return np.random.default_rng(123)

import numpy as np
import pytest

from repisac import ScenarioConfig
from repisac.harness import _pod_drop
from repisac.precoding import build_precoders


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

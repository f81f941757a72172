import numpy as np
import pytest

from repisac import ScenarioConfig
from repisac.channel import clutter_covariance
from repisac.harness import STUDY_POD, draw_drop
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
    config = tiny_config()
    geometry, channels = draw_drop(config, STUDY_POD)
    clutter_model = clutter_covariance(config, geometry)
    precoders = build_precoders(config, channels)
    return config, geometry, channels, clutter_model, precoders


@pytest.fixture
def rng():
    return np.random.default_rng(123)

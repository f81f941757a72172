import math

import numpy as np
import pytest

from repisac import ConfigError, build_precoders, spectral_efficiency, user_sinr
from repisac.precoding import effective_channels


class TestSpectralEfficiency:
    def test_shannon_formula(self):
        assert spectral_efficiency(0.0) == 0.0
        assert spectral_efficiency(1.0) == pytest.approx(1.0)
        assert spectral_efficiency(3.0) == pytest.approx(2.0)
        assert spectral_efficiency(10.0) == pytest.approx(math.log2(11.0))
        np.testing.assert_allclose(spectral_efficiency(np.array([0.0, 1.0, 3.0])),
                                   [0.0, 1.0, 2.0], rtol=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            spectral_efficiency(-0.1)
        with pytest.raises(ConfigError):
            spectral_efficiency(np.array([1.0, -0.1]))


class TestUserSinr:
    def test_matches_manual_computation(self, small_setup):
        config, channels, _, precoders = small_setup
        fdot = effective_channels(channels, config)
        rho = config.tx_power_watt
        fr = config.user_fractions
        for n in range(config.n_users):
            metrics = user_sinr(n, precoders, channels, config)
            signal = rho * fr[n] * abs(fdot[n] @ precoders.user_precoders[n]) ** 2
            interference = sum(rho * fr[m] * abs(fdot[n] @ precoders.user_precoders[m]) ** 2
                               for m in range(config.n_users) if m != n)
            sensing = (rho * config.sensing_power_fraction
                       * abs(fdot[n] @ precoders.sensing_precoder) ** 2)
            noise = (abs(config.nu) ** 2 * abs(channels.h_user[n]) ** 2
                     * config.repeater_noise_watt + config.ue_noise_watt)
            assert metrics.signal_power == pytest.approx(signal, rel=1e-12, abs=0.0)
            assert metrics.multiuser_interference == pytest.approx(interference, rel=1e-9,
                                                                   abs=0.0)
            assert metrics.sensing_interference == pytest.approx(sensing, rel=1e-12, abs=0.0)
            assert metrics.noise_power == pytest.approx(noise, rel=1e-12, abs=0.0)
            assert metrics.sinr == pytest.approx(signal / (interference + sensing + noise),
                                                 rel=1e-9, abs=0.0)
            assert metrics.se == pytest.approx(spectral_efficiency(metrics.sinr), rel=1e-12,
                                               abs=0.0)

    def test_no_sensing_interference_without_sensing_beam(self, small_setup):
        config, channels, _, _ = small_setup
        cfg = config.with_updates(sensing_power_fraction=0.0,
                                  user_power_fractions=(0.5, 0.5))
        precoders = build_precoders(cfg, channels)
        assert user_sinr(0, precoders, channels, cfg).sensing_interference == 0.0

    def test_repeater_noise_leaves_with_repeater(self, small_setup):
        config, channels, _, _ = small_setup
        cfg = config.with_updates(repeater_on=False)
        precoders = build_precoders(cfg, channels)
        metrics = user_sinr(0, precoders, channels, cfg)
        assert metrics.noise_power == pytest.approx(cfg.ue_noise_watt, rel=1e-12)
        # ue_noise_power_watt overrides the derived UE noise floor
        cfg = cfg.with_updates(ue_noise_power_watt=3e-13)
        metrics = user_sinr(0, build_precoders(cfg, channels), channels, cfg)
        assert metrics.noise_power == 3e-13

    def test_index_validation(self, small_setup):
        config, channels, _, precoders = small_setup
        with pytest.raises(ConfigError):
            user_sinr(config.n_users, precoders, channels, config)

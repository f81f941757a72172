import numpy as np
import pytest

from repisac import ConfigError, draw_noise, receive_bs_slot, receive_ue
from repisac.precoding import build_transmit_frame


class TestDrawNoise:
    def test_shapes_and_powers(self, small_setup):
        config, _, _, _, _ = small_setup
        cfg = config.with_updates(slot_length=2000, bs_noise_power_watt=0.7,
                                  repeater_noise_power_watt=0.3,
                                  ue_noise_power_watt=1.1)
        noise = draw_noise(cfg, np.random.default_rng(5))
        assert noise.w_rep.shape == (2000,)
        assert noise.w_bs.shape == (2000, cfg.n_rx_antennas)
        assert noise.w_ue.shape == (cfg.n_users, 2000)
        assert np.mean(np.abs(noise.w_rep) ** 2) == pytest.approx(0.3, rel=0.1)
        assert np.mean(np.abs(noise.w_bs) ** 2) == pytest.approx(0.7, rel=0.1)
        assert np.mean(np.abs(noise.w_ue) ** 2) == pytest.approx(1.1, rel=0.1)


class TestReceiveBsSlot:
    def test_matches_per_slot_reference(self, small_setup, rng):
        config, _, channels, _, precoders = small_setup
        frame = build_transmit_frame(precoders, config, rng)
        noise = draw_noise(config, rng)
        obs = receive_bs_slot(frame, channels, noise, config)
        nu = config.nu
        for tau in range(config.slot_length):
            x = frame.x[tau]
            r = (channels.a_rx + nu * channels.g_rep * channels.b_rx) * (channels.a_tx @ x)
            expected = (channels.rcs * r + channels.clutter @ x
                        + channels.interbs_error @ x
                        + nu * noise.w_rep[tau] * channels.b_rx + noise.w_bs[tau])
            np.testing.assert_allclose(obs.y_slots[tau], expected, atol=1e-14)

    def test_uncancelled_repeater_leakage_enters_clutter(self, small_setup, rng):
        config, _, channels, _, precoders = small_setup
        frame = build_transmit_frame(precoders, config, rng)
        noise = draw_noise(config, rng)
        base = receive_bs_slot(frame, channels, noise, config)
        leaky = receive_bs_slot(frame, channels, noise,
                                config.with_updates(cancel_repeater_direct=False))
        nu = config.nu
        extra = frame.x @ (nu * np.outer(channels.b_rx, channels.b_tx)).T
        np.testing.assert_allclose(leaky.y_slots - base.y_slots, extra, atol=1e-14)

    def test_stacked_concatenates_channel_uses(self, small_setup, rng):
        config, _, channels, _, precoders = small_setup
        frame = build_transmit_frame(precoders, config, rng)
        obs = receive_bs_slot(frame, channels, draw_noise(config, rng), config)
        np.testing.assert_array_equal(obs.stacked[:config.n_rx_antennas], obs.y_slots[0])


class TestReceiveUe:
    def test_matches_effective_channel(self, small_setup, rng):
        config, _, channels, _, precoders = small_setup
        frame = build_transmit_frame(precoders, config, rng)
        noise = draw_noise(config, rng)
        n = 1
        y = receive_ue(frame, channels, n, noise, config)
        fdot = channels.f_user[n] + config.nu * channels.h_user[n] * channels.b_tx
        expected = (frame.x @ fdot + config.nu * channels.h_user[n] * noise.w_rep
                    + noise.w_ue[n])
        np.testing.assert_allclose(y, expected, atol=1e-14)

    def test_index_validation(self, small_setup, rng):
        config, _, channels, _, precoders = small_setup
        frame = build_transmit_frame(precoders, config, rng)
        noise = draw_noise(config, rng)
        with pytest.raises(ConfigError):
            receive_ue(frame, channels, config.n_users, noise, config)

import numpy as np
import pytest

from repisac import draw_noise, receive_bs_slot
from repisac.channel import redraw_nuisance
from repisac.precoding import build_transmit_frame


class TestDrawNoise:
    def test_shapes_and_powers(self, small_setup):
        config, _, _, _ = small_setup
        cfg = config.with_updates(slot_length=2000, bs_noise_power_watt=0.7,
                                  repeater_noise_power_watt=0.3)
        noise = draw_noise(cfg, np.random.default_rng(5))
        assert noise.w_rep.shape == (2000,)
        assert noise.w_bs.shape == (2000, cfg.n_rx_antennas)
        assert np.mean(np.abs(noise.w_rep) ** 2) == pytest.approx(0.3, rel=0.1)
        assert np.mean(np.abs(noise.w_bs) ** 2) == pytest.approx(0.7, rel=0.1)


class TestReceiveBsSlot:
    def test_matches_per_slot_reference(self, small_setup, rng):
        config, drop, clutter_model, precoders = small_setup
        # a slot's nuisance at zeta^2 > 0, so that every term below is nonzero
        config = config.with_updates(residual_interbs_power=1e-12)
        channels = redraw_nuisance(drop, config, clutter_model.entry_variance, rng)
        assert channels.rcs != 0.0
        assert np.all(channels.clutter != 0.0) and np.all(channels.interbs_error != 0.0)
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

import math
import tracemalloc

import numpy as np
import pytest

from repisac import ConfigError, draw_rcs, drop_entities, gen_channels, steering_vector
from repisac.channel import ClutterModel, clutter_covariance, redraw_nuisance
from repisac.detector import trial_rng
from repisac.harness import DROPS_PER_BLOCK, STUDY_SECDF, _pod_drop, draw_drop
from repisac.scenario import pathloss_linear

from conftest import tiny_config


class TestSteeringVector:
    def test_half_wavelength_ula(self):
        v = steering_vector(4, np.pi / 6)  # sin = 0.5
        expected = np.exp(1j * np.pi * 0.5 * np.arange(4))
        np.testing.assert_allclose(v, expected, atol=1e-14)

    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(steering_vector(8, 0.0), np.ones(8))

    def test_unit_modulus(self, rng):
        v = steering_vector(16, rng.uniform(-np.pi, np.pi))
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-14)

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            steering_vector(0, 0.0)


class TestRcsDraw:
    def test_variance_and_zero_mean(self, rng):
        draws = np.array([draw_rcs(4.0, rng) for _ in range(20000)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(4.0, rel=0.05)
        assert abs(np.mean(draws)) < 0.05
        # circular symmetry: real and imaginary parts carry half the power each
        assert np.var(draws.real) == pytest.approx(2.0, rel=0.05)

    def test_invalid_variance(self, rng):
        with pytest.raises(ConfigError):
            draw_rcs(0.0, rng)


class TestClutterModel:
    def test_iid_covariance_and_inverse(self):
        model = ClutterModel.iid(0.5, 2, 3)
        assert model.size == 6
        np.testing.assert_allclose(model.covariance, 0.5 * np.eye(6))
        np.testing.assert_allclose(model.inverse_covariance(), 2.0 * np.eye(6))

    def test_general_covariance_inverse(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cov = m @ m.conj().T + np.eye(4)
        model = ClutterModel(covariance=cov)
        np.testing.assert_allclose(model.inverse_covariance() @ cov, np.eye(4), atol=1e-12)
        with pytest.raises(ConfigError, match="^clutter covariance is singular$"):
            ClutterModel(covariance=np.zeros((4, 4))).inverse_covariance()

    def test_zero_entry_variance_rejected(self):
        with pytest.raises(ConfigError):
            ClutterModel.iid(0.0, 2, 2)

    def test_scaled_interbs_gain(self):
        config = tiny_config(clutter_suppression=1e-2)
        geom = drop_entities(config, np.random.default_rng(0))
        model = clutter_covariance(config, geom)
        beta = pathloss_linear(float(np.linalg.norm(geom.tx_bs - geom.rx_bs)),
                               config.carrier_ghz, config.bs_height_m)
        assert model.entry_variance == pytest.approx(1e-2 * beta, rel=1e-12)

    def test_iid_model_stores_no_dense_matrix(self):
        # at 48 x 48 the dense (Nt Nr)^2 identity would take 42.5 MB
        config = tiny_config(n_tx_antennas=48, n_rx_antennas=48)
        geom = drop_entities(config, np.random.default_rng(0))
        tracemalloc.start()
        try:
            model = clutter_covariance(config, geom)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.size == 48 * 48
        assert peak < 1e6


def one_drop_and_a_block():
    """(config, geometry, channels, Rayleigh parts) of one drop from ``gen_channels``,
    and of a block of ``DROPS_PER_BLOCK`` drops stacked on a leading axis (``draw_drop``)."""
    config = tiny_config(n_users=3, n_tx_antennas=4, n_rx_antennas=3)
    geom = drop_entities(config, np.random.default_rng(1))
    one = (geom, gen_channels(geom, config, np.random.default_rng(2)), 1,
           np.random.default_rng(2))
    block = (*draw_drop(config, STUDY_SECDF, 0, DROPS_PER_BLOCK), DROPS_PER_BLOCK,
             trial_rng(config.master_seed, (STUDY_SECDF, 1), 0))
    for geom, ch, n_drops, rng in (one, block):
        # the Rayleigh draws, drop by drop, users in order, real then imaginary parts
        parts = rng.normal(scale=np.sqrt(0.5), size=(n_drops, 3, 2, 4))
        yield config, geom, ch, parts


class TestGenChannels:
    def test_deterministic_given_seed(self):
        config = tiny_config()
        geom = drop_entities(config, np.random.default_rng(1))
        ch1 = gen_channels(geom, config, np.random.default_rng(42))
        ch2 = gen_channels(geom, config, np.random.default_rng(42))
        for name, value in vars(ch1).items():
            np.testing.assert_array_equal(getattr(ch2, name), value, err_msg=name)

    def test_draws_only_the_users_rayleigh_normals(self):
        config = tiny_config(n_users=3, n_tx_antennas=4, residual_interbs_power=0.3)
        geom = drop_entities(config, np.random.default_rng(1))
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        gen_channels(geom, config, rng)
        replay.standard_normal(2 * 3 * 4)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_los_links_follow_geometry(self):
        for config, geom, ch, _ in one_drop_and_a_block():
            self.check_los_links(config, geom, ch)

    @staticmethod
    def check_los_links(config, geom, ch):
        links = ((ch.a_tx, geom.tx_bs, geom.hotspot, config.target_height_m),
                 (ch.a_rx, geom.rx_bs, geom.hotspot, config.target_height_m),
                 (ch.b_tx, geom.tx_bs, geom.repeater, config.repeater_height_m),
                 (ch.b_rx, geom.rx_bs, geom.repeater, config.repeater_height_m))
        n_drops = np.size(ch.rcs)
        for channel, array_pos, point_pos, height in links:
            offsets = np.broadcast_to(point_pos - array_pos, (n_drops, 3))
            for row, offset in zip(channel.reshape(n_drops, -1), offsets):
                # path gain of the 3-D distance
                beta = pathloss_linear(float(np.linalg.norm(offset)), config.carrier_ghz, height)
                np.testing.assert_allclose(np.abs(row), math.sqrt(beta), rtol=1e-12)
                # phase slope pi sin(azimuth) from one element to the next
                slope = np.exp(1j * np.pi * math.sin(math.atan2(offset[1], offset[0])))
                np.testing.assert_allclose(row[1:] / row[:-1], slope, rtol=1e-12)
        d = np.linalg.norm(geom.repeater - geom.hotspot, axis=-1)
        beta = pathloss_linear(d, config.carrier_ghz, config.target_height_m)
        np.testing.assert_allclose(ch.g_rep,
                                   np.sqrt(beta) * np.exp(-2j * np.pi * d / config.wavelength_m),
                                   rtol=1e-10)

    def test_user_links_follow_geometry(self):
        for config, geom, ch, parts in one_drop_and_a_block():
            self.check_user_links(config, geom, ch, parts)

    @staticmethod
    def check_user_links(config, geom, ch, parts):
        users = geom.users.reshape(-1, config.n_users, 3)
        repeaters = geom.repeater.reshape(-1, 3)
        f_user = ch.f_user.reshape(-1, config.n_users, config.n_tx_antennas)
        h_user = ch.h_user.reshape(-1, config.n_users)
        for i in range(len(users)):
            for n, user in enumerate(users[i]):
                beta = pathloss_linear(float(np.linalg.norm(user - geom.tx_bs)),
                                       config.carrier_ghz, config.user_height_m)
                np.testing.assert_allclose(f_user[i, n],
                                           np.sqrt(beta) * (parts[i, n, 0] + 1j * parts[i, n, 1]),
                                           rtol=1e-13)
                d = float(np.linalg.norm(user - repeaters[i]))
                beta = pathloss_linear(d, config.carrier_ghz, config.user_height_m)
                los = np.sqrt(beta) * np.exp(-2j * np.pi * d / config.wavelength_m)
                assert h_user[i, n] == pytest.approx(los, rel=1e-12)


class TestRedrawNuisance:
    def test_interbs_error_power(self):
        config = tiny_config(n_tx_antennas=6, n_rx_antennas=6,
                             residual_interbs_power=0.3)
        channels, clutter = _pod_drop(config)
        entry_variance = clutter.entry_variance
        rng = np.random.default_rng(1)
        samples = [redraw_nuisance(channels, config, entry_variance, rng) for _ in range(400)]
        power = np.mean(np.abs(np.stack([ch.interbs_error for ch in samples])) ** 2)
        assert power == pytest.approx(0.3, rel=0.05)
        power = np.mean(np.abs(np.stack([ch.clutter for ch in samples])) ** 2)
        assert power == pytest.approx(entry_variance, rel=0.05)

    def test_zero_residual_gives_exact_zeros(self):
        config = tiny_config(residual_interbs_power=0.0)
        channels, clutter = _pod_drop(config)
        ch = redraw_nuisance(channels, config, clutter.entry_variance, np.random.default_rng(2))
        assert np.all(ch.interbs_error == 0.0)
        assert np.all(ch.clutter != 0.0)

    def test_deterministic_links_fixed_nuisance_fresh(self, small_setup, rng):
        config, channels, clutter_model, _ = small_setup
        redrawn = redraw_nuisance(channels, config, clutter_model.entry_variance, rng)
        np.testing.assert_array_equal(redrawn.f_user, channels.f_user)
        np.testing.assert_array_equal(redrawn.a_tx, channels.a_tx)
        assert redrawn.g_rep == channels.g_rep
        assert not np.array_equal(redrawn.clutter, channels.clutter)
        assert redrawn.rcs != channels.rcs

    def test_force_null_zeroes_the_target(self, small_setup, rng):
        config, channels, clutter_model, _ = small_setup
        redrawn = redraw_nuisance(channels, config, clutter_model.entry_variance, rng,
                                  force_null=True)
        assert redrawn.rcs == 0.0


import numpy as np
import pytest

from repisac import (ConfigError, DegenerateNullspaceError, ScenarioConfig, build_precoders,
                     build_transmit_frame, rzf_precoders, target_precoder)
from repisac.errors import PowerBudgetError
from repisac.harness import STUDY_SECDF, draw_drop
from repisac.precoding import beam_matrix, effective_channels

from conftest import tiny_config


def cn(rng, shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)


class TestEffectiveChannel:
    def test_composite_path(self, small_setup):
        config, channels, _, _ = small_setup
        fdot = effective_channels(channels, config)
        for n in range(config.n_users):
            np.testing.assert_allclose(
                fdot[n], channels.f_user[n] + config.nu * channels.h_user[n] * channels.b_tx)

    def test_stacks_all_users(self, small_setup):
        config, channels, _, _ = small_setup
        fdot = effective_channels(channels, config)
        assert fdot.shape == (config.n_users, config.n_tx_antennas)

    def test_repeater_off_reduces_to_direct_path(self, small_setup):
        config, channels, _, _ = small_setup
        fdot = effective_channels(channels, config.with_updates(repeater_on=False))
        np.testing.assert_array_equal(fdot, channels.f_user)


class TestRzfPrecoders:
    def test_unit_norm_rows(self, rng):
        fdot = cn(rng, (3, 6))
        p = rzf_precoders(fdot, 0.1)
        assert p.shape == (3, 6)
        np.testing.assert_allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-12)

    def test_high_regularization_matches_matched_filter(self, rng):
        fdot = cn(rng, (2, 5))
        p = rzf_precoders(fdot, 1e9)
        mf = fdot.conj() / np.linalg.norm(fdot, axis=1)[:, None]
        np.testing.assert_allclose(p, mf, atol=1e-7)

    def test_small_regularization_suppresses_cross_talk(self, rng):
        fdot = cn(rng, (3, 8))
        p = rzf_precoders(fdot, 1e-9)
        cross = fdot @ p.T
        off = cross - np.diag(np.diag(cross))
        assert np.max(np.abs(off)) < 1e-6 * np.max(np.abs(np.diag(cross)))

    def test_direction_scale_invariance(self, rng):
        # scaling channels by s and the regularizer by s^2 keeps the beams
        fdot = cn(rng, (3, 6))
        p1 = rzf_precoders(fdot, 0.2)
        p2 = rzf_precoders(5.0 * fdot, 0.2 * 25.0)
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_a_stack_matches_one_call_per_matrix(self, rng):
        fdot = cn(rng, (3, 2, 5))
        stack = rzf_precoders(fdot, 0.1)
        for i in range(3):
            np.testing.assert_array_equal(stack[i], rzf_precoders(fdot[i], 0.1))

    @pytest.mark.parametrize("n_tx", [2, 8, 64])
    @pytest.mark.parametrize("gain_db", [20.0, 80.0, 120.0])
    def test_one_user_gets_the_matched_filter_at_any_gain(self, n_tx, gain_db):
        # at K = 1 the RZF beam is conj(fdot) / ||fdot|| for any regularizer; the
        # Nt x Nt form (fdot^H fdot + lam I)^-1 fdot^H, of condition number up to
        # ~1e9 at 120 dB, misses it on these drops by 2e-13 to 1.2e-9
        config = ScenarioConfig(n_users=1, n_tx_antennas=n_tx, repeater_gain_db=gain_db)
        _, channels = draw_drop(config, STUDY_SECDF, 0, 64)
        fdot = effective_channels(channels, config)
        beams = rzf_precoders(fdot, config.zf_regularizer_value)
        matched = fdot.conj() / np.linalg.norm(fdot, axis=-1, keepdims=True)
        assert np.abs(beams - matched).max() <= 1e-14

    @pytest.mark.parametrize("zf_regularizer", [None, 1e-20], ids=["default", "1e-20"])
    def test_more_users_than_antennas_solve_on_the_antenna_side(self, zf_regularizer):
        # at K > Nt the K x K matrix fdot fdot^H + lam I has rank Nt plus lam, and the
        # Nt x Nt one fdot^H fdot + lam I full rank. Reference: R^-1 Q_1^H from the QR
        # of [fdot; sqrt(lam) I] = [Q_1; Q_2] R, which forms no Gram matrix. On these
        # default-config drops the K x K form was 1.2e-5 off at lam = 1e-20
        config = ScenarioConfig(zf_regularizer=zf_regularizer)
        _, channels = draw_drop(config, STUDY_SECDF, 0, 8)
        fdot = effective_channels(channels, config)
        k, nt = fdot.shape[-2:]
        assert k > nt
        lam = config.zf_regularizer_value
        q, r = np.linalg.qr(np.concatenate(
            [fdot, np.broadcast_to(np.sqrt(lam) * np.eye(nt), (len(fdot), nt, nt))], axis=-2))
        reference = np.swapaxes(np.linalg.solve(r, np.swapaxes(q[:, :k].conj(), -1, -2)), -1, -2)
        reference /= np.linalg.norm(reference, axis=-1, keepdims=True)
        assert np.abs(rzf_precoders(fdot, lam) - reference).max() <= 1e-12

    def test_invalid_inputs(self, rng):
        with pytest.raises(ConfigError):
            rzf_precoders(cn(rng, (2, 4)), 0.0)
        with pytest.raises(ConfigError):
            rzf_precoders(np.zeros((1, 4)), 0.1)


class TestTargetPrecoder:
    def test_target_centric_points_at_target(self, rng):
        a = cn(rng, 5)
        p = target_precoder("target_centric", a, cn(rng, 5), np.zeros((0, 5)))
        np.testing.assert_allclose(p, a.conj() / np.linalg.norm(a), atol=1e-12)

    def test_repeater_null_orthogonality(self, rng):
        a, b = cn(rng, 6), cn(rng, 6)
        p = target_precoder("repeater_null", a, b, np.zeros((0, 6)))
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
        assert abs(b @ p) <= 1e-10 * np.linalg.norm(b)
        with pytest.raises(ConfigError, match="^repeater_null requires a nonzero b_tx$"):
            target_precoder("repeater_null", a, np.zeros(6), np.zeros((0, 6)))

    def test_comm_centric_nulls_every_user(self, rng):
        fdot = cn(rng, (3, 6))
        p = target_precoder("comm_centric", cn(rng, 6), cn(rng, 6), fdot)
        assert np.max(np.abs(fdot @ p)) <= 1e-10 * np.max(np.linalg.norm(fdot, axis=1))

    def test_comm_centric_degenerates_when_users_span_space(self, rng):
        fdot = cn(rng, (6, 4))  # K > Nt: nullspace is empty
        with pytest.raises(DegenerateNullspaceError):
            target_precoder("comm_centric", cn(rng, 4), cn(rng, 4), fdot)

    def test_a_stack_of_beams_is_nan_where_one_beam_raises(self, rng):
        a, b, fdot = cn(rng, (3, 4)), cn(rng, (3, 4)), cn(rng, (3, 2, 4))
        fdot[1, 0] = a[1]  # in drop 1, user 0 sits in the target direction
        with pytest.raises(DegenerateNullspaceError):
            target_precoder("comm_centric", a[1], b[1], fdot[1])
        for mode in ("target_centric", "comm_centric", "repeater_null"):
            beams = target_precoder(mode, a, b, fdot)
            for i in range(3):
                if mode == "comm_centric" and i == 1:
                    assert np.all(np.isnan(beams[i]))
                else:
                    np.testing.assert_array_equal(beams[i],
                                                  target_precoder(mode, a[i], b[i], fdot[i]))

    def test_comm_centric_matches_an_svd_projection(self, rng):
        # reference: conj(a_tx) minus its projection on the left singular vectors of
        # conj(fdot)^T; users receive fdot^T x, so each must see a zero beam
        for nt in range(2, 9):
            for k in range(1, nt):
                a, fdot = cn(rng, (5, nt)), cn(rng, (5, k, nt))
                u = np.linalg.svd(np.swapaxes(fdot.conj(), -1, -2), full_matrices=False)[0]
                a_bar = a.conj()[..., None]
                raw = (a_bar - u @ (np.swapaxes(u.conj(), -1, -2) @ a_bar))[..., 0]
                expected = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
                beams = target_precoder("comm_centric", a, cn(rng, (5, nt)), fdot)
                np.testing.assert_allclose(beams, expected, rtol=0, atol=1e-12)
                leak = np.abs(np.einsum("dkn,dn->dk", fdot, beams))
                assert np.all(leak <= 1e-12 * np.linalg.norm(fdot, axis=-1))

    @pytest.mark.parametrize("mode", ["target_centric", "comm_centric", "repeater_null"])
    def test_only_the_conjugate_convention(self, rng, mode):
        # with conjugate=False the comm-centric beam leaked into the users' channels
        with pytest.raises(ConfigError, match="^target_precoder supports only the conjugate "
                                              "convention$"):
            target_precoder(mode, cn(rng, 8), cn(rng, 8), cn(rng, (4, 8)), conjugate=False)

    @pytest.mark.parametrize("k", [4, 5])
    def test_a_stack_of_drops_whose_users_span_space_is_nan(self, rng, k):
        a, b, fdot = cn(rng, (3, 4)), cn(rng, (3, 4)), cn(rng, (3, k, 4))
        assert np.all(np.isnan(target_precoder("comm_centric", a, b, fdot)))
        for i in range(3):
            with pytest.raises(DegenerateNullspaceError):
                target_precoder("comm_centric", a[i], b[i], fdot[i])

    def test_unknown_mode(self, rng):
        with pytest.raises(ConfigError):
            target_precoder("sideways", cn(rng, 4), cn(rng, 4), np.zeros((0, 4)))


class TestBuildPrecoders:
    def test_shapes_and_norms(self, small_setup):
        config, channels, _, _ = small_setup
        pre = build_precoders(config, channels)
        assert pre.user_precoders.shape == (config.n_users, config.n_tx_antennas)
        np.testing.assert_allclose(np.linalg.norm(pre.user_precoders, axis=1), 1.0,
                                   atol=1e-12)
        assert np.linalg.norm(pre.sensing_precoder) == pytest.approx(1.0, abs=1e-12)

    def test_no_sensing_beam_without_sensing_power(self, small_setup):
        config, channels, _, _ = small_setup
        pre = build_precoders(config.with_updates(sensing_power_fraction=0.0), channels)
        assert pre.sensing_precoder is None


class TestTransmitFrame:
    def test_frame_shape_and_composition(self, small_setup, rng):
        config, channels, _, precoders = small_setup
        frame = build_transmit_frame(precoders, config, rng)
        assert frame.x.shape == (config.slot_length, config.n_tx_antennas)
        rho = config.tx_power_watt
        rebuilt = (frame.user_symbols * np.sqrt(frame.user_fractions)[None, :]
                   ) @ precoders.user_precoders
        rebuilt += (np.sqrt(frame.sensing_fraction) * frame.sensing_symbols[:, None]
                    * precoders.sensing_precoder[None, :])
        np.testing.assert_allclose(frame.x, np.sqrt(rho) * rebuilt, atol=1e-14)

    def test_beam_matrix_rows(self, small_setup):
        config, channels, _, precoders = small_setup
        beams = beam_matrix(precoders, config)
        assert beams.shape == (config.n_users + 1, config.n_tx_antennas)
        powers = config.tx_power_watt * np.append(config.user_fractions,
                                                  config.sensing_power_fraction)
        np.testing.assert_allclose(np.linalg.norm(beams, axis=1) ** 2, powers, rtol=1e-14)
        no_sensing = config.with_updates(sensing_power_fraction=0.0)
        assert np.all(beam_matrix(precoders, no_sensing)[-1] == 0.0)
        with pytest.raises(ConfigError,
                           match="^sensing power allocated but no sensing precoder built$"):
            beam_matrix(build_precoders(no_sensing, channels), config)

    def test_overcommitted_power_rejected(self):
        with pytest.raises(PowerBudgetError):
            tiny_config(sensing_power_fraction=0.8,
                        user_power_fractions=(0.3, 0.3))

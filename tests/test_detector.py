import copy
import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import repisac
from repisac import (ConfigError, NumericalDomainError, assemble_statistics,
                     glrt_statistic, map_estimate, oracle_loglike_ratio, run_pod_vs_rcs,
                     sensing_noise_cov)
from repisac.channel import ClutterModel, clutter_covariance, draw_rcs, redraw_nuisance
from repisac.detector import (TRIALS_PER_BLOCK, DetectorWorkspace, block_statistics,
                              conditional_statistics, glrt_from_statistics, oracle_check,
                              random_small_instance, schur_statistics, threshold_from_null_stats,
                              trial_rng, trial_statistics)
from repisac.harness import STUDY_POD, calibrate, draw_drop, run_trials
from repisac.precoding import build_precoders, build_transmit_frame
from repisac.propagation import SensingObservation, draw_noise, receive_bs_slot

from conftest import tiny_config


def cn(rng, shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)


def regressor(x: np.ndarray, n_rx: int) -> np.ndarray:
    """B = x^T kron I_Nr; satisfies B vec(C) = C x (column-major vec)."""
    return np.kron(np.asarray(x, dtype=complex), np.eye(n_rx))


class TestRegressor:
    def test_maps_vectorized_clutter_to_clutter_times_x(self, rng):
        nt, nr = 3, 4
        x = cn(rng, nt)
        c = cn(rng, (nr, nt))
        b = regressor(x, nr)
        assert b.shape == (nr, nt * nr)
        np.testing.assert_allclose(b @ c.reshape(-1, order="F"), c @ x, atol=1e-13)


class TestSensingModel:
    def test_noise_covariance_terms(self, rng):
        obs, frame, channels, config, _ = random_small_instance(rng)
        x = frame.x[0]
        cov = sensing_noise_cov(x, config, channels.b_rx)
        nu2 = abs(config.nu) ** 2
        expected = ((config.residual_interbs_power * np.vdot(x, x).real
                     + config.bs_noise_watt) * np.eye(config.n_rx_antennas)
                    + nu2 * config.repeater_noise_watt
                    * np.outer(channels.b_rx, channels.b_rx.conj()))
        np.testing.assert_allclose(cov, expected, atol=1e-14)


class TestAssembledStatistics:
    def test_shapes_and_hermitian_structure(self, rng):
        obs, frame, channels, config, clutter = random_small_instance(rng)
        ws = assemble_statistics(obs, frame, channels, config, clutter)
        d = config.n_tx_antennas * config.n_rx_antennas
        assert ws.t_h1.shape == (d + 1,)
        assert ws.q_h1.shape == (d + 1, d + 1)
        np.testing.assert_allclose(ws.q_h1, ws.q_h1.conj().T, atol=1e-12)
        assert np.array_equal(ws.q_h1, ws.q_h1.conj().T)
        np.testing.assert_allclose(ws.q_h0, ws.q_h0.conj().T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(ws.q_h1) > 0)
        np.testing.assert_array_equal(ws.t_h1[1:], ws.t_h0)
        np.testing.assert_array_equal(ws.q_h1[1:, 1:], ws.q_h0)

    @pytest.mark.parametrize("updates, zero_b_rx", [
        ({"residual_interbs_power": 0.0}, False),  # Sigma_s equal for every channel use
        ({}, False),                               # drawn zeta^2 > 0
        ({"repeater_gain_db": 40.0}, False),       # rank-one term dominates Sigma_s
        ({}, True),                                # ||b_r|| = 0
    ], ids=["zeta0", "zeta_drawn", "gain40db", "b_rx0"])
    def test_matches_explicit_stacked_construction(self, rng, updates, zero_b_rx):
        # reference: build everything from dense per-slot regressors
        obs, frame, channels, config, clutter = random_small_instance(rng)
        config = config.with_updates(**updates)
        if zero_b_rx:
            channels = dataclasses.replace(channels, b_rx=np.zeros_like(channels.b_rx))
        ws = assemble_statistics(obs, frame, channels, config, clutter)
        nr = config.n_rx_antennas
        q_bb = np.zeros_like(ws.q_h0)
        t_h0 = np.zeros_like(ws.t_h0)
        q_rr = 0.0
        t_top = 0.0
        cross = np.zeros_like(ws.t_h0)
        v = channels.a_rx + config.nu * channels.g_rep * channels.b_rx
        for tau in range(frame.x.shape[0]):
            b = regressor(frame.x[tau], nr)
            s_inv = np.linalg.inv(sensing_noise_cov(frame.x[tau], config, channels.b_rx))
            r = v * (channels.a_tx @ frame.x[tau])
            q_bb += b.conj().T @ s_inv @ b
            t_h0 += b.conj().T @ s_inv @ obs.y_slots[tau]
            q_rr += (r.conj() @ s_inv @ r).real
            t_top += r.conj() @ s_inv @ obs.y_slots[tau]
            cross += b.conj().T @ s_inv @ r
        np.testing.assert_allclose(ws.q_h0, q_bb + clutter.inverse_covariance(),
                                   rtol=1e-10)
        np.testing.assert_allclose(ws.t_h0, t_h0, rtol=1e-10)
        np.testing.assert_allclose(ws.q_h1[0, 0].real,
                                   q_rr + 1.0 / config.rcs_variance, rtol=1e-10)
        np.testing.assert_allclose(ws.t_h1[0], t_top, rtol=1e-10)
        np.testing.assert_allclose(ws.q_h1[1:, 0], cross, rtol=1e-10)

    def test_clutter_size_mismatch_rejected(self, rng):
        obs, frame, channels, config, _ = random_small_instance(rng)
        with pytest.raises(NumericalDomainError):
            assemble_statistics(obs, frame, channels, config, ClutterModel.iid(1.0, 3, 3))


def test_import_loads_no_scipy():
    # numpy is the package's only runtime dependency
    src = os.path.dirname(os.path.dirname(repisac.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, repisac, repisac.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


class TestDetector:
    @pytest.mark.parametrize("estimate", [glrt_statistic, map_estimate])
    def test_indefinite_q_h0_is_a_numerical_domain_error(self, estimate):
        q_h0 = np.diag([1.0, -1.0]).astype(complex)
        q_h1 = np.eye(3, dtype=complex)
        q_h1[1:, 1:] = q_h0
        ws = DetectorWorkspace(t_h1=np.ones(3, dtype=complex), t_h0=np.ones(2, dtype=complex),
                               q_h1=q_h1, q_h0=q_h0)
        with pytest.raises(NumericalDomainError, match="Q_H0 is not positive definite"):
            estimate(ws)

    def test_oracle_agreement_on_random_instances(self):
        max_err, tol = oracle_check(n_instances=30, seed=11)
        assert max_err <= tol

    @pytest.mark.parametrize("n_instances", [0, -5])
    def test_oracle_check_of_no_instances_is_a_config_error(self, n_instances):
        # no instance checked is no evidence: it must not report max_err = 0 <= tol
        with pytest.raises(ConfigError, match=f"at least one instance, got {n_instances}"):
            oracle_check(n_instances=n_instances)

    def test_oracle_agreement_with_full_clutter_covariance(self, rng):
        inst = random_small_instance(rng, full_clutter_cov=True)
        obs, frame, channels, config, clutter = inst
        ws = assemble_statistics(obs, frame, channels, config, clutter)
        t = glrt_statistic(ws)
        t_oracle = oracle_loglike_ratio(obs, frame, channels, config, clutter)
        assert abs(t - t_oracle) <= 1e-6 * (1 + abs(t))

    def test_map_estimate_satisfies_stationarity(self, rng):
        obs, frame, channels, config, clutter = random_small_instance(rng)
        ws = assemble_statistics(obs, frame, channels, config, clutter)
        alpha, c = map_estimate(ws)
        z = np.concatenate([[alpha], c])
        np.testing.assert_allclose(ws.q_h1 @ z, ws.t_h1, atol=1e-10)

    def test_statistic_grows_with_injected_target(self, rng):
        obs, frame, channels, config, clutter = random_small_instance(
            rng, slot_length=8)
        ws0 = assemble_statistics(obs, frame, channels, config, clutter)
        v = channels.a_rx + config.nu * channels.g_rep * channels.b_rx
        r = (frame.x @ channels.a_tx)[:, None] * v[None, :]
        boosted = type(obs)(y_slots=obs.y_slots + 20.0 * r)
        ws1 = assemble_statistics(boosted, frame, channels, config, clutter)
        assert glrt_statistic(ws1) > glrt_statistic(ws0)


class TestStructuredStatistics:
    @settings(deadline=None, derandomize=True, database=None, max_examples=150)
    @given(nt=st.integers(1, 5), nr=st.integers(1, 5), tau=st.integers(1, 6),
           zeta_sq=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
           gain_db=st.floats(-3.0, 80.0), zero_b_rx=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_reference(self, nt, nr, tau, zeta_sq, gain_db, zero_b_rx, seed):
        rng = np.random.default_rng(seed)
        obs, frame, channels, config, clutter = random_small_instance(
            rng, n_tx=nt, n_rx=nr, slot_length=tau)
        config = config.with_updates(residual_interbs_power=zeta_sq,
                                     repeater_gain_db=gain_db)
        if zero_b_rx:
            channels = dataclasses.replace(channels, b_rx=np.zeros_like(channels.b_rx))
        u, s = schur_statistics(obs, frame, channels, config, clutter)
        # target-free y, then y + alpha r, which the one-pass study evaluates as u + alpha s
        v = channels.a_rx + config.nu * channels.g_rep * channels.b_rx
        r = (frame.x @ channels.a_tx)[:, None] * v[None, :]
        alpha1 = complex(cn(rng, ()))
        alpha = np.sqrt(config.rcs_variance) * alpha1
        for y, a1 in ((obs.y_slots, 0.0), (obs.y_slots + alpha * r, alpha1)):
            ws = assemble_statistics(SensingObservation(y_slots=y), frame, channels, config,
                                     clutter)
            t_dense = glrt_statistic(ws)
            t = glrt_from_statistics(u, s, a1, config.rcs_variance)
            assert abs(t - t_dense) <= 1e-10 * (1.0 + abs(t_dense))

    def test_dense_reference_matches_far_below_the_transition(self, small_setup):
        # at rcs_variance = 1 these H0 statistics are ~1e-9 of the two quadratic
        # forms whose difference they are: no relative slack for that cancellation
        config, _, channels, clutter, precoders = small_setup
        for i in range(200):
            rng = trial_rng(config.master_seed, (STUDY_POD, 2), i)
            ch = redraw_nuisance(channels, config, clutter.entry_variance, rng,
                                 force_null=True)
            frame = build_transmit_frame(precoders, config, rng)
            obs = receive_bs_slot(frame, ch, draw_noise(config, rng), config)
            t_dense = glrt_statistic(assemble_statistics(obs, frame, ch, config, clutter))
            u, s = schur_statistics(obs, frame, ch, config, clutter)
            t = glrt_from_statistics(u, s, 0.0, config.rcs_variance)
            assert abs(t_dense - t) <= 1e-10 * t, f"H0 trial {i}"

    def test_failures_raise_numerical_domain_error(self, rng):
        obs, frame, channels, config, _ = random_small_instance(rng, slot_length=1)
        size = config.n_tx_antennas * config.n_rx_antennas
        full = ClutterModel(covariance=np.eye(size))  # not i.i.d.
        with pytest.raises(NumericalDomainError, match="i.i.d."):
            schur_statistics(obs, frame, channels, config, full)
        # a negative prior makes A0 = X^H diag(1/d) X - I indefinite (X has rank 1)
        indefinite = ClutterModel(covariance=-np.eye(size), entry_variance=-1.0)
        with pytest.raises(NumericalDomainError, match="not positive definite"):
            schur_statistics(obs, frame, channels, config, indefinite)


class TestConditionalStatistics:
    """s and v(X), the H0 variance of u given the frame, that the block kernel uses."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=100)
    @given(nt=st.integers(1, 4), nr=st.integers(1, 4), tau=st.integers(1, 5),
           zeta_sq=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
           gain_db=st.floats(-3.0, 120.0), zero_b_rx=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_v_is_the_variance_of_u_rebuilt_from_unit_impulses(
            self, nt, nr, tau, zeta_sq, gain_db, zero_b_rx, seed):
        rng = np.random.default_rng(seed)
        _, frame, channels, config, clutter = random_small_instance(
            rng, n_tx=nt, n_rx=nr, slot_length=tau)
        config = config.with_updates(residual_interbs_power=zeta_sq,
                                     repeater_gain_db=gain_db)
        if zero_b_rx:
            channels = dataclasses.replace(channels, b_rx=np.zeros_like(channels.b_rx))
        frames = np.stack([frame.x, cn(rng, (tau, nt)), cn(rng, (tau, nt))])
        s, v = conditional_statistics(frames, channels, config, clutter)
        for x, s_b, v_b in zip(frames, s, v):
            one = dataclasses.replace(frame, x=x)
            # u = sum h[tau, i] y[tau, i]: h from the unit impulses at every (tau, i)
            h = np.empty((tau, nr), dtype=complex)
            for t in range(tau):
                for i in range(nr):
                    y = np.zeros((tau, nr), dtype=complex)
                    y[t, i] = 1.0
                    h[t, i], s_ref = schur_statistics(SensingObservation(y_slots=y), one,
                                                      channels, config, clutter)
            # y = X (C + E)^T + nu w_R b_r^T + W under H0
            var = ((clutter.entry_variance + zeta_sq) * np.sum(np.abs(h.T @ x) ** 2)
                   + abs(config.nu) ** 2 * config.repeater_noise_watt
                   * np.sum(np.abs(h @ channels.b_rx) ** 2)
                   + config.bs_noise_watt * np.sum(np.abs(h) ** 2))
            assert s_b == pytest.approx(s_ref, rel=1e-12, abs=0.0)
            # e_0 is orthogonal to b_r up to rounding, so the repeater noise
            # (amplitude ~ |nu|) reaches the impulse responses h at first order in |nu|
            assert v_b == pytest.approx(var, rel=1e-13 * (1.0 + abs(config.nu)), abs=0.0)
            if zeta_sq == 0.0:  # the detector's noise model is exact
                assert v_b == pytest.approx(s_b, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("zeta_sq", [0.0, 1e-12], ids=["zeta0", "zeta1e-12"])
    def test_reference_simulation_is_exponential_given_the_frame(self, zeta_sq):
        # |u|^2 / v(X) of full-simulation H0 trials against Exp(1): one-sample KS
        # statistic below 1.63 / sqrt(n), its 1% critical value
        n = 2000
        config = tiny_config(residual_interbs_power=zeta_sq)
        geometry, channels = draw_drop(config, STUDY_POD)
        clutter = clutter_covariance(config, geometry)
        precoders = build_precoders(config, channels)
        u, s, v = np.empty(n, dtype=complex), np.empty(n), np.empty(n)
        for i in range(n):
            rng = trial_rng(config.master_seed, (STUDY_POD, 8), i)
            replay = copy.deepcopy(rng)  # the trial's frame: its draws after the nuisance
            u[i], s[i], _ = trial_statistics(config, channels, clutter, precoders, rng)
            redraw_nuisance(channels, config, clutter.entry_variance, replay,
                            force_null=True)
            x = build_transmit_frame(precoders, config, replay).x
            s_x, v_x = conditional_statistics(x[None], channels, config, clutter)
            assert s_x[0] == pytest.approx(s[i], rel=1e-12, abs=0.0)
            v[i] = v_x[0]
        bound = 1.63 / np.sqrt(n)
        assert scipy.stats.kstest(np.abs(u) ** 2 / v, "expon").statistic < bound
        if zeta_sq > 0.0:
            # the slot-constant residual is not the white noise the detector assumes:
            # u is not CN(0, s), and the same test tells the two apart
            assert np.median(v / s) > 1.5
            assert scipy.stats.kstest(np.abs(u) ** 2 / s, "expon").statistic > bound

    def test_failures_raise_numerical_domain_error(self, rng):
        _, frame, channels, config, _ = random_small_instance(rng, slot_length=3)
        size = config.n_tx_antennas * config.n_rx_antennas
        frames = np.stack([frame.x, frame.x])
        indefinite = ClutterModel(covariance=-np.eye(size), entry_variance=-1.0)
        with pytest.raises(NumericalDomainError, match="not positive definite"):
            conditional_statistics(frames, channels, config, indefinite)
        clutter = ClutterModel.iid(1.0, config.n_tx_antennas, config.n_rx_antennas)
        frames[1, 0, 0] = np.nan
        with pytest.raises(NumericalDomainError, match="not finite"):
            conditional_statistics(frames, channels, config, clutter)


class TestBlockStatistics:
    def test_rows_follow_the_per_trial_kernel_on_the_same_draws(self, small_setup):
        config, _, channels, clutter, precoders = small_setup
        n = TRIALS_PER_BLOCK
        rows = block_statistics(config, channels, clutter, precoders,
                                np.random.default_rng(3), n)
        # the block's draws, trial-major: tau x (K + 1) symbols, then xi and alpha_1
        tau, k = config.slot_length, config.n_users
        draws = np.random.default_rng(3).standard_normal((n, 2 * (tau * (k + 1) + 2)))
        z = (draws[:, 0::2] + 1j * draws[:, 1::2]) * np.sqrt(0.5)
        symbols = z[:, :-2].reshape(n, tau, k + 1)
        rho, fractions = config.tx_power_watt, config.user_fractions
        zero_obs = SensingObservation(y_slots=np.zeros((tau, config.n_rx_antennas)))
        for row, sym, xi, alpha1 in zip(rows, symbols, z[:, -2], z[:, -1]):
            x = np.sqrt(rho) * (sym[:, :k] @ (np.sqrt(fractions)[:, None]
                                              * precoders.user_precoders)
                                + np.sqrt(config.sensing_power_fraction) * sym[:, k:]
                                * precoders.sensing_precoder)
            frame = dataclasses.replace(build_transmit_frame(precoders, config,
                                                             np.random.default_rng(0)), x=x)
            _, s = schur_statistics(zero_obs, frame, channels, config, clutter)
            assert row[1].real == pytest.approx(s, rel=1e-12, abs=0.0)
            # zeta^2 = 0: v = s, so u = sqrt(s) xi
            assert row[0] == pytest.approx(np.sqrt(s) * xi, rel=1e-12, abs=0.0)
            assert row[2] == alpha1

    def test_prefix_and_null_rows(self, small_setup):
        config, _, channels, clutter, precoders = small_setup
        args = (config, channels, clutter, precoders)
        full = block_statistics(*args, np.random.default_rng(4), TRIALS_PER_BLOCK)
        head = block_statistics(*args, np.random.default_rng(4), 5)
        np.testing.assert_array_equal(full[:5], head)
        # one pass of rows serves both hypotheses: H0 reads it with alpha_1 = 0
        n = 2 * TRIALS_PER_BLOCK + 3
        rows = np.concatenate([
            block_statistics(*args, trial_rng(config.master_seed, (5,), b),
                             min(TRIALS_PER_BLOCK, n - b * TRIALS_PER_BLOCK))
            for b in range(3)])
        u, s, alpha1 = rows[:, 0], rows[:, 1].real, rows[:, 2]
        np.testing.assert_array_equal(
            run_trials(*args, (5,), n, force_null=True),
            glrt_from_statistics(u, s, 0.0, config.rcs_variance))
        np.testing.assert_array_equal(
            run_trials(*args, (5,), n, force_null=False),
            glrt_from_statistics(u, s, alpha1, config.rcs_variance))

    def test_peak_memory_of_a_block_stays_small(self):
        # the draws are dropped before the solves and A_k is formed one eigenspace
        # at a time, so that a block's temporaries stay under glibc's heap-trim
        # threshold: above it, the heap is trimmed and page-faulted back per block
        config = repisac.ScenarioConfig()
        geometry, channels = draw_drop(config, STUDY_POD)
        args = (config, channels, clutter_covariance(config, geometry),
                build_precoders(config, channels))
        block_statistics(*args, np.random.default_rng(0), TRIALS_PER_BLOCK)
        frames_bytes = TRIALS_PER_BLOCK * config.slot_length * config.n_tx_antennas * 16
        tracemalloc.start()
        try:
            block_statistics(*args, np.random.default_rng(1), TRIALS_PER_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * frames_bytes


class TestTrials:
    def test_trial_rng_is_reproducible_and_keyed(self):
        a = trial_rng(0, (1, 2), 5).normal(size=3)
        b = trial_rng(0, (1, 2), 5).normal(size=3)
        c = trial_rng(0, (1, 2), 6).normal(size=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reference_trial_draws_alpha1_last(self, small_setup):
        # its (u, s) are those of the target-free slot, and alpha_1 is the next draw
        config, _, channels, clutter, precoders = small_setup
        for i in range(5):
            rng = trial_rng(config.master_seed, (STUDY_POD, 8), i)
            replay = copy.deepcopy(rng)
            u, s, alpha1 = trial_statistics(config, channels, clutter, precoders, rng)
            ch = redraw_nuisance(channels, config, clutter.entry_variance, replay,
                                 force_null=True)
            frame = build_transmit_frame(precoders, config, replay)
            obs = receive_bs_slot(frame, ch, draw_noise(config, replay), config)
            assert (u, s) == schur_statistics(obs, frame, ch, config, clutter)
            assert alpha1 == draw_rcs(1.0, replay)

    def test_sensing_trial_is_deterministic(self, small_setup):
        config, _, channels, clutter, precoders = small_setup
        t1 = trial_statistics(config, channels, clutter, precoders, trial_rng(0, (3,), 0))
        t2 = trial_statistics(config, channels, clutter, precoders, trial_rng(0, (3,), 0))
        assert t1 == t2

    def test_threshold_is_empirical_upper_quantile(self):
        values = np.arange(1000, dtype=float)
        thr = threshold_from_null_stats(values, 0.01)
        assert np.mean(values >= thr) <= 0.01
        assert np.mean(values >= thr) >= 0.005

    def test_calibration_controls_false_alarms(self):
        cfg = tiny_config(pfa_target=0.05, calibration_trials=400)
        _, empirical_pfa = calibrate(cfg)
        assert 0.0 < empirical_pfa <= 0.05

    def test_calibration_warns_when_underresolved(self):
        cfg = tiny_config(pfa_target=0.01, calibration_trials=50, mc_trials=5)
        # one warning per study, whatever the number of grid points and gains
        result = run_pod_vs_rcs(cfg, [1.0, 2.0], repeater_gains_db=(20.0, None))
        assert result.metadata["warnings"] == [
            "calibration under-resolved: 50 H0 trials at PFA 0.01 expect 0.5 false alarms "
            "(fewer than 10)"]
        resolved = run_pod_vs_rcs(cfg.with_updates(calibration_trials=1000), [1.0],
                                  repeater_gains_db=(20.0,))
        assert resolved.metadata["warnings"] == []

    def test_detection_probability_rises_with_strong_target(self, small_setup):
        config, _, channels, clutter, precoders = small_setup
        cfg = config.with_updates(pfa_target=0.05, calibration_trials=400)
        threshold, _ = calibrate(cfg)  # on the drop of small_setup
        strong = cfg.with_updates(rcs_variance=1e9)
        t_hit = run_trials(strong, channels, clutter, precoders, (9,), 100, force_null=False)
        assert np.mean(t_hit >= threshold) > 0.8


class TestModelConsistency:
    def test_simulated_observation_matches_assembled_model(self, rng):
        # propagate a known draw, then subtract every model term explicitly
        obs, frame, channels, config, clutter = random_small_instance(rng)
        channels.rcs = complex(cn(rng, ()))
        channels.clutter = cn(rng, channels.clutter.shape)
        noise = draw_noise(config, rng)
        sim = receive_bs_slot(frame, channels, noise, config)
        v = channels.a_rx + config.nu * channels.g_rep * channels.b_rx
        for tau in range(frame.x.shape[0]):
            b = regressor(frame.x[tau], config.n_rx_antennas)
            model = (channels.rcs * v * (channels.a_tx @ frame.x[tau])
                     + b @ channels.clutter.reshape(-1, order="F")
                     + channels.interbs_error @ frame.x[tau]
                     + config.nu * noise.w_rep[tau] * channels.b_rx + noise.w_bs[tau])
            np.testing.assert_allclose(sim.y_slots[tau], model, atol=1e-12)

import copy
import dataclasses
import os
import subprocess
import sys
import threading
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
from repisac.channel import ClutterModel, draw_rcs, redraw_nuisance
from repisac.detector import (TRIALS_PER_BLOCK, DetectorWorkspace, block_statistics,
                              block_trials, conditional_statistics, frame_rows,
                              glrt_from_statistics, oracle_check, random_small_instance,
                              threshold_from_null_stats, trial_rng)
from repisac.harness import STUDY_POD, _pod_drop, calibrate, run_trials
from repisac.precoding import PrecoderSet, beam_matrix, build_precoders, build_transmit_frame
from repisac.propagation import SensingObservation, draw_noise, receive_bs_slot
from repisac.scenario import MAX_REPEATER_GAIN_DB

import repeater_ceiling
from conftest import tiny_config
from trial_reference import schur_statistics, trial_statistics


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_instances": 2.5}, "n_instances must be an integer, got 2.5"),
        ({"n_instances": True}, "n_instances must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
    ], ids=["instances_2.5", "instances_True", "seed_1.5", "seed_True"])
    def test_oracle_check_count_or_seed_that_is_no_integer_rejected(self, kwargs, message):
        # 2.5 and 1.5 raised raw TypeErrors, and True ran as 1
        with pytest.raises(ConfigError, match=f"^{message}$"):
            oracle_check(**kwargs)

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
        config, channels, clutter, precoders = small_setup
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
        precoders = PrecoderSet(np.zeros((0, config.n_tx_antennas)),
                                channels.a_tx.conj() / np.linalg.norm(channels.a_tx))
        with pytest.raises(NumericalDomainError,
                           match="^per-trial clutter resampling needs an i.i.d. model$"):
            trial_statistics(config, channels, full, precoders, rng)
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

    @settings(deadline=None, derandomize=True, database=None, max_examples=100)
    @given(nt=st.integers(1, 4), nr=st.integers(1, 4), tau=st.integers(1, 6),
           p=st.integers(1, 5), gain_db=st.floats(-3.0, 120.0), zero_b_rx=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_a_frame_and_its_bartlett_frame_give_the_same_statistics(
            self, nt, nr, tau, p, gain_db, zero_b_rx, seed):
        # at zeta^2 = 0, (s, v) depend on X = S M only through X^H X, and
        # S = QR gives S^H S = R^H R: the R M frame has min(tau, p) rows. With
        # M = Q_M R_M (reduced QR), X = (S Q_M) R_M, and the R factor B of S Q_M
        # gives the frame B R_M of min(tau, p, Nt) rows: the block kernel's frame
        # when p > Nt
        rng = np.random.default_rng(seed)
        _, _, channels, config, clutter = random_small_instance(rng, n_tx=nt, n_rx=nr)
        config = config.with_updates(residual_interbs_power=0.0, repeater_gain_db=gain_db)
        if zero_b_rx:
            channels = dataclasses.replace(channels, b_rx=np.zeros_like(channels.b_rx))
        beams = cn(rng, (p, nt))
        symbols = cn(rng, (3, tau, p))
        factors = np.linalg.qr(symbols, mode="r")
        assert factors.shape == (3, min(tau, p), p)
        s, v = conditional_statistics(symbols @ beams, channels, config, clutter)
        s_r, v_r = conditional_statistics(factors @ beams, channels, config, clutter)
        np.testing.assert_allclose(s_r, s, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(v_r, v, rtol=1e-12, atol=0.0)
        q_m, r_m = np.linalg.qr(beams)
        bartlett = np.linalg.qr(symbols @ q_m, mode="r")
        assert bartlett.shape == (3, min(tau, p, nt), min(p, nt))
        s_b, v_b = conditional_statistics(bartlett @ r_m, channels, config, clutter)
        np.testing.assert_allclose(s_b, s, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(v_b, v, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("zeta_sq", [0.0, 1e-12], ids=["zeta0", "zeta1e-12"])
    def test_reference_simulation_is_exponential_given_the_frame(self, zeta_sq):
        # |u|^2 / v(X) of full-simulation H0 trials against Exp(1): one-sample KS
        # statistic below 1.63 / sqrt(n), its 1% critical value; at zeta^2 = 0, v is
        # taken from the trial's Bartlett frame, as the block kernel takes it
        n = 2000
        config = tiny_config(residual_interbs_power=zeta_sq)
        channels, clutter = _pod_drop(config)
        precoders = build_precoders(config, channels)
        u, s, v = np.empty(n, dtype=complex), np.empty(n), np.empty(n)
        for i in range(n):
            rng = trial_rng(config.master_seed, (STUDY_POD, 8), i)
            replay = copy.deepcopy(rng)  # the trial's frame: its draws after the nuisance
            u[i], s[i], _ = trial_statistics(config, channels, clutter, precoders, rng)
            redraw_nuisance(channels, config, clutter.entry_variance, replay,
                            force_null=True)
            frame = build_transmit_frame(precoders, config, replay)
            s_x, v_x = conditional_statistics(frame.x[None], channels, config, clutter)
            assert s_x[0] == pytest.approx(s[i], rel=1e-12, abs=0.0)
            v[i] = v_x[0]
            if zeta_sq == 0.0:  # the frame R M of the block kernel, R from S = QR
                symbols = np.column_stack([frame.user_symbols, frame.sensing_symbols])
                x_r = np.linalg.qr(symbols, mode="r") @ beam_matrix(precoders, config)
                v[i] = conditional_statistics(x_r[None], channels, config, clutter)[1][0]
                assert v[i] == pytest.approx(v_x[0], rel=1e-12, abs=0.0)
        bound = 1.63 / np.sqrt(n)
        assert scipy.stats.kstest(np.abs(u) ** 2 / v, "expon").statistic < bound
        if zeta_sq > 0.0:
            # the slot-constant residual is not the white noise the detector assumes:
            # u is not CN(0, s), and the same test tells the two apart
            assert np.median(v / s) > 1.5
            assert scipy.stats.kstest(np.abs(u) ** 2 / s, "expon").statistic > bound

    @pytest.mark.parametrize("overrides, n_spaces", [
        ({}, 2), ({"repeater_gain_db": 120.0}, 2), ({"repeater_on": False}, 1),
        ({"n_tx_antennas": 12, "n_rx_antennas": 12, "residual_interbs_power": 1e-13}, 2),
        ({"n_tx_antennas": 12, "n_rx_antennas": 12, "residual_interbs_power": 1e-13,
          "repeater_gain_db": 120.0}, 2),
    ], ids=["default", "120dB", "repeater-off", "12x12-zeta", "12x12-zeta-120dB"])
    def test_a_frame_has_the_same_bits_alone_or_in_any_stack(self, overrides, n_spaces):
        # a frame's (s, v) must not depend on the frames stacked with it, so that
        # stacks of any size (a short block, or more axes next to the frames)
        # give the rows of one frame at a time
        config = repisac.ScenarioConfig(**overrides)
        channels, clutter = _pod_drop(config)
        beams = beam_matrix(build_precoders(config, channels), config)
        frames = cn(np.random.default_rng(6), (64, frame_rows(config), beams.shape[0])) @ beams
        c = repisac.detector._clutter_weights(frames, channels, config, clutter)[1]
        assert c.shape == (n_spaces, *frames.shape[:2])  # the eigenspaces of Sigma_s
        s, v = conditional_statistics(frames, channels, config, clutter)
        for i in range(len(frames)):
            start = min(i, len(frames) - 3)
            for stack, at in ((frames[i:i + 1], 0), (frames[start:start + 3], i - start)):
                s_i, v_i = conditional_statistics(stack, channels, config, clutter)
                assert (s_i[at], v_i[at]) == (s[i], v[i]), (i, len(stack))

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
        # no sensing power, the target 100 km away and 1.65e17 W: the user beam puts
        # ~1e-26 of target energy in s, and rounding makes some of it negative, which
        # would make u = sqrt(v) xi a NaN
        config = repisac.ScenarioConfig(
            n_tx_antennas=2, n_rx_antennas=1, n_users=1, slot_length=5,
            sensing_power_fraction=0.0, repeater_gain_db=98.3, hotspot_xy=(150.0, 1e5),
            tx_power_watt=1.65e17)
        channels, clutter = _pod_drop(config)
        frames = cn(rng, (16, 5, 2)) @ beam_matrix(build_precoders(config, channels), config)
        with pytest.raises(NumericalDomainError, match="^conditional statistics are negative"):
            conditional_statistics(frames, channels, config, clutter)


class TestRepeaterNoiseCeiling:
    """(s, v) of ``conditional_statistics`` against their limit as the repeater gain
    grows (``repeater_ceiling``), on 16 symbol frames of the PoD drop, with the
    precoders built at 120 dB and kept across gains (the limit holds at fixed
    frames). Bounds on the largest relative error of s and of v:

    - 160 and 200 dB: 2 C / |nu| + ROUNDING, with C / |nu| the limit's first-order
      error (``repeater_ceiling.cross_term``). The terms of order 1/|nu|^2 are at
      most 6% of it at 160 dB on these configs.
    - 400 dB to ``MAX_REPEATER_GAIN_DB``: ROUNDING, since C / |nu| < 1e-19 there.
    """

    ROUNDING = 1e-13

    @pytest.mark.parametrize("overrides", [
        {}, {"n_tx_antennas": 12, "n_rx_antennas": 12, "residual_interbs_power": 1e-13},
        {"n_users": 4, "precoder_mode": "comm_centric", "residual_interbs_power": 1e-13},
        {"precoder_mode": "repeater_null"},
    ], ids=["default", "12x12-zeta", "comm-centric", "repeater-null"])
    def test_statistics_reach_the_closed_form_ceiling(self, overrides):
        config = repisac.ScenarioConfig(**overrides)
        channels, clutter = _pod_drop(config)
        fixed = config.with_updates(repeater_gain_db=120.0)
        beams = beam_matrix(build_precoders(fixed, channels), fixed)
        x = cn(np.random.default_rng(0), (16, config.slot_length, beams.shape[0])) @ beams
        s_inf, v_inf = repeater_ceiling.ceiling(
            x, channels.a_tx, channels.a_rx, channels.b_rx, channels.g_rep,
            clutter.entry_variance, config.residual_interbs_power, config.bs_noise_watt,
            config.repeater_noise_watt)
        c = repeater_ceiling.cross_term(channels.a_rx, channels.b_rx, channels.g_rep)
        for gain_db in (160.0, 200.0, 400.0, 800.0, 1200.0, MAX_REPEATER_GAIN_DB):
            cfg = config.with_updates(repeater_gain_db=gain_db)
            bound = self.ROUNDING + (2.0 * c / abs(cfg.nu) if gain_db <= 200.0 else 0.0)
            s, v = conditional_statistics(x, channels, cfg, clutter)
            for got, limit in ((s, s_inf), (v, v_inf)):
                assert np.max(np.abs(got / limit - 1.0)) <= bound, gain_db


class TestBlockStatistics:
    @staticmethod
    def frame(config, precoders, symbols):
        """The frame S M rebuilt from its symbols S and the precoders."""
        k = config.n_users
        return np.sqrt(config.tx_power_watt) * (
            symbols[:, :k] @ (np.sqrt(config.user_fractions)[:, None]
                              * precoders.user_precoders)
            + np.sqrt(config.sensing_power_fraction) * symbols[:, k:]
            * precoders.sensing_precoder)

    @staticmethod
    def frame_statistics(config, channels, clutter, precoders, x):
        """s and v of one trial from the schur_statistics reference on the frame x."""
        frame = dataclasses.replace(build_transmit_frame(precoders, config,
                                                         np.random.default_rng(0)), x=x)
        zero_obs = SensingObservation(y_slots=np.zeros((x.shape[0], config.n_rx_antennas)))
        _, s = schur_statistics(zero_obs, frame, channels, config, clutter)
        _, v = conditional_statistics(x[None], channels, config, clutter)
        return s, v[0]

    def test_rows_follow_the_per_trial_kernel_on_the_same_draws(self, small_setup):
        # zeta^2 > 0: the block's draws, trial-major: tau x (K + 1) symbols, then
        # xi and alpha_1, for the trials it keeps
        config, channels, clutter, precoders = small_setup
        config = config.with_updates(residual_interbs_power=1e-12)
        n = block_trials(config) - 3
        rows = block_statistics(config, channels, clutter, precoders,
                                np.random.default_rng(3), n)
        tau, k = config.slot_length, config.n_users
        draws = np.random.default_rng(3).standard_normal((n, 2 * (tau * (k + 1) + 2)))
        z = (draws[:, 0::2] + 1j * draws[:, 1::2]) * np.sqrt(0.5)
        symbols = z[:, :-2].reshape(n, tau, k + 1)
        for row, sym, xi, alpha1 in zip(rows, symbols, z[:, -2], z[:, -1]):
            s, v = self.frame_statistics(config, channels, clutter, precoders,
                                         self.frame(config, precoders, sym))
            assert row[1].real == pytest.approx(s, rel=1e-12, abs=0.0)
            assert row[0] == pytest.approx(np.sqrt(v) * xi, rel=1e-12, abs=0.0)
            assert row[2] == alpha1

    def test_rows_follow_the_bartlett_factor_at_zero_residual(self):
        # zeta^2 = 0: the |R_ii|^2 for the whole block, then the strictly upper
        # R_ij, xi and alpha_1 trial-major for the trials it keeps; R is m x p,
        # m = min(tau, p), and the frame is R M, or R R_M when K + 1 > Nt, with
        # p = Nt and R_M the Nt x Nt factor of M's reduced QR (R_M^H R_M = M^H M)
        for overrides, size, m, p in (
                ({}, 128, 2, 2),                                   # K + 1 = 3 > Nt = 2: 4 // 2
                ({"slot_length": 1}, 64, 1, 2),                    # tau < Nt < K + 1
                ({"n_tx_antennas": 4, "slot_length": 8}, 128, 3, 3),   # K + 1 <= Nt: 8 // 3
                ({"n_tx_antennas": 4, "slot_length": 2}, 64, 2, 3)):   # tau < K + 1 <= Nt
            self._check_bartlett_rows(tiny_config(**overrides), size, m, p)

    def _check_bartlett_rows(self, config, size, m, p):
        channels, clutter = _pod_drop(config)
        precoders = build_precoders(config, channels)
        assert block_trials(config) == size
        n = size - 3
        rows = block_statistics(config, channels, clutter, precoders,
                                np.random.default_rng(3), n)
        tau = config.slot_length
        assert frame_rows(config) == m
        beams = self.frame(config, precoders, np.eye(config.n_users + 1))  # M
        if beams.shape[0] > config.n_tx_antennas:
            beams = np.linalg.qr(beams, mode="r")
        assert beams.shape[0] == p
        replay = np.random.default_rng(3)
        gammas = replay.standard_gamma(tau - np.arange(m), (size, m))
        draws = replay.standard_normal((n, 2 * (m * p - m * (m + 1) // 2 + 2)))
        z = (draws[:, 0::2] + 1j * draws[:, 1::2]) * np.sqrt(0.5)
        for row, upper, g in zip(rows, z, gammas):
            factor = np.zeros((m, p), dtype=complex)
            entries = iter(upper[:-2])
            for i in range(m):
                factor[i, i] = np.sqrt(g[i])
                for j in range(i + 1, p):
                    factor[i, j] = next(entries)
            s, v = self.frame_statistics(config, channels, clutter, precoders,
                                         factor @ beams)
            assert row[1].real == pytest.approx(s, rel=1e-12, abs=0.0)
            # zeta^2 = 0: v = s, so u = sqrt(s) xi
            assert row[0] == pytest.approx(np.sqrt(s) * upper[-2], rel=1e-12, abs=0.0)
            assert row[2] == upper[-1]

    def test_the_bartlett_factor_has_its_law(self):
        # R recovered from the frames X = R M the kernel evaluates (M has full row
        # rank here): |R_ii|^2 ~ Gamma(tau - i), |R_ij|^2 ~ Exp(1) above the
        # diagonal, zeros below. Six one-sample KS tests at a family-wise 1% level:
        # each statistic below the critical value sqrt(ln(2 / alpha) / 2) / sqrt(n)
        # of alpha = 1% / 6 (Bonferroni)
        config = tiny_config(n_tx_antennas=4, slot_length=6)
        channels, clutter = _pod_drop(config)
        precoders = build_precoders(config, channels)
        beams = beam_matrix(precoders, config)
        m, p = frame_rows(config), beams.shape[0]
        assert m == p == 3 and np.linalg.matrix_rank(beams) == p
        size = block_trials(config)  # 128: two tau-row frames' worth of rows each
        n_blocks = 62
        n = n_blocks * size
        frames = []

        def capture(x, *args):
            frames.append(x.copy())  # x is a working array that the next block reuses
            return conditional_statistics(x, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repisac.detector, "conditional_statistics", capture)
            for b in range(n_blocks):
                block_statistics(config, channels, clutter, precoders,
                                 trial_rng(config.master_seed, (9,), b), size)
        assert len(frames) == n_blocks
        x = np.concatenate(frames)
        factors = x @ np.linalg.pinv(beams)
        np.testing.assert_allclose(factors @ beams, x, rtol=0.0, atol=1e-12 * np.abs(x).max())
        assert np.abs(np.tril(factors, -1)).max() < 1e-12 * np.abs(factors).max()
        n_tests = m + (m * p - m * (m + 1) // 2)  # diagonal and upper entries
        bound = np.sqrt(np.log(2 / (0.01 / n_tests)) / 2) / np.sqrt(n)
        for i in range(m):
            assert scipy.stats.kstest(np.abs(factors[:, i, i]) ** 2, "gamma",
                                      args=(config.slot_length - i,)).statistic < bound
            for j in range(i + 1, p):
                assert scipy.stats.kstest(np.abs(factors[:, i, j]) ** 2,
                                          "expon").statistic < bound

    @pytest.mark.parametrize("gain_db", [20.0, 100.0])
    def test_s_has_the_law_it_has_on_symbol_frames(self, gain_db):
        # two-sample KS on the default config: the kernel's s (Bartlett frames)
        # against s of frames S M drawn symbol by symbol; statistic below the 1%
        # critical value 1.63 sqrt(2 / n)
        config = repisac.ScenarioConfig(repeater_gain_db=gain_db)
        channels, clutter = _pod_drop(config)
        precoders = build_precoders(config, channels)
        size = block_trials(config)  # 256: Bartlett frames of 11 rows
        n_blocks = 13
        n = n_blocks * size
        rows = np.concatenate([
            block_statistics(config, channels, clutter, precoders,
                             trial_rng(config.master_seed, (9,), b), size)
            for b in range(n_blocks)])
        rng = np.random.default_rng(11)
        symbols = cn(rng, (n, config.slot_length, config.n_users + 1))
        s_symbols, _ = conditional_statistics(symbols @ beam_matrix(precoders, config),
                                              channels, config, clutter)
        assert scipy.stats.ks_2samp(rows[:, 1].real, s_symbols).statistic < 1.63 * np.sqrt(2 / n)

    def test_prefix_and_null_rows(self, small_setup):
        config, channels, clutter, precoders = small_setup
        args = (config, channels, clutter, precoders)
        size = block_trials(config)
        full = block_statistics(*args, np.random.default_rng(4), size)
        head = block_statistics(*args, np.random.default_rng(4), 5)
        np.testing.assert_array_equal(full[:5], head)
        for n_trials in (0, size + 1):
            with pytest.raises(ValueError,
                               match=f"^a block holds 1 to {size} trials, got {n_trials}$"):
                block_statistics(*args, np.random.default_rng(4), n_trials)
        # one pass of rows serves both hypotheses: H0 reads it with alpha_1 = 0
        n = 2 * size + 3
        rows = np.concatenate([
            block_statistics(*args, trial_rng(config.master_seed, (5,), b),
                             min(size, n - b * size))
            for b in range(3)])
        u, s, alpha1 = rows[:, 0], rows[:, 1].real, rows[:, 2]
        np.testing.assert_array_equal(
            run_trials(*args, (5,), n, force_null=True),
            glrt_from_statistics(u, s, 0.0, config.rcs_variance))
        np.testing.assert_array_equal(
            run_trials(*args, (5,), n, force_null=False),
            glrt_from_statistics(u, s, alpha1, config.rcs_variance))

    @pytest.mark.parametrize("overrides, n", [
        ({}, 280), ({}, 384),
        # Bartlett frames of m = p = 5 rows: an odd count of them, so BLAS takes
        # its edge kernels on the last rows of the product
        ({"n_users": 4, "n_tx_antennas": 12, "n_rx_antennas": 12}, 283),
        ({"n_users": 4, "n_tx_antennas": 12, "n_rx_antennas": 12, "slot_length": 3}, 7),
    ], ids=["default", "default-full", "12x12-K4", "12x12-K4-tau3"])
    def test_one_product_gives_each_frame_the_bits_of_its_own(self, overrides, n):
        # every Bartlett frame of a block comes from one (n * m) x p by p x Nt
        # product: each has the bits of its own m x p factor times the beams
        config = repisac.ScenarioConfig(**overrides)
        channels, clutter = _pod_drop(config)
        precoders = build_precoders(config, channels)
        beams = beam_matrix(precoders, config)
        if beams.shape[0] > beams.shape[1]:
            beams = np.linalg.qr(beams, mode="r")
        (p, _), m, tau = beams.shape, frame_rows(config), config.slot_length
        frames = []

        def capture(x, *args):
            frames.append(x.copy())  # x is a working array
            return conditional_statistics(x, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repisac.detector, "conditional_statistics", capture)
            block_statistics(config, channels, clutter, precoders,
                             np.random.default_rng(5), n)
        upper = np.triu(np.ones((m, p), dtype=bool), 1)
        replay = np.random.default_rng(5)
        gammas = replay.standard_gamma(tau - np.arange(m), (block_trials(config), m))
        draws = replay.standard_normal((n, 2 * (upper.sum() + 2)))
        factors = np.zeros((n, m, p), dtype=complex)
        factors[:, upper] = (draws[:, 0:-4:2] + 1j * draws[:, 1:-4:2]) * np.sqrt(0.5)
        factors[:, np.arange(m), np.arange(m)] = np.sqrt(gammas[:n])
        (x,) = frames
        assert len(x) == n
        for frame, factor in zip(x, factors):
            np.testing.assert_array_equal(frame, factor @ beams)

    @pytest.mark.parametrize("zeta_sq", [0.0, 1e-12], ids=["bartlett", "symbols"])
    def test_a_short_block_draws_only_its_trials(self, small_setup, zeta_sq):
        # the generator is left where a replay of the block's draws leaves it: the
        # whole block's |R_ii|^2 (Bartlett frames only), then the n trials'
        # normals; and the rows are the leading rows of the full block
        config, channels, clutter, precoders = small_setup
        config = config.with_updates(residual_interbs_power=zeta_sq)
        args = (config, channels, clutter, precoders)
        size, m = block_trials(config), frame_rows(config)
        tau, p = config.slot_length, config.n_users + 1
        if zeta_sq == 0.0:  # the Bartlett factor has min(K + 1, Nt) columns
            p = min(p, config.n_tx_antennas)
        n_cn = (m * p - m * (m + 1) // 2 if zeta_sq == 0.0 else tau * p) + 2
        full = block_statistics(*args, np.random.default_rng(8), size)
        for n in (1, size - 1):
            rng, replay = np.random.default_rng(8), np.random.default_rng(8)
            np.testing.assert_array_equal(block_statistics(*args, rng, n), full[:n])
            if zeta_sq == 0.0:
                replay.standard_gamma(tau - np.arange(m), (size, m))
            replay.standard_normal((n, 2 * n_cn))
            assert rng.random() == replay.random(), n

    def test_peak_memory_of_a_block_stays_small(self):
        # the draws, conj(X) (which also holds X^H diag(w_k), one k at a time) and
        # the A_k live in per-thread working arrays that a block of the same shape
        # reuses, so a second block allocates little more than X: at 12 x 12 its
        # frame-sized temporaries are larger than glibc's heap-trim threshold, and
        # freeing them per block made the heap be trimmed and page-faulted back
        # once per block. A short block uses the leading rows of the same arrays
        zeta_12 = {"residual_interbs_power": 1e-13, "n_tx_antennas": 12, "n_rx_antennas": 12}
        for overrides, size, n in (({"residual_interbs_power": 1e-13}, 64, 64),
                                   (zeta_12, 64, 64),
                                   (zeta_12, 64, 61),
                                   ({"residual_interbs_power": 0.0}, 384, 384),
                                   ({"residual_interbs_power": 0.0}, 384, 280)):
            config = repisac.ScenarioConfig(**overrides)
            assert block_trials(config) == size
            channels, clutter = _pod_drop(config)
            args = (config, channels, clutter, build_precoders(config, channels))

            def run(seed):
                block_statistics(*args, np.random.default_rng(seed), n)

            run(0)
            frames_bytes = TRIALS_PER_BLOCK * config.slot_length * config.n_tx_antennas * 16
            tracemalloc.start()
            try:
                run(1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * frames_bytes, (overrides, n)

    @staticmethod
    def _block_runner(**overrides):
        """``rows(seed, n)``: rows of a block of ``n`` trials (a full block by
        default) on the default config with ``overrides``, drawn from ``seed``."""
        config = repisac.ScenarioConfig(**overrides)
        channels, clutter = _pod_drop(config)
        args = (config, channels, clutter, build_precoders(config, channels))

        def rows(seed, n=block_trials(config)):
            return block_statistics(*args, np.random.default_rng(seed), n)
        return rows

    def test_working_arrays_never_leak_into_results(self):
        block_a = self._block_runner(residual_interbs_power=1e-13)
        bartlett = self._block_runner()
        large = self._block_runner(residual_interbs_power=1e-13, n_tx_antennas=12,
                                   n_rx_antennas=12)
        config = repisac.ScenarioConfig(residual_interbs_power=1e-13)
        channels, clutter = _pod_drop(config)
        precoders = build_precoders(config, channels)
        rows_a = block_a(0)
        kept = [(rows_a, rows_a.copy())]
        others = [lambda: block_a(1, 5),  # a short block: the leading rows of A's arrays
                  lambda: trial_statistics(config, channels, clutter, precoders,
                                           np.random.default_rng(2)),  # one frame (schur)
                  lambda: bartlett(3), lambda: large(4), lambda: block_a(5, 5)]
        for other in others:
            result = other()
            if isinstance(result, np.ndarray):
                kept.append((result, result.copy()))
            # block A after a call of another shape reads the same bits
            np.testing.assert_array_equal(block_a(0), rows_a)
        # no row returned earlier changed under the calls after it
        for returned, copy_ in kept:
            np.testing.assert_array_equal(returned, copy_)
        # nor does the clutter solve hand its callers a working array or a view of one
        frames = cn(np.random.default_rng(6), (5, config.slot_length, config.n_users + 1))
        _, *returned = repisac.detector._clutter_weights(
            frames @ beam_matrix(precoders, config), channels, config, clutter)
        working = list(vars(repisac.detector._WORKING).values())
        assert len(working) >= 2  # conj(X) and the A_k at least
        for array in returned:
            assert not any(np.shares_memory(array, buf) for buf in working)

    def test_threads_running_blocks_at_once_get_the_rows_of_one_thread(self):
        # two configs of the same shapes, so a working set shared between threads
        # would be written by one thread while the other reads it
        runners = [self._block_runner(residual_interbs_power=1e-13),
                   self._block_runner(residual_interbs_power=1e-12, repeater_gain_db=60.0)]
        seeds = range(30)
        expected = [[rows(seed) for seed in seeds] for rows in runners]
        got = [[], []]

        def work(i):
            for seed in seeds:
                got[i].append(runners[i](seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for rows_got, rows_expected in zip(got, expected):
            assert len(rows_got) == len(seeds)
            for a, b in zip(rows_got, rows_expected):
                np.testing.assert_array_equal(a, b)


class TestTrials:
    def test_trial_rng_is_reproducible_and_keyed(self):
        a = trial_rng(0, (1, 2), 5).normal(size=3)
        b = trial_rng(0, (1, 2), 5).normal(size=3)
        c = trial_rng(0, (1, 2), 6).normal(size=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reference_trial_draws_alpha1_last(self, small_setup):
        # its (u, s) are those of the target-free slot, and alpha_1 is the next draw
        config, channels, clutter, precoders = small_setup
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
        config, channels, clutter, precoders = small_setup
        t1 = trial_statistics(config, channels, clutter, precoders, trial_rng(0, (3,), 0))
        t2 = trial_statistics(config, channels, clutter, precoders, trial_rng(0, (3,), 0))
        assert t1 == t2

    def test_threshold_is_empirical_upper_quantile(self):
        values = np.arange(1000, dtype=float)
        thr = threshold_from_null_stats(values, 0.01)
        assert np.mean(values >= thr) <= 0.01
        assert np.mean(values >= thr) >= 0.005

    @pytest.mark.parametrize("n", [1, 2, 3, 29, 30, 31, 100, 4000, 10**4])
    def test_threshold_is_the_order_statistic_numpy_quantile_picks(self, n):
        # the (1 - PFA) quantile with "higher" interpolation, bit for bit, along the
        # last axis: rows of 1-D and 2-D input, ties, +-inf entries and a NaN row
        rng = np.random.default_rng(n)
        values = rng.exponential(size=(4, n))
        values[1] = np.round(values[1], 1)  # ties
        values[2, rng.integers(n, size=2)] = np.inf, -np.inf
        values[3, rng.integers(n)] = np.nan
        for pfa in (1e-6, 1e-3, 0.01, 0.0123, 0.05, 0.5, 0.9):
            expected = np.quantile(values, 1.0 - pfa, axis=-1, method="higher")
            np.testing.assert_array_equal(threshold_from_null_stats(values, pfa), expected)
            for row, value in zip(values, expected):
                one = threshold_from_null_stats(row, pfa)
                assert type(one) is np.float64
                assert one == value or np.isnan(one) and np.isnan(value)
        assert np.isnan(threshold_from_null_stats(values, 0.01)[3])
        for pfa in (-0.5, 1.5, np.nan):
            with pytest.raises(ValueError, match=r"^Quantiles must be in the range \[0, 1\]$"):
                np.quantile(values, 1.0 - pfa, axis=-1, method="higher")
            with pytest.raises(ValueError, match=r"^Quantiles must be in the range \[0, 1\]$"):
                threshold_from_null_stats(values, pfa)
        with pytest.raises(ValueError, match=r"^no H0 statistics to take a threshold from$"):
            threshold_from_null_stats(values[..., :0], 0.01)  # run_trials(..., n_trials=0)

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
        config, channels, clutter, precoders = small_setup
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

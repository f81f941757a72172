"""Array-rotation and user-permutation invariances: checks of the precoders,
of the trial kernel's conditional statistics and of the downlink SE at array
sizes the dense reference cannot reach (its Q_H1 alone has (Nt Nr + 1)^2
entries).

Rotate the transmit array by a unitary U (``f_user``, ``a_tx`` and ``b_tx``
become their rows times U) and the receive array by a unitary V (``a_rx`` and
``b_rx`` become V times them). A user receives fdot^T x, so the beams must
turn the other way, M' = M conj(U), and then on the same symbol frames S
(X = S M) neither the (s, v) of ``conditional_statistics`` nor any user's SE
may move.

Permute the users by P (their ``f_user`` rows, ``h_user`` entries and power
fractions together): that only relabels them. The RZF beams must permute the
same way, the sensing beam and each user's SE must stay, and on symbol frames
whose user columns are permuted the same way (S P^T P M = S M) the (s, v) of
``conditional_statistics`` must stay.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repisac import ScenarioConfig, harness
from repisac.comm_metrics import downlink_metrics
from repisac.detector import conditional_statistics
from repisac.precoding import beam_matrix, build_precoders, effective_channels
from repisac.scenario import PRECODER_MODES

# A wrong conjugate or a transposed solve moves these quantities by O(1). The
# bound is 1e-10 relative, or Nt eps kappa where that is larger:
# kappa = 1 + ||fdot||^2 / lambda (~1e9 at 120 dB) bounds the condition number
# of the K x K matrix fdot fdot^H + lambda I that rzf_precoders solves, and a
# backward-stable solve moves a beam by up to about K eps kappa
RTOL = 1e-10
N_FRAMES = 4


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed n x n unitary: the Q of a complex Gaussian's QR, with
    the phases of R's diagonal moved into Q (Mezzadri, Notices AMS 54:592, 2007)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rotated(channels, u, v):
    """The drop seen through a transmit array rotated by u and a receive array by v.
    Its clutter and inter-BS residual are exact zeros, which no rotation moves."""
    return replace(channels, f_user=channels.f_user @ u, a_tx=channels.a_tx @ u,
                   b_tx=channels.b_tx @ u, a_rx=v @ channels.a_rx, b_rx=v @ channels.b_rx)


def assert_close(got, expected, scale, tol, name):
    err = np.max(np.abs(got - expected) / scale)
    assert err <= tol, f"{name}: relative error {err:.2e} > {tol:.1e}"


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(nt=st.integers(2, 64), nr=st.integers(2, 64), k=st.integers(1, 10),
       mode=st.sampled_from(PRECODER_MODES), zeta=st.sampled_from([0.0, 1e-13]),
       gain=st.sampled_from([None, 20.0, 80.0, 120.0]), seed=st.integers(0, 2 ** 16))
@example(nt=64, nr=64, k=10, mode="target_centric", zeta=1e-13, gain=120.0, seed=0)
@example(nt=64, nr=64, k=10, mode="comm_centric", zeta=0.0, gain=120.0, seed=1)
@example(nt=64, nr=64, k=10, mode="repeater_null", zeta=1e-13, gain=100.0, seed=2)
@example(nt=8, nr=8, k=7, mode="comm_centric", zeta=0.0, gain=20.0, seed=3)
@example(nt=2, nr=2, k=1, mode="target_centric", zeta=0.0, gain=120.0, seed=2216)  # kappa 2e7
def test_rotating_the_arrays_moves_nothing_the_studies_read(nt, nr, k, mode, zeta, gain,
                                                            seed):
    k = min(k, nt - 1)  # comm-centric needs K < Nt
    config = ScenarioConfig(n_tx_antennas=nt, n_rx_antennas=nr, n_users=k, slot_length=20,
                            precoder_mode=mode, residual_interbs_power=zeta,
                            repeater_on=gain is not None, repeater_gain_db=gain or 20.0,
                            master_seed=seed)
    channels, clutter_model = harness._pod_drop(config)
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(nt, rng), haar_unitary(nr, rng)
    turned = rotated(channels, u, v)

    kappa = 1.0 + (np.linalg.norm(effective_channels(channels, config), 2) ** 2
                   / config.zf_regularizer_value)
    tol = max(RTOL, nt * np.finfo(float).eps * kappa)

    precoders, turned_precoders = build_precoders(config, channels), build_precoders(config,
                                                                                    turned)
    m, turned_m = beam_matrix(precoders, config), beam_matrix(turned_precoders, config)
    assert_close(turned_m, m @ u.conj(), np.linalg.norm(m), tol, "M")

    frames = (rng.standard_normal((N_FRAMES, config.slot_length, k + 1))
              + 1j * rng.standard_normal((N_FRAMES, config.slot_length, k + 1)))
    s, var = (a.copy() for a in conditional_statistics(frames @ m, channels, config,
                                                        clutter_model))
    turned_s, turned_var = conditional_statistics(frames @ turned_m, turned, config,
                                                  clutter_model)
    assert_close(turned_s, s, np.abs(s), tol, "s")
    assert_close(turned_var, var, np.abs(var), tol, "v")

    se = downlink_metrics(precoders, channels, config).se
    assert_close(downlink_metrics(turned_precoders, turned, config).se, se, 1.0 + se, tol,
                 "SE")


def test_the_unitary_is_unitary_and_not_real():
    u = haar_unitary(16, np.random.default_rng(0))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-14)
    assert np.max(np.abs(u.imag)) > 0.1  # a real U would not see a lost conjugate


# Relabelling moves nothing in exact arithmetic; the permuted RZF solve and the
# sums over users round differently, by a few eps. A lost permutation (beams or
# SE left in the old order, or the fractions not permuted) moves them by O(1)
PERMUTATION_RTOL = 1e-12


@pytest.mark.parametrize("overrides", [
    {}, {"n_users": 4}, {"n_users": 6, "precoder_mode": "comm_centric"},
    {"n_users": 4, "n_tx_antennas": 12, "n_rx_antennas": 12, "residual_interbs_power": 1e-13},
], ids=["default", "K4", "comm-centric-K6", "12x12-K4-zeta"])
def test_permuting_the_users_only_relabels_them(overrides):
    config = ScenarioConfig(**overrides)
    k = config.n_users
    rng = np.random.default_rng(k)
    fractions = rng.uniform(0.5, 1.5, k)  # unequal, so that a lost permutation shows
    fractions *= (1.0 - config.sensing_power_fraction) / fractions.sum()
    config = config.with_updates(user_power_fractions=tuple(fractions))
    channels, clutter_model = harness._pod_drop(config)
    perm = np.roll(np.arange(k), 1)  # every user moves
    permuted_config = config.with_updates(user_power_fractions=tuple(fractions[perm]))
    permuted = replace(channels, f_user=channels.f_user[perm], h_user=channels.h_user[perm])

    precoders = build_precoders(config, channels)
    permuted_precoders = build_precoders(permuted_config, permuted)
    assert_close(permuted_precoders.user_precoders, precoders.user_precoders[perm],
                 np.linalg.norm(precoders.user_precoders), PERMUTATION_RTOL, "RZF beams")
    assert_close(permuted_precoders.sensing_precoder, precoders.sensing_precoder,
                 np.linalg.norm(precoders.sensing_precoder), PERMUTATION_RTOL, "sensing beam")

    se = downlink_metrics(precoders, channels, config).se
    assert_close(downlink_metrics(permuted_precoders, permuted, permuted_config).se,
                 se[perm], se[perm], PERMUTATION_RTOL, "SE")

    frames = (rng.standard_normal((N_FRAMES, config.slot_length, k + 1))
              + 1j * rng.standard_normal((N_FRAMES, config.slot_length, k + 1)))
    s, var = (a.copy() for a in conditional_statistics(
        frames @ beam_matrix(precoders, config), channels, config, clutter_model))
    permuted_frames = frames[..., np.append(perm, k)]  # the sensing column stays last
    permuted_s, permuted_var = conditional_statistics(
        permuted_frames @ beam_matrix(permuted_precoders, permuted_config), permuted,
        permuted_config, clutter_model)
    assert_close(permuted_s, s, np.abs(s), PERMUTATION_RTOL, "s")
    assert_close(permuted_var, var, np.abs(var), PERMUTATION_RTOL, "v")

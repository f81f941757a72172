"""Received-signal evaluation at the sensing BS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, _cn_matrix
from .precoding import TransmitFrame
from .scenario import ScenarioConfig


@dataclass
class NoiseDraws:
    """AWGN terms of one slot at the sensing BS, independent across time/antennas."""

    w_rep: np.ndarray  # (slot_length,)      CN(0, sigma_R^2)
    w_bs: np.ndarray   # (slot_length, Nr)   CN(0, sigma_BS^2 I)


@dataclass
class SensingObservation:
    """Receive-BS signal after inter-BS subtraction, one vector per channel use."""

    y_slots: np.ndarray  # (slot_length, Nr)


def draw_noise(config: ScenarioConfig, rng: np.random.Generator) -> NoiseDraws:
    tau_l, nr = config.slot_length, config.n_rx_antennas
    return NoiseDraws(w_rep=_cn_matrix(tau_l, config.repeater_noise_watt, rng),
                      w_bs=_cn_matrix((tau_l, nr), config.bs_noise_watt, rng))


def receive_bs_slot(frame: TransmitFrame, channels: ChannelRealization,
                    noise: NoiseDraws, config: ScenarioConfig) -> SensingObservation:
    """y[tau] = r[tau]*alpha + C x[tau] + wdot[tau] over the whole slot.

    The inter-BS term enters only through the residual error matrix, and the
    direct repeater->receive-BS leakage nu*b_r*b_t^T is taken as cancelled,
    as the detector's likelihood assumes.
    """
    nu = config.nu
    x = frame.x  # (tau_L, Nt)
    target_gain = x @ channels.a_tx  # a_tx^T x[tau], (tau_L,)
    combined_rx = channels.a_rx + nu * channels.g_rep * channels.b_rx
    target_path = channels.rcs * target_gain[:, None] * combined_rx[None, :]
    clutter_path = x @ channels.clutter.T
    noise_path = (x @ channels.interbs_error.T
                  + nu * noise.w_rep[:, None] * channels.b_rx[None, :]
                  + noise.w_bs)
    return SensingObservation(y_slots=target_path + clutter_path + noise_path)

"""Received-signal evaluation at the sensing BS and the users."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import ConfigError
from .precoding import TransmitFrame, effective_channels
from .scenario import ScenarioConfig


@dataclass
class NoiseDraws:
    """All AWGN terms for one slot, independent across time/antennas/users."""

    w_rep: np.ndarray  # (slot_length,)      CN(0, sigma_R^2)
    w_bs: np.ndarray   # (slot_length, Nr)   CN(0, sigma_BS^2 I)
    w_ue: np.ndarray   # (K, slot_length)    CN(0, sigma_UE^2)


@dataclass
class SensingObservation:
    """Receive-BS signal after inter-BS subtraction, one vector per channel use."""

    y_slots: np.ndarray  # (slot_length, Nr)

    @property
    def stacked(self) -> np.ndarray:
        """Concatenation [y[1]; y[2]; ...] of length Nr * slot_length."""
        return self.y_slots.reshape(-1)


def draw_noise(config: ScenarioConfig, rng: np.random.Generator) -> NoiseDraws:
    tau_l, nr, k = config.slot_length, config.n_rx_antennas, config.n_users

    def cn(shape, var):
        s = np.sqrt(var / 2.0)
        return rng.normal(scale=s, size=shape) + 1j * rng.normal(scale=s, size=shape)

    return NoiseDraws(w_rep=cn(tau_l, config.repeater_noise_watt),
                      w_bs=cn((tau_l, nr), config.bs_noise_watt),
                      w_ue=cn((k, tau_l), config.ue_noise_watt))


def receive_bs_slot(frame: TransmitFrame, channels: ChannelRealization,
                    noise: NoiseDraws, config: ScenarioConfig) -> SensingObservation:
    """y[tau] = r[tau]*alpha + Cdot x[tau] + wdot[tau] over the whole slot.

    The inter-BS term enters only through the residual error matrix, and the
    direct repeater->receive-BS leakage nu*b_r*b_t^T is pre-cancelled unless
    ``cancel_repeater_direct`` is off, in which case it stays in the clutter.
    """
    nu = config.nu
    x = frame.x  # (tau_L, Nt)
    target_gain = x @ channels.a_tx  # a_tx^T x[tau], (tau_L,)
    combined_rx = channels.a_rx + nu * channels.g_rep * channels.b_rx
    target_path = channels.rcs * target_gain[:, None] * combined_rx[None, :]

    c_eff = channels.clutter
    if not config.cancel_repeater_direct:
        c_eff = c_eff + nu * np.outer(channels.b_rx, channels.b_tx)
    clutter_path = x @ c_eff.T

    noise_path = (x @ channels.interbs_error.T
                  + nu * noise.w_rep[:, None] * channels.b_rx[None, :]
                  + noise.w_bs)
    return SensingObservation(y_slots=target_path + clutter_path + noise_path)


def receive_ue(frame: TransmitFrame, channels: ChannelRealization, user_index: int,
               noise: NoiseDraws, config: ScenarioConfig) -> np.ndarray:
    """Per-channel-use received signal at one downlink user.

    The target-reflection term through the repeater is treated as part of the
    environment (the user cannot distinguish it) and never appears here.
    """
    if not (0 <= user_index < config.n_users):
        raise ConfigError(f"user index {user_index} out of range")
    nu = config.nu
    fdot = effective_channels(channels, config)[user_index]
    w_eff = nu * channels.h_user[user_index] * noise.w_rep + noise.w_ue[user_index]
    return frame.x @ fdot + w_eff

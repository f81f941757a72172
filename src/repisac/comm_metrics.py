"""Downlink SINR and spectral efficiency, every user of a realization at once."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import ConfigError
from .precoding import PrecoderSet, effective_channels
from .scenario import ScenarioConfig


@dataclass
class UserMetrics:
    """Downlink metrics; each field has one entry per user (a float for one user)."""

    sinr: np.ndarray
    se: np.ndarray
    signal_power: np.ndarray
    multiuser_interference: np.ndarray
    sensing_interference: np.ndarray
    noise_power: np.ndarray


def spectral_efficiency(sinr):
    """Shannon SE, bits/s/Hz, elementwise."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ConfigError("SINR must be nonnegative")
    return np.log2(1.0 + sinr)


def downlink_metrics(precoders: PrecoderSet, channels: ChannelRealization,
                     config: ScenarioConfig) -> UserMetrics:
    """Instantaneous SINR/SE of every user for one realization, or for a stack.

    The multiuser interference of user n sums every other user's beam; the
    own-signal term is not part of it. Fields are (..., K) over the stack's
    axes; a stack of sensing beams (one per mode, say) broadcasts against them.
    """
    fdot = effective_channels(channels, config)
    rho = config.tx_power_watt
    # received[..., n, m]: power of user m's stream at user n, rho pi_m |fdot_n^T p_m|^2
    received = rho * config.user_fractions * np.abs(
        fdot @ np.swapaxes(precoders.user_precoders, -1, -2)) ** 2
    own = np.eye(config.n_users, dtype=bool)
    signal = received[..., own]
    interference = np.where(own, 0.0, received).sum(axis=-1)

    p_t = precoders.sensing_precoder
    sensing = np.zeros_like(signal) if p_t is None else (
        rho * config.sensing_power_fraction * np.abs(fdot @ p_t[..., None])[..., 0] ** 2)

    noise = (abs(config.nu) ** 2 * np.abs(channels.h_user) ** 2
             * config.repeater_noise_watt + config.ue_noise_watt)
    sinr = signal / (interference + sensing + noise)
    return UserMetrics(sinr=sinr, se=spectral_efficiency(sinr), signal_power=signal,
                       multiuser_interference=interference,
                       sensing_interference=sensing, noise_power=noise)


def user_sinr(n: int, precoders: PrecoderSet, channels: ChannelRealization,
              config: ScenarioConfig) -> UserMetrics:
    """Metrics of user n alone: row n of :func:`downlink_metrics`, as floats."""
    if not (0 <= n < config.n_users):
        raise ConfigError(f"user index {n} out of range")
    metrics = downlink_metrics(precoders, channels, config)
    return UserMetrics(**{name: float(value[n]) for name, value in vars(metrics).items()})

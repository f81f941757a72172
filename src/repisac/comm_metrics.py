"""Downlink SINR and spectral-efficiency evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import ConfigError
from .precoding import PrecoderSet, effective_channels
from .scenario import ScenarioConfig


@dataclass
class UserMetrics:
    sinr: float
    se: float
    signal_power: float
    multiuser_interference: float
    sensing_interference: float
    noise_power: float


def spectral_efficiency(sinr: float) -> float:
    """Shannon SE, bits/s/Hz."""
    if sinr < 0:
        raise ConfigError("SINR must be nonnegative")
    return math.log2(1.0 + sinr)


def user_sinr(n: int, precoders: PrecoderSet, channels: ChannelRealization,
              config: ScenarioConfig) -> UserMetrics:
    """Instantaneous SINR/SE of user n for one realization.

    The multiuser interference sums every other user's beam; the own-signal
    term is not part of it.
    """
    if not (0 <= n < config.n_users):
        raise ConfigError(f"user index {n} out of range")
    fdot = effective_channels(channels, config)
    rho = config.tx_power_watt
    fractions = config.user_fractions

    gains = np.abs(precoders.user_precoders @ fdot[n]) ** 2  # |fdot_n^T p_n'|^2
    signal = rho * fractions[n] * gains[n]
    interference = rho * float(np.sum(fractions * gains)) - signal

    pi_t = config.sensing_power_fraction
    if pi_t > 0.0 and precoders.sensing_precoder is not None:
        sensing = rho * pi_t * abs(precoders.sensing_precoder @ fdot[n]) ** 2
    else:
        sensing = 0.0

    noise = (abs(config.nu) ** 2 * abs(channels.h_user[n]) ** 2
             * config.repeater_noise_watt + config.ue_noise_watt)
    sinr = signal / (interference + sensing + noise)
    return UserMetrics(sinr=sinr, se=spectral_efficiency(sinr), signal_power=signal,
                       multiuser_interference=interference,
                       sensing_interference=sensing, noise_power=noise)

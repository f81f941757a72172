"""One random realization of every channel in the system, plus the RCS.

Small-scale models: Rayleigh fading for BS->user links, pure LOS
steering-vector channels for the target- and repeater-related links, and an
i.i.d. Gaussian clutter matrix whose per-entry variance is the (suppressed)
BS-to-BS path gain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .scenario import Geometry, ScenarioConfig, azimuth, distance, pathloss_linear


def steering_vector(n_antennas: int, angle_rad: float) -> np.ndarray:
    """Half-wavelength ULA response: element m = exp(i*pi*m*sin(angle))."""
    if n_antennas < 1:
        raise ConfigError("n_antennas must be >= 1")
    m = np.arange(n_antennas)
    return np.exp(1j * np.pi * m * np.sin(angle_rad))


def draw_rcs(sigma_t_sq: float, rng: np.random.Generator) -> complex:
    """Swerling-I RCS coefficient: alpha ~ CN(0, sigma_T^2), fixed per slot."""
    if sigma_t_sq <= 0.0:
        raise ConfigError("rcs variance must be positive")
    return complex(_cn_matrix((), sigma_t_sq, rng))


def _cn_matrix(shape, variance: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, variance) entries (exact zeros when variance == 0)."""
    if variance == 0.0:
        return np.zeros(shape, dtype=complex)
    scale = np.sqrt(variance / 2.0)
    return rng.normal(scale=scale, size=shape) + 1j * rng.normal(scale=scale, size=shape)


@dataclass
class ChannelRealization:
    """One draw of every channel plus the target RCS; a block of drops stacks each field."""

    f_user: np.ndarray  # (K, Nt) transmit BS -> user n
    h_user: np.ndarray  # (K,)    repeater -> user n
    a_tx: np.ndarray    # (Nt,)   transmit BS -> target
    a_rx: np.ndarray    # (Nr,)   target -> receive BS
    b_tx: np.ndarray    # (Nt,)   transmit BS -> repeater
    b_rx: np.ndarray    # (Nr,)   repeater -> receive BS
    g_rep: complex      # target -> repeater
    interbs_error: np.ndarray  # (Nr, Nt) residual G_B after subtraction
    clutter: np.ndarray        # (Nr, Nt)
    rcs: complex


class ClutterModel:
    """Covariance of vec(C) (column-major vec): a dense ``covariance``, or i.i.d.
    entries of ``entry_variance`` (:meth:`iid`), which store no matrix; their
    ``covariance`` is built when read (by the least-squares oracle)."""

    def __init__(self, covariance: np.ndarray | None = None,
                 entry_variance: float | None = None, size: int | None = None):
        self._covariance, self.entry_variance = covariance, entry_variance
        self.size = covariance.shape[0] if size is None else size

    @classmethod
    def iid(cls, entry_variance: float, n_tx: int, n_rx: int) -> "ClutterModel":
        if entry_variance <= 0.0:
            raise ConfigError("clutter entry variance must be positive "
                              "(the covariance has to be invertible)")
        return cls(entry_variance=entry_variance, size=n_tx * n_rx)

    @property
    def covariance(self) -> np.ndarray:
        if self._covariance is None:
            return self.entry_variance * np.eye(self.size)
        return self._covariance

    def inverse_covariance(self) -> np.ndarray:
        if self.entry_variance is not None:
            return np.eye(self.size) / self.entry_variance
        try:
            return np.linalg.inv(self.covariance)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("clutter covariance is singular") from exc


def clutter_entry_variance(config: ScenarioConfig, geometry: Geometry) -> float:
    """Per-entry clutter variance kappa * beta_clutter (the BS-to-BS path gain)."""
    return float(config.clutter_suppression
                 * pathloss_linear(distance(geometry.tx_bs, geometry.rx_bs),
                                   config.carrier_ghz, config.bs_height_m))


def clutter_covariance(config: ScenarioConfig, geometry: Geometry) -> ClutterModel:
    """Sigma_c = kappa * beta_clutter * I for the default i.i.d. model."""
    return ClutterModel.iid(clutter_entry_variance(config, geometry), config.n_tx_antennas,
                            config.n_rx_antennas)


def _los_gain(d, beta, config: ScenarioConfig):
    """LOS gain sqrt(beta) exp(-2 pi i d / lambda), elementwise over distances."""
    return np.sqrt(beta) * np.exp(-2j * np.pi * d / config.wavelength_m)


def gen_channels(geometry: Geometry, config: ScenarioConfig,
                 rng: np.random.Generator) -> ChannelRealization:
    """Draw one full channel realization for the given geometry.

    The draw order is fixed, so identical (geometry, config, seed) give an
    identical realization.
    """
    nt, nr = config.n_tx_antennas, config.n_rx_antennas
    fc = config.carrier_ghz

    # distances and path gains from the transmit BS (row 0) and from the
    # repeater (row 1) to every user
    d_user = np.linalg.norm(
        geometry.users - np.stack([geometry.tx_bs, geometry.repeater])[:, None], axis=-1)
    beta_user = pathloss_linear(d_user, fc, config.user_height_m)
    # BS -> user: Rayleigh with UMi NLOS large-scale gain; each user's real
    # then imaginary parts, users in order
    parts = rng.normal(scale=np.sqrt(0.5), size=(config.n_users, 2, nt))
    f_user = np.sqrt(beta_user[0])[:, None] * (parts[:, 0] + 1j * parts[:, 1])
    # repeater -> user: LOS gain with distance-derived phase
    h_user = _los_gain(d_user[1], beta_user[1], config)

    # target / repeater links: LOS steering-vector channels
    def los_vector(n_ant, array_pos, point_pos, endpoint_height):
        beta = pathloss_linear(distance(array_pos, point_pos), fc, endpoint_height)
        return np.sqrt(beta) * steering_vector(n_ant, azimuth(array_pos, point_pos))

    a_tx = los_vector(nt, geometry.tx_bs, geometry.hotspot, config.target_height_m)
    a_rx = los_vector(nr, geometry.rx_bs, geometry.hotspot, config.target_height_m)
    b_tx = los_vector(nt, geometry.tx_bs, geometry.repeater, config.repeater_height_m)
    b_rx = los_vector(nr, geometry.rx_bs, geometry.repeater, config.repeater_height_m)
    d_rep = distance(geometry.hotspot, geometry.repeater)
    g_rep = complex(_los_gain(d_rep, pathloss_linear(d_rep, fc, config.target_height_m),
                              config))

    interbs = _cn_matrix((nr, nt), config.residual_interbs_power, rng)
    clutter = _cn_matrix((nr, nt), clutter_entry_variance(config, geometry), rng)
    rcs = draw_rcs(config.rcs_variance, rng)

    return ChannelRealization(f_user=f_user, h_user=h_user, a_tx=a_tx, a_rx=a_rx,
                              b_tx=b_tx, b_rx=b_rx, g_rep=g_rep, interbs_error=interbs,
                              clutter=clutter, rcs=rcs)


def redraw_nuisance(base: ChannelRealization, config: ScenarioConfig,
                    clutter_entry_variance: float, rng: np.random.Generator,
                    force_null: bool = False) -> ChannelRealization:
    """Fresh clutter, inter-BS residual and RCS on top of fixed deterministic
    channels; used by the per-trial Monte Carlo resampling policy."""
    nr, nt = base.interbs_error.shape
    clutter = _cn_matrix((nr, nt), clutter_entry_variance, rng)
    interbs = _cn_matrix((nr, nt), config.residual_interbs_power, rng)
    rcs = 0.0 + 0.0j if force_null else draw_rcs(config.rcs_variance, rng)
    return replace(base, clutter=clutter, interbs_error=interbs, rcs=rcs)


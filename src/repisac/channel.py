"""The channels of a drop, and the nuisance drawn fresh for each slot.

A drop holds the deterministic links: Rayleigh fading for the BS->user links,
and pure LOS steering-vector channels for the target- and repeater-related
links. The nuisance is drawn only by :func:`redraw_nuisance`: an i.i.d.
Gaussian clutter matrix whose per-entry variance is the (suppressed) BS-to-BS
path gain, the inter-BS residual, and the Swerling-I RCS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .scenario import Geometry, ScenarioConfig, link_geometry, pathloss_linear


def steering_vector(n_antennas: int, angle_rad) -> np.ndarray:
    """Half-wavelength ULA response (..., n_antennas): element m =
    exp(i*pi*m*sin(angle)), for each angle of the leading axes of ``angle_rad``."""
    if n_antennas < 1:
        raise ConfigError("n_antennas must be >= 1")
    m = np.arange(n_antennas)
    return np.exp(1j * np.pi * m * np.sin(np.asarray(angle_rad)[..., None]))


def draw_rcs(sigma_t_sq: float, rng: np.random.Generator) -> complex:
    """Swerling-I RCS coefficient: alpha ~ CN(0, sigma_T^2), fixed per slot."""
    if sigma_t_sq <= 0.0:
        raise ConfigError("rcs variance must be positive")
    return complex(_cn_matrix((), sigma_t_sq, rng))


def _cn_matrix(shape: tuple, variance: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, variance) entries, drawn as the real parts of all entries, then
    their imaginary parts (exact zeros, and no draw, when variance == 0)."""
    if variance == 0.0:
        return np.zeros(shape, dtype=complex)
    size = math.prod(shape)
    scaled = np.sqrt(variance / 2.0) * rng.standard_normal(2 * size)
    return (scaled[:size] + 1j * scaled[size:]).reshape(shape)


@dataclass
class ChannelRealization:
    """A drop's deterministic links, and a slot's nuisance: ``interbs_error``,
    ``clutter`` and ``rcs`` are exact zeros until :func:`redraw_nuisance` draws them.

    :func:`gen_channels` draws one drop, or a block of drops, which gives every
    field the same leading drop axis; the shapes below are those of one drop,
    where ``g_rep`` and ``rcs`` are Python complex numbers.
    """

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
    ``covariance`` is built when read (by the least-squares oracle). A model given
    neither a covariance nor an entry variance and a size is a ``ConfigError``."""

    def __init__(self, covariance: np.ndarray | None = None,
                 entry_variance: float | None = None, size: int | None = None):
        if covariance is None and (entry_variance is None or size is None):
            raise ConfigError("a clutter model needs a covariance, or an entry variance and a size")
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


def clutter_covariance(config: ScenarioConfig, geometry: Geometry) -> ClutterModel:
    """Sigma_c = kappa * beta_clutter * I for the default i.i.d. model, with
    beta_clutter the BS-to-BS path gain."""
    beta = pathloss_linear(np.linalg.norm(geometry.tx_bs - geometry.rx_bs), config.carrier_ghz,
                           config.bs_height_m)
    return ClutterModel.iid(float(config.clutter_suppression * beta), config.n_tx_antennas,
                            config.n_rx_antennas)


def _los_gain(d, beta, config: ScenarioConfig):
    """LOS gain sqrt(beta) exp(-2 pi i d / lambda), elementwise over distances."""
    return np.sqrt(beta) * np.exp(-2j * np.pi * d / config.wavelength_m)


def gen_channels(geometry: Geometry, config: ScenarioConfig,
                 rng: np.random.Generator) -> ChannelRealization:
    """Draw the channels of the drops of ``geometry``: one drop, or a block of drops.

    Every field takes the leading batch axes of the drawn positions (those of
    ``geometry.repeater``). The users' Rayleigh parts are drawn in one call, per
    drop 2 K Nt standard normals (K, 2, Nt: each user's real then imaginary
    parts). The links are evaluated as arrays over all drops at once; ``a_tx``
    and ``a_rx``, which depend only on the fixed anchors, are evaluated once and
    repeated. ``interbs_error``, ``clutter`` and ``rcs`` are exact zeros:
    :func:`redraw_nuisance` draws them. Identical (geometry, config, seed) give
    identical channels.
    """
    nt, nr, k = config.n_tx_antennas, config.n_rx_antennas, config.n_users
    fc = config.carrier_ghz
    batch = geometry.repeater.shape[:-1]
    normals = rng.standard_normal((*batch, 2 * k * nt))

    # distances and path gains from the transmit BS (row 0) and from the
    # repeater (row 1) to every user
    ends = np.empty(batch + (2, 3))
    ends[..., 0, :], ends[..., 1, :] = geometry.tx_bs, geometry.repeater
    d_user, _ = link_geometry(ends[..., :, None, :], geometry.users[..., None, :, :])
    beta_user = pathloss_linear(d_user, fc, config.user_height_m)
    # BS -> user: Rayleigh with UMi NLOS large-scale gain
    parts = np.sqrt(0.5) * normals.reshape(batch + (k, 2, nt))
    f_user = np.sqrt(beta_user[..., 0, :])[..., None] * (parts[..., 0, :] + 1j * parts[..., 1, :])
    # repeater -> user: LOS gain with distance-derived phase
    h_user = _los_gain(d_user[..., 1, :], beta_user[..., 1, :], config)

    # target / repeater links: LOS steering-vector channels. The links from the
    # two BSs to the target join fixed anchors, so they are evaluated once; the
    # links from the two BSs and from the target to the repeater, once per drop
    anchors = np.array([geometry.tx_bs, geometry.rx_bs, geometry.hotspot])
    d_hot, az_hot = link_geometry(anchors[:2], geometry.hotspot)
    gain_hot = np.sqrt(pathloss_linear(d_hot, fc, config.target_height_m))
    a_tx, a_rx = np.empty(batch + (nt,), complex), np.empty(batch + (nr,), complex)
    a_tx[...] = gain_hot[0] * steering_vector(nt, az_hot[0])
    a_rx[...] = gain_hot[1] * steering_vector(nr, az_hot[1])
    d_rep, az_rep = link_geometry(anchors, geometry.repeater[..., None, :])
    gain_rep = np.sqrt(pathloss_linear(d_rep[..., :2], fc, config.repeater_height_m))
    b_tx = gain_rep[..., 0, None] * steering_vector(nt, az_rep[..., 0])
    b_rx = gain_rep[..., 1, None] * steering_vector(nr, az_rep[..., 1])
    d_target = d_rep[..., 2:]  # keeps an axis, so that one drop takes the array paths too
    g_rep = _los_gain(d_target, pathloss_linear(d_target, fc, config.target_height_m),
                      config)[..., 0]

    zeros = np.zeros(batch + (nr, nt), dtype=complex)
    rcs = np.zeros(batch, dtype=complex)
    if not batch:
        g_rep, rcs = complex(g_rep), complex(rcs)
    return ChannelRealization(f_user=f_user, h_user=h_user, a_tx=a_tx, a_rx=a_rx,
                              b_tx=b_tx, b_rx=b_rx, g_rep=g_rep, interbs_error=zeros,
                              clutter=zeros.copy(), rcs=rcs)


def redraw_nuisance(base: ChannelRealization, config: ScenarioConfig,
                    clutter_entry_variance: float, rng: np.random.Generator,
                    force_null: bool = False) -> ChannelRealization:
    """Fresh clutter, inter-BS residual (none drawn when zeta^2 = 0) and RCS (0
    under ``force_null``), in that order, on top of a drop's deterministic
    channels: the one place a slot's nuisance is drawn."""
    nr, nt = base.interbs_error.shape
    clutter = _cn_matrix((nr, nt), clutter_entry_variance, rng)
    interbs = _cn_matrix((nr, nt), config.residual_interbs_power, rng)
    rcs = 0.0 + 0.0j if force_null else draw_rcs(config.rcs_variance, rng)
    return replace(base, clutter=clutter, interbs_error=interbs, rcs=rcs)


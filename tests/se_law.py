"""The exact law of the SE-CDF study's SINR at one user with the repeater off.

The user falls at r = R sqrt(u) in the service disc, u ~ U(0, 1), so its path
gain is beta(u) = pathloss_linear(sqrt(r^2 + (h_BS - h_UE)^2)). Its channel is
sqrt(beta) g with g ~ CN(0, I_Nt), and at K = 1 the RZF beam is conj(g) / ||g||
for any regularizer, so the signal is rho pi_u beta ||g||^2, ||g||^2 ~ Gamma(Nt).
With c = t sigma_UE^2 / (rho pi_u beta):

- comm-centric: the sensing beam is orthogonal to the channel, so
  P(SINR <= t) = E_u P(Nt, c), with P the regularized lower incomplete gamma;
- target-centric: X = |g^H a|^2 ~ Exp(1) along the unit sensing beam a, and
  G = ||g||^2 - X ~ Gamma(Nt - 1) is independent of X. The sensing beam adds
  rho pi_T beta X to the interference, so with d = t pi_T / pi_u,
  SINR <= t iff G + (1 - d) X <= c.

Both are integrals over u by a 200-point Gauss-Legendre rule.

With the repeater on, the user's effective channel is fdot = f + nu h b_tx, with
h the repeater-to-user LOS gain and b_tx the transmit-BS-to-repeater LOS
channel. Given a drop's positions, h and b_tx are fixed, so
fdot = sqrt(beta) (g + mu) with mu = nu h b_tx / sqrt(beta), and
2 ||fdot||^2 / beta ~ chi'^2(2 Nt, 2 ||mu||^2), noncentral, with
||mu||^2 = |nu|^2 |h|^2 ||b_tx||^2 / beta. At K = 1 the comm-centric sensing
beam is orthogonal to fdot and the beam is conj(fdot) / ||fdot||, so
SINR = rho pi_u ||fdot||^2 / (sigma_UE^2 + |nu h|^2 sigma_R^2): the repeater
adds its amplified noise at the user. :func:`comm_centric_cdf_given_drops`
averages that law over drops whose positions are given; beta, |h|^2 and
||b_tx||^2 are recomputed here from the positions and the path-loss model.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc
from scipy.stats import ncx2, poisson

from repisac.scenario import pathloss_linear

NODES = 200


def _legendre(lo, hi):
    """Nodes and weights of the Gauss-Legendre rule on [lo, hi], over trailing axes."""
    x, w = np.polynomial.legendre.leggauss(NODES)
    half = 0.5 * (np.asarray(hi) - np.asarray(lo))[..., None]
    return np.asarray(lo)[..., None] + half * (x + 1.0), half * w


def target_centric_given_gain(c, d, n: int):
    """P(G + (1 - d) X <= c) for G ~ Gamma(n), X ~ Exp(1) independent, elementwise.

    d >= 1: conditioning on G, it is P(n, c) + E[exp(-(G - c) / (d - 1)); G > c]
    = P(n, c) + sum_{j < n} Poisson(j; c) ((d - 1) / d)^(n - j): positive terms.
    d < 1: conditioning on X, it is the integral over x in [0, c / (1 - d)] of
    exp(-x) P(n, c - (1 - d) x), taken in v = 1 - exp(-x) by Gauss-Legendre.
    """
    c, d = np.broadcast_arrays(np.asarray(c, float), np.asarray(d, float))
    out = np.empty(c.shape)
    hi = d >= 1.0
    ratio = (d[hi] - 1.0) / d[hi]
    j = np.arange(n)
    out[hi] = gammainc(n, c[hi]) + np.sum(
        poisson.pmf(j, c[hi][..., None]) * ratio[..., None] ** (n - j), axis=-1)
    e, c_lo = 1.0 - d[~hi], c[~hi]
    v, w = _legendre(np.zeros_like(c_lo), -np.expm1(-c_lo / e))
    out[~hi] = np.sum(w * gammainc(n, np.maximum(c_lo[..., None] + e[..., None]
                                                 * np.log1p(-v), 0.0)), axis=-1)
    return out


def sinr_cdf(config, mode: str, t) -> np.ndarray:
    """P(SINR <= t) of the user of a one-user, repeater-off drop, for each t
    (Nt >= 2: target-centric sensing leaves G ~ Gamma(Nt - 1))."""
    u, w_u = _legendre(0.0, 1.0)
    r = config.service_radius_m * np.sqrt(u)
    beta = pathloss_linear(np.sqrt(r ** 2 + (config.bs_height_m - config.user_height_m) ** 2),
                           config.carrier_ghz, config.user_height_m)
    pi_u, pi_t = config.user_fractions[0], config.sensing_power_fraction
    t = np.asarray(t, float)[..., None]
    c = t * config.ue_noise_watt / (config.tx_power_watt * pi_u * beta)
    if mode == "comm_centric":
        given_u = gammainc(config.n_tx_antennas, c)
    elif mode == "target_centric":
        given_u = target_centric_given_gain(c, t * pi_t / pi_u, config.n_tx_antennas - 1)
    else:
        raise ValueError(f"no reference law for mode {mode!r}")
    return given_u @ w_u


def _quantiles(cdf, q, steps: int) -> np.ndarray:
    """Values t with cdf(t) close to each q: ``steps`` bisections on log10 t in [-30, 30]."""
    q = np.asarray(q, float)
    lo, hi = np.full(q.shape, -30.0), np.full(q.shape, 30.0)  # log10 t
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = cdf(10.0 ** mid) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 10.0 ** (0.5 * (lo + hi))


def sinr_quantiles(config, mode: str, q) -> np.ndarray:
    """SINR values t with P(SINR <= t) close to each q: bisection on log t."""
    return _quantiles(lambda t: sinr_cdf(config, mode, t), q, 50)


def comm_centric_cdf_given_drops(config, geometry, t) -> np.ndarray:
    """P(SINR <= t) of the user of one-user drops with the repeater on and
    comm-centric sensing, given the positions of ``geometry`` (a block of drops),
    as the mean over the drops of each drop's law; for each t."""
    fc, nt = config.carrier_ghz, config.n_tx_antennas
    user = geometry.users[:, 0]
    beta = pathloss_linear(np.linalg.norm(user - geometry.tx_bs, axis=-1), fc,
                           config.user_height_m)
    h_sq = pathloss_linear(np.linalg.norm(user - geometry.repeater, axis=-1), fc,
                           config.user_height_m)
    b_sq = nt * pathloss_linear(np.linalg.norm(geometry.repeater - geometry.tx_bs, axis=-1),
                                fc, config.repeater_height_m)
    nu_sq = abs(config.nu) ** 2
    mu_sq = nu_sq * h_sq * b_sq / beta
    noise = config.ue_noise_watt + nu_sq * h_sq * config.repeater_noise_watt
    gain = config.tx_power_watt * config.user_fractions[0] * beta / noise
    t = np.asarray(t, float)[..., None]
    return np.mean(ncx2.cdf(2.0 * t / gain, 2 * nt, 2.0 * mu_sq), axis=-1)


def comm_centric_quantiles_given_drops(config, geometry, q) -> np.ndarray:
    """SINR values t with :func:`comm_centric_cdf_given_drops` close to each q."""
    return _quantiles(lambda t: comm_centric_cdf_given_drops(config, geometry, t), q, 24)

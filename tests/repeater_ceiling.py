"""The repeater-noise ceiling of the sensing statistics (s, v), in closed form.

Fix the transmit frames X and let the repeater gain |nu| grow. The echo through
the repeater reaches the receive BS along b_r, and so does the repeater's own
noise, amplified by the same nu. The noise covariance Sigma_s = d I + m b_r b_r^H
(m = |nu|^2 sigma_R^2) keeps d on I - P and grows as m ||b_r||^2 on
P = b_r b_r^H / ||b_r||^2. Split the target direction
v = a_rx + nu g_rep b_r into e_0 = (I - P) a_rx, which does not depend on nu,
and e_1 = P v, which grows as nu. On P the echo-to-noise ratio of a slot row
tends to |g_rep|^2 |x a_tx|^2 / sigma_R^2, and the clutter and the BS noise
drop out of that branch, so

    s_inf = s_0 + |g_rep|^2 ||X a_tx||^2 / sigma_R^2,
    v_inf = v_0 + |g_rep|^2 ||X a_tx||^2 / sigma_R^2,

where (s_0, v_0) are the statistics of the branch e_0 alone. With the slot's
noise diagonal D = diag(zeta^2 ||x[tau]||^2 + sigma_BS^2), the detector's
model of that branch is clutter plus noise in slot space,
K = D + sigma_c^2 X X^H, so its matched filter is f = K^-1 X a_tx and

    s_0 = ||e_0||^2 (X a_tx)^H f,
    v_0 = ||e_0||^2 f^H ((sigma_c^2 + zeta^2) X X^H + sigma_BS^2 I) f,

since under H0 the slot-constant clutter and inter-BS residual add
(sigma_c^2 + zeta^2) X X^H to the rows along e_0, and the BS noise
sigma_BS^2 I; the repeater noise has no component along e_0. At zeta^2 = 0
the model is exact and v_0 = s_0.

The limit's error falls as 1/|nu|: the first term of ||e_1||^2 that the limit
drops is the cross term 2 Re(conj(nu g_rep) beta) ||b_r||^2, with
beta = b_r^H a_rx / ||b_r||^2, a relative share of 2 |beta| / (|nu| |g_rep|)
of the e_1 branch. Nothing here calls ``repisac.detector``.
"""

from __future__ import annotations

import numpy as np


def ceiling(x: np.ndarray, a_tx: np.ndarray, a_rx: np.ndarray, b_rx: np.ndarray,
            g_rep: complex, sigma_c_sq: float, zeta_sq: float, sigma_bs_sq: float,
            sigma_r_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """(s_inf, v_inf) for a stack of frames x (B, tau, Nt), each of shape (B,)."""
    e_0 = a_rx - b_rx * (np.vdot(b_rx, a_rx) / np.vdot(b_rx, b_rx))
    e0_sq = np.vdot(e_0, e_0).real
    target = x @ a_tx  # (B, tau): the rows x[tau] a_tx
    rows_sq = np.sum(np.abs(x) ** 2, axis=-1)  # ||x[tau]||^2
    gram = x @ np.swapaxes(x.conj(), -1, -2)  # X X^H, (B, tau, tau)
    eye = np.eye(x.shape[1])
    model = sigma_c_sq * gram + (zeta_sq * rows_sq + sigma_bs_sq)[..., None] * eye
    f = np.linalg.solve(model, target[..., None])[..., 0]
    true = (sigma_c_sq + zeta_sq) * gram + sigma_bs_sq * eye
    s_0 = e0_sq * np.einsum("bt,bt->b", target.conj(), f).real
    v_0 = e0_sq * np.einsum("bt,btu,bu->b", f.conj(), true, f).real
    repeater = abs(g_rep) ** 2 * np.sum(np.abs(target) ** 2, axis=-1) / sigma_r_sq
    return s_0 + repeater, v_0 + repeater


def cross_term(a_rx: np.ndarray, b_rx: np.ndarray, g_rep: complex) -> float:
    """2 |beta| / |g_rep| with beta = b_r^H a_rx / ||b_r||^2: the limit's relative
    error at gain |nu| is this over |nu| to first order."""
    return 2.0 * abs(np.vdot(b_rx, a_rx) / np.vdot(b_rx, b_rx)) / abs(g_rep)

"""Precoder construction, power allocation, and the per-slot transmit frame.

Downlink users get regularized zero-forcing beams built on the effective
channels (direct path plus repeater path). The sensing beam comes in three
flavors: steered at the target, projected out of the users' channel subspace,
or projected out of the repeater direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, _cn_matrix
from .errors import ConfigError, DegenerateNullspaceError
from .scenario import ScenarioConfig


@dataclass
class PrecoderSet:
    user_precoders: np.ndarray  # (..., K, Nt), unit-norm rows
    sensing_precoder: np.ndarray | None  # (..., Nt), unit norm; None when sensing is off


@dataclass
class TransmitFrame:
    """Precoded transmit signal over one slot."""

    x: np.ndarray  # (slot_length, Nt)
    user_symbols: np.ndarray  # (slot_length, K)
    sensing_symbols: np.ndarray  # (slot_length,)
    user_fractions: np.ndarray  # (K,)
    sensing_fraction: float


def effective_channels(channels: ChannelRealization, config: ScenarioConfig) -> np.ndarray:
    """Effective downlink channels, shape (..., K, Nt) over the realization's batch axes."""
    return channels.f_user + config.nu * channels.h_user[..., :, None] * channels.b_tx[..., None, :]


def rzf_precoders(fdot: np.ndarray, zf_regularizer: float) -> np.ndarray:
    """Regularized zero-forcing beams for the stacked channels ``fdot`` (..., K, Nt).

    Each row of the returned (..., K, Nt) array has unit norm. The beams
    combine coherently under the transposed reception convention y = fdot^T x.
    The beams are the columns of (fdot^H fdot + lam I_Nt)^-1 fdot^H. For
    K <= Nt they are computed by the push-through identity as the rows of
    conj((fdot fdot^H + lam I_K)^-1 fdot), a K x K solve, which at K = 1 is the
    matched filter conj(fdot) / ||fdot|| to rounding. The solve is on the side
    of min(K, Nt): the Gram matrix on the larger side has rank min(K, Nt) plus
    lam, so at K > Nt the K x K matrix is the ill-conditioned one (a beam error
    of ~1e-5 at lam = 1e-20 on the default config, and an exactly singular
    pivot when lam falls below eps ||fdot||^2), while the Nt x Nt one has full
    rank.
    """
    if zf_regularizer <= 0.0:
        raise ConfigError("zf_regularizer must be positive")
    fdot = np.atleast_2d(np.asarray(fdot, dtype=complex))
    fdot_h = np.swapaxes(fdot.conj(), -1, -2)
    k, nt = fdot.shape[-2:]
    if k <= nt:
        raw = np.linalg.solve(fdot @ fdot_h + zf_regularizer * np.eye(k), fdot).conj()
    else:
        raw = np.swapaxes(np.linalg.solve(fdot_h @ fdot + zf_regularizer * np.eye(nt), fdot_h),
                          -1, -2)
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ConfigError("RZF produced a zero beam (zero user channel?)")
    return raw / norms


def target_precoder(mode: str, a_tx: np.ndarray, b_tx: np.ndarray,
                    fdot: np.ndarray, conjugate: bool = True) -> np.ndarray:
    """Unit-norm sensing precoder for the requested mode, in the conjugate
    convention (a user receives fdot^T x); ``conjugate=False`` is a ``ConfigError``.

    target_centric: beam conj(a_tx) at the target direction. comm_centric: same
    beam minus its projection Q Q^H onto the span of conj(fdot^T), Q from one
    reduced QR (the users' channels have full rank with probability one; at
    K >= Nt, Q spans every direction and the beam is nulled). repeater_null:
    same beam projected orthogonal to the transmit-BS-to-repeater direction.

    Inputs with leading batch axes give a stack of beams, with a NaN beam where
    a single beam raises ``DegenerateNullspaceError`` (direction nulled).
    """
    if not conjugate:
        raise ConfigError("target_precoder supports only the conjugate convention")
    a = np.conj(np.asarray(a_tx, dtype=complex))
    if mode == "target_centric":
        raw = a
    elif mode == "comm_centric":
        q = np.linalg.qr(np.swapaxes(np.conj(np.atleast_2d(fdot)), -1, -2))[0]
        raw = a - (q @ (np.swapaxes(q.conj(), -1, -2) @ a[..., None]))[..., 0]
    elif mode == "repeater_null":
        b = np.asarray(b_tx, dtype=complex)
        bn2 = np.sum(np.abs(b) ** 2, axis=-1, keepdims=True)
        if np.any(bn2 == 0.0):
            raise ConfigError("repeater_null requires a nonzero b_tx")
        raw = a - b.conj() * np.sum(b * a, axis=-1, keepdims=True) / bn2
    else:
        raise ConfigError(f"unknown sensing precoder mode {mode!r}")
    norm = np.linalg.norm(raw, axis=-1, keepdims=True)
    degenerate = norm < 1e-10 * np.linalg.norm(a_tx, axis=-1, keepdims=True)
    if raw.ndim == 1 and degenerate:
        raise DegenerateNullspaceError("sensing direction lies in nulled subspace")
    return np.divide(raw, norm, out=np.full_like(raw, np.nan), where=~degenerate)


def build_precoders(config: ScenarioConfig, channels: ChannelRealization) -> PrecoderSet:
    """RZF user beams plus the configured sensing beam, from one realization."""
    fdot = effective_channels(channels, config)
    user_p = rzf_precoders(fdot, config.zf_regularizer_value)  # (0, Nt) with no users
    p_t = None
    if config.sensing_power_fraction > 0.0:
        p_t = target_precoder(config.precoder_mode, channels.a_tx, channels.b_tx, fdot)
    return PrecoderSet(user_precoders=user_p, sensing_precoder=p_t)


def beam_matrix(precoders: PrecoderSet, config: ScenarioConfig) -> np.ndarray:
    """M = sqrt(rho) [sqrt(pi_n) p_n; sqrt(pi_T) p_T], shape (K + 1, Nt), so that
    x[tau] = s[tau] M for the symbol row s[tau] = (s_1, ..., s_K, s_T)[tau].
    The sensing row is zero when no power goes to sensing."""
    fractions = config.user_fractions
    pi_t = config.sensing_power_fraction
    beams = np.zeros((fractions.size + 1, config.n_tx_antennas), dtype=complex)
    beams[:-1] = np.sqrt(fractions)[:, None] * precoders.user_precoders
    if pi_t > 0.0:
        if precoders.sensing_precoder is None:
            raise ConfigError("sensing power allocated but no sensing precoder built")
        beams[-1] = np.sqrt(pi_t) * precoders.sensing_precoder
    return np.sqrt(config.tx_power_watt) * beams


def build_transmit_frame(precoders: PrecoderSet, config: ScenarioConfig,
                         rng: np.random.Generator) -> TransmitFrame:
    """x[tau] = sqrt(rho) (sum_n sqrt(pi_n) p_n s_n[tau] + sqrt(pi_T) p_T s_T[tau])."""
    tau_l = config.slot_length
    s_user = _cn_matrix((tau_l, config.user_fractions.size), 1.0, rng)
    s_t = _cn_matrix((tau_l,), 1.0, rng)
    x = np.column_stack([s_user, s_t]) @ beam_matrix(precoders, config)
    return TransmitFrame(x=x, user_symbols=s_user, sensing_symbols=s_t,
                         user_fractions=config.user_fractions,
                         sensing_fraction=config.sensing_power_fraction)

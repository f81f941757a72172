"""GLRT target detection with joint MAP estimation of RCS and clutter.

The closed form works on per-slot statistics: regressors B[tau] turn the
unknown clutter matrix into a linear parameter, the sensing-noise covariance
whitens each observation, and the test statistic is the difference of two
Hermitian quadratic forms (:func:`assemble_statistics`,
:func:`glrt_statistic`), evaluated through the Schur complement of Q_H0 in
Q_H1. That dense form is the reference; an independent brute-force
least-squares oracle recomputes the same log-likelihood ratio for small
instances.

The structured form (:func:`schur_statistics`) is checked against it: with
i.i.d. clutter, Q_H0 splits into two Nt x Nt blocks in the eigenbasis that
the sensing-noise covariance shares across channel uses, and the RCS drops
out through a Schur complement. A trial reduces to (u, s, alpha_1), from
which :func:`glrt_from_statistics` gives its statistic at any RCS variance;
under H0 the row is read with alpha_1 = 0, so no trial kernel takes the
hypothesis. :func:`trial_statistics`, the reference simulation, draws
clutter, residual, symbols and noises, then alpha_1.

Monte Carlo passes use the block kernel :func:`block_statistics` instead:
given the transmit frame X every nuisance term is zero-mean Gaussian, so
under H0 u | X ~ CN(0, v(X)) in closed form (:func:`conditional_statistics`).
A block of :func:`block_trials` trials draws only a frame, one unit normal and
alpha_1 per trial from one generator (:func:`trial_rng`, keyed per block);
blocks whose trials fit in one block's are evaluated in one call. The frame
is the slot's symbols, or at zeta^2 = 0, where (s, v) see the frame only
through X^H X, a Bartlett factor of that Gram matrix: min(tau, K + 1, Nt)
rows in place of tau (:func:`frame_rows`). Both forms solve the clutter
blocks A_k z_k = a_tx in one place (:func:`_clutter_weights`, one stacked
solve for a stack of frames). The empirical threshold of a set of H0
statistics lives here too; the study setup and the trial passes that use
them are in ``repisac.harness``.

A call's frame-sized temporaries (its frames, its standard-normal draws,
conj(X), which also holds X^H diag(w_k) one k at a time, and the stacked A_k)
are per-thread working arrays (:func:`_work`), kept from one call to the next.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, ClutterModel, draw_rcs, redraw_nuisance
from .errors import ConfigError, NumericalDomainError, OracleFailureError
from .precoding import PrecoderSet, TransmitFrame, beam_matrix, build_transmit_frame
from .propagation import SensingObservation, draw_noise, receive_bs_slot
from .scenario import ScenarioConfig, _check_type

_IMAG_RESIDUE_TOL = 1e-9
_WORKING = threading.local()  # this thread's working arrays, by name (see _work)


def _work(name: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
    """The leading shape[0] rows of this thread's working array ``name``.

    The array is allocated once and reused, and a short block uses the leading
    rows of a full block's array; it is reallocated, at ``shape``, only when its
    row shape changes or it has too few rows. A block's frame-sized temporaries
    are larger than glibc's heap-trim threshold at 12 x 12 (zeta^2 > 0): freed
    per block, they made the heap be trimmed and page-faulted back once per
    block. Its contents are undefined: every caller writes what it reads. No
    array that a function here returns is, or is a view of, a working array.
    """
    arrays = vars(_WORKING)
    buf = arrays.get(name)
    if buf is None or buf.shape[1:] != shape[1:] or buf.shape[0] < shape[0]:
        buf = arrays[name] = np.empty(shape, dtype)
    return buf[:shape[0]]


@dataclass
class DetectorWorkspace:
    """Assembled statistics for one slot worth of observations."""

    t_h1: np.ndarray      # (Nt*Nr + 1,)
    t_h0: np.ndarray      # (Nt*Nr,)
    q_h1: np.ndarray      # (Nt*Nr + 1)^2, Hermitian PD
    q_h0: np.ndarray      # (Nt*Nr)^2, Hermitian PD


def sensing_noise_cov(x: np.ndarray, config: ScenarioConfig, b_rx: np.ndarray) -> np.ndarray:
    """Sigma_s = zeta^2 ||x||^2 I + |nu|^2 sigma_R^2 b_r b_r^H + sigma_BS^2 I."""
    nr = b_rx.shape[0]
    nu2 = abs(config.nu) ** 2
    diag = config.residual_interbs_power * float(np.vdot(x, x).real) + config.bs_noise_watt
    return diag * np.eye(nr) + (nu2 * config.repeater_noise_watt) * np.outer(b_rx, b_rx.conj())


def _noise_eigenvalues(x: np.ndarray, x_conj: np.ndarray, b_sq: float,
                       config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues d[tau] and d[tau] + m ||b_r||^2 of Sigma_s[tau] on I - P and on P,
    given the frame x and its conjugate."""
    if config.residual_interbs_power == 0.0:  # d = sigma_BS^2 on every row
        d = np.full(x.shape[:-1], config.bs_noise_watt)
    else:
        d = (config.residual_interbs_power * np.einsum("...i,...i->...", x, x_conj).real
             + config.bs_noise_watt)
    if np.any(d <= 0):
        # with m >= 0 this is exactly the condition for Sigma_s[tau] to be PD
        raise NumericalDomainError("sensing-noise covariance is not positive definite")
    return d, d + abs(config.nu) ** 2 * config.repeater_noise_watt * b_sq


def _noise_blocks(x: np.ndarray, x_conj: np.ndarray, channels: ChannelRealization,
                  config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """w, e over the eigenspaces k of Sigma_s[tau], for a stack of frames x (B, tau, Nt):
    the eigenvalues w of Sigma_s^-1, shape (k, B, tau), and e (k, Nr), with
    e_0 = (I - P) v, e_1 = P v; k = 1 and (1/d, v) when Sigma_s[tau] = d I. The
    residue of v - P v along b_r (~eps ||v||, which lets the amplified repeater
    noise into u at high gain) is projected out once more."""
    b = channels.b_rx
    b_sq = float(np.vdot(b, b).real)
    d, d_par = _noise_eigenvalues(x, x_conj, b_sq, config)
    v = channels.a_rx + config.nu * channels.g_rep * b
    if np.array_equal(d_par, d):
        return (1.0 / d)[None], v[None]
    v_par = b * (np.vdot(b, v) / b_sq)
    e_0 = v - v_par
    return 1.0 / np.stack([d, d_par]), np.stack([e_0 - b * (np.vdot(b, e_0) / b_sq), v_par])


def assemble_statistics(observation: SensingObservation, frame: TransmitFrame,
                        channels: ChannelRealization, config: ScenarioConfig,
                        clutter_model: ClutterModel) -> DetectorWorkspace:
    """Build t_H1/t_H0/Q_H1/Q_H0 from one slot of observations.

    The per-slot sums exploit B[tau] = x^T kron I: every B-contraction
    collapses to an outer product with x[tau], so nothing of size
    Nr x (Nt*Nr) is ever formed here. The sensing-noise covariance
    Sigma_s[tau] = d[tau] I + m b_r b_r^H (d[tau] = zeta^2 ||x[tau]||^2 +
    sigma_BS^2, m = |nu|^2 sigma_R^2) has the eigenvalue d[tau] on I - P and
    d[tau] + m ||b_r||^2 on P = b_r b_r^H / ||b_r||^2, the same projectors for
    every tau, so it is inverted in closed form:
    Sigma_s[tau]^-1 = (I - P) / d[tau] + P / (d[tau] + m ||b_r||^2).
    No matrix is factorized, and unlike the Sherman-Morrison form
    I/d - c b_r b_r^H no term cancels when m ||b_r||^2 >> d (high repeater gain).
    """
    x = frame.x
    y = observation.y_slots
    nu = config.nu
    b = channels.b_rx
    nt, nr = config.n_tx_antennas, config.n_rx_antennas
    if clutter_model.size != nt * nr:
        raise NumericalDomainError("clutter covariance size does not match Nt*Nr")

    v = channels.a_rx + nu * channels.g_rep * b
    r = (x @ channels.a_tx)[:, None] * v[None, :]  # (tau_L, Nr)

    b_sq = float(np.vdot(b, b).real)
    d, d_par = _noise_eigenvalues(x, x.conj(), b_sq, config)
    p = np.outer(b, b.conj()) / b_sq if b_sq > 0.0 else np.zeros((nr, nr))

    def split(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of z split into their (I - P)- and P-components."""
        z_par = z @ p.T
        return z - z_par, z_par

    (y_perp, y_par), (r_perp, r_par) = split(y), split(r)
    s_y = y_perp / d[:, None] + y_par / d_par[:, None]  # rows Sigma_s[tau]^-1 y[tau]
    s_r = r_perp / d[:, None] + r_par / d_par[:, None]
    # r^H Sigma_s^-1 z is summed per eigenspace: at high repeater gain r has a
    # large P-component, and r^H s_z would multiply it by the rounding error of
    # the small (I - P)-component of s_z
    t_top = complex(np.sum(r_perp.conj() * y_perp / d[:, None])
                    + np.sum(r_par.conj() * y_par / d_par[:, None]))
    q_rr = float(np.sum(np.abs(r_perp) ** 2 / d[:, None])
                 + np.sum(np.abs(r_par) ** 2 / d_par[:, None]))
    # sum_tau B^H Sigma_s^-1 B
    #   = (X^H diag(1/d) X) kron (I - P) + (X^H diag(1/d_par) X) kron P
    x_d = x.conj().T @ (x / d[:, None])
    x_par = x.conj().T @ (x / d_par[:, None])
    q_bb = (x_d[:, None, :, None] * (np.eye(nr) - p)[None, :, None, :]
            + x_par[:, None, :, None] * p[None, :, None, :]).reshape(nt * nr, nt * nr)
    # B^H S^-1 y summed over tau = vec( S^-1 y x^H ), column-major vec
    t_h0 = np.einsum("ti,tj->ij", s_y, x.conj()).reshape(-1, order="F")
    cross = np.einsum("ti,tj->ij", s_r, x.conj()).reshape(-1, order="F")  # B^H S^-1 r

    sigma_c_inv = clutter_model.inverse_covariance()
    q_h0 = q_bb + sigma_c_inv
    q_h0 = 0.5 * (q_h0 + q_h0.conj().T)

    dim = nt * nr + 1
    q_h1 = np.zeros((dim, dim), dtype=complex)
    q_h1[0, 0] = q_rr + 1.0 / config.rcs_variance
    q_h1[0, 1:] = cross.conj()
    q_h1[1:, 0] = cross
    q_h1[1:, 1:] = q_h0

    t_h1 = np.concatenate([[t_top], t_h0])
    return DetectorWorkspace(t_h1=t_h1, t_h0=t_h0, q_h1=q_h1, q_h0=q_h0)


def _eliminate_rcs(ws: DetectorWorkspace) -> tuple[complex, float, np.ndarray]:
    """Schur complement of Q_H0 in Q_H1, from one Cholesky of Q_H0.

    With c = Q_H1[1:, 0], returns u = t_top - c^H Q_H0^-1 t_H0,
    s = Q_H1[0, 0] - c^H Q_H0^-1 c and the solutions [Q_H0^-1 t_H0, Q_H0^-1 c].
    """
    cross = ws.q_h1[1:, 0]
    try:
        chol = np.linalg.cholesky(ws.q_h0)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError("Q_H0 is not positive definite") from exc
    z = np.linalg.solve(chol.conj().T, np.linalg.solve(chol, np.column_stack([ws.t_h0, cross])))
    u = complex(ws.t_h1[0] - np.vdot(cross, z[:, 0]))
    s = complex(ws.q_h1[0, 0] - np.vdot(cross, z[:, 1]))
    if abs(s.imag) > _IMAG_RESIDUE_TOL * max(1.0, abs(s.real)):
        raise NumericalDomainError(f"Schur complement has imaginary residue {s.imag:g}")
    if not s.real > 0.0:
        raise NumericalDomainError("Q_H1 is not positive definite")
    return u, s.real, z


def glrt_statistic(ws: DetectorWorkspace) -> float:
    """Test statistic T = t_H1^H Q_H1^-1 t_H1 - t_H0^H Q_H0^-1 t_H0, evaluated as
    |u|^2 / s (:func:`_eliminate_rcs`): no two large terms cancel when T is small."""
    u, s, _ = _eliminate_rcs(ws)
    return (u.real * u.real + u.imag * u.imag) / s


def map_estimate(ws: DetectorWorkspace) -> tuple[complex, np.ndarray]:
    """MAP estimates under H1, z = [alpha, c^T]^T solving Q_H1 z = t_H1:
    alpha = u / s and c = Q_H0^-1 (t_H0 - alpha Q_H1[1:, 0])."""
    u, s, z = _eliminate_rcs(ws)
    alpha = u / s
    return alpha, z[:, 0] - alpha * z[:, 1]


def _clutter_weights(x: np.ndarray, channels: ChannelRealization, config: ScenarioConfig,
                     clutter_model: ClutterModel) -> tuple[float, np.ndarray, np.ndarray,
                                                            np.ndarray]:
    """lam = 1 / sigma_c^2, c, e and s for a stack of frames x (B, tau, Nt) and an
    i.i.d. clutter model of size Nt * Nr, over the eigenspaces k of Sigma_s[tau]
    (:func:`_noise_blocks`: e of shape (k, Nr)).

    c = w * (X z) of shape (k, B, tau), z_k = A_k^-1 a_tx,
    A_k = X^H diag(w_k) X + lam I, and s = lam sum_k ||e_k||^2 c_k^H (X a_tx) of
    shape (B,) (:func:`schur_statistics`); every z_k of every frame comes from
    one stacked solve. No factorization checks A_k: with w_k > 0
    (:func:`_noise_eigenvalues`) and lam > 0 (checked here), A_k is positive
    definite. conj(X) is made in this thread's working array (:func:`_work`):
    it serves the noise eigenvalues, then holds X^H diag(w_k) in place for one
    A_k at a time. At zeta^2 = 0 every row of the slot has the same weight w_k,
    so X^H X is formed once, in the A_k array, and scaled into each A_k.
    """
    if clutter_model.size != config.n_tx_antennas * config.n_rx_antennas:
        raise NumericalDomainError("clutter covariance size does not match Nt*Nr")
    if clutter_model.entry_variance is None:
        raise NumericalDomainError("the structured statistic needs an i.i.d. clutter model")
    if not clutter_model.entry_variance > 0.0:
        raise NumericalDomainError("clutter covariance is not positive definite")
    lam = 1.0 / clutter_model.entry_variance
    nt = config.n_tx_antennas
    x_conj = np.conj(x, out=_work("x_conj", x.shape))
    w, e = _noise_blocks(x, x_conj, channels, config)
    x_h = np.swapaxes(x_conj, -1, -2)
    a = _work("a", (w.shape[0] * len(x), nt, nt)).reshape(*w.shape[:2], nt, nt)  # the A_k
    if config.residual_interbs_power == 0.0:  # w_k is one number: A_k = w_k X^H X + lam I
        np.matmul(x_h, x, out=a[-1])
        for a_k, w_k in zip(a, w[:, 0, 0]):  # a[-1], which holds X^H X, is scaled last
            np.multiply(a[-1], w_k, out=a_k)
    else:
        for k, (a_k, w_k) in enumerate(zip(a, w[..., None, :])):
            if k:  # conj(X) again: the k before left X^H diag(w) in it
                np.conj(x, out=x_conj)
            np.matmul(np.multiply(x_h, w_k, out=x_h), x, out=a_k)
    a += lam * np.eye(nt)
    try:  # b of the same rank as a is a stack of matrices under every numpy version
        z = np.linalg.solve(a, channels.a_tx.reshape(1, 1, -1, 1))
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError("clutter-block matrix is singular") from exc
    c = w * (x @ z)[..., 0]
    e_sq = (e.conj()[:, None, :] @ e[..., None])[..., 0].real  # (k, 1): ||e_k||^2
    s = np.sum(lam * e_sq * np.einsum("kbt,bt->kb", c.conj(), x @ channels.a_tx).real, axis=0)
    return lam, c, e, s


def schur_statistics(observation: SensingObservation, frame: TransmitFrame,
                     channels: ChannelRealization, config: ScenarioConfig,
                     clutter_model: ClutterModel) -> tuple[complex, float]:
    """GLRT sufficient statistics (u, s) without forming Q_H0, for i.i.d. clutter.

    With c = sum B^H Sigma_s^-1 r (``cross``) and Q_H0, t_H0, t_top, q_rr as
    :func:`assemble_statistics` builds them, the RCS row of Q_H1 drops out
    through the Schur complement of Q_H0:
    s = q_rr - c^H Q_H0^-1 c, u = t_top - c^H Q_H0^-1 t_H0, and
    T = |u|^2 / (s + 1/sigma_T^2). Since u is linear in y, an observation
    y + alpha r has statistic u + alpha s.

    With Sigma_c = I / lam and P = b_r b_r^H / ||b_r||^2,
    Q_H0 = A0 kron (I - P) + A1 kron P, A_k = X^H diag(w_k) X + lam I,
    w_0 = 1/d, w_1 = 1/(d + m ||b_r||^2) (the eigenvalues of Sigma_s[tau]^-1).
    The target direction v splits into e_0 = (I - P) v and e_1 = P v, and for
    each block z_k = A_k^-1 a_tx and c_k = w_k * (X z_k) give, from
    A_k - X^H diag(w_k) X = lam I,
    u = lam sum_k c_k^H Y conj(e_k),
    s = lam sum_k ||e_k||^2 c_k^H (X a_tx).
    Neither is a difference of large terms. This is the one-frame case of
    :func:`_clutter_weights`: one Nt x Nt solve per block (one block when
    m ||b_r||^2 = 0), whatever Nr is.
    """
    lam, c, e, s = _clutter_weights(frame.x[None], channels, config, clutter_model)
    u = lam * np.einsum("kt,tk->", c[:, 0].conj(), observation.y_slots @ e.conj().T)
    return complex(u), float(s[0])


def conditional_statistics(x: np.ndarray, channels: ChannelRealization,
                           config: ScenarioConfig,
                           clutter_model: ClutterModel) -> tuple[np.ndarray, np.ndarray]:
    """s and the H0 variance v of u given the transmit frame, each of shape (B,),
    for a stack of frames x (B, tau, Nt), from the weights c (k, B, tau) of
    :func:`_clutter_weights`.

    u = lam sum_k c_k^H Y conj(e_k) (:func:`schur_statistics`) is linear in the
    observation Y. Given X, every term of Y under H0 is zero-mean Gaussian:
    clutter C and inter-BS residual E (i.i.d. entries of variance
    sigma_c^2 = 1/lam and zeta^2, fixed over the slot) enter as X (C + E)^T,
    repeater noise as nu w_R b_r^T, BS noise as W. Since e_0 is orthogonal to
    e_1, u | X ~ CN(0, v) with
    v = lam^2 sum_k [(sigma_c^2 + zeta^2) ||e_k||^2 ||c_k^H X||^2
                     + (sigma_BS^2 ||e_k||^2 + |nu|^2 sigma_R^2 |b_r^H e_k|^2) ||c_k||^2]
    (Kay, Fundamentals of Statistical Signal Processing Vol. II, sec. 13).
    At zeta^2 = 0 the detector's noise model is exact and v = s, which is
    returned as v without evaluating the formula.
    """
    lam, c, e, s = _clutter_weights(x, channels, config, clutter_model)
    if config.residual_interbs_power == 0.0:
        v = s.copy()
    else:
        m = abs(config.nu) ** 2 * config.repeater_noise_watt
        e_sq = (e.conj()[:, None, :] @ e[..., None])[..., 0].real  # (k, 1): ||e_k||^2
        xc_sq = np.sum(np.abs(c.conj()[..., None, :] @ x) ** 2, axis=(-2, -1))  # ||c_k^H X||^2
        noise = config.bs_noise_watt * e_sq + m * np.abs(e @ channels.b_rx.conj())[:, None] ** 2
        v = np.sum(lam ** 2 * ((1.0 / lam + config.residual_interbs_power) * e_sq * xc_sq
                               + noise * np.sum(np.abs(c) ** 2, axis=-1)), axis=0)
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(v))):
        raise NumericalDomainError("conditional statistics are not finite")
    return s, v


# -- independent oracle -------------------------------------------------------

def oracle_loglike_ratio(observation: SensingObservation, frame: TransmitFrame,
                         channels: ChannelRealization, config: ScenarioConfig,
                         clutter_model: ClutterModel) -> float:
    """Brute-force log-likelihood-ratio via dense real-valued least squares.

    Both hypotheses are maximized by whitened linear regression on the stacked
    observation, with prior terms appended as extra rows. Nothing from the
    closed-form assembly path is reused: regressor columns are enumerated from
    basis clutter matrices and the model terms are recomputed inline. The
    constant ln(C_H1/C_H0) is excluded, matching the threshold absorption.
    """
    x = frame.x
    y = observation.y_slots
    nu = config.nu
    nt, nr = config.n_tx_antennas, config.n_rx_antennas
    tau_l = x.shape[0]
    n_c = nt * nr
    if n_c + 1 > 128:
        raise OracleFailureError("oracle is restricted to small instances")

    # whitened blocks, one per channel use
    rank1 = (abs(nu) ** 2 * config.repeater_noise_watt) * np.outer(channels.b_rx,
                                                                   channels.b_rx.conj())
    rows_a = []  # whitened [r | B] blocks
    rows_y = []
    v = channels.a_rx + nu * channels.g_rep * channels.b_rx
    for tau in range(tau_l):
        s = (config.residual_interbs_power * float(np.vdot(x[tau], x[tau]).real)
             + config.bs_noise_watt) * np.eye(nr) + rank1
        evals, evecs = np.linalg.eigh(s)
        if np.any(evals <= 0):
            raise OracleFailureError("noise covariance not positive definite")
        white = (evecs / np.sqrt(evals)) @ evecs.conj().T  # S^{-1/2}
        r_tau = v * (channels.a_tx @ x[tau])
        b_tau = np.zeros((nr, n_c), dtype=complex)
        for t_idx in range(nt):
            for r_idx in range(nr):
                basis = np.zeros((nr, nt))
                basis[r_idx, t_idx] = 1.0
                b_tau[:, t_idx * nr + r_idx] = basis @ x[tau]
        rows_a.append(white @ np.column_stack([r_tau, b_tau]))
        rows_y.append(white @ y[tau])

    # prior rows: alpha ~ CN(0, sigma_T^2), c ~ CN(0, Sigma_c)
    evals_c, evecs_c = np.linalg.eigh(clutter_model.covariance)
    if np.any(evals_c <= 0):
        raise OracleFailureError("clutter covariance not positive definite")
    white_c = (evecs_c / np.sqrt(evals_c)) @ evecs_c.conj().T
    alpha_prior = np.zeros((1, n_c + 1), dtype=complex)
    alpha_prior[0, 0] = 1.0 / np.sqrt(config.rcs_variance)
    c_prior = np.column_stack([np.zeros((n_c, 1)), white_c])

    a_full = np.vstack(rows_a + [alpha_prior, c_prior])
    b_full = np.concatenate(rows_y + [np.zeros(1 + n_c)])

    def min_residual(a_cplx: np.ndarray, b_cplx: np.ndarray) -> float:
        a_re = np.block([[a_cplx.real, -a_cplx.imag], [a_cplx.imag, a_cplx.real]])
        b_re = np.concatenate([b_cplx.real, b_cplx.imag])
        z, _, _, _ = np.linalg.lstsq(a_re, b_re, rcond=None)
        res = a_re @ z - b_re
        grad = a_re.T @ res
        scale = np.linalg.norm(a_re.T @ b_re) + 1.0
        if np.linalg.norm(grad) > 1e-8 * scale:
            raise OracleFailureError("least-squares solve did not reach stationarity")
        return float(res @ res)

    f1_min = min_residual(a_full, b_full)
    f0_min = min_residual(a_full[:, 1:], b_full)  # drop the alpha column and its prior row
    return f0_min - f1_min


def random_small_instance(rng: np.random.Generator, n_tx: int = 2, n_rx: int = 2,
                          slot_length: int = 3, full_clutter_cov: bool = False):
    """Synthetic O(1)-scale instance for detector/oracle cross-checks.

    Returns (observation, frame, channels, config, clutter_model). The
    observation vector is arbitrary data, not a model draw; both the closed
    form and the oracle must agree on any input.
    """
    def cn(shape):
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)

    config = ScenarioConfig(
        n_tx_antennas=n_tx, n_rx_antennas=n_rx, n_users=0, slot_length=slot_length,
        sensing_power_fraction=1.0,
        bs_noise_power_watt=float(rng.uniform(0.3, 1.5)),
        repeater_noise_power_watt=float(rng.uniform(0.3, 1.5)),
        residual_interbs_power=float(rng.uniform(0.0, 0.4)),
        rcs_variance=float(rng.uniform(0.2, 3.0)),
        repeater_gain_db=float(rng.uniform(-3.0, 6.0)),
        repeater_phase_rad=float(rng.uniform(0.0, 2 * np.pi)),
        clutter_suppression=1.0,
    )
    channels = ChannelRealization(
        f_user=np.zeros((0, n_tx), dtype=complex), h_user=np.zeros(0, dtype=complex),
        a_tx=cn(n_tx), a_rx=cn(n_rx), b_tx=cn(n_tx), b_rx=cn(n_rx),
        g_rep=complex(cn(())), interbs_error=np.zeros((n_rx, n_tx), dtype=complex),
        clutter=np.zeros((n_rx, n_tx), dtype=complex), rcs=0.0 + 0.0j,
    )
    x = cn((slot_length, n_tx))
    frame = TransmitFrame(x=x, user_symbols=np.zeros((slot_length, 0), dtype=complex),
                          sensing_symbols=cn(slot_length), user_fractions=np.zeros(0),
                          sensing_fraction=1.0)
    if full_clutter_cov:
        m = cn((n_tx * n_rx, n_tx * n_rx))
        cov = m @ m.conj().T + 0.5 * np.eye(n_tx * n_rx)
        clutter_model = ClutterModel(covariance=cov)
    else:
        clutter_model = ClutterModel.iid(float(rng.uniform(0.3, 2.0)), n_tx, n_rx)
    observation = SensingObservation(y_slots=cn((slot_length, n_rx)))
    return observation, frame, channels, config, clutter_model


ORACLE_REL_TOL = 1e-6


def oracle_check(n_instances: int = 100, seed: int = 0, n_tx: int = 2, n_rx: int = 2,
                 slot_length: int = 3) -> tuple[float, float]:
    """Closed form vs oracle over random instances.

    Returns (max relative error, tolerance); the check passes when
    max_err <= tol with tol = ORACLE_REL_TOL (relative to 1 + |T|).
    """
    _check_type("n_instances", n_instances, int)
    _check_type("seed", seed, int)
    if n_instances < 1:
        raise ConfigError(f"oracle check needs at least one instance, got {n_instances}")
    if seed < 0:
        raise ConfigError(f"oracle check seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    max_err = 0.0
    for i in range(n_instances):
        inst = random_small_instance(rng, n_tx=n_tx, n_rx=n_rx, slot_length=slot_length,
                                     full_clutter_cov=(i % 5 == 4))
        obs, frame, channels, config, clutter_model = inst
        ws = assemble_statistics(obs, frame, channels, config, clutter_model)
        t = glrt_statistic(ws)
        t_oracle = oracle_loglike_ratio(obs, frame, channels, config, clutter_model)
        max_err = max(max_err, abs(t - t_oracle) / (1.0 + abs(t)))
    return max_err, ORACLE_REL_TOL


# -- Monte Carlo trials ---------------------------------------------------------

def trial_rng(master_seed: int, key: tuple[int, ...], index: int) -> np.random.Generator:
    """Deterministic substream keyed (*key, index), e.g. one block of trials;
    independent of scheduling order."""
    return np.random.default_rng(np.random.SeedSequence(master_seed,
                                                        spawn_key=(*key, index)))


def trial_statistics(config: ScenarioConfig, channels: ChannelRealization,
                     clutter_model: ClutterModel, precoders: PrecoderSet,
                     rng: np.random.Generator) -> tuple[complex, float, complex]:
    """One fully simulated trial reduced to its sufficient statistics (u, s, alpha_1):
    the reference simulation for :func:`block_statistics`.

    Deterministic channels (user/target/repeater links) stay fixed; clutter,
    inter-BS residual, symbols and noises are fresh, drawn in that order, and
    the observation is simulated with the target path left out. The RCS is
    drawn last, at unit variance, as alpha_1, so the statistic of this trial at
    any RCS variance is :func:`glrt_from_statistics` of the triple (see
    :func:`schur_statistics`), and its H0 statistic that of (u, s, 0).
    """
    entry_var = clutter_model.entry_variance
    if entry_var is None:
        raise NumericalDomainError("per-trial clutter resampling needs an i.i.d. model")
    ch = redraw_nuisance(channels, config, entry_var, rng, force_null=True)
    frame = build_transmit_frame(precoders, config, rng)
    noise = draw_noise(config, rng)
    obs = receive_bs_slot(frame, ch, noise, config)
    u, s = schur_statistics(obs, frame, ch, config, clutter_model)
    return u, s, draw_rcs(1.0, rng)


TRIALS_PER_BLOCK = 64  # tau-row symbol frames per block; independent of the worker count


def frame_rows(config: ScenarioConfig) -> int:
    """Rows of the frame that :func:`block_statistics` evaluates per trial: the
    slot's tau symbol rows, or at zeta^2 = 0 the min(tau, K + 1, Nt) rows of a
    Bartlett factor."""
    if config.residual_interbs_power == 0.0:
        return min(config.slot_length, config.user_fractions.size + 1, config.n_tx_antennas)
    return config.slot_length


def block_trials(config: ScenarioConfig) -> int:
    """Trials in one block: as many as stack no more frame rows than
    ``TRIALS_PER_BLOCK`` frames of tau symbol rows, 384 on the default config
    (Bartlett frames of 8 rows) and 64 at zeta^2 > 0."""
    return TRIALS_PER_BLOCK * (config.slot_length // frame_rows(config))


def block_statistics(config: ScenarioConfig, channels: ChannelRealization,
                     clutter_model: ClutterModel, precoders: PrecoderSet,
                     draws: Sequence[tuple[np.random.Generator, int]]) -> np.ndarray:
    """Rows (u, s, alpha_1) of blocks of trials evaluated in one kernel call: for
    each (rng, n) of ``draws`` in turn, the first n trials of a block drawn from
    rng. Shape (sum of the n, 3); every n is at least 1, and together they hold
    at most :func:`block_trials` trials.

    Per trial, a tau x p symbol matrix S (p = K + 1), one unit complex normal
    xi and alpha_1 enter; the frame is X = S M
    (:func:`~repisac.precoding.beam_matrix`), and u = sqrt(v) xi has the law of
    :func:`trial_statistics`' u given X (:func:`conditional_statistics`): no
    clutter, residual or noise is drawn and no observation is simulated. Under
    H0 the rows are read with alpha_1 = 0.

    At zeta^2 = 0 every row of the slot has the same noise weights, so (s, v)
    depend on X only through X^H X = M^H (S^H S) M. When p > Nt, M = Q_M R_M
    (reduced QR, R_M of Nt x Nt) and S Q_M has i.i.d. CN(0, 1) entries, so X has
    the law of S' R_M for a tau x Nt symbol matrix S': the beams become R_M and
    p becomes Nt. With S = QR the frame R M then gives the same (s, v) as S M.
    A trial draws, instead of S, the m x p upper-trapezoidal Bartlett factor R
    (m = :func:`frame_rows`), which has the law of QR's R: |R_ii|^2 ~
    Gamma(tau - i, 1) and R_ij ~ CN(0, 1) for j > i (Goodman, Ann. Math.
    Statist. 34:152, 1963). A block draws the |R_ii|^2 of all its
    :func:`block_trials` trials, then the R_ij, xi and alpha_1 of its n trials
    trial-major in one standard-normal array; at zeta^2 > 0, only S, xi and
    alpha_1 of its n trials. So a short block draws no normals for trials it
    does not hold, and is a prefix of the full one; and since a frame's (s, v)
    have the same bits alone or in any stack, a block's rows do not depend on
    the blocks evaluated with it.

    The frames of every block of the call, the standard-normal array, sized for
    one block's trials, and the conj(X) and A_k of :func:`_clutter_weights` are
    this thread's working arrays (:func:`_work`), which the next call of the
    same shape reuses. The Bartlett factors and the returned rows are allocated
    per call.
    """
    size = block_trials(config)
    counts = [n for _, n in draws]
    if not counts or min(counts) < 1 or sum(counts) > size:
        raise ValueError(f"a block holds 1 to {size} trials, got "
                         + (" + ".join(map(str, counts)) or "none"))
    beams = beam_matrix(precoders, config)
    bartlett = config.residual_interbs_power == 0.0
    if bartlett and beams.shape[0] > beams.shape[1]:
        beams = np.linalg.qr(beams, mode="r")
    tau, p = config.slot_length, beams.shape[0]
    m = frame_rows(config)
    # complex normals per trial: the R_ij above the diagonal, or S; then xi and alpha_1
    n_cn = (m * p - m * (m + 1) // 2 if bartlett else tau * p) + 2
    x = _work("frames", (sum(counts), m, beams.shape[1]))
    xi, alpha1 = np.empty((2, len(x)), dtype=complex)
    start = 0
    for rng, n in draws:
        if bartlett:  # for the whole block, so the normals start where a full block's do
            gammas = rng.standard_gamma(tau - np.arange(m), (size, m))[:n]
        z = rng.standard_normal(out=_work("normals", (n, 2 * n_cn), float)).view(complex)
        z *= np.sqrt(0.5)
        if bartlett:
            factor = np.zeros((n, m, p), dtype=complex)
            upper = np.triu_indices(m, 1, p)
            factor[:, upper[0], upper[1]] = z[:, :-2]
            factor[:, np.arange(m), np.arange(m)] = np.sqrt(gammas)
        else:
            factor = z[:, :-2].reshape(n, tau, p)
        np.matmul(factor, beams, out=x[start:start + n])
        xi[start:start + n], alpha1[start:start + n] = z[:, -2:].T
        start += n
    del factor  # a Bartlett factor is its own array: freed before the solves
    s, v = conditional_statistics(x, channels, config, clutter_model)
    return np.column_stack([np.sqrt(v) * xi, s, alpha1])


def glrt_from_statistics(u, s, alpha1, sigma_t_sq):
    """T(sigma_T^2) = |u + sqrt(sigma_T^2) alpha_1 s|^2 / (s + 1/sigma_T^2).

    Broadcasts over trials and RCS variances. Only real additions,
    multiplications, divisions and square roots are used, each correctly
    rounded elementwise, so a trial's T has the same bits whatever array it
    is evaluated in.
    """
    scale = np.sqrt(sigma_t_sq) * s
    z_re = np.real(u) + scale * np.real(alpha1)
    z_im = np.imag(u) + scale * np.imag(alpha1)
    return (z_re * z_re + z_im * z_im) / (s + 1.0 / sigma_t_sq)


def threshold_from_null_stats(t_values: np.ndarray,
                              pfa_target: float) -> np.ndarray | float:
    """Empirical (1 - PFA) quantile of H0 statistics along the last axis,
    higher interpolation (so the threshold is one of the statistics)."""
    return np.quantile(np.asarray(t_values, float), 1.0 - pfa_target, axis=-1,
                       method="higher")

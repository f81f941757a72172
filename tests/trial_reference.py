"""The per-slot reference simulation of one trial, and its one-frame statistic.

:func:`trial_statistics` simulates a whole slot: it redraws the nuisance
(clutter, inter-BS residual), builds the transmit frame from fresh symbols,
draws the noises and receives the slot at the sensing BS, then reduces the
observation to the GLRT's sufficient statistics with :func:`schur_statistics`
and draws the RCS. ``repisac.detector.block_statistics`` draws the same rows
without simulating an observation (u given the frame, in closed form), and the
tests compare the two. :func:`schur_statistics` is, in turn, checked against
the dense reference ``assemble_statistics`` + ``glrt_statistic``.

Neither function is used by any study: the package keeps one Monte Carlo
kernel, and these stay here as the references its tests compare against.
"""

from __future__ import annotations

import numpy as np

from repisac.channel import ChannelRealization, ClutterModel, draw_rcs, redraw_nuisance
from repisac.detector import _clutter_weights
from repisac.errors import NumericalDomainError
from repisac.precoding import PrecoderSet, TransmitFrame, build_transmit_frame
from repisac.propagation import SensingObservation, draw_noise, receive_bs_slot
from repisac.scenario import ScenarioConfig


def schur_statistics(observation: SensingObservation, frame: TransmitFrame,
                     channels: ChannelRealization, config: ScenarioConfig,
                     clutter_model: ClutterModel) -> tuple[complex, float]:
    """GLRT sufficient statistics (u, s) without forming Q_H0, for i.i.d. clutter.

    With c = sum B^H Sigma_s^-1 r (``cross``) and Q_H0, t_H0, t_top, q_rr as
    ``assemble_statistics`` builds them, s = q_rr - c^H Q_H0^-1 c,
    u = t_top - c^H Q_H0^-1 t_H0 and T = |u|^2 / (s + 1/sigma_T^2). Since u is
    linear in y, an observation y + alpha r has statistic u + alpha s. This is
    the one-frame case of ``repisac.detector._clutter_weights``, whose docstring
    derives u = lam sum_k c_k^H Y conj(e_k) and s from the block structure of
    Q_H0: one Nt x Nt solve per block (one block when m ||b_r||^2 = 0),
    whatever Nr is.
    """
    lam, c, e, _, s = _clutter_weights(frame.x[None], channels, config, clutter_model)
    u = lam * np.einsum("kt,tk->", c[:, 0].conj(), observation.y_slots @ e.conj().T)
    return complex(u), float(s[0])


def trial_statistics(config: ScenarioConfig, channels: ChannelRealization,
                     clutter_model: ClutterModel, precoders: PrecoderSet,
                     rng: np.random.Generator) -> tuple[complex, float, complex]:
    """One fully simulated trial reduced to its sufficient statistics (u, s, alpha_1):
    the reference simulation for ``repisac.detector.block_statistics``.

    Deterministic channels (user/target/repeater links) stay fixed; clutter,
    inter-BS residual, symbols and noises are fresh, drawn in that order, and
    the observation is simulated with the target path left out. The RCS is
    drawn last, at unit variance, as alpha_1, so the statistic of this trial at
    any RCS variance is ``glrt_from_statistics`` of the triple (see
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

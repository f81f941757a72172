"""Study harness: study setup, Monte Carlo trials, threshold calibration,
CSV output.

Every entry point (the studies, the CLI, the tests) draws its geometry and
channels through :func:`draw_drop`. A drop holds only its deterministic
links: a slot's clutter, inter-BS residual and RCS are nuisance, fresh in each
trial (``redraw_nuisance`` draws them in the reference trial).
:func:`calibrate`, the detection study and its grid suggestion share one
setup (:func:`_pod_drop`) and one trial kernel (:func:`_trial_block`), and take
the threshold from one H0 pass on key (STUDY_POD, 2), so one config gives one
threshold wherever it is asked for.
Two studies are provided: probability of detection versus RCS variance (one
H0 pass and one H1 pass per repeater gain; each trial's statistic at every
grid point follows from its sufficient statistics (u, s, alpha_1), read with
alpha_1 = 0 in the H0 pass, and the threshold is recalibrated per grid point
from the H0 pass), and the CDF of downlink per-user spectral efficiency
across precoder choices, in blocks of ``DROPS_PER_BLOCK`` drops. A block of
drops is drawn in one pass: each drop draws its numbers from its own two
keys, and the geometry and links of all its drops are evaluated as arrays
with a leading drop axis; it then takes one stacked RZF solve per repeater
setting. Random substreams are keyed by (master_seed, study, ..., index): two
per drop, and one per block of ``TRIALS_PER_BLOCK`` Monte Carlo trials.
Blocks of drops and of trials are the units that a study's one mapper
(:func:`_mapper`) hands to worker processes, so results are byte-identical
regardless of worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat

import numpy as np

from .channel import (ChannelRealization, ClutterModel, channel_draws, clutter_covariance,
                      gen_channels, realize_channels)
from .comm_metrics import downlink_metrics
from .detector import (TRIALS_PER_BLOCK, block_statistics, glrt_from_statistics,
                       threshold_from_null_stats, trial_rng)
from .errors import ConfigError, NumericalDomainError
from .precoding import (PrecoderSet, build_precoders, effective_channels, rzf_precoders,
                        target_precoder)
from .scenario import Geometry, ScenarioConfig, drop_entities, entity_draws, place_entities

STUDY_POD = 1
STUDY_SECDF = 2
DROPS_PER_BLOCK = 16


@dataclass
class StudyResult:
    kind: str  # "pod_vs_rcs" | "se_cdf"
    header: tuple[str, ...]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)

    def to_csv_bytes(self) -> bytes:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(str(v) for v in row))  # str(float) is its repr
        return ("\n".join(lines) + "\n").encode("ascii")

    def write_csv(self, path: str) -> None:
        try:
            with open(path, "wb") as fh:
                fh.write(self.to_csv_bytes())
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


# -- study setup ---------------------------------------------------------------

def draw_drop(config: ScenarioConfig, study: int,
              index=0) -> tuple[Geometry, ChannelRealization]:
    """Geometry and deterministic channels of drop ``index`` of a study, or of
    each drop of a sequence ``index`` of drop indices (a block of drops).

    Drop d draws its geometry from key (study, 0, d) and its channels from
    (study, 1, d). A block draws each drop's numbers from its own keys and
    evaluates the geometry and the links of all its drops in one pass, with a
    leading drop axis on the drawn positions and on every channel field; a drop
    is bit for bit the same wherever it falls. The detection study, its grid
    suggestion and :func:`calibrate` all work on drop 0 of ``STUDY_POD``.
    """
    seed = config.master_seed
    if np.ndim(index) == 0:
        geometry = drop_entities(config, trial_rng(seed, (study, 0), index))
        return geometry, gen_channels(geometry, config, trial_rng(seed, (study, 1), index))
    geometry = place_entities(config, np.array(
        [entity_draws(config, trial_rng(seed, (study, 0), d)) for d in index]))
    return geometry, realize_channels(geometry, config, np.array(
        [channel_draws(config, trial_rng(seed, (study, 1), d)) for d in index]))


def _pod_drop(config: ScenarioConfig) -> tuple[ChannelRealization, ClutterModel]:
    """Channels and clutter model of drop 0 of ``STUDY_POD``: every PoD entry point's setup."""
    geometry, channels = draw_drop(config, STUDY_POD)
    return channels, clutter_covariance(config, geometry)


# -- deterministic parallel execution ------------------------------------------

@contextmanager
def _mapper(workers: int):
    """In-order ``map(fn, units)`` of a study: a loop, or one pool of <= cpu_count processes."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        yield lambda fn, units: [fn(unit) for unit in units]
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, units: list(
            pool.map(fn, units, chunksize=max(1, len(units) // (8 * workers))))


def _trial_block(config: ScenarioConfig, channels: ChannelRealization,
                 clutter_model: ClutterModel, precoders: PrecoderSet, key: tuple[int, ...],
                 n_trials: int, block: int) -> np.ndarray:
    """Rows of block ``block`` of a pass of ``n_trials`` trials, drawn from key
    (*key, block)."""
    size = min(TRIALS_PER_BLOCK, n_trials - block * TRIALS_PER_BLOCK)
    try:
        return block_statistics(config, channels, clutter_model, precoders,
                                trial_rng(config.master_seed, key, block), size)
    except NumericalDomainError as exc:
        raise NumericalDomainError(f"trial block with seed key {(*key, block)}: {exc}") from exc


def _trial_pass(config: ScenarioConfig, channels: ChannelRealization,
                clutter_model: ClutterModel, precoders: PrecoderSet,
                key: tuple[int, ...], n_trials: int, run) -> np.ndarray:
    """Rows (u, s, alpha_1) of ``n_trials`` Monte Carlo trials, in trial order.

    Block b holds trials b * TRIALS_PER_BLOCK onwards and draws from key
    (*key, b); a block is the unit that ``run`` (:func:`_mapper`) hands to
    workers, so no row depends on the worker count. A pass depends on neither
    the hypothesis nor ``config.rcs_variance``: every trial's statistic follows
    from its row (``glrt_from_statistics``, with alpha_1 = 0 under H0).
    """
    parts = run(partial(_trial_block, config, channels, clutter_model, precoders, key,
                        n_trials),
                range(math.ceil(n_trials / TRIALS_PER_BLOCK)))
    return np.concatenate(parts) if parts else np.zeros((0, 3), dtype=complex)


def run_trials(config: ScenarioConfig, channels: ChannelRealization,
               clutter_model: ClutterModel, precoders: PrecoderSet,
               key: tuple[int, ...], n_trials: int, force_null: bool,
               workers: int = 1) -> np.ndarray:
    """Test statistics of ``n_trials`` Monte Carlo trials at ``config.rcs_variance``,
    in trial order; under ``force_null`` (H0) the target echo is left out."""
    with _mapper(workers) as run:
        u, s, alpha1 = _trial_pass(config, channels, clutter_model, precoders, key,
                                   n_trials, run).T
    return glrt_from_statistics(u, s.real, 0.0 if force_null else alpha1, config.rcs_variance)


# -- threshold calibration -----------------------------------------------------

def _thresholds(config: ScenarioConfig, channels: ChannelRealization,
                clutter_model: ClutterModel, precoders: PrecoderSet,
                sigma_t_sq: np.ndarray, run) -> tuple[np.ndarray, np.ndarray]:
    """GLRT threshold and in-sample false-alarm rate at each RCS variance, from
    the ``calibration_trials`` H0 trials (target absent) on key (STUDY_POD, 2)."""
    u, s, _ = _trial_pass(config, channels, clutter_model, precoders, (STUDY_POD, 2),
                          config.calibration_trials, run).T
    t_null = glrt_from_statistics(u, s.real, 0.0, sigma_t_sq[:, None])
    thresholds = threshold_from_null_stats(t_null, config.pfa_target)
    return thresholds, np.mean(t_null >= thresholds[:, None], axis=1)


def calibrate(config: ScenarioConfig, workers: int = 1) -> tuple[float, float]:
    """GLRT threshold for ``config.pfa_target`` from ``calibration_trials`` H0 trials.

    Returns (threshold, in-sample false-alarm rate) at ``config.rcs_variance``.
    The setup is the detection study's (:func:`_pod_drop`, precoders at the
    configured repeater setting), the H0 trials draw from key (STUDY_POD, 2),
    and the study derives its thresholds from the same pass the same way, so
    ``repisac calibrate`` and ``repisac pod`` give the same threshold.
    """
    with _mapper(workers) as run:
        channels, clutter_model = _pod_drop(config)
        thresholds, pfas = _thresholds(config, channels, clutter_model,
                                       build_precoders(config, channels),
                                       np.array([config.rcs_variance]), run)
    return float(thresholds[0]), float(pfas[0])


# -- detection study: PoD versus RCS variance ----------------------------------

POD_HEADER = ("sigma_t_sq", "repeater_gain_db", "pod", "threshold",
              "empirical_pfa", "trials")


def run_pod_vs_rcs(config: ScenarioConfig, rcs_grid,
                   repeater_gains_db=None, workers: int = 1) -> StudyResult:
    """Probability of detection over an RCS-variance grid.

    Geometry and deterministic channels (drop 0) are fixed for the whole study;
    each trial draws its symbols, its clutter, residual and noise term given
    the frame, and (under H1) the RCS. Per repeater setting, one pass of
    ``calibration_trials`` H0 trials and one pass of ``mc_trials`` H1 trials
    serve every grid point (the RCS variance only scales each trial's
    sufficient statistics), and the GLRT threshold is recalibrated per grid
    point from the H0 pass. The default gains are the configured one and
    repeater-off, or repeater-off alone when the config has the repeater off;
    no gains, or equal gains (20, 20.0), are a ``ConfigError`` raised before
    the drop is drawn.

    ``metadata["mean_scnr"]`` maps each ``repeater_gain_db`` of the CSV to the
    mean over its H1 pass of s, the target energy per unit RCS left after the
    clutter is eliminated (the post-clutter sensing SCNR per unit RCS).
    """
    grid = np.array([float(v) for v in rcs_grid])
    if grid.size == 0:
        raise ConfigError("rcs grid must be nonempty")
    if not np.all(np.isfinite(grid) & (grid > 0.0)):
        raise ConfigError("rcs variance grid values must be positive and finite")
    if repeater_gains_db is None:
        repeater_gains_db = (config.repeater_gain_db, None) if config.repeater_on else (None,)
    gain_values = [float("-inf") if g is None else float(g) for g in repeater_gains_db]
    if not gain_values:
        raise ConfigError("pod study needs at least one repeater gain")
    if len(set(gain_values)) < len(gain_values):
        raise ConfigError(f"repeater gains must be distinct, got {tuple(repeater_gains_db)}")
    channels, clutter_model = _pod_drop(config)

    rows = []
    mean_scnr = {}
    warnings_meta = []
    # every grid point and gain is calibrated on an H0 pass of this size
    expected_alarms = config.calibration_trials * config.pfa_target
    if expected_alarms < 10:
        warnings_meta.append(f"calibration under-resolved: {config.calibration_trials} "
                             f"H0 trials at PFA {config.pfa_target} expect "
                             f"{expected_alarms:g} false alarms (fewer than 10)")
    with _mapper(workers) as run:
        for gain_db, gain_value in zip(repeater_gains_db, gain_values):
            cfg_gain = (config.with_updates(repeater_on=False) if gain_db is None else
                        config.with_updates(repeater_on=True, repeater_gain_db=gain_value))
            precoders = build_precoders(cfg_gain, channels)
            thresholds, pfas = _thresholds(cfg_gain, channels, clutter_model, precoders, grid,
                                           run)
            u, s, alpha1 = _trial_pass(cfg_gain, channels, clutter_model, precoders,
                                       (STUDY_POD, 3), cfg_gain.mc_trials, run).T
            mean_scnr[gain_value] = float(np.mean(s.real))
            t_hit = glrt_from_statistics(u, s.real, alpha1, grid[:, None])
            pods = np.mean(t_hit >= thresholds[:, None], axis=1)
            rows += [(float(sigma_t_sq), gain_value, float(pod), float(threshold), float(pfa),
                      cfg_gain.mc_trials)
                     for sigma_t_sq, pod, threshold, pfa in zip(grid, pods, thresholds, pfas)]
    return StudyResult(kind="pod_vs_rcs", header=POD_HEADER, rows=rows,
                       metadata={"calibration_trials": config.calibration_trials,
                                 "pfa_target": config.pfa_target,
                                 "mean_scnr": mean_scnr,
                                 "warnings": warnings_meta})


def suggest_rcs_grid(config: ScenarioConfig, n_points: int = 8) -> np.ndarray:
    """Log grid of RCS variances from 0.05 / s_bar to 2000 / s_bar, where s_bar is the
    mean s (``mean_scnr``) of one pilot block of trials on the study's setup, key
    (STUDY_POD, 9, 0). For a Swerling-I target at zeta^2 = 0,
    PoD = PFA^(1 / (1 + sigma_T^2 s)): the grid spans the detector's transition."""
    if n_points < 1:
        raise ConfigError(f"rcs grid needs at least one point, got {n_points}")
    channels, clutter_model = _pod_drop(config)
    rows = _trial_block(config, channels, clutter_model, build_precoders(config, channels),
                        (STUDY_POD, 9), TRIALS_PER_BLOCK, 0)
    s_bar = float(np.mean(rows[:, 1].real))
    if not s_bar > 0.0:
        raise NumericalDomainError(f"pilot trial block with seed key {(STUDY_POD, 9, 0)}: "
                                   "no target energy")
    return np.geomspace(0.05 / s_bar, 2000.0 / s_bar, n_points)


# -- downlink study: SE CDF across precoders -----------------------------------

SECDF_HEADER = ("mode", "repeater", "se", "cdf")


def _secdf_block(config: ScenarioConfig, modes, rep_configs, drops: range) -> np.ndarray:
    """SE of every user on a block of drops (drawn in one pass), shape (modes,
    rep_configs, drops, users), NaN on a degenerate drop. The RZF beams and the SINR
    terms no sensing beam changes are computed once per repeater setting's config."""
    se = np.empty((len(modes), len(rep_configs), len(drops), config.n_users))
    try:
        _, channels = draw_drop(config, STUDY_SECDF, drops)
        for r, cfg in enumerate(rep_configs):
            fdot = effective_channels(channels, cfg)
            p_t = None if cfg.sensing_power_fraction == 0.0 else np.stack(
                [target_precoder(mode, channels.a_tx, channels.b_tx, fdot) for mode in modes])
            precoders = PrecoderSet(rzf_precoders(fdot, cfg.zf_regularizer_value), p_t)
            se[:, r] = downlink_metrics(precoders, channels, cfg).se
    except (np.linalg.LinAlgError, NumericalDomainError) as exc:
        raise NumericalDomainError(f"SE-CDF drops with seed keys ({STUDY_SECDF}, 0|1, "
                                   f"{drops[0]}..{drops[-1]}): {exc}") from exc
    return se


def run_se_cdf(config: ScenarioConfig, modes=("target_centric", "comm_centric"),
               repeater_settings=(True, False), workers: int = 1) -> StudyResult:
    """Per-user SE samples over independent drops, as an empirical CDF.

    Every (mode, repeater) combination is evaluated on the same drops, in blocks of
    ``DROPS_PER_BLOCK``, each drawn in one pass (:func:`draw_drop`). A config that
    cannot run, and an empty or repeated list of modes or of repeater settings,
    raise ``ConfigError`` before any drop is drawn; a degenerate drop (sensing
    direction fully nulled) is counted (``degenerate_drops``, ``warnings``) and
    skipped, never fatal.
    """
    if config.n_users < 1:
        raise ConfigError("se_cdf study needs at least one user")
    modes, repeater_settings = tuple(modes), tuple(repeater_settings)
    for name, values in (("precoder mode", modes), ("repeater setting", repeater_settings)):
        if not values:
            raise ConfigError(f"se_cdf study needs at least one {name}")
        if len(set(values)) < len(values):  # would count each sample twice
            raise ConfigError(f"{name}s must be distinct, got {values}")
    n_drops = config.mc_trials
    combos = [(m, r) for m in modes for r in repeater_settings]
    for mode in modes:  # a mode the config cannot run fails here
        config.with_updates(precoder_mode=mode)
    rep_configs = tuple(config.with_updates(repeater_on=r) for r in repeater_settings)
    with _mapper(workers) as run:
        blocks = run(partial(_secdf_block, config, modes, rep_configs),
                     [range(d, min(d + DROPS_PER_BLOCK, n_drops))
                      for d in range(0, n_drops, DROPS_PER_BLOCK)])
    se = np.concatenate(blocks, axis=2).reshape(len(combos), n_drops, config.n_users)

    rows = []
    degenerate = {}
    for col, (mode, rep) in enumerate(combos):
        skipped = np.isnan(se[col, :, 0])
        degenerate[f"{mode}|{int(rep)}"] = int(skipped.sum())
        values = np.sort(se[col, ~skipped].ravel())
        cdf = np.arange(1, values.size + 1) / values.size
        rows += zip(repeat(mode), repeat(int(rep)), values.tolist(), cdf.tolist())
    return StudyResult(kind="se_cdf", header=SECDF_HEADER, rows=rows,
                       metadata={"drops": n_drops, "degenerate_drops": degenerate, "warnings": [
                           f"{n} of {n_drops} drops degenerate for {combo} (skipped)"
                           for combo, n in degenerate.items() if n]})

"""Study harness: study setup, Monte Carlo trials, threshold calibration,
CSV output.

A drop holds only its deterministic links: a slot's clutter, inter-BS residual
and RCS are nuisance, fresh in each trial (``redraw_nuisance`` draws them in
the reference trial). Every drop is :func:`draw_drop`, ``drop_entities`` then
``gen_channels`` on keys of their own: the PoD study's one drop
(:func:`_pod_drop`), and the SE-CDF study's blocks of drops. :func:`calibrate`,
the detection study and its grid suggestion share the PoD drop and one trial
kernel (:func:`_trial_unit`), and take the threshold from one H0 pass, so one
config gives one threshold wherever it is asked for. The studies: probability
of detection versus RCS variance (one pass per repeater gain, whose first
``calibration_trials`` trials are the H0 pass and the ``mc_trials`` after them
the H1 trials; each trial's statistic at every grid point follows from its
sufficient statistics (u, s, alpha_1), read with alpha_1 = 0 in the H0 pass,
which sets each grid point's threshold), and the CDF of downlink per-user
spectral efficiency across precoder choices (one stacked RZF solve per block
of drops and repeater setting).

The PoD drop, a block of drops (``DROPS_PER_BLOCK`` = 64, the one constant that
sets the SE study's block layout) and a block of trials (``block_trials``: 384
trials on the default config, 64 at zeta^2 > 0) draw from generators keyed
(master_seed, study, stream, index):

    (STUDY_POD, 0, 0)    the PoD drop's positions
    (STUDY_POD, 1, 0)    the PoD drop's Rayleigh channels
    (STUDY_POD, 2, b)    a gain's pass: the calibration (H0), then the H1 trials
    (STUDY_POD, 4, b)    held-out H0 trials (acceptance criterion 3)
    (STUDY_POD, 9, 0)    grid pilot
    (STUDY_SECDF, 0, b)  positions of SE-CDF drops b * DROPS_PER_BLOCK onwards
    (STUDY_SECDF, 1, b)  their Rayleigh channels

Blocks are the units that a study's one mapper (:func:`_mapper`) hands to
worker processes, one kernel call each. A block's rows depend on neither the
worker count nor the trials after it, so results are byte-identical
regardless of worker count, and a pass's first n trials are its pass of n.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat

import numpy as np

from .channel import ChannelRealization, ClutterModel, clutter_covariance, gen_channels
from .comm_metrics import downlink_metrics
from .detector import (block_statistics, block_trials, glrt_from_statistics,
                       threshold_from_null_stats, trial_rng)
from .errors import ConfigError, NumericalDomainError
from .precoding import (PrecoderSet, build_precoders, effective_channels, rzf_precoders,
                        target_precoder)
from .scenario import Geometry, ScenarioConfig, _check_type, drop_entities

STUDY_POD = 1
STUDY_SECDF = 2
DROPS_PER_BLOCK = 64
GRID_POINTS = 8  # of the suggested RCS grid


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

def _as_tuple(name: str, values) -> tuple:
    """A study's sequence argument as a tuple; a string or a value that is not
    iterable is a ``ConfigError``, not a tuple of its characters or a raw error."""
    if not isinstance(values, (str, bytes)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be a sequence, got {values!r}")


def draw_drop(config: ScenarioConfig, study: int, block: int,
              n_drops: int | None = None) -> tuple[Geometry, ChannelRealization]:
    """Geometry and deterministic channels of drop block ``block`` of ``study``:
    ``drop_entities`` on key (study, 0, block), then ``gen_channels`` on key
    (study, 1, block). One drop, or ``n_drops`` drops on a leading drop axis;
    each stream is drawn in one call, so a short block is a prefix of a longer
    one, and drop 0 of a block is its one drop."""
    geometry = drop_entities(config, trial_rng(config.master_seed, (study, 0), block), n_drops)
    return geometry, gen_channels(geometry, config,
                                  trial_rng(config.master_seed, (study, 1), block))


def _pod_drop(config: ScenarioConfig) -> tuple[ChannelRealization, ClutterModel]:
    """Channels and clutter model of the PoD study's one drop, ``draw_drop`` on
    block 0 of STUDY_POD: every PoD entry point's setup, the acceptance suite's
    included, so no block layout changes it."""
    geometry, channels = draw_drop(config, STUDY_POD, 0)
    return channels, clutter_covariance(config, geometry)


def _pod_precoders(config: ScenarioConfig, channels: ChannelRealization) -> PrecoderSet:
    """``build_precoders`` on the PoD drop; a numerical failure names the drop's seed keys."""
    try:
        return build_precoders(config, channels)
    except (np.linalg.LinAlgError, NumericalDomainError) as exc:
        raise NumericalDomainError(f"PoD drop with seed keys {(STUDY_POD, 0, 0)} and "
                                   f"{(STUDY_POD, 1, 0)}: {exc}") from exc


# -- deterministic parallel execution ------------------------------------------

@contextmanager
def _mapper(workers: int):
    """In-order ``map(fn, units)`` of a study: a loop, or one pool of <= cpu_count processes."""
    _check_type("workers", workers, int)
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if workers > 1:  # a loop asks for no cpu_count
        workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        yield lambda fn, units: [fn(unit) for unit in units]
        return
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing only when used
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, units: list(
            pool.map(fn, units, chunksize=max(1, len(units) // (8 * workers))))


def _trial_unit(config: ScenarioConfig, channels: ChannelRealization,
                clutter_model: ClutterModel, precoders: PrecoderSet,
                key: tuple[int, ...], block: tuple[int, int]) -> np.ndarray:
    """Rows of block (b, n) of ``key``: its first n trials, drawn from key (*key, b)."""
    b, n = block
    try:
        return block_statistics(config, channels, clutter_model, precoders,
                                trial_rng(config.master_seed, key, b), n)
    except NumericalDomainError as exc:
        raise NumericalDomainError(f"trial block with seed key {(*key, b)}: {exc}") from exc


def _trial_pass(config: ScenarioConfig, channels: ChannelRealization,
                clutter_model: ClutterModel, precoders: PrecoderSet,
                key: tuple[int, ...], n_trials: int, run) -> np.ndarray:
    """Rows (u, s, alpha_1) of ``n_trials`` trials on ``key``, in trial order.

    Block b holds trials b * ``block_trials`` onwards, draws from key (*key, b)
    and is one unit of ``run`` (:func:`_mapper`), so its rows depend on neither
    the worker count nor how many trials follow it: the first n trials of a
    pass are the pass of n trials. A pass depends on neither the hypothesis nor
    ``config.rcs_variance``: every trial's statistic follows from its row
    (``glrt_from_statistics``, with alpha_1 = 0 under H0).
    """
    size = block_trials(config)
    units = [(b, min(size, n_trials - b * size)) for b in range(math.ceil(n_trials / size))]
    parts = run(partial(_trial_unit, config, channels, clutter_model, precoders, key), units)
    return np.concatenate([np.zeros((0, 3), dtype=complex), *parts])


def run_trials(config: ScenarioConfig, channels: ChannelRealization,
               clutter_model: ClutterModel, precoders: PrecoderSet,
               key: tuple[int, ...], n_trials: int, force_null: bool,
               workers: int = 1) -> np.ndarray:
    """Test statistics of ``n_trials`` Monte Carlo trials at ``config.rcs_variance``,
    in trial order; under ``force_null`` (H0) the target echo is left out. An
    ``n_trials`` that is not a nonnegative integer is a ``ConfigError``."""
    _check_type("n_trials", n_trials, int)
    if n_trials < 0:
        raise ConfigError(f"n_trials must be nonnegative, got {n_trials}")
    with _mapper(workers) as run:
        rows = _trial_pass(config, channels, clutter_model, precoders, key, n_trials, run)
    u, s, alpha1 = rows.T
    return glrt_from_statistics(u, s.real, 0.0 if force_null else alpha1, config.rcs_variance)


# -- threshold calibration -----------------------------------------------------

def _thresholds(null_rows: np.ndarray, sigma_t_sq: np.ndarray,
                pfa_target: float) -> tuple[np.ndarray, np.ndarray]:
    """GLRT threshold and in-sample false-alarm rate at each RCS variance, from
    the rows of the H0 pass (target absent) on key (STUDY_POD, 2)."""
    u, s, _ = null_rows.T
    t_null = glrt_from_statistics(u, s.real, 0.0, sigma_t_sq[:, None])
    thresholds = threshold_from_null_stats(t_null, pfa_target)
    return thresholds, np.mean(t_null >= thresholds[:, None], axis=1)


def calibration_warnings(config: ScenarioConfig) -> list[str]:
    """The warning of a calibration whose H0 pass expects fewer than 10 false
    alarms, or none; a study calibrates every grid point and gain on one such pass."""
    expected_alarms = config.calibration_trials * config.pfa_target
    if expected_alarms >= 10:
        return []
    return [f"calibration under-resolved: {config.calibration_trials} H0 trials at PFA "
            f"{config.pfa_target} expect {expected_alarms:g} false alarms (fewer than 10)"]


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
        null_rows = _trial_pass(config, channels, clutter_model,
                                _pod_precoders(config, channels), (STUDY_POD, 2),
                                config.calibration_trials, run)
    thresholds, pfas = _thresholds(null_rows, np.array([config.rcs_variance]),
                                   config.pfa_target)
    return float(thresholds[0]), float(pfas[0])


# -- detection study: PoD versus RCS variance ----------------------------------

POD_HEADER = ("sigma_t_sq", "repeater_gain_db", "pod", "threshold",
              "empirical_pfa", "trials")


def run_pod_vs_rcs(config: ScenarioConfig, rcs_grid,
                   repeater_gains_db=None, workers: int = 1) -> StudyResult:
    """Probability of detection over an RCS-variance grid, or, when ``rcs_grid``
    is None, over the grid of :func:`suggest_rcs_grid`.

    The drop (:func:`_pod_drop`) is fixed for the whole study; each trial draws
    its symbols, its clutter, residual and noise term given the frame, and
    (under H1) the RCS. Per repeater setting, one pass of ``calibration_trials
    + mc_trials`` trials on key (STUDY_POD, 2) (:func:`_trial_pass`) serves
    every grid point (the RCS variance only scales each trial's sufficient
    statistics): its first ``calibration_trials`` trials are the H0 pass, from
    which the GLRT threshold is recalibrated per grid point, exactly as
    :func:`calibrate` takes it, and the ``mc_trials`` after them are the H1
    trials. The default gains are the configured one and repeater-off, or
    repeater-off alone when the config has the repeater off. A grid or gains
    that is a string or not a sequence, no gains, equal gains (20, 20.0), a gain
    or grid value that is not a finite number (inf, nan, True) and a worker
    count that is not an integer of at least 1 are a ``ConfigError`` raised
    before the drop is drawn.

    ``metadata["mean_scnr"]`` maps each ``repeater_gain_db`` of the CSV to the
    mean over its H1 trials of s, the target energy per unit RCS left after the
    clutter is eliminated (the post-clutter sensing SCNR per unit RCS).
    """
    if rcs_grid is not None:
        grid = np.array(_check_type("rcs grid value", _as_tuple("rcs grid", rcs_grid),
                                    tuple[float, ...]))
        if grid.size == 0:
            raise ConfigError("rcs grid must be nonempty")
        if not np.all(grid > 0.0):
            raise ConfigError("rcs variance grid values must be positive")
    if repeater_gains_db is None:
        repeater_gains_db = (config.repeater_gain_db, None) if config.repeater_on else (None,)
    repeater_gains_db = _as_tuple("repeater gains", repeater_gains_db)
    if not repeater_gains_db:
        raise ConfigError("pod study needs at least one repeater gain")
    gain_configs = [config.with_updates(repeater_on=False) if gain_db is None else
                    config.with_updates(repeater_on=True, repeater_gain_db=gain_db)
                    for gain_db in repeater_gains_db]
    gain_values = [float(cfg.repeater_gain_db) if cfg.repeater_on else float("-inf")
                   for cfg in gain_configs]
    if len(set(gain_values)) < len(gain_values):
        raise ConfigError(f"repeater gains must be distinct, got {repeater_gains_db}")

    rows = []
    mean_scnr = {}
    with _mapper(workers) as run:
        channels, clutter_model = _pod_drop(config)
        if rcs_grid is None:
            grid = _pilot_grid(config, channels, clutter_model, GRID_POINTS)
        for gain_value, cfg_gain in zip(gain_values, gain_configs):
            n_null = cfg_gain.calibration_trials
            pass_rows = _trial_pass(cfg_gain, channels, clutter_model,
                                    _pod_precoders(cfg_gain, channels), (STUDY_POD, 2),
                                    n_null + cfg_gain.mc_trials, run)
            thresholds, pfas = _thresholds(pass_rows[:n_null], grid, cfg_gain.pfa_target)
            u, s, alpha1 = pass_rows[n_null:].T
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
                                 "warnings": calibration_warnings(config)})


def suggest_rcs_grid(config: ScenarioConfig, n_points: int = GRID_POINTS) -> np.ndarray:
    """Log grid of RCS variances from 0.05 / s_bar to 2000 / s_bar, where s_bar is the
    mean s (``mean_scnr``) of one whole pilot block of trials on the study's setup,
    key (STUDY_POD, 9, 0): 384 trials on the default config, 64 at zeta^2 > 0. For
    a Swerling-I target at zeta^2 = 0, PoD = PFA^(1 / (1 + sigma_T^2 s)): the
    grid spans the detector's transition."""
    _check_type("n_points", n_points, int)
    if n_points < 1:
        raise ConfigError(f"rcs grid needs at least one point, got {n_points}")
    return _pilot_grid(config, *_pod_drop(config), n_points)


def _pilot_grid(config: ScenarioConfig, channels: ChannelRealization,
                clutter_model: ClutterModel, n_points: int) -> np.ndarray:
    """The grid of :func:`suggest_rcs_grid` on the study's drop."""
    rows = _trial_unit(config, channels, clutter_model, _pod_precoders(config, channels),
                       (STUDY_POD, 9), (0, block_trials(config)))
    s_bar = float(np.mean(rows[:, 1].real))
    if not s_bar > 0.0:
        raise NumericalDomainError(f"pilot trial block with seed key {(STUDY_POD, 9, 0)}: "
                                   "no target energy")
    return np.geomspace(0.05 / s_bar, 2000.0 / s_bar, n_points)


# -- downlink study: SE CDF across precoders -----------------------------------

SECDF_HEADER = ("mode", "repeater", "se", "cdf")


def _secdf_block(config: ScenarioConfig, modes, rep_configs, b: int) -> np.ndarray:
    """SE of every user on block b of the study's ``mc_trials`` drops (drops
    b * ``DROPS_PER_BLOCK`` onwards, from ``draw_drop``), shape (modes, rep_configs,
    drops, users), NaN on a degenerate drop. Per repeater setting's config, one
    stacked call each of ``effective_channels``, ``target_precoder`` (every mode),
    ``rzf_precoders`` and ``downlink_metrics`` serves every drop of the block."""
    n_drops = min(DROPS_PER_BLOCK, config.mc_trials - b * DROPS_PER_BLOCK)
    se = np.empty((len(modes), len(rep_configs), n_drops, config.n_users))
    try:
        _, channels = draw_drop(config, STUDY_SECDF, b, n_drops)
        for r, cfg in enumerate(rep_configs):
            fdot = effective_channels(channels, cfg)
            p_t = None if cfg.sensing_power_fraction == 0.0 else np.stack(
                [target_precoder(mode, channels.a_tx, channels.b_tx, fdot) for mode in modes])
            precoders = PrecoderSet(rzf_precoders(fdot, cfg.zf_regularizer_value), p_t)
            se[:, r] = downlink_metrics(precoders, channels, cfg).se
    except (np.linalg.LinAlgError, NumericalDomainError) as exc:
        raise NumericalDomainError(
            f"SE-CDF drop block with seed keys {(STUDY_SECDF, 0, b)} and "
            f"{(STUDY_SECDF, 1, b)}: {exc}") from exc
    return se


def run_se_cdf(config: ScenarioConfig, modes=("target_centric", "comm_centric"),
               repeater_settings=(True, False), workers: int = 1) -> StudyResult:
    """Per-user SE samples over independent drops, as an empirical CDF.

    Every (mode, repeater) combination is evaluated on the same drops, in blocks of
    ``DROPS_PER_BLOCK``: block b is ``draw_drop(config, STUDY_SECDF, b, n)`` and one
    unit of the mapper, so drop 0 of block b is ``draw_drop``'s one drop there. A config
    that cannot run, and modes or repeater settings that are empty, repeated, a string
    or not a sequence raise ``ConfigError`` before any drop is drawn; a degenerate drop
    (sensing direction fully nulled) is counted (``degenerate_drops``, ``warnings``) and
    skipped, never fatal.
    """
    if config.n_users < 1:
        raise ConfigError("se_cdf study needs at least one user")
    modes = _as_tuple("precoder modes", modes)
    repeater_settings = _as_tuple("repeater settings", repeater_settings)
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
                     range(math.ceil(n_drops / DROPS_PER_BLOCK)))
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

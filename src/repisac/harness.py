"""Study harness: study setup, Monte Carlo trials, threshold calibration,
CSV output.

A drop holds only its deterministic links: a slot's clutter, inter-BS residual
and RCS are nuisance, fresh in each trial (``redraw_nuisance`` draws them in
the reference trial). Every drop is :func:`draw_drop`, ``drop_entities`` then
``gen_channels`` on keys of their own: the PoD study's one drop
(:func:`_pod_drop`), and the SE-CDF study's blocks of drops. The studies:
probability of detection versus RCS variance (one pass per repeater gain, whose
first ``calibration_trials`` trials are the H0 pass and the ``mc_trials`` after
them the H1 trials; each trial's statistic at every grid point follows from its
sufficient statistics (u, s, alpha_1), read with alpha_1 = 0 in the H0 pass,
which sets each grid point's threshold), and the CDF of downlink per-user
spectral efficiency across precoder choices (one stacked RZF solve per block
of drops and repeater setting).

Every PoD entry point runs the one trial kernel (:func:`_trial_unit`) on one
setup record, :func:`_gain_setup`'s (config at a repeater gain, channels,
clutter model, precoders). :func:`calibrate` and each gain of
:func:`run_pod_vs_rcs` take their thresholds from one function,
:func:`_calibrated_pass`, so one config gives one threshold wherever it is
asked for; :func:`suggest_rcs_grid`, the study's auto grid, reads a pilot
block on the record of the configured repeater setting.

The setup is built once per process and config, in two small LRU caches whose
arrays are read-only: :func:`_pod_drop` holds the drop's channels and clutter
model, keyed by the config, and :func:`_gain_setup` the record, keyed by
(config, gain), with every gain on the config's one drop. Nothing a trial draws
is cached: every pass, pilot block and threshold is drawn and computed afresh
on each call, so a warm cache gives the bytes of a cold one.

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
from functools import lru_cache, partial
from itertools import repeat

import numpy as np

from .channel import ChannelRealization, ClutterModel, clutter_covariance, gen_channels
from .comm_metrics import downlink_metrics
from .detector import (block_statistics, block_trials, glrt_from_statistics,
                       threshold_from_null_stats, trial_rng)
from .errors import ConfigError, NumericalDomainError
from .precoding import (PrecoderSet, build_precoders, effective_channels, rzf_precoders,
                        target_precoder)
from .scenario import Geometry, ScenarioConfig, _check_gain, _check_type, drop_entities

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
        """The header line, then one line per row; a row holds one value per header
        column, each written as its ``str`` (a float's is its repr)."""
        row_format = ",".join(["%s"] * len(self.header))
        lines = [",".join(self.header), *(row_format % row for row in self.rows)]
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


def _distinct(study: str, name: str, values, check) -> tuple:
    """``check`` of each of a study's ``name`` values, as a tuple. In this order, a
    ``ConfigError``: values that are a string or not a sequence, no values, a value
    ``check`` rejects, and two values whose checked values are equal (the study
    would run and write each twice)."""
    values = _as_tuple(f"{name}s", values)
    if not values:
        raise ConfigError(f"{study} study needs at least one {name}")
    checked = tuple(map(check, values))
    if len(set(checked)) < len(checked):
        raise ConfigError(f"{name}s must be distinct, got {values}")
    return checked


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


def _read_only(record):
    """``record`` with each of its array fields made read-only: a setup cache hands
    the same record to every caller."""
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return record


@lru_cache(maxsize=4)
def _pod_drop(config: ScenarioConfig) -> tuple[ChannelRealization, ClutterModel]:
    """Channels and clutter model of the PoD study's one drop, ``draw_drop`` on
    block 0 of STUDY_POD: every PoD entry point's setup, the acceptance suite's
    included, so no block layout changes it.

    Cached per process, keyed by the config (frozen, so hashable), with
    read-only arrays: a second call on an equal config draws nothing, and
    configs that differ in any field, ``master_seed`` included, get their own
    drops. Nothing a trial draws is cached."""
    geometry, channels = draw_drop(config, STUDY_POD, 0)
    return _read_only(channels), _read_only(clutter_covariance(config, geometry))


def _configured_gain(config: ScenarioConfig) -> float | None:
    """The repeater gain of ``config`` as a study names it: None when the repeater is off."""
    return config.repeater_gain_db if config.repeater_on else None


@lru_cache(maxsize=16)
def _gain_setup(config: ScenarioConfig, gain_db: float | None) -> tuple[
        ScenarioConfig, ChannelRealization, ClutterModel, PrecoderSet]:
    """The setup record of a pass at repeater gain ``gain_db`` (None: repeater off,
    a float checked by ``_check_gain``): (``config`` at that gain, the channels and
    clutter model of the PoD drop of ``config``, the precoders on that drop), in
    ``block_statistics``'s argument order. A numerical failure of the precoders
    names the drop's seed keys.

    Cached per process, keyed by (config, gain), with read-only arrays; every gain
    shares the one drop :func:`_pod_drop` caches for ``config``. So the pilot grid,
    ``calibrate`` and a study's pass at the configured gain share one precoder
    build. A failed build is not cached."""
    cfg = (config.with_updates(repeater_on=False) if gain_db is None else
           config.with_updates(repeater_on=True, repeater_gain_db=gain_db))
    channels, clutter_model = _pod_drop(config)
    try:
        precoders = build_precoders(cfg, channels)
    except (np.linalg.LinAlgError, NumericalDomainError) as exc:
        raise NumericalDomainError(f"PoD drop with seed keys {(STUDY_POD, 0, 0)} and "
                                   f"{(STUDY_POD, 1, 0)}: {exc}") from exc
    return cfg, channels, clutter_model, _read_only(precoders)


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


def _trial_unit(setup: tuple, key: tuple[int, ...], block: tuple[int, int]) -> np.ndarray:
    """Rows of block (b, n) of ``key`` on ``setup`` (:func:`_gain_setup`'s record):
    its first n trials, drawn from key (*key, b)."""
    b, n = block
    try:
        return block_statistics(*setup, trial_rng(setup[0].master_seed, key, b), n)
    except NumericalDomainError as exc:
        raise NumericalDomainError(f"trial block with seed key {(*key, b)}: {exc}") from exc


def _trial_pass(setup: tuple, key: tuple[int, ...], n_trials: int, run) -> np.ndarray:
    """Rows (u, s, alpha_1) of ``n_trials`` trials on ``key`` and ``setup``, in trial order.

    Block b holds trials b * ``block_trials`` onwards, draws from key (*key, b)
    and is one unit of ``run`` (:func:`_mapper`), so its rows depend on neither
    the worker count nor how many trials follow it: the first n trials of a
    pass are the pass of n trials. A pass depends on neither the hypothesis nor
    the config's ``rcs_variance``: every trial's statistic follows from its row
    (``glrt_from_statistics``, with alpha_1 = 0 under H0).
    """
    size = block_trials(setup[0])
    units = [(b, min(size, n_trials - b * size)) for b in range(math.ceil(n_trials / size))]
    parts = run(partial(_trial_unit, setup, key), units)
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
        rows = _trial_pass((config, channels, clutter_model, precoders), key, n_trials, run)
    u, s, alpha1 = rows.T
    return glrt_from_statistics(u, s.real, 0.0 if force_null else alpha1, config.rcs_variance)


# -- threshold calibration -----------------------------------------------------

def _calibrated_pass(config: ScenarioConfig, gain_db: float | None, sigma_t_sq: np.ndarray,
                     n_h1: int, run) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one threshold function: a pass of ``calibration_trials + n_h1`` trials
    on key (STUDY_POD, 2) and :func:`_gain_setup`'s record at ``gain_db``.

    Its first ``calibration_trials`` rows are the H0 pass (read with alpha_1 = 0),
    which gives the GLRT threshold for ``pfa_target`` at each RCS variance of
    ``sigma_t_sq``. Returns (thresholds, in-sample false-alarm rates, the
    ``n_h1`` H1 rows after the H0 pass). Since a pass's first n trials are its
    pass of n, the thresholds do not depend on ``n_h1``."""
    setup = _gain_setup(config, gain_db)
    n_null = setup[0].calibration_trials
    rows = _trial_pass(setup, (STUDY_POD, 2), n_null + n_h1, run)
    u, s, _ = rows[:n_null].T
    t_null = glrt_from_statistics(u, s.real, 0.0, sigma_t_sq[:, None])
    thresholds = threshold_from_null_stats(t_null, setup[0].pfa_target)
    return thresholds, np.mean(t_null >= thresholds[:, None], axis=1), rows[n_null:]


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

    Returns (threshold, in-sample false-alarm rate) at ``config.rcs_variance``:
    :func:`_calibrated_pass` at the configured repeater setting with no H1 trials.
    The setup record is read from the per-process cache when an equal config has
    built it before; the H0 trials draw from key (STUDY_POD, 2) freshly on every
    call, so no trial row or threshold is cached. The study takes each gain's
    thresholds from the same function, so ``repisac calibrate`` and ``repisac pod``
    give the same threshold.
    """
    with _mapper(workers) as run:
        thresholds, pfas, _ = _calibrated_pass(config, _configured_gain(config),
                                               np.array([config.rcs_variance]), 0, run)
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
    (under H1) the RCS. Per repeater setting, one :func:`_calibrated_pass` of
    ``calibration_trials + mc_trials`` trials serves every grid point (the RCS
    variance only scales each trial's sufficient statistics): its H0 pass gives
    each grid point's threshold, exactly as :func:`calibrate` takes it, and the
    ``mc_trials`` after it are the H1 trials. The default gains are the
    configured one and repeater-off, or repeater-off alone when the config has
    the repeater off. A grid or gains that is a string or not a sequence, no
    gains, a gain or grid value that is not a finite number (inf, nan, True),
    equal gains (20, 20.0) and a worker count that is not an integer of at least
    1 are a ``ConfigError`` raised before the drop is drawn; every gain is
    checked (:func:`_distinct`) before repeats are looked for.

    Each gain's setup record (:func:`_gain_setup`) is read from a per-process
    cache keyed by (config, gain), and every gain shares the config's one drop.
    So a study run one call per gain, after :func:`suggest_rcs_grid` on the same
    config, builds them once. Every pass, pilot block and threshold is drawn and
    computed afresh on each call.

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
    # checked before any cached call: a cache would take True for 1.0 and fail on a list
    gains = _distinct("pod", "repeater gain", repeater_gains_db,
                      lambda gain_db: None if gain_db is None else _check_gain(gain_db))
    gain_values = [float("-inf") if gain is None else gain for gain in gains]

    rows = []
    mean_scnr = {}
    with _mapper(workers) as run:
        if rcs_grid is None:
            grid = suggest_rcs_grid(config)
        for gain_value, gain in zip(gain_values, gains):
            thresholds, pfas, h1_rows = _calibrated_pass(config, gain, grid,
                                                         config.mc_trials, run)
            u, s, alpha1 = h1_rows.T
            mean_scnr[gain_value] = float(np.mean(s.real))
            t_hit = glrt_from_statistics(u, s.real, alpha1, grid[:, None])
            pods = np.mean(t_hit >= thresholds[:, None], axis=1)
            rows += [(float(sigma_t_sq), gain_value, float(pod), float(threshold), float(pfa),
                      config.mc_trials)
                     for sigma_t_sq, pod, threshold, pfa in zip(grid, pods, thresholds, pfas)]
    return StudyResult(kind="pod_vs_rcs", header=POD_HEADER, rows=rows,
                       metadata={"calibration_trials": config.calibration_trials,
                                 "pfa_target": config.pfa_target,
                                 "mean_scnr": mean_scnr,
                                 "warnings": calibration_warnings(config)})


def suggest_rcs_grid(config: ScenarioConfig, n_points: int = GRID_POINTS) -> np.ndarray:
    """Log grid of RCS variances from 0.05 / s_bar to 2000 / s_bar, where s_bar is the
    mean s (``mean_scnr``) of one whole pilot block of trials, key (STUDY_POD, 9, 0),
    on the setup record (:func:`_gain_setup`) of the configured repeater setting:
    384 trials on the default config, 64 at zeta^2 > 0. For a Swerling-I target at
    zeta^2 = 0, PoD = PFA^(1 / (1 + sigma_T^2 s)): the grid spans the detector's
    transition. :func:`run_pod_vs_rcs` takes this grid when it is given none."""
    _check_type("n_points", n_points, int)
    if n_points < 1:
        raise ConfigError(f"rcs grid needs at least one point, got {n_points}")
    rows = _trial_unit(_gain_setup(config, _configured_gain(config)), (STUDY_POD, 9),
                       (0, block_trials(config)))
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
    that cannot run, and modes or repeater settings that are a string or not a
    sequence, empty, a value the config cannot hold or run, or repeated raise
    ``ConfigError`` before any drop is drawn: each mode and setting is checked
    (:func:`_distinct`) before repeats are looked for. A degenerate drop (sensing
    direction fully nulled) is counted (``degenerate_drops``, ``warnings``) and
    skipped, never fatal.
    """
    if config.n_users < 1:
        raise ConfigError("se_cdf study needs at least one user")
    # a mode or repeater setting the config cannot run fails here
    modes = _distinct("se_cdf", "precoder mode", modes,
                      lambda mode: config.with_updates(precoder_mode=mode).precoder_mode)
    rep_configs = _distinct("se_cdf", "repeater setting", repeater_settings,
                            lambda rep: config.with_updates(repeater_on=rep))
    n_drops = config.mc_trials
    combos = [(m, cfg.repeater_on) for m in modes for cfg in rep_configs]
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

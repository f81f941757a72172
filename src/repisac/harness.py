"""Study harness: study setup, Monte Carlo trials, threshold calibration,
CSV output.

Every entry point (the studies, the CLI, the tests) draws its geometry and
channels through :func:`draw_drop`, and the threshold comes from one H0 pass
on key (STUDY_POD, 2) evaluated the same way in :func:`calibrate` and in the
detection study, so one config gives one threshold wherever it is asked for.
Two studies are provided: probability of detection versus RCS variance (one
H0 pass and one H1 pass per repeater gain; each trial's statistic at every
grid point follows from its sufficient statistics, and the threshold is
recalibrated per grid point from the H0 pass), and the CDF of downlink
per-user spectral efficiency across precoder choices (every user of a drop
evaluated at once, per precoder config). Random substreams are keyed by
(master_seed, study, ..., index): one per drop, and one per block of
``TRIALS_PER_BLOCK`` Monte Carlo trials. Workers get whole blocks, so
results are byte-identical regardless of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, ClutterModel, clutter_covariance, gen_channels
from .comm_metrics import downlink_metrics
from .detector import (TRIALS_PER_BLOCK, block_statistics, glrt_from_statistics,
                       target_energy, threshold_from_null_stats, trial_rng)
from .errors import ConfigError, DegenerateNullspaceError, NumericalDomainError
from .precoding import PrecoderSet, build_precoders, build_transmit_frame
from .scenario import Geometry, ScenarioConfig, drop_entities

STUDY_POD = 1
STUDY_SECDF = 2


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
        with open(path, "wb") as fh:
            fh.write(self.to_csv_bytes())


# -- study setup ---------------------------------------------------------------

def draw_drop(config: ScenarioConfig, study: int,
              index: int = 0) -> tuple[Geometry, ChannelRealization]:
    """Geometry and deterministic channels of drop ``index`` of a study.

    The geometry draws from key (study, 0, index) and the channels from
    (study, 1, index). The detection study, its grid suggestion and the CLI
    all work on drop 0 of ``STUDY_POD``.
    """
    geometry = drop_entities(config, trial_rng(config.master_seed, (study, 0), index))
    channels = gen_channels(geometry, config,
                            trial_rng(config.master_seed, (study, 1), index))
    return geometry, channels


# -- deterministic parallel trial execution -----------------------------------

def _map_chunks(fn, payloads: list, workers: int) -> list:
    """``fn`` over ``payloads`` in order, in-process or on ``workers`` processes."""
    if workers <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def _trial_chunk(args) -> np.ndarray:
    """Rows of blocks ``first`` to ``last`` of a pass of ``n_trials`` trials."""
    config, channels, clutter_model, precoders, key, first, last, n_trials, force_null = args
    parts = []
    for block in range(first, last):
        size = min(TRIALS_PER_BLOCK, n_trials - block * TRIALS_PER_BLOCK)
        try:
            parts.append(block_statistics(config, channels, clutter_model, precoders,
                                          trial_rng(config.master_seed, key, block), size,
                                          force_null=force_null))
        except NumericalDomainError as exc:
            raise NumericalDomainError(
                f"trial block with seed key {(*key, block)}: {exc}") from exc
    return np.concatenate(parts)


def _trial_pass(config: ScenarioConfig, channels: ChannelRealization,
                clutter_model: ClutterModel, precoders: PrecoderSet,
                key: tuple[int, ...], n_trials: int, force_null: bool,
                workers: int) -> np.ndarray:
    """Rows (u, s, alpha_1) of ``n_trials`` Monte Carlo trials, in trial order.

    Block b holds trials b * TRIALS_PER_BLOCK onwards and draws from key
    (*key, b); chunks are whole blocks, so no row depends on ``workers``.
    A pass does not depend on ``config.rcs_variance``: the statistic of every
    trial at any RCS variance follows from its row (``glrt_from_statistics``).
    """
    n_blocks = math.ceil(n_trials / TRIALS_PER_BLOCK)
    per_chunk = max(4, math.ceil(n_blocks / (max(workers, 1) * 8)))
    payloads = [(config, channels, clutter_model, precoders, key, b,
                 min(b + per_chunk, n_blocks), n_trials, force_null)
                for b in range(0, n_blocks, per_chunk)]
    parts = _map_chunks(_trial_chunk, payloads, workers)
    return np.concatenate(parts) if parts else np.zeros((0, 3), dtype=complex)


def _statistics(stats: np.ndarray, sigma_t_sq) -> np.ndarray:
    """GLRT statistics of a pass at ``sigma_t_sq``; a column of RCS variances
    gives one row per variance."""
    return glrt_from_statistics(stats[:, 0], stats[:, 1].real, stats[:, 2], sigma_t_sq)


def run_trials(config: ScenarioConfig, channels: ChannelRealization,
               clutter_model: ClutterModel, precoders: PrecoderSet,
               key: tuple[int, ...], n_trials: int, force_null: bool,
               workers: int = 1) -> np.ndarray:
    """Test statistics of ``n_trials`` Monte Carlo trials at ``config.rcs_variance``,
    in trial order."""
    return _statistics(_trial_pass(config, channels, clutter_model, precoders, key,
                                   n_trials, force_null, workers), config.rcs_variance)


# -- threshold calibration -----------------------------------------------------

def _null_pass(config: ScenarioConfig, channels: ChannelRealization,
               clutter_model: ClutterModel, precoders: PrecoderSet,
               workers: int) -> np.ndarray:
    """The ``calibration_trials`` H0 trials (target absent) on key (STUDY_POD, 2)."""
    return _trial_pass(config, channels, clutter_model, precoders, (STUDY_POD, 2),
                       config.calibration_trials, True, workers)


def _thresholds(null_stats: np.ndarray, sigma_t_sq: np.ndarray,
                pfa_target: float) -> tuple[np.ndarray, np.ndarray]:
    """GLRT threshold and in-sample false-alarm rate at each RCS variance."""
    t_null = _statistics(null_stats, sigma_t_sq[:, None])
    thresholds = threshold_from_null_stats(t_null, pfa_target)
    return thresholds, np.mean(t_null >= thresholds[:, None], axis=1)


def calibrate(config: ScenarioConfig, channels: ChannelRealization,
              clutter_model: ClutterModel, precoders: PrecoderSet,
              workers: int = 1) -> tuple[float, float]:
    """GLRT threshold for ``config.pfa_target`` from ``calibration_trials`` H0 trials.

    Returns (threshold, in-sample false-alarm rate) at ``config.rcs_variance``.
    The trials (target absent, fresh clutter/noise/symbols each) draw from key
    (STUDY_POD, 2) whatever the entry point, and the detection study derives
    its thresholds from the same pass the same way, so ``repisac calibrate``
    and the detection study give the same threshold for the same config.
    """
    null_stats = _null_pass(config, channels, clutter_model, precoders, workers)
    thresholds, pfas = _thresholds(null_stats, np.array([config.rcs_variance]),
                                   config.pfa_target)
    return float(thresholds[0]), float(pfas[0])


# -- detection study: PoD versus RCS variance ----------------------------------

POD_HEADER = ("sigma_t_sq", "repeater_gain_db", "pod", "threshold",
              "empirical_pfa", "trials")


def run_pod_vs_rcs(config: ScenarioConfig, rcs_grid,
                   repeater_gains_db=None, workers: int = 1) -> StudyResult:
    """Probability of detection over an RCS-variance grid.

    Geometry and deterministic channels are fixed for the whole study; each
    trial redraws clutter, noises, symbols, the inter-BS residual, and (under
    H1) the RCS. Per repeater setting, one pass of ``calibration_trials`` H0
    trials and one pass of ``mc_trials`` H1 trials serve every grid point (the
    RCS variance only scales each trial's sufficient statistics), and the GLRT
    threshold is recalibrated per grid point from the H0 pass.

    ``metadata["mean_scnr"]`` maps each ``repeater_gain_db`` of the CSV to the
    mean over its H1 pass of s, the target energy per unit RCS left after the
    clutter is eliminated (the post-clutter sensing SCNR per unit RCS).
    """
    grid = np.array([float(v) for v in rcs_grid])
    if grid.size == 0:
        raise ValueError("rcs grid must be nonempty")
    if not np.all(np.isfinite(grid) & (grid > 0.0)):
        raise ConfigError("rcs variance grid values must be positive and finite")
    if repeater_gains_db is None:
        repeater_gains_db = ((config.repeater_gain_db if config.repeater_on else None),
                             None)
    geometry, channels = draw_drop(config, STUDY_POD)
    clutter_model = clutter_covariance(config, geometry)

    rows = []
    mean_scnr = {}
    warnings_meta = []
    # every grid point and gain is calibrated on an H0 pass of this size
    expected_alarms = config.calibration_trials * config.pfa_target
    if expected_alarms < 10:
        warnings_meta.append(f"calibration under-resolved: {config.calibration_trials} "
                             f"H0 trials at PFA {config.pfa_target} expect "
                             f"{expected_alarms:g} false alarms (fewer than 10)")
    for gain_db in repeater_gains_db:
        if gain_db is None:
            cfg_gain = config.with_updates(repeater_on=False)
            gain_value = float("-inf")
        else:
            cfg_gain = config.with_updates(repeater_on=True, repeater_gain_db=float(gain_db))
            gain_value = float(gain_db)
        precoders = build_precoders(cfg_gain, channels)
        null_stats = _null_pass(cfg_gain, channels, clutter_model, precoders, workers)
        hit_stats = _trial_pass(cfg_gain, channels, clutter_model, precoders,
                                (STUDY_POD, 3), cfg_gain.mc_trials, False, workers)
        mean_scnr[gain_value] = float(np.mean(hit_stats[:, 1].real))
        thresholds, pfas = _thresholds(null_stats, grid, cfg_gain.pfa_target)
        pods = np.mean(_statistics(hit_stats, grid[:, None]) >= thresholds[:, None], axis=1)
        rows += [(float(sigma_t_sq), gain_value, float(pod), float(threshold), float(pfa),
                  cfg_gain.mc_trials)
                 for sigma_t_sq, pod, threshold, pfa in zip(grid, pods, thresholds, pfas)]
    return StudyResult(kind="pod_vs_rcs", header=POD_HEADER, rows=rows,
                       metadata={"calibration_trials": config.calibration_trials,
                                 "pfa_target": config.pfa_target,
                                 "mean_scnr": mean_scnr,
                                 "warnings": warnings_meta})


def suggest_rcs_grid(config: ScenarioConfig, n_points: int = 8) -> np.ndarray:
    """RCS-variance grid spanning the detector's transition region.

    Scales a log grid by the target energy per unit RCS (``target_energy``)
    of one pilot transmit frame, deterministically from the study seed.
    """
    _, channels = draw_drop(config, STUDY_POD)
    frame = build_transmit_frame(build_precoders(config, channels), config,
                                 trial_rng(config.master_seed, (STUDY_POD, 9), 0))
    energy = target_energy(frame, channels, config)
    if energy <= 0.0:
        raise ValueError("pilot trial produced no sensing energy")
    return np.geomspace(0.05 / energy, 2000.0 / energy, n_points)


# -- downlink study: SE CDF across precoders -----------------------------------

SECDF_HEADER = ("mode", "repeater", "se", "cdf")


def _secdf_chunk(args) -> np.ndarray:
    """SE of every user on drops ``start`` to ``stop`` under each config, shape
    (drops, configs, users); NaN marks a degenerate (drop, config)."""
    config, configs, start, stop = args
    se = np.full((stop - start, len(configs), config.n_users), np.nan)
    for row, d in enumerate(range(start, stop)):
        _, channels = draw_drop(config, STUDY_SECDF, d)
        for col, cfg in enumerate(configs):
            try:
                precoders = build_precoders(cfg, channels)
            except DegenerateNullspaceError:
                continue
            se[row, col] = downlink_metrics(precoders, channels, cfg).se
    return se


def run_se_cdf(config: ScenarioConfig, modes=("target_centric", "comm_centric"),
               repeater_settings=(True, False), workers: int = 1) -> StudyResult:
    """Per-user SE samples over independent drops, as an empirical CDF.

    Every (mode, repeater) combination is evaluated on the same drops, all
    users of a drop at once. A config that cannot run raises ``ConfigError``
    before any drop is drawn; a degenerate drop (sensing direction fully
    nulled) is counted and skipped, never fatal.
    """
    if config.n_users < 1:
        raise ValueError("se_cdf study needs at least one user")
    n_drops = config.mc_trials
    combos = [(m, r) for m in modes for r in repeater_settings]
    configs = [config.with_updates(repeater_on=r, precoder_mode=m) for m, r in combos]
    chunk = max(8, math.ceil(n_drops / (max(workers, 1) * 8)))
    payloads = [(config, configs, s, min(s + chunk, n_drops))
                for s in range(0, n_drops, chunk)]
    se = np.concatenate(_map_chunks(_secdf_chunk, payloads, workers))

    rows = []
    degenerate = {}
    for col, (mode, rep) in enumerate(combos):
        skipped = np.isnan(se[:, col, 0])
        degenerate[f"{mode}|{int(rep)}"] = int(skipped.sum())
        values = np.sort(se[~skipped, col].ravel())
        n = values.size
        rows += [(mode, int(rep), float(v), float((i + 1) / n)) for i, v in enumerate(values)]
    return StudyResult(kind="se_cdf", header=SECDF_HEADER, rows=rows,
                       metadata={"drops": n_drops, "degenerate_drops": degenerate})

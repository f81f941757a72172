"""Study harness: study setup, Monte Carlo trials, threshold calibration,
CSV output.

Every entry point (the studies, the CLI, the tests) draws its geometry and
channels through :func:`draw_drop` and calibrates the GLRT threshold through
:func:`calibrate`, so one config gives one threshold wherever it is asked for.
Two studies are provided: probability of detection versus RCS variance
(threshold recalibrated per grid point), and the CDF of downlink per-user
spectral efficiency across precoder choices. Per-trial random substreams are
keyed by (master_seed, study, ..., trial), so results are byte-identical
regardless of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, ClutterModel, clutter_covariance, gen_channels
from .comm_metrics import user_sinr
from .detector import (assemble_statistics, run_sensing_trial, threshold_from_null_stats,
                       trial_rng)
from .errors import DegenerateNullspaceError, NumericalDomainError
from .precoding import PrecoderSet, build_precoders, build_transmit_frame
from .propagation import draw_noise, receive_bs_slot
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
            lines.append(",".join(_csv_cell(v) for v in row))
        return ("\n".join(lines) + "\n").encode("ascii")

    def write_csv(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_csv_bytes())


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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

def _trial_chunk(args) -> list[float]:
    config, channels, clutter_model, precoders, key, start, stop, force_null = args
    stats = []
    for i in range(start, stop):
        try:
            stats.append(run_sensing_trial(config, channels, clutter_model, precoders,
                                           trial_rng(config.master_seed, key, i),
                                           force_null=force_null))
        except NumericalDomainError as exc:
            raise NumericalDomainError(f"trial with seed key {(*key, i)}: {exc}") from exc
    return stats


def run_trials(config: ScenarioConfig, channels: ChannelRealization,
               clutter_model: ClutterModel, precoders: PrecoderSet,
               key: tuple[int, ...], n_trials: int, force_null: bool,
               workers: int = 1) -> np.ndarray:
    """Test statistics of ``n_trials`` Monte Carlo trials, in trial order."""
    chunk = max(64, math.ceil(n_trials / (max(workers, 1) * 8)))
    payloads = [(config, channels, clutter_model, precoders, key, s,
                 min(s + chunk, n_trials), force_null)
                for s in range(0, n_trials, chunk)]
    if workers <= 1:
        parts = [_trial_chunk(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_trial_chunk, payloads))
    return np.concatenate([np.asarray(p) for p in parts]) if parts else np.zeros(0)


# -- threshold calibration -----------------------------------------------------

def calibrate(config: ScenarioConfig, channels: ChannelRealization,
              clutter_model: ClutterModel, precoders: PrecoderSet,
              workers: int = 1) -> tuple[float, float]:
    """GLRT threshold for ``config.pfa_target`` from ``calibration_trials`` H0 trials.

    Returns (threshold, in-sample false-alarm rate). The trials (target
    absent, fresh clutter/noise/symbols each) draw from key (STUDY_POD, 2)
    whatever the entry point, so ``repisac calibrate`` and the detection study
    give the same threshold for the same config.
    """
    t_null = run_trials(config, channels, clutter_model, precoders, (STUDY_POD, 2),
                        config.calibration_trials, force_null=True, workers=workers)
    threshold = threshold_from_null_stats(t_null, config.pfa_target)
    return threshold, float(np.mean(t_null >= threshold))


# -- detection study: PoD versus RCS variance ----------------------------------

POD_HEADER = ("sigma_t_sq", "repeater_gain_db", "pod", "threshold",
              "empirical_pfa", "trials")


def run_pod_vs_rcs(config: ScenarioConfig, rcs_grid,
                   repeater_gains_db=None, workers: int = 1) -> StudyResult:
    """Probability of detection over an RCS-variance grid.

    Geometry and deterministic channels are fixed for the whole study; each
    trial redraws clutter, noises, symbols, the inter-BS residual, and (under
    H1) the RCS. The GLRT threshold is recalibrated per grid point and per
    repeater setting from ``calibration_trials`` H0 trials.
    """
    rcs_grid = list(rcs_grid)
    if not rcs_grid:
        raise ValueError("rcs grid must be nonempty")
    if repeater_gains_db is None:
        repeater_gains_db = ((config.repeater_gain_db if config.repeater_on else None),
                             None)
    geometry, channels = draw_drop(config, STUDY_POD)
    clutter_model = clutter_covariance(config, geometry)

    rows = []
    warnings_meta = []
    for gain_db in repeater_gains_db:
        if gain_db is None:
            cfg_gain = config.with_updates(repeater_on=False)
            gain_value = float("-inf")
        else:
            cfg_gain = config.with_updates(repeater_on=True, repeater_gain_db=float(gain_db))
            gain_value = float(gain_db)
        precoders = build_precoders(cfg_gain, channels)
        for pi, sigma_t_sq in enumerate(rcs_grid):
            cfg_pt = cfg_gain.with_updates(rcs_variance=float(sigma_t_sq))
            if cfg_pt.calibration_trials * cfg_pt.pfa_target < 10:
                warnings_meta.append(
                    f"calibration under-resolved at point {pi} (gain {gain_value})")
            threshold, empirical_pfa = calibrate(cfg_pt, channels, clutter_model,
                                                 precoders, workers=workers)
            t_h1 = run_trials(cfg_pt, channels, clutter_model, precoders,
                              (STUDY_POD, 3), cfg_pt.mc_trials,
                              force_null=False, workers=workers)
            pod = float(np.mean(t_h1 >= threshold))
            rows.append((float(sigma_t_sq), gain_value, pod, threshold,
                         empirical_pfa, cfg_pt.mc_trials))
    return StudyResult(kind="pod_vs_rcs", header=POD_HEADER, rows=rows,
                       metadata={"calibration_trials": config.calibration_trials,
                                 "pfa_target": config.pfa_target,
                                 "warnings": warnings_meta})


def suggest_rcs_grid(config: ScenarioConfig, n_points: int = 8) -> np.ndarray:
    """RCS-variance grid spanning the detector's transition region.

    Scales a log grid by the per-unit-RCS sensing energy of one pilot trial,
    deterministically from the study seed.
    """
    geometry, channels = draw_drop(config, STUDY_POD)
    clutter_model = clutter_covariance(config, geometry)
    precoders = build_precoders(config, channels)
    rng = trial_rng(config.master_seed, (STUDY_POD, 9), 0)
    frame = build_transmit_frame(precoders, config, rng)
    noise = draw_noise(config, rng)
    obs = receive_bs_slot(frame, channels, noise, config)
    ws = assemble_statistics(obs, frame, channels, config, clutter_model)
    energy = float(ws.q_h1[0, 0].real - 1.0 / config.rcs_variance)
    if energy <= 0.0:
        raise ValueError("pilot trial produced no sensing energy")
    return np.geomspace(0.05 / energy, 2000.0 / energy, n_points)


# -- downlink study: SE CDF across precoders -----------------------------------

SECDF_HEADER = ("mode", "repeater", "se", "cdf")


def _secdf_chunk(args) -> tuple[dict, dict]:
    config, modes, repeater_settings, start, stop = args
    samples = {(m, r): [] for m in modes for r in repeater_settings}
    errors = {(m, r): 0 for m in modes for r in repeater_settings}
    for d in range(start, stop):
        _, channels = draw_drop(config, STUDY_SECDF, d)
        for rep in repeater_settings:
            for mode in modes:
                cfg = config.with_updates(repeater_on=rep, precoder_mode=mode)
                try:
                    precoders = build_precoders(cfg, channels)
                except DegenerateNullspaceError:
                    errors[(mode, rep)] += 1
                    continue
                for n in range(cfg.n_users):
                    samples[(mode, rep)].append(user_sinr(n, precoders, channels, cfg).se)
    return samples, errors


def run_se_cdf(config: ScenarioConfig, modes=("target_centric", "comm_centric"),
               repeater_settings=(True, False), workers: int = 1) -> StudyResult:
    """Per-user SE samples over independent drops, as an empirical CDF.

    Every (mode, repeater) combination is evaluated on the same drops. A
    degenerate comm-centric drop (sensing direction fully nulled) is counted
    and skipped, never fatal.
    """
    if config.n_users < 1:
        raise ValueError("se_cdf study needs at least one user")
    n_drops = config.mc_trials
    chunk = max(8, math.ceil(n_drops / (max(workers, 1) * 8)))
    payloads = [(config, tuple(modes), tuple(repeater_settings), s,
                 min(s + chunk, n_drops))
                for s in range(0, n_drops, chunk)]
    if workers <= 1:
        parts = [_secdf_chunk(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_secdf_chunk, payloads))

    samples = {(m, r): [] for m in modes for r in repeater_settings}
    errors = {(m, r): 0 for m in modes for r in repeater_settings}
    for part_samples, part_errors in parts:
        for key in samples:
            samples[key].extend(part_samples[key])
            errors[key] += part_errors[key]

    rows = []
    for mode in modes:
        for rep in repeater_settings:
            values = np.sort(np.asarray(samples[(mode, rep)]))
            n = values.size
            for i, se in enumerate(values):
                rows.append((mode, int(rep), float(se), float((i + 1) / n)))
    return StudyResult(kind="se_cdf", header=SECDF_HEADER, rows=rows,
                       metadata={"drops": n_drops,
                                 "degenerate_drops": {f"{m}|{int(r)}": errors[(m, r)]
                                                      for (m, r) in errors}})


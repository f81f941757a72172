"""Experiment drivers: Monte Carlo studies, parallel trial execution, CSV output.

Two studies are provided: probability of detection versus RCS variance
(threshold recalibrated per grid point), and the CDF of downlink per-user
spectral efficiency across precoder choices. Per-trial random substreams are
keyed by (master_seed, study, ..., trial), so results are byte-identical
regardless of worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, ClutterModel, clutter_covariance, gen_channels
from .comm_metrics import user_sinr
from .detector import (assemble_statistics, glrt_statistic, map_estimate,
                       run_sensing_trial, threshold_from_null_stats, trial_rng)
from .errors import DegenerateNullspaceError
from .precoding import PrecoderSet, build_precoders, build_transmit_frame
from .propagation import draw_noise, receive_bs_slot
from .scenario import Geometry, ScenarioConfig, drop_entities

STUDY_POD = 1
STUDY_SECDF = 2

WORKERS_ENV_VAR = "REPISAC_WORKERS"


def default_workers() -> int:
    value = os.environ.get(WORKERS_ENV_VAR)
    if value is None:
        return 1
    try:
        return max(1, int(value))
    except ValueError:
        return 1


@dataclass
class TrialRecord:
    trial_id: int
    hypothesis_truth: str
    test_statistic: float
    decision: str
    rcs_draw: complex
    rcs_estimate: complex
    user_sinr: list[float]
    user_se: list[float]
    seed_key: tuple[int, ...]


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


# -- deterministic parallel trial execution -----------------------------------

def _trial_chunk(args) -> list[float]:
    config, channels, clutter_model, precoders, key, start, stop, force_null = args
    return [run_sensing_trial(config, channels, clutter_model, precoders,
                              trial_rng(config.master_seed, key, i),
                              force_null=force_null)
            for i in range(start, stop)]


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
    geometry = drop_entities(config, trial_rng(config.master_seed, (STUDY_POD, 0), 0))
    channels = gen_channels(geometry, config,
                            trial_rng(config.master_seed, (STUDY_POD, 1), 0))
    clutter_model = clutter_covariance(config, geometry)

    rows = []
    warnings_meta = []
    for gi, gain_db in enumerate(repeater_gains_db):
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
            t_null = run_trials(cfg_pt, channels, clutter_model, precoders,
                                (STUDY_POD, 2), cfg_pt.calibration_trials,
                                force_null=True, workers=workers)
            threshold = threshold_from_null_stats(t_null, cfg_pt.pfa_target)
            empirical_pfa = float(np.mean(t_null >= threshold))
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
    geometry = drop_entities(config, trial_rng(config.master_seed, (STUDY_POD, 0), 0))
    channels = gen_channels(geometry, config,
                            trial_rng(config.master_seed, (STUDY_POD, 1), 0))
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
        geometry = drop_entities(config, trial_rng(config.master_seed, (STUDY_SECDF, 0), d))
        channels = gen_channels(geometry, config,
                                trial_rng(config.master_seed, (STUDY_SECDF, 1), d))
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


# -- detector debug dump --------------------------------------------------------

DEBUG_HEADER = ("trial", "T", "threshold", "decision", "re_alpha", "im_alpha")


def collect_trial_records(config: ScenarioConfig, geometry: Geometry,
                          channels: ChannelRealization, clutter_model: ClutterModel,
                          precoders: PrecoderSet, threshold: float, n_trials: int,
                          key: tuple[int, ...], force_null: bool = False) -> list[TrialRecord]:
    """Per-trial records with MAP estimates (serial; intended for debugging)."""
    from .channel import redraw_nuisance

    records = []
    for i in range(n_trials):
        rng = trial_rng(config.master_seed, key, i)
        ch = redraw_nuisance(channels, config, clutter_model.entry_variance, rng,
                             force_null=force_null)
        frame = build_transmit_frame(precoders, config, rng)
        noise = draw_noise(config, rng)
        obs = receive_bs_slot(frame, ch, noise, config)
        ws = assemble_statistics(obs, frame, ch, config, clutter_model)
        t = glrt_statistic(ws)
        alpha_hat, _ = map_estimate(ws)
        metrics = [user_sinr(n, precoders, ch, config) for n in range(config.n_users)]
        records.append(TrialRecord(
            trial_id=i,
            hypothesis_truth="H0" if force_null else "H1",
            test_statistic=t,
            decision="H1" if t >= threshold else "H0",
            rcs_draw=ch.rcs,
            rcs_estimate=alpha_hat,
            user_sinr=[m.sinr for m in metrics],
            user_se=[m.se for m in metrics],
            seed_key=(*key, i),
        ))
    return records


def dump_detector_debug(path: str, records: list[TrialRecord], threshold: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(DEBUG_HEADER) + "\n")
        for rec in records:
            fh.write(f"{rec.trial_id},{rec.test_statistic!r},{threshold!r},"
                     f"{rec.decision},{rec.rcs_estimate.real!r},"
                     f"{rec.rcs_estimate.imag!r}\n")

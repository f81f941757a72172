"""The benchmark's workloads: configs made from a seed, the study call, unit
counts, and output checks.

The study functions are looked up through their modules at call time
(``repisac.harness.run_pod_vs_rcs``), so the tracer's rebinding of module
attributes reaches them. The checks depend on no seed key, so a change to how
trials draw their streams does not trip them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import repisac
import repisac.harness

GRID_POINTS = 8


def warm_up(spec, config) -> None:
    """Run one untimed study of two units a point, so that first-call costs
    (lazy imports, caches) are paid before any study is timed."""
    small = config.with_updates(mc_trials=2, calibration_trials=2)
    inputs = spec.setup(small)
    for part in spec.parts:
        spec.run(small, inputs, part)


def _binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def _check_pfa(result, config) -> list[str]:
    """Every row's in-sample false-alarm rate lies within 4 binomial sigma of the target."""
    sigma = _binomial_sigma(config.pfa_target, config.calibration_trials)
    return [f"row {i}: empirical_pfa {row[4]!r} is more than 4 sigma from "
            f"{config.pfa_target}"
            for i, row in enumerate(result.rows)
            if abs(row[4] - config.pfa_target) > 4.0 * sigma]


class PodWorkload:
    """``run_pod_vs_rcs`` over the RCS grid that ``suggest_rcs_grid`` proposes.

    A unit is one sensing trial: each (grid point, gain) pair stands for
    ``calibration_trials + mc_trials`` of them. The study is one call per
    repeater gain (its parts), each over the whole grid, so that the benchmark
    can time it against the reference one part at a time; what the grid points
    of one gain could share stays inside one call.
    """

    def __init__(self, name: str, overrides: dict, gains: tuple,
                 middle_point_only: bool, trials: tuple[int, int],
                 tiny_trials: tuple[int, int], reference: tuple[float, float]):
        self.name = name
        self.ref_trials_per_s, self.ref_setup_s = reference
        self.overrides = overrides
        self.gains = self.parts = gains
        self.middle_point_only = middle_point_only
        self.trials, self.tiny_trials = trials, tiny_trials

    def config(self, seed: int, tiny: bool = False):
        mc, cal = self.tiny_trials if tiny else self.trials
        return repisac.ScenarioConfig(master_seed=seed, mc_trials=mc,
                                      calibration_trials=cal, **self.overrides)

    def setup(self, config) -> list[float]:
        """The study inputs: the RCS grid (it builds geometry, channels and precoders)."""
        grid = [float(v) for v in repisac.harness.suggest_rcs_grid(config, GRID_POINTS)]
        if self.middle_point_only:
            grid = [grid[GRID_POINTS // 2]]
        return grid

    def run(self, config, grid, gain):
        return repisac.harness.run_pod_vs_rcs(config, grid, repeater_gains_db=(gain,),
                                              workers=1)

    @staticmethod
    def combine(results):
        """The study's result from its parts' results, rows in gain order."""
        return dataclasses.replace(results[0], rows=[row for r in results for row in r.rows])

    def units(self, config) -> int:
        points = 1 if self.middle_point_only else GRID_POINTS
        return points * len(self.gains) * (config.calibration_trials + config.mc_trials)

    def check(self, result, config, grid) -> list[str]:
        n_rows = len(grid) * len(self.gains)
        if len(result.rows) != n_rows:
            return [f"expected {n_rows} rows, got {len(result.rows)}"]
        errors = [f"row {i}: {row[5]} trials, expected {config.mc_trials}"
                  for i, row in enumerate(result.rows) if row[5] != config.mc_trials]
        errors += _check_pfa(result, config)
        if len(grid) == 1:
            return errors
        n = config.mc_trials
        curves = [[row[2] for row in result.rows[g * len(grid):(g + 1) * len(grid)]]
                  for g in range(len(self.gains))]

        def two_sigma(p, q):
            return 2.0 * math.hypot(_binomial_sigma(p, n), _binomial_sigma(q, n))

        for gain, pod in zip(self.gains, curves):
            for i in range(len(pod) - 1):
                if pod[i + 1] < pod[i] - two_sigma(pod[i], pod[i + 1]):
                    errors.append(f"gain {gain}: PoD falls from {pod[i]} to {pod[i + 1]} "
                                  f"at grid point {i + 1}")
            if not pod[0] < 0.2:
                errors.append(f"gain {gain}: first-point PoD {pod[0]} is not below 0.2")
            if not pod[-1] > 0.9:
                errors.append(f"gain {gain}: last-point PoD {pod[-1]} is not above 0.9")
        # gains are ordered repeater-on first, repeater-off (None) last
        on, off = curves[0], curves[-1]
        for i, (p_on, p_off) in enumerate(zip(on, off)):
            if p_on < p_off - two_sigma(p_on, p_off):
                errors.append(f"grid point {i}: repeater-on PoD {p_on} below "
                              f"repeater-off PoD {p_off}")
        return errors


class SeCdfWorkload:
    """``run_se_cdf`` over both precoder modes x repeater on/off, in one call
    (one part). A unit is one drop."""

    parts = (None,)
    modes = ("target_centric", "comm_centric")
    repeater_settings = (True, False)

    def __init__(self, name: str, overrides: dict, drops: int, tiny_drops: int,
                 reference: tuple[float, float]):
        self.name = name
        self.ref_trials_per_s, self.ref_setup_s = reference
        self.overrides = overrides
        self.drops, self.tiny_drops = drops, tiny_drops

    def config(self, seed: int, tiny: bool = False):
        return repisac.ScenarioConfig(master_seed=seed,
                                      mc_trials=self.tiny_drops if tiny else self.drops,
                                      **self.overrides)

    def setup(self, config):
        """What a run builds before its first drop: one drop's geometry, channels
        and precoders. The study draws its own drops, so the result is unused."""
        rng = np.random.default_rng(config.master_seed)
        geometry = repisac.drop_entities(config, rng)
        channels = repisac.gen_channels(geometry, config, rng)
        return repisac.build_precoders(config, channels)

    def run(self, config, _inputs, _part):
        return repisac.harness.run_se_cdf(config, modes=self.modes,
                                          repeater_settings=self.repeater_settings,
                                          workers=1)

    @staticmethod
    def combine(results):
        return results[0]

    def units(self, config) -> int:
        return config.mc_trials

    def check(self, result, config, _inputs) -> list[str]:
        errors = []
        degenerate = result.metadata.get("degenerate_drops", {})
        if any(degenerate.values()):
            errors.append(f"degenerate drops: {degenerate}")
        medians = {}
        for mode in self.modes:
            for rep in self.repeater_settings:
                rows = [r for r in result.rows if r[0] == mode and r[1] == int(rep)]
                expected = config.mc_trials * config.n_users
                if len(rows) != expected:
                    errors.append(f"{mode}|{int(rep)}: {len(rows)} samples, expected {expected}")
                    continue
                se = np.array([r[2] for r in rows])
                cdf = np.array([r[3] for r in rows])
                if not (np.all(np.isfinite(se)) and np.all(se >= 0.0)):
                    errors.append(f"{mode}|{int(rep)}: SE not finite and nonnegative")
                if cdf[-1] != 1.0 or np.any(np.diff(cdf) < 0.0):
                    errors.append(f"{mode}|{int(rep)}: CDF does not rise to 1")
                medians[(mode, rep)] = float(np.median(se))
        for rep in self.repeater_settings:
            comm = medians.get(("comm_centric", rep))
            target = medians.get(("target_centric", rep))
            if comm is not None and target is not None and not comm > target:
                errors.append(f"repeater {int(rep)}: comm-centric median SE {comm} "
                              f"not above target-centric {target}")
        return errors


# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # the default scenario: 8x8, K=10, tau=50, no inter-BS residual, target-centric
    PodWorkload("pod-sweep", overrides={}, gains=(20.0, None), middle_point_only=False,
                trials=(250, 30), tiny_trials=(150, 50), reference=(1356.0, 0.327)),
    # residual inter-BS power near the BS noise floor takes the per-use
    # covariance branch of assemble_statistics
    PodWorkload("pod-point-interbs",
                overrides={"n_tx_antennas": 12, "n_rx_antennas": 12,
                           "residual_interbs_power": 1e-13},
                gains=(20.0,), middle_point_only=True,
                trials=(25, 100), tiny_trials=(10, 50), reference=(104.0, 0.34)),
    # K < Nt: at K >= Nt every comm-centric drop is degenerate
    SeCdfWorkload("secdf-drops", overrides={"n_tx_antennas": 8, "n_users": 6},
                  drops=500, tiny_drops=60, reference=(580.0, 0.35)),
)}

import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repisac import (ConfigError, NumericalDomainError, ScenarioConfig, StudyResult,
                     drop_entities, gen_channels, harness, run_pod_vs_rcs, run_se_cdf, user_sinr)
from repisac.channel import ClutterModel, clutter_covariance
from repisac.cli import main_cli
from repisac.comm_metrics import downlink_metrics
from repisac.detector import (TRIALS_PER_BLOCK, block_statistics, glrt_from_statistics,
                              trial_rng)
from repisac.harness import (DROPS_PER_BLOCK, POD_HEADER, SECDF_HEADER, STUDY_POD, STUDY_SECDF,
                             calibrate, draw_drop, run_trials, suggest_rcs_grid)
from repisac.precoding import build_precoders, rzf_precoders, target_precoder
from repisac.scenario import save_config

from conftest import tiny_config


@pytest.fixture
def forced_degenerate(monkeypatch):
    """A 6-drop SE-CDF config whose comm-centric sensing beams are nulled on drops 1 and 4.

    ``target_precoder``, as the study calls it on a block of drops, gives those
    drops a NaN beam, as it does for a drop whose sensing direction is nulled;
    valid configs hit a degenerate drop too rarely to test on a real one.
    """
    config = tiny_config(n_users=2, n_tx_antennas=3, mc_trials=6)
    doomed = [draw_drop(config, STUDY_SECDF, d)[1].b_tx for d in (1, 4)]  # drop-specific

    def sensing_beams(mode, a_tx, b_tx, fdot):
        beams = target_precoder(mode, a_tx, b_tx, fdot)
        if mode == "comm_centric":
            for drop_b_tx in doomed:
                beams[np.all(b_tx == drop_b_tx, axis=-1)] = np.nan
        return beams

    monkeypatch.setattr(harness, "target_precoder", sensing_beams)
    return config


class TestRunTrials:
    # every example starts process pools, so examples are few. The pool sends
    # len(units) // (8 workers) units a batch, at least one, so every example
    # below puts several batches on each worker
    @settings(deadline=None, derandomize=True, database=None, max_examples=8)
    @given(workers=st.integers(1, 3),
           n_trials=st.integers(1, 600).filter(lambda n: n % TRIALS_PER_BLOCK),  # a partial block
           n_drops=st.integers(DROPS_PER_BLOCK + 1, 200).filter(lambda n: n % DROPS_PER_BLOCK))
    @example(workers=2, n_trials=130, n_drops=20)   # batches of 1 block
    @example(workers=2, n_trials=600, n_drops=600)  # batches of 2 blocks
    @example(workers=3, n_trials=600, n_drops=90)
    def test_worker_count_does_not_change_results(self, workers, n_trials, n_drops):
        config = tiny_config()
        geometry, channels = draw_drop(config, STUDY_POD)
        clutter = clutter_covariance(config, geometry)
        precoders = build_precoders(config, channels)
        runs = [run_trials(config, channels, clutter, precoders, (5,), n_trials,
                           force_null=False, workers=w) for w in (1, workers)]
        np.testing.assert_array_equal(*runs)
        se_config = tiny_config(n_users=1, n_tx_antennas=3, mc_trials=n_drops)
        assert (run_se_cdf(se_config, workers=1).to_csv_bytes()
                == run_se_cdf(se_config, workers=workers).to_csv_bytes())

    def test_trial_order_is_by_index(self, small_setup):
        config, _, channels, clutter, precoders = small_setup
        n_full, n_prefix = 100, 40  # both end inside a block
        assert n_full % TRIALS_PER_BLOCK and n_prefix % TRIALS_PER_BLOCK
        full = run_trials(config, channels, clutter, precoders, (5,), n_full,
                          force_null=False, workers=1)
        prefix = run_trials(config, channels, clutter, precoders, (5,), n_prefix,
                            force_null=False, workers=1)
        np.testing.assert_array_equal(full[:n_prefix], prefix)
        # trials 80 to 95 are block 5, drawn from key (5, 5) whatever chunk holds it
        rows = block_statistics(config, channels, clutter, precoders,
                                trial_rng(config.master_seed, (5,), 5), TRIALS_PER_BLOCK)
        np.testing.assert_array_equal(
            full[5 * TRIALS_PER_BLOCK:6 * TRIALS_PER_BLOCK],
            glrt_from_statistics(rows[:, 0], rows[:, 1].real, rows[:, 2], config.rcs_variance))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_numerical_error_names_the_trial_seed_key(self, small_setup, workers):
        config, _, channels, _, precoders = small_setup
        wrong_size = ClutterModel.iid(1.0, 3, 3)  # Nt*Nr is 4, not 9
        with pytest.raises(NumericalDomainError, match=re.escape("seed key (5, 7, 0)")):
            run_trials(config, channels, wrong_size, precoders, (5, 7), 3,
                       force_null=True, workers=workers)

    def test_numerical_error_names_the_failing_block(self, small_setup, monkeypatch):
        # a failure in the third block names that block's key, (*key, 2)
        config, _, channels, clutter, precoders = small_setup

        def fail_in_block_two(cfg, ch, cm, pr, rng, n_trials):
            if rng.bit_generator.seed_seq.spawn_key[-1] == 2:
                raise NumericalDomainError("clutter-block matrix is not positive definite")
            return block_statistics(cfg, ch, cm, pr, rng, n_trials)

        monkeypatch.setattr(harness, "block_statistics", fail_in_block_two)
        with pytest.raises(NumericalDomainError,
                           match=re.escape("seed key (5, 7, 2): clutter-block")):
            run_trials(config, channels, clutter, precoders, (5, 7),
                       3 * TRIALS_PER_BLOCK + 1, force_null=True)


@pytest.fixture
def fake_pools(monkeypatch):
    """``ProcessPoolExecutor`` replaced by an in-process stand-in, on a host
    with 4 CPUs; the list records each pool's ``max_workers``. No process starts."""
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units, chunksize=1):
            return map(fn, units)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    return made


class TestWorkerPool:
    def test_a_study_opens_one_pool(self, small_setup, fake_pools):
        config, _, channels, clutter, precoders = small_setup
        gains = (20, 60, 100, None)
        result = run_pod_vs_rcs(config, [1e6, 1e8], repeater_gains_db=gains, workers=2)
        assert fake_pools == [2]  # not one per pass
        assert result.to_csv_bytes() == run_pod_vs_rcs(config, [1e6, 1e8],
                                                       repeater_gains_db=gains).to_csv_bytes()
        calibrate(config, workers=2)
        run_trials(config, channels, clutter, precoders, (5,), 40, force_null=False,
                   workers=2)
        run_se_cdf(tiny_config(n_users=1, n_tx_antennas=3, mc_trials=4), workers=2)
        assert fake_pools == [2] * 4
        assert multiprocessing.active_children() == []

    def test_worker_count_is_capped_at_the_cpu_count(self, fake_pools):
        config = tiny_config(calibration_trials=40)
        for workers in (1, 3, 4, 10**6):
            calibrate(config, workers=workers)
        assert fake_pools == [3, 4, 4]  # one worker maps in-process

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, small_setup, fake_pools, workers):
        config, _, channels, clutter, precoders = small_setup
        match = f"workers must be at least 1, got {workers}"
        with pytest.raises(ConfigError, match=match):
            run_pod_vs_rcs(config, [1e6], workers=workers)
        with pytest.raises(ConfigError, match=match):
            calibrate(config, workers=workers)
        with pytest.raises(ConfigError, match=match):
            run_trials(config, channels, clutter, precoders, (5,), 40, force_null=False,
                       workers=workers)
        with pytest.raises(ConfigError, match=match):
            run_se_cdf(tiny_config(n_users=1, n_tx_antennas=3, mc_trials=4), workers=workers)
        assert fake_pools == []


class TestStudyResult:
    def test_csv_bytes_round_trip_floats_exactly(self):
        result = StudyResult(kind="pod_vs_rcs", header=("a", "b"),
                             rows=[(0.1 + 0.2, 7)])
        text = result.to_csv_bytes().decode("ascii")
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[0]) == 0.1 + 0.2

    def test_write_csv(self, tmp_path):
        result = StudyResult(kind="se_cdf", header=("x",), rows=[(1.0,), (2.0,)])
        path = tmp_path / "out.csv"
        result.write_csv(str(path))
        assert path.read_bytes() == result.to_csv_bytes()


class TestPodStudy:
    def test_structure_and_determinism_across_workers(self):
        config = tiny_config(mc_trials=60, calibration_trials=300, pfa_target=0.05)
        grid = suggest_rcs_grid(config, n_points=3)
        assert np.all(np.diff(grid) > 0) and np.all(grid > 0)
        r1 = run_pod_vs_rcs(config, grid, workers=1)
        r2 = run_pod_vs_rcs(config, grid, workers=2)
        assert r1.header == POD_HEADER
        assert r1.to_csv_bytes() == r2.to_csv_bytes()
        assert len(r1.rows) == 2 * len(grid)  # configured gain plus repeater-off
        gains = {row[1] for row in r1.rows}
        assert gains == {config.repeater_gain_db, float("-inf")}
        for row in r1.rows:
            assert 0.0 <= row[2] <= 1.0
            assert row[5] == config.mc_trials

    def test_repeater_off_default_study_runs_once(self, tmp_path):
        # with the repeater off the default gains are repeater-off alone
        config = tiny_config(repeater_on=False)
        result = run_pod_vs_rcs(config, [1e6, 1e8])
        assert [row[:2] for row in result.rows] == [(1e6, float("-inf")), (1e8, float("-inf"))]
        cfg = str(tmp_path / "scenario.cfg")
        save_config(config, cfg)
        out = tmp_path / "pod.csv"
        assert main_cli(["pod", "--config", cfg, "--grid", "1e6", "--out", str(out)]) == 0
        assert out.read_bytes() == run_pod_vs_rcs(config, [1e6]).to_csv_bytes()
        assert len(out.read_text().strip().split("\n")) == 1 + 1

    def test_one_pass_matches_per_point_pipeline(self):
        # reference: every grid point reruns its own H0 and H1 trials, block by
        # block, and evaluates T = |u + alpha s|^2 / (s + 1/sigma_T^2) in complex
        # arithmetic, as a study that drew each point's trials itself would
        config = tiny_config()  # 200 H0 and 50 H1 trials: both end inside a block
        grid = [float(v) for v in suggest_rcs_grid(config, n_points=3)]
        gains = (20.0, None)
        geometry, channels = draw_drop(config, STUDY_POD)
        clutter = clutter_covariance(config, geometry)

        def statistics(cfg, precoders, key, n_trials, null):
            rows = np.concatenate([
                block_statistics(cfg, channels, clutter, precoders,
                                 trial_rng(cfg.master_seed, key, b),
                                 min(TRIALS_PER_BLOCK, n_trials - b * TRIALS_PER_BLOCK))
                for b in range(-(-n_trials // TRIALS_PER_BLOCK))])
            assert rows.shape == (n_trials, 3)
            u, s, alpha1 = rows.T
            alpha = 0.0 if null else np.sqrt(cfg.rcs_variance) * alpha1  # H0: no echo
            return np.abs(u + alpha * s.real) ** 2 / (s.real + 1.0 / cfg.rcs_variance)

        expected = []
        for gain in gains:
            cfg_gain = (config.with_updates(repeater_on=False) if gain is None else
                        config.with_updates(repeater_on=True, repeater_gain_db=gain))
            precoders = build_precoders(cfg_gain, channels)
            for sigma_t_sq in grid:
                cfg = cfg_gain.with_updates(rcs_variance=sigma_t_sq)
                t_null = statistics(cfg, precoders, (STUDY_POD, 2), cfg.calibration_trials,
                                    True)
                threshold = np.quantile(t_null, 1.0 - cfg.pfa_target, method="higher")
                t_hit = statistics(cfg, precoders, (STUDY_POD, 3), cfg.mc_trials, False)
                expected.append((np.mean(t_hit >= threshold), threshold,
                                 np.mean(t_null >= threshold), cfg.mc_trials))

        result = run_pod_vs_rcs(config, grid, repeater_gains_db=gains)
        assert [row[0] for row in result.rows] == grid * 2
        assert 0.0 < result.rows[0][2] < result.rows[2][2]  # the curve is not flat
        for row, (pod, threshold, empirical_pfa, trials) in zip(result.rows, expected):
            assert (row[2], row[4], row[5]) == (pod, empirical_pfa, trials)
            assert row[3] == pytest.approx(threshold, rel=1e-10)

    def test_mean_scnr_shows_where_the_repeater_matters(self):
        # on the default drop the repeater path is ~5.5e-5 of the direct one at
        # 20 dB; at 100 dB it carries the target energy
        config = ScenarioConfig(mc_trials=100, calibration_trials=100)
        result = run_pod_vs_rcs(config, [1e8], repeater_gains_db=(100.0, 20.0, None))
        scnr = result.metadata["mean_scnr"]
        assert list(scnr) == [100.0, 20.0, float("-inf")]
        assert scnr[100.0] > 5.0 * scnr[float("-inf")]
        assert scnr[20.0] == pytest.approx(scnr[float("-inf")], rel=1e-2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_pod_vs_rcs(tiny_config(), [])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_grid_value_rejected(self, bad):
        with pytest.raises(ConfigError):
            run_pod_vs_rcs(tiny_config(), [1.0, bad])

    @pytest.mark.parametrize("gains", [(20, 20.0), (None, 60.0, None)], ids=["20", "none"])
    def test_duplicate_gains_rejected_before_the_study(self, monkeypatch, gains):
        # two equal gains would run the same passes twice and write duplicate rows
        drawn = []
        monkeypatch.setattr(harness, "draw_drop", lambda *args: drawn.append(args))
        with pytest.raises(ConfigError, match="repeater gains must be distinct"):
            run_pod_vs_rcs(tiny_config(), [1e8], repeater_gains_db=gains)
        assert drawn == []


    def test_no_gains_rejected_before_the_study(self, monkeypatch):
        # no gains used to give a study of no rows
        drawn = []
        monkeypatch.setattr(harness, "draw_drop", lambda *args: drawn.append(args))
        with pytest.raises(ConfigError, match="^pod study needs at least one repeater gain$"):
            run_pod_vs_rcs(tiny_config(), [1e8], repeater_gains_db=())
        assert drawn == []

    def test_grid_suggestion_spans_the_transition(self):
        # scaled by s_bar, the mean s of one block of the study's own kernel and setup
        config = tiny_config()
        geometry, channels = draw_drop(config, STUDY_POD)
        rows = block_statistics(config, channels, clutter_covariance(config, geometry),
                                build_precoders(config, channels),
                                trial_rng(config.master_seed, (STUDY_POD, 9), 0),
                                TRIALS_PER_BLOCK)
        s_bar = float(np.mean(rows[:, 1].real))
        np.testing.assert_array_equal(suggest_rcs_grid(config, 5),
                                      np.geomspace(0.05 / s_bar, 2000.0 / s_bar, 5))

    def test_pilot_failure_names_its_seed_key(self, monkeypatch):
        def fail(*args):
            raise NumericalDomainError("Q_H0 is not positive definite")
        monkeypatch.setattr(harness, "block_statistics", fail)
        with pytest.raises(NumericalDomainError, match=re.escape("seed key (1, 9, 0)")):
            suggest_rcs_grid(tiny_config())

    def test_auto_grid_spans_the_swerling_transition(self):
        # at zeta^2 = 0, PoD = PFA^(1 / (1 + sigma_T^2 s)): 0.0125 at the first point
        # and 0.998 at the last
        config = ScenarioConfig(mc_trials=800, calibration_trials=800)
        grid = suggest_rcs_grid(config)
        pods = [row[2] for row in run_pod_vs_rcs(config, grid, repeater_gains_db=(20.0,)).rows]
        assert pods[0] <= 0.05 and pods[-1] >= 0.99

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_grid_of_no_points_rejected_before_the_drop(self, monkeypatch, n_points):
        # 0 points used to give an empty grid, and -3 numpy's raw ValueError
        drawn = []
        monkeypatch.setattr(harness, "draw_drop", lambda *args: drawn.append(args))
        with pytest.raises(ConfigError,
                           match=f"^rcs grid needs at least one point, got {n_points}$"):
            suggest_rcs_grid(tiny_config(), n_points)
        assert drawn == []


class TestSeCdfStudy:
    def test_structure_and_determinism_across_workers(self):
        config = tiny_config(n_users=1, n_tx_antennas=3, mc_trials=24)
        r1 = run_se_cdf(config, workers=1)
        r2 = run_se_cdf(config, workers=2)
        assert r1.header == SECDF_HEADER
        assert r1.to_csv_bytes() == r2.to_csv_bytes()
        modes = {row[0] for row in r1.rows}
        assert modes == {"target_centric", "comm_centric"}
        for mode in modes:
            for rep in (0, 1):
                cdf = [row[3] for row in r1.rows if row[0] == mode and row[1] == rep]
                se = [row[2] for row in r1.rows if row[0] == mode and row[1] == rep]
                assert cdf == sorted(cdf)
                assert se == sorted(se)
                assert cdf[-1] == pytest.approx(1.0)

    def test_degenerate_drops_are_counted_not_fatal(self, forced_degenerate):
        config = forced_degenerate
        result = run_se_cdf(config, workers=1)
        assert result.metadata["degenerate_drops"] == {
            "target_centric|1": 0, "target_centric|0": 0,
            "comm_centric|1": 2, "comm_centric|0": 2}
        assert result.metadata["warnings"] == [
            "2 of 6 drops degenerate for comm_centric|1 (skipped)",
            "2 of 6 drops degenerate for comm_centric|0 (skipped)"]
        for mode, drops in (("target_centric", range(6)), ("comm_centric", (0, 2, 3, 5))):
            for rep in (True, False):
                # reference: every kept drop's users one at a time
                cfg = config.with_updates(precoder_mode=mode, repeater_on=rep)
                expected = []
                for d in drops:
                    _, channels = draw_drop(config, STUDY_SECDF, d)
                    precoders = build_precoders(cfg, channels)
                    expected += [user_sinr(n, precoders, channels, cfg).se
                                 for n in range(cfg.n_users)]
                rows = [row for row in result.rows if row[:2] == (mode, int(rep))]
                assert [row[2] for row in rows] == sorted(expected)
                assert rows[-1][3] == 1.0

    @staticmethod
    def se_by_drop(config, modes, settings=(True, False)):
        """SE from the study's blocks of drops, shape (modes, settings, drops, users)."""
        rep_configs = tuple(config.with_updates(repeater_on=r) for r in settings)
        n_drops, size = config.mc_trials, harness.DROPS_PER_BLOCK
        return np.concatenate([harness._secdf_block(config, modes, rep_configs,
                                                    range(d, min(d + size, n_drops)))
                               for d in range(0, n_drops, size)], axis=2)

    @pytest.mark.parametrize("overrides, modes", [
        ({}, ("target_centric", "comm_centric", "repeater_null")),
        ({"sensing_power_fraction": 0.0}, ("target_centric", "comm_centric")),
        ({"user_power_fractions": (0.05, 0.3, 0.2)}, ("comm_centric", "repeater_null")),
        ({"n_users": 1}, ("target_centric", "comm_centric", "repeater_null")),
    ], ids=["three_modes", "no_sensing_beam", "unequal_user_fractions", "one_user"])
    def test_each_drop_matches_the_single_drop_calls(self, overrides, modes):
        # 37 drops: two full blocks and a partial one
        config = tiny_config(**{"n_tx_antennas": 4, "n_users": 3, "mc_trials": 37, **overrides})
        se = self.se_by_drop(config, modes)
        assert se.shape == (len(modes), 2, 37, config.n_users)
        for drop in range(37):
            _, channels = draw_drop(config, STUDY_SECDF, drop)
            for m, mode in enumerate(modes):
                for r, rep in enumerate((True, False)):
                    cfg = config.with_updates(precoder_mode=mode, repeater_on=rep)
                    expected = downlink_metrics(build_precoders(cfg, channels), channels, cfg)
                    np.testing.assert_array_equal(se[m, r, drop], expected.se)

    @pytest.mark.parametrize("drops_per_block", [1, 5, 40])
    def test_block_size_does_not_change_results(self, monkeypatch, drops_per_block):
        # a drop moves to another position in another block, or into a partial one
        config = tiny_config(n_tx_antennas=4, n_users=3, mc_trials=37)
        modes = ("target_centric", "comm_centric", "repeater_null")
        se, csv = self.se_by_drop(config, modes), run_se_cdf(config, modes).to_csv_bytes()
        monkeypatch.setattr(harness, "DROPS_PER_BLOCK", drops_per_block)
        np.testing.assert_array_equal(self.se_by_drop(config, modes), se)
        assert run_se_cdf(config, modes).to_csv_bytes() == csv

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, NumericalDomainError])
    def test_numerical_error_names_the_drops_and_their_seed_keys(self, monkeypatch, error):
        # a failure in the partial last block, drops 32 to 36, names their keys
        def fail_in_the_last_block(fdot, zf_regularizer):
            if fdot.shape[0] < DROPS_PER_BLOCK:
                raise error("Singular matrix")
            return rzf_precoders(fdot, zf_regularizer)

        monkeypatch.setattr(harness, "rzf_precoders", fail_in_the_last_block)
        with pytest.raises(NumericalDomainError, match=re.escape(
                f"SE-CDF drops with seed keys ({STUDY_SECDF}, 0|1, 32..36): Singular matrix")):
            run_se_cdf(tiny_config(n_users=1, n_tx_antennas=3, mc_trials=37))

    def test_needs_users(self):
        with pytest.raises(ValueError):
            run_se_cdf(tiny_config(n_users=0, sensing_power_fraction=1.0))

    @pytest.mark.parametrize("kwargs, message", [
        ({"modes": ()}, "se_cdf study needs at least one precoder mode"),
        ({"repeater_settings": ()}, "se_cdf study needs at least one repeater setting"),
        ({"modes": ("comm_centric", "comm_centric")},
         r"precoder modes must be distinct, got \('comm_centric', 'comm_centric'\)"),
        ({"repeater_settings": (True, True)},
         r"repeater settings must be distinct, got \(True, True\)"),
    ], ids=["no_modes", "no_repeater_settings", "repeated_mode", "repeated_setting"])
    def test_bad_modes_and_settings_rejected_before_any_drop(self, monkeypatch, kwargs,
                                                              message):
        # no modes used to fail inside the first block, no settings gave 0 rows, and a
        # repeated one wrote every sample twice
        drawn = []
        monkeypatch.setattr(harness, "draw_drop", lambda *args: drawn.append(args))
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_se_cdf(tiny_config(n_tx_antennas=4, n_users=2, mc_trials=20), **kwargs)
        assert drawn == []


class TestDrawDrop:
    @staticmethod
    def assert_same_drop(block, i, drop):
        """Drop ``i`` of a block equals a drop drawn alone, bit for bit."""
        (block_geo, block_ch), (geo, ch) = block, drop
        for name in ("tx_bs", "rx_bs", "hotspot"):
            np.testing.assert_array_equal(getattr(block_geo, name), getattr(geo, name))
        np.testing.assert_array_equal(block_geo.repeater[i], geo.repeater)
        np.testing.assert_array_equal(block_geo.users[i], geo.users)
        for name, value in vars(ch).items():
            np.testing.assert_array_equal(getattr(block_ch, name)[i], value, err_msg=name)

    @pytest.mark.parametrize("study, overrides", [
        (STUDY_SECDF, {}),
        (STUDY_SECDF, {"residual_interbs_power": 1e-12}),
        (STUDY_SECDF, {"n_users": 1}),
        (STUDY_SECDF, {"repeater_disc_radius_m": 0.0}),
        (STUDY_POD, {"n_users": 0}),
    ], ids=["default", "interbs_residual", "one_user", "fixed_repeater", "no_users_pod"])
    def test_a_drop_draws_the_same_wherever_it_falls(self, study, overrides):
        config = ScenarioConfig(master_seed=11, **overrides)
        drops = [draw_drop(config, study, d) for d in range(40)]
        assert isinstance(drops[0][1].g_rep, complex) and isinstance(drops[0][1].rcs, complex)
        for size in (1, 5, 16, 40):
            for start in range(0, 40, size):
                block = draw_drop(config, study, range(start, min(start + size, 40)))
                assert block[1].b_tx.shape == (min(size, 40 - start), config.n_tx_antennas)
                for i, drop in enumerate(drops[start:start + size]):
                    self.assert_same_drop(block, i, drop)
        # a block draws its positions and every link per drop; the nuisance is
        # exact zeros (redraw_nuisance draws it), at zeta^2 > 0 too
        geometry, channels = block
        assert geometry.users.shape == (40, config.n_users, 3)
        assert channels.f_user.shape == (40, config.n_users, config.n_tx_antennas)
        for nuisance in (channels.clutter, channels.interbs_error):
            assert nuisance.shape == (40, config.n_rx_antennas, config.n_tx_antennas)
            assert np.all(nuisance == 0.0)
        assert channels.rcs.shape == channels.g_rep.shape == (40,)
        assert np.all(channels.rcs == 0.0) and drops[0][1].rcs == 0.0

    def test_one_drop_is_drop_entities_then_gen_channels_on_its_keys(self):
        config = ScenarioConfig(master_seed=3, residual_interbs_power=1e-12)
        for d in (0, 7):
            geometry = drop_entities(config, trial_rng(config.master_seed, (STUDY_SECDF, 0), d))
            channels = gen_channels(geometry, config,
                                    trial_rng(config.master_seed, (STUDY_SECDF, 1), d))
            block = draw_drop(config, STUDY_SECDF, range(d, d + 1))
            self.assert_same_drop(block, 0, (geometry, channels))
            self.assert_same_drop(block, 0, draw_drop(config, STUDY_SECDF, d))


class TestCli:
    def _config_path(self, tmp_path, **overrides):
        config = tiny_config(**overrides)
        path = tmp_path / "scenario.cfg"
        save_config(config, str(path))
        return str(path)

    def test_pod_command_writes_csv(self, tmp_path, capsys):
        cfg = self._config_path(tmp_path, mc_trials=30, calibration_trials=100,
                                pfa_target=0.05)
        out = tmp_path / "pod.csv"
        code = main_cli(["pod", "--config", cfg, "--grid", "1e6,1e8",
                         "--gains", "20,none", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(POD_HEADER)
        assert len(lines) == 1 + 4

    def test_secdf_command_writes_csv(self, tmp_path):
        cfg = self._config_path(tmp_path, n_users=1, n_tx_antennas=3, mc_trials=8)
        out = tmp_path / "se.csv"
        assert main_cli(["secdf", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().startswith(",".join(SECDF_HEADER))

    @pytest.mark.parametrize("command", [["pod"], ["secdf"], ["calibrate"]])
    def test_out_in_no_directory_fails_before_the_study(self, tmp_path, capsys, monkeypatch,
                                                         command):
        drawn = []
        monkeypatch.setattr(harness, "draw_drop", lambda *args: drawn.append(args))
        out = str(tmp_path / "no" / "such" / "out.csv")
        cfg = self._config_path(tmp_path, n_users=1, n_tx_antennas=3)
        assert main_cli(command + ["--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == f"configuration error: --out {out}: no such directory\n"
        assert drawn == []

    def test_failed_write_is_a_configuration_error(self, tmp_path, capsys):
        # the directory exists, but the path is a directory: the write fails after the study
        cfg = self._config_path(tmp_path)
        assert main_cli(["pod", "--config", cfg, "--grid", "1e6", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {tmp_path}: [Errno")
        assert err.count("\n") == 1

    def test_calibrate_command(self, tmp_path, capsys):
        cfg = self._config_path(tmp_path, calibration_trials=250, pfa_target=0.05)
        out = tmp_path / "thr.csv"
        assert main_cli(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        assert "threshold=" in capsys.readouterr().out
        assert out.read_text().startswith("threshold,empirical_pfa,trials")

    def test_calibrate_trials_override_sets_calibration_trials(self, tmp_path, capsys):
        cfg = self._config_path(tmp_path)
        out = tmp_path / "thr.csv"
        assert main_cli(["calibrate", "--config", cfg, "--trials", "5",
                         "--out", str(out)]) == 0
        assert "trials=5" in capsys.readouterr().out
        assert out.read_text().split("\n")[1].split(",")[2] == "5"

    def test_pod_reports_study_warnings_on_stderr(self, tmp_path, capsys):
        cfg = self._config_path(tmp_path, mc_trials=5)  # 200 x PFA 0.01 is under-resolved
        out = tmp_path / "pod.csv"
        assert main_cli(["pod", "--config", cfg, "--grid", "1e6", "--gains", "20",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: calibration under-resolved: 200 H0 trials at PFA 0.01 expect 2 "
            "false alarms (fewer than 10)\n")

    def test_secdf_reports_degenerate_drops_on_stderr(self, tmp_path, capsys,
                                                      forced_degenerate):
        cfg = str(tmp_path / "scenario.cfg")
        save_config(forced_degenerate, cfg)
        out = tmp_path / "se.csv"
        assert main_cli(["secdf", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: 2 of 6 drops degenerate for comm_centric|1 (skipped)\n"
            "warning: 2 of 6 drops degenerate for comm_centric|0 (skipped)\n")

    def test_comm_centric_without_nullspace_is_rejected_before_the_study(
            self, tmp_path, capsys, monkeypatch):
        # as many users as transmit antennas: the comm-centric nullspace is empty
        config = tiny_config(n_users=2, n_tx_antennas=2, mc_trials=6)
        drawn = []
        monkeypatch.setattr(harness, "draw_drop", lambda *args: drawn.append(args))
        with pytest.raises(ConfigError, match="n_users < n_tx_antennas"):
            run_se_cdf(config, modes=("comm_centric",))
        assert drawn == []

        cfg = self._config_path(tmp_path, n_users=2, n_tx_antennas=2, mc_trials=6)
        out = str(tmp_path / "out.csv")
        assert main_cli(["secdf", "--config", cfg, "--out", out]) == 1
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("precoder_mode = comm_centric\n")
        assert main_cli(["pod", "--config", cfg, "--grid", "1e6", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.count("configuration error: comm_centric needs n_users < "
                         "n_tx_antennas") == 2

    def test_config_that_transmits_nothing_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "silent.cfg"
        cfg.write_text("n_users = 0\nsensing_power_fraction = 0.0\n")
        out = str(tmp_path / "x.csv")
        for args in (["pod"], ["pod", "--grid", "1e6"], ["calibrate"]):
            assert main_cli(args + ["--config", str(cfg), "--out", out]) == 1
        assert capsys.readouterr().err.count(
            "configuration error: the config transmits nothing") == 3

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        cfg = self._config_path(tmp_path)
        assert main_cli(["calibrate", "--config", cfg, "--seed", "-1"]) == 1
        assert "master_seed must be nonnegative" in capsys.readouterr().err

    def test_calibrate_reproduces_the_pod_threshold(self, tmp_path):
        for repeater_on in (True, False):
            config = tiny_config(repeater_on=repeater_on)
            cfg = self._config_path(tmp_path, repeater_on=repeater_on)
            out = tmp_path / "thr.csv"
            assert main_cli(["calibrate", "--config", cfg, "--out", str(out)]) == 0
            threshold, empirical_pfa = map(float, out.read_text().split("\n")[1].split(",")[:2])
            pod = run_pod_vs_rcs(config, [config.rcs_variance])  # the configured gain first
            assert (threshold, empirical_pfa) == (pod.rows[0][3], pod.rows[0][4])

    def test_oracle_check_command(self, capsys):
        assert main_cli(["oracle-check", "--trials", "10", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_oracle_check_of_no_instances_exits_one(self, capsys, trials):
        assert main_cli(["oracle-check", "--trials", trials]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("configuration error: oracle check needs at least one instance, "
                       f"got {trials}\n")

    def test_bad_config_returns_one(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery_knob = 5\n")
        assert main_cli(["pod", "--config", str(path), "--grid", "1.0",
                         "--out", str(tmp_path / "x.csv")]) == 1

    def test_seed_and_trials_overrides(self, tmp_path):
        cfg = self._config_path(tmp_path, mc_trials=30, calibration_trials=100,
                                pfa_target=0.05)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["pod", "--config", cfg, "--grid", "1e6", "--gains", "none",
                "--trials", "25"]
        assert main_cli(args + ["--seed", "1", "--out", str(out_a)]) == 0
        assert main_cli(args + ["--seed", "2", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()
        assert out_a.read_text().strip().split("\n")[1].split(",")[5] == "25"

    def test_usage_error_exit_code(self):
        assert main_cli(["pod"]) == 1  # missing required --out

    @pytest.mark.parametrize("args, overrides, lines, message", [
        (["pod", "--grid", "abc"], {}, "", "--grid: could not convert string to float: 'abc'"),
        (["pod", "--grid", ","], {}, "", "rcs grid must be nonempty"),
        (["pod", "--grid", "1e6", "--gains", "20,abc"], {}, "",
         "--gains: could not convert string to float: 'abc'"),
        (["secdf"], {"n_users": 0, "sensing_power_fraction": 1.0}, "",
         "se_cdf study needs at least one user"),
        (["calibrate", "--workers", "0"], {}, "", "workers must be at least 1, got 0"),
        (["pod", "--grid", "1e6", "--workers", "-3"], {}, "",
         "workers must be at least 1, got -3"),
        # config-file lines after the saved config override it
        (["pod"], {}, "tx_bs_xy = 5\n", "tx_bs_xy must hold exactly 2 numbers, got (5.0,)"),
        (["pod", "--grid", "1e6"], {}, "hotspot_xy = 1,2,3\n",
         "hotspot_xy must hold exactly 2 numbers, got (1.0, 2.0, 3.0)"),
        (["secdf"], {}, "service_radius_m = 0\n",
         "zero-radius service disc cannot hold multiple users"),
        (["pod", "--grid", "1e8", "--gains", "20,20.0"], {}, "",
         "repeater gains must be distinct, got (20.0, 20.0)"),
        (["pod", "--grid", "1e8", "--gains", "none,none"], {}, "",
         "repeater gains must be distinct, got (None, None)"),
        (["pod", "--grid", "1e6"], {}, "rx_bs_xy = 0,0\n",
         "the transmit BS and the receive BS coincide at (0.0, 0.0, 25.0): their path loss "
         "needs a positive 3-D distance"),
        (["secdf"], {}, "bs_height_m = 1.5\nn_users = 1\nservice_radius_m = 0\n",
         "the transmit BS and the users coincide at (0.0, 0.0, 1.5): their path loss "
         "needs a positive 3-D distance"),
    ], ids=["grid_not_a_number", "grid_empty", "gain_not_a_number", "secdf_no_users",
            "zero_workers", "negative_workers", "one_number_anchor", "three_number_anchor",
            "zero_service_disc", "duplicate_gains", "duplicate_repeater_off",
            "receive_bs_on_transmit_bs", "user_on_transmit_bs"])
    def test_bad_input_is_a_configuration_error(self, tmp_path, capsys, args, overrides,
                                                lines, message):
        cfg = self._config_path(tmp_path, **overrides)
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write(lines)
        assert main_cli(args + ["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

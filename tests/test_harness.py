import concurrent.futures
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import norm

from repisac import (ConfigError, DegenerateNullspaceError, NumericalDomainError,
                     ScenarioConfig, StudyResult, detector, drop_entities, gen_channels,
                     harness, run_pod_vs_rcs, run_se_cdf, user_sinr)
from repisac.channel import ChannelRealization, ClutterModel, clutter_covariance
from repisac.cli import main_cli
from repisac.comm_metrics import downlink_metrics
from repisac.detector import (block_statistics, block_trials, glrt_from_statistics,
                              threshold_from_null_stats, trial_rng)
from repisac.harness import (DROPS_PER_BLOCK, POD_HEADER, SECDF_HEADER, STUDY_POD, STUDY_SECDF,
                             calibrate, draw_drop, run_trials, suggest_rcs_grid)
from repisac.precoding import build_precoders, rzf_precoders, target_precoder
from repisac.scenario import save_config

import se_law
from conftest import tiny_config


def drop_of(channels, d):
    """Drop d of a block of drops' channels, as the ``ChannelRealization`` of one drop."""
    return ChannelRealization(**{name: value[d] for name, value in vars(channels).items()})


@pytest.fixture
def keys(monkeypatch):
    """The keys (*key, index) of every generator the harness builds, in order. Every
    drop and every block of trials draws from such generators, so an empty list
    means that nothing was drawn."""
    made = []

    def recording_rng(master_seed, key, index):
        made.append((*key, index))
        return trial_rng(master_seed, key, index)

    monkeypatch.setattr(harness, "trial_rng", recording_rng)
    return made


@pytest.fixture
def forced_degenerate(monkeypatch):
    """A 6-drop SE-CDF config whose comm-centric sensing beams are nulled on drops 1 and 4.

    ``target_precoder``, as the study calls it on a block of drops, gives those
    drops a NaN beam, as it does for a drop whose sensing direction is nulled;
    valid configs hit a degenerate drop too rarely to test on a real one.
    """
    config = tiny_config(n_users=2, n_tx_antennas=3, mc_trials=6)
    doomed = draw_drop(config, STUDY_SECDF, 0, 6)[1].b_tx[[1, 4]]  # drop-specific

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
           n_trials=st.integers(1, 2400).filter(  # a partial block
               lambda n: n % block_trials(tiny_config())),
           n_drops=st.integers(DROPS_PER_BLOCK + 1, 12 * DROPS_PER_BLOCK + 8).filter(
               lambda n: n % DROPS_PER_BLOCK))  # 2 to 13 blocks, the last one partial
    @example(workers=2, n_trials=130, n_drops=DROPS_PER_BLOCK + 4)  # batches of 1 block
    @example(workers=2, n_trials=37 * block_trials(tiny_config()) + 8,  # batches of 2 blocks
             n_drops=37 * DROPS_PER_BLOCK + 8)
    @example(workers=3, n_trials=600, n_drops=5 * DROPS_PER_BLOCK + 26)
    def test_worker_count_does_not_change_results(self, workers, n_trials, n_drops):
        config = tiny_config()
        channels, clutter = harness._pod_drop(config)
        precoders = build_precoders(config, channels)
        runs = [run_trials(config, channels, clutter, precoders, (5,), n_trials,
                           force_null=False, workers=w) for w in (1, workers)]
        np.testing.assert_array_equal(*runs)
        se_config = tiny_config(n_users=1, n_tx_antennas=3, mc_trials=n_drops)
        assert (run_se_cdf(se_config, workers=1).to_csv_bytes()
                == run_se_cdf(se_config, workers=workers).to_csv_bytes())

    def test_trial_order_is_by_index(self, small_setup):
        config, channels, clutter, precoders = small_setup
        size = block_trials(config)
        n_full, n_prefix = 400, 150  # both end inside a block
        assert size == 128 and n_full % size and n_prefix % size
        full = run_trials(config, channels, clutter, precoders, (5,), n_full,
                          force_null=False, workers=1)
        prefix = run_trials(config, channels, clutter, precoders, (5,), n_prefix,
                            force_null=False, workers=1)
        np.testing.assert_array_equal(full[:n_prefix], prefix)
        # trials 256 to 383 are block 2, drawn from key (5, 2) whatever chunk holds it
        rows = block_statistics(config, channels, clutter, precoders,
                                [(trial_rng(config.master_seed, (5,), 2), size)])
        np.testing.assert_array_equal(
            full[2 * size:3 * size],
            glrt_from_statistics(rows[:, 0], rows[:, 1].real, rows[:, 2], config.rcs_variance))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_numerical_error_names_the_trial_seed_key(self, small_setup, workers):
        config, channels, _, precoders = small_setup
        wrong_size = ClutterModel.iid(1.0, 3, 3)  # Nt*Nr is 4, not 9
        with pytest.raises(NumericalDomainError, match=re.escape("seed key (5, 7, 0)")):
            run_trials(config, channels, wrong_size, precoders, (5, 7), 3,
                       force_null=True, workers=workers)

    def test_numerical_error_names_the_failing_block(self, monkeypatch):
        # on the default config a block holds 384 trials, drawn from one generator
        # and evaluated in one kernel call; a failure in the third block names
        # that block's one key, (*key, 2)
        config = ScenarioConfig()
        channels, clutter = harness._pod_drop(config)
        calls = []

        def fail_in_block_two(cfg, ch, cm, pr, draws):
            calls.append([(rng.bit_generator.seed_seq.spawn_key, n) for rng, n in draws])
            if any(rng.bit_generator.seed_seq.spawn_key[-1] == 2 for rng, _ in draws):
                raise NumericalDomainError("clutter-block matrix is singular")
            return block_statistics(cfg, ch, cm, pr, draws)

        monkeypatch.setattr(harness, "block_statistics", fail_in_block_two)
        with pytest.raises(NumericalDomainError, match="^" + re.escape(
                "trial block with seed key (5, 7, 2): clutter-block matrix is singular")
                + "$"):
            run_trials(config, channels, clutter, build_precoders(config, channels), (5, 7),
                       3 * 384 + 1, force_null=True)
        assert calls == [[((5, 7, b), 384)] for b in range(3)]
        # the short blocks of an H0 and an H1 pass share one kernel call: a
        # failure there names both keys
        calls.clear()

        def fail(cfg, ch, cm, pr, draws):
            calls.append([(rng.bit_generator.seed_seq.spawn_key, n) for rng, n in draws])
            raise NumericalDomainError("clutter-block matrix is singular")

        monkeypatch.setattr(harness, "block_statistics", fail)
        with pytest.raises(NumericalDomainError, match="^" + re.escape(
                "trial blocks with seed keys (1, 2, 0) and (1, 3, 0): "
                "clutter-block matrix is singular") + "$"):
            run_pod_vs_rcs(config.with_updates(calibration_trials=30, mc_trials=250), [1e8],
                           repeater_gains_db=(20.0,))
        assert calls == [[((1, 2, 0), 30), ((1, 3, 0), 250)]]

    @pytest.mark.parametrize("overrides", [{}, {"residual_interbs_power": 1e-13}],
                             ids=["bartlett", "symbols"])
    def test_short_blocks_share_units_and_keep_their_rows(self, overrides):
        # the short last blocks of the passes share units, in order, while their
        # trials fit in one block; each pass's rows are byte-equal to its blocks
        # evaluated alone, and to the rows of two worker processes
        config = ScenarioConfig(**overrides)
        size = block_trials(config)
        channels, clutter = harness._pod_drop(config)
        args = (config, channels, clutter, build_precoders(config, channels))
        passes = [((5, 0), size + size // 8), ((5, 1), size // 2), ((5, 2), size // 2)]
        units = []

        def recording_run(fn, blocks):
            units.append(blocks)
            return [fn(b) for b in blocks]

        packed = harness._trial_passes(*args, passes, recording_run)
        assert units == [[(((5, 0), 0, size),),
                          (((5, 0), 1, size // 8), ((5, 1), 0, size // 2)),
                          (((5, 2), 0, size // 2),)]]
        for (key, n_trials), rows in zip(passes, packed):
            np.testing.assert_array_equal(rows, np.concatenate([
                block_statistics(*args, [(trial_rng(config.master_seed, key, b),
                                          min(size, n_trials - b * size))])
                for b in range(-(-n_trials // size))]))
        with harness._mapper(2) as run:
            for rows, rows_2 in zip(packed, harness._trial_passes(*args, passes, run)):
                np.testing.assert_array_equal(rows, rows_2)

    @pytest.mark.parametrize("n_trials, message", [
        pytest.param(2.5, "n_trials must be an integer, got 2.5", id="2.5"),
        pytest.param(True, "n_trials must be an integer, got True", id="True"),
        pytest.param(-3, "n_trials must be nonnegative, got -3", id="-3"),
    ])
    def test_trial_count_that_is_no_count_rejected(self, small_setup, keys, n_trials,
                                                   message):
        # 2.5 raised a raw TypeError, True ran one trial and -3 gave no rows
        config, channels, clutter, precoders = small_setup
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_trials(config, channels, clutter, precoders, (5,), n_trials, force_null=False)
        assert keys == []

    @pytest.mark.parametrize("overrides, size", [
        ({}, 384),                                 # tau = 50, 8 Bartlett rows (Nt < K + 1): 6 x 64
        ({"slot_length": 22}, 128),                # 22 // 8 = 2
        ({"slot_length": 8}, 64),                  # tau = Nt: 8 rows, as many as S
        ({"n_users": 4}, 640),                     # K + 1 < Nt: 5 rows, 50 // 5 = 10 x 64
        ({"residual_interbs_power": 1e-13}, 64),   # symbol frames of tau rows
    ], ids=["default", "tau22", "tau8", "K4", "zeta"])
    def test_a_pass_maps_one_unit_per_block(self, overrides, size):
        config = ScenarioConfig(**overrides)
        assert block_trials(config) == size
        channels, clutter = harness._pod_drop(config)
        args = (config, channels, clutter, build_precoders(config, channels))
        n_trials = 6 * size + 5  # seven blocks, the last one short
        units = []

        def recording_run(fn, blocks):
            units.append(blocks)
            return [fn(b) for b in blocks]

        (rows,) = harness._trial_passes(*args, [((5,), n_trials)], recording_run)
        assert units == [[(((5,), b, size),) for b in range(6)] + [(((5,), 6, 5),)]]
        np.testing.assert_array_equal(rows, np.concatenate([
            block_statistics(*args, [(trial_rng(config.master_seed, (5,), b),
                                      min(size, n_trials - b * size))])
            for b in range(7)]))


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    return made


class TestWorkerPool:
    def test_importing_the_package_imports_no_process_pool(self):
        # the pool is imported by a study that asks for more than one worker;
        # imported with the package, it pulled in multiprocessing, socket and
        # subprocess on every import
        code = ("import sys, repisac; print([m for m in ('concurrent.futures', "
                "'multiprocessing') if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert out.stdout == "[]\n"

    def test_a_study_opens_one_pool(self, small_setup, fake_pools):
        config, channels, clutter, precoders = small_setup
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

    @pytest.mark.parametrize("workers, match", [
        pytest.param(0, "workers must be at least 1, got 0", id="0"),
        pytest.param(-3, "workers must be at least 1, got -3", id="-3"),
        # 1.5 and 2.0 failed in the pool with a raw TypeError, and True ran as 1
        pytest.param(1.5, "workers must be an integer, got 1.5", id="1.5"),
        pytest.param(2.0, "workers must be an integer, got 2.0", id="2.0"),
        pytest.param(True, "workers must be an integer, got True", id="True"),
    ])
    def test_fewer_than_one_worker_rejected(self, small_setup, fake_pools, monkeypatch, tmp_path,
                                            capsys, workers, match):
        # rejected before any drop is drawn or any trial is run: no generator is built
        config, channels, clutter, precoders = small_setup
        monkeypatch.setattr(harness, "trial_rng", lambda *key: pytest.fail(f"generator {key}"))
        with pytest.raises(ConfigError, match=match):
            run_pod_vs_rcs(config, [1e6], workers=workers)
        with pytest.raises(ConfigError, match=match):
            run_pod_vs_rcs(config, None, workers=workers)
        with pytest.raises(ConfigError, match=match):
            calibrate(config, workers=workers)
        with pytest.raises(ConfigError, match=match):
            run_trials(config, channels, clutter, precoders, (5,), 40, force_null=False,
                       workers=workers)
        with pytest.raises(ConfigError, match=match):
            run_se_cdf(tiny_config(n_users=1, n_tx_antennas=3, mc_trials=4), workers=workers)
        if type(workers) is int:  # the CLI parses --workers as an integer
            cfg = tmp_path / "scenario.cfg"
            save_config(config, str(cfg))
            assert main_cli(["pod", "--config", str(cfg), "--workers", str(workers),
                             "--out", str(tmp_path / "x.csv")]) == 1  # the auto grid
            assert capsys.readouterr().err == f"configuration error: {match}\n"
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
        channels, clutter = harness._pod_drop(config)

        def statistics(cfg, precoders, key, n_trials, null):
            size = block_trials(cfg)
            rows = np.concatenate([
                block_statistics(cfg, channels, clutter, precoders,
                                 [(trial_rng(cfg.master_seed, key, b),
                                   min(size, n_trials - b * size))])
                for b in range(-(-n_trials // size))])
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
        # the curve is not flat: the last point's PoD is ~PFA^(1 / 2001), ~1
        assert result.rows[0][2] < result.rows[2][2]
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

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_invalid_grid_value_rejected(self, bad):  # True ran as 1.0
        with pytest.raises(ConfigError):
            run_pod_vs_rcs(tiny_config(), [1.0, bad])

    @pytest.mark.parametrize("gains", [(20, 20.0), (None, 60.0, None)], ids=["20", "none"])
    def test_duplicate_gains_rejected_before_the_study(self, keys, gains):
        # two equal gains would run the same passes twice and write duplicate rows
        with pytest.raises(ConfigError, match="repeater gains must be distinct"):
            run_pod_vs_rcs(tiny_config(), [1e8], repeater_gains_db=gains)
        assert keys == []


    @pytest.mark.parametrize("gains, bad", [((20.0, float("inf")), "inf"),
                                            ((20.0, float("nan"), float("nan")), "nan"),
                                            ((20.0, True), "True"), (("20",), "'20'")],
                             ids=["inf", "nan_nan", "bool", "str"])
    def test_gain_no_config_takes_rejected_before_the_study(self, keys, gains, bad):
        # each gain's config was built in the study loop: the 20 dB passes ran
        # first, two NaNs passed the distinctness check (nan != nan), True ran
        # as 1 dB and "20" as 20 dB
        with pytest.raises(ConfigError,
                           match=f"^repeater_gain_db must be a finite number, got {bad}$"):
            run_pod_vs_rcs(tiny_config(), [1e8], repeater_gains_db=gains)
        assert keys == []

    @pytest.mark.parametrize("kwargs, message", [
        ({"rcs_grid": 1e6}, "rcs grid must be a sequence, got 1000000.0"),
        ({"rcs_grid": "1e6"}, "rcs grid must be a sequence, got '1e6'"),
        ({"rcs_grid": [1e6], "repeater_gains_db": 20.0},
         "repeater gains must be a sequence, got 20.0"),
        ({"rcs_grid": None, "repeater_gains_db": "20"},
         "repeater gains must be a sequence, got '20'"),
    ], ids=["scalar_grid", "string_grid", "scalar_gains", "string_gains"])
    def test_grid_or_gains_that_is_no_sequence_rejected_before_the_study(self, keys, kwargs,
                                                                          message):
        # a scalar raised a raw TypeError, and a string was read one character at a time
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_pod_vs_rcs(tiny_config(), **kwargs)
        assert keys == []

    def test_gains_from_a_generator(self):
        # the study read the generator twice, so its second pass gave 0 rows
        config = tiny_config()
        expected = run_pod_vs_rcs(config, [1e6, 1e8], repeater_gains_db=(20.0, None))
        result = run_pod_vs_rcs(config, [1e6, 1e8],
                                repeater_gains_db=(g for g in (20.0, None)))
        assert result.to_csv_bytes() == expected.to_csv_bytes()

    def test_no_gains_rejected_before_the_study(self, keys):
        # no gains used to give a study of no rows
        with pytest.raises(ConfigError, match="^pod study needs at least one repeater gain$"):
            run_pod_vs_rcs(tiny_config(), [1e8], repeater_gains_db=())
        assert keys == []

    @pytest.mark.parametrize("overrides", [{"n_tx_antennas": 1},
                                           {"repeater_disc_radius_m": 0.0}],
                             ids=["Nt1", "disc0"])
    def test_repeater_null_that_nulls_every_drop_rejected_before_the_drop(
            self, keys, tmp_path, capsys, overrides):
        # with one transmit antenna, or a repeater above the hotspot on the target's
        # azimuth from the transmit BS, b_tx is parallel to a_tx on every drop, so
        # repeater-null nulls the sensing beam. pod and calibrate exited 2 after
        # drawing the drop, with a message that named no seed key
        _, channels = draw_drop(tiny_config(**overrides), STUDY_POD, 0)
        with pytest.raises(DegenerateNullspaceError):
            target_precoder("repeater_null", channels.a_tx, channels.b_tx, None)
        keys.clear()
        with pytest.raises(ConfigError, match="^repeater_null needs n_tx_antennas > 1"):
            tiny_config(precoder_mode="repeater_null", **overrides)
        cfg = tmp_path / "scenario.cfg"
        save_config(tiny_config(**overrides), str(cfg))
        cfg.write_text(cfg.read_text().replace("precoder_mode = target_centric",
                                               "precoder_mode = repeater_null"))
        for command in (["pod", "--grid", "1e8"], ["calibrate"]):
            assert main_cli([*command, "--config", str(cfg),
                             "--out", str(tmp_path / "x.csv")]) == 1
            assert capsys.readouterr().err.startswith(
                "configuration error: repeater_null needs n_tx_antennas > 1")
        assert keys == []

    @pytest.mark.parametrize("tx_power_watt, kappa, seed", [(1e20, 1e6, 6), (1e16, 1e-2, 10)],
                             ids=["LinAlgError", "zero-beam"])
    def test_more_users_than_antennas_at_a_tiny_regularizer_run(self, tx_power_watt, kappa,
                                                                 seed):
        # Nt = 1, K = 2: at these powers lam = K sigma_UE^2 / rho falls to about
        # eps ||fdot||^2, and the K x K RZF solve of the PoD drop met an exactly zero
        # pivot (a raw LinAlgError out of the study) or gave a zero beam (a
        # ConfigError); the 1 x 1 solve has full rank
        config = ScenarioConfig(n_tx_antennas=1, n_users=2, tx_power_watt=tx_power_watt,
                                clutter_suppression=kappa, master_seed=seed, mc_trials=50,
                                calibration_trials=200)
        for row in run_pod_vs_rcs(config, None).rows:  # gains 20 dB and repeater-off
            assert np.all(np.isfinite([row[0], *row[2:5]])), row
        assert all(np.isfinite(calibrate(config)))

    def test_a_precoder_failure_names_the_drop_seed_keys(self, keys, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(harness, "build_precoders", singular)
        message = "^" + re.escape("PoD drop with seed keys (1, 0, 0) and (1, 1, 0): "
                                  "Singular matrix") + "$"
        for study in (lambda: run_pod_vs_rcs(tiny_config(), [1e8]),
                      lambda: run_pod_vs_rcs(tiny_config(), None),
                      lambda: calibrate(tiny_config())):
            keys.clear()
            with pytest.raises(NumericalDomainError, match=message):
                study()
            assert keys == [(STUDY_POD, 0, 0), (STUDY_POD, 1, 0)]  # no trial block

    def test_grid_suggestion_spans_the_transition(self):
        # scaled by s_bar, the mean s of one whole block of the study's own kernel
        # and setup: 128 trials on the tiny config, 384 on the default one
        for config, size in ((tiny_config(), 128), (ScenarioConfig(), 384)):
            channels, clutter = harness._pod_drop(config)
            rows = block_statistics(config, channels, clutter, build_precoders(config, channels),
                                    [(trial_rng(config.master_seed, (STUDY_POD, 9), 0), size)])
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

    @pytest.mark.parametrize("n_points, message", [
        pytest.param(0, "rcs grid needs at least one point, got 0", id="0"),
        pytest.param(-3, "rcs grid needs at least one point, got -3", id="-3"),
        pytest.param(2.5, "n_points must be an integer, got 2.5", id="2.5"),
    ])
    def test_grid_of_no_points_rejected_before_the_drop(self, keys, n_points, message):
        # 0 points used to give an empty grid, -3 numpy's raw ValueError, and 2.5
        # numpy's raw TypeError after the drop and the pilot block
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            suggest_rcs_grid(tiny_config(), n_points)
        assert keys == []


def gamma_quadrature(shape: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with E f(gamma) ~ weights @ f(nodes) for gamma ~ Gamma(shape, 1):
    generalized Gauss-Laguerre (alpha = shape - 1) from the Golub-Welsch eigenproblem of
    its Jacobi matrix (Golub & Welsch, Math. Comp. 23:221, 1969)."""
    i = np.arange(n_nodes)
    off = np.sqrt(i[1:] * (i[1:] + shape - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(2.0 * i + shape) + np.diag(off, -1))
    return nodes, vectors[0] ** 2


class TestExactReferenceWithoutUsers:
    """With no users and all power on sensing, the beam is m = sqrt(rho) conj(a_tx) /
    ||a_tx||, and at zeta^2 = 0 a trial's frame is its 1 x 1 Bartlett factor times m,
    with |R|^2 = gamma ~ Gamma(tau, 1). Then
    s(gamma) = lam sum_k ||e_k||^2 w_k gamma |m a_tx|^2 / (w_k gamma ||m||^2 + lam),
    v = s, PFA(eta) = E exp(-eta (1 + 1 / (sigma_T^2 s))) and
    PoD(eta) = E exp(-eta / (sigma_T^2 s)): 1-D integrals over gamma."""

    def test_quadrature_integrates_the_gamma_law(self):
        nodes, weights = gamma_quadrature(50.0, 120)
        moments = np.stack([np.ones_like(nodes), nodes, nodes ** 2, 1.0 / nodes]) @ weights
        np.testing.assert_allclose(moments, [1.0, 50.0, 50.0 * 51.0, 1.0 / 49.0], rtol=1e-12)

    @staticmethod
    def scnr(config, gamma):
        """s(gamma) on the study's drop, from the channels alone."""
        channels, clutter_model = harness._pod_drop(config)
        lam = 1.0 / clutter_model.entry_variance
        rho = config.tx_power_watt
        b = channels.b_rx
        b_sq = float(np.vdot(b, b).real)
        v = channels.a_rx + config.nu * channels.g_rep * b
        e0 = channels.a_rx - b * (np.vdot(b, channels.a_rx) / b_sq)  # (I - P) v
        e_sq = (float(np.vdot(e0, e0).real), abs(np.vdot(b, v)) ** 2 / b_sq)
        d = config.bs_noise_watt
        w = (1.0 / d, 1.0 / (d + abs(config.nu) ** 2 * config.repeater_noise_watt * b_sq))
        ma_sq = rho * float(np.vdot(channels.a_tx, channels.a_tx).real)  # |m a_tx|^2
        return sum(lam * e_k * w_k * gamma * ma_sq / (w_k * gamma * rho + lam)
                   for e_k, w_k in zip(e_sq, w))

    # seed and bound fixed before the first run: 4 binomial sigma per point is a
    # Bonferroni bound for the 8 points of a study (two-sided, ~5e-4 overall)
    @pytest.mark.parametrize("repeater", [dict(repeater_on=False),
                                          dict(repeater_on=True, repeater_gain_db=100.0)],
                             ids=["repeater_off", "100dB"])
    def test_study_matches_the_quadrature(self, repeater):
        config = ScenarioConfig(n_users=0, sensing_power_fraction=1.0, mc_trials=20000,
                                calibration_trials=40000, master_seed=1, **repeater)
        assert config.residual_interbs_power == 0.0
        gain = config.repeater_gain_db if config.repeater_on else None
        result = run_pod_vs_rcs(config, None, repeater_gains_db=(gain,))
        nodes, weights = gamma_quadrature(config.slot_length, 120)
        s = self.scnr(config, nodes)
        p = config.pfa_target
        pfa_sigma = np.sqrt(p * (1.0 - p) / config.calibration_trials)
        pods = []
        for sigma_t_sq, _, pod, threshold, _, trials in result.rows:
            pod_exact = weights @ np.exp(-threshold / (sigma_t_sq * s))
            pfa_exact = weights @ np.exp(-threshold * (1.0 + 1.0 / (sigma_t_sq * s)))
            # the H1 pass is independent of the threshold's H0 pass: binomial given it
            assert abs(pod - pod_exact) <= 4.0 * np.sqrt(pod_exact * (1.0 - pod_exact) / trials)
            assert abs(pfa_exact - p) <= 4.0 * pfa_sigma
            pods.append(pod)
        assert len(pods) == 8 and pods[0] < 0.05 and pods[-1] > 0.99  # spans the transition


class TestExactSeLawWithOneUser:
    """At K = 1 with the repeater off, the SE-CDF study's SINR has an exact law
    (``se_law``): an integral over the user's position of a gamma law, for
    comm-centric sensing, or of a gamma-exponential mixture, for target-centric."""

    @pytest.mark.parametrize("c, d", [(0.5, 0.3), (3.0, 0.97), (4.0, 1.0), (2.0, 1.001),
                                      (5.0, 1.03), (8.0, 5.0), (0.01, 2.0)])
    def test_the_mixture_is_integrated_exactly(self, c, d):
        # against adaptive quadrature over X ~ Exp(1), up to the kink when d < 1
        n = 7
        end = c / (1.0 - d) if d < 1.0 else np.inf
        exact = quad(lambda x: np.exp(-x) * gammainc(n, c + (d - 1.0) * x), 0.0, end,
                     epsabs=1e-13, limit=200)[0]
        assert se_law.target_centric_given_gain(c, d, n) == pytest.approx(exact, abs=1e-7)

    # seed and bound fixed before the first run: 19 quantiles x 2 modes, each a
    # two-sided binomial z, Bonferroni-corrected to a family-wise 1e-3 (|z| <= 4.2)
    def test_study_matches_the_exact_law(self):
        config = ScenarioConfig(n_users=1, mc_trials=4000, master_seed=11)
        result = run_se_cdf(config, repeater_settings=(False,))
        q = np.arange(1, 20) / 20
        bound = norm.isf(1e-3 / (2 * 2 * q.size))
        for mode in ("target_centric", "comm_centric"):
            se = np.array([row[2] for row in result.rows if row[0] == mode])
            assert se.size == config.mc_trials
            t = se_law.sinr_quantiles(config, mode, q)
            p = se_law.sinr_cdf(config, mode, t)
            np.testing.assert_allclose(p, q, atol=1e-6)
            below = np.mean(se[:, None] <= np.log2(1.0 + t), axis=0)
            z = (below - p) / np.sqrt(p * (1.0 - p) / se.size)
            assert np.all(np.abs(z) <= bound), f"{mode}: z = {np.round(z, 2)}"


class TestSeCdfStudy:
    def test_structure_and_determinism_across_workers(self):
        # three blocks of drops, the last one partial, so workers share the study
        config = tiny_config(n_users=1, n_tx_antennas=3, mc_trials=2 * DROPS_PER_BLOCK + 8)
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
        _, block = draw_drop(config, STUDY_SECDF, 0, 6)  # the study's one block
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
                    channels = drop_of(block, d)
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
        n_blocks = -(-config.mc_trials // DROPS_PER_BLOCK)
        return np.concatenate([harness._secdf_block(config, modes, rep_configs, b)
                               for b in range(n_blocks)], axis=2)

    @pytest.mark.parametrize("overrides, modes", [
        ({}, ("target_centric", "comm_centric", "repeater_null")),
        ({"sensing_power_fraction": 0.0}, ("target_centric", "comm_centric")),
        ({"user_power_fractions": (0.05, 0.3, 0.2)}, ("comm_centric", "repeater_null")),
        ({"n_users": 1}, ("target_centric", "comm_centric", "repeater_null")),
    ], ids=["three_modes", "no_sensing_beam", "unequal_user_fractions", "one_user"])
    def test_each_drop_matches_the_single_drop_calls(self, overrides, modes):
        # two full blocks and a partial one; drop d is drop d % DROPS_PER_BLOCK of
        # block d // DROPS_PER_BLOCK, evaluated alone
        n_drops = 2 * DROPS_PER_BLOCK + 5
        config = tiny_config(**{"n_tx_antennas": 4, "n_users": 3, "mc_trials": n_drops,
                                **overrides})
        se = self.se_by_drop(config, modes)
        assert se.shape == (len(modes), 2, n_drops, config.n_users)
        blocks = [draw_drop(config, STUDY_SECDF, b, n)[1]
                  for b, n in enumerate((DROPS_PER_BLOCK, DROPS_PER_BLOCK, 5))]
        for drop in range(n_drops):
            channels = drop_of(blocks[drop // DROPS_PER_BLOCK], drop % DROPS_PER_BLOCK)
            for m, mode in enumerate(modes):
                for r, rep in enumerate((True, False)):
                    cfg = config.with_updates(precoder_mode=mode, repeater_on=rep)
                    expected = downlink_metrics(build_precoders(cfg, channels), channels, cfg)
                    np.testing.assert_array_equal(se[m, r, drop], expected.se)

    def test_a_short_study_is_a_prefix_of_a_longer_one(self):
        # the partial last block of two blocks and 5 drops holds the first 5 drops
        # of the full third block
        n_drops = 2 * DROPS_PER_BLOCK + 5
        config = tiny_config(n_tx_antennas=4, n_users=3, mc_trials=n_drops)
        modes = ("target_centric", "comm_centric", "repeater_null")
        longer = self.se_by_drop(config.with_updates(mc_trials=3 * DROPS_PER_BLOCK), modes)
        np.testing.assert_array_equal(self.se_by_drop(config, modes), longer[:, :, :n_drops])

    def test_the_first_drop_of_block_b_is_criterion_eight_s_drop_b(self):
        # acceptance criterion 8 builds its SE drop d as drop_entities on key (2, 0, d),
        # then gen_channels on key (2, 1, d): the study's drop d * DROPS_PER_BLOCK
        assert STUDY_SECDF == 2
        config = tiny_config(n_tx_antennas=4, n_users=3, mc_trials=2 * DROPS_PER_BLOCK + 5)
        modes = ("target_centric", "comm_centric", "repeater_null")
        se = self.se_by_drop(config, modes)
        for d in range(3):
            geometry = drop_entities(config, trial_rng(config.master_seed, (2, 0), d))
            channels = gen_channels(geometry, config, trial_rng(config.master_seed, (2, 1), d))
            for m, mode in enumerate(modes):
                for r, rep in enumerate((True, False)):
                    cfg = config.with_updates(precoder_mode=mode, repeater_on=rep)
                    expected = downlink_metrics(build_precoders(cfg, channels), channels, cfg)
                    np.testing.assert_array_equal(se[m, r, d * DROPS_PER_BLOCK], expected.se)

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, NumericalDomainError])
    def test_numerical_error_names_the_drops_and_their_seed_keys(self, monkeypatch, error):
        # a failure in the partial last block, the 5 drops after two full blocks,
        # names its one key
        def fail_in_the_last_block(fdot, zf_regularizer):
            if fdot.shape[0] < DROPS_PER_BLOCK:
                raise error("Singular matrix")
            return rzf_precoders(fdot, zf_regularizer)

        monkeypatch.setattr(harness, "rzf_precoders", fail_in_the_last_block)
        with pytest.raises(NumericalDomainError, match="^" + re.escape(
                f"SE-CDF drop block with seed keys ({STUDY_SECDF}, 0, 2) and "
                f"({STUDY_SECDF}, 1, 2): Singular matrix")
                + "$"):
            run_se_cdf(tiny_config(n_users=1, n_tx_antennas=3,
                                   mc_trials=2 * DROPS_PER_BLOCK + 5))

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
        ({"modes": "comm_centric"}, "precoder modes must be a sequence, got 'comm_centric'"),
        ({"repeater_settings": True}, "repeater settings must be a sequence, got True"),
    ], ids=["no_modes", "no_repeater_settings", "repeated_mode", "repeated_setting",
            "string_mode", "scalar_setting"])
    def test_bad_modes_and_settings_rejected_before_any_drop(self, keys, kwargs, message):
        # no modes used to fail inside the first block, no settings gave 0 rows, a
        # repeated one wrote every sample twice, a string was read as one mode per
        # character and a scalar raised a raw TypeError
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_se_cdf(tiny_config(n_tx_antennas=4, n_users=2, mc_trials=20), **kwargs)
        assert keys == []


class TestDrawDrop:
    @pytest.mark.parametrize("overrides", [
        {}, {"residual_interbs_power": 1e-12}, {"n_users": 1},
        {"repeater_disc_radius_m": 0.0}, {"n_users": 0},
    ], ids=["default", "interbs_residual", "one_user", "fixed_repeater", "no_users"])
    def test_a_short_block_is_a_prefix_of_the_full_one(self, overrides):
        config = ScenarioConfig(master_seed=11, **overrides)
        full_geo, full_ch = draw_drop(config, STUDY_SECDF, 3, DROPS_PER_BLOCK)
        for n in (1, 5, DROPS_PER_BLOCK):
            geometry, channels = draw_drop(config, STUDY_SECDF, 3, n)
            for name in ("tx_bs", "rx_bs", "hotspot"):
                np.testing.assert_array_equal(getattr(geometry, name), getattr(full_geo, name))
            np.testing.assert_array_equal(geometry.repeater, full_geo.repeater[:n])
            np.testing.assert_array_equal(geometry.users, full_geo.users[:n])
            for name, value in vars(channels).items():
                np.testing.assert_array_equal(value, getattr(full_ch, name)[:n], err_msg=name)
        # a block draws its positions and every link per drop; the nuisance is
        # exact zeros (redraw_nuisance draws it), at zeta^2 > 0 too
        assert full_geo.users.shape == (DROPS_PER_BLOCK, config.n_users, 3)
        assert full_ch.f_user.shape == (DROPS_PER_BLOCK, config.n_users, config.n_tx_antennas)
        for nuisance in (full_ch.clutter, full_ch.interbs_error):
            assert nuisance.shape == (DROPS_PER_BLOCK, config.n_rx_antennas,
                                      config.n_tx_antennas)
            assert np.all(nuisance == 0.0)
        assert full_ch.rcs.shape == full_ch.g_rep.shape == (DROPS_PER_BLOCK,)
        assert np.all(full_ch.rcs == 0.0)

    def test_one_drop_is_drop_entities_then_gen_channels_on_its_keys(self):
        # drop 0 of a block: the first uniforms of its positions key, then the
        # first normals of its channels key; one drop is that drop without an axis
        config = ScenarioConfig(master_seed=3, residual_interbs_power=1e-12)
        for b in (0, 7):
            geometry = drop_entities(config, trial_rng(config.master_seed, (STUDY_SECDF, 0), b))
            channels = gen_channels(geometry, config,
                                    trial_rng(config.master_seed, (STUDY_SECDF, 1), b))
            one_geo, one_ch = draw_drop(config, STUDY_SECDF, b)
            block_geo, block_ch = draw_drop(config, STUDY_SECDF, b, 2)
            for drawn in (one_geo, block_geo):
                np.testing.assert_array_equal(drawn.repeater.reshape(-1, 3)[0],
                                              geometry.repeater)
                np.testing.assert_array_equal(drawn.users.reshape(-1, config.n_users, 3)[0],
                                              geometry.users)
            for name, value in vars(channels).items():
                np.testing.assert_array_equal(getattr(one_ch, name), value, err_msg=name)
                np.testing.assert_array_equal(getattr(block_ch, name)[0], value, err_msg=name)

    @staticmethod
    def acceptance_drop(config):
        """Geometry and channels of the PoD drop as acceptance criteria 3 and 7 build it:
        ``drop_entities``, then ``gen_channels``, each on its key."""
        geometry = drop_entities(config, trial_rng(config.master_seed, (STUDY_POD, 0), 0))
        return geometry, gen_channels(geometry, config,
                                      trial_rng(config.master_seed, (STUDY_POD, 1), 0))

    def test_the_pod_drop_is_the_acceptance_suite_s_drop(self):
        config = tiny_config()
        channels, clutter = harness._pod_drop(config)
        geometry, expected = self.acceptance_drop(config)
        for name, value in vars(expected).items():
            np.testing.assert_array_equal(getattr(channels, name), value, err_msg=name)
        assert isinstance(channels.g_rep, complex) and isinstance(channels.rcs, complex)
        assert clutter.entry_variance == clutter_covariance(config, geometry).entry_variance

    def test_calibrate_is_criterion_three_s_threshold(self):
        # criterion 3's construction on the acceptance suite's drop gives calibrate's
        # threshold and false-alarm rate bit for bit
        config = tiny_config()
        geometry, channels = self.acceptance_drop(config)
        t_cal = run_trials(config, channels, clutter_covariance(config, geometry),
                           build_precoders(config, channels), (STUDY_POD, 2),
                           config.calibration_trials, force_null=True)
        threshold = threshold_from_null_stats(t_cal, config.pfa_target)
        assert calibrate(config) == (threshold, np.mean(t_cal >= threshold))

    def test_the_pod_study_does_not_depend_on_the_drop_block_size(self, monkeypatch):
        config = tiny_config()
        expected = run_pod_vs_rcs(config, None).to_csv_bytes()
        monkeypatch.setattr(harness, "DROPS_PER_BLOCK", 16)
        assert run_pod_vs_rcs(config, None).to_csv_bytes() == expected


class TestSeedKeys:
    def test_each_unit_builds_one_generator(self, keys):
        # the tiny config: 200 H0 trials in 2 blocks of 128, 50 H1 trials in 1;
        # the short blocks, 72 + 50 trials, share one unit
        config = tiny_config()
        assert block_trials(config) == 128
        grid = suggest_rcs_grid(config, 3)
        drop = [(STUDY_POD, 0, 0), (STUDY_POD, 1, 0)]
        assert keys == drop + [(STUDY_POD, 9, 0)]
        keys.clear()
        run_pod_vs_rcs(config, grid, repeater_gains_db=(20.0, None))
        passes = [(STUDY_POD, 2, b) for b in range(2)] + [(STUDY_POD, 3, 0)]
        assert keys == drop + passes * 2
        keys.clear()
        calibrate(config)
        assert keys == drop + [(STUDY_POD, 2, b) for b in range(2)]
        keys.clear()
        run_se_cdf(tiny_config(n_users=1, n_tx_antennas=3, mc_trials=2 * DROPS_PER_BLOCK + 5))
        assert keys == [(STUDY_SECDF, stream, b) for b in range(3) for stream in (0, 1)]


class TestCli:
    def _config_path(self, tmp_path, lines="", **overrides):
        """A saved tiny config whose lines for the keys that ``lines`` sets are
        replaced by ``lines`` (a config file may set a key only once)."""
        path = tmp_path / "scenario.cfg"
        save_config(tiny_config(**overrides), str(path))
        keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
        kept = [line for line in path.read_text().splitlines(keepends=True)
                if line.partition("=")[0].strip() not in keys]
        path.write_text("".join(kept) + lines)
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
    def test_out_in_no_directory_fails_before_the_study(self, tmp_path, capsys, keys,
                                                         command):
        out = str(tmp_path / "no" / "such" / "out.csv")
        cfg = self._config_path(tmp_path, n_users=1, n_tx_antennas=3)
        assert main_cli(command + ["--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == f"configuration error: --out {out}: no such directory\n"
        assert keys == []

    @pytest.mark.parametrize("command", [["pod"], ["secdf"], ["calibrate"]])
    def test_out_that_is_a_directory_fails_before_the_study(self, tmp_path, capsys, keys,
                                                            command):
        # used to fail only when the study's CSV was written
        cfg = self._config_path(tmp_path, n_users=1, n_tx_antennas=3)
        assert main_cli(command + ["--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"configuration error: cannot write {tmp_path}: "
                                           f"[Errno 21] Is a directory: '{tmp_path}'\n")
        assert keys == []

    @pytest.mark.parametrize("trailing", [False, True], ids=["empty", "trailing-separator"])
    @pytest.mark.parametrize("command", [["pod"], ["secdf"], ["calibrate"]],
                             ids=["pod", "secdf", "calibrate"])
    def test_out_that_names_no_file_fails_before_the_study(self, tmp_path, capsys, keys,
                                                          command, trailing):
        # pod and secdf used to run the study and then fail to write; calibrate
        # took "" for no --out, so it printed its threshold, wrote nothing and
        # exited 0
        out = str(tmp_path / "nosuch") + os.sep if trailing else ""
        cfg = self._config_path(tmp_path, n_users=1, n_tx_antennas=3)
        assert main_cli(command + ["--config", cfg, "--out", out]) == 1
        assert capsys.readouterr() == ("", f"configuration error: --out {out!r}: "
                                           "names no file\n")
        assert keys == []

    @pytest.mark.parametrize("command", [["pod", "--grid", "1e6"], ["secdf"], ["calibrate"]],
                             ids=["pod", "secdf", "calibrate"])
    def test_failed_write_is_a_configuration_error(self, tmp_path, capsys, command):
        # the directory exists, but the file name is too long: the write fails after
        # the study, and no result is printed (calibrate printed its threshold first)
        cfg = self._config_path(tmp_path, n_users=1, n_tx_antennas=3, mc_trials=8)
        out = str(tmp_path / ("x" * 300))
        assert main_cli(command + ["--config", cfg, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: cannot write {out}: [Errno")
        assert captured.err.count("\n") == 1

    def test_calibrate_command(self, tmp_path, capsys):
        cfg = self._config_path(tmp_path, calibration_trials=250, pfa_target=0.05)
        out = tmp_path / "thr.csv"
        assert main_cli(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "threshold=" in captured.out
        assert captured.err == ""  # 250 x PFA 0.05 expects 12.5 false alarms
        assert out.read_text().startswith("threshold,empirical_pfa,trials")

    def test_calibrate_warns_as_the_pod_study_does(self, tmp_path, capsys):
        # 10 H0 trials at PFA 0.01: the threshold is the largest statistic
        cfg = self._config_path(tmp_path)
        assert main_cli(["calibrate", "--config", cfg, "--trials", "10"]) == 0
        captured = capsys.readouterr()
        assert "empirical_pfa=0.1 trials=10" in captured.out
        study = run_pod_vs_rcs(tiny_config(calibration_trials=10, mc_trials=1), [1.0],
                               repeater_gains_db=(None,))
        assert study.metadata["warnings"] == [
            "calibration under-resolved: 10 H0 trials at PFA 0.01 expect 0.1 false alarms "
            "(fewer than 10)"]
        assert captured.err == f"warning: {study.metadata['warnings'][0]}\n"

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
            self, tmp_path, capsys, keys):
        # as many users as transmit antennas: the comm-centric nullspace is empty
        config = tiny_config(n_users=2, n_tx_antennas=2, mc_trials=6)
        with pytest.raises(ConfigError, match="n_users < n_tx_antennas"):
            run_se_cdf(config, modes=("comm_centric",))
        assert keys == []

        cfg = self._config_path(tmp_path, n_users=2, n_tx_antennas=2, mc_trials=6)
        out = str(tmp_path / "out.csv")
        assert main_cli(["secdf", "--config", cfg, "--out", out]) == 1
        cfg = self._config_path(tmp_path, "precoder_mode = comm_centric\n", n_users=2,
                                n_tx_antennas=2, mc_trials=6)
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

    @pytest.mark.parametrize("args, message", [
        (["--trials", "0"], "oracle check needs at least one instance, got 0"),
        (["--trials", "-5"], "oracle check needs at least one instance, got -5"),
        (["--seed", "-1"], "oracle check seed must be nonnegative, got -1"),
    ], ids=["0", "-5", "negative_seed"])
    def test_bad_oracle_check_input_exits_one(self, capsys, monkeypatch, args, message):
        drawn = []  # every one fails before an instance is drawn
        monkeypatch.setattr(detector, "random_small_instance",
                            lambda *args, **kwargs: drawn.append(args))
        assert main_cli(["oracle-check", *args]) == 1
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")
        assert drawn == []

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
        # every token is a number (or, in --gains, none): an empty one is not
        (["pod", "--grid", ","], {}, "", "--grid: could not convert string to float: ''"),
        (["pod", "--grid", ""], {}, "", "--grid: could not convert string to float: ''"),
        (["pod", "--grid", "1e6,,1e8", "--gains", "20"], {}, "",
         "--grid: could not convert string to float: ''"),
        (["pod", "--grid", "1e6", "--gains", ""], {}, "",
         "--gains: could not convert string to float: ''"),
        (["pod", "--grid", "1e6", "--gains", " , "], {}, "",
         "--gains: could not convert string to float: ''"),
        (["pod", "--grid", "1e6", "--gains", "20,abc"], {}, "",
         "--gains: could not convert string to float: 'abc'"),
        (["pod", "--grid", "1e6", "--gains", "20,inf"], {}, "",
         "repeater_gain_db must be a finite number, got inf"),
        (["secdf"], {"n_users": 0, "sensing_power_fraction": 1.0}, "",
         "se_cdf study needs at least one user"),
        (["calibrate", "--workers", "0"], {}, "", "workers must be at least 1, got 0"),
        (["pod", "--grid", "1e6", "--workers", "-3"], {}, "",
         "workers must be at least 1, got -3"),
        # config-file lines replace the saved config's lines for their keys
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
    ], ids=["grid_not_a_number", "grid_empty", "grid_empty_string", "grid_empty_token",
            "gains_empty_string", "gains_empty", "gain_not_a_number", "gain_infinite",
            "secdf_no_users",
            "zero_workers", "negative_workers", "one_number_anchor", "three_number_anchor",
            "zero_service_disc", "duplicate_gains", "duplicate_repeater_off",
            "receive_bs_on_transmit_bs", "user_on_transmit_bs"])
    def test_bad_input_is_a_configuration_error(self, tmp_path, capsys, keys, args,
                                                overrides, lines, message):
        cfg = self._config_path(tmp_path, lines, **overrides)
        # every one fails before the study draws a drop
        assert main_cli(args + ["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert keys == []

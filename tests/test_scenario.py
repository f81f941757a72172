import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repisac import (ConfigError, Geometry, ScenarioConfig, drop_entities,
                     load_config, noise_power_watt, pathloss_linear, save_config)
from repisac.scenario import MAX_REPEATER_GAIN_DB, PRECODER_MODES, link_geometry

from conftest import tiny_config


class TestPathloss:
    def test_umi_nlos_reference_point(self):
        # 22.4 + 35.3*log10(100) + 21.3*log10(1.9) - 0 = 98.9375... dB
        expected_db = 22.4 + 35.3 * 2.0 + 21.3 * math.log10(1.9)
        assert pathloss_linear(100.0, 1.9) == pytest.approx(10 ** (-expected_db / 10), rel=1e-12)

    def test_height_correction(self):
        lo = pathloss_linear(100.0, 1.9, rx_height_m=1.5)
        hi = pathloss_linear(100.0, 1.9, rx_height_m=11.5)
        assert 10 * math.log10(hi / lo) == pytest.approx(0.3 * 10.0, rel=1e-9)

    def test_short_distances_clamped_to_one_meter(self):
        assert pathloss_linear(0.2, 1.9) == pathloss_linear(1.0, 1.9)

    def test_arrays_are_evaluated_elementwise(self):
        d = np.array([0.2, 50.0, 100.0, 350.0])
        expected = [pathloss_linear(float(v), 1.9, 10.0) for v in d]
        np.testing.assert_allclose(pathloss_linear(d, 1.9, 10.0), expected, rtol=1e-14)
        # the message names the offending distance, not the array
        with pytest.raises(ConfigError, match=r"^distance must be positive, got 0\.0 m$"):
            pathloss_linear(np.array([[0.0], [248.39593336]]), 1.9)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            pathloss_linear(-1.0, 1.9)
        with pytest.raises(ConfigError):
            pathloss_linear(10.0, 0.0)


class TestNoisePower:
    def test_thermal_noise_reference(self):
        # -174 dBm/Hz + 10log10(20e6) + 9 dB = -91.99 dBm -> 6.32e-13 W
        value = noise_power_watt(-174.0, 20e6, 9.0)
        expected = 10 ** ((-174.0 + 10 * math.log10(20e6) + 9.0 - 30.0) / 10.0)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(6.3246e-13, rel=1e-4)

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ConfigError):
            noise_power_watt(-174.0, 0.0, 9.0)


class TestScenarioConfig:
    def test_default_user_fractions_split_the_comm_budget(self):
        config = ScenarioConfig()
        fr = config.user_fractions
        assert fr.shape == (config.n_users,)
        assert fr.sum() + config.sensing_power_fraction == pytest.approx(1.0)
        assert np.all(fr == fr[0])

    def test_explicit_fractions_are_validated(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_users=2, user_power_fractions=(0.4, 0.4),
                           sensing_power_fraction=0.4)
        with pytest.raises(ConfigError):
            ScenarioConfig(n_users=2, user_power_fractions=(0.4,))
        with pytest.raises(ConfigError):
            ScenarioConfig(n_users=2, user_power_fractions=())

    def test_repeater_amplification(self):
        config = ScenarioConfig(repeater_gain_db=20.0, repeater_phase_rad=0.0)
        assert abs(config.nu) ** 2 == pytest.approx(100.0, rel=1e-12)
        off = config.with_updates(repeater_on=False)
        assert off.nu == 0.0

    def test_noise_defaults_are_derived(self):
        config = ScenarioConfig()
        assert config.bs_noise_watt == pytest.approx(noise_power_watt(-174.0, 20e6, 9.0))
        assert config.repeater_noise_watt == config.bs_noise_watt
        override = config.with_updates(bs_noise_power_watt=1.0)
        assert override.bs_noise_watt == 1.0
        assert override.repeater_noise_watt == 1.0

    def test_zf_regularizer_default(self):
        config = ScenarioConfig()
        assert config.zf_regularizer_value == pytest.approx(
            config.n_users * config.ue_noise_watt / config.tx_power_watt)
        assert config.with_updates(zf_regularizer=0.5).zf_regularizer_value == 0.5

    def test_invalid_values_rejected(self):
        for bad in (dict(n_tx_antennas=0), dict(slot_length=0), dict(rcs_variance=0.0),
                    dict(pfa_target=1.5), dict(precoder_mode="bogus"),
                    dict(residual_interbs_power=-1.0),
                    dict(tx_power_watt=0.0), dict(master_seed=-1),
                    # the users' channels span all 8 transmit directions
                    dict(precoder_mode="comm_centric", n_users=8, n_tx_antennas=8),
                    # nothing is transmitted
                    dict(n_users=0, sensing_power_fraction=0.0),
                    dict(n_users=2, sensing_power_fraction=0.0, user_power_fractions=(0.0, 0.0)),
                    # geometry anchors are 2-vectors
                    dict(tx_bs_xy=(5.0,)), dict(tx_bs_xy=5.0), dict(rx_bs_xy=()),
                    dict(hotspot_xy=(1.0, 2.0, 3.0)),
                    # a zero-radius service disc holds at most one user
                    dict(service_radius_m=0.0, n_users=3),
                    # entities a path loss joins must not coincide
                    dict(rx_bs_xy=(0.0, 0.0)),
                    dict(service_radius_m=0.0, n_users=1, bs_height_m=1.5),
                    dict(repeater_disc_radius_m=0.0, repeater_height_m=1.5),
                    dict(hotspot_xy=(300.0, 0.0), target_height_m=25.0),
                    # integer fields take integers, not floats, strings or bools
                    dict(slot_length=2.5), dict(mc_trials=40.5), dict(n_tx_antennas=4.0),
                    dict(master_seed=1.5), dict(n_rx_antennas="3"), dict(n_users=True),
                    # every field holds its declared type: 'no' is not False, and
                    # save_config could not write a list or an array that load_config reads
                    dict(repeater_on="no"), dict(tx_power_watt="1"),
                    dict(tx_bs_xy=np.array([0.0, 5.0])), dict(tx_bs_xy=[0.0, 5.0]),
                    dict(user_power_fractions=np.full(10, 0.05)),
                    dict(user_power_fractions=[0.05] * 10),
                    dict(n_users=0, user_power_fractions=np.zeros(0))):
            with pytest.raises(ConfigError):
                ScenarioConfig(**bad)
        for bad, message in (
                (dict(n_users=-1), "n_users must be nonnegative"),
                (dict(mc_trials=0), "trial counts must be positive"),
                (dict(calibration_trials=0), "trial counts must be positive"),
                (dict(sensing_power_fraction=-0.1), "sensing_power_fraction must be nonnegative"),
                (dict(user_power_fractions=(-0.1, 0.3)),
                 "user power fractions must be nonnegative"),
                (dict(bs_noise_power_watt=0.0), "bs_noise_power_watt must be positive when given"),
                (dict(carrier_ghz=0.0), "carrier and bandwidth must be positive"),
                (dict(bandwidth_hz=0.0), "carrier and bandwidth must be positive"),
                (dict(service_radius_m=-1.0), "geometry radii must be nonnegative"),
                # |nu|^2 overflowed in ScenarioConfig.nu or abs(config.nu) ** 2 mid-study, and
                # |nu|^4 in the detector from about 1700 dB
                *[(dict(repeater_on=on, repeater_gain_db=gain),
                   f"repeater_gain_db must be at most 1541 dB (|nu|^4 = 10^(G/5) "
                   f"overflows a float above it), got {float(gain)}")
                  for on, gain in ((True, 3500.0), (True, 1542), (False, 7000.0))]):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                tiny_config(**bad)

    def test_numpy_integers_are_integers(self, tmp_path):
        # ints are numbers too, and a float field holds its number as a Python float
        path = str(tmp_path / "scenario.cfg")
        for config in (ScenarioConfig(n_tx_antennas=np.int64(4), calibration_trials=np.int32(300),
                                      master_seed=np.uint8(3)),
                       ScenarioConfig(tx_power_watt=1, tx_bs_xy=(0, 5)),
                       ScenarioConfig(tx_power_watt=np.float64(1.5)),
                       ScenarioConfig(hotspot_xy=(np.float64(150.0), 120.0)),
                       # beyond int64, numpy made an object array of it
                       ScenarioConfig(rcs_variance=10**30, hotspot_xy=(2**70, 120))):
            assert all(type(v) is float for v in (config.tx_power_watt, config.rcs_variance,
                                                   *config.hotspot_xy))
            save_config(config, path)
            assert load_config(path) == config


class TestGeometry:
    def test_drop_respects_discs_and_heights(self):
        config = tiny_config(n_users=40)
        geom = drop_entities(config, np.random.default_rng(3))
        assert geom.users.shape == (40, 3)
        d_user = np.linalg.norm(geom.users[:, :2] - np.asarray(config.tx_bs_xy), axis=1)
        assert np.all(d_user <= config.service_radius_m + 1e-9)
        assert np.all(geom.users[:, 2] == config.user_height_m)
        d_rep = np.linalg.norm(geom.repeater[:2] - np.asarray(config.hotspot_xy))
        assert d_rep <= config.repeater_disc_radius_m + 1e-9
        assert geom.tx_bs[2] == geom.rx_bs[2] == config.bs_height_m

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigError):
            Geometry(tx_bs=np.zeros(2), rx_bs=np.zeros(3), repeater=np.zeros(3),
                     hotspot=np.zeros(3), users=np.zeros((2, 3)))
        # a block of drops: users and repeater share their leading drop axis
        anchors = dict(tx_bs=np.zeros(3), rx_bs=np.zeros(3), hotspot=np.zeros(3))
        Geometry(repeater=np.zeros((5, 3)), users=np.zeros((5, 2, 3)), **anchors)
        for repeater, users in ((np.zeros((5, 3)), np.zeros((4, 2, 3))),
                                (np.zeros((5, 3)), np.zeros((2, 3))),
                                (np.zeros(3), np.zeros(3)),
                                (np.zeros((5, 2)), np.zeros((5, 2, 2)))):
            with pytest.raises(ConfigError):
                Geometry(repeater=repeater, users=users, **anchors)

    def test_distance_and_azimuth(self):
        d, _ = link_geometry([0, 0, 0], [3, 4, 0])
        assert d == pytest.approx(5.0)
        d, angle = link_geometry([0, 0, 0], [0, 1, 0])
        assert d == pytest.approx(1.0)
        assert angle == pytest.approx(math.pi / 2)
        # elementwise over leading axes: one point to several
        d, angle = link_geometry([1, 1, 2], [[4, 5, 2], [1, 1, 0], [0, 0, 2]])
        np.testing.assert_allclose(d, [5.0, 2.0, math.sqrt(2.0)], rtol=1e-15)
        np.testing.assert_allclose(angle, [math.atan2(4, 3), 0.0, -3 * math.pi / 4],
                                   rtol=1e-15)


# every float-valued ScenarioConfig field, tuple fields included
FLOAT_FIELDS = (
    "tx_power_watt", "sensing_power_fraction", "user_power_fractions", "repeater_gain_db",
    "repeater_phase_rad", "rcs_variance", "carrier_ghz", "bandwidth_hz",
    "noise_density_dbm_hz", "noise_figure_db", "ue_noise_figure_db", "bs_noise_power_watt",
    "ue_noise_power_watt", "repeater_noise_power_watt", "residual_interbs_power",
    "clutter_suppression", "zf_regularizer", "pfa_target", "tx_bs_xy", "rx_bs_xy",
    "hotspot_xy", "service_radius_m", "repeater_disc_radius_m", "bs_height_m",
    "repeater_height_m", "user_height_m", "target_height_m",
)


@pytest.mark.parametrize("field, value", [
    *[(name, bad) for name in FLOAT_FIELDS for bad in (math.nan, math.inf)],
    ("repeater_gain_db", -math.inf), ("clutter_suppression", 0.0),
])
def test_non_finite_and_zero_clutter_configs_rejected(field, value):
    # a tuple field gets the bad value as its first element
    if field == "user_power_fractions":
        value = (value, 0.3)  # tiny_config has two users
    elif isinstance(getattr(tiny_config(), field), tuple):
        value = (value, *getattr(tiny_config(), field)[1:])
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: value})


TYPE_VERDICTS = [  # (field, value, message of the ConfigError, or None: accepted)
    ("n_users", True, "n_users must be an integer, got True"),
    ("tx_power_watt", True, "tx_power_watt must be a finite number, got True"),
    ("bs_noise_power_watt", True, "bs_noise_power_watt must be a finite number, got True"),
    ("tx_bs_xy", (True, 0.0), "tx_bs_xy must be a finite number, got True"),
    ("n_tx_antennas", np.int64(3), None),
    ("tx_power_watt", np.int64(3), None),
    ("tx_power_watt", 3, None),
    ("tx_bs_xy", (np.int64(1), 0.0), None),
    ("n_users", np.float64(3.0), "n_users must be an integer, got np.float64(3.0)"),
    ("n_users", 3.0, "n_users must be an integer, got 3.0"),
    ("tx_power_watt", np.float64("nan"), "tx_power_watt must be a finite number, got "
                                         "np.float64(nan)"),
    ("tx_power_watt", float("inf"), "tx_power_watt must be a finite number, got inf"),
    ("tx_power_watt", float("-inf"), "tx_power_watt must be a finite number, got -inf"),
    ("bs_noise_power_watt", float("inf"), "bs_noise_power_watt must be a finite number, "
                                          "got inf"),
    ("tx_bs_xy", (float("nan"), 0.0), "tx_bs_xy must be a finite number, got nan"),
    ("repeater_on", 1, "repeater_on must be a bool, got 1"),
    ("repeater_on", np.bool_(True), "repeater_on must be a bool, got np.True_"),
    # an int too large for a float is no finite number: it used to escape as an
    # OverflowError
    ("tx_power_watt", 2**70, None),
    ("rcs_variance", 10**400, f"rcs_variance must be a finite number, got {10**400}"),
    ("repeater_gain_db", -10**400, f"repeater_gain_db must be a finite number, got {-10**400}"),
    ("tx_bs_xy", (10**400, 0.0), f"tx_bs_xy must be a finite number, got {10**400}"),
    ("user_power_fractions", (10**400,),
     f"user_power_fractions must be a finite number, got {10**400}"),
]


@pytest.mark.parametrize("field, value, message", TYPE_VERDICTS,
                         ids=[f"{field}={value!r}"[:40] for field, value, _ in TYPE_VERDICTS])
def test_field_type_verdicts_and_messages(field, value, message):
    # a value of exactly its field's class is decided before the generic checks: a
    # bool is no number, numpy numbers are numbers, and a number must be finite
    if message is None:
        assert getattr(ScenarioConfig(**{field: value}), field) == value
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(**{field: value})


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonnegative = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def valid_configs(draw) -> ScenarioConfig:
    """Any ScenarioConfig that validates, each field drawn over its valid domain."""
    n_tx_antennas = draw(st.integers(1, 64))
    precoder_mode = draw(st.sampled_from(PRECODER_MODES))
    # comm-centric needs fewer users than transmit antennas
    n_users = draw(st.integers(0, 6 if precoder_mode != "comm_centric"
                               else min(6, n_tx_antennas - 1)))
    sensing = draw(st.floats(0.0, 1.0))
    # each user gets at most an equal share of what sensing leaves
    share = st.floats(0.0, (1.0 - sensing) / max(n_users, 1))
    fractions = draw(st.none() | st.tuples(*[share] * n_users))
    # some power must go to the sensing beam or to a user
    assume(sensing > 0.0 or (n_users > 0 and (fractions is None or any(fractions))))
    service_radius_m = draw(_nonnegative)
    # a zero-radius service disc holds at most one user
    assume(service_radius_m > 0.0 or n_users <= 1)
    # no two fixed entities coincide: distinct anchors, and a zero-radius disc
    # puts its users or its repeater at another height than its center's entity
    anchors = [draw(st.tuples(_finite, _finite)) for _ in range(3)]
    assume(len(set(anchors)) == 3)
    repeater_disc_radius_m = draw(_nonnegative)
    heights = [draw(_finite) for _ in range(4)]  # BS, repeater, user, target
    assume(service_radius_m > 0.0 or n_users == 0 or heights[2] != heights[0])
    assume(repeater_disc_radius_m > 0.0 or heights[1] != heights[3])
    # repeater-null needs a repeater direction other than the target's
    assume(precoder_mode != "repeater_null"
           or (n_tx_antennas > 1 and repeater_disc_radius_m > 0.0))
    return ScenarioConfig(
        n_tx_antennas=n_tx_antennas, n_rx_antennas=draw(st.integers(1, 64)),
        n_users=n_users, slot_length=draw(st.integers(1, 500)),
        tx_power_watt=draw(_positive), sensing_power_fraction=sensing,
        user_power_fractions=fractions, repeater_on=draw(st.booleans()),
        repeater_gain_db=draw(st.floats(max_value=MAX_REPEATER_GAIN_DB, allow_nan=False,
                                        allow_infinity=False)),
        repeater_phase_rad=draw(_finite),
        rcs_variance=draw(_positive), carrier_ghz=draw(_positive),
        bandwidth_hz=draw(_positive), noise_density_dbm_hz=draw(_finite),
        noise_figure_db=draw(_finite), ue_noise_figure_db=draw(_finite),
        bs_noise_power_watt=draw(st.none() | _positive),
        ue_noise_power_watt=draw(st.none() | _positive),
        repeater_noise_power_watt=draw(st.none() | _positive),
        residual_interbs_power=draw(_nonnegative), clutter_suppression=draw(_positive),
        zf_regularizer=draw(st.none() | _positive),
        pfa_target=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        mc_trials=draw(st.integers(1, 10**6)),
        calibration_trials=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**63)),
        precoder_mode=precoder_mode,
        tx_bs_xy=anchors[0], rx_bs_xy=anchors[1], hotspot_xy=anchors[2],
        service_radius_m=service_radius_m, repeater_disc_radius_m=repeater_disc_radius_m,
        bs_height_m=heights[0], repeater_height_m=heights[1],
        user_height_m=heights[2], target_height_m=heights[3],
    )


class TestConfigFiles:
    @settings(deadline=None, derandomize=True, database=None, max_examples=150)
    @given(config=valid_configs())
    def test_save_load_round_trip_over_valid_configs(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.cfg")
            save_config(config, path)
            loaded = load_config(path)
        assert loaded == config

    def test_round_trip(self, tmp_path):
        config = tiny_config(zf_regularizer=0.25, user_power_fractions=(0.2, 0.3),
                             repeater_on=False, bs_noise_power_watt=1e-12)
        path = tmp_path / "scenario.cfg"
        save_config(config, str(path))
        assert load_config(str(path)) == config

    def test_none_values_round_trip(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "scenario.cfg"
        save_config(config, str(path))
        loaded = load_config(str(path))
        assert loaded.zf_regularizer is None
        assert loaded.bs_noise_power_watt is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_tx_antennas = 4\nnot_a_key = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\n\nn_users = 3\nrepeater_on = false\n")
        loaded = load_config(str(path))
        assert loaded.n_users == 3
        assert loaded.repeater_on is False

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_users 3\n")
        with pytest.raises(ConfigError, match="expected"):
            load_config(str(path))
        empty_token = "could not convert string to float: ''"
        for lines, message in (
                ("repeater_on = maybe", "bad value for repeater_on: cannot parse boolean "
                                        "from 'maybe'"),
                ("n_users = x", "bad value for n_users: invalid literal for int() with "
                                "base 10: 'x'"),
                # an empty tuple token used to be dropped: 0,,5 loaded as (0.0, 5.0)
                ("tx_bs_xy = 0,,5", f"bad value for tx_bs_xy: {empty_token}"),
                ("tx_bs_xy = 0,5,", f"bad value for tx_bs_xy: {empty_token}"),
                ("n_users = 2\nuser_power_fractions = 0.1,,0.2",
                 f"bad value for user_power_fractions: {empty_token}")):
            path.write_text(f"# comment\n{lines}\n")
            lineno = 1 + len(lines.splitlines())  # the last line is the bad one
            with pytest.raises(ConfigError,
                               match=f"^{re.escape(f'{path}:{lineno}: {message}')}$"):
                load_config(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("n_users = 2\nslot_length = 5\nn_users = 1\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: repeated config "
                                              "key 'n_users'$"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        # used to escape as a raw UnicodeDecodeError
        path = tmp_path / "latin1.cfg"
        path.write_bytes("n_users = 2\n# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=f"^cannot read config file {re.escape(str(path))}: "
                                              "'utf-8' codec can't decode byte 0xe9"):
            load_config(str(path))

    def test_save_to_no_directory_rejected(self, tmp_path):
        # used to escape as a raw FileNotFoundError
        path = tmp_path / "no" / "scenario.cfg"
        with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(path))}: "
                                              r"\[Errno 2\] No such file or directory"):
            save_config(tiny_config(), str(path))

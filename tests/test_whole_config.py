"""A property over the whole config space: every study entry point either runs to
finite outputs, or fails with an error that says why.

Each drawn config runs ``run_pod_vs_rcs`` on its suggested grid and on a drawn
grid and gains, ``run_se_cdf`` and ``calibrate``, with every warning an error.
Float fields, grid values and gains are at times Python ints, up to 10**400,
which no float holds, and gains reach +-10**4 dB, where |nu|^2 overflows. A call
must return finite outputs, with -inf only as the repeater-off gain; or raise a
``ConfigError`` before it draws anything (a config that cannot run fails before
the study, not halfway through it); or raise a ``NumericalDomainError`` that
names the seed key of what failed, so that it can be reproduced. Most drawn
configs are rejected when the ``ScenarioConfig`` is built, which is itself one
of the outcomes.
"""

import math
import re
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repisac import (ConfigError, NumericalDomainError, ScenarioConfig, run_pod_vs_rcs,
                     run_se_cdf)
from repisac import harness
from repisac.detector import trial_rng
from repisac.harness import calibrate
from repisac.scenario import MAX_REPEATER_GAIN_DB, PRECODER_MODES

TX_BS_XY, RX_BS_XY = (0.0, 0.0), (300.0, 0.0)
FIXED_GRID = (1e-6, 1.0, 1e6)
SEED_KEY = re.compile(r"seed keys? \(\d+(, \d+)*\)")


def _log_uniform(low_exp: float, high_exp: float):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0 ** e)


def _or_int(values):
    """``values``, or one of them rounded up to a Python int."""
    return values | values.map(math.ceil)


HUGE = st.integers(309, 400).map(lambda e: 10 ** e)  # Python ints that no float holds
# a gain in the studied range, in the valid high-gain band (where the statistics
# sit on the repeater-noise ceiling and RZF can lose the users' own channels), or
# out to +-10**4 dB
GAINS = _or_int(st.floats(-40.0, 200.0) | st.floats(200.0, MAX_REPEATER_GAIN_DB)
                | st.floats(-1e4, 1e4))


@st.composite
def study_configs(draw) -> dict:
    """Keyword arguments of a small study config, each field over its range."""
    kwargs = dict(
        n_tx_antennas=draw(st.integers(1, 6)), n_rx_antennas=draw(st.integers(1, 6)),
        n_users=draw(st.integers(0, 5)), slot_length=draw(st.integers(1, 12)),
        sensing_power_fraction=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        repeater_on=draw(st.booleans()), repeater_gain_db=draw(GAINS),
        residual_interbs_power=draw(st.sampled_from([0.0, 1e-20, 1e-13, 1e-8, 1.0])),
        clutter_suppression=draw(_or_int(_log_uniform(-12, 6))),
        precoder_mode=draw(st.sampled_from(PRECODER_MODES)),
        service_radius_m=draw(st.sampled_from([0.0, 1.0, 100.0])),
        repeater_disc_radius_m=draw(st.sampled_from([0.0, 1.0, 100.0])),
        hotspot_xy=draw(st.sampled_from([TX_BS_XY, RX_BS_XY, (150.0, 120.0),
                                         (150.0, 1e5)])),
        rcs_variance=draw(_or_int(_log_uniform(-12, 12))),
        # up to 1e20 W: the K x K RZF side lost its pivot only that high
        tx_power_watt=draw(_or_int(_log_uniform(-12, 20))),
        pfa_target=draw(_log_uniform(-6, math.log10(0.5))),
        mc_trials=70, calibration_trials=90, master_seed=draw(st.integers(0, 20)),
    )
    if draw(st.integers(0, 9)) == 0:  # one float field too large for a float
        name = draw(st.sampled_from(["repeater_gain_db", "rcs_variance", "hotspot_xy"]))
        huge = draw(HUGE) * draw(st.sampled_from([1, -1]))
        kwargs[name] = (huge, 0.0) if name == "hotspot_xy" else huge
    return kwargs


def _outcome(call) -> None:
    """Run ``call``; its outputs must be finite, or its error must say why."""
    drawn = []  # the keys of the generators the study builds

    def recording_rng(master_seed, key, index):
        drawn.append((*key, index))
        return trial_rng(master_seed, key, index)

    try:
        with mock.patch.object(harness, "trial_rng", recording_rng):
            outputs = call()
    except ConfigError as exc:
        assert not drawn, f"{exc!r} after drawing from the keys {drawn}"
        return
    except NumericalDomainError as exc:
        assert SEED_KEY.search(str(exc)), f"no seed key in {exc!r}"
        return
    if isinstance(outputs, tuple):  # calibrate
        assert all(map(math.isfinite, outputs)), outputs
        return
    for row in outputs.rows:
        numbers = [v for v in row if not isinstance(v, str)]
        if outputs.header[1] == "repeater_gain_db" and row[1] == -math.inf:
            numbers.remove(row[1])  # the repeater-off gain
        assert all(map(math.isfinite, numbers)), row
    assert all(map(math.isfinite, outputs.metadata.get("mean_scnr", {}).values()))


_SMALL = dict(n_rx_antennas=2, slot_length=4, sensing_power_fraction=0.5, repeater_on=True,
              repeater_gain_db=20.0, residual_interbs_power=0.0,
              precoder_mode="target_centric", service_radius_m=100.0,
              repeater_disc_radius_m=100.0, hotspot_xy=(150.0, 120.0), rcs_variance=1.0,
              pfa_target=0.01, mc_trials=70, calibration_trials=90)


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(kwargs=study_configs(),
       grid=st.lists(_or_int(st.sampled_from(FIXED_GRID)) | HUGE, min_size=1,
                     max_size=3).map(tuple),
       gains=st.none() | st.tuples(GAINS | HUGE | HUGE.map(lambda v: -v), st.none()))
# K > Nt at a regularizer near eps ||fdot||^2: the K x K RZF solve meets an exactly
# zero pivot on the PoD drop, or gives it a zero beam
@example(kwargs=dict(_SMALL, n_tx_antennas=1, n_users=2, tx_power_watt=1e20,
                     clutter_suppression=1e6, master_seed=6), grid=FIXED_GRID, gains=None)
@example(kwargs=dict(_SMALL, n_tx_antennas=1, n_users=2, tx_power_watt=1e16,
                     clutter_suppression=1e-2, master_seed=10), grid=FIXED_GRID, gains=None)
# repeater-null where b_tx is the target direction a_tx on every drop
@example(kwargs=dict(_SMALL, n_tx_antennas=1, n_users=0, tx_power_watt=1.0,
                     clutter_suppression=1e-2, master_seed=0, precoder_mode="repeater_null"),
         grid=FIXED_GRID, gains=None)
@example(kwargs=dict(_SMALL, n_tx_antennas=4, n_users=2, tx_power_watt=1.0,
                     clutter_suppression=1e-2, master_seed=0, precoder_mode="repeater_null",
                     repeater_disc_radius_m=0.0), grid=FIXED_GRID, gains=None)
# no sensing power and the target 100 km away: rounding gives s < 0 on some frames,
# which must end in a seed-keyed error, not in NaN thresholds
@example(kwargs=dict(n_tx_antennas=2, n_rx_antennas=1, n_users=1, slot_length=5,
                     sensing_power_fraction=0.0, repeater_gain_db=98.3,
                     hotspot_xy=(150.0, 1e5), tx_power_watt=1.65e17, mc_trials=70,
                     calibration_trials=90, master_seed=0), grid=FIXED_GRID, gains=None)
# at 1000 dB the repeater path swamps the users' own channels, and RZF gives the PoD
# drop a zero beam: a numerical failure after the drop is drawn, so it names its keys
@example(kwargs=dict(n_tx_antennas=5, n_rx_antennas=1, n_users=4, slot_length=1,
                     sensing_power_fraction=0.0, repeater_gain_db=1000.0,
                     residual_interbs_power=0.0, clutter_suppression=1.0,
                     precoder_mode="target_centric", service_radius_m=1.0,
                     repeater_disc_radius_m=0.0, hotspot_xy=(300.0, 0.0), tx_power_watt=1.0,
                     pfa_target=0.1, mc_trials=70, calibration_trials=90, master_seed=1),
         grid=FIXED_GRID, gains=None)
def test_every_study_runs_or_says_why(kwargs, grid, gains):
    try:
        config = ScenarioConfig(**kwargs)
    except ConfigError:
        return
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
        warnings.simplefilter("error")
        _outcome(lambda: run_pod_vs_rcs(config, None))
        _outcome(lambda: run_pod_vs_rcs(config, grid, repeater_gains_db=gains))
        _outcome(lambda: run_se_cdf(config))
        _outcome(lambda: calibrate(config))

"""Scenario configuration, geometry drops, path loss and noise power.

All powers are held in watts internally; dB/dBm values appear only at the
config-file boundary (and in the repeater-gain field, which is specified in
dB by convention).
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, PowerBudgetError

SPEED_OF_LIGHT = 299792458.0  # m/s

PRECODER_MODES = ("target_centric", "comm_centric", "repeater_null")
# the largest gain (whole dB) whose |nu|^4 = 10^(G/5), which the detector forms, is finite
MAX_REPEATER_GAIN_DB = math.floor(5.0 * math.log10(sys.float_info.max))


def pathloss_linear(distance_m, carrier_ghz: float, rx_height_m: float = 1.5):
    """Linear power gain of the 3GPP TR 38.901 UMi street-canyon NLOS model.

    PL[dB] = 22.4 + 35.3*log10(d_3D) + 21.3*log10(f_GHz) - 0.3*(h - 1.5),
    with the 3D distance clamped to >= 1 m. Returns 10^(-PL/10), evaluated as
    10^(-PL(1 m)/10) * d^-3.53, elementwise for an array of distances.
    """
    if np.less_equal(distance_m, 0.0).any():
        raise ConfigError(f"distance must be positive, got {float(np.min(distance_m))} m")
    if carrier_ghz <= 0.0:
        raise ConfigError(f"carrier frequency must be positive, got {carrier_ghz}")
    pl_1m_db = 22.4 + 21.3 * math.log10(carrier_ghz) - 0.3 * (rx_height_m - 1.5)
    return 10.0 ** (-pl_1m_db / 10.0) * np.maximum(distance_m, 1.0) ** -3.53


def noise_power_watt(density_dbm_hz: float, bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power in watts over a bandwidth, including noise figure."""
    if bandwidth_hz <= 0.0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth_hz}")
    dbm = density_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical and algorithmic parameters of one simulation study."""

    n_tx_antennas: int = 8
    n_rx_antennas: int = 8
    n_users: int = 10
    slot_length: int = 50
    tx_power_watt: float = 1.0
    sensing_power_fraction: float = 0.5
    # None -> equal split of (1 - sensing fraction) over the users
    user_power_fractions: tuple[float, ...] | None = None
    repeater_on: bool = True
    repeater_gain_db: float = 20.0  # |nu|^2 = 10^(G/10), dB over repeater noise floor
    repeater_phase_rad: float = 0.0
    rcs_variance: float = 1.0  # sigma_T^2, linear m^2 scale
    carrier_ghz: float = 1.9
    bandwidth_hz: float = 20e6
    noise_density_dbm_hz: float = -174.0
    noise_figure_db: float = 9.0
    ue_noise_figure_db: float = 9.0
    # None -> derived from density/bandwidth/figure (BS) or equal to BS noise (repeater)
    bs_noise_power_watt: float | None = None
    ue_noise_power_watt: float | None = None
    repeater_noise_power_watt: float | None = None
    residual_interbs_power: float = 0.0  # zeta^2
    clutter_suppression: float = 1e-2  # kappa, linear scaling on clutter gain
    zf_regularizer: float | None = None  # None -> K * sigma_UE^2 / rho
    pfa_target: float = 0.01
    mc_trials: int = 2000
    calibration_trials: int = 10000
    master_seed: int = 0
    precoder_mode: str = "target_centric"
    # geometry anchors, meters (heights are applied separately)
    tx_bs_xy: tuple[float, float] = (0.0, 0.0)
    rx_bs_xy: tuple[float, float] = (300.0, 0.0)
    hotspot_xy: tuple[float, float] = (150.0, 120.0)
    service_radius_m: float = 200.0
    repeater_disc_radius_m: float = 100.0
    bs_height_m: float = 25.0
    repeater_height_m: float = 10.0
    user_height_m: float = 1.5
    target_height_m: float = 1.5

    def __post_init__(self):
        self.validate()
        # with no users, () and None both mean "no fractions": keep one, for save/load
        if self.n_users == 0 and self.user_power_fractions == ():
            object.__setattr__(self, "user_power_fractions", None)

    def validate(self) -> None:
        # first: 4.0 would fail only mid-study, NaN pass every sign check, 'no' count as on
        for name, ftype in _FIELD_TYPES.items():
            value = getattr(self, name)
            if (held := _check_type(name, value, ftype)) is not value:
                object.__setattr__(self, name, held)
        if self.n_tx_antennas < 1 or self.n_rx_antennas < 1:
            raise ConfigError("antenna counts must be positive")
        if self.n_users < 0:
            raise ConfigError("n_users must be nonnegative")
        if self.slot_length < 1:
            raise ConfigError("slot_length must be >= 1")
        if self.tx_power_watt <= 0:
            raise ConfigError("tx_power_watt must be positive")
        if self.rcs_variance <= 0:
            raise ConfigError("rcs_variance must be positive")
        if self.repeater_gain_db > MAX_REPEATER_GAIN_DB:
            raise ConfigError(f"repeater_gain_db must be at most {MAX_REPEATER_GAIN_DB} dB (|nu|^4 = "
                              f"10^(G/5) overflows a float above it), got {self.repeater_gain_db}")
        if not (0.0 < self.pfa_target < 1.0):
            raise ConfigError("pfa_target must lie in (0, 1)")
        if self.mc_trials < 1 or self.calibration_trials < 1:
            raise ConfigError("trial counts must be positive")
        if self.precoder_mode not in PRECODER_MODES:
            raise ConfigError(f"unknown precoder_mode {self.precoder_mode!r}")
        if self.precoder_mode == "comm_centric" and self.n_users >= self.n_tx_antennas:
            raise ConfigError("comm_centric needs n_users < n_tx_antennas (the users' "
                              "channels would span every transmit direction)")
        if self.precoder_mode == "repeater_null" and (self.n_tx_antennas == 1
                                                      or self.repeater_disc_radius_m == 0.0):
            raise ConfigError("repeater_null needs n_tx_antennas > 1 and a positive "
                              "repeater_disc_radius_m (the repeater direction b_tx would be "
                              "the target direction a_tx, and the sensing beam nulled)")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be nonnegative")
        if self.residual_interbs_power < 0:
            raise ConfigError("residual_interbs_power must be nonnegative")
        if self.clutter_suppression <= 0:
            raise ConfigError("clutter_suppression must be positive "
                              "(the clutter covariance has to be invertible)")
        if self.sensing_power_fraction < 0:
            raise ConfigError("sensing_power_fraction must be nonnegative")
        fractions = self.user_fractions
        if (fractions < 0).any():
            raise ConfigError("user power fractions must be nonnegative")
        total = fractions.sum() + self.sensing_power_fraction
        if total > 1.0 + 1e-12:
            raise PowerBudgetError("power fractions must sum to at most 1")
        if not total > 0.0:
            raise ConfigError("the config transmits nothing: all power fractions are zero")
        for name in ("bs_noise_power_watt", "ue_noise_power_watt",
                     "repeater_noise_power_watt", "zf_regularizer"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive when given")
        if self.carrier_ghz <= 0 or self.bandwidth_hz <= 0:
            raise ConfigError("carrier and bandwidth must be positive")
        if self.service_radius_m < 0 or self.repeater_disc_radius_m < 0:
            raise ConfigError("geometry radii must be nonnegative")
        if self.n_users > 1 and self.service_radius_m == 0.0:
            raise ConfigError("zero-radius service disc cannot hold multiple users")
        # every position that no disc of positive radius spreads, and the links
        # between them that take a path loss: none of those may have length 0
        points = {"transmit BS": (*self.tx_bs_xy, self.bs_height_m),
                  "receive BS": (*self.rx_bs_xy, self.bs_height_m),
                  "target": (*self.hotspot_xy, self.target_height_m)}
        if self.service_radius_m == 0.0 and self.n_users > 0:
            points["users"] = (*self.tx_bs_xy, self.user_height_m)
        if self.repeater_disc_radius_m == 0.0:
            points["repeater"] = (*self.hotspot_xy, self.repeater_height_m)
        for a, b in _PATHLOSS_LINKS:
            if a in points and b in points and math.dist(points[a], points[b]) == 0.0:
                raise ConfigError(f"the {a} and the {b} coincide at {points[a]}: "
                                  "their path loss needs a positive 3-D distance")

    # -- derived quantities -------------------------------------------------

    @property
    def user_fractions(self) -> np.ndarray:
        """Per-user power fractions pi_1..pi_K (equal split by default)."""
        if self.user_power_fractions is not None:
            arr = np.asarray(self.user_power_fractions, dtype=float)
            if arr.shape != (self.n_users,):
                raise ConfigError("user_power_fractions length must equal n_users")
            return arr
        if self.n_users == 0:
            return np.zeros(0)
        return np.full(self.n_users, (1.0 - self.sensing_power_fraction) / self.n_users)

    @property
    def nu(self) -> complex:
        """Repeater amplification factor (0 when the repeater is off)."""
        if not self.repeater_on:
            return 0.0 + 0.0j
        mag = 10.0 ** (self.repeater_gain_db / 20.0)
        return mag * complex(math.cos(self.repeater_phase_rad), math.sin(self.repeater_phase_rad))

    @property
    def bs_noise_watt(self) -> float:
        if self.bs_noise_power_watt is not None:
            return self.bs_noise_power_watt
        return noise_power_watt(self.noise_density_dbm_hz, self.bandwidth_hz, self.noise_figure_db)

    @property
    def ue_noise_watt(self) -> float:
        if self.ue_noise_power_watt is not None:
            return self.ue_noise_power_watt
        return noise_power_watt(self.noise_density_dbm_hz, self.bandwidth_hz, self.ue_noise_figure_db)

    @property
    def repeater_noise_watt(self) -> float:
        # the repeater shares the BS noise floor unless overridden
        if self.repeater_noise_power_watt is not None:
            return self.repeater_noise_power_watt
        return self.bs_noise_watt

    @property
    def zf_regularizer_value(self) -> float:
        if self.zf_regularizer is not None:
            return self.zf_regularizer
        return max(self.n_users, 1) * self.ue_noise_watt / self.tx_power_watt

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / (self.carrier_ghz * 1e9)

    def with_updates(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


@functools.cache
def _type_form(ftype) -> tuple:
    """``typing.get_origin`` and ``typing.get_args`` of a field type, found once per type."""
    return typing.get_origin(ftype), typing.get_args(ftype)


def _check_type(name: str, value, ftype):
    """``value`` as a field of type ``ftype`` holds it (a number as a Python float), or a
    ``ConfigError``: tuples are tuples, an int (numpy's too, a bool not) is a number, and
    numbers are finite (an int is compared, so 10**400 is not). Only a value of exactly
    the field's class is decided before the generic checks, with the same verdict."""
    if type(value) is ftype and (ftype is not float or math.isfinite(value)):
        return value
    origin, args = _type_form(ftype)
    if origin is tuple:
        if not isinstance(value, tuple):
            raise ConfigError(f"{name} must be a tuple, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(f"{name} must hold exactly {len(args)} numbers, got {value!r}")
        return tuple([_check_type(name, v, args[0]) for v in value])
    if args:  # X | None
        return None if value is None else _check_type(name, value, args[0])
    if ftype is int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    elif ftype is float:
        if isinstance(value, bool) or not (
                abs(value) <= sys.float_info.max if isinstance(value, numbers.Integral)
                else isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        return float(value)
    elif not isinstance(value, ftype):
        raise ConfigError(f"{name} must be a {ftype.__name__}, got {value!r}")
    return value


# pairs of entities whose 3-D distance sets a path loss (gen_channels, clutter)
_PATHLOSS_LINKS = (("transmit BS", "receive BS"), ("transmit BS", "users"),
                   ("repeater", "users"), ("transmit BS", "target"), ("receive BS", "target"),
                   ("transmit BS", "repeater"), ("receive BS", "repeater"),
                   ("target", "repeater"))

# field types, as config files parse them and validate() checks them
_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


@dataclass(frozen=True)
class Geometry:
    """Positions (meters) of every entity in a drop, or in a block of drops.

    The fixed anchors are 3-vectors. The drawn ``repeater`` (..., 3) and
    ``users`` (..., K, 3) carry the same leading batch axes: none for one drop,
    one drop axis for a block.
    """

    tx_bs: np.ndarray
    rx_bs: np.ndarray
    repeater: np.ndarray
    hotspot: np.ndarray
    users: np.ndarray  # (..., K, 3)

    def __post_init__(self):
        for name in ("tx_bs", "rx_bs", "hotspot"):
            if np.shape(getattr(self, name)) != (3,):
                raise ConfigError(f"{name} must be a 3-vector")
        if np.shape(self.repeater)[-1:] != (3,):
            raise ConfigError("repeater must hold 3-vectors")
        if (self.users.ndim != np.ndim(self.repeater) + 1
                or self.users.shape[:-2] + self.users.shape[-1:] != np.shape(self.repeater)):
            raise ConfigError("users must have shape (..., K, 3), with the repeater's batch axes")


def link_geometry(p, q) -> tuple[np.ndarray, np.ndarray]:
    """3-D distance and horizontal azimuth of the direction p -> q, elementwise
    over the leading axes of the points."""
    d = np.asarray(q, float) - np.asarray(p, float)
    return np.sqrt(np.sum(d * d, axis=-1)), np.arctan2(d[..., 1], d[..., 0])


def _uniform_disc(center_xy, radius: float, height: float, u_radius, u_angle) -> np.ndarray:
    """Points (..., n, 3) uniform in a disc, from uniform draws (..., n) of radius and angle."""
    r = radius * np.sqrt(u_radius)
    theta = 2.0 * np.pi * u_angle
    points = np.empty(theta.shape + (3,))
    points[..., 0] = center_xy[0] + r * np.cos(theta)
    points[..., 1] = center_xy[1] + r * np.sin(theta)
    points[..., 2] = height
    return points


def drop_entities(config: ScenarioConfig, rng: np.random.Generator,
                  n_drops: int | None = None) -> Geometry:
    """Place the users and the repeater of one drop at random, or of ``n_drops``
    drops on a leading drop axis; the BS/hotspot anchors are fixed.

    A drop draws 2K + 2 uniforms: its users' radii, its users' angles, then the
    repeater's radius and angle, all drops' draws in one call. Users fall
    uniformly in the service disc around the transmit BS; the repeater falls
    uniformly in a disc around the hotspot center.
    """
    k = config.n_users
    shape = () if n_drops is None else (n_drops,)
    uniforms = rng.random((*shape, 2 * k + 2))
    users = _uniform_disc(config.tx_bs_xy, config.service_radius_m, config.user_height_m,
                          uniforms[..., :k], uniforms[..., k:2 * k])
    repeater = _uniform_disc(config.hotspot_xy, config.repeater_disc_radius_m,
                             config.repeater_height_m, uniforms[..., 2 * k:2 * k + 1],
                             uniforms[..., 2 * k + 1:])
    return Geometry(
        tx_bs=np.array([*config.tx_bs_xy, config.bs_height_m]),
        rx_bs=np.array([*config.rx_bs_xy, config.bs_height_m]),
        repeater=repeater[..., 0, :],
        hotspot=np.array([*config.hotspot_xy, config.target_height_m]),
        users=users,
    )


# -- flat key-value config files --------------------------------------------

def _parse_value(raw: str, ftype) -> object:
    raw = raw.strip()
    origin, args = _type_form(ftype)
    if origin is tuple:
        return tuple(_parse_value(tok, args[0]) for tok in raw.split(","))
    if args:  # X | None
        return None if raw.lower() in ("none", "") else _parse_value(raw, args[0])
    if ftype is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {raw!r}")
    return ftype(raw)


def load_config(path: str) -> ScenarioConfig:
    """Read a flat ``key = value`` text file into a ScenarioConfig.

    Lines starting with ``#`` and blank lines are ignored. Unknown and repeated
    keys are rejected so typos cannot silently fall back to defaults, nor one
    setting silently override another.
    """
    kwargs = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in kwargs:
            raise ConfigError(f"{path}:{lineno}: repeated config key {key!r}")
        try:
            kwargs[key] = _parse_value(raw, _FIELD_TYPES[key])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return ScenarioConfig(**kwargs)


def save_config(config: ScenarioConfig, path: str) -> None:
    """Write a config back out in the flat key-value format."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for f in fields(ScenarioConfig):
                value = getattr(config, f.name)
                if value is None:
                    text = "none"
                elif isinstance(value, bool):
                    text = "true" if value else "false"
                elif isinstance(value, str):
                    text = value
                else:  # numbers and tuples of them, numpy ones as Python ones (repr round-trips)
                    text = ",".join(map(repr, np.atleast_1d(value).tolist()))
                fh.write(f"{f.name} = {text}\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc

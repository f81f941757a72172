"""Link-level Monte Carlo simulator for repeater-assisted bi-static MIMO ISAC."""

from .channel import (ChannelRealization, ClutterModel, clutter_covariance,
                      draw_rcs, gen_channels, steering_vector)
from .comm_metrics import UserMetrics, downlink_metrics, spectral_efficiency, user_sinr
from .detector import (DetectorWorkspace, assemble_statistics, glrt_statistic,
                       map_estimate, oracle_loglike_ratio, sensing_noise_cov)
from .errors import (ConfigError, DegenerateNullspaceError, NumericalDomainError,
                     OracleFailureError, PowerBudgetError)
from .harness import StudyResult, run_pod_vs_rcs, run_se_cdf
from .precoding import (PrecoderSet, TransmitFrame, build_precoders,
                        build_transmit_frame, rzf_precoders, target_precoder)
from .propagation import NoiseDraws, SensingObservation, draw_noise, receive_bs_slot
from .scenario import (Geometry, ScenarioConfig, drop_entities, load_config,
                       noise_power_watt, pathloss_linear, save_config)

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization", "ClutterModel", "ConfigError", "DegenerateNullspaceError",
    "DetectorWorkspace", "Geometry", "NoiseDraws", "NumericalDomainError",
    "OracleFailureError", "PowerBudgetError", "PrecoderSet", "ScenarioConfig",
    "SensingObservation", "StudyResult", "TransmitFrame", "UserMetrics",
    "assemble_statistics", "build_precoders", "build_transmit_frame",
    "clutter_covariance", "downlink_metrics", "draw_noise", "draw_rcs", "drop_entities",
    "gen_channels", "glrt_statistic", "load_config",
    "map_estimate", "noise_power_watt", "oracle_loglike_ratio", "pathloss_linear",
    "receive_bs_slot", "run_pod_vs_rcs", "run_se_cdf",
    "rzf_precoders", "save_config", "sensing_noise_cov", "spectral_efficiency",
    "steering_vector", "target_precoder", "user_sinr",
]

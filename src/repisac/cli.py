"""Command-line entry point.

Subcommands: ``pod`` (detection-probability sweep), ``secdf`` (downlink SE
CDF), ``calibrate`` (the GLRT threshold that ``pod`` uses at the configured
RCS variance and repeater gain), ``oracle-check`` (closed form vs brute-force
oracle). Exit codes: 0 success, 1 configuration/usage error,
2 numerical-domain error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .detector import oracle_check
from .errors import ConfigError, NumericalDomainError
from .harness import StudyResult, calibrate, calibration_warnings, run_pod_vs_rcs, run_se_cdf
from .scenario import ScenarioConfig, load_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repisac",
                                     description="Repeater-assisted bi-static ISAC studies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials_help, need_out=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--trials", type=int, help=trials_help)
        p.add_argument("--workers", type=int, default=1, help="worker processes")
        p.add_argument("--out", required=need_out, help="output CSV path")

    p_pod = sub.add_parser("pod", help="PoD versus RCS-variance sweep")
    common(p_pod, "override mc_trials (H1 trials per grid point)", need_out=True)
    p_pod.add_argument("--grid", help="comma-separated sigma_T^2 grid "
                                      "(default: auto-scaled 8-point log grid)")
    p_pod.add_argument("--gains", help="comma-separated repeater gains in dB; 'none' means "
                                       "no repeater (default: config gain, if on, + none)")

    p_se = sub.add_parser("secdf", help="downlink per-user SE CDF")
    common(p_se, "override mc_trials (number of drops)", need_out=True)

    p_cal = sub.add_parser("calibrate", help="calibrate the GLRT threshold only")
    common(p_cal, "override calibration_trials (H0 trials)")

    p_orc = sub.add_parser("oracle-check", help="closed form vs least-squares oracle")
    p_orc.add_argument("--trials", type=int, default=100, help="random instances to check")
    p_orc.add_argument("--seed", type=int, default=0)
    return parser


def _load(args) -> ScenarioConfig:
    """The study's config; an --out that names no file, is in no directory, or is a
    directory fails here, before the study."""
    config = load_config(args.config) if args.config else ScenarioConfig()
    if args.out is not None:
        if not os.path.basename(args.out):  # "" or a trailing separator
            raise ConfigError(f"--out {args.out!r}: names no file")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ConfigError(f"--out {args.out}: no such directory")
        if os.path.isdir(args.out):  # the message of the write it spares
            error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
            raise ConfigError(f"cannot write {args.out}: {error}")
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        field = "calibration_trials" if args.command == "calibrate" else "mc_trials"
        updates[field] = args.trials
    return config.with_updates(**updates) if updates else config


def _number(token: str, option: str) -> float:
    try:
        return float(token.strip())
    except ValueError as exc:
        raise ConfigError(f"{option}: {exc}") from exc


def _warn(result) -> None:
    for warning in result.metadata["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)


def _write(result, out: str) -> int:
    result.write_csv(out)
    print(f"wrote {len(result.rows)} rows to {out}")
    _warn(result)
    return 0


def _cmd_pod(args) -> int:
    config = _load(args)
    grid = None  # the study's own suggested grid
    if args.grid is not None:
        grid = [_number(tok, "--grid") for tok in args.grid.split(",")]
    gains = None
    if args.gains is not None:
        gains = tuple(None if tok.strip().lower() == "none" else _number(tok, "--gains")
                      for tok in args.gains.split(","))
    return _write(run_pod_vs_rcs(config, grid, repeater_gains_db=gains, workers=args.workers),
                  args.out)


def _cmd_secdf(args) -> int:
    return _write(run_se_cdf(_load(args), workers=args.workers), args.out)


def _cmd_calibrate(args) -> int:
    config = _load(args)
    result = StudyResult("calibration", ("threshold", "empirical_pfa", "trials"),
                         [(*calibrate(config, workers=args.workers), config.calibration_trials)],
                         {"warnings": calibration_warnings(config)})
    if args.out is not None:  # a failed write prints no result
        result.write_csv(args.out)
    print(" ".join(f"{k}={v!r}" for k, v in zip(result.header, result.rows[0])))
    _warn(result)
    return 0


def _cmd_oracle_check(args) -> int:
    max_err, tol = oracle_check(n_instances=args.trials, seed=args.seed)
    ok = max_err <= tol
    print(f"oracle-check: {args.trials} instances, max relative error {max_err:.3e} "
          f"(tolerance {tol:.1e}) -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {"pod": _cmd_pod, "secdf": _cmd_secdf,
                "calibrate": _cmd_calibrate, "oracle-check": _cmd_oracle_check}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalDomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(main_cli())


if __name__ == "__main__":
    main()

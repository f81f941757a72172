"""repisac benchmark: Monte Carlo studies through the public library entry points.

Usage (from the root of a checkout):

    python3 bench/run.py --workload pod-sweep --seed 1 --seconds 30 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.
Each run builds the workload's ``ScenarioConfig`` from ``--seed`` and repeats
the study (``workers=1``, BLAS pinned to one thread, the run pinned to one
CPU) after an untimed warm-up, until ``--seconds`` of study wall time are
used, at least once. Every
study's output is checked; a study that raises or fails a check counts all its
units as failed.

``--trace 0`` reports the end-to-end metrics. The host's speed drifts by tens
of percent between minutes, so the program is timed against a reference: a
frozen copy of repisac in ``bench/reference``, run by ``ref_worker.py`` in a
child process. Each part of a program study (one call of the study's entry
point) is paired with the same part of a reference study, run just before or
just after it in turn, never at the same time; set-up probes alternate the
same way. A drift of the
host's speed then weighs on both alike and cancels in their ratio, which is
scaled by what the reference measured when the benchmark was defined
(``workloads.py``):

- ``trials_per_s``: reference ``trials_per_s`` x (program rate / reference
  rate), each rate over all pairs of study parts in the run. A unit is a sensing trial (pod
  workloads) or a drop (``secdf-drops``), counted as the result stands for
  them, not as the calls made.
- ``setup_s``: reference ``setup_s`` x the median over pairs of fresh
  interpreters of (program set-up time / reference set-up time), the time to
  import repisac and build the study inputs (``setup_probe.py``).
- ``peak_rss_mb``: peak resident memory of this process (the program only).

The unscaled wall-clock figures are printed and recorded too.

``--trace 1`` alternates untraced and traced studies of the program and
reports the per-layer table (see ``tracer.py`` and ``README.md``).

Human-readable ``name value unit`` lines, the failure fraction and the run's
provenance come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
and the spans of a traced run, are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import env  # first: pins BLAS threads before numpy is imported

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_ENV = {**os.environ, "REPISAC_BENCH_SRC": str(BENCH_DIR / "reference")}
SETUP_PAIRS = 5

# Functions that carried at least 1% of the traced self time on some workload
# when the benchmark was defined. The list is fixed so that every run emits the
# same metrics; a function missing from a workload reports 0.
FUNCTION_ROWS = (
    "detector.assemble_statistics", "detector.glrt_statistic",
    "detector.run_sensing_trial", "detector.trial_rng",
    "precoding.build_transmit_frame", "precoding.build_precoders",
    "precoding.rzf_precoders", "precoding.target_precoder",
    "precoding.effective_channels", "propagation.draw_noise",
    "propagation.receive_bs_slot", "channel.redraw_nuisance", "channel.gen_channels",
    "channel.steering_vector", "comm_metrics.user_sinr", "harness.run_se_cdf",
    "scenario.drop_entities", "scenario.distance", "scenario.pathloss_linear",
    "scenario.noise_power_watt",
)


def run_study(spec, config, tracer: Tracer | None = None,
              reference: Reference | None = None) -> dict:
    """One study: build its inputs (untimed), time each part of it, check the output.

    With a reference, every part is paired with the same part of a reference
    study, run just before or just after it (see ``Reference.goes_first``).
    """
    units = spec.units(config)
    walls, ref_walls = [], []
    try:
        inputs = spec.setup(config)
        results = []
        for index, part in enumerate(spec.parts):
            if reference is not None and reference.goes_first():
                ref_walls.append(reference.study(index))
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                results.append(spec.run(config, inputs, part))
            finally:
                walls.append(time.perf_counter() - start)
                if tracer is not None:
                    tracer.uninstall()
                    tracer.flush()
            if reference is not None and len(ref_walls) < len(walls):
                ref_walls.append(reference.study(index))
        errors = spec.check(spec.combine(results), config, inputs)
    except Exception:  # a failing study is reported, and the run goes on
        traceback.print_exc()
        errors = ["study raised"]
    for err in errors:
        print(f"check failed [{spec.name}, seed {config.master_seed}]: {err}", file=sys.stderr)
    return {"units": units, "wall": sum(walls), "walls": walls, "ref_walls": ref_walls,
            "ok": not errors, "traced": tracer is not None}


class Reference:
    """The frozen reference copy of repisac, studying the same workload and seed
    in a child process (``ref_worker.py``) one study part per call."""

    def __init__(self, spec, seed: int, tiny: bool):
        cmd = [sys.executable, str(BENCH_DIR / "ref_worker.py"), spec.name, str(seed)]
        if tiny:
            cmd.append("--tiny")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=REFERENCE_ENV)
        self._pairs = 0
        # its start-up would otherwise share the CPU with the first program study
        self._reply()

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference worker ended with code {self.proc.wait()}")
        return line

    def goes_first(self) -> bool:
        """Whether the reference part of the next pair runs before the program's
        part; it does in every other pair."""
        self._pairs += 1
        return self._pairs % 2 == 0

    def study(self, part: int) -> float:
        """Wall seconds of one part of a reference study."""
        self.proc.stdin.write(f"{part}\n")
        self.proc.stdin.flush()
        return float(self._reply())

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure(spec, config, seconds: float, tracer: Tracer | None = None,
            reference: Reference | None = None) -> list[dict]:
    """Repeat the study while at least half of the last round's time is left of
    ``seconds``, so that the rounds take ``seconds`` on average (at least one).

    With a tracer, each round is an untraced study followed by a traced one of
    the same inputs, so their wall times give the tracing overhead. With a
    reference, each round is one program study paired part by part with the
    reference.
    """
    deadline = time.perf_counter() + seconds
    studies = []
    while True:
        round_start = time.perf_counter()
        studies.append(run_study(spec, config, reference=reference))
        if tracer is not None:
            studies.append(run_study(spec, config, tracer))
        now = time.perf_counter()
        if now + (now - round_start) / 2.0 > deadline:
            return studies


def setup_times(spec, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times of the program and the reference, the
    reference first in every other pair."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), spec.name, str(seed)]
    if tiny:
        cmd.append("--tiny")

    def probe(environ) -> float:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True,
                             env=environ)
        return float(out.stdout.strip().splitlines()[-1])

    program, reference = [], []
    for pair in range(2 if tiny else SETUP_PAIRS):
        if pair % 2:
            reference.append(probe(REFERENCE_ENV))
        program.append(probe(None))
        if not pair % 2:
            reference.append(probe(REFERENCE_ENV))
    return program, reference


def overall_rate(studies: list[dict]) -> float:
    """Units over wall seconds, summed over the studies that reached their timed call."""
    timed = [s for s in studies if s["wall"] > 0.0]
    wall = sum(s["wall"] for s in timed)
    return sum(s["units"] for s in timed) / wall if wall > 0.0 else 0.0


def end_to_end_metrics(spec, config, studies: list[dict], setup: list[float],
                       ref_setup: list[float]) -> tuple[dict, dict]:
    """The scaled end-to-end metrics, and the unscaled figures they come from.

    ``trials_per_s`` scales the reference's figure by the program's rate over
    the reference's, each summed over all pairs of study parts in the run (both
    sides of a pair run the same units). ``setup_s`` scales it by the median
    over pairs of set-up probes of the program's time over the reference's.
    """
    pairs = [(p, r) for s in studies for p, r in zip(s["walls"], s["ref_walls"])]
    program_wall, reference_wall = sum(p for p, _ in pairs), sum(r for _, r in pairs)
    setup_ratio = [p / r for p, r in zip(setup, ref_setup)]
    units_per_part = spec.units(config) / len(spec.parts)
    raw = {
        "trials_per_s": (overall_rate(studies), "1/s"),
        "reference.trials_per_s": (units_per_part * len(pairs) / reference_wall
                                   if reference_wall > 0.0 else 0.0, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "reference.setup_s": (statistics.median(ref_setup), "s"),
    }
    metrics = {
        "trials_per_s": (spec.ref_trials_per_s * reference_wall / program_wall
                         if program_wall > 0.0 else 0.0, "1/s"),
        "setup_s": (spec.ref_setup_s * statistics.median(setup_ratio), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, raw


def per_layer_metrics(studies: list[dict], tracer: Tracer) -> dict:
    traced = [s for s in studies if s["traced"]]
    plain = [s for s in studies if not s["traced"]]
    units = sum(s["units"] for s in traced)
    table = tracer.per_function()
    metrics = {}
    for layer in LAYERS:
        rows = [v for name, v in table.items() if name.partition(".")[0] == layer]
        metrics[f"{layer}.self_us_per_trial"] = (
            sum(r["self_s"] for r in rows) * 1e6 / units, "us/trial")
        metrics[f"{layer}.calls_per_trial"] = (sum(r["calls"] for r in rows) / units,
                                               "calls/trial")
        metrics[f"{layer}.errors"] = (sum(r["failed"] for r in rows), "count")
    for name in FUNCTION_ROWS:
        row = table.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"{name}.self_us_per_trial"] = (row["self_s"] * 1e6 / units, "us/trial")
        metrics[f"{name}.calls_per_trial"] = (row["calls"] / units, "calls/trial")

    executed = table.get("detector.trial_rng", {"calls": 0})["calls"] / len(traced)
    metrics["harness.trials_executed"] = (executed, "trials/study")
    metrics["harness.exec_ratio"] = (executed * len(traced) / units, "ratio")
    builds = table.get("precoding.build_precoders", {"calls": 0})["calls"]
    degenerate = tracer.exceptions[("precoding.build_precoders", "DegenerateNullspaceError")]
    metrics["precoding.degenerate_frac"] = (degenerate / builds if builds else 0.0, "frac")
    plain_rate, traced_rate = overall_rate(plain), overall_rate(traced)
    metrics["trace.overhead_frac"] = (
        plain_rate / traced_rate - 1.0 if traced_rate > 0.0 else 0.0, "frac")
    return metrics


def git_sha() -> str | None:
    if not (env.ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(env.ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def provenance(spec, config, args, studies: list[dict],
               setup: tuple[list[float], list[float]]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_pin": {var: os.environ.get(var) for var in env.THREAD_VARS},
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "mc_trials": config.mc_trials,
        "calibration_trials": config.calibration_trials,
        "units_per_study": spec.units(config),
        "studies": len(studies),
        "part_walls_s": [s["walls"] for s in studies],
        "reference_part_walls_s": [s["ref_walls"] for s in studies],
        "setup_s_samples": setup[0],
        "reference_setup_s_samples": setup[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny trial counts, for the benchmark's own tests")
    args = parser.parse_args(argv)

    # one CPU for this process and the ones it starts, so that program and
    # reference studies never differ in the CPU they ran on; the last one,
    # because device interrupts tend to land on the first
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = workloads.WORKLOADS[args.workload]
    config = spec.config(args.seed, tiny=args.tiny)
    workloads.warm_up(spec, config)
    if args.trace:
        tracer, setup, raw = Tracer(), ([], []), {}
        studies = measure(spec, config, args.seconds, tracer)
        metrics = per_layer_metrics(studies, tracer)
    else:
        tracer = None
        setup = setup_times(spec, args.seed, args.tiny)
        with Reference(spec, args.seed, args.tiny) as reference:
            studies = measure(spec, config, args.seconds, reference=reference)
        metrics, raw = end_to_end_metrics(spec, config, studies, *setup)

    attempted = sum(s["units"] for s in studies)
    failed = sum(s["units"] for s in studies if not s["ok"])
    record = {"provenance": provenance(spec, config, args, studies, setup),
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}}
    if tracer is not None:
        record["functions"] = tracer.per_function()

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{spec.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.npz"))

    print("provenance " + json.dumps(record["provenance"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_frac {failed / attempted!r} frac")
    for name, (value, unit) in raw.items():
        print(f"unscaled.{name} {value!r} {unit}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

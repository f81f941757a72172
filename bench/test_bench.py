"""Tests of the benchmark itself: every workload at tiny scale on two seeds,
the metric names against BENCHMARK.json, the output checks, the reference
worker, and the refusal to run without the repisac sources."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# numpy is loaded here, before env.py pins BLAS threads, as it is for tests/
from repisac import StudyResult  # noqa: E402

_ENVIRON = dict(os.environ)
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import workloads  # noqa: E402

# leave the thread settings of later tests' subprocesses as they were
for _var in run.env.THREAD_VARS:
    if _var in _ENVIRON:
        os.environ[_var] = _ENVIRON[_var]
    else:
        os.environ.pop(_var, None)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_checks_and_emits_every_metric(workload, seed, trace):
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    else:
        assert result["metrics"]["detector.errors"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("secdf-drops", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_pod_check_flags_a_falling_curve_and_a_bad_false_alarm_rate():
    spec = workloads.WORKLOADS["pod-sweep"]
    config = spec.config(1, tiny=True)
    grid = [float(g) for g in range(1, workloads.GRID_POINTS + 1)]
    pod = [0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0, 1.0]

    def rows(curve, pfa=config.pfa_target):
        return [(g, gain, p, 1.0, pfa, config.mc_trials)
                for gain in (20.0, float("-inf")) for g, p in zip(grid, curve)]

    def check(rows_):
        return spec.check(StudyResult("pod_vs_rcs", (), rows_), config, grid)

    assert check(rows(pod)) == []
    assert any("falls" in e for e in check(rows(pod[::-1])))
    assert any("empirical_pfa" in e for e in check(rows(pod, pfa=0.2)))
    assert check(rows(pod)[:-1]) == [f"expected {2 * len(grid)} rows, got {2 * len(grid) - 1}"]


def test_secdf_check_flags_degenerate_drops_and_swapped_medians():
    spec = workloads.WORKLOADS["secdf-drops"]
    config = spec.config(1, tiny=True)
    n = config.mc_trials * config.n_users

    def result(comm_se, degenerate=0):
        rows = []
        for mode, se in (("target_centric", 1.0), ("comm_centric", comm_se)):
            for rep in (1, 0):
                rows += [(mode, rep, se, (i + 1) / n) for i in range(n)]
        meta = {"degenerate_drops": {"comm_centric|1": degenerate}}
        return StudyResult("se_cdf", (), rows, meta)

    assert spec.check(result(4.0), config, None) == []
    assert any("degenerate" in e for e in spec.check(result(4.0, degenerate=1), config, None))
    assert any("median" in e for e in spec.check(result(0.5), config, None))


class _BrokenStudy:
    """A workload whose study raises, or whose output fails its check."""

    name = "broken"
    parts = (None,)
    ref_trials_per_s, ref_setup_s = 100.0, 0.3

    def __init__(self, raises: bool):
        self.raises = raises

    def units(self, _config):
        return 10

    def setup(self, _config):
        return None

    def run(self, _config, _inputs, _part):
        if self.raises:
            raise FloatingPointError("boom")
        return None

    def combine(self, results):
        return results[0]

    def check(self, _result, _config, _inputs):
        return ["wrong output"]


@pytest.mark.parametrize("raises", [True, False])
def test_a_failed_study_counts_its_units_as_failed(raises):
    config = workloads.WORKLOADS["secdf-drops"].config(1, tiny=True)
    study = _BrokenStudy(raises)
    studies = run.measure(study, config, 0.0)
    assert [(s["units"], s["ok"]) for s in studies] == [(10, False)]
    studies[0]["ref_walls"] = [0.5]
    metrics, _ = run.end_to_end_metrics(study, config, studies, [0.5], [0.5])
    assert metrics["trials_per_s"][0] > 0.0


def test_reference_worker_studies_on_request_and_exits():
    spec = workloads.WORKLOADS["pod-sweep"]
    with run.Reference(spec, 1, tiny=True) as reference:
        walls = [reference.study(part) for part in range(len(spec.parts))]
    assert all(w > 0.0 for w in walls)
    assert reference.proc.returncode == 0

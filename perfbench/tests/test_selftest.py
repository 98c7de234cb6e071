"""Self-test of the benchmark: every workload at a tiny size.

From the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE.parent))
import tracing  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _record_and_result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_tracing_keeps_outputs(workload):
    untraced, untraced_result = _record_and_result(_run(workload, 0))
    traced, traced_result = _record_and_result(_run(workload, 1))
    for result, declared in ((untraced_result, SPEC["end_to_end"]),
                             (traced_result, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 2
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in declared}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    for metric in SPEC["end_to_end"]:
        assert untraced_result["metrics"][metric["name"]]["value"] > 0, metric["name"]

    # tracing must not perturb the program's output bytes
    assert any(traced["rep_traced"]) and not all(traced["rep_traced"])
    assert set(traced["rep_digest"]) == {untraced["reference_digest"]}
    assert set(untraced["rep_digest"]) == {untraced["reference_digest"]}


def test_desk_eval_runs_no_training_layers():
    _, result = _record_and_result(_run("desk_eval", 1))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["autodiff.conv2d.bwd_s"] == 0
    assert metrics["heads.bag_loss_calls"] == 0
    assert metrics["preprocessing.augment_s"] == 0
    assert metrics["autodiff.conv2d.fwd_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("desk_cv", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _span(name, start, end, parent=None):
    span = tracing.Span(name, parent, None)
    span.start, span.end = start, end
    return span


def test_self_time_splits_concurrent_instants():
    # one parent with two children on different threads overlapping in [2, 4]
    parent = _span("evaluation.cross_validate", 0.0, 10.0)
    a = _span("training.train", 1.0, 4.0, parent)
    b = _span("training.train", 2.0, 6.0, parent)
    shares = tracing._self_shares([parent, a, b])
    assert shares == pytest.approx([5.0, 2.0, 3.0])
    assert sum(shares) == pytest.approx(10.0)

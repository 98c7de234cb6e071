"""Every demo script runs to completion and cleans up its scratch files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import milnet

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(milnet.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip()
    assert sorted(p.name for p in tmp_path.iterdir()) == []

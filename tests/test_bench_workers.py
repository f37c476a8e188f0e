"""Each benchmark workload runs one round in a fresh interpreter, as
perfbench/run.py starts it, with no failed operation and no wrong output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["pipeline", "supports", "embeddings", "lattice"])
def test_worker_round_is_correct(workload):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload, "--seed", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["n_wrong"] == 0, result["wrong"]

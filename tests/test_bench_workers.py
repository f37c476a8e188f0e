"""Each benchmark workload runs one round in a fresh interpreter, as
perfbench/run.py starts it, with no failed operation and no wrong output,
and the traced rounds' wrappers can be put in place."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


@pytest.mark.parametrize("workload", ["pipeline", "supports", "embeddings", "lattice"])
def test_worker_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload, "--seed", "1"],
        capture_output=True, text=True, env=src_env(), cwd=ROOT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["n_wrong"] == 0, result["wrong"]


def test_tracer_finds_every_function_it_wraps():
    # only a traced round (--trace) installs the span wrappers, so a traced
    # function that is deleted or renamed would break nothing else that runs
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'perfbench')!r}); "
            "import spans; spans.Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr

"""The orbifold24 benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Each round of the workload runs in a
fresh interpreter (perfbench/worker.py), so caches start cold as they do
for a command-line user.  Rounds repeat while another round, as long as
the longest so far, would still end within S seconds; at least one whole
round always runs.  Set-up is sampled at least SETUP_SAMPLES times, with
extra set-up-only interpreters where the run had fewer rounds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are setup_s,
run_s and peak_rss_mb (medians over rounds and set-ups); with --trace 1
they are the per-layer self times and counts of perfbench/spans.py, from
rounds run with tracing on.  Lines before it describe the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "supports", "embeddings", "lattice")
SETUP_SAMPLES = 3
ROUND_TIMEOUT_S = 170


def spawn(args, env, extra=()):
    """One worker round; returns its JSON result plus the set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.trace:
        cmd.append("--trace")
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description="orbifold24 benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "orbifold24" / "__init__.py").is_file():
        sys.exit(f"no orbifold24 sources under {src}; run from a source checkout")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [x for x in [os.environ.get("PYTHONPATH")] if x]))

    # a round starts only if one as long as the longest so far still ends
    # within --seconds; one whole round always runs
    rounds, longest = [], 0.0
    start = time.monotonic()
    while not rounds or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        rounds.append(spawn(args, env))
        longest = max(longest, time.monotonic() - began)
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, env, ["--setup-only"])["setup_s"])

    correct = all(r["n_wrong"] == 0 for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for i, r in enumerate(rounds):
        print(f"round {i}: run_s={r['run_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"rss_mb={r['rss_mb']:.1f} attempted={r['attempted']} failed={r['failed']} "
              f"wrong={r['n_wrong']} info={json.dumps(r['info'])}")
        for what in r["wrong"]:
            print(f"  wrong: {what}")

    if args.trace:
        metrics = {
            # counts repeat exactly between rounds; median_low keeps them whole
            name: {"value": (statistics.median if unit == "s" else statistics.median_low)(
                r["per_layer"][name] for r in rounds), "unit": unit}
            for name, unit in spans.PER_LAYER
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

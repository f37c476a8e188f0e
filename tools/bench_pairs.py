"""Alternating parent/change benchmark pairs, written to a BENCH_<n>.json record.

    python3 tools/bench_pairs.py --base REV --workload NAME \
        --pairs 10 --first-seed 6101 --out BENCH_6.json

Run from the root of the repository.  Both sides run from one temporary
directory, at paths of equal length, so that neither the path nor the
file system sets a side apart: the base revision is exported there with
`git archive`, and the change is a copy of the working tree's files, the
ones `git ls-files --cached --others --exclude-standard` lists, so
uncommitted edits and new files that git does not ignore are included.
Each pair runs `python3 perfbench/run.py --workload NAME
--seed S --seconds 20 --trace 0` once in each tree, the seed
stepping up by one per pair and the side that runs first alternating, so
that a drift of the machine's speed falls on both sides alike.

The record keeps, per workload: the seeds, every pair's metrics and
`correct`/`attempted`/`failed` fields; per side, under `outcomes`, whether
every run was correct (`all_correct`) and the share of attempted operations
that failed (`failed_share`); and per metric the median and quartiles of
each side, the number of pairs in which the change was better (lower),
`within_bound`: whether the change's median is at most the parent's
median times 1 + the metric's bound in BENCHMARK.json `end_to_end`, and
`gain`: whether every run of the change was correct, its failed share is
no larger than the parent's, it was better in at least nine tenths of the
pairs (a tie counts for neither side) and its median is below the parent's
by more than the parent's interquartile range, and `unresolved`: whether
the record rests on fewer than 10 pairs (`MIN_PAIRS`), which on identical
code have drifted by 16% in the median, or the parent's interquartile
range exceeds its median times the bound, so that the runs cannot tell a
change within the bound from one beyond it, unless every run of the change
was better than every run of the parent.
It also records the machine and the Python version.  Keys of an existing
record that this run does not measure (other workloads, a hand-entered
history of earlier changes) are kept, so one file can gather several runs.
Measuring a workload again moves its earlier entry, oldest first, into the
new entry's `earlier` list, so no run is lost.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "run_s", "peak_rss_mb")
BOUNDS = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
SECONDS = 20
# fewer pairs than this cannot resolve a metric
MIN_PAIRS = 10
# the two sides' directories, names of one length
BASE_DIR, CHANGE_DIR = "parent", "change"


def export(rev: str, into: Path) -> Path:
    """The files of revision rev, extracted under into/parent."""
    dest = into / BASE_DIR
    dest.mkdir()
    archive = into / f"{dest.name}.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()
    return dest


def export_worktree(into: Path) -> Path:
    """The working tree's files that git tracks or would track, copied under
    into/change.  A tracked file deleted from the working tree is left out."""
    dest = into / CHANGE_DIR
    dest.mkdir()
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return dest


def bench(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run in tree; its closing JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{m: result["metrics"][m]["value"] for m in METRICS}}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def outcomes(runs: list[dict]) -> dict:
    """Whether every run was correct, and the share of the runs' attempted
    operations that failed (0 if none was attempted)."""
    attempted = sum(r["attempted"] for r in runs)
    return {"all_correct": all(r["correct"] for r in runs),
            "failed_share": sum(r["failed"] for r in runs) / attempted if attempted else 0.0}


def summarize(pairs: list[dict]) -> dict:
    sides = {side: outcomes([p[side] for p in pairs]) for side in ("base", "change")}
    # a faster change counts as a gain only if it is no less right
    sound = (sides["change"]["all_correct"]
             and sides["change"]["failed_share"] <= sides["base"]["failed_share"])
    out = {"outcomes": sides}
    for m in METRICS:
        base = [p["base"][m] for p in pairs]
        change = [p["change"][m] for p in pairs]
        base_q, change_q = quartiles(base), quartiles(change)
        better = sum(c < b for b, c in zip(base, change))
        spread = base_q["q3"] - base_q["q1"]
        out[m] = {
            "base": base_q,
            "change": change_q,
            "change_better": better,
            "pairs": len(pairs),
            "within_bound": change_q["median"] <= base_q["median"] * (1 + BOUNDS[m]),
            "gain": sound and 10 * better >= 9 * len(pairs)
            and base_q["median"] - change_q["median"] > spread,
            "unresolved": len(pairs) < MIN_PAIRS
            or spread > base_q["median"] * BOUNDS[m] and max(change) >= min(base),
        }
    return out


def machine() -> dict:
    return {
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="parent revision")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"base": export(args.base, Path(tmp)), "change": export_worktree(Path(tmp))}
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench(trees[side], args.workload, seed)
            pairs.append(pair)
            print(json.dumps(pair), flush=True)

    record["machine"] = machine()
    record["command"] = ("python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {SECONDS} --trace 0")
    workloads = record.setdefault("workloads", {})
    entry = {
        "base": args.base,
        "change": "working tree",
        "seeds": [p["seed"] for p in pairs],
        "pairs": pairs,
        "summary": summarize(pairs),
    }
    if args.workload in workloads:
        previous = workloads[args.workload]
        entry["earlier"] = previous.pop("earlier", []) + [previous]
    workloads[args.workload] = entry
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/bench_pairs.py keeps every run of a workload in its record and
judges a gain by the pair rule."""

import importlib.util
import json
import subprocess

import pytest
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measuring_a_workload_again_keeps_the_earlier_runs(tmp_path, monkeypatch):
    tool = load_tool()
    runs = iter(range(1, 100))

    def fake_bench(tree, workload, seed):
        return {"correct": True, "attempted": 1, "failed": 0,
                "setup_s": 0.1, "run_s": float(next(runs)), "peak_rss_mb": 20.0}

    monkeypatch.setattr(tool, "export", lambda rev, into: into)
    monkeypatch.setattr(tool, "export_worktree", lambda into: into)
    monkeypatch.setattr(tool, "bench", fake_bench)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"history": ["kept"]}))
    for first_seed in (10, 20, 30):
        assert tool.main(["--base", "HEAD", "--workload", "embeddings", "--pairs", "2",
                          "--first-seed", str(first_seed), "--out", str(out)]) == 0
    assert tool.main(["--base", "HEAD", "--workload", "lattice", "--pairs", "1",
                      "--first-seed", "40", "--out", str(out)]) == 0

    record = json.loads(out.read_text())
    assert record["history"] == ["kept"]
    newest = record["workloads"]["embeddings"]
    # the newest run keeps the keys of a first run, plus the earlier runs in order
    assert set(newest) == {"base", "change", "seeds", "pairs", "summary", "earlier"}
    assert newest["seeds"] == [30, 31]
    assert [e["seeds"] for e in newest["earlier"]] == [[10, 11], [20, 21]]
    assert all("earlier" not in e for e in newest["earlier"])
    assert "earlier" not in record["workloads"]["lattice"]


def run_of(run_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "setup_s": 1.0, "run_s": run_s, "peak_rss_mb": 20.0}


def pairs_of(base, change):
    return [{"base": run_of(b), "change": run_of(c)} for b, c in zip(base, change)]


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.9825-1.0175


@pytest.mark.parametrize("change,gain", [
    ([0.80] * 10, True),  # 10 of 10 better, medians 0.2 apart
    ([0.80] * 9 + [1.10], True),  # 9 of 10 is enough
    ([0.80] * 8 + [1.10] * 2, False),  # 8 of 10 is not
    ([0.80] * 7 + [1.00, 0.80, 1.10], False),  # 8 better and a tie: the tie is no win
    ([x - 0.02 for x in BASE], False),  # 10 of 10 better, but within the parent's spread
    ([1.20] * 10, False),  # worse
])
def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_spread(change, gain):
    summary = load_tool().summarize(pairs_of(BASE, change))
    assert summary["run_s"]["gain"] is gain
    # setup_s and peak_rss_mb tie in every pair, so they show no gain
    assert summary["setup_s"]["gain"] is summary["peak_rss_mb"]["gain"] is False


@pytest.mark.parametrize("base_runs,change_runs,gain", [
    # one wrong change run: no gain, however fast
    ({}, {3: {"correct": False}}, False),
    # a wrong parent run does not hold the change back
    ({3: {"correct": False}}, {}, True),
    # the change fails a larger share of its operations
    ({}, {3: {"failed": 1}}, False),
    ({0: {"failed": 1}}, {3: {"failed": 2}}, False),
    # an equal or smaller failed share is no bar
    ({0: {"failed": 2}}, {3: {"failed": 2}}, True),
    ({0: {"failed": 2}}, {3: {"failed": 1}}, True),
])
def test_gain_needs_every_change_run_correct_and_no_larger_failed_share(
        base_runs, change_runs, gain):
    pairs = pairs_of(BASE, [0.80] * 10)  # a gain on timing alone
    for side, edits in (("base", base_runs), ("change", change_runs)):
        for i, fields in edits.items():
            pairs[i][side].update(fields)
    summary = load_tool().summarize(pairs)
    assert summary["run_s"]["gain"] is gain
    base_failed = sum(f.get("failed", 0) for f in base_runs.values())
    change_failed = sum(f.get("failed", 0) for f in change_runs.values())
    assert summary["outcomes"] == {
        "base": {"all_correct": all(f.get("correct", True) for f in base_runs.values()),
                 "failed_share": base_failed / 1000},
        "change": {"all_correct": all(f.get("correct", True) for f in change_runs.values()),
                   "failed_share": change_failed / 1000},
    }


WIDE = [1.0, 1.2, 0.8, 1.3, 0.7, 1.1, 0.9, 1.25, 0.75, 1.0]  # quartiles 0.825-1.175


@pytest.mark.parametrize("base,change,unresolved", [
    (BASE, [1.00] * 10, False),  # a spread of 0.035 within a bound of 0.25
    (WIDE, [1.00] * 10, True),  # a spread of 0.35 beyond it
    (WIDE, [0.69] * 10, False),  # every change run beats every parent run
    (WIDE, [0.69] * 9 + [0.70], True),  # one change run ties the parent's best
])
def test_unresolved_when_the_parent_spread_exceeds_the_bound(base, change, unresolved):
    summary = load_tool().summarize(pairs_of(base, change))
    assert summary["run_s"]["unresolved"] is unresolved
    # setup_s and peak_rss_mb do not spread at all
    assert summary["setup_s"]["unresolved"] is summary["peak_rss_mb"]["unresolved"] is False


@pytest.mark.parametrize("n", [1, 4, 9])
def test_fewer_than_ten_pairs_read_unresolved(n):
    tool = load_tool()
    assert tool.MIN_PAIRS == 10
    # at 10 pairs these resolve; on fewer they do not, even where every
    # change run beats every parent run
    resolved = tool.summarize(pairs_of(BASE, [1.00] * 10))
    assert not any(resolved[m]["unresolved"] for m in tool.METRICS)
    for change in ([1.00] * n, [0.50] * n):
        summary = tool.summarize(pairs_of(BASE[:n], change))
        assert all(summary[m]["unresolved"] for m in tool.METRICS)


def test_bench_29_supports_run_s_would_read_unresolved():
    tool = load_tool()
    record = json.loads((TOOL.parent.parent / "BENCH_29.json").read_text())
    pairs = record["workloads"]["supports"]["pairs"]
    assert tool.summarize(pairs)["run_s"]["unresolved"] is True
    # unresolved by its spread too, not only by its 8 pairs
    assert len(pairs) == 8
    summary = tool.summarize(pairs + pairs[:2])
    assert summary["run_s"]["unresolved"] is True


def test_both_sides_run_from_exports_at_paths_of_equal_length(tmp_path, monkeypatch):
    tool = load_tool()
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / "tracked.txt").write_text("committed\n")
    (repo / ".gitignore").write_text("ignored.txt\n")
    git("add", "-A")
    git("-c", "user.name=bench", "-c", "user.email=bench@example.com", "commit", "-q", "-m", "base")
    (repo / "tracked.txt").write_text("edited\n")
    (repo / "sub").mkdir()
    (repo / "sub" / "new.txt").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")

    seen = []

    def fake_bench(tree, workload, seed):
        seen.append({
            "tree": tree,
            "tracked": (tree / "tracked.txt").read_text(),
            "new": (tree / "sub" / "new.txt").is_file(),
            "ignored": (tree / "ignored.txt").exists(),
        })
        return {"correct": True, "attempted": 1, "failed": 0,
                "setup_s": 0.1, "run_s": 0.1, "peak_rss_mb": 20.0}

    monkeypatch.setattr(tool, "ROOT", repo)
    monkeypatch.setattr(tool, "bench", fake_bench)
    assert tool.main(["--base", "HEAD", "--workload", "lattice", "--pairs", "1",
                      "--first-seed", "1", "--out", str(tmp_path / "BENCH.json")]) == 0
    base, change = seen  # the first pair runs the base first
    assert len(str(base["tree"])) == len(str(change["tree"]))
    assert base["tree"].parent == change["tree"].parent
    assert repo not in (base["tree"], change["tree"])
    assert (base["tracked"], base["new"]) == ("committed\n", False)
    assert (change["tracked"], change["new"], change["ignored"]) == ("edited\n", True, False)

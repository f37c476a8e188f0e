"""tools/bench_pairs.py keeps every run of a workload in its record."""

import importlib.util
import json
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

"""tools/import_cost.py, tools/paired_bench.py, tools/op_count.py,
tools/block_scaling.py, tools/exact_fuzz.py and tools/bench_record.py."""

import gc
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def closed_pipe():
    """The write end of a pipe whose read end is already closed, as after
    `| head -1` has exited."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def test_import_cost_stops_quietly_when_stdout_closes(tmp_path):
    # a checkout of the package's sources alone, so that no __pycache__
    # under src/ makes the tool warn on stderr
    shutil.copytree(ROOT / "src" / "orddraw", tmp_path / "src" / "orddraw",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(closed_pipe(), "wb") as stdout:
        run = subprocess.run([sys.executable, str(TOOLS / "import_cost.py"), str(tmp_path),
                              "--runs", "1"],
                             stdout=stdout, stderr=subprocess.PIPE, timeout=120)
    assert (run.returncode, run.stderr) == (1, b"")


def test_paired_bench_stops_quietly_when_stdout_closes(monkeypatch):
    tool = load_tool("paired_bench")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append(checkout)
        return {"metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                            for m in bench["end_to_end"]},
                "attempted": 1, "failed": 0, "correct": True}

    monkeypatch.setattr(tool, "run_once", run_once)
    with open(closed_pipe(), "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(BrokenPipeError):
            print("unread", file=stdout, flush=True)
        assert tool.main([str(ROOT), str(ROOT), "--workload", "exact", "--pairs", "3"]) == 1
        # the first pair's line met the closed pipe: no further run started
        assert runs == [ROOT]
        print("after the close", file=stdout, flush=True)  # to devnull now


def test_op_count_stops_quietly_when_stdout_closes(monkeypatch):
    tool = load_tool("op_count")
    monkeypatch.setattr(tool, "corpus_pass", lambda workload, seed: lambda: None)
    with open(closed_pipe(), "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        # the count's lines wait in the buffer until the flush at the end
        assert tool.main(["--workload", "exact", "--seed", "0"]) == 1
        print("after the close", file=stdout, flush=True)  # to devnull now


def test_block_scaling_times_small_triangle_sets(capsys):
    tool = load_tool("block_scaling")
    assert tool.main(["--sizes", "3", "40"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["family", "k", "blocks", "odd_blocks_s", "us_per_block",
                              "min_oct_exact_s", "us_per_block"]
    assert [row.split()[:3] for row in rows] == [
        [family, k, k] for family in ("triangles", "twins") for k in ("3", "40")]
    assert all(float(figure) >= 0 for row in rows for figure in row.split()[3:])


def test_block_scaling_checks_each_familys_removal_set():
    tool = load_tool("block_scaling")
    assert tool.triangle_hit([0, 4, 8]) and not tool.triangle_hit([0, 1, 8])
    assert tool.twins_hit(list(range(30, 40)) + list(range(50, 60)))
    assert not tool.twins_hit(list(range(31, 41)))  # twins of two positions
    assert not tool.twins_hit(list(range(30, 40)) + list(range(130, 140)))  # skips copy 1
    assert not tool.twins_hit(list(range(30, 39)))


def test_exact_fuzz_prints_a_line_per_input_and_a_summary(capsys):
    tool = load_tool("exact_fuzz")
    assert tool.main(["--count", "4", "--cap", "2"]) == 0
    header, *rows, summary = capsys.readouterr().out.splitlines()
    assert header.split() == ["i", "n", "p", "status", "k", "lower_bound", "branch_nodes",
                              "walks", "seconds", "removal"]
    assert [row.split()[0] for row in rows] == ["0", "1", "2", "3"]
    for row in rows:
        i, n, p, status, *figures, seconds, removal = row.split()
        size, density = tool.fuzz_input(int(i))
        assert (int(n), p) == (size, f"{density:.3f}")
        assert 12 <= size <= 30 and 0.1 <= density <= 0.45
        assert status in ("done", "capped") and float(seconds) >= 0
        if status == "done":
            assert all(figure.isdigit() for figure in figures) and len(removal) == 12
    words = summary.split()
    assert words[:4] == ["finished", str(sum("done" in row for row in rows)),
                         "capped", str(sum("capped" in row for row in rows))]


def test_exact_fuzz_caps_an_input_when_the_alarm_lands_in_a_gc_callback(monkeypatch, capsys):
    tool = load_tool("exact_fuzz")
    spun, reported = [], []
    monkeypatch.setattr(sys, "unraisablehook", lambda raised: reported.append(raised.exc_type))

    def spin(phase, info):
        # the first collection under the cap outlasts it, so the alarm lands
        # here, and Python only reports the exception it raises
        if phase == "start" and not spun and signal.getitimer(signal.ITIMER_REAL)[0] > 0:
            spun.append(phase)
            end = time.perf_counter() + 0.02
            while time.perf_counter() < end:
                pass

    threshold = gc.get_threshold()
    gc.callbacks.append(spin)
    gc.set_threshold(1)
    try:
        # input 0 takes about 0.1 s uncapped
        assert tool.main(["--count", "1", "--cap", "0.005"]) == 0
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(spin)
    assert tool.Capped in reported
    assert capsys.readouterr().out.splitlines()[1].split()[3] == "capped"


def test_exact_fuzz_caps_an_input_and_stops_quietly_when_stdout_closes(monkeypatch, capsys):
    tool = load_tool("exact_fuzz")
    # input 0 takes about 0.1 s, so a cap of 1 ms stops it
    assert tool.main(["--count", "1", "--cap", "0.001"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[3:8] == ["capped", "-", "-", "-", "-"] and row[-1] == "-"
    with open(closed_pipe(), "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert tool.main(["--count", "1"]) == 1
        print("after the close", file=stdout, flush=True)  # to devnull now


def test_bench_record_writes_its_schema_and_nothing_under_perfbench(tmp_path):
    perfbench = ROOT / "perfbench"
    before = {path: path.stat().st_mtime_ns for path in perfbench.rglob("*")}
    run = subprocess.run([sys.executable, str(TOOLS / "bench_record.py"), "--pr", "7",
                          "--workload", "exact", "--seconds", "0.1", "--out", str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert {path: path.stat().st_mtime_ns for path in perfbench.rglob("*")} == before
    record = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert set(record) == {"pr", "seconds", "host", "source", "workloads"}
    assert (record["pr"], record["seconds"]) == (7, 0.1)
    assert set(record["host"]) == {"cpus", "python", "load_start", "load_end"}
    source = record["source"]
    assert source["sloc_total"] == sum(source["sloc"].values()) > 0
    assert "orders.py" in source["sloc"] and source["physical_total"] > source["sloc_total"]
    (workload, found), = record["workloads"].items()
    assert workload == "exact"
    runs = found["runs"]
    assert [(r["seed"], r["trace"]) for r in runs] == [(0, 0), (1007, 0), (0, 1)]
    for r in runs:
        assert set(r["result"]) == {"correct", "attempted", "failed", "metrics"}
        assert r["result"]["correct"] and r["result"]["attempted"] >= 100
    assert "drawings_per_s" in runs[0]["result"]["metrics"]
    assert "engine.extension_s" in runs[2]["result"]["metrics"]
    assert runs[2]["attribution"] and all(
        line.startswith(("attribution holds: ", "attribution FAILS: "))
        for line in runs[2]["attribution"])
    counts = found["op_count"]
    assert counts["seed"] == 0 and counts["total"] >= sum(f["count"] for f in counts["top"])
    assert len(counts["top"]) == 10
    assert [line.split()[:2] for line in found["digests"]] == \
        [["exact", seed] for seed in ("0", "0", "0", "1007", "1007", "1007")]

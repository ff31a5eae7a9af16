"""tools/import_cost.py, tools/paired_bench.py, tools/op_count.py and
tools/block_scaling.py."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
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
    assert header.split() == ["k", "blocks", "odd_blocks_s", "us_per_block",
                              "min_oct_exact_s", "us_per_block"]
    assert [row.split()[:2] for row in rows] == [["3", "3"], ["40", "40"]]
    assert all(float(figure) >= 0 for row in rows for figure in row.split()[2:])

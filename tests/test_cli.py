"""End-to-end tests of the command-line interface via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orddraw import cli, engine
from orddraw.bipartization import OctResult, encode_oct
from orddraw.cli import main
from orddraw.engine import STRATEGIES, compute_coordinates
from orddraw.ingest import parse_order_text
from orddraw.sat import solve_cnf
from orddraw.tig import build_tig
from oracles import removal_set, solve_by_milp

S3_TEXT = """\
# classic three-dimensional example
elements: a1 a2 a3 b1 b2 b3
a1 < b2
a1 < b3
a2 < b1
a2 < b3
a3 < b1
a3 < b2
"""

DIAMOND_TEXT = "elements: bot left right top\nbot < left\nbot < right\nleft < top\nright < top\n"

CXT_TEXT = "B\n2\n2\ng0\ng1\nm0\nm1\nX.\n.X\n"


@pytest.fixture
def s3_file(tmp_path):
    path = tmp_path / "s3.order"
    path.write_text(S3_TEXT)
    return str(path)


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.order"
    path.write_text(DIAMOND_TEXT)
    return str(path)


@pytest.fixture
def cxt_file(tmp_path):
    path = tmp_path / "square.cxt"
    path.write_text(CXT_TEXT)
    return str(path)


class TestDraw:
    def test_summary_line(self, s3_file, capsys):
        assert main(["draw", "-i", s3_file]) == 0
        out = capsys.readouterr().out
        assert "n=6 inc=18 passes=1 inserted=1 false_comparabilities=1" in out
        assert "time=" in out

    def test_svg_output(self, s3_file, tmp_path, capsys):
        target = tmp_path / "diagram.svg"
        assert main(["draw", "-i", s3_file, "-o", str(target)]) == 0
        data = target.read_bytes()
        assert data.startswith(b'<?xml version="1.0"')
        assert data.count(b"<circle") == 6

    def test_json_output(self, s3_file, tmp_path):
        target = tmp_path / "diagram.json"
        assert main(["draw", "-i", s3_file, "-o", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["passes"] == 1
        assert len(doc["elements"]) == 6
        assert doc["inserted_pairs"] in ([["a1", "b1"]], [["a2", "b2"]], [["a3", "b3"]])

    def test_json_output_counts_false_comparabilities_once(self, s3_file, tmp_path,
                                                           monkeypatch, capsys):
        """The JSON file and the summary line share one weak_dominance_stats
        report, and both still carry its count."""
        calls = []
        original = engine.weak_dominance_stats

        def counted(d):
            calls.append(d)
            return original(d)

        monkeypatch.setattr(cli, "weak_dominance_stats", counted)
        monkeypatch.setattr(engine, "weak_dominance_stats", counted)
        target = tmp_path / "diagram.json"
        assert main(["draw", "-i", s3_file, "-o", str(target),
                     "--summary-json", str(tmp_path / "summary.json")]) == 0
        assert len(calls) == 1
        assert json.loads(target.read_text())["false_comparabilities"] == 1
        assert json.loads((tmp_path / "summary.json").read_text())["false_comparabilities"] == 1
        assert "false_comparabilities=1" in capsys.readouterr().out

    def test_tikz_and_dot_outputs(self, diamond_file, tmp_path):
        for name in ("d.tikz", "d.tex", "d.dot"):
            target = tmp_path / name
            assert main(["draw", "-i", diamond_file, "-o", str(target)]) == 0
            assert target.stat().st_size > 100

    def test_unknown_extension_is_an_input_error(self, diamond_file, tmp_path, capsys):
        target = tmp_path / "out.bmp"
        assert main(["draw", "-i", diamond_file, "-o", str(target)]) == 1
        assert "cannot infer output format" in capsys.readouterr().err

    def test_summary_json_document(self, s3_file, tmp_path):
        target = tmp_path / "summary.json"
        assert main(["draw", "-i", s3_file, "--summary-json", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["n"] == 6
        assert doc["incomparable_pairs"] == 18
        assert doc["passes"] == 1
        assert doc["inserted"] == 1
        assert doc["false_comparabilities"] == 1
        assert doc["strategy"] == "sat"
        assert doc["seed"] == 0
        assert doc["perturbed"] == []

    def test_summary_json_is_byte_stable(self, s3_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["draw", "-i", s3_file, "--summary-json", str(a)]) == 0
        assert main(["draw", "-i", s3_file, "--summary-json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_json_on_stdout_is_the_whole_of_stdout(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("a < b\nc < d\n"))
        assert main(["draw", "-i", "-", "--summary-json", "-"]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["n"] == 4 and doc["incomparable_pairs"] == 8
        assert "n=4 inc=8" in err and "time=" in err

    def test_summary_json_on_stdout_matches_the_file(self, s3_file, tmp_path, capsysbinary):
        target = tmp_path / "summary.json"
        assert main(["draw", "-i", s3_file, "--summary-json", str(target)]) == 0
        capsysbinary.readouterr()
        assert main(["draw", "-i", s3_file, "--summary-json", "-"]) == 0
        assert capsysbinary.readouterr().out == target.read_bytes()

    def test_verbose_reports_passes(self, s3_file, capsys):
        assert main(["draw", "-i", s3_file, "-v"]) == 0
        err = capsys.readouterr().err
        assert "pass 1: removed 1 tig vertices" in err

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(DIAMOND_TEXT))
        assert main(["draw", "-i", "-"]) == 0
        assert "n=4 inc=2 passes=0" in capsys.readouterr().out

    def test_heuristic_solvers_run(self, s3_file, capsys):
        for solver in sorted(STRATEGIES.keys() - {"sat"}):
            assert main(["draw", "-i", s3_file, "--solver", solver,
                         "--seed", "7"]) == 0
            assert "inserted=" in capsys.readouterr().out

    def test_cxt_input(self, cxt_file, capsys):
        assert main(["draw", "-i", cxt_file]) == 0
        assert "n=4 inc=2 passes=0 inserted=0" in capsys.readouterr().out

    def test_cxt_format_override(self, tmp_path, capsys):
        path = tmp_path / "context.txt"
        path.write_text(CXT_TEXT)
        assert main(["draw", "-i", str(path), "--input-format", "cxt"]) == 0
        assert "n=4" in capsys.readouterr().out


class TestDrawErrors:
    def test_missing_file(self, capsys):
        assert main(["draw", "-i", "/no/such/file.order"]) == 1
        assert "orddraw:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.order"
        bad.write_text("a !! b\n")
        assert main(["draw", "-i", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_cycle_error(self, tmp_path, capsys):
        bad = tmp_path / "cyclic.order"
        bad.write_text("a < b\nb < a\n")
        assert main(["draw", "-i", str(bad)]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_external_solver_flags_are_usage_errors(self, s3_file, capsys,
                                                    monkeypatch):
        for flags in (["--sat-backend", "external"], ["--solver-cmd", "true"]):
            with pytest.raises(SystemExit) as exc:
                main(["draw", "-i", s3_file, *flags])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        # the variable that used to name the solver command is ignored
        monkeypatch.setenv("ORDDRAW_SAT_CMD", "/no/such/solver")
        assert main(["draw", "-i", s3_file]) == 0

    def test_removed_solvers_are_usage_errors(self, s3_file, capsys):
        for solver in ("genetic", "brute"):
            with pytest.raises(SystemExit) as exc:
                main(["draw", "-i", s3_file, "--solver", solver])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_invariant_violations_exit_3(self, s3_file, capsys, monkeypatch):
        from orddraw.errors import OrderViolation

        def explode(*args, **kwargs):
            raise OrderViolation("synthetic failure for the exit-code test")

        monkeypatch.setattr("orddraw.cli.compute_coordinates", explode)
        assert main(["draw", "-i", s3_file]) == 3
        assert "internal invariant violated" in capsys.readouterr().err


class TestInProcessBackend:
    def test_milp_backend_draws(self):
        # a backend callable decides the instance `orddraw cnf` exports, and
        # solve_cnf checks its model; the model's removal set then drives a
        # drawing as a strategy
        o = parse_order_text(S3_TEXT)
        model = solve_cnf(encode_oct(build_tig(o).graph, 1), solve_by_milp)
        assert model is not None

        def milp(tg):
            return OctResult(removal_set(tg.graph.n, model), "milp", True)

        d = compute_coordinates(o, strategy=milp)
        assert d.trace.passes == 1 and len(d.trace.inserted) == 1
        assert d.trace.strategy == "milp"


class TestCnf:
    def test_stdout_dimacs_with_stats_on_stderr(self, s3_file, capsys):
        assert main(["cnf", "-i", s3_file, "-k", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("p cnf 71 116\n")
        assert "tig: n=18 m=24 k=1 vars=71 clauses=116" in captured.err

    def test_file_output_with_stats_on_stdout(self, s3_file, tmp_path, capsys):
        target = tmp_path / "instance.cnf"
        assert main(["cnf", "-i", s3_file, "-k", "2", "-o", str(target)]) == 0
        assert target.read_text().startswith("p cnf ")
        assert "k=2" in capsys.readouterr().out

    def test_sizes_match_the_advertised_formulas(self, s3_file, capsys):
        for k in (1, 2, 3):
            main(["cnf", "-i", s3_file, "-k", str(k)])
            err = capsys.readouterr().err
            n, m = 18, 24
            assert f"vars={(n - 1) * (k + 3) + 3}" in err
            assert f"clauses={2 * m + 2 * n * k + 2 * n - 3 * k - 1}" in err

    def test_writes_the_encoding_byte_for_byte(self, s3_file, tmp_path, capsys):
        graph = build_tig(parse_order_text(S3_TEXT)).graph
        for k in (0, 1, 2, 3):
            target = tmp_path / f"k{k}.cnf"
            assert main(["cnf", "-i", s3_file, "-k", str(k), "-o", str(target)]) == 0
            assert target.read_bytes() == encode_oct(graph, k).to_dimacs().encode("ascii")

    def test_negative_k_rejected(self, s3_file, capsys):
        assert main(["cnf", "-i", s3_file, "-k", "-1"]) == 1
        assert "k must be non-negative" in capsys.readouterr().err


class TestImport:
    def test_cli_import_leaves_subprocess_and_urllib_out(self):
        # a fresh interpreter, since this one has imported them already
        script = ("import sys, orddraw.cli\n"
                  "print(sorted({'subprocess', 'shlex', 'urllib.request',"
                  " 'xml.sax.saxutils'} & set(sys.modules)))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_draw_and_dim_leave_numpy_out(self, tmp_path):
        # every command runs to the end in one fresh interpreter: draw of an
        # .order input under sat and under anneal, draw of a .cxt input
        # (concept lattice), and dim; none of them may load numpy
        order = tmp_path / "s3.order"
        order.write_text(S3_TEXT)
        cxt = tmp_path / "pair.cxt"
        cxt.write_text(CXT_TEXT)
        runs = [["draw", "-i", str(order), "-o", str(tmp_path / "sat.svg"), "--solver", "sat"],
                ["draw", "-i", str(order), "-o", str(tmp_path / "anneal.json"),
                 "--solver", "anneal", "--summary-json", str(tmp_path / "summary.json")],
                ["draw", "-i", str(cxt), "-o", str(tmp_path / "lattice.svg")],
                ["dim", "-i", str(order), "--realizer"]]
        script = ("import json, sys\n"
                  "from orddraw.cli import main\n"
                  f"codes = [main(argv) for argv in {runs!r}]\n"
                  "print(json.dumps([codes, 'numpy' in sys.modules]), file=sys.stderr)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stderr.splitlines()[-1]) == [[0, 0, 0, 0], False]
        assert b"<svg" in (tmp_path / "sat.svg").read_bytes()
        assert json.loads((tmp_path / "summary.json").read_text())["strategy"] == "anneal"
        assert b"<svg" in (tmp_path / "lattice.svg").read_bytes()


class TestDim:
    def test_no_for_standard_example(self, s3_file, capsys):
        assert main(["dim", "-i", s3_file]) == 0
        assert capsys.readouterr().out == "dim<=2: no\n"

    def test_yes_with_realizer(self, diamond_file, capsys):
        assert main(["dim", "-i", diamond_file, "--realizer"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dim<=2: yes"
        assert out[1].startswith("L1: bot ")
        assert out[2].startswith("L2: bot ")
        assert set(out[1][4:].split()) == {"bot", "left", "right", "top"}

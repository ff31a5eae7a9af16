"""End-to-end tests of the command-line interface via main(argv)."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from orddraw import cli
from orddraw.bipartization import OctResult, encode_oct
from orddraw.cli import main
from orddraw.engine import STRATEGIES, compute_coordinates, drawing_to_json
from orddraw.ingest import parse_order_text, serialize_order
from orddraw.render import detect_collinear, emit_svg
from orddraw.sat import solve_cnf
from orddraw.tig import build_tig
from oracles import dense_false_pairs, random_order, removal_set, solve_by_milp

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


def fake_stdin(monkeypatch, text: str) -> None:
    """Standard input holding text as UTF-8 bytes."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))


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

    def test_json_output(self, s3_file, tmp_path, capsys):
        target = tmp_path / "diagram.json"
        assert main(["draw", "-i", s3_file, "-o", str(target),
                     "--summary-json", str(tmp_path / "summary.json")]) == 0
        doc = json.loads(target.read_text())
        assert doc["passes"] == 1
        assert len(doc["elements"]) == 6
        assert doc["inserted_pairs"] in ([["a1", "b1"]], [["a2", "b2"]], [["a3", "b3"]])
        # the JSON file, the summary JSON and the summary line carry one count
        assert doc["false_comparabilities"] == 1
        assert json.loads((tmp_path / "summary.json").read_text())["false_comparabilities"] == 1
        assert "false_comparabilities=1" in capsys.readouterr().out

    def test_counts_take_in_closure_added_pairs(self, tmp_path, capsys):
        # a random order that anneal extends in two passes, with pairs that
        # closure adds on top of the inserted ones
        rng = random.Random(3704)
        o = random_order(rng, rng.randint(5, 12), rng.uniform(0.1, 0.5))
        path = tmp_path / "two_pass.order"
        path.write_text(serialize_order(o))
        target, summary = tmp_path / "diagram.json", tmp_path / "summary.json"
        assert main(["draw", "-i", str(path), "--solver", "anneal", "-o", str(target),
                     "--summary-json", str(summary)]) == 0
        false = len(dense_false_pairs(compute_coordinates(o, strategy="anneal")))
        doc = json.loads(summary.read_text())
        assert json.loads(target.read_text())["false_comparabilities"] \
            == doc["false_comparabilities"] == false > doc["inserted"]
        assert f"false_comparabilities={false} " in capsys.readouterr().out

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
        assert doc["perturbed"] == []
        # every strategy is deterministic, so no seed is reported
        assert list(doc) == ["n", "incomparable_pairs", "passes", "inserted",
                             "inserted_pairs", "false_comparabilities", "strategy",
                             "perturbed"]

    def test_summary_json_is_byte_stable(self, s3_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["draw", "-i", s3_file, "--summary-json", str(a)]) == 0
        assert main(["draw", "-i", s3_file, "--summary-json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_json_on_stdout_is_the_whole_of_stdout(self, capsys, monkeypatch):
        fake_stdin(monkeypatch, "a < b\nc < d\n")
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

    def test_a_text_only_stdout_takes_the_summary_text(self, s3_file, tmp_path, capsys):
        # a program that calls main() under redirect_stdout has no byte buffer
        target = tmp_path / "summary.json"
        assert main(["draw", "-i", s3_file, "--summary-json", str(target)]) == 0
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            assert main(["draw", "-i", s3_file, "--summary-json", "-"]) == 0
        assert stream.getvalue() == target.read_text(encoding="utf-8")
        assert capsys.readouterr().err.startswith("n=6 inc=18 ")

    def test_verbose_reports_passes(self, s3_file, capsys):
        assert main(["draw", "-i", s3_file, "-v"]) == 0
        err = capsys.readouterr().err
        assert "pass 1: removed 1 tig vertices" in err

    def test_no_perturb_keeps_the_exact_embedding(self, tmp_path, capsys):
        # anneal's extension of this order puts x1 on a cover edge it is
        # not an end of (the golden random_order_10_anneal_perturbed case)
        path = tmp_path / "ro10.order"
        path.write_text(serialize_order(random_order(random.Random(134), 10)))
        docs = []
        for flags in ([], ["--no-perturb"]):
            out = tmp_path / f"drawing{len(docs)}.json"
            assert main(["draw", "-i", str(path), "--solver", "anneal",
                         "-o", str(out), *flags]) == 0
            docs.append(json.loads(out.read_text()))
        perturbed, kept = docs
        assert perturbed["perturbed"] != []
        assert kept["perturbed"] == []
        for element in kept["elements"]:
            c1, c2 = element["grid"]
            assert element["plane"] == [c2 - c1, c1 + c2]
        assert perturbed["elements"] != kept["elements"]

    def test_no_perturb_runs_no_detection(self, tmp_path, capsys, monkeypatch):
        # the same order: its drawing has a conflict, which --no-perturb keeps
        order = random_order(random.Random(134), 10)
        path = tmp_path / "ro10.order"
        path.write_text(serialize_order(order))
        raw = compute_coordinates(order, strategy="anneal")
        assert detect_collinear(raw) != []
        detected = []
        monkeypatch.setattr(cli, "detect_collinear", detected.append)
        for suffix, want in ((".svg", emit_svg(raw)), (".json", drawing_to_json(raw).encode())):
            out = tmp_path / f"drawing{suffix}"
            assert main(["draw", "-i", str(path), "--solver", "anneal", "-v",
                         "-o", str(out), "--no-perturb"]) == 0
            assert out.read_bytes() == want
            assert "perturbation" not in capsys.readouterr().err
        assert detected == []

    def test_stdin_input(self, capsys, monkeypatch):
        fake_stdin(monkeypatch, DIAMOND_TEXT)
        assert main(["draw", "-i", "-"]) == 0
        assert "n=4 inc=2 passes=0" in capsys.readouterr().out
        assert not sys.stdin.buffer.closed

    def test_a_text_only_stdin_is_read_as_it_is(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(DIAMOND_TEXT))
        assert main(["draw", "-i", "-"]) == 0
        assert "n=4 inc=2 passes=0" in capsys.readouterr().out

    def test_heuristic_solvers_run(self, s3_file, capsys):
        for solver in sorted(STRATEGIES.keys() - {"sat"}):
            assert main(["draw", "-i", s3_file, "--solver", solver]) == 0
            assert "inserted=" in capsys.readouterr().out

    def test_cxt_input(self, cxt_file, capsys):
        assert main(["draw", "-i", cxt_file]) == 0
        assert "n=4 inc=2 passes=0 inserted=0" in capsys.readouterr().out

    @pytest.mark.parametrize("text, labels", [
        ("B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n", ["{a,b}", "{a}", "{b}", "{}"]),
        ("B\n\n1\n1\n\na\nx\nX\n", ["{a}"]),
        ("B\nname\n2\n2\n\na\nb\nx\ny\nX.\n.X\n", ["{a,b}", "{a}", "{b}", "{}"]),
    ], ids=["blank-name", "one-cell", "named"])
    def test_cxt_in_the_common_layout(self, text, labels, tmp_path, capsys):
        # a name line after B and a blank line after the counts
        path = tmp_path / "t.cxt"
        path.write_text(text)
        out = tmp_path / "t.json"
        assert main(["draw", "-i", str(path), "-o", str(out)]) == 0
        assert sorted(e["label"] for e in json.loads(out.read_text())["elements"]) == labels

    # the file name plays no part: a context in a .order or .txt file and
    # order text in a .cxt file draw, and so does a context on stdin
    @pytest.mark.parametrize("name, text", [
        ("-", CXT_TEXT), ("context.order", CXT_TEXT), ("context.txt", CXT_TEXT),
        ("diamond.cxt", DIAMOND_TEXT)],
        ids=["cxt-on-stdin", "cxt-as-order", "cxt-as-txt", "order-as-cxt"])
    def test_the_text_names_its_format(self, name, text, tmp_path, capsys, monkeypatch):
        path = tmp_path / name
        path.write_text(text)
        source = name if name == "-" else str(path)
        for command in ("draw", "dim"):
            fake_stdin(monkeypatch, text)
            assert main([command, "-i", source]) == 0
        out = capsys.readouterr().out
        assert "n=4 inc=2 passes=0" in out and "dim<=2: yes" in out

    # without the drop, the .cxt header fails to parse and the .order text
    # draws with "\ufeffbot" as its first label
    @pytest.mark.parametrize("name, text", [
        ("diamond.order", "bot < left\nbot < right\nleft < top\nright < top\n"),
        ("square.cxt", CXT_TEXT)], ids=["order", "cxt"])
    def test_a_leading_byte_order_mark_is_dropped(self, name, text, tmp_path,
                                                  capsys, monkeypatch):
        path = tmp_path / name
        path.write_text("\ufeff" + text, encoding="utf-8")
        for source in (str(path), "-"):
            fake_stdin(monkeypatch, "\ufeff" + text)
            out = tmp_path / "drawing.json"
            assert main(["draw", "-i", source, "-o", str(out)]) == 0
            assert "n=4 inc=2 passes=0" in capsys.readouterr().out
            labels = [e["label"] for e in json.loads(out.read_text())["elements"]]
            assert not any("\ufeff" in label for label in labels)

    @pytest.mark.parametrize("fmt, text, labels", [
        ("order", "elements: café b\r\ncafé < b\r\n", ["b", "café"]),
        ("cxt", "B\r1\r1\rcafé\rm\rX\r", ["{café}"]),
    ], ids=["crlf-order", "cr-cxt"])
    def test_stdin_is_read_as_utf8_whatever_the_locale(self, fmt, text, labels, tmp_path):
        # the same bytes through -i - and through a file, in a child whose
        # sys.stdin decodes latin-1: both read UTF-8, CRLF and CR ending lines
        data = text.encode("utf-8")
        path = tmp_path / f"café.{fmt}"
        path.write_bytes(data)
        env = dict(os.environ, PYTHONIOENCODING="latin-1",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        outputs = []
        for source, stdin in ((str(path), b""), ("-", data)):
            out = tmp_path / f"drawing{len(outputs)}.json"
            done = subprocess.run([sys.executable, "-m", "orddraw.cli", "draw", "-i", source,
                                   "-o", str(out)],
                                  input=stdin, env=env, capture_output=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert sorted(e["label"] for e in json.loads(outputs[1])["elements"]) == labels

    def test_invalid_utf8_on_stdin_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a < \xff\n")))
        assert main(["draw", "-i", "-"]) == 1
        assert "can't decode byte 0xff" in capsys.readouterr().err
        assert not sys.stdin.buffer.closed


class TestDrawErrors:
    def test_missing_file(self, capsys):
        assert main(["draw", "-i", "/no/such/file.order"]) == 1
        assert "orddraw:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["draw", "dim"])
    def test_a_closed_stdin_exits_1(self, command, capsys, monkeypatch):
        # a process started with fd 0 closed has sys.stdin None
        monkeypatch.setattr("sys.stdin", None)
        assert main([command, "-i", "-"]) == 1
        assert capsys.readouterr().err == "orddraw: cannot read standard input: it is closed\n"

    def test_a_closed_stdout_for_the_summary_exits_1(self, s3_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdout", None)
        assert main(["draw", "-i", s3_file, "--summary-json", "-"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("n=6 inc=18 ")
        assert err[1:] == ["orddraw: cannot write standard output: it is closed"]

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.order"
        bad.write_text("a !! b\n")
        assert main(["draw", "-i", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.cxt"
        empty.write_text("")
        assert main(["draw", "-i", str(empty)]) == 1
        assert "no elements found" in capsys.readouterr().err

    def test_cycle_error(self, tmp_path, capsys):
        bad = tmp_path / "cyclic.order"
        bad.write_text("a < b\nb < a\n")
        assert main(["draw", "-i", str(bad)]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_unknown_extension_fails_before_the_input_is_read(self, tmp_path, capsys):
        # the input is cyclic, so reaching it would report the cycle instead
        bad = tmp_path / "cyclic.order"
        bad.write_text("a < b\nb < a\n")
        target = tmp_path / "x.pdf"
        assert main(["draw", "-i", str(bad), "-o", str(target)]) == 1
        err = capsys.readouterr().err
        assert "cannot infer output format" in err and "x.pdf" in err
        assert "cycle" not in err
        assert not target.exists()

    def test_one_file_for_both_outputs_is_an_input_error(self, s3_file, tmp_path,
                                                         capsys, monkeypatch):
        # the summary would overwrite the drawing; each spelling of one path
        # fails before the input is read, which for the cyclic input would
        # report the cycle instead
        cyclic = tmp_path / "cyclic.order"
        cyclic.write_text("a < b\nb < a\n")
        monkeypatch.chdir(tmp_path)
        for source, summary in ((s3_file, "x.svg"), (str(cyclic), "x.svg"),
                                (str(cyclic), str(tmp_path / "x.svg")),
                                (str(cyclic), "./sub/../x.svg")):
            assert main(["draw", "-i", source, "-o", "x.svg",
                         "--summary-json", summary]) == 1
            err = capsys.readouterr().err
            assert "-o/--output" in err and "--summary-json" in err
            assert "x.svg" in err and "cycle" not in err
            assert not (tmp_path / "x.svg").exists()

    def test_colliding_concept_labels(self, tmp_path, capsys):
        # a repeated object name, and a name holding the label separator
        for text, label in (("B\n2\n2\na\na\nm0\nm1\nX.\n.X\n", "{a}"),
                            ("B\n3\n2\na\nb\na,b\nm0\nm1\nX.\nX.\n.X\n", "{a,b}")):
            bad = tmp_path / "colliding.cxt"
            bad.write_text(text)
            assert main(["draw", "-i", str(bad)]) == 1
            err = capsys.readouterr().err
            assert f"share the label {label!r}" in err and "object names repeat" in err

    @pytest.mark.parametrize("name, text, label", [
        ("control.order", "a\x01 < b\n", "a\x01"),
        ("control.cxt", "B\n2\n2\ng\x1f\nh\nm0\nm1\nX.\n.X\n", "{g\x1f}"),
    ])
    def test_a_label_xml_cannot_carry_is_an_input_error(self, name, text, label,
                                                        tmp_path, capsys):
        # XML 1.0 has no character reference for most C0 controls either,
        # so no SVG can hold the label; the other formats still draw it
        source = tmp_path / name
        source.write_text(text)
        target = tmp_path / "out.svg"
        assert main(["draw", "-i", str(source), "-o", str(target)]) == 1
        assert f"label {label!r}" in capsys.readouterr().err
        assert not target.exists()
        for other in ("out.json", "out.dot", "out.tikz"):
            assert main(["draw", "-i", str(source), "-o", str(tmp_path / other)]) == 0

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
        for solver in ("genetic", "brute", "greedy"):
            with pytest.raises(SystemExit) as exc:
                main(["draw", "-i", s3_file, "--solver", solver])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_removed_input_format_is_a_usage_error(self, cxt_file, capsys):
        for command in ("draw", "dim"):
            with pytest.raises(SystemExit) as exc:
                main([command, "-i", cxt_file, "--input-format", "cxt"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --input-format" in capsys.readouterr().err

    def test_removed_seed_is_a_usage_error(self, s3_file, capsys):
        for solver in sorted(STRATEGIES):
            with pytest.raises(SystemExit) as exc:
                main(["draw", "-i", s3_file, "--solver", solver, "--seed", "7"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_removed_cnf_command_is_a_usage_error(self, s3_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cnf", "-i", s3_file, "-k", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'cnf'" in capsys.readouterr().err

    def test_invariant_violations_exit_3(self, s3_file, capsys, monkeypatch):
        from orddraw.errors import OrderViolation

        def explode(*args, **kwargs):
            raise OrderViolation("synthetic failure for the exit-code test")

        monkeypatch.setattr("orddraw.cli.compute_coordinates", explode)
        assert main(["draw", "-i", s3_file]) == 3
        assert "internal invariant violated" in capsys.readouterr().err


class TestInProcessBackend:
    def test_milp_backend_draws(self):
        # a backend callable decides the instance encode_oct builds, and
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


class TestImport:
    def test_cli_import_leaves_subprocess_and_urllib_out(self):
        # a fresh interpreter, since this one has imported them already
        # nor dataclasses, whose import loads inspect, dis and ast, nor
        # fractions with the decimal and numbers it loads: the plane is
        # integers over one shared denominator; nor random, since no
        # strategy draws a random number.  -S keeps the site module's .pth
        # files, which may import any of these, out of the count
        script = ("import sys, orddraw, orddraw.cli\n"
                  "print(sorted({'subprocess', 'shlex', 'urllib.request',"
                  " 'xml.sax.saxutils', 'dataclasses', 'inspect', 'dis', 'ast',"
                  " 'fractions', 'decimal', 'numbers', 'random'}"
                  " & set(sys.modules)))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
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

    def test_verbose_is_a_draw_option_only(self, s3_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "-i", s3_file, "-v"])
        assert exc.value.code == 2

    def test_yes_with_realizer(self, diamond_file, capsys):
        assert main(["dim", "-i", diamond_file, "--realizer"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dim<=2: yes"
        assert out[1].startswith("L1: bot ")
        assert out[2].startswith("L2: bot ")
        assert set(out[1][4:].split()) == {"bot", "left", "right", "top"}


class TestReadme:
    def test_every_command_has_a_section(self):
        # the "### `name`" sections under "## Command line" list exactly the
        # registered subcommands
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = re.search(r"^## Command line\n(.*?)^## ", readme, re.S | re.M)
        assert section, "README has no Command line section"
        documented = re.findall(r"^### `([\w-]+)`$", section.group(1), re.M)
        sub = next(a for a in cli._parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(documented) == sorted(sub.choices)

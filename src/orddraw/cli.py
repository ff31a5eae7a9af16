"""Command-line interface: draw diagrams, export CNF, test dimension."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .bipartization import encode_oct
from .engine import (STRATEGIES, DominanceReport, GridDrawing,
                     compute_coordinates, drawing_to_json, perturbed_labels,
                     weak_dominance_stats)
from .errors import (CycleError, ParseError, OrderViolation, TooLarge,
                     UnknownLabel, Unresolvable)
from .ingest import concept_lattice, parse_cxt, parse_order_text
from .orders import OrderRelation, incomparable_masks
from .orientation import compute_conjugate_order, realizer_from_conjugate
from .render import detect_collinear, emit_dot, emit_svg, emit_tikz, perturb
from .tig import build_tig

_INPUT_ERRORS = (ParseError, CycleError, UnknownLabel, TooLarge,
                 OSError, UnicodeDecodeError, ValueError)
_INVARIANT_ERRORS = (OrderViolation, Unresolvable, AssertionError)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_order(ns: argparse.Namespace) -> OrderRelation:
    fmt = ns.input_format
    if fmt == "auto":
        fmt = "cxt" if ns.input.lower().endswith(".cxt") else "order"
    text = _read_text(ns.input)
    if fmt == "cxt":
        return concept_lattice(parse_cxt(text))
    return parse_order_text(text)


def _write_bytes(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    else:
        Path(path).write_bytes(data)


# Each emitter takes the drawing and its weak_dominance_stats report, which
# only the JSON writer reads: the summary line reports the same count.
_EMITTERS = {
    ".svg": lambda d, report: emit_svg(d),
    ".tikz": lambda d, report: emit_tikz(d),
    ".tex": lambda d, report: emit_tikz(d),
    ".json": lambda d, report: drawing_to_json(d, report).encode("utf-8"),
    ".dot": lambda d, report: emit_dot(d),
}


def _emit_drawing(d: GridDrawing, path: str, report: DominanceReport) -> None:
    ext = Path(path).suffix.lower()
    if ext not in _EMITTERS:
        known = " ".join(sorted(_EMITTERS))
        raise ValueError(f"cannot infer output format from {path!r} (known: {known})")
    _write_bytes(path, _EMITTERS[ext](d, report))


def cmd_draw(ns: argparse.Namespace) -> int:
    started = time.perf_counter()
    order = _load_order(ns)
    drawing = compute_coordinates(order, strategy=ns.solver, seed=ns.seed)
    if ns.verbose:
        for i, removed in enumerate(drawing.trace.per_pass_removed, start=1):
            names = " ".join(sorted(
                f"{order.ground.label(a)},{order.ground.label(b)}" for a, b in removed))
            print(f"pass {i}: removed {len(removed)} tig vertices: {names}",
                  file=sys.stderr)
    conflicts = detect_collinear(drawing)
    if conflicts and not ns.no_perturb:
        drawing = perturb(drawing, conflicts)
        if ns.verbose:
            print(f"perturbation moved {len(perturbed_labels(drawing))} points "
                  f"to clear {len(conflicts)} conflicts", file=sys.stderr)
    report = weak_dominance_stats(drawing)
    if ns.output:
        _emit_drawing(drawing, ns.output, report)
    elapsed = time.perf_counter() - started
    inc = sum(mask.bit_count() for mask in incomparable_masks(order))
    # with the summary on stdout the line goes to stderr, so stdout is JSON
    print(f"n={order.n} inc={inc} "
          f"passes={drawing.trace.passes} inserted={len(drawing.trace.inserted)} "
          f"false_comparabilities={report.count} time={elapsed:.3f}s",
          file=sys.stderr if ns.summary_json == "-" else sys.stdout)
    if ns.summary_json:
        summary = {
            "n": order.n,
            "incomparable_pairs": inc,
            "passes": drawing.trace.passes,
            "inserted": len(drawing.trace.inserted),
            "inserted_pairs": [list(p) for p in drawing.trace.inserted_labels()],
            "false_comparabilities": report.count,
            "strategy": drawing.trace.strategy,
            "seed": ns.seed,
            "perturbed": list(perturbed_labels(drawing)),
        }
        payload = (json.dumps(summary, indent=2) + "\n").encode("utf-8")
        _write_bytes(ns.summary_json, payload)
    return 0


def cmd_cnf(ns: argparse.Namespace) -> int:
    if ns.k < 0:
        raise ValueError("k must be non-negative")
    order = _load_order(ns)
    tg = build_tig(order)
    cnf = encode_oct(tg.graph, ns.k)
    stats = (f"tig: n={tg.graph.n} m={tg.graph.m} k={ns.k} "
             f"vars={cnf.num_vars} clauses={len(cnf.clauses)}")
    dimacs = cnf.to_dimacs().encode("ascii")
    if ns.output:
        _write_bytes(ns.output, dimacs)
        print(stats)
    else:
        print(stats, file=sys.stderr)
        _write_bytes(None, dimacs)
    return 0


def cmd_dim(ns: argparse.Namespace) -> int:
    order = _load_order(ns)
    conj = compute_conjugate_order(order)
    if conj is None:
        print("dim<=2: no")
        return 0
    print("dim<=2: yes")
    if ns.realizer:
        l1, l2 = realizer_from_conjugate(order, conj)
        print("L1: " + " ".join(l1.sequence()))
        print("L2: " + " ".join(l2.sequence()))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orddraw",
        description="Draw order diagrams by extending the order to dimension two.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-i", "--input", required=True,
                       help="input file ('-' for stdin)")
        p.add_argument("--input-format", choices=("order", "cxt", "auto"),
                       default="auto",
                       help="input kind; auto picks cxt for .cxt files")
        p.add_argument("-v", "--verbose", action="store_true",
                       help="chatty progress on stderr")

    draw = sub.add_parser("draw", help="compute and export a diagram")
    common(draw)
    draw.add_argument("-o", "--output",
                      help="output file; format from extension "
                           "(.svg .tikz .tex .json .dot)")
    draw.add_argument("--solver", choices=tuple(STRATEGIES), default="sat",
                      help="bipartization strategy")
    draw.add_argument("--seed", type=int, default=0,
                      help="seed for randomized strategies")
    draw.add_argument("--no-perturb", action="store_true",
                      help="skip collinearity postprocessing")
    draw.add_argument("--summary-json",
                      help="write a machine-readable summary ('-' for stdout)")

    cnf = sub.add_parser("cnf", help="export the bipartization SAT instance")
    common(cnf)
    cnf.add_argument("-o", "--output", help="DIMACS file (default: stdout)")
    cnf.add_argument("-k", type=int, default=1,
                     help="removal budget encoded in the instance")

    dim = sub.add_parser("dim", help="test whether the order has dimension <= 2")
    common(dim)
    dim.add_argument("--realizer", action="store_true",
                     help="print the two linear extensions when the answer is yes")
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    commands = {"draw": cmd_draw, "cnf": cmd_cnf, "dim": cmd_dim}
    try:
        return commands[ns.command](ns)
    except _INVARIANT_ERRORS as exc:
        print(f"orddraw: internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"orddraw: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: draw diagrams, test dimension."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .engine import (STRATEGIES, compute_coordinates, drawing_to_json,
                     perturbed_labels)
from .errors import (CycleError, ParseError, OrderViolation, TooLarge,
                     UnknownLabel, Unresolvable)
from .ingest import read_order
from .orders import incomparable_masks
from .orientation import compute_conjugate_order, realizer_from_conjugate
from .render import detect_collinear, emit_dot, emit_svg, emit_tikz, perturb

_INPUT_ERRORS = (ParseError, CycleError, UnknownLabel, TooLarge,
                 OSError, UnicodeDecodeError, ValueError)
_INVARIANT_ERRORS = (OrderViolation, Unresolvable, AssertionError)


def _read_text(path: str) -> str:
    """The input text, its bytes decoded as UTF-8.

    Standard input is read as a file is, whatever encoding the locale or
    PYTHONIOENCODING gives `sys.stdin`; a text-only `sys.stdin` with no
    byte buffer (an `io.StringIO`, say) is read as it is.  Newlines stay
    as they come: every reader of `orddraw.ingest` ends a line at LF, CRLF
    or CR alone, and at no other character.  A closed standard input
    (`sys.stdin` is None) is an input error.
    """
    if path != "-":
        return Path(path).read_bytes().decode("utf-8")
    if sys.stdin is None:
        raise OSError("cannot read standard input: it is closed")
    binary = getattr(sys.stdin, "buffer", None)
    return sys.stdin.read() if binary is None else binary.read().decode("utf-8")


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        if sys.stdout is None:
            raise OSError("cannot write standard output: it is closed")
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    else:
        Path(path).write_bytes(data)


_EMITTERS = {
    ".svg": emit_svg,
    ".tikz": emit_tikz,
    ".tex": emit_tikz,
    ".json": lambda d: drawing_to_json(d).encode("utf-8"),
    ".dot": emit_dot,
}


def cmd_draw(ns: argparse.Namespace) -> int:
    started = time.perf_counter()
    if ns.output:  # a bad output name, or two outputs in one file, fail before any work
        emit = _EMITTERS.get(Path(ns.output).suffix.lower())
        if emit is None:
            known = " ".join(sorted(_EMITTERS))
            raise ValueError(f"cannot infer output format from {ns.output!r} "
                             f"(known: {known})")
        if ns.summary_json and Path(ns.summary_json).resolve() == Path(ns.output).resolve():
            raise ValueError(f"-o/--output {ns.output!r} and --summary-json "
                             f"{ns.summary_json!r} name the same file")
    order = read_order(_read_text(ns.input))
    drawing = compute_coordinates(order, strategy=ns.solver)
    if ns.verbose:
        for i, removed in enumerate(drawing.trace.per_pass_removed, start=1):
            names = " ".join(sorted(
                f"{order.ground.label(a)},{order.ground.label(b)}" for a, b in removed))
            print(f"pass {i}: removed {len(removed)} tig vertices: {names}",
                  file=sys.stderr)
    conflicts = [] if ns.no_perturb else detect_collinear(drawing)
    if conflicts:
        drawing = perturb(drawing, conflicts)
        if ns.verbose:
            print(f"perturbation moved {len(perturbed_labels(drawing))} points "
                  f"to clear {len(conflicts)} conflicts", file=sys.stderr)
    if ns.output:
        _write_bytes(ns.output, emit(drawing))
    elapsed = time.perf_counter() - started
    inc = sum(mask.bit_count() for mask in incomparable_masks(order))
    # with the summary on stdout the line goes to stderr, so stdout is JSON
    print(f"n={order.n} inc={inc} "
          f"passes={drawing.trace.passes} inserted={len(drawing.trace.inserted)} "
          f"false_comparabilities={drawing.trace.false_comparabilities} time={elapsed:.3f}s",
          file=sys.stderr if ns.summary_json == "-" else sys.stdout)
    if ns.summary_json:
        summary = {
            "n": order.n,
            "incomparable_pairs": inc,
            "passes": drawing.trace.passes,
            "inserted": len(drawing.trace.inserted),
            "inserted_pairs": [list(p) for p in drawing.trace.inserted_labels()],
            "false_comparabilities": drawing.trace.false_comparabilities,
            "strategy": drawing.trace.strategy,
            "perturbed": list(perturbed_labels(drawing)),
        }
        payload = (json.dumps(summary, indent=2) + "\n").encode("utf-8")
        _write_bytes(ns.summary_json, payload)
    return 0


def cmd_dim(ns: argparse.Namespace) -> int:
    order = read_order(_read_text(ns.input))
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
                       help="input file ('-' for stdin): order text, or a "
                            "Burmeister context when its first line is 'B'")

    draw = sub.add_parser("draw", help="compute and export a diagram")
    common(draw)
    draw.add_argument("-v", "--verbose", action="store_true",
                      help="chatty progress on stderr")
    draw.add_argument("-o", "--output",
                      help="output file; format from extension "
                           "(.svg .tikz .tex .json .dot)")
    draw.add_argument("--solver", choices=tuple(STRATEGIES), default="sat",
                      help="bipartization strategy")
    draw.add_argument("--no-perturb", action="store_true",
                      help="skip collinearity postprocessing")
    draw.add_argument("--summary-json",
                      help="write a machine-readable summary ('-' for stdout)")

    dim = sub.add_parser("dim", help="test whether the order has dimension <= 2")
    common(dim)
    dim.add_argument("--realizer", action="store_true",
                     help="print the two linear extensions when the answer is yes")
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    commands = {"draw": cmd_draw, "dim": cmd_dim}
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

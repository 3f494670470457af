"""Command-line surface: validate, candidates, solve, compare, gen, render.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 invariant breach
(approximation ratio above 2, incomplete coverage, or a failed solver
check), 4 budget exhausted.  Output cut short because the reader closed
standard output exits 2, like any other failed write.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .approx import approximate_2transmitters
from .candidates import Transmitter, edge_aligned_candidates, segment_inside
from .exact import NoSolutionWithinBudget, exact_min_transmitters
from .geometry import InvalidPolygonError, OrthoPolygon, build_grid, input_int, parse_polygon
from .instances import random_monotone
from .svg import render_svg
from .visibility import check_k, prune_dominated, vis_region

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BREACH = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented usage exit code is 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _InputError(Exception):
    """Bad file content or unreadable file: exit code 2."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _load_polygon(path: str) -> OrthoPolygon:
    try:
        return parse_polygon(_read_text(path))
    except InvalidPolygonError as exc:
        where = "" if exc.index is None else f" (vertex {exc.index})"
        raise _InputError(f"{path}: {exc.reason}{where}: {exc}") from exc


def _load_solution(path: str) -> tuple[int, list[Transmitter]]:
    try:
        doc = json.loads(_read_text(path))
        k = input_int(doc["k"])
        txs = [Transmitter.from_input(d) for d in doc["transmitters"]]
        check_k(k)
    except (KeyError, TypeError, ValueError, IndexError, RecursionError) as exc:
        # bad JSON is a ValueError; RecursionError is nesting too deep to decode
        raise _InputError(f"{path}: not a solution document: {exc}") from exc
    return k, txs


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        _write_text(path, text)


def _cmd_validate(args) -> int:
    p = _load_polygon(args.file)
    prof = p.profile
    summary = {
        "valid": True,
        "vertices": len(p.vertices),
        "m": p.m,
        "slabs": len(prof.spans),
        "xs": list(prof.xs),
        "spans": [list(s) for s in prof.spans],
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_candidates(args) -> int:
    p = _load_polygon(args.file)
    cands = prune_dominated(p) if args.pruned else edge_aligned_candidates(p.profile)
    print(json.dumps([t.as_input() for t in cands], indent=2))
    return EXIT_OK


def _cmd_solve(args) -> int:
    p = _load_polygon(args.file)
    if args.alg == "approx":
        sol = approximate_2transmitters(p)
    else:
        sol = exact_min_transmitters(p, args.k, budget=args.budget)
    _write_or_print(json.dumps(sol.to_json_dict(), indent=2), args.json)
    if args.svg:
        _write_text(args.svg, render_svg(p, sol.transmitters))
    return EXIT_OK if sol.coverage_complete else EXIT_BREACH


def _cmd_compare(args) -> int:
    p = _load_polygon(args.file)
    a = approximate_2transmitters(p)
    e = exact_min_transmitters(p, 2, budget=args.budget)
    ratio = a.count / e.count
    print(f"approx {a.count}, exact {e.count}, ratio {ratio}")
    breach = ratio > 2 or not a.coverage_complete or not e.coverage_complete
    return EXIT_BREACH if breach else EXIT_OK


def _cmd_gen(args) -> int:
    try:
        p = random_monotone(args.slabs, args.max_h, args.max_w, args.seed)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    doc = {"vertices": [list(v) for v in p.vertices]}
    _write_or_print(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def _cmd_render(args) -> int:
    p = _load_polygon(args.file)
    transmitters: list[Transmitter] = []
    shaded = None
    if args.solution is not None:
        k, transmitters = _load_solution(args.solution)
        if args.vis is not None:
            if not transmitters:
                raise _InputError(f"--vis {args.vis}: the solution has no transmitters to shade")
            if not 0 <= args.vis < len(transmitters):
                raise _InputError(
                    f"--vis index {args.vis} out of range 0..{len(transmitters) - 1}"
                )
            t = transmitters[args.vis]
            if not segment_inside(p.profile, t):
                raise _InputError(f"--vis transmitter {args.vis} is not inside the closed polygon")
            cuts = ([t.anchor], t.span) if t.orientation == "v" else (t.span, [t.anchor])
            grid = build_grid(p.profile, *cuts)
            shaded = grid, vis_region(t, k, grid)
    _write_text(args.svg, render_svg(p, transmitters, shaded))
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="polytx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("validate", help="check a polygon file and print its slab summary")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("candidates", help="print the candidate transmitter family as JSON")
    sp.add_argument("file")
    sp.add_argument("--pruned", action="store_true", help="drop dominated candidates")
    sp.set_defaults(func=_cmd_candidates)

    sp = sub.add_parser("solve", help="cover the polygon and emit Solution JSON")
    sp.add_argument("file")
    sp.add_argument("--alg", required=True, choices=("approx", "exact"))
    sp.add_argument("--k", required=True, type=int, choices=(0, 1, 2))
    sp.add_argument("--budget", type=_positive_int, default=8)
    sp.add_argument("--json", metavar="OUT", help="write Solution JSON here instead of stdout")
    sp.add_argument("--svg", metavar="OUT", help="also render the solution to this SVG file")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("compare", help="run approx and exact (k=2) and report the ratio")
    sp.add_argument("file")
    sp.add_argument("--budget", type=_positive_int, default=8)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("gen", help="emit a random polygon JSON")
    sp.add_argument("--slabs", required=True, type=_positive_int)
    sp.add_argument("--max-h", required=True, type=_positive_int, dest="max_h")
    sp.add_argument("--max-w", required=True, type=_positive_int, dest="max_w")
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("render", help="render polygon and optional solution to SVG")
    sp.add_argument("file")
    sp.add_argument("--solution", metavar="SOL_JSON")
    sp.add_argument("--vis", type=int, metavar="INDEX",
                    help="shade the visibility region of this transmitter (needs --solution)")
    sp.add_argument("--svg", required=True, metavar="OUT")
    sp.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.alg == "approx" and args.k != 2:
        parser.error("--alg approx requires --k 2")
    if args.command == "render" and args.vis is not None and args.solution is None:
        parser.error("--vis requires --solution")
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoSolutionWithinBudget as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RuntimeError as exc:
        print(f"error: invariant breach: {exc}", file=sys.stderr)
        return EXIT_BREACH
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null device,
        # so the interpreter's flush at exit does not raise again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

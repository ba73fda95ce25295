"""Command-line driver: file ingestion, searches, and report emission.

Reports use a stable line grammar — `CHECK <name> PASS|FAIL|WARN <detail>`
lines followed by a `VERDICT` line — so runs can be diffed.  Exit codes:
0 pass, 1 fail, 2 pass with warnings, 64 usage or malformed input, 70
internal error, 141 when the reader of stdout closes it early.  Every
search is one sequential first-hit pass, so output bytes depend on the
arguments alone.
Options are checked by argparse alone, so a bad value exits 64 before any
search.  An `--out` path that cannot be written is refused before the search,
and the file is written before the result is printed.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .cycles import find_5cycle, find_symmetric_5cycle, gen_vectors, scan_d
from .geom import circle_param, embed_isosceles, equidistant_circle, rational_point_on_circle
from .hunts import (
    Certificate,
    Check,
    Report,
    farey_parameters,
    format_certificate,
    greedy_hunt,
    grotzsch_subgraph_hunt,
    grotzsch_type_hunt,
    parse_certificate,
    verify_certificate,
)
from .numtheory import TernaryForm, UnsolvableFormError, legendre_solution
from .qcore import (
    QPoint3,
    Rational,
    content_lines,
    format_point,
    format_rational,
    parse_point_line,
    parse_rational,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left


# --- file ingestion ---------------------------------------------------------------


@dataclass(frozen=True)
class VertexFile:
    """A parsed point-list file: `t=<rational>` header, one point per line,
    `#` comments.  Points keep their first occurrence; `duplicates` counts
    the rows dropped as repeats."""

    t: Rational
    points: tuple[QPoint3, ...]
    duplicates: int


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_text(path, text: str) -> None:
    """Write an `--out` file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_out(path) -> None:
    """Refuse an `--out` path before any search, with the reason its write
    would fail: it is a directory, or its parent is no writable directory."""
    parent = Path(path).parent
    if Path(path).is_dir():
        code = errno.EISDIR
    elif not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write {path}: {os.strerror(code)}")


def parse_vertex_text(text: str) -> VertexFile:
    t = None
    rows: list[QPoint3] = []
    for lineno, line in content_lines(text):
        if t is None:
            if not line.startswith("t="):
                raise ValueError(f"line {lineno}: expected header t=<rational>, got {line!r}")
            try:
                t = parse_rational(line[2:])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if t <= 0:
                raise ValueError(f"line {lineno}: squared distance must be positive, got {t}")
            continue
        rows.append(parse_point_line(line, lineno))
    if t is None:
        raise ValueError("missing header line t=<rational>")
    if not rows:
        raise ValueError("no points after the header")
    points = tuple(dict.fromkeys(rows))
    return VertexFile(t, points, len(rows) - len(points))


def parse_vertex_file(path) -> VertexFile:
    return parse_vertex_text(_read_text(path))


def write_vertex_file(path, t: Rational, points) -> None:
    lines = [f"t={format_rational(Fraction(t))}"]
    lines.extend(format_point(p) for p in points)
    _write_text(path, "\n".join(lines) + "\n")


# --- subcommands ------------------------------------------------------------------


def _cmd_verify(args) -> int:
    text = _read_text(args.file)
    first = next(content_lines(text), (0, ""))[1]
    if first.startswith("certificate "):
        report = verify_certificate(parse_certificate(text))
    else:
        vf = parse_vertex_text(text)
        report = verify_certificate(Certificate("direct-chromatic", vf.t, vf.points, None, {}))
        if vf.duplicates:
            dropped = Check("file-duplicates", "WARN", f"{vf.duplicates} duplicate rows dropped")
            report = Report((dropped, *report.checks))
    sys.stdout.write(report.render())
    return report.exit_code


def _int_t(t: Rational, context: str) -> int:
    t = Fraction(t)
    if t.denominator != 1:
        raise ValueError(f"{context} requires an integer squared distance, got {t}")
    return int(t)


def _emit_certificate(head: str, cert: Certificate, report: Report, out) -> int:
    """Write `cert` to `out`, then print `head` and `report`, the one
    verification of `cert`.  A failed report is an internal error and writes
    nothing."""
    if report.failed:
        raise RuntimeError("a hunt emitted a certificate that fails verification")
    if out:
        _write_text(out, format_certificate(cert))
    sys.stdout.write(head + report.render())
    return report.exit_code


def _cmd_hunt_greedy(args) -> int:
    vf = parse_vertex_file(args.seed)
    t = _int_t(vf.t, "hunt-greedy")
    result = greedy_hunt(t, list(vf.points), args.denominator, args.box, args.cap)
    g = result.graph
    if not result.succeeded:
        sys.stdout.write(f"HUNT FAIL order={g.order} cap={args.cap} colors={len(set(result.coloring))}\n")
        return EXIT_FAIL
    head = f"HUNT PASS order={g.order} edges={len(g.edges)} iterations={g.order - len(vf.points)}\n"
    return _emit_certificate(head, result.certificate, result.report, args.out)


def _cmd_hunt_grotzsch_type(args) -> int:
    vf = parse_vertex_file(args.cycle)
    t = _int_t(vf.t, "hunt-grotzsch-type")
    if len(vf.points) != 5:
        raise ValueError(f"cycle file must contain exactly 5 points, got {len(vf.points)}")
    out = grotzsch_type_hunt(t, list(vf.points), farey_parameters(args.height))
    if out is None:
        sys.stdout.write(f"HUNT FAIL height={args.height}\n")
        return EXIT_FAIL
    _, cert, report = out
    return _emit_certificate("HUNT PASS order=25\n", cert, report, args.out)


def _cmd_hunt_grotzsch_subgraph(args) -> int:
    t = _int_t(parse_rational(args.t), "hunt-grotzsch-subgraph")
    sym = find_symmetric_5cycle(t, d=args.d, d_bound=args.d_bound)
    if sym is None:
        sys.stdout.write("HUNT FAIL no symmetric 5-cycle within bounds\n")
        return EXIT_FAIL
    sys.stdout.write(f"cycle d={format_rational(Fraction(sym.base_dist_sq))}\n")
    found = grotzsch_subgraph_hunt(sym, farey_parameters(args.height))
    if found is None:
        sys.stdout.write(f"HUNT FAIL height={args.height}\n")
        return EXIT_FAIL
    return _emit_certificate("HUNT PASS order=10\n", *found, args.out)


def _cmd_find_cycle(args) -> int:
    t = _int_t(parse_rational(args.t), "find-cycle")
    pool = gen_vectors(t, args.denominators, args.height)
    cycle = find_5cycle(t, pool)
    if cycle is None:
        sys.stdout.write("no 5-cycle found within bounds\n")
        return EXIT_FAIL
    if args.out:
        write_vertex_file(args.out, t, cycle)
    for p in cycle:
        sys.stdout.write(format_point(p) + "\n")
    return EXIT_PASS


def _cmd_find_symmetric_cycle(args) -> int:
    t = _int_t(parse_rational(args.t), "find-symmetric-cycle")
    sym = find_symmetric_5cycle(t, d=args.d, d_bound=args.d_bound)
    if sym is None:
        sys.stdout.write("no symmetric 5-cycle found within bounds\n")
        return EXIT_FAIL
    if args.out:
        write_vertex_file(args.out, t, sym.points())
    sys.stdout.write(f"d={format_rational(Fraction(sym.base_dist_sq))}\n")
    for p in sym.points():
        sys.stdout.write(format_point(p) + "\n")
    return EXIT_PASS


def _cmd_scan_d(args) -> int:
    t = _int_t(parse_rational(args.t), "scan-d")
    d = scan_d(t, args.bound)
    if d is None:
        where = f"in {t}/4 < d < {4 * t}" if args.bound is None else f"up to {args.bound}"
        sys.stdout.write(f"no admissible d {where}\n")
        return EXIT_FAIL
    sys.stdout.write(f"d={format_rational(Fraction(d))}\n")
    for base, legs in ((Fraction(t), Fraction(d)), (Fraction(d), Fraction(t))):
        b1, b2, apex = embed_isosceles(base, legs)
        sys.stdout.write(
            f"triangle base_sq={format_rational(base)} legs_sq={format_rational(legs)}: "
            f"({format_point(b1)}) ({format_point(b2)}) ({format_point(apex)})\n"
        )
    return EXIT_PASS


def _cmd_solve_legendre(args) -> int:
    try:
        x, y, z = legendre_solution(TernaryForm(args.a, args.b, args.c))
    except UnsolvableFormError as exc:
        sys.stdout.write(f"unsolvable: {exc}\n")
        return EXIT_FAIL
    sys.stdout.write(f"solution: {x} {y} {z}\n")
    return EXIT_PASS


def _cmd_param_circle(args) -> int:
    vf = parse_vertex_file(args.foci)
    if len(vf.points) != 2:
        raise ValueError(f"foci file must contain exactly 2 points, got {len(vf.points)}")
    circle = equidistant_circle(vf.points[0], vf.points[1], vf.t)
    try:
        chart = circle_param(circle, rational_point_on_circle(circle))
    except UnsolvableFormError as exc:
        sys.stdout.write(f"no rational points: {exc}\n")
        return EXIT_FAIL
    values = args.params or list(farey_parameters(args.height))[: args.count]
    for s in values:
        p = chart.point_at(s)
        sys.stdout.write(f"s={format_rational(s)} {format_point(p)}\n")
    return EXIT_PASS


# --- dispatch ---------------------------------------------------------------------


def _integer(text: str) -> int:
    """argparse type of a form coefficient: ASCII digits after an optional minus."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """argparse type of the counts and bounds: ASCII digits, at least 1."""
    value = int(text) if text.isascii() and text.strip().isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _positive_list(text: str) -> list[int]:
    """argparse type of a denominator set: comma-separated positive integers."""
    return [_positive(part) for part in text.split(",")]


def _rational(text: str) -> Fraction:
    """argparse type of a chart parameter: an ASCII rational."""
    try:
        return parse_rational(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a rational, got {text!r}") from None


def _positive_rational(text: str) -> Fraction:
    """argparse type of a forced squared distance or a box half-width: a
    rational greater than 0."""
    try:
        value = _rational(text)
    except argparse.ArgumentTypeError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive rational, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="scavenger",
        description="Exact search and verification of 4-chromatic rational distance subgraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("verify", help="check a vertex or certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hunt-greedy", help="grow a non-3-colorable set from a seed 5-cycle")
    p.add_argument("seed", help="vertex file with the seed 5-cycle")
    p.add_argument("--box", type=_positive_rational, default="10", help="box half-width (default %(default)s)")
    p.add_argument("--cap", type=_positive, default=1000)
    p.add_argument("--denominator", type=_positive, default=3)
    p.add_argument("--out", help="write the certificate here")
    p.set_defaults(func=_cmd_hunt_greedy)

    p = sub.add_parser("hunt-grotzsch-type", help="decorate a 5-cycle into the order-25 shape")
    p.add_argument("cycle", help="vertex file with the base 5-cycle")
    p.add_argument("--height", type=_positive, default=12, help="height bound (default %(default)s)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hunt_grotzsch_type)

    p = sub.add_parser(
        "hunt-grotzsch-subgraph", help="build the forced-pair device over a symmetric 5-cycle"
    )
    p.add_argument("t")
    p.add_argument("--d", type=_positive_rational, default=None, help="force this base squared distance")
    p.add_argument("--d-bound", dest="d_bound", type=_positive, default=None)
    p.add_argument("--height", type=_positive, default=12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hunt_grotzsch_subgraph)

    p = sub.add_parser("find-cycle", help="find a 5-cycle at a given squared distance")
    p.add_argument("t")
    p.add_argument("--height", type=_positive, default=60)
    p.add_argument("--denominators", type=_positive_list, default="1,3")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_find_cycle)

    p = sub.add_parser("find-symmetric-cycle", help="find a mirror-symmetric 5-cycle")
    p.add_argument("t")
    p.add_argument("--d", type=_positive_rational, default=None)
    p.add_argument("--d-bound", dest="d_bound", type=_positive, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_find_symmetric_cycle)

    p = sub.add_parser("scan-d", help="minimal d admitting both equidistant-pair triangles")
    p.add_argument("t")
    p.add_argument("--bound", type=_positive, default=None, help="search limit (default: all of t/4 < d < 4t)")
    p.set_defaults(func=_cmd_scan_d)

    p = sub.add_parser("solve-legendre", help="solve a x^2 + b y^2 + c z^2 = 0")
    p.add_argument("a", type=_integer)
    p.add_argument("b", type=_integer)
    p.add_argument("c", type=_integer)
    p.set_defaults(func=_cmd_solve_legendre)

    p = sub.add_parser("param-circle", help="exact rational points on an equidistant circle")
    p.add_argument("foci", help="vertex file with the two foci; header t is the focal squared distance")
    p.add_argument("--params", nargs="+", type=_rational, help="explicit parameter values")
    p.add_argument("--count", type=_positive, default=10, help="number of default parameters")
    p.add_argument("--height", type=_positive, default=12)
    p.set_defaults(func=_cmd_param_circle)

    return parser


# built once per process: parse_args fills a fresh namespace on every call
_PARSER = _build_parser()


def dispatch(argv) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (AssertionError, RuntimeError) as exc:
        sys.stderr.write(f"internal error: {str(exc) or type(exc).__name__}\n")
        return EXIT_INTERNAL


def main() -> int:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone (as after `| head -1`): stop quietly, with
        # stdout on the null device so the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())

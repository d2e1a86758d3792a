"""Command line front end.

Subcommands:
  partitions    list all partitions of a weight
  local         local invariants of one partition
  graph         export the whole transfer graph of a weight
  neighborhood  a partition's neighborhood next to the predicted line graph
  cliques       maximal cliques through a partition, classified
  verify        run the exhaustive verifier, JSON report, exit 0 on PASS

Each `cmd_*` handler maps the parsed arguments to `(text, exit_status)` and
does no I/O; `main` alone writes that text, to standard output or to the
`--output` file.

Every JSON output, the `--format json` forms and the verify report, is the
exact text the standard library's `json` module gives for
`dumps(payload, indent=2)`: two spaces per level, ASCII only, other
characters as `\\u` escapes, then a newline.  `_json` writes it.  With an
indent the standard library runs its pure-Python encoder, one generator
step per token.  `_write` instead writes each scalar in place through the C
string encoder or its type's repr, and recurses into each container; rows
of ints of one width (the edges of a graph) are filled into one shared
`str.format` template.  The C string encoder comes from the standard
library's `_json` extension module, so importing the CLI does not load the
`json` package.

`_write` takes only what the payloads hold, matched by exact type: dicts
with str keys, lists, str, int, bool, None and float.  The only floats are
the verify report's timings, which are always finite, so a float is written
as its repr.  Any other type, tuples and subclasses included, raises
TypeError.

`main` parses with one parser per process.  It is built by the first `main`
call, not at import, and only read afterwards: `parse_args` keeps no state
between calls, so in-process callers (tests, benchmarks, library users, any
number of threads) pay for the argparse setup once, and a shell call builds
exactly one parser.  `build_parser` returns a fresh parser for callers that
want to change one.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain, starmap
from typing import Sequence

try:
    # The C string encoder, without loading the `json` package around it.
    from _json import encode_basestring_ascii
except ImportError:  # `_json` is private to CPython
    from json.encoder import encode_basestring_ascii

from .graphs import (
    _upper_pairs,
    build_partition_graph,
    classify_clique,
    cliques_through,
    induced_neighborhood,
    verify_line_graph_theorem,
)
from .local_model import (
    admissibility_graph,
    degree_formula,
    local_clique_number,
    local_dimension,
    local_type,
    side_degrees,
)
from .oracle import run_all
from .partitions import Partition, enumerate_partitions, parse_digits, parse_partition
from .transfers import neighbors


def _partition_argument(text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = parse_digits(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


# The JSON text of a scalar, by its exact type.
_SCALAR = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: float.__repr__,
}


def _write(value: object, indent: str) -> str:
    """`value` as `json`'s `dumps(value, indent=2)` writes it, when its first
    line starts at `indent` (a newline and two spaces per level).

    The grammar is that of the CLI's payloads, by exact type: dicts with str
    keys, lists, str, int, bool, None and float.  Floats are timings and
    always finite, so a float is its repr.  Any other type, such as a tuple
    or a subclass of one of these, raises TypeError, as does a dict key
    that is not a str.
    """
    kind = type(value)
    if encode := _SCALAR.get(kind):
        return encode(value)
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    if kind is dict:
        fields = [f"{encode_basestring_ascii(key)}: "
                  f"{encode(item) if (encode := _SCALAR.get(type(item))) else _write(item, inner)}"
                  for key, item in value.items()]
        return "{" + inner + ("," + inner).join(fields) + indent + "}"
    if (type(value[0]) is list and {*map(type, value)} == {list}
            and {*map(len, value)} == {len(value[0])}
            and {*map(type, chain.from_iterable(value))} == {int}):
        # Rows of ints of one width, such as the edges of a graph: one template.
        cell = inner + "  "
        row = "[" + cell + ("," + cell).join(["{}"] * len(value[0])) + inner + "]"
        items = starmap(row.format, value)
    else:
        items = [encode(item) if (encode := _SCALAR.get(type(item))) else _write(item, inner)
                 for item in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _json(payload: object) -> str:
    """The exact text of `json`'s `dumps(payload, indent=2)`, plus a newline."""
    return _write(payload, "\n") + "\n"


def cmd_partitions(args: argparse.Namespace) -> tuple[str, int]:
    found = enumerate_partitions(args.n)
    if args.format == "json":
        return _json([p.to_json() for p in found]), 0
    return "".join(f"{p}\n" for p in found), 0


def cmd_local(args: argparse.Namespace) -> tuple[str, int]:
    p = args.partition
    T = local_type(p)
    moves = admissibility_graph(T)
    left, right = side_degrees(T)
    if args.format == "json":
        return _json({
            "partition": p.to_json(),
            "weight": p.weight,
            "type": T.to_json(),
            "admissibility_graph": {"t": T.t, "edges": [list(move) for move in moves]},
            "degree": degree_formula(T),
            "removable_side_degrees": list(left),
            "addable_side_degrees": list(right),
            "local_clique_number": local_clique_number(T),
            "local_dimension": local_dimension(T),
        }), 0
    blocks = " ".join(f"{size}^{mult}" for size, mult in p.blocks)
    return "\n".join([
        f"partition: {p}  (weight {p.weight})",
        f"blocks: {blocks}",
        f"support size: {T.t}",
        f"singleton bits (alpha): {' '.join(map(str, T.alpha))}",
        f"unit-gap bits (beta): {' '.join(map(str, T.beta))}",
        f"admissible moves ({len(moves)}): {' '.join(map(str, moves))}",
        f"degree: {degree_formula(T)}",
        f"removable-side degrees: {' '.join(map(str, left))}",
        f"addable-side degrees: {' '.join(map(str, right))}",
        f"local clique number: {local_clique_number(T)}",
        f"local simplex dimension: {local_dimension(T)}",
    ]) + "\n", 0


def cmd_graph(args: argparse.Namespace) -> tuple[str, int]:
    graph = build_partition_graph(args.n)
    if args.format == "json":
        return _json(graph.to_json()), 0
    if args.format == "dot":
        return graph.to_dot(), 0
    labels = graph.labels
    lines = [f"partitions of {args.n}: {graph.vertex_count} vertices, {graph.edge_count} edges\n"]
    # The pairs stream off the bitsets, as in `to_json`, never into a list.
    # Each line ends in its newline, so one join makes the text and no second
    # copy of it is made to end it.
    for a, b in _upper_pairs(graph.adjacency):
        lines.append(f"  {labels[a]}  --  {labels[b]}\n")
    return "".join(lines), 0


def cmd_neighborhood(args: argparse.Namespace) -> tuple[str, int]:
    # Exit status 1 on any violation, as `verify` exits 1 on any failure.
    p = args.partition
    check = verify_line_graph_theorem(p)
    observed, predicted = check.neighborhood, check.corners
    status = 0 if check.verified else 1
    if args.format == "json":
        # Without violations the line graph is the observed graph itself.
        graph = observed.to_json()
        return _json({
            "partition": p.to_json(),
            "weight": p.weight,
            "neighborhood": graph,
            "line_graph": graph if predicted is observed else predicted.to_json(),
            "bijection": [
                {"move": move.to_json(), "neighbor": target.to_json()}
                for move, target in zip(check.moves, check.targets)
            ],
            "pairs_checked": check.pairs_checked,
            "adjacent_pairs": check.adjacent_pairs,
            "violations": [
                {
                    "first": v.first.to_json(),
                    "second": v.second.to_json(),
                    "adjacent_in_graph": v.adjacent_in_graph,
                    "share_corner": v.share_corner,
                }
                for v in check.violations
            ],
            "verified": check.verified,
        }), status
    lines = [f"partition: {p}  (weight {p.weight})", f"neighbors: {len(check.targets)}"]
    for move, target in zip(check.moves, check.targets):
        lines.append(f"  {move}  =>  {target}")
    lines.append(f"neighborhood: {observed.vertex_count} vertices, {observed.edge_count} edges")
    lines.append(f"predicted line graph: {predicted.vertex_count} vertices, {predicted.edge_count} edges")
    lines.append(
        f"pairs checked: {check.pairs_checked}, adjacent: {check.adjacent_pairs}, "
        f"violations: {len(check.violations)}"
    )
    for v in check.violations:
        lines.append(f"  VIOLATION {v}")
    lines.append(f"verified: {'yes' if check.verified else 'NO'}")
    return "\n".join(lines) + "\n", status


def cmd_cliques(args: argparse.Namespace) -> tuple[str, int]:
    p = args.partition
    found = cliques_through(induced_neighborhood(neighbors(p)))
    classified = [(clique, classify_clique(clique)) for clique in found]
    if args.format == "json":
        return _json({
            "partition": p.to_json(),
            "clique_count": len(found),
            "local_clique_number": local_clique_number(local_type(p)),
            "cliques": [
                {
                    "members": [move.to_json() for move in clique],
                    "size": len(clique),
                    "kind": cls.kind,
                    "removable": cls.removable,
                    "addable": cls.addable,
                }
                for clique, cls in classified
            ],
        }), 0
    lines = [f"partition: {p}", f"maximal cliques through it: {len(found)}"]
    for clique, cls in classified:
        members = " ".join(str(move) for move in clique)
        corner = cls.removable if cls.kind in ("star", "both") else cls.addable
        lines.append(f"  size {len(clique)}  {cls.kind}({corner}): {members}")
    lines.append(f"local clique number: {local_clique_number(local_type(p))}")
    return "\n".join(lines) + "\n", 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    report = run_all(args.nmax, degrees_only=args.degrees_only)
    return _json(report.to_json()), 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partgraph",
        description="Local structure of the single-cell transfer graph on integer partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = {"metavar": "PATH", "default": None,
              "help": "write to this file instead of standard output"}

    def add_command(name, summary, handler, dest, kind, formats=("text", "json"), **options):
        command = sub.add_parser(name, help=summary)
        command.add_argument(dest, type=kind, **options)
        command.add_argument("--format", choices=formats, default="text")
        command.add_argument("--output", **output)
        command.set_defaults(handler=handler)

    add_command("partitions", "list all partitions of a weight", cmd_partitions,
                "n", _positive_int)
    add_command("local", "local invariants of one partition", cmd_local,
                "partition", _partition_argument, help="comma-separated parts, e.g. 4,4,2,2")
    add_command("graph", "export the whole transfer graph of a weight", cmd_graph,
                "n", _positive_int, formats=("text", "json", "dot"))
    add_command("neighborhood", "neighborhood of a partition next to its predicted line graph",
                cmd_neighborhood, "partition", _partition_argument)
    add_command("cliques", "maximal cliques through a partition, classified", cmd_cliques,
                "partition", _partition_argument)

    p_verify = sub.add_parser("verify", help="exhaustive verification sweep, JSON report")
    p_verify.add_argument("--nmax", type=_positive_int, default=12,
                          help="largest weight to sweep (default 12)")
    p_verify.add_argument("--degrees-only", action="store_true",
                          help="only compare neighbor counts against the degree formula")
    p_verify.add_argument("--output", **output)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit status.

    The handler computes the whole output first.  Handlers do no I/O, so the
    only `OSError` this can meet is from writing that output, to standard
    output or to the `--output` file; it is reported as `error: ...` on
    standard error with exit status 1.
    """
    args = _parser().parse_args(argv)
    text, status = args.handler(args)
    try:
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status

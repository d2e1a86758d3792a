"""Command line front end.

Subcommands:
  partitions    list all partitions of a weight
  local         local invariants of one partition
  graph         export the whole transfer graph of a weight
  neighborhood  a partition's neighborhood next to the predicted line graph
  cliques       maximal cliques through a partition, classified
  verify        run the exhaustive verifier, JSON report, exit 0 on PASS

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
import json
import sys
from typing import Sequence

from .graphs import (
    build_partition_graph,
    classify_clique,
    cliques_through,
    line_graph,
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


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(payload: object, output: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", output)


def cmd_partitions(args: argparse.Namespace) -> int:
    found = enumerate_partitions(args.n)
    if args.format == "json":
        _emit_json([list(p.parts) for p in found], args.output)
    else:
        _emit("".join(f"{p}\n" for p in found), args.output)
    return 0


def cmd_local(args: argparse.Namespace) -> int:
    p = args.partition
    T = local_type(p)
    B = admissibility_graph(T)
    left, right = side_degrees(T)
    if args.format == "json":
        _emit_json({
            "partition": list(p.parts),
            "weight": p.weight,
            "type": T.to_json(),
            "admissibility_graph": B.to_json(),
            "degree": degree_formula(T),
            "removable_side_degrees": list(left),
            "addable_side_degrees": list(right),
            "local_clique_number": local_clique_number(T),
            "local_dimension": local_dimension(T),
        }, args.output)
        return 0
    blocks = " ".join(f"{size}^{mult}" for size, mult in p.blocks)
    moves = " ".join(f"{i}->{j}" for i, j in B.sorted_edges())
    text = "\n".join([
        f"partition: {p}  (weight {p.weight})",
        f"blocks: {blocks}",
        f"support size: {T.t}",
        f"singleton bits (alpha): {' '.join(map(str, T.alpha))}",
        f"unit-gap bits (beta): {' '.join(map(str, T.beta))}",
        f"admissible moves ({B.edge_count}): {moves}",
        f"degree: {degree_formula(T)}",
        f"removable-side degrees: {' '.join(map(str, left))}",
        f"addable-side degrees: {' '.join(map(str, right))}",
        f"local clique number: {local_clique_number(T)}",
        f"local simplex dimension: {local_dimension(T)}",
    ]) + "\n"
    _emit(text, args.output)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    graph = build_partition_graph(args.n)
    if args.format == "json":
        _emit_json(graph.to_json(), args.output)
    elif args.format == "dot":
        _emit(graph.to_dot(), args.output)
    else:
        lines = [f"partitions of {args.n}: {graph.vertex_count} vertices, {graph.edge_count} edges"]
        for a, b in graph.sorted_edges():
            lines.append(f"  {graph.labels[a]}  --  {graph.labels[b]}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_neighborhood(args: argparse.Namespace) -> int:
    p = args.partition
    n = p.weight
    check = verify_line_graph_theorem(n, p)
    observed = check.neighborhood
    predicted = line_graph(admissibility_graph(local_type(p)))
    if args.format == "json":
        _emit_json({
            "partition": list(p.parts),
            "weight": n,
            "neighborhood": observed.to_json(),
            "line_graph": predicted.to_json(),
            "bijection": [
                {"move": move.to_json(), "neighbor": list(target.parts)}
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
        }, args.output)
        return 0
    lines = [f"partition: {p}  (weight {n})", f"neighbors: {len(check.targets)}"]
    for move, target in zip(check.moves, check.targets):
        lines.append(f"  {move}  =>  {target}")
    lines.append(f"neighborhood: {observed.vertex_count} vertices, {observed.edge_count} edges")
    lines.append(f"predicted line graph: {predicted.vertex_count} vertices, {predicted.edge_count} edges")
    lines.append(
        f"pairs checked: {check.pairs_checked}, adjacent: {check.adjacent_pairs}, "
        f"violations: {len(check.violations)}"
    )
    for v in check.violations:
        lines.append(
            f"  VIOLATION {v.first}/{v.second}: adjacent_in_graph={v.adjacent_in_graph}, "
            f"share_corner={v.share_corner}"
        )
    lines.append(f"verified: {'yes' if check.verified else 'NO'}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_cliques(args: argparse.Namespace) -> int:
    p = args.partition
    found = cliques_through(p.weight, p)
    classified = [(clique, classify_clique(clique)) for clique in found]
    if args.format == "json":
        _emit_json({
            "partition": list(p.parts),
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
        }, args.output)
        return 0
    lines = [f"partition: {p}", f"maximal cliques through it: {len(found)}"]
    for clique, cls in classified:
        members = " ".join(str(move) for move in clique)
        corner = cls.removable if cls.kind in ("star", "both") else cls.addable
        lines.append(f"  size {len(clique)}  {cls.kind}({corner}): {members}")
    lines.append(f"local clique number: {local_clique_number(local_type(p))}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_all(args.nmax, degrees_only=args.degrees_only)
    _emit_json(report.to_json(), args.output)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partgraph",
        description="Local structure of the single-cell transfer graph on integer partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write to this file instead of standard output")

    p_partitions = sub.add_parser("partitions", help="list all partitions of a weight")
    p_partitions.add_argument("n", type=_positive_int)
    p_partitions.add_argument("--format", choices=["text", "json"], default="text")
    add_output(p_partitions)
    p_partitions.set_defaults(handler=cmd_partitions)

    p_local = sub.add_parser("local", help="local invariants of one partition")
    p_local.add_argument("partition", type=_partition_argument,
                         help="comma-separated parts, e.g. 4,4,2,2")
    p_local.add_argument("--format", choices=["text", "json"], default="text")
    add_output(p_local)
    p_local.set_defaults(handler=cmd_local)

    p_graph = sub.add_parser("graph", help="export the whole transfer graph of a weight")
    p_graph.add_argument("n", type=_positive_int)
    p_graph.add_argument("--format", choices=["text", "json", "dot"], default="text")
    add_output(p_graph)
    p_graph.set_defaults(handler=cmd_graph)

    p_nbhd = sub.add_parser("neighborhood",
                            help="neighborhood of a partition next to its predicted line graph")
    p_nbhd.add_argument("partition", type=_partition_argument)
    p_nbhd.add_argument("--format", choices=["text", "json"], default="text")
    add_output(p_nbhd)
    p_nbhd.set_defaults(handler=cmd_neighborhood)

    p_cliques = sub.add_parser("cliques", help="maximal cliques through a partition, classified")
    p_cliques.add_argument("partition", type=_partition_argument)
    p_cliques.add_argument("--format", choices=["text", "json"], default="text")
    add_output(p_cliques)
    p_cliques.set_defaults(handler=cmd_cliques)

    p_verify = sub.add_parser("verify", help="exhaustive verification sweep, JSON report")
    p_verify.add_argument("--nmax", type=_positive_int, default=12,
                          help="largest weight to sweep (default 12)")
    p_verify.add_argument("--degrees-only", action="store_true",
                          help="only compare neighbor counts against the degree formula")
    add_output(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

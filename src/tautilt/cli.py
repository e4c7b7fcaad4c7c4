"""Command-line interface.

    tautilt <file> info|enumerate|verify|fan|graph [options]

Exit codes: 0 success, 1 input error, 2 enumeration truncated (or a fan
wall over the brute-force oracle's budget, or a module the decomposition
cannot split), 3 a theorem violation (a failed `verify` check, or an
identity the engine asserts while it computes).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraError, parse_algebra
from .modules import DecompositionError, direct_sum, ext1_dim, injective, projective
from .stability import (
    BRUTE_FORCE_BUDGET,
    BudgetExceeded,
    b_plus,
    fac_contains,
    self_extension_witness,
    slate_for_node,
    verify_pair,
)
from .tautilting import (
    DEFAULT_MAX_DIM,
    DEFAULT_MAX_NODES,
    EnumerationError,
    TheoremViolationError,
    c_matrix,
    enumerate_exchange_graph,
    g_matrix,
    pair_to_json_dict,
    positive_c_vectors,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TRUNCATED = 2
EXIT_VIOLATION = 3

# the formats each command can write, its default first
FORMATS = {"info": ("table", "json"), "enumerate": ("table", "json"), "verify": ("json",),
           "fan": ("json", "svg"), "graph": ("dot",)}


class _WriteError(Exception):
    """The ``-o`` path could not be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors (exit 1)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _build_parser() -> _Parser:
    p = _Parser(prog="tautilt",
                description="Exact tau-tilting pairs, c-vectors, bricks and "
                            "wall-and-chamber output for bound quiver algebras.")
    p.add_argument("file", help="algebra file")
    p.add_argument("command", choices=["info", "enumerate", "verify", "fan", "graph"])
    p.add_argument("--format", choices=["json", "table", "dot", "svg"], default=None,
                   help="output format: table (default) or json for info and "
                        "enumerate, json for verify, json (default) or svg for fan, "
                        "dot for graph")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    p.add_argument("--prime", type=int, default=2,
                   help="prime for the brute-force stability oracle, at most "
                        f"{BRUTE_FORCE_BUDGET} (the oracle's budget)")
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored")
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
    return p


def _is_prime(p: int) -> bool:
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from exc


def _probes_for(graph):
    """Probe modules: every registry indecomposable, padded with direct sums to 8."""
    base = list(graph.registry.reps)
    probes = list(base)
    if base:
        i = 0
        while len(probes) < 8:
            a = base[i % len(base)]
            b = base[(i // len(base)) % len(base)]
            probes.append(direct_sum(graph.algebra, [a, b]))
            i += 1
    return probes


def _fmt_matrix(cols) -> str:
    return ";".join(",".join(str(x) for x in row) for row in zip(*cols))


def _fmt_vecs(vecs) -> str:
    return " ".join("(" + ",".join(str(x) for x in v) + ")" for v in vecs) or "-"


def cmd_info(q, args) -> int:
    lines = [f"algebra {q.fingerprint()}",
             f"vertices {q.n}",
             f"dim {q.dimension}",
             "path basis: " + " ".join(q.path_str(p) for p in q.path_basis)]
    for i in range(1, q.n + 1):
        lines.append(f"P({i}) dims {projective(q, i).dim_label()}")
    for i in range(1, q.n + 1):
        lines.append(f"I({i}) dims {injective(q, i).dim_label()}")
    if args.format == "json":
        payload = {
            "fingerprint": q.fingerprint(),
            "vertices": q.n,
            "dim": q.dimension,
            "path_basis": [q.path_str(p) for p in q.path_basis],
            "projective_dims": {i: list(projective(q, i).dims) for i in range(1, q.n + 1)},
            "injective_dims": {i: list(injective(q, i).dims) for i in range(1, q.n + 1)},
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    else:
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_enumerate(q, args) -> int:
    graph = enumerate_exchange_graph(q, args.max_nodes, args.max_dim)
    if args.format == "json":
        payload = {
            "algebra": q.fingerprint(),
            "complete": graph.complete,
            "n": q.n,
            "pairs": [dict(pair_to_json_dict(pair), id=i, pair=pair.descriptor())
                      for i, pair in enumerate(graph.nodes)],
            "edges": [{"src": e.src, "dst": e.dst, "slot": e.slot,
                       "c_vector": list(e.c_vector)} for e in graph.edges],
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    else:
        lines = [f"# {len(graph.nodes)} pairs, complete={graph.complete}",
                 "pair\tG\tC\tpositive_c_vectors\tB_plus\ttorsion_generators"]
        for i, pair in enumerate(graph.nodes):
            if graph.complete:
                slate = slate_for_node(graph, i)
                plus_str = _fmt_vecs([b.dims for b in b_plus(slate)])
                gens = [rep for rep in graph.registry.reps if fac_contains(pair, rep)]
                gens_str = _fmt_vecs([g.dims for g in gens])
            else:
                plus_str = gens_str = "?"  # bricks need both completions per slot
            lines.append("\t".join([
                pair.descriptor(),
                _fmt_matrix(g_matrix(pair)),
                _fmt_matrix(c_matrix(pair)),
                _fmt_vecs(positive_c_vectors(pair)),
                plus_str,
                gens_str,
            ]))
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if graph.complete else EXIT_TRUNCATED


def cmd_verify(q, args) -> int:
    graph = enumerate_exchange_graph(q, args.max_nodes, args.max_dim)
    if not graph.complete:
        _emit(json.dumps({"error": "graph truncated; cannot verify"},
                         sort_keys=True) + "\n", args.output)
        return EXIT_TRUNCATED
    bricks = {}
    for i in range(len(graph.nodes)):  # registers every brick before probing
        slate = slate_for_node(graph, i)
        for b in slate.bricks:
            bricks[graph.registry.find(b)] = b
    probes = tuple(_probes_for(graph))  # one tuple keys every wall's oracle answer
    reports = [verify_pair(pair, graph, probes, prime=args.prime) for pair in graph.nodes]
    brick_reports = []
    for bid in sorted(bricks):
        b = bricks[bid]
        witness = self_extension_witness(b, graph.registry.reps)
        brick_reports.append({
            "dim_vector": list(b.dims),
            "ext1_self_dim": ext1_dim(b, b),
            "self_extension_witness": list(witness.dims) if witness is not None else None,
        })
    all_pass = all(r["pass"] for r in reports)
    payload = {
        "algebra": q.fingerprint(),
        "nodes": len(graph.nodes),
        "all_pass": all_pass,
        "reports": reports,
        "bricks": brick_reports,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_OK if all_pass else EXIT_VIOLATION


def cmd_fan(q, args) -> int:
    # imported here and in cmd_graph, its only users, so the other commands never load it
    from .wallchamber import build_fan, emit_fan_json, emit_svg_stereographic
    fmt = args.format or "json"
    if fmt == "svg" and q.n != 3:
        sys.stderr.write("error: SVG emission needs a rank-3 algebra\n")
        return EXIT_INPUT
    graph = enumerate_exchange_graph(q, args.max_nodes, args.max_dim)
    try:
        fan = build_fan(graph, prime=args.prime)
    except EnumerationError as exc:
        if graph.complete:
            raise
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TRUNCATED
    except BudgetExceeded as exc:  # a wall's facets need the oracle
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TRUNCATED
    if fmt == "svg":
        _emit(emit_svg_stereographic(fan), args.output)
    else:
        _emit(emit_fan_json(fan), args.output)
    return EXIT_OK if graph.complete else EXIT_TRUNCATED


def cmd_graph(q, args) -> int:
    from .wallchamber import emit_dot
    graph = enumerate_exchange_graph(q, args.max_nodes, args.max_dim)
    try:
        dot = emit_dot(graph)
    except EnumerationError as exc:
        if graph.complete:
            raise
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TRUNCATED
    _emit(dot, args.output)
    return EXIT_OK if graph.complete else EXIT_TRUNCATED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.format not in (None, *FORMATS[args.command]):
        sys.stderr.write(f"error: {args.command} cannot write --format {args.format}; "
                         f"it writes {' or '.join(FORMATS[args.command])}\n")
        return EXIT_INPUT
    if args.max_nodes < 1 or args.max_dim < 1:
        sys.stderr.write("error: limits must be positive\n")
        return EXIT_INPUT
    # above the budget p^1 already exceeds it, so the oracle could check nothing
    if not (2 <= args.prime <= BRUTE_FORCE_BUDGET and _is_prime(args.prime)):
        sys.stderr.write(f"error: --prime {args.prime} is not a prime in "
                         f"[2, {BRUTE_FORCE_BUDGET}]\n")
        return EXIT_INPUT
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: cannot read {args.file}: {exc}\n")
        return EXIT_INPUT
    try:
        q = parse_algebra(text)
    except AlgebraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    handler = {"info": cmd_info, "enumerate": cmd_enumerate, "verify": cmd_verify,
               "fan": cmd_fan, "graph": cmd_graph}[args.command]
    try:
        return handler(q, args)
    except _WriteError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except DecompositionError as exc:  # a documented engine limit, like the budget
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TRUNCATED
    except TheoremViolationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())

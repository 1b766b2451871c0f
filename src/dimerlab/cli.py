"""Command-line front end.

Subcommands: stats, verify, move, sample, gen.  Commands only load, call
and format: the cross-route checks of verify and move live in
:mod:`dimerlab.certify`.  Exact values print as "p/q" with a
12-significant-digit decimal alongside; floats print bare.
Exit codes: 0 success/pass, 1 verification failure, 2 input error,
3 numerical error (singular matrix).  DIMERLAB_ORACLE_CAP sets the
oracle's cover-enumeration cap for verify and sample (default 10^6); a
graph with more covers is an input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys as _sys
from fractions import Fraction

from .certify import FAIL, PASS, certify_graph, certify_move
from .graph import GraphError, load_graph, save_graph, validate
from .kasteleyn import assemble
from .linalg import LinalgError, Matrix, SingularMatrixError, char_coeffs
from .moves import MoveError, contract, leaf_trim, parallel_reduce, square_move
from .oracle import DEFAULT_COVER_CAP, EnumerationCapError, oracle_cover_table, sample_cover
from .scalars import decimal_str
from .statistics import (
    covariance,
    expected_multiplicity,
    multiplicity_distribution,
    probability_matrix,
    product_expectation,
    variance,
)
from . import zoo


def oracle_cap() -> int:
    raw = os.environ.get("DIMERLAB_ORACLE_CAP")
    if raw is None:
        return DEFAULT_COVER_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise GraphError(f"bad DIMERLAB_ORACLE_CAP={raw!r}") from exc


def fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return f"{x} ({decimal_str(x)})"


def jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Matrix):
        return [[jsonable(v) for v in row] for row in x.data]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    return x


def parse_theta(raw: str):
    """'3/5,4/5' -> exact (cos, sin); 'pi/4' or a float -> float backend."""
    if "," in raw:
        c, s = raw.split(",", 1)
        return Fraction(c), Fraction(s)
    if raw.strip() == "pi/4":
        return math.cos(math.pi / 4), math.sin(math.pi / 4)
    theta = float(raw)
    return math.cos(theta), math.sin(theta)


def build_generated(args) -> "EmbeddedGraph":
    """The --gen graph, validated like a GraphSpec file."""
    g = _generate(args)
    problems = validate(g)
    if problems:
        raise GraphError("; ".join(problems))
    return g


def _generate(args):
    kind = args.gen
    if kind == "grid":
        n = args.n
        N = args.N
        if args.gen_seed is None:
            spec = zoo.uniform_grid(N, n)
        else:
            rng = random.Random(args.gen_seed)
            spec = zoo.uniform_grid(
                N,
                n,
                b=[zoo.random_matrix(rng, n, n) for _ in range(N + 1)],
                a=[zoo.random_matrix(rng, n, n) for _ in range(N)],
                c=[zoo.random_matrix(rng, n, n) for _ in range(N)],
            )
        return zoo.grid_graph(spec)
    if kind == "mixed":
        if args.gen_seed is None:
            return zoo.mixed_example(
                Matrix([[Fraction(1)]]), Matrix.identity(2), Matrix.identity(3)
            )
        rng = random.Random(args.gen_seed)
        return zoo.mixed_example(
            zoo.random_matrix(rng, 1, 1), zoo.random_matrix(rng, 2, 2), zoo.random_matrix(rng, 3, 3)
        )
    if kind == "six-vertex":
        return zoo.six_vertex(args.rows, args.cols, parse_theta(args.theta))
    if kind == "snake":
        if args.gen_seed is None:
            return zoo.snake_graph(args.word, args.n)
        rng = random.Random(args.gen_seed)
        return zoo.snake_graph(
            args.word, args.n, weight_fn=lambda lab, shape: zoo.random_matrix(rng, *shape)
        )
    if kind == "qfib":
        g, _ = zoo.q_fibonacci_grid(args.N, Matrix([[Fraction(args.q)]]))
        return g
    raise GraphError(f"unknown generator {kind!r}")


def load_input(args):
    if getattr(args, "graph", None):
        return load_graph(args.graph)
    if getattr(args, "gen", None):
        return build_generated(args)
    if getattr(args, "file", None):
        return load_graph(args.file)
    raise GraphError("need --graph FILE or --gen NAME")


def graph_digest(g) -> dict:
    return {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "faces": len(g.faces),
        "multiplicities": g.multiplicities(),
    }


def add_input_flags(p, positional=False, gen_seed_flag="--seed"):
    p.add_argument("--graph", help="GraphSpec JSON file")
    p.add_argument("--gen", choices=["grid", "mixed", "six-vertex", "snake", "qfib"])
    p.add_argument("--N", type=int, default=2, help="grid length parameter")
    p.add_argument("--n", type=int, default=1, help="uniform multiplicity")
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--theta", default="3/5,4/5", help="'cos,sin' exact or 'pi/4'/float")
    p.add_argument("--word", default="NE", help="snake tile word over E/N")
    p.add_argument("--q", default="2", help="q-Fibonacci parameter (rational)")
    p.add_argument(
        gen_seed_flag,
        dest="gen_seed",
        type=int,
        default=None,
        help="random rational weights for the generator",
    )
    if positional:
        p.add_argument("file", nargs="?", help="GraphSpec JSON file")


def cmd_stats(args) -> int:
    g = load_input(args)
    sys_ = assemble(g)
    out = {"command": "stats", "graph": graph_digest(g)}
    lines = [f"graph: {out['graph']}"]
    z = sys_.partition_function()
    out["Z"] = jsonable(z)
    lines.append(f"Z = {fmt(z)}")
    if args.edge is not None:
        eid = g.resolve_edge(args.edge)
        p = probability_matrix(sys_, eid)
        es = char_coeffs(p)
        dist = multiplicity_distribution(p, es)
        var = variance(p)
        out["edge"] = {
            "selector": args.edge,
            "id": eid,
            "char_coeffs": jsonable(es),
            "pmf": jsonable(list(dist)),
            "mean": jsonable(dist.mean()),
            "variance": jsonable(var),
            "negative_mass": dist.has_negative,
        }
        lines.append(f"edge {args.edge} (id {eid}):")
        lines.append(f"  char coeffs e_k(P): {[str(x) for x in es]}")
        for k, m in enumerate(dist):
            lines.append(f"  Pr[m={k}] = {fmt(m)}")
        lines.append(f"  mean = {fmt(expected_multiplicity(p))}")
        lines.append(f"  variance = {fmt(var)}")
        if dist.has_negative:
            lines.append("  warning: negative mass (weights are not positive)")
    for pair in args.covariance or []:
        a, b = (g.resolve_edge(x) for x in pair.split(","))
        cv = covariance(sys_, a, b)
        out.setdefault("covariances", {})[pair] = jsonable(cv)
        lines.append(f"cov[{pair}] = {fmt(cv)}")
    for group in args.product or []:
        eids = [g.resolve_edge(x) for x in group.split(",")]
        pe = product_expectation(sys_, eids)
        out.setdefault("products", {})[group] = jsonable(pe)
        lines.append(f"E[{group}] = {fmt(pe)}")
    emit(args, out, lines)
    return 0


def cmd_verify(args) -> int:
    g = load_input(args)
    res = certify_graph(g, cap=oracle_cap(), transpose_minors=args.transposed_oracle)
    out = {
        "command": "verify",
        "graph": graph_digest(g),
        "covers": res["covers"],
        "verdict": res["verdict"],
        "checks": [{"name": n, "pass": p} for n, p, _ in res["checks"]],
    }
    lines = [f"graph: {out['graph']}", f"covers enumerated: {res['covers']}"]
    for name, passed, info in res["checks"]:
        lines.append(f"{PASS if passed else FAIL}  {name}  [{info}]")
    lines.append(f"verdict: {res['verdict']}")
    emit(args, out, lines)
    return 0 if res["verdict"] == PASS else 1


def _move_site(args, g):
    kind = args.kind
    site = args.site if args.site is not None else args.face
    if site is None:
        raise MoveError("move needs --site (or --face for square)")
    site = str(site)
    if kind == "square":
        return (int(site.removeprefix("f")),)
    if kind == "contract":
        return (int(site),)
    if kind == "parallel_reduce":
        w, b = site.split(",")
        return (int(w), int(b))
    if kind == "leaf_trim":
        return (g.resolve_edge(site),)
    raise MoveError(f"unknown move kind {kind!r}")


def cmd_move(args) -> int:
    g = load_input(args)
    fn = {
        "leaf_trim": leaf_trim,
        "parallel_reduce": parallel_reduce,
        "contract": contract,
        "square": square_move,
    }[args.kind]
    g2, cert = fn(g, *_move_site(args, g))
    res = certify_move(cert)
    z_ok, verdicts = res["z_relation"], res["untouched"]
    out = {
        "command": "move",
        "kind": args.kind,
        "factor": jsonable(cert.factor),
        "z_relation": z_ok,
        "untouched_P_preserved": verdicts,
        "graph_after": graph_digest(g2),
    }
    lines = [
        f"move {args.kind}: factor = {fmt(cert.factor)}",
        f"Z(after) == factor * Z(before): {PASS if z_ok else FAIL}",
    ]
    for eid, v in verdicts.items():
        lines.append(f"P_e invariance edge {eid}: {PASS if v else FAIL}")
    if args.out:
        save_graph(g2, args.out)
        lines.append(f"wrote {args.out}")
        out["out"] = args.out
    emit(args, out, lines)
    return 0 if z_ok and all(verdicts.values()) else 1


def cmd_sample(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    g = load_input(args)
    table = oracle_cover_table(g, cap=oracle_cap())
    id_to_label = {eid: lab for lab, eid in g.edge_labels.items()}
    counts = {}
    rows = []
    for k in range(args.count):
        cover = sample_cover(g, args.seed + k, table=table)
        key = tuple(sorted((eid, m) for eid, m in cover.items() if m))
        counts[key] = counts.get(key, 0) + 1
        rows.append(
            " ".join(
                f"{id_to_label.get(eid, eid)}:{m}" for eid, m in sorted(cover.items()) if m
            )
        )
    lines = rows[:]
    lines.append("frequencies:")
    freq = []
    for key, cnt in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        desc = " ".join(f"{id_to_label.get(e, e)}:{m}" for e, m in key)
        lines.append(f"  {cnt}/{args.count}  {desc}")
        freq.append({"cover": desc, "count": cnt})
    out = {"command": "sample", "count": args.count, "seed": args.seed, "frequencies": freq}
    emit(args, out, lines)
    return 0


def cmd_gen(args) -> int:
    g = build_generated(args)
    save_graph(g, args.out)
    lines = [f"wrote {args.out}: {graph_digest(g)}"]
    emit(args, {"command": "gen", "out": args.out, "graph": graph_digest(g)}, lines)
    return 0


def emit(args, payload: dict, lines):
    if getattr(args, "json", False):
        print(json.dumps(jsonable(payload), sort_keys=True, indent=1))
    else:
        for line in lines:
            print(line)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dimerlab",
        description="Exact dimer-model statistics with matrix edge weights",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("stats", help="partition function and edge statistics")
    add_input_flags(p, positional=True)
    p.add_argument("--edge", help="edge id or label")
    p.add_argument("--covariance", action="append", help="edge pair 'e1,e2'")
    p.add_argument("--product", action="append", help="edge list 'e1,e2,...'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("verify", help="certify determinant formulas against the oracle")
    add_input_flags(p, positional=True)
    p.add_argument(
        "--transposed-oracle",
        action="store_true",
        help="debug: transpose the minor convention (negative control)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("move", help="apply a local move")
    add_input_flags(p, positional=True)
    p.add_argument(
        "--kind",
        required=True,
        choices=["leaf_trim", "parallel_reduce", "contract", "square"],
    )
    p.add_argument("--site", help="edge / vertex / 'white,black' / face per kind")
    p.add_argument("--face", help="face id (square move)")
    p.add_argument("--out", help="write transformed GraphSpec here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_move)

    p = sub.add_parser("sample", help="draw covers from the exact measure")
    add_input_flags(p, positional=True, gen_seed_flag="--gen-seed")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="sampler seed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("gen", help="emit a generator GraphSpec to a file")
    add_input_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SingularMatrixError as exc:
        print(f"numerical error: {exc}", file=_sys.stderr)
        return 3
    except (GraphError, EnumerationCapError, MoveError, LinalgError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

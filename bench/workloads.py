"""The four workloads: inputs made from a seed, one query each, and checks.

A workload is a deck of items that the closed loop cycles through.  Each
item is one user request: a ``dimerlab`` CLI invocation run in-process on
a GraphSpec file written during set-up, or a library call on a generated
graph.  The seed chooses the random weights, angles and queried edges; the
sizes are fixed per workload, so every seed costs about the same.

Checks run outside the timed interval and hold for every seed: each item's
first output is checked against exact identities (floats within
``FLOAT_TOL``), and every later output of the same item must equal it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

FLOAT_TOL = 1e-9
_RATIONAL = re.compile(r"-?\d+(/\d+)?")

# Pythagorean angles with one hypotenuse, so every seed's ice costs the same
ICE_THETAS = [
    (Fraction(16, 65), Fraction(63, 65)),
    (Fraction(63, 65), Fraction(16, 65)),
    (Fraction(33, 65), Fraction(56, 65)),
    (Fraction(56, 65), Fraction(33, 65)),
]


@dataclass
class Item:
    """One query of a deck."""

    id: str
    run: Callable[[], object]  # the timed request
    payload: Callable[[object], dict]  # result fields compared run to run
    check: Callable[[object, dict], list]  # problems found; empty when correct
    dim: int  # Kasteleyn matrix dimension
    k: int  # edges marked by the query
    inputs: list = field(default_factory=list)  # bytes fed to the program


# -- helpers ------------------------------------------------------------------


def run_cli(cli, argv):
    """Run ``dimerlab <argv>`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def num(x):
    """A printed value back to a number: 'p/q' is exact, a bare number float."""
    return Fraction(x) if isinstance(x, str) else float(x)


def same(x, y) -> bool:
    """Exact equality, or agreement within FLOAT_TOL when either side is a float."""
    if isinstance(x, float) or isinstance(y, float):
        return abs(x - y) <= FLOAT_TOL * max(1.0, abs(y))
    return x == y


def same_payload(x, y) -> bool:
    """Payload equality with floats compared by ``same``."""
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(same_payload(x[k], y[k]) for k in x)
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(same_payload(a, b) for a, b in zip(x, y))
    if isinstance(x, float) or isinstance(y, float):
        return isinstance(x, (int, float)) and isinstance(y, (int, float)) and same(x, y)
    return x == y


def max_digits(payload) -> int:
    """Largest numerator or denominator digit count among exact values."""
    best = 0
    stack = [payload]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, str) and _RATIONAL.fullmatch(x):
            f = Fraction(x)
            best = max(best, len(str(abs(f.numerator))), len(str(f.denominator)))
    return best


def random_matrix(dl, rng, rows, cols):
    """Entries +-p/q with 1 <= p <= 4, 1 <= q <= 3; square ones resampled until invertible.

    No entry is zero: chance zeros prune the oracle and make a query's cost
    depend on the seed.
    """
    while True:
        m = dl.Matrix(
            [
                [Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        if rows != cols or dl.det(m) != 0:
            return m


def random_grid(dl, rng, n, N):
    mats = lambda count: [random_matrix(dl, rng, n, n) for _ in range(count)]  # noqa: E731
    return dl.zoo.grid_graph(dl.zoo.uniform_grid(N, n, b=mats(N + 1), a=mats(N), c=mats(N)))


def random_snake(dl, rng, word, n):
    return dl.zoo.snake_graph(word, n, weight_fn=lambda label, shape: random_matrix(dl, rng, *shape))


def dimension(g) -> int:
    return sum(v.multiplicity for v in g.vertices.values() if v.color == "white")


def write_spec(spec: dict, workdir: str, name: str):
    data = (json.dumps(spec, indent=1) + "\n").encode()
    path = os.path.join(workdir, name + ".json")
    with open(path, "wb") as fh:
        fh.write(data)
    return path, data


def cli_payload(fields):
    """Payload maker for a CLI item: exit code plus the named JSON fields."""

    def payload(output):
        rc, out, err = output
        if rc != 0:
            return {"rc": rc, "stderr": err.strip()}
        return {"rc": rc, **fields(json.loads(out))}

    return payload


def exit_problems(payload) -> list:
    return [] if payload["rc"] == 0 else [f"exit {payload['rc']}: {payload.get('stderr', '')}"]


# -- stats queries (stats-grid, stats-ice) --------------------------------------


def _stats_fields(d):
    edge = d["edge"]
    return {
        "Z": d["Z"],
        "pmf": edge["pmf"],
        "mean": edge["mean"],
        "variance": edge["variance"],
        "cov": next(iter(d["covariances"].values())),
    }


def stats_item(dl, cli, item_id, g, spec, workdir, eid, pair, uniform):
    """`dimerlab stats --json FILE --edge E --covariance A,B` on one file."""
    path, data = write_spec(spec, workdir, item_id)
    argv = ["stats", "--json", path, "--edge", str(eid), "--covariance", f"{pair[0]},{pair[1]}"]

    def check(output, p):
        problems = exit_problems(p)
        if problems:
            return problems
        pmf = [num(x) for x in p["pmf"]]
        if not same(sum(pmf), 1):
            problems.append(f"pmf sums to {sum(pmf)}")
        loaded = dl.load_graph(path)
        system = dl.assemble(loaded)

        def mean(e):
            return num(p["mean"]) if e == eid else dl.probability_matrix(system, e).trace()

        w = loaded.edges[eid].white
        total = sum((mean(e) for e in loaded.vertices[w].rotation), 0)
        if not same(total, loaded.vertices[w].multiplicity):
            problems.append(f"sum of tr P_e at white {w} is {total}")
        if uniform:
            z_solved = dl.assemble(loaded, eps=dl.solve_signs(loaded)).partition_function()
            z_carried = dl.assemble(g).partition_function()
            if not (num(p["Z"]) == z_solved == z_carried):
                problems.append("Z differs between carried and re-solved connections")
        a, b = pair
        joint = dl.product_expectation(system, [a, b])
        if not same(joint, mean(a) * mean(b) + num(p["cov"])):
            problems.append("E[m_a m_b] != E[m_a] E[m_b] + Cov")
        return problems

    return Item(
        item_id,
        lambda: run_cli(cli, argv),
        cli_payload(_stats_fields),
        check,
        dimension(g),
        2,
        [data],
    )


def build_stats_grid(dl, cli, rng, workdir):
    """2xN grids, n = 1..3: six queries of about 0.25 s and three of about 0.5 s.

    Each regular size appears with its carried connection and without it,
    so the sign solve runs on half the queries.  The larger grids make up a
    third of the queries, so the tail is their typical time, not a noise spike.
    """
    plan = [
        (1, 48, False), (2, 22, True), (3, 18, False),
        (2, 22, False), (3, 14, True), (1, 60, True),
        (3, 14, False), (1, 48, True), (2, 28, False),
    ]
    items = []
    for n, N, solved in plan:
        g = random_grid(dl, rng, n, N)
        spec = dl.graph_to_spec(g)
        if solved:
            del spec["connection"]
        i = rng.randint(N // 4, 3 * N // 4)
        partner = rng.choice([f"a{i + 1}", f"c{i + 1}", f"v{i + 1}", f"v{i + 2}"])
        eid = g.edge_labels[f"v{i}"]
        pair = (eid, g.edge_labels[partner])
        item_id = f"grid-n{n}-N{N}-{'solved' if solved else 'carried'}"
        items.append(stats_item(dl, cli, item_id, g, spec, workdir, eid, pair, True))
    return items


def build_stats_ice(dl, cli, rng, workdir):
    """Domain-wall six-vertex ice, k = 5 and 7, exact angles plus one float item."""
    items = []
    plan = [(7, "exact"), (5, "exact"), (5, "exact"), (7, "float"), (7, "exact"), (5, "exact"), (5, "exact")]
    for idx, (k, backend) in enumerate(plan):
        if backend == "float":
            theta = (math.cos(math.pi / 4), math.sin(math.pi / 4))
        else:
            theta = rng.choice(ICE_THETAS)
        g = dl.zoo.six_vertex(k, k, theta)
        center = [g.edge_labels[f"center-{d}"] for d in ("east", "north", "west", "south")]
        eid = rng.choice(center)
        pair = tuple(rng.sample(center, 2))
        item_id = f"ice-{k}x{k}-{backend}-{idx}"
        spec = dl.graph_to_spec(g)
        items.append(stats_item(dl, cli, item_id, g, spec, workdir, eid, pair, False))
    return items


# -- products ------------------------------------------------------------------


def _oracle_table(dl, g, cache):
    if "table" not in cache:
        cache["table"] = dl.oracle_cover_table(g)
    return cache["table"]


def product_item(dl, item_id, g, eids):
    cache = {}

    def check(output, p):
        want = dl.oracle_product_expectation(g, eids, table=_oracle_table(dl, g, cache))
        return [] if output == want else [f"E[prod m] = {output}, oracle {want}"]

    return Item(
        item_id,
        lambda: dl.product_expectation(dl.assemble(g), eids),
        lambda out: {"value": str(out)},
        check,
        dimension(g),
        len(eids),
        [json.dumps(dl.graph_to_spec(g), sort_keys=True).encode(), str(eids).encode()],
    )


def _joint_rows(joint: dict):
    return sorted([list(key), str(v)] for key, v in joint.items() if v != 0)


def joint_item(dl, item_id, g, eids):
    cache = {}

    def check(output, p):
        covers, weights, z = _oracle_table(dl, g, cache)
        want = {}
        for cover, w in zip(covers, weights):
            key = tuple(cover.get(e, 0) for e in eids)
            want[key] = want.get(key, 0) + w / z
        return [] if _joint_rows(output) == _joint_rows(want) else ["joint pmf differs from oracle"]

    return Item(
        item_id,
        lambda: dl.joint_distribution(dl.assemble(g), eids),
        lambda out: {"joint": _joint_rows(out)},
        check,
        dimension(g),
        len(eids),
        [json.dumps(dl.graph_to_spec(g), sort_keys=True).encode(), str(eids).encode()],
    )


def build_products(dl, cli, rng, workdir):
    """Multi-edge statistics through the library on oracle-scale grids."""
    items = []
    plan = [
        ("product", 1, 8, 7),
        ("joint", 2, 7, 3),
        ("product", 2, 6, 6),
        ("joint", 1, 8, 4),
        ("product", 2, 8, 5),
        ("joint", 2, 8, 4),
        ("product", 1, 6, 7),
    ]
    for kind, n, N, k in plan:
        g = random_grid(dl, rng, n, N)
        item_id = f"{kind}-n{n}-N{N}-k{k}"
        if kind == "product":
            items.append(product_item(dl, item_id, g, rng.sample(sorted(g.edges), k)))
        else:
            # evenly spaced vertical edges: k distinct black vertices, and a
            # cost that does not depend on the seed's choice of columns
            cols = [round(i * N / (k - 1)) for i in range(k)]
            items.append(joint_item(dl, item_id, g, [g.edge_labels[f"v{i}"] for i in cols]))
    return items


# -- certify -------------------------------------------------------------------


def verify_item(dl, cli, item_id, g, workdir):
    path, data = write_spec(dl.graph_to_spec(g), workdir, item_id)

    def check(output, p):
        problems = exit_problems(p)
        if not problems and p["verdict"] != "PASS":
            problems.append(f"verdict {p['verdict']}")
        return problems

    return Item(
        item_id,
        lambda: run_cli(cli, ["verify", "--json", path]),
        cli_payload(lambda d: {"verdict": d["verdict"], "covers": d["covers"]}),
        check,
        dimension(g),
        2,
        [data],
    )


def move_item(dl, cli, item_id, g, face, workdir):
    path, data = write_spec(dl.graph_to_spec(g), workdir, item_id)

    def check(output, p):
        problems = exit_problems(p)
        if not problems and not (p["z_relation"] and all(p["untouched"].values())):
            problems.append("move certificate failed")
        return problems

    fields = lambda d: {  # noqa: E731
        "factor": d["factor"],
        "z_relation": d["z_relation"],
        "untouched": d["untouched_P_preserved"],
    }
    return Item(
        item_id,
        lambda: run_cli(cli, ["move", "--json", "--kind", "square", "--face", f"f{face}", path]),
        cli_payload(fields),
        check,
        dimension(g),
        0,
        [data],
    )


def snake_reduce_item(dl, item_id, g, workdir):
    path, data = write_spec(dl.graph_to_spec(g), workdir, item_id)

    def factor(certs):
        out = Fraction(1)
        for c in certs:
            out *= c.factor
        return out

    def payload(output):
        g2, certs = output
        spec = json.dumps(dl.graph_to_spec(g2), sort_keys=True).encode()
        return {
            "factor": str(factor(certs)),
            "kinds": [c.kind for c in certs],
            "graph": hashlib.sha256(spec).hexdigest(),
        }

    def check(output, p):
        g2, certs = output
        z0 = dl.assemble(g).partition_function()
        z2 = dl.assemble(g2).partition_function()
        return [] if z2 == factor(certs) * z0 else ["Z(after) != factor * Z(before)"]

    return Item(
        item_id,
        lambda: dl.zoo.snake_reduce(dl.load_graph(path)),
        payload,
        check,
        dimension(g),
        0,
        [data],
    )


# snake words of similar verify cost, so the seed's choice moves no metric
SHORT_WORDS = ["ENN"]  # for n = 3: one word, its cost sits between the grids
LONG_WORDS = ["NEEN", "ENEE", "ENNE", "ENNN", "NNNE"]  # for n = 2


def build_certify(dl, cli, rng, workdir):
    """Oracle-scale graphs for `verify`, one square move and one snake reduction.

    The two costliest graphs appear twice with different weights, so the
    tail does not rest on one random draw.  Five items are cheaper and five
    dearer than the 3x3 ice, so the median query is the ice, well apart
    from its neighbours in cost.
    """
    theta = rng.choice(ICE_THETAS)
    rm = lambda n: random_matrix(dl, rng, n, n)  # noqa: E731
    move_grid = random_grid(dl, rng, 2, 4)
    faces = [f.id for f in move_grid.bounded_faces() if f.num_darts == 4]
    snake = lambda words, n: random_snake(dl, rng, rng.choice(words), n)  # noqa: E731
    return [
        verify_item(dl, cli, "verify-grid-n2-N6-a", random_grid(dl, rng, 2, 6), workdir),
        verify_item(dl, cli, "verify-grid-n3-N4-a", random_grid(dl, rng, 3, 4), workdir),
        verify_item(dl, cli, "verify-snake-n3", snake(SHORT_WORDS, 3), workdir),
        verify_item(dl, cli, "verify-mixed", dl.zoo.mixed_example(rm(1), rm(2), rm(3)), workdir),
        move_item(dl, cli, "move-square-n2-N4", move_grid, rng.choice(faces), workdir),
        verify_item(dl, cli, "verify-grid-n2-N6-b", random_grid(dl, rng, 2, 6), workdir),
        verify_item(dl, cli, "verify-ice-3x3", dl.zoo.six_vertex(3, 3, theta), workdir),
        verify_item(dl, cli, "verify-grid-n3-N3", random_grid(dl, rng, 3, 3), workdir),
        verify_item(dl, cli, "verify-grid-n3-N4-b", random_grid(dl, rng, 3, 4), workdir),
        snake_reduce_item(dl, "snake-reduce-n3", snake(LONG_WORDS, 3), workdir),
        verify_item(dl, cli, "verify-snake-n2", snake(LONG_WORDS, 2), workdir),
    ]


WORKLOADS = {
    "stats-grid": build_stats_grid,
    "stats-ice": build_stats_ice,
    "products": build_products,
    "certify": build_certify,
}

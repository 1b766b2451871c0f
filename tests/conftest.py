import random
from fractions import Fraction

import pytest

from dimerlab.graph import EmbeddedGraph
from dimerlab.zoo import (
    GridSpec,
    grid_graph,
    mixed_example,
    random_matrix,
    six_vertex,
    snake_graph,
    uniform_grid,
)


def rand_grid(rng, N, n, identity_couplers=False):
    b = [random_matrix(rng, n, n) for _ in range(N + 1)]
    if identity_couplers:
        return grid_graph(uniform_grid(N, n, b=b))
    return grid_graph(
        uniform_grid(
            N,
            n,
            b=b,
            a=[random_matrix(rng, n, n) for _ in range(N)],
            c=[random_matrix(rng, n, n) for _ in range(N)],
        )
    )


def display_square(a, b, c, d):
    """The quadrilateral whose Kasteleyn matrix reads [[a, -d], [b, c]].

    a = left vertical, b = bottom, c = right vertical, d = top.
    Returns (graph, connection).
    """
    spec = GridSpec(b=[a, c], a=[d], c=[b])
    g = grid_graph(spec)
    eps = {
        g.edge_labels["v0"]: 1,
        g.edge_labels["a1"]: -1,
        g.edge_labels["c1"]: 1,
        g.edge_labels["v1"]: 1,
    }
    return g, eps


PYTH_POINTS = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
]


def corpus(n, seed):
    """(name, graph) pairs: the fixed verification corpus at multiplicity n."""
    rng = random.Random((n, seed).__hash__())
    out = []
    for N in range(6):
        out.append((f"grid_N{N}", rand_grid(rng, N, n)))
    out.append(
        (
            "snake_NE",
            snake_graph("NE", n, weight_fn=lambda lab, shape: random_matrix(rng, *shape)),
        )
    )
    return out


def mixed_corpus(seed):
    rng = random.Random(seed * 7919 + 13)
    out = [
        (
            "mixed_example",
            mixed_example(
                random_matrix(rng, 1, 1), random_matrix(rng, 2, 2), random_matrix(rng, 3, 3)
            ),
        )
    ]
    c, s = PYTH_POINTS[seed % len(PYTH_POINTS)]
    out.append(("six_vertex_2x2", six_vertex(2, 2, (c, s))))
    return out


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240915)

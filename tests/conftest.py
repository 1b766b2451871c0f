import random
from fractions import Fraction

import pytest

from dimerlab.graph import EmbeddedGraph
from dimerlab.linalg import Matrix
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


def cofactor_det(m: Matrix):
    """Laplace expansion along the first remaining row (memoised on columns).

    Division-free, so it also takes polynomial entries; the reference the
    library's LU determinant is checked against.
    """
    memo = {}

    def expand(row, cols):
        if row == m.rows:
            return Fraction(1)
        if cols not in memo:
            acc = Fraction(0)
            for k, c in enumerate(cols):
                x = m[row, c]
                if x:
                    term = x * expand(row + 1, cols[:k] + cols[k + 1 :])
                    acc = acc - term if k % 2 else acc + term
            memo[cols] = acc
        return memo[cols]

    return expand(0, tuple(range(m.cols)))


def adjugate(m: Matrix) -> Matrix:
    """Cofactor transpose from :func:`cofactor_det`, division-free."""
    n = range(m.rows)
    rest = [[k for k in n if k != i] for i in n]  # the indices other than i
    return Matrix(
        [[(-1) ** (i + j) * cofactor_det(m.submatrix(rest[j], rest[i])) for j in n] for i in n]
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

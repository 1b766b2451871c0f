import random
from fractions import Fraction

import pytest

from dimerlab.kasteleyn import (
    assemble,
    connection_is_valid,
    face_sign_target,
    flip_coboundary,
    solve_signs,
)
from dimerlab.linalg import BlockMatrix, Matrix, det, inverse
from dimerlab.moves import gauge
from dimerlab.oracle import oracle_partition
from dimerlab.statistics import multiplicity_distribution, probability_matrix
from dimerlab.zoo import (
    grid_graph,
    mixed_example,
    random_matrix,
    six_vertex,
    snake_graph,
    uniform_grid,
)

from conftest import display_square, rand_grid


def test_solve_signs_square_face_product():
    g = grid_graph(uniform_grid(1, 1))
    eps = solve_signs(g)
    face = g.bounded_faces()[0]
    prod = 1
    for eid in face.edge_ids:
        prod *= eps[eid]
    assert prod == -1


def test_solve_signs_single_edge_trivial():
    g = grid_graph(uniform_grid(0, 2))
    assert solve_signs(g) == {0: 1}


def test_solve_signs_grid_both_faces():
    g = grid_graph(uniform_grid(2, 3))
    eps = solve_signs(g)
    for face in g.bounded_faces():
        prod = 1
        for eid in face.edge_ids:
            prod *= eps[eid]
        assert prod == -1


def test_even_rule_uses_inward_cilia():
    # the face rule counts an inward cilium only at a vertex of even
    # multiplicity.  Ice 2x2: one bounded face of 8 edges with three inward cilia, of
    # which one sits at a black (multiplicity 2) vertex
    g = six_vertex(2, 2)
    (face,) = g.bounded_faces()
    assert (face.num_darts, face.inward_cilia, face.inward_even_cilia) == (8, 3, 1)
    assert face_sign_target(face) == 0  # (4 - 1 + 1) mod 2
    assert connection_is_valid(g, solve_signs(g))
    assert connection_is_valid(g, g.connection)
    # uniform graphs: every inward cilium counts when n is even, none when odd
    for n in (1, 2, 3, 4):
        for h in (grid_graph(uniform_grid(1, n)), snake_graph("NE", n)):
            for f in h.faces:
                assert f.inward_even_cilia == (f.inward_cilia if n % 2 == 0 else 0)
            assert connection_is_valid(h, solve_signs(h))


def test_assemble_matches_display_frame():
    rng = random.Random(0)
    a, b, c, d = (random_matrix(rng, 2, 2) for _ in range(4))
    g, eps = display_square(a, b, c, d)
    sys = assemble(g, eps)
    K = sys.K
    assert K.block(0, 0) == a
    assert K.block(0, 1) == -d
    assert K.block(1, 0) == b
    assert K.block(1, 1) == c


def test_block_inverse_schur_formulas():
    rng = random.Random(1)
    a, b, c, d = (random_matrix(rng, 2, 2) for _ in range(4))
    g, eps = display_square(a, b, c, d)
    sys = assemble(g, eps)
    whites = sys.white_order
    blacks = sys.black_order
    k11 = sys.block_inverse(whites[0], blacks[0])
    assert k11 == inverse(a + d @ inverse(c) @ b)
    k21 = sys.block_inverse(whites[0], blacks[1])
    assert k21 == -inverse(d + a @ inverse(b) @ c)
    k12 = sys.block_inverse(whites[1], blacks[0])
    assert k12 == inverse(b + c @ inverse(d) @ a)
    k22 = sys.block_inverse(whites[1], blacks[1])
    assert k22 == inverse(c + b @ inverse(a) @ d)


def test_partition_function_values():
    assert assemble(grid_graph(uniform_grid(0, 2))).partition_function() == 1
    assert assemble(grid_graph(uniform_grid(1, 1))).partition_function() == 2
    g = mixed_example(Matrix([[Fraction(1)]]), Matrix.identity(2), Matrix.identity(3))
    assert assemble(g).partition_function() == 6  # five covers, one of weight 2


def test_mixed_display_matrix():
    g = mixed_example(
        Matrix([[Fraction(7)]]),
        Matrix([[1, 2], [3, 4]]).map(Fraction),
        Matrix([[5, 6, 7], [8, 9, 10], [11, 12, 14]]).map(Fraction),
    )
    k = assemble(g).K.mat
    expect = Matrix(
        [
            [7, 1, 0, 0, 0, 0],
            [-1, 1, 2, 1, 0, 0],
            [0, 3, 4, 0, 1, 0],
            [0, -1, 0, 5, 6, 7],
            [0, 0, -1, 8, 9, 10],
            [0, 0, 0, 11, 12, 14],
        ]
    ).map(Fraction)
    assert k == expect


def test_oracle_equivalence_quick():
    rng = random.Random(2)
    for n in (1, 2):
        g = rand_grid(rng, 2, n)
        assert assemble(g).partition_function() == abs(oracle_partition(g))


def test_singular_reported_at_inverse_time():
    g = grid_graph(uniform_grid(0, 1, b=[Matrix([[Fraction(0)]])]))
    sys = assemble(g)
    assert sys.partition_function() == 0
    from dimerlab.linalg import SingularMatrixError

    e = next(iter(g.edges.values()))
    with pytest.raises(SingularMatrixError, match="Kasteleyn matrix is singular"):
        sys.block_inverse(e.white, e.black)


def test_sign_solution_independence():
    rng = random.Random(3)
    g = rand_grid(rng, 2, 2)
    sys1 = assemble(g)
    eps2 = flip_coboundary(sys1.eps, g, [0, 3])
    assert eps2 != sys1.eps
    assert connection_is_valid(g, eps2)
    sys2 = assemble(g, eps2)
    assert sys1.partition_function() == sys2.partition_function()
    for eid in g.edges:
        d1 = multiplicity_distribution(probability_matrix(sys1, eid))
        d2 = multiplicity_distribution(probability_matrix(sys2, eid))
        assert list(d1) == list(d2)


def test_gauge_scales_det_by_det_m():
    rng = random.Random(4)
    g = rand_grid(rng, 2, 2)
    sys = assemble(g)
    m = random_matrix(rng, 2, 2)
    black = g.black_ids()[1]
    g2 = gauge(g, black, m)
    sys2 = assemble(g2, sys.eps)
    assert sys2.det() == sys.det() * det(m)


def test_parallel_edges_sum_into_one_block():
    # two parallel identity edges between a pair contribute weight 2I
    from dimerlab.graph import EmbeddedGraph, Edge, Vertex

    one = Matrix.identity(1)
    g = EmbeddedGraph(
        [Vertex(0, "white", 1, (0, 1), 0), Vertex(1, "black", 1, (1, 0), 0)],
        [Edge(0, 0, 1, one), Edge(1, 0, 1, one)],
        outer_witness=(0, "white"),
    )
    eps = solve_signs(g)
    sys = assemble(g, eps)
    assert abs(sys.K.mat[0, 0]) == 2 or sys.K.mat[0, 0] == 0  # signs may oppose
    # the bigon face forces equal signs for odd rule, so the sum is +-2
    assert abs(sys.K.mat[0, 0]) == 2

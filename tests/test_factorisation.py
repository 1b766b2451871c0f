"""The shared LU factorisation: det, block columns of K^{-1}, and caching."""

import math
import random
from fractions import Fraction

import pytest

from dimerlab.kasteleyn import assemble
from dimerlab.linalg import BlockMatrix, Matrix, det, inverse, lu
from dimerlab.statistics import probability_matrix
from dimerlab.zoo import mixed_example, random_matrix, six_vertex

from conftest import cofactor_det, rand_grid


def rand_mixed(rng):
    return mixed_example(random_matrix(rng, 1, 1), random_matrix(rng, 2, 2), random_matrix(rng, 3, 3))


def exact_systems():
    rng = random.Random(7)
    out = [(f"grid n={n}", assemble(rand_grid(rng, 4, n))) for n in (1, 2, 3)]
    out.append(("mixed_example", assemble(rand_mixed(rng))))
    theta = (Fraction(3, 5), Fraction(4, 5))
    out += [(f"ice {k}x{k}", assemble(six_vertex(k, k, theta))) for k in (3, 4)]
    return out


def dense_inverse_blocks(sys):
    return BlockMatrix(sys.K.col_sizes, sys.K.row_sizes, inverse(sys.K.mat))


SYSTEMS = exact_systems()


@pytest.mark.parametrize("name,sys", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_block_inverse_equals_dense_inverse_exactly(name, sys):
    dense = dense_inverse_blocks(sys)
    assert sys.K.mat @ dense.mat == Matrix.identity(sys.K.mat.rows)
    assert sys.inverse().mat == dense.mat
    for i, w in enumerate(sys.white_order):
        for j, b in enumerate(sys.black_order):
            assert sys.block_inverse(w, b) == dense.block(j, i)


def test_block_inverse_float_ice_matches_dense():
    theta = (math.cos(math.pi / 4), math.sin(math.pi / 4))
    sys = assemble(six_vertex(4, 4, theta))
    dense = dense_inverse_blocks(sys)
    for i, w in enumerate(sys.white_order):
        for j, b in enumerate(sys.black_order):
            got = sys.block_inverse(w, b)
            want = dense.block(j, i)
            assert all(
                isinstance(got[i, j], float) and abs(got[i, j] - want[i, j]) < 1e-9
                for i in range(got.rows)
                for j in range(got.cols)
            )


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for dim in range(1, 9):
        for density in (1.0, 0.5, 0.25):
            m = Matrix(
                [
                    [
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        if rng.random() < density
                        else Fraction(0)
                        for _ in range(dim)
                    ]
                    for _ in range(dim)
                ]
            )
            assert det(m) == cofactor_det(m)
    # a leading zero forces a row swap, so the sign is exercised
    swap = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]).map(Fraction)
    assert det(swap) == cofactor_det(swap) == -1
    assert lu(swap).sign == -1
    singular = Matrix([[1, 2], [2, 4]]).map(Fraction)
    assert det(singular) == cofactor_det(singular) == 0
    assert lu(singular).singular


def test_kasteleyn_det_matches_cofactor_expansion():
    rng = random.Random(12)
    graphs = [rand_grid(rng, N, n) for n, N in ((1, 7), (2, 3), (1, 2))]
    graphs.append(rand_mixed(rng))
    for g in graphs:
        sys = assemble(g)
        assert sys.K.mat.rows <= 8
        assert sys.det() == cofactor_det(sys.K.mat)


def test_probability_matrix_solves_only_one_block_column():
    sys = assemble(rand_grid(random.Random(13), 64, 3))
    eid = sys.graph.edge_labels["v32"]
    probability_matrix(sys, eid)
    wpos = sys.white_order.index(sys.graph.edges[eid].white)
    assert list(sys._columns) == [wpos]
    assert len(sys._columns[wpos]) == 3

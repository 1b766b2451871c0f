import random
from fractions import Fraction

import pytest

from dimerlab.linalg import (
    BlockMatrix,
    Matrix,
    ShapeError,
    SingularMatrixError,
    adjugate,
    char_coeffs,
    det,
    inverse,
    minor,
)
from dimerlab.scalars import MPoly
from dimerlab.zoo import random_matrix



def frac(p, q=1):
    return Fraction(p, q)


def test_det_scalar_and_two_by_two():
    assert det(Matrix([[frac(7)]])) == 7
    assert det(Matrix([[1, -1], [1, 1]])) == 2


def test_det_empty_is_one():
    assert det(Matrix([])) == 1


def test_det_rejects_non_square():
    with pytest.raises(ShapeError):
        det(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_inverse_identity_and_roundtrip():
    ident = Matrix.identity(3)
    assert inverse(ident) == ident
    rng = random.Random(0)
    for _ in range(5):
        m = random_matrix(rng, 4, 4)
        assert m @ inverse(m) == Matrix.identity(4)
        assert inverse(inverse(m)) == m


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_minor_conventions():
    m = Matrix([[5, 6], [7, 8]])
    assert minor(m, [], []) == 1
    assert minor(m, [0], [0]) == 5
    rng = random.Random(1)
    c = random_matrix(rng, 3, 3)
    assert minor(c, [0, 2], [0, 2]) == c[0, 0] * c[2, 2] - c[0, 2] * c[2, 0]


def test_minor_size_mismatch():
    with pytest.raises(ShapeError):
        minor(Matrix.identity(3), [0, 1], [0])


def test_char_coeffs_binomials_and_edge_cases():
    assert char_coeffs(Matrix.identity(3)) == [1, 3, 3, 1]
    assert char_coeffs(Matrix.zeros(4, 4)) == [1, 0, 0, 0, 0]
    rng = random.Random(5)
    m = random_matrix(rng, 2, 2)
    es = char_coeffs(m)
    assert es[1] == m.trace()
    assert es[2] == det(m)


def test_char_coeffs_match_det_at_random_points():
    rng = random.Random(6)
    m = random_matrix(rng, 4, 4)
    es = char_coeffs(m)
    for _ in range(10):
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        direct = det(Matrix.identity(4) + m * lam)
        via = sum(e * lam**k for k, e in enumerate(es))
        assert direct == via


def test_char_coeffs_polynomial_unsupported():
    m = Matrix([[MPoly.var("x")]])
    with pytest.raises(Exception):
        char_coeffs(m)


def test_division_free_det_matches_field_det():
    rng = random.Random(7)
    for n in range(1, 6):
        m = Matrix([[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
        as_poly = m.map(MPoly.coerce)
        assert det(as_poly) == MPoly.coerce(det(m))


def test_polynomial_det_and_adjugate():
    x, y = MPoly.var("x"), MPoly.var("y")
    m = Matrix([[x, MPoly.const(1)], [MPoly.const(2), y]])
    assert det(m) == x * y - 2
    adj = adjugate(m)
    prod = adj @ m
    d = det(m)
    assert prod.data[0][0] == d and prod.data[1][1] == d
    assert prod.data[0][1] == 0 and prod.data[1][0] == 0


def test_float_backend_close_to_rational():
    rng = random.Random(8)
    for _ in range(5):
        m = random_matrix(rng, 4, 4)
        mf = m.map(float)
        dr = det(m)
        df = det(mf)
        if dr == 0:
            continue
        assert abs(df - float(dr)) / abs(float(dr)) < 1e-10
        invf = inverse(mf)
        invr = inverse(m)
        for i in range(4):
            for j in range(4):
                assert abs(invf[i, j] - float(invr[i, j])) < 1e-8


def test_block_matrix_round_trip():
    rng = random.Random(9)
    blocks = [[random_matrix(rng, r, c) for c in (1, 2)] for r in (2, 3)]
    bm = BlockMatrix.from_blocks(blocks)
    assert bm.mat.shape == (5, 3)
    for i in range(2):
        for j in range(2):
            assert bm.block(i, j) == blocks[i][j]

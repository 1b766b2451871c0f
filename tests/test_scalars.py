from fractions import Fraction

import pytest

from dimerlab.scalars import MPoly, ScalarError, parse_scalar, format_scalar


def test_parse_exact_and_float():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-5") == Fraction(-5)
    assert parse_scalar(0.5) == 0.5
    assert parse_scalar(2) == 2.0 and isinstance(parse_scalar(2), float)
    with pytest.raises(ScalarError):
        parse_scalar("1/0")
    with pytest.raises(ScalarError):
        parse_scalar(True)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400, "nan", "inf"])
def test_parse_rejects_non_finite(bad):
    with pytest.raises(ScalarError):
        parse_scalar(bad)


def test_format_round_trip():
    assert parse_scalar(format_scalar(Fraction(7, 3))) == Fraction(7, 3)
    assert format_scalar(0.25) == 0.25


def test_mpoly_ring_ops():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert p - p == 0
    assert (x * 0).is_zero()
    assert MPoly.const(Fraction(3, 2)).constant() == Fraction(3, 2)


def test_mpoly_coefficients_and_degree():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = 3 * x * x * y - y + Fraction(1, 2)
    assert p.coefficient({"x": 2, "y": 1}) == 3
    assert p.coefficient({"y": 1}) == -1
    assert p.coefficient({}) == Fraction(1, 2)
    assert p.degree("x") == 2 and p.degree("y") == 1
    assert p.variables() == ["x", "y"]


def test_mpoly_diff_and_subs():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = x * x * y + 2 * x
    assert p.diff("x") == 2 * x * y + 2
    assert p.diff("y") == x * x
    assert p.subs({"x": Fraction(2), "y": Fraction(3)}) == 16
    partial = p.subs({"y": Fraction(1)})
    assert isinstance(partial, MPoly)
    assert partial == x * x + 2 * x


def test_mpoly_immutable():
    p = MPoly.var("x")
    with pytest.raises(AttributeError):
        p.terms = {}

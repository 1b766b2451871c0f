"""Scalar backends.

Three kinds of scalar flow through the library: exact rationals
(``fractions.Fraction``, the default), binary floats (opt-in, for
irrational parameters like a generic six-vertex angle), and multivariate
polynomials with rational coefficients over named formal variables
(:class:`MPoly`, used for generating functions).  Every matrix routine is
generic over these, so this module only has to provide parsing, printing
and the polynomial ring itself.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ScalarError(ValueError):
    pass


def parse_scalar(value):
    """Parse a scalar from a GraphSpec document.

    Strings are exact: ``"3/4"`` or ``"-5"`` become ``Fraction``.  Bare
    JSON numbers select the float backend and must be finite.
    """
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"bad exact scalar {value!r}: {exc}") from exc
    if isinstance(value, bool):
        raise ScalarError(f"bad scalar {value!r}")
    if isinstance(value, (int, float)):
        try:
            x = float(value)
        except OverflowError as exc:
            raise ScalarError(f"bad float scalar {value!r}: {exc}") from exc
        if not math.isfinite(x):
            raise ScalarError(f"non-finite float scalar {value!r}")
        return x
    raise ScalarError(f"bad scalar {value!r}")


def format_scalar(x):
    """Inverse of :func:`parse_scalar` (exact values as strings)."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(Fraction(x))
    if isinstance(x, float):
        return x
    raise ScalarError(f"cannot serialize scalar {x!r}")


def decimal_str(x, digits: int = 12) -> str:
    """12-significant-digit decimal rendering used in reports."""
    return f"{float(x):.{digits}g}"


def _as_coeff(x):
    if isinstance(x, MPoly):
        raise ScalarError("coefficient must not be a polynomial")
    if isinstance(x, int):
        return Fraction(x)
    return x


class MPoly:
    """Multivariate polynomial over named variables.

    Terms are stored as a dict mapping a canonical monomial -- a sorted
    tuple of ``(variable, exponent)`` pairs with positive exponents -- to a
    nonzero coefficient (``Fraction`` normally; floats are tolerated so the
    float backend can share code paths).  Instances are immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_coeff(coeff)
                if coeff != 0:
                    clean[tuple(sorted(mono))] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c) -> "MPoly":
        return MPoly({(): c})

    @staticmethod
    def var(name: str) -> "MPoly":
        return MPoly({((name, 1),): Fraction(1)})

    @staticmethod
    def coerce(x) -> "MPoly":
        if isinstance(x, MPoly):
            return x
        return MPoly.const(x)

    # -- structure -------------------------------------------------------

    def variables(self):
        names = set()
        for mono in self.terms:
            names.update(v for v, _ in mono)
        return sorted(names)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant(self):
        """Value as a plain scalar; raises unless the polynomial is constant."""
        if not self.terms:
            return Fraction(0)
        if not self.is_const():
            raise ScalarError(f"not a constant polynomial: {self}")
        return self.terms[()]

    def degree(self, name: str) -> int:
        best = 0
        for mono in self.terms:
            for v, e in mono:
                if v == name:
                    best = max(best, e)
        return best

    def coefficient(self, monomial: dict) -> Fraction:
        """Coefficient of the exact monomial ``{var: exp, ...}``."""
        key = tuple(sorted((v, e) for v, e in monomial.items() if e))
        return self.terms.get(key, Fraction(0))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = MPoly.coerce(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return MPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MPoly.coerce(other))

    def __rsub__(self, other):
        return MPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = MPoly.coerce(other)
        terms = {}
        for m1, c1 in self.terms.items():
            e1 = dict(m1)
            for m2, c2 in other.terms.items():
                e = dict(e1)
                for v, k in m2:
                    e[v] = e.get(v, 0) + k
                mono = tuple(sorted(e.items()))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return MPoly(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_coeff(other)
        return MPoly({m: c / other for m, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ScalarError("negative polynomial power")
        out = MPoly.const(Fraction(1))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.terms == other.terms
        if isinstance(other, (int, float, Fraction)):
            return (self - other).is_zero()
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus & evaluation -------------------------------------------

    def diff(self, name: str) -> "MPoly":
        terms = {}
        for mono, c in self.terms.items():
            e = dict(mono)
            k = e.get(name, 0)
            if not k:
                continue
            if k == 1:
                del e[name]
            else:
                e[name] = k - 1
            key = tuple(sorted(e.items()))
            terms[key] = terms.get(key, 0) + c * k
        return MPoly(terms)

    def subs(self, values: dict):
        """Substitute scalars for some variables.

        Returns a plain scalar when no variables remain, else an
        :class:`MPoly` in the surviving variables.
        """
        terms = {}
        for mono, c in self.terms.items():
            rest = {}
            for v, e in mono:
                if v in values:
                    c = c * values[v] ** e
                else:
                    rest[v] = e
            key = tuple(sorted(rest.items()))
            terms[key] = terms.get(key, 0) + c
        out = MPoly(terms)
        if out.variables():
            return out
        return out.constant()

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            vars_part = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            if vars_part:
                bits.append(f"({c})*{vars_part}" if c != 1 else vars_part)
            else:
                bits.append(f"({c})")
        return " + ".join(bits)

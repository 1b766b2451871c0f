"""Local edge statistics from blocks of the inverse Kasteleyn matrix.

For an edge e = (w, b) the probability matrix is the block product
P_e = K^{[b],[w]} ε(e) wt(e); its trace is the expected multiplicity and
det(I + (t-1) P_e) is the probability generating function.  Everything
else - exact pmf, moments, variance, multi-edge product expectations,
covariances and joint generating functions - is derived from traces and
characteristic coefficients, never from eigenvalues, so the rational
backend stays exact end to end.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graph import EmbeddedGraph, GraphError
from .kasteleyn import KasteleynSystem
from .linalg import Matrix, char_coeffs, det, inverse
from .oracle import DEFAULT_COVER_CAP, oracle_cover_table
from .scalars import MPoly

PSI_MAX = 8  # k! enumeration guard


def probability_matrix(sys: KasteleynSystem, eid: int) -> Matrix:
    """P_e, an n_b x n_b matrix; for n = 1 this is the edge probability."""
    e = sys.graph.edges[eid]
    return sys.block_inverse(e.white, e.black) @ sys.edge_block(eid)


def cycle_probability_matrix(sys: KasteleynSystem, cycle) -> Matrix:
    """Alternating product K_{[w1],[b1]} K^{[b1],[w2]} ... K^{[bk],[w1]}.

    ``cycle`` is an ordered list of edge ids; for k = 1 this is the
    trace-twin of P_e (same trace, factors swapped).
    """
    cycle = list(cycle)
    if not cycle:
        raise GraphError("empty cycle list")
    g = sys.graph
    acc = None
    k = len(cycle)
    for t, eid in enumerate(cycle):
        e = g.edges[eid]
        nxt = g.edges[cycle[(t + 1) % k]]
        step = sys.edge_block(eid) @ sys.block_inverse(nxt.white, e.black)
        acc = step if acc is None else acc @ step
    return acc


@dataclass
class Distribution:
    """Exact pmf of an edge multiplicity over 0..n."""

    masses: list

    def __post_init__(self):
        total = Fraction(0)
        for m in self.masses:
            total = total + m
        self.total = total

    @property
    def has_negative(self) -> bool:
        # negative "probabilities" signal non-positive weights; reported, not rejected
        return any(m < 0 for m in self.masses)

    def __getitem__(self, k):
        return self.masses[k]

    def __len__(self):
        return len(self.masses)

    def __iter__(self):
        return iter(self.masses)

    def mean(self):
        acc = Fraction(0)
        for k, m in enumerate(self.masses):
            acc = acc + k * m
        return acc

    def moment(self, power: int):
        acc = Fraction(0)
        for k, m in enumerate(self.masses):
            acc = acc + k**power * m
        return acc


def edge_pgf(p: Matrix) -> MPoly:
    """det(I + (t-1) P_e) as a polynomial in the formal variable t."""
    es = char_coeffs(p)
    t = MPoly.var("t")
    shift = t - 1
    acc = MPoly.const(0)
    power = MPoly.const(Fraction(1))
    for k, ek in enumerate(es):
        acc = acc + power * ek
        power = power * shift
    return acc


def multiplicity_distribution(p: Matrix, es=None) -> Distribution:
    """pmf via the division-free alternating-binomial formula.

    Pr[m = k] = sum_{i>=k} (-1)^(i-k) C(i,k) e_i(P_e); pass ``es`` when
    char_coeffs(p) is already at hand.
    """
    if es is None:
        es = char_coeffs(p)
    n = p.rows
    masses = []
    for k in range(n + 1):
        acc = Fraction(0)
        for i in range(k, n + 1):
            term = _binom(i, k) * es[i]
            acc = acc + (term if (i - k) % 2 == 0 else -term)
        masses.append(acc)
    return Distribution(masses)


def distribution_via_success_odds(p: Matrix) -> Distribution:
    """Cross-check (a): det(I-P) e_k(P (I-P)^{-1}); needs I-P invertible."""
    n = p.rows
    ident = Matrix.identity(n)
    base = det(ident - p)
    odds = char_coeffs(p @ inverse(ident - p))
    return Distribution([base * ek for ek in odds])


def distribution_via_failure_odds(p: Matrix) -> Distribution:
    """Cross-check (b): det(P) e_{n-k}(P^{-1} - I); needs P invertible."""
    n = p.rows
    base = det(p)
    odds = char_coeffs(inverse(p) - Matrix.identity(n))
    return Distribution([base * odds[n - k] for k in range(n + 1)])


def pr_used(p: Matrix):
    """Pr[m_e != 0] = 1 - det(I - P_e)."""
    return 1 - det(Matrix.identity(p.rows) - p)


def expected_multiplicity(p: Matrix):
    return p.trace()


def variance(p: Matrix):
    return p.trace() - (p @ p).trace()


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if n == k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def moment(p: Matrix, power: int):
    """E[m_e^N] = sum_k k! S(N,k) e_k(P_e) with Stirling numbers S."""
    if power < 1:
        raise ValueError("moment order must be >= 1")
    es = char_coeffs(p)
    acc = Fraction(0)
    for k in range(1, min(power, p.rows) + 1):
        acc = acc + _factorial(k) * _stirling2(power, k) * es[k]
    return acc


def _cycles(perm):
    """Cycle decomposition of a permutation given as a tuple of images."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        cycles.append(cyc)
    return cycles


def psi(matrices) -> object:
    """sum over permutations of sign times the product of cycle traces.

    psi_k(A_1..A_k) = sum_{sigma in S_k} sign(sigma)
    prod_{cycles c} tr(prod_{i in c} A_i), cycles traversed in sigma's
    orbit order.  Guarded at k <= 8 (k! enumeration).
    """
    matrices = list(matrices)
    k = len(matrices)
    if k == 0:
        raise ValueError("psi of no matrices")
    if k > PSI_MAX:
        raise ValueError(f"psi guard: k = {k} > {PSI_MAX}")
    total = None
    for perm in itertools.permutations(range(k)):
        cycles = _cycles(perm)
        sign = -1 if (k - len(cycles)) % 2 else 1
        term = None
        for cyc in cycles:
            prod = None
            for i in cyc:
                prod = matrices[i] if prod is None else prod @ matrices[i]
            tr = prod.trace()
            term = tr if term is None else term * tr
        term = term if sign == 1 else -term
        total = term if total is None else total + term
    return total


def product_expectation(sys: KasteleynSystem, edge_ids):
    """E[m_1 ... m_k] for distinct edges via the cycle-trace expansion."""
    edge_ids = list(edge_ids)
    k = len(edge_ids)
    if len(set(edge_ids)) != k:
        raise GraphError("product_expectation needs distinct edges")
    if k > PSI_MAX:
        raise ValueError(f"psi guard: k = {k} > {PSI_MAX}")
    total = None
    trace_cache = {}

    def cycle_trace(cyc):
        key = tuple(cyc)
        if key not in trace_cache:
            trace_cache[key] = cycle_probability_matrix(
                sys, [edge_ids[i] for i in cyc]
            ).trace()
        return trace_cache[key]

    for perm in itertools.permutations(range(k)):
        cycles = _cycles(perm)
        sign = -1 if (k - len(cycles)) % 2 else 1
        term = None
        for cyc in cycles:
            tr = cycle_trace(_canonical_rotation(cyc))
            term = tr if term is None else term * tr
        term = term if sign == 1 else -term
        total = term if total is None else total + term
    return total


def _canonical_rotation(cyc):
    # rotate so the smallest index leads; trace is rotation-invariant
    i = cyc.index(min(cyc))
    return cyc[i:] + cyc[:i]


def covariance(sys: KasteleynSystem, e1: int, e2: int):
    """Cov(m_1, m_2) = -tr(K_{[w1],[b1]} K^{[b1],[w2]} K_{[w2],[b2]} K^{[b2],[w1]})."""
    if e1 == e2:
        raise GraphError("covariance needs two distinct edges (use variance)")
    return -cycle_probability_matrix(sys, [e1, e2]).trace()


def edge_variable(eid: int) -> str:
    return f"t{eid}"


def joint_pgf(sys: KasteleynSystem, edge_ids, max_marked: int = 4) -> MPoly:
    """det(K^{-1} K~) with the marked edges' blocks scaled by formal t_e.

    The result is the joint probability generating function: the
    coefficient of prod t_e^{k_e} is Pr[m_e = k_e for all marked e].
    Computed over the polynomial scalar on the sub-block where K^{-1} K~
    differs from the identity, so the determinant size is the sum of the
    marked black multiplicities.
    """
    edge_ids = list(edge_ids)
    if len(set(edge_ids)) != len(edge_ids):
        raise GraphError("joint_pgf needs distinct edges")
    if len(edge_ids) > max_marked:
        raise GraphError(f"joint_pgf guard: {len(edge_ids)} > {max_marked} marked edges")
    if not edge_ids:
        return MPoly.const(Fraction(1))
    g = sys.graph
    # flat black indices where any marked block column lives
    marked_blacks = []
    for eid in edge_ids:
        b = g.edges[eid].black
        if b not in marked_blacks:
            marked_blacks.append(b)
    marked_blacks.sort()
    spans = {}
    offset = 0
    for b in marked_blacks:
        nb = g.vertices[b].multiplicity
        spans[b] = (offset, nb)
        offset += nb
    size = offset
    a = [
        [MPoly.const(Fraction(1)) if r == c else MPoly.const(0) for c in range(size)]
        for r in range(size)
    ]
    for eid in edge_ids:
        e = g.edges[eid]
        t = MPoly.var(edge_variable(eid))
        shift = t - 1
        block = sys.edge_block(eid)  # n_w x n_b
        c0, nb = spans[e.black]
        for b_row in marked_blacks:
            r0, nr = spans[b_row]
            contrib = sys.block_inverse(e.white, b_row) @ block  # n_{b_row} x n_b
            for r in range(nr):
                for c in range(nb):
                    if contrib.data[r][c] != 0:
                        a[r0 + r][c0 + c] = a[r0 + r][c0 + c] + shift * contrib.data[r][c]
    return det(Matrix(a))


def joint_distribution(sys: KasteleynSystem, edge_ids) -> dict:
    """{multiplicity tuple -> probability} for the marked edges."""
    edge_ids = list(edge_ids)
    pgf = joint_pgf(sys, edge_ids)
    names = [edge_variable(eid) for eid in edge_ids]
    out = {}
    for mono, coeff in pgf.coeff_map():
        key = tuple(mono.get(nm, 0) for nm in names)
        out[key] = out.get(key, Fraction(0)) + coeff
    return out


def sample_cover(g: EmbeddedGraph, seed: int, cap: int = DEFAULT_COVER_CAP, table=None):
    """One exact draw from the cover measure (enumeration-backed).

    Requires nonnegative weights and Z > 0; uses a seeded uniform in
    [0, 1) with 64 bits, walked down the exact cumulative weights.
    """
    covers, weights, z = table if table is not None else oracle_cover_table(g, cap=cap)
    if any(w < 0 for w in weights) or z <= 0:
        raise GraphError("cover weights are not a probability measure; cannot sample")
    rng = random.Random(seed)
    u = Fraction(rng.getrandbits(64), 2**64) * z
    acc = Fraction(0)
    for cover, w in zip(covers, weights):
        acc = acc + w
        if u < acc:
            return cover
    return covers[-1]

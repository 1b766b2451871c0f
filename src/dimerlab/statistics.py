"""Local edge statistics from blocks of the inverse Kasteleyn matrix.

For an edge e = (w, b) the probability matrix is the block product
P_e = K^{[b],[w]} ε(e) wt(e); its trace is the expected multiplicity and
det(I + (t-1) P_e) is the probability generating function.  The exact
pmf, moments, variance and covariances are derived from traces and
characteristic coefficients, never from eigenvalues, so the rational
backend stays exact end to end.  Multi-edge product expectations and
joint distributions are sums of principal minors of the marked-edge
matrix G (:func:`marked_matrix`), since det(K^{-1} K~) = det(I + S G);
their cost is exponential in the size of G.  Nothing here imports the
enumeration oracle; the two routes meet only in ``certify`` and the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graph import GraphError
from .kasteleyn import KasteleynSystem
from .linalg import Matrix, char_coeffs, det, inverse
from .scalars import MPoly

PSI_MAX = 8  # k! enumeration guard
MAX_MINORS = 2**14  # principal minors one minor_sums call may take
MAX_MARKED = 4  # marked edges in a joint distribution


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

    @property
    def total(self):
        return sum(self.masses, Fraction(0))

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
        return sum((k * m for k, m in enumerate(self.masses)), Fraction(0))


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
            term = math.comb(i, k) * es[i]
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


def moment(p: Matrix, power: int):
    """E[m_e^N] = sum_k k! S(N,k) e_k(P_e) with Stirling numbers S."""
    if power < 1:
        raise ValueError("moment order must be >= 1")
    es = char_coeffs(p)
    ks = range(1, min(power, p.rows) + 1)
    return sum((math.factorial(k) * _stirling2(power, k) * es[k] for k in ks), Fraction(0))


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


def marked_matrix(sys: KasteleynSystem, edge_ids):
    """(G, spans): the marked-edge matrix and the row range of each edge's block.

    G_ef = wt(e) ε(e) K^{[b_e],[w_f]} is n_{w_e} x n_{w_f}, the step of
    :func:`cycle_probability_matrix` from e to f; G has size d = sum n_{w_e}.
    By Sylvester's identity det(K^{-1} K~) = det(I + S G) with
    S = diag((t_e - 1) I), so every multi-edge statistic is a function of G.
    """
    g = sys.graph
    edges = [g.edges[eid] for eid in edge_ids]
    rows, spans = [], []
    for e in edges:
        blk = sys.edge_block(e.id)
        parts = [blk @ sys.block_inverse(f.white, e.black) for f in edges]
        spans.append(range(len(rows), len(rows) + blk.rows))
        rows.extend([x for p in parts for x in p.data[r]] for r in range(blk.rows))
    return Matrix(rows), spans


def minor_sums(gm: Matrix, spans, counts) -> dict:
    """{j: sum of det G[R,R] over row sets R taking j_e rows from block e}.

    ``counts[e]`` lists the j_e to enumerate for the block with rows
    ``spans[e]``.  The sum for j is the coefficient of prod s_e^{j_e} in
    det(I + S G), S = diag(s_e I).  Like a mixed discriminant it costs
    exponentially many determinants in the size of G, hence the
    ``MAX_MINORS`` guard on their number.
    """
    choices = [
        [(j, rows) for j in js for rows in itertools.combinations(span, j)]
        for span, js in zip(spans, counts)
    ]
    if math.prod(len(c) for c in choices) > MAX_MINORS:
        raise GraphError(f"minor guard: more than {MAX_MINORS} principal minors of G")
    sums = {}
    for pick in itertools.product(*choices):
        key = tuple(j for j, _ in pick)
        rows = [r for _, rs in pick for r in rs]
        sums[key] = sums.get(key, 0) + det(gm.submatrix(rows, rows))
    return sums


def marked_product(gm: Matrix, spans):
    """E[prod m_e] over the blocks ``spans`` of G: one row from each block."""
    k = len(spans)
    return minor_sums(gm, spans, [(1,)] * k)[(1,) * k]


def product_expectation(sys: KasteleynSystem, edge_ids):
    """E[m_1 ... m_k] for distinct edges as a sum of principal minors of G.

    That is prod n_{w_e} determinants of size k; at n = 1 it is Kenyon's
    k x k determinant.  The cost is exponential in k; more than
    ``MAX_MINORS`` determinants raise :class:`GraphError`.
    """
    edge_ids = list(edge_ids)
    if len(set(edge_ids)) != len(edge_ids):
        raise GraphError("product_expectation needs distinct edges")
    return marked_product(*marked_matrix(sys, edge_ids))


def covariance(sys: KasteleynSystem, e1: int, e2: int):
    """Cov(m_1, m_2) = -tr(K_{[w1],[b1]} K^{[b1],[w2]} K_{[w2],[b2]} K^{[b2],[w1]})."""
    if e1 == e2:
        raise GraphError("covariance needs two distinct edges (use variance)")
    return -cycle_probability_matrix(sys, [e1, e2]).trace()


def edge_variable(eid: int) -> str:
    return f"t{eid}"


def joint_pgf(sys: KasteleynSystem, edge_ids) -> MPoly:
    """det(K^{-1} K~) with the marked edges' blocks scaled by formal t_e.

    The coefficient of prod t_e^{k_e} is Pr[m_e = k_e for all marked e];
    see :func:`joint_distribution`.
    """
    edge_ids = list(edge_ids)
    names = [edge_variable(eid) for eid in edge_ids]
    dist = joint_distribution(sys, edge_ids)
    return MPoly({tuple((v, k) for v, k in zip(names, key) if k): p for key, p in dist.items()})


def joint_distribution(sys: KasteleynSystem, edge_ids) -> dict:
    """{multiplicity tuple -> probability} for the marked edges (nonzero only).

    c_j, the coefficient of prod (t_e - 1)^{j_e}, is the sum of principal
    minors of G from :func:`minor_sums`, for every j with j_e <=
    min(n_{w_e}, n_{b_e}) (block e has at most that rank, so larger j
    vanish); then Pr[k] = sum_{j>=k} c_j prod (-1)^(j_e-k_e) C(j_e, k_e).
    The cost is exponential in the size of G, hence the ``MAX_MARKED``
    guard on the number of marked edges.
    """
    edge_ids = list(edge_ids)
    if len(set(edge_ids)) != len(edge_ids):
        raise GraphError("joint_pgf needs distinct edges")
    if len(edge_ids) > MAX_MARKED:
        raise GraphError(f"joint_pgf guard: {len(edge_ids)} > {MAX_MARKED} marked edges")
    caps = [min(sys.graph.edges[eid].weight.shape) for eid in edge_ids]
    sums = minor_sums(*marked_matrix(sys, edge_ids), [range(c + 1) for c in caps])
    for e in range(len(edge_ids)):  # the change of basis, one edge at a time
        out = {}
        for j, c in sums.items():
            for k in range(j[e] + 1):
                key = j[:e] + (k,) + j[e + 1 :]
                out[key] = out.get(key, 0) + (-1) ** (j[e] - k) * math.comb(j[e], k) * c
        sums = out
    return {key: p for key, p in sums.items() if p}

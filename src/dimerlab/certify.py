"""Where the two routes meet: determinant statistics checked against the oracle.

``certify_graph`` compares |det K|, every edge pmf and every pair product
E[m_a m_b] (read from the marked-edge matrix G) with one oracle joint pmf
over all edges; ``certify_move`` checks a move certificate.  Every
comparison is :func:`agree`: exact, or within ``FLOAT_TOL`` on floats.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .kasteleyn import assemble
from .linalg import Matrix
from .oracle import DEFAULT_COVER_CAP, oracle_cover_table, oracle_joint
from .statistics import marked_matrix, marked_product, multiplicity_distribution, probability_matrix

FLOAT_TOL = 1e-9
PASS, FAIL = "PASS", "FAIL"


def agree(x, y) -> bool:
    """x == y, or |x - y| <= FLOAT_TOL * max(1, |y|) if either is a float; entrywise on lists."""
    if isinstance(x, Matrix) and isinstance(y, Matrix):
        x, y = x.data, y.data
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(map(agree, x, y))
    if isinstance(x, float) or isinstance(y, float):
        return abs(x - y) <= FLOAT_TOL * max(1.0, abs(y))
    return x == y


def certify_graph(g, cap: int = DEFAULT_COVER_CAP, transpose_minors: bool = False) -> dict:
    """{"covers", "checks": [(name, passed, info)], "verdict"}.

    Z first; the pmf and pair checks follow only when the oracle's Z is nonzero.
    """
    sys_ = assemble(g)
    table = oracle_cover_table(g, cap=cap, transpose_minors=transpose_minors)
    z_det, z_abs = sys_.partition_function(), abs(table[2])
    checks = [("partition |det K| == |oracle Z|", agree(z_det, z_abs), f"{z_det} vs {z_abs}")]
    if table[2] != 0:
        eids = sorted(g.edges)
        pmfs = [[Fraction(0)] * (g.vertices[g.edges[e].black].multiplicity + 1) for e in eids]
        pairs = {}
        for key, p in oracle_joint(g, eids, table).items():
            for i, k in enumerate(key):
                pmfs[i][k] += p
            used = [(i, k) for i, k in enumerate(key) if k]
            for (i, ki), (j, kj) in itertools.combinations(used, 2):
                pairs[i, j] = pairs.get((i, j), 0) + p * ki * kj
        for eid, o in zip(eids, pmfs):
            pmf = list(multiplicity_distribution(probability_matrix(sys_, eid)))
            checks.append((f"pmf edge {eid}", agree(pmf, o), f"{[str(x) for x in pmf]}"))
        gm, spans = marked_matrix(sys_, eids)
        for (i, a), (j, b) in itertools.combinations(enumerate(eids), 2):
            lhs = marked_product(gm, [spans[i], spans[j]])
            checks.append((f"E[m{a} m{b}]", agree(lhs, pairs.get((i, j), 0)), f"{lhs}"))
    ok = all(passed for _, passed, _ in checks)
    return {"covers": len(table[0]), "checks": checks, "verdict": PASS if ok else FAIL}


def certify_move(cert) -> dict:
    """{"z_relation": Z(after) == factor * Z(before), "untouched": {eid: P_e unchanged}}.

    Untouched edges survive the move with their weight, and at most one of
    their endpoints is a vertex the move touched.
    """
    g, g2 = cert.before, cert.after
    touched = cert.details.get("touched_vertices", set())
    untouched = [
        eid
        for eid, e in sorted(g.edges.items())
        if eid in g2.edges
        and (e.white not in touched or e.black not in touched)
        and g2.edges[eid].weight == e.weight
    ]
    sys1, sys2 = assemble(g), assemble(g2)
    return {
        "z_relation": agree(sys2.partition_function(), cert.factor * sys1.partition_function()),
        "untouched": {
            eid: agree(probability_matrix(sys1, eid), probability_matrix(sys2, eid))
            for eid in untouched
        },
    }

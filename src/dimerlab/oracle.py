"""Brute-force ground truth, independent of any determinant.

Covers are enumerated by backtracking over edges with residual vertex
capacities.  A cover's weight is the signed sum over half-edge colorings
of products of minors of the edge weights: the minor of an edge takes
rows from the colors at its white end and columns from the colors at its
black end, both in increasing order.  The per-vertex sign reads the colors
in cilium order (counterclockwise at black vertices, clockwise at white)
and multiplies the parities of the resulting words.

``cover_weight`` evaluates that sum by sweeping vertices with a frontier
state (color sets on edges whose other endpoint is still pending), which
is exact and avoids enumerating the full cartesian product of vertex
arrangements; ``enumerate_colorings`` still provides the raw product for
census checks.  ``sweep_order`` picks the vertex order: among the
insertion order and a BFS from each vertex, the smallest peak of open
edges, then the smallest sum (ties keep the earlier candidate).  An edge
whose entries are exact enters as d_e W_e, d_e the lcm of its entry
denominators, so the sweep adds and multiplies Python ints; each cover
divides once by the product of d_e^{m_e}.  Float and polynomial entries
take d_e = 1.  ``oracle_cover_table`` shares one memo (order, scales,
minors, per-vertex deals) across the covers of one call; nothing is kept
between calls.

The one statistic is ``oracle_joint``, the joint pmf of listed edges over
the cover table; pmfs, moments and products are sums over it, and
``sample_cover`` draws from the same table.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .graph import BLACK, WHITE, EmbeddedGraph, GraphError
from .linalg import minor

DEFAULT_COVER_CAP = 10**6
DEFAULT_COLORING_CAP = 10**7


class EnumerationCapError(GraphError):
    pass


def enumerate_covers(g: EmbeddedGraph, cap: int = DEFAULT_COVER_CAP):
    """All cover multiplicity maps, duplicate-free, in deterministic order."""
    edge_ids = sorted(g.edges)
    res = {v.id: v.multiplicity for v in g.vertices.values()}
    rem = {v.id: v.degree for v in g.vertices.values()}
    # static per-edge capacity, for a cheap feasibility lookahead
    cap_of = {
        eid: min(
            g.vertices[g.edges[eid].white].multiplicity,
            g.vertices[g.edges[eid].black].multiplicity,
        )
        for eid in edge_ids
    }
    avail = {v.id: 0 for v in g.vertices.values()}
    for eid in edge_ids:
        e = g.edges[eid]
        avail[e.white] += cap_of[eid]
        avail[e.black] += cap_of[eid]
    out = []
    assign = {}

    def backtrack(pos: int):
        if pos == len(edge_ids):
            if all(r == 0 for r in res.values()):
                if len(out) >= cap:
                    raise EnumerationCapError(f"cover cap {cap} exceeded")
                out.append(dict(assign))
            return
        eid = edge_ids[pos]
        e = g.edges[eid]
        w, b = e.white, e.black
        rem[w] -= 1
        rem[b] -= 1
        avail[w] -= cap_of[eid]
        avail[b] -= cap_of[eid]
        lo = 0
        if rem[w] == 0:
            lo = max(lo, res[w])
        if rem[b] == 0:
            lo = max(lo, res[b])
        hi = min(res[w], res[b])
        for m in range(lo, hi + 1):
            if res[w] - m > avail[w] or res[b] - m > avail[b]:
                continue
            assign[eid] = m
            res[w] -= m
            res[b] -= m
            backtrack(pos + 1)
            res[w] += m
            res[b] += m
        assign.pop(eid, None)
        rem[w] += 1
        rem[b] += 1
        avail[w] += cap_of[eid]
        avail[b] += cap_of[eid]

    if g.vertices and not g.edges:
        return []  # vertices but nothing to cover them with
    backtrack(0)
    return out


def _used_in_reading_order(g: EmbeddedGraph, vid: int, cover: dict):
    return [eid for eid in g.reading_order(vid) if cover.get(eid, 0) > 0]


def _word_sign(word) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(word, 2))
    return -1 if inversions % 2 else 1


def vertex_arrangements(g: EmbeddedGraph, vid: int, cover: dict):
    """All ways to deal colors 1..n_v to the used half-edges at one vertex.

    Yields ``(assignment, sign)`` where assignment maps edge id to the
    frozen color set on this vertex's side and sign is the parity of the
    word read in cilium order (each edge's colors in increasing order).
    """
    v = g.vertices[vid]
    used = _used_in_reading_order(g, vid, cover)
    mults = [cover[eid] for eid in used]
    if sum(mults) != v.multiplicity:
        raise GraphError(f"cover does not saturate vertex {vid}")
    results = []

    def deal(i: int, pool: tuple, acc):
        if i == len(used):
            word = []
            for eid in used:
                word.extend(sorted(acc[eid]))
            results.append((dict(acc), _word_sign(word)))
            return
        for combo in itertools.combinations(pool, mults[i]):
            acc[used[i]] = frozenset(combo)
            rest = tuple(x for x in pool if x not in combo)
            deal(i + 1, rest, acc)
            del acc[used[i]]

    deal(0, tuple(range(1, v.multiplicity + 1)), {})
    return results


def enumerate_colorings(g: EmbeddedGraph, cover: dict, cap: int = DEFAULT_COLORING_CAP):
    """All half-edge colorings of a cover as ``(coloring, sign)`` pairs.

    A coloring maps each used edge to ``(white_colors, black_colors)``.
    The full cartesian product across vertices; meant for census checks,
    not for weight evaluation (see ``cover_weight``).
    """
    per_vertex = [
        (vid, vertex_arrangements(g, vid, cover)) for vid in g.vertices
    ]
    total = 1
    for _, arrs in per_vertex:
        total *= len(arrs)
    if total > cap:
        raise EnumerationCapError(f"coloring cap {cap} exceeded ({total} colorings)")
    used_edges = [eid for eid, m in cover.items() if m > 0]
    out = []
    for choice in itertools.product(*[arrs for _, arrs in per_vertex]):
        sign = 1
        side = {}
        for (vid, _), (assignment, s) in zip(per_vertex, choice):
            sign *= s
            color = g.vertices[vid].color
            for eid, colors in assignment.items():
                side.setdefault(eid, {})[color] = colors
        coloring = {eid: (side[eid][WHITE], side[eid][BLACK]) for eid in used_edges}
        out.append((coloring, sign))
    return out


def coloring_term(g: EmbeddedGraph, coloring: dict, transpose_minors: bool = False):
    term = Fraction(1)
    for eid, (iw, jb) in coloring.items():
        wt = g.edges[eid].weight
        rows = [c - 1 for c in sorted(iw)]
        cols = [c - 1 for c in sorted(jb)]
        if transpose_minors:
            rows, cols = cols, rows
        term = term * minor(wt, rows, cols)
    return term


def _bfs_order(g: EmbeddedGraph, start: int):
    """Breadth-first vertex order from ``start``, neighbors in rotation order.

    Other components follow, each from its first vertex in insertion order.
    """
    order = []
    seen = set()
    for root in (start, *g.vertices):
        if root in seen:
            continue
        seen.add(root)
        order.append(root)
        i = len(order) - 1
        while i < len(order):
            vid = order[i]
            i += 1
            for eid in g.vertices[vid].rotation:
                other = g.edges[eid].other(vid)
                if other not in seen:
                    seen.add(other)
                    order.append(other)
    return order


def _frontier_profile(g: EmbeddedGraph, order):
    """(peak, sum) over the sweep of the number of edges with one end swept."""
    done = set()
    width = peak = total = 0
    for vid in order:
        for eid in g.vertices[vid].rotation:
            width += -1 if g.edges[eid].other(vid) in done else 1
        done.add(vid)
        peak = max(peak, width)
        total += width
    return peak, total


def sweep_order(g: EmbeddedGraph):
    """The vertex order of the cover sweep.

    Candidates are the insertion order and a BFS from each vertex; the one
    with the smallest peak of open edges wins, then the smallest sum.  Ties
    keep the earlier candidate.
    """
    candidates = [list(g.vertices)] + [_bfs_order(g, vid) for vid in g.vertices]
    return min(candidates, key=lambda order: _frontier_profile(g, order))


def _edge_scale(weight) -> int:
    """lcm of the entry denominators; 1 unless every entry is exact."""
    d = 1
    for row in weight.data:
        for x in row:
            if isinstance(x, Fraction):
                d = math.lcm(d, x.denominator)
            elif not isinstance(x, int):
                return 1
    return d


def _sweep_memo(g: EmbeddedGraph) -> dict:
    order = sweep_order(g)
    return {
        "order": order,
        "pos": {vid: i for i, vid in enumerate(order)},
        "reading": {vid: g.reading_order(vid) for vid in order},
        "scale": {eid: _edge_scale(e.weight) for eid, e in g.edges.items()},
        "minors": {},  # (edge id, rows, cols) -> minor of d_e W_e
        "arrangements": {},  # (vertex id, incident multiplicities) -> split deals
    }


def _colors(colors) -> tuple:
    return tuple(c - 1 for c in sorted(colors))


def _split_arrangements(g: EmbeddedGraph, vid: int, cover: dict, memo: dict):
    """(closing edges, opening edges, deals) at one vertex of the sweep.

    An edge closes here when its other end was swept earlier.  Each deal is
    (negate, closing color tuples, opening color tuples), colors 0-based.
    """
    reading = memo["reading"][vid]
    key = (vid, tuple(cover.get(eid, 0) for eid in reading))
    split = memo["arrangements"].get(key)
    if split is None:
        pos = memo["pos"]
        used = [eid for eid in reading if cover.get(eid, 0) > 0]
        closing = [eid for eid in used if pos[g.edges[eid].other(vid)] < pos[vid]]
        opening = [eid for eid in used if eid not in closing]
        deals = [
            (
                sign < 0,
                tuple(_colors(assignment[eid]) for eid in closing),
                tuple(_colors(assignment[eid]) for eid in opening),
            )
            for assignment, sign in vertex_arrangements(g, vid, cover)
        ]
        split = memo["arrangements"][key] = (closing, opening, deals)
    return split


def _scaled_minor(g: EmbeddedGraph, eid: int, rows, cols, d: int):
    """Minor of d_e W_e: a Python int when the weight is exact."""
    m = minor(g.edges[eid].weight, rows, cols)
    if d != 1:
        m = m * d ** len(rows)
    if isinstance(m, Fraction) and m.denominator == 1:
        return m.numerator
    return m


def cover_weight(
    g: EmbeddedGraph,
    cover: dict,
    transpose_minors: bool = False,
    memo: dict | None = None,
):
    """Weight of one cover: sum over colorings of sign times minor products.

    Evaluated with a frontier sweep over vertices in :func:`sweep_order`;
    exact, and polynomial in the frontier width instead of the coloring
    count.  A state maps the color tuples on the open edges, in frontier
    order, to a partial sum.  Exact edge weights enter as the integer
    matrices d_e W_e (d_e the lcm of their denominators), and the sum is
    divided once by the product of d_e^{m_e}.

    ``transpose_minors`` deliberately swaps the row/column convention of
    the edge minors (a negative control: the determinant identity must
    then fail on non-symmetric weights).  ``memo`` holds the order, the
    scales, the scaled minors and the per-vertex deals; pass one dict for
    every cover of ``g``.
    """
    if memo is None:
        memo = {}
    if not memo:
        memo.update(_sweep_memo(g))
    scale, minors = memo["scale"], memo["minors"]
    frontier = []  # open edge ids, aligned with every state key
    states = {(): 1}
    for vid in memo["order"]:
        closing, opening, deals = _split_arrangements(g, vid, cover, memo)
        white = g.vertices[vid].color == WHITE
        close_at = [frontier.index(eid) for eid in closing]
        keep_at = [i for i in range(len(frontier)) if i not in close_at]
        new_states = {}
        for key, acc in states.items():
            kept = tuple(key[i] for i in keep_at)
            held = [key[i] for i in close_at]
            for negate, own, fresh in deals:
                term = -acc if negate else acc
                for eid, theirs, mine in zip(closing, held, own):
                    rows, cols = (mine, theirs) if white else (theirs, mine)
                    if transpose_minors:
                        rows, cols = cols, rows
                    mkey = (eid, rows, cols)
                    m = minors.get(mkey)
                    if m is None:
                        m = minors[mkey] = _scaled_minor(g, eid, rows, cols, scale[eid])
                    if m == 0:
                        break
                    term = term * m
                else:
                    new_key = kept + fresh
                    if new_key in new_states:
                        new_states[new_key] = new_states[new_key] + term
                    else:
                        new_states[new_key] = term
        states = new_states
        if not states:
            return Fraction(0)
        frontier = [frontier[i] for i in keep_at] + opening
    total = states[()]
    den = math.prod(scale[eid] ** m for eid, m in cover.items())
    if isinstance(total, int):
        return Fraction(total, den)
    return total / den if den != 1 else total


def oracle_cover_table(
    g: EmbeddedGraph,
    cap: int = DEFAULT_COVER_CAP,
    transpose_minors: bool = False,
):
    """(covers, weights, Z) by direct enumeration.

    ``transpose_minors`` (see :func:`cover_weight`) needs square edge weights.
    """
    for eid, e in sorted(g.edges.items()):
        if transpose_minors and not e.weight.is_square():
            rows, cols = e.weight.shape
            raise GraphError(f"transposed minors need square weights; edge {eid} is {rows}x{cols}")
    covers = enumerate_covers(g, cap=cap)
    memo = {}
    weights = [cover_weight(g, w, transpose_minors, memo) for w in covers]
    return covers, weights, sum(weights, Fraction(0))


def oracle_partition(g: EmbeddedGraph):
    """Z as the plain sum of cover weights (signed; |.| matches |det K|)."""
    return oracle_cover_table(g)[2]


def oracle_joint(g: EmbeddedGraph, edge_ids, table=None) -> dict:
    """{multiplicity tuple -> probability} for the listed edges (nonzero only).

    One pass over ``table`` (or a fresh enumeration); repeated edges are
    allowed.  Z = 0 raises :class:`GraphError`: there is no measure.
    """
    edge_ids = list(edge_ids)
    covers, weights, z = table if table is not None else oracle_cover_table(g)
    if z == 0:
        raise GraphError("oracle partition function is zero; no probability measure")
    masses = {}
    for cover, w in zip(covers, weights):
        key = tuple(cover.get(eid, 0) for eid in edge_ids)
        masses[key] = masses.get(key, 0) + w
    return {key: m / z for key, m in masses.items() if m}


def oracle_distribution(g: EmbeddedGraph, eid: int, table=None):
    """Exact pmf of one edge multiplicity as a list Pr[m = 0..n_b].

    Sized by the black-endpoint multiplicity to align with the
    probability-matrix route (P_e is n_b x n_b); entries beyond
    min(n_w, n_b) are structural zeros.
    """
    masses = [Fraction(0)] * (g.vertices[g.edges[eid].black].multiplicity + 1)
    for (k,), p in oracle_joint(g, [eid], table).items():
        masses[k] = p
    return masses


def oracle_product_expectation(g: EmbeddedGraph, edge_ids, table=None):
    """E[prod m_e] over the listed edges (repeats allowed: plain moments)."""
    return sum(p * math.prod(key) for key, p in oracle_joint(g, edge_ids, table).items())


def oracle_moment(g: EmbeddedGraph, eid: int, power: int, table=None):
    """E[m_e^power]: the product expectation of ``power`` copies of one edge."""
    return oracle_product_expectation(g, [eid] * power, table=table)


def sample_cover(g: EmbeddedGraph, seed: int, table=None):
    """One exact draw from the cover measure.

    Requires nonnegative weights and Z > 0; uses a seeded uniform in
    [0, 1) with 64 bits, walked down the exact cumulative weights.
    """
    covers, weights, z = table if table is not None else oracle_cover_table(g)
    if any(w < 0 for w in weights) or z <= 0:
        raise GraphError("cover weights are not a probability measure; cannot sample")
    rng = random.Random(seed)
    u = Fraction(rng.getrandbits(64), 2**64) * z
    for cover, acc in zip(covers, itertools.accumulate(weights)):
        if u < acc:
            return cover
    return covers[-1]

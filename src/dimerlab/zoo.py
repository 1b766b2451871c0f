"""Worked model families: 2xN grids, snake graphs, six-vertex ice.

Each generator places its vertices at integer points and lets :func:`embed`
derive the rotation system and the cilia.  The grid generator is the
workhorse: with per-column multiplicities and arbitrary coupler shapes it
also produces the single edge (N = 0), the 4-cycle (N = 1) and the
mixed-multiplicity example.  Grid closed forms (probability matrices and
covariances through noncommutative continued fractions) assume horizontal
weights gauged to the identity; the generator itself takes arbitrary
weights.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .graph import BLACK, WHITE, Edge, EmbeddedGraph, GraphError, Vertex
from .linalg import Matrix, det, inverse
from .moves import contract, gauge_certificate, parallel_reduce


# ---------------------------------------------------------------------------
# straight-line embedding of integer points
# ---------------------------------------------------------------------------


def _ccw_key(x, y):
    """Exact sort key of the direction (x, y) by its angle ccw from east."""
    return (y < 0 or (y == 0 and x < 0), y != 0, Fraction(-x, y) if y else 0)


def embed(pos, colors, mults, edges, witness, cilia=None, connection=None) -> EmbeddedGraph:
    """Graph whose edges are straight segments between integer points.

    ``pos``, ``colors`` and ``mults`` map each vertex id, in vertex order,
    to its point, color and multiplicity; ``edges`` are the Edges in edge
    order, labeled by ``Edge.label``.  Each rotation lists a vertex's edges
    counterclockwise from east.  ``cilia`` maps each vertex id to a
    direction, and the cilium goes to the corner that holds it; with
    ``cilia=None`` each cilium sits at its vertex's first outer-face corner.
    """
    key = lru_cache(maxsize=None)(_ccw_key)  # a few directions recur; cache per call
    around = {v: [] for v in pos}
    for e in edges:
        (wx, wy), (bx, by) = pos[e.white], pos[e.black]
        around[e.white].append((key(bx - wx, by - wy), e.id))
        around[e.black].append((key(wx - bx, wy - by), e.id))
    vertices = []
    for v in pos:
        keys = sorted(around[v])
        if any(a[0] == b[0] for a, b in zip(keys, keys[1:])):
            raise GraphError(f"vertex {v}: two edges leave in the same direction")
        corner = 0
        if cilia is not None and keys:
            corner = bisect_left(keys, (key(*cilia[v]),)) % len(keys)
        vertices.append(Vertex(v, colors[v], mults[v], tuple(e for _, e in keys), corner))
    labels = {e.label: e.id for e in edges if e.label}
    g = EmbeddedGraph(vertices, edges, witness, labels, connection)
    if cilia is not None:
        return g
    outer = g.outer_face

    def first_outer_corner(v):
        return next((c for c in range(v.degree) if g.face_of_corner(v.id, c) == outer), 0)

    return g.replace(vertices=[replace(v, cilium=first_outer_corner(v)) for v in vertices])


# ---------------------------------------------------------------------------
# 2 x (N+1) grid
# ---------------------------------------------------------------------------


@dataclass
class GridSpec:
    """Weights for the 2x(N+1) grid: vertical b_0..b_N, horizontal a_1..a_N
    (sign +1) and c_1..c_N (sign -1 in the canonical connection)."""

    b: list
    a: list = None
    c: list = None

    def __post_init__(self):
        n_cols = len(self.b)
        if n_cols < 1:
            raise GraphError("grid needs at least one column")
        ns = []
        for i, m in enumerate(self.b):
            if not m.is_square():
                raise GraphError(f"vertical weight b_{i} must be square")
            ns.append(m.rows)
        self.ns = ns
        self.N = n_cols - 1
        if self.a is None:
            self.a = [_rect_identity(ns[i - 1], ns[i]) for i in range(1, n_cols)]
        if self.c is None:
            self.c = [_rect_identity(ns[i], ns[i - 1]) for i in range(1, n_cols)]
        if len(self.a) != self.N or len(self.c) != self.N:
            raise GraphError("need N horizontal weights of each kind")
        for i in range(1, n_cols):
            if self.a[i - 1].shape != (ns[i - 1], ns[i]):
                raise GraphError(f"a_{i} shape {self.a[i-1].shape} != ({ns[i-1]}, {ns[i]})")
            if self.c[i - 1].shape != (ns[i], ns[i - 1]):
                raise GraphError(f"c_{i} shape {self.c[i-1].shape} != ({ns[i]}, {ns[i-1]})")

    def uniform_n(self):
        return self.ns[0] if len(set(self.ns)) == 1 else None


def _rect_identity(rows: int, cols: int) -> Matrix:
    return Matrix(
        [[Fraction(1) if i == j else Fraction(0) for j in range(cols)] for i in range(rows)]
    )


def random_matrix(rng, rows: int, cols: int) -> Matrix:
    """Entries p/q, -4 <= p <= 4, 1 <= q <= 3; square ones resampled until invertible."""
    while True:
        m = Matrix(
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        if rows != cols or det(m) != 0:
            return m


def uniform_grid(N: int, n: int, b=None, a=None, c=None) -> GridSpec:
    ident = Matrix.identity(n)
    return GridSpec(
        b=list(b) if b is not None else [ident] * (N + 1),
        a=list(a) if a is not None else None,
        c=list(c) if c is not None else None,
    )


def grid_graph(spec: GridSpec) -> EmbeddedGraph:
    """Build the grid with the canonical connection (minus on c-edges).

    Column i has bottom vertex 2i at (i, 0) and top vertex 2i+1 at (i, 1);
    bottom is black for even i.  Edge ids: vertical v_i = 3i, a_i = 3i-2,
    c_i = 3i-1.  All cilia point away from the grid.
    """
    N = spec.N
    white = [2 * i + 1 - i % 2 for i in range(N + 1)]
    black = [2 * i + i % 2 for i in range(N + 1)]
    edges = [Edge(3 * i, white[i], black[i], spec.b[i], label=f"v{i}") for i in range(N + 1)]
    for j in range(1, N + 1):
        edges.append(Edge(3 * j - 2, white[j - 1], black[j], spec.a[j - 1], label=f"a{j}"))
        edges.append(Edge(3 * j - 1, white[j], black[j - 1], spec.c[j - 1], label=f"c{j}"))
    pos = {v: (v // 2, v % 2) for v in range(2 * N + 2)}
    return embed(
        pos,
        {v: BLACK if (x + y) % 2 == 0 else WHITE for v, (x, y) in pos.items()},
        {v: spec.ns[v // 2] for v in pos},
        edges,
        witness=(0, BLACK),
        cilia={v: (0, 2 * y - 1) for v, (x, y) in pos.items()},
        connection={e.id: -1 if e.label[0] == "c" else 1 for e in edges},
    )


def mixed_example(a: Matrix, b: Matrix, c: Matrix) -> EmbeddedGraph:
    """2x3 grid with column multiplicities 1, 2, 3 and truncation couplers."""
    if a.shape != (1, 1) or b.shape != (2, 2) or c.shape != (3, 3):
        raise GraphError("mixed example needs 1x1, 2x2, 3x3 vertical weights")
    return grid_graph(GridSpec(b=[a, b, c]))


# ---------------------------------------------------------------------------
# noncommutative continued fractions and grid closed forms
# ---------------------------------------------------------------------------


def continued_fraction(bs, i: int, j: int) -> Matrix:
    """F_{i,j}: nested B_i + (B_{i+-1} + (... + B_j^{-1})^{-1})^{-1}."""
    if i == j:
        return bs[i]
    step = 1 if j > i else -1
    m = bs[j]
    k = j - step
    while True:
        m = bs[k] + inverse(m)
        if k == i:
            return m
        k -= step


def _require_identity_couplers(spec: GridSpec):
    if spec.uniform_n() is None:
        raise GraphError("grid closed forms need uniform multiplicity")
    for m in list(spec.a) + list(spec.c):
        if not m.is_identity():
            raise GraphError("grid closed forms assume identity horizontal weights (gauge first)")


def grid_vertical_P(spec: GridSpec, i: int) -> Matrix:
    """Closed form (B_i^{-1} F_{i,N} + B_i^{-1} F_{i,0} - I)^{-1}."""
    _require_identity_couplers(spec)
    n = spec.uniform_n()
    binv = inverse(spec.b[i])
    f_right = continued_fraction(spec.b, i, spec.N)
    f_left = continued_fraction(spec.b, i, 0)
    return inverse(binv @ f_right + binv @ f_left - Matrix.identity(n))


def grid_horizontal_P(spec: GridSpec, gap: int, kind: str) -> Matrix:
    """Closed form for the horizontal edges across columns (gap, gap+1).

    kind "a" is the edge (w_gap, b_gap+1) with P = (I + F_{gap,0} F_{gap+1,N})^{-1};
    kind "c" is (w_gap+1, b_gap) with P = (I + F_{gap+1,N} F_{gap,0})^{-1}.
    """
    _require_identity_couplers(spec)
    if not 0 <= gap < spec.N:
        raise GraphError(f"gap {gap} out of range")
    n = spec.uniform_n()
    f_left = continued_fraction(spec.b, gap, 0)
    f_right = continued_fraction(spec.b, gap + 1, spec.N)
    if kind == "a":
        return inverse(Matrix.identity(n) + f_left @ f_right)
    if kind == "c":
        return inverse(Matrix.identity(n) + f_right @ f_left)
    raise GraphError("kind must be 'a' or 'c'")


def grid_covariance(spec: GridSpec, i: int, j: int):
    """Closed-form covariance of the multiplicities of vertical edges i < j.

    (-1)^(j-i+1) tr(P_i F_{i,0}^-1 .. F_{j-1,0}^-1 P_j F_{j,N}^-1 .. F_{i+1,N}^-1);
    the sign carries the covariance formula's overall minus through the
    alternating off-diagonal blocks of K^{-1}.
    """
    _require_identity_couplers(spec)
    if not 0 <= i < j <= spec.N:
        raise GraphError("need 0 <= i < j <= N")
    p_i = grid_vertical_P(spec, i)
    p_j = grid_vertical_P(spec, j)
    acc = p_i
    for k in range(i, j):
        acc = acc @ inverse(continued_fraction(spec.b, k, 0))
    acc = acc @ p_j
    for k in range(j, i, -1):
        acc = acc @ inverse(continued_fraction(spec.b, k, spec.N))
    tr = acc.trace()
    return -tr if (j - i) % 2 == 0 else tr


def grid_diag_inverse(spec: GridSpec, i: int) -> Matrix:
    """K^{[i],[i]} = (F_{i,N} + F_{i,0} - B_i)^{-1} for identity couplers."""
    _require_identity_couplers(spec)
    f_right = continued_fraction(spec.b, i, spec.N)
    f_left = continued_fraction(spec.b, i, 0)
    return inverse(f_right + f_left - spec.b[i])


# ---------------------------------------------------------------------------
# q-Fibonacci weighting
# ---------------------------------------------------------------------------


def q_fibonacci_polys(N: int, q: Matrix):
    """Matrix Fibonacci polynomials F_0..F_N with the parity-split recurrence.

    F_0 = F_1 = I; F_n = Q F_{n-1} + F_{n-2} for n even and
    F_n = F_{n-1} + Q^2 F_{n-2} for n odd.
    """
    n = q.rows
    ident = Matrix.identity(n)
    fs = [ident, ident]
    q2 = q @ q
    for m in range(2, N + 1):
        if m % 2 == 0:
            fs.append(q @ fs[m - 1] + fs[m - 2])
        else:
            fs.append(fs[m - 1] + q2 @ fs[m - 2])
    return fs[: N + 1]


def q_fibonacci_twin_polys(N: int, q: Matrix):
    """Twin family: the coefficient reversal Ftilde_n(q) = q^{n-1} F_n(1/q).

    Satisfies the parity-swapped recurrence with seeds Ftilde_1 = I and
    Ftilde_2 = I + Q (equivalently Ftilde_0 = Q^{-1}); all later terms are
    polynomials in Q.
    """
    if N < 1:
        raise GraphError("twin polynomials start at index 1")
    n = q.rows
    ident = Matrix.identity(n)
    fs = {1: ident, 2: ident + q}
    q2 = q @ q
    for m in range(3, N + 1):
        if m % 2 == 0:
            fs[m] = fs[m - 1] + q2 @ fs[m - 2]
        else:
            fs[m] = q @ fs[m - 1] + fs[m - 2]
    return [fs[m] for m in range(1, max(N, 1) + 1)]


def q_fibonacci_grid(N: int, q: Matrix):
    """Grid with A_{2i} = Q, A_{2i+1} = Q^{-1}, B = C = I, plus the exact
    expected multiplicity of the left-most vertical edge,
    tr(Q Ftilde_N(Q) F_{N+1}(Q)^{-1})."""
    if not q.is_square():
        raise GraphError("Q must be square")
    if det(q) == 0:
        raise GraphError("Q must be invertible")
    n = q.rows
    qinv = inverse(q)
    ident = Matrix.identity(n)
    a = [qinv if i % 2 == 1 else q for i in range(1, N + 1)]
    spec = GridSpec(b=[ident] * (N + 1), a=a, c=[ident] * N)
    g = grid_graph(spec)
    twin = q_fibonacci_twin_polys(N, q)[-1] if N else qinv  # Ftilde_0 = Q^{-1}
    fs = q_fibonacci_polys(N + 1, q)
    value = (q @ twin @ inverse(fs[N + 1])).trace()
    return g, value


# ---------------------------------------------------------------------------
# snake graphs
# ---------------------------------------------------------------------------


def snake_graph(word: str, n: int = 1, weight_fn=None) -> EmbeddedGraph:
    """Snake of unit tiles glued east ("E") or north ("N").

    Vertices at integer corners, white when x + y is even.  Edges are
    labeled ``h{x}.{y}`` / ``v{x}.{y}`` by their lower-left endpoint;
    ``weight_fn(label, shape)`` supplies weights (identity by default).
    Each cilium sits at its vertex's first corner on the outer face.
    """
    tiles = [(0, 0)]
    for ch in word:
        if ch not in ("E", "N"):
            raise GraphError(f"snake word must be over E/N, got {ch!r}")
        x, y = tiles[-1]
        tiles.append((x + 1, y) if ch == "E" else (x, y + 1))
    segments = set()
    for x, y in tiles:
        segments |= {((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1))}
        segments |= {((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1))}
    points = sorted({p for seg in segments for p in seg}, key=lambda p: (p[1], p[0]))
    pos = dict(enumerate(points))
    vid = {p: i for i, p in pos.items()}
    colors = {v: WHITE if (x + y) % 2 == 0 else BLACK for v, (x, y) in pos.items()}
    edges = []
    for eid, (p1, p2) in enumerate(sorted(segments)):
        lab = f"{'h' if p1[1] == p2[1] else 'v'}{p1[0]}.{p1[1]}"
        wt = weight_fn(lab, (n, n)) if weight_fn is not None else Matrix.identity(n)
        w, b = (vid[p1], vid[p2]) if colors[vid[p1]] == WHITE else (vid[p2], vid[p1])
        edges.append(Edge(eid, w, b, wt, label=lab))
    # edge 1 is h0.0, the bottom of tile (0, 0), whose black end sees the outer face
    return embed(pos, colors, dict.fromkeys(pos, n), edges, witness=(1, BLACK))


def snake_reduce(g: EmbeddedGraph):
    """Reduce a snake to a straight 2xM grid by gauge + contract + merge.

    Corner tiles are recognized as degree-2 vertices both of whose
    neighbors have degree >= 3; each elimination gauges the two corner
    edges to the identity, contracts, and merges the parallel pair that
    appears.  Returns the final graph and the certificate chain (gauge
    certificates have factor |det M|).
    """
    certs = []
    while True:
        apexes = [
            v.id
            for v in g.vertices.values()
            if v.degree == 2
            and all(
                g.vertices[g.edges[e].other(v.id)].degree >= 3 for e in v.rotation
            )
        ]
        if not apexes:
            return g, certs
        apex = min(apexes)
        for eid in list(g.vertices[apex].rotation):
            e = g.edges[eid]
            if not e.weight.is_identity():
                cert = gauge_certificate(g, e.other(apex), inverse(e.weight))
                g = cert.after
                certs.append(cert)
        g, cert = contract(g, apex)
        certs.append(cert)
        merged = cert.details["merged_into"]
        while True:
            by_pair = {}
            for eid in g.vertices[merged].rotation:
                e = g.edges[eid]
                by_pair.setdefault((e.white, e.black), []).append(eid)
            pair = next((k for k, v in by_pair.items() if len(v) >= 2), None)
            if pair is None:
                break
            g, cert = parallel_reduce(g, pair[0], pair[1])
            certs.append(cert)


# ---------------------------------------------------------------------------
# six-vertex model (square ice), free-fermionic weights
# ---------------------------------------------------------------------------


def direction_vectors(cos_t, sin_t):
    """Row vectors decorating the four edges around each oxygen vertex."""
    one = cos_t * 0 + 1
    zero = cos_t * 0
    return {
        "east": Matrix([[one, zero]]),
        "north": Matrix([[cos_t, sin_t]]),
        "west": Matrix([[zero, one]]),
        "south": Matrix([[-sin_t, cos_t]]),
    }


def boltzmann_weights(cos_t, sin_t):
    """The six vertex weights (a1, a2, b1, b2, c1, c2) as 2x2 minors."""
    v = direction_vectors(cos_t, sin_t)

    def pair(d1, d2):
        m = Matrix([v[d1].data[0], v[d2].data[0]])
        return det(m)

    return (
        pair("east", "north"),
        pair("west", "south"),
        pair("north", "west"),
        pair("east", "south"),
        pair("east", "west"),
        pair("north", "south"),
    )


def free_fermion_check(a1, a2, b1, b2, c1, c2) -> bool:
    """Exact test of c1 c2 = a1 a2 + b1 b2."""
    return c1 * c2 == a1 * a2 + b1 * b2


def six_vertex(rows: int, cols: int, cos_sin=(Fraction(3, 5), Fraction(4, 5))) -> EmbeddedGraph:
    """Square-ice lattice with domain-wall boundary as a mixed dimer model.

    Black (oxygen) vertices have multiplicity 2, white (hydrogen midpoint
    and boundary pendant) vertices 1.  Pendant whites sit on the left and
    right columns only, which forces rows == cols.  Every edge (w, b)
    carries the 1x2 direction row-vector of w as seen from b, and the
    connection is identically +1 (the direction vectors carry the signs).
    Black (r, q) sits at (2q, -2r); all cilia point to (1, -1).  Its edges
    are labeled ``b{r}.{q}-{d}``, or ``center-{d}`` at an odd lattice's centre.
    """
    if rows < 1 or cols < 1:
        raise GraphError("need rows, cols >= 1")
    if rows != cols:
        raise GraphError("domain-wall boundary needs rows == cols")
    vecs = direction_vectors(*cos_sin)
    pos = {r * cols + q: (2 * q, -2 * r) for r in range(rows) for q in range(cols)}
    white_at = {}  # point -> white vertex id
    edges = []
    for r in range(rows):
        for q in range(cols):
            name = "center-" if r == q == rows // 2 and rows % 2 else f"b{r}.{q}-"
            for d, dx, dy in (("west", -1, 0), ("north", 0, 1), ("east", 1, 0), ("south", 0, -1)):
                if (d == "north" and r == 0) or (d == "south" and r == rows - 1):
                    continue
                p = (2 * q + dx, -2 * r + dy)
                if p not in white_at:
                    white_at[p] = len(pos)
                    pos[len(pos)] = p
                edges.append(Edge(len(edges), white_at[p], r * cols + q, vecs[d], label=name + d))
    blacks = rows * cols
    return embed(
        pos,
        {v: BLACK if v < blacks else WHITE for v in pos},
        {v: 2 if v < blacks else 1 for v in pos},
        edges,
        witness=(0, WHITE),
        cilia=dict.fromkeys(pos, (1, -1)),
        connection=dict.fromkeys(range(len(edges)), 1),
    )


def six_vertex_closed_forms(cos_t, sin_t):
    """Central-vertex edge-use probabilities: east/west and north/south."""
    east = cos_t**4 + sin_t**4
    north = 2 * cos_t**2 * sin_t**2
    return east, north

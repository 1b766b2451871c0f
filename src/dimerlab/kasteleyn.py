"""Kasteleyn sign connections and the block Kasteleyn matrix.

The sign connection is an edge weighting by +-1 whose product around each
bounded face with 2l edges is (-1)^(l-1+k), where k counts the inward
cilia at vertices of even multiplicity.  On a uniform graph this is the
even rule (every cilium counts) or the odd rule (none does); one rule
covers mixed multiplicities too.  The acceptance suite certifies it
against the enumeration oracle on grids, snakes, the mixed example and
six-vertex ice up to 5x5.  The outer face is never constrained.

Solving is GF(2) elimination with one bit per edge and one equation per
bounded face; free edges are set to +1, so the solution is deterministic
for a fixed graph.
"""

from __future__ import annotations

from functools import cached_property

from .graph import EmbeddedGraph, GraphError
from .linalg import LU, BlockMatrix, Matrix, SingularMatrixError, lu


class SignSolveError(GraphError):
    pass


def face_sign_target(face) -> int:
    """Required parity bit for one bounded face (1 means product = -1)."""
    if face.num_darts % 2 != 0:
        raise SignSolveError(f"face {face.id} has odd length; graph not bipartite?")
    ell = face.num_darts // 2
    return (ell - 1 + face.inward_even_cilia) % 2


def solve_signs(g: EmbeddedGraph) -> dict:
    """A Kasteleyn connection from the face parity rule."""
    edge_ids = sorted(g.edges)
    col = {eid: i for i, eid in enumerate(edge_ids)}
    nvars = len(edge_ids)
    # rows as bitmasks: low nvars bits = coefficients, bit nvars = rhs
    rows = []
    for face in g.bounded_faces():
        mask = 0
        for eid in face.edge_ids:
            mask ^= 1 << col[eid]
        rhs = face_sign_target(face)
        rows.append(mask | (rhs << nvars))
    pivots = {}
    for row in rows:
        for c in range(nvars):
            if not (row >> c) & 1:
                continue
            if c in pivots:
                row ^= pivots[c]
            else:
                pivots[c] = row
                row = 0
                break
        if row:  # all coefficients eliminated, rhs stayed 1
            raise SignSolveError("face parity system infeasible; invalid embedding")
    # back-substitute with free variables = 0 (sign +1)
    x = [0] * nvars
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        val = (row >> nvars) & 1
        for c2 in range(c + 1, nvars):
            if (row >> c2) & 1:
                val ^= x[c2]
        x[c] = val
    return {eid: (-1 if x[col[eid]] else 1) for eid in edge_ids}


def connection_is_valid(g: EmbeddedGraph, eps: dict) -> bool:
    for face in g.bounded_faces():
        prod = 1
        for eid in face.edge_ids:
            prod *= eps[eid]
        if prod != (-1) ** face_sign_target(face):
            return False
    return True


def flip_coboundary(eps: dict, g: EmbeddedGraph, flip_vertices) -> dict:
    """Another valid connection: flip all edges at the given vertices.

    Any two valid connections differ by such a coboundary, so this is the
    canonical way to produce distinct sign solutions for invariance tests.
    """
    flip = set(flip_vertices)
    out = {}
    for e in g.edges.values():
        s = eps[e.id]
        if e.white in flip:
            s = -s
        if e.black in flip:
            s = -s
        out[e.id] = s
    return out


class KasteleynSystem:
    """Block Kasteleyn matrix; ``det`` and ``block_inverse`` share one LU of K.

    A white vertex's n_w columns of K^{-1} are solved when one of its blocks
    is first read, then cached: a local statistic never inverts all of K.
    """

    def __init__(self, g: EmbeddedGraph, eps: dict):
        self.graph = g
        self.eps = dict(eps)
        self.white_order = g.white_ids()
        self.black_order = g.black_ids()
        self._wpos = {w: i for i, w in enumerate(self.white_order)}
        self._bpos = {b: j for j, b in enumerate(self.black_order)}
        row_sizes = [g.vertices[w].multiplicity for w in self.white_order]
        col_sizes = [g.vertices[b].multiplicity for b in self.black_order]
        self.K = BlockMatrix(row_sizes, col_sizes, Matrix.zeros(sum(row_sizes), sum(col_sizes)))
        data = self.K.mat.data  # filled in place, before anything reads K
        for e in g.edges.values():
            r0 = self.K.row_offset(self._wpos[e.white])
            c0 = self.K.col_offset(self._bpos[e.black])
            for r, brow in enumerate((e.weight * self.eps[e.id]).data, r0):
                row = data[r]
                for c, x in enumerate(brow, c0):
                    row[c] = row[c] + x
        self._columns = {}  # white position -> its solved columns of K^{-1}

    # -- lookups -----------------------------------------------------------

    def edge_block(self, eid: int) -> Matrix:
        """Signed weight of one edge (not summed over parallels)."""
        e = self.graph.edges[eid]
        return e.weight * self.eps[eid]

    def k_block(self, white_id: int, black_id: int) -> Matrix:
        return self.K.block(self._wpos[white_id], self._bpos[black_id])

    @cached_property
    def _lu(self) -> LU:
        return lu(self.K.mat)

    def det(self):
        return self._lu.det()

    def partition_function(self):
        """|det K| (exact absolute value on the rational backend)."""
        return abs(self.det())

    def _block_column(self, i: int) -> list:
        """The n_w solved columns of K^{-1} for white position i (cached)."""
        if i not in self._columns:
            if self._lu.singular:
                raise SingularMatrixError("Kasteleyn matrix is singular")
            c0 = self.K.row_offset(i)
            self._columns[i] = [self._lu.solve_unit(c) for c in range(c0, c0 + self.K.row_sizes[i])]
        return self._columns[i]

    def block_inverse(self, white_id: int, black_id: int) -> Matrix:
        """Block of K^{-1} in black row [j], white column [i]."""
        cols = self._block_column(self._wpos[white_id])
        j = self._bpos[black_id]
        r0 = self.K.col_offset(j)
        return Matrix([[x[r] for x in cols] for r in range(r0, r0 + self.K.col_sizes[j])])

    def inverse(self) -> BlockMatrix:
        """All of K^{-1} (rows: black blocks, cols: white blocks); solves every column."""
        cols = [x for i in range(len(self.K.row_sizes)) for x in self._block_column(i)]
        return BlockMatrix(self.K.col_sizes, self.K.row_sizes, Matrix(zip(*cols)))


def assemble(g: EmbeddedGraph, eps: dict | None = None) -> KasteleynSystem:
    """Build the Kasteleyn system.

    Connection precedence: explicit ``eps``, then the graph's own carried
    connection (generators and moves set one), then a fresh sign solve.
    """
    if eps is None:
        eps = g.connection
    if eps is None:
        eps = solve_signs(g)
    else:
        missing = set(g.edges) - set(eps)
        if missing:
            raise GraphError(f"connection missing edges {sorted(missing)}")
    return KasteleynSystem(g, eps)

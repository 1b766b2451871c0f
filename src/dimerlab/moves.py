"""Gauge transformations and the four partition-function-preserving moves.

Each move returns the rewritten graph together with a certificate whose
factor relates the partition functions exactly: Z(after) = factor *
Z(before).  Leaf trimming, parallel reduction and contraction have factor
1 in their normal form (designated edges carrying the identity matrix);
the square move's factor is |det [[A, B], [-D, C]]| of the new weights.

Moves carry the sign connection across the rewrite instead of re-solving
blindly.  A move starts from the graph's own connection, or from
``solve_signs`` when the graph has none (leaf trimming carries one only
when the graph has one).  Contraction negates the signs on the
merged-away vertex's other edges (the Schur bookkeeping).  Every move
builds its result in ``_rewrite``, which re-checks the carried connection
and, only when the face rule rejects it, searches the cilia at the
vertices the move names.  That keeps both the determinant identity and
the enumeration oracle exact on either side of the move.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .graph import BLACK, WHITE, Edge, EmbeddedGraph, GraphError, Vertex
from .kasteleyn import connection_is_valid, flip_coboundary, solve_signs
from .linalg import BlockMatrix, Matrix, SingularMatrixError, det, inverse


class MoveError(GraphError):
    pass


@dataclass
class MoveCertificate:
    kind: str  # leaf_trim | parallel_reduce | contract | square | gauge
    before: EmbeddedGraph
    after: EmbeddedGraph
    factor: object  # Z(after) = factor * Z(before)
    details: dict


def _edit_rotation(rotation, cilium, remove, insert_at=None, insert=()):
    """Remove slots / insert edges; remap the cilium corner.

    The cilium sits just before slot ``cilium``; after the edit it sits
    just before the image of the first surviving slot >= cilium
    (cyclically), which keeps it in the same angular sector.
    """
    remove = set(remove)
    order = []
    for i, eid in enumerate(rotation):
        if insert_at is not None and i == insert_at:
            order.extend(("new", e) for e in insert)
        if i not in remove:
            order.append(("old", i, eid))
    if insert_at is not None and insert_at == len(rotation):
        order.extend(("new", e) for e in insert)
    new_rotation = tuple(item[-1] for item in order)
    new_index = {item[1]: k for k, item in enumerate(order) if item[0] == "old"}
    deg = len(rotation)
    new_cilium = 0
    for step in range(deg):
        cand = (cilium + step) % deg
        if cand in new_index:
            new_cilium = new_index[cand]
            break
    return new_rotation, new_cilium


def _transfer_witness(g: EmbeddedGraph, dropped_vertices, dropped_edges):
    """A dart of the old outer face that survives the rewrite."""
    if g.outer_witness is None:
        return None
    outer = g.faces[g.outer_face]
    for (vid, slot), eid in zip(outer.darts, outer.edge_ids):
        if vid not in dropped_vertices and eid not in dropped_edges:
            return (eid, g.vertices[vid].color)
    return None


def _choose_valid_cilia(g: EmbeddedGraph, eps, candidates):
    """Search cilium corners at the given vertices for face validity.

    Returns the graph with the first assignment under which the carried
    connection satisfies the bounded-face parity rule, or None.
    """
    ids = list(candidates)
    ranges = [range(g.vertices[vid].degree) for vid in ids]
    for combo in itertools.product(*ranges):
        cilia = dict(zip(ids, combo))
        verts = [
            replace(v, cilium=cilia[v.id]) if v.id in cilia else v for v in g.vertices.values()
        ]
        trial = g.replace(vertices=verts)
        if connection_is_valid(trial, eps):
            return trial
    return None


def _rewrite(
    g: EmbeddedGraph,
    kind,
    factor,
    details,
    connection,
    drop_vertices=(),
    drop_edges=(),
    vertices=None,
    edges=None,
    add_vertices=(),
    add_edges=(),
    pendants=None,
    witness=None,
    cilia_at=(),
):
    """Apply a move's edits to ``g`` and certify the result.

    ``vertices``/``edges`` map ids to replacements kept in place and
    ``add_vertices``/``add_edges`` are appended.  Every surviving vertex
    loses the rotation slots of ``drop_edges``; ``pendants`` maps a vertex
    to the edge inserted where its first dropped slot was.  ``connection``
    loses the dropped edges; when it is no longer face-valid, the cilia
    at ``cilia_at`` are searched from corner 0.  ``witness`` defaults to
    the first surviving dart of the old outer face.
    """
    drop_vertices, drop_edges = set(drop_vertices), set(drop_edges)
    vertices, edges, pendants = vertices or {}, edges or {}, pendants or {}
    new_vertices = []
    for v in g.vertices.values():
        if v.id in drop_vertices:
            continue
        w = vertices.get(v.id, v)
        slots = [i for i, eid in enumerate(w.rotation) if eid in drop_edges]
        if slots:
            insert = [pendants[w.id]] if w.id in pendants else []
            rot, cil = _edit_rotation(w.rotation, w.cilium, slots, min(slots), insert)
            w = replace(w, rotation=rot, cilium=cil)
        if w is not v and not w.rotation:
            raise MoveError(f"{kind} would isolate vertex {w.id}")
        new_vertices.append(w)
    new_edges = [edges.get(e.id, e) for e in g.edges.values() if e.id not in drop_edges]
    if connection is not None:
        connection = {k: s for k, s in connection.items() if k not in drop_edges}
    after = EmbeddedGraph(
        new_vertices + list(add_vertices),
        new_edges + list(add_edges),
        outer_witness=witness or _transfer_witness(g, drop_vertices, drop_edges),
        edge_labels={k: x for k, x in g.edge_labels.items() if x not in drop_edges},
        connection=connection,
    )
    if connection and not connection_is_valid(after, connection):
        after = _choose_valid_cilia(after, connection, cilia_at)
        if after is None:
            raise MoveError(f"{kind}: no cilium placement keeps the carried connection face-valid")
    return after, MoveCertificate(kind=kind, before=g, after=after, factor=factor, details=details)


def gauge(g: EmbeddedGraph, vertex_id: int, m: Matrix) -> EmbeddedGraph:
    """Multiply all weights at one vertex (left at white, right at black).

    Scales every cover weight, Z and det K by det(m); the probability
    measure and all P_e spectra are unchanged.
    """
    v = g.vertices.get(vertex_id)
    if v is None:
        raise MoveError(f"no vertex {vertex_id}")
    if m.shape != (v.multiplicity, v.multiplicity):
        raise MoveError(
            f"gauge matrix shape {m.shape} != multiplicity {v.multiplicity} at vertex {vertex_id}"
        )
    if det(m) == 0:
        raise SingularMatrixError("gauge matrix is singular")
    new_edges = []
    for e in g.edges.values():
        if v.color == BLACK and e.black == vertex_id:
            e = Edge(e.id, e.white, e.black, e.weight @ m, e.label)
        elif v.color == WHITE and e.white == vertex_id:
            e = Edge(e.id, e.white, e.black, m @ e.weight, e.label)
        new_edges.append(e)
    return g.replace(edges=new_edges)


def gauge_certificate(g: EmbeddedGraph, vertex_id: int, m: Matrix) -> MoveCertificate:
    after = gauge(g, vertex_id, m)
    return MoveCertificate(
        kind="gauge",
        before=g,
        after=after,
        factor=abs(det(m)),
        details={"vertex": vertex_id},
    )


def gauge_tree_to_identity(g: EmbeddedGraph, edge_ids, root: int):
    """Gauge the given spanning-tree edges to the identity, rootward first.

    Each tree edge is fixed by gauging at its child endpoint, which leaves
    already-fixed edges untouched.  Returns (graph, factor) with factor =
    product of |det| of the applied gauges (Z after = factor * Z before).
    """
    tree = set(edge_ids)
    adj = {}
    for eid in tree:
        e = g.edges[eid]
        adj.setdefault(e.white, []).append(eid)
        adj.setdefault(e.black, []).append(eid)
    factor = Fraction(1)
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for parent in frontier:
            for eid in adj.get(parent, []):
                child = g.edges[eid].other(parent)
                if child in seen:
                    continue
                seen.add(child)
                weight = g.edges[eid].weight
                if not weight.is_identity():
                    m = inverse(weight)
                    g = gauge(g, child, m)
                    factor = factor * abs(det(m))
                nxt.append(child)
        frontier = nxt
    missing = tree - {eid for eid in tree if g.edges[eid].weight.is_identity()}
    if missing:
        raise MoveError(f"tree edges {sorted(missing)} not reachable from root {root}")
    return g, factor


def leaf_trim(g: EmbeddedGraph, edge_id: int):
    """Remove a pendant edge together with both endpoints.

    All other edges at the non-leaf endpoint disappear as well (its row
    of K is eliminated).  Factor is 1/|det W| for pendant weight W, which
    is 1 in the identity-weight normal form.
    """
    e = g.edges.get(edge_id)
    if e is None:
        raise MoveError(f"no edge {edge_id}")
    wdeg = g.vertices[e.white].degree
    bdeg = g.vertices[e.black].degree
    if bdeg == 1:
        leaf, center = e.black, e.white
    elif wdeg == 1:
        leaf, center = e.white, e.black
    else:
        raise MoveError(f"edge {edge_id} is not pendant (degrees {wdeg}, {bdeg})")
    if not e.weight.is_square():
        raise MoveError("pendant weight must be square to trim")
    d = det(e.weight)
    if d == 0:
        raise SingularMatrixError("pendant weight is singular")
    return _rewrite(
        g,
        "leaf_trim",
        Fraction(1) if e.weight.is_identity() else 1 / abs(d),
        {"edge": edge_id, "leaf": leaf, "center": center, "touched_vertices": {leaf, center}},
        g.connection,
        drop_vertices={leaf, center},
        drop_edges=g.vertices[center].rotation,
    )


def _consecutive_run(slots, degree):
    """Order cyclically-consecutive slots, or None if they are not a run."""
    slots = sorted(slots)
    k = len(slots)
    for start in slots:
        run = [(start + t) % degree for t in range(k)]
        if sorted(run) == slots:
            return run
    return None


def parallel_reduce(g: EmbeddedGraph, white: int, black: int):
    """Merge all parallel edges between a pair into one summed edge.

    The kept edge's weight becomes eps(e_1) * sum_t eps(e_t) wt(e_t) and
    the carried connection keeps eps(e_1) on it, so the assembled K is
    literally unchanged (and with it Z and every probability matrix).
    The family must occupy consecutive rotation slots at both endpoints;
    cilia that sat inside the vanishing bigons are relocated, with a
    corner search keeping the carried connection face-valid.
    """
    family = g.parallel_family(white, black)
    if len(family) < 2:
        raise MoveError(f"fewer than 2 parallel edges between {white} and {black}")
    eps = g.connection or solve_signs(g)
    runs = {}
    for vid in (white, black):
        slots = [g.slot_of(vid, eid) for eid in family]
        runs[vid] = _consecutive_run(slots, g.vertices[vid].degree)
        if runs[vid] is None:
            raise MoveError(f"parallel edges are not rotation-consecutive at vertex {vid}")
    # keep the first edge of the run at the white endpoint
    keep, *drop = (g.vertices[white].rotation[s] for s in runs[white])
    total = g.edges[keep].weight * eps[keep]
    for eid in drop:
        total = total + g.edges[eid].weight * eps[eid]
    witness = g.outer_witness
    if witness is not None and witness[0] in drop:
        witness = (keep, witness[1])
    return _rewrite(
        g,
        "parallel_reduce",
        Fraction(1),
        {
            "white": white,
            "black": black,
            "kept": keep,
            "dropped": drop,
            "touched_vertices": {white, black},
        },
        eps,
        drop_edges=drop,
        edges={keep: replace(g.edges[keep], weight=total * eps[keep])},
        witness=witness,
        cilia_at=(white, black),
    )


def contract(g: EmbeddedGraph, center_id: int):
    """Contract a degree-2 vertex with identity edges; merge its neighbors.

    The merged vertex keeps the second neighbor's id; signs on the first
    neighbor's surviving edges are negated (Schur bookkeeping), so det K
    is preserved by construction.  The two neighbors must be distinct;
    shared further neighbors are fine and simply produce parallel edges.
    """
    v = g.vertices.get(center_id)
    if v is None:
        raise MoveError(f"no vertex {center_id}")
    if v.degree != 2:
        raise MoveError(f"vertex {center_id} has degree {v.degree}, need 2")
    e1_id, e2_id = v.rotation
    e1, e2 = g.edges[e1_id], g.edges[e2_id]
    u1, u2 = e1.other(center_id), e2.other(center_id)
    if u1 == u2:
        raise MoveError("contraction with coincident neighbors is not supported")
    if not (e1.weight.is_identity() and e2.weight.is_identity()):
        raise MoveError("contraction edges must carry the identity (gauge first)")
    eps = g.connection or solve_signs(g)
    vu1, vu2 = g.vertices[u1], g.vertices[u2]
    # rotation splice: u1's edges after e1, then u2's edges after e2 (ccw)
    s1 = g.slot_of(u1, e1_id)
    s2 = g.slot_of(u2, e2_id)
    part1 = [vu1.rotation[(s1 + t) % vu1.degree] for t in range(1, vu1.degree)]
    part2 = [vu2.rotation[(s2 + t) % vu2.degree] for t in range(1, vu2.degree)]
    merged = replace(vu2, rotation=tuple(part1 + part2), cilium=0)
    # Schur bookkeeping: the merged row/column is row(u2) - s1 s2 row(u1),
    # so u1's surviving edges pick up the factor -eps(e1) eps(e2)
    twist = -eps[e1_id] * eps[e2_id]
    flipped = set(part1)
    carried = {eid: eps[eid] * twist if eid in flipped else eps[eid] for eid in g.edges}
    moved = {}
    for e in g.edges.values():
        if e.white == u1:
            moved[e.id] = replace(e, white=u2)
        elif e.black == u1:
            moved[e.id] = replace(e, black=u2)
    return _rewrite(
        g,
        "contract",
        Fraction(1),
        {
            "center": center_id,
            "merged_into": u2,
            "absorbed": u1,
            "touched_vertices": {center_id, u1, u2},
        },
        carried,
        drop_vertices={center_id, u1},
        drop_edges={e1_id, e2_id},
        vertices={u2: merged},
        edges=moved,
        cilia_at=(u2,),
    )


def square_move(g: EmbeddedGraph, face_id: int):
    """The square (urban renewal / spider) move on a bounded quad face.

    Colors on the face swap; each original vertex is pushed outward and
    joined to its replacement by an identity pendant; the new weights are
    A = (a + d c^-1 b)^-1 and cyclic variants, read off the signed blocks
    so the move works with whatever valid connection the graph carries.
    Z multiplies by |det [[A, B], [-D, C]]|.
    """
    faces = g.faces
    if face_id < 0 or face_id >= len(faces):
        raise MoveError(f"no face {face_id}")
    face = faces[face_id]
    if face.is_outer:
        raise MoveError("square move needs a bounded face")
    if face.num_darts != 4 or len(set(face.edge_ids)) != 4:
        raise MoveError("square move needs a quadrilateral face with 4 distinct edges")
    verts_on_face = [vid for vid, _ in face.darts]
    if len(set(verts_on_face)) != 4:
        raise MoveError("square move needs 4 distinct corner vertices")
    eps = g.connection or solve_signs(g)
    # start the dart walk at a white corner: edges then read a, b, c, d
    start = next(i for i, vid in enumerate(verts_on_face) if g.vertices[vid].color == WHITE)
    darts = face.darts[start:] + face.darts[:start]
    eids = face.edge_ids[start:] + face.edge_ids[:start]
    corners = tuple(vid for vid, _ in darts)
    w_tl, b_bl, w_br, b_tr = corners
    ea, eb, ec, ed = eids
    mults = {g.vertices[x].multiplicity for x in corners}
    if len(mults) != 1:
        raise MoveError("square move needs equal multiplicities on the face")
    n = mults.pop()
    # normalize by a coboundary so the face signs read (+, +, +, -) along
    # the walk; this keeps the carried connection face-valid after the move
    want = [eps[ea] < 0, eps[eb] < 0, eps[ec] < 0, eps[ed] > 0]
    f_tl = 0
    f_bl = f_tl ^ want[0]
    f_br = f_bl ^ want[1]
    f_tr = f_br ^ want[2]
    if (f_tr ^ f_tl) != want[3]:
        raise MoveError("face sign product is not -1; invalid connection for a square move")
    flips = [v for v, f in zip(corners, (f_tl, f_bl, f_br, f_tr)) if f]
    eps = flip_coboundary(eps, g, flips)
    a_p = g.edges[ea].weight * eps[ea]
    b_p = g.edges[eb].weight * eps[eb]
    c_p = g.edges[ec].weight * eps[ec]
    d_p = g.edges[ed].weight * (-eps[ed])
    try:
        na = inverse(a_p + d_p @ inverse(c_p) @ b_p)
        nb = inverse(b_p + c_p @ inverse(d_p) @ a_p)
        nc = inverse(c_p + b_p @ inverse(a_p) @ d_p)
        nd = inverse(d_p + a_p @ inverse(b_p) @ c_p)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"square move needs invertible weights: {exc}") from exc
    vid0, eid0 = max(g.vertices) + 1, max(g.edges) + 1
    inner = {vid: vid0 + i for i, vid in enumerate(corners)}
    pend = {vid: eid0 + i for i, vid in enumerate(corners)}
    ia, ib, ic, idd = range(eid0 + 4, eid0 + 8)
    new_edges = [
        Edge(pend[w_tl], w_tl, inner[w_tl], Matrix.identity(n)),
        Edge(pend[b_bl], inner[b_bl], b_bl, Matrix.identity(n)),
        Edge(pend[w_br], w_br, inner[w_br], Matrix.identity(n)),
        Edge(pend[b_tr], inner[b_tr], b_tr, Matrix.identity(n)),
        Edge(ia, inner[b_bl], inner[w_tl], na),
        Edge(ib, inner[b_bl], inner[w_br], nb),
        Edge(ic, inner[b_tr], inner[w_br], nc),
        Edge(idd, inner[b_tr], inner[w_tl], nd),
    ]
    # inner rotations, ccw, from the Table-1 picture
    rotations = {
        w_tl: (idd, pend[w_tl], ia),
        b_bl: (ib, ia, pend[b_bl]),
        w_br: (ic, ib, pend[w_br]),
        b_tr: (pend[b_tr], idd, ic),
    }
    inner_vertices = [
        Vertex(inner[v], color, n, rotations[v], 0)
        for v, color in zip(corners, (BLACK, WHITE, BLACK, WHITE))
    ]
    # pendant at original whites: +1; at new whites: -1; inner D-edge: -1
    carried = dict(eps)
    carried.update({pend[w_tl]: 1, pend[w_br]: 1, pend[b_bl]: -1, pend[b_tr]: -1})
    carried.update({ia: 1, ib: 1, ic: 1, idd: -1})
    factor = abs(det(BlockMatrix.from_blocks([[na, nb], [-nd, nc]]).mat))
    return _rewrite(
        g,
        "square",
        factor,
        {
            "face": face_id,
            "new_weights": {"A": na, "B": nb, "C": nc, "D": nd},
            "frame": {"a": a_p, "b": b_p, "c": c_p, "d": d_p},
            "pendants": pend,
            "touched_vertices": set(corners) | set(inner.values()),
        },
        carried,
        drop_edges=eids,
        add_vertices=inner_vertices,
        add_edges=new_edges,
        pendants=pend,
        # if the whole graph was the quad, the outer face zigzags the pendants
        witness=_transfer_witness(g, (), eids) or (pend[w_tl], WHITE),
        cilia_at=inner.values(),
    )

"""Planar bipartite ciliated graphs with matrix edge weights.

Planarity is carried by a rotation system: each vertex stores the
counterclockwise cyclic order of its incident edges.  Faces are orbits of
the dart map "cross the edge, then step one slot clockwise", which puts
the interior of each bounded face on the left of its darts.  A cilium is
a corner index c: the mark sits between rotation slots c-1 and c, and the
half-edge reading order starts there (counterclockwise at black vertices,
clockwise at white ones).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .linalg import Matrix
from .scalars import ScalarError, format_scalar, parse_scalar

WHITE = "white"
BLACK = "black"


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class Vertex:
    id: int
    color: str
    multiplicity: int
    rotation: tuple  # edge ids, ccw
    cilium: int
    label: str | None = None

    @property
    def degree(self) -> int:
        return len(self.rotation)


@dataclass(frozen=True)
class Edge:
    id: int
    white: int
    black: int
    weight: Matrix
    label: str | None = None

    def endpoint(self, color: str) -> int:
        return self.white if color == WHITE else self.black

    def other(self, vid: int) -> int:
        return self.black if vid == self.white else self.white


@dataclass(frozen=True)
class Face:
    id: int
    darts: tuple  # (vertex id, slot) pairs in trace order
    edge_ids: tuple  # with multiplicity, aligned with darts
    inward_cilia: int
    inward_even_cilia: int  # inward cilia at vertices of even multiplicity
    is_outer: bool

    @property
    def num_darts(self) -> int:
        return len(self.darts)


class EmbeddedGraph:
    """Immutable-by-convention graph; all operations return new graphs."""

    def __init__(self, vertices, edges, outer_witness=None, edge_labels=None, connection=None):
        vertices = list(vertices)
        edges = list(edges)
        self.vertices = {v.id: v for v in vertices}
        self.edges = {e.id: e for e in edges}
        if len(self.vertices) != len(vertices):
            raise GraphError("duplicate vertex ids")
        if len(self.edges) != len(edges):
            raise GraphError("duplicate edge ids")
        self.outer_witness = outer_witness  # (edge id, "white"|"black")
        # generator- or move-supplied Kasteleyn connection; assemble() prefers it
        self.connection = dict(connection) if connection else None
        self.edge_labels = dict(edge_labels or {})
        for name, eid in list(self.edge_labels.items()):
            if eid not in self.edges:
                raise GraphError(f"label {name!r} points at unknown edge {eid}")
        self._slot = {}  # vertex id -> {edge id -> slot}
        for v in self.vertices.values():
            self._slot[v.id] = {eid: i for i, eid in enumerate(v.rotation)}
        self._faces = None
        self._dart_face = None
        self._outer_face = None

    # -- vertex/edge helpers ----------------------------------------------

    def white_ids(self):
        return sorted(v.id for v in self.vertices.values() if v.color == WHITE)

    def black_ids(self):
        return sorted(v.id for v in self.vertices.values() if v.color == BLACK)

    def slot_of(self, vid: int, eid: int) -> int:
        return self._slot[vid][eid]

    def incident(self, vid: int):
        return self.vertices[vid].rotation

    def edge_by_label(self, name: str) -> int:
        if name in self.edge_labels:
            return self.edge_labels[name]
        raise GraphError(f"no edge labeled {name!r}")

    def resolve_edge(self, selector) -> int:
        """Edge id from an id, numeric string, or label."""
        if isinstance(selector, int):
            eid = selector
        elif isinstance(selector, str) and selector.lstrip("-").isdigit():
            eid = int(selector)
        else:
            return self.edge_by_label(str(selector))
        if eid not in self.edges:
            raise GraphError(f"no edge with id {eid}")
        return eid

    def parallel_family(self, white: int, black: int):
        return [
            e.id
            for e in self.edges.values()
            if e.white == white and e.black == black
        ]

    def reading_order(self, vid: int):
        """Incident edges in cilium order: ccw at black, cw at white."""
        v = self.vertices[vid]
        d = v.degree
        if d == 0:
            return []
        c = v.cilium
        if v.color == BLACK:
            return [v.rotation[(c + t) % d] for t in range(d)]
        return [v.rotation[(c - 1 - t) % d] for t in range(d)]

    # -- faces --------------------------------------------------------------

    def next_dart(self, dart):
        """Face successor: cross the edge, step one slot clockwise."""
        vid, slot = dart
        eid = self.vertices[vid].rotation[slot]
        other = self.edges[eid].other(vid)
        j = self.slot_of(other, eid)
        deg = self.vertices[other].degree
        return (other, (j - 1) % deg)

    @property
    def faces(self):
        if self._faces is None:
            self._trace()
        return self._faces

    @property
    def outer_face(self) -> int:
        if self._faces is None:
            self._trace()
        return self._outer_face

    def face_of_dart(self, dart) -> int:
        if self._faces is None:
            self._trace()
        return self._dart_face[dart]

    def face_of_corner(self, vid: int, corner: int) -> int:
        """Face owning the corner between slots corner-1 and corner."""
        deg = self.vertices[vid].degree
        return self.face_of_dart((vid, (corner - 1) % deg))

    def _trace(self):
        darts = [
            (v.id, i)
            for v in self.vertices.values()
            for i in range(v.degree)
        ]
        seen = {}
        orbits = []
        for d0 in darts:
            if d0 in seen:
                continue
            orbit = []
            d = d0
            while True:
                seen[d] = len(orbits)
                orbit.append(d)
                d = self.next_dart(d)
                if d == d0:
                    break
                if d in seen:
                    raise GraphError("face tracing is not a permutation; bad rotation system")
            orbits.append(orbit)
        # outer face from the witness dart
        outer = None
        if self.outer_witness is not None:
            eid, side = self.outer_witness
            if eid not in self.edges:
                raise GraphError(f"outer face witness names unknown edge {eid}")
            if side not in (WHITE, BLACK):
                raise GraphError(f"outer face witness side must be white/black, got {side!r}")
            vid = self.edges[eid].endpoint(side)
            outer = seen[(vid, self.slot_of(vid, eid))]
        # cilia ownership
        inward = [0] * len(orbits)
        inward_even = [0] * len(orbits)
        for v in self.vertices.values():
            if v.degree == 0:
                continue
            fid = seen[(v.id, (v.cilium - 1) % v.degree)]
            inward[fid] += 1
            inward_even[fid] += v.multiplicity % 2 == 0
        faces = []
        for fid, orbit in enumerate(orbits):
            eids = tuple(self.vertices[v].rotation[s] for v, s in orbit)
            faces.append(
                Face(
                    id=fid,
                    darts=tuple(orbit),
                    edge_ids=eids,
                    inward_cilia=inward[fid],
                    inward_even_cilia=inward_even[fid],
                    is_outer=(fid == outer),
                )
            )
        self._faces = faces
        self._dart_face = seen
        self._outer_face = outer

    def bounded_faces(self):
        return [f for f in self.faces if not f.is_outer]

    # -- backend ------------------------------------------------------------

    def multiplicities(self):
        return sorted({v.multiplicity for v in self.vertices.values()})

    # -- edits (used by local moves; return new graphs) ----------------------

    def replace(
        self,
        vertices=None,
        edges=None,
        outer_witness="keep",
        edge_labels=None,
        connection="keep",
    ):
        new_edges = edges if edges is not None else list(self.edges.values())
        if connection == "keep":
            eids = {e.id for e in new_edges}
            connection = (
                {k: v for k, v in self.connection.items() if k in eids}
                if self.connection is not None and set(self.connection) >= eids
                else None
            )
        if edge_labels is None:
            eids = {e.id for e in new_edges}
            edge_labels = {k: v for k, v in self.edge_labels.items() if v in eids}
        return EmbeddedGraph(
            vertices if vertices is not None else list(self.vertices.values()),
            new_edges,
            outer_witness=self.outer_witness if outer_witness == "keep" else outer_witness,
            edge_labels=edge_labels,
            connection=connection,
        )


def trace_faces(g: EmbeddedGraph):
    """Faces of the rotation system (cached on the graph)."""
    return g.faces


# -- validation --------------------------------------------------------------


def validate(g: EmbeddedGraph):
    """All violated invariants as strings; empty means valid."""
    problems = []
    for e in g.edges.values():
        for vid, want in ((e.white, WHITE), (e.black, BLACK)):
            v = g.vertices.get(vid)
            if v is None:
                problems.append(f"edge {e.id}: dangling endpoint {vid}")
            elif v.color != want:
                problems.append(f"edge {e.id}: endpoint {vid} should be {want}, is {v.color}")
    for v in g.vertices.values():
        if v.multiplicity < 1:
            problems.append(f"vertex {v.id}: multiplicity must be >= 1")
        if v.degree == 0:
            problems.append(f"vertex {v.id}: isolated vertex cannot be covered")
        if v.degree and not (0 <= v.cilium < v.degree):
            problems.append(f"vertex {v.id}: cilium {v.cilium} out of range [0, {v.degree})")
        if len(set(v.rotation)) != v.degree:
            problems.append(f"vertex {v.id}: rotation repeats an edge slot")
        for eid in v.rotation:
            e = g.edges.get(eid)
            if e is None:
                problems.append(f"vertex {v.id}: rotation names unknown edge {eid}")
            elif v.id not in (e.white, e.black):
                problems.append(f"vertex {v.id}: rotation lists non-incident edge {eid}")
    for e in g.edges.values():
        w = g.vertices.get(e.white)
        b = g.vertices.get(e.black)
        if w is None or b is None:
            continue
        if e.id not in w.rotation or e.id not in b.rotation:
            problems.append(f"edge {e.id}: missing from an endpoint rotation")
        if e.weight.shape != (w.multiplicity, b.multiplicity):
            problems.append(
                f"edge {e.id}: weight shape {e.weight.shape} != "
                f"({w.multiplicity}, {b.multiplicity})"
            )
    nw = sum(v.multiplicity for v in g.vertices.values() if v.color == WHITE)
    nb = sum(v.multiplicity for v in g.vertices.values() if v.color == BLACK)
    if nw != nb:
        problems.append(f"Kasteleyn matrix not square: sum n_w = {nw}, sum n_b = {nb}")
    if g.connection is not None and set(g.connection) != set(g.edges):
        problems.append("connection does not cover the edge set")
    exact = [not e.weight.has_float() for e in g.edges.values()]
    if any(exact) and not all(exact):
        problems.append("mixed exact/float edge weights")
    if not problems and g.vertices:
        try:
            nfaces = len(g.faces)
        except GraphError as exc:
            problems.append(str(exc))
        else:
            v_count, e_count = len(g.vertices), len(g.edges)
            if v_count - e_count + nfaces != 2:
                problems.append(
                    f"Euler check failed: V - E + F = {v_count - e_count + nfaces} != 2"
                )
            if g.outer_witness is None:
                problems.append("no outer face designated")
    return problems


# -- GraphSpec (JSON) ----------------------------------------------------------


def _spec_int(x, what: str) -> int:
    """A GraphSpec integer: a JSON integer or an integer string such as "2"."""
    if not isinstance(x, bool) and isinstance(x, (int, str)):
        try:
            return int(x)
        except ValueError:
            pass
    raise GraphError(f"{what} must be an integer, got {x!r}")


def build_graph(spec: dict) -> EmbeddedGraph:
    """Build and fully validate a graph from a GraphSpec document."""
    if not isinstance(spec, dict):
        raise GraphError("GraphSpec must be a JSON object")
    default_n = _spec_int(spec.get("default_multiplicity", 1), "default_multiplicity")
    vertices = []
    for vd in spec.get("vertices", []):
        try:
            color = vd["color"]
            if color not in (WHITE, BLACK):
                raise GraphError(f"vertex {vd.get('id')}: bad color {color!r}")
            vid = _spec_int(vd["id"], "vertex id")
            vertices.append(
                Vertex(
                    id=vid,
                    color=color,
                    multiplicity=_spec_int(
                        vd.get("multiplicity", default_n), f"vertex {vid}: multiplicity"
                    ),
                    rotation=tuple(
                        _spec_int(x, f"vertex {vid}: rotation entry") for x in vd["rotation"]
                    ),
                    cilium=_spec_int(vd.get("cilium", 0), f"vertex {vid}: cilium"),
                    label=vd.get("label"),
                )
            )
        except KeyError as exc:
            raise GraphError(f"vertex entry missing field {exc}") from exc
    edges = []
    labels = {}
    for ed in spec.get("edges", []):
        try:
            rows = ed["weight"]
            weight = Matrix([[parse_scalar(x) for x in row] for row in rows])
            eid = _spec_int(ed["id"], "edge id")
            e = Edge(
                id=eid,
                white=_spec_int(ed["white"], f"edge {eid}: white"),
                black=_spec_int(ed["black"], f"edge {eid}: black"),
                weight=weight,
                label=ed.get("label"),
            )
        except KeyError as exc:
            raise GraphError(f"edge entry missing field {exc}") from exc
        except (ScalarError, ValueError) as exc:
            raise GraphError(f"edge {ed.get('id')}: {exc}") from exc
        edges.append(e)
        if e.label:
            labels[e.label] = e.id
    witness = spec.get("outer_face_witness")
    if witness is not None:
        witness = (_spec_int(witness[0], "outer_face_witness edge"), str(witness[1]))
    connection = spec.get("connection")
    if connection is not None:
        connection = {
            _spec_int(k, "connection edge"): _spec_int(v, f"connection of edge {k}")
            for k, v in connection.items()
        }
        if any(s not in (-1, 1) for s in connection.values()):
            raise GraphError("connection signs must be +-1")
    g = EmbeddedGraph(
        vertices, edges, outer_witness=witness, edge_labels=labels, connection=connection
    )
    problems = validate(g)
    if problems:
        raise GraphError("invalid GraphSpec: " + "; ".join(problems))
    return g


def graph_to_spec(g: EmbeddedGraph) -> dict:
    verts = []
    for v in g.vertices.values():
        vd = {
            "id": v.id,
            "color": v.color,
            "multiplicity": v.multiplicity,
            "rotation": list(v.rotation),
            "cilium": v.cilium,
        }
        if v.label:
            vd["label"] = v.label
        verts.append(vd)
    edges = []
    for e in g.edges.values():
        ed = {
            "id": e.id,
            "white": e.white,
            "black": e.black,
            "weight": [[format_scalar(x) for x in row] for row in e.weight.data],
        }
        if e.label:
            ed["label"] = e.label
        edges.append(ed)
    spec = {
        "default_multiplicity": 1,
        "vertices": verts,
        "edges": edges,
    }
    if g.outer_witness is not None:
        spec["outer_face_witness"] = [g.outer_witness[0], g.outer_witness[1]]
    if g.connection is not None:
        spec["connection"] = {str(eid): s for eid, s in g.connection.items()}
    return spec


def load_graph(path) -> EmbeddedGraph:
    with open(path) as fh:
        return build_graph(json.load(fh))


def save_graph(g: EmbeddedGraph, path):
    with open(path, "w") as fh:
        json.dump(graph_to_spec(g), fh, indent=1)
        fh.write("\n")

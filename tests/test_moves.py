import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from dimerlab.certify import certify_move
from dimerlab.graph import EmbeddedGraph, Edge, Vertex, graph_to_spec, validate
from dimerlab.kasteleyn import assemble, solve_signs
from dimerlab.linalg import BlockMatrix, Matrix, char_coeffs, det, inverse
from dimerlab.moves import (
    MoveError,
    contract,
    gauge,
    gauge_tree_to_identity,
    leaf_trim,
    parallel_reduce,
    square_move,
)
from dimerlab.oracle import cover_weight, oracle_partition
from dimerlab.statistics import probability_matrix
from dimerlab.zoo import grid_graph, random_matrix, snake_graph, snake_reduce, uniform_grid

from conftest import rand_grid


def attach_pendant_pair(g, black_id, n, pendant_weight, link_weight):
    """New white linked to an existing black, plus a pendant black leaf."""
    wid = max(g.vertices) + 1
    bid = wid + 1
    le = max(g.edges) + 1
    pe = le + 1
    vs = []
    for v in g.vertices.values():
        if v.id == black_id:
            vs.append(
                Vertex(v.id, v.color, v.multiplicity, tuple(list(v.rotation) + [le]), v.cilium)
            )
        else:
            vs.append(v)
    vs.append(Vertex(wid, "white", n, (le, pe), 0))
    vs.append(Vertex(bid, "black", n, (pe,), 0))
    es = list(g.edges.values()) + [Edge(le, wid, black_id, link_weight), Edge(pe, wid, bid, pendant_weight)]
    return EmbeddedGraph(vs, es, outer_witness=g.outer_witness), pe


def double_edge(g, label, seed):
    """Split the weight of a labeled edge across two parallel strands."""
    rng = random.Random(seed)
    eid = g.edge_labels[label]
    e = g.edges[eid]
    n = e.weight.rows
    w1 = random_matrix(rng, n, e.weight.cols)
    w2 = e.weight - w1
    new_eid = max(g.edges) + 1
    es = [Edge(eid, x.white, x.black, w1, x.label) if x.id == eid else x for x in g.edges.values()]
    es.append(Edge(new_eid, e.white, e.black, w2))
    vs = []
    for v in g.vertices.values():
        if v.id in (e.white, e.black):
            rot = list(v.rotation)
            i = rot.index(eid)
            rot.insert(i + 1 if v.id == e.white else i, new_eid)
            vs.append(Vertex(v.id, v.color, v.multiplicity, tuple(rot), v.cilium))
        else:
            vs.append(v)
    return EmbeddedGraph(vs, es, outer_witness=g.outer_witness), eid, new_eid


def test_gauge_identity_is_noop():
    rng = random.Random(0)
    g = rand_grid(rng, 1, 2)
    g2 = gauge(g, g.black_ids()[0], Matrix.identity(2))
    assert all(g2.edges[e].weight == g.edges[e].weight for e in g.edges)


def test_gauge_shape_and_singularity_checks():
    rng = random.Random(1)
    g = rand_grid(rng, 1, 2)
    with pytest.raises(MoveError):
        gauge(g, g.black_ids()[0], Matrix.identity(3))
    from dimerlab.linalg import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        gauge(g, g.black_ids()[0], Matrix.zeros(2, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leaf_trim_identity_pendant(n):
    rng = random.Random(n)
    g = rand_grid(rng, 2, n)
    g1, pendant = attach_pendant_pair(g, 0, n, Matrix.identity(n), random_matrix(rng, n, n))
    assert validate(g1) == []
    sys1 = assemble(g1)
    z1 = sys1.partition_function()
    assert z1 == abs(oracle_partition(g1))
    p_before = {eid: probability_matrix(sys1, eid) for eid in g.edges}
    g2, cert = leaf_trim(g1, pendant)
    assert cert.factor == 1
    sys2 = assemble(g2)
    assert sys2.partition_function() == z1
    for eid, p in p_before.items():
        assert probability_matrix(sys2, eid) == p


def test_leaf_trim_general_weight_factor():
    rng = random.Random(5)
    n = 2
    g = rand_grid(rng, 2, n)
    w = random_matrix(rng, n, n)
    g1, pendant = attach_pendant_pair(g, 0, n, w, random_matrix(rng, n, n))
    sys1 = assemble(g1)
    g2, cert = leaf_trim(g1, pendant)
    assert cert.factor == 1 / abs(det(w))
    assert assemble(g2).partition_function() == cert.factor * sys1.partition_function()


def test_leaf_trim_single_edge_to_empty_graph():
    g = grid_graph(uniform_grid(0, 2))
    g2, cert = leaf_trim(g, 0)
    assert not g2.vertices and not g2.edges
    assert cert.factor == 1
    assert assemble(g2).partition_function() == 1


def test_leaf_trim_refuses_to_isolate_a_vertex():
    # a white centre with two pendant black leaves: trimming one strands the other
    one = Matrix.identity(1)
    g = EmbeddedGraph(
        [
            Vertex(0, "white", 1, (0, 1), 0),
            Vertex(1, "black", 1, (0,), 0),
            Vertex(2, "black", 1, (1,), 0),
        ],
        [Edge(0, 0, 1, one), Edge(1, 0, 2, one)],
    )
    with pytest.raises(MoveError, match="isolate vertex 2"):
        leaf_trim(g, 0)


def test_leaf_trim_rejects_non_pendant():
    rng = random.Random(6)
    g = rand_grid(rng, 2, 1)
    with pytest.raises(MoveError):
        leaf_trim(g, g.edge_labels["v1"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parallel_reduce(n):
    rng = random.Random(10 + n)
    g = rand_grid(rng, 2, n)
    g1, kept, extra = double_edge(g, "v1", 20 + n)
    assert validate(g1) == []
    sys1 = assemble(g1)
    z1 = sys1.partition_function()
    assert z1 == abs(oracle_partition(g1))
    e = g1.edges[kept]
    others = [x for x in g1.edges if x not in (kept, extra)]
    p_before = {x: probability_matrix(sys1, x) for x in others}
    g2, cert = parallel_reduce(g1, e.white, e.black)
    assert cert.factor == 1
    sys2 = assemble(g2)
    assert sys2.partition_function() == z1
    assert sys2.partition_function() == abs(oracle_partition(g2))
    for x, p in p_before.items():
        assert probability_matrix(sys2, x) == p
    # the merged block reproduces the original signed sum
    assert sys2.k_block(e.white, e.black) == sys1.k_block(e.white, e.black)


def test_parallel_reduce_sums_identity_pair():
    one = Matrix.identity(1)
    g = EmbeddedGraph(
        [Vertex(0, "white", 1, (0, 1), 0), Vertex(1, "black", 1, (1, 0), 0)],
        [Edge(0, 0, 1, one), Edge(1, 0, 1, one)],
        outer_witness=(0, "white"),
    )
    g2, cert = parallel_reduce(g, 0, 1)
    (e,) = g2.edges.values()
    assert abs(e.weight[0, 0]) == 2
    assert cert.factor == 1


def test_parallel_reduce_requires_two():
    rng = random.Random(14)
    g = rand_grid(rng, 1, 1)
    e = g.edges[g.edge_labels["v0"]]
    with pytest.raises(MoveError):
        parallel_reduce(g, e.white, e.black)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contract(n):
    rng = random.Random(20 + n)
    g = rand_grid(rng, 2, n)
    w0 = 1  # top of column 0: degree 2
    for eid in list(g.vertices[w0].rotation):
        e = g.edges[eid]
        g = gauge(g, e.other(w0), inverse(e.weight))
    sys1 = assemble(g)
    z1 = sys1.partition_function()
    others = [x for x in g.edges if w0 not in (g.edges[x].white, g.edges[x].black)]
    p_before = {x: probability_matrix(sys1, x) for x in others}
    neighbors = {g.edges[e].other(w0) for e in g.vertices[w0].rotation}
    degs = {u: g.vertices[u].degree for u in neighbors}
    g2, cert = contract(g, w0)
    assert cert.factor == 1
    assert validate(g2) == []
    merged = cert.details["merged_into"]
    assert g2.vertices[merged].degree == sum(degs.values()) - 2
    sys2 = assemble(g2)
    assert sys2.partition_function() == z1
    assert sys2.partition_function() == abs(oracle_partition(g2))
    for x in others:
        if x in g2.edges:
            assert probability_matrix(sys2, x) == p_before[x]


def test_contract_preconditions():
    rng = random.Random(30)
    g = rand_grid(rng, 2, 2)
    with pytest.raises(MoveError):
        contract(g, 1)  # edges are not identity
    with pytest.raises(MoveError):
        contract(g, 2)  # wrong degree (bottom-middle has degree 3)


def test_contract_rejects_coincident_neighbors():
    one = Matrix.identity(1)
    # white center with two parallel edges to one black: coincident
    g = EmbeddedGraph(
        [Vertex(0, "white", 1, (0, 1), 0), Vertex(1, "black", 1, (1, 0), 0)],
        [Edge(0, 0, 1, one), Edge(1, 0, 1, one)],
        outer_witness=(0, "white"),
    )
    with pytest.raises(MoveError):
        contract(g, 0)


def test_square_move_scalar_identity_weights():
    g = grid_graph(uniform_grid(1, 1))
    face = next(f for f in g.faces if not f.is_outer)
    g2, cert = square_move(g, face.id)
    nw = cert.details["new_weights"]
    for key in "ABCD":
        assert nw[key] == Matrix([[Fraction(1, 2)]])
    assert cert.factor == Fraction(1, 2)
    assert validate(g2) == []
    sys2 = assemble(g2)
    assert sys2.partition_function() == Fraction(1, 2) * 2
    assert sys2.partition_function() == abs(oracle_partition(g2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_square_move_random(n):
    rng = random.Random(40 + n)
    g = rand_grid(rng, 3, n)
    v1, v2 = g.edge_labels["v1"], g.edge_labels["v2"]
    face = next(
        f for f in g.faces if not f.is_outer and v1 in f.edge_ids and v2 in f.edge_ids
    )
    corners = {vid for vid, _ in face.darts}
    sys1 = assemble(g)
    z1 = sys1.partition_function()
    untouched = [
        x
        for x in g.edges
        if not (g.edges[x].white in corners and g.edges[x].black in corners)
    ]
    p_before = {x: probability_matrix(sys1, x) for x in untouched}
    g2, cert = square_move(g, face.id)
    assert validate(g2) == []
    sys2 = assemble(g2)
    assert sys2.partition_function() == cert.factor * z1
    assert sys2.partition_function() == abs(oracle_partition(g2))
    for x, p in p_before.items():
        assert probability_matrix(sys2, x) == p


def test_square_move_display_identity():
    # [[A,B],[-D,C]]^{-1} == [[a,-d],[b,c]]: directly on the formulas, and
    # through the certificate's normalized frame
    rng = random.Random(44)
    for n in (1, 2):
        a, b, c, d = (random_matrix(rng, n, n) for _ in range(4))
        na = inverse(a + d @ inverse(c) @ b)
        nb = inverse(b + c @ inverse(d) @ a)
        nc = inverse(c + b @ inverse(a) @ d)
        nd = inverse(d + a @ inverse(b) @ c)
        lhs = BlockMatrix.from_blocks([[na, nb], [-nd, nc]]).mat
        rhs = BlockMatrix.from_blocks([[a, -d], [b, c]]).mat
        assert inverse(lhs) == rhs
    rng = random.Random(45)
    g = rand_grid(rng, 2, 2)
    face = next(f for f in g.faces if not f.is_outer)
    g2, cert = square_move(g, face.id)
    nw = cert.details["new_weights"]
    fr = cert.details["frame"]
    lhs = BlockMatrix.from_blocks([[nw["A"], nw["B"]], [-nw["D"], nw["C"]]]).mat
    rhs = BlockMatrix.from_blocks([[fr["a"], -fr["d"]], [fr["b"], fr["c"]]]).mat
    assert inverse(lhs) == rhs
    assert cert.factor == abs(Fraction(1) / det(rhs))


def test_square_move_requires_quad_face():
    rng = random.Random(50)
    g = rand_grid(rng, 2, 1)
    outer = g.faces[g.outer_face]
    with pytest.raises(MoveError):
        square_move(g, outer.id)


def test_certify_move_reports_untouched_edges():
    rng = random.Random(60)
    n = 2
    g = rand_grid(rng, 2, n)
    g1, pendant = attach_pendant_pair(g, 0, n, Matrix.identity(n), random_matrix(rng, n, n))
    g2, cert = leaf_trim(g1, pendant)
    report = certify_move(cert)
    assert report["z_relation"]
    assert set(g.edges) <= set(report["untouched"])
    assert all(report["untouched"].values())


def test_gauge_tree_to_identity_and_census_weight():
    rng = random.Random(70)
    g = grid_graph(
        uniform_grid(
            2,
            3,
            b=[random_matrix(rng, 3, 3) for _ in range(3)],
            a=[random_matrix(rng, 3, 3) for _ in range(2)],
            c=[random_matrix(rng, 3, 3) for _ in range(2)],
        )
    )
    L = g.edge_labels
    tree = [L["c1"], L["v1"], L["a1"], L["a2"], L["c2"]]
    g2, factor = gauge_tree_to_identity(g, tree, root=2)
    assert all(g2.edges[t].weight.is_identity() for t in tree)
    cover = {L["v0"]: 1, L["c1"]: 2, L["v1"]: 1, L["a1"]: 2, L["v2"]: 3, L["a2"]: 0, L["c2"]: 0}
    a_after = g2.edges[L["v0"]].weight
    d_after = g2.edges[L["v2"]].weight
    assert cover_weight(g2, cover) == det(d_after) * a_after.trace()


def test_snake_reduction_matches_figure():
    rng = random.Random(80)
    weights = {}

    def wf(lab, shape):
        weights[lab] = random_matrix(rng, *shape)
        return weights[lab]

    g = snake_graph("NE", 2, weight_fn=wf)
    sys0 = assemble(g)
    z0 = sys0.partition_function()
    L = g.edge_labels
    # letter names for the tile edges:
    # A=v0.0 B=h0.0 C=v1.0 D=h0.1 E=v0.1 F=h0.2 G=v1.1 H=h1.1 M=v2.1 N=h1.2
    exact = [L[x] for x in ("h0.0", "v1.0", "h1.1", "v2.1")]  # B, C, H, M
    conjugate = [L[x] for x in ("v0.0", "h1.2")]  # A, N (black endpoints get gauged)
    p_before = {eid: probability_matrix(sys0, eid) for eid in exact + conjugate}
    g2, certs = snake_reduce(g)
    assert [c.kind for c in certs] == ["gauge", "gauge", "contract", "parallel_reduce"]
    # reduced to a 2x3 grid shape
    assert len(g2.vertices) == 6 and len(g2.edges) == 7
    assert len(g2.bounded_faces()) == 2
    factor = Fraction(1)
    for c in certs:
        factor *= c.factor
    sys2 = assemble(g2)
    assert sys2.partition_function() == factor * z0
    for eid in exact:
        assert probability_matrix(sys2, eid) == p_before[eid]
    for eid in conjugate:
        assert char_coeffs(probability_matrix(sys2, eid)) == char_coeffs(p_before[eid])
    # the merged parallel edge carries X = D E^-1 + G F^-1 up to connection sign
    x = weights["h0.1"] @ inverse(weights["v0.1"]) + weights["v1.1"] @ inverse(weights["h0.2"])
    assert any(e.weight == x or e.weight == -x for e in g2.edges.values())


def test_snake_reduce_straight_is_identity():
    g = snake_graph("EE", 2)
    g2, certs = snake_reduce(g)
    assert certs == []
    assert g2 is g


def test_snake_reduction_unimodular_preserves_z():
    rng = random.Random(90)

    def unimodular(shape):
        # random integer matrix with determinant +-1: product of elementary shears
        n = shape[0]
        m = Matrix.identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            shear = Matrix.identity(n)
            shear.data[i][j] = Fraction(rng.randint(-2, 2))
            m = m @ shear
        return m

    g = snake_graph("NE", 2, weight_fn=lambda lab, shape: unimodular(shape))
    z0 = assemble(g).partition_function()
    g2, certs = snake_reduce(g)
    assert assemble(g2).partition_function() == z0


def test_snake_reduce_longer_word():
    rng = random.Random(91)
    g = snake_graph("NEN", 1, weight_fn=lambda lab, shape: random_matrix(rng, *shape))
    z0 = assemble(g).partition_function()
    g2, certs = snake_reduce(g)
    factor = Fraction(1)
    for c in certs:
        factor *= c.factor
    assert assemble(g2).partition_function() == factor * z0
    assert assemble(g2).partition_function() == abs(oracle_partition(g2))


SNAKE_WORDS = ["N", "EN", "NE", "NEE", "ENE", "NEN", "ENEN"]


@pytest.mark.parametrize("word", SNAKE_WORDS)
def test_snake_fuzz_oracle_and_reduction(word):
    # irregular geometries: oracle equivalence before and after reduction,
    # with the certificate chain tying the partition functions together
    for n in (1, 2):
        rng = random.Random(10 * SNAKE_WORDS.index(word) + n)
        g = snake_graph(word, n, weight_fn=lambda lab, shape: random_matrix(rng, *shape))
        assert validate(g) == []
        sys0 = assemble(g)
        z0 = sys0.partition_function()
        assert z0 == abs(oracle_partition(g))
        g2, certs = snake_reduce(g)
        assert validate(g2) == []
        factor = Fraction(1)
        for c in certs:
            factor *= c.factor
        z2 = assemble(g2).partition_function()
        assert z2 == factor * z0
        assert z2 == abs(oracle_partition(g2))


def pinned_moves():
    """One seeded input per move: (name, move result)."""
    rng = random.Random(2026)
    n = 2
    g = rand_grid(rng, 2, n)
    g1, pendant = attach_pendant_pair(g, 0, n, random_matrix(rng, n, n), random_matrix(rng, n, n))
    yield "leaf_trim", leaf_trim(g1.replace(connection=solve_signs(g1)), pendant)
    # split v1 into two parallel strands; the doubled graph carries no connection
    v1 = g.edges[g.edge_labels["v1"]]
    w1 = random_matrix(rng, n, n)
    split = Edge(max(g.edges) + 1, v1.white, v1.black, v1.weight - w1)
    verts = []
    for v in g.vertices.values():
        if v.id in (v1.white, v1.black):
            rot = list(v.rotation)
            at = rot.index(v1.id) + (v.id == v1.white)
            rot.insert(at, split.id)
            # the white cilium sits inside the bigon, so closing it moves the cilium
            cilium = at if v.id == v1.white else v.cilium
            v = Vertex(v.id, v.color, v.multiplicity, tuple(rot), cilium)
        verts.append(v)
    edges = [replace(e, weight=w1) if e.id == v1.id else e for e in g.edges.values()]
    g2 = EmbeddedGraph(verts, edges + [split], outer_witness=g.outer_witness)
    yield "parallel_reduce", parallel_reduce(g2, v1.white, v1.black)
    g3 = g
    for eid in g.vertices[1].rotation:  # top of column 0 has degree 2
        e = g3.edges[eid]
        g3 = gauge(g3, e.other(1), inverse(e.weight))
    yield "contract", contract(g3, 1)
    face = next(f for f in g.faces if not f.is_outer)
    yield "square", square_move(g, face.id)


# sha256 of json.dumps(graph_to_spec(after)) and the factor of each result:
# a change to vertex, edge or connection order, cilia, witness or weights
# shows here
PINNED_MOVES = {
    "leaf_trim": (
        "fcf17ce8b48f62c8c2927a98f0cdc949f5242548b397ebea9b2e416e3df48648",
        Fraction(3, 8),
    ),
    "parallel_reduce": (
        "59304fb652fc4fbef143ef72629acafd4a1c1c24dc7031fc6f77ac7990cf70b4",
        Fraction(1),
    ),
    "contract": (
        "a02ca50719998e56863689f5c177351fa457beeefde93d024a0262b40e1d495e",
        Fraction(1),
    ),
    "square": (
        "9b23d4e1dba1f83ed3088a50a6ee1bbc371ad977a1cf29da82fef57cffdea7d4",
        Fraction(27, 23),
    ),
}


def test_move_outputs_are_pinned():
    got = {}
    for name, (after, cert) in pinned_moves():
        assert cert.after is after and cert.kind == name
        digest = hashlib.sha256(json.dumps(graph_to_spec(after)).encode()).hexdigest()
        got[name] = (digest, cert.factor)
    assert got == PINNED_MOVES

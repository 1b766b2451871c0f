import json
import random
from fractions import Fraction

import pytest

from dimerlab.graph import (
    EmbeddedGraph,
    Edge,
    GraphError,
    Vertex,
    build_graph,
    graph_to_spec,
    validate,
)
from dimerlab.linalg import Matrix
from dimerlab.zoo import grid_graph, mixed_example, random_matrix, uniform_grid



def square_spec(n=2, seed=0):
    rng = random.Random(seed)
    g = grid_graph(
        uniform_grid(
            1,
            n,
            b=[random_matrix(rng, n, n) for _ in range(2)],
            a=[random_matrix(rng, n, n)],
            c=[random_matrix(rng, n, n)],
        )
    )
    return graph_to_spec(g)


def test_build_square_counts():
    g = build_graph(square_spec())
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    assert len(g.faces) == 2
    assert len(g.bounded_faces()) == 1


def test_single_edge_graph():
    g = grid_graph(uniform_grid(0, 1))
    assert len(g.faces) == 1
    assert g.bounded_faces() == []


def test_grid_2x3_counts():
    g = grid_graph(uniform_grid(2, 3))
    assert len(g.vertices) == 6
    assert len(g.edges) == 7
    assert len(g.faces) == 3
    bounded = g.bounded_faces()
    assert len(bounded) == 2
    assert all(f.num_darts == 4 for f in bounded)


def test_outward_cilia_have_no_inward_count_on_bounded_faces():
    g = grid_graph(uniform_grid(1, 1))
    for f in g.bounded_faces():
        assert f.inward_cilia == 0
    # every cilium is owned by exactly one face
    assert sum(f.inward_cilia for f in g.faces) == len(g.vertices)


def test_euler_formula_on_generators():
    for builder in (
        lambda: grid_graph(uniform_grid(3, 2)),
        lambda: mixed_example(Matrix([[Fraction(1)]]), Matrix.identity(2), Matrix.identity(3)),
    ):
        g = builder()
        assert len(g.vertices) - len(g.edges) + len(g.faces) == 2


def test_round_trip_identity():
    spec = square_spec(n=2, seed=3)
    g = build_graph(spec)
    again = graph_to_spec(g)
    assert json.dumps(spec, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_validate_shape_mismatch():
    spec = square_spec(n=1)
    spec["edges"][0]["weight"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(GraphError, match="shape"):
        build_graph(spec)


def test_validate_unbalanced_multiplicities():
    spec = square_spec(n=1)
    spec["vertices"][0]["multiplicity"] = 2
    with pytest.raises(GraphError, match="square"):
        build_graph(spec)


def test_validate_returns_diagnostics_without_raising():
    one = Matrix([[Fraction(1)]])
    g = EmbeddedGraph(
        [
            Vertex(0, "white", 1, (0,), 0),
            Vertex(1, "black", 2, (0,), 0),
        ],
        [Edge(0, 0, 1, one)],
    )
    problems = validate(g)
    assert any("shape" in p for p in problems)
    assert any("square" in p for p in problems)


def test_duplicate_ids_rejected():
    one = Matrix([[Fraction(1)]])
    with pytest.raises(GraphError, match="duplicate"):
        EmbeddedGraph(
            [Vertex(0, "white", 1, (0,), 0), Vertex(0, "black", 1, (0,), 0)],
            [Edge(0, 0, 0, one)],
        )


def test_non_bipartite_edge_rejected():
    spec = square_spec(n=1)
    spec["edges"][0]["black"] = spec["edges"][0]["white"]
    with pytest.raises(GraphError):
        build_graph(spec)


def test_reading_order_black_ccw_white_cw():
    g = grid_graph(uniform_grid(2, 1))
    # bottom-middle vertex (id 2) is white with rotation (right, vertical, left)
    v = g.vertices[2]
    assert v.color == "white"
    order = g.reading_order(2)
    rot = list(v.rotation)
    # white reads clockwise from the cilium: slot c-1, c-2, ...
    expect = [rot[(v.cilium - 1 - t) % len(rot)] for t in range(len(rot))]
    assert order == expect
    b = g.vertices[0]
    order_b = g.reading_order(0)
    rot_b = list(b.rotation)
    assert order_b == [rot_b[(b.cilium + t) % len(rot_b)] for t in range(len(rot_b))]


def test_edge_labels_resolve():
    g = grid_graph(uniform_grid(1, 1))
    assert g.resolve_edge("v0") == g.edge_labels["v0"]
    assert g.resolve_edge(0) == 0
    assert g.resolve_edge("0") == 0
    with pytest.raises(GraphError):
        g.resolve_edge("nope")


def test_connection_survives_round_trip():
    g = grid_graph(uniform_grid(1, 2))
    spec = graph_to_spec(g)
    assert "connection" in spec
    g2 = build_graph(spec)
    assert g2.connection == g.connection

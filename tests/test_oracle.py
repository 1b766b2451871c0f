import ast
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from dimerlab.graph import GraphError, Vertex
from dimerlab.kasteleyn import assemble
from dimerlab.oracle import (
    EnumerationCapError,
    coloring_term,
    cover_weight,
    enumerate_colorings,
    enumerate_covers,
    oracle_cover_table,
    oracle_distribution,
    oracle_joint,
    oracle_moment,
    oracle_partition,
    oracle_product_expectation,
    sweep_order,
    vertex_arrangements,
)
from dimerlab.linalg import Matrix, det, minor, inverse
from dimerlab.moves import gauge
import dimerlab
from dimerlab.cli import main
from dimerlab.graph import load_graph
from dimerlab.zoo import (
    grid_graph,
    mixed_example,
    random_matrix,
    six_vertex,
    snake_graph,
    uniform_grid,
)

from conftest import rand_grid


def dimerwt_graph(rng):
    """2x3 grid, n = 3, random weights; the worked coloring-census example."""
    return grid_graph(
        uniform_grid(
            2,
            3,
            b=[random_matrix(rng, 3, 3) for _ in range(3)],
            a=[random_matrix(rng, 3, 3) for _ in range(2)],
            c=[random_matrix(rng, 3, 3) for _ in range(2)],
        )
    )


def dimerwt_cover(g):
    L = g.edge_labels
    return {
        L["v0"]: 1,
        L["c1"]: 2,
        L["v1"]: 1,
        L["a1"]: 2,
        L["v2"]: 3,
        L["a2"]: 0,
        L["c2"]: 0,
    }


def test_enumerate_covers_counts():
    assert len(enumerate_covers(grid_graph(uniform_grid(0, 2)))) == 1
    assert len(enumerate_covers(grid_graph(uniform_grid(1, 1)))) == 2
    g = mixed_example(Matrix([[Fraction(1)]]), Matrix.identity(2), Matrix.identity(3))
    assert len(enumerate_covers(g)) == 5


def test_cover_cap_enforced():
    g = grid_graph(uniform_grid(3, 2))
    with pytest.raises(EnumerationCapError):
        enumerate_covers(g, cap=2)


def test_triple_edge_has_single_arrangement():
    rng = random.Random(0)
    g = dimerwt_graph(rng)
    cover = dimerwt_cover(g)
    # right-column endpoints carry the full color set in increasing order
    for vid in (4, 5):  # bottom(2), top(2)
        arrs = vertex_arrangements(g, vid, cover)
        assert len(arrs) == 1
        assignment, sign = arrs[0]
        assert sign == 1
        (colors,) = assignment.values()
        assert colors == frozenset({1, 2, 3})


def test_coloring_census_81_41_40():
    rng = random.Random(1)
    g = dimerwt_graph(rng)
    cover = dimerwt_cover(g)
    cols = enumerate_colorings(g, cover)
    assert len(cols) == 81
    signs = Counter(s for _, s in cols)
    assert signs[1] == 41
    assert signs[-1] == 40


def test_cover_weight_equals_full_coloring_sum():
    rng = random.Random(2)
    g = dimerwt_graph(rng)
    cover = dimerwt_cover(g)
    total = Fraction(0)
    for coloring, sign in enumerate_colorings(g, cover):
        total += sign * coloring_term(g, coloring)
    assert cover_weight(g, cover) == total


def _peak(g, order):
    """Largest number of edges with exactly one end among the swept vertices."""
    swept, peak = set(), 0
    for vid in order:
        swept.add(vid)
        open_edges = sum((e.white in swept) != (e.black in swept) for e in g.edges.values())
        peak = max(peak, open_edges)
    return peak


@pytest.mark.parametrize("r,chosen,insertion", [(3, 6, 30), (4, 8, 56), (5, 10, 90), (7, 14, 182)])
def test_sweep_order_narrows_the_ice_frontier(r, chosen, insertion):
    g = six_vertex(r, r)
    order = sweep_order(g)
    assert sorted(order) == sorted(g.vertices)
    assert _peak(g, list(g.vertices)) == insertion
    assert _peak(g, order) == chosen


def test_sweep_order_keeps_grids_and_never_widens_snakes():
    for N in range(1, 7):
        for n in (1, 2, 3):
            g = grid_graph(uniform_grid(N, n))
            assert sweep_order(g) == list(g.vertices)
    for word in ("NE", "EEN", "NNEN", "ENNE", "NENENE", "EEENNN"):
        g = snake_graph(word, 2)
        assert _peak(g, sweep_order(g)) <= _peak(g, list(g.vertices))


def _assert_sweep_matches_colorings(g, transpose_minors=False, tol=None):
    covers, weights, _ = oracle_cover_table(g, transpose_minors=transpose_minors)
    for cover, w in zip(covers, weights):
        want = sum(
            s * coloring_term(g, c, transpose_minors) for c, s in enumerate_colorings(g, cover)
        )
        assert w == cover_weight(g, cover, transpose_minors)
        if tol is None:
            assert type(w) is Fraction and w == want
        else:
            assert abs(w - want) <= tol * max(1, abs(want))


def test_integer_sweep_is_exact_on_mixed_denominators():
    rng = random.Random(11)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 9))

    mats = [Matrix([[entry() for _ in range(3)] for _ in range(3)]) for _ in range(7)]
    g = grid_graph(uniform_grid(2, 3, b=mats[:3], a=mats[3:5], c=mats[5:]))
    assert len({x.denominator for m in mats for row in m.data for x in row}) > 3
    _assert_sweep_matches_colorings(g)


def test_integer_sweep_on_float_and_part_float_weights():
    _assert_sweep_matches_colorings(six_vertex(3, 3, (math.cos(0.7), math.sin(0.7))), tol=1e-9)
    rng = random.Random(12)
    b = [random_matrix(rng, 2, 2) for _ in range(3)]
    b[1] = Matrix([[float(x) for x in row] for row in b[1].data])
    a = [random_matrix(rng, 2, 2) for _ in range(2)]
    a[0] = Matrix([[0.25, Fraction(1, 3)], [Fraction(-2, 7), 1.5]])
    g = grid_graph(uniform_grid(2, 2, b=b, a=a, c=[random_matrix(rng, 2, 2) for _ in range(2)]))
    _assert_sweep_matches_colorings(g, tol=1e-9)


def test_integer_sweep_with_transposed_minors(tmp_path):
    path = tmp_path / "square.json"
    assert main(["gen", "--gen", "grid", "--N", "1", "--n", "2", "--seed", "3", "--out", str(path)]) == 0
    _assert_sweep_matches_colorings(load_graph(path), transpose_minors=True)


def test_coloring_cap_enforced():
    rng = random.Random(3)
    g = dimerwt_graph(rng)
    with pytest.raises(EnumerationCapError):
        enumerate_colorings(g, dimerwt_cover(g), cap=80)


def test_mixed_example_cover_weights_match_figure_formulas():
    rng = random.Random(4)
    a = random_matrix(rng, 1, 1)
    B = random_matrix(rng, 2, 2)
    C = random_matrix(rng, 3, 3)
    g = mixed_example(a, B, C)
    L = g.edge_labels
    a_s = a[0, 0]
    by_cover = {}
    for cover in enumerate_covers(g):
        key = tuple(sorted((eid, m) for eid, m in cover.items() if m))
        by_cover[key] = cover_weight(g, cover)

    def key_of(**mults):
        return tuple(sorted((L[k], m) for k, m in mults.items()))

    assert by_cover[key_of(v0=1, v1=2, v2=3)] == a_s * det(B) * det(C)
    assert by_cover[key_of(v0=1, a2=2, c2=2, v2=1)] == a_s * C[2, 2]
    assert by_cover[key_of(c1=1, a1=1, v1=1, v2=3)] == B[1, 1] * det(C)
    assert by_cover[key_of(c1=1, a1=1, a2=1, c2=1, v2=2)] == minor(C, [0, 2], [0, 2])
    # last cover: a det(B) det(C) tr(embed(B^-1) C^-1)
    embed = Matrix.zeros(3, 3)
    binv = inverse(B)
    for i in range(2):
        for j in range(2):
            embed.data[i][j] = binv[i, j]
    want = a_s * det(B) * det(C) * (embed @ inverse(C)).trace()
    assert by_cover[key_of(v0=1, v1=1, a2=1, c2=1, v2=2)] == want


def test_last_mixed_cover_has_four_contributing_colorings():
    rng = random.Random(5)
    g = mixed_example(random_matrix(rng, 1, 1), random_matrix(rng, 2, 2), random_matrix(rng, 3, 3))
    L = g.edge_labels
    cover = {L["v0"]: 1, L["v1"]: 1, L["a2"]: 1, L["c2"]: 1, L["v2"]: 2, L["a1"]: 0, L["c1"]: 0}
    nonzero = [
        (c, s) for c, s in enumerate_colorings(g, cover) if coloring_term(g, c) != 0
    ]
    assert len(nonzero) == 4


def test_oracle_partition_forced_cases():
    rng = random.Random(6)
    w = random_matrix(rng, 3, 3)
    g = grid_graph(uniform_grid(0, 3, b=[w]))
    assert oracle_partition(g) == det(w)
    assert oracle_partition(grid_graph(uniform_grid(1, 1))) == 2


def test_gauge_covariance_of_cover_weights():
    rng = random.Random(7)
    g = rand_grid(rng, 1, 2)
    m = random_matrix(rng, 2, 2)
    black = g.black_ids()[0]
    g2 = gauge(g, black, m)
    covers, w1, _ = oracle_cover_table(g)
    _, w2, _ = oracle_cover_table(g2)
    assert all(b == a * det(m) for a, b in zip(w1, w2))


def test_cilium_move_keeps_measure_at_odd_vertices():
    rng = random.Random(8)
    g = rand_grid(rng, 1, 3)
    moved = [
        Vertex(v.id, v.color, v.multiplicity, v.rotation, (v.cilium + 1) % v.degree, v.label)
        if v.id == 0
        else v
        for v in g.vertices.values()
    ]
    g2 = g.replace(vertices=moved, connection=None)
    _, w1, z1 = oracle_cover_table(g)
    _, w2, z2 = oracle_cover_table(g2)
    assert [a / z1 for a in w1] == [b / z2 for b in w2]
    assert assemble(g2).partition_function() == abs(z2)


def test_cilium_move_twists_even_vertices_per_cover():
    rng = random.Random(9)
    g = rand_grid(rng, 1, 2)
    v = g.vertices[0]
    crossed = v.rotation[0]  # moving the cilium 0 -> 1 crosses slot 0
    moved = [
        Vertex(x.id, x.color, x.multiplicity, x.rotation, (x.cilium + 1) % x.degree, x.label)
        if x.id == 0
        else x
        for x in g.vertices.values()
    ]
    g2 = g.replace(vertices=moved, connection=None)
    covers, w1, z1 = oracle_cover_table(g)
    _, w2, z2 = oracle_cover_table(g2)
    for cover, a, b in zip(covers, w1, w2):
        assert b == (a if cover.get(crossed, 0) % 2 == 0 else -a)
    # the determinant tracks the re-solved connection on both sides
    assert assemble(g).partition_function() == abs(z1)
    assert assemble(g2).partition_function() == abs(z2)


def test_empty_graph_partition_is_one():
    from dimerlab.graph import EmbeddedGraph

    g = EmbeddedGraph([], [])
    assert oracle_partition(g) == 1


def test_oracle_joint_all_ones_square():
    # two matchings of weight 1: the opposite verticals are both used or both empty
    g = grid_graph(uniform_grid(1, 1))
    v0, v1 = g.edge_labels["v0"], g.edge_labels["v1"]
    half = Fraction(1, 2)
    assert oracle_joint(g, [v0, v1]) == {(1, 1): half, (0, 0): half}
    assert oracle_joint(g, [v0, v0]) == {(1, 1): half, (0, 0): half}
    assert oracle_joint(g, []) == {(): 1}
    assert oracle_distribution(g, v0) == [half, half]
    assert oracle_product_expectation(g, [v0, v1]) == half
    assert oracle_moment(g, v0, 3) == half


def test_oracle_statistics_refuse_zero_partition():
    # the two matchings weigh -1 and +1
    g = grid_graph(uniform_grid(1, 1, b=[Matrix([[Fraction(-1)]]), Matrix.identity(1)]))
    assert oracle_partition(g) == 0
    table = oracle_cover_table(g)
    for stat in (
        lambda: oracle_joint(g, [0]),
        lambda: oracle_distribution(g, 0, table=table),
        lambda: oracle_product_expectation(g, [0, 1], table=table),
    ):
        with pytest.raises(GraphError):
            stat()


def _package_imports(module: str):
    """Modules of the package that ``module`` imports by name."""
    tree = ast.parse((pathlib.Path(dimerlab.__file__).parent / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dimerlab."):
            yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from [a.name.split(".")[1] for a in node.names if a.name.startswith("dimerlab.")]


def _reached(*modules):
    """Package modules that ``modules`` import, directly or through each other."""
    reached, todo = set(), list(modules)
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_package_imports(module))
    return reached


def test_determinant_route_imports_nothing_from_the_oracle():
    reached = _reached("statistics", "kasteleyn", "linalg")
    assert "oracle" not in reached
    assert {"statistics", "kasteleyn", "linalg", "graph", "scalars"} <= reached


def test_moves_imports_nothing_from_statistics_or_oracle():
    reached = _reached("moves")
    assert not {"statistics", "oracle", "certify"} & reached
    assert {"moves", "kasteleyn", "linalg", "graph"} <= reached

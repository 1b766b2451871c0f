"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS lines.  Everything on the rational backend is exact equality; the
only float tolerance is the 1e-12 six-vertex check at theta = pi/4.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dimerlab.graph import Vertex, validate
from dimerlab.kasteleyn import assemble, connection_is_valid, flip_coboundary, solve_signs
from dimerlab.linalg import Matrix, adjugate, char_coeffs, det, inverse
from dimerlab.moves import (
    contract,
    gauge,
    leaf_trim,
    parallel_reduce,
    square_move,
)
from dimerlab.oracle import (
    cover_weight,
    enumerate_colorings,
    enumerate_covers,
    oracle_cover_table,
    oracle_distribution,
    oracle_moment,
    oracle_product_expectation,
)
from dimerlab.scalars import MPoly
from dimerlab.statistics import (
    covariance,
    expected_multiplicity,
    moment,
    multiplicity_distribution,
    probability_matrix,
    product_expectation,
    psi,
    variance,
)
from dimerlab.zoo import (
    grid_covariance,
    grid_graph,
    grid_horizontal_P,
    grid_vertical_P,
    continued_fraction,
    mixed_example,
    q_fibonacci_grid,
    q_fibonacci_polys,
    q_fibonacci_twin_polys,
    random_matrix,
    six_vertex,
    six_vertex_closed_forms,
    snake_graph,
    uniform_grid,
)

from conftest import PYTH_POINTS, corpus, mixed_corpus, rand_grid

SEEDS = (0, 1, 2)
MULTIPLICITIES = (1, 2, 3)


def report(number, text):
    print(f"\n[criterion {number:2d}] PASS - {text}")


@pytest.fixture(scope="module")
def corpus_tables():
    """Every corpus instance with its Kasteleyn system and oracle table."""
    t0 = time.time()
    items = []
    for n in MULTIPLICITIES:
        for seed in SEEDS:
            for name, g in corpus(n, seed):
                items.append((f"{name}[n={n},seed={seed}]", g, assemble(g), oracle_cover_table(g)))
    for seed in SEEDS:
        for name, g in mixed_corpus(seed):
            items.append((f"{name}[seed={seed}]", g, assemble(g), oracle_cover_table(g)))
    elapsed = time.time() - t0
    return items, elapsed


# exact domain-wall ice r x r has as many covers as r x r alternating-sign matrices
ICE_COVERS = {4: 42, 5: 429}


@pytest.fixture(scope="module")
def ice_tables():
    """Exact six-vertex ice at oracle scale, in the corpus_tables layout."""
    t0 = time.time()
    items = []
    for r in ICE_COVERS:
        g = six_vertex(r, r)
        items.append((f"six_vertex_{r}x{r}", g, assemble(g), oracle_cover_table(g)))
    return items, time.time() - t0


def test_criterion_1_oracle_equivalence(corpus_tables, ice_tables):
    items, elapsed = corpus_tables
    ice, ice_elapsed = ice_tables
    for name, g, sys, table in items + ice:
        _, _, z = table
        z_abs = -z if z < 0 else z
        assert sys.partition_function() == z_abs, name
        # the face rule holds for mixed multiplicities too: solve, do not carry
        assert assemble(g, solve_signs(g)).partition_function() == z_abs, name
    assert [len(table[0]) for *_, table in ice] == list(ICE_COVERS.values())
    elapsed += ice_elapsed
    assert elapsed < 60, f"corpus enumeration took {elapsed:.1f}s"
    n = len(items) + len(ice)
    report(1, f"|det K| = oracle Z, carried and solved signs, on {n} corpus instances ({elapsed:.1f}s)")


def test_criterion_2_coloring_census_and_gauged_weight():
    from dimerlab.moves import gauge_tree_to_identity

    rng = random.Random(2024)
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
    cover = {L["v0"]: 1, L["c1"]: 2, L["v1"]: 1, L["a1"]: 2, L["v2"]: 3, L["a2"]: 0, L["c2"]: 0}
    colorings = enumerate_colorings(g, cover)
    signs = Counter(s for _, s in colorings)
    assert len(colorings) == 81
    assert signs[1] == 41
    assert signs[-1] == 40
    tree = [L["c1"], L["v1"], L["a1"], L["a2"], L["c2"]]
    g2, _ = gauge_tree_to_identity(g, tree, root=2)
    a_after = g2.edges[L["v0"]].weight
    d_after = g2.edges[L["v2"]].weight
    assert cover_weight(g2, cover) == det(d_after) * a_after.trace()
    report(2, "81 colorings (41 positive / 40 negative); gauged weight = det(D) tr(A)")


def test_criterion_3_distribution_formulas(corpus_tables, ice_tables):
    items, _ = corpus_tables
    ice, _ = ice_tables
    edges_checked = 0
    for name, g, sys, table in items + ice[:1]:
        _, _, z = table
        if z == 0:
            continue
        for eid in g.edges:
            p = probability_matrix(sys, eid)
            pmf = multiplicity_distribution(p)
            assert list(pmf) == oracle_distribution(g, eid, table=table), (name, eid)
            assert sum(pmf.masses) == 1
            assert expected_multiplicity(p) == oracle_moment(g, eid, 1, table=table)
            assert variance(p) == p.trace() - (p @ p).trace()
            for power in (2, 3, 4):
                assert moment(p, power) == oracle_moment(g, eid, power, table=table)
            edges_checked += 1
    report(3, f"pmf, mean, variance, Stirling moments N<=4 exact on {edges_checked} edges")


def test_criterion_4_multi_edge_products(corpus_tables):
    items, _ = corpus_tables
    pairs = triples = 0
    for name, g, sys, table in items:
        _, _, z = table
        if z == 0:
            continue
        eids = sorted(g.edges)
        for a, b in itertools.combinations(eids, 2):
            lhs = product_expectation(sys, [a, b])
            assert lhs == oracle_product_expectation(g, [a, b], table=table), (name, a, b)
            cov = covariance(sys, a, b)
            ma = expected_multiplicity(probability_matrix(sys, a))
            mb = expected_multiplicity(probability_matrix(sys, b))
            assert cov == lhs - ma * mb
            pairs += 1
        rng = random.Random(name)
        all_triples = list(itertools.combinations(eids, 3))
        for trip in rng.sample(all_triples, min(5, len(all_triples))):
            assert product_expectation(sys, list(trip)) == oracle_product_expectation(
                g, list(trip), table=table
            ), (name, trip)
            triples += 1
    report(4, f"psi-expansion product expectations: {pairs} pairs, {triples} triples")


@pytest.mark.parametrize("k", [2, 3])
def test_criterion_5_derivative_lemma(k):
    for seed in range(3):
        rng = random.Random(seed)
        entries = []
        for i in range(3):
            row = []
            for j in range(3):
                owner = rng.randrange(k)
                row.append(
                    MPoly.const(Fraction(rng.randint(-3, 3)))
                    + MPoly.var(f"t{owner}") * Fraction(rng.randint(-3, 3))
                )
            entries.append(row)
        a = Matrix(entries)
        d = det(a)
        lhs = d
        for t in range(k):
            lhs = lhs.diff(f"t{t}")
        adj = adjugate(a)
        ys = [adj @ a.map(lambda x, t=t: x.diff(f"t{t}")) for t in range(k)]
        assert lhs * d ** (k - 1) == psi(ys)
    report(5, f"d^{k} det = det * psi_{k} as an exact polynomial identity")


def _attach_pendant_pair(g, black_id, n, pendant_weight, link_weight):
    from dimerlab.graph import EmbeddedGraph, Edge

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
    es = list(g.edges.values()) + [
        Edge(le, wid, black_id, link_weight),
        Edge(pe, wid, bid, pendant_weight),
    ]
    return EmbeddedGraph(vs, es, outer_witness=g.outer_witness), pe


def _double_edge(g, label, rng):
    from dimerlab.graph import EmbeddedGraph, Edge

    eid = g.edge_labels[label]
    e = g.edges[eid]
    w1 = random_matrix(rng, e.weight.rows, e.weight.cols)
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
    return EmbeddedGraph(vs, es, outer_witness=g.outer_witness), e


def test_criterion_6_local_moves():
    checks = 0
    for n in MULTIPLICITIES:
        rng = random.Random(600 + n)
        # (i) leaf trimming at factor 1 in normal form
        g = rand_grid(rng, 2, n)
        g1, pendant = _attach_pendant_pair(g, 0, n, Matrix.identity(n), random_matrix(rng, n, n))
        sys1 = assemble(g1)
        before = {eid: probability_matrix(sys1, eid) for eid in g.edges}
        g2, cert = leaf_trim(g1, pendant)
        sys2 = assemble(g2)
        assert cert.factor == 1
        assert sys2.partition_function() == sys1.partition_function()
        assert all(probability_matrix(sys2, e) == p for e, p in before.items())
        # (ii) parallel edge reduction
        g = rand_grid(rng, 2, n)
        g1, e = _double_edge(g, "v1", rng)
        sys1 = assemble(g1)
        others = [x for x in g1.edges if x not in (g.edge_labels["v1"], max(g1.edges))]
        before = {x: probability_matrix(sys1, x) for x in others}
        g2, cert = parallel_reduce(g1, e.white, e.black)
        sys2 = assemble(g2)
        assert cert.factor == 1
        assert sys2.partition_function() == sys1.partition_function()
        assert all(probability_matrix(sys2, x) == p for x, p in before.items())
        # (iii) contraction (normal form via gauges)
        g = rand_grid(rng, 2, n)
        center = 1  # top of column 0, degree 2
        for eid in list(g.vertices[center].rotation):
            edge = g.edges[eid]
            g = gauge(g, edge.other(center), inverse(edge.weight))
        sys1 = assemble(g)
        others = [
            x for x in g.edges if center not in (g.edges[x].white, g.edges[x].black)
        ]
        before = {x: probability_matrix(sys1, x) for x in others}
        g2, cert = contract(g, center)
        sys2 = assemble(g2)
        assert cert.factor == 1
        assert sys2.partition_function() == sys1.partition_function()
        for x in others:
            if x in g2.edges:
                assert probability_matrix(sys2, x) == before[x]
        # (iv) square move with factor det [[A,B],[-D,C]]
        g = rand_grid(rng, 3, n)
        v1, v2 = g.edge_labels["v1"], g.edge_labels["v2"]
        face = next(
            f for f in g.faces if not f.is_outer and v1 in f.edge_ids and v2 in f.edge_ids
        )
        corners = {vid for vid, _ in face.darts}
        sys1 = assemble(g)
        untouched = [
            x
            for x in g.edges
            if not (g.edges[x].white in corners and g.edges[x].black in corners)
        ]
        before = {x: probability_matrix(sys1, x) for x in untouched}
        g2, cert = square_move(g, face.id)
        sys2 = assemble(g2)
        assert sys2.partition_function() == cert.factor * sys1.partition_function()
        assert all(probability_matrix(sys2, x) == p for x, p in before.items())
        checks += 4
    report(6, f"moves i-iv: exact Z factors and untouched-edge P_e, n in {MULTIPLICITIES}")


def test_criterion_7_grid_closed_forms():
    for N, n in [(2, 1), (3, 2), (4, 3), (5, 2), (5, 3)]:
        rng = random.Random(700 + 10 * N + n)
        while True:
            spec = uniform_grid(N, n, b=[random_matrix(rng, n, n) for _ in range(N + 1)])
            try:
                for i in range(N + 1):
                    grid_vertical_P(spec, i)
                break
            except Exception:
                continue
        g = grid_graph(spec)
        sys = assemble(g)
        for i in range(N + 1):
            assert grid_vertical_P(spec, i) == probability_matrix(sys, g.edge_labels[f"v{i}"])
        for gap in range(N):
            assert grid_horizontal_P(spec, gap, "a") == probability_matrix(
                sys, g.edge_labels[f"a{gap + 1}"]
            )
            assert grid_horizontal_P(spec, gap, "c") == probability_matrix(
                sys, g.edge_labels[f"c{gap + 1}"]
            )
        for i, j in itertools.combinations(range(N + 1), 2):
            assert grid_covariance(spec, i, j) == covariance(
                sys, g.edge_labels[f"v{i}"], g.edge_labels[f"v{j}"]
            )
        e0 = g.edges[g.edge_labels["v0"]]
        assert sys.block_inverse(e0.white, e0.black) == inverse(
            continued_fraction(spec.b, 0, N)
        )
        for i in range(1, N):
            p = grid_vertical_P(spec, i)
            p_left = inverse(continued_fraction(spec.b, i, 0)) @ spec.b[i]
            p_right = inverse(continued_fraction(spec.b, i, N)) @ spec.b[i]
            assert p == p_right @ inverse(p_left + p_right - p_left @ p_right) @ p_left
    report(7, "vertical/horizontal P, covariances, K^[0][0], split identity: exact")


def test_criterion_8_fibonacci_families():
    fib = [1, 1]
    for _ in range(12):
        fib.append(fib[-1] + fib[-2])
    for N in range(9):
        g = grid_graph(uniform_grid(N, 1))
        assert len(enumerate_covers(g)) == fib[N + 1]  # = f_{N+2} with f_1 = f_2 = 1
    for q in (Fraction(1), Fraction(2), Fraction(1, 3)):
        Q = Matrix([[q]])
        for N in range(1, 7):
            g, val = q_fibonacci_grid(N, Q)
            twins = q_fibonacci_twin_polys(max(N, 2), Q)
            fs = q_fibonacci_polys(N + 1, Q)
            assert val == (Q @ twins[N - 1] @ inverse(fs[N + 1])).trace()
            sys = assemble(g)
            assert val == expected_multiplicity(
                probability_matrix(sys, g.edge_labels["v0"])
            )
    rng = random.Random(800)
    for N in (2, 3, 4):
        Qm = random_matrix(rng, 2, 2)
        g, val = q_fibonacci_grid(N, Qm)
        sys = assemble(g)
        assert val == expected_multiplicity(probability_matrix(sys, g.edge_labels["v0"]))
    report(8, "f_{N+2} covers (N<=8); q-ratio at q in {1,2,1/3}; matrix-Q trace formula")


def test_criterion_9_six_vertex():
    c, s = Fraction(3, 5), Fraction(4, 5)
    g = six_vertex(3, 3, (c, s))
    sys = assemble(g)
    east, north = six_vertex_closed_forms(c, s)
    assert east == Fraction(337, 625) and north == Fraction(288, 625)
    for d, want in (("east", east), ("west", east), ("north", north), ("south", north)):
        eid = g.edge_labels[f"center-{d}"]
        assert expected_multiplicity(probability_matrix(sys, eid)) == want
    cf = sf = math.cos(math.pi / 4)
    gf = six_vertex(3, 3, (cf, sf))
    sysf = assemble(gf)
    for d in ("east", "north", "west", "south"):
        eid = gf.edge_labels[f"center-{d}"]
        assert abs(expected_multiplicity(probability_matrix(sysf, eid)) - 0.5) < 1e-12
    report(9, "3x3 domain wall: east/west 337/625, north/south 288/625; pi/4 floats at 0.5")


def test_criterion_10_invariance_suites():
    graphs = [g for (_, g) in corpus(1, 0)] + [g for (_, g) in corpus(2, 0)] + [
        g for (_, g) in corpus(3, 0)
    ]
    graphs += [g for (_, g) in mixed_corpus(0)]
    rng = random.Random(1000)
    for g in graphs:
        sys1 = assemble(g)
        # sign-solution independence via a coboundary flip
        flips = [vid for vid in g.vertices if rng.random() < 0.5] or [next(iter(g.vertices))]
        eps2 = flip_coboundary(sys1.eps, g, flips)
        assert connection_is_valid(g, eps2) == connection_is_valid(g, sys1.eps)
        sys2 = assemble(g, eps2)
        assert sys1.partition_function() == sys2.partition_function()
        for eid in g.edges:
            assert probability_matrix(sys1, eid) == probability_matrix(sys2, eid)
        # gauge invariance of char coeffs of P_e
        vid = sorted(g.vertices)[rng.randrange(len(g.vertices))]
        m = random_matrix(rng, g.vertices[vid].multiplicity, g.vertices[vid].multiplicity)
        g3 = gauge(g, vid, m)
        sys3 = assemble(g3, sys1.eps)
        for eid in g.edges:
            assert char_coeffs(probability_matrix(sys3, eid)) == char_coeffs(
                probability_matrix(sys1, eid)
            )
    # cilium moves: invariant at odd-multiplicity vertices; exact sign twist at even
    for n in (1, 3):
        g = next(g for (name, g) in corpus(n, 0) if name == "grid_N2")
        vid = sorted(g.vertices)[0]
        v = g.vertices[vid]
        moved = [
            Vertex(x.id, x.color, x.multiplicity, x.rotation, (x.cilium + 1) % x.degree, x.label)
            if x.id == vid
            else x
            for x in g.vertices.values()
        ]
        g2 = g.replace(vertices=moved, connection=None)
        _, w1, z1 = oracle_cover_table(g)
        _, w2, z2 = oracle_cover_table(g2)
        assert [a / z1 for a in w1] == [b / z2 for b in w2]
        assert assemble(g2).partition_function() == (z2 if z2 > 0 else -z2)
    g = next(g for (name, g) in corpus(2, 0) if name == "grid_N1")
    v = g.vertices[0]
    crossed = v.rotation[0]
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
    assert assemble(g2).partition_function() == (z2 if z2 > 0 else -z2)
    report(10, "sign-solution independence, gauge spectra, cilium moves (odd exact / even twist)")

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from dimerlab.graph import GraphError
from dimerlab.kasteleyn import assemble
from dimerlab.linalg import Matrix, adjugate, char_coeffs, det, inverse
from dimerlab.oracle import (
    oracle_cover_table,
    oracle_distribution,
    oracle_joint,
    oracle_moment,
    oracle_product_expectation,
    sample_cover,
)
from dimerlab.scalars import MPoly
from dimerlab.statistics import (
    covariance,
    cycle_probability_matrix,
    distribution_via_failure_odds,
    distribution_via_success_odds,
    edge_pgf,
    edge_variable,
    expected_multiplicity,
    joint_distribution,
    joint_pgf,
    moment,
    multiplicity_distribution,
    pr_used,
    probability_matrix,
    product_expectation,
    psi,
    variance,
)
from dimerlab.zoo import grid_graph, mixed_example, random_matrix, uniform_grid

from conftest import display_square, rand_grid


def all_ones_square():
    return grid_graph(uniform_grid(1, 1))


def diag_square():
    """4-cycle, n = 2, identity weights: the product of two scalar models."""
    return grid_graph(uniform_grid(1, 2))


def test_probability_matrix_forced_edge():
    rng = random.Random(0)
    w = random_matrix(rng, 2, 2)
    g = grid_graph(uniform_grid(0, 2, b=[w]))
    sys = assemble(g)
    assert probability_matrix(sys, 0) == Matrix.identity(2)


def test_probability_matrix_display_formula():
    rng = random.Random(1)
    a, b, c, d = (random_matrix(rng, 2, 2) for _ in range(4))
    g, eps = display_square(a, b, c, d)
    sys = assemble(g, eps)
    p = probability_matrix(sys, g.edge_labels["v0"])
    assert p == inverse(Matrix.identity(2) + inverse(a) @ d @ inverse(c) @ b)


def test_all_ones_square_probabilities():
    sys = assemble(all_ones_square())
    for eid in range(4):
        assert probability_matrix(sys, eid) == Matrix([[Fraction(1, 2)]])


def test_cycle_matrix_trace_twin():
    rng = random.Random(2)
    g = rand_grid(rng, 2, 2)
    sys = assemble(g)
    for eid in g.edges:
        assert cycle_probability_matrix(sys, [eid]).trace() == probability_matrix(
            sys, eid
        ).trace()


def test_cycle_matrix_adjacent_pair_value():
    g = all_ones_square()
    sys = assemble(g)
    # adjacent edges share the black corner: scalar 1/4
    L = g.edge_labels
    assert cycle_probability_matrix(sys, [L["v0"], L["c1"]]).trace() == Fraction(1, 4)


def test_edge_pgf_special_cases():
    assert edge_pgf(Matrix.identity(2)) == MPoly.var("t") ** 2
    p = Fraction(2, 7)
    pgf = edge_pgf(Matrix([[p]]))
    t = MPoly.var("t")
    assert pgf == (1 - p) + p * t


def test_diag_square_is_product_measure():
    g = diag_square()
    sys = assemble(g)
    P = probability_matrix(sys, 0)
    dist = multiplicity_distribution(P)
    assert list(dist) == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    pgf = edge_pgf(P)
    assert [pgf.coefficient({"t": k}) for k in range(3)] == list(dist)
    assert expected_multiplicity(P) == 1
    assert variance(P) == Fraction(1, 2)
    assert moment(P, 2) == Fraction(3, 2)


def test_diagonal_weights_give_layered_probabilities():
    rng = random.Random(3)
    layers = [Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))]
    diag = Matrix.diag(layers)
    g = grid_graph(uniform_grid(1, 2, b=[diag, Matrix.identity(2)]))
    sys = assemble(g)
    P = probability_matrix(sys, g.edge_labels["v0"])
    for i, w in enumerate(layers):
        scalar_g = grid_graph(uniform_grid(1, 1, b=[Matrix([[w]]), Matrix.identity(1)]))
        p_scalar = probability_matrix(assemble(scalar_g), scalar_g.edge_labels["v0"])[0, 0]
        assert P[i, i] == p_scalar
    assert P[0, 1] == 0 and P[1, 0] == 0


def test_distribution_trivial_and_flags():
    d = multiplicity_distribution(Matrix.zeros(2, 2))
    assert list(d) == [1, 0, 0]
    assert not d.has_negative
    assert d.total == 1


def test_distribution_cross_checks():
    rng = random.Random(4)
    g = rand_grid(rng, 2, 2)
    sys = assemble(g)
    P = probability_matrix(sys, g.edge_labels["v1"])
    base = multiplicity_distribution(P)
    assert list(distribution_via_success_odds(P)) == list(base)
    assert list(distribution_via_failure_odds(P)) == list(base)
    assert pr_used(P) == 1 - base[0]


def test_distribution_matches_oracle_exactly():
    rng = random.Random(5)
    for n in (1, 2, 3):
        g = rand_grid(rng, 2, n)
        sys = assemble(g)
        table = oracle_cover_table(g)
        for eid in g.edges:
            P = probability_matrix(sys, eid)
            assert list(multiplicity_distribution(P)) == oracle_distribution(
                g, eid, table=table
            )
            assert expected_multiplicity(P) == oracle_moment(g, eid, 1, table=table)
            for power in (2, 3, 4):
                assert moment(P, power) == oracle_moment(g, eid, power, table=table)
            assert variance(P) == moment(P, 2) - expected_multiplicity(P) ** 2


def test_expected_multiplicity_cases():
    assert expected_multiplicity(Matrix.identity(3)) == 3
    assert variance(Matrix.identity(3)) == 0
    p = Fraction(3, 11)
    assert expected_multiplicity(Matrix([[p]])) == p
    assert variance(Matrix([[p]])) == p * (1 - p)
    assert moment(Matrix([[p]]), 2) == p  # 0/1 variable


def test_moment_requires_positive_order():
    with pytest.raises(ValueError):
        moment(Matrix.identity(2), 0)


def test_psi_small_cases_and_guard():
    rng = random.Random(6)
    a1 = random_matrix(rng, 2, 2)
    a2 = random_matrix(rng, 2, 2)
    assert psi([a1]) == a1.trace()
    assert psi([a1, a2]) == a1.trace() * a2.trace() - (a1 @ a2).trace()
    with pytest.raises(ValueError):
        psi([a1] * 9)


@pytest.mark.parametrize("k", [2, 3])
def test_determinant_derivative_lemma(k):
    # d^k det(A) * det(A)^{k-1} == Psi_k applied to adj(A) dA/dt_i, exactly,
    # for A with each entry depending on at most one variable
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
        A = Matrix(entries)
        detA = det(A)
        lhs = detA
        for t in range(k):
            lhs = lhs.diff(f"t{t}")
        adj = adjugate(A)
        ys = [adj @ A.map(lambda x, t=t: x.diff(f"t{t}")) for t in range(k)]
        assert lhs * detA ** (k - 1) == psi(ys)


def test_product_expectation_consistency():
    rng = random.Random(7)
    g = rand_grid(rng, 2, 2)
    sys = assemble(g)
    table = oracle_cover_table(g)
    eids = sorted(g.edges)
    for eid in eids:
        assert product_expectation(sys, [eid]) == expected_multiplicity(
            probability_matrix(sys, eid)
        )
    for pair in itertools.combinations(eids, 2):
        lhs = product_expectation(sys, list(pair))
        assert lhs == oracle_product_expectation(g, list(pair), table=table)
        e1, e2 = pair
        cov = covariance(sys, e1, e2)
        m1 = expected_multiplicity(probability_matrix(sys, e1))
        m2 = expected_multiplicity(probability_matrix(sys, e2))
        assert lhs == m1 * m2 + cov
    for trip in list(itertools.combinations(eids, 3))[:6]:
        assert product_expectation(sys, list(trip)) == oracle_product_expectation(
            g, list(trip), table=table
        )


def test_product_expectation_rejects_duplicates():
    g = all_ones_square()
    sys = assemble(g)
    with pytest.raises(GraphError):
        product_expectation(sys, [0, 0])
    with pytest.raises(GraphError):
        covariance(sys, 1, 1)


def test_opposite_edges_all_ones():
    g = all_ones_square()
    sys = assemble(g)
    L = g.edge_labels
    assert product_expectation(sys, [L["v0"], L["v1"]]) == Fraction(1, 2)
    assert covariance(sys, L["v0"], L["c1"]) == Fraction(-1, 4)


def test_scalar_covariance_formula():
    rng = random.Random(8)
    g = rand_grid(rng, 2, 1)
    sys = assemble(g)
    eids = sorted(g.edges)
    for e1, e2 in itertools.combinations(eids, 2):
        a, b = g.edges[e1], g.edges[e2]
        direct = (
            -sys.block_inverse(b.white, a.black)[0, 0]
            * sys.block_inverse(a.white, b.black)[0, 0]
            * sys.edge_block(e1)[0, 0]
            * sys.edge_block(e2)[0, 0]
        )
        assert covariance(sys, e1, e2) == direct


def test_joint_pgf_edge_cases_and_oracle():
    rng = random.Random(9)
    g = rand_grid(rng, 2, 2)
    sys = assemble(g)
    table = oracle_cover_table(g)
    assert joint_pgf(sys, []) == 1
    eids = sorted(g.edges)
    e1, e2 = eids[0], eids[4]
    # marginal equals the single-edge pgf
    jp = joint_pgf(sys, [e1])
    pg = edge_pgf(probability_matrix(sys, e1))
    for k in range(3):
        assert jp.coefficient({edge_variable(e1): k}) == pg.coefficient({"t": k})
    # two-edge joint equals the oracle joint distribution
    assert joint_distribution(sys, [e1, e2]) == oracle_joint(g, [e1, e2], table)


def test_joint_pgf_specializes_to_marginal():
    rng = random.Random(13)
    g = rand_grid(rng, 2, 2)
    sys = assemble(g)
    eids = sorted(g.edges)
    e1, e2 = eids[1], eids[5]
    joint = joint_pgf(sys, [e1, e2])
    marginal = joint.subs({edge_variable(e2): Fraction(1)})
    pg = edge_pgf(probability_matrix(sys, e1))
    for k in range(3):
        assert marginal.coefficient({edge_variable(e1): k}) == pg.coefficient({"t": k})


def test_joint_pgf_opposite_pair_all_ones():
    g = all_ones_square()
    sys = assemble(g)
    L = g.edge_labels
    jd = joint_distribution(sys, [L["v0"], L["v1"]])
    assert jd == {(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 2)}


def test_joint_pgf_guard():
    rng = random.Random(10)
    g = rand_grid(rng, 2, 1)
    sys = assemble(g)
    with pytest.raises(GraphError):
        joint_pgf(sys, sorted(g.edges)[:5])


def test_joint_pgf_marked_edges_sharing_a_black_vertex():
    rng = random.Random(11)
    g = rand_grid(rng, 2, 2)
    sys = assemble(g)
    table = oracle_cover_table(g)
    L = g.edge_labels
    for marked in ([L["v0"], L["c1"]], [L["v0"], L["a1"], L["c1"], L["v1"]]):
        assert joint_distribution(sys, marked) == oracle_joint(g, marked, table)


def test_joint_pgf_on_mixed_multiplicities():
    rng = random.Random(12)
    g = mixed_example(random_matrix(rng, 1, 1), random_matrix(rng, 2, 2), random_matrix(rng, 3, 3))
    sys = assemble(g)
    L = g.edge_labels
    marked = [L["v1"], L["a2"]]
    assert joint_distribution(sys, marked) == oracle_joint(g, marked)


def test_sampling_single_edge_and_square():
    g = grid_graph(uniform_grid(0, 2))
    assert sample_cover(g, seed=123) == {0: 2}
    g = all_ones_square()
    table = oracle_cover_table(g)
    counts = Counter()
    draws = 10_000
    for s in range(draws):
        cover = sample_cover(g, s, table=table)
        counts[tuple(sorted((k, v) for k, v in cover.items() if v))] += 1
    # each matching ~ 1/2 within 3 sigma
    sigma = (draws * 0.25) ** 0.5
    for cnt in counts.values():
        assert abs(cnt - draws / 2) < 3 * sigma


def test_sampling_mixed_example_frequencies():
    g = mixed_example(Matrix([[Fraction(1)]]), Matrix.identity(2), Matrix.identity(3))
    table = oracle_cover_table(g)
    covers, weights, z = table
    draws = 6000
    counts = Counter()
    for s in range(draws):
        cover = sample_cover(g, s, table=table)
        counts[tuple(sorted((k, v) for k, v in cover.items() if v))] += 1
    for cover, w in zip(covers, weights):
        key = tuple(sorted((k, v) for k, v in cover.items() if v))
        expect = draws * w / z
        sigma = (float(expect) * float(1 - w / z)) ** 0.5
        assert abs(counts[key] - float(expect)) < 4 * sigma


def test_sampling_rejects_signed_measures():
    g = grid_graph(uniform_grid(1, 1, b=[Matrix([[Fraction(-1)]]), Matrix.identity(1)]))
    with pytest.raises(GraphError):
        sample_cover(g, 0)

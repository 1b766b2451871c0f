"""The marked-edge matrix G against the oracle and the cycle-trace expansion."""

import itertools
import random
from fractions import Fraction

import pytest

from dimerlab.cli import main
from dimerlab.graph import save_graph
from dimerlab.kasteleyn import assemble
from dimerlab.oracle import oracle_cover_table, oracle_joint, oracle_product_expectation
from dimerlab.statistics import (
    covariance,
    cycle_probability_matrix,
    expected_multiplicity,
    joint_distribution,
    marked_matrix,
    probability_matrix,
    product_expectation,
)
from dimerlab.zoo import mixed_example, random_matrix, six_vertex, snake_graph

from conftest import PYTH_POINTS, rand_grid


def cycle_trace_product(sys, edge_ids):
    """E[m_1 ... m_k] by the k! cycle-trace expansion (the reference route)."""
    k = len(edge_ids)
    cache = {}

    def cycle_trace(cyc):
        i = cyc.index(min(cyc))  # the trace is rotation-invariant
        key = tuple(cyc[i:] + cyc[:i])
        if key not in cache:
            cache[key] = cycle_probability_matrix(sys, [edge_ids[j] for j in key]).trace()
        return cache[key]

    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        seen, term, cycles = set(), Fraction(1), 0
        for start in range(k):
            if start in seen:
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(x)
                x = perm[x]
            term = term * cycle_trace(cyc)
            cycles += 1
        total = total + (-term if (k - cycles) % 2 else term)
    return total


def test_marked_matrix_blocks_are_cycle_steps():
    rng = random.Random(20)
    g = rand_grid(rng, 2, 2)
    sys = assemble(g)
    eids = sorted(g.edges)[:4]
    gm, spans = marked_matrix(sys, eids)
    assert gm.shape == (8, 8)
    assert [list(s) for s in spans] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    for e, se in zip(eids, spans):
        diag = gm.submatrix(se, se)
        assert diag.trace() == expected_multiplicity(probability_matrix(sys, e))
        for f, sf in zip(eids, spans):
            if f != e:
                cross = gm.submatrix(se, sf) @ gm.submatrix(sf, se)
                assert -cross.trace() == covariance(sys, e, f)


@pytest.mark.parametrize("n,k", [(1, 7), (2, 6), (3, 5), (3, 7)])
def test_product_expectation_on_random_grids(n, k):
    rng = random.Random(100 * n + k)
    g = rand_grid(rng, 2, n)
    sys = assemble(g)
    table = oracle_cover_table(g)
    for size in range(1, k + 1):
        eids = rng.sample(sorted(g.edges), size)
        got = product_expectation(sys, eids)
        assert got == oracle_product_expectation(g, eids, table=table)
        if size <= 5:
            assert got == cycle_trace_product(sys, eids)


def test_product_expectation_matches_cycle_traces_at_k7():
    rng = random.Random(21)
    g = rand_grid(rng, 2, 2)
    sys = assemble(g)
    eids = rng.sample(sorted(g.edges), 7)
    assert product_expectation(sys, eids) == cycle_trace_product(sys, eids)


def test_product_expectation_on_mixed_and_ice():
    rng = random.Random(22)
    mixed = mixed_example(random_matrix(rng, 1, 1), random_matrix(rng, 2, 2), random_matrix(rng, 3, 3))
    ice = six_vertex(3, 3, PYTH_POINTS[0])
    for g, k in ((mixed, 4), (ice, 5)):
        sys = assemble(g)
        table = oracle_cover_table(g)
        for eids in itertools.islice(itertools.combinations(sorted(g.edges), k), 8):
            got = product_expectation(sys, eids)
            assert got == oracle_product_expectation(g, eids, table=table)
            assert got == cycle_trace_product(sys, list(eids))


def test_product_expectation_beyond_the_cycle_trace_guard():
    rng = random.Random(23)
    g = rand_grid(rng, 3, 2)
    eids = sorted(g.edges)
    assert len(eids) == 10
    got = product_expectation(assemble(g), eids)
    assert got == oracle_product_expectation(g, eids)


def test_product_expectation_of_no_edges_is_one():
    rng = random.Random(24)
    assert product_expectation(assemble(rand_grid(rng, 1, 2)), []) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_joint_distribution_when_marked_edges_share_a_vertex(n):
    rng = random.Random(30 + n)
    g = rand_grid(rng, 2, n)
    sys = assemble(g)
    eids = sorted(g.edges)
    for color in ("white", "black"):
        at = {}
        for eid in eids:
            at.setdefault(getattr(g.edges[eid], color), []).append(eid)
        marked = max(at.values(), key=len)[:3]
        assert len(marked) >= 2
        assert joint_distribution(sys, marked) == oracle_joint(g, marked)


def run_verify(tmp_path, capsys, g, *flags):
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    rc = main(["verify", str(path), *flags])
    out = capsys.readouterr().out
    return rc, out


def certify_graphs():
    rng = random.Random(40)
    return [
        rand_grid(rng, 6, 2),
        rand_grid(rng, 3, 3),
        snake_graph("NEN", 3, weight_fn=lambda lab, shape: random_matrix(rng, *shape)),
        mixed_example(random_matrix(rng, 1, 1), random_matrix(rng, 2, 2), random_matrix(rng, 3, 3)),
        six_vertex(3, 3, PYTH_POINTS[1]),
    ]


def test_verify_passes_on_certify_graphs(tmp_path, capsys):
    for g in certify_graphs():
        rc, out = run_verify(tmp_path, capsys, g)
        assert rc == 0, out
        assert "verdict: PASS" in out
        pairs = len(g.edges) * (len(g.edges) - 1) // 2
        assert out.count("PASS  E[m") == pairs

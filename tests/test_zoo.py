import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from dimerlab.graph import BLACK, WHITE, Edge, GraphError, graph_to_spec, validate
from dimerlab.kasteleyn import assemble
from dimerlab.linalg import Matrix, det, inverse
from dimerlab.oracle import enumerate_covers, oracle_partition
from dimerlab.statistics import (
    covariance,
    expected_multiplicity,
    probability_matrix,
)
from dimerlab.zoo import (
    GridSpec,
    boltzmann_weights,
    continued_fraction,
    embed,
    free_fermion_check,
    grid_covariance,
    grid_diag_inverse,
    grid_graph,
    grid_horizontal_P,
    grid_vertical_P,
    mixed_example,
    q_fibonacci_grid,
    q_fibonacci_polys,
    q_fibonacci_twin_polys,
    random_matrix,
    six_vertex,
    six_vertex_closed_forms,
    snake_graph,
    snake_reduce,
    uniform_grid,
)

from conftest import PYTH_POINTS, rand_grid


def fib(k):
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def test_grid_n1_all_ones_matrix_and_z():
    g = grid_graph(uniform_grid(1, 1))
    sys = assemble(g)
    assert sys.K.mat == Matrix([[1, 1], [-1, 1]]).map(Fraction)
    assert sys.partition_function() == 2


def test_grid_block_tridiagonal_pattern():
    rng = random.Random(0)
    N, n = 4, 2
    spec = uniform_grid(
        N,
        n,
        b=[random_matrix(rng, n, n) for _ in range(N + 1)],
        a=[random_matrix(rng, n, n) for _ in range(N)],
        c=[random_matrix(rng, n, n) for _ in range(N)],
    )
    g = grid_graph(spec)
    sys = assemble(g)
    for i in range(N + 1):
        for j in range(N + 1):
            block = sys.K.block(i, j)
            if i == j:
                assert block == spec.b[i]
            elif j == i + 1:
                assert block == spec.a[i]
            elif j == i - 1:
                assert block == -spec.c[j]
            else:
                assert block.is_zero()


def test_grid_fibonacci_cover_counts():
    for N in range(9):
        g = grid_graph(uniform_grid(N, 1))
        assert len(enumerate_covers(g)) == fib(N + 2)
        assert assemble(g).partition_function() == fib(N + 2)


def test_continued_fraction_base_and_fibonacci():
    one = Matrix([[Fraction(1)]])
    bs = [one] * 6
    assert continued_fraction(bs, 2, 2) == one
    for N in range(1, 6):
        f = continued_fraction([one] * (N + 1), 0, N)
        assert f[0, 0] == Fraction(fib(N + 2), fib(N + 1))


def _random_b_spec(rng, N, n):
    while True:
        spec = uniform_grid(N, n, b=[random_matrix(rng, n, n) for _ in range(N + 1)])
        try:
            for i in range(N + 1):
                grid_vertical_P(spec, i)
            return spec
        except Exception:
            continue


@pytest.mark.parametrize("N,n", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_grid_closed_forms_match_generic(N, n):
    rng = random.Random(100 * N + n)
    spec = _random_b_spec(rng, N, n)
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
        # the two orientations share a trace
        assert (
            grid_horizontal_P(spec, gap, "a").trace()
            == grid_horizontal_P(spec, gap, "c").trace()
        )
    for i, j in itertools.combinations(range(N + 1), 2):
        assert grid_covariance(spec, i, j) == covariance(
            sys, g.edge_labels[f"v{i}"], g.edge_labels[f"v{j}"]
        )


def test_grid_corner_blocks_and_split_identity():
    rng = random.Random(7)
    N, n = 4, 2
    spec = _random_b_spec(rng, N, n)
    g = grid_graph(spec)
    sys = assemble(g)
    e0 = g.edges[g.edge_labels["v0"]]
    assert sys.block_inverse(e0.white, e0.black) == inverse(continued_fraction(spec.b, 0, N))
    assert grid_diag_inverse(spec, 0) == sys.block_inverse(e0.white, e0.black)
    # edge 0 probability reduces to K^{[0],[0]} B_0
    assert grid_vertical_P(spec, 0) == sys.block_inverse(e0.white, e0.black) @ spec.b[0]
    for i in range(1, N):
        p = grid_vertical_P(spec, i)
        p_left = inverse(continued_fraction(spec.b, i, 0)) @ spec.b[i]
        p_right = inverse(continued_fraction(spec.b, i, N)) @ spec.b[i]
        assert p == p_right @ inverse(p_left + p_right - p_left @ p_right) @ p_left


def test_grid_covariance_sign_alternation_all_ones():
    N = 3
    spec = uniform_grid(N, 1)
    for i, j in itertools.combinations(range(N + 1), 2):
        cov = grid_covariance(spec, i, j)
        assert (cov > 0) == ((j - i) % 2 == 1)


def test_grid_closed_forms_require_identity_couplers():
    rng = random.Random(8)
    spec = uniform_grid(1, 1, b=[random_matrix(rng, 1, 1)] * 2, a=[Matrix([[Fraction(2)]])])
    with pytest.raises(GraphError):
        grid_vertical_P(spec, 0)


def test_q_fibonacci_scalar_cases():
    for q in (Fraction(1), Fraction(2), Fraction(1, 3)):
        Q = Matrix([[q]])
        for N in range(1, 9):
            g, val = q_fibonacci_grid(N, Q)
            sys = assemble(g)
            em = expected_multiplicity(probability_matrix(sys, g.edge_labels["v0"]))
            assert em == val
            twins = q_fibonacci_twin_polys(max(N, 2), Q)
            fs = q_fibonacci_polys(N + 1, Q)
            assert val == (Q @ twins[N - 1] @ inverse(fs[N + 1])).trace()


def test_q_fibonacci_matrix_q():
    rng = random.Random(9)
    for N in (2, 3, 4, 5):
        Q = random_matrix(rng, 2, 2)
        g, val = q_fibonacci_grid(N, Q)
        sys = assemble(g)
        assert expected_multiplicity(probability_matrix(sys, g.edge_labels["v0"])) == val


def test_q_fibonacci_identity_reduces_to_scalar_ratio():
    for n in (1, 3):
        for N in (2, 3, 4):
            _, val = q_fibonacci_grid(N, Matrix.identity(n))
            assert val == n * Fraction(fib(N + 1), fib(N + 2))


def test_mixed_example_structure():
    g = mixed_example(Matrix([[Fraction(1)]]), Matrix.identity(2), Matrix.identity(3))
    assert validate(g) == []
    assert [g.vertices[v].multiplicity for v in sorted(g.vertices)] == [1, 1, 2, 2, 3, 3]
    assert assemble(g).partition_function() == abs(oracle_partition(g))


def test_snake_graph_shape_and_oracle():
    rng = random.Random(10)
    g = snake_graph("NE", 2, weight_fn=lambda lab, shape: random_matrix(rng, *shape))
    assert validate(g) == []
    assert len(g.vertices) == 8 and len(g.edges) == 10
    assert len(g.bounded_faces()) == 3
    assert assemble(g).partition_function() == abs(oracle_partition(g))


def test_snake_word_validation():
    with pytest.raises(GraphError):
        snake_graph("NX", 1)


def test_six_vertex_oracle_equivalence_small():
    for k in (1, 2):
        for c, s in PYTH_POINTS:
            g = six_vertex(k, k, (c, s))
            assert validate(g) == []
            assert assemble(g).partition_function() == abs(oracle_partition(g))


def test_six_vertex_rejects_non_square():
    with pytest.raises(GraphError):
        six_vertex(2, 3)


def test_six_vertex_central_probabilities_exact():
    c, s = Fraction(3, 5), Fraction(4, 5)
    g = six_vertex(3, 3, (c, s))
    sys = assemble(g)
    east, north = six_vertex_closed_forms(c, s)
    assert east == Fraction(337, 625)
    assert north == Fraction(288, 625)
    for d, want in (("east", east), ("west", east), ("north", north), ("south", north)):
        eid = g.edge_labels[f"center-{d}"]
        assert expected_multiplicity(probability_matrix(sys, eid)) == want


def test_six_vertex_float_pi_over_four():
    c = s = math.cos(math.pi / 4)
    g = six_vertex(3, 3, (c, s))
    sys = assemble(g)
    for d in ("east", "north", "west", "south"):
        eid = g.edge_labels[f"center-{d}"]
        p = expected_multiplicity(probability_matrix(sys, eid))
        assert abs(p - 0.5) < 1e-12


def test_boltzmann_weights_and_free_fermion():
    c, s = Fraction(3, 5), Fraction(4, 5)
    a1, a2, b1, b2, c1, c2 = boltzmann_weights(c, s)
    assert (a1, a2) == (s, s) and (b1, b2) == (c, c) and (c1, c2) == (1, 1)
    assert free_fermion_check(a1, a2, b1, b2, c1, c2)
    assert not free_fermion_check(1, 1, 1, 1, 1, 1)


def test_plucker_relation_from_random_four_by_two():
    rng = random.Random(11)
    m = random_matrix(rng, 4, 2)
    rows = m.data

    def mi(i, j):
        return det(Matrix([rows[i], rows[j]]))

    # rows: 0 = east, 1 = north, 2 = west, 3 = south
    a1, a2 = mi(0, 1), mi(2, 3)
    b1, b2 = mi(1, 2), mi(0, 3)
    c1, c2 = mi(0, 2), mi(1, 3)
    assert free_fermion_check(a1, a2, b1, b2, c1, c2)


def test_grid_spec_validation():
    with pytest.raises(GraphError):
        GridSpec(b=[Matrix([[1, 2]])])
    with pytest.raises(GraphError):
        GridSpec(b=[Matrix.identity(2)], a=[Matrix.identity(2)])


@pytest.mark.parametrize("toward,corner", [((1, 0), 0), ((1, 1), 1), ((-1, 1), 2), ((1, -3), 4)])
def test_embed_orders_non_axis_neighbours_counterclockwise(toward, corner):
    # a black centre at the origin; its white neighbours are listed out of
    # angular order, at 315, 116.6, 26.6, 180 and 270 degrees
    points = [(0, 0), (1, -1), (-1, 2), (2, 1), (-3, 0), (0, -5)]
    pos = dict(enumerate(points))
    edges = [Edge(i - 1, i, 0, Matrix.identity(1)) for i in range(1, len(points))]
    colors = {v: BLACK if v == 0 else WHITE for v in pos}
    cilia = dict.fromkeys(pos, toward)
    g = embed(pos, colors, dict.fromkeys(pos, 1), edges, (0, WHITE), cilia=cilia)
    assert g.vertices[0].rotation == (2, 1, 3, 4, 0)
    assert g.vertices[0].cilium == corner
    assert all(g.vertices[v].rotation == (v - 1,) for v in range(1, len(points)))


# ---------------------------------------------------------------------------
# generator output, pinned byte for byte
# ---------------------------------------------------------------------------

SNAKE_WORDS = ["", "E", "N", "NE", "EN", "NEN", "ENE", "EENNE", "NENEN"]


def _seeded_snake(word, n, seed):
    rng = random.Random(seed)
    return snake_graph(word, n, weight_fn=lambda lab, shape: random_matrix(rng, *shape))


def _seeded_mixed(seed):
    rng = random.Random(seed)
    return mixed_example(*(random_matrix(rng, k, k) for k in (1, 2, 3)))


def _generator_cases():
    """Case name -> zero-argument builder of one generator graph."""
    cases = {}
    for N in range(9):
        for n in (1, 2, 3):
            cases[f"grid-N{N}-n{n}"] = lambda N=N, n=n: grid_graph(uniform_grid(N, n))
            cases[f"grid-N{N}-n{n}-seeded"] = lambda N=N, n=n: rand_grid(
                random.Random(10 * N + n), N, n
            )
    for seed in range(4):
        cases[f"mixed-seed{seed}"] = lambda seed=seed: _seeded_mixed(seed)
    for q in (Fraction(2), Fraction(1, 3)):
        for N in range(1, 5):
            cases[f"qfib-N{N}-q{q}"] = lambda N=N, q=q: q_fibonacci_grid(N, Matrix([[q]]))[0]
    for i, word in enumerate(SNAKE_WORDS):
        for n in (1, 2, 3):
            name = f"snake-{word or 'tile'}-n{n}"
            cases[name] = lambda word=word, n=n: snake_graph(word, n)
            cases[f"{name}-seeded"] = lambda word=word, n=n, i=i: _seeded_snake(
                word, n, 10 * i + n
            )
    for k in range(1, 7):
        cases[f"ice-{k}"] = lambda k=k: six_vertex(k, k, (Fraction(3, 5), Fraction(4, 5)))
        cases[f"ice-{k}-float"] = lambda k=k: six_vertex(k, k, (0.6, 0.8))
    for word in ("NE", "NEN", "ENEN"):
        cases[f"snake_reduce-{word}"] = lambda word=word: snake_reduce(_seeded_snake(word, 2, 5))[0]
    return cases


GENERATOR_CASES = _generator_cases()

# sha256 of json.dumps(graph_to_spec(g)) for each case, recorded before the
# generators moved onto zoo.embed.  The ice entries were re-recorded once, when
# ice edges gained a label key; without that key their specs are unchanged.
GENERATOR_DIGESTS = {
    "grid-N0-n1": "4426ec838caf8c09264ce2380b5f3c2c4bb863c453105f6b0626bbc895b2de16",
    "grid-N0-n1-seeded": "4f78244ab92df0d51f9f701bf1a136096d01f61dc907506e1608c01121eb19b2",
    "grid-N0-n2": "77218f7d6363d08041ff8e72fe4735e41944ad978b4fc2ab8429766e68d17376",
    "grid-N0-n2-seeded": "1a2b2f38ef284b1dac4e9ba4f96b3dc972b5330ef1f8a61a0a633983405f79b9",
    "grid-N0-n3": "5d39595027e728a717fb37eceb136176f69a147e593fdb96fe0bd404cda15f52",
    "grid-N0-n3-seeded": "79a6bb143849986aa3c9f940843ead10ac694c72e54624b54a862c4a0ee69726",
    "grid-N1-n1": "517cba5304d8de63fca66b9434f2ef381b81feed17fba12aff4ac3888fc821fd",
    "grid-N1-n1-seeded": "c0447f5b1a631ec529e128403cc721623330e687f717ad55649137794f24d0b2",
    "grid-N1-n2": "e1edc013a30e5fe570e7b887b9756a248a69026b3919ef506195d421b417b276",
    "grid-N1-n2-seeded": "ffee14b2a884b05ac10e91f23865b6b604727e578007b970201e902dc37e1212",
    "grid-N1-n3": "35271e0b86086b5f91d2d59cce1bfccbb52dfaf28b69b62a6e1ec77dd36712aa",
    "grid-N1-n3-seeded": "8755945ae12737ece4ea4a3d5b642007ba2d44aa481fb36317dd33b00c3112ed",
    "grid-N2-n1": "62ec72b5519ef9dc9e513729786039fc557171204e95213fcb52414b25d3bead",
    "grid-N2-n1-seeded": "41612a93c84f8022e53058f8e740453bd8d35c564d8b8e622b121d171f15e9b0",
    "grid-N2-n2": "11c8e16356a71df182c4805df8dd244c9e7486cfb13c912b74a7719d0fd30a65",
    "grid-N2-n2-seeded": "a501b59e83e48a01900e3b545812852c231a55ebeb09b3f6ba356470c50616db",
    "grid-N2-n3": "742fabcda8c463eff0256e074ba9e840482ef89cc8143362e9c5d8448e59937a",
    "grid-N2-n3-seeded": "63f92e15c63b68fb458abbfcb6ca0d1b95bcae037d01cd267787dd39c475469c",
    "grid-N3-n1": "8ad651d2ce882a7a4ee95c10070eda7f126308d0015813fbd589e56fd44a926c",
    "grid-N3-n1-seeded": "7343314f44111443f67bc105814cbeef8b6d5e77ada0d4a109a52cc9911dabdf",
    "grid-N3-n2": "d662ea70b0b95a18223f2bf7a35938aaaaa29df2b54ac34de36fc0cf92402bb0",
    "grid-N3-n2-seeded": "a385cd6705d7b8407bc06f74eaee0de606062a0e4858c7305a02b0c8d5b24023",
    "grid-N3-n3": "8ba1ff5b943e63ebc26076dcf0fc46702d3178fcd30dc05c2247ea531d0181dc",
    "grid-N3-n3-seeded": "78d35817cbbc8daca9d3545bcce20abb9d29bcc4bd292e3756c97977878f816b",
    "grid-N4-n1": "b33c22927f0788a8d7cf0494ed6e96ca2fdaf6ade2b568b3bc886b2c61764892",
    "grid-N4-n1-seeded": "d8964cdf139bb88604fdb22e0bf53c18535078ad3983526c3efa6cf4c28900c7",
    "grid-N4-n2": "d5cc95408c06a6a1a401ece4b5b46efd483671a443d84a5c75557f6676bdbb3d",
    "grid-N4-n2-seeded": "b97f3b5f392d0db9a9990a2fca0ef4b40cef877a34303e4e3a921725490ffb5d",
    "grid-N4-n3": "d51eb65e6b58c85381225988eaf2c84da1863218a490deee4e0079d7f89cd7a6",
    "grid-N4-n3-seeded": "76113cde5a1d3ebc06bb58d52d07f933660b80014e07987eea16239f006c10a7",
    "grid-N5-n1": "ac3aeea2918786cb06c5eea4ebdfa4c99144a25b21ec8c1dbc4656e0f30f56f8",
    "grid-N5-n1-seeded": "3f5aac13235712b1bd903a0702e5eba045280539aa8eeb68077d8c103db5694a",
    "grid-N5-n2": "876579bb6822dbfedfa4086bbad58e3d3a334bae9d713bc885cbb296937c0df1",
    "grid-N5-n2-seeded": "5e3a57b88a7b0b7dd6215f070d936fc53d6c00f645ae56addc4538208fb9a916",
    "grid-N5-n3": "aab661781f95cc9628c426140ca6c89256352d3c7dea2f9f5131f446e29b1682",
    "grid-N5-n3-seeded": "97d8e7009d05456f487aaa71fd211567722e69e9012c79668d6b4e240b4d0744",
    "grid-N6-n1": "542b24055878b3cc2a48d5b30d0388eb4f75ab5f7764f6521a053428a873d66e",
    "grid-N6-n1-seeded": "261acfc98af89e119da00ddda11d9df68d15faa914710675dbc86c24c79983c4",
    "grid-N6-n2": "7ea3a910fc770f8382042448c320459ca5bb1945c3527906602da840825e70d1",
    "grid-N6-n2-seeded": "d8d8b71f6513efcd1ed92bb7356d8d402b525bf4d09573a152333d9cb3ad1d38",
    "grid-N6-n3": "0ea03de8a284d39a1fca84e2d593217562fa62b43fac9177a3fcdf18ee22e838",
    "grid-N6-n3-seeded": "6625c97eb43fa5dae2438af246f43a14c7ea589be4929e1625dd3af7f964a28d",
    "grid-N7-n1": "dfdb3a256d8a516dc6f41e2262c25719c2b5c385a7a16848c28e814256453f66",
    "grid-N7-n1-seeded": "ecaeee1d4f10b22942e2491bf4388075b9ca7b0aeac3dfd40bff4db46ab49e2a",
    "grid-N7-n2": "165a32199702b41afd840db0b51eb28bce2536d315af281b51053ebf4431b2e8",
    "grid-N7-n2-seeded": "f7801c8943c31a0ee63ee12f0c2a1943b0ff601553d61794922fc21649c264ce",
    "grid-N7-n3": "95397214400c7fb418a7d71791395ea87c9d79ee453f7b129ad51a073565ab0e",
    "grid-N7-n3-seeded": "c5ff97cdf1ca691f94973514b0ddbac523a5fd0035a84f65b40d5f9f78ea1d26",
    "grid-N8-n1": "2b5fdbd9b7c50e9f6d8b47771fd456bb7ab0e5dda90d0120062f5244fc80154f",
    "grid-N8-n1-seeded": "c69763cf9160907fe16bd3f9b4d6862f665cb25f26279b0057aca10719a1b4cc",
    "grid-N8-n2": "a55c472ad56c340b2d2a6c255403301ca8ca7100b6de94f6d1396e21a6f04a58",
    "grid-N8-n2-seeded": "fde41d8fe12f53398cb4275d7fd0e1ff5fd50fadf2ea3a23bbefe44bb13fea37",
    "grid-N8-n3": "279483512eacb2e1c67896dc4e55dce926045b78075204015789125edb7ee40b",
    "grid-N8-n3-seeded": "2f439502b319a370a5e788a605b80784783a9dc117b08e8c66f06eb67bab0424",
    "mixed-seed0": "a6b8bbb29d2a27faf17d9ebaccdf90a44faa2af3b11f58271c93995de2d1a828",
    "mixed-seed1": "0e54d0f4aa449126f68ff14a86e1f98afee7ed0fcd2ec6a534d3c9c1d5c933d9",
    "mixed-seed2": "cf44461c1a474b24ee21e71648619d94156b7e21bb967619938cadf98c3b1631",
    "mixed-seed3": "7fd53928c492c0e4793994ed597c84e945713c819954a5fb2375eddb9dc2142a",
    "qfib-N1-q2": "e61578e587ffed69e7f7b51feeab0dbf216f9b11b4300063700d2d6f7ff9f630",
    "qfib-N2-q2": "75906e93c00cf5192db7ef1e46f02a4784fab54e5a4787c825fb9e17c05c79d0",
    "qfib-N3-q2": "bb0022047cbce058a5c29ffb25200de1e15de771dcf77966a52591ca828dd7b6",
    "qfib-N4-q2": "1b52a68895269a3ed85cf418d1a60d6ac8dbbde32abb5b0888f12d689e7d576c",
    "qfib-N1-q1/3": "556ce6143d4e4677b4b24a297a00bf736cba4ac8d165535a0477cc7d9fe9ee2d",
    "qfib-N2-q1/3": "678078070c24f67c81a62f9864479f78d709ddadc0613dfbe862fddf0f07ab2b",
    "qfib-N3-q1/3": "7178ad531ac3275c34a86927524d4e4951746a08c981bd90012206c64ffbf70d",
    "qfib-N4-q1/3": "628da37177fd868fba813cef5b5bb1ba04549f3605cc1a4a4485ce6329fe6dea",
    "snake-tile-n1": "41bcb9d98b0d20594b0b451ede44e20d833f429e2957bd82dfe134bce5214e73",
    "snake-tile-n1-seeded": "a690023991eff3610112ce2a1bf03b3c392bab330fa38cf7e688ca65fb9f5e4e",
    "snake-tile-n2": "7a5dcdb8a75b4e49b9c35e0b6f23a87e907f6571fce62b857cf2740e23de4062",
    "snake-tile-n2-seeded": "a4596690087216c91f5218b6d1afc1196b7bc2fb6a5d73a0708c53b6cc8d39f1",
    "snake-tile-n3": "82447bf4b91101c09c711eaf21e5470ee033df47b6fc36975b84847e1ee5170d",
    "snake-tile-n3-seeded": "f9bdff62d8f9b2d502e3847e33b9c0818d3f9b8e22facabeec323f89806bd520",
    "snake-E-n1": "a676a1ee0f2fbfd70a6f96c332779cbe7d79c8437284dbeb86048dca9f330cf6",
    "snake-E-n1-seeded": "49b965f96724cf5d3ee5d2f655bf50ea7c02ee806552b18e470fcf2fab8b4868",
    "snake-E-n2": "9464c972c9479c05f0fd98f45c5df9caf44fe510360e1fd8e20126fb7611614c",
    "snake-E-n2-seeded": "24e84e532171d3a95524449670c88053e127576ae2dd84b4587c581c421b3809",
    "snake-E-n3": "b9b89cc97a88a5c08f36ab84223ca345ace073d9a4bf2033c07580e34b60c336",
    "snake-E-n3-seeded": "f30fe0bdbb7efdc6764ab58487eb64ca01e95f79862da70cea8b64d9656bbb10",
    "snake-N-n1": "b3a2fc8944dc6d61e1ab84bcb7d979b395a75a947643975c482ddb6f09313a45",
    "snake-N-n1-seeded": "d05a43e5530ce91a08c2504212d4696c98cbc8d1494c5a02745009ef72e0acc0",
    "snake-N-n2": "09dc9ec2b2f54ac9921d05e3e2a66c323e52ba857fc99110d7786aeafc9262da",
    "snake-N-n2-seeded": "9289c88680070c06f063fad866207475d1f9fd338c2418a6e493dda366d2783a",
    "snake-N-n3": "f40ebeb5f17d91573abce96dc4b01c4dd01610f08534c14ea515d24f53165276",
    "snake-N-n3-seeded": "419280eba41d118cbae6e55172ecd5afe3ed30945c53c7298a2b7bb42eb3ca8a",
    "snake-NE-n1": "3465a5dd8ad0bf6c363925c822e6f5dd1b5c6cac3e50c6d5d8504a0c4b2f9b44",
    "snake-NE-n1-seeded": "fb1501086f71ba50b73f9b7c65b4655559779d9fcaf9f0c9d28930368d765ac5",
    "snake-NE-n2": "f27cf4bda14cf3da4934918665d7e4ffa88fa0579d514b660468a3e457cceba3",
    "snake-NE-n2-seeded": "94aa3be93ab9ad8e0e926d1633156dc6d92f6b816e680a215e07d55247eb923c",
    "snake-NE-n3": "31ffedd56d766f68fa00beb5af833534fd13eb5de44f393583ffdb69b205e5a3",
    "snake-NE-n3-seeded": "8bf5c776c32466986d422ba808fd29d2a82a638256b8843d1ddd8e48fdb10de5",
    "snake-EN-n1": "950d9d2969c285b1c3bbaa0522fcba0a2404083b29aa92e840a63c1b6d914a88",
    "snake-EN-n1-seeded": "523e010c2ca9a265d4d4e837c35c9cd0f36aea17e3ec32d436ba7190f5ae163a",
    "snake-EN-n2": "1a51dc8ca7ec40abd658bf4c1e1aff60be99b9d26c83b180fd35e59eea428200",
    "snake-EN-n2-seeded": "0d21501f746beee345782d97f388e3b2585e931edb34221fd661e3f51986910d",
    "snake-EN-n3": "1c77c2a04f690398571a1ed83fd3707394a1b0286dd829b48f209df90e932b49",
    "snake-EN-n3-seeded": "0766d97b9595c748d35c93e5e2b475fe9caac0fdf9b46540e85c6594227da90f",
    "snake-NEN-n1": "bdb1705d26e3ac228afbdc2e2bfe324859586a7413ddb4163f7b5cb504bf3995",
    "snake-NEN-n1-seeded": "b87b0d17e29a1b22f2ea0da72ec58118351af32c13b09e00785f2be2c626ea61",
    "snake-NEN-n2": "0a9e191e63096abf570a30e8bbc0ae299ef28963af17c87f4b78928c0f616263",
    "snake-NEN-n2-seeded": "d114d84a92084bb4cbc8cfe739349c4c76afdbc13f883ff65cb5f6a79e2a8b4b",
    "snake-NEN-n3": "a7923c387aadf4b1e1e7284bec9998c308d475790623c50c416e425740eec0ad",
    "snake-NEN-n3-seeded": "5006c3ca2339ac8e99dd10e81795469318c6b026611404702def38fb887bea8f",
    "snake-ENE-n1": "0cc98720690c3f93307d2735bef80e01e03e9a49bfbe2c396c3aad26d62a42ce",
    "snake-ENE-n1-seeded": "a930dc75d0a45d4ce14a74345fb23b9c0d6b03f98c9d71211faa82e0a4a729bc",
    "snake-ENE-n2": "b623e00a94b3ab989b74518bb635e0e2d2ebd5198a9405e88690c1ab329ab55b",
    "snake-ENE-n2-seeded": "6a7972bf870a7642c7d3aa4dea74a51e48c29a0fc6920ec7011949143289da08",
    "snake-ENE-n3": "a204f91f793e4ad6a526661601dd973c6356f80c61309281d6f8f10bdc0dfc34",
    "snake-ENE-n3-seeded": "8add2bdbaf4b7f05622865fa5ef4663aed702359bd623bfae165da8a9c1b79e7",
    "snake-EENNE-n1": "7252082690b42a5f8280976639acb8476494a0ad4c1cfd8ab58f642c02d1d65e",
    "snake-EENNE-n1-seeded": "c5f050bea102cb51a26b6c300622c69d2bfb69342e0694b3c6f4a0d4cf0a3728",
    "snake-EENNE-n2": "93fbc31f14baec83bc48e4161e7b07e5f8ee920a453e59b22e03577a4e1f98dc",
    "snake-EENNE-n2-seeded": "57713e217bdfb35a8e15d0467390db39c93b5abe654b2c06caf8c9aae0a5e0ef",
    "snake-EENNE-n3": "fed6a013ac27ae44b41afdb65b0f74923493cdfeacf017bd3adef22f87f11998",
    "snake-EENNE-n3-seeded": "44f27b60eedd2e6e1efd90774537b9413365c01a08f68736fec53b37b104cc3b",
    "snake-NENEN-n1": "91f47a166e582c958f193dbcfd90962e00d2524863d12f2f371e09d3c8e46c57",
    "snake-NENEN-n1-seeded": "bd772d63300bd0ce965c210dce45fd3bca689ef08751efb4daa2628f7bc312b0",
    "snake-NENEN-n2": "cb4277952569eb99a45a5f98639b961c0ffc366c4a1ddc096806eb9f5c88fa4c",
    "snake-NENEN-n2-seeded": "3e918c3b4eb201de9d603ad6cdbf6c15085b6e360f8a3b7089a8d1029eb7059d",
    "snake-NENEN-n3": "87a0a5693e36a86f988308297381251162a659bee2a0d6224036071d0f836504",
    "snake-NENEN-n3-seeded": "3aed11f16af0ede81c544660972a5d107bac76bf73692fc784e3ebdeb95768ba",
    "ice-1": "b8df55b3019a5f8f09cb8ed6d9430bd5a85603855afc1e316249f67b96fd5e85",
    "ice-1-float": "2313d2432b85c0a7a0c20d9a25b21930674ac1c22f2624b6e9840c8ef2ca285b",
    "ice-2": "d7d1fd520d8679ee574b1f08e6c80857a07e65f5d3e0cb70d0ed4d5e639d63bb",
    "ice-2-float": "351a74ad00b416eeda53f11bbaa599b35c3e73ed886466de862d0335c13a2801",
    "ice-3": "8532c2ab374d1476085d9ec253e01d35d9636b3ddb9cd8b12874f1f0ad7e4e77",
    "ice-3-float": "2cd449a76ba9857f8b10adcc039c92a08bd37d2660c1ec88882d7dbe0ce4aaff",
    "ice-4": "8bd074296bc67732abf297b9f2cd2d30bcf036ec75441ca1ad2c7fb460d2f774",
    "ice-4-float": "e53befeadff3eaa71e6a08c70b6722cd11e77a66b75ab08eb61f6149a0cf64cb",
    "ice-5": "9874c372b276328eabe82f21d295e7f29c7a63b484627d2bdf6775ef57d9df63",
    "ice-5-float": "47feb79c797643104ed63113138c02c544e8470bd8b6e692e14e50126f82c359",
    "ice-6": "f3e01f054a976dd7d7ba6b7b777fb1cedb468d1d2d3cb033bac852801e771f51",
    "ice-6-float": "a4354cc9497d5a1263fd2dbed79894f835718384ba7970d378473fc4a340123f",
    "snake_reduce-NE": "5189ff42e7b35b1b83707e970bf299b539d0a3440c8901fef3fcbea3eab5c1d9",
    "snake_reduce-NEN": "805e8c2c9473d329923035a31cbdfca34ab6f37707158d72a8ba051290c267e5",
    "snake_reduce-ENEN": "cdb745526ccaf2ed9e1d0f8358b6f38ff8405b0cf68b6d54dcaf3aacfaac7d6a",
}


@pytest.mark.parametrize("name", list(GENERATOR_CASES))
def test_generator_spec_digest(name):
    spec = json.dumps(graph_to_spec(GENERATOR_CASES[name]()))
    assert hashlib.sha256(spec.encode()).hexdigest() == GENERATOR_DIGESTS[name]

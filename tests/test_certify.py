import json
import math
from fractions import Fraction

import pytest

from dimerlab.certify import FLOAT_TOL, agree, certify_graph
from dimerlab.cli import main
from dimerlab.graph import GraphError, build_graph
from dimerlab.linalg import Matrix
from dimerlab.oracle import oracle_cover_table
from dimerlab.zoo import mixed_example, six_vertex


def test_agree_is_exact_unless_a_float_is_involved():
    third = Fraction(1, 3)
    assert agree(third, Fraction(2, 6))
    assert not agree(third, third + Fraction(1, 10**30))
    assert agree(1.0 + 1e-12, 1.0)
    assert agree(1e6 + 1e-4, Fraction(10**6))  # relative to max(1, |y|)
    assert not agree(1.0 + 10 * FLOAT_TOL, 1.0)
    assert agree([0.5, Fraction(1, 2)], [Fraction(1, 2), 0.5 + 1e-13])
    assert not agree([1, 2], [1, 2, 0])
    assert agree(Matrix([[0.25, 1e-17]]), Matrix([[Fraction(1, 4), Fraction(0)]]))
    assert not agree(Matrix([[1]]), Matrix([[1, 0]]))


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.1])
def test_float_six_vertex_certifies(theta):
    res = certify_graph(six_vertex(3, 3, (math.cos(theta), math.sin(theta))))
    assert len(res["checks"]) == 466
    assert [c[0] for c in res["checks"] if not c[1]] == []
    assert res["verdict"] == "PASS"


def _float_copy_of_seed3_square(tmp_path):
    path = tmp_path / "square.json"
    argv = ["gen", "--gen", "grid", "--N", "1", "--n", "2", "--seed", "3", "--out", str(path)]
    assert main(argv) == 0
    spec = json.loads(path.read_text())
    for e in spec["edges"]:
        e["weight"] = [[float(Fraction(x)) for x in row] for row in e["weight"]]
    return build_graph(spec)


def test_float_square_passes_and_transposed_oracle_fails_every_check(tmp_path):
    g = _float_copy_of_seed3_square(tmp_path)
    assert certify_graph(g)["verdict"] == "PASS"
    res = certify_graph(g, transpose_minors=True)
    assert len(res["checks"]) == 11
    assert not any(passed for _, passed, _ in res["checks"])
    assert res["verdict"] == "FAIL"


def test_transposed_oracle_refuses_non_square_weights_up_front(capsys):
    g = mixed_example(Matrix([[Fraction(1)]]), Matrix.identity(2), Matrix.identity(3))
    with pytest.raises(GraphError, match="square weights; edge 1 is 1x2"):
        oracle_cover_table(g, transpose_minors=True)
    assert main(["verify", "--gen", "mixed", "--transposed-oracle"]) == 2
    err = capsys.readouterr().err
    assert "input error: transposed minors need square weights; edge 1 is 1x2" in err

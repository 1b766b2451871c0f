import hashlib
import json
import pathlib
import shlex
import time
from fractions import Fraction

import pytest

from dimerlab.cli import main
from dimerlab.graph import graph_to_spec, save_graph
from dimerlab.linalg import Matrix
from dimerlab.zoo import grid_graph, uniform_grid


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_stats_six_vertex_center_east(capsys):
    rc, out, _ = run(
        capsys,
        "stats",
        "--gen",
        "six-vertex",
        "--rows",
        "3",
        "--cols",
        "3",
        "--theta",
        "3/5,4/5",
        "--edge",
        "center-east",
    )
    assert rc == 0
    assert "337/625" in out


def test_stats_grid_with_covariance(capsys):
    rc, out, _ = run(
        capsys,
        "stats",
        "--gen",
        "grid",
        "--N",
        "4",
        "--n",
        "2",
        "--edge",
        "v0",
        "--covariance",
        "v0,v2",
    )
    assert rc == 0
    assert "cov[v0,v2]" in out


def test_gen_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "square.json"
    rc, _, _ = run(capsys, "gen", "--gen", "grid", "--N", "1", "--n", "2", "--seed", "5", "--out", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", "--graph", str(path))
    assert rc == 0
    assert "verdict: PASS" in out


def test_gen_file_keeps_ice_labels(tmp_path, capsys):
    path = tmp_path / "ice.json"
    ice = ("--rows", "3", "--cols", "3")
    assert run(capsys, "gen", "--gen", "six-vertex", *ice, "--out", str(path))[0] == 0
    rc, out, err = run(capsys, "stats", "--graph", str(path), "--edge", "center-east")
    assert (rc, err) == (0, "")
    assert "337/625" in out
    assert run(capsys, "stats", "--gen", "six-vertex", *ice, "--edge", "center-east")[1] == out
    assert run(capsys, "stats", "--graph", str(path), "--edge", "b0.2-south")[0] == 0


def test_verify_mixed_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--gen", "mixed", "--seed", "2")
    assert rc == 0
    assert "verdict: PASS" in out


def test_solved_ice_connection_gives_z_one(tmp_path, capsys):
    # ice 2x2 without its carried connection: the face rule counts only the
    # inward cilia at even vertices (the odd rule printed Z = 7/25)
    path = tmp_path / "ice.json"
    run(capsys, "gen", "--gen", "six-vertex", "--rows", "2", "--cols", "2", "--out", str(path))
    spec = json.loads(path.read_text())
    del spec["connection"]
    path.write_text(json.dumps(spec))
    rc, out, _ = run(capsys, "stats", "--graph", str(path))
    assert rc == 0
    assert "Z = 1 (1)" in out
    rc, out, _ = run(capsys, "verify", "--graph", str(path))
    assert rc == 0
    assert "verdict: PASS" in out


def test_verify_ice_4x4_is_quick(capsys):
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "verify", "--gen", "six-vertex", "--rows", "4", "--cols", "4")
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert "verdict: PASS" in out
    assert elapsed < 2, f"verify on ice 4x4 took {elapsed:.2f}s"


def test_transposed_oracle_negative_control(tmp_path, capsys):
    path = tmp_path / "rsquare.json"
    run(capsys, "gen", "--gen", "grid", "--N", "1", "--n", "2", "--seed", "3", "--out", str(path))
    rc, out, _ = run(capsys, "verify", "--graph", str(path), "--transposed-oracle")
    assert rc == 1
    assert "verdict: FAIL" in out
    assert "FAIL  E[m" in out  # the pair checks read from G see it too


def test_oversized_product_is_input_error(tmp_path, capsys):
    path = tmp_path / "grid.json"
    run(capsys, "gen", "--gen", "grid", "--N", "8", "--n", "2", "--seed", "1", "--out", str(path))
    group = ",".join(str(i) for i in range(15))  # 2^15 minors of G
    rc, _, err = run(capsys, "stats", "--graph", str(path), "--product", group)
    assert rc == 2
    assert "minor guard" in err


def test_move_square_emits_file_and_factor(tmp_path, capsys):
    src = tmp_path / "square.json"
    dst = tmp_path / "moved.json"
    run(capsys, "gen", "--gen", "grid", "--N", "1", "--n", "1", "--out", str(src))
    rc, out, _ = run(capsys, "move", "--kind", "square", "--face", "f0", str(src), "--out", str(dst))
    assert rc == 0
    assert "factor" in out
    assert dst.exists()
    rc, out, _ = run(capsys, "verify", "--graph", str(dst))
    assert rc == 0


def test_move_contract_on_snake(tmp_path, capsys):
    src = tmp_path / "snake.json"
    run(capsys, "gen", "--gen", "snake", "--word", "NE", "--n", "2", "--out", str(src))
    rc, out, _ = run(capsys, "move", "--kind", "contract", "--site", "5", str(src), "--out", str(tmp_path / "c.json"))
    assert rc == 0
    assert "PASS" in out


def test_sample_deterministic_and_valid(tmp_path, capsys):
    src = tmp_path / "square.json"
    run(capsys, "gen", "--gen", "grid", "--N", "1", "--n", "1", "--out", str(src))
    rc1, out1, _ = run(capsys, "sample", "--count", "4", "--seed", "7", str(src))
    rc2, out2, _ = run(capsys, "sample", "--count", "4", "--seed", "7", str(src))
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-stable for fixed inputs and seed
    assert "frequencies:" in out1


def test_json_output_stable(tmp_path, capsys):
    src = tmp_path / "g.json"
    run(capsys, "gen", "--gen", "grid", "--N", "2", "--n", "2", "--seed", "1", "--out", str(src))
    rc, out, _ = run(capsys, "stats", "--graph", str(src), "--edge", "v1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "stats"
    assert doc["edge"]["pmf"][0]


def test_input_error_exit_code(capsys):
    rc, _, err = run(capsys, "stats", "--graph", "/nonexistent/file.json")
    assert rc == 2
    assert "input error" in err


def test_gen_requires_gen_flag(tmp_path, capsys):
    path = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--out", str(path)])
    assert exc.value.code == 2
    assert "the following arguments are required: --gen" in capsys.readouterr().err
    assert not path.exists()
    # stats still reads --gen without it, and qfib at N = 0 is a valid graph
    rc, out, _ = run(capsys, "stats", "--gen", "qfib", "--N", "0")
    assert rc == 0 and "Z = 1" in out


@pytest.mark.parametrize(
    "argv",
    ["--gen grid --N 2 --n 0", "--gen grid --N 2 --n -1", "--gen snake --word EN --n -2"],
)
def test_generated_graph_is_validated(capsys, argv):
    rc, out, err = run(capsys, "stats", *argv.split())
    assert (rc, out) == (2, "")
    assert "multiplicity must be >= 1" in err


def test_singular_exit_code(tmp_path, capsys):
    spec = {
        "default_multiplicity": 1,
        "vertices": [
            {"id": 0, "color": "white", "rotation": [0], "cilium": 0},
            {"id": 1, "color": "black", "rotation": [0], "cilium": 0},
        ],
        "edges": [{"id": 0, "white": 0, "black": 1, "weight": [["0"]], "label": "e"}],
        "outer_face_witness": [0, "white"],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(spec))
    rc, _, err = run(capsys, "stats", "--graph", str(path), "--edge", "e")
    assert rc == 3
    assert "numerical" in err


def test_singular_grid_stats_edge_exit_code(tmp_path, capsys):
    path = tmp_path / "singular_grid.json"
    save_graph(grid_graph(uniform_grid(0, 1, b=[Matrix([[Fraction(0)]])])), str(path))
    rc, out, err = run(capsys, "stats", "--graph", str(path), "--edge", "v0")
    assert rc == 3
    assert "Kasteleyn matrix is singular" in err
    assert out == ""


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_weight_is_input_error(tmp_path, capsys, bad):
    spec = graph_to_spec(grid_graph(uniform_grid(2, 1)))
    for e in spec["edges"]:
        e["weight"] = [[1.0]]
    spec["edges"][0]["weight"] = [[bad]]
    path = tmp_path / "float_grid.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run(capsys, "stats", "--graph", str(path), "--edge", "v0")
    assert rc == 2
    assert "non-finite" in err
    assert out == ""


def test_negative_sample_count_is_input_error(tmp_path, capsys):
    src = tmp_path / "square.json"
    run(capsys, "gen", "--gen", "grid", "--N", "1", "--n", "1", "--out", str(src))
    rc, out, err = run(capsys, "sample", "--count", "-1", str(src))
    assert rc == 2
    assert "--count" in err
    assert out == ""


def test_bad_move_site_is_input_error(tmp_path, capsys):
    src = tmp_path / "g.json"
    run(capsys, "gen", "--gen", "grid", "--N", "2", "--n", "1", "--out", str(src))
    rc, _, err = run(capsys, "move", "--kind", "contract", "--site", "2", str(src))
    assert rc == 2
    assert "input error" in err


def test_contract_four_cycle_preserves_z(tmp_path, capsys):
    # contracting a degree-2 corner of the 4-cycle merges the two whites
    # into a parallel pair whose signed sum keeps |det K| = 2
    src = tmp_path / "g.json"
    run(capsys, "gen", "--gen", "grid", "--N", "1", "--n", "1", "--out", str(src))
    rc, out, _ = run(capsys, "move", "--kind", "contract", "--site", "0", str(src))
    assert rc == 0
    assert "Z(after) == factor * Z(before): PASS" in out


def _square_spec():
    return graph_to_spec(grid_graph(uniform_grid(1, 1)))


def _set(path, value):
    def edit(spec):
        *keys, last = path
        node = spec
        for k in keys:
            node = node[k]
        node[last] = value

    return edit


# one non-integer per GraphSpec integer field; int() would have truncated each
BAD_INTEGER_FIELDS = {
    "vertex id": _set(["vertices", 0, "id"], 0.9),
    "multiplicity": _set(["vertices", 0, "multiplicity"], 1.7),
    "default_multiplicity": _set(["default_multiplicity"], 1.0),
    "rotation entry": _set(["vertices", 0, "rotation", 0], 2.5),
    "cilium": _set(["vertices", 0, "cilium"], True),
    "edge id": _set(["edges", 0, "id"], 0.5),
    "white": _set(["edges", 0, "white"], 1.2),
    "black": _set(["edges", 0, "black"], False),
    "witness id": _set(["outer_face_witness", 0], 0.1),
    "connection": _set(["connection", "0"], 1.5),
}


@pytest.mark.parametrize("field", sorted(BAD_INTEGER_FIELDS))
def test_non_integer_graphspec_field_is_input_error(tmp_path, capsys, field):
    spec = _square_spec()
    BAD_INTEGER_FIELDS[field](spec)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run(capsys, "stats", "--graph", str(path))
    assert rc == 2
    assert "must be an integer" in err
    assert out == ""


def test_integer_strings_are_graphspec_integers(tmp_path, capsys):
    spec = _square_spec()
    spec["default_multiplicity"] = "1"
    for v in spec["vertices"]:
        for key in ("id", "multiplicity", "cilium"):
            v[key] = str(v[key])
        v["rotation"] = [str(x) for x in v["rotation"]]
    for e in spec["edges"]:
        for key in ("id", "white", "black"):
            e[key] = str(e[key])
    spec["outer_face_witness"][0] = "0"
    spec["connection"] = {k: str(s) for k, s in spec["connection"].items()}
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(spec))
    rc, out, _ = run(capsys, "stats", "--graph", str(path), "--edge", "v0")
    assert rc == 0
    assert "Z = 2 " in out


# sha256 of stdout, recorded before verify and move moved into dimerlab.certify
PINNED_OUTPUTS = [
    (
        "verify --gen grid --N 3 --n 2 --seed 1",
        0,
        "048eb79c54baa27f23043cb2e98d4ec546b6ac3f30d57909770379f0fc04da3c",
    ),
    (
        "verify --json --gen grid --N 3 --n 2 --seed 1",
        0,
        "84582661371d11d91dfe84d302856b9f85bff3dae2040c3d5557c3da7bc6a25e",
    ),
    (
        "verify --gen mixed --seed 2",
        0,
        "1b3ac6c68bfa9dc4dfc721cb2dad35eaba0243e0bc4b9bbcf61aef360249d449",
    ),
    (
        "verify --json --gen mixed --seed 2",
        0,
        "625f1013880c8fe336906b9679098846a4969f04bb8d38090b3f4809b2d99e7a",
    ),
    (
        "verify --gen six-vertex --rows 3 --cols 3",
        0,
        "6490c0082ef7c2c4aaf977140adf151dd6402dfbfca9ae8cde651a6c6be6693d",
    ),
    (
        "verify --json --gen six-vertex --rows 3 --cols 3",
        0,
        "1efbbb08b7f010320f43015941110b8071edd59dbf6e84f0d22a8189956e954d",
    ),
    (
        "verify --transposed-oracle --gen grid --N 1 --n 2 --seed 3",
        1,
        "e574e66596376f05b794845cdbcbf157d63041a6c8a12336a3b8c252ed43f98d",
    ),
    (
        "move --json --kind square --face f0 --gen grid --N 2 --n 2 --seed 1",
        0,
        "d444a25f62fc4e8f1fffa4abb3baded38478682d3eb7d446048eec48a3f4cb5f",
    ),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_OUTPUTS, ids=[p[0] for p in PINNED_OUTPUTS])
def test_verify_and_move_output_is_pinned(capsys, argv, code, digest):
    rc, out, _ = run(capsys, *argv.split())
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _readme_commands():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()]
    return [line for line in lines if line.startswith("dimerlab ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert any("negative control" in line for line in commands)
    for line in commands:
        expected = 1 if "negative control" in line else 0
        rc, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert rc == expected, f"{line!r} exited {rc}: {err}"

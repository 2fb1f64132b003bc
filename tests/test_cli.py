import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quiverlab.cli import main
from quiverlab.corpus import corpus
from quiverlab.jsonio import (
    dumps_canonical,
    mat_from_json,
    mat_to_json,
    quiver_from_json,
    quiver_to_json,
    rep_from_json,
    rep_to_json,
)
from quiverlab.exactlinalg import Mat
from quiverlab.quiver import DimData
from quiverlab.sampling import random_representation
from quiverlab.surgery import build_aux

ROOT = Path(__file__).resolve().parent.parent
THETA_ZERO_DEN = "perfbench/data/theta_zero_den.json"


@pytest.fixture
def corpus_files(tmp_path):
    paths = {}
    for name, e in corpus().items():
        doc = quiver_to_json(e.quiver, e.split, e.dims, e.action, e.sigma, name=name)
        p = tmp_path / f"{name}.json"
        p.write_text(dumps_canonical(doc))
        paths[name] = str(p)
    return paths


def test_roundtrip_quiver():
    for e in corpus().values():
        doc = quiver_to_json(e.quiver, e.split, e.dims, e.action, e.sigma)
        doc2 = json.loads(dumps_canonical(doc))
        q, split, dims, action, sigma = quiver_from_json(doc2)
        assert q == e.quiver
        assert split.pairs == e.split.pairs and split.loops == e.split.loops
        assert dims.v == e.dims.v and dims.d == e.dims.d and dims.theta == e.dims.theta
        assert action.rank == e.action.rank
        assert sigma == e.sigma


def test_roundtrip_aux_quiver_with_tuple_nodes():
    e = corpus()["jordan2"]
    aux = build_aux(e.quiver, e.split, e.dims)
    doc = quiver_to_json(aux.quiver, aux.split, DimData(aux.v, aux.d))
    q2, split2, dims2, _, _ = quiver_from_json(json.loads(dumps_canonical(doc)))
    assert q2 == aux.quiver
    assert dims2.v == aux.v


def test_roundtrip_matrix_and_rep():
    m = Mat([[Fraction(1, 3), Fraction(-5)], [0, Fraction(7, 2)]])
    assert mat_from_json(json.loads(json.dumps(mat_to_json(m)))) == m
    e = corpus()["loop2"]
    rep = random_representation(random.Random(0), e.quiver, e.dims)
    doc = rep_to_json(e.quiver, rep, {"eps": Fraction(2, 7)})
    rep2, t2 = rep_from_json(e.quiver, json.loads(dumps_canonical(doc)))
    assert rep2.x == rep.x and rep2.a == rep.a and rep2.b == rep.b
    assert t2 == {"eps": Fraction(2, 7)}


def test_analyze_consistency_row(corpus_files, capsys):
    assert main(["analyze", corpus_files["jordan2"]]) == 0
    out = capsys.readouterr().out
    assert "4 = 3 + 1" in out
    assert main(["analyze", corpus_files["a2sym"]]) == 0
    out = capsys.readouterr().out
    assert "2 = 2 + 0" in out


def test_analyze_asymmetric(tmp_path, capsys):
    doc = {
        "nodes": ["0", "1"],
        "arrows": [{"id": "a", "tail": "0", "head": "1"}],
        "pairs": [],
        "v": {"0": 1, "1": 1},
        "d": {"0": 0, "1": 0},
    }
    p = tmp_path / "asym.json"
    p.write_text(json.dumps(doc))
    assert main(["analyze", str(p)]) == 0
    out = capsys.readouterr().out
    assert "symmetric: False" in out and "skipped" in out


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["analyze", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_chambers_cli(capsys):
    assert main(["--format", "json", "chambers", "--roots", "1,0;0,1;1,-1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 6


def test_fixed_cli(corpus_files, capsys):
    assert main(["--format", "json", "fixed", corpus_files["a2sym"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 4
    assert all(c["self_dual"] for c in doc["candidates"])


def test_stab_table_cli(corpus_files, capsys):
    assert main(["--format", "json", "stab-table", corpus_files["a2sym"], "--xi", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(r["consistent"] for r in doc["rows"])


def test_triangle_cli(corpus_files, capsys):
    assert main(["triangle", corpus_files["framed2"]]) == 0
    assert "pass" in capsys.readouterr().out


def test_stability_cli(tmp_path, capsys):
    e = corpus()["jordan2"]
    rep_doc = {
        "quiver": quiver_to_json(e.quiver, e.split, e.dims),
        "representation": {
            "arrows": {"eps": mat_to_json(Mat([[0, 1], [0, 0]]))},
            "A": {"0": mat_to_json(Mat([[1], [0]]))},
            "B": {"0": mat_to_json(Mat([[0, 1]]))},
        },
    }
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(rep_doc))
    assert main(["--format", "json", "stability", str(p), "--theta", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stable"] is False
    assert doc["witness"]["dims"] == {"0": 1}
    assert doc["witness"]["verified"] is True


def test_tau_cli(tmp_path, capsys):
    e = corpus()["jordan2"]
    rep_doc = {
        "quiver": quiver_to_json(e.quiver, e.split, e.dims),
        "representation": {
            "arrows": {"eps": mat_to_json(Mat([[4, 5], [0, 1]]))},
            "A": {"0": mat_to_json(Mat.zero(2, 1))},
            "B": {"0": mat_to_json(Mat.zero(1, 2))},
        },
    }
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(rep_doc))
    assert main(["--format", "json", "tau", str(p)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["loops"]["eps"] == ["1", "-5", "4"]


def test_moment_check_cli(corpus_files, capsys):
    assert main(["moment-check", corpus_files["loop2"], "--samples", "20", "--seed", "4"]) == 0
    assert "20/20 pass" in capsys.readouterr().out


def test_verify_cli_and_seed_embedding(capsys):
    assert main(["--format", "json", "verify", "moment", "--samples", "10", "--seed", "11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["seed"] == 11


def test_verify_deterministic(capsys):
    main(["--format", "json", "verify", "flag", "--samples", "15", "--seed", "3"])
    first = capsys.readouterr().out
    main(["--format", "json", "verify", "flag", "--samples", "15", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_bad_delta_is_input_error(capsys):
    assert main(["verify", "transfer", "--delta", "1/3", "--samples", "2"]) == 2
    assert "rejected" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_export_byte_stable(corpus_files, tmp_path, capsys):
    out1 = tmp_path / "aux1.json"
    out2 = tmp_path / "aux2.json"
    assert main(["export", corpus_files["jordan2"], "--what", "aux", "--out", str(out1)]) == 0
    assert main(["export", corpus_files["jordan2"], "--what", "aux", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["new_node_total"] == 2
    assert doc["leg_index"] == {"eps": ["eps@1"], "loop:0": ["loop:0@1"]}


def test_export_chambers(corpus_files, tmp_path, capsys):
    out = tmp_path / "ch.json"
    assert main(["export", "--what", "chambers", "--roots", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(json.loads(out.read_text())["chambers"]) == 2


def test_export_fixed(corpus_files, tmp_path, capsys):
    out = tmp_path / "fixed.json"
    assert main(
        ["export", corpus_files["framed2"], "--what", "fixed", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["count"] == 17


def test_aux_cli(corpus_files, capsys):
    assert main(["aux", corpus_files["jordan2"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["new_node_total"] == 2 and doc["delta_default"] == "1/8"


def test_cb_cli(corpus_files, capsys):
    assert main(["cb", corpus_files["jordan2"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v"]["inf"] == 1 and doc["theta"]["inf"] == "-2"


def test_stability_cli_mixed_sign_search(tmp_path, capsys):
    e = corpus()["a2sym"]
    zero = {"rows": 1, "cols": 1, "entries": ["0"]}
    rep_doc = {
        "quiver": quiver_to_json(e.quiver, e.split, e.dims),
        "representation": {
            "arrows": {"a": dict(zero), "a*": dict(zero)},
            "A": {"0": dict(zero), "1": {"rows": 1, "cols": 0, "entries": []}},
            "B": {"0": dict(zero), "1": {"rows": 0, "cols": 1, "entries": []}},
        },
    }
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(rep_doc))
    assert main(["--format", "json", "stability", str(p), "--theta", "1,-1",
                 "--trials", "30", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "search"
    # zero representation with a positive node: coordinate line destabilizes
    assert doc["stable"] is False
    assert doc["witness"]["verified"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", THETA_ZERO_DEN],
        ["stab-table", THETA_ZERO_DEN],
        ["stability", "inputs/jordan2_rep.json", "--theta=1/0"],
        ["verify", "transfer", "--delta", "1/0"],
        ["chambers", "--roots", "1,0;1"],
        ["chambers", "--roots", "1,0;0,1,1"],
        ["chambers", "--roots", "0,0"],
        ["chambers"],
        ["export", "--what", "aux"],
    ],
    ids=" ".join,
)
def test_malformed_input_is_input_error(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quiverlab import verify
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
# 16 rank-4 roots may cut out 1152 chambers, over the region budget
RANK4_ROOTS_16 = ";".join(
    ",".join(map(str, r))
    for r in [v for v in itertools.product((0, 1), repeat=4) if any(v)] + [(1, -1, 0, 0)]
)


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


@pytest.mark.parametrize(
    "argv, first_line",
    [
        pytest.param(argv, line, id=" ".join(argv))
        for argv, line in [
            (["chambers", "inputs/framed2.json", "--window=-3..3"], "48 chambers over 24 roots"),
            (["triangle", "inputs/framed2.json", "--window=-2..2"], "triangle: 6272/6272 pass"),
        ]
    ],
)
def test_wide_window_arrangements_run(argv, first_line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line


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


def test_verify_failure_path(capsys, monkeypatch):
    # the second moment sample and the first transfer sample are made to fail
    moment, transfer = verify.check_compare_moment, verify.check_stability_transfer
    calls = {"moment": 0, "transfer": 0}

    def failing_moment(*args):
        calls["moment"] += 1
        return calls["moment"] != 2 and moment(*args)

    def failing_transfer(*args):
        calls["transfer"] += 1
        rpt = transfer(*args)
        if calls["transfer"] == 1:
            rpt = dataclasses.replace(rpt, rhs_stable=False, inclusion_ok=False)
        return rpt

    monkeypatch.setattr(verify, "check_compare_moment", failing_moment)
    monkeypatch.setattr(verify, "check_stability_transfer", failing_transfer)
    assert main(["verify", "all", "--samples", "3", "--seed", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["moment[jordan2]: 2/3 pass", "moment[jordan3]: 3/3 pass"]
    i = lines.index("transfer[jordan2]: 2/3 pass")
    assert lines[i - 1] == "  VIOLATION [jordan2]: lhs=True rhs=False lhs_witness=None rhs_witness=None"
    assert lines[i + 1] == "transfer[jordan3]: 3/3 pass"
    assert sum("VIOLATION" in line for line in lines) == 1
    assert lines[-2:] == ["triangle[framed2]: 1088/1088 pass", "verify: FAILED (seed 5)"]


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
        ["chambers", "--roots", RANK4_ROOTS_16],
        ["fixed", "tests/data/a2sym_sigma_str.json"],
        ["triangle", "tests/data/a2sym_sigma_str.json"],
        ["stab-table", "tests/data/a2sym_sigma_float.json"],
        # JSON true is a bool, not the number 1
        ["stability", "tests/data/jordan2_rep_bool_entry.json"],
        ["tau", "tests/data/jordan2_rep_bool_entry.json"],
        ["analyze", "tests/data/jordan2_bool_framing.json"],
        ["stability", "tests/data/jordan2_rep_negative_shape.json"],
        ["fixed", "inputs/loop2.json", "--window=-20..20"],
        ["analyze", "inputs"],
        ["export", "inputs/jordan2.json", "--what", "aux", "--out", "no_such_dir/aux.json"],
    ],
    ids=" ".join,
)
def test_malformed_input_is_input_error(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["analyze", "inputs/jordan2.json"], ["fixed", "inputs/loop2.json"]], ids=" ".join
)
def test_closed_stdout_exits_quietly(argv):
    # the reader closes its end of the pipe before the command writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    try:
        proc = subprocess.run([sys.executable, "-m", "quiverlab", *argv], cwd=ROOT, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode in {0, 1, 2}


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--window", ["fixed", "inputs/a2sym.json", "--window", "1"]),
        ("--window", ["fixed", "inputs/a2sym.json", "--window=a..1"]),
        ("--window", ["triangle", "inputs/loop2.json", "--window=-1..0..1"]),
        ("--sigma", ["fixed", "inputs/a2sym.json", "--sigma", "x"]),
        ("--sigma", ["fixed", "inputs/framed2.json", "--sigma", "0,,0"]),
        ("--sigma needs 1 entries, got 2", ["fixed", "inputs/a2sym.json", "--sigma", "1,2"]),
        ("--xi", ["stab-table", "inputs/framed2.json", "--xi", "1,x"]),
        ("--xi", ["stab-table", "inputs/framed2.json", "--xi", "1"]),
        ("--xi", ["stab-table", "inputs/framed2.json", "--xi", "1,1,1"]),
        ("--xi", ["stab-table", "inputs/framed2.json", "--xi", "1,,3"]),
        ("--roots", ["chambers", "--roots", "1,x;0,1"]),
        ("--roots", ["export", "--what", "chambers", "--roots", "1,0;"]),
        ("--samples", ["verify", "moment", "--samples", "-3"]),
        ("--samples", ["verify", "flag", "--samples", "0"]),
        ("--samples", ["moment-check", "inputs/loop2.json", "--samples", "-2"]),
        ("--trials", ["stability", "inputs/jordan2_rep.json", "--trials", "-4"]),
        ("--trials", ["stability", "inputs/jordan2_rep.json", "--theta", "1", "--trials", "0"]),
        ("--theta needs 1 entries, got 2", ["stability", "inputs/jordan2_rep.json", "--theta", "1,2"]),
        ("--theta", ["stability", "inputs/jordan2_rep.json", "--theta", "abc"]),
        ("--theta", ["stability", "inputs/jordan2_rep.json", "--theta=1,,2"]),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else x,
)
def test_flag_parse_error_names_flag(flag, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err


def _input_doc(name, **changes):
    """The JSON document of inputs/<name>.json with top-level keys replaced
    (a value of None drops the key)."""
    doc = json.loads((ROOT / "inputs" / f"{name}.json").read_text())
    for key, value in changes.items():
        if value is None:
            doc.pop(key)
        else:
            doc[key] = value
    return doc


def _assert_one_error_line(argv, capsys, needle):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert needle in captured.err


def _write(tmp_path, name, doc) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("command", ["aux", "fixed", "moment-check"])
def test_missing_dimension_data_is_input_error(command, tmp_path, capsys):
    path = _write(tmp_path, "nodims.json", _input_doc("loop2", v=None, d=None, theta=None))
    _assert_one_error_line([command, path], capsys, "dimension data required")


def test_missing_action_or_cocharacter_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, "noaction.json", _input_doc("a2sym", action=None))
    _assert_one_error_line(["fixed", path], capsys, "no torus action")
    path = _write(tmp_path, "nosigma.json", _input_doc("a2sym", sigma=None))
    _assert_one_error_line(["fixed", path], capsys, "no cocharacter")


def _rep_doc():
    return json.loads((ROOT / "inputs" / "jordan2_rep.json").read_text())


def test_representation_file_without_quiver_is_input_error(tmp_path, capsys):
    doc = _rep_doc()
    del doc["quiver"]
    path = _write(tmp_path, "rep.json", doc)
    _assert_one_error_line(["stability", path], capsys, "needs 'quiver' and 'representation'")


@pytest.mark.parametrize("theta", ["--theta=1", "--theta=-1"])
def test_stability_refuses_malformed_representation(theta, tmp_path, capsys):
    # a 2x1 A block at a node of dimension 1
    doc = _rep_doc()
    doc["quiver"]["v"] = {"0": 1}
    rep = doc["representation"]
    rep["arrows"]["eps"] = {"rows": 1, "cols": 1, "entries": ["0"]}
    rep["B"]["0"] = {"rows": 1, "cols": 1, "entries": ["0"]}
    rep["A"]["0"] = {"rows": 2, "cols": 1, "entries": ["1", "0"]}
    path = _write(tmp_path, "shape.json", doc)
    _assert_one_error_line(["stability", path, theta], capsys, "A block at '0' has wrong shape")
    # the same representation without its B block
    doc = _rep_doc()
    doc["representation"]["B"] = {}
    path = _write(tmp_path, "nob.json", doc)
    _assert_one_error_line(["stability", path, theta], capsys, "missing framing block at node '0'")


@pytest.mark.parametrize(
    "action, needle",
    [
        ({"rank": 1, "arrow_chars": {}, "framing_chars": {"0": [["a"]]}}, "'0'"),
        ({"rank": 1, "arrow_chars": {"a": ["x"]}, "framing_chars": {"0": [[0]]}}, "'a'"),
        ({"rank": 1, "arrow_chars": {}, "framing_chars": {"0": [[1.5]]}}, "'0'"),
        ({"rank": 1, "arrow_chars": {"a": [0.5]}, "framing_chars": {"0": [[0]]}}, "'a'"),
    ],
    ids=["framing-string", "arrow-string", "framing-float", "arrow-float"],
)
@pytest.mark.parametrize("command", ["fixed", "chambers", "stab-table", "triangle"])
def test_non_integer_characters_are_input_errors(command, action, needle, tmp_path, capsys):
    path = _write(tmp_path, "chars.json", _input_doc("a2sym", action=action))
    _assert_one_error_line([command, path], capsys, needle)


@pytest.mark.parametrize("command", ["fixed", "chambers", "stab-table", "triangle"])
def test_pairs_with_swapped_characters_are_input_errors(command, capsys, monkeypatch):
    # a:[1], a*:[2], b:[-2], b*:[-1] is self-dual, but neither pair is opposite
    monkeypatch.chdir(ROOT)
    _assert_one_error_line(
        [command, "tests/data/swapped_pairs.json"], capsys,
        "paired arrows 'a' and 'a*' need opposite characters, got [1] and [2]",
    )
    # the zero cocharacter never pairs arrow copies, so it still runs
    assert main(["fixed", "tests/data/swapped_pairs.json", "--sigma", "0"]) == 0


@pytest.mark.parametrize("name", ["loop2", "a2sym"])
def test_quiver_without_pairs_derives_the_corpus_split(name):
    _, split, *_ = quiver_from_json(_input_doc(name, pairs=None))
    e = corpus()[name]
    assert split.pairs == e.split.pairs and split.loops == e.split.loops

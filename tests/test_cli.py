import argparse
import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from quiverlab import cli, envelopes, torus, verify
from quiverlab.cli import build_parser, main
from quiverlab.corpus import ACTION_ENTRIES, corpus
from quiverlab.envelopes import MAX_DEGREE_PAIRS, chambers, faces, torus_roots
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
from quiverlab.surgery import MAX_LEG_NODES, build_aux
from quiverlab.torus import fixed_components

ROOT = Path(__file__).resolve().parent.parent
THETA_ZERO_DEN = "perfbench/data/theta_zero_den.json"
# 16 rank-4 roots may cut out 1152 chambers, over the region budget
RANK4_ROOTS_16 = ";".join(
    ",".join(map(str, r))
    for r in [v for v in itertools.product((0, 1), repeat=4) if any(v)] + [(1, -1, 0, 0)]
)


# argv on a file missing a required key -> the key and container its error names
MISSING_KEY = {
    "analyze inputs/jordan2_rep.json": "a quiver needs key 'nodes'",
    "analyze tests/data/a2sym_no_arrows.json": "a quiver needs key 'arrows'",
    "fixed tests/data/a2sym_arrow_no_tail.json": "'arrows' entry needs key 'tail'",
    "analyze tests/data/a2sym_arrow_no_id.json": "'arrows' entry needs key 'id'",
    "fixed tests/data/a2sym_action_no_rank.json": "'action' needs key 'rank'",
    "tau tests/data/jordan2_rep_no_A.json": "a representation needs key 'A'",
}


@pytest.fixture
def corpus_files(tmp_path):
    paths = {}
    for name, e in corpus().items():
        doc = quiver_to_json(e.quiver, e.split, e.dims, e.action, e.sigma, name=name)
        p = tmp_path / f"{name}.json"
        p.write_text(dumps_canonical(doc))
        paths[name] = str(p)
    return paths


@pytest.mark.parametrize("name", list(corpus()))
def test_input_files_are_the_corpus_entries(name):
    e = corpus()[name]
    doc = quiver_to_json(e.quiver, e.split, e.dims, e.action, e.sigma, name=name)
    assert (ROOT / "inputs" / f"{name}.json").read_text() == dumps_canonical(doc)


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
    assert mat_from_json(json.loads(json.dumps(mat_to_json(m))), "arrows", "a") == m
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


def test_fixed_cli_zero_sigma_drops_zero_multiplicity(tmp_path, capsys):
    e = corpus()["jordan2"]
    dims = DimData({"0": 1}, {"0": 0})
    action = dataclasses.replace(e.action, framing_chars={"0": ()})
    p = tmp_path / "jordan1.json"
    p.write_text(dumps_canonical(quiver_to_json(e.quiver, e.split, dims, action, (1,))))
    tangents = []
    for sigma in ("0", "1"):
        assert main(["--format", "json", "fixed", str(p), "--sigma", sigma]) == 0
        (cand,) = json.loads(capsys.readouterr().out)["candidates"]
        assert (cand["name"], cand["dim_fixed"]) == ("0[0x1]", 0)
        tangents.append(cand["tangent"])
    assert tangents == [[], []]


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
    # a delta over an entry's bound is refused naming the entry
    _assert_one_error_line(["verify", "transfer", "--delta", "1/3", "--samples", "2"], capsys,
                           "delta override rejected for jordan2: delta=1/3 violates the bound")
    # one that is not a rational is refused naming the flag, before any entry
    for value in ("abc", "1/0"):
        _assert_one_error_line(["verify", "all", "--delta", value], capsys,
                               f"error: --delta needs a rational, got {value!r}\n")


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


def test_cb_without_theta_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, "notheta.json", _input_doc("a2sym", theta=None))
    _assert_one_error_line(["cb", path], capsys, "theta required for the framing absorption")


@pytest.mark.parametrize("name", ["a2sym", "framed2"])
def test_cb_theta_missing_a_node_names_the_file_and_field(name, tmp_path, capsys):
    doc = _input_doc(name)
    del doc["theta"]["1"]
    path = _write(tmp_path, "partial.json", doc)
    _assert_one_error_line(["cb", path], capsys,
                           f"error: {path}: 'theta' needs an entry for every node, missing ['1']\n")


def test_representation_file_without_v_or_theta_is_input_error(tmp_path, capsys):
    doc = _rep_doc()
    del doc["quiver"]["v"]
    path = _write(tmp_path, "nov.json", doc)
    _assert_one_error_line(["stability", path], capsys, "dimension data required")
    doc = _rep_doc()
    del doc["quiver"]["theta"]
    path = _write(tmp_path, "notheta.json", doc)
    _assert_one_error_line(["stability", path], capsys,
                           "no stability condition: give --theta or a 'theta' entry")


def test_stability_file_theta_missing_a_node_is_input_error(tmp_path, capsys):
    doc = json.loads((ROOT / "tests" / "data" / "a2sym_search_rep.json").read_text())
    doc["quiver"]["theta"] = {"0": "1"}
    path = _write(tmp_path, "partial.json", doc)
    _assert_one_error_line(["stability", path], capsys,
                           f"error: {path}: 'theta' needs an entry for every node, missing ['1']\n")
    # --theta replaces the file's theta, so it is not refused
    assert main(["stability", path, "--theta", "1,1"]) == 0


def test_stability_at_zero_theta_reports_no_verdict(capsys, monkeypatch):
    # theta = 0 has no sign to search with: no verdict, and a note saying so
    monkeypatch.chdir(ROOT)
    assert main(["--format", "json", "stability", "inputs/jordan2_rep.json", "--theta", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["mode"], doc["stable"], "witness" in doc) == ("search", None, False)
    assert doc["note"] == "no destabilizer found within budget; not a stability proof"
    assert main(["stability", "inputs/jordan2_rep.json", "--theta", "0"]) == 0
    assert capsys.readouterr().out == "mode: search\nstable: None\n"


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
        ["tau", "tests/data/jordan2_rep_string_entries.json"],
        # a quiver without a doubled-pair split
        ["moment-check", "tests/data/nonsymmetric.json"],
        ["tau", "tests/data/nonsymmetric_rep.json"],
        ["fixed", "inputs/loop2.json", "--window=-20..20"],
        ["analyze", "inputs"],
        ["export", "inputs/jordan2.json", "--what", "aux", "--out", "no_such_dir/aux.json"],
        # entries of a quiver file that cannot be read as their key's kind
        ["fixed", "tests/data/a2sym_v_partial.json"],
        ["analyze", "tests/data/a2sym_v_partial.json"],
        ["fixed", "tests/data/a2sym_pairs_short.json"],
        ["analyze", "tests/data/a2sym_pairs_short.json"],
        ["fixed", "tests/data/a2sym_arrow_chars_int.json"],
        ["analyze", "tests/data/a2sym_arrow_chars_int.json"],
        ["fixed", "tests/data/a2sym_framing_chars_flat.json"],
        ["analyze", "tests/data/a2sym_framing_chars_flat.json"],
        # a required key that is missing
        *[argv.split() for argv in MISSING_KEY],
    ],
    ids=" ".join,
)
def test_malformed_input_is_input_error(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert MISSING_KEY.get(" ".join(argv), "") in captured.err


@pytest.mark.parametrize(
    "argv, given",
    [
        (["chambers", "inputs/framed2.json", "--roots", "1,0;0,1"], "an input file"),
        (["chambers", "--roots", "1,0;0,1", "--sigma", "5,5", "--window=-9..9"], "--sigma or --window"),
        (["chambers", "--roots", "1,0;0,1", "--window=-9..9"], "--window"),
        (["export", "inputs/framed2.json", "--what", "chambers", "--roots", "1,0;0,1"], "an input file"),
        (["export", "--what", "chambers", "--roots", "1,0;0,1", "--sigma", "5,5"], "--sigma"),
        (["export", "--what", "chambers", "--roots", "1", "--window=-9..9"], "--window"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_roots_refuse_other_input(argv, given, capsys, monkeypatch):
    # the roots are the whole input; each of these was once dropped silently
    monkeypatch.chdir(ROOT)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --roots cannot be combined with {given}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["export", "inputs/jordan2.json", "--what", "aux", "--roots", "1,0"],
         "export --what aux does not read --roots"),
        (["export", "inputs/jordan2.json", "--what", "aux", "--sigma", "9", "--window=-9..9"],
         "export --what aux does not read --sigma or --window"),
        (["export", "inputs/jordan2.json", "--what", "add", "--window=-1..1"],
         "export --what add does not read --window"),
        (["export", "inputs/jordan2.json", "--what", "rem", "--sigma", "1"],
         "export --what rem does not read --sigma"),
        (["export", "inputs/a2sym.json", "--what", "cb", "--roots", "1", "--sigma", "1", "--window=0..1"],
         "export --what cb does not read --roots or --sigma or --window"),
        (["export", "inputs/framed2.json", "--what", "fixed", "--roots", "1,0;0,1"],
         "export --what fixed does not read --roots"),
        (["verify", "moment", "--delta", "1/8"], "--delta applies to the transfer suite, not to moment"),
        (["verify", "flag", "--delta", "1/100"], "--delta applies to the transfer suite, not to flag"),
        (["verify", "triangle", "--delta", "abc"], "--delta applies to the transfer suite, not to triangle"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_options_the_selection_does_not_read_are_refused(argv, message, capsys, monkeypatch):
    # each of these exited 0 with the option dropped, or (verify moment
    # --delta 1/8) was refused over the transfer bound it never reads
    monkeypatch.chdir(ROOT)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "inputs/jordan2.json", "--what", "aux"],
        ["export", "inputs/framed2.json", "--what", "fixed", "--sigma", "1,3", "--window=-1..1"],
        ["verify", "transfer", "--delta", "1/100", "--samples", "2"],
        ["verify", "all", "--delta", "1/100", "--samples", "2"],
    ],
    ids=" ".join,
)
def test_options_the_selection_reads_are_accepted(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


NONSYMMETRIC = ("tests/data/nonsymmetric.json", "tests/data/nonsymmetric_rep.json")
# the commands that need no doubled-pair split read a non-symmetric quiver
NONSYMMETRIC_OK = {"analyze", "stability"}


def _file_commands():
    """An argv stem for every subcommand of the parser that reads an input
    file, one per choice of each required option."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        if not any(a.dest == "file" for a in parser._actions):
            continue
        required = [a for a in parser._actions if a.required and a.option_strings]
        for picks in itertools.product(*[[(a.option_strings[0], c) for c in a.choices] for a in required]):
            yield [name, *itertools.chain.from_iterable(picks)]


@pytest.mark.parametrize("stem", list(_file_commands()), ids=" ".join)
def test_nonsymmetric_quiver_is_refused(stem, capsys, monkeypatch):
    # each command gets the quiver file and the representation file; one of
    # them is its kind of input, the other is refused as malformed
    monkeypatch.chdir(ROOT)
    codes, errors = [], []
    for path in NONSYMMETRIC:
        codes.append(main([*stem, path]))
        captured = capsys.readouterr()
        if codes[-1]:
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            errors.append(captured.err)
    if stem[0] in NONSYMMETRIC_OK:
        assert sorted(codes) == [0, 2]
    else:
        assert codes == [2, 2]
        assert any("not symmetric" in e for e in errors)


def test_nonsymmetric_check_finds_the_file_commands():
    # an empty enumeration would leave the check above with no cases
    assert NONSYMMETRIC_OK < {stem[0] for stem in _file_commands()}


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
        # an empty --roots is still --roots, not a missing input file
        ("--roots", ["chambers", "--roots", ""]),
        ("--roots", ["export", "--what", "chambers", "--roots", ""]),
        # an empty value is still its flag's value, not an absent flag
        ("--sigma", ["fixed", "inputs/a2sym.json", "--sigma", ""]),
        ("--window", ["fixed", "inputs/a2sym.json", "--window", ""]),
        ("--xi", ["stab-table", "inputs/framed2.json", "--xi", ""]),
        ("--theta", ["stability", "inputs/jordan2_rep.json", "--theta", ""]),
        ("--samples", ["verify", "moment", "--samples", "-3"]),
        ("--samples", ["verify", "flag", "--samples", "0"]),
        ("--samples", ["moment-check", "inputs/loop2.json", "--samples", "-2"]),
        ("--trials", ["stability", "inputs/jordan2_rep.json", "--trials", "-4"]),
        ("--trials", ["stability", "inputs/jordan2_rep.json", "--theta", "1", "--trials", "0"]),
        ("--theta needs 1 entries, got 2", ["stability", "inputs/jordan2_rep.json", "--theta", "1,2"]),
        ("--theta", ["stability", "inputs/jordan2_rep.json", "--theta", "abc"]),
        ("--theta", ["stability", "inputs/jordan2_rep.json", "--theta=1,,2"]),
        # argparse hands --flag=-- to the command as [], without calling type=
        ("--sigma needs a value", ["fixed", "inputs/a2sym.json", "--sigma=--"]),
        ("--samples needs a value", ["moment-check", "inputs/jordan2.json", "--samples=--"]),
        ("--samples needs a value", ["--samples=--", "verify", "moment"]),
        ("--window needs a value", ["fixed", "inputs/a2sym.json", "--window=--"]),
        ("--xi needs a value", ["stab-table", "inputs/framed2.json", "--xi=--"]),
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


def test_representation_file_without_quiver_is_input_error(tmp_path, capsys, monkeypatch):
    # the file and the missing entry are named, also for a quiver file
    for key in ("quiver", "representation"):
        doc = _rep_doc()
        del doc[key]
        path = _write(tmp_path, "rep.json", doc)
        _assert_one_error_line(["stability", path], capsys,
                               f"error: {path}: a representation file needs key {key!r}\n")
    monkeypatch.chdir(ROOT)
    _assert_one_error_line(["tau", "inputs/jordan2.json"], capsys,
                           "error: inputs/jordan2.json: a representation file needs key 'quiver'\n")
    path = _write(tmp_path, "list.json", [1])
    _assert_one_error_line(["tau", path], capsys,
                           f"error: {path}: a representation file needs a JSON object, got [1]\n")


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


@pytest.mark.parametrize(
    "key", ["v", "d", "theta", "action", "action.arrow_chars", "action.framing_chars"]
)
@pytest.mark.parametrize("command", ["analyze", "fixed"])
def test_json_array_in_place_of_object_is_input_error(command, key, tmp_path, capsys):
    doc = _input_doc("a2sym")
    *outer, last = key.split(".")
    target = doc
    for k in outer:
        target = target[k]
    target[last] = [1, 0]
    path = _write(tmp_path, "array.json", doc)
    _assert_one_error_line([command, path], capsys, f"{last!r} needs a JSON object")


@pytest.mark.parametrize("key", ["v", "d", "theta", "action.framing_chars"])
def test_unknown_node_in_quiver_file_is_named(key, tmp_path, capsys):
    doc = _input_doc("a2sym")
    *outer, last = key.split(".")
    target = doc
    for k in outer:
        target = target[k]
    extra = {"v": 1, "d": 0, "theta": "1", "framing_chars": [[0]]}[last]
    target[last] = {**target.get(last, {}), "9": extra}
    path = _write(tmp_path, "unknown.json", doc)
    _assert_one_error_line(["fixed", path], capsys, f"{last!r} names unknown node '9'")


def test_unknown_arrow_in_arrow_chars_is_named(tmp_path, capsys):
    action = _input_doc("a2sym")["action"]
    action["arrow_chars"]["x"] = [1]
    path = _write(tmp_path, "unknown.json", _input_doc("a2sym", action=action))
    _assert_one_error_line(["fixed", path], capsys, "'arrow_chars' names unknown arrow 'x'")


@pytest.mark.parametrize(
    "field, kind", [("arrows", "arrow"), ("A", "node"), ("B", "node"), ("t", "arrow")]
)
def test_unknown_key_in_representation_is_named(field, kind, tmp_path, capsys):
    doc = _rep_doc()
    rep = doc["representation"]
    extra = "1" if field == "t" else {"rows": 1, "cols": 1, "entries": ["0"]}
    rep[field] = {**rep.get(field, {}), "9": extra}
    path = _write(tmp_path, "unknown.json", doc)
    _assert_one_error_line(["stability", path], capsys, f"{field!r} names unknown {kind} '9'")


NON_RATIONALS = [[], 1.5, "abc", "1/0", True, {"0": 1}]


@pytest.mark.parametrize("value", NON_RATIONALS, ids=repr)
@pytest.mark.parametrize("command", ["analyze", "fixed"])
def test_non_rational_theta_entry_is_named(command, value, tmp_path, capsys):
    path = _write(tmp_path, "theta.json", _input_doc("a2sym", theta={"0": value, "1": "-1"}))
    _assert_one_error_line(
        [command, path], capsys, f"'theta' entry '0' needs an exact rational, got {value!r}"
    )


@pytest.mark.parametrize("value", NON_RATIONALS, ids=repr)
def test_non_rational_t_entry_is_named(value, tmp_path, capsys):
    doc = _rep_doc()
    doc["representation"]["t"] = {"eps": value}
    path = _write(tmp_path, "t.json", doc)
    _assert_one_error_line(
        ["stability", path], capsys, f"'t' entry 'eps' needs an exact rational, got {value!r}"
    )


def test_stab_table_over_the_pair_budget_is_input_error(capsys, monkeypatch):
    # loop2 at -6..6 has 1183 candidates; the default window's 75 stay in budget
    monkeypatch.chdir(ROOT)
    for fmt in ([], ["--format", "json"]):
        _assert_one_error_line(
            ["stab-table", "inputs/loop2.json", "--window=-6..6", *fmt], capsys,
            f"1183 candidates give 699153 degree pairs, over the budget of {MAX_DEGREE_PAIRS}",
        )


def _text_and_json(argv, capsys):
    """(exit code, stdout lines) of argv as text, and (exit code, payload)
    of argv with --format json."""
    text_code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    json_code = main([*argv, "--format", "json"])
    return (text_code, lines), (json_code, json.loads(capsys.readouterr().out))


@pytest.mark.parametrize(
    "file, window, xi",
    # framed2's sigma (1, 3) lies on a wall of the -2..2 characters; 1,5 does not
    [("inputs/loop2.json", "--window=-3..3", []), ("inputs/framed2.json", "--window=-2..2", ["--xi", "1,5"])],
)
def test_fixed_and_stab_table_text_matches_json(file, window, xi, capsys, monkeypatch):
    # outside the goldens' windows: the text form, which builds no JSON
    # document or degree pair, prints what the JSON payload holds
    monkeypatch.chdir(ROOT)
    (code, lines), (json_code, payload) = _text_and_json(["fixed", file, window], capsys)
    assert code == json_code == 0
    assert lines == [f"{payload['count']} candidates"] + [
        f"  {c['name']}  dimF={c['dim_fixed']}" for c in payload["candidates"]
    ]
    (code, lines), (json_code, payload) = _text_and_json(["stab-table", file, window, *xi], capsys)
    assert code == json_code
    assert lines == [f"dim X = {payload['dim_ambient']}"] + [
        f"  {r['name']}: dimF={r['dim_fixed']} rankN-={r['rank_minus']} "
        f"attr={r['attracting_dim']} consistent={r['consistent']}"
        for r in payload["rows"]
    ]
    assert len(payload["pairs"]) == len(payload["rows"]) * (len(payload["rows"]) - 1) // 2


def _count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call in the
    returned list."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_commands_build_only_what_their_output_reads(capsys, monkeypatch):
    # work done, counted in calls: a command that prints no derived quiver
    # derives none, and fixed --format json derives each candidate's once
    monkeypatch.chdir(ROOT)
    derived = _count_calls(monkeypatch, torus, "_derived_quiver")
    for file in ("inputs/loop2.json", "inputs/framed2.json"):
        for command in ("stab-table", "chambers", "triangle"):
            for fmt in ([], ["--format", "json"]):
                assert main([command, file, *fmt]) == 0
                assert not derived, (command, file, fmt)
                capsys.readouterr()
        assert main(["fixed", file, "--format", "json"]) == 0
        assert len(derived) == json.loads(capsys.readouterr().out)["count"] > 0
        derived.clear()
    # the counter sees the calls a reader of the derived quivers makes
    e = corpus()["loop2"]
    cands = fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
    assert len({id(c.quiver) for c in cands + cands}) == len(derived) == 75


def test_passing_triangle_triples_build_no_counter(capsys, monkeypatch):
    # envelopes makes no Counter: the triangle check reads each character's
    # sign off the chamber's kept pairings. Every Counter is counted by the
    # module of the first frame outside collections that made it, so the
    # candidates' tangents show up under torus
    monkeypatch.chdir(ROOT)
    assert not hasattr(envelopes, "Counter")
    made = Counter()
    init = Counter.__init__

    def counted(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "collections":
            frame = frame.f_back
        made[frame.f_globals["__name__"]] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Counter, "__init__", counted)
    # each chamber keeps one pairing per distinct character it was asked
    # for: 16 framed2 chambers, 20 characters
    paired = []
    pairing = envelopes.Chamber._pairing
    monkeypatch.setattr(envelopes.Chamber, "_pairing", lambda ch, x: paired.append(ch) or pairing(ch, x))
    assert main(["verify", "triangle"]) == 0
    assert made["quiverlab.torus"] > 0 and made["quiverlab.envelopes"] == 0
    made.clear()
    paired.clear()
    assert main(["triangle", "inputs/framed2.json"]) == 0
    assert capsys.readouterr().out.endswith("triangle: 1088/1088 pass\n")
    assert made["quiverlab.envelopes"] == 0
    chs = {id(ch): ch for ch in paired}.values()
    assert len(chs) == 16 and sum(len(ch._pairings) for ch in chs) == 320
    # checking every face of one framed2 chamber and reading each report's
    # ok and problems builds no Counter either
    e = corpus()["framed2"]
    cands = fixed_components(e.quiver, e.split, e.dims, e.action, e.sigma, e.window)
    ch = chambers(torus_roots(cands), 2)[0]
    fs = faces(ch)
    made.clear()
    reports = [envelopes.triangle_split_check(c, ch, f) for c in cands for f in fs]
    assert [(r.ok, r.problems) for r in reports] == [(True, ())] * 17 * len(fs)
    assert made["quiverlab.envelopes"] == 0


def test_triangle_passes_with_negative_multiplicities(tmp_path, capsys):
    # some candidates here hold a character of N^- with negative
    # multiplicity, which a sum of Counters drops
    doc = {
        "nodes": ["0", "1", "2"],
        "arrows": [{"id": i, "tail": t, "head": h} for a, t0, h0 in
                   (("a0", "1", "0"), ("a1", "2", "0"), ("a2", "0", "2"))
                   for i, t, h in ((a, t0, h0), (a + "*", h0, t0))],
        "pairs": [["a0", "a0*"], ["a1", "a1*"], ["a2", "a2*"]],
        "v": {"0": 2, "1": 2, "2": 1},
        "d": {"0": 1, "1": 0, "2": 1},
        "action": {"rank": 1, "arrow_chars": {"a0": [-2], "a1": [-2], "a2*": [1]},
                   "framing_chars": {"0": [[-1]], "1": [], "2": [[0]]}},
        "sigma": [1],
    }
    path = _write(tmp_path, "negative.json", doc)
    assert main(["triangle", path, "--window=-1..1"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("triangle: 336/336 pass\n", "")


@pytest.mark.parametrize("field", ["arrows", "A", "B", "t"])
@pytest.mark.parametrize("command", ["tau", "stability"])
def test_json_array_in_place_of_representation_object_is_input_error(
    command, field, tmp_path, capsys
):
    doc = _rep_doc()
    doc["representation"][field] = [1]
    path = _write(tmp_path, "array.json", doc)
    _assert_one_error_line([command, path], capsys, f"{field!r} needs a JSON object, got [1]")


@pytest.mark.parametrize("field", ["arrows", "A", "B"])
def test_missing_representation_object_is_named(field, tmp_path, capsys):
    doc = _rep_doc()
    del doc["representation"][field]
    path = _write(tmp_path, "missing.json", doc)
    _assert_one_error_line(["tau", path], capsys, f"error: {path}: a representation needs key {field!r}\n")


@pytest.mark.parametrize("rank", [1.0, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("command", ["fixed", "chambers", "stab-table", "triangle"])
def test_action_rank_must_be_a_nonnegative_integer(command, rank, tmp_path, capsys):
    action = {**_input_doc("a2sym")["action"], "rank": rank}
    path = _write(tmp_path, "rank.json", _input_doc("a2sym", action=action))
    _assert_one_error_line([command, path], capsys, "action rank needs a nonnegative integer")


@pytest.mark.parametrize(
    "name, needle",
    [
        ("v_partial", "'v' needs an entry for every node, missing ['1']"),
        ("pairs_short", "'pairs' needs a list of two-arrow-id lists"),
        ("arrow_chars_int", "'arrow_chars' entry 'a' needs a list"),
        ("framing_chars_flat", "'framing_chars' entry '0' needs a list of lists"),
    ],
)
def test_malformed_quiver_entry_names_its_key(name, needle, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    _assert_one_error_line(["fixed", f"tests/data/a2sym_{name}.json"], capsys, needle)


ARROW_A = {"id": "a", "tail": "0", "head": "1"}


@pytest.mark.parametrize(
    "changes, needle",
    [
        ({"nodes": "ab"}, "'nodes' needs a JSON list, got 'ab'"),
        ({"nodes": None}, "'nodes' needs a JSON list, got None"),
        ({"nodes": [None]}, "'nodes' needs a node id string or [loop_id, depth] pair, got None"),
        ({"nodes": [{"x": 1}, "1"]}, "'nodes' needs a node id string"),
        ({"nodes": [["0"], "1"]}, "'nodes' needs a node id string"),
        ({"arrows": None}, "'arrows' needs a JSON list, got None"),
        ({"arrows": ["e"]}, "'arrows' entry needs a JSON object, got 'e'"),
        ({"arrows": [{**ARROW_A, "id": {"x": 1}}]}, "'id' needs an arrow id string"),
        ({"arrows": [{**ARROW_A, "id": ["a"]}]}, "'id' needs an arrow id string"),
        ({"arrows": [{**ARROW_A, "tail": {"x": 1}}]}, "'tail' needs a node id string"),
        ({"sigma": 5}, "'sigma' needs a JSON list, got 5"),
    ],
    ids=lambda x: json.dumps(x) if isinstance(x, dict) else "needle",
)
@pytest.mark.parametrize("command", ["analyze", "fixed"])
def test_wrong_json_type_in_quiver_file_is_named(command, changes, needle, tmp_path, capsys):
    path = _write(tmp_path, "types.json", {**_input_doc("a2sym"), **changes})
    _assert_one_error_line([command, path], capsys, needle)


@pytest.mark.parametrize("command", ["analyze", "fixed"])
def test_quiver_document_that_is_not_an_object_is_input_error(command, tmp_path, capsys):
    path = _write(tmp_path, "list.json", [1])
    _assert_one_error_line([command, path], capsys, "a quiver needs a JSON object, got [1]")


@pytest.mark.parametrize("entry", ["quiver", "representation"])
@pytest.mark.parametrize("command", ["tau", "stability"])
def test_representation_file_entry_that_is_not_an_object_is_named(
    command, entry, tmp_path, capsys
):
    doc = _rep_doc()
    doc[entry] = [1]
    path = _write(tmp_path, "array.json", doc)
    _assert_one_error_line([command, path], capsys, f"{entry!r} needs a JSON object, got [1]")


def test_long_legs_are_refused_up_front(tmp_path, capsys):
    # jordan2 at v = 20000 would add 2 * 19999 leg nodes
    path = _write(tmp_path, "long.json", _input_doc("jordan2", v={"0": 20000}))
    start = time.perf_counter()
    _assert_one_error_line(
        ["analyze", path], capsys,
        f"the legs would add 39998 nodes, over the budget of {MAX_LEG_NODES}",
    )
    assert time.perf_counter() - start < 1
    path = _write(tmp_path, "short.json", _input_doc("jordan2", v={"0": 1000}))
    assert main(["analyze", path]) == 0
    assert "consistency: 2000 = 1999 + 1 (ok)" in capsys.readouterr().out
    # v = 5001 adds exactly the budget; the split check reads the 20,002
    # arrows through one id map, so this takes a fraction of a second
    path = _write(tmp_path, "edge.json", _input_doc("jordan2", v={"0": 5001}))
    start = time.perf_counter()
    assert main(["analyze", path]) == 0
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("command", ["fixed", "chambers", "stab-table", "triangle"])
def test_action_rank_is_checked_before_sigma(command, capsys, monkeypatch):
    # --sigma is parsed against the rank, so a bad rank is reported first
    monkeypatch.chdir(ROOT)
    _assert_one_error_line(
        [command, "tests/data/a2sym_rank_true.json", "--sigma", "1,2"], capsys,
        "action rank needs a nonnegative integer, got True",
    )


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


# an output format, then the table default; --seed before and after the
# subcommand, then neither; argparse errors, then a valid call
REUSE_SEQUENCE = [
    ["analyze", "inputs/loop2.json", "--format", "json"],
    ["analyze", "inputs/loop2.json"],
    ["--seed", "5", "moment-check", "inputs/jordan2.json", "--samples", "2", "--format", "json"],
    ["moment-check", "inputs/jordan2.json", "--samples", "2", "--seed", "7", "--format", "json"],
    ["moment-check", "inputs/jordan2.json", "--samples", "2", "--format", "json"],
    ["no-such-command", "inputs/jordan2.json"],
    ["export", "inputs/jordan2.json"],
    ["export", "inputs/jordan2.json", "--what", "aux"],
]


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def test_parser_reused_across_calls_matches_a_fresh_parser(capsys, monkeypatch):
    # main keeps one parser per process; each call must read exactly as it
    # would through a parser built for that call alone
    monkeypatch.chdir(ROOT)
    reused = [_outcome(argv, capsys) for argv in REUSE_SEQUENCE]
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [_outcome(argv, capsys) for argv in REUSE_SEQUENCE]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2, 2, 0]
    assert reused[1][1].startswith("nodes: ")
    seeds = [json.loads(reused[i][1])["seed"] for i in (2, 3, 4)]
    assert seeds == [5, 7, 0]


@pytest.mark.parametrize("command", ["stability", "tau"])
@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("arrows", {}, "missing matrix for arrow 'eps'"),
        ("A", {"0": {"rows": 1, "cols": 1, "entries": ["1"]}}, "A block at '0' has wrong shape"),
        ("B", {"0": {"rows": 1, "cols": 1, "entries": ["1"]}}, "B block at '0' has wrong shape"),
    ],
)
def test_representation_shape_error_names_the_file(command, field, value, needle, tmp_path, capsys):
    doc = _rep_doc()
    doc["representation"][field] = value
    path = _write(tmp_path, "shape.json", doc)
    _assert_one_error_line([command, path], capsys, f"{path}: {needle}")


@pytest.mark.parametrize("command", ["analyze", "stab-table"])
def test_zero_gauge_dimension_is_refused_naming_the_node(command, tmp_path, capsys):
    # the legs and the leg deformation base share one refusal
    path = _write(tmp_path, "v0.json", _input_doc("a2sym", v={"0": 1, "1": 0}))
    _assert_one_error_line(
        [command, path], capsys, "gauge dimension 0 at node '1'; drop the node before building legs"
    )


ARROWS_A2 = [ARROW_A, {"id": "a*", "tail": "1", "head": "0"}]
CB_ARROWS = [{"id": "a", "tail": "0", "head": "inf"}, {"id": "a*", "tail": "inf", "head": "0"}]
NODE_PAIR = {"v": {"0": 1, "inf": 1}, "d": {"0": 1, "inf": 0}, "theta": {"0": "1", "inf": "1"}}


def _jordan2_rep_with_flat_a():
    doc = _rep_doc()
    doc["representation"]["A"]["0"] = [1, 2]
    return doc


@pytest.mark.parametrize(
    "argv, doc, needle",
    [
        (["analyze"], _input_doc("a2sym", nodes=["0", "0", "1"]), "duplicate node identifiers"),
        (["analyze"], _input_doc("a2sym", arrows=[ARROW_A] + ARROWS_A2), "duplicate arrow id 'a'"),
        (["analyze"], _input_doc("a2sym", pairs=[["a", "a"]]), "split does not partition the arrow set"),
        (
            ["analyze"],
            _input_doc("jordan2", nodes=["x@1", ["x", 1]], arrows=[], v={"x@1": 1}, d={"x@1": 0},
                       theta={"x@1": "1"}, action=None),
            "node key collision at 'x@1'",
        ),
        (["stability", "--theta=1"], _jordan2_rep_with_flat_a(), "'A' entry '0' needs a matrix object"),
        (["fixed"], _input_doc("a2sym", sigma=[1, 2]), "cocharacter has wrong rank"),
        (
            ["fixed"],
            _input_doc("a2sym", action={"rank": 1, "arrow_chars": {"a": [1, 0]},
                                        "framing_chars": {"0": [[0]], "1": []}}),
            "character on 'a' has wrong rank",
        ),
        (
            ["cb"],
            _input_doc("a2sym", nodes=["0", "inf"], arrows=CB_ARROWS, action=None, **NODE_PAIR),
            "node 'inf' already present",
        ),
        (
            ["analyze"],
            _input_doc("jordan2", nodes=["0", ["eps", 1]], v={"0": 2, "eps@1": 1},
                       d={"0": 1, "eps@1": 0}, theta={"0": "1", "eps@1": "1"}, action=None),
            "leg node ('eps', 1) collides with an existing node",
        ),
    ],
)
def test_structural_refusals_are_input_errors(argv, doc, needle, tmp_path, capsys):
    # exit 2 with one error line on stderr, so no traceback
    path = _write(tmp_path, "refused.json", doc)
    _assert_one_error_line([argv[0], path, *argv[1:]], capsys, needle)

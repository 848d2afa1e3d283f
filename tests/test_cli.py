import json
import os
import pathlib
import subprocess
import sys

import pytest

from pfsnet import cli, families, gadgets, tiling
from pfsnet.cli import main, run
from pfsnet.model import serialize


@pytest.fixture
def butterfly_file(butterfly, tmp_path):
    path = tmp_path / "butterfly.json"
    path.write_text(serialize(butterfly.net))
    return str(path)


@pytest.fixture
def pigeonhole_file(pigeonhole, tmp_path):
    path = tmp_path / "pigeon.json"
    path.write_text(serialize(pigeonhole))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(capsys, butterfly_file):
    code, doc = run_json(capsys, ["validate", butterfly_file])
    assert code == 0 and doc["ok"] and doc["command"] == "validate"


def test_validate_negative(capsys, tmp_path):
    doc = {"version": 1,
           "nodes": [{"id": "a", "broadcast": False}, {"id": "b", "broadcast": False}],
           "edges": [{"id": "1", "tail": "a", "head": "b", "size": None},
                     {"id": "2", "tail": "b", "head": "a", "size": None}],
           "messages": [], "sources": {}, "demands": {}}
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, ["validate", str(path)])
    assert code == 1 and not out["ok"]
    assert any(rule == "cycle" for rule, _ in out["violations"])


def test_solve_exit_codes(capsys, butterfly_file, pigeonhole_file):
    code, doc = run_json(capsys, ["solve", butterfly_file, "--k", "2"])
    assert code == 0 and doc["status"] == "solvable"
    assert set(doc["witness"]) == {"k", "encodings", "decodings"}
    assert doc["cut"] is None
    code, doc = run_json(capsys, ["solve", pigeonhole_file, "--k", "2"])
    assert code == 1 and doc["status"] == "unsolvable-at-k" and doc["witness"] is None
    # the cut decides the pigeonhole net whatever the budget, so the
    # exhausted budget is shown on a net that needs search
    code, doc = run_json(capsys, ["solve", pigeonhole_file, "--k", "2", "--budget", "1"])
    assert code == 1 and doc["searched"] == 0 and doc["cut"] == {"node": "t", "edges": ["e1"]}
    code, doc = run_json(capsys, ["solve", butterfly_file, "--k", "3", "--budget", "1"])
    assert code == 2 and doc["status"] == "budget-exhausted"


def test_classic_butterfly_file_solved_at_k5(capsys, classic_butterfly):
    # the file CI solves through the installed entry point
    path = pathlib.Path(__file__).parent / "data" / "butterfly.json"
    assert path.read_text() == serialize(classic_butterfly)
    code, doc = run_json(capsys, ["solve", str(path), "--k", "5", "--budget", "200000"])
    assert code == 0 and doc["status"] == "solvable"


def test_sweep(capsys, butterfly_file, pigeonhole_file):
    code, doc = run_json(capsys, ["sweep", butterfly_file, "--k-max", "4"])
    assert code == 0 and doc["found"]["k"] == 1 and doc["unsolvable_from"] is None
    code, doc = run_json(capsys, ["sweep", pigeonhole_file, "--k-max", "4"])
    assert code == 1 and doc["found"] is None
    assert "semi-decision" in doc["note"]
    # a size-3 message over a size-2 edge: the cut refutes every k
    assert doc["unsolvable_from"] == 1
    code, doc = run_json(capsys, ["sweep", butterfly_file, "--k-max", "4", "--budget", "1"])
    assert code == 2 and doc["status"] == "budget-exhausted" and doc["unsolvable_from"] is None


def test_solve_output_byte_identical(capsys, butterfly_file):
    outs = []
    for _ in range(2):
        assert run(["solve", butterfly_file, "--k", "2"]) == 0
        outs.append(capsys.readouterr().out)
    doc = json.loads(outs[0])
    assert doc["status"] == "solvable" and doc["searched"] > 0
    assert outs[0] == outs[1]


def test_cut_output_byte_identical(capsys):
    # the relay network is refuted by a cut at every k, without search
    net = str(pathlib.Path(__file__).parent / "data" / "relay.json")
    outs = []
    for _ in range(2):
        assert run(["solve", net, "--k", "50"]) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["searched"] == 0 and doc["cut"] == {"node": "t", "edges": ["a>r", "c>t"]}


def test_bad_inputs(capsys, tmp_path):
    assert run(["solve", str(tmp_path / "missing.json"), "--k", "2"]) == 3
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run(["solve", str(bad), "--k", "2"]) == 3
    capsys.readouterr()
    assert run(["solve", "--k"]) == 3
    capsys.readouterr()


@pytest.fixture
def input_files(butterfly_file, tmp_path):
    """Paths by name: a good network, instance and program, and the bad
    inputs (a cyclic network, a network and an instance with a number where
    a list belongs, instances whose output bound has a non-integer ``a`` or
    ``b``, programs whose conditions are not a list of objects, thetas that
    are not JSON or not a list of lists, of the wrong width or with a float,
    string or bool entry, candidate
    families that do not parse or do not fit xor)."""
    cyclic = {"version": 1,
              "nodes": [{"id": "a", "broadcast": False}, {"id": "b", "broadcast": False}],
              "edges": [{"id": "1", "tail": "a", "head": "b", "size": None},
                        {"id": "2", "tail": "b", "head": "a", "size": None}],
              "messages": [None], "sources": {"a": [1]}, "demands": {"b": [1]}}
    candidate = json.loads(families.family_to_json(families.xor_family()[:1]))[0]
    with open(butterfly_file, encoding="utf-8") as fh:
        net = json.load(fh)
    instance = {"messages": [2, None], "a": 1, "b": 1, "clients": [{"has": [1], "wants": [2]}]}
    docs = {
        "cyclic": json.dumps(cyclic),
        "instance": json.dumps(instance),
        "instance_has_int": json.dumps(dict(instance, clients=[{"has": 5, "wants": [2]}])),
        "instance_a_float": json.dumps(dict(instance, a=2.5)),
        "instance_b_float": json.dumps(dict(instance, b=0.5)),
        "net_nodes_int": json.dumps(dict(net, nodes=5)),
        "net_messages_int": json.dumps(dict(net, messages=5)),
        "net_edge_id_obj": json.dumps(dict(net, edges=[dict(net["edges"][0], id={"x": 1}), *net["edges"][1:]])),
        "net_broadcast_str": json.dumps(dict(net, nodes=[dict(net["nodes"][0], broadcast="false"), *net["nodes"][1:]])),
        "net_broadcast_int": json.dumps(dict(net, nodes=[dict(net["nodes"][0], broadcast=1), *net["nodes"][1:]])),
        "net_version_true": json.dumps(dict(net, version=True)),
        "net_version_float": json.dumps(dict(net, version=1.0)),
        "program": tiling.program_to_json(tiling.ConditionProgram(2, ())),
        "program_conditions_str": json.dumps({"colors": 2, "conditions": "x"}),
        "program_conditions_int": json.dumps({"colors": 2, "conditions": [1]}),
        "theta": "[[1, 0, 0], [0, 1, 0]]",
        "theta_float": "[[1.5, 0]]",
        "theta_str": '[["0", 1]]',
        "theta_bool": "[[true, 0]]",
        "theta_not_json": "[[1, 0]",
        "theta_flat": "[1, 0]",
        "theta_empty": "[]",
        "theta_two": "[[2, 0]]",
        "family_no_inputs": json.dumps([{k: v for k, v in candidate.items() if k != "inputs"}]),
        "family_wrong_size": json.dumps([dict(candidate, size=3)]),
        "family_str_values": json.dumps([dict(candidate, values=["0"] * len(candidate["values"]))]),
        "family_input_size_float": json.dumps([dict(candidate, inputs=[{"name": "Q", "size": 2.5},
                                                                       *candidate["inputs"][1:]])]),
        "family_input_name_list": json.dumps([dict(candidate, inputs=[{"name": ["M1"], "size": 2},
                                                                      *candidate["inputs"][1:]])]),
        # each of these read as a well-formed candidate before: a key of
        # floats or bools equal to the ints, a float size, an extra value
        "family_key_float": json.dumps([dict(candidate, keys=[[0.0, 0], *candidate["keys"][1:]])]),
        "family_key_bool": json.dumps([dict(candidate, keys=[*candidate["keys"][:2], [True, 0],
                                                             *candidate["keys"][3:]])]),
        "family_size_float": json.dumps([dict(candidate, size=2.0)]),
        "family_values_longer": json.dumps([dict(candidate, values=candidate["values"] + [0])]),
    }
    paths = {"net": butterfly_file}
    for name, text in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv", [
    ["solve", "{net}", "--k", "0"],
    ["sweep", "{net}", "--k-max", "0"],
    ["solve", "{cyclic}", "--k", "2"],
    ["sweep", "{cyclic}", "--k-max", "2"],
    ["index", "{instance}", "--k", "0"],
    ["torus", "{program}", "--width", "3", "--height", "4"],
    ["verify-checker", "bstate", "--b", "1", "--k", "1"],
    ["gadget-build", "virtual-or", "--b", "1"],
    ["gadget-build", "virtual-eq", "--b", "0"],
    ["gadget-build", "set", "--n", "2", "--theta", "{theta}"],
    ["gadget-build", "set", "--n", "2", "--theta", "{theta_float}"],
    ["gadget-build", "set", "--n", "2", "--theta", "{theta_str}"],
    ["gadget-build", "set", "--n", "2", "--theta", "{theta_bool}"],
    ["gadget-build", "set", "--n", "2", "--theta", "{theta_not_json}"],
    ["gadget-build", "set", "--n", "2", "--theta", "{theta_flat}"],
    ["gadget-build", "set", "--n", "2", "--theta", "{theta_empty}"],
    ["gadget-build", "set", "--n", "2", "--theta", "{theta_two}"],
    ["verify-checker", "xor", "--k", "2", "--family", "{family_no_inputs}"],
    ["verify-checker", "xor", "--k", "2", "--family", "{family_wrong_size}"],
    ["verify-checker", "xor", "--k", "2", "--family", "{family_str_values}"],
    ["solve", "{net}", "--k", "2", "--budget", "-1"],
    ["solve", "{net}", "--k", "2", "--jobs", "2"],
    ["sweep", "{net}", "--k-max", "2", "--jobs", "2"],
    ["solve", "{net}", "--k", "2", "--deterministic"],
    ["torus", "{program_conditions_str}", "--width", "2", "--height", "2"],
    ["torus", "{program_conditions_int}", "--width", "2", "--height", "2"],
    ["index", "{instance_has_int}", "--k", "1"],
    ["index", "{instance_a_float}", "--k", "2"],
    ["index", "{instance_b_float}", "--k", "2"],
    ["verify-checker", "xor", "--k", "1", "--family", "{family_input_size_float}"],
    ["verify-checker", "xor", "--k", "1", "--family", "{family_input_name_list}"],
    ["verify-checker", "xor", "--k", "1", "--family", "{family_key_float}"],
    ["verify-checker", "xor", "--k", "1", "--family", "{family_key_bool}"],
    ["verify-checker", "xor", "--k", "1", "--family", "{family_size_float}"],
    ["verify-checker", "xor", "--k", "1", "--family", "{family_values_longer}"],
    ["solve", "{net_nodes_int}", "--k", "1"],
    ["solve", "{net_messages_int}", "--k", "1"],
    ["solve", "{net_edge_id_obj}", "--k", "1"],
    ["validate", "{net_broadcast_str}"],
    ["validate", "{net_broadcast_int}"],
    ["validate", "{net_version_true}"],
    ["validate", "{net_version_float}"],
    ["index", "{instance}", "--k", "1", "--cap", "-1"],
    ["index", "{instance}", "--k", "1", "--budget", "-1"],
    ["torus", "{program}", "--width", "2", "--height", "2", "--cap", "-1"],
], ids=lambda argv: "-".join(a.strip("{}-") for a in argv))
def test_input_errors_exit_3(capsys, input_files, argv):
    assert main([a.format(**input_files) for a in argv]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_parser_reuse_matches_fresh_runs(capsys):
    """One process runs ``run`` several times on one parser; each call's exit
    code and stdout equal those of a fresh process, so no option carries
    over from an earlier call."""
    net = str(pathlib.Path(__file__).parent / "data" / "butterfly.json")
    calls = [
        ["solve", net, "--k", "2", "--budget", "1"],
        ["solve", net, "--k", "2"],
        ["solve", net, "--k", "3", "--no-symmetry"],
        ["solve", net, "--k", "3"],
        ["solve", "--k"],
        ["validate", net],
    ]
    reused = []
    for argv in calls:
        code = run(argv)
        reused.append((code, capsys.readouterr().out))
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "pfsnet", *argv], capture_output=True, text=True, env=env)
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in reused] == [2, 0, 0, 0, 3, 0]
    # symmetry breaking changes the trial count here, so a leaked flag shows
    assert json.loads(reused[2][1])["searched"] != json.loads(reused[3][1])["searched"]
    assert reused == fresh


@pytest.mark.parametrize("module, name, argv, exc", [
    (cli, "solve_at_k", ["solve", "{net}", "--k", "2"], KeyError("k")),
    (cli, "solve_at_k", ["solve", "{net}", "--k", "2"], ValueError("v")),
    (cli, "solve_at_k", ["solve", "{net}", "--k", "2"], AssertionError("a")),
    # a fault in a gadget builder is not a parameter the user got wrong
    (gadgets, "xor_checker", ["verify-checker", "xor", "--k", "1"], ValueError("v")),
], ids=["KeyError", "ValueError", "AssertionError", "gadget-builder-ValueError"])
def test_internal_errors_exit_4(capsys, monkeypatch, butterfly_file, module, name, argv, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, fail)
    argv = [a.format(net=butterfly_file) for a in argv]
    with pytest.raises(type(exc)):
        run(argv)
    assert main(argv) == 4
    assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize("instance, k, first", [
    # the k=16 witness is far larger than a pipe's buffer, so the writer is
    # still writing when its reader closes the pipe after one byte
    ("cyclic3.json", "16", b"{"),
    # a short answer is still in the buffer when the reader has gone
    ("five_cycle.json", "2", b""),
], ids=["mid-write", "before-flush"])
def test_closed_stdout_exits_141_without_traceback(instance, k, first):
    data = pathlib.Path(__file__).parent / "data" / instance
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as in a plain shell
    proc = subprocess.Popen([sys.executable, "-m", "pfsnet", "index", str(data), "--k", k],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(len(first)) == first
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("argv, build", [
    (["xor-gate"], gadgets.xor_gate),
    (["switch", "--w", "2"], lambda: gadgets.conditionalize(gadgets.switch_gate(), 2)),
], ids=["xor-gate", "switch-w2"])
def test_gadget_build_summary_declares_spec(capsys, tmp_path, argv, build):
    code, doc = run_json(capsys, ["gadget-build", *argv, "-o", str(tmp_path / "net.json")])
    assert code == 0
    spec = gadgets.gadget_to_json(build())
    assert spec["conditions"]
    for key in ("conditions", "existentials", "conditioned_on"):
        assert doc[key] == spec[key]


_NO_W_FAMILY = "{} has no default family conditioned on W; pass one with --family"


# every gadget name at its flags: the verify-checker result (family_size,
# accepted) and the gadget-build -o summary (name, conditioned_on, nodes,
# edges), or the stderr message of an exit 3
_GADGET_CASES = [
    ("xor", "", (16, 2), ("xor_checker", [], 4, 3)),
    ("xor", "--w 2", (256, 4), ("cond_xor_checker", ["W"], 4, 3)),
    ("xor", "--b 2", (16, 2), ("xor_checker", [], 4, 3)),
    ("xor", "--b 2 --w 2", (256, 4), ("cond_xor_checker", ["W"], 4, 3)),
    ("xor-gate", "", (16, 2), ("xor_gate", [], 4, 3)),
    ("xor-gate", "--w 2", (256, 4), ("cond_xor_gate", ["W"], 4, 3)),
    ("xor-gate", "--b 2", (16, 2), ("xor_gate", [], 4, 3)),
    ("xor-gate", "--b 2 --w 2", (256, 4), ("cond_xor_gate", ["W"], 4, 3)),
    ("tristate", "", (81, 12), ("tristate_checker", [], 7, 6)),
    ("tristate", "--w 2", _NO_W_FAMILY.format("tristate"), ("cond_tristate_checker", ["W"], 7, 6)),
    ("tristate", "--b 2", (81, 12), ("tristate_checker", [], 7, 6)),
    ("tristate", "--b 2 --w 2", _NO_W_FAMILY.format("tristate"), ("cond_tristate_checker", ["W"], 7, 6)),
    ("tristate-gate", "", (81, 12), ("tristate_gate", [], 7, 6)),
    ("tristate-gate", "--w 2", _NO_W_FAMILY.format("tristate-gate"), ("cond_tristate_gate", ["W"], 7, 6)),
    ("tristate-gate", "--b 2", (81, 12), ("tristate_gate", [], 7, 6)),
    ("tristate-gate", "--b 2 --w 2", _NO_W_FAMILY.format("tristate-gate"), ("cond_tristate_gate", ["W"], 7, 6)),
    ("bstate", "", "bstate needs --b", "bstate needs --b"),
    ("bstate", "--w 2", "bstate needs --b", "bstate needs --b"),
    ("bstate", "--b 2", (81, 12), ("bstate2_checker", [], 7, 6)),
    ("bstate", "--b 2 --w 2", _NO_W_FAMILY.format("bstate"), ("cond_bstate2_checker", ["W"], 7, 6)),
    ("switch", "", (256, 8), ("switch_gate", [], 11, 11)),
    ("switch", "--w 2", _NO_W_FAMILY.format("switch"), ("cond_switch_gate", ["W"], 11, 11)),
    ("switch", "--b 2", (256, 8), ("switch_gate", [], 11, 11)),
    ("switch", "--b 2 --w 2", _NO_W_FAMILY.format("switch"), ("cond_switch_gate", ["W"], 11, 11)),
    ("cycles", "", (16, 2), ("cycles_gate", [], 4, 3)),
    ("cycles", "--w 2", _NO_W_FAMILY.format("cycles"), ("cond_cycles_gate", ["W"], 4, 3)),
    ("cycles", "--b 2", (16, 2), ("cycles_gate", [], 4, 3)),
    ("cycles", "--b 2 --w 2", _NO_W_FAMILY.format("cycles"), ("cond_cycles_gate", ["W"], 4, 3)),
    ("set", "", "set needs --n", "set needs --n"),
    ("set", "--w 2", "set needs --n", "set needs --n"),
    ("set", "--b 2 --n 2", (4, 2), ("set2_checker", [], 10, 8)),
    ("set", "--b 2 --n 2 --w 2", _NO_W_FAMILY.format("set"), ("cond_set2_checker", ["W"], 10, 8)),
    ("virtual-eq", "", (4, 2), "port W needs --b to fix its alphabet"),
    ("virtual-eq", "--w 2", (16, 4), ("cond_virtual_equality_checker", ["W1"], 9, 8)),
    ("virtual-eq", "--b 2", (4, 2), ("virtual_equality_checker", [], 9, 8)),
    ("virtual-eq", "--b 2 --w 2", (16, 4), ("cond_virtual_equality_checker", ["W1"], 9, 8)),
    ("virtual-or", "", "virtual-or needs --b", "virtual-or needs --b"),
    ("virtual-or", "--w 2", "virtual-or needs --b", "virtual-or needs --b"),
    ("virtual-or", "--b 2", (4, 3), ("virtual_or2_checker", [], 9, 8)),
    ("virtual-or", "--b 2 --w 2", (16, 9), ("cond_virtual_or2_checker", ["W1"], 9, 8)),
]


@pytest.mark.parametrize("name, flags, verify, build", _GADGET_CASES,
                         ids=["-".join([name, *flags.split()]).replace("--", "") for name, flags, *_ in _GADGET_CASES])
def test_gadget_names_and_flags(capsys, tmp_path, name, flags, verify, build):
    k = "2" if name == "cycles" else "1"
    calls = [
        (["verify-checker", name, *flags.split(), "--k", k], verify,
         lambda doc: ((doc["family_size"], doc["accepted"]), doc["double_oracle_agreement"])),
        (["gadget-build", name, *flags.split(), "-o", str(tmp_path / "net.json")], build,
         lambda doc: ((doc["name"], doc["conditioned_on"], doc["nodes"], doc["edges"]), True)),
    ]
    for argv, want, read in calls:
        code = run(argv)
        out, err = capsys.readouterr()
        if isinstance(want, str):
            assert (code, out, err) == (3, "", f"error: {want}\n")
        else:
            assert (code, read(json.loads(out)), err) == (0, (want, True), "")


def test_export_dot(capsys, butterfly_file):
    assert run(["export-dot", butterfly_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and out.count("->") == 3


def test_gadget_build_and_verify(capsys, tmp_path):
    out_path = tmp_path / "net.json"
    assert run(["gadget-build", "xor-gate", "-o", str(out_path)]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, ["solve", str(out_path), "--k", "2"])
    assert code == 0
    code, doc = run_json(capsys, ["verify-checker", "xor", "--k", "2"])
    assert code == 0
    assert doc["accepted"] == 2 and doc["family_size"] == 16
    assert doc["double_oracle_agreement"] is True
    # each refuted run's core refutes one other candidate of the 16
    assert doc["network_runs"] == 8


@pytest.mark.parametrize("name, accepted", [("virtual-eq", 4), ("virtual-or", 9)])
def test_conditional_virtual_checkers(capsys, tmp_path, name, accepted):
    # --w W --b B is the conditional checker with condition W1 of size W and
    # select W2 of size B
    code, doc = run_json(capsys, ["verify-checker", name, "--b", "2", "--w", "2", "--k", "1"])
    assert code == 0 and doc["double_oracle_agreement"] is True
    assert doc["family_size"] == 16 and doc["accepted"] == accepted
    # every accepted candidate is searched, and some rejected one is not
    assert accepted <= doc["network_runs"] < 16
    out_path = tmp_path / "net.json"
    assert run(["gadget-build", name, "--b", "2", "--w", "2", "-o", str(out_path)]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, ["validate", str(out_path)])
    assert code == 0


def test_verify_checker_xor_condition_alphabet(capsys):
    # the default family follows --w: 2^12 tables of (M1, M2, W) at |W| = 3
    code, doc = run_json(capsys, ["verify-checker", "xor", "--w", "3", "--k", "1"])
    assert code == 0 and doc["double_oracle_agreement"] is True
    assert doc["family_size"] == 4096 and doc["accepted"] == 8


@pytest.mark.parametrize("name", ["switch", "tristate-gate", "cycles"])
def test_verify_checker_w_without_conditioned_family(capsys, name):
    assert run(["verify-checker", name, "--w", "2", "--k", "1"]) == 3
    assert "--family" in capsys.readouterr().err


def test_verify_checker_with_family_file(capsys, tmp_path):
    fam = families.xor_family()[:4]
    path = tmp_path / "family.json"
    path.write_text(families.family_to_json(fam))
    code, doc = run_json(capsys, ["verify-checker", "xor", "--k", "2",
                                  "--family", str(path)])
    assert code == 0 and doc["family_size"] == 4


def test_verify_checker_names_the_malformed_candidate(capsys):
    # the family's second table (index 1) maps (1, 1) to 5, out of Y's range
    path = pathlib.Path(__file__).parent / "data" / "xor_family_value_out_of_range.json"
    assert run(["verify-checker", "xor", "--k", "1", "--family", str(path)]) == 3
    err = capsys.readouterr().err
    assert "candidate 1: xor_checker.Y: candidate value 5 out of range [0,2)" in err


@pytest.mark.parametrize("family, fault", [
    ("family_no_inputs", "candidate 0: missing field 'inputs'"),
    ("family_input_size_float", "candidate 0: candidate input 'Q': size must be int or null, got 2.5"),
], ids=["no-inputs", "input-size-float"])
def test_verify_checker_names_the_family_file_and_candidate(capsys, input_files, family, fault):
    path = input_files[family]
    assert run(["verify-checker", "xor", "--k", "1", "--family", path]) == 3
    assert capsys.readouterr().err == f"error: {path}: {fault}\n"


def test_reduce_and_torus(capsys, tmp_path):
    prog = tiling.ConditionProgram(2, (tiling.EdgeOr("h", frozenset({1})),))
    ppath = tmp_path / "prog.json"
    ppath.write_text(tiling.program_to_json(prog))
    npath = tmp_path / "reduced.json"
    code, doc = run_json(capsys, ["reduce", str(ppath), "-o", str(npath)])
    assert code == 0 and doc["switches"] == 2
    assert run(["validate", str(npath)]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, ["torus", str(ppath), "--width", "4", "--height", "4"])
    assert code == 0 and doc["satisfiable_at_size"] is True
    contra = tiling.ConditionProgram(2, (
        tiling.EdgeEq("h", frozenset({1})),
        tiling.EdgeOr("h", frozenset({1})),
        tiling.EdgeOr("v", frozenset({2})),
    ))
    cpath = tmp_path / "contra.json"
    cpath.write_text(tiling.program_to_json(contra))
    code, doc = run_json(capsys, ["torus", str(cpath), "--width", "4", "--height", "4"])
    assert code == 1 and doc["witness"] is None
    code, doc = run_json(capsys, ["torus", str(cpath), "--width", "10", "--height", "10"])
    assert code == 2
    # reduce builds 2^N - 2 switches, so 9 colours exit 2 instead of hanging
    wide = tmp_path / "wide.json"
    wide.write_text(tiling.program_to_json(tiling.ConditionProgram(9, ())))
    code, doc = run_json(capsys, ["reduce", str(wide), "-o", str(tmp_path / "wide-net.json")])
    assert code == 2 and doc["status"] == "cap-exceeded"
    assert not (tmp_path / "wide-net.json").exists()


def test_torus_large_grid(capsys, input_files):
    code, doc = run_json(capsys, ["torus", input_files["program"], "--width", "40", "--height", "40",
                                  "--cap", "1600"])
    assert code == 0 and doc["witness"] == [[1] * 40] * 40


def test_index(capsys, tmp_path):
    inst = {"messages": [None], "a": 1, "b": 1, "clients": [{"has": [], "wants": [1]}]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, doc = run_json(capsys, ["index", str(path), "--k", "2"])
    assert code == 0 and doc["solvable"] and doc["bound"] == 2
    inst["b"] = 0
    path.write_text(json.dumps(inst))
    code, doc = run_json(capsys, ["index", str(path), "--k", "2"])
    assert code == 1 and not doc["solvable"]
    code, doc = run_json(capsys, ["index", str(path), "--k", "2", "--cap", "1"])
    assert code == 2

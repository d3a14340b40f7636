"""CLI surface: subcommands, exit codes, file outputs."""

import json

import pytest

import guardsim.cli
from guardsim.cli import main


def test_export_then_run(tmp_path, capsys):
    out = tmp_path / "iso.json"
    assert main(["export-builtin", "iso-sc-27", "--out", str(out)]) == 0
    code = main(["run", "--scenario", str(out),
                 "--trace-out", str(tmp_path / "trace.ndjson")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "G raises A's flag for abort" in stdout
    assert (tmp_path / "trace.ndjson").exists()


def test_run_attack_exit_code(tmp_path):
    cfg = {"protocol": "iso-sc-27", "guardian": False, "attack": "classic",
           "seed": 1}
    path = tmp_path / "attack.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--scenario", str(path)]) == 2


def test_bad_scenario_config_exit(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"protocol": "no-such-protocol"}))
    assert main(["run", "--scenario", str(path)]) == 64


@pytest.mark.parametrize("text", [
    json.dumps({"protocol": "iso-sc-27", "attack": "no-such-attack"}),
    json.dumps({"protocol": "iso-sc-27", "nonce_bits": -1}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [{"send": {
        "ref": "x"}}]}}}}),
    "{not json",
    "[1, 2]",
    json.dumps({"protocol": "iso-sc-27", "seed": "x"}),
    json.dumps({"protocol": "iso-sc-27", "seed": True}),
    json.dumps({"protocol": "iso-sc-27", "nonce_bits": "64"}),
    json.dumps({"protocol": "iso-sc-27", "max_steps": "9"}),
    json.dumps({"protocol": "iso-sc-27", "guardian": "yes"}),
    json.dumps({"protocol": "iso-sc-27", "topology": 5}),
    json.dumps({"protocol": "iso-sc-27", "attack": 5}),
    json.dumps({"protocol": {"agents": {"A": {}}}}),
    json.dumps({"protocol": {"agents": []}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"fresh": "na"}, "to": "C", "msg": 1}]}, "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {}, "B": {}}, "victim": "Z"}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"fresh": "na"}, "to": "B"}]}, "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": [], "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [5]}, "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {}, "B": {"responder": [[5]]}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"senc": 5}, "to": "B", "msg": 1}]}, "B": {}}}}),
    json.dumps({"protocol": {"constants": {"K": 5},
                             "agents": {"A": {}, "B": {}}}}),
    json.dumps({"protocol": {"constants": 5, "agents": {"A": {}, "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"list": 5}, "to": "B", "msg": 1}]}, "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"fresh": "na"}, "to": "B", "msg": 1}]}, "B": {"responder": [
            [{"expect": {"bind": "x", "kind": "bogus"}, "msg": 1}]]}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"fresh": "na", "kind": "bogus"}, "to": "B", "msg": 1}]},
        "B": {}}}}),
    json.dumps({"protocol": "iso-sc-27", "max_steps": 0}),
    json.dumps({"protocol": "iso-sc-27", "max_steps": -5}),
    json.dumps({"protocol": "splice-as", "topology": "B"}),
    json.dumps({"protocol": "otway-rees", "topology": "A"}),
    json.dumps({"protocol": "iso-sc-27", "topology": "C"}),
    json.dumps({"protocol": "iso-sc-27", "topology": "Z"}),
    json.dumps({"protocol": "iso-sc-27", "topology": "a"}),
    json.dumps({"protocol": {"agents": {"A": {}, "B": {}}}, "topology": "a"}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"fresh": "na"}, "to": "B", "msg": 1}]}, "B": {"responder": [
            [{"expect": {"bind": "x", "kind": []}, "msg": 1}]]}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"fresh": ["n"]}, "to": "B", "msg": 1}]}, "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"fresh": "n", "label": 5}, "to": "B", "msg": 1}]},
        "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"ref": 7}, "to": "B", "msg": 1}]}, "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"fresh": "na"}, "to": "B", "msg": "x"}]}, "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"fresh": "na"}, "to": "B", "msg": True}]}, "B": {}}}}),
    json.dumps({"protocol": {"agents": {"A": {"initiator": [
        {"send": {"ref": "zz"}, "to": "B", "msg": 1}]}, "B": {}}}}),
])
def test_bad_scenario_input_exit(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", "--scenario", str(path)]) == 64


@pytest.mark.parametrize("key_term, where", [
    ({"key": "K9"}, "send"),
    ({"senc": [{"ref": "x"}, {"key": "K9"}]}, "expect"),
])
def test_unknown_constant_named(tmp_path, capsys, key_term, where):
    step = ({"send": key_term, "to": "B", "msg": 1} if where == "send"
            else {"expect": key_term, "msg": 1})
    spec = {"protocol": {"constants": {"K": {"symkey": 5}},
                         "agents": {"A": {"initiator": [step]}, "B": {}}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--scenario", str(path)]) == 64
    assert "unknown constant 'K9'" in capsys.readouterr().err


@pytest.mark.parametrize("node, where, message", [
    ({"fresh": "x"}, "expect", "bad pattern"),
    ({"bind": "x"}, "send", "bad template"),
])
def test_role_only_inline_node_refused(tmp_path, capsys, node, where,
                                       message):
    # `fresh` is read only in a send, `bind` only in an expect
    step = ({"send": {"list": [node]}, "to": "B", "msg": 1}
            if where == "send" else {"expect": {"list": [node]}, "msg": 1})
    spec = {"protocol": {"agents": {"A": {"initiator": [step]}, "B": {}}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--scenario", str(path)]) == 64
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("steps", [
    [{"send": {"ref": "zz"}, "to": "B", "msg": 1}],
    # the key is read before the payload, so the payload binds too late
    [{"expect": {"senc": [{"bind": "zz"}, {"ref": "zz"}]}, "msg": 1}],
    # list items are read left to right
    [{"send": {"list": [{"ref": "zz"}, {"fresh": "zz"}]}, "to": "B",
      "msg": 1}],
])
def test_unbound_inline_ref_named(tmp_path, capsys, steps):
    spec = {"protocol": {"agents": {"A": {"initiator": steps}, "B": {}}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--scenario", str(path)]) == 64
    assert "A-init step 1 refers to 'zz'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cases", "--protocol", "eke"],
    ["montecarlo", "--trials", "0", "--nonce-bits", "8"],
    ["montecarlo", "--trials", "10"],
    ["export-builtin", "no-such-protocol"],
    ["montecarlo", "--trials", "1", "--nonce-bits", "2",
     "--dataset-size", "5"],
    ["montecarlo", "--trials", "1", "--nonce-bits", "-1"],
    ["matrix", "--topologies", "Z"],
    ["export-builtin", "iso-sc-27", "--topology", "Z"],
    ["export-builtin", "splice-as", "--topology", "B"],
    ["export-builtin", "iso-sc-27", "--topology", "a"],
])
def test_bad_arguments_exit(argv):
    assert main(argv) == 64


def test_cases_command(capsys):
    assert main(["cases", "--protocol", "iso-sc-27"]) == 0
    out = capsys.readouterr().out
    assert "case 2 -> T3" in out
    assert "E_{1,2}(B)" in out


def test_montecarlo_command(capsys):
    assert main(["montecarlo", "--trials", "2000", "--nonce-bits", "8"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["analytic_rate"] == 4 / 256


def test_matrix_command(tmp_path, capsys):
    out = tmp_path / "matrix.json"
    assert main(["matrix", "--protocols", "iso-sc-27",
                 "--json-out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "iso-sc-27" in stdout
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert row["viable_topologies"] == ["A"]
    assert row["cells"]["B"] == "None"


def test_montecarlo_takes_nonce_bits_from_scenario(tmp_path, capsys):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps({"protocol": "iso-sc-27", "nonce_bits": 8}))
    assert main(["montecarlo", "--trials", "200", "--scenario",
                 str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["analytic_rate"] == 4 / 256


def test_montecarlo_seed_zero_overrides_scenario(tmp_path, capsys):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps({"protocol": "iso-sc-27", "seed": 5}))

    def hits(*argv):
        assert main(["montecarlo", "--trials", "2000", "--nonce-bits", "8",
                     *argv]) == 0
        return json.loads(capsys.readouterr().out)["hits"]

    scenario = ("--scenario", str(path))
    assert hits(*scenario) == hits("--seed", "5") != hits("--seed", "0")
    assert hits(*scenario, "--seed", "0") == hits("--seed", "0")


def test_internal_error_is_not_a_config_error(tmp_path, monkeypatch):
    path = tmp_path / "iso.json"
    path.write_text(json.dumps({"protocol": "iso-sc-27"}))

    def broken(config):
        raise KeyError("internal")

    monkeypatch.setattr(guardsim.cli, "run_scenario", broken)
    with pytest.raises(KeyError):
        main(["run", "--scenario", str(path)])

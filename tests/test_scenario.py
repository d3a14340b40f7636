"""Scenario configs, the run wrapper, exit codes and trace files."""

import json

import pytest

from guardsim.network import DeadlockError
from guardsim.scenario import (EXIT_ATTACK_SUCCEEDED, EXIT_OK,
                               ScenarioConfig, export_builtin, run_scenario,
                               write_trace_file)
from guardsim.topology import ConfigError


def test_defended_run_exit_ok():
    cfg = ScenarioConfig(protocol="iso-sc-27", topology="A", guardian=True,
                         attack="classic", seed=3)
    result = run_scenario(cfg)
    assert result.outcome.classification == "Defended"
    assert result.exit_code == EXIT_OK


def test_undefended_attack_exit_code():
    cfg = ScenarioConfig(protocol="iso-sc-27", guardian=False,
                         attack="classic", seed=3)
    result = run_scenario(cfg)
    assert result.outcome.classification == "AttackSucceeded"
    assert result.exit_code == EXIT_ATTACK_SUCCEEDED


def test_honest_run_no_attack():
    cfg = ScenarioConfig(protocol="iso-sc-27", guardian=True, attack=None,
                         seed=3)
    result = run_scenario(cfg)
    assert result.outcome.classification == "NoAttack"
    assert result.outcome.false_positives == 0


def test_classic_attack_alias_in_scenarios():
    # "classic", the config default, names trace-1 where a study numbers
    # its attacks
    for name in ("otway-rees", "bme-fixed"):
        default = run_scenario(ScenarioConfig(protocol=name))
        first = run_scenario(ScenarioConfig(protocol=name, attack="trace-1"))
        assert default.trace.lines() == first.trace.lines()
        assert default.outcome.to_dict() == first.outcome.to_dict()


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"protocol": "iso-sc-27", "bogus": 1})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({})


def test_trace_file_idempotent(tmp_path):
    cfg = ScenarioConfig(protocol="iso-sc-27", guardian=True,
                         attack="classic", seed=9)
    p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    write_trace_file(run_scenario(cfg).sim, str(p1))
    write_trace_file(run_scenario(cfg).sim, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    rec = json.loads(p1.read_text().splitlines()[0])
    assert set(rec) == {"seq", "action", "claimed_sender", "true_sender",
                        "receiver", "body", "observers", "rollbacks"}


GOLDEN_TRACE_FILE = [
    '{"action": "send", "body": "N_A", "claimed_sender": "A", '
    '"observers": [], "receiver": "B", "rollbacks": [], "seq": 1, '
    '"true_sender": "A"}',
    '{"action": "erase", "body": "N_A", "claimed_sender": "A", '
    '"observers": ["G", "E"], "receiver": "B", "rollbacks": [], "seq": 2, '
    '"true_sender": "A"}',
    '{"action": "inject", "body": "N_A", "claimed_sender": "B", '
    '"observers": [], "receiver": "A", "rollbacks": [], "seq": 3, '
    '"true_sender": "E"}',
    '{"action": "erase", "body": "N_A", "claimed_sender": "B", '
    '"observers": ["G"], "receiver": "A", "rollbacks": [], "seq": 4, '
    '"true_sender": "E"}',
    '{"action": "inject", "body": "N_fake", "claimed_sender": "B", '
    '"observers": [], "receiver": "A", "rollbacks": [], "seq": 5, '
    '"true_sender": "G"}',
    '{"action": "deliver", "body": "N_fake", "claimed_sender": "B", '
    '"observers": [], "receiver": "A", "rollbacks": [], "seq": 6, '
    '"true_sender": "G"}',
    '{"action": "send", "body": "{|N_fake,N\'_A|}K_AB", '
    '"claimed_sender": "A", "observers": [], "receiver": "B", '
    '"rollbacks": [], "seq": 7, "true_sender": "A"}',
    '{"action": "erase", "body": "{|N_fake,N\'_A|}K_AB", '
    '"claimed_sender": "A", "observers": ["G", "E"], "receiver": "B", '
    '"rollbacks": [], "seq": 8, "true_sender": "A"}',
    '{"action": "inject", "body": "{|N_fake,N\'_A|}K_AB", '
    '"claimed_sender": "B", "observers": [], "receiver": "A", '
    '"rollbacks": [], "seq": 9, "true_sender": "E"}',
    '{"action": "deliver", "body": "{|N_fake,N\'_A|}K_AB", '
    '"claimed_sender": "B", "observers": ["G"], "receiver": "A", '
    '"rollbacks": [], "seq": 10, "true_sender": "E"}',
    '{"action": "signal", "body": null, "claimed_sender": null, '
    '"observers": [], "receiver": null, "rollbacks": [], "seq": 11, '
    '"true_sender": null}',
]


def test_trace_file_golden_lines(tmp_path):
    # the README run: iso-sc-27, guardian on, classic attack, seed 5
    cfg = ScenarioConfig(protocol="iso-sc-27", guardian=True,
                         attack="classic", seed=5)
    path = tmp_path / "trace.ndjson"
    write_trace_file(run_scenario(cfg).sim, str(path))
    assert path.read_text().splitlines() == GOLDEN_TRACE_FILE


def test_export_builtin_roundtrip(tmp_path):
    for name in ("iso-sc-27", "bme-fixed"):
        payload = export_builtin(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        result = run_scenario(ScenarioConfig.load(str(path)))
        assert result.outcome.classification == "Defended"


def test_inline_protocol_honest_run():
    ping_pong = {
        "name": "ping-pong",
        "victim": "A",
        "constants": {"K": {"symkey": 42}},
        "agents": {
            "A": {"initiator": [
                {"send": {"fresh": "n", "label": "N_{agent}"}, "to": "B",
                 "msg": 1},
                {"expect": {"senc": [{"ref": "n"}, {"key": "K"}]}, "msg": 2},
            ]},
            "B": {"responder": [[
                {"expect": {"bind": "x", "kind": "nonce"}, "msg": 1},
                {"send": {"senc": [{"ref": "x"}, {"key": "K"}]}, "to": "A",
                 "msg": 2},
            ]]},
        },
    }
    cfg = ScenarioConfig(protocol=ping_pong, topology="A", guardian=False,
                         attack=None, seed=1)
    result = run_scenario(cfg)
    assert result.outcome.classification == "NoAttack"
    assert len(result.trace.steps) == 2


def test_inline_node_parses_alike_as_pattern_and_template():
    # one walker reads the shared node kinds (senc, list, ref, key) the
    # same way in an expect and in a send
    echoed = {"senc": [{"list": [{"ref": "n"}, {"key": "K"}]}, {"key": "K"}]}
    echo = {
        "constants": {"K": {"symkey": 42}},
        "agents": {
            "A": {"initiator": [
                {"send": {"fresh": "n"}, "to": "B", "msg": 1},
                {"expect": echoed, "msg": 2},
            ]},
            "B": {"responder": [[
                {"expect": {"bind": "n", "kind": "nonce"}, "msg": 1},
                {"send": echoed, "to": "A", "msg": 2},
            ]]},
        },
    }
    result = run_scenario(ScenarioConfig(protocol=echo, guardian=False,
                                         attack=None, seed=1))
    assert result.outcome.classification == "NoAttack"
    a_session = result.sim.honest["A"].sessions[1]
    assert a_session.status == "complete"
    expect = a_session.script.steps[1].pattern
    send = result.sim.honest["B"].responder_scripts[0].steps[1].body
    assert expect == send


def test_step_budget_exhaustion_exit():
    from guardsim.scenario import EXIT_BUDGET
    cfg = ScenarioConfig(protocol="iso-sc-27", guardian=True,
                         attack="classic", seed=3, max_steps=1)
    result = run_scenario(cfg)
    assert result.exit_code == EXIT_BUDGET
    assert result.outcome is None


def test_honest_run_catalog_op():
    from guardsim.protocols import honest_run
    iso = honest_run("iso-sc-27", seed=1)
    assert len(iso.trace.steps) == 3
    eke = honest_run("eke", seed=1)
    assert len(eke.trace.steps) == 5
    # different seeds: same structure, different fresh values
    a, b = honest_run("iso-sc-27", seed=1), honest_run("iso-sc-27", seed=2)
    assert a.trace.render() == b.trace.render()
    na = a.honest["A"].sessions[1].bindings["na"]
    nb = b.honest["A"].sessions[1].bindings["na"]
    assert na.value != nb.value


def test_honest_agents_ignore_envelope_identities():
    # dispatch depends only on the body: the same body claimed by anyone
    # lands in the same session slot
    from guardsim.agents import HonestAgent
    from guardsim.network import Envelope, Slot
    from guardsim.protocols.iso_sc27 import responder_script
    from guardsim.terms import Nonce

    results = []
    for claimed in ("B", "E", "Z"):
        agent = HonestAgent("A", responder_scripts=[responder_script("B")])
        agent.deliver(Envelope(seq=1, claimed_sender=claimed,
                               body=Nonce(value=5, label="N"), receiver="A",
                               true_sender=claimed, slot=Slot(2, 1),
                               injected=claimed != "B"))
        results.append([(s.net_session, s.pc) for s in agent.sessions.values()])
    assert results[0] == results[1] == results[2]


def test_single_attacker_completeness_any_position_on_a_channel():
    # the classic attack trace is position-independent as long as the
    # attacker controls A's channel (undefended kinds A and B coincide)
    from guardsim.protocols.iso_sc27 import wire
    ta = wire(kind="A", guardian=False, attack="classic").simulator(seed=4).run()
    tb = wire(kind="B", guardian=False, attack="classic").simulator(seed=4).run()
    assert ta.trace.render() == tb.trace.render()


def test_honest_deadlock_detected():
    # a responder that never answers: the honest-only run stalls
    broken = {
        "name": "stuck",
        "agents": {
            "A": {"initiator": [
                {"send": {"fresh": "n", "label": "N_{agent}"}, "to": "B",
                 "msg": 1},
                {"expect": {"bind": "y", "kind": "nonce"}, "msg": 2},
            ]},
            "B": {},
        },
    }
    cfg = ScenarioConfig(protocol=broken, topology="A", guardian=False,
                         attack=None, seed=1)
    with pytest.raises(DeadlockError):
        run_scenario(cfg)

"""Network arbitration, replay, spy permanence and determinism."""

import json

from guardsim.agents import HonestAgent
from guardsim.knowledge import KnowledgeSet
from guardsim.protocols.iso_sc27 import (initiator_script, make_attacker,
                                         responder_script, wire)
from guardsim.scenario import write_trace_file
from guardsim.simulator import Simulator
from guardsim.terms import Nonce
from guardsim.topology import base_topology


def run_attack(seed=7, **kw):
    return wire(guardian=kw.pop("guardian", False),
                attack=kw.pop("attack", "classic")).simulator(seed=seed).run()


def test_attacker_priority_over_delivery():
    # message (1.1) is erased, never delivered: attacker actions beat
    # pending deliveries in the same round
    result = run_attack()
    first = result.network.history[1]
    assert first.kind == "erase"
    assert first.env.claimed_sender == "A"


def test_replay_reproduces_pending_set():
    result = run_attack()
    live = result.network.replay_check()
    assert {seq for seq in live} == set(result.network.pending)


def test_history_is_monotonic_and_indexed(tmp_path):
    result = run_attack()
    path = tmp_path / "trace.ndjson"
    write_trace_file(result, str(path))
    indices = [json.loads(line)["seq"] for line in path.open()]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)
    assert len(indices) == len(result.network.history)


def test_spy_permanence_after_erase():
    result = run_attack()
    e = result.attackers[0]
    # N_A was spied at (1.1) then erased; it must remain in D_E
    na = [t for t in e.knowledge if isinstance(t, Nonce) and t.label == "N_A"]
    assert na


def test_determinism_bit_identical_traces():
    r1 = run_attack(seed=123)
    r2 = run_attack(seed=123)
    assert r1.trace.render() == r2.trace.render()
    assert r1.network.history == r2.network.history


def test_seed_changes_values_not_structure():
    r1 = run_attack(seed=1)
    r2 = run_attack(seed=2)
    assert r1.trace.render() == r2.trace.render()  # labels are value-free
    na1 = next(t for t in r1.attackers[0].knowledge
               if isinstance(t, Nonce) and t.label == "N_A")
    na2 = next(t for t in r2.attackers[0].knowledge
               if isinstance(t, Nonce) and t.label == "N_A")
    assert na1.value != na2.value


def test_same_round_identical_erases_merge_with_rollback_report():
    # two rivals erase the same envelope: the first-registered acts, the
    # other is co-credited; the merged step shows both
    topo = base_topology("A", honest=("A", "B"), attackers=("E_1", "E_2"),
                         guardian=None)
    e1 = make_attacker("E_1")
    e2 = make_attacker("E_2")
    a = HonestAgent("A", responder_scripts=[responder_script("B")])
    b = HonestAgent("B", responder_scripts=[responder_script("A")])
    sim = Simulator(topo, honest=[a, b], attackers=[e1, e2], seed=0)
    sim.start_initiator("A", initiator_script("B"), 1)
    result = sim.run()
    first_line = result.trace.lines()[0]
    assert "E_{1,2}(B)" in first_line


def test_rollback_restores_knowledge_revision():
    ks = KnowledgeSet([Nonce(value=1)])
    base = ks.revision
    ks.add(Nonce(value=2))
    ks.add(Nonce(value=3))
    ks.restore(base)
    assert Nonce(value=2) not in ks and Nonce(value=3) not in ks
    assert Nonce(value=1) in ks


def test_visibility_containment():
    # every message body in an attacker's dataset traces back to an
    # envelope it was an observer of (or its own injection)
    result = run_attack(guardian=True)
    e = result.attackers[0]
    observed_bodies = set()
    for ev in result.network.history:
        if ev.env is None:
            continue
        if e.name in ev.env.observers or ev.env.true_sender == e.name:
            from guardsim.terms import subterms
            observed_bodies.update(subterms(ev.env.body))
    from guardsim.terms import AgentId
    for term in e.knowledge:
        if isinstance(term, AgentId):
            continue  # identities are seeded configuration
        assert term in observed_bodies, term

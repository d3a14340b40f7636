"""Guardian modules: FSM discipline, invariants, windows, predicates."""

import pytest

from guardsim.guardian import (Distinguisher, FakeSpec, Guardian,
                               GuardianFilter, InterferencePlan,
                               InvariantSpec, StopMessage,
                               is_defense_mechanism,
                               topological_advantage, verify_inverse)
from guardsim.network import Envelope, Slot
from guardsim.protocols.iso_sc27 import classic_attack, make_guardian, wire
from guardsim.protocols import builtin
from guardsim.terms import Nonce, Pair, SymEnc, SymKey
from guardsim.topology import base_topology

K = SymKey(value=1, label="K_AB")
NA = Nonce(value=10, label="N_A")


def spied_env(body, claimed="B", receiver="A", true="E", seq=1):
    return Envelope(seq=seq, claimed_sender=claimed, body=body,
                    receiver=receiver, true_sender=true, slot=Slot(2, 1),
                    injected=True)


def test_identification_labels_protocol_messages():
    g = make_guardian()
    g.process(spied_env(NA))
    assert g.store.labeled_terms("P") == [NA]
    assert g.ident_fsm_log[:3] == ["delta", "lambda", "delta"]


def test_identification_forwards_foreign_messages():
    g = make_guardian()
    foreign = Pair(NA, NA)  # not a protocol shape for the nonce handshake
    g.process(spied_env(foreign))
    assert g.store.labeled_terms("P") == []
    assert g.ident_fsm_log[:3] == ["delta", "phi", "delta"]
    # stored anyway: spy permanence
    assert len(g.store.entries) == 1


def test_control_first_critical_with_empty_history_forwards():
    g = make_guardian()
    fired = g.process(spied_env(NA))
    assert not fired
    row = g.module_log[-1]
    assert (row.ident, row.crit, row.inv) == (1, 1, 0)


def test_control_replay_detected_and_fsm_path():
    g = make_guardian()
    g.process(spied_env(NA, seq=1))
    fired = g.process(spied_env(NA, seq=2))
    assert fired
    assert g.module_log[-1].inv == 1
    assert g.control_fsm_log[-3:] == ["iota", "rho", "delta"]
    assert g.interference_count == 1


def test_critical_subset_of_labeled():
    g = make_guardian()
    g.process(spied_env(NA, seq=1))
    g.process(spied_env(SymEnc(Pair(NA, NA), K), seq=2))
    critical = set(map(str, g.store.labeled_terms("critical")))
    labeled = set(map(str, g.store.labeled_terms("P")))
    assert critical <= labeled


def test_windowed_invariant_slides_forward():
    inv = InvariantSpec("replay-equality")
    g = Guardian(name="G",
                 filters=(GuardianFilter("inflow", "A", control=True),),
                 ident=Distinguisher("d", rules=(__import__(
                     "guardsim.agents", fromlist=["PBind"]).PBind("x", "nonce"),)),
                 crit=Distinguisher("c", rules=(__import__(
                     "guardsim.agents", fromlist=["PBind"]).PBind("x", "nonce"),)),
                 invariant=inv, plan=InterferencePlan(responses=(StopMessage(),)),
                 window=2)
    g.process(spied_env(NA, seq=1))
    # push the original out of the two-revision window
    g.process(spied_env(Nonce(value=50, label="N_1"), seq=2))
    g.process(spied_env(Nonce(value=51, label="N_2"), seq=3))
    fired = g.process(spied_env(NA, seq=4))
    assert not fired  # too old: outside the window
    fired = g.process(spied_env(NA, seq=5))
    assert fired      # the re-spied copy refreshed the entry


def test_fake_values_distinct_from_dataset():
    g = make_guardian()
    g.process(spied_env(NA, seq=1))
    fake = g.mint_fake(FakeSpec(label="N_fake", kind="nonce"))
    assert all(fake.value != e.term.value
               for e in g.store.entries.values()
               if hasattr(e.term, "value"))
    assert fake.label == "N_fake"


def test_topological_advantage_examples():
    topo_a = base_topology("A", honest=("A", "B"))
    topo_b = base_topology("B", honest=("A", "B"))
    assert topological_advantage(topo_a, "G", "A", (("A", "B"),), ["E"])
    assert not topological_advantage(topo_b, "G", "A", (("A", "B"),), ["E"])
    with pytest.raises(ValueError):
        topological_advantage(topo_a, "G", "Z", (("A", "B"),), ["E"])


def test_defense_mechanism_tri_state():
    topo_a = base_topology("A", honest=("A", "B"))
    topo_b = base_topology("B", honest=("A", "B"))
    fn = classic_attack()
    assert is_defense_mechanism(topo_a, "G", "A", (("A", "B"),), ["E"], fn) is True
    assert is_defense_mechanism(topo_b, "G", "A", (("A", "B"),), ["E"], fn) is False
    # an attack with a non-replay injection and no registered inverse
    from guardsim.agents import AttackFunction, InjectStep, TConst
    odd = AttackFunction(name="odd", steps=(
        InjectStep(body=TConst(NA), claimed="B", receiver="A",
                   slot=Slot(2, 1)),))
    assert is_defense_mechanism(topo_a, "G", "A", (("A", "B"),), ["E"], odd) \
        == "inverse unknown"


def test_verify_inverse_identity_for_replays():
    assert verify_inverse(classic_attack()) is True


def test_registered_inverse_samples_verified():
    case = builtin("otway-rees")
    fn = case.attacks["trace-1"].function()
    assert verify_inverse(fn, case.inverse_table, case.inverse_samples) is True
    case2 = builtin("splice-as")
    fn2 = case2.attacks["classic"].function()
    assert verify_inverse(fn2, case2.inverse_table, case2.inverse_samples) is True


def test_resilient_signal_requires_link_and_guardian():
    from guardsim.network import ResilientSignal
    from guardsim.topology import ConfigError
    wiring = wire(guardian=True, attack=None)
    sim = wiring.simulator(seed=0)
    with pytest.raises(ConfigError):
        sim._apply_signal(ResilientSignal(guardian="E", target="A", label="x"))
    with pytest.raises(ConfigError):
        sim._apply_signal(ResilientSignal(guardian="G", target="B", label="x"))
    # a valid signal on an idle agent just stores the flag
    sim._apply_signal(ResilientSignal(guardian="G", target="A", label="x"))
    assert sim.honest["A"].flags["abort"]

"""Golden traces for the seven case studies: honest runs, attack runs and
guardian interference, message for message, plus the documented
false-positive and false-negative conditions as executable scenarios."""

import pytest

from guardsim.protocols import builtin, builtin_names
from guardsim.scenario import evaluate
from guardsim.topology import ConfigError


def run(name, seed=5, **kw):
    case = builtin(name)
    wiring = case.wire(**kw)
    result = wiring.simulator(seed=seed).run()
    outcome = evaluate(result, wiring.victim, bool(kw.get("attack")),
                       case.success_extra)
    return result, outcome


def lines(result):
    return result.trace.lines()


# -- catalog ------------------------------------------------------------

def test_builtin_catalog():
    assert builtin_names() == ["andrew-rpc", "bme-fixed", "eke", "iso-sc-27",
                               "otway-rees", "splice-as", "sra3p"]
    assert builtin("bme-fixed").defended_agent == "B"
    assert {name: builtin(name).home_topology for name in builtin_names()} \
        == {"andrew-rpc": "A", "bme-fixed": "D", "eke": "A", "iso-sc-27": "A",
            "otway-rees": "C", "splice-as": "C", "sra3p": "A"}
    with pytest.raises(ConfigError):
        builtin("nope")


def _node_positions(case):
    """("pattern" | "template", node) for every node position of a study:
    its role scripts, its attack functions and its guardian per layout."""
    from guardsim.agents import (EraseStep, ExpectStep, InjectStep,
                                 ObserveStep, SendStep)
    scripts = [case.initiator("B")]
    scripts += [make() for makes in case.roles.values() for make in makes]
    steps = [step for script in scripts for step in script.steps]
    steps += [step for attack in case.attacks.values()
              for step in attack.function().steps]
    for step in steps:
        if isinstance(step, (ExpectStep, ObserveStep, EraseStep)):
            yield "pattern", step.pattern
        else:
            assert isinstance(step, (SendStep, InjectStep)), step
            yield "template", step.body
            if not isinstance(step.receiver, str):
                yield "template", step.receiver
    for kind in case.applicable_kinds():
        guardian = case.wire(kind=kind).guardian
        for rule in (*guardian.ident.rules, *guardian.crit.rules):
            yield "pattern", rule
        for pattern in (guardian.plan.trigger_pattern,
                        guardian.invariant.params.get("request_pattern")):
            if pattern is not None:
                yield "pattern", pattern
        for response in guardian.plan.responses:
            if getattr(response, "template", None) is not None:
                yield "template", response.template


@pytest.mark.parametrize("name", builtin_names())
def test_every_node_sits_where_it_can_be_read(name):
    # match reads shared and P* nodes, instantiate shared and T* nodes;
    # a node of the other role would only fail when its step runs
    import dataclasses
    from guardsim import agents
    shared = (agents.Const, agents.Ref, agents.Seq, agents.Enc, agents.AEnc,
              agents.Inc)
    readable = {
        "pattern": shared + (agents.PBind, agents.PPair),
        "template": shared + (agents.TFresh, agents.TCommEnc,
                              agents.TCommStrip, agents.TDecryptPayload,
                              agents.TKeyLookup),
    }

    def misplaced(node, role):
        if not isinstance(node, readable[role]):
            return [node]
        if isinstance(node, agents.Const):
            return []           # holds a term, not a node
        out = []
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            for child in value if isinstance(value, tuple) else (value,):
                if not isinstance(child, (str, int)):   # names, offsets
                    out += misplaced(child, role)
        return out

    positions = list(_node_positions(builtin(name)))
    assert {role for role, _ in positions} == {"pattern", "template"}
    for role, node in positions:
        assert misplaced(node, role) == [], (role, node)


@pytest.mark.parametrize("name", builtin_names())
def test_wire_rejects_unknown_attack(name):
    case = builtin(name)
    with pytest.raises(ConfigError):
        case.wire(attack="bogus")
    for attack in case.attack_names:
        assert case.wire(attack=attack).attackers
    assert not case.wire(attack=None).attackers


@pytest.mark.parametrize("name", builtin_names())
def test_wire_rejects_layouts_outside_applicable_kinds(name):
    from guardsim.scenario import export_builtin
    from guardsim.topology import TOPOLOGY_KINDS
    case = builtin(name)
    for kind in TOPOLOGY_KINDS + ("Z",):
        if kind in case.applicable_kinds():
            assert case.wire(kind=kind).topology.vertices
            assert export_builtin(name, topology=kind)["topology"] == kind
            continue
        with pytest.raises(ConfigError, match="runs on topologies"):
            case.wire(kind=kind)
        with pytest.raises(ConfigError, match="runs on topologies"):
            export_builtin(name, topology=kind)


# -- ISO-SC 27 ----------------------------------------------------------

ISO_HONEST = [
    "(1) A -> B : N_A",
    "(2) B -> A : {|N_A,N_B|}K_AB",
    "(3) A -> B : N_B",
]

ISO_ATTACK = [
    "(1.1) A -> E(B) : N_A",
    "(2.1) E(B) -> A : N_A",
    "(2.2) A -> E(B) : {|N_A,N'_A|}K_AB",
    "(1.2) E(B) -> A : {|N_A,N'_A|}K_AB",
    "(1.3) A -> E(B) : N'_A",
    "(2.3) E(B) -> A : N'_A",
]

ISO_INTERFERENCE = [
    "(1.1) A -> E(B) : N_A",
    "(2.1) E(B) -> G(A) : N_A",
    "(2.1_1) G(B) -> A : N_fake",
    "(2.2) A -> E(B) : {|N_fake,N'_A|}K_AB",
    "(1.2) E(B) -> A : {|N_fake,N'_A|}K_AB",
    "(2.2) G raises A's flag for abort",
]


def test_iso_honest_golden():
    result, outcome = run("iso-sc-27", guardian=False, attack=None)
    assert lines(result) == ISO_HONEST
    assert outcome.classification == "NoAttack"
    assert all(s.status == "complete" for s in outcome.sessions)


def test_iso_attack_golden():
    result, outcome = run("iso-sc-27", guardian=False, attack="classic")
    assert lines(result) == ISO_ATTACK
    assert outcome.classification == "AttackSucceeded"


def test_iso_interference_golden():
    result, outcome = run("iso-sc-27", guardian=True, attack="classic")
    assert lines(result) == ISO_INTERFERENCE
    assert outcome.classification == "Defended"
    assert outcome.false_negatives == 0


def test_iso_dataset_evolution():
    result, _ = run("iso-sc-27", guardian=True, attack="classic")
    from guardsim.terms import render
    ct = "{|N_fake,N'_A|}K_AB"
    rows = [(frozenset(render(t) for t in r.dataset), r.ident, r.crit, r.inv)
            for r in result.guardian.module_log]
    assert rows == [
        (frozenset({"N_A"}), 1, None, None),
        (frozenset({"N_A"}), 1, 1, 1),
        (frozenset({"N_A", "N_fake"}), None, None, None),
        (frozenset({"N_A", "N_fake", ct}), 1, None, None),
        (frozenset({"N_A", "N_fake", ct}), 1, 0, None),
    ]


def test_iso_failure_topology_b():
    result, outcome = run("iso-sc-27", kind="B", guardian=True,
                          attack="classic")
    assert outcome.false_negatives > 0
    assert outcome.interference_count == 0
    assert outcome.classification == "AttackSucceeded"


def test_iso_fp_condition_role_reversal_collision():
    # B restarts toward A reusing a nonce value the guardian has seen:
    # the replay invariant fires on a benign run
    from guardsim.agents import HonestAgent
    from guardsim.protocols.iso_sc27 import (initiator_script, make_guardian,
                                             responder_script)
    from guardsim.terms import Nonce
    from guardsim.topology import base_topology
    import guardsim.protocols.iso_sc27 as iso

    g = make_guardian()
    topo = base_topology("A", honest=("A", "B"), attackers=(),
                         guardian="G")
    a = HonestAgent("A", responder_scripts=[responder_script("B")])
    b = HonestAgent("B", responder_scripts=[responder_script("A")])
    from guardsim.simulator import Simulator
    sim = Simulator(topo, honest=[a, b], attackers=[], guardian=g, seed=3)
    sim.start_initiator("A", initiator_script("B"), 1)
    result = sim.run()
    na = a.sessions[1].bindings["na"]
    # role reversal: B opens a new session reusing that value
    from guardsim.agents import (RoleScript, SendStep, ExpectStep, Const, Enc,
                                 seq, PBind, Ref)
    reversed_script = RoleScript(name="iso-init-replayed", steps=(
        SendStep(receiver="A", body=Const(Nonce(value=na.value, label="N_B")),
                 msg=1),
        ExpectStep(Enc(seq(Const(Nonce(value=na.value)),
                           PBind("x", "nonce")), Const(iso.KEY_AB)),
                   msg=2),
        SendStep(receiver="A", body=Ref("x"), msg=3),
    ))
    sim2 = Simulator(topo, honest=[a, b], attackers=[], guardian=g, seed=4)
    sim2.start_initiator("B", reversed_script, 2)
    result2 = sim2.run()
    assert g.interference_count > 0  # benign run flagged: a false positive


# -- SRA3P --------------------------------------------------------------

SRA_HONEST = [
    "(1) A -> B : {M}[K_A]",
    "(2) B -> A : {M}[K_A,K_B]",
    "(3) A -> B : {M}[K_B]",
]

SRA_ATTACK = [
    "(1) A -> E(B) : {M}[K_A]",
    "(2) E(B) -> A : {M}[K_A]",
    "(3) A -> E(B) : M",
]

SRA_INTERFERENCE = [
    "(1) A -> E(B) : {M}[K_A]",
    "(2) E(B) -> G(A) : {M}[K_A]",
    "(2_1) G(A) -> A : M_fake",
    "(3) G(A) -> E(B) : M'_fake",
    "(3) A aborts",
]


def test_sra3p_goldens():
    result, outcome = run("sra3p", guardian=False, attack=None)
    assert lines(result) == SRA_HONEST
    result, outcome = run("sra3p", guardian=False, attack="classic")
    assert lines(result) == SRA_ATTACK
    assert outcome.classification == "AttackSucceeded"  # secret leaked
    result, outcome = run("sra3p", guardian=True, attack="classic")
    assert lines(result) == SRA_INTERFERENCE
    assert outcome.classification == "Defended"
    # the attacker walked away with the wrong secret
    from guardsim.knowledge import derivable
    m = result.honest["A"].sessions[1].bindings["m"]
    assert not derivable(result.attackers[0].knowledge, m)


def test_binding_derivable_judges_the_sra3p_secret():
    from guardsim.protocols.base import binding_derivable
    leaked = binding_derivable("A", "m")
    result, _ = run("sra3p", guardian=False, attack="classic")
    assert leaked(result)
    result, _ = run("sra3p", guardian=True, attack="classic")
    assert not leaked(result)


# -- Andrew Secure RPC ---------------------------------------------------

ANDREW_ATTACK_1 = [
    "(1) A -> B : A,{|N_A|}K_AB",
    "(2) B -> A : {|N_A+1,N_B|}K_AB",
    "(3) A -> E(B) : {|N_B+1|}K_AB",
    "(4) E(B) -> A : {|N_A+1,N_B|}K_AB",
]

ANDREW_INTERFERENCE_1 = [
    "(1) A -> B : A,{|N_A|}K_AB",
    "(2) B -> A : {|N_A+1,N_B|}K_AB",
    "(3) A -> E(B) : {|N_B+1|}K_AB",
    "(4) E(B) -> G(A) : {|N_A+1,N_B|}K_AB",
    "(4_1) G(A) -> A : M_fake",
    "(4_1) A aborts",
]


def test_andrew_goldens():
    result, outcome = run("andrew-rpc", guardian=False, attack="classic")
    assert lines(result) == ANDREW_ATTACK_1
    assert outcome.classification == "AttackSucceeded"
    result, outcome = run("andrew-rpc", guardian=True, attack="classic")
    assert lines(result) == ANDREW_INTERFERENCE_1
    assert outcome.classification == "Defended"


def test_andrew_fn_old_message_works_once():
    # attack trace 2: a pre-guardian message (4) passes undetected once...
    result, outcome = run("andrew-rpc", guardian=True, attack="old-replay")
    assert outcome.false_negatives == 1
    assert lines(result)[-1] == "(4) E(B) -> A : {|N_A^old+1,N_B^old|}K_AB"
    # ...but is recorded, so the same replay is caught the second time
    g = result.guardian
    from guardsim.protocols.andrew_rpc import old_round_ciphertext
    from guardsim.network import Envelope, Slot
    again = Envelope(seq=99, claimed_sender="B", receiver="A",
                     true_sender="E", body=old_round_ciphertext(),
                     slot=Slot(1, 4), injected=True)
    assert g.process(again)


def test_andrew_fp_stale_nonce_rerun():
    # condition (i): both nonces reused verbatim reproduce message (2)
    from guardsim.agents import HonestAgent
    from guardsim.protocols.andrew_rpc import (initiator_script, make_guardian,
                                               responder_script)
    from guardsim.simulator import Simulator
    from guardsim.terms import Nonce
    from guardsim.topology import base_topology

    na = Nonce(value=501, label="N_A")
    nb = Nonce(value=502, label="N_B")
    g = make_guardian()
    topo = base_topology("A", honest=("A", "B"), attackers=(), guardian="G")
    a = HonestAgent("A")
    b = HonestAgent("B",
                    responder_scripts=[responder_script("A", pinned=(nb, 601, 602))])
    sim = Simulator(topo, honest=[a, b], attackers=[], guardian=g, seed=1)
    sim.start_initiator("A", initiator_script("B", pinned_nonce=na), 1)
    sim.run()
    first = g.interference_count
    assert first == 0
    # second run, same old nonces, same guardian dataset
    a2 = HonestAgent("A")
    b2 = HonestAgent("B",
                     responder_scripts=[responder_script("A", pinned=(nb, 603, 604))])
    sim2 = Simulator(topo, honest=[a2, b2], attackers=[], guardian=g, seed=2)
    sim2.start_initiator("A", initiator_script("B", pinned_nonce=na), 1)
    sim2.run()
    assert g.interference_count > first  # benign rerun flagged


def test_andrew_fp_key_collision():
    # condition (ii): a fresh message (4) whose bits reproduce message (2)
    from guardsim.agents import HonestAgent
    from guardsim.protocols.andrew_rpc import (initiator_script, make_guardian,
                                               responder_script)
    from guardsim.simulator import Simulator
    from guardsim.terms import Nonce
    from guardsim.topology import base_topology

    na = Nonce(value=701, label="N_A")
    nb = Nonce(value=702, label="N_B")
    g = make_guardian()
    topo = base_topology("A", honest=("A", "B"), attackers=(), guardian="G")
    a = HonestAgent("A")
    # K'_AB collides with N_A+1 and N'_B repeats N_B
    b = HonestAgent("B", responder_scripts=[
        responder_script("A", pinned=(nb, na.value + 1, nb.value))])
    sim = Simulator(topo, honest=[a, b], attackers=[], guardian=g, seed=1)
    sim.start_initiator("A", initiator_script("B", pinned_nonce=na), 1)
    sim.run()
    assert g.interference_count > 0


# -- Otway-Rees ----------------------------------------------------------

OTWAY_HONEST = [
    "(1) A -> B : I,A,B,{|N_A,I,A,B|}K_AS",
    "(2) B -> S : I,A,B,{|N_A,I,A,B|}K_AS,{|N_B,I,A,B|}K_BS",
    "(3) S -> B : I,{|N_A,K_AB|}K_AS,{|N_B,K_AB|}K_BS",
    "(4) B -> A : I,{|N_A,K_AB|}K_AS",
]

OTWAY_ATTACK_1 = [
    "(1) A -> E(B) : I,A,B,{|N_A,I,A,B|}K_AS",
    "(4) E(B) -> A : I,{|N_A,I,A,B|}K_AS",
]

OTWAY_INTERFERENCE_1 = [
    "(1) A -> E(B) : I,A,B,{|N_A,I,A,B|}K_AS",
    "(4) E(B) -> G(A) : I,{|N_A,I,A,B|}K_AS",
    "(4_1) G(A) -> A : I,M_fake",
    "(4_1) A aborts",
]

OTWAY_ATTACK_2 = [
    "(1) A -> B : I,A,B,{|N_A,I,A,B|}K_AS",
    "(2) B -> E(S) : I,A,B,{|N_A,I,A,B|}K_AS,{|N_B,I,A,B|}K_BS",
    "(3) E(S) -> B : I,{|N_A,I,A,B|}K_AS,{|N_B,I,A,B|}K_BS",
    "(4) B -> A : I,{|N_A,I,A,B|}K_AS",
]

OTWAY_INTERFERENCE_2 = [
    "(1) A -> B : I,A,B,{|N_A,I,A,B|}K_AS",
    "(2) B -> E(S) : I,A,B,{|N_A,I,A,B|}K_AS,{|N_B,I,A,B|}K_BS",
    "(3) E(S) -> B : I,{|N_A,I,A,B|}K_AS,{|N_B,I,A,B|}K_BS",
    "(4) B -> G(A) : I,{|N_A,I,A,B|}K_AS",
    "(4_1) G(A) -> A : I,M_fake",
    "(4_1) A aborts",
]


def test_otway_goldens():
    result, outcome = run("otway-rees", guardian=False, attack=None)
    assert lines(result) == OTWAY_HONEST
    assert outcome.classification == "NoAttack"
    result, outcome = run("otway-rees", guardian=False, attack="trace-1")
    assert lines(result) == OTWAY_ATTACK_1
    assert outcome.classification == "AttackSucceeded"
    result, outcome = run("otway-rees", guardian=True, attack="trace-1")
    assert lines(result) == OTWAY_INTERFERENCE_1
    assert outcome.classification == "Defended"
    result, outcome = run("otway-rees", guardian=False, attack="trace-2")
    assert lines(result) == OTWAY_ATTACK_2
    assert outcome.classification == "AttackSucceeded"  # type-flawed key
    result, outcome = run("otway-rees", guardian=True, attack="trace-2")
    assert lines(result) == OTWAY_INTERFERENCE_2
    assert outcome.classification == "Defended"


def test_otway_viable_in_kind_e_too():
    result, outcome = run("otway-rees", kind="E", guardian=True,
                          attack="trace-1")
    assert outcome.classification == "Defended"


def test_otway_fp_key_equals_triple():
    # the server mints a "key" whose bits are the I,A,B triple encoding:
    # the benign (4) then repeats the recorded (1) component for the wire
    from guardsim.protocols.otway_rees import make_guardian, KEY_AS, A_ID, B_ID
    from guardsim.network import Envelope, Slot
    from guardsim.terms import Nonce, SymEnc, pair

    g = make_guardian()
    i0 = Nonce(value=801, label="I")
    na = Nonce(value=802, label="N_A")
    msg1 = pair(i0, A_ID, B_ID, SymEnc(pair(na, i0, A_ID, B_ID), KEY_AS))
    g.process(Envelope(seq=1, claimed_sender="A", receiver="B",
                       true_sender="A", body=msg1, slot=Slot(1, 1)))
    # benign (4) whose key slot carries the colliding triple
    benign4 = pair(i0, SymEnc(pair(na, i0, A_ID, B_ID), KEY_AS))
    fired = g.process(Envelope(seq=2, claimed_sender="B", receiver="A",
                               true_sender="B", body=benign4, slot=Slot(1, 4)))
    assert fired  # flagged although no attacker exists


# -- EKE ------------------------------------------------------------------

EKE_INTERFERENCE = [
    "(1.1) A -> E(B) : {|K_A|}P",
    "(2.1) E(B) -> A : {|K_A|}P",
    "(2.2) A -> E(B) : {|{R}K_A|}P",
    "(1.2) E(B) -> A : {|{R}K_A|}P",
    "(1.3) A -> E(B) : {|N_A|}R",
    "(2.3) E(B) -> G(A) : {|N_A|}R",
    "(2.3_1) G(A) -> A : M_fake",
    "(2.4) A -> E(B) : {|N_fake,N_B|}R",
    "(1.4) E(B) -> A : {|N_fake,N_B|}R",
    "(1.5) A aborts",
]


def test_eke_goldens():
    result, outcome = run("eke", guardian=False, attack=None)
    assert len(lines(result)) == 5
    assert outcome.classification == "NoAttack"
    result, outcome = run("eke", guardian=False, attack="classic")
    assert len(lines(result)) == 10
    assert outcome.classification == "AttackSucceeded"
    result, outcome = run("eke", guardian=True, attack="classic")
    assert lines(result) == EKE_INTERFERENCE
    assert outcome.classification == "Defended"


# -- SPLICE/AS --------------------------------------------------------------

SPLICE_ATTACK = [
    "(1) A -> AS : A,B,N_1",
    "(2) AS -> A : AS,{AS,A,N_1,B,K_B}K_AS^-1",
    "(3) A -> E(B) : A,B,{A,T,L,{N_2}K_B}K_A^-1",
    "(3_1) E -> B : E,B,{E,T,L,{N_2}K_B}K_E^-1",
    "(4) B -> AS : B,E,N_3",
    "(5) AS -> B : AS,{AS,B,N_3,E,K_E}K_AS^-1",
    "(6) B -> E : B,E,{B,N_2+1}K_E",
    "(6_1) E -> A : B,A,{B,N_2+1}K_A",
]

SPLICE_INTERFERENCE = [
    "(1) A -> AS : A,B,N_1",
    "(2) AS -> A : AS,{AS,A,N_1,B,K_B}K_AS^-1",
    "(3) A -> E(B) : A,B,{A,T,L,{N_2}K_B}K_A^-1",
    "(3_1) E -> B : E,B,{E,T,L,{N_2}K_B}K_E^-1",
    "(4) B -> G(AS) : B,E,N_3",
    "(5) G(E) -> A : B,A,{B,N_fake}K_A",
    "(6) G(AS) -> AS : B,E,N_3",
    "(6) A aborts",
]


def test_splice_goldens():
    result, outcome = run("splice-as", guardian=False, attack=None)
    assert len(lines(result)) == 6
    result, outcome = run("splice-as", guardian=False, attack="classic")
    assert lines(result) == SPLICE_ATTACK
    assert outcome.classification == "AttackSucceeded"
    result, outcome = run("splice-as", guardian=True, attack="classic")
    assert lines(result) == SPLICE_INTERFERENCE
    assert outcome.classification == "Defended"


def test_splice_failure_topologies():
    for kind in ("E", "F"):
        result, outcome = run("splice-as", kind=kind, guardian=True,
                              attack="classic")
        assert outcome.false_negatives > 0, kind


def test_splice_fp_cross_request_invariant_direct():
    from guardsim.protocols.splice_as import make_guardian
    from guardsim.network import Envelope, Slot
    from guardsim.terms import AgentId, Nonce, pair

    g = make_guardian()
    req1 = pair(AgentId("A"), AgentId("B"), Nonce(value=901, label="N_1"))
    g.process(Envelope(seq=1, claimed_sender="A", receiver="AS",
                       true_sender="A", body=req1, slot=Slot(1, 1)))
    # benign: C contacted B concurrently; B asks the server about C
    req2 = pair(AgentId("B"), AgentId("C"), Nonce(value=902, label="N_3"))
    fired = g.process(Envelope(seq=2, claimed_sender="B", receiver="AS",
                               true_sender="B", body=req2, slot=Slot(2, 4)))
    assert fired


def test_splice_fn_window_expiry():
    # the recorded contact slides out of a tiny window before the key
    # request arrives: the splice goes unflagged
    from guardsim.protocols.splice_as import make_guardian
    from guardsim.network import Envelope, Slot
    from guardsim.terms import AgentId, Nonce, pair

    g = make_guardian(window=2)
    req1 = pair(AgentId("A"), AgentId("B"), Nonce(value=901, label="N_1"))
    g.process(Envelope(seq=1, claimed_sender="A", receiver="AS",
                       true_sender="A", body=req1, slot=Slot(1, 1)))
    for i in range(3):  # unrelated requests move the window forward
        filler = pair(AgentId("X"), AgentId("Y"),
                      Nonce(value=910 + i, label="N"))
        g.process(Envelope(seq=2 + i, claimed_sender="X", receiver="AS",
                           true_sender="X", body=filler, slot=Slot(5 + i, 1)))
    attack_req = pair(AgentId("B"), AgentId("E"), Nonce(value=950, label="N_3"))
    fired = g.process(Envelope(seq=9, claimed_sender="B", receiver="AS",
                               true_sender="B", body=attack_req,
                               slot=Slot(1, 4)))
    assert not fired  # false negative: the window moved on


def test_splice_fn_fake_collides_with_increment():
    # forcing the fake draw to N_2+1 lets A accept the guardian's fake:
    # the run completes deceived despite the interference
    import random
    case = builtin("splice-as")
    wiring = case.wire(guardian=True, attack="classic")
    sim = wiring.simulator(seed=5)
    probe = sim.run()
    n2 = probe.honest["A"].sessions[1].bindings["n2"]

    wiring2 = case.wire(guardian=True, attack="classic")
    sim2 = wiring2.simulator(seed=5)

    class FirstDrawForced(random.Random):
        forced = n2.value + 1

        def getrandbits(self, k):
            value, self.forced = self.forced, None
            return super().getrandbits(k) if value is None else value

    rng = FirstDrawForced()
    rng.setstate(sim2.guardian.rng.getstate())
    sim2.guardian.rng = rng
    result = sim2.run()
    outcome = evaluate(result, "A", True, case.success_extra)
    assert result.guardian.interference_count > 0
    assert outcome.false_negatives > 0


# -- BME -------------------------------------------------------------------

BME_TRACES = {
    "trace-1": (
        ["(3) E(A) -> B : {|K'_AB,A|}K_BS"],
        ["(3) E(A) -> G(B) : {|K'_AB,A|}K_BS",
         "(3_1) G stops message 3"],
    ),
    "trace-2": (
        ["(1) A -> S : A,B",
         "(2) S -> E(A) : {|K_AB,B|}K_AS,{|K_AB,A|}K_BS",
         "(2_1) E(A) -> A : {|K'_AB,B|}K_AS,{|K'_AB,A|}K_BS",
         "(3) A -> B : {|K'_AB,A|}K_BS"],
        ["(1) A -> S : A,B",
         "(2) S -> E(A) : {|K_AB,B|}K_AS,{|K_AB,A|}K_BS",
         "(2_1) E(A) -> A : {|K'_AB,B|}K_AS,{|K'_AB,A|}K_BS",
         "(3) A -> G(B) : {|K'_AB,A|}K_BS",
         "(3_1) G stops message 3"],
    ),
    "trace-3": (
        ["(1) E(A) -> S : A,B",
         "(2) S -> E(A) : {|K_AB,B|}K_AS,{|K_AB,A|}K_BS",
         "(3) E(A) -> B : {|K'_AB,A|}K_BS"],
        ["(1) E(A) -> S : A,B",
         "(2) S -> E(A) : {|K_AB,B|}K_AS,{|K_AB,A|}K_BS",
         "(3) E(A) -> G(B) : {|K'_AB,A|}K_BS",
         "(3_1) G stops message 3"],
    ),
    "trace-4": (
        ["(1) A -> E(S) : A,B",
         "(2) E(S) -> A : {|K'_AB,B|}K_AS,{|K'_AB,A|}K_BS",
         "(3) A -> B : {|K'_AB,A|}K_BS"],
        ["(1) A -> E(S) : A,B",
         "(2) E(S) -> A : {|K'_AB,B|}K_AS,{|K'_AB,A|}K_BS",
         "(3) A -> G(B) : {|K'_AB,A|}K_BS",
         "(3_1) G stops message 3"],
    ),
}


@pytest.mark.parametrize("attack", sorted(BME_TRACES))
def test_bme_goldens(attack):
    undefended, defended = BME_TRACES[attack]
    result, outcome = run("bme-fixed", guardian=False, attack=attack)
    assert lines(result) == undefended
    assert outcome.classification == "AttackSucceeded"
    result, outcome = run("bme-fixed", guardian=True, attack=attack)
    assert lines(result) == defended
    assert outcome.false_negatives == 0


def test_bme_partiality_a_scope():
    # the documented gap: traces 2 and 4 deceive A while B stays safe
    for attack in ("trace-2", "trace-4"):
        case = builtin("bme-fixed")
        wiring = case.wire(guardian=True, attack=attack)
        result = wiring.simulator(seed=5).run()
        assert evaluate(result, "B", True, case.success_extra).false_negatives == 0
        assert evaluate(result, "A", True).false_negatives == 1


def test_bme_fp_window_expiry():
    # a benign ticket reaching B after the window moved: stopped although
    # no attacker exists
    from guardsim.protocols import bme
    case = builtin("bme-fixed")
    wiring = case.wire(guardian=True, attack=None)
    wiring.guardian = bme.make_guardian(wiring.topology, window=1)
    result = wiring.simulator(seed=5).run()
    outcome = evaluate(result, "B", False, case.success_extra)
    assert outcome.false_positives > 0


def test_bme_inoperative_outside_server_view():
    # kind F: the guardian never holds the first tap on the server leg,
    # so the freshness check cannot run and the plant goes through
    result, outcome = run("bme-fixed", kind="F", guardian=True,
                          attack="trace-1")
    assert outcome.false_negatives > 0


MESSAGE_COUNTS = {"andrew-rpc": 4, "bme-fixed": 3, "eke": 5, "iso-sc-27": 3,
                  "otway-rees": 4, "splice-as": 6, "sra3p": 3}


def test_honest_runs_complete_for_every_builtin():
    assert sorted(MESSAGE_COUNTS) == builtin_names()
    for name in builtin_names():
        case = builtin(name)
        wiring = case.wire(guardian=False, attack=None)
        result = wiring.simulator(seed=11).run()
        msg_lines = [s for s in result.trace.steps if s.kind == "message"]
        assert len(msg_lines) == MESSAGE_COUNTS[name], name
        for agent in result.honest.values():
            for sess in agent.sessions.values():
                assert sess.status == "complete", (name, agent.name)


def test_defended_honest_runs_raise_no_flags():
    for name in builtin_names():
        case = builtin(name)
        wiring = case.wire(guardian=True, attack=None)
        result = wiring.simulator(seed=11).run()
        assert result.guardian.interference_count == 0, name
        assert not result.aborted_by_guardian, name


def test_matrix_defense_column_derived_from_cells():
    # a row's class is the best one its counted cells observed, whatever
    # the study declares; a conditional cell does not count
    from guardsim.matrix import Cell, MatrixReport

    def cell(protocol, kind, observed):
        return Cell(protocol=protocol, topology=kind, advantage=False,
                    defense_mechanism=False, observed=observed,
                    fn_by_attack={}, interfered={})

    report = MatrixReport([cell("iso-sc-27", "A", "Partial"),
                           cell("iso-sc-27", "B", "None"),
                           cell("otway-rees", "C", "Partial"),
                           cell("otway-rees", "D", "Total"),
                           cell("bme-fixed", "D", "None")])
    rows = {r["protocol"]: (r["defense"], r["viable_topologies"])
            for r in report.rows()}
    assert rows == {"iso-sc-27": ("Partial", ["A"]),
                    "otway-rees": ("Partial", ["C"]),
                    "bme-fixed": ("None", [])}

"""Key transport example, fixed against masquerading (names inside the
encrypted parts) but still replayable: no timestamps, no nonces.

    (1) A -> S : A,B
    (2) S -> A : {|K_AB,B|}K_AS,{|K_AB,A|}K_BS
    (3) A -> B : {|K_AB,A|}K_BS

Whoever holds an old ticket {|K'_AB,A|}K_BS can plant a compromised key
at B, with or without involving A or S.  The guardian watches the
server's traffic and B's inbox: a ticket that the server did not emit
within the temporal window is stopped before B accepts it.  Only B is
defended -- the variants that feed A a forged key pair go undetected on
A's side.
"""

from __future__ import annotations

from ..agents import (AttackerAgent, AttackFunction, EraseStep, ExpectStep,
                      HonestAgent, InjectStep, PBind, PConst, PPair,
                      PSymEnc, RoleScript, SendStep, TConst, TFresh,
                      TKeyLookup, TRef, TSymEnc, plist, tlist)
from ..guardian import (Distinguisher, Guardian, GuardianFilter,
                        InterferencePlan, InvariantSpec, StopMessage)
from ..knowledge import KnowledgeSet
from ..network import Slot
from ..terms import AgentId, Pair, SymEnc, SymKey
from ..topology import base_topology
from . import register
from .base import CaseStudy, Wiring, checked_attack

KEY_AS = SymKey(value=7001, label="K_AS")
KEY_BS = SymKey(value=7002, label="K_BS")
A_ID, B_ID = AgentId("A"), AgentId("B")

DIRECTORY = {"key_A": KEY_AS, "key_B": KEY_BS}


def initiator_script(peer: str = "B") -> RoleScript:
    return RoleScript(name="bme-init", steps=(
        SendStep(receiver="S", body=tlist(TConst(A_ID), TConst(B_ID)), msg=1),
        ExpectStep(plist(PSymEnc(PPair(PBind("kab", "key"), PConst(B_ID)),
                                 PConst(KEY_AS)),
                         PBind("ctb", "symenc")), msg=2),
        SendStep(receiver=peer, body=TRef("ctb"), msg=3),
    ))


def b_responder_script() -> RoleScript:
    return RoleScript(name="bme-b", steps=(
        ExpectStep(PSymEnc(PPair(PBind("kab", "key"), PBind("aid", "agent")),
                           PConst(KEY_BS)), msg=3),
    ))


def server_script() -> RoleScript:
    return RoleScript(name="bme-server",
                      initial_bindings=dict(DIRECTORY),
                      steps=(
        ExpectStep(plist(PBind("p", "agent"), PBind("q", "agent")), msg=1),
        SendStep(receiver=TRef("p"),
                 body=tlist(TSymEnc(tlist(TFresh("kab", "symkey", "K_AB"),
                                          TRef("q")), TKeyLookup("p")),
                            TSymEnc(tlist(TRef("kab"), TRef("p")),
                                    TKeyLookup("q"))),
                 relative=True),
    ))


def old_tickets(key_value: int = 88001):
    """A ticket pair from a previous epoch whose session key the
    attacker compromised."""
    old_key = SymKey(value=key_value, label="K'_AB")
    cta = SymEnc(Pair(old_key, B_ID), KEY_AS)
    ctb = SymEnc(Pair(old_key, A_ID), KEY_BS)
    return old_key, cta, ctb


def attack_trace_1() -> AttackFunction:
    """No honest run at all: plant the old ticket at B as A."""
    _, _, ctb = old_tickets()
    return AttackFunction(name="bme-direct-plant", steps=(
        InjectStep(body=TConst(ctb), claimed="A", receiver="B",
                   slot=Slot(1, 3)),
    ))


def attack_trace_2() -> AttackFunction:
    """Swap S's fresh reply to A for the old ticket pair (delivered as if
    relayed on A's own channel)."""
    _, cta, ctb = old_tickets()
    return AttackFunction(name="bme-swap-reply", steps=(
        EraseStep(pattern=plist(PBind("c1", "symenc"), PBind("c2", "symenc")),
                  from_agent="S", to_agent="A", bind="m2"),
        InjectStep(body=tlist(TConst(cta), TConst(ctb)), claimed="A",
                   receiver="A", slot=Slot(1, 2, 0, 1)),
    ))


def attack_trace_3() -> AttackFunction:
    """Run the protocol with S masquerading as A, then plant the old
    ticket at B (the fresh one would carry a key the attacker lacks)."""
    _, _, ctb = old_tickets()
    return AttackFunction(name="bme-self-run", steps=(
        InjectStep(body=tlist(TConst(A_ID), TConst(B_ID)), claimed="A",
                   receiver="S", slot=Slot(1, 1)),
        EraseStep(pattern=plist(PBind("c1", "symenc"), PBind("c2", "symenc")),
                  from_agent="S", to_agent="A", bind="m2"),
        InjectStep(body=TConst(ctb), claimed="A", receiver="B",
                   slot=Slot(1, 3)),
    ))


def attack_trace_4() -> AttackFunction:
    """Intercept A's request and answer it as the server."""
    _, cta, ctb = old_tickets()
    return AttackFunction(name="bme-fake-server", steps=(
        EraseStep(pattern=plist(PBind("p1", "agent"), PBind("q1", "agent")),
                  from_agent="A", to_agent="S", bind="m1"),
        InjectStep(body=tlist(TConst(cta), TConst(ctb)), claimed="S",
                   receiver="A", slot=Slot(1, 2)),
    ))


ATTACKS = {"trace-1": attack_trace_1, "trace-2": attack_trace_2,
           "trace-3": attack_trace_3, "trace-4": attack_trace_4}


def make_guardian(window: int = 16) -> Guardian:
    ident = Distinguisher("bme-id", rules=(
        PBind("x", "symenc"),
        plist(PBind("a", "agent"), PBind("b", "agent")),
        plist(PBind("c1", "symenc"), PBind("c2", "symenc")),
    ))
    crit = Distinguisher("bme-crit", rules=(PBind("x", "symenc"),))
    plan = InterferencePlan(responses=(StopMessage(),))
    return Guardian(name="G",
                    filters=(GuardianFilter("inflow", "S", control=False),
                             GuardianFilter("outflow", "S", control=False),
                             GuardianFilter("inflow", "B", control=True)),
                    ident=ident, crit=crit,
                    invariant=InvariantSpec(
                        "windowed-freshness",
                        params={"source": ("outflow", "S")}),
                    plan=plan, window=window)


def key_planted(result) -> bool:
    """B accepted a session key the attacker can derive."""
    from ..knowledge import derivable
    b = result.honest.get("B")
    if b is None:
        return False
    for sess in b.sessions.values():
        if sess.status != "complete":
            continue
        kab = sess.bindings.get("kab")
        if kab is not None and any(derivable(att.knowledge, kab)
                                   for att in result.attackers):
            return True
    return False


def wire(kind=None, guardian=True, attack="trace-1", seed=0,
         nonce_bits=64, window: int = 16) -> Wiring:
    kind = kind or "D"
    attack = checked_attack(attack, CASE, classic="trace-1")
    g = make_guardian(window=window) if guardian else None
    attackers = []
    if attack:
        old_key, cta, ctb = old_tickets()
        ks = KnowledgeSet([AgentId("A"), AgentId("B"), AgentId("S"),
                           old_key, cta, ctb])
        attackers = [AttackerAgent("E", interest=["A", "B", "S"],
                                   function=ATTACKS[attack](),
                                   variant="proceed", knowledge=ks)]
    topo = base_topology(kind, honest=("A", "B", "S"), attackers=("E",),
                         guardian="G" if guardian else None)
    if g is not None:
        # freshness is judged against the server's replies toward A; the
        # guardian must hold the first tap on that leg, or an interceptor
        # nearer the server leaves him unable to tell fresh from stale
        g.invariant_operative = topo.sees_first("G", "S", "A")
    a = HonestAgent("A")
    b = HonestAgent("B", responder_scripts=[b_responder_script()])
    s = HonestAgent("S", responder_scripts=[server_script()])
    initiators = []
    if attack not in ("trace-1", "trace-3"):
        initiators.append(("A", initiator_script("B"), 1))
    return Wiring(topology=topo, honest=[a, b, s], attackers=attackers,
                  guardian=g, initiators=initiators, victim="B")


def a_scope_gap(kind: str = "D", seed: int = 0) -> bool:
    """The documented partiality: the reply-swap variant deceives A even
    while B stays protected."""
    from ..scenario import evaluate
    res = wire(kind=kind, guardian=True, attack="trace-2",
               seed=seed).simulator(seed=seed).run()
    return evaluate(res, "A", True).false_negatives > 0


def _identity(out):
    """Replayed tickets are known material played back verbatim: the
    inverse of a replay is the identity."""
    return out


CASE = register(CaseStudy(
    name="bme-fixed",
    defended_agent="B",
    defense_class="Partial",
    viable_topologies=("D",),
    failure_topologies=("E", "F"),
    conditional_topologies={"C": "defends A only for the reply-swap "
                                 "variants (traces 2 and 4)"},
    two_agent=False,
    attack_names=("trace-1", "trace-2", "trace-3", "trace-4"),
    fp_conditions=("a benign ticket reaching B after the server's "
                   "emission slid out of the window",),
    fn_conditions=("traces 2 and 4 deceive A undetected; the guardian "
                   "defends only B",),
    message_count=3,
    wire=wire,
    attack_function_of=lambda name: ATTACKS[name](),
    monitored_slots=(("A", "S"), ("A", "B")),
    success_extra=key_planted,
    inverse_table={1: _identity, 2: _identity, 3: _identity},
    inverse_samples={1: (old_tickets()[2], old_tickets()[2])},
    matrix_fn_witness=a_scope_gap,
))

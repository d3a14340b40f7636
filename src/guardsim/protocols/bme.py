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

from typing import Optional

from ..agents import (AttackFunction, Const, Enc, EraseStep, ExpectStep,
                      InjectStep, PBind, PPair, Ref, RoleScript, SendStep,
                      TFresh, TKeyLookup, seq)
from ..guardian import (Distinguisher, Guardian, GuardianFilter,
                        Intercept, InterferencePlan, InvariantSpec)
from ..network import Slot
from ..terms import AgentId, Pair, SymEnc, SymKey
from ..topology import Topology
from . import register
from .base import Attack, CaseStudy, binding_derivable

KEY_AS = SymKey(value=7001, label="K_AS")
KEY_BS = SymKey(value=7002, label="K_BS")
A_ID, B_ID = AgentId("A"), AgentId("B")

DIRECTORY = {"key_A": KEY_AS, "key_B": KEY_BS}


def initiator_script(peer: str = "B") -> RoleScript:
    return RoleScript(name="bme-init", steps=(
        SendStep(receiver="S", body=seq(Const(A_ID), Const(B_ID)), msg=1),
        ExpectStep(seq(Enc(PPair(PBind("kab", "key"), Const(B_ID)),
                           Const(KEY_AS)),
                       PBind("ctb", "symenc")), msg=2),
        SendStep(receiver=peer, body=Ref("ctb"), msg=3),
    ))


def b_responder_script() -> RoleScript:
    return RoleScript(name="bme-b", steps=(
        ExpectStep(Enc(PPair(PBind("kab", "key"), PBind("aid", "agent")),
                       Const(KEY_BS)), msg=3),
    ))


def server_script() -> RoleScript:
    return RoleScript(name="bme-server",
                      initial_bindings=dict(DIRECTORY),
                      steps=(
        ExpectStep(seq(PBind("p", "agent"), PBind("q", "agent")), msg=1),
        SendStep(receiver=Ref("p"),
                 body=seq(Enc(seq(TFresh("kab", "symkey", "K_AB"),
                                  Ref("q")), TKeyLookup("p")),
                          Enc(seq(Ref("kab"), Ref("p")), TKeyLookup("q"))),
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
        InjectStep(body=Const(ctb), claimed="A", receiver="B",
                   slot=Slot(1, 3)),
    ))


def attack_trace_2() -> AttackFunction:
    """Swap S's fresh reply to A for the old ticket pair (delivered as if
    relayed on A's own channel)."""
    _, cta, ctb = old_tickets()
    return AttackFunction(name="bme-swap-reply", steps=(
        EraseStep(pattern=seq(PBind("c1", "symenc"), PBind("c2", "symenc")),
                  from_agent="S", to_agent="A", bind="m2"),
        InjectStep(body=seq(Const(cta), Const(ctb)), claimed="A",
                   receiver="A", slot=Slot(1, 2, 0, 1)),
    ))


def attack_trace_3() -> AttackFunction:
    """Run the protocol with S masquerading as A, then plant the old
    ticket at B (the fresh one would carry a key the attacker lacks)."""
    _, _, ctb = old_tickets()
    return AttackFunction(name="bme-self-run", steps=(
        InjectStep(body=seq(Const(A_ID), Const(B_ID)), claimed="A",
                   receiver="S", slot=Slot(1, 1)),
        EraseStep(pattern=seq(PBind("c1", "symenc"), PBind("c2", "symenc")),
                  from_agent="S", to_agent="A", bind="m2"),
        InjectStep(body=Const(ctb), claimed="A", receiver="B",
                   slot=Slot(1, 3)),
    ))


def attack_trace_4() -> AttackFunction:
    """Intercept A's request and answer it as the server."""
    _, cta, ctb = old_tickets()
    return AttackFunction(name="bme-fake-server", steps=(
        EraseStep(pattern=seq(PBind("p1", "agent"), PBind("q1", "agent")),
                  from_agent="A", to_agent="S", bind="m1"),
        InjectStep(body=seq(Const(cta), Const(ctb)), claimed="S",
                   receiver="A", slot=Slot(1, 2)),
    ))


def make_guardian(topology: Topology, window: int = 16) -> Guardian:
    ident = Distinguisher(rules=(
        PBind("x", "symenc"),
        seq(PBind("a", "agent"), PBind("b", "agent")),
        seq(PBind("c1", "symenc"), PBind("c2", "symenc")),
    ))
    crit = Distinguisher(rules=(PBind("x", "symenc"),))
    plan = InterferencePlan(responses=(Intercept(stop_note=True),))
    g = Guardian(name="G",
                 filters=(GuardianFilter("inflow", "S", control=False),
                          GuardianFilter("outflow", "S", control=False),
                          GuardianFilter("inflow", "B", control=True)),
                 ident=ident, crit=crit,
                 invariant=InvariantSpec(
                     "windowed-freshness",
                     params={"source": ("outflow", "S")}),
                 plan=plan, window=window)
    # freshness is judged against the server's replies toward A; the
    # guardian must hold the first tap on that leg, or an interceptor
    # nearer the server leaves him unable to tell fresh from stale
    g.invariant_operative = topology.sees_first("G", "S", "A")
    return g


def a_scope_gap(kind: str = "D", seed: int = 0) -> Optional[str]:
    """The partiality: the reply-swap variant deceives A even while B
    stays protected.  The gap's description, or None where the run
    does not show it."""
    from ..scenario import evaluate
    res = CASE.wire(kind=kind, guardian=True,
                    attack="trace-2").simulator(seed=seed).run()
    if evaluate(res, "A", True).false_negatives > 0:
        return ("traces 2 and 4 deceive A undetected; the guardian "
                "defends only B")
    return None


CASE = register(CaseStudy(
    name="bme-fixed",
    defended_agent="B",
    home_topology="D",
    roles={"A": (), "B": (b_responder_script,), "S": (server_script,)},
    initiator=initiator_script,
    attacks={"trace-1": Attack(attack_trace_1, honest_run=False),
             "trace-2": Attack(attack_trace_2),
             "trace-3": Attack(attack_trace_3, honest_run=False),
             "trace-4": Attack(attack_trace_4)},
    make_guardian=make_guardian,
    attacker_interest=("A", "B", "S"),
    attacker_knowledge=(AgentId("A"), AgentId("B"), AgentId("S"),
                        *old_tickets()),
    conditional_topologies={"C": "defends A only for the reply-swap "
                                 "variants (traces 2 and 4)"},
    monitored_slots=(("A", "S"), ("A", "B")),
    masks={"B": "A"},
    success_extra=binding_derivable("B", "kab"),
    matrix_fn_witness=a_scope_gap,
))

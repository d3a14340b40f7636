"""Otway-Rees key distribution.

    (1) A -> B : I,A,B,{|N_A,I,A,B|}K_AS
    (2) B -> S : I,A,B,{|N_A,I,A,B|}K_AS,{|N_B,I,A,B|}K_BS
    (3) S -> B : I,{|N_A,K_AB|}K_AS,{|N_B,K_AB|}K_BS
    (4) B -> A : I,{|N_A,K_AB|}K_AS

A type flaw: the ciphertext from (1) parses as a (4)-ciphertext whose
"key" is the triple I,A,B.  The attacker replays it (directly, or via B
by masquerading as the server), so the guardian watches what A emits in
(1)-form and controls her incoming (4)s for reused ciphertext
components.
"""

from __future__ import annotations

from ..agents import (AttackFunction, Const, Enc, EraseStep, ExpectStep,
                      InjectStep, PBind, PPair, Ref, RoleScript, SendStep,
                      TFresh, seq)
from ..guardian import (Distinguisher, FakeSpec, Guardian, GuardianFilter,
                        Intercept, InterferencePlan, InvariantSpec,
                        RaiseAbortFlag, SendFake)
from ..network import Slot
from ..terms import AgentId, SymKey
from . import register
from .base import Attack, CaseStudy, binding_derivable

KEY_AS = SymKey(value=4001, label="K_AS")
KEY_BS = SymKey(value=4002, label="K_BS")
A_ID, B_ID = AgentId("A"), AgentId("B")


def initiator_script(peer: str) -> RoleScript:
    return RoleScript(name="otway-init", steps=(
        SendStep(receiver=peer,
                 body=seq(TFresh("i", "atom", "I"), Const(A_ID), Const(B_ID),
                          Enc(seq(TFresh("na", "nonce", "N_{agent}"),
                                  Ref("i"), Const(A_ID),
                                  Const(B_ID)),
                              Const(KEY_AS))), msg=1),
        ExpectStep(seq(Ref("i"),
                       Enc(PPair(Ref("na"), PBind("kab", "any")),
                           Const(KEY_AS))), msg=4),
    ))


def b_responder_script() -> RoleScript:
    return RoleScript(name="otway-b", steps=(
        ExpectStep(seq(PBind("i", "nonce"), PBind("a", "agent"),
                       PBind("b", "agent"), PBind("cta", "symenc")), msg=1),
        SendStep(receiver="S",
                 body=seq(Ref("i"), Ref("a"), Ref("b"), Ref("cta"),
                          Enc(seq(TFresh("nb", "nonce", "N_{agent}"),
                                  Ref("i"), Ref("a"), Ref("b")),
                              Const(KEY_BS))), msg=2),
        ExpectStep(seq(Ref("i"), PBind("ctx", "symenc"),
                       Enc(PPair(Ref("nb"), PBind("kab", "any")),
                           Const(KEY_BS))), msg=3),
        SendStep(receiver=Ref("a"), body=seq(Ref("i"), Ref("ctx")),
                 msg=4),
    ))


def server_script() -> RoleScript:
    return RoleScript(name="otway-server", steps=(
        ExpectStep(seq(PBind("i", "nonce"), PBind("a", "agent"),
                       PBind("b", "agent"),
                       Enc(seq(PBind("na", "nonce"), Ref("i"),
                               Ref("a"), Ref("b")), Const(KEY_AS)),
                       Enc(seq(PBind("nb", "nonce"), Ref("i"),
                               Ref("a"), Ref("b")), Const(KEY_BS))),
                   msg=2),
        SendStep(receiver=Ref("b"),
                 body=seq(Ref("i"),
                          Enc(seq(Ref("na"), TFresh("kab", "symkey", "K_AB")),
                              Const(KEY_AS)),
                          Enc(seq(Ref("nb"), Ref("kab")),
                              Const(KEY_BS))), msg=3),
    ))


def attack_trace_1() -> AttackFunction:
    """Suppress (1), replay its ciphertext straight back as (4)."""
    return AttackFunction(name="otway-type-flaw-direct", steps=(
        EraseStep(pattern=seq(PBind("i1", "nonce"), PBind("a1", "agent"),
                              PBind("b1", "agent"), PBind("ct1", "symenc")),
                  from_agent="A", to_agent="B", bind="m1"),
        InjectStep(body=seq(Ref("i1"), Ref("ct1")), claimed="B",
                   receiver="A", slot=Slot(1, 4)),
    ))


def attack_trace_2() -> AttackFunction:
    """Masquerade as the server: echo B's request material back as (3)."""
    return AttackFunction(name="otway-type-flaw-via-b", steps=(
        EraseStep(pattern=seq(PBind("i2", "nonce"), PBind("a2", "agent"),
                              PBind("b2", "agent"), PBind("cta", "symenc"),
                              PBind("ctb", "symenc")),
                  from_agent="B", to_agent="S", bind="m2"),
        InjectStep(body=seq(Ref("i2"), Ref("cta"), Ref("ctb")),
                   claimed="S", receiver="B", slot=Slot(1, 3)),
    ))


def make_guardian() -> Guardian:
    ident = Distinguisher(rules=(
        seq(PBind("i", "nonce"), PBind("a", "agent"), PBind("b", "agent"),
            PBind("ct", "symenc")),
        seq(PBind("i", "nonce"), PBind("ct", "symenc")),
    ))
    crit = Distinguisher(rules=(
        seq(PBind("i", "nonce"), PBind("ct", "symenc")),))
    plan = InterferencePlan(
        trigger_pattern=seq(PBind("i", "nonce"), PBind("ct", "symenc")),
        responses=(
            Intercept(),
            SendFake(mask="A", template=seq(Ref("i"), Ref("fake1")),
                     fake=FakeSpec(label="M_fake", kind="atom",
                                   binding="fake1")),
            RaiseAbortFlag(target="A", label="4_1", style="abort",
                           mode="after_plan"),
        ))
    return Guardian(name="G",
                    filters=(GuardianFilter("outflow", "A", control=False),
                             GuardianFilter("inflow", "A", control=True)),
                    ident=ident, crit=crit,
                    invariant=InvariantSpec("replay-equality",
                                            params={"component": True}),
                    plan=plan)


CASE = register(CaseStudy(
    name="otway-rees",
    defended_agent="A",
    home_topology="C",
    roles={"A": (), "B": (b_responder_script,), "S": (server_script,)},
    initiator=initiator_script,
    attacks={"trace-1": Attack(attack_trace_1),
             "trace-2": Attack(attack_trace_2)},
    make_guardian=lambda topology: make_guardian(),
    attacker_interest=("A", "B", "S"),
    attacker_knowledge=(AgentId("A"), AgentId("B"), AgentId("S")),
    conditional_topologies={
        "D": "defends A only against the server-masquerade variant",
        "F": "defends A only against the server-masquerade variant"},
    monitored_slots=(("A", "B"),),
    masks={"A": "B", "B": "S"},
    success_extra=binding_derivable("A", "kab"),
))

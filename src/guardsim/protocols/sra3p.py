"""Shamir-Rivest-Adleman three-pass protocol (commutative encryption).

    (1) A -> B : {M}[K_A]
    (2) B -> A : {M}[K_A,K_B]
    (3) A -> B : {M}[K_B]

Reflecting message (1) back at A as if it were (2) makes her strip her
own layer and ship the secret in the clear.  The guardian records A's
outgoing traffic; an incoming message identical to something already in
the dataset is the reflection, so the fake substitution leaves the
attacker with a wrong secret and A gets aborted.
"""

from __future__ import annotations

from functools import partial

from ..agents import (AttackFunction, Const, EraseStep, ExpectStep, InjectStep,
                      PBind, Ref, RoleScript, SendStep, TCommEnc, TCommStrip,
                      TFresh)
from ..guardian import (Distinguisher, FakeSpec, Guardian, GuardianFilter,
                        Intercept, InterferencePlan, InvariantSpec,
                        RaiseAbortFlag, SendFake)
from ..network import Slot
from ..terms import AgentId, SymKey
from . import register
from .base import Attack, CaseStudy, binding_derivable

KEY_A = SymKey(value=2001, label="K_A")
KEY_B = SymKey(value=2002, label="K_B")


def initiator_script(peer: str) -> RoleScript:
    return RoleScript(name="sra3p-init", steps=(
        SendStep(receiver=peer,
                 body=TCommEnc(TFresh("m", "atom", "M"), (Const(KEY_A),)),
                 msg=1),
        ExpectStep(PBind("x", "any"), msg=2),
        SendStep(receiver=peer, body=TCommStrip("x", Const(KEY_A)), msg=3),
    ))


def responder_script(peer: str) -> RoleScript:
    return RoleScript(name="sra3p-resp", steps=(
        ExpectStep(PBind("y", "commenc"), msg=1),
        SendStep(receiver=peer, body=TCommEnc(Ref("y"), (Const(KEY_B),)),
                 msg=2),
        ExpectStep(PBind("z", "any"), msg=3),
    ))


def classic_attack() -> AttackFunction:
    return AttackFunction(name="sra3p-reflection", steps=(
        EraseStep(pattern=PBind("x1", "commenc"), from_agent="A",
                  to_agent="B", bind="c1"),
        InjectStep(body=Ref("c1"), claimed="B", receiver="A",
                   slot=Slot(1, 2)),
        EraseStep(pattern=PBind("x2", "any"), from_agent="A", to_agent="B",
                  bind="secret"),
    ))


def make_guardian() -> Guardian:
    ident = Distinguisher(rules=(PBind("x", "commenc"), PBind("y", "leaf")))
    crit = Distinguisher(rules=(PBind("x", "commenc"),))
    plan = InterferencePlan(responses=(
        Intercept(),
        SendFake(mask="A",
                 fake=FakeSpec(label="M_fake", kind="atom")),
        SendFake(mask="A", receiver="B",
                 fake=FakeSpec(label="M'_fake", kind="atom"),
                 label="3"),
        RaiseAbortFlag(target="A", label="3", style="abort",
                       mode="after_plan"),
    ))
    return Guardian(name="G",
                    filters=(GuardianFilter("outflow", "A", control=False),
                             GuardianFilter("inflow", "A", control=True)),
                    ident=ident, crit=crit,
                    invariant=InvariantSpec("replay-equality"), plan=plan)


CASE = register(CaseStudy(
    name="sra3p",
    defended_agent="A",
    home_topology="A",
    roles={"A": (), "B": (partial(responder_script, "A"),)},
    initiator=initiator_script,
    attacks={"classic": Attack(classic_attack)},
    make_guardian=lambda topology: make_guardian(),
    attacker_interest=("A",),
    attacker_knowledge=(AgentId("A"), AgentId("B")),
    monitored_slots=(("A", "B"),),
    success_extra=binding_derivable("A", "m"),
))

"""ISO-SC 27 nonce handshake.

    (1) A -> B : N_A
    (2) B -> A : {|N_A, N_B|}K_AB
    (3) A -> B : N_B

Nothing in message (2) ties it to B, so a parallel-session reflection
lets an attacker use A as an oracle against herself.  The guardian sits
on A's side, records her outgoing messages and controls her incoming
ones; a critical message (first-message form) already present in the
dataset is a replay, the fake-nonce interference poisons the oracle and
A's flag is raised once both sessions have been played out.
"""

from __future__ import annotations

from functools import partial

from ..agents import (AttackFunction, AttackerAgent, Const, Enc, EraseStep,
                      ExpectStep, InjectStep, PBind, Ref, RoleScript, SendStep,
                      TFresh, seq)
from ..guardian import (Distinguisher, FakeSpec, Guardian, GuardianFilter,
                        Intercept, InterferencePlan, InvariantSpec,
                        RaiseAbortFlag, SendFake)
from ..knowledge import KnowledgeSet
from ..network import Slot
from ..terms import AgentId, SymKey
from . import register
from .base import Attack, CaseStudy

KEY_AB = SymKey(value=1001, label="K_AB")


def initiator_script(peer: str) -> RoleScript:
    return RoleScript(name="iso-init", steps=(
        SendStep(receiver=peer, body=TFresh("na", "nonce", "N_{agent}"), msg=1),
        ExpectStep(Enc(seq(Ref("na"), PBind("nb", "nonce")),
                       Const(KEY_AB)), msg=2),
        SendStep(receiver=peer, body=Ref("nb"), msg=3),
    ))


def responder_script(peer: str) -> RoleScript:
    return RoleScript(name="iso-resp", steps=(
        ExpectStep(PBind("n", "nonce"), msg=1),
        SendStep(receiver=peer,
                 body=Enc(seq(Ref("n"), TFresh("n2", "nonce", "N_{agent}")),
                          Const(KEY_AB)), msg=2),
        ExpectStep(Ref("n2"), msg=3),
    ))


def classic_attack(slots=((2, 1, 0), (1, 2, 0), (2, 3, 0))) -> AttackFunction:
    """The parallel-session reflection, step-indexed: erase then reflect
    each of A's messages to B back at A.  `slots` places the three
    injections (session, msg, primes)."""
    s1, s2, s3 = (Slot(*s) for s in slots)
    return AttackFunction(name="iso-reflection", steps=(
        EraseStep(pattern=PBind("x1", "nonce"), from_agent="A",
                  to_agent="B", bind="n1"),
        InjectStep(body=Ref("n1"), claimed="B", receiver="A", slot=s1),
        EraseStep(pattern=PBind("x2", "symenc"), from_agent="A",
                  to_agent="B", bind="ct"),
        InjectStep(body=Ref("ct"), claimed="B", receiver="A", slot=s2),
        EraseStep(pattern=PBind("x3", "nonce"), from_agent="A",
                  to_agent="B", bind="n2"),
        InjectStep(body=Ref("n2"), claimed="B", receiver="A", slot=s3),
    ))


def make_attacker(name: str = "E", variant: str = "proceed",
                  awareness=None, slots=((2, 1, 0), (1, 2, 0), (2, 3, 0))
                  ) -> AttackerAgent:
    ks = KnowledgeSet([AgentId("A"), AgentId("B")])
    return AttackerAgent(name=name, interest=["A"],
                         function=classic_attack(slots=slots),
                         variant=variant, awareness=awareness, knowledge=ks)


def make_guardian() -> Guardian:
    ident = Distinguisher(rules=(
        PBind("x", "nonce"),
        Enc(PBind("p", "any"), PBind("k", "any")),
    ))
    crit = Distinguisher(rules=(PBind("x", "nonce"),))
    plan = InterferencePlan(responses=(
        Intercept(),
        SendFake(mask="claimed", fake=FakeSpec(label="N_fake", kind="nonce")),
        RaiseAbortFlag(target="A", label="2.2", style="raise",
                       mode="deferred"),
    ))
    return Guardian(name="G",
                    filters=(GuardianFilter("outflow", "A", control=False),
                             GuardianFilter("inflow", "A", control=True)),
                    ident=ident, crit=crit,
                    invariant=InvariantSpec("replay-equality"), plan=plan)


CASE = register(CaseStudy(
    name="iso-sc-27",
    defended_agent="A",
    home_topology="A",
    roles={"A": (partial(responder_script, "B"),),
           "B": (partial(responder_script, "A"),)},
    initiator=initiator_script,
    attacks={"classic": Attack(classic_attack)},
    make_guardian=lambda topology: make_guardian(),
    attacker_interest=("A",),
    attacker_knowledge=(AgentId("A"), AgentId("B")),
    monitored_slots=(("A", "B"),),
))
wire = CASE.wire

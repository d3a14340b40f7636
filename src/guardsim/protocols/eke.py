"""Encrypted Key Exchange (password-encrypted ephemeral keys).

    (1) A -> B : {|K_A|}P
    (2) B -> A : {|{R}K_A|}P
    (3) A -> B : {|N_A|}R
    (4) B -> A : {|N_A,N_B|}R
    (5) A -> B : {|N_B|}R

The whole handshake reflects: an attacker without P can bounce every
message back at A in a parallel session.  The guardian records A's
outgoing session-key traffic and controls her incoming messages: a
nonce-challenge ciphertext she herself emitted coming back at her is the
reflection; the fake substitution breaks the oracle and both sessions
are allowed to finish before the abort flag goes up.
"""

from __future__ import annotations

from functools import partial

from ..agents import (AEnc, AttackFunction, Const, Enc, EraseStep, ExpectStep,
                      InjectStep, PBind, PPair, Ref, RoleScript, SendStep,
                      TDecryptPayload, TFresh, seq)
from ..guardian import (Distinguisher, FakeSpec, Guardian, GuardianFilter,
                        Intercept, InterferencePlan, InvariantSpec,
                        RaiseAbortFlag, SendFake)
from ..network import Slot
from ..terms import AgentId, Password
from . import register
from .base import Attack, CaseStudy

PASSWORD = Password(value=5001, label="P")


def initiator_script(peer: str) -> RoleScript:
    return RoleScript(name="eke-init", steps=(
        SendStep(receiver=peer,
                 body=Enc(TFresh("ka", "asymkey", "K_{agent}"),
                          Const(PASSWORD)), msg=1),
        ExpectStep(Enc(AEnc(PBind("r", "key"), Ref("ka")),
                       Const(PASSWORD)), msg=2),
        SendStep(receiver=peer,
                 body=Enc(TFresh("na", "nonce", "N_{agent}"), Ref("r")),
                 msg=3),
        ExpectStep(Enc(PPair(Ref("na"), PBind("nb", "nonce")),
                       Ref("r")), msg=4),
        SendStep(receiver=peer, body=Enc(Ref("nb"), Ref("r")), msg=5),
    ))


def responder_script(peer: str) -> RoleScript:
    return RoleScript(name="eke-resp", steps=(
        ExpectStep(Enc(PBind("ka", "pubkey"), Const(PASSWORD)), msg=1),
        SendStep(receiver=peer,
                 body=Enc(AEnc(TFresh("r", "symkey", "R"),
                               Ref("ka")), Const(PASSWORD)),
                 msg=2),
        ExpectStep(PBind("x", "any"), msg=3),
        SendStep(receiver=peer,
                 body=Enc(seq(TDecryptPayload("x", Ref("r")),
                              TFresh("nb", "nonce", "N_B")),
                          Ref("r")), msg=4),
        ExpectStep(Enc(Ref("nb"), Ref("r")), msg=5),
    ))


def classic_attack() -> AttackFunction:
    """Reflect all five messages into a parallel session."""
    steps = []
    slots = [Slot(2, 1), Slot(1, 2), Slot(2, 3), Slot(1, 4), Slot(2, 5)]
    for i, slot in enumerate(slots, start=1):
        steps.append(EraseStep(pattern=PBind(f"x{i}", "symenc"),
                               from_agent="A", to_agent="B", bind=f"c{i}"))
        steps.append(InjectStep(body=Ref(f"c{i}"), claimed="B",
                                receiver="A", slot=slot))
    return AttackFunction(name="eke-reflection", steps=tuple(steps))


def make_guardian() -> Guardian:
    ident = Distinguisher(rules=(Enc(PBind("p", "any"), PBind("k", "any")),))
    crit = Distinguisher(rules=(Enc(PBind("n", "nonce"), PBind("k", "any")),))
    plan = InterferencePlan(responses=(
        Intercept(),
        SendFake(mask="A",
                 fake=FakeSpec(label="M_fake", kind="atom")),
        RaiseAbortFlag(target="A", label="1.5", style="abort",
                       mode="deferred"),
    ))
    return Guardian(name="G",
                    filters=(GuardianFilter("outflow", "A", control=False),
                             GuardianFilter("inflow", "A", control=True)),
                    ident=ident, crit=crit,
                    invariant=InvariantSpec("replay-equality"), plan=plan)


CASE = register(CaseStudy(
    name="eke",
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

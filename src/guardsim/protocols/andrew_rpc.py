"""Andrew Secure RPC handshake.

    (1) A -> B : A,{|N_A|}K_AB
    (2) B -> A : {|N_A+1,N_B|}K_AB
    (3) A -> B : {|N_B+1|}K_AB
    (4) B -> A : {|K'_AB,N'_B|}K_AB

Message (4) carries nothing tying it to this run, so replaying (2) as
(4) plants a predictable "session key" N_A+1.  The guardian controls A's
incoming traffic; a ciphertext repeated verbatim is the replay.  Replays
of messages from before the guardian existed are invisible to it --
that is the documented false-negative window that makes this defense
partial.
"""

from __future__ import annotations

from functools import partial

from ..agents import (AttackFunction, Const, Enc, EraseStep, ExpectStep, Inc,
                      InjectStep, ObserveStep, PBind, Ref, RoleScript,
                      SendStep, TFresh, seq)
from ..guardian import (Distinguisher, FakeSpec, Guardian, GuardianFilter,
                        Intercept, InterferencePlan, InvariantSpec,
                        RaiseAbortFlag, SendFake)
from ..network import Slot
from ..terms import AgentId, Nonce, Pair, Succ, SymEnc, SymKey, Term
from . import register
from .base import Attack, CaseStudy

KEY_AB = SymKey(value=3001, label="K_AB")


def initiator_script(peer: str, pinned_nonce: Term = None) -> RoleScript:
    first = Const(pinned_nonce) if pinned_nonce is not None else \
        TFresh("na", "nonce", "N_{agent}")
    na_pat = Const(pinned_nonce) if pinned_nonce is not None else Ref("na")
    return RoleScript(name="andrew-init", steps=(
        SendStep(receiver=peer,
                 body=seq(Const(AgentId("A")), Enc(first, Const(KEY_AB))),
                 msg=1),
        ExpectStep(Enc(seq(Inc(na_pat, 1), PBind("nb", "nonce")),
                       Const(KEY_AB)), msg=2),
        SendStep(receiver=peer,
                 body=Enc(Inc(Ref("nb"), 1), Const(KEY_AB)), msg=3),
        ExpectStep(Enc(seq(PBind("kab2", "any"), PBind("nb2", "nonce")),
                       Const(KEY_AB)), msg=4),
    ))


def responder_script(peer: str, pinned=None) -> RoleScript:
    """pinned, for collision studies: (nb_term, key_value, nb2_value)."""
    if pinned:
        nb, key_val, nb2_val = pinned
        nb_t = Const(nb)
        nb_pat = Const(nb)
        key_t = Const(SymKey(value=key_val, label="K'_AB"))
        nb2_t = Const(Nonce(value=nb2_val, label="N'_B"))
    else:
        nb_t = TFresh("nb", "nonce", "N_{agent}")
        nb_pat = Ref("nb")
        key_t = TFresh("k2", "symkey", "K'_AB")
        nb2_t = TFresh("nb2", "nonce", "N_{agent}")
    return RoleScript(name="andrew-resp", steps=(
        ExpectStep(seq(PBind("aid", "agent"),
                       Enc(PBind("n", "nonce"), Const(KEY_AB))), msg=1),
        SendStep(receiver=peer,
                 body=Enc(seq(Inc(Ref("n"), 1), nb_t), Const(KEY_AB)), msg=2),
        ExpectStep(Enc(Inc(nb_pat, 1), Const(KEY_AB)), msg=3),
        SendStep(receiver=peer,
                 body=Enc(seq(key_t, nb2_t), Const(KEY_AB)), msg=4),
    ))


def classic_attack() -> AttackFunction:
    """Attack trace 1: watch (2), suppress (3), replay (2) as (4)."""
    return AttackFunction(name="andrew-replay", steps=(
        ObserveStep(bind="ct2", pattern=Enc(PBind("p", "any"), Const(KEY_AB)),
                    from_agent="B", to_agent="A"),
        EraseStep(pattern=PBind("x", "symenc"), from_agent="A",
                  to_agent="B", bind="ct3"),
        InjectStep(body=Ref("ct2"), claimed="B", receiver="A",
                   slot=Slot(1, 4)),
    ))


def old_message_attack(old_ct: Term) -> AttackFunction:
    """Attack trace 2: replay a (4)-shaped ciphertext from an earlier
    epoch, unknown to the guardian."""
    return AttackFunction(name="andrew-old-replay", steps=(
        EraseStep(pattern=PBind("x", "symenc"), from_agent="A",
                  to_agent="B", bind="ct3"),
        InjectStep(body=Const(old_ct), claimed="B", receiver="A",
                   slot=Slot(1, 4)),
    ))


def old_round_ciphertext(na_value: int = 77001, nb_value: int = 77002) -> Term:
    return SymEnc(Pair(Succ(Nonce(value=na_value, label="N_A^old"), 1),
                       Nonce(value=nb_value, label="N_B^old")), KEY_AB)


def make_guardian() -> Guardian:
    ident = Distinguisher(rules=(Enc(PBind("p", "any"), PBind("k", "any")),))
    crit = Distinguisher(rules=(
        Enc(seq(PBind("a", "any"), PBind("b", "any")), PBind("k", "any")),))
    plan = InterferencePlan(responses=(
        Intercept(),
        SendFake(mask="A",
                 fake=FakeSpec(label="M_fake", kind="atom")),
        RaiseAbortFlag(target="A", label="4_1", style="abort",
                       mode="after_plan"),
    ))
    return Guardian(name="G",
                    filters=(GuardianFilter("inflow", "A", control=True),),
                    ident=ident, crit=crit,
                    invariant=InvariantSpec("replay-equality"), plan=plan)


CASE = register(CaseStudy(
    name="andrew-rpc",
    defended_agent="A",
    home_topology="A",
    roles={"A": (), "B": (partial(responder_script, "A"),)},
    initiator=initiator_script,
    attacks={
        "classic": Attack(classic_attack),
        "old-replay": Attack(
            partial(old_message_attack, old_round_ciphertext()),
            knowledge=(old_round_ciphertext(),), registered=False),
    },
    make_guardian=lambda topology: make_guardian(),
    attacker_interest=("A",),
    attacker_knowledge=(AgentId("A"), AgentId("B")),
    monitored_slots=(("A", "B"),),
))

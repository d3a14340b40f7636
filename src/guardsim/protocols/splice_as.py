"""SPLICE/AS authentication with a key-distribution server.

    (1) A  -> AS : A,B,N_1
    (2) AS -> A  : AS,{AS,A,N_1,B,K_B}K_AS^-1
    (3) A  -> B  : A,B,{A,T,L,{N_2}K_B}K_A^-1
    (4) B  -> AS : B,A,N_3
    (5) AS -> B  : AS,{AS,B,N_3,A,K_A}K_AS^-1
    (6) B  -> A  : B,A,{B,N_2+1}K_A

The attacker re-signs A's challenge as his own, so B answers him and the
reply is re-encrypted for A.  The guardian proxies the server: a key
request about someone other than the agent who was just contacted is the
signature of that splice, and the windowed check bounds how far back
"just contacted" reaches.
"""

from __future__ import annotations

from ..agents import (AEnc, AttackFunction, Const, EraseStep, ExpectStep, Inc,
                      InjectStep, ObserveStep, PBind, Ref, RoleScript,
                      SendStep, TFresh, TKeyLookup, seq)
from ..guardian import (Distinguisher, FakeSpec, Guardian, GuardianFilter,
                        InterferencePlan, Intercept, InvariantSpec,
                        RaiseAbortFlag, SendFake)
from ..network import Slot
from ..terms import AgentId, AsymKey, Lifetime, Timestamp
from . import register
from .base import Attack, CaseStudy

K_AS_PUB = AsymKey(pair_id=6001, private=False, label="K_AS")
K_AS_PRIV = AsymKey(pair_id=6001, private=True, label="K_AS")
K_A_PUB = AsymKey(pair_id=6002, private=False, label="K_A")
K_A_PRIV = AsymKey(pair_id=6002, private=True, label="K_A")
K_B_PUB = AsymKey(pair_id=6003, private=False, label="K_B")
K_B_PRIV = AsymKey(pair_id=6003, private=True, label="K_B")
K_E_PUB = AsymKey(pair_id=6004, private=False, label="K_E")
K_E_PRIV = AsymKey(pair_id=6004, private=True, label="K_E")
T0 = Timestamp(value=0, label="T")
L0 = Lifetime(value=0, label="L")
AID = {name: AgentId(name) for name in ("A", "B", "E", "AS")}

DIRECTORY = {"key_A": K_A_PUB, "key_B": K_B_PUB, "key_E": K_E_PUB}


def initiator_script(peer: str = "B") -> RoleScript:
    return RoleScript(name="splice-init", steps=(
        SendStep(receiver="AS",
                 body=seq(Const(AID["A"]), Const(AID[peer]),
                          TFresh("n1", "nonce", "N_1")), msg=1),
        ExpectStep(seq(Const(AID["AS"]),
                       AEnc(seq(Const(AID["AS"]), Const(AID["A"]),
                                Ref("n1"), Const(AID[peer]),
                                PBind("kb", "pubkey")),
                            Const(K_AS_PRIV))), msg=2),
        SendStep(receiver=peer,
                 body=seq(Const(AID["A"]), Const(AID[peer]),
                          AEnc(seq(Const(AID["A"]), Const(T0), Const(L0),
                                   AEnc(TFresh("n2", "nonce", "N_2"),
                                        Ref("kb"))),
                               Const(K_A_PRIV))), msg=3),
        ExpectStep(seq(Const(AID[peer]), Const(AID["A"]),
                       AEnc(seq(Const(AID[peer]), Inc(Ref("n2"), 1)),
                            Const(K_A_PUB))), msg=6),
    ))


def b_responder_script() -> RoleScript:
    return RoleScript(name="splice-b", steps=(
        ExpectStep(seq(PBind("x", "agent"), Const(AID["B"]),
                       AEnc(seq(Ref("x"), PBind("t", "any"), PBind("l", "any"),
                                AEnc(PBind("n2", "nonce"), Const(K_B_PUB))),
                            PBind("sigkey", "any"))), msg=3),
        SendStep(receiver="AS",
                 body=seq(Const(AID["B"]), Ref("x"),
                          TFresh("n3", "nonce", "N_3")), msg=4),
        ExpectStep(seq(Const(AID["AS"]),
                       AEnc(seq(Const(AID["AS"]), Const(AID["B"]),
                                Ref("n3"), Ref("x"),
                                PBind("kx", "pubkey")),
                            Const(K_AS_PRIV))), msg=5),
        SendStep(receiver=Ref("x"),
                 body=seq(Const(AID["B"]), Ref("x"),
                          AEnc(seq(Const(AID["B"]), Inc(Ref("n2"), 1)),
                               Ref("kx"))), msg=6),
    ))


def server_script() -> RoleScript:
    return RoleScript(name="splice-server",
                      initial_bindings=dict(DIRECTORY),
                      steps=(
        ExpectStep(seq(PBind("p", "agent"), PBind("q", "agent"),
                       PBind("n", "nonce")), msg=1),
        SendStep(receiver=Ref("p"),
                 body=seq(Const(AID["AS"]),
                          AEnc(seq(Const(AID["AS"]), Ref("p"),
                                   Ref("n"), Ref("q"),
                                   TKeyLookup("q")),
                               Const(K_AS_PRIV))),
                 relative=True),
    ))


def classic_attack() -> AttackFunction:
    """Capture A's signed challenge, re-sign it as E, let B talk to the
    server about E, then re-target B's answer at A."""
    return AttackFunction(name="splice-resign", steps=(
        EraseStep(pattern=seq(PBind("a1", "agent"), PBind("b1", "agent"),
                              AEnc(seq(PBind("a2", "agent"),
                                       PBind("t1", "any"),
                                       PBind("l1", "any"),
                                       PBind("ctn", "any")),
                                   PBind("ks", "any"))),
                  from_agent="A", to_agent="B", bind="m3"),
        InjectStep(body=seq(Const(AID["E"]), Const(AID["B"]),
                            AEnc(seq(Const(AID["E"]), Ref("t1"),
                                     Ref("l1"), Ref("ctn")),
                                 Const(K_E_PRIV))),
                   claimed="E", receiver="B", slot=Slot(1, 3, 0, 1)),
        ObserveStep(bind="m6",
                    pattern=seq(Const(AID["B"]), Const(AID["E"]),
                                AEnc(seq(Const(AID["B"]), PBind("n2p", "any")),
                                     Const(K_E_PUB))),
                    to_agent="E"),
        InjectStep(body=seq(Const(AID["B"]), Const(AID["A"]),
                            AEnc(seq(Const(AID["B"]), Ref("n2p")),
                                 Const(K_A_PUB))),
                   claimed="E", receiver="A", slot=Slot(1, 6, 0, 1)),
    ))


def make_guardian(window: int = 16) -> Guardian:
    request = seq(PBind("p", "agent"), PBind("q", "agent"),
                  PBind("n", "nonce"))
    ident = Distinguisher(rules=(request,))
    crit = Distinguisher(rules=(request,))
    plan = InterferencePlan(
        trigger_pattern=request,
        responses=(
            Intercept(),
            SendFake(mask="E", receiver="A",
                     template=seq(Const(AID["B"]), Const(AID["A"]),
                                  AEnc(seq(Const(AID["B"]), Ref("fake1")),
                                       Const(K_A_PUB))),
                     fake=FakeSpec(label="N_fake", kind="nonce",
                                   binding="fake1"),
                     label="5"),
            SendFake(mask="AS", receiver="AS", template=Ref("captured"),
                     label="6"),
            RaiseAbortFlag(target="A", label="6", style="abort",
                           mode="after_plan"),
        ))
    return Guardian(name="G",
                    filters=(GuardianFilter("inflow", "AS", control=True),),
                    ident=ident, crit=crit,
                    invariant=InvariantSpec("cross-request-mismatch",
                                            params={"request_pattern": request}),
                    plan=plan, window=window)


def deceived_by_retarget(result) -> bool:
    """A completes believing B answered although the final hop was an
    attacker injection (masqueraded or sent under the attacker's own
    name)."""
    a = result.honest.get("A")
    if a is None:
        return False
    attacker_names = {att.name for att in result.attackers}
    for sess in a.sessions.values():
        if sess.status == "complete" and any(
                c.env.injected and c.env.true_sender in attacker_names
                for c in sess.consumed):
            return True
    return False


CASE = register(CaseStudy(
    name="splice-as",
    defended_agent="A",
    home_topology="C",
    roles={"A": (), "B": (b_responder_script,), "AS": (server_script,)},
    initiator=initiator_script,
    attacks={"classic": Attack(classic_attack)},
    make_guardian=lambda topology: make_guardian(),
    attacker_interest=("A", "B", "AS", "E"),
    attacker_knowledge=(AgentId("A"), AgentId("B"), AgentId("AS"),
                        AgentId("E"), K_E_PRIV, K_E_PUB, K_A_PUB, K_B_PUB,
                        K_AS_PUB),
    conditional_topologies={"D": "can still raise A's abort flag"},
    monitored_slots=(("A", "AS"), ("B", "AS")),
    success_extra=deceived_by_retarget,
))

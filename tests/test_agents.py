"""Spy rules, attack-function stepping and patterns."""

import os
import random
import subprocess
import sys

import pytest

import guardsim
from guardsim.agents import (ExpectStep, FreshMint, HonestAgent, PBind, PPair,
                             PRef, PSucc, RoleScript, SendStep, TConst, TFresh,
                             match, reinterpret, plist)
from guardsim.network import Envelope, Slot
from guardsim.protocols.iso_sc27 import classic_attack, make_attacker
from guardsim.terms import (AgentId, Atom, Nonce, Pair, Succ, SymEnc,
                            SymKey, succ)

K = SymKey(value=1, label="K_AB")
NA = Nonce(value=10, label="N_A")
NB = Nonce(value=11, label="N_B")


def make_env(claimed, body, receiver, true=None, injected=False, seq=1):
    return Envelope(seq=seq, claimed_sender=claimed, body=body,
                    receiver=receiver, true_sender=true or claimed,
                    slot=Slot(1, 1), injected=injected)


def test_inflow_spy_records_body_and_true_sender():
    e = make_attacker("E")
    env = make_env("B", SymEnc(Pair(NA, NB), K), "A", true="B")
    e.spy(env, "inflow")
    assert SymEnc(Pair(NA, NB), K) in e.knowledge
    assert AgentId("B") in e.knowledge


def test_inflow_spy_reveals_masquerading_rival():
    e = make_attacker("E", awareness={"E_2": "unsure"})
    env = make_env("B", NA, "A", true="E_2", injected=True)
    e.spy(env, "inflow")
    assert AgentId("E_2") in e.knowledge
    assert e.awareness["E_2"] == "dishonest"
    assert env.seq in e.hesitations


def test_outflow_spy_records_body_and_receiver():
    e = make_attacker("E")
    env = make_env("A", NA, "B")
    e.spy(env, "outflow")
    assert NA in e.knowledge
    assert AgentId("B") in e.knowledge


def test_attack_step_table_rows():
    e = make_attacker("E")
    assert e.attack_step(NA, 1) == ("Erase", None)
    e.bindings["n1"] = NA
    kind, out = e.attack_step(NA, 2)
    assert kind == "Injection" and out == NA
    ct = SymEnc(Pair(NA, NB), K)
    assert e.attack_step(ct, 3) == ("Erase", None)
    e.bindings["ct"] = ct
    kind, out = e.attack_step(ct, 4)
    assert kind == "Injection" and out == ct
    assert e.attack_step(SymEnc(NA, K), 1) is None  # pattern mismatch


def test_steps_consumed_in_order():
    fn = classic_attack()
    kinds = [type(s).__name__ for s in fn.steps]
    assert kinds == ["EraseStep", "InjectStep"] * 3


def test_pattern_wire_level_value_checks():
    # a back-reference compares bits: a colliding key passes a nonce check
    bound = {"na": NA}
    assert match(PRef("na"), SymKey(value=10), bound) is not None
    assert match(PSucc(PRef("na"), 1), Nonce(value=11), bound) is not None
    assert match(PSucc(PRef("na"), 1), succ(NA, 1), bound) is not None
    assert match(PSucc(PRef("na"), 1), Nonce(value=12), bound) is None


def test_ppair_does_not_flatten():
    triple = Pair(NA, Pair(NB, Atom(value=5, label="x")))
    got = match(PPair(PBind("head", "nonce"), PBind("rest", "any")),
                triple, {})
    assert got is not None
    assert got["rest"] == Pair(NB, Atom(value=5))
    assert match(plist(PBind("a", "any"), PBind("b", "any")), triple, {}) is None


def test_reinterpret_names_junk_decryptions():
    fake = Atom(value=77, label="M_fake")
    out = reinterpret(fake)
    assert isinstance(out, Nonce)
    assert out.label == "N_fake"
    assert out.value == 77


def test_reinterpret_junk_value_ignores_hash_seed():
    # a term holding an AgentId hashes differently under each hash seed
    code = ("from guardsim.agents import reinterpret; "
            "from guardsim.terms import AgentId, Nonce, Pair; "
            "print(reinterpret(Pair(AgentId('A'), Nonce(1))).value)")
    src = os.path.dirname(os.path.dirname(guardsim.__file__))
    values = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        values.add(out.stdout.strip())
    assert len(values) == 1


def test_minted_nonce_fits_its_width():
    mint = FreshMint(random.Random(0))
    for bits in (1, 4, 7, 8, 64):
        nonce = mint.mint(TFresh("n", label="N"), "A", bits)
        assert nonce.width == bits
        assert 0 <= nonce.value < 1 << bits


# -- honest session order ----------------------------------------------------

def send(msg):
    return SendStep(receiver="B", body=TConst(Nonce(value=msg, label=f"M{msg}")),
                    msg=msg)


def expect(msg):
    return ExpectStep(pattern=PBind(f"x{msg}", "nonce"), msg=msg)


def script(*steps):
    return RoleScript(name="r", steps=steps)


def test_interleaved_sessions_act_in_ascending_key_order():
    agent = HonestAgent("A", responder_scripts=[script(expect(1), send(2))])
    mint = FreshMint(random.Random(0))
    for steps in ((expect(1), send(2)), (send(1), expect(2)),
                  (expect(1), send(2)), (send(1), send(2))):
        agent.start_session(7, script(*steps))

    def polled():
        prop = agent.poll(mint, 64)
        return prop and prop.session_key

    def deliver(value, session=7):
        agent.deliver(Envelope(seq=value, claimed_sender="B",
                               body=Nonce(value=value, label="N"),
                               receiver="A", true_sender="B",
                               slot=Slot(session, 1)))
        return [(k, s.pc, s.status) for k, s in agent.sessions.items()]

    assert polled() == 2
    assert polled() == 2          # a losing proposal is offered again
    agent.commit_send(2)
    assert polled() == 4
    agent.commit_send(4)
    assert polled() == 4          # its next step is a send too
    # the lowest waiting session takes a body several of them accept
    assert deliver(50)[:3] == [(1, 1, "active"), (2, 1, "active"),
                               (3, 0, "active")]
    assert polled() == 1
    assert deliver(51)[1] == (2, 2, "complete")
    assert deliver(52)[2] == (3, 1, "active")
    assert [polled() for _ in range(2)] == [1, 1]
    agent.commit_send(1)
    assert polled() == 3
    with pytest.raises(ValueError):
        agent.commit_send(4)      # poll proposed session 3, not 4
    # nobody waits: a new body opens a responder session, keyed next
    assert deliver(53, session=8)[-1] == (5, 1, "active")
    # ... and its replay under the same label opens none
    assert len(deliver(53, session=8)) == 5
    agent.set_flag("abort")
    assert polled() is None
    before = deliver(54, session=9)
    assert [status for *_, status in before] == \
        ["complete", "complete", "aborted", "aborted", "aborted"]
    assert deliver(55) == before

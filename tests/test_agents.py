"""Spy rules, attack-function stepping and patterns."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import guardsim
from guardsim import agents
from guardsim.agents import (AEnc, ExpectStep, Enc, FreshMint, HonestAgent,
                             KIND_CHECKS, PBind, PPair, Ref, Inc, RoleScript,
                             SendStep, Seq, Const, TFresh, match, reinterpret,
                             seq)
from guardsim.network import Envelope, Slot
from guardsim.protocols import iso_sc27
from guardsim.protocols.iso_sc27 import classic_attack, make_attacker
from guardsim.terms import (AgentId, Atom, AsymEnc, AsymKey, Nonce, Pair,
                            Succ, SymEnc, SymKey, comm_enc, pair, pair_items,
                            succ, wire_view)

import oracles

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
    """Each row applies its step to its argument: an inject step renders
    its body as if its capture step had taken that message, whatever
    the attacker captured before."""
    e = make_attacker("E")
    assert e.attack_step(NA, 1) == ("Erase", None)
    e.bindings["n1"] = NA
    assert e.attack_step(NB, 2) == ("Injection", NB)
    ct = SymEnc(Pair(NA, NB), K)
    assert e.attack_step(ct, 3) == ("Erase", None)
    assert e.attack_step(ct, 4) == ("Injection", ct)
    assert e.attack_step(SymEnc(NA, K), 1) is None  # pattern mismatch
    assert e.attack_step(ct, 2) is None  # the capture takes only nonces


def test_steps_consumed_in_order():
    fn = classic_attack()
    kinds = [type(s).__name__ for s in fn.steps]
    assert kinds == ["EraseStep", "InjectStep"] * 3


def test_pattern_wire_level_value_checks():
    # a back-reference compares bits: a colliding key passes a nonce check
    bound = {"na": NA}
    assert match(Ref("na"), SymKey(value=10), bound) is not None
    assert match(Inc(Ref("na"), 1), Nonce(value=11), bound) is not None
    assert match(Inc(Ref("na"), 1), succ(NA, 1), bound) is not None
    assert match(Inc(Ref("na"), 1), Nonce(value=12), bound) is None


def test_ppair_does_not_flatten():
    triple = Pair(NA, Pair(NB, Atom(value=5, label="x")))
    got = match(PPair(PBind("head", "nonce"), PBind("rest", "any")),
                triple, {})
    assert got is not None
    assert got["rest"] == Pair(NB, Atom(value=5))
    assert match(seq(PBind("a", "any"), PBind("b", "any")), triple, {}) is None


def test_pbind_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="'bogus'.*known: any, nonce"):
        PBind("x", "bogus")


# -- match against the isinstance-chain oracle -------------------------------

def same_match(pattern, term, bindings):
    """`match` and the oracle agree: both raise the same error, or both
    give None, or both bind every name to the same subterm."""
    got = []
    for matcher in (match, oracles.match):
        try:
            got.append(matcher(pattern, term, dict(bindings)))
        except TypeError as exc:
            got.append(TypeError(str(exc)))
    ours, theirs = got
    if isinstance(ours, TypeError) or isinstance(theirs, TypeError):
        assert type(ours) is type(theirs) and str(ours) == str(theirs)
    elif ours is None or theirs is None:
        assert ours is theirs
    else:
        assert ours.keys() == theirs.keys()
        assert all(ours[name] is theirs[name] for name in ours)
    return ours


NAMES = ("x", "y", "z")
M_VALUES = st.integers(0, 3)
M_LEAVES = st.one_of(
    st.builds(Nonce, M_VALUES), st.builds(SymKey, M_VALUES),
    st.builds(Atom, M_VALUES), st.builds(AsymKey, M_VALUES, st.booleans()),
    st.builds(AgentId, st.sampled_from(["A", "B"])))
M_TERMS = st.recursive(
    M_LEAVES,
    lambda t: st.one_of(
        st.builds(Pair, t, t), st.builds(SymEnc, t, t),
        st.builds(AsymEnc, t, t), st.builds(succ, t, st.integers(1, 2)),
        st.builds(comm_enc, t, st.lists(st.builds(SymKey, M_VALUES),
                                        min_size=1, max_size=2))),
    max_leaves=6)


@st.composite
def pattern_for(draw, term, depth=3):
    """A pattern of any node kind, drawn to fit `term` more often than not:
    its own shape, its own value, or a name that may be bound earlier."""
    leaf = st.one_of(
        st.builds(PBind, st.sampled_from(NAMES)),
        st.builds(PBind, st.sampled_from(NAMES),
                  st.sampled_from(sorted(KIND_CHECKS))),
        st.builds(Const, st.just(term)),
        st.builds(Const, M_TERMS),
        st.builds(Ref, st.sampled_from(NAMES)))
    kinds = ["leaf"] * 4 + ["inc", "other"]
    if depth:
        kinds += {Pair: ["ppair", "seq"], SymEnc: ["enc", "aenc"],
                  AsymEnc: ["aenc", "enc"], Succ: ["inc"]}.get(type(term),
                                                                []) * 3
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf" or not depth:
        return draw(leaf)
    sub = lambda t: draw(pattern_for(t, depth - 1))
    if kind == "ppair":
        return PPair(sub(term.left), sub(term.right))
    if kind == "seq":
        items = [sub(t) for t in pair_items(term)]
        cut = draw(st.sampled_from([0, 0, -1, 1]))   # exact, short, long
        return Seq(tuple(items[:cut] if cut < 0 else items + [draw(leaf)] * cut))
    if kind in ("enc", "aenc"):
        node = Enc if kind == "enc" else AEnc
        if isinstance(term, (SymEnc, AsymEnc)):
            return node(sub(term.payload), sub(term.key))
        return node(draw(leaf), draw(leaf))
    if kind == "inc":
        offset = draw(st.integers(1, 2))
        if isinstance(term, Succ):
            return Inc(sub(term.base), draw(st.sampled_from([term.offset,
                                                             offset])))
        base = draw(st.one_of(leaf, st.builds(Const, st.just(
            Nonce(value=max(wire_view(term)[1] - offset, 0)))
            if wire_view(term)[0] == "leaf" else M_TERMS)))
        return Inc(base, offset)
    return draw(pattern_for(draw(M_TERMS), depth - 1))   # any node, any term


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_match_agrees_with_the_isinstance_oracle(data):
    term = data.draw(st.one_of(M_TERMS, st.builds(pair, M_TERMS, M_TERMS,
                                                  M_TERMS)))
    pattern = data.draw(pattern_for(term))
    bindings = data.draw(st.dictionaries(st.sampled_from(NAMES), M_TERMS,
                                         max_size=2))
    same_match(pattern, term, bindings)


NX = Nonce(value=5)
MATCH_CASES = {
    "inc-wire-fallback-ref": (Inc(Ref("n"), 2), Nonce(value=7), {"n": NX},
                              True),
    "inc-wire-fallback-const": (Inc(Const(NX), 1), SymKey(value=6), {}, True),
    "inc-wire-fallback-miss": (Inc(Ref("n"), 2), Nonce(value=8), {"n": NX},
                               False),
    "inc-unbound-base": (Inc(PBind("n"), 1), Nonce(value=6), {}, False),
    "ppair": (PPair(PBind("a", "nonce"), PBind("b", "any")),
              pair(NX, NA, NB), {}, True),
    "ppair-back-ref": (PPair(PBind("a", "nonce"), Ref("a")),
                       Pair(NX, SymKey(value=5)), {}, True),
    "ppair-on-a-leaf": (PPair(PBind("a"), PBind("b")), NX, {}, False),
    "seq-length-mismatch": (seq(PBind("a"), PBind("b")), pair(NX, NA, NB),
                            {}, False),
    "seq-exact": (seq(PBind("a"), PBind("b"), Const(NB)), pair(NX, NA, NB),
                  {}, True),
    "back-ref-bound-earlier": (seq(PBind("a", "nonce"), Ref("a")),
                               pair(NX, SymKey(value=5)), {}, True),
    "back-ref-mismatch": (seq(PBind("a", "nonce"), Ref("a")),
                          pair(NX, NA), {}, False),
    "enc-vs-asym": (Enc(PBind("p"), PBind("k")),
                    AsymEnc(NX, AsymKey(pair_id=1)), {}, False),
    "aenc": (AEnc(PBind("p"), Const(AsymKey(pair_id=1))),
             AsymEnc(NX, AsymKey(pair_id=1)), {}, True),
}


@pytest.mark.parametrize("pattern,term,bindings,matches",
                         MATCH_CASES.values(), ids=MATCH_CASES.keys())
def test_match_cases_agree_with_the_oracle(pattern, term, bindings, matches):
    assert (same_match(pattern, term, bindings) is not None) == matches


def test_match_rejects_a_template_node_like_the_oracle():
    for pattern in (TFresh("n"), seq(PBind("a"), TFresh("n"))):
        with pytest.raises(TypeError, match="not a pattern: TFresh"):
            match(pattern, pair(NX, NA), {})
        same_match(pattern, pair(NX, NA), {})


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
    return SendStep(receiver="B", body=Const(Nonce(value=msg, label=f"M{msg}")),
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
    agent.abort()
    assert polled() is None
    before = deliver(54, session=9)
    assert [status for *_, status in before] == \
        ["complete", "complete", "aborted", "aborted", "aborted"]
    assert deliver(55) == before


# -- the anchor index of waiting sessions ------------------------------------
#
# `deliver` must advance exactly the session a linear scan of the waiting
# sessions in ascending key order advances, or open the same responder
# session.  Values come from a tiny domain so that anchors collide.

NAMES = ("a", "b", "c")
NONCES = st.builds(Nonce, st.integers(0, 3))
LEAVES = st.one_of(
    NONCES, st.builds(SymKey, st.integers(0, 3)),
    st.builds(Atom, st.integers(0, 3)),
    st.sampled_from([AgentId("A"), AgentId("B")]),
    st.builds(AsymKey, st.integers(0, 1), st.booleans()))
TERMS = st.recursive(
    LEAVES | st.builds(Succ, NONCES, st.integers(1, 2)),
    lambda t: st.one_of(st.builds(Pair, t, t), st.builds(SymEnc, t, t),
                        st.builds(AsymEnc, t, t)), max_leaves=5)
PATTERNS = st.recursive(
    st.one_of(st.builds(Const, LEAVES), st.builds(Ref, st.sampled_from(NAMES)),
              st.builds(PBind, st.sampled_from(NAMES),
                        st.sampled_from(sorted(KIND_CHECKS)))),
    lambda p: st.one_of(
        st.lists(p, min_size=1, max_size=3).map(lambda xs: Seq(tuple(xs))),
        st.builds(PPair, p, p), st.builds(Enc, p, p), st.builds(AEnc, p, p),
        st.builds(Inc, p, st.integers(1, 2))), max_leaves=5)
BINDINGS = st.dictionaries(st.sampled_from(NAMES), LEAVES, min_size=2,
                           max_size=3)
KIND_VALUES = {   # what a PBind of each kind accepts, where a body has it
    "any": LEAVES, "leaf": LEAVES, "nonce": NONCES,
    "key": st.builds(SymKey, st.integers(0, 3)),
    "pubkey": st.builds(AsymKey, st.integers(0, 1), st.just(False)),
    "agent": st.sampled_from([AgentId("A"), AgentId("B")]),
    "symenc": st.builds(SymEnc, LEAVES, LEAVES), "commenc": LEAVES}


def fill(draw, pattern, bindings):
    """A body shaped by `pattern`, mostly one it accepts: a `Ref` gets its
    bound value or a successor over a leaf that wire-equals it.  Names
    are bound into `bindings` in `match` order, as `match` binds them."""
    if isinstance(pattern, Const):
        return pattern.term
    if isinstance(pattern, Ref):
        bound = bindings.get(pattern.name)
        if bound is None:
            return draw(LEAVES)
        if isinstance(bound, Nonce) and bound.value and draw(st.booleans()):
            return Succ(Nonce(bound.value - 1), 1)
        return bound
    if isinstance(pattern, PBind):
        bindings[pattern.name] = draw(KIND_VALUES[pattern.kind])
        return bindings[pattern.name]
    if isinstance(pattern, Seq):
        items = [fill(draw, p, bindings) for p in pattern.items]
        return pair(*items) if len(items) > 1 else items[0]
    if isinstance(pattern, PPair):
        return Pair(fill(draw, pattern.left, bindings),
                    fill(draw, pattern.right, bindings))
    if isinstance(pattern, (Enc, AEnc)):
        cls = SymEnc if isinstance(pattern, Enc) else AsymEnc
        key = fill(draw, pattern.key, bindings)
        return cls(fill(draw, pattern.payload, bindings), key)
    base = fill(draw, pattern.base, bindings)
    view = wire_view(base)
    if view[0] == "leaf" and draw(st.booleans()):   # the wire fallback
        return Nonce(view[1] + pattern.offset)
    return succ(base, pattern.offset)


def expect_script(draw):
    patterns = draw(st.lists(PATTERNS, min_size=1, max_size=2))
    return RoleScript(name="r", initial_bindings=draw(BINDINGS), steps=tuple(
        ExpectStep(p, msg=i + 1) for i, p in enumerate(patterns)))


def linear_deliver(model, responders, body):
    """The reference delivery: every waiting session in ascending key
    order, then the responder scripts.  `model` maps key -> [script, pc,
    bindings]; a session is waiting while pc < its step count."""
    for key in sorted(model):
        script, pc, bindings = model[key]
        if pc < len(script.steps):
            bound = match(script.steps[pc].pattern, body, bindings)
            if bound is not None:
                model[key] = [script, pc + 1, bound]
                return
    for script in responders:
        bound = match(script.steps[0].pattern, body,
                      dict(script.initial_bindings))
        if bound is not None:
            model[len(model) + 1] = [script, 1, bound]
            return


def observed(agent):
    return {k: [s.script, s.pc, s.bindings] for k, s in agent.sessions.items()}


def check_index(agent):
    """Every waiting session sits in exactly one bucket, nothing else."""
    filed = [k for bucket in agent._buckets.values() for k in bucket]
    assert sorted(filed) == sorted(agent._waiting)
    assert all(agent._buckets.values())


def deliver_body(agent, body, session):
    agent.deliver(Envelope(seq=session, claimed_sender="B", body=body,
                           receiver="A", true_sender="B",
                           slot=Slot(session, 1)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_indexed_delivery_matches_linear_scan(data):
    draw = data.draw
    waiting = [expect_script(draw) for _ in range(draw(st.integers(1, 6)))]
    responders = [expect_script(draw) for _ in range(draw(st.integers(0, 2)))]
    agent = HonestAgent("A", responder_scripts=responders)
    for script in waiting:
        agent.start_session(1, script)
    model = observed(agent)
    # fresh session labels per delivery keep the replay guard out of it
    for label in range(100, 100 + draw(st.integers(1, 4))):
        shapes = [(s.steps[pc].pattern, b) for s, pc, b in model.values()
                  if pc < len(s.steps)]
        shapes += [(s.steps[0].pattern, s.initial_bindings)
                   for s in responders]
        if shapes and draw(st.integers(0, 3)):
            pattern, bindings = draw(st.sampled_from(shapes))
            body = fill(draw, pattern, dict(bindings))
        else:
            body = draw(TERMS)
        linear_deliver(model, responders, body)
        deliver_body(agent, body, label)
        assert observed(agent) == model
        check_index(agent)
        assert sorted(agent._waiting) == sorted(
            k for k, (s, pc, _) in model.items() if pc < len(s.steps))
    agent.abort()
    assert agent._waiting == {} and agent._buckets == {} and not agent._paths
    deliver_body(agent, draw(TERMS), 200)
    assert observed(agent) == model


def test_lower_key_wins_a_shared_anchor():
    pattern = seq(Ref("n"), PBind("x", "nonce"))
    script = RoleScript(name="r", initial_bindings={"n": NA},
                        steps=(ExpectStep(pattern, 2), send(3)))
    agent = HonestAgent("A")
    for _ in range(3):
        agent.start_session(1, script)
    assert len(agent._buckets) == 1          # all three share one bucket
    deliver_body(agent, Pair(NA, NB), 5)
    assert [s.pc for s in agent.sessions.values()] == [1, 0, 0]
    assert 1 not in agent._waiting
    assert [sorted(b) for b in agent._buckets.values()] == [[2, 3]]
    deliver_body(agent, Pair(NA, NB), 6)
    assert [s.pc for s in agent.sessions.values()] == [1, 1, 0]


def test_successor_body_reaches_a_session_waiting_on_a_nonce():
    # N_A + 1 over the leaf N_A is on the wire the value bound as N_B
    waiting = RoleScript(name="r", initial_bindings={"nb": NB},
                         steps=(ExpectStep(Ref("nb"), 3),))
    agent = HonestAgent("A")
    agent.start_session(1, waiting)
    assert wire_view(succ(NA, 1)) == wire_view(NB)
    deliver_body(agent, succ(NA, 1), 5)
    assert agent.sessions[1].status == "complete"
    assert agent._waiting == {} and agent._buckets == {}


def test_anchor_paths():
    k = Const(K)
    assert ExpectStep(PBind("x"), 1).anchor is None
    assert ExpectStep(Inc(Ref("n"), 1), 1).anchor is None   # never in an Inc
    assert ExpectStep(Ref("n"), 1).anchor == ((), Ref("n"))
    # a Ref beats a Const that comes first in match order
    assert ExpectStep(Enc(seq(Ref("n"), PBind("x")), k), 1).anchor == \
        (((SymEnc, "payload"), (2, 0)), Ref("n"))
    assert ExpectStep(seq(Inc(Ref("n"), 1), k), 1).anchor == (((2, 1),), k)
    # a name the pattern binds itself pins no value when filed
    assert ExpectStep(PPair(PBind("n"), Ref("n")), 1).anchor is None


def test_deliveries_make_a_bounded_number_of_match_calls(monkeypatch):
    """An honest 200-session ISO-SC 27 run with the guardian on: a
    delivery tries only the sessions its body can belong to."""
    calls = {"match": 0, "deliver": 0}
    real_match, real_deliver = agents.match, HonestAgent.deliver

    def counted_match(*args):
        calls["match"] += 1
        return real_match(*args)

    def counted_deliver(self, env):
        calls["deliver"] += 1
        return real_deliver(self, env)

    monkeypatch.setattr(agents, "match", counted_match)
    monkeypatch.setattr(HonestAgent, "deliver", counted_deliver)
    wiring = iso_sc27.wire(kind="A", guardian=True, attack=None)
    wiring.initiators = [
        (agent, iso_sc27.initiator_script("B" if agent == "A" else "A"), i + 1)
        for i, agent in enumerate("AB" * 100)]
    result = wiring.simulator(seed=3, nonce_bits=64, max_rounds=1208).run()
    assert calls["deliver"] == 600
    assert sum(s.status == "complete" for agent in result.honest.values()
               for s in agent.sessions.values()) == 400
    assert result.guardian.interference_count == 0
    assert calls["match"] <= 8 * calls["deliver"]

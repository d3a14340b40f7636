"""Guardian modules: FSM discipline, invariants, windows, predicates."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from guardsim.agents import AttackFunction, Enc, PBind, Ref, match, seq
from guardsim.guardian import (Distinguisher, FakeSpec, Guardian,
                               GuardianFilter, GuardianStore,
                               Intercept, InterferencePlan, InvariantSpec,
                               is_defense_mechanism,
                               topological_advantage, verify_inverse)
from guardsim.montecarlo import monte_carlo_fp
from guardsim.network import Envelope, Slot
from guardsim.protocols.iso_sc27 import make_guardian, wire
from guardsim.protocols import builtin, builtin_names
from guardsim.terms import (AsymEnc, AsymKey, Atom, Nonce, Pair, SymEnc,
                            SymKey, comm_enc, pair_items, subterms)
from guardsim.topology import base_topology

import golden
from test_terms import LEAVES as DRAWN_LEAVES

K = SymKey(value=1, label="K_AB")
NA = Nonce(value=10, label="N_A")


def spied_env(body, claimed="B", receiver="A", true="E", seq=1):
    return Envelope(seq=seq, claimed_sender=claimed, body=body,
                    receiver=receiver, true_sender=true, slot=Slot(2, 1),
                    injected=True)


def test_identification_labels_protocol_messages():
    g = make_guardian()
    g.process(spied_env(NA))
    assert g.store.labeled_terms("P") == [NA]
    assert g.ident_fsm_log[:3] == ["delta", "lambda", "delta"]


def test_identification_forwards_foreign_messages():
    g = make_guardian()
    foreign = Pair(NA, NA)  # not a protocol shape for the nonce handshake
    g.process(spied_env(foreign))
    assert g.store.labeled_terms("P") == []
    assert g.ident_fsm_log[:3] == ["delta", "phi", "delta"]
    # stored anyway: spy permanence
    assert len(g.store.entries) == 1


def test_control_first_critical_with_empty_history_forwards():
    g = make_guardian()
    fired = g.process(spied_env(NA))
    assert not fired
    row = g.module_log[-1]
    assert (row.ident, row.crit, row.inv) == (1, 1, 0)


def test_control_replay_detected_and_fsm_path():
    g = make_guardian()
    g.process(spied_env(NA, seq=1))
    fired = g.process(spied_env(NA, seq=2))
    assert fired
    assert g.module_log[-1].inv == 1
    assert g.control_fsm_log[-3:] == ["iota", "rho", "delta"]
    assert g.interference_count == 1


def test_critical_subset_of_labeled():
    g = make_guardian()
    g.process(spied_env(NA, seq=1))
    g.process(spied_env(SymEnc(Pair(NA, NA), K), seq=2))
    critical = set(map(str, g.store.labeled_terms("critical")))
    labeled = set(map(str, g.store.labeled_terms("P")))
    assert critical <= labeled


def test_windowed_invariant_slides_forward():
    inv = InvariantSpec("replay-equality")
    g = Guardian(name="G",
                 filters=(GuardianFilter("inflow", "A", control=True),),
                 ident=Distinguisher(rules=(PBind("x", "nonce"),)),
                 crit=Distinguisher(rules=(PBind("x", "nonce"),)),
                 invariant=inv, plan=InterferencePlan(responses=(Intercept(stop_note=True),)),
                 window=2)
    g.process(spied_env(NA, seq=1))
    # push the original out of the two-revision window
    g.process(spied_env(Nonce(value=50, label="N_1"), seq=2))
    g.process(spied_env(Nonce(value=51, label="N_2"), seq=3))
    fired = g.process(spied_env(NA, seq=4))
    assert not fired  # too old: outside the window
    fired = g.process(spied_env(NA, seq=5))
    assert fired      # the re-spied copy refreshed the entry


def test_fake_values_distinct_from_dataset():
    g = make_guardian()
    g.process(spied_env(NA, seq=1))
    fake = g.mint_fake(FakeSpec(label="N_fake", kind="nonce"))
    assert all(fake.value != e.term.value
               for e in g.store.entries.values()
               if hasattr(e.term, "value"))
    assert fake.label == "N_fake"


def test_plan_expands_into_concrete_actions():
    from guardsim.agents import Ref
    from guardsim.guardian import RaiseAbortFlag, SendFake
    from guardsim.network import Erase, Inject, ResilientSignal
    from guardsim.terms import wire_view

    g = make_guardian()
    g.plan = InterferencePlan(responses=(
        Intercept(stop_note=True),
        SendFake(mask="claimed", fake=FakeSpec(label="N_fake", kind="nonce")),
        SendFake(mask="AS", receiver="AS", template=Ref("captured"),
                 label="6"),
        RaiseAbortFlag(target="A", label="2.2", style="raise"),
    ))
    g.process(spied_env(NA, seq=1))
    replay = spied_env(NA, seq=2)
    assert g.process(replay)
    erase, fake, forward, signal = g.pending
    assert erase == Erase(actor="G", target_seq=2, rank=0, stop_note=True)
    assert isinstance(fake, Inject)
    assert (fake.actor, fake.claimed, fake.receiver, fake.slot, fake.rank) \
        == ("G", "B", "A", Slot(2, 1, 0, 1), 0)
    assert fake.body.label == "N_fake"
    assert wire_view(fake.body) not in g.store.entries
    assert forward == Inject(actor="G", claimed="AS", body=NA, receiver="AS",
                             slot=Slot(2, 6), rank=0)
    assert signal == ResilientSignal(guardian="G", target="A", label="2.2",
                                     style="raise")
    # the queue hands out the actions themselves, unchanged until applied
    assert g.propose({2: replay}) is erase
    g.committed(erase)
    assert g.propose({}) is fake and g.propose({}) is fake


def test_send_fake_with_nothing_to_send_refused():
    # with neither a template nor a fake there is no body to inject; the
    # plan is refused when it is written, not when it first fires
    from guardsim.guardian import SendFake
    with pytest.raises(ValueError, match="'A'"):
        SendFake(mask="A")


def test_unknown_invariant_refused_when_written():
    # a typo is refused at construction, not at the first critical message
    with pytest.raises(ValueError, match="'bogus'.*known: replay-equality, "
                                         "windowed-freshness, "
                                         "cross-request-mismatch"):
        InvariantSpec("bogus")


def test_cross_request_invariant_needs_its_request_pattern():
    with pytest.raises(ValueError, match="'request_pattern'"):
        InvariantSpec("cross-request-mismatch")
    with pytest.raises(ValueError, match="'request_pattern'"):
        InvariantSpec("cross-request-mismatch", params={"pattern": None})


EMPTY_VERDICTS = [
    ("replay-equality", {}, 0),
    ("replay-equality", {"component": True}, 0),
    ("windowed-freshness", {}, 1),
    ("cross-request-mismatch",
     {"request_pattern": seq(PBind("p"), PBind("q"))}, 0),
]


@pytest.mark.parametrize("name,params,verdict", EMPTY_VERDICTS)
def test_invariant_over_an_empty_dataset(name, params, verdict):
    spec = InvariantSpec(name, params=params)
    m = Pair(NA, Nonce(value=11))
    entries = spec.candidates(m, GuardianStore())
    assert len(entries) == 0
    assert spec.evaluate(m, entries, Distinguisher(rules=(PBind("x"),)),
                         None, 1) == verdict


def test_topological_advantage_examples():
    topo_a = base_topology("A", honest=("A", "B"))
    topo_b = base_topology("B", honest=("A", "B"))
    assert topological_advantage(topo_a, "G", "A", (("A", "B"),), ["E"])
    assert not topological_advantage(topo_b, "G", "A", (("A", "B"),), ["E"])
    with pytest.raises(ValueError):
        topological_advantage(topo_a, "G", "Z", (("A", "B"),), ["E"])


def unguarded_run(name, attack, kind=None, seed=0, function=None):
    w = builtin(name).wire(kind=kind, guardian=False, attack=attack)
    if function is not None:
        w.attackers[0].function = function
    return w.simulator(seed=seed).run()


def test_defense_mechanism_tri_state():
    topo_a = base_topology("A", honest=("A", "B"))
    topo_b = base_topology("B", honest=("A", "B"))
    runs = [unguarded_run("iso-sc-27", "classic")]
    assert is_defense_mechanism(topo_a, "G", "A", (("A", "B"),), ["E"],
                                runs) is True
    assert is_defense_mechanism(topo_b, "G", "A", (("A", "B"),), ["E"],
                                runs) is False
    # an attack that never made its injections leaves the inverse unknown
    runs.append(unguarded_run("bme-fixed", "trace-2", kind="C"))
    assert is_defense_mechanism(topo_a, "G", "A", (("A", "B"),), ["E"],
                                runs) == "inverse unknown"


@pytest.mark.parametrize("name,attack", [
    (name, attack) for name in builtin_names()
    for attack in builtin(name).attack_names])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_attack_inverts_on_its_own_run(name, attack, seed):
    assert verify_inverse(unguarded_run(name, attack, seed=seed)) is True


def test_key_only_forgery_does_not_invert():
    """A forgery that keeps only the captured ciphertext's key names
    every honest message under that key: three of A's messages under R
    give the same forgery, so no inverse names the original."""
    steps = list(builtin("eke").attacks["classic"].function().steps)
    steps[-2] = replace(steps[-2], pattern=Enc(PBind("p5", "any"),
                                               PBind("k5", "any")))
    steps[-1] = replace(steps[-1], body=Ref("k5"))
    run = unguarded_run("eke", "classic",
                        function=AttackFunction("eke-key", tuple(steps)))
    assert verify_inverse(run) is False


def test_inverse_unknown_when_the_run_makes_too_few_injections():
    # on C, E has no station on the A-S channel: it never sees the reply
    run = unguarded_run("bme-fixed", "trace-2", kind="C")
    assert not [ev for ev in run.network.history if ev.kind == "inject"]
    assert verify_inverse(run) == "inverse unknown"


def test_each_attack_is_judged_by_its_own_function():
    """Otway-Rees trace-2's forgery is no image of trace-1's function on
    that run's traffic."""
    run = unguarded_run("otway-rees", "trace-2")
    assert verify_inverse(run) is True
    run.attackers[0].function = \
        builtin("otway-rees").attacks["trace-1"].function()
    assert verify_inverse(run) is False


def test_resilient_signal_requires_link_and_guardian():
    from guardsim.network import ResilientSignal
    from guardsim.topology import ConfigError
    wiring = wire(guardian=True, attack=None)
    sim = wiring.simulator(seed=0)
    with pytest.raises(ConfigError):
        sim._apply_signal(ResilientSignal(guardian="E", target="A", label="x"))
    with pytest.raises(ConfigError):
        sim._apply_signal(ResilientSignal(guardian="G", target="B", label="x"))
    # a valid signal on an idle agent just stores the flag
    sim._apply_signal(ResilientSignal(guardian="G", target="A", label="x"))
    assert sim.honest["A"].aborted


# -- the candidate lookup judges like a scan of all of D_G -------------------

# leaves whose values collide on the wire under different kinds and labels
LEAVES = ([Nonce(value=v, label=f"N{v}") for v in range(4)]
          + [Atom(value=2, label="M2"), SymKey(value=3, label="K3")])
KEYS = [SymKey(value=1, label="K1"), SymKey(value=9, label="K9")]
UNUSED_KEY = SymKey(value=7, label="K7")
SOURCES = [("inflow", "A"), ("outflow", "A"), ("own", "G")]


@st.composite
def terms(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(LEAVES))
    kind = draw(st.sampled_from(("pair", "senc", "aenc", "cenc")))
    inner = draw(terms(depth - 1))
    if kind == "pair":
        return Pair(inner, draw(terms(depth - 1)))
    if kind == "senc":
        return SymEnc(inner, draw(st.sampled_from(KEYS)))
    if kind == "aenc":
        return AsymEnc(inner, AsymKey(pair_id=4, label="K_X"))
    return comm_enc(inner, draw(st.lists(st.sampled_from(KEYS), min_size=1,
                                         max_size=2)))


@st.composite
def scenes(draw):
    """A store and a message built from one small pool of terms; the
    message is often a stored term, the last item of a stored term
    paired with a leaf, or a piece of a stored term behind an encryption
    no entry holds, so that every invariant both fires and stays
    quiet."""
    pool = draw(st.lists(terms(depth=1), min_size=1, max_size=4))

    def combined():
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        shape = draw(st.sampled_from(("bare", "pair", "senc", "both",
                                      "two-encs")))
        if shape == "bare":
            return a
        if shape == "pair":
            return Pair(a, b)
        enc = SymEnc(a, draw(st.sampled_from(KEYS)))
        if shape == "senc":
            return enc
        if shape == "both":
            return Pair(b, enc)
        return Pair(SymEnc(b, draw(st.sampled_from(KEYS))), enc)

    store = GuardianStore()
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        labels = draw(st.sets(st.sampled_from(("P", "critical"))))
        store.add(combined(), labels,
                  source=draw(st.sampled_from(SOURCES + [None])))
    # the invariants judge only P-labelled entries
    stored = [e.term for e in store.entries.values() if "P" in e.labels]
    derived = draw(st.sampled_from(("fresh", "stored", "swap", "embed"))
                   if stored else st.just("fresh"))
    if derived == "fresh":
        return store, combined()
    prior = draw(st.sampled_from(stored))
    if derived == "stored":
        return store, prior
    if derived == "swap":
        return store, Pair(pair_items(prior)[-1], draw(st.sampled_from(LEAVES)))
    # an encryption no entry holds, then a piece of a stored term
    part = draw(st.sampled_from(list(subterms(prior))))
    return store, Pair(SymEnc(draw(st.sampled_from(pool)), UNUSED_KEY), part)


INVARIANTS = {
    "replay": InvariantSpec("replay-equality"),
    "replay-component": InvariantSpec("replay-equality",
                                      params={"component": True}),
    "freshness": InvariantSpec("windowed-freshness"),
    "cross-request": InvariantSpec("cross-request-mismatch", params={
        "request_pattern": seq(PBind("p", "any"), PBind("q", "any"))}),
}
INVARIANTS.update({
    f"freshness-{direction}-{agent}": InvariantSpec(
        "windowed-freshness", params={"source": (direction, agent)})
    for direction, agent in SOURCES})


@pytest.mark.parametrize("spec", INVARIANTS.values(), ids=INVARIANTS.keys())
@settings(max_examples=100, deadline=None)
@given(scene=scenes(),
       window=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
       crit_kind=st.sampled_from(("nonce", "any")))
def test_candidates_judge_like_the_whole_dataset(spec, scene, window,
                                                 crit_kind):
    store, m = scene
    crit = Distinguisher(rules=(PBind("x", crit_kind),))
    rev = store.revision + 1
    assert spec.evaluate(m, spec.candidates(m, store), crit, window, rev) == \
        spec.evaluate(m, list(store.entries.values()), crit, window, rev)


# -- the read path costs O(1) per critical message ---------------------------

class CountingDistinguisher(Distinguisher):
    calls = 0

    def __call__(self, m):
        self.calls += 1
        return super().__call__(m)


def test_critical_replay_checks_at_most_one_entry():
    g = make_guardian()
    g.crit = CountingDistinguisher(g.crit.rules)
    for v in range(1024):
        g.store.add(Nonce(value=v, width=12, label="N"), {"P", "critical"})
    assert g.process(spied_env(Nonce(value=700, width=12, label="N_B")))
    assert g.crit.calls <= 2


def test_monte_carlo_trial_passes_at_most_one_entry(monkeypatch):
    sizes = []
    evaluate = InvariantSpec.evaluate

    def counting(self, m, entries, *rest):
        sizes.append(len(entries))
        return evaluate(self, m, entries, *rest)

    monkeypatch.setattr(InvariantSpec, "evaluate", counting)
    est = monte_carlo_fp(nonce_bits=8, dataset_size=128, trials=200, seed=1)
    assert len(sizes) == 200 and max(sizes) <= 1
    assert sum(sizes) == est.hits


# -- compiled distinguisher rules give match's verdicts ----------------------

def golden_bodies():
    """Every body on the network in the runs tests/golden.py digests."""
    bodies = {ev.env.body for _, result in golden.golden_runs()
              if result is not None
              for ev in result.network.history if ev.env is not None}
    return sorted(bodies, key=repr)


GOLDEN_BODIES = golden_bodies()
DISTINGUISHERS = [d for name in builtin_names()
                  for kind in builtin(name).applicable_kinds()
                  for g in (builtin(name).wire(kind=kind).guardian,)
                  for d in (g.ident, g.crit)]
# terms built over the golden bodies' subterms and drawn leaves, so that
# the studies' structural rules both match and fail
BUILT = st.recursive(
    st.one_of(st.sampled_from(sorted({t for m in GOLDEN_BODIES
                                      for t in subterms(m)}, key=repr)),
              DRAWN_LEAVES),
    lambda t: st.one_of(st.builds(Pair, t, t), st.builds(SymEnc, t, t),
                        st.builds(AsymEnc, t, t)),
    max_leaves=6)


def check_compiled(d, m):
    verdicts = [match(rule, m, {}) is not None for rule in d.rules]
    assert [check(m) for check in d.checks] == verdicts, (d.rules, m)
    assert d(m) == any(verdicts)
    return any(verdicts)


def test_compiled_rules_match_on_every_golden_body():
    fired = sum(check_compiled(d, m)
                for d in DISTINGUISHERS for m in GOLDEN_BODIES)
    assert 0 < fired < len(DISTINGUISHERS) * len(GOLDEN_BODIES)


@settings(max_examples=300, deadline=None)
@given(BUILT)
def test_compiled_rules_match_on_drawn_terms(t):
    for d in DISTINGUISHERS:
        check_compiled(d, t)


def test_structural_rules_call_match_through_the_guardian_module(
        monkeypatch):
    # the benchmark tracer patches `guardian.match`; a bare PBind needs
    # no match call, any other rule makes one
    from guardsim import guardian
    calls = []
    monkeypatch.setattr(guardian, "match",
                        lambda *a: calls.append(a[0]) or match(*a))
    rule = seq(PBind("x"), PBind("y"))
    d = Distinguisher([PBind("n", "nonce"), rule])
    assert d(Pair(K, K)) == 1 and calls == [rule]
    assert d(NA) == 1 and calls == [rule]

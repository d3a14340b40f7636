"""Guardian modules: FSM discipline, invariants, windows, predicates."""

import pytest
from hypothesis import given, settings, strategies as st

from guardsim.agents import PBind, plist
from guardsim.guardian import (Distinguisher, FakeSpec, Guardian,
                               GuardianFilter, GuardianStore,
                               InterferencePlan, InvariantSpec, StopMessage,
                               is_defense_mechanism,
                               topological_advantage, verify_inverse)
from guardsim.montecarlo import monte_carlo_fp
from guardsim.network import Envelope, Slot
from guardsim.protocols.iso_sc27 import classic_attack, make_guardian, wire
from guardsim.protocols import builtin
from guardsim.terms import (AsymEnc, AsymKey, Atom, Nonce, Pair, SymEnc,
                            SymKey, comm_enc, pair_items, subterms)
from guardsim.topology import base_topology

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
                 ident=Distinguisher("d", rules=(__import__(
                     "guardsim.agents", fromlist=["PBind"]).PBind("x", "nonce"),)),
                 crit=Distinguisher("c", rules=(__import__(
                     "guardsim.agents", fromlist=["PBind"]).PBind("x", "nonce"),)),
                 invariant=inv, plan=InterferencePlan(responses=(StopMessage(),)),
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


def test_topological_advantage_examples():
    topo_a = base_topology("A", honest=("A", "B"))
    topo_b = base_topology("B", honest=("A", "B"))
    assert topological_advantage(topo_a, "G", "A", (("A", "B"),), ["E"])
    assert not topological_advantage(topo_b, "G", "A", (("A", "B"),), ["E"])
    with pytest.raises(ValueError):
        topological_advantage(topo_a, "G", "Z", (("A", "B"),), ["E"])


def test_defense_mechanism_tri_state():
    topo_a = base_topology("A", honest=("A", "B"))
    topo_b = base_topology("B", honest=("A", "B"))
    fn = classic_attack()
    assert is_defense_mechanism(topo_a, "G", "A", (("A", "B"),), ["E"], fn) is True
    assert is_defense_mechanism(topo_b, "G", "A", (("A", "B"),), ["E"], fn) is False
    # an attack with a non-replay injection and no registered inverse
    from guardsim.agents import AttackFunction, InjectStep, TConst
    odd = AttackFunction(name="odd", steps=(
        InjectStep(body=TConst(NA), claimed="B", receiver="A",
                   slot=Slot(2, 1)),))
    assert is_defense_mechanism(topo_a, "G", "A", (("A", "B"),), ["E"], odd) \
        == "inverse unknown"


def test_verify_inverse_identity_for_replays():
    assert verify_inverse(classic_attack()) is True


def test_registered_inverse_samples_verified():
    case = builtin("otway-rees")
    fn = case.attacks["trace-1"].function()
    assert verify_inverse(fn, case.inverse_table, case.inverse_samples) is True
    case2 = builtin("splice-as")
    fn2 = case2.attacks["classic"].function()
    assert verify_inverse(fn2, case2.inverse_table, case2.inverse_samples) is True


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
    assert sim.honest["A"].flags["abort"]


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
        "request_pattern": plist(PBind("p", "any"), PBind("q", "any"))}),
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
    crit = Distinguisher("c", rules=(PBind("x", crit_kind),))
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
    g.crit = CountingDistinguisher(g.crit.name, g.crit.rules)
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
    est = monte_carlo_fp(nonce_bits=8, dataset_size=128, trials=200, seed=1,
                         warm_with_run=False)
    assert len(sizes) == 200 and max(sizes) <= 1
    assert sum(sizes) == est.hits

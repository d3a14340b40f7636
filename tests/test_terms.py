"""Term construction, normalization, equality and rendering, and the
wire views and hashes that terms keep."""

import copy
import dataclasses
import gc
import inspect
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from guardsim import terms
from guardsim.terms import (AgentId, AsymEnc, AsymKey, Atom, CommEnc,
                            Lifetime, Nonce, Pair, Password, Succ, SymEnc,
                            SymKey, TermError, Timestamp, comm_enc,
                            comm_strip, inverse_key, pair, pair_items, render,
                            subterms, succ, wire_eq, wire_view)

import oracles

K = SymKey(value=1, label="K_AB")
NA = Nonce(value=10, label="N_A")
NB = Nonce(value=11, label="N_B")


def test_structural_equality_ignores_labels():
    assert Nonce(value=10, label="N_A") == Nonce(value=10, label="whatever")
    assert Nonce(value=10) != Nonce(value=11)
    assert SymKey(value=10) != Nonce(value=10)  # kinds stay distinct


def test_comm_enc_empty_keys_is_payload():
    assert comm_enc(NA, []) == NA


def test_comm_enc_merges_layers_commutatively():
    ka, kb = SymKey(value=2, label="K_A"), SymKey(value=3, label="K_B")
    nested = comm_enc(comm_enc(NA, [ka]), [kb])
    flat = comm_enc(NA, [kb, ka])
    assert nested == flat
    assert comm_strip(nested, ka) == comm_enc(NA, [kb])


def test_succ_normalization():
    assert succ(succ(NA, 2), 3) == succ(NA, 5)
    assert succ(NA, 0) == NA
    assert isinstance(succ(NA, 1), Succ)


def test_pair_chain_flattening():
    chain = pair(NA, NB, AgentId("A"))
    assert pair_items(chain) == [NA, NB, AgentId("A")]


def test_inverse_key():
    assert inverse_key(K) == K
    assert inverse_key(Password(value=5, label="P")) == Password(value=5)
    pub = AsymKey(pair_id=7, private=False, label="K_A")
    assert inverse_key(pub) == AsymKey(pair_id=7, private=True)
    assert inverse_key(inverse_key(pub)) == pub
    with pytest.raises(TermError):
        inverse_key(Pair(NA, NB))


def test_rendering_canonical_forms():
    assert render(SymEnc(pair(NA, NB), K)) == "{|N_A,N_B|}K_AB"
    assert render(AsymEnc(NA, AsymKey(pair_id=7, private=True, label="K_A"))) \
        == "{N_A}K_A^-1"
    ka, kb = SymKey(value=2, label="K_A"), SymKey(value=3, label="K_B")
    assert render(comm_enc(Atom(value=9, label="M"), [ka, kb])) == "{M}[K_A,K_B]"
    assert render(succ(NA, 1)) == "N_A+1"
    assert render(pair(AgentId("A"), AgentId("B"), NA)) == "A,B,N_A"


def test_rendering_left_nested_pairs_parenthesized():
    t = Pair(Pair(NA, NB), AgentId("A"))
    assert render(t) == "(N_A,N_B),A"


def test_wire_equality_collapses_leaf_kinds():
    # same bits, different symbolic kind: indistinguishable on the wire
    assert wire_eq(SymKey(value=11), succ(NA, 1))
    assert wire_eq(Nonce(value=11), NB)
    assert not wire_eq(NA, NB)
    assert not wire_eq(Pair(NA, NB), NA)
    # structure is preserved
    assert not wire_eq(SymEnc(NA, K), AsymEnc(NA, K))


def test_subterms_and_wire_view_stability():
    t = SymEnc(pair(NA, NB), K)
    subs = list(subterms(t))
    assert NA in subs and K in subs and t in subs
    assert wire_view(t) == wire_view(SymEnc(Pair(NA, NB), K))


LABELS = st.sampled_from(["x", "N_A", "K'"])
VALUES = st.integers(0, 3)
LEAVES = st.one_of(
    st.builds(Nonce, VALUES, st.sampled_from([8, 64]), LABELS),
    st.builds(SymKey, VALUES, LABELS), st.builds(Atom, VALUES, LABELS),
    st.builds(Password, VALUES, LABELS), st.builds(Timestamp, VALUES, LABELS),
    st.builds(Lifetime, VALUES, LABELS),
    st.builds(AsymKey, VALUES, st.booleans(), LABELS),
    st.builds(AgentId, st.sampled_from(["A", "B"])))
TERMS = st.recursive(
    LEAVES,
    lambda t: st.one_of(
        st.builds(Pair, t, t), st.builds(SymEnc, t, t),
        st.builds(AsymEnc, t, t), st.builds(succ, t, st.integers(1, 2)),
        st.builds(comm_enc, t, st.lists(st.builds(SymKey, VALUES, LABELS),
                                        min_size=1, max_size=3))),
    max_leaves=8)


def compared_fields(t):
    return tuple(getattr(t, f.name) for f in dataclasses.fields(t)
                 if f.compare)


def relabel(t, label):
    """`t` rebuilt with every label replaced: an equal term."""
    changes = {}
    for f in dataclasses.fields(t):
        value = getattr(t, f.name)
        if not f.init:
            continue   # a composite's kept view
        if f.name == "label":
            changes["label"] = label
        elif isinstance(value, tuple):
            changes[f.name] = tuple(relabel(v, label) for v in value)
        elif dataclasses.is_dataclass(value):
            changes[f.name] = relabel(value, label)
    return dataclasses.replace(t, **changes)


@settings(max_examples=200, deadline=None)
@given(TERMS)
def test_hash_is_the_dataclass_hash_of_the_compared_fields(t):
    for _ in range(2):   # built, then kept
        assert hash(t) == hash(compared_fields(t))
        for sub in subterms(t):
            assert hash(sub) == hash(compared_fields(sub))


@settings(max_examples=200, deadline=None)
@given(TERMS)
def test_wire_view_matches_the_uncached_walk(t):
    for _ in range(2):
        assert wire_view(t) == oracles.wire_view(t)
    # each subterm keeps the view its parent's walk built
    for sub in subterms(t):
        assert wire_view(sub) == oracles.wire_view(sub)


@settings(max_examples=100, deadline=None)
@given(TERMS, LABELS)
def test_relabelled_terms_share_hash_and_wire_view(t, label):
    wire_view(t)
    other = relabel(t, label)
    assert other == t
    assert hash(other) == hash(t)
    assert wire_view(other) == wire_view(t)


# one instance of each of the 13 term classes, by its init arguments
EXAMPLES = {
    Atom: (4, "M"), AgentId: ("A",), Nonce: (10, 8, "N_A"),
    SymKey: (1, "K_AB"), AsymKey: (2, True, "K_B"), Password: (3, "P_A"),
    Pair: (NA, NB), SymEnc: (NA, K), AsymEnc: (NA, AsymKey(2)),
    CommEnc: (NA, (K, SymKey(5))), Succ: (NA, 2), Timestamp: (7, "T_A"),
    Lifetime: (9, "L"),
}


@pytest.mark.parametrize("t", [
    *(cls(*args) for cls, args in EXAMPLES.items()),
    *(Succ(Succ(cls(*EXAMPLES[cls]), 1), 2) for cls in terms.LEAF_TYPES)],
    ids=repr)
def test_wire_view_of_each_term_class_matches_the_oracle(t):
    # every class, and a Succ kept over a Succ over each leaf class
    for _ in range(2):
        assert wire_view(t) == oracles.wire_view(t)


def dataclass_twin(cls):
    """A plain frozen dataclass with `cls`'s fields, whose `__init__` is
    the one `dataclasses` generates."""
    spec = [(f.name, f.type, dataclasses.field(default=f.default,
                                                init=f.init))
            for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def test_examples_cover_every_term_class():
    assert set(EXAMPLES) == set(terms.Term.__args__)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
def test_constructor_keeps_the_dataclass_signature(cls):
    twin = dataclass_twin(cls)
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
    assert inspect.signature(cls) == inspect.signature(twin)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
def test_constructor_fills_every_slot(cls):
    args = EXAMPLES[cls]
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    positional, keyword = cls(*args), cls(**dict(zip(names, args)))
    assert positional == keyword and hash(positional) == hash(keyword)
    assert [getattr(keyword, n) for n in names] == list(args)
    assert positional._wire is None   # a composite's view is not kept yet
    if "_wire" in {f.name for f in dataclasses.fields(cls)}:
        wire_view(positional)
        assert positional._wire == oracles.wire_view(positional)
    for name in names + ["_wire"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(positional, name, getattr(positional, name))
    assert dataclasses.replace(keyword) == keyword
    assert copy.copy(keyword) == keyword
    assert pickle.loads(pickle.dumps(keyword)) == keyword


def test_cached_fields_are_not_compared_or_shown():
    t = SymEnc(pair(NA, NB), K)
    before = repr(t)
    wire_view(t), hash(t)
    assert repr(t) == before and "_wire" not in before
    assert t == SymEnc(pair(NA, NB), K)
    assert [f.name for f in dataclasses.fields(CommEnc) if f.compare] \
        == ["payload", "keys"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.payload = NA
    with pytest.raises(dataclasses.FrozenInstanceError):
        del NA.value


@pytest.mark.parametrize("bad", [5, "N_A", None, (NA,), Pair(NA, 3)])
def test_wire_view_of_a_non_term_raises(bad):
    with pytest.raises(TermError):
        wire_view(bad)


KINDS = (Atom, AgentId, Nonce, SymKey, AsymKey, Password, Pair, SymEnc,
         AsymEnc, CommEnc, Succ, Timestamp, Lifetime)
COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda t: pickle.loads(pickle.dumps(t)),
          "replace": dataclasses.replace}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("hashed", [False, True])
def test_copies_are_equal_and_keep_no_hash_or_view(how, hashed):
    leaf = Nonce(value=7, width=8, label="N_C")
    composite = comm_enc(Pair(leaf, AgentId("A")), [K])
    for t in (leaf, composite):
        if hashed:
            hash(t), wire_view(t)
            assert t._hash == hash(compared_fields(t))   # kept
        other = COPIES[how](t)
        assert other == t and repr(other) == repr(t)
        assert getattr(other, "_hash", None) is None
        assert getattr(other, "_wire", None) is None
        assert hash(other) == hash(compared_fields(t)) == hash(t)
        assert wire_view(other) == wire_view(t)


SRC = str(Path(terms.__file__).resolve().parents[1])
DUMP = """
import pickle, sys
from guardsim.terms import AgentId, Pair
t = Pair(AgentId("A"), AgentId("B"))
hash(t), hash(t.left)
sys.stdout.write(pickle.dumps(t).hex())
"""
LOAD = """
import pickle, sys
from guardsim.terms import AgentId, Pair
t = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = Pair(AgentId("A"), AgentId("B"))
assert t == fresh, t
assert t in {fresh} and t.left in {fresh.left}
assert hash(t) == hash(fresh)
"""


def test_a_pickled_term_hashes_afresh_under_another_hash_seed():
    def python(code, seed, stdin=None):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
        run = subprocess.run([sys.executable, "-c", code], input=stdin,
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return run.stdout
    python(LOAD, 2, stdin=python(DUMP, 1))


def test_each_term_kind_has_one_live_class():
    """dataclass(slots=True) replaces each class; the one it replaced
    must not stay alive."""
    gc.collect()
    live = Counter(o.__qualname__ for o in gc.get_objects()
                   if isinstance(o, type) and o.__module__ == terms.__name__)
    assert {kind.__name__: live[kind.__name__] for kind in KINDS} \
        == {kind.__name__: 1 for kind in KINDS}

"""Derivability, analysis fixpoint, revisions, and oracle agreement."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from guardsim.knowledge import KnowledgeSet, analyze, analyze_terms, derivable
from guardsim.terms import (AsymEnc, AsymKey, Atom, Nonce, Pair,
                            Password, SymEnc, SymKey, comm_enc,
                            inverse_key, succ)

from oracles import closure_oracle, frontier_analyze

M = Atom(value=1, label="m")
K = SymKey(value=2, label="k")
NA = Nonce(value=3, label="N_A")
NB = Nonce(value=4, label="N_B")
KA = SymKey(value=5, label="K_A")
KB = SymKey(value=6, label="K_B")


def test_decryption_with_symmetric_key():
    ks = KnowledgeSet([SymEnc(M, K), K])
    assert derivable(ks, M)


def test_membership_is_derivable():
    assert derivable(KnowledgeSet([M]), M)


def test_projection():
    assert derivable(KnowledgeSet([Pair(NA, NB)]), NB)


def test_commutative_peel():
    ks = KnowledgeSet([comm_enc(M, [KA, KB]), inverse_key(KA)])
    goal = comm_enc(M, [KB])
    assert derivable(ks, goal)
    assert closure_oracle(ks.items, goal)


def test_commutativity_of_key_multiset():
    goal = comm_enc(M, [KB])
    ks1 = KnowledgeSet([comm_enc(M, [KA, KB]), inverse_key(KA)])
    ks2 = KnowledgeSet([comm_enc(M, [KB, KA]), inverse_key(KA)])
    assert derivable(ks1, goal) == derivable(ks2, goal)


def test_no_key_no_decryption():
    ks = KnowledgeSet([SymEnc(M, K)])
    assert not derivable(ks, M)


def test_asymmetric_polarity():
    pub = AsymKey(pair_id=9, private=False, label="K_A")
    ks = KnowledgeSet([AsymEnc(M, pub)])
    assert not derivable(ks, M)
    ks2 = KnowledgeSet([AsymEnc(M, pub), inverse_key(pub)])
    assert derivable(ks2, M)


def test_signature_opens_with_public_half():
    priv = AsymKey(pair_id=9, private=True, label="K_A")
    ks = KnowledgeSet([AsymEnc(M, priv), inverse_key(priv)])
    assert derivable(ks, M)


def test_succ_both_directions():
    ks = KnowledgeSet([succ(NA, 1)])
    assert derivable(ks, NA)
    assert derivable(KnowledgeSet([NA]), succ(NA, 3))


def test_goal_directed_synthesis():
    ks = KnowledgeSet([M, K])
    assert derivable(ks, SymEnc(Pair(M, M), K))


def test_analyze_fixpoint_examples():
    out = analyze_terms({Pair(Atom(value=7, label="a"), Atom(value=8, label="b"))})
    assert Atom(value=7) in out and Atom(value=8) in out
    untouched = analyze_terms({SymEnc(M, K)})
    assert untouched == frozenset({SymEnc(M, K)})
    chained = analyze_terms({SymEnc(Pair(NA, NB), K), K})
    assert NA in chained and NB in chained and Pair(NA, NB) in chained


def test_analyze_idempotent():
    ks = KnowledgeSet([SymEnc(Pair(NA, NB), K), K, Pair(M, NA)])
    once = analyze(ks)
    twice = analyze(once)
    assert once.items == twice.items


def test_derivation_explain_replays():
    ks = KnowledgeSet([SymEnc(M, K), K, NA])
    steps = []
    assert derivable(ks, Pair(M, SymEnc(NA, K)), explain=steps)
    analyzed = analyze_terms(ks.items)
    built = set(analyzed)
    for entry in steps:
        kind, term = entry[0], entry[1]
        if kind == "known":
            assert term in analyzed
        elif kind == "compose":
            assert term.left in built and term.right in built
        elif kind == "encrypt":
            assert term.payload in built and term.key in built
        built.add(term)


def test_revisions_and_rollback():
    ks = KnowledgeSet([M])
    r0 = ks.revision
    ks.add(NA)
    ks.add(NB, K)
    assert NA in ks and K in ks
    ks.restore(r0 + 1)
    assert NA in ks and NB not in ks and K not in ks
    with pytest.raises(ValueError):
        ks.restore(99)


def test_queries_do_not_mutate():
    ks = KnowledgeSet([SymEnc(M, K), K])
    before = ks.snapshot()
    derivable(ks, M)
    analyze(ks)
    assert ks.snapshot() == before


# -- randomized agreement with the independent oracle ------------------------

def random_term(rng, depth):
    leaves = [M, K, NA, NB, KA, KB,
              Password(value=21, label="P"),
              AsymKey(pair_id=22, private=False, label="K_X"),
              AsymKey(pair_id=22, private=True, label="K_X")]
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(leaves)
    kind = rng.choice(["pair", "senc", "aenc", "cenc", "succ"])
    if kind == "pair":
        return Pair(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind == "senc":
        return SymEnc(random_term(rng, depth - 1), rng.choice([K, KA, KB]))
    if kind == "aenc":
        return AsymEnc(random_term(rng, depth - 1),
                       AsymKey(pair_id=22, private=rng.random() < 0.5,
                               label="K_X"))
    if kind == "cenc":
        keys = rng.sample([KA, KB, K], rng.randint(1, 2))
        return comm_enc(random_term(rng, depth - 1), keys)
    return succ(rng.choice([NA, NB]), rng.randint(1, 3))


def test_oracle_agreement_randomized():
    rng = random.Random(20240817)
    disagreements = 0
    for _ in range(1000):
        ks_terms = [random_term(rng, rng.randint(0, 4))
                    for _ in range(rng.randint(1, 6))]
        goal = random_term(rng, rng.randint(0, 4))
        ks = KnowledgeSet(ks_terms)
        mine = derivable(ks, goal)
        theirs = closure_oracle(ks.items, goal)
        if mine != theirs:
            disagreements += 1
    assert disagreements == 0


@st.composite
def small_knowledge(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 9)))
    return [random_term(rng, rng.randint(0, 3))
            for _ in range(rng.randint(1, 5))]


@settings(max_examples=60, deadline=None)
@given(small_knowledge())
def test_analyze_idempotent_property(terms):
    once = analyze_terms(set(terms))
    assert analyze_terms(once) == once


@settings(max_examples=60, deadline=None)
@given(small_knowledge(), st.integers(min_value=0, max_value=10 ** 6))
def test_derivable_monotone_under_additions(terms, salt):
    goal = terms[0]
    small = KnowledgeSet(terms[1:]) if len(terms) > 1 else KnowledgeSet([])
    big = KnowledgeSet(list(terms[1:]) + [Atom(value=salt, label="x"), goal])
    if derivable(small, goal):
        assert derivable(big, goal)


def layered_chain(rng, length, broken):
    """A chain of `length` links, each hiding the key that opens the next
    under a symmetric, asymmetric or commutative layer (some wrapped in a
    pair or a successor), plus secrets locked under keys learned late and
    links that never open, shuffled.  A broken chain lacks one link."""
    opening = [AsymKey(pair_id=1000 + i, private=rng.random() < 0.5,
                       label=f"K{i}") if rng.random() < 0.4
               else SymKey(value=1000 + i, label=f"K{i}")
               for i in range(length + 1)]
    items = [opening[0]]
    gap = rng.randrange(length) if broken else -1
    for i in range(length):
        lock = inverse_key(opening[i])
        layer = rng.choice(("plain", "plain", "comm", "pair", "succ"))
        if layer == "comm":
            extra = inverse_key(opening[rng.randrange(i + 1)])
            link = comm_enc(opening[i + 1], [lock, extra])
        elif isinstance(lock, AsymKey):
            link = AsymEnc(opening[i + 1], lock)
        else:
            link = SymEnc(opening[i + 1], lock)
        if layer == "pair":
            link = Pair(Nonce(rng.getrandbits(30), label="X"), link)
        elif layer == "succ":
            link = succ(link, 1)
        if i != gap:
            items.append(link)
    for _ in range(length // 4):
        j = rng.randrange(length + 1)
        secret = Nonce(rng.getrandbits(30), label="S")
        items.append(comm_enc(secret, [inverse_key(opening[j]),
                                       inverse_key(opening[rng.randrange(j + 1)])])
                     if rng.random() < 0.5 else
                     AsymEnc(secret, inverse_key(opening[j]))
                     if isinstance(opening[j], AsymKey)
                     else SymEnc(secret, opening[j]))
        items.append(SymEnc(secret, SymKey(value=rng.getrandbits(30) + 10 ** 6,
                                           label="J")))
    rng.shuffle(items)
    return items


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=50, max_value=150), st.booleans())
def test_worklist_analysis_matches_frontier_fixpoint(seed, length, broken):
    items = layered_chain(random.Random(seed), length, broken)
    assert analyze_terms(items) == frontier_analyze(items)


@settings(max_examples=60, deadline=None)
@given(small_knowledge())
def test_worklist_analysis_matches_frontier_fixpoint_small(terms):
    assert analyze_terms(terms) == frontier_analyze(terms)

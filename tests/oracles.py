"""Independent reference implementations for the knowledge layer.

`closure_oracle` is a brute-force derivability oracle: a forward-chaining
bounded closure, deliberately different in style from the library's
goal-directed decision procedure.  Analysis rules run to a fixpoint
while synthesis only ever builds terms drawn from the candidate universe
(subterms of the knowledge set and the goal, plus commutative
re-layerings).  For bounded instances this decides the same relation.

`frontier_analyze` is the pass-by-pass analysis fixpoint that
`analyze_terms` computed before it became a worklist: each pass applies
every rule to every known term until a pass adds nothing."""

from itertools import combinations

from guardsim.terms import (AsymEnc, CommEnc, Pair, Succ, SymEnc,
                            comm_enc, comm_strip, inverse_key, subterms,
                            KEY_TYPES)


def candidate_universe(knowledge, goal):
    universe = set()
    for t in list(knowledge) + [goal]:
        universe.update(subterms(t))
    extra = set()
    for t in universe:
        if isinstance(t, CommEnc):
            keys = list(t.keys)
            for r in range(len(keys) + 1):
                for combo in combinations(range(len(keys)), r):
                    kept = [k for i, k in enumerate(keys) if i in combo]
                    extra.add(comm_enc(t.payload, kept))
        if isinstance(t, Succ):
            extra.add(t.base)
    return universe | extra


def closure_oracle(knowledge, goal, max_rounds=64):
    """True iff goal lies in the bounded closure of the knowledge set."""
    universe = candidate_universe(knowledge, goal)
    known = set(knowledge)
    for _ in range(max_rounds):
        new = set()
        for t in known:
            # analysis
            if isinstance(t, Pair):
                new.update((t.left, t.right))
            elif isinstance(t, (SymEnc, AsymEnc)):
                if isinstance(t.key, KEY_TYPES) and inverse_key(t.key) in known:
                    new.add(t.payload)
            elif isinstance(t, CommEnc):
                for k in set(t.keys):
                    if isinstance(k, KEY_TYPES) and inverse_key(k) in known:
                        new.add(comm_strip(t, k))
            elif isinstance(t, Succ):
                new.add(t.base)
        # synthesis restricted to the candidate universe
        for cand in universe:
            if cand in known or cand in new:
                continue
            if isinstance(cand, Pair):
                if cand.left in known and cand.right in known:
                    new.add(cand)
            elif isinstance(cand, (SymEnc, AsymEnc)):
                if cand.payload in known and cand.key in known:
                    new.add(cand)
            elif isinstance(cand, CommEnc):
                if cand.payload in known and all(k in known for k in cand.keys):
                    new.add(cand)
            elif isinstance(cand, Succ):
                if cand.base in known:
                    new.add(cand)
        new -= known
        if not new:
            break
        known |= new
    return goal in known


def frontier_analyze(items):
    """Decomposition fixpoint by repeated full passes over `known`."""
    known = set(items)
    while True:
        new = []
        for t in known:
            if isinstance(t, Pair):
                for part in (t.left, t.right):
                    if part not in known:
                        new.append(part)
            elif isinstance(t, (SymEnc, AsymEnc)):
                if isinstance(t.key, KEY_TYPES) and inverse_key(t.key) in known:
                    if t.payload not in known:
                        new.append(t.payload)
            elif isinstance(t, CommEnc):
                for k in set(t.keys):
                    if isinstance(k, KEY_TYPES) and inverse_key(k) in known:
                        reduced = comm_strip(t, k)
                        if reduced not in known:
                            new.append(reduced)
            elif isinstance(t, Succ):
                if t.base not in known:
                    new.append(t.base)
        if not new:
            return frozenset(known)
        known.update(new)

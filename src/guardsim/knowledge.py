"""Agent knowledge stores and message derivability.

A KnowledgeSet is a revisioned, monotonically growing set of terms; a
rollback restores a prior revision exactly.  `analyze` computes the
decomposition fixpoint (projection, decryption, commutative peeling,
successor stripping) with a worklist that visits each term once;
`derivable` answers synthesis queries top-down so the infinite forward
closure is never enumerated.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .terms import (AsymEnc, AsymKey, CommEnc, Pair, Password, Succ,
                    SymEnc, SymKey, Term, comm_strip, inverse_key, KEY_TYPES)


class KnowledgeSet:
    """Indexed knowledge store. Additions are logged so any prior revision
    can be restored (rollback); reads never mutate."""

    def __init__(self, items: Iterable[Term] = ()):
        self._items: Set[Term] = set()
        self._log: List[Tuple[Term, ...]] = []   # the new terms, per revision
        if initial := tuple(items):
            self._commit(initial)

    def _commit(self, terms: Tuple[Term, ...]) -> None:
        added = tuple(t for t in dict.fromkeys(terms) if t not in self._items)
        self._items.update(added)
        self._log.append(added)

    @property
    def revision(self) -> int:
        return len(self._log)

    @property
    def items(self) -> frozenset:
        return frozenset(self._items)

    def __contains__(self, t: Term) -> bool:
        return t in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def add(self, *terms: Term) -> int:
        """Record one confirmed addition (one revision step); returns the
        new revision. Adding only already-known terms still advances the
        revision: the agent confirmed an action."""
        self._commit(terms)
        return self.revision

    def restore(self, revision: int) -> None:
        """Roll back to a prior revision, forgetting everything since."""
        if revision < 0 or revision > len(self._log):
            raise ValueError(f"unknown revision {revision}")
        self._items.difference_update(*self._log[revision:])
        del self._log[revision:]

    mark, rollback = revision.fget, restore   # a mark is a revision

    def analysis(self) -> frozenset:
        """The decomposition fixpoint of the known terms."""
        return analyze_terms(self._items)


def analyze_terms(items: Iterable[Term]) -> frozenset:
    """Decomposition fixpoint of a term set.

    Pairs are projected, encryptions whose inverse key is available are
    opened, commutative layers with known inverses are peeled, successors
    are stripped (the offset is public arithmetic).  A worklist visits
    each term once (the `analz` closure of Paulson's inductive method): an
    encryption whose inverse key is not yet known waits, as its (term,
    key) pair, under that inverse key and is opened when the key arrives.
    A learned term is hashed once: it is new when adding it grew the set.
    Terminates: learned terms are strict subterms or key-multiset reductions.
    """
    known: Set[Term] = set(items)
    size = len(known)
    todo = list(known)
    locked: Dict[Term, List[Tuple[Term, Term]]] = {}
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is Pair:
            parts = (t.left, t.right)
        elif kind is Succ:
            parts = (t.base,)
        elif kind is SymEnc or kind is AsymEnc or kind is CommEnc:
            for key in (t.key,) if kind is not CommEnc else set(t.keys):
                kk = type(key)
                if kk is SymKey or kk is Password:
                    inverse = key
                elif kk is AsymKey:
                    inverse = AsymKey(key.pair_id, not key.private, key.label)
                else:
                    continue
                if inverse not in known:
                    locked.setdefault(inverse, []).append((t, key))
                    continue
                part = comm_strip(t, key) if kind is CommEnc else t.payload
                known.add(part)
                if len(known) > size:
                    size += 1
                    todo.append(part)
            continue
        elif locked and (waiting := locked.pop(t, None)):
            parts = [comm_strip(enc, key) if type(enc) is CommEnc
                     else enc.payload for enc, key in waiting]
        else:
            continue
        for part in parts:
            known.add(part)
            if len(known) > size:
                size += 1
                todo.append(part)
    return frozenset(known)


def analyze(ks: KnowledgeSet) -> KnowledgeSet:
    """Analysis fixpoint as a new KnowledgeSet (idempotent)."""
    return KnowledgeSet(sorted(analyze_terms(ks._items),
                               key=lambda t: repr(t)))


def derivable(ks: KnowledgeSet, goal: Term,
              explain: Optional[list] = None) -> bool:
    """True iff `goal` is in the closure of ks under composition,
    encryption, projection, decryption and commutative layering/peeling.

    Synthesis is goal-directed: the goal is decomposed, never the
    infinite forward closure enumerated. When `explain` is given, the
    applied rule steps are appended to it (for derivation replay).
    """
    analyzed = ks.analysis()
    memo = {}

    def synth(t: Term) -> bool:
        if t in memo:
            return memo[t]
        memo[t] = False  # cycle guard
        result = False
        trace_entry = None
        if t in analyzed:
            result = True
            trace_entry = ("known", t)
        elif isinstance(t, Pair):
            result = synth(t.left) and synth(t.right)
            trace_entry = ("compose", t)
        elif isinstance(t, (SymEnc, AsymEnc)):
            result = synth(t.payload) and synth(t.key)
            trace_entry = ("encrypt", t)
        elif isinstance(t, CommEnc):
            result = synth(t.payload) and all(synth(k) for k in t.keys)
            trace_entry = ("comm-encrypt", t)
            if not result:
                # Peel toward the goal: find a known superset-layered form.
                for c in analyzed:
                    if (isinstance(c, CommEnc) and c.payload == t.payload
                            and Counter(t.keys) <= Counter(c.keys)):
                        extra = list(c.keys)
                        for k in t.keys:
                            extra.remove(k)
                        if all(synth(inverse_key(k)) for k in extra
                               if isinstance(k, KEY_TYPES)):
                            result = all(isinstance(k, KEY_TYPES) for k in extra)
                            trace_entry = ("comm-peel", c, t)
                            if result:
                                break
        elif isinstance(t, Succ):
            result = synth(t.base)
            trace_entry = ("succ", t)
        memo[t] = result
        if result and explain is not None and trace_entry is not None:
            explain.append(trace_entry)
        return result

    try:
        return synth(goal)
    finally:
        # synth refers to itself: break that cycle so the closure, with
        # the analysis and the memo, is freed now and not at the next
        # full garbage collection
        del synth

"""Independent reference implementations for the knowledge layer.

`closure_oracle` is a brute-force derivability oracle: a forward-chaining
bounded closure, deliberately different in style from the library's
goal-directed decision procedure.  Analysis rules run to a fixpoint
while synthesis only ever builds terms drawn from the candidate universe
(subterms of the knowledge set and the goal, plus commutative
re-layerings).  For bounded instances this decides the same relation.

`frontier_analyze` is the pass-by-pass analysis fixpoint that
`analyze_terms` computed before it became a worklist: each pass applies
every rule to every known term until a pass adds nothing.

`analyze_terms` is the worklist as it was written before its loop was
tightened: a `learn` closure that tests membership before it adds, and
`isinstance` dispatch.  It learns terms in the same order, so the two
return sets that iterate alike.

`replay_enumerate` is the attack search as `enumerate_attacks` ran it
before it forked: every leaf wired afresh and replayed from round 0.

`wire_view` is the wire encoding walked afresh on every call, as
`terms.wire_view` computed it before composite terms kept their view.

`options` is a scripted attacker's option menu listed in full, as
`ScriptedAttacker` built and scanned it every round before it kept only
the counts of what its frontier holds."""

from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

from guardsim.enumeration import (EnumerationReport, MAX_INJECT_TERMS,
                                  ScriptedAttacker)
from guardsim.knowledge import KnowledgeSet
from guardsim.scenario import evaluate
from guardsim.simulator import BudgetExceeded
from guardsim.terms import (AgentId, AsymEnc, AsymKey, Atom, CommEnc,
                            Lifetime, Nonce, Pair, Password, Succ, SymEnc,
                            SymKey, TermError, Timestamp, comm_enc,
                            comm_strip, inverse_key, subterms, KEY_TYPES)


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


def analyze_terms(items) -> frozenset:
    """Decomposition fixpoint by a worklist that visits each term once."""
    known: Set = set(items)
    todo = list(known)
    locked: Dict = {}

    def learn(t) -> None:
        if t not in known:
            known.add(t)
            todo.append(t)

    def opened(t, key):
        return comm_strip(t, key) if isinstance(t, CommEnc) else t.payload

    while todo:
        t = todo.pop()
        for enc, key in locked.pop(t, ()):
            learn(opened(enc, key))
        if isinstance(t, Pair):
            learn(t.left)
            learn(t.right)
        elif isinstance(t, Succ):
            learn(t.base)
        elif isinstance(t, (SymEnc, AsymEnc, CommEnc)):
            keys = set(t.keys) if isinstance(t, CommEnc) else (t.key,)
            for key in keys:
                if isinstance(key, KEY_TYPES):
                    inverse = inverse_key(key)
                    if inverse in known:
                        learn(opened(t, key))
                    else:
                        locked.setdefault(inverse, []).append((t, key))
    return frozenset(known)


def _run_with_choices(case, kind: str, choices: Sequence[Tuple],
                      seed: int, max_visible: int):
    wiring = case.wire(kind=kind, guardian=True, attack=case.attack_names[0])
    scripted = ScriptedAttacker(
        name="E", interest=list(wiring.attackers[0].interest),
        masks=case.masks, choices=choices,
        knowledge=KnowledgeSet(list(wiring.attackers[0].knowledge.items)))
    wiring.attackers = [scripted]
    sim = wiring.simulator(seed=seed, max_rounds=max(10 * max_visible, 80))
    try:
        result = sim.run()
    except BudgetExceeded:
        return None, scripted, wiring.victim
    return result, scripted, wiring.victim


def replay_enumerate(case, kind: str, max_choices: int = 8,
                     seed: int = 0,
                     max_visible: int = 8) -> EnumerationReport:
    """Depth-first search over attacker choice sequences; every leaf is a
    complete run judged for an undetected deception."""
    report = EnumerationReport(runs=0, false_negatives=0)
    stack: List[Tuple[Tuple, ...]] = [()]
    while stack:
        # each prefix is pushed once, by its parent, and a frontier holds
        # distinct options, so no prefix runs twice
        prefix = stack.pop()
        result, scripted, victim = _run_with_choices(case, kind, prefix,
                                                     seed, max_visible)
        if result is None:
            continue
        report.runs += 1
        report.capped += len(scripted.spied_terms) > MAX_INJECT_TERMS
        outcome = evaluate(result, victim, True, case.success_extra)
        if outcome.false_negatives > 0:
            report.false_negatives += 1
            report.fn_witnesses.append((prefix, outcome.classification))
        elif outcome.interference_count > 0:
            report.deceptions_detected += 1
        if len(prefix) < max_choices and scripted.frontier:
            if len(result.trace.steps) <= max_visible:
                for option in scripted.frontier:
                    stack.append(prefix + (option,))
    return report


def wire_view(t):
    """The wire encoding of `t`, walked afresh."""
    if isinstance(t, (Nonce, SymKey, Password, Atom, Timestamp, Lifetime)):
        return ("leaf", t.value)
    if isinstance(t, AgentId):
        return ("agent", t.name)
    if isinstance(t, AsymKey):
        return ("akey", t.pair_id, t.private)
    if isinstance(t, Succ):
        base = wire_view(t.base)
        if base[0] == "leaf":
            return ("leaf", base[1] + t.offset)
        return ("succ", base, t.offset)
    if isinstance(t, Pair):
        return ("pair", wire_view(t.left), wire_view(t.right))
    if isinstance(t, SymEnc):
        return ("senc", wire_view(t.payload), wire_view(t.key))
    if isinstance(t, AsymEnc):
        return ("aenc", wire_view(t.payload), wire_view(t.key))
    if isinstance(t, CommEnc):
        return ("cenc", wire_view(t.payload),
                tuple(sorted(wire_view(k) for k in t.keys)))
    raise TermError(f"not a term: {t!r}")


def options(attacker: ScriptedAttacker, pending) -> List[Tuple]:
    """Every option the scripted attacker has this round, in the order
    its frontier files them."""
    visible = [seq for seq in sorted(pending)
               if attacker.sees(pending[seq]) and not pending[seq].injected]
    opts: List[Tuple] = [("erase", i) for i in range(len(visible))]
    for j in range(min(len(attacker.spied_terms), MAX_INJECT_TERMS)):
        for receiver in sorted(attacker.masks):
            opts.append(("inject", j, receiver))
    return opts

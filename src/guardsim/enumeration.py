"""Exhaustive enumeration of replay-family attack functions.

The family: at each opportunity the attacker either erases the pending
message on the watched channel, injects a previously spied term at a
target (masquerading as its peer), or waits.  Choice sequences are
explored exhaustively up to a visible-trace bound; each leaf is a full
deterministic run whose outcome is classified.  The suite asserts that a
guardian in topological advantage never lets a deceiving run finish
undetected (zero false negatives over the whole family)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .agents import AttackerAgent
from .knowledge import KnowledgeSet
from .network import Envelope, Erase, Inject, Slot
from .scenario import evaluate
from .simulator import BudgetExceeded
from .terms import Term, wire_view


@dataclass
class EnumerationReport:
    runs: int
    false_negatives: int
    fn_witnesses: List[Tuple[Tuple, str]] = field(default_factory=list)
    deceptions_detected: int = 0
    over_budget: int = 0   # leaves dropped when their run hit the budget


class SearchKnowledge(KnowledgeSet):
    """The enumerated attacker's knowledge.  The leaves of a search mostly
    end knowing one of a few sets of terms, so the analysis of each set
    it held is kept for the rest of the search (a compromise check such
    as `binding_derivable` analyses it at every leaf)."""

    def __init__(self, items=()):
        super().__init__(items)
        self._analyses: Dict[frozenset, frozenset] = {}

    def analysis(self) -> frozenset:
        items = frozenset(self._items)
        found = self._analyses.get(items)
        if found is None:
            found = self._analyses[items] = super().analysis()
        return found


class ScriptedAttacker(AttackerAgent):
    """Attacker driven by an explicit choice sequence.

    Choices: ("erase", i) erase the i-th pending visible envelope;
    ("inject", j, receiver) inject the j-th distinct spied term at the
    receiver, masquerading as its configured peer; ("wait",).  When the
    script runs out the attacker goes quiet and records every option
    offered from then on in its frontier.  Its menu grows only when it
    spies an envelope, so it files options only in the first round after
    its script ran out and in a round after it spied.  With `sim` set,
    it marks the simulator at each round whose menu grows, and files that
    mark under the options the round added: a run that takes one of them
    agrees with this run up to that round."""

    _moving = (("spied", "gains"), ("session_of", "copy"),
               ("next_session", "value"), ("_unfiled", "value"))

    def __init__(self, name: str, interest, masks: Dict[str, str],
                 choices: Sequence[Tuple], knowledge=None):
        super().__init__(name=name, interest=interest, function=None,
                         variant="proceed", knowledge=knowledge)
        self.masks = dict(masks)            # receiver -> claimed identity
        self.choices = list(choices)
        self.cursor = 0
        # option -> the mark of the round that first offered it
        self.frontier: Optional[Dict[Tuple, object]] = None
        self._filed = (0, 0)  # see `_file`; void while frontier is None
        self._unfiled = True  # the menu may hold options not yet filed
        self.sim = None       # the simulator to mark, when forks are wanted
        # wire view -> the first spied term with it, in the order spied
        self.spied: Dict[object, Term] = {}
        self.next_session = 2
        self.session_of: Dict[object, int] = {}

    @property
    def spied_terms(self) -> List[Term]:
        """The distinct spied terms, in the order spied."""
        return list(self.spied.values())

    def rescript(self, choices: Tuple) -> None:
        """Script a run resumed from the mark of the round that first
        offered the last choice: that choice is the next move."""
        self.choices = list(choices)
        self.cursor = len(choices) - 1
        self.frontier = None
        self._unfiled = True

    def spy(self, env: Envelope, direction: str) -> None:
        super().spy(env, direction)
        self.spied.setdefault(wire_view(env.body), env.body)
        self._unfiled = True

    def _visible(self, pending) -> List[int]:
        # pending is in seq order; an envelope it did not inject is one
        # it sees when it spied it
        name = self.name
        return [seq for seq, env in pending.items()
                if not env.injected and name in env.observers]

    def _file(self, erasable: int, injectable: int) -> None:
        """File under one mark of this round the options it offers that
        the frontier lacks: ("erase", i) for i < erasable, then ("inject",
        j, receiver) for j < injectable.  `_filed` counts those filed."""
        erased, injected = self._filed if self.frontier is not None else (0, 0)
        if erasable <= erased and injectable <= injected:
            return
        # polled first, after this round's notify
        fork = self.sim.mark(mid_round=True) if self.sim is not None else None
        if self.frontier is None:
            self.frontier = {}
        for i in range(erased, erasable):
            self.frontier[("erase", i)] = fork
        for j in range(injected, injectable):
            for receiver in sorted(self.masks):
                self.frontier[("inject", j, receiver)] = fork
        self._filed = (max(erased, erasable), max(injected, injectable))

    def propose(self, pending, earlier):
        """The next scripted move; the attack-function machinery (rival
        takedowns, deferrals, hesitation) does not apply."""
        if self.cursor >= len(self.choices):
            # accumulate every option that becomes available once the
            # script has run out: each is a candidate next move
            if self._unfiled:
                self._unfiled = False
                self._file(len(self._visible(pending)), len(self.spied))
            return None
        choice = self.choices[self.cursor]
        if choice[0] == "erase":
            visible = self._visible(pending)
            if choice[1] >= len(visible):
                return None  # hold until the scripted move becomes possible
            self.cursor += 1
            return Erase(actor=self.name, target_seq=visible[choice[1]],
                         rank=1, own_step=True)
        if choice == ("wait",) or choice[1] >= len(self.spied):
            return None
        self.cursor += 1
        _, j, receiver = choice
        view = list(self.spied)[j]
        key = (view, receiver)
        if key not in self.session_of:
            self.session_of[key] = self.next_session
            self.next_session += 1
        return Inject(actor=self.name, claimed=self.masks[receiver],
                      body=self.spied[view], receiver=receiver,
                      slot=Slot(self.session_of[key], 1), rank=1)


def enumerate_attacks(case, kind: str, max_choices: int = 8,
                      seed: int = 0,
                      max_visible: int = 8) -> EnumerationReport:
    """Depth-first search over attacker choice sequences; every leaf is a
    complete run judged for an undetected deception.

    One simulator serves the whole search.  A child `prefix + (o,)`
    resumes from the mark its parent's run took at the round that first
    offered `o`, since the two runs agree up to there: it rolls back to
    that mark and runs on with the attacker rescripted."""
    report = EnumerationReport(runs=0, false_negatives=0)
    wiring = case.wire(kind=kind, guardian=True, attack=case.attack_names[0])
    scripted = ScriptedAttacker(
        name="E", interest=list(wiring.attackers[0].interest),
        masks=case.masks, choices=(),
        knowledge=SearchKnowledge(wiring.attackers[0].knowledge.items))
    wiring.attackers = [scripted]
    sim = wiring.simulator(seed=seed, max_rounds=max(10 * max_visible, 80))
    # the root runs from round 0; every other prefix from its mark
    stack: List[Tuple[Tuple, object]] = [((), None)]
    while stack:
        # each prefix is pushed once, by its parent, and a frontier holds
        # distinct options, so no prefix runs twice.  A frontier lists
        # options by ascending fork round and pops in reverse, so each
        # rollback goes to the same mark or to an earlier one of the
        # current run's past
        prefix, mark = stack.pop()
        if mark is not None:
            sim.rollback(mark)
            scripted.rescript(prefix)
        scripted.sim = sim if len(prefix) < max_choices else None
        try:
            result = sim.run()
        except BudgetExceeded:
            report.over_budget += 1
            continue
        report.runs += 1
        outcome = evaluate(result, wiring.victim, True, case.success_extra)
        if outcome.false_negatives > 0:
            report.false_negatives += 1
            report.fn_witnesses.append((prefix, outcome.classification))
        elif outcome.interference_count > 0:
            report.deceptions_detected += 1
        if len(prefix) < max_choices and scripted.frontier:
            if result.trace.step_count <= max_visible:
                for option, fork in scripted.frontier.items():
                    stack.append((prefix + (option,), fork))
    scripted.sim = None
    return report

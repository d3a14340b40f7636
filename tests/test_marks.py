"""Marks compiled from each class's `_moving` list give back every
attribute of every stateful object, not just the ones the list names:
at every round of a run, a rollback after running to the end must leave
each attribute as it was."""

import random

import pytest

from guardsim.cases import CASE_TABLE, run_case
from guardsim.enumeration import ScriptedAttacker
from guardsim.guardian import GuardianStore
from guardsim.knowledge import KnowledgeSet
from guardsim.marks import Marked
from guardsim.network import ResilientSignal
from guardsim.protocols import builtin, builtin_names
from guardsim.simulator import DeadlockError, Simulator
from guardsim.terms import Nonce, Term, wire_view

# the scripted attacker's script, which `rescript` sets, not a rollback
SCRIPT = {"choices", "cursor", "frontier", "_filed", "sim"}


def view(value):
    """`value` for comparison: terms by wire view, generators by state,
    containers by content and any other object by identity."""
    if isinstance(value, Term):
        return "term", wire_view(value)
    if isinstance(value, random.Random):
        return "rng", value.getstate()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(map(view, value))
    if isinstance(value, dict):
        return "dict", tuple((view(k), view(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return "set", frozenset(map(view, value))
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return "id", id(value)


def stateful(sim):
    """Every marked object and knowledge set the simulator reaches
    through the attributes and containers of such objects."""
    found, todo = {}, [sim]
    while todo:
        value = todo.pop()
        if isinstance(value, (Marked, KnowledgeSet)):
            if id(value) not in found:
                found[id(value)] = value
                todo.extend(vars(value).values())
        elif isinstance(value, dict):
            todo.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            todo.extend(value)
    return list(found.values())


def snapshot(objects):
    return [{name: view(value) for name, value in vars(o).items()
             if name != "_drawn"
             and not (isinstance(o, ScriptedAttacker) and name in SCRIPT)}
            for o in objects]


def changed(objects, before, after):
    """(class, attribute) of each attribute that differs; one not yet
    set on the object reads as its class default (`draws`)."""
    def value(o, snap, name):
        return snap[name] if name in snap else view(getattr(type(o), name))
    return sorted({(type(o).__name__, name)
                   for o, was, now in zip(objects, before, after)
                   for name in was.keys() | now.keys()
                   if value(o, was, name) != value(o, now, name)})


def assert_comes_back(root, move):
    """Mark `root`, `move` it on and roll back: every attribute of every
    stateful object it reaches must be as it was."""
    objects = stateful(root)
    before = snapshot(objects)
    mark = root.mark()
    move()
    root.rollback(mark)
    assert not changed(objects, before, snapshot(objects))


def check_every_round(sim, run=Simulator.run):
    """At every round, mark, `run` to the end and roll back.  Leaves
    `sim` at the end of its run."""
    scripted = [a for a in sim.attackers if isinstance(a, ScriptedAttacker)]
    chosen = None
    while not isinstance(chosen, ResilientSignal):
        cursors = [a.cursor for a in scripted]
        assert_comes_back(sim, lambda: run(sim))
        for att, cursor in zip(scripted, cursors):
            att.cursor = cursor
        try:
            chosen = sim.step()
        except DeadlockError:
            break


@pytest.mark.parametrize("name", builtin_names())
def test_every_field_comes_back_in_the_classic_guarded_run(name):
    sim = builtin(name).wire(guardian=True, attack="classic").simulator()
    check_every_round(sim)


def test_every_field_comes_back_in_the_interaction_cases(monkeypatch):
    """The rivals' fields (deferrals, hesitations, awareness) move here."""
    original = Simulator.run

    def run(sim):
        start = sim.mark()
        check_every_round(sim, original)
        sim.rollback(start)
        return original(sim)

    monkeypatch.setattr(Simulator, "run", run)
    for case, row in CASE_TABLE.items():
        assert run_case(case).trace_name == row[-1]


def test_every_field_comes_back_in_a_scripted_run():
    """Three injections, so the scripted attacker's own fields move."""
    case = builtin("iso-sc-27")
    wiring = case.wire(kind="A", guardian=True, attack=case.attack_names[0])
    attacker = ScriptedAttacker(
        name="E", interest=list(wiring.attackers[0].interest),
        masks=case.masks,
        choices=[("inject", 2, "A"), ("inject", 3, "A"), ("inject", 0, "A")],
        knowledge=KnowledgeSet(list(wiring.attackers[0].knowledge.items)))
    wiring.attackers = [attacker]
    sim = wiring.simulator(max_rounds=80)
    check_every_round(sim)
    assert attacker.next_session == 5 and len(attacker.spied_terms) == 5


def test_every_field_comes_back_when_a_stored_term_is_labelled_later():
    """No builtin run labels a term P after storing it unlabelled, so
    only here does an entry's `p_rev` move."""
    store = GuardianStore()
    term = Nonce(value=7)
    store.add(term, set())
    assert_comes_back(store, lambda: store.add(term, {"P", "critical"},
                                               source=("own", "G")))
    assert store.entries[wire_view(term)].p_rev is None


def test_an_unknown_policy_is_refused_when_the_class_is_made():
    with pytest.raises(KeyError):
        class Unknown(Marked):
            _moving = (("x", "kept"),)

"""The forked attack search against the replay-from-round-0 search it
replaced (tests/oracles.py), the simulator's marks, and the count of
leaves dropped over the round budget."""

import pytest

from guardsim.enumeration import enumerate_attacks
from guardsim.protocols import builtin, builtin_names
from guardsim.simulator import BudgetExceeded, Simulator

from golden import result_records
from oracles import replay_enumerate


def report_fields(rep):
    return (rep.runs, rep.false_negatives, rep.fn_witnesses,
            rep.deceptions_detected)


# (name, kind, depth, seed, pinned (runs, false negatives, detections))
GRID = [(name, kind, 3, 0, None) for name in builtin_names()
        for kind in builtin(name).applicable_kinds()]
# these pin the order of the witnesses
WITNESSES = [("splice-as", "C", 4, 0, (199, 56, 0)),
             ("sra3p", "A", 3, 0, (107, 53, 52))]
# the benchmark's `enumerate` batch at seed 1
BENCH = [("iso-sc-27", "A", 6, 1, (500, 0, 457)),
         ("eke", "A", 5, 1, (904, 0, 231)),
         ("otway-rees", "C", 3, 1, (613, 0, 194))]


@pytest.mark.parametrize("name,kind,depth,seed,pinned",
                         GRID + WITNESSES + BENCH)
def test_fork_finds_what_replay_finds(name, kind, depth, seed, pinned):
    case = builtin(name)
    forked = enumerate_attacks(case, kind, max_choices=depth, seed=seed,
                               max_visible=8)
    replayed = replay_enumerate(case, kind, max_choices=depth, seed=seed,
                                max_visible=8)
    assert report_fields(forked) == report_fields(replayed)
    assert forked.over_budget == 0
    if pinned is not None:
        assert (forked.runs, len(forked.fn_witnesses),
                forked.deceptions_detected) == pinned


def state_records(result):
    """What the run digests leave out: D_G, the attackers' knowledge and
    the honest sessions."""
    store = [(repr(key), sorted(e.labels), e.last_rev, e.p_rev,
              sorted(e.sources))
             for key, e in result.guardian.store.entries.items()]
    knowledge = [(att.knowledge.revision, sorted(map(repr, att.knowledge)))
                 for att in result.attackers]
    sessions = [(name, s.key, s.net_session, s.pc, s.status,
                 sorted((k, repr(v)) for k, v in s.bindings.items()),
                 s.last_msg, [(c.env.seq, c.msg) for c in s.consumed])
                for name, agent in sorted(result.honest.items())
                for s in agent.sessions.values()]
    return [store, knowledge, sessions]


@pytest.mark.parametrize("name", builtin_names())
def test_rollback_gives_back_the_rest_of_the_run(name, tmp_path):
    case = builtin(name)
    path = str(tmp_path / "trace.ndjson")

    def records(wiring, result):
        return (result_records(case, wiring.victim, True, result, path)
                + state_records(result))

    fresh = case.wire(guardian=True, attack="classic")
    expected = records(fresh, fresh.simulator(seed=0).run())
    rounds = expected[3]
    wiring = case.wire(guardian=True, attack="classic")
    sim = wiring.simulator(seed=0)
    for done in range(rounds):
        mark = sim.mark()
        # a run from the mark, then two more from the same mark
        for _ in range(3):
            assert records(wiring, sim.run()) == expected, (name, done)
            sim.rollback(mark)
        if done < rounds - 1:
            sim.step()


def count_runs(monkeypatch, fail_at=None):
    """Record the choices of every Simulator.run call; the call numbered
    `fail_at` runs and then raises BudgetExceeded."""
    calls = []
    original = Simulator.run

    def run(sim):
        calls.append(tuple(sim.attackers[0].choices))
        result = original(sim)
        if len(calls) == fail_at:
            raise BudgetExceeded("injected")
        return result

    monkeypatch.setattr(Simulator, "run", run)
    return calls


def test_leaf_over_budget_is_counted_and_not_expanded(monkeypatch):
    case = builtin("iso-sc-27")
    calls = count_runs(monkeypatch)
    full = enumerate_attacks(case, "A", max_choices=3)
    third = calls[2]
    subtree = [c for c in calls if c[:len(third)] == third]
    assert len(subtree) > 1   # the third leaf has children

    monkeypatch.undo()
    calls = count_runs(monkeypatch, fail_at=3)
    rep = enumerate_attacks(case, "A", max_choices=3)
    assert calls[2] == third
    assert rep.over_budget == 1
    assert rep.runs == len(calls) - 1 == full.runs - len(subtree)
    assert not [c for c in calls if c[:len(third)] == third
                and len(c) > len(third)]


@pytest.mark.parametrize("fail_at", [None, 1, 3, 40])
def test_one_run_call_per_leaf(monkeypatch, fail_at):
    calls = count_runs(monkeypatch, fail_at)
    rep = enumerate_attacks(builtin("eke"), "A", max_choices=4)
    assert len(calls) == rep.runs + rep.over_budget
    assert rep.over_budget == (fail_at is not None)

"""The forked attack search against the replay-from-round-0 search it
replaced (tests/oracles.py), the scripted attacker's option menu against
the full list, the simulator's marks and the draw states they share, and
the count of leaves dropped over the round budget."""

import random
from types import SimpleNamespace

import pytest

from guardsim.agents import FreshMint, TFresh
from guardsim.enumeration import ScriptedAttacker, enumerate_attacks
from guardsim.guardian import FakeSpec
from guardsim.network import ResilientSignal
from guardsim.protocols import builtin, builtin_names
from guardsim.protocols.iso_sc27 import make_guardian
from guardsim.simulator import BudgetExceeded, DeadlockError, Simulator

from golden import result_records
from oracles import options, replay_enumerate


def report_fields(rep):
    return (rep.runs, rep.false_negatives, rep.fn_witnesses,
            rep.deceptions_detected, rep.capped)


# (name, kind, depth, seed, pinned (runs, false negatives, detections))
GRID = [(name, kind, 3, 0, None) for name in builtin_names()
        for kind in builtin(name).applicable_kinds()]
# these pin the order of the witnesses
WITNESSES = [("splice-as", "C", 4, 0, (199, 56, 0)),
             ("sra3p", "A", 3, 0, (107, 53, 52))]
# (name, kind, depth, seed) -> (judged leaves that spied more terms than
# the injection cap offers, judged leaves)
CAPPED = {("eke", "A", 3, 0): (23, 155), ("otway-rees", "C", 3, 0): (57, 613)}
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
    if (name, kind, depth, seed) in CAPPED:
        assert (forked.capped, forked.runs) == CAPPED[name, kind, depth, seed]
    if pinned is not None:
        assert (forked.runs, len(forked.fn_witnesses),
                forked.deceptions_detected) == pinned


@pytest.mark.parametrize("name,kind", [(name, kind)
                                       for name, kind, *_ in GRID])
def test_menu_files_what_the_full_list_offers(name, kind, monkeypatch):
    """Each round, a script that has run out files exactly the listed
    options its frontier lacks, in list order and under one mark, and a
    scripted move is taken exactly when the list offers it."""
    original = ScriptedAttacker.propose
    rounds = 0

    def propose(att, pending, earlier):
        offered = options(att, pending)
        before = dict(att.frontier or {})
        cursor = att.cursor
        prop = original(att, pending, earlier)
        if cursor >= len(att.choices):
            new = [o for o in offered if o not in before]
            assert list(att.frontier or {}) == list(before) + new
            assert all(att.frontier[o] is before[o] for o in before)
            assert len({id(att.frontier[o]) for o in new}) <= 1
        else:
            assert (att.cursor > cursor) == (att.choices[cursor] in offered)
        nonlocal rounds
        rounds += 1
        return prop

    monkeypatch.setattr(ScriptedAttacker, "propose", propose)
    enumerate_attacks(builtin(name), kind, max_choices=3)
    assert rounds


def test_a_move_not_offered_is_held():
    att = ScriptedAttacker(name="E", interest=[], masks={"B": "A"},
                           choices=())
    for choices in ([("erase", 0)], [("inject", 0, "B")], [("wait",)]):
        att.choices, att.cursor = choices, 0
        assert att.propose({}, []) is None and att.cursor == 0


def test_menu_keeps_its_marks_when_the_counts_drop():
    att = ScriptedAttacker(name="E", interest=[], masks={"C": "A", "B": "A"},
                           choices=())
    att.sim = SimpleNamespace(mark=lambda mid_round: object())
    filed = {}
    for erasable, injectable in [(2, 0), (1, 1), (2, 1), (0, 0), (3, 2)]:
        att._file(erasable, injectable)
        for option, fork in filed.items():
            assert att.frontier[option] is fork
        filed = dict(att.frontier)
    assert list(filed) == [("erase", 0), ("erase", 1), ("inject", 0, "B"),
                           ("inject", 0, "C"), ("erase", 2),
                           ("inject", 1, "B"), ("inject", 1, "C")]
    assert len({id(fork) for fork in filed.values()}) == 3


class CountingRandom(random.Random):
    """Counts the states it saves and restores."""
    saved = restored = 0

    def getstate(self):
        self.saved += 1
        return super().getstate()

    def setstate(self, state):
        self.restored += 1
        super().setstate(state)


def counting(rng):
    """A CountingRandom in the state of `rng`."""
    twin = CountingRandom()
    random.Random.setstate(twin, rng.getstate())
    return twin


def state(rng):
    """The generator's state, uncounted."""
    return random.Random.getstate(rng)


def test_marks_share_the_draw_state_until_a_draw():
    """A mark saves the generator's state only after a draw, and a
    rollback to it gives back the state the generator had then."""
    mint = FreshMint(CountingRandom(3))
    first, _ = mint.mark(), mint.mark()
    assert mint.rng.saved == 1
    mint.mint(TFresh("n"), "A", 64)
    after_one = state(mint.rng)
    mint.mark()
    assert mint.rng.saved == 2
    # as many draws on another path, of another width: another state
    mint.rollback(first)
    mint.mint(TFresh("n"), "A", 256)
    live = state(mint.rng)
    again = mint.mark()
    assert mint.rng.saved == 3
    mint.mint(TFresh("n"), "A", 64)
    mint.rollback(again)
    assert state(mint.rng) == live != after_one

    guardian = make_guardian()
    guardian.rng = CountingRandom(4)
    guardian.mark(), guardian.mark()
    assert guardian.rng.saved == 1
    guardian.mint_fake(FakeSpec())
    live = state(guardian.rng)
    mark = guardian.mark()
    assert guardian.rng.saved == 2
    guardian.mint_fake(FakeSpec())
    guardian.rollback(mark)
    assert state(guardian.rng) == live


def test_rollback_after_draws_replays_the_same_values():
    mint = FreshMint(CountingRandom(5))
    guardian = make_guardian()
    guardian.rng = CountingRandom(6)
    marks = mint.mark(), guardian.mark()

    def draw():
        return ([mint.mint(TFresh("n", label="N_{agent}"), "A", 64)
                 for _ in range(3)],
                [guardian.mint_fake(FakeSpec()) for _ in range(2)])

    first = draw()
    for _ in range(2):
        mint.rollback(marks[0])
        guardian.rollback(marks[1])
        again = draw()
        assert again == first
        assert [repr(t) for t in again[0]] == [repr(t) for t in first[0]]
    # a rollback with no draw since the mark leaves the generator alone
    restored = mint.rng.restored, guardian.rng.restored
    marks = mint.mark(), guardian.mark()
    mint.rollback(marks[0])
    guardian.rollback(marks[1])
    assert (mint.rng.restored, guardian.rng.restored) == restored


@pytest.mark.parametrize("name", ["iso-sc-27", "splice-as"])
def test_every_mark_of_a_run_holds_the_live_draw_state(name):
    """Marks taken round by round, with rollbacks between them, each give
    back the states the generators had when it was taken."""
    wiring = builtin(name).wire(guardian=True, attack="classic")
    sim = wiring.simulator(seed=2)
    sim.rng = sim.mint.rng = counting(sim.mint.rng)
    sim.guardian.rng = counting(sim.guardian.rng)
    marks, states = [], []
    chosen = None
    while not isinstance(chosen, ResilientSignal):
        states.append((state(sim.mint.rng), state(sim.guardian.rng)))
        marks.append(sim.mark())
        if len(marks) % 3 == 0:
            sim.rollback(marks[-2])
            assert (state(sim.mint.rng), state(sim.guardian.rng)) \
                == states[-2]
            sim.step()
        try:
            chosen = sim.step()
        except DeadlockError:
            break
    assert sim.mint.draws and sim.guardian.draws
    # most rounds draw nothing, so most marks share a state
    assert 2 * sim.mint.rng.saved < len(marks)
    # every mark lies on the run's past: latest first, each one's states
    for mark, states_then in reversed(list(zip(marks, states))):
        sim.rollback(mark)
        assert (state(sim.mint.rng), state(sim.guardian.rng)) == states_then


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

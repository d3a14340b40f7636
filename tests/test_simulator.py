"""The arbitration round asks the tiers in priority order -- attackers,
the guardian, honest senders, deliveries -- and stops at the first tier
that proposes."""

import pytest

from guardsim.agents import HonestAgent
from guardsim.guardian import Guardian
from guardsim.network import Deliver, ResilientSignal, Send
from guardsim.protocols import builtin, builtin_names
from guardsim.simulator import Simulator

HOME_ATTACKS = [(name, attack) for name in builtin_names()
                for attack in builtin(name).attack_names]


def spy_rounds(monkeypatch):
    """Record, per round, the tier whose action was applied and the set
    of the spied methods called during that round."""
    rounds, called = [], set()

    def spy(cls, method):
        original = getattr(cls, method)

        def wrapped(self, *args):
            called.add(method)
            return original(self, *args)
        monkeypatch.setattr(cls, method, wrapped)

    spy(HonestAgent, "poll")
    spy(Guardian, "propose")
    spy(Guardian, "quiescent")
    step = Simulator.step

    def spied_step(sim):
        called.clear()
        chosen = step(sim)
        rounds.append((winner(sim, chosen), frozenset(called)))
        return chosen

    monkeypatch.setattr(Simulator, "step", spied_step)
    return rounds


def winner(sim, chosen) -> str:
    if isinstance(chosen, Send):
        return "honest"
    if isinstance(chosen, Deliver):
        return "delivery"
    if isinstance(chosen, ResilientSignal) or chosen.actor == sim.guardian.name:
        return "guardian"
    return "attacker"


@pytest.mark.parametrize("name,attack", HOME_ATTACKS)
def test_polling_stops_at_the_first_tier_that_proposes(name, attack,
                                                       monkeypatch):
    rounds = spy_rounds(monkeypatch)
    builtin(name).wire(guardian=True, attack=attack).simulator().run()
    for tier, called in rounds:
        if tier == "attacker":
            assert not called
        elif tier == "guardian" and "quiescent" not in called:
            assert called == {"propose"}
        else:
            # honest senders and deliveries come after the guardian's
            # queue; its deferred abort comes after everybody
            assert {"poll", "propose"} <= called


def test_every_tier_wins_some_round(monkeypatch):
    """The runs above cover rounds won by each tier, the guardian's queue
    and its deferred abort included."""
    rounds = spy_rounds(monkeypatch)
    for name, attack in HOME_ATTACKS:
        builtin(name).wire(guardian=True, attack=attack).simulator().run()
    won = {(tier, "quiescent" in called) for tier, called in rounds}
    assert won >= {("attacker", False), ("guardian", False),
                   ("guardian", True), ("honest", False),
                   ("delivery", False)}

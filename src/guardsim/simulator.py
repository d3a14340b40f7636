"""The deterministic simulation loop.

Each round: newly in-transit envelopes are announced and spied according
to the topology (spying happens before anything erases them); then the
tiers are asked in priority order -- attackers, the guardian, honest
agents, deliveries -- and polling stops at the first tier that proposes,
whose action is applied.  Only one action applies per round, so asking
the later tiers would be wasted work.  Identical same-round erase intents
merge with shared credit, a vigilant attacker can leave an erase to an
earlier-placed rival, and an envelope is delivered once nobody dishonest
wants it.

Stopping early keeps every fresh-value draw in order.  An honest agent
mints its next send when first asked for it and keeps it until it is
sent; that send changes only when the agent sends, receives or is
aborted.  No attacker or guardian action does any of these (a guardian
abort ends the run), so a send first asked for a few rounds later is
minted from the same state, after the same earlier draws.

The guardian's interference plan stays inside the Guardian: the loop
asks it for its next action (`Guardian.propose`), holds back the
envelopes it means to capture (`Guardian.captures`), tells it which
action was applied (`Guardian.committed`) and, once nobody else has
anything to do, asks for its deferred abort (`Guardian.quiescent`).

Each attacker's spy filters, attack-function steps and reactions to
rivals stay inside the AttackerAgent: the loop lets it spy new envelopes
on its stretch (`watch`), asks for its action given the rivals placed
before it (`propose`, which keeps a deferral or hesitation to itself)
and reports what became of it (`took`, `took_deferred`, `injected`,
`note_slot_filled`).  Ranking, merging identical erases and rolling back
the losers stay here.

The loop is strictly single-threaded and owns its agents; identical
(scenario, seed) pairs produce bit-identical traces.  Run independent
scenarios on separate Simulator instances for parallelism.

`mark` saves the moving state each class lists (see `marks`), and
`rollback` restores it, so one simulator can go back to an earlier round
of its own run and take another branch from there (the attack
enumeration forks that way).  A run nobody marks pays nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .agents import AttackerAgent, FreshMint, HonestAgent, RoleScript
from .guardian import Guardian, GuardianAction
from .marks import Marked
from .network import (DeadlockError, Deliver, Envelope, Erase, Inject,
                      NetworkState, ResilientSignal, Send, watchers)
from .topology import ConfigError, Topology
from .trace import Trace


class BudgetExceeded(Exception):
    """The round budget ran out before the run settled."""


@dataclass
class SimResult:
    trace: Trace
    network: NetworkState
    honest: Dict[str, HonestAgent]
    attackers: List[AttackerAgent]
    guardian: Optional[Guardian]
    rounds: int
    aborted_by_guardian: bool


AttackerProposal = Tuple[AttackerAgent, Union[Erase, Inject]]


class Simulator(Marked):
    _moving = (("rounds", "value"), ("aborted", "value"),
               ("_notified", "value"), ("mint", "part"), ("net", "part"),
               ("honest", "each"), ("attackers", "each"),
               ("guardian", "part"))

    def __init__(self, topology: Topology,
                 honest: Sequence[HonestAgent],
                 attackers: Sequence[AttackerAgent] = (),
                 guardian: Optional[Guardian] = None,
                 seed: int = 0, nonce_bits: int = 64,
                 max_rounds: int = 256):
        self.topology = topology
        self.honest = {a.name: a for a in honest}
        self._honest_order = tuple(self.honest[n] for n in sorted(self.honest))
        self.attackers = list(attackers)
        # each attacker with the rivals placed before it
        self._rivals = tuple((att, self.attackers[:i])
                             for i, att in enumerate(self.attackers))
        self._attacker = {a.name: a for a in self.attackers}
        self.guardian = guardian
        self.rng = random.Random(seed)
        self.mint = FreshMint(self.rng)
        if guardian is not None:
            guardian.rng = random.Random(self.rng.getrandbits(32))
        self.nonce_bits = nonce_bits
        self.max_rounds = max_rounds
        self.net = NetworkState(topology)
        self.trace = Trace(self.net.history)
        self.rounds = 0
        self.aborted = False
        self._notified = 0   # highest seq announced to the observers

    # -- wiring helpers --

    def start_initiator(self, agent: str, script: RoleScript,
                        session: int) -> None:
        self.honest[agent].start_session(session, script)

    # -- notify / spy phase --

    def _notify(self) -> None:
        # seqs are handed out in order, at most one envelope enters per
        # round and none leaves before the next notify: the new ones are
        # exactly the seqs past the mark
        while self._notified + 1 in self.net.pending:
            self._notified += 1
            env = self.net.pending[self._notified]
            for who in watchers(self.topology, env):
                att = self._attacker.get(who)
                if att is not None:
                    if att.watch(env):
                        env.observers.append(who)
                elif self.guardian is not None and who == self.guardian.name:
                    if self.guardian.matching_filters(env):
                        env.observers.append(who)
                        self.guardian.process(env)

    # -- select & apply --

    def _apply_send(self, prop: Send) -> None:
        agent = self.honest[prop.sender]
        agent.commit_send(prop.session_key)
        env = Envelope(seq=self.net.new_seq(), claimed_sender=prop.sender,
                       body=prop.body, receiver=prop.receiver,
                       true_sender=prop.sender, slot=prop.slot)
        self.net.enter(env, "send")

    def _apply_inject(self, att: Optional[AttackerAgent],
                      prop: Inject) -> Envelope:
        env = Envelope(seq=self.net.new_seq(), claimed_sender=prop.claimed,
                       body=prop.body, receiver=prop.receiver,
                       true_sender=prop.actor, slot=prop.slot, injected=True)
        self.net.enter(env, "inject")
        if att is not None:
            att.injected()
        return env

    def _apply_erase(self, actor_att: Optional[AttackerAgent], prop: Erase,
                     attacker_props: Sequence[AttackerProposal]) -> None:
        rollbacks = []
        env = self.net.pending[prop.target_seq]
        if actor_att is not None and prop.own_step:
            actor_att.took(env)
        # merge credit: same-round identical own-step erases of equal rank
        for other, other_prop in attacker_props:
            if other is actor_att or not isinstance(other_prop, Erase):
                continue
            if other_prop.target_seq != prop.target_seq:
                continue
            if other_prop.own_step and other_prop.rank == prop.rank:
                env.capture_credits.add(other.name)
                other.took(env)
            else:
                rollbacks.append(other.name)
        # vigilant deferrers consume vicariously and share credit
        for other in self.attackers:
            if other.took_deferred(env):
                env.capture_credits.add(other.name)
        self.net.remove(prop.target_seq)
        self.trace.add_message(env, delivered=False,
                               rollbacks=tuple(rollbacks), cause=prop)

    def _apply_deliver(self, seq: int) -> None:
        env = self.net.remove(seq)
        self.trace.add_message(env, delivered=True)
        receiver = self.honest.get(env.receiver)
        if receiver is not None:
            receiver.deliver(env)
        elif env.receiver in self._attacker:
            self._attacker[env.receiver].receive(env)
        for att in self.attackers:
            att.note_slot_filled(env)

    def _apply_signal(self, prop: ResilientSignal) -> None:
        g = self.guardian
        if g is None or prop.guardian != g.name:
            raise ConfigError("only the guardian holds resilient links")
        if (g.name, prop.target) not in self.topology.resilient_links:
            raise ConfigError(
                f"no resilient link {g.name}->{prop.target}; the defense requires one")
        self.honest[prop.target].abort()
        self.trace.add_signal(prop)
        self.aborted = True

    def _apply_guardian(self, prop: GuardianAction) -> GuardianAction:
        seq = None
        if isinstance(prop, Erase):
            self._apply_erase(None, prop, [])
        elif isinstance(prop, Inject):
            seq = self._apply_inject(None, prop).seq
        else:
            self._apply_signal(prop)
        self.guardian.committed(prop, seq)
        return prop

    # -- main loop --

    def step(self):
        """One arbitration round: notify observers of new traffic, then
        ask the tiers in priority order -- attackers, the guardian, honest
        senders, deliveries -- and apply the first tier's action; the
        tiers after it are not asked.  Every agent of an asked tier is
        asked: attacker proposals are ranked and merged, and each honest
        agent mints its next send, in name order.  Draws keep their order
        because no attacker or guardian action changes an honest agent's
        next send (a guardian abort ends the run), so a send asked for
        later is minted from the same state.  With nobody else to act,
        the guardian gives its deferred abort.  Returns the chosen action.
        Raises DeadlockError when nobody proposed anything."""
        self.rounds += 1
        self._notify()
        pending = self.net.pending
        props: List[AttackerProposal] = []
        for att, earlier in self._rivals:
            prop = att.propose(pending, earlier)
            if prop is not None:
                props.append((att, prop))
        if props:
            if len(props) > 1:
                # stable: equal ranks keep the placement order
                props.sort(key=lambda ap: ap[1].rank)
            att, prop = props[0]
            if isinstance(prop, Erase):
                self._apply_erase(att, prop, props)
            else:
                self._apply_inject(att, prop)
            return prop
        g = self.guardian
        if g is not None:
            # asked before `captures`: it drops the captures that went stale
            prop = g.propose(pending)
            if prop is not None:
                return self._apply_guardian(prop)
        send = None
        for agent in self._honest_order:
            prop = agent.poll(self.mint, self.nonce_bits)
            if send is None:
                send = prop
        if send is not None:
            self._apply_send(send)
            return send
        # pending holds envelopes in the order they entered, which is seq
        # order: the first one the guardian does not mean to erase is the
        # one delivered
        captured = g.captures() if g is not None else ()
        for seq in pending:
            if seq not in captured:
                self._apply_deliver(seq)
                return Deliver(target_seq=seq)
        if g is not None:
            prop = g.quiescent()
            if prop is not None:
                return self._apply_guardian(prop)
        raise DeadlockError("no agent proposed an action")

    def mark(self, mid_round: bool = False):
        """`mid_round` is for a mark an attacker polled first takes inside
        round r, after its notify: it puts the counter at r - 1, so `run`
        repeats round r, whose notify announces nothing new, and polls
        that attacker first again."""
        self.rounds -= mid_round
        mark = self._mark()
        self.rounds += mid_round
        return mark

    def run(self) -> SimResult:
        while True:
            if self.rounds >= self.max_rounds:
                raise BudgetExceeded(f"no quiescence after {self.rounds} rounds")
            try:
                chosen = self.step()
            except DeadlockError:
                break  # quiescence
            if isinstance(chosen, ResilientSignal):
                break
        return SimResult(trace=self.trace, network=self.net,
                         honest=self.honest, attackers=self.attackers,
                         guardian=self.guardian, rounds=self.rounds,
                         aborted_by_guardian=self.aborted)


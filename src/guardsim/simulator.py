"""The deterministic simulation loop.

Each round: newly in-transit envelopes are announced and spied according
to the topology (spying happens before anything erases them); agents are
polled for at most one intended action each; one action is selected --
attackers first, then the guardian, then honest agents, then deliveries
-- and applied.  Identical same-round erase intents merge with shared
credit, a vigilant attacker can leave an erase to an earlier-placed
rival, and an envelope is delivered once nobody dishonest wants it.

The guardian's interference plan stays inside the Guardian: the loop
asks it for its next action (`Guardian.propose`), holds back the
envelopes it means to capture (`Guardian.captures`) and tells it which
action was applied (`Guardian.committed`).

The loop is strictly single-threaded and owns its agents; identical
(scenario, seed) pairs produce bit-identical traces.  Run independent
scenarios on separate Simulator instances for parallelism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .agents import (AttackerAgent, EraseStep, FreshMint, HonestAgent,
                     RoleScript, match)
from .guardian import Guardian
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


class Simulator:
    def __init__(self, topology: Topology,
                 honest: Sequence[HonestAgent],
                 attackers: Sequence[AttackerAgent] = (),
                 guardian: Optional[Guardian] = None,
                 seed: int = 0, nonce_bits: int = 64,
                 max_rounds: int = 256,
                 stop_on_abort: bool = True):
        self.topology = topology
        self.honest = {a.name: a for a in honest}
        self.attackers = list(attackers)
        for i, att in enumerate(self.attackers):
            att.ordinal = i
        self.guardian = guardian
        self.rng = random.Random(seed)
        self.mint = FreshMint(self.rng)
        if guardian is not None:
            guardian.rng = random.Random(self.rng.getrandbits(32))
        self.nonce_bits = nonce_bits
        self.max_rounds = max_rounds
        self.stop_on_abort = stop_on_abort
        self.net = NetworkState(topology)
        self.trace = Trace(self.net.history)
        self.rounds = 0
        self.aborted = False

    # -- wiring helpers --

    def start_initiator(self, agent: str, script: RoleScript,
                        session: int) -> None:
        self.honest[agent].start_session(session, script)

    # -- notify / spy phase --

    def _notify(self) -> None:
        for seq in sorted(self.net.pending):
            env = self.net.pending[seq]
            if env.notified:
                continue
            env.notified = True
            for who in watchers(self.topology, env):
                att = self._attacker(who)
                if att is not None:
                    # filters go by perceived identities: masquerades fool
                    # rival interceptors too
                    spied = False
                    if "inflow" in att.filters and env.receiver in att.interest:
                        att.spy(env, "inflow")
                        spied = True
                    if "outflow" in att.filters and env.claimed_sender in att.interest:
                        att.spy(env, "outflow")
                        spied = True
                    if spied:
                        att.seen.add(env.seq)
                        env.observers.append(who)
                elif self.guardian is not None and who == self.guardian.name:
                    if self.guardian.matching_filters(env):
                        env.observers.append(who)
                        self.guardian.process(env)
            # the injector always knows his own envelope
            if env.injected:
                att = self._attacker(env.true_sender)
                if att is not None:
                    att.seen.add(env.seq)

    def _attacker(self, name: str) -> Optional[AttackerAgent]:
        for a in self.attackers:
            if a.name == name:
                return a
        return None

    # -- poll phase --

    def _earlier_rivals_seeing(self, me: AttackerAgent):
        def fn(env: Envelope) -> Set[str]:
            out = set()
            for other in self.attackers:
                if other.ordinal < me.ordinal and env.seq in other.seen:
                    out.add(other.name)
            return out
        return fn

    def _poll(self):
        attacker_props: List[Tuple[int, int, AttackerAgent, object]] = []
        for att in self.attackers:
            if att.withdrawn or att.holding(self.net.pending):
                continue
            rival_env = att.rival_target(self.net.pending, att.seen)
            if rival_env is not None:
                prop = Erase(actor=att.name, target_seq=rival_env.seq, rank=0)
                attacker_props.append((prop.rank, att.ordinal, att, prop))
                continue
            action = att.own_step_action(self.net.pending, att.seen,
                                         self._earlier_rivals_seeing(att))
            if action is None:
                continue
            if isinstance(action, tuple) and action[0] == "defer":
                action[1].deferred_by[att.name] = att.step_ptr
                continue
            attacker_props.append((action.rank, att.ordinal, att, action))
        attacker_props.sort(key=lambda t: (t[0], t[1]))

        honest_props: List[Tuple[str, Send]] = []
        for name in sorted(self.honest):
            prop = self.honest[name].poll(self.mint, self.nonce_bits)
            if prop is not None:
                honest_props.append((name, prop))

        g = self.guardian
        guardian_prop = None
        erase_targets = {p.target_seq for _, _, _, p in attacker_props
                         if isinstance(p, Erase)}
        if g is not None:
            # propose first: it drops the captures that went stale
            guardian_prop = g.propose(self.net.pending, self.nonce_bits)
            erase_targets |= g.captures()
        deliveries = [seq for seq in sorted(self.net.pending)
                      if self.net.pending[seq].notified
                      and seq not in erase_targets]

        # a deferred abort fires only at quiescence
        if (guardian_prop is None and g is not None and not g.pending
                and g.deferred_abort is not None
                and not attacker_props and not honest_props and not deliveries):
            guardian_prop, g.deferred_abort = g.deferred_abort, None
        return attacker_props, guardian_prop, honest_props, deliveries

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
            att.consume_step()
            att.engaged = True
        return env

    def _consume_erase_step(self, att: AttackerAgent, env: Envelope) -> None:
        step = att.current_step()
        if isinstance(step, EraseStep):
            got = match(step.pattern, env.body, att.bindings)
            if got is not None:
                att.bindings = got
            if step.bind:
                att.bindings[step.bind] = env.body
            att.consume_step()

    def _apply_erase(self, actor_att: Optional[AttackerAgent], prop: Erase,
                     all_attacker_props) -> None:
        rollbacks = []
        env = self.net.pending[prop.target_seq]
        env.erased_by = prop.actor
        if actor_att is not None and prop.own_step:
            self._consume_erase_step(actor_att, env)
        # merge credit: same-round identical own-step erases of equal rank
        for rank, _, other, other_prop in all_attacker_props:
            if other is actor_att or not isinstance(other_prop, Erase):
                continue
            if other_prop.target_seq != prop.target_seq:
                continue
            if other_prop.own_step and other_prop.rank == prop.rank:
                env.capture_credits.add(other.name)
                self._consume_erase_step(other, env)
            else:
                rollbacks.append(other.name)
        # vigilant deferrers consume vicariously and share credit
        for name, at_step in env.deferred_by.items():
            other = self._attacker(name)
            if other is None or other.step_ptr != at_step:
                continue
            if isinstance(other.current_step(), EraseStep):
                self._consume_erase_step(other, env)
                env.capture_credits.add(name)
        self.net.remove(prop.target_seq)
        self.trace.add_message(env, delivered=False,
                               rollbacks=tuple(rollbacks), cause=prop)

    def _apply_deliver(self, seq: int) -> None:
        env = self.net.remove(seq)
        self.trace.add_message(env, delivered=True)
        receiver = self.honest.get(env.receiver)
        if receiver is not None:
            receiver.deliver(env)
        else:
            att = self._attacker(env.receiver)
            if att is not None:
                att.receive(env)
                att.seen.add(env.seq)
        for att in self.attackers:
            if env.seq in att.seen:
                att.note_slot_filled(env)

    def _apply_signal(self, prop: ResilientSignal) -> None:
        g = self.guardian
        if g is None or prop.guardian != g.name:
            raise ConfigError("only the guardian holds resilient links")
        if (g.name, prop.target) not in self.topology.resilient_links:
            raise ConfigError(
                f"no resilient link {g.name}->{prop.target}; the defense requires one")
        self.honest[prop.target].set_flag(prop.flag)
        self.trace.add_signal(prop)
        self.aborted = True

    # -- main loop --

    def step(self):
        """One arbitration round: notify observers of new traffic, poll
        every agent for at most one intended action, select exactly one
        by priority (attackers, guardian, honest senders, deliveries) and
        apply it.  Returns the chosen action.  Raises DeadlockError when
        nobody proposed anything."""
        self.rounds += 1
        self._notify()
        attacker_props, guardian_prop, honest_props, deliveries = self._poll()
        if attacker_props:
            _, _, att, prop = attacker_props[0]
            if isinstance(prop, Erase):
                self._apply_erase(att, prop, attacker_props)
            else:
                self._apply_inject(att, prop)
            return prop
        if guardian_prop is not None:
            seq = None
            if isinstance(guardian_prop, Erase):
                self._apply_erase(None, guardian_prop, [])
            elif isinstance(guardian_prop, Inject):
                seq = self._apply_inject(None, guardian_prop).seq
            else:
                self._apply_signal(guardian_prop)
            self.guardian.committed(guardian_prop, seq)
            return guardian_prop
        if honest_props:
            prop = honest_props[0][1]
            self._apply_send(prop)
            return prop
        if deliveries:
            env = self.net.pending[deliveries[0]]
            self._apply_deliver(deliveries[0])
            return Deliver(target_seq=env.seq)
        raise DeadlockError("no agent proposed an action")

    def run(self) -> SimResult:
        while True:
            if self.rounds >= self.max_rounds:
                raise BudgetExceeded(f"no quiescence after {self.rounds} rounds")
            try:
                chosen = self.step()
            except DeadlockError:
                break  # quiescence
            if isinstance(chosen, ResilientSignal) and self.stop_on_abort:
                break
        return SimResult(trace=self.trace, network=self.net,
                         honest=self.honest, attackers=self.attackers,
                         guardian=self.guardian, rounds=self.rounds,
                         aborted_by_guardian=self.aborted)


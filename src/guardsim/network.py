"""Network dataset, envelopes and the arbitration step.

Messages transit as triplets (claimed sender, body, receiver); the true
sender is resolvable only by the system.  The network dataset is
non-monotonic (delivery and erasure remove envelopes) while its history
is append-only and replayable.  That history is the one record of a run:
each entry points at its envelope, and the presentation trace, the
NDJSON trace file, the replay check and honest-send provenance are all
read off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .marks import Marked
from .terms import Term, wire_view
from .topology import Topology


@dataclass(frozen=True)
class Slot:
    """Protocol position of a message: session, message number, prime
    decoration and interference subscript."""
    session: int
    msg: int
    primes: int = 0
    sub: int = 0

    def label(self, multi_session: bool) -> str:
        base = f"{self.session}.{self.msg}" if multi_session else f"{self.msg}"
        if self.sub:
            base += f"_{self.sub}"
        return base + "'" * self.primes


@dataclass
class Envelope(Marked):
    _moving = (("observers", "grows"), ("sender_credits", "copy"),
               ("capture_credits", "copy"))

    seq: int
    claimed_sender: str
    body: Term
    receiver: str
    true_sender: str
    slot: Slot
    injected: bool = False
    # runtime bookkeeping
    observers: List[str] = field(default_factory=list)
    sender_credits: Set[str] = field(default_factory=set)
    capture_credits: Set[str] = field(default_factory=set)


# -- actions ---------------------------------------------------------------

@dataclass
class Send:
    sender: str
    body: Term
    receiver: str
    slot: Slot
    session_key: int = 0      # sender-local session handle


@dataclass
class Inject:
    actor: str
    claimed: str
    body: Term
    receiver: str
    slot: Slot
    rank: int = 1            # arbitration rank within the dishonest class


@dataclass
class Erase:
    actor: str
    target_seq: int
    rank: int = 1
    own_step: bool = False   # erase comes from the actor's attack function
    stop_note: bool = False  # additionally emit a "stops message" line


@dataclass
class Deliver:
    target_seq: int


@dataclass
class ResilientSignal:
    guardian: str
    target: str
    label: str = ""
    style: str = "abort"     # "abort": "X aborts" | "raise": flag text


class DeadlockError(Exception):
    """No agent proposed an action: the scripts are stuck."""


class NetEvent(NamedTuple):
    """One entry of the run's action record.  It points at the envelope
    it touched instead of copying it: an envelope no longer changes once
    it has left the wire, and the identities and body that a send or
    inject entry shows never change."""
    kind: str                        # send | inject | erase | deliver | signal
    env: Optional[Envelope] = None   # None for a signal
    rollbacks: Tuple[str, ...] = ()  # rivals whose erase of it lost
    cause: object = None             # the applied Erase or ResilientSignal


class NetworkState(Marked):
    """D_net: the pending envelopes and the run's append-only action
    record.  `enter` records what goes on the wire; the presentation
    trace, which shares `history`, records each fate and signal."""

    _moving = (("pending", "copy each"), ("history", "grows"),
               ("_next_seq", "value"))

    def __init__(self, topology: Topology):
        self.topology = topology
        self.pending: Dict[int, Envelope] = {}
        self.history: List[NetEvent] = []
        self._next_seq = 1

    def new_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def enter(self, env: Envelope, kind: str) -> None:
        self.pending[env.seq] = env
        self.history.append(NetEvent(kind, env))

    def remove(self, seq: int) -> Envelope:
        return self.pending.pop(seq)

    def replay_check(self) -> Dict[int, Tuple[str, Term, str]]:
        """Re-derive the pending set from history; used to assert the
        replay invariant."""
        live: Dict[int, Tuple[str, Term, str]] = {}
        for ev in self.history:
            if ev.kind in ("send", "inject"):
                live[ev.env.seq] = (ev.env.claimed_sender, ev.env.body,
                                    ev.env.receiver)
            elif ev.kind in ("erase", "deliver"):
                live.pop(ev.env.seq, None)
        return live

    def honest_sends(self) -> Set[Tuple[str, object, int, int]]:
        """(sender, wire view, session, msg) of every honest send: the
        provenance that tells a genuine relay apart from a deception."""
        return {(ev.env.claimed_sender, wire_view(ev.env.body),
                 ev.env.slot.session, ev.env.slot.msg)
                for ev in self.history if ev.kind == "send"}


def watchers(topology: Topology, env: Envelope) -> Tuple[str, ...]:
    """The topology-induced visibility function: the interceptors that
    see an envelope in transit, in the order it passes them.

    Wire traffic is seen on the stretch it actually travels: the whole
    channel for a send; for an injection, the stretch from the injector's
    station to the receiver, co-located rivals included and the injector
    left out.  An envelope the topology gives no path is seen by
    nobody; resilient signals are no envelopes and travel unseen.  The
    topology keeps each route's answer (`Topology.watchers`)."""
    return topology.watchers(env.injected, env.true_sender, env.receiver)

"""Network dataset, envelopes and the arbitration step.

Messages transit as triplets (claimed sender, body, receiver); the true
sender is resolvable only by the system.  The network dataset is
non-monotonic (delivery and erasure remove envelopes) while its history
log is append-only and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .terms import Term
from .topology import ConfigError, Topology


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
class Envelope:
    seq: int
    claimed_sender: str
    body: Term
    receiver: str
    true_sender: str
    slot: Slot
    injected: bool = False
    resilient: bool = False
    # runtime bookkeeping
    notified: bool = False
    observers: List[str] = field(default_factory=list)
    sender_credits: Set[str] = field(default_factory=set)
    capture_credits: Set[str] = field(default_factory=set)
    hesitated_by: Set[str] = field(default_factory=set)
    deferred_by: Dict[str, int] = field(default_factory=dict)
    fate: Optional[str] = None          # "delivered" | "erased"
    erased_by: Optional[str] = None


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
    flag: str = "abort"
    label: str = ""
    style: str = "abort"     # "abort": "X aborts" | "raise": flag text


Action = object  # union of the five dataclasses above


class DeadlockError(Exception):
    """No agent proposed an action: the scripts are stuck."""


@dataclass
class HistoryRecord:
    index: int
    action: str
    seq: Optional[int]
    claimed_sender: Optional[str]
    true_sender: Optional[str]
    receiver: Optional[str]
    body: Optional[Term]
    observers: Tuple[str, ...] = ()
    rollbacks: Tuple[str, ...] = ()


class NetworkState:
    """D_net: the pending envelopes, the action index and the history."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.pending: Dict[int, Envelope] = {}
        self.index = 0
        self.history: List[HistoryRecord] = []
        self._next_seq = 1

    def new_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def record(self, action: str, env: Optional[Envelope] = None,
               observers: Tuple[str, ...] = (),
               rollbacks: Tuple[str, ...] = ()) -> HistoryRecord:
        self.index += 1
        rec = HistoryRecord(
            index=self.index, action=action,
            seq=env.seq if env else None,
            claimed_sender=env.claimed_sender if env else None,
            true_sender=env.true_sender if env else None,
            receiver=env.receiver if env else None,
            body=env.body if env else None,
            observers=observers, rollbacks=rollbacks)
        self.history.append(rec)
        return rec

    def enter(self, env: Envelope, kind: str) -> None:
        self.pending[env.seq] = env
        self.record(kind, env)

    def remove(self, seq: int, kind: str, rollbacks: Tuple[str, ...] = ()) -> Envelope:
        env = self.pending.pop(seq)
        self.record(kind, env, observers=tuple(env.observers), rollbacks=rollbacks)
        return env

    def replay_check(self) -> Dict[int, Tuple[str, Term, str]]:
        """Re-derive the pending set from history; used to assert the
        replay invariant."""
        live: Dict[int, Tuple[str, Term, str]] = {}
        for rec in self.history:
            if rec.action in ("send", "inject"):
                live[rec.seq] = (rec.claimed_sender, rec.body, rec.receiver)
            elif rec.action in ("erase", "deliver"):
                live.pop(rec.seq, None)
        return live


def watchers(topology: Topology, env: Envelope) -> List[str]:
    """The topology-induced visibility function: the interceptors that
    see an envelope in transit, in the order it passes them.

    Wire traffic is seen on the stretch it actually travels: the whole
    channel for a send; for an injection, the stretch from the injector's
    station to the receiver, co-located rivals included and the injector
    left out.  A resilient-link envelope, or one the topology gives no
    path, is seen by nobody."""
    if env.resilient:
        return []
    try:
        if env.injected:
            return topology.observers_for_injection(env.true_sender,
                                                    env.receiver)
        return topology.observers_for_send(env.true_sender, env.receiver)
    except ConfigError:
        return []

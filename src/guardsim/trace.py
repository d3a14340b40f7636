"""Visible protocol traces.

A run keeps one record: the append-only list of network actions in
`NetworkState.history`, each entry pointing at its envelope.  The
presentation trace is a view of it, one step per message fate (delivered
or taken) plus the guardian notes that go with the record's entries (a
stop after an erase with a stop note, the abort after a signal); the
NDJSON trace file and the replay check read the same list.  The steps
carry the conventional annotations, e.g. ``A -> E(B) : N_A`` for a send
taken by E masquerading as B, and merged credits like ``E_{1,2}(B)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .network import Envelope, NetEvent, ResilientSignal, Slot
from .terms import Term, render


def merge_ids(ids) -> str:
    """Canonical rendering of a set of co-credited agent ids: shared
    'X_' prefixes collapse to X_{1,2} style."""
    ids = sorted(set(ids))
    if len(ids) == 1:
        return ids[0]
    prefixes = {i.split("_", 1)[0] for i in ids if "_" in i}
    if len(prefixes) == 1 and all("_" in i for i in ids):
        prefix = next(iter(prefixes))
        suffixes = sorted(i.split("_", 1)[1] for i in ids)
        return prefix + "_{" + ",".join(suffixes) + "}"
    return ",".join(ids)


@dataclass(frozen=True)
class TraceStep:
    """One presentation line, read off a record entry."""
    kind: str          # "message" | "stop" | "abort"
    event: NetEvent

    @property
    def body(self) -> Optional[Term]:
        return self.event.env.body if self.kind == "message" else None

    def columns(self, multi_session: bool) -> Tuple[str, str, str, str]:
        """(label, sender, receiver, body); a note puts its text in the
        sender column and leaves the other two empty."""
        env, cause = self.event.env, self.event.cause
        if self.kind == "abort":
            text = (f"G raises {cause.target}'s flag for abort"
                    if cause.style == "raise" else f"{cause.target} aborts")
            return (cause.label, text, "", "")
        slot = env.slot
        label = slot.label(multi_session)
        if self.kind == "stop":
            sub = Slot(slot.session, slot.msg, slot.primes, slot.sub + 1)
            return (sub.label(multi_session), f"G stops message {label}",
                    "", "")
        sender = env.claimed_sender
        if env.injected:
            sender = merge_ids({env.true_sender} | env.sender_credits)
            if env.claimed_sender != env.true_sender:  # E -> B, not E(E)
                sender += f"({env.claimed_sender})"
        receiver = env.receiver
        if self.event.kind == "erase":
            takers = merge_ids({cause.actor} | env.capture_credits)
            receiver = f"{takers}({receiver})"
        return (label, sender, receiver, render(env.body))


class Trace:
    """The presentation view of a run's action record.  `add_message`
    and `add_signal` append the fates and signals to the record."""

    def __init__(self, history: List[NetEvent]):
        self.history = history

    def add_message(self, env: Envelope, delivered: bool,
                    rollbacks: Tuple[str, ...] = (),
                    cause: object = None) -> None:
        self.history.append(NetEvent("deliver" if delivered else "erase",
                                     env, rollbacks, cause))

    def add_signal(self, signal: ResilientSignal) -> None:
        self.history.append(NetEvent("signal", cause=signal))

    @property
    def steps(self) -> List[TraceStep]:
        out = []
        for ev in self.history:
            if ev.kind in ("erase", "deliver"):
                out.append(TraceStep("message", ev))
                if ev.kind == "erase" and ev.cause.stop_note:
                    out.append(TraceStep("stop", ev))
            elif ev.kind == "signal":
                out.append(TraceStep("abort", ev))
        return out

    @property
    def step_count(self) -> int:
        """len(steps), counted without building the steps."""
        count = 0
        for ev in self.history:
            kind = ev.kind
            if kind == "erase":
                count += 2 if ev.cause.stop_note else 1
            elif kind == "deliver" or kind == "signal":
                count += 1
        return count

    @property
    def multi_session(self) -> bool:
        """Labels carry the session once any message fate is from a
        session other than the first."""
        return any(ev.env.slot.session > 1 for ev in self.history
                   if ev.kind in ("erase", "deliver"))

    def tuples(self) -> List[Tuple[str, str, str, str]]:
        """(label, sender, receiver, body) per step; notes collapse the
        sender/receiver columns into the text."""
        multi = self.multi_session
        return [s.columns(multi) for s in self.steps]

    def lines(self) -> List[str]:
        return [f"({label}) {sender} -> {receiver} : {body}" if receiver
                else f"({label}) {sender}"   # a note
                for label, sender, receiver, body in self.tuples()]

    def render(self) -> str:
        return "\n".join(self.lines())

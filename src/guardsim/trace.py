"""Visible protocol traces.

A run produces two records: the fine-grained network action history and
the presentation trace, one step per message fate (delivered or taken)
plus guardian notes (fakes, stops, abort flags).  The presentation steps
carry the conventional annotations, e.g. ``A -> E(B) : N_A`` for a send
taken by E masquerading as B, and merged credits like ``E_{1,2}(B)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .network import Envelope, Slot
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


@dataclass
class TraceStep:
    kind: str                      # "message" | "abort" | "stop"
    slot: Optional[Slot] = None
    label_override: Optional[str] = None
    sender_ids: Tuple[str, ...] = ()
    masquerade: Optional[str] = None   # claimed identity when forged
    receiver: str = ""
    takers: Tuple[str, ...] = ()       # who took the message off the wire
    body: Optional[Term] = None
    text: str = ""
    seq: Optional[int] = None
    true_sender: str = ""
    observers: Tuple[str, ...] = ()

    def label(self, multi_session: bool) -> str:
        if self.label_override is not None:
            return self.label_override
        return self.slot.label(multi_session) if self.slot else ""

    def sender_str(self) -> str:
        base = merge_ids(self.sender_ids)
        if self.masquerade is not None:
            return f"{base}({self.masquerade})"
        return base

    def receiver_str(self) -> str:
        if self.takers:
            return f"{merge_ids(self.takers)}({self.receiver})"
        return self.receiver


@dataclass
class Trace:
    steps: List[TraceStep] = field(default_factory=list)
    multi_session: bool = False

    def note_session(self, session: int) -> None:
        if session > 1:
            self.multi_session = True

    def add_message(self, env: Envelope, delivered: bool) -> TraceStep:
        self.note_session(env.slot.session)
        senders = {env.true_sender} | set(env.sender_credits) if env.injected \
            else {env.claimed_sender}
        masquerade = env.claimed_sender if env.injected else None
        if masquerade == env.true_sender:
            masquerade = None  # unmasked injection: E -> B, not E(E) -> B
        step = TraceStep(
            kind="message", slot=env.slot,
            sender_ids=tuple(sorted(senders)),
            masquerade=masquerade,
            receiver=env.receiver,
            takers=() if delivered else tuple(sorted(
                {env.erased_by} | set(env.capture_credits))),
            body=env.body, seq=env.seq, true_sender=env.true_sender,
            observers=tuple(env.observers))
        self.steps.append(step)
        return step

    def add_note(self, kind: str, label: str, text: str) -> TraceStep:
        step = TraceStep(kind=kind, label_override=label, text=text)
        self.steps.append(step)
        return step

    def lines(self) -> List[str]:
        out = []
        for s in self.steps:
            label = s.label(self.multi_session)
            if s.kind == "message":
                out.append(f"({label}) {s.sender_str()} -> {s.receiver_str()}"
                           f" : {render(s.body)}")
            else:
                out.append(f"({label}) {s.text}")
        return out

    def tuples(self) -> List[Tuple[str, str, str, str]]:
        """(label, sender, receiver, body) per step; notes collapse the
        sender/receiver columns into the text."""
        out = []
        for s in self.steps:
            label = s.label(self.multi_session)
            if s.kind == "message":
                out.append((label, s.sender_str(), s.receiver_str(),
                            render(s.body)))
            else:
                out.append((label, s.text, "", ""))
        return out

    def render(self) -> str:
        return "\n".join(self.lines())

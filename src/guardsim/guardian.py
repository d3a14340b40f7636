"""The benign dishonest agent: identification/control modules, attack
invariants, interference plans and the topological predicates.

The guardian spies like an attacker but defends: the Identification
module labels protocol messages in its dataset, the Control module runs
a criticality distinguisher and, on critical messages, an attack
invariant over the previously labelled dataset (optionally restricted to
a sliding window of recent revisions).  The dataset is indexed by the
wire views of its entries and of their encryption components, so the
invariant judges only the entries that could make it fire
(`InvariantSpec.candidates`), not all of D_G.  A hit expands the
interference plan's three responses into a queue of concrete actions:
`Intercept` erases the message in transit (an `Erase`, noted as a stop
or not), `SendFake` injects a fake minted on the spot or a template
over the captured body (an `Inject`), and `RaiseAbortFlag` raises the
defended agent's abort flag over the resilient channel (a
`ResilientSignal`).

The Guardian owns that queue.  Each round the simulator asks it for the
next action (`propose`), keeps the envelopes it means to capture off the
delivery list (`captures`) and reports the action it applied
(`committed`); it never looks inside the queue.  `module_log` is the one
record of the module verdicts and of the guardian's own fakes; the two
FSM paths are read off it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (Callable, Collection, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

from .agents import (AttackFunction, EraseStep, InjectStep, NullMint,
                     ObserveStep, Ref, instantiate, match)
from .marks import DrawMarks, Marked
from .network import Envelope, Erase, Inject, ResilientSignal, Slot
from .terms import (Atom, Nonce, Term, render, wire_eq, wire_view,
                    subterms, SymEnc, AsymEnc, CommEnc)
from .topology import Topology


@dataclass
class Distinguisher:
    """Deterministic structural classifier: 1 iff any rule pattern
    matches."""
    rules: Sequence[object]

    def __call__(self, m: Term) -> int:
        return 1 if any(match(rule, m, {}) is not None
                        for rule in self.rules) else 0


@dataclass
class StoreEntry(Marked):
    _moving = (("labels", "copy"), ("last_rev", "value"),
               ("sources", "copy"), ("p_rev", "value"))

    term: Term
    labels: Set[str]
    last_rev: int
    sources: Set[Tuple[str, str]] = field(default_factory=set)
    p_rev: Optional[int] = None   # revision that first labelled it P


class GuardianStore(Marked):
    """D_G with 'P' / 'critical' label subsets; deduplicates by wire
    equality (the guardian compares bitstrings) and tracks revisions for
    the temporal window.  `by_part` lists, under the wire view of each
    encryption component, the entries that hold it (an encryption is its
    own first component)."""

    _moving = (("entries", "each"), ("by_part", "copies"),
               ("revision", "value"))

    def __init__(self):
        self.entries: Dict[object, StoreEntry] = {}
        self.by_part: Dict[object, List[StoreEntry]] = {}
        self.revision = 0

    def add(self, term: Term, labels: Set[str],
            source: Optional[Tuple[str, str]] = None) -> StoreEntry:
        self.revision += 1
        key = wire_view(term)
        entry = self.entries.get(key)
        if entry is None:
            entry = StoreEntry(term=term, labels=set(labels),
                               last_rev=self.revision)
            self.entries[key] = entry
            for part in {wire_view(c) for c in _enc_components(term)}:
                self.by_part.setdefault(part, []).append(entry)
        else:
            entry.labels |= labels
            entry.last_rev = self.revision
        if "P" in labels and entry.p_rev is None:
            entry.p_rev = self.revision
        if source:
            entry.sources.add(source)
        return entry

    def snapshot(self) -> List[StoreEntry]:
        """A copy of D_G that later adds leave unchanged.  The simulator
        and Monte Carlo read the live store; the benchmark tracer still
        wraps this method by name."""
        return [StoreEntry(e.term, set(e.labels), e.last_rev, set(e.sources),
                           e.p_rev)
                for e in self.entries.values()]

    def labeled_terms(self, label: str = "P") -> List[Term]:
        return [e.term for e in self.entries.values() if label in e.labels]

    def p_terms_at(self, revision: int) -> Tuple[Term, ...]:
        """The P-labelled terms as D_G held them at `revision`, in
        insertion order."""
        return tuple(e.term for e in self.entries.values()
                     if e.p_rev is not None and e.p_rev <= revision)


def _enc_components(term: Term) -> List[Term]:
    return [t for t in subterms(term)
            if isinstance(t, (SymEnc, AsymEnc, CommEnc))]


@dataclass
class InvariantSpec:
    """Named attack invariant Inv(m, i), evaluated read-only over the
    labelled dataset restricted to revisions before the current message
    (and inside the window when one is configured)."""
    name: str
    params: Dict[str, object] = field(default_factory=dict)

    def candidates(self, m: Term, store: GuardianStore
                   ) -> Collection[StoreEntry]:
        """The entries of `store` that could make `evaluate` fire on `m`:
        the one wire-equal to it for plain replay-equality; for the
        component invariants, those whose own wire view, or one of whose
        encryption components' views, is that of one of `m`'s encryption
        components (of `m` itself when it has none); all of them
        otherwise."""
        if self.name == "replay-equality" and not self.params.get("component"):
            entry = store.entries.get(wire_view(m))
            return [entry] if entry is not None else []
        if self.name in ("replay-equality", "windowed-freshness"):
            found: Dict[int, StoreEntry] = {}
            for part in _enc_components(m) or [m]:
                view = wire_view(part)
                for entry in (store.entries.get(view),
                              *store.by_part.get(view, ())):
                    if entry is not None:
                        found.setdefault(id(entry), entry)
            return list(found.values())
        return store.entries.values()

    def evaluate(self, m: Term, entries: Collection[StoreEntry],
                 delta_c: Distinguisher, window: Optional[int],
                 current_rev: int) -> int:
        visible = [e for e in entries if "P" in e.labels]
        if window is not None:
            visible = [e for e in visible if e.last_rev > current_rev - window]
        if self.name == "replay-equality":
            component = bool(self.params.get("component"))
            for e in visible:
                if not component:
                    if delta_c(e.term) == 1 and wire_eq(e.term, m):
                        return 1
                else:
                    m_parts = _enc_components(m) or [m]
                    prior = {wire_view(c) for c in _enc_components(e.term)}
                    prior.add(wire_view(e.term))
                    if any(wire_view(p) in prior for p in m_parts):
                        return 1
            return 0
        if self.name == "windowed-freshness":
            # An inbound critical message is an attack unless it was part
            # of something the watched source emitted within the window.
            source = self.params.get("source")
            for e in visible:
                if source and source not in e.sources:
                    continue
                parts = {wire_view(c) for c in _enc_components(e.term)}
                parts.add(wire_view(e.term))
                m_parts = _enc_components(m) or [m]
                if all(wire_view(p) in parts for p in m_parts):
                    return 0
            return 1
        if self.name == "cross-request-mismatch":
            req = self.params["request_pattern"]    # binds p, q
            got = match(req, m, {})
            if got is None:
                return 0
            p, q = got["p"], got["q"]
            for e in visible:
                prior = match(req, e.term, {})
                if prior is None or wire_eq(e.term, m):
                    continue
                # someone (prior p) asked about current requester p ...
                if prior["q"] == p and prior["p"] != q:
                    return 1
            return 0
        raise ValueError(f"unknown invariant {self.name!r}")


@dataclass
class FakeSpec:
    label: str = "N_fake"
    kind: str = "nonce"       # nonce | atom
    binding: str = "fake"


@dataclass
class Intercept:
    """Take the triggering message off the wire; with `stop_note` the
    trace also says that G stopped it."""
    stop_note: bool = False


@dataclass
class SendFake:
    """Inject `template` (None: the bare fake) claimed by `mask` toward
    `receiver`, at slot `label` (None: the trigger's next subscript).
    "claimed" and "trigger_receiver" name the triggering message's
    claimed sender and receiver.  The template reads the trigger
    pattern's bindings, the triggering body as `captured` and the fake,
    which is minted unless a binding already holds its name."""
    mask: str
    receiver: str = "trigger_receiver"
    template: Optional[object] = None
    label: Optional[str] = None
    fake: Optional[FakeSpec] = None

    def __post_init__(self):
        if self.template is None and self.fake is None:
            raise ValueError(f"SendFake masked as {self.mask!r} has neither "
                             f"a template nor a fake to send")


@dataclass
class RaiseAbortFlag:
    target: str
    label: str
    style: str = "abort"      # "abort" -> "X aborts", "raise" -> flag text
    mode: str = "after_plan"  # or "deferred" (fires at quiescence)


@dataclass
class InterferencePlan:
    responses: Sequence[object]
    trigger_pattern: Optional[object] = None   # binds names from the capture


@dataclass
class GuardianFilter:
    direction: str            # "inflow" | "outflow"
    target: str
    control: bool = False


@dataclass(frozen=True)
class ModuleLogRow:
    """One module verdict, with the store revision it left D_G at."""
    seq: Optional[int]
    ident: Optional[int]
    crit: Optional[int]
    inv: Optional[int]
    store: GuardianStore = field(repr=False, compare=False)
    revision: int

    @property
    def dataset(self) -> Tuple[Term, ...]:
        """D_G's P-labelled terms after this row."""
        return self.store.p_terms_at(self.revision)


GuardianAction = Union[Erase, Inject, ResilientSignal]

FAKE_BITS = 64   # width of the guardian's fake values


class Guardian(DrawMarks):
    """Runtime guardian bound to one simulation.  The simulator reseeds
    `rng`, which draws the fake values."""

    _moving = (("store", "part"), ("module_log", "grows"),
               ("pending", "copy"), ("deferred_abort", "value"))

    def __init__(self, name: str, filters: Sequence[GuardianFilter],
                 ident: Distinguisher, crit: Distinguisher,
                 invariant: InvariantSpec, plan: InterferencePlan,
                 window: Optional[int] = None):
        self.name = name
        self.filters = list(filters)
        self.ident = ident
        self.crit = crit
        self.invariant = invariant
        self.plan = plan
        self.window = window
        self.rng = random.Random(0)
        # False when the topology hides the legs this invariant judges
        # by: the guardian then cannot characterize attacks and forwards.
        self.invariant_operative = True
        self.store = GuardianStore()
        self.module_log: List[ModuleLogRow] = []
        self.pending: List[GuardianAction] = []   # the interference plan queue
        # fires only at quiescence, once the queue is empty
        self.deferred_abort: Optional[ResilientSignal] = None

    # -- FSM paths and counts, read off the module log --

    @property
    def interference_count(self) -> int:
        """How many spied envelopes made the invariant fire."""
        return sum(1 for row in self.module_log if row.inv)

    @property
    def ident_fsm_log(self) -> List[str]:
        """Identification FSM: delta, lambda (labelled) or phi, delta per
        spied envelope."""
        return [state for row in self.module_log if row.ident is not None
                for state in ("delta", "lambda" if row.ident else "phi",
                              "delta")]

    @property
    def control_fsm_log(self) -> List[str]:
        """Control FSM: delta, iota then rho (invariant hit) or phi, delta
        per checked envelope; delta, phi, delta when it is not critical."""
        out: List[str] = []
        for row in self.module_log:
            if row.crit is not None:
                out += (("delta", "iota", "rho" if row.inv else "phi", "delta")
                        if row.crit else ("delta", "phi", "delta"))
        return out

    # -- spy path --

    def matching_filters(self, env: Envelope) -> List[GuardianFilter]:
        out = []
        for f in self.filters:
            if f.direction == "inflow" and env.receiver == f.target:
                out.append(f)
            elif f.direction == "outflow" and env.true_sender == f.target:
                out.append(f)
        return out

    def control(self, m: Term) -> Tuple[int, Optional[int]]:
        """The Control module's verdict on `m`: its criticality and, for
        a critical message, whether the invariant fires over D_G as it
        stands (None for a message that is not critical)."""
        crit = self.crit(m)
        if not crit:
            return crit, None
        if not self.invariant_operative:
            return crit, 0
        return crit, self.invariant.evaluate(
            m, self.invariant.candidates(m, self.store), self.crit,
            self.window, self.store.revision + 1)

    def process(self, env: Envelope) -> bool:
        """Run the modules on a spied envelope; True iff interference was
        queued for it.  The invariant judges the dataset as it stood
        before this envelope was stored."""
        filters = self.matching_filters(env)
        if not filters:
            return False
        m = env.body
        ident_val = self.ident(m)
        crit_val = inv_val = None
        if ident_val and any(f.control for f in filters):
            crit_val, inv_val = self.control(m)
        entry = self.store.add(m, {"P"} if ident_val else set(),
                               source=(filters[0].direction, filters[0].target))
        if crit_val:
            entry.labels.add("critical")
        if inv_val:
            self._queue_plan(env)
        self.module_log.append(ModuleLogRow(env.seq, ident_val, crit_val,
                                            inv_val, self.store,
                                            self.store.revision))
        return bool(inv_val)

    def record_own(self, term: Term, seq: int) -> None:
        """Own fakes enter D_G labelled, with no module run."""
        self.store.add(term, {"P"}, source=("own", self.name))
        self.module_log.append(ModuleLogRow(seq, None, None, None,
                                            self.store, self.store.revision))

    # -- the plan queue --

    def propose(self, net_pending: Dict[int, Envelope]
                ) -> Optional[GuardianAction]:
        """The head of the queue, or None.  Captures of envelopes that
        already left the wire are dropped; a fake or an abort waits until
        the guardian's own fakes (the module-log rows with no verdict)
        have left the wire.  A head that loses arbitration is offered
        again unchanged."""
        while (self.pending and isinstance(self.pending[0], Erase)
               and self.pending[0].target_seq not in net_pending):
            self.pending.pop(0)
        if not self.pending:
            return None
        head = self.pending[0]
        if not isinstance(head, Erase) and any(
                row.ident is None and row.seq in net_pending
                for row in self.module_log):
            return None
        return head

    def captures(self) -> Set[int]:
        """Seqs of the envelopes the queue means to erase."""
        return {item.target_seq for item in self.pending
                if isinstance(item, Erase)}

    def quiescent(self) -> Optional[ResilientSignal]:
        """The deferred abort, handed out once and only when the plan
        queue is empty; asked for when nobody else has anything to do."""
        if self.pending:
            return None
        signal, self.deferred_abort = self.deferred_abort, None
        return signal

    def committed(self, action: GuardianAction,
                  seq: Optional[int] = None) -> None:
        """The simulator applied `action`, the head of the queue or the
        deferred abort; `seq` numbers the envelope an inject put on the
        wire."""
        if self.pending and self.pending[0] is action:
            self.pending.pop(0)
        if isinstance(action, Inject):
            self.record_own(action.body, seq)

    # -- interference --

    def mint_fake(self, spec: FakeSpec) -> Term:
        while True:
            self.draws += 1
            value = self.rng.getrandbits(FAKE_BITS)
            term = (Nonce(value=value, width=FAKE_BITS, label=spec.label)
                    if spec.kind == "nonce"
                    else Atom(value=value, label=spec.label))
            if wire_view(term) not in self.store.entries:
                return term

    def _queue_plan(self, env: Envelope) -> None:
        """Expand the interference plan into the concrete actions it takes
        against the triggering envelope, fakes minted now."""
        bindings: Dict[str, Term] = {"captured": env.body}
        if self.plan.trigger_pattern is not None:
            got = match(self.plan.trigger_pattern, env.body, {})
            if got is None:
                raise ValueError(
                    f"interference plan pattern does not match {render(env.body)}")
            bindings.update(got)

        for resp in self.plan.responses:
            if isinstance(resp, Intercept):
                self.pending.append(Erase(actor=self.name, target_seq=env.seq,
                                          rank=0, stop_note=resp.stop_note))
            elif isinstance(resp, SendFake):
                bound = dict(bindings)
                if resp.fake and resp.fake.binding not in bound:
                    bound[resp.fake.binding] = self.mint_fake(resp.fake)
                body = (bound[resp.fake.binding] if resp.template is None
                        else instantiate(resp.template, bound, NullMint(),
                                         self.name, 64))
                mask = (env.claimed_sender if resp.mask == "claimed"
                        else resp.mask)
                receiver = (env.receiver if resp.receiver == "trigger_receiver"
                            else resp.receiver)
                self.pending.append(Inject(
                    actor=self.name, claimed=mask, body=body,
                    receiver=receiver,
                    slot=parse_label_slot(resp.label, env.slot), rank=0))
            elif isinstance(resp, RaiseAbortFlag):
                signal = ResilientSignal(guardian=self.name, target=resp.target,
                                         label=resp.label, style=resp.style)
                if resp.mode == "deferred":
                    self.deferred_abort = signal
                else:
                    self.pending.append(signal)
            else:
                raise ValueError(f"unknown interference response {resp!r}")


def parse_label_slot(label: Optional[str], parent: Slot) -> Slot:
    """A response label like '5' or '4_1' becomes a Slot; None derives the
    parent slot's next subscript."""
    if label is None:
        return Slot(parent.session, parent.msg, parent.primes, parent.sub + 1)
    body, _, sub = label.partition("_")
    session, _, msg = body.rpartition(".")
    return Slot(int(session) if session else parent.session, int(msg),
                0, int(sub) if sub else 0)


# -- topological predicates -------------------------------------------------

def topological_advantage(topology: Topology, guardian: str, defended: str,
                          monitored_slots: Sequence[Tuple[str, str]],
                          attackers: Sequence[str]) -> bool:
    """True iff the guardian sees every monitored protocol leg and every
    forgery an attacker can aim at the defended agent.

    `monitored_slots` are the (sender, receiver) legs the guardian's
    invariant depends on; the masquerade clauses reduce to: all injection
    paths toward the defended agent cross the guardian."""
    if defended not in topology.vertices:
        raise ValueError(f"defended agent {defended!r} not in topology")
    for p, q in monitored_slots:
        if not topology.guards_path(guardian, p, q):
            return False
    for e in attackers:
        if not topology.can_reach(e, defended):
            continue
        if not topology.guards_injection(guardian, e, defended):
            return False
    return True


def verify_inverse(attack: AttackFunction,
                   inverse_table: Optional[Dict[int, Callable[[Term], Term]]] = None,
                   samples: Optional[Dict[int, Tuple[Term, Term]]] = None):
    """Mechanical Theorem-1 checklist over the attack table: every
    injection step must have a known inverse recovering the original.

    Replay injections (body is a direct reference to a captured message)
    are self-inverse.  Returns True / False / "unknown"."""
    inverse_table = inverse_table or {}
    captured = set()
    ok = True
    for idx, step in enumerate(attack.steps, start=1):
        if isinstance(step, (EraseStep, ObserveStep)) and step.bind:
            captured.add(step.bind)
        if isinstance(step, InjectStep):
            if isinstance(step.body, Ref) and step.body.name in captured:
                continue  # identity inverse: f^-1(f(m,s),s) = m
            fn = inverse_table.get(idx)
            if fn is None:
                return "unknown"
            if samples and idx in samples:
                m, out = samples[idx]
                ok = ok and fn(out) == m
    return ok


def is_defense_mechanism(topology: Topology, guardian: str, defended: str,
                         monitored_slots: Sequence[Tuple[str, str]],
                         attackers: Sequence[str], attack: AttackFunction,
                         inverse_table=None, samples=None):
    """Theorem 1 reading: topological advantage plus an invertible attack
    function make the guardian a defense mechanism.  Returns True, False
    or "inverse unknown"."""
    inv = verify_inverse(attack, inverse_table, samples)
    if inv == "unknown":
        return "inverse unknown"
    if not inv:
        return False
    return topological_advantage(topology, guardian, defended,
                                 monitored_slots, attackers)

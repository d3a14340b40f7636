"""Protocol role machines and attackers.

Honest agents run scripted roles: alternating expect/send steps over one
node language, read as a pattern by `match` and as a template by
`instantiate`; role-only nodes are prefixed (P for patterns, T for
templates).  They accept any well-typed body matching the expected
pattern -- that looseness is what lets an attacker use an agent as an
oracle in parallel-session attacks, and type flaws are modelled as loose
bindings.

Attackers spy a selection of the traffic (inflow/outflow filters per
target), run a step-indexed attack function, may masquerade, and react
to rival attackers according to their awareness of them: a naive rival
is shadowed (identical intents merge), a known-dishonest rival's forged
traffic is taken off the wire, an uncertain rival gets one free move.
That policy lives in AttackerAgent alone: what it spied is read off the
envelopes' observers, and its step, hesitations and deferrals are its
own state.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from .knowledge import KnowledgeSet
from .marks import DrawMarks, Marked
from .network import Envelope, Erase, Inject, Send, Slot
from .terms import (AgentId, Atom, AsymEnc, AsymKey, CommEnc, Nonce,
                    Pair, Succ, SymEnc, SymKey, Term, comm_enc, comm_strip,
                    inverse_key, pair, pair_items, succ, wire_eq, wire_view,
                    KEY_TYPES, LEAF_TYPES)


# -- shared nodes: both `match` and `instantiate` read these ----------------
# (each rejects the other role's prefixed nodes with a TypeError)

@dataclass(frozen=True)
class Const:
    term: Term


@dataclass(frozen=True)
class Ref:
    """The term bound under `name` earlier in the script."""
    name: str


@dataclass(frozen=True)
class Seq:
    """A message list, the items of a flattened pair chain."""
    items: Tuple[object, ...]


@dataclass(frozen=True)
class Enc:
    """Symmetric encryption of `payload` under `key`."""
    payload: object
    key: object


@dataclass(frozen=True)
class AEnc:
    """Asymmetric encryption of `payload` under `key`."""
    payload: object
    key: object


@dataclass(frozen=True)
class Inc:
    """The successor `base` + `offset`."""
    base: object
    offset: int


def seq(*items) -> Seq:
    return Seq(tuple(items))


# -- patterns ---------------------------------------------------------------

KIND_CHECKS: Dict[str, Callable[[Term], bool]] = {
    "any": lambda t: True,
    "nonce": lambda t: isinstance(t, (Nonce, Atom)),
    "key": lambda t: isinstance(t, KEY_TYPES),
    "pubkey": lambda t: isinstance(t, AsymKey) and not t.private,
    "agent": lambda t: isinstance(t, AgentId),
    "leaf": lambda t: isinstance(t, LEAF_TYPES),
    "symenc": lambda t: isinstance(t, SymEnc),
    "commenc": lambda t: isinstance(t, CommEnc),
}


@dataclass(frozen=True)
class PBind:
    name: str
    kind: str = "any"

    def __post_init__(self):
        if self.kind not in KIND_CHECKS:
            raise ValueError(f"PBind {self.name!r} has unknown kind "
                             f"{self.kind!r}; known: {', '.join(KIND_CHECKS)}")


@dataclass(frozen=True)
class PPair:
    """One exact Pair node: left/right without chain flattening (how an
    agent misparses a longer message -- the type-flaw hook)."""
    left: object
    right: object


def match(pattern, term: Term, bindings: Dict[str, Term]) -> Optional[Dict[str, Term]]:
    """Match `term` against `pattern`, extending a copy of `bindings`;
    None on mismatch.  Value comparisons (constants, back-references,
    successor checks) are wire-level -- agents compare received bits, so
    a colliding value passes even if its symbolic kind differs."""
    out = dict(bindings)
    return out if _bind(pattern, term, out) else None


def _bind(pattern, term: Term, out: Dict[str, Term]) -> bool:
    """`match` on the one copy it made: bind into `out` in place, left to
    right, and say whether `term` matched.  Nodes dispatch on their exact
    type, the most common first."""
    cls = type(pattern)
    if cls is PBind:
        if not KIND_CHECKS[pattern.kind](term):
            return False
        out[pattern.name] = term
        return True
    if cls is Seq:
        items = pair_items(term)
        if len(items) != len(pattern.items):
            return False
        for pat, sub in zip(pattern.items, items):
            if not _bind(pat, sub, out):
                return False
        return True
    if cls is Ref:
        bound = out.get(pattern.name)
        return bound is not None and wire_eq(term, bound)
    if cls is Const:
        return wire_eq(term, pattern.term)
    if cls is Enc or cls is AEnc:
        return (type(term) is (SymEnc if cls is Enc else AsymEnc)
                and _bind(pattern.key, term.key, out)
                and _bind(pattern.payload, term.payload, out))
    if cls is PPair:
        return (type(term) is Pair and _bind(pattern.left, term.left, out)
                and _bind(pattern.right, term.right, out))
    if cls is Inc:
        if type(term) is Succ and term.offset == pattern.offset:
            return _bind(pattern.base, term.base, out)
        # wire fallback: a bare value equal to base+offset passes the
        # increment check (bits are bits)
        expected = None
        if type(pattern.base) is Ref:
            expected = out.get(pattern.base.name)
        elif type(pattern.base) is Const:
            expected = pattern.base.term
        return expected is not None and \
            wire_eq(term, succ(expected, pattern.offset))
    raise TypeError(f"not a pattern: {pattern!r}")


# -- templates --------------------------------------------------------------

@dataclass(frozen=True)
class TFresh:
    """A fresh value minted at instantiation time.

    `label` may contain {agent}; a repeated label for the same scenario
    gains prime marks (N_A, N'_A, ...)."""
    binding: str
    kind: str = "nonce"       # nonce | symkey | asymkey | atom
    label: str = "N_{agent}"


@dataclass(frozen=True)
class TCommEnc:
    payload: object
    keys: Tuple[object, ...]


@dataclass(frozen=True)
class TCommStrip:
    """Remove this agent's commutative layer from a bound term; a body
    without such a layer is passed through reinterpreted (type-tolerant)."""
    source: str
    key: object


@dataclass(frozen=True)
class TDecryptPayload:
    """Loose decryption: if the bound term is an encryption under `key`
    (or its inverse), the payload; otherwise the raw bits reinterpreted
    as a fresh-looking value (renders M_fake -> N_fake)."""
    source: str
    key: object


@dataclass(frozen=True)
class TKeyLookup:
    """Directory lookup: the term bound as key_<agent-name> in the
    script's initial bindings (trusted parties hold key tables)."""
    agent_ref: str


def reinterpret(term: Term) -> Term:
    """View a term's bits as a nonce (junk decryption / type flaw)."""
    if isinstance(term, (Nonce, Atom)):
        label = term.label
        new_label = "N" + label[1:] if label.startswith("M") else label + "*"
        return Nonce(value=term.value, label=new_label)
    # a digest, not hash(): the value must not depend on PYTHONHASHSEED.
    # Imported here because loading hashlib costs about 4 MB of memory and
    # only junk decryptions need it.
    import hashlib
    digest = hashlib.sha256(repr(wire_view(term)).encode()).digest()
    return Nonce(value=int.from_bytes(digest[:8], "big") % (1 << 62),
                 label="junk")


class FreshMint(DrawMarks):
    """Deterministic fresh-value source with scenario-unique labels."""

    KINDS = ("nonce", "symkey", "asymkey", "atom")
    _moving = (("_used_labels", "copy"),)

    def __init__(self, rng):
        self.rng = rng
        self._used_labels: Dict[str, int] = {}

    def label_for(self, template: str, agent: str) -> str:
        base = template.replace("{agent}", agent)
        n = self._used_labels.get(base, 0)
        self._used_labels[base] = n + 1
        if n == 0:
            return base
        head, sep, tail = base.partition("_")
        return head + "'" * n + sep + tail

    def mint(self, spec: TFresh, agent: str, nonce_bits: int) -> Term:
        label = self.label_for(spec.label, agent)
        self.draws += 1
        if spec.kind == "nonce":
            return Nonce(value=self.rng.getrandbits(nonce_bits),
                         width=nonce_bits, label=label)
        value = self.rng.getrandbits(max(nonce_bits, 8))
        if spec.kind == "symkey":
            return SymKey(value=value, label=label)
        if spec.kind == "asymkey":
            return AsymKey(pair_id=value, private=False, label=label)
        if spec.kind == "atom":
            return Atom(value=value, label=label)
        raise ValueError(f"unknown fresh kind {spec.kind!r}")

def instantiate(template, bindings: Dict[str, Term], mint: FreshMint,
                agent: str, nonce_bits: int) -> Term:
    if isinstance(template, Const):
        return template.term
    if isinstance(template, Ref):
        return bindings[template.name]
    if isinstance(template, TFresh):
        value = mint.mint(template, agent, nonce_bits)
        bindings[template.binding] = value
        return value
    if isinstance(template, Seq):
        items = [instantiate(t, bindings, mint, agent, nonce_bits)
                 for t in template.items]
        return pair(*items) if len(items) > 1 else items[0]
    if isinstance(template, Enc):
        key = instantiate(template.key, bindings, mint, agent, nonce_bits)
        payload = instantiate(template.payload, bindings, mint, agent, nonce_bits)
        return SymEnc(payload, key)
    if isinstance(template, AEnc):
        key = instantiate(template.key, bindings, mint, agent, nonce_bits)
        payload = instantiate(template.payload, bindings, mint, agent, nonce_bits)
        return AsymEnc(payload, key)
    if isinstance(template, TCommEnc):
        keys = [instantiate(k, bindings, mint, agent, nonce_bits)
                for k in template.keys]
        payload = instantiate(template.payload, bindings, mint, agent, nonce_bits)
        return comm_enc(payload, keys)
    if isinstance(template, Inc):
        return succ(instantiate(template.base, bindings, mint, agent,
                                nonce_bits), template.offset)
    if isinstance(template, TCommStrip):
        source = bindings[template.source]
        key = instantiate(template.key, bindings, mint, agent, nonce_bits)
        if isinstance(source, CommEnc) and key in source.keys:
            return comm_strip(source, key)
        return reinterpret(source)
    if isinstance(template, TDecryptPayload):
        source = bindings[template.source]
        key = instantiate(template.key, bindings, mint, agent, nonce_bits)
        if isinstance(source, (SymEnc, AsymEnc)):
            if source.key == key:
                return source.payload
            if isinstance(source.key, KEY_TYPES) and \
                    inverse_key(source.key) == key:
                return source.payload
        return reinterpret(source)
    if isinstance(template, TKeyLookup):
        owner = bindings[template.agent_ref]
        name = owner.name if isinstance(owner, AgentId) else str(owner)
        return bindings[f"key_{name}"]
    raise TypeError(f"not a template: {template!r}")


# -- role scripts -----------------------------------------------------------

def _anchor(pattern):
    """(path, node) of the first `Ref` in `match` order, else of the first
    `Const`, that `pattern` requires; None when it has neither.  A path
    step is (n, i), item i of an n-item `Seq`, or (term class, attribute)
    through a `PPair`, `Enc` or `AEnc`.  No path enters an `Inc` (its
    wire fallback takes other shapes), and a `Ref` to a name the pattern
    binds itself does not count."""
    found, binds = [], set()
    _walk(pattern, (), True, found, binds)
    refs = [a for a in found
            if isinstance(a[1], Ref) and a[1].name not in binds]
    consts = [a for a in found if isinstance(a[1], Const)]
    return (refs or consts or [None])[0]


# composite node -> the term class `match` requires and its parts in order
_BRANCHES = {PPair: (Pair, ("left", "right")),
             Enc: (SymEnc, ("key", "payload")),
             AEnc: (AsymEnc, ("key", "payload"))}


def _walk(node, path, open_, found, binds) -> None:
    if isinstance(node, PBind):
        binds.add(node.name)
    elif isinstance(node, (Ref, Const)):
        if open_:
            found.append((path, node))
    elif type(node) in _BRANCHES:
        cls, attrs = _BRANCHES[type(node)]
        for attr in attrs:
            _walk(getattr(node, attr), path + ((cls, attr),), open_, found,
                  binds)
    elif isinstance(node, Seq):
        for i, item in enumerate(node.items):
            _walk(item, path + ((len(node.items), i),), open_, found, binds)
    elif isinstance(node, Inc):
        _walk(node.base, path, False, found, binds)


def _names(node) -> Set[str]:
    """The names a node of the shared language binds or reads."""
    if isinstance(node, (PBind, Ref)):
        return {node.name}
    if isinstance(node, Seq):
        parts = node.items
    elif type(node) in _BRANCHES:
        parts = [getattr(node, attr) for attr in _BRANCHES[type(node)][1]]
    else:
        parts = [node.base] if isinstance(node, Inc) else []
    return set().union(*map(_names, parts))


def _follow(term: Term, path) -> Optional[Term]:
    """The subterm of `term` at an anchor path, or None where `match`
    would reject `term` on the way (same type and item-count checks)."""
    for kind, arg in path:
        if isinstance(kind, int):
            items = pair_items(term)
            if len(items) != kind:
                return None
            term = items[arg]
        elif isinstance(term, kind):
            term = getattr(term, arg)
        else:
            return None
    return term


@dataclass(frozen=True)
class ExpectStep:
    pattern: object
    msg: int

    @functools.cached_property
    def anchor(self):
        """`_anchor` of the pattern, found when a session first waits here."""
        return _anchor(self.pattern)


@dataclass(frozen=True)
class SendStep:
    receiver: object          # str constant or Ref to a bound AgentId
    body: object              # template
    msg: int = 0
    relative: bool = False    # msg = last consumed message number + 1


@dataclass(frozen=True)
class RoleScript:
    name: str
    steps: Tuple[object, ...]
    initial_bindings: Dict[str, Term] = field(default_factory=dict)

    def first_expect(self):
        if self.steps and isinstance(self.steps[0], ExpectStep):
            return self.steps[0]
        return None


@dataclass
class Consumed:
    """An envelope accepted into a session at a given protocol step."""
    env: Envelope
    msg: int


@dataclass
class Session(Marked):
    # `bindings` is replaced, never changed in place
    _moving = (("pc", "value"), ("status", "value"), ("bindings", "value"),
               ("consumed", "grows"), ("last_msg", "value"))

    key: int                  # agent-local ordinal
    net_session: int          # protocol session label on the wire
    script: RoleScript
    bindings: Dict[str, Term]
    pc: int = 0
    status: str = "active"    # active | complete | aborted
    consumed: List[Consumed] = field(default_factory=list)
    last_msg: int = 0

    def current(self):
        if self.pc < len(self.script.steps):
            return self.script.steps[self.pc]
        return None


class HonestAgent(Marked):
    """Follows its role scripts; never inspects envelope identities.

    Active sessions are filed by the step they stand at: the keys of the
    sessions whose next step is a send sit in a min-heap, those waiting
    on an expect map to that step and sit in a bucket keyed by their
    step's anchor (`_anchor`) path and the wire view of its `Const` or of
    the session's binding of its `Ref`, or else in the residual bucket.
    `deliver` looks up the body's wire view at each filed path and tries
    only those buckets' sessions and the residual ones, in ascending key
    order.  Once the guardian raises its abort flag (`abort`), the agent
    opens and advances nothing more."""

    _moving = (("sessions", "each"), ("aborted", "value"),
               ("_send_cache", "copy"), ("_ready", "copy"),
               ("_waiting", "copy"), ("_buckets", "copy"),
               ("_paths", "copy"), ("_consumed", "copy"))

    def __init__(self, name: str, responder_scripts: Sequence[RoleScript] = ()):
        self.name = name
        self.responder_scripts = list(responder_scripts)
        self.sessions: Dict[int, Session] = {}
        self.aborted = False
        self._send_cache: Dict[Tuple[int, int], Send] = {}
        self._ready: List[int] = []          # min-heap of send-ready keys
        # key -> (awaited step, its bucket: (anchor path, wire view) or None)
        self._waiting: Dict[int, Tuple[ExpectStep, object]] = {}
        self._buckets: Dict[object, Tuple[int, ...]] = {}   # None: the residual
        self._paths: Set[tuple] = set()   # every anchor path ever filed
        # (net_session, wire view) of every body a session consumed
        self._consumed: Set[Tuple[int, object]] = set()

    def _new_key(self) -> int:
        # keys run 1, 2, ... and are never removed
        return len(self.sessions) + 1

    def _file(self, sess: Session) -> None:
        """Put a session that just moved under the step it now stands at;
        one past its last step, it is complete."""
        step = sess.current()
        if step is None:
            sess.status = "complete"
        elif isinstance(step, SendStep):
            heapq.heappush(self._ready, sess.key)
        else:
            slot = None
            if step.anchor is not None:
                path, node = step.anchor
                value = node.term if isinstance(node, Const) \
                    else sess.bindings.get(node.name)
                if value is not None:
                    slot = (path, wire_view(value))
                    self._paths.add(path)
            self._waiting[sess.key] = (step, slot)
            self._buckets[slot] = self._buckets.get(slot, ()) + (sess.key,)

    def _consume(self, sess: Session, env: Envelope, msg: int) -> None:
        sess.consumed.append(Consumed(env, msg))
        self._consumed.add((sess.net_session, wire_view(env.body)))

    def start_session(self, net_session: int, script: RoleScript) -> Session:
        sess = Session(key=self._new_key(), net_session=net_session,
                       script=script, bindings=dict(script.initial_bindings))
        self.sessions[sess.key] = sess
        if script.steps:
            self._file(sess)
        return sess

    def abort(self) -> None:
        """The guardian raised this agent's abort flag: every active
        session is aborted."""
        self.aborted = True
        for sess in self.sessions.values():
            if sess.status == "active":
                sess.status = "aborted"
        self._ready.clear()
        self._waiting.clear()
        self._buckets.clear()
        self._paths.clear()

    def deliver(self, env: Envelope) -> None:
        """Consume a delivered body: advance a waiting session, or open a
        responder session; silently ignore non-matching bodies.  A replay
        of a body already consumed under the same session label never
        opens a second session."""
        keys = list(self._buckets.get(None, ()))
        for path in self._paths:
            sub = _follow(env.body, path)
            if sub is not None:
                keys.extend(self._buckets.get((path, wire_view(sub)), ()))
        for key in sorted(keys):
            sess = self.sessions[key]
            step, slot = self._waiting[key]
            bound = match(step.pattern, env.body, sess.bindings)
            if bound is not None:
                del self._waiting[key]
                bucket = self._buckets[slot]
                if len(bucket) == 1:
                    del self._buckets[slot]
                else:
                    self._buckets[slot] = tuple(k for k in bucket if k != key)
                sess.bindings = bound
                sess.pc += 1
                sess.last_msg = step.msg
                self._consume(sess, env, step.msg)
                self._file(sess)
                return
        if self.aborted:
            return
        if (env.slot.session, wire_view(env.body)) in self._consumed:
            return
        for script in self.responder_scripts:
            first = script.first_expect()
            if first is None:
                continue
            bound = match(first.pattern, env.body, script.initial_bindings)
            if bound is not None:
                sess = Session(key=self._new_key(),
                               net_session=env.slot.session, script=script,
                               bindings=bound, pc=1,
                               last_msg=env.slot.msg or first.msg)
                self.sessions[sess.key] = sess
                self._consume(sess, env, first.msg)
                self._file(sess)
                return

    def poll(self, mint: FreshMint, nonce_bits: int) -> Optional[Send]:
        """Propose the send of the lowest-keyed send-ready session.  The
        send, fresh values and all, is built once and cached so a
        proposal that loses arbitration re-proposes unchanged; the
        program counter only advances in commit_send."""
        if self.aborted or not self._ready:
            return None
        key = self._ready[0]
        sess = self.sessions[key]
        cache_key = (key, sess.pc)
        send = self._send_cache.get(cache_key)
        if send is None:
            step = sess.current()
            receiver = step.receiver
            if isinstance(receiver, Ref):
                bound = sess.bindings[receiver.name]
                receiver = bound.name if isinstance(bound, AgentId) else str(bound)
            # bound in a new dict: a mark keeps the old one by reference
            bindings = dict(sess.bindings)
            body = instantiate(step.body, bindings, mint, self.name,
                               nonce_bits)
            sess.bindings = bindings
            msg = sess.last_msg + 1 if step.relative else step.msg
            send = self._send_cache[cache_key] = Send(
                sender=self.name, body=body, receiver=receiver,
                slot=Slot(session=sess.net_session, msg=msg), session_key=key)
        return send

    def commit_send(self, key: int) -> None:
        """Advance the session whose send `poll` proposed and was applied."""
        if not self._ready or self._ready[0] != key:
            raise ValueError(f"{self.name} proposed no send of session {key}")
        heapq.heappop(self._ready)
        sess = self.sessions[key]
        self._send_cache.pop((key, sess.pc), None)
        step = sess.current()
        sess.last_msg = sess.last_msg + 1 if step.relative else step.msg
        sess.pc += 1
        self._file(sess)

# -- attackers --------------------------------------------------------------

@dataclass(frozen=True)
class ObserveStep:
    """Passive capture: bind a spied/received message, no network action."""
    bind: str
    pattern: object
    from_agent: Optional[str] = None   # perceived (claimed) sender filter
    to_agent: Optional[str] = None


@dataclass(frozen=True)
class EraseStep:
    pattern: object
    from_agent: str                    # perceived (claimed) sender
    to_agent: Optional[str] = None
    bind: Optional[str] = None


@dataclass(frozen=True)
class InjectStep:
    body: object                       # template over captured bindings
    claimed: str
    receiver: str
    slot: Slot


@dataclass(frozen=True)
class AttackFunction:
    """Step-indexed attack strategy; steps are consumed in order.

    Each network-active step maps a spied/known message to Erase or
    Injection whose output is protocol-acceptable (or empty)."""
    name: str
    steps: Tuple[object, ...]


# one AgentId per name, so that knowledge sets hash each name once
agent_id = functools.cache(AgentId)


class AttackerAgent(Marked):
    """Dolev-Yao attacker that spies both the inflow and the outflow of
    the agents it is interested in and runs a scripted attack function.

    variant:
      proceed  - runs the function, shadows identical rival moves
      divert   - additionally takes known-dishonest rivals' forgeries
                 off the wire (the interference game)
    """

    _moving = (("awareness", "copy"), ("knowledge", "part"),
               ("bindings", "copy"), ("step_ptr", "value"),
               ("engaged", "value"), ("hesitations", "copy"),
               ("deferrals", "copy"))

    def __init__(self, name: str, interest: Sequence[str],
                 function: Optional[AttackFunction] = None,
                 variant: str = "proceed",
                 awareness: Optional[Dict[str, str]] = None,
                 knowledge: Optional[KnowledgeSet] = None):
        self.name = name
        self.interest = set(interest)
        self.function = function
        self.variant = variant
        self.awareness = dict(awareness or {})
        self.knowledge = knowledge or KnowledgeSet()
        self.bindings: Dict[str, Term] = {}
        self.step_ptr = 0
        self.engaged = False
        # seqs of the envelopes this attacker let pass once (hesitation)
        self.hesitations: Set[int] = set()
        # seq -> step at which it left that envelope's erase to a rival
        self.deferrals: Dict[int, int] = {}

    # -- knowledge / spying --

    def watch(self, env: Envelope) -> bool:
        """Spy an envelope passing this attacker's station through the
        inflow/outflow filters; True iff a filter caught it.  Filters go
        by perceived identities: masquerades fool rival interceptors too."""
        inflow = env.receiver in self.interest
        outflow = env.claimed_sender in self.interest
        if inflow:
            self.spy(env, "inflow")
        if outflow:
            self.spy(env, "outflow")
        return inflow or outflow

    def sees(self, env: Envelope) -> bool:
        """True iff this attacker spied `env` or injected it."""
        return self.name in env.observers or \
            (env.injected and env.true_sender == self.name)

    def spy(self, env: Envelope, direction: str) -> None:
        """Apply the inflow/outflow spy rule: record the body, plus the
        true sender (inflow) or the receiver (outflow)."""
        self.knowledge.add(env.body, agent_id(
            env.true_sender if direction == "inflow" else env.receiver))
        self._note_rival(env)
        self._observe(env)

    def receive(self, env: Envelope) -> None:
        self.knowledge.add(env.body)
        self._observe(env)

    def _note_rival(self, env: Envelope) -> None:
        if not env.injected or env.true_sender == self.name:
            return
        rival = env.true_sender
        # A witnessed masquerade settles an unsure opinion, but the
        # envelope that revealed it gets a free pass (hesitation).
        if env.claimed_sender != rival and \
                self.awareness.get(rival) == "unsure":
            self.awareness[rival] = "dishonest"
            self.hesitations.add(env.seq)

    def _observe(self, env: Envelope) -> None:
        while self.function is not None:
            step = self.current_step()
            if not isinstance(step, ObserveStep):
                break
            if step.from_agent and env.claimed_sender != step.from_agent:
                break
            if step.to_agent and env.receiver != step.to_agent:
                break
            bound = match(step.pattern, env.body, self.bindings)
            if bound is None:
                break
            self.bindings = bound
            self.bindings[step.bind] = env.body
            self.step_ptr += 1

    def current_step(self):
        if self.function and self.step_ptr < len(self.function.steps):
            return self.function.steps[self.step_ptr]
        return None

    def note_slot_filled(self, env: Envelope) -> None:
        """A delivered envelope filled a protocol slot; an inject step
        aimed at that slot is moot to a vigilant attacker that saw or
        received the envelope."""
        step = self.current_step()
        if isinstance(step, InjectStep) and self.variant == "divert" \
                and (env.slot.session, env.slot.msg) == \
                    (step.slot.session, step.slot.msg) \
                and (self.sees(env) or env.receiver == self.name):
            self.step_ptr += 1

    # -- action selection --

    def rank(self) -> int:
        return 0 if (self.variant == "divert" and self.engaged) else 1

    def propose(self, pending: Dict[int, Envelope],
                earlier: Sequence["AttackerAgent"]
                ) -> Optional[Union[Erase, Inject]]:
        """This round's intended action, or None.  `earlier` are the
        rivals placed before this attacker: a vigilant unengaged attacker
        leaves an erase to one it suspects and that sees the envelope,
        and records the deferral instead of proposing."""
        if any(seq in self.hesitations for seq in pending):
            return None   # watches while a hesitated-on envelope is in flight
        rival_env = self._rival_target(pending)
        if rival_env is not None:
            return Erase(actor=self.name, target_seq=rival_env.seq, rank=0)
        step = self.current_step()
        if isinstance(step, EraseStep):
            for seq in sorted(pending):
                env = pending[seq]
                if not self.sees(env):
                    continue
                if env.claimed_sender != step.from_agent:
                    continue
                if step.to_agent and env.receiver != step.to_agent:
                    continue
                if match(step.pattern, env.body, self.bindings) is None:
                    continue
                if self.variant == "divert" and not self.engaged and any(
                        self.awareness.get(r.name) in ("dishonest", "unsure")
                        and r.sees(env) for r in earlier):
                    self.deferrals[seq] = self.step_ptr
                    return None
                return Erase(actor=self.name, target_seq=seq,
                             rank=self.rank(), own_step=True)
            return None
        if isinstance(step, InjectStep):
            if self.variant != "divert":
                # a rival already sent exactly this: shadow it
                for seq in sorted(pending):
                    env = pending[seq]
                    if self.sees(env) and env.claimed_sender == step.claimed \
                            and env.receiver == step.receiver \
                            and wire_eq(env.body, self._render_body(step)):
                        env.sender_credits.add(self.name)
                        self.step_ptr += 1
                        return None
            body = self._render_body(step)
            return Inject(actor=self.name, claimed=step.claimed, body=body,
                          receiver=step.receiver, slot=step.slot,
                          rank=self.rank())
        return None

    def _rival_target(self, pending: Dict[int, Envelope]
                      ) -> Optional[Envelope]:
        """A known-dishonest rival's forged envelope visible to me."""
        if self.variant != "divert":
            return None
        for seq in sorted(pending):
            env = pending[seq]
            if not env.injected or env.true_sender == self.name:
                continue
            if not self.sees(env) or seq in self.hesitations:
                continue
            if self.awareness.get(env.true_sender) == "dishonest":
                return env
        return None

    # -- what became of the proposals --

    def took(self, env: Envelope) -> None:
        """`env` left the wire on this attacker's erase, or on an identical
        one merged with it: an erase step binds what it captured and is
        consumed."""
        step = self.current_step()
        if isinstance(step, EraseStep):
            got = match(step.pattern, env.body, self.bindings)
            if got is not None:
                self.bindings = got
            if step.bind:
                self.bindings[step.bind] = env.body
            self.step_ptr += 1

    def took_deferred(self, env: Envelope) -> bool:
        """A rival took `env`, whose erase this attacker left to it: if
        it still stands at the step it deferred at, it consumes that step
        vicariously.  True iff it did (it then shares the capture)."""
        if self.deferrals.get(env.seq) != self.step_ptr or \
                not isinstance(self.current_step(), EraseStep):
            return False
        self.took(env)
        return True

    def injected(self) -> None:
        """This attacker's injection went on the wire."""
        self.step_ptr += 1
        self.engaged = True

    def _render_body(self, step: InjectStep) -> Term:
        return instantiate(step.body, self.bindings, NullMint(), self.name, 64)

    def capture_of(self, s: int):
        """The last `EraseStep` or `ObserveStep` before inject step s that
        binds, by its `bind` or a `PBind` of its pattern, a name the
        step's body reads.  None for a body that reads no capture and
        replays what the attacker held before the run."""
        reads = _names(self.function.steps[s - 1].body)
        return next((step for step in reversed(self.function.steps[:s - 1])
                     if isinstance(step, (EraseStep, ObserveStep))
                     and reads & (_names(step.pattern) | {step.bind})), None)

    def attack_step(self, spied: Term, s: int):
        """The attack function at step s applied to a spied message: an
        erase step's ("Erase", None), or an inject step's ("Injection",
        body) rendered as if its capture step had taken `spied`; None on
        a pattern mismatch."""
        if not self.function or s < 1 or s > len(self.function.steps):
            return None
        step = self.function.steps[s - 1]
        if isinstance(step, EraseStep):
            if match(step.pattern, spied, self.bindings) is None:
                return None
            return ("Erase", None)
        if isinstance(step, InjectStep):
            bound, capture = self.bindings, self.capture_of(s)
            if capture is not None:
                bound = match(capture.pattern, spied, bound)
                if bound is None:
                    return None
                if capture.bind:
                    bound[capture.bind] = spied
            return ("Injection", instantiate(step.body, bound, NullMint(),
                                             self.name, 64))
        return None

class NullMint:
    """Attack and guardian templates never mint fresh protocol values:
    their values come from bindings (a guardian's from FakeSpec), so
    this mint exists only to fail loudly."""

    def mint(self, spec, agent, nonce_bits):
        raise ValueError("only honest roles mint fresh protocol values; "
                         "attack and guardian templates use bindings")

"""Symbolic message terms.

Terms are immutable values: atoms, agent names, nonces, keys, pairs,
encryptions, numeric successors and timestamps.  Equality is structural
(constructor tree plus leaf values); rendering labels never participate
in equality, so two distinct fresh values that happen to share a wire
value compare equal -- that collision is exactly what the false-positive
analysis measures.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from typing import Iterator, Tuple, Union


class TermError(Exception):
    """Raised for malformed term constructions (e.g. inverting a non-key)."""


class _Kept:
    """Base of the term classes: the hash is kept in a slot filled on first
    use.  Pickle and copy rebuild a term, since a hash is per hash seed."""
    __slots__ = ("_hash",)
    _wire = None   # a leaf's view is built afresh, as cheap as keeping one

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:   # not hashed yet
            h = self._fields_hash()
            object.__setattr__(self, "_hash", h)
            return h


def _term(cls):
    """A frozen, slotted dataclass whose kept hash is the dataclass hash of
    the compared fields, so sets iterate as they would without the cache.
    Its `__init__` has the dataclass one's signature but fills each slot
    through the slot's own descriptor, which costs less than the
    `object.__setattr__` call per field that a frozen dataclass makes."""
    cls = dataclass(frozen=True, slots=True)(cls)
    # _Kept's __setattr__ and __delattr__ stand in for dataclass's, which,
    # like 3.10's leftover __weakref__, keep the class it replaced alive
    for name in vars(cls).keys() & {"__setattr__", "__delattr__",
                                    "__weakref__"}:
        delattr(cls, name)
    cls._fields_hash, cls.__hash__ = cls.__hash__, _Kept.__hash__
    # the fields dataclass's __init__ sets: the init ones, and the others'
    # defaults (a composite's `_wire = None`)
    filled = [f for f in fields(cls) if f.init or f.default is not MISSING]
    env = {"__name__": cls.__module__}
    for f in filled:
        env["_s_" + f.name] = vars(cls)[f.name].__set__
        env["_d_" + f.name] = f.default
    params = "".join(f", {f.name}" if f.default is MISSING
                     else f", {f.name}=_d_{f.name}" for f in filled if f.init)
    exec(f"def __init__(self{params}):\n" + "".join(
        f"    _s_{f.name}(self, {f.name if f.init else '_d_' + f.name})\n"
        for f in filled), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


def _cached(cls):
    """A composite term, which keeps its wire view in a field."""
    cls.__annotations__["_wire"] = "object"
    cls._wire = field(default=None, init=False, compare=False, repr=False)
    return _term(cls)


@_term
class Atom(_Kept):
    """Opaque protocol constant or attacker-forged blob."""
    value: int
    label: str = field(default="m", compare=False)

    def __repr__(self):
        return f"Atom({self.label}#{self.value})"


@_term
class AgentId(_Kept):
    name: str

    def __repr__(self):
        return f"AgentId({self.name})"


@_term
class Nonce(_Kept):
    value: int
    width: int = 64
    label: str = field(default="N", compare=False)

    def __repr__(self):
        return f"Nonce({self.label}#{self.value})"


@_term
class SymKey(_Kept):
    """Symmetric key; its own inverse."""
    value: int
    label: str = field(default="K", compare=False)

    def __repr__(self):
        return f"SymKey({self.label}#{self.value})"


@_term
class AsymKey(_Kept):
    """One half of an asymmetric pair; inverse flips polarity."""
    pair_id: int
    private: bool = False
    label: str = field(default="K", compare=False)

    def __repr__(self):
        inv = "^-1" if self.private else ""
        return f"AsymKey({self.label}{inv}#{self.pair_id})"


@_term
class Password(_Kept):
    value: int
    label: str = field(default="P", compare=False)

    def __repr__(self):
        return f"Password({self.label}#{self.value})"


@_cached
class Pair(_Kept):
    left: "Term"
    right: "Term"


@_cached
class SymEnc(_Kept):
    payload: "Term"
    key: "Term"


@_cached
class AsymEnc(_Kept):
    payload: "Term"
    key: "Term"


@_cached
class CommEnc(_Kept):
    """Commutative encryption: an unordered multiset of key layers."""
    payload: "Term"
    keys: Tuple["Term", ...]  # canonically sorted; never empty


@_cached
class Succ(_Kept):
    """base + offset on the wire; offset > 0, base never itself a Succ."""
    base: "Term"
    offset: int


@_term
class Timestamp(_Kept):
    value: int
    label: str = field(default="T", compare=False)


@_term
class Lifetime(_Kept):
    value: int
    label: str = field(default="L", compare=False)


Term = Union[Atom, AgentId, Nonce, SymKey, AsymKey, Password, Pair,
             SymEnc, AsymEnc, CommEnc, Succ, Timestamp, Lifetime]

LEAF_TYPES = (Atom, AgentId, Nonce, SymKey, AsymKey, Password, Timestamp, Lifetime)
# the leaves whose wire view is their bare value, looked up by exact type
VALUE_LEAVES = frozenset((Nonce, SymKey, Password, Atom, Timestamp, Lifetime))
KEY_TYPES = (SymKey, AsymKey, Password)


def _term_sort_key(t: Term):
    return (type(t).__name__, repr(wire_view(t)))


def comm_enc(payload: Term, keys) -> Term:
    """Build a CommEnc, merging nested layers; an empty key set is the payload."""
    key_list = list(keys)
    if isinstance(payload, CommEnc):
        key_list.extend(payload.keys)
        payload = payload.payload
    if not key_list:
        return payload
    return CommEnc(payload, tuple(sorted(key_list, key=_term_sort_key)))


def comm_strip(term: Term, key: Term) -> Term:
    """Remove one layer of `key` from a CommEnc; error if absent."""
    if not isinstance(term, CommEnc) or key not in term.keys:
        raise TermError(f"cannot strip {key!r} from {term!r}")
    keys = list(term.keys)
    keys.remove(key)
    return comm_enc(term.payload, keys)


def succ(base: Term, offset: int) -> Term:
    """Normalised successor: Succ(Succ(t,a),b) = Succ(t,a+b); Succ(t,0) = t."""
    if isinstance(base, Succ):
        offset += base.offset
        base = base.base
    if offset == 0:
        return base
    return Succ(base, offset)


def pair(*items: Term) -> Term:
    """Right-nested pair chain from two or more terms."""
    if len(items) < 2:
        raise TermError("pair needs at least two items")
    result = items[-1]
    for item in reversed(items[:-1]):
        result = Pair(item, result)
    return result


def pair_items(t: Term) -> list:
    """Flatten a right-nested pair chain."""
    items = []
    while isinstance(t, Pair):
        items.append(t.left)
        t = t.right
    items.append(t)
    return items


def inverse_key(key: Term) -> Term:
    """Inverse of an encryption key: symmetric keys and passwords are
    self-inverse, asymmetric keys flip polarity."""
    if isinstance(key, (SymKey, Password)):
        return key
    if isinstance(key, AsymKey):
        return AsymKey(key.pair_id, not key.private, key.label)
    raise TermError(f"not a key: {key!r}")


def subterms(t: Term) -> Iterator[Term]:
    """All subterms including t itself (pre-order)."""
    yield t
    if isinstance(t, Pair):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, (SymEnc, AsymEnc)):
        yield from subterms(t.payload)
        yield from subterms(t.key)
    elif isinstance(t, CommEnc):
        yield from subterms(t.payload)
        for k in t.keys:
            yield from subterms(k)
    elif isinstance(t, Succ):
        yield from subterms(t.base)


def wire_view(t: Term):
    """Canonical wire encoding of a term.

    Leaf kinds collapse to their numeric value (on the wire a nonce and a
    key of equal value are the same bitstring); a Succ over a leaf folds
    into the value.  Structure (pairing, encryption layers) is preserved.
    """
    if type(t) in VALUE_LEAVES:
        return ("leaf", t.value)
    try:
        view = t._wire
    except AttributeError:
        raise TermError(f"not a term: {t!r}") from None
    if view is not None:
        return view
    if isinstance(t, AgentId):
        return ("agent", t.name)
    if isinstance(t, AsymKey):
        return ("akey", t.pair_id, t.private)
    if isinstance(t, Succ):
        base = wire_view(t.base)
        view = (("leaf", base[1] + t.offset) if base[0] == "leaf"
                else ("succ", base, t.offset))
    elif isinstance(t, Pair):
        view = ("pair", wire_view(t.left), wire_view(t.right))
    elif isinstance(t, SymEnc):
        view = ("senc", wire_view(t.payload), wire_view(t.key))
    elif isinstance(t, AsymEnc):
        view = ("aenc", wire_view(t.payload), wire_view(t.key))
    else:  # CommEnc
        view = ("cenc", wire_view(t.payload),
                tuple(sorted(wire_view(k) for k in t.keys)))
    object.__setattr__(t, "_wire", view)
    return view


def wire_eq(a: Term, b: Term) -> bool:
    """Equality as observed on the wire (what a spying agent compares)."""
    return wire_view(a) == wire_view(b)


# -- canonical textual rendering -------------------------------------------
#
# {|m|}k  symmetric encryption      {m}k   asymmetric / password
# {m}[k1,k2] commutative            a,b    pair chains (flattened)
# N+i     successor
# Left-nested pairs get parentheses so the flattening stays unambiguous.

def render_key(k: Term) -> str:
    if isinstance(k, AsymKey):
        return k.label + ("^-1" if k.private else "")
    if isinstance(k, (SymKey, Password, Nonce, Atom)):
        return k.label
    return render(k)


def render(t: Term) -> str:
    if isinstance(t, (Atom, Nonce, SymKey, Password, Timestamp, Lifetime)):
        return t.label
    if isinstance(t, AgentId):
        return t.name
    if isinstance(t, AsymKey):
        return render_key(t)
    if isinstance(t, Succ):
        return f"{render(t.base)}+{t.offset}"
    if isinstance(t, Pair):
        parts = []
        for item in pair_items(t):
            if isinstance(item, Pair):  # left-nested: keep parens
                parts.append(f"({render(item)})")
            else:
                parts.append(render(item))
        return ",".join(parts)
    if isinstance(t, SymEnc):
        return "{|" + render(t.payload) + "|}" + render_key(t.key)
    if isinstance(t, AsymEnc):
        return "{" + render(t.payload) + "}" + render_key(t.key)
    if isinstance(t, CommEnc):
        keys = ",".join(render_key(k) for k in t.keys)
        return "{" + render(t.payload) + "}[" + keys + "]"
    raise TermError(f"not a term: {t!r}")

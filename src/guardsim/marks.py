"""Marks and rollbacks compiled from one list of a class's moving state.

A `Marked` class lists in `_moving` each attribute a run changes, with a
policy from `POLICIES`; a subclass lists only what it adds.  `mark()` and
`rollback(mark)` are compiled from the whole list when the class is made,
as `dataclasses` builds `__init__`: looping over the list at each call
made the benchmark's `enumerate` batch 13% slower (CPython 3.11, 2-core
x86 VM).  A mark is opaque and serves any number of rollbacks.  A class
that defines `mark` or `rollback` itself finds the compiled one as
`_mark` or `_rollback`."""

# policy -> (what a mark keeps of `x`, how a rollback gives it back from `m`)
POLICIES = {
    "value": ("{x}", "{x} = {m}"),   # rebound, never changed in place
    "copy": ("{x}.copy()", "{x} = {m}.copy()"),   # changed in place
    "grows": ("len({x})", "del {x}[{m}:]"),   # append-only
    # an insertion-ordered dict that only gains keys
    "gains": ("len({x})", "while len({x}) > {m}: {x}.popitem()"),
    # an object with its own marks, or None
    "part": ("None if {x} is None else {x}.mark()",
             "if {m} is not None: {x}.rollback({m})"),
    # a dict or list of such objects that only grows
    "each": ("[o.mark() for o in ({x}.values() if type({x}) is dict else {x})]",
             "_rollback_each({x}, {m})"),
    # a dict of such objects changed in place
    "copy each": ("({x}.copy(), [o.mark() for o in {x}.values()])",
                  "{x} = {m}[0].copy(); _rollback_each({x}, {m}[1])"),
    # a random.Random whose draws the class counts in `draws`: with no
    # draw since the last mark or rollback (`_drawn`), a mark shares that
    # state and a rollback leaves the generator alone
    "draws": ("_mark_draws(self, {x})", "_rollback_draws(self, {x}, {m})"),
}


def _rollback_each(objects, marks):
    """Drop the members added since the mark, then roll back the rest."""
    if type(objects) is dict:
        while len(objects) > len(marks):
            objects.popitem()
        objects = objects.values()
    else:
        del objects[len(marks):]
    for o, m in zip(objects, marks):
        o.rollback(m)


def _mark_draws(owner, rng):
    if owner._drawn[0] != owner.draws:
        owner._drawn = (owner.draws, rng.getstate())
    return owner._drawn


def _rollback_draws(owner, rng, mark):
    if mark[0] != owner.draws:
        rng.setstate(mark[1])
    owner.draws, owner._drawn = mark[0], mark


class Marked:
    """Base of the classes whose run state a mark keeps (see above)."""
    _moving = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        moving = [f for c in reversed(cls.__mro__)
                  for f in vars(c).get("_moving", ())]
        kept, given = [], []
        for i, (name, policy) in enumerate(moving):
            keep, give = POLICIES[policy]
            kept.append(keep.format(x="self." + name) + ", ")
            given.append(f"    {give.format(x='self.' + name, m=f'm{i}')}\n")
        unpack = "".join(f"m{i}, " for i in range(len(moving)))
        methods = {}
        exec(f"def mark(self):\n    return ({''.join(kept)})\n"
             f"def rollback(self, mark):\n    ({unpack}) = mark\n"
             + "".join(given), globals(), methods)
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, "_" + name if name in vars(cls) else name, method)


class DrawMarks(Marked):
    """Counts the draws of its `rng` in `draws`; set `rng` before marking."""
    draws, _drawn = 0, (-1, None)
    _moving = (("rng", "draws"),)

"""Network topologies and the visibility (canSee) function.

Honest agents are graph vertices; attackers and guardians are interceptor
stations placed in order along edges.  A message in transit is visible to
every station on the relevant stretch of its edge before anything erases
it; an injected message enters at the injector's own station and travels
toward the receiver, so stations on the far side never see it.  That
ordering is what makes placements like "E between A and G" decisive.

Base cases A-F are the standard two- and three-agent layouts, one
table of station lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


class ConfigError(ValueError):
    """Invalid scenario / topology configuration: the input is at fault,
    not the program."""


def _edge(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class Topology:
    """Vertices are honest agents; `stations[edge]` is the ordered list of
    interceptor groups sitting on that edge, listed from edge[0]'s side.
    Interceptors sharing a group are co-located and see each other's
    injections on that edge."""

    vertices: Set[str]
    stations: Dict[Tuple[str, str], List[FrozenSet[str]]]
    resilient_links: Set[Tuple[str, str]] = field(default_factory=set)

    def __post_init__(self):
        # (injected, true sender, receiver) -> `watchers` of that route
        self._routes: Dict[Tuple[bool, str, str], Tuple[str, ...]] = {}
        self._home: Dict[str, List[Tuple[Tuple[str, str], int]]] = {}
        for edge, groups in self.stations.items():
            for idx, group in enumerate(groups):
                for who in group:
                    self._home.setdefault(who, []).append((edge, idx))

    def edge_between(self, a: str, b: str) -> Optional[Tuple[str, str]]:
        e = _edge(a, b)
        return e if e in self.stations else None

    def _stations_from(self, src: str, dst: str
                       ) -> Optional[List[FrozenSet[str]]]:
        """The src<->dst channel's stations in order from src's side, or
        None when there is no such channel."""
        e = self.edge_between(src, dst)
        if e is None:
            return None
        groups = self.stations[e]
        return groups if e[0] == src else groups[::-1]

    def _injection_stretch(self, injector: str, receiver: str
                           ) -> Optional[List[FrozenSet[str]]]:
        """The stations an injection crosses from the injector's own
        station to `receiver`, in that order, or None when the injector
        cannot reach `receiver`."""
        spot = self.station_of(injector, receiver)
        if spot is None:
            return None
        edge, idx = spot
        groups = self.stations[edge]
        return groups[idx::-1] if edge[0] == receiver else groups[idx:]

    def observers_for_send(self, sender: str, receiver: str) -> List[str]:
        """Interceptors able to spy an honest send sender->receiver,
        in transit order from the sender's side."""
        groups = self._stations_from(sender, receiver)
        if groups is None:
            raise ConfigError(f"no channel between {sender} and {receiver}")
        out: List[str] = []
        for group in groups:
            out.extend(sorted(group))
        return out

    def station_of(self, interceptor: str, receiver: str) -> Optional[Tuple[Tuple[str, str], int]]:
        """The station from which `interceptor` can reach `receiver`
        (an edge incident to receiver that the interceptor sits on)."""
        for edge, idx in self._home.get(interceptor, ()):
            if receiver in edge:
                return edge, idx
        return None

    def observers_for_injection(self, injector: str, receiver: str) -> List[str]:
        """Interceptors (other than the injector) that see an injected
        message travelling from the injector's station to `receiver`.
        Co-located interceptors see it; stations beyond the injector,
        away from the receiver, do not."""
        stretch = self._injection_stretch(injector, receiver)
        if stretch is None:
            raise ConfigError(f"{injector} cannot reach {receiver}")
        out: List[str] = []
        for group in stretch:
            out.extend(sorted(w for w in group if w != injector))
        return out

    def watchers(self, injected: bool, sender: str, receiver: str
                 ) -> Tuple[str, ...]:
        """`observers_for_injection` of an injection by `sender`, else
        `observers_for_send`, as a tuple; empty when the topology gives
        the envelope no path.  Worked out once per route: a topology is
        not changed once it is made."""
        key = (injected, sender, receiver)
        route = self._routes.get(key)
        if route is None:
            try:
                route = tuple(
                    self.observers_for_injection(sender, receiver) if injected
                    else self.observers_for_send(sender, receiver))
            except ConfigError:
                route = ()
            self._routes[key] = route
        return route

    def can_reach(self, interceptor: str, receiver: str) -> bool:
        return self.station_of(interceptor, receiver) is not None

    def guards_path(self, guardian: str, a: str, b: str) -> bool:
        """True iff the guardian sits on the a<->b channel."""
        e = self.edge_between(a, b)
        if e is None:
            return False
        return any(guardian in g for g in self.stations[e])

    def sees_first(self, who: str, src: str, dst: str) -> bool:
        """True iff `who` holds the station nearest `src` on the src->dst
        channel: nobody can take src's traffic before `who` records it."""
        groups = self._stations_from(src, dst)
        return bool(groups) and who in groups[0]

    def guards_injection(self, guardian: str, injector: str, receiver: str) -> bool:
        """True iff every injection by `injector` toward `receiver`
        crosses (or shares a station with) the guardian."""
        stretch = self._injection_stretch(injector, receiver) or []
        return any(guardian in g for g in stretch)


# The six base layouts: per edge between honest roles 0, 1, 2 (A, B, S),
# its stations listed from the first role's side; "G" is the guardian's
# station, "E" the one the attackers share.
LAYOUTS = {
    "A": {(0, 1): "GE"},
    "B": {(0, 1): "EG"},
    "C": {(0, 1): "GE", (0, 2): "G", (1, 2): "EG"},
    "D": {(0, 1): "EG", (0, 2): "EG", (1, 2): "G"},
    "E": {(0, 1): "GE", (0, 2): "GE", (1, 2): "E"},
    "F": {(0, 1): "EG", (0, 2): "E", (1, 2): "GE"},
}
TOPOLOGY_KINDS = tuple(LAYOUTS)


def base_topology(kind: str, honest: Sequence[str] = ("A", "B", "S"),
                  attackers: Sequence[str] = ("E",),
                  guardian: Optional[str] = "G") -> Topology:
    """One of the six base layouts of LAYOUTS.

    A: A-[G]-[E]-B          B: A-[E]-[G]-B
    C: like A plus S behind G    D: like B plus S behind G
    E: like A plus S behind E    F: like B plus S behind E

    With guardian=None the guardian station is omitted (undefended runs);
    with several attackers they share E's station (co-located rivals).
    The guardian holds a resilient link to A, and to B as well in the
    three-agent layouts.
    """
    layout = LAYOUTS.get(kind)
    if layout is None:
        raise ConfigError(f"unknown base topology kind {kind!r}")
    names = (honest[0], honest[1], honest[2] if len(honest) > 2 else "S")
    groups = {"G": frozenset([guardian] if guardian else ()),
              "E": frozenset(attackers)}
    stations: Dict[Tuple[str, str], List[FrozenSet[str]]] = {}
    for (x, y), line in layout.items():
        ordered = [groups[st] for st in line if groups[st]]
        edge = _edge(names[x], names[y])
        stations[edge] = ordered if edge[0] == names[x] else ordered[::-1]
    used = {i for edge in layout for i in edge}
    links = {(guardian, names[i]) for i in range(len(used) - 1)}
    return Topology(vertices={names[i] for i in used}, stations=stations,
                    resilient_links=links if guardian else set())

"""Shared shape of a case study: a protocol's roles and attacks as data,
the guardian configuration per topology, the shared compromise check,
and the one wiring path that assembles a run from them."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..agents import AttackerAgent, AttackFunction, HonestAgent, RoleScript
from ..guardian import Guardian
from ..knowledge import KnowledgeSet, derivable
from ..simulator import Simulator
from ..terms import Term
from ..topology import ConfigError, Topology, base_topology


@dataclass
class Wiring:
    """Everything needed to assemble one run."""
    topology: Topology
    honest: Sequence[HonestAgent]
    attackers: Sequence[AttackerAgent]
    guardian: Optional[Guardian]
    initiators: Sequence[Tuple[str, object, int]]   # (agent, script, session)
    victim: str

    def simulator(self, seed: int = 0, nonce_bits: int = 64,
                  max_rounds: int = 256) -> Simulator:
        sim = Simulator(self.topology, honest=self.honest,
                        attackers=self.attackers, guardian=self.guardian,
                        seed=seed, nonce_bits=nonce_bits,
                        max_rounds=max_rounds)
        for agent, script, session in self.initiators:
            sim.start_initiator(agent, script, session)
        return sim


def binding_derivable(agent: str, name: str) -> Callable[[object], bool]:
    """The success check "a completed session of `agent` bound `name` to
    a term some attacker can derive": a planted key or a leaked secret
    deceives the agent even when every message it took looked genuine."""
    def compromised(result) -> bool:
        honest = result.honest.get(agent)
        return honest is not None and any(
            sess.status == "complete" and sess.bindings.get(name) is not None
            and any(derivable(att.knowledge, sess.bindings[name])
                    for att in result.attackers)
            for sess in honest.sessions.values())
    return compromised


@dataclass(frozen=True)
class Attack:
    """One attack of a study: its attack-function factory, the terms the
    attacker knows beyond the study's base knowledge, whether the
    registered defense was built for it (variants outside it, such as
    pre-guardian replays, are the documented partial gaps), and whether
    A runs the protocol alongside it."""
    function: Callable[[], AttackFunction]
    knowledge: Tuple[Term, ...] = ()
    registered: bool = True
    honest_run: bool = True


@dataclass
class CaseStudy:
    """A built-in protocol as data; its defense class and viable layouts
    are what the defense matrix observes, not declarations.

    `wire(kind, guardian, attack)` assembles a run; the seed and the
    nonce width are the simulator's (`Wiring.simulator`).  Kind None
    uses `home_topology`, and any other kind must be one of
    `applicable_kinds()`; attack None runs honestly, and "classic" names
    the first attack of a study whose attacks have other names.  Honest
    agents are built from `roles`, in order; A starts `initiator` toward
    B as session 1; the attacker E watches `attacker_interest`, knows
    `attacker_knowledge` and the chosen attack's own terms;
    `make_guardian(topology)` builds the guardian for the layout in use.
    `success_extra(result)` is a deception the transcript does not show;
    `matrix_fn_witness(kind, seed)` describes a gap the run shows, or None.
    """
    name: str
    defended_agent: str
    home_topology: str
    roles: Dict[str, Tuple[Callable[[], RoleScript], ...]]
    initiator: Callable[[str], RoleScript]
    attacks: Dict[str, Attack]
    make_guardian: Callable[[Topology], Guardian]
    attacker_interest: Tuple[str, ...]
    attacker_knowledge: Tuple[Term, ...] = ()
    conditional_topologies: Dict[str, str] = field(default_factory=dict)
    monitored_slots: Tuple[Tuple[str, str], ...] = ()
    # receiver -> the identity the enumerated attacker claims toward it
    masks: Dict[str, str] = field(default_factory=lambda: {"A": "B"})
    success_extra: Optional[Callable] = None
    matrix_fn_witness: Optional[Callable] = None

    def __post_init__(self):
        # an instance attribute, so that each study's `wire` is one object
        # that a module can re-export and a tracer can rebind
        self.wire = self._wire

    @property
    def attack_names(self) -> Tuple[str, ...]:
        return tuple(self.attacks)

    @property
    def registered_attacks(self) -> Tuple[str, ...]:
        return tuple(n for n, a in self.attacks.items() if a.registered)

    def applicable_kinds(self) -> Tuple[str, ...]:
        return ("A", "B") if len(self.roles) == 2 else ("C", "D", "E", "F")

    def checked_kind(self, kind: Optional[str]) -> str:
        """`kind`, or the home topology for None; a layout without the
        channels this study's roles use is refused."""
        kind = kind or self.home_topology
        if kind not in self.applicable_kinds():
            raise ConfigError(f"{self.name} runs on topologies "
                              f"{', '.join(self.applicable_kinds())}, "
                              f"not {kind!r}")
        return kind

    @functools.cached_property
    def _scripts(self):
        """Each role's responder scripts and A's initiator script toward
        B, built once: scripts are immutable, so every run shares them."""
        return ({name: [make() for make in roles]
                 for name, roles in self.roles.items()}, self.initiator("B"))

    def _attack(self, name: Optional[str]) -> Optional[Attack]:
        if not name:
            return None
        if name == "classic" and name not in self.attacks:
            return next(iter(self.attacks.values()))
        if name not in self.attacks:
            raise ConfigError(f"unknown attack {name!r} for {self.name}; "
                              f"known: {list(self.attacks)}")
        return self.attacks[name]

    def _wire(self, kind: Optional[str] = None, guardian: bool = True,
              attack: Optional[str] = "classic") -> Wiring:
        kind = self.checked_kind(kind)
        chosen = self._attack(attack)
        attackers = []
        if chosen is not None:
            ks = KnowledgeSet([*self.attacker_knowledge, *chosen.knowledge])
            attackers = [AttackerAgent("E", interest=self.attacker_interest,
                                       function=chosen.function(),
                                       variant="proceed", knowledge=ks)]
        topo = base_topology(kind, honest=tuple(self.roles), attackers=("E",),
                             guardian="G" if guardian else None)
        responders, initiator = self._scripts
        honest = [HonestAgent(name, responder_scripts=responders[name])
                  for name in self.roles]
        initiators = []
        if chosen is None or chosen.honest_run:
            initiators.append(("A", initiator, 1))
        return Wiring(topology=topo, honest=honest, attackers=attackers,
                      guardian=self.make_guardian(topo) if guardian else None,
                      initiators=initiators, victim=self.defended_agent)

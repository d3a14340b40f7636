"""Shared shape of a case study: a protocol, its attack functions, the
guardian configuration per topology, and the documented expectations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..agents import AttackerAgent, HonestAgent
from ..guardian import Guardian
from ..simulator import Simulator
from ..topology import ConfigError, Topology


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


def checked_attack(attack: Optional[str], case: "CaseStudy",
                   classic: Optional[str] = None) -> Optional[str]:
    """The attack a builtin `wire` runs, checked against the study's
    `attack_names`: None or "" runs honestly, and "classic" means
    `classic` for a study whose attacks have other names.  Any other
    unknown name is a ConfigError."""
    if attack == "classic" and classic:
        attack = classic
    if attack and attack not in case.attack_names:
        raise ConfigError(f"unknown attack {attack!r} for {case.name}; "
                          f"known: {list(case.attack_names)}")
    return attack


@dataclass
class CaseStudy:
    """A built-in protocol with its documented defense profile.

    `wire(kind, guardian, attack, seed, nonce_bits)` assembles a run:
    kind None uses the study's home topology; attack None runs honestly.
    """
    name: str
    defended_agent: str
    defense_class: str                       # "Total" | "Partial"
    viable_topologies: Tuple[str, ...]
    failure_topologies: Tuple[str, ...] = ()
    conditional_topologies: Dict[str, str] = field(default_factory=dict)
    two_agent: bool = True
    attack_names: Tuple[str, ...] = ("classic",)
    fp_conditions: Tuple[str, ...] = ()
    fn_conditions: Tuple[str, ...] = ()
    # parameter-dependent edge cases (window sizing, value collisions)
    # documented and testable but not counted against the defense class
    boundary_fn_notes: Tuple[str, ...] = ()
    message_count: int = 0
    wire: Callable[..., Wiring] = None
    attack_function_of: Callable[[str], object] = None
    monitored_slots: Tuple[Tuple[str, str], ...] = ()
    success_extra: Optional[Callable] = None  # extra deception predicate
    inverse_table: Dict[int, Callable] = field(default_factory=dict)
    inverse_samples: Dict[int, Tuple] = field(default_factory=dict)
    # attacks the registered defense was built for; variants outside it
    # (e.g. pre-guardian replays) are the documented partial gaps
    registered: Optional[Tuple[str, ...]] = None
    # reproduces the documented partial-defense gap in a viable topology
    matrix_fn_witness: Optional[Callable] = None

    @property
    def registered_attacks(self) -> Tuple[str, ...]:
        return self.registered if self.registered is not None \
            else self.attack_names

    @property
    def home_topology(self) -> str:
        return self.viable_topologies[0]

    def applicable_kinds(self) -> Tuple[str, ...]:
        return ("A", "B") if self.two_agent else ("C", "D", "E", "F")

"""The seven-protocol defense matrix and the advantage/defense predicates
evaluated per (case study x topology) cell."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .guardian import is_defense_mechanism, topological_advantage
from .protocols import builtin, builtin_names
from .scenario import evaluate
from .simulator import BudgetExceeded
from .topology import TOPOLOGY_KINDS, ConfigError

DEFENSE_CLASSES = ("Total", "Partial", "None")      # best first


@dataclass
class Cell:
    protocol: str
    topology: str
    advantage: bool
    defense_mechanism: object            # True | False | "inverse unknown"
    observed: str                        # Total | Partial | None
    fn_by_attack: Dict[str, int]
    interfered: Dict[str, bool]
    fn_witness: Optional[str] = None     # description of the executed gap
    note: str = ""


@dataclass
class MatrixReport:
    cells: List[Cell] = field(default_factory=list)

    def cell(self, protocol: str, topology: str) -> Cell:
        for c in self.cells:
            if c.protocol == protocol and c.topology == topology:
                return c
        raise KeyError((protocol, topology))

    def rows(self) -> List[dict]:
        by_protocol: Dict[str, List[Cell]] = {}
        for c in self.cells:
            by_protocol.setdefault(c.protocol, []).append(c)
        out = []
        for name, cells in by_protocol.items():
            case = builtin(name)
            counted = [c for c in cells
                       if c.topology not in case.conditional_topologies]
            # the row's class is the best one a counted cell observed
            defense = min((c.observed for c in counted),
                          key=DEFENSE_CLASSES.index, default="None")
            viable = [c.topology for c in counted
                      if defense != "None" and c.observed == defense]
            out.append({
                "protocol": name,
                "defense": defense,
                "agent_defended": case.defended_agent,
                "viable_topologies": viable,
                "cells": {c.topology: c.observed for c in cells},
            })
        return out

    def render(self) -> str:
        lines = [f"{'Protocol':<18} {'Defense':<8} {'Agent':<6} "
                 f"{'Topologies':<12} cells"]
        for row in self.rows():
            cells = " ".join(f"{k}:{v}" for k, v in sorted(row["cells"].items()))
            lines.append(f"{row['protocol']:<18} {row['defense']:<8} "
                         f"{row['agent_defended']:<6} "
                         f"{','.join(row['viable_topologies']):<12} {cells}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "rows": self.rows(),
            "cells": [{
                "protocol": c.protocol, "topology": c.topology,
                "advantage": c.advantage,
                "defense_mechanism": c.defense_mechanism,
                "observed": c.observed,
                "fn_by_attack": c.fn_by_attack,
                "fn_witness": c.fn_witness,
                "note": c.note,
            } for c in self.cells],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def evaluate_cell(case, kind: str, seed: int, runs: List) -> Cell:
    """One cell of the matrix.  `runs`, the study's unguarded attack runs
    at its home layout, judge invertibility alike on each of its cells."""
    fn_by_attack: Dict[str, int] = {}
    interfered: Dict[str, bool] = {}
    for attack in case.attack_names:
        w = case.wire(kind=kind, guardian=True, attack=attack)
        try:
            result = w.simulator(seed=seed).run()
        except BudgetExceeded:
            fn_by_attack[attack] = -1
            interfered[attack] = False
            continue
        outcome = evaluate(result, w.victim, True, case.success_extra)
        fn_by_attack[attack] = outcome.false_negatives
        interfered[attack] = (outcome.interference_count > 0
                              or result.aborted_by_guardian)

    # every attack is wired on the same layout with the same attacker
    attackers = [a.name for a in w.attackers]
    adv = topological_advantage(w.topology, "G", case.defended_agent,
                                case.monitored_slots, attackers)
    idm = is_defense_mechanism(w.topology, "G", case.defended_agent,
                               case.monitored_slots, attackers, runs)

    gap = case.matrix_fn_witness and case.matrix_fn_witness(kind, seed)
    witness = gap or next((f"attack {attack!r} completed undetected"
                           for attack, fn in fn_by_attack.items() if fn > 0),
                          None)

    fns = [v for v in fn_by_attack.values() if v >= 0]
    any_fn = any(v > 0 for v in fns) or gap
    all_clean = all(v == 0 for v in fns) and not gap
    any_defense = any(interfered[a] and fn_by_attack[a] == 0
                      for a in fn_by_attack)
    if all_clean:
        observed = "Total"
    elif any_fn and any_defense:
        observed = "Partial"
    else:
        observed = "None"

    return Cell(protocol=case.name, topology=kind, advantage=adv,
                defense_mechanism=idm, observed=observed,
                fn_by_attack=fn_by_attack, interfered=interfered,
                fn_witness=witness,
                note=case.conditional_topologies.get(kind, ""))


def defense_matrix(protocols=None, topologies=None, seed: int = 0) -> MatrixReport:
    report = MatrixReport()
    for name in (protocols or builtin_names()):
        case = builtin(name)
        kinds = topologies or case.applicable_kinds()
        runs = None
        for kind in kinds:
            if kind not in TOPOLOGY_KINDS:
                raise ConfigError(f"unknown topology kind {kind!r}; "
                                  f"known: {list(TOPOLOGY_KINDS)}")
            if kind not in case.applicable_kinds():
                continue
            if runs is None:   # every attack injects unguarded at home
                runs = [case.wire(kind=None, guardian=False, attack=attack)
                        .simulator(seed=seed).run()
                        for attack in case.attack_names]
            report.cells.append(evaluate_cell(case, kind, seed, runs))
    return report

"""The six two-attacker interaction cases and their outcome taxonomy.

Two rivals attack the same initiator; what happens depends on what each
believes about the other:

  1. they believe each other honest          -> T1 (shadowed joint attack)
  2. they know each other as attackers       -> T3 (mutual starvation)
  3. they are unaware of each other          -> T1
  4. the later one believes the first honest -> T1
  5. the later one knows the first dishonest -> T2 (takeover)
  6. the later one is unsure about the first -> T4 (one free move, then
     takeover; neither can attribute the outcome)

Every trace lands in exactly one of three results: one attacker
dominates, none succeed, or both end uncertain of success.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .agents import HonestAgent
from .simulator import Simulator
from .topology import ConfigError, base_topology
from .trace import Trace

DOMINANCE = "dominance"
NONE_SUCCEED = "none-succeed"
MUTUAL_UNCERTAINTY = "mutual-uncertainty"

PLAIN = ((2, 1, 0), (1, 2, 0), (2, 3, 0))
PRIMED_1 = ((2, 1, 1), (1, 2, 0), (2, 3, 0))
PRIMED_2 = ((2, 1, 2), (1, 2, 0), (2, 3, 0))

# (E1 variant, E1 awareness of E2, E1 slots,
#  E2 variant, E2 awareness of E1, E2 slots, expected trace name)
CASE_TABLE = {
    1: ("proceed", "honest", PLAIN, "proceed", "honest", PLAIN, "T1"),
    2: ("divert", "dishonest", PRIMED_1, "divert", "dishonest", PRIMED_2, "T3"),
    3: ("proceed", None, PLAIN, "proceed", None, PLAIN, "T1"),
    4: ("proceed", None, PLAIN, "proceed", "honest", PLAIN, "T1"),
    5: ("proceed", "honest", PRIMED_1, "divert", "dishonest", PRIMED_2, "T2"),
    6: ("proceed", "honest", ((2, 1, 0), (1, 2, 1), (2, 3, 0)),
        "divert", "unsure", ((2, 1, 2), (1, 2, 2), (2, 3, 0)), "T4"),
}


@dataclass
class CaseResult:
    case: int
    trace_name: str          # T1..T4
    trace: Trace
    result: str              # dominance | none-succeed | mutual-uncertainty
    dominant: str            # attacker id or ""
    detail: Dict[str, str]


def classify(result_sim, attackers) -> Tuple[str, str, Dict[str, str]]:
    """The three-way outcome: who the deception traces back to decides
    dominance (one injector), mutual uncertainty (mixed chains), or
    failure (nobody deceived)."""
    injectors = set()
    shadows = set()
    for agent in result_sim.honest.values():
        for sess in agent.sessions.values():
            if sess.status != "complete":
                continue
            for c in sess.consumed:
                env = c.env
                if env.injected and env.true_sender != env.claimed_sender:
                    injectors.add(env.true_sender)
                    shadows |= set(env.sender_credits)
    detail = {a.name: ("completed" if a.current_step() is None else
                       f"stalled at step {a.step_ptr + 1}")
              for a in attackers}
    if not injectors:
        return NONE_SUCCEED, "", detail
    if len(injectors) == 1:
        dominant = next(iter(injectors))
        if shadows - injectors:
            detail["note"] = (f"{', '.join(sorted(shadows - injectors))} "
                              f"shadowed the same actions")
        return DOMINANCE, dominant, detail
    return MUTUAL_UNCERTAINTY, "", detail


def run_case(case: int, protocol: str = "iso-sc-27", seed: int = 0) -> CaseResult:
    if protocol != "iso-sc-27":
        raise ConfigError("interaction cases are builtin for iso-sc-27 only")
    from .protocols.iso_sc27 import (initiator_script, make_attacker,
                                     responder_script)
    (v1, a1, s1, v2, a2, s2, tname) = CASE_TABLE[case]
    e1 = make_attacker("E_1", variant=v1,
                       awareness={"E_2": a1} if a1 else {}, slots=s1)
    e2 = make_attacker("E_2", variant=v2,
                       awareness={"E_1": a2} if a2 else {}, slots=s2)
    topo = base_topology("A", honest=("A", "B"), attackers=("E_1", "E_2"),
                         guardian=None)
    a = HonestAgent("A", responder_scripts=[responder_script("B")])
    b = HonestAgent("B", responder_scripts=[responder_script("A")])
    sim = Simulator(topo, honest=[a, b], attackers=[e1, e2], seed=seed)
    sim.start_initiator("A", initiator_script("B"), 1)
    result = sim.run()
    verdict, dominant, detail = classify(result, [e1, e2])
    return CaseResult(case=case, trace_name=tname, trace=result.trace,
                      result=verdict, dominant=dominant, detail=detail)


def enumerate_interaction_cases(protocol: str = "iso-sc-27",
                                seed: int = 0) -> Dict[int, CaseResult]:
    return {case: run_case(case, protocol, seed) for case in sorted(CASE_TABLE)}

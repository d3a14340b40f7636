"""Acceptance suite: one criterion per test, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance and budget is pinned here.
"""

import time

import pytest

from guardsim.cases import (DOMINANCE, MUTUAL_UNCERTAINTY, NONE_SUCCEED,
                            enumerate_interaction_cases)
from guardsim.enumeration import MAX_INJECT_TERMS, enumerate_attacks
from guardsim.matrix import defense_matrix
from guardsim.montecarlo import monte_carlo_fp
from guardsim.protocols import builtin
from guardsim.scenario import ScenarioConfig, run_scenario

from test_cases import T1, T2, T3, T4
from test_protocols import (ISO_ATTACK, ISO_INTERFERENCE)


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_golden_attack_trace():
    t0 = time.perf_counter()
    result = run_scenario(ScenarioConfig(protocol="iso-sc-27",
                                         guardian=False, attack="classic",
                                         seed=5))
    elapsed = time.perf_counter() - t0
    ok = result.trace.lines() == ISO_ATTACK and elapsed < 1.0
    report(1, ok, f"six-step parallel-session attack trace reproduced "
                  f"exactly in {elapsed:.3f}s")


def test_criterion_2_golden_interference_trace():
    t0 = time.perf_counter()
    result = run_scenario(ScenarioConfig(protocol="iso-sc-27",
                                         guardian=True, attack="classic",
                                         seed=5))
    elapsed = time.perf_counter() - t0
    lines = result.trace.lines()
    ok = (lines == ISO_INTERFERENCE
          and lines[2] == "(2.1_1) G(B) -> A : N_fake"
          and lines[-1] == "(2.2) G raises A's flag for abort"
          and elapsed < 1.0)
    report(2, ok, f"interference trace with fake substitution and final "
                  f"abort flag reproduced exactly in {elapsed:.3f}s")


def test_criterion_3_dataset_evolution():
    from guardsim.terms import render
    result = run_scenario(ScenarioConfig(protocol="iso-sc-27",
                                         guardian=True, attack="classic",
                                         seed=5))
    g = result.sim.guardian
    ct = "{|N_fake,N'_A|}K_AB"
    rows = [(frozenset(), None, None, None)]
    rows += [(frozenset(render(t) for t in r.dataset), r.ident, r.crit, r.inv)
             for r in g.module_log]
    abort_step = result.trace.steps[-1]
    rows.append((None, None, None, None) if abort_step.kind == "abort"
                else ("missing",))
    expected = [
        (frozenset(), None, None, None),
        (frozenset({"N_A"}), 1, None, None),
        (frozenset({"N_A"}), 1, 1, 1),
        (frozenset({"N_A", "N_fake"}), None, None, None),
        (frozenset({"N_A", "N_fake", ct}), 1, None, None),
        (frozenset({"N_A", "N_fake", ct}), 1, 0, None),
        (None, None, None, None),
    ]
    ok = rows == expected
    report(3, ok, "per-step (dataset, identification, criticality, "
                  "invariant) tuples match rows i=0..6 cell for cell")


def test_criterion_4_interaction_cases():
    results = enumerate_interaction_cases("iso-sc-27", seed=0)
    expected_traces = {1: T1, 2: T3, 3: T1, 4: T1, 5: T2, 6: T4}
    expected_results = {1: DOMINANCE, 2: NONE_SUCCEED, 3: DOMINANCE,
                        4: DOMINANCE, 5: DOMINANCE, 6: MUTUAL_UNCERTAINTY}
    ok = all(results[c].trace.lines() == expected_traces[c]
             and results[c].result == expected_results[c]
             for c in range(1, 7))
    ok = ok and results[5].dominant == "E_2" and results[1].dominant == "E_1"
    report(4, ok, "cases 1-6 reproduce traces T1-T4 with the "
                  "dominance / none-succeed / mutual-uncertainty taxonomy")


def test_criterion_5_fp_probability():
    t0 = time.perf_counter()
    est = monte_carlo_fp(nonce_bits=8, dataset_size=4, trials=100_000,
                         seed=42)
    elapsed = time.perf_counter() - t0
    ok_small = (est.analytic == 4 / 256 and est.contains_analytic()
                and elapsed < 30.0)
    est_big = monte_carlo_fp(nonce_bits=1024, dataset_size=4,
                             trials=1_000_000, seed=42)
    ok = ok_small and est_big.hits == 0
    report(5, ok, f"k=8,|D_G|=4: rate {est.empirical:.6f} vs 4/256="
                  f"{est.analytic:.6f}, Wilson [{est.wilson_low:.6f},"
                  f"{est.wilson_high:.6f}] in {elapsed:.1f}s; "
                  f"k=1024: 0/{est_big.trials}")


def test_criterion_6_fn_impossibility():
    t0 = time.perf_counter()
    iso = enumerate_attacks(builtin("iso-sc-27"), "A", max_choices=6,
                            max_visible=8)
    iso_time = time.perf_counter() - t0
    eke = enumerate_attacks(builtin("eke"), "A", max_choices=6,
                            max_visible=8)
    otway = enumerate_attacks(builtin("otway-rees"), "C", max_choices=5,
                              max_visible=8)
    over_budget = iso.over_budget + eke.over_budget + otway.over_budget
    ok = (iso.false_negatives == 0 and iso_time < 60.0
          and iso.runs > 100 and iso.deceptions_detected > 0
          and eke.false_negatives == 0
          and otway.false_negatives == 0
          and over_budget == 0)
    report(6, ok, f"erase/inject enumeration: iso {iso.runs} runs 0 FN "
                  f"({iso_time:.1f}s), eke {eke.runs} runs 0 FN, "
                  f"otway-rees {otway.runs} runs 0 FN, "
                  f"{over_budget} leaves over the round budget; leaves "
                  f"that spied more terms than the {MAX_INJECT_TERMS} "
                  f"offered: iso {iso.capped}/{iso.runs}, eke "
                  f"{eke.capped}/{eke.runs}, otway-rees "
                  f"{otway.capped}/{otway.runs}")


TABLE_7 = {
    "iso-sc-27": ("Total", "A", ["A"]),
    "sra3p": ("Total", "A", ["A"]),
    "andrew-rpc": ("Partial", "A", ["A"]),
    "otway-rees": ("Total", "A", ["C", "E"]),
    "eke": ("Total", "A", ["A"]),
    "splice-as": ("Total", "A", ["C"]),
    "bme-fixed": ("Partial", "B", ["D"]),
}


def test_criterion_7_defense_matrix():
    matrix = defense_matrix(seed=0)
    rows = {r["protocol"]: r for r in matrix.rows()}
    ok = True
    for name, (klass, agent, viable) in TABLE_7.items():
        row = rows[name]
        ok &= row["defense"] == klass
        ok &= row["agent_defended"] == agent
        ok &= sorted(row["viable_topologies"]) == viable
    for proto, kind in (("iso-sc-27", "B"), ("splice-as", "E"),
                        ("splice-as", "F")):
        ok &= matrix.cell(proto, kind).observed == "None"
    for partial in ("andrew-rpc", "bme-fixed"):
        case = builtin(partial)
        home = case.home_topology
        cell = matrix.cell(partial, home)
        ok &= cell.observed == "Partial" and cell.fn_witness is not None
    report(7, ok, "all seven rows (class, agent, viable topologies) exact; "
                  "failure cells None; partial rows carry executed FN "
                  "witnesses")


def test_criterion_8_theorem_1_suite():
    matrix = defense_matrix(seed=0)
    ok = True
    details = []
    for cell in matrix.cells:
        case = builtin(cell.protocol)
        if cell.defense_mechanism is True:
            regs = [cell.fn_by_attack[a] for a in case.registered_attacks]
            if any(v != 0 for v in regs):
                ok = False
                details.append(f"{cell.protocol}/{cell.topology} IDM but FN")
        if not cell.advantage and cell.topology not in \
                case.conditional_topologies:
            gap = cell.fn_witness is not None
            if not gap:
                ok = False
                details.append(f"{cell.protocol}/{cell.topology} no witness")
    report(8, ok, "defense mechanisms admit zero false negatives on their "
                  "registered attack families; every non-conditional cell "
                  "without advantage has an executed FN witness"
                  + ("; " + "; ".join(details) if details else ""))


def test_criterion_9_algebra_oracle_equivalence():
    import random
    from guardsim.knowledge import KnowledgeSet, derivable
    from oracles import closure_oracle
    from test_knowledge import random_term

    rng = random.Random(77)
    disagreements = 0
    for _ in range(1000):
        ks_terms = [random_term(rng, rng.randint(0, 4))
                    for _ in range(rng.randint(1, 6))]
        goal = random_term(rng, rng.randint(0, 4))
        ks = KnowledgeSet(ks_terms)
        if derivable(ks, goal) != closure_oracle(ks.items, goal):
            disagreements += 1
    report(9, disagreements == 0,
           f"goal-directed derivability vs brute-force closure oracle: "
           f"{disagreements} disagreements over 1000 randomized instances")

"""Equivalence digests: one SHA-256 per part of guardsim's observable
behaviour, so that a refactor can show it left every run byte-identical.

Parts:
  run/<study>/<layout>  every attack (and none) x guardian on/off x seeds
                        0-2: trace lines, the NDJSON trace file, the
                        module-log rows with their datasets, both FSM
                        logs, the outcome and the round count
  cases                 the six two-attacker interaction cases
  matrix                `defense_matrix()` as JSON and rendered
  enum/<study>          `enumerate_attacks` at depth 3 on the home layout
  enum/<study>/<layout> the same on every other layout the study runs on
  montecarlo/k<bits>-d<size>-t<trials>-s<seed>
                        the `FpEstimate` of `monte_carlo_fp`, which pins
                        the RNG stream through its trial loop

`python tests/golden.py` prints the digests as JSON; `--write` rewrites
tests/golden_digests.json and prints the name of each part whose digest
it changed, added or dropped.  Only a change that alters behaviour on
purpose should rewrite an entry.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

from guardsim.cases import enumerate_interaction_cases
from guardsim.enumeration import enumerate_attacks
from guardsim.matrix import defense_matrix
from guardsim.montecarlo import monte_carlo_fp
from guardsim.protocols import builtin, builtin_names
from guardsim.scenario import evaluate, write_trace_file
from guardsim.simulator import BudgetExceeded
from guardsim.terms import render

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_digests.json")
SEEDS = (0, 1, 2)
ENUM_DEPTH = 3
# (nonce bits, |D_G|, trials, seed) of each montecarlo part
MONTE_CARLO = ((8, 4, 100_000, 42), (12, 256, 1_500, 1), (12, 256, 1_500, 7),
               (1024, 4, 10_000, 42))


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def golden_runs():
    """Each run the run/ parts digest, as ((study, layout, attack,
    guardian, seed), finished run), with None for a run over its round
    budget."""
    for name in builtin_names():
        case = builtin(name)
        for kind in case.applicable_kinds():
            for attack in (None, *case.attack_names):
                for guardian in (False, True):
                    for seed in SEEDS:
                        wiring = case.wire(kind=kind, guardian=guardian,
                                           attack=attack)
                        try:
                            result = wiring.simulator(seed=seed).run()
                        except BudgetExceeded:
                            result = None
                        yield (name, kind, attack, guardian, seed), result


def _run_records(case, kind, attack, guardian, seed, trace_path):
    wiring = case.wire(kind=kind, guardian=guardian, attack=attack)
    try:
        result = wiring.simulator(seed=seed).run()
    except BudgetExceeded:
        return ["budget exceeded"]
    return result_records(case, wiring.victim, attack is not None, result,
                          trace_path)


def result_records(case, victim, attack_present, result, trace_path):
    """What a run digest covers of a finished run."""
    write_trace_file(result, trace_path)
    with open(trace_path) as fh:
        ndjson = fh.read()
    outcome = evaluate(result, victim, attack_present, case.success_extra)
    records = [result.trace.lines(), ndjson, outcome.to_dict(),
               result.rounds]
    g = result.guardian
    if g is not None:
        records += [[(row.seq, row.ident, row.crit, row.inv,
                      [render(t) for t in row.dataset])
                     for row in g.module_log],
                    g.ident_fsm_log, g.control_fsm_log]
    return records


def compute() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.ndjson")
        for name in builtin_names():
            case = builtin(name)
            for kind in case.applicable_kinds():
                records = []
                for attack in (None, *case.attack_names):
                    for guardian in (False, True):
                        for seed in SEEDS:
                            records.append((attack, guardian, seed))
                            records += _run_records(case, kind, attack,
                                                    guardian, seed, trace_path)
                out[f"run/{name}/{kind}"] = digest(records)

    out["cases"] = digest(
        record for n, res in enumerate_interaction_cases().items()
        for record in (n, res.trace_name, res.trace.lines(), res.result,
                       res.dominant, res.detail))

    report = defense_matrix()
    out["matrix"] = digest((report.to_json(), report.render()))

    for name in builtin_names():
        case = builtin(name)
        for kind in case.applicable_kinds():
            rep = enumerate_attacks(case, kind, max_choices=ENUM_DEPTH)
            key = (f"enum/{name}" if kind == case.home_topology
                   else f"enum/{name}/{kind}")
            out[key] = digest((rep.runs, rep.false_negatives,
                               rep.fn_witnesses, rep.deceptions_detected))

    for bits, size, trials, seed in MONTE_CARLO:
        est = monte_carlo_fp(bits, size, trials, seed)
        out[f"montecarlo/k{bits}-d{size}-t{trials}-s{seed}"] = digest(
            [dataclasses.asdict(est)])
    return out


def main(argv) -> int:
    digests = compute()
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if "--write" in argv:
        with open(DIGESTS) as fh:
            old = json.load(fh)
        for part in sorted(digests.keys() | old.keys()):
            if digests.get(part) != old.get(part):
                print(part)
        with open(DIGESTS, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The four benchmark workloads: input generation, one batch of work,
correctness checks and a digest of the simulated statistics.

Every workload runs its batch on inputs drawn once from the seed and
repeats exactly the same batch for as long as the run measures, so each
batch does the same work and must produce the same digest.  Only public
guardsim functions are called.

A workload object has:
  ``wire()``              builds what one batch needs (part of set-up for
                          batch 0),
  ``run(state)``          does one batch and returns its raw output; this
                          is the only part that is timed and traced,
  ``check(state, output)`` checks the output and digests it into a
                          BatchResult,
and the module has the scaling sweeps used by the traced run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from guardsim.enumeration import enumerate_attacks
from guardsim.knowledge import KnowledgeSet, derivable
from guardsim.montecarlo import monte_carlo_fp
from guardsim.protocols import builtin, builtin_names, iso_sc27
from guardsim.simulator import BudgetExceeded, Simulator
from guardsim.terms import Nonce, Pair, SymEnc, SymKey, comm_enc, wire_view

# Sizes of the full benchmark and of the self-test.  The full sizes make
# one batch take about two seconds on a 2-core x86 VM with CPython 3.11.
SIZES = {
    "full": {
        "sessions": 400,
        "enumerate": (("iso-sc-27", "A", 6), ("eke", "A", 5),
                      ("otway-rees", "C", 3)),
        "fp_bits": 12, "fp_dataset": 256, "fp_trials": 1500,
        "chain_lengths": (50, 100, 150, 200, 250, 300, 350, 400),
        "sweep_sessions": (25, 50, 100, 200, 400),
        "sweep_fp_dataset": (64, 128, 256, 512, 1024), "sweep_fp_trials": 300,
        "sweep_chain": (50, 100, 200, 400),
    },
    "tiny": {
        "sessions": 20,
        "enumerate": (("iso-sc-27", "A", 2), ("eke", "A", 2),
                      ("otway-rees", "C", 1)),
        "fp_bits": 12, "fp_dataset": 256, "fp_trials": 100,
        "chain_lengths": (4, 8),
        "sweep_sessions": (4, 8), "sweep_fp_dataset": (16, 32),
        "sweep_fp_trials": 20, "sweep_chain": (4, 8),
    },
}

# fp hits are Binomial(trials, |D_G|/2^k).  Six standard deviations (plus
# one hit) keep a correct program inside the bound on any seed (the odds
# of leaving it are about 2e-9 per batch), while a guardian that fires
# on every trial, or never, falls far outside it.
FP_SIGMAS = 6.0


@dataclass
class BatchResult:
    ops: int                  # ops attempted in the batch
    failed: int               # ops whose check failed
    digest: Dict[str, object]
    problems: List[str] = field(default_factory=list)
    budget_exceeded: int = 0  # Simulator.run calls that hit the budget


def digest_hex(digest: Dict[str, object]) -> str:
    blob = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- sessions ---------------------------------------------------------------

def session_order(n: int, rng: random.Random) -> List[str]:
    """Who initiates each of the n sessions: A and B each half of them,
    in an order drawn from the seed."""
    order = ["A"] * ((n + 1) // 2) + ["B"] * (n // 2)
    rng.shuffle(order)
    return order


def wire_sessions(order: List[str], seed: int) -> Simulator:
    """One honest ISO-SC 27 run on topology A, guardian on, no attacker,
    64-bit nonces, with one initiator per entry of `order`."""
    wiring = iso_sc27.wire(kind="A", guardian=True, attack=None)
    wiring.initiators = [
        (agent, iso_sc27.initiator_script("B" if agent == "A" else "A"), i + 1)
        for i, agent in enumerate(order)]
    return wiring.simulator(seed=seed, nonce_bits=64,
                            max_rounds=6 * len(order) + 8)


class Sessions:
    """Op: one simulator round.  Batch: a full run of N sessions."""

    def __init__(self, size: dict, seed: int):
        self.seed = seed
        self.order = session_order(size["sessions"], random.Random(seed))

    def wire(self) -> Simulator:
        return wire_sessions(self.order, self.seed)

    def run(self, sim: Simulator):
        try:
            return sim.run()
        except BudgetExceeded:
            return None

    def check(self, sim: Simulator, result) -> BatchResult:
        if result is None:
            return BatchResult(ops=sim.rounds, failed=sim.rounds, digest={},
                               problems=["round budget exceeded"],
                               budget_exceeded=1)
        n = len(self.order)
        problems = []
        sessions = [s for agent in result.honest.values()
                    for s in agent.sessions.values()]
        complete = sum(s.status == "complete" for s in sessions)
        interference = result.guardian.interference_count
        if len(sessions) != 2 * n or complete != 2 * n:
            problems.append(f"{complete}/{len(sessions)} sessions complete, "
                            f"expected {2 * n}")
        if interference:
            problems.append(f"guardian interfered {interference} times")
        if result.network.pending:
            problems.append(f"{len(result.network.pending)} envelopes pending")
        if result.rounds != 6 * n + 1:
            problems.append(f"{result.rounds} rounds, expected {6 * n + 1}")
        # trace lines name values by label; the wire views carry the bits
        lines = "\n".join(result.trace.lines()).encode()
        bits = "\n".join(repr(wire_view(s.body)) for s in result.trace.steps
                         if s.body is not None).encode()
        digest = {"trace_sha256": hashlib.sha256(lines).hexdigest(),
                  "wire_sha256": hashlib.sha256(bits).hexdigest(),
                  "rounds": result.rounds, "complete": complete,
                  "interference": interference,
                  "dataset": len(result.guardian.store.entries)}
        return BatchResult(ops=result.rounds,
                           failed=result.rounds if problems else 0,
                           digest=digest, problems=problems)


# -- enumerate --------------------------------------------------------------

class RunCounter:
    """Counts Simulator.run calls and the ones that hit the round budget.

    enumerate_attacks drops a leaf whose run exceeds the round budget
    without counting it, so the benchmark counts attempted leaves at the
    one method every leaf calls.  The wrapper costs one Python call per
    leaf run of about a millisecond."""

    def __init__(self):
        self.runs = 0
        self.budget_exceeded = 0
        self._original = None

    def install(self) -> None:
        original = self._original = Simulator.run
        counter = self

        def run(sim):
            counter.runs += 1
            try:
                return original(sim)
            except BudgetExceeded:
                counter.budget_exceeded += 1
                raise

        Simulator.run = run

    def uninstall(self) -> None:
        Simulator.run = self._original


class Enumerate:
    """Op: one leaf run of the attack search.  Batch: enumerate_attacks on
    the criterion-6 protocols at the configured depths."""

    def __init__(self, size: dict, seed: int):
        self.seed = seed
        self.plan = size["enumerate"]
        self.cases = {name: builtin(name) for name, _, _ in self.plan}
        self.counter = RunCounter()

    def wire(self):
        return None

    def run(self, _state):
        """(name, report, leaf runs, leaves over budget) per protocol."""
        out = []
        counter = self.counter
        counter.install()
        try:
            for name, kind, depth in self.plan:
                runs, over = counter.runs, counter.budget_exceeded
                rep = enumerate_attacks(self.cases[name], kind,
                                        max_choices=depth, seed=self.seed,
                                        max_visible=8)
                out.append((name, rep, counter.runs - runs,
                             counter.budget_exceeded - over))
        finally:
            counter.uninstall()
        return out

    def check(self, _state, out) -> BatchResult:
        problems = []
        failed = 0
        reports = []
        for name, rep, leaves, over in out:
            bad = over
            if over:
                problems.append(f"{name}: {over} leaves exceeded the "
                                f"round budget")
            if rep.false_negatives:
                problems.append(f"{name}: {rep.false_negatives} false "
                                f"negatives")
                bad = leaves
            if name == "iso-sc-27" and rep.deceptions_detected == 0:
                problems.append("iso-sc-27: no deception detected")
                bad = leaves
            failed += bad
            reports.append([name, rep.runs, rep.false_negatives,
                            rep.deceptions_detected])
        return BatchResult(ops=sum(leaves for _, _, leaves, _ in out),
                           failed=failed, digest={"reports": reports},
                           problems=problems,
                           budget_exceeded=sum(o for *_, o in out))


# -- fp ---------------------------------------------------------------------

def fp_bound(trials: int, rate: float) -> float:
    return FP_SIGMAS * math.sqrt(trials * rate * (1 - rate)) + 1


class FalsePositives:
    """Op: one Monte Carlo trial.  Batch: one monte_carlo_fp call."""

    def __init__(self, size: dict, seed: int):
        self.seed = seed
        self.bits = size["fp_bits"]
        self.dataset = size["fp_dataset"]
        self.trials = size["fp_trials"]

    def wire(self):
        return None

    def run(self, _state):
        return monte_carlo_fp(nonce_bits=self.bits,
                              dataset_size=self.dataset,
                              trials=self.trials, seed=self.seed)

    def check(self, _state, est) -> BatchResult:
        rate = self.dataset / 2 ** self.bits
        problems = []
        if est.analytic != rate:
            problems.append(f"analytic rate {est.analytic} != {rate}")
        if abs(est.hits - self.trials * rate) > fp_bound(self.trials, rate):
            problems.append(f"{est.hits} hits in {self.trials} trials, "
                            f"expected {self.trials * rate:.1f}")
        return BatchResult(ops=self.trials,
                           failed=self.trials if problems else 0,
                           digest={"hits": est.hits, "trials": est.trials},
                           problems=problems)


# -- derive -----------------------------------------------------------------

def chain_query(length: int, intact: bool, rng: random.Random
                ) -> Tuple[KnowledgeSet, object, bool]:
    """A knowledge set holding a key chain K_0 -> K_1 -> ... -> K_length
    that wraps a secret, plus noise pairs and commutative layers, and a
    goal built on the secret.

    K_0 is known and every link {K_i+1}K_i is present, except that a
    broken chain lacks its last link, so analysis still walks the whole
    chain but never learns K_length.  The goal is derivable exactly when
    the chain is intact."""
    keys = [SymKey(rng.getrandbits(62), f"K{i}") for i in range(length + 1)]
    secret = Nonce(rng.getrandbits(62), label="S")
    items = [keys[0], SymEnc(secret, keys[-1])]
    items += [SymEnc(keys[i + 1], keys[i]) for i in range(length)
              if intact or i != length - 1]
    noise = [Nonce(rng.getrandbits(62), label="X")
             for _ in range(2 * max(1, length // 4))]
    items += [Pair(noise[i], noise[i + 1]) for i in range(0, len(noise), 2)]
    for _ in range(max(1, length // 8)):
        # a layer under a chain key the analysis can peel, and one it cannot
        items.append(comm_enc(Nonce(rng.getrandbits(62), label="C"),
                              [keys[rng.randrange(length)],
                               SymKey(rng.getrandbits(62), "J")]))
    rng.shuffle(items)
    kind = rng.randrange(3)
    if kind == 0:
        goal = secret
    elif kind == 1:
        goal = Pair(secret, noise[rng.randrange(len(noise))])
    else:
        goal = comm_enc(secret, [keys[0], keys[1]])
    return KnowledgeSet(items), goal, intact


class Derive:
    """Op: one derivability query.  Batch: one intact and one broken
    chain at every configured length, in an order drawn from the seed."""

    def __init__(self, size: dict, seed: int):
        rng = random.Random(seed)
        specs = [(n, intact) for n in size["chain_lengths"]
                 for intact in (True, False)]
        rng.shuffle(specs)
        self.queries = [chain_query(n, intact, rng) for n, intact in specs]

    def wire(self):
        return self.queries

    def run(self, queries):
        return [derivable(ks, goal) for ks, goal, _ in queries]

    def check(self, queries, answers) -> BatchResult:
        wrong = sum(a != expected
                    for a, (_, _, expected) in zip(answers, queries))
        problems = [f"{wrong} wrong derivability answers"] if wrong else []
        return BatchResult(ops=len(queries), failed=wrong,
                           digest={"answers": [int(a) for a in answers]},
                           problems=problems)


WORKLOADS = {"sessions": Sessions, "enumerate": Enumerate,
             "fp": FalsePositives, "derive": Derive}


def make_workload(name: str, size: dict, seed: int):
    """Set-up shared by every workload: load the case-study registry, then
    generate the workload's inputs from the seed."""
    builtin_names()
    return WORKLOADS[name](size, seed)


# -- scaling sweeps ---------------------------------------------------------

def loglog_slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of log(wall) against log(size)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def sweeps(size: dict, seed: int) -> Dict[str, float]:
    """Wall time against input size on the three paths whose cost grows
    with it: sessions per run, |D_G| on the fp path, key-chain length."""
    rng = random.Random(seed)
    sessions = [(n, _timed(wire_sessions(session_order(n, rng), seed).run))
                for n in size["sweep_sessions"]]
    fp = [(d, _timed(lambda d=d: monte_carlo_fp(
              nonce_bits=size["fp_bits"], dataset_size=d,
              trials=size["sweep_fp_trials"], seed=seed)))
          for d in size["sweep_fp_dataset"]]
    chain = []
    for n in size["sweep_chain"]:
        ks, goal, _ = chain_query(n, True, rng)
        # a short chain answers in milliseconds: best of three
        chain.append((n, min(_timed(lambda: derivable(ks, goal))
                             for _ in range(3))))
    return {"sweep.sessions.exponent": loglog_slope(sessions),
            "sweep.fp_dataset.exponent": loglog_slope(fp),
            "sweep.derive_chain.exponent": loglog_slope(chain)}

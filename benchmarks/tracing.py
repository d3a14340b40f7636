"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each guardsim layer from the
outside; no guardsim code changes.  A function is replaced at every
module attribute that binds it (``guardian``, ``simulator`` and
``enumeration`` import ``match``, ``wire_view``, ``wire_eq`` and
``evaluate`` by name, so patching only the defining module would miss
their calls), and a method is replaced on its class.  Recursive calls
(``match``, ``wire_view``) are spans of their own.

Spans are kept in memory as parallel arrays (name, parent span, start,
end) and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.  The wrapper's own
bookkeeping around a call falls outside the call's span, so it counts
toward the caller's self time; ``trace_overhead`` gives its size.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# Span names per layer.  Each span reports `.calls` unless listed in
# NO_CALLS, and `.self_s` when listed in SELF_TIMED.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "guardian": ("guardian.Guardian.process", "guardian.GuardianStore.add",
                 "guardian.GuardianStore.snapshot",
                 "guardian.InvariantSpec.evaluate",
                 "guardian.Distinguisher.call"),
    "agents": ("agents.HonestAgent.poll", "agents.HonestAgent.deliver",
               "agents.match"),
    "terms": ("terms.wire_view", "terms.wire_eq"),
    "knowledge": ("knowledge.analyze_terms", "knowledge.derivable",
                  "knowledge.KnowledgeSet.add"),
    "simulator": ("simulator.Simulator.step", "simulator.Simulator.run"),
    "network": ("network.NetworkState.enter", "network.NetworkState.remove",
                "topology.Topology.observers_for_send",
                "topology.Topology.observers_for_injection"),
    "protocols": ("protocols.wire", "scenario.evaluate",
                  "trace.Trace.add_message"),
    "enumeration": ("enumeration.enumerate_attacks",),
    "montecarlo": ("montecarlo.monte_carlo_fp",),
}

NO_CALLS = {"enumeration.enumerate_attacks", "montecarlo.monte_carlo_fp"}

SELF_TIMED = {
    "guardian.Guardian.process", "guardian.GuardianStore.snapshot",
    "guardian.InvariantSpec.evaluate", "guardian.Distinguisher.call",
    "agents.HonestAgent.poll", "agents.HonestAgent.deliver", "agents.match",
    "terms.wire_view", "terms.wire_eq", "knowledge.analyze_terms",
    "knowledge.derivable", "simulator.Simulator.step",
    "topology.Topology.observers_for_send", "protocols.wire",
    "scenario.evaluate", "enumeration.enumerate_attacks",
    "montecarlo.monte_carlo_fp",
}

# Every per-layer metric of the traced run, name -> unit.  BENCHMARK.json
# lists the same names; the self-test checks that they agree.
PER_LAYER_UNITS: Dict[str, str] = {}
for _spans in LAYERS.values():
    for _name in _spans:
        if _name not in NO_CALLS:
            PER_LAYER_UNITS[_name + ".calls"] = "count"
        if _name in SELF_TIMED:
            PER_LAYER_UNITS[_name + ".self_s"] = "s"
PER_LAYER_UNITS.update({
    "guardian.Guardian.process.fire_ratio": "ratio",
    "guardian.GuardianStore.snapshot.entries_copied": "count",
    "guardian.InvariantSpec.evaluate.entries_scanned": "count",
    "guardian.dataset_size": "count",
    "agents.HonestAgent.poll.sessions_scanned": "count",
    "agents.HonestAgent.poll.hit_ratio": "ratio",
    "knowledge.analyze_terms.items_in": "count",
    "network.pending_peak": "count",
    "enumeration.rounds_per_run": "rounds",
    # the workload's own count of Simulator.run calls that hit the budget
    "enumeration.budget_exceeded": "count",
    "trace_overhead": "ratio",
    "sweep.sessions.exponent": "slope",
    "sweep.fp_dataset.exponent": "slope",
    "sweep.derive_chain.exponent": "slope",
})
for _layer in LAYERS:
    PER_LAYER_UNITS[f"layer.{_layer}.self_share"] = "ratio"


class Tracer:
    """Wraps guardsim's layer boundaries and records one span per call."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.nids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: List[int] = [-1]
        self._saved: List[Tuple[object, str, object]] = []
        # counters taken at the same boundaries as the spans
        self.fired = 0
        self.entries_copied = 0
        self.entries_scanned = 0
        self.dataset_size = 0
        self.poll_hits = 0
        self.sessions_scanned = 0
        self.items_in = 0
        self.pending_peak = 0
        # (own span index, end of its subtree, leaf runs) per enumeration
        self.enumerations: List[Tuple[int, int, int]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording --

    def _wrap(self, fn: Callable, name: str,
              post: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        nids, parents, starts, ends = (self.nids, self.parents, self.starts,
                                       self.ends)
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if post is not None:
                    post(idx, args, None, exc)
                raise
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
            if post is not None:
                post(idx, args, result, None)
            return result

        return traced

    @contextlib.contextmanager
    def tracing(self, name: str):
        """Trace the block, as one root span named `name`."""
        self.install()
        try:
            with self.root(name):
                yield
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span with no traced caller, such as one benchmark batch."""
        idx = len(self.nids)
        self.nids.append(self.name_id(name))
        self.parents.append(self.stack[-1])
        self.starts.append(0)
        self.ends.append(0)
        self.stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self.starts[idx] = t0
            self.stack.pop()

    # -- patching --

    def _bind(self, original: object, replacement: object,
              extra: Tuple[object, ...] = ()) -> None:
        """Replace `original` at every module attribute bound to it (the
        benchmark's own modules included), and on `extra` objects."""
        owners = [m for m in list(sys.modules.values())
                  if isinstance(m, types.ModuleType)]
        for owner in owners + list(extra):
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, replacement)

    def _method(self, cls: type, attr: str, name: str,
                post: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, post))

    def _function(self, fn: Callable, name: str,
                  post: Optional[Callable] = None, extra=()) -> None:
        self._bind(fn, self._wrap(fn, name, post), extra)

    def install(self) -> None:
        from guardsim import (agents, enumeration, guardian, knowledge,
                              montecarlo, network, scenario, simulator,
                              terms, topology, trace)
        from guardsim.protocols import base, builtin, builtin_names

        g = guardian
        self._method(g.Guardian, "process", "guardian.Guardian.process",
                     self._post_process)
        self._method(g.GuardianStore, "add", "guardian.GuardianStore.add",
                     self._post_store_add)
        self._method(g.GuardianStore, "snapshot",
                     "guardian.GuardianStore.snapshot", self._post_snapshot)
        self._method(g.InvariantSpec, "evaluate",
                     "guardian.InvariantSpec.evaluate", self._post_evaluate)
        self._method(g.Distinguisher, "__call__",
                     "guardian.Distinguisher.call")
        self._method(agents.HonestAgent, "poll", "agents.HonestAgent.poll",
                     self._post_poll)
        self._method(agents.HonestAgent, "deliver",
                     "agents.HonestAgent.deliver")
        self._count_poll_scans(agents.Session)
        self._function(agents.match, "agents.match")
        self._function(terms.wire_view, "terms.wire_view")
        self._function(terms.wire_eq, "terms.wire_eq")
        self._function(knowledge.analyze_terms, "knowledge.analyze_terms",
                       self._post_analyze)
        self._function(knowledge.derivable, "knowledge.derivable")
        self._method(knowledge.KnowledgeSet, "add",
                     "knowledge.KnowledgeSet.add")
        self._method(simulator.Simulator, "step", "simulator.Simulator.step")
        self._method(simulator.Simulator, "run", "simulator.Simulator.run")
        self._method(network.NetworkState, "enter",
                     "network.NetworkState.enter", self._post_enter)
        self._method(network.NetworkState, "remove",
                     "network.NetworkState.remove")
        self._method(topology.Topology, "observers_for_send",
                     "topology.Topology.observers_for_send")
        self._method(topology.Topology, "observers_for_injection",
                     "topology.Topology.observers_for_injection")
        # CaseStudy.wire is each study's own module function, held by its
        # registered CaseStudy object; Wiring.simulator finishes the wiring
        cases = [builtin(n) for n in builtin_names()]
        for fn in {id(c.wire): c.wire for c in cases}.values():
            self._function(fn, "protocols.wire", extra=cases)
        self._method(base.Wiring, "simulator", "protocols.wire")
        self._function(scenario.evaluate, "scenario.evaluate")
        self._method(trace.Trace, "add_message", "trace.Trace.add_message")
        self._function(enumeration.enumerate_attacks,
                       "enumeration.enumerate_attacks", self._post_enumerate)
        self._function(montecarlo.monte_carlo_fp, "montecarlo.monte_carlo_fp")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- counters at the boundaries --

    def _post_process(self, idx, args, fired, exc):
        if fired:
            self.fired += 1

    def _post_store_add(self, idx, args, result, exc):
        self.dataset_size = max(self.dataset_size, len(args[0].entries))

    def _post_snapshot(self, idx, args, result, exc):
        if exc is None:
            self.entries_copied += len(result)

    def _post_evaluate(self, idx, args, result, exc):
        self.entries_scanned += len(args[2])

    def _post_poll(self, idx, args, result, exc):
        if result is not None:
            self.poll_hits += 1

    def _count_poll_scans(self, session_cls: type) -> None:
        """HonestAgent.poll looks at each session it scans through
        Session.current; count the looks made directly inside poll."""
        original = session_cls.__dict__["current"]
        poll_id = self.name_id("agents.HonestAgent.poll")
        nids, stack = self.nids, self.stack
        tracer = self

        def current(sess):
            top = stack[-1]
            if top >= 0 and nids[top] == poll_id:
                tracer.sessions_scanned += 1
            return original(sess)

        self._saved.append((session_cls, "current", original))
        session_cls.current = current

    def _post_analyze(self, idx, args, result, exc):
        self.items_in += len(args[0])

    def _post_enter(self, idx, args, result, exc):
        self.pending_peak = max(self.pending_peak, len(args[0].pending))

    def _post_enumerate(self, idx, args, report, exc):
        # every span opened while this one was open is in its subtree
        self.enumerations.append((idx, len(self.nids),
                                  report.runs if report is not None else 0))

    # -- results --

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Span-derived per-layer metrics; `wall_s` is the traced wall
        time that the layer shares divide."""
        n = len(self.nids)
        nids, parents, starts, ends = (self.nids, self.parents, self.starts,
                                       self.ends)
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = nids[i]
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - child[i]

        def count(name):
            return calls[self._ids[name]]

        def self_s(name):
            return self_ns[self._ids[name]] / 1e9

        out: Dict[str, float] = {}
        for layer, spans in LAYERS.items():
            for name in spans:
                if name not in NO_CALLS:
                    out[name + ".calls"] = count(name)
                if name in SELF_TIMED:
                    out[name + ".self_s"] = self_s(name)
            out[f"layer.{layer}.self_share"] = \
                sum(self_s(name) for name in spans) / wall_s

        def ratio(num, den):
            return num / den if den else 0.0

        step_id = self._ids["simulator.Simulator.step"]
        enum_steps = sum(1 for first, last, _ in self.enumerations
                         for i in range(first, last) if nids[i] == step_id)
        enum_runs = sum(runs for _, _, runs in self.enumerations)
        process_calls = count("guardian.Guardian.process")
        poll_calls = count("agents.HonestAgent.poll")
        out.update({
            "guardian.Guardian.process.fire_ratio":
                ratio(self.fired, process_calls),
            "guardian.GuardianStore.snapshot.entries_copied":
                self.entries_copied,
            "guardian.InvariantSpec.evaluate.entries_scanned":
                self.entries_scanned,
            "guardian.dataset_size": self.dataset_size,
            "agents.HonestAgent.poll.sessions_scanned": self.sessions_scanned,
            "agents.HonestAgent.poll.hit_ratio":
                ratio(self.poll_hits, poll_calls),
            "knowledge.analyze_terms.items_in": self.items_in,
            "network.pending_peak": self.pending_peak,
            "enumeration.rounds_per_run": ratio(enum_steps, enum_runs),
        })
        return out

    def write(self, path: Path) -> None:
        """One JSON header line (names, field layout), then the arrays."""
        header = {"names": self.names, "count": len(self.nids),
                  "clock": "perf_counter_ns",
                  "fields": [["name", "H"], ["parent", "q"],
                             ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.nids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read_spans(path: Path) -> Tuple[dict, List[array]]:
    """Read a span file written by Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for _, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return header, arrays

"""The benchmark's span tracer still finds every name it wraps.

`benchmarks/tracing.py` patches guardsim's layer boundaries by name, so
deleting or renaming one of them breaks the traced benchmark run; this
test makes that show in the suite."""

import importlib.util
from pathlib import Path

from test_protocols import ISO_INTERFERENCE

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    from guardsim import agents, guardian
    from guardsim.protocols import iso_sc27

    process = guardian.Guardian.__dict__["process"]
    match, wire = agents.match, iso_sc27.wire
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert guardian.Guardian.__dict__["process"] is not process
        assert agents.match is not match and iso_sc27.wire is not wire
        result = iso_sc27.wire(guardian=True,
                               attack="classic").simulator(seed=5).run()
    finally:
        tracer.uninstall()
    assert result.trace.lines() == ISO_INTERFERENCE
    assert guardian.Guardian.__dict__["process"] is process
    assert agents.match is match
    assert iso_sc27.wire is wire


def test_tracer_spans_the_analysis_inside_derivable():
    """`derivable` calls `analyze_terms` by its module name, so the
    tracer's `knowledge.analyze_terms` span and `items_in` see it."""
    from guardsim import knowledge
    from guardsim.terms import Nonce, Pair, SymEnc, SymKey

    key, secret = SymKey(value=1), Nonce(value=2)
    ks = knowledge.KnowledgeSet([key, SymEnc(secret, key), Nonce(value=3)])
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert knowledge.derivable(ks, Pair(secret, key))
    finally:
        tracer.uninstall()
    spans = [tracer.names[i] for i in tracer.nids]
    assert spans.count("knowledge.analyze_terms") == 1
    assert tracer.items_in == len(ks) == 3


def test_tracer_counts_the_monte_carlo_read_path():
    """One batch of the benchmark's fp workload: each trial is one
    invariant evaluation over at most one candidate, and each hit runs
    the criticality distinguisher once more, on the stored entry."""
    from guardsim.montecarlo import monte_carlo_fp

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        est = monte_carlo_fp(nonce_bits=12, dataset_size=256, trials=1500,
                             seed=1)
    finally:
        tracer.uninstall()
    spans = [tracer.names[i] for i in tracer.nids]
    assert spans.count("guardian.InvariantSpec.evaluate") == 1500
    assert spans.count("guardian.Distinguisher.call") == 1500 + est.hits \
        == 1596
    assert tracer.entries_scanned == est.hits == 96

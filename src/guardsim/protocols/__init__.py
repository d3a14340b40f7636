"""Catalog of the built-in case studies."""

from __future__ import annotations

from ..topology import ConfigError
from .base import CaseStudy, Wiring

_REGISTRY = {}


def register(case: CaseStudy) -> CaseStudy:
    _REGISTRY[case.name] = case
    return case


def builtin(name: str) -> CaseStudy:
    """Look up a built-in case study by name."""
    from . import iso_sc27, sra3p, andrew_rpc, otway_rees, eke, splice_as, bme  # noqa: F401
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown case study {name!r}; known: "
                          f"{sorted(_REGISTRY)}") from None


def builtin_names():
    from . import iso_sc27, sra3p, andrew_rpc, otway_rees, eke, splice_as, bme  # noqa: F401
    return sorted(_REGISTRY)


def honest_run(name: str, seed: int = 0):
    """Simulate the protocol with honest agents only (the baseline for
    false-positive measurements); returns the completed SimResult."""
    case = builtin(name)
    wiring = case.wire(guardian=False, attack=None)
    return wiring.simulator(seed=seed).run()

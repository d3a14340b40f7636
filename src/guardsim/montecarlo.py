"""Monte Carlo estimation of the guardian's false-positive rate.

The trigger: after A finishes a run as initiator, B restarts the
protocol toward her; if his opening nonce is a k-bit value already in
the guardian's dataset, the replay invariant fires on a benign message.
The per-restart probability is |D_G|/2^k; the trials draw restart nonces
against a held dataset and push each through the guardian's own Control
module (`Guardian.control`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

from .terms import Nonce
from .topology import ConfigError


@dataclass
class FpEstimate:
    trials: int
    hits: int
    empirical: float
    analytic: float
    wilson_low: float
    wilson_high: float
    nonce_bits: int
    dataset_size: int

    def contains_analytic(self) -> bool:
        return self.wilson_low <= self.analytic <= self.wilson_high


def wilson_interval(hits: int, n: int, z: float = 1.959964) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        raise ValueError("no trials")
    phat = hits / n
    denom = 1 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def monte_carlo_fp(nonce_bits: int, dataset_size: int, trials: int,
                   seed: int = 0) -> FpEstimate:
    """Estimate the restart false-positive rate.

    An ISO-SC 27 guardian holds exactly `dataset_size` distinct k-bit
    nonce entries, drawn from `random.Random(seed)`; then `trials`
    restart nonces are drawn from the same generator and judged by the
    guardian's Control module, which only reads D_G."""
    if trials <= 0:
        raise ConfigError("trials must be positive")
    if nonce_bits < 0 or not 0 <= dataset_size <= 2 ** nonce_bits:
        raise ConfigError(f"need nonce_bits >= 0 and dataset_size between 0 "
                          f"and 2**nonce_bits, got {nonce_bits} and "
                          f"{dataset_size}")
    from .protocols.iso_sc27 import make_guardian

    rng = random.Random(seed)
    g = make_guardian()
    values = set()
    while len(values) < dataset_size:
        values.add(rng.getrandbits(nonce_bits))
    for v in sorted(values):
        g.store.add(Nonce(v, nonce_bits, "N"), {"P", "critical"})

    control = g.control
    hits = 0
    for _ in range(trials):
        if control(Nonce(rng.getrandbits(nonce_bits), nonce_bits, "N_B"))[1]:
            hits += 1

    analytic = math.ldexp(dataset_size, -nonce_bits)
    low, high = wilson_interval(hits, trials)
    return FpEstimate(trials=trials, hits=hits, empirical=hits / trials,
                      analytic=analytic, wilson_low=low, wilson_high=high,
                      nonce_bits=nonce_bits, dataset_size=dataset_size)

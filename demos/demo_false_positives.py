#!/usr/bin/env python3
"""How often does the replay invariant fire on a benign restart?

A role-reversal restart draws a fresh k-bit nonce; if it collides with
anything the guardian has recorded, a normal run gets flagged.  The rate
is |D_G| / 2^k: measurable at k=8, negligible at real widths.

    python demos/demo_false_positives.py
"""

from guardsim.montecarlo import monte_carlo_fp


def main():
    print(f"{'k':>6} {'|D_G|':>6} {'trials':>9} {'empirical':>11} "
          f"{'analytic':>11}  95% Wilson interval")
    for bits, size, trials in [(8, 4, 100_000), (8, 16, 100_000),
                               (12, 4, 100_000), (64, 4, 100_000)]:
        est = monte_carlo_fp(nonce_bits=bits, dataset_size=size,
                             trials=trials, seed=42)
        print(f"{bits:>6} {size:>6} {trials:>9} {est.empirical:>11.6f} "
              f"{est.analytic:>11.6f}  [{est.wilson_low:.6f}, "
              f"{est.wilson_high:.6f}]"
              + ("  <- contains analytic" if est.contains_analytic() else ""))
    print()
    est = monte_carlo_fp(nonce_bits=1024, dataset_size=4, trials=200_000,
                         seed=42)
    print(f"k=1024: {est.hits} collisions over {est.trials} trials "
          f"(rate {est.empirical}) -- wide nonces make restarts safe.")


if __name__ == "__main__":
    main()

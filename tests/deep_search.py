"""The no-false-negative search one level deeper than criterion 6:
Otway-Rees on layout C at depth 6.  It takes about 10 s of CPU, too long
for the tier-1 suite next to criterion 6, so pytest does not collect it;
CI runs it as its own step.

    PYTHONPATH=src python tests/deep_search.py
"""

import sys
import time

from guardsim.enumeration import enumerate_attacks
from guardsim.protocols import builtin

EXPECTED = {"runs": 72_194, "false_negatives": 0,
            "deceptions_detected": 13_038, "over_budget": 0}


def main() -> int:
    t0 = time.process_time()
    report = enumerate_attacks(builtin("otway-rees"), "C", max_choices=6,
                               max_visible=8)
    got = {name: getattr(report, name) for name in EXPECTED}
    print(f"otway-rees C depth 6: {got} in "
          f"{time.process_time() - t0:.1f} s CPU")
    if got != EXPECTED:
        print(f"expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

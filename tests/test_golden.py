"""Behaviour is byte-identical to the committed equivalence digests,
under two hash seeds (see tests/golden.py)."""

import json
import os
import subprocess
import sys

import guardsim
from golden import DIGESTS


def test_golden_digests_match_under_two_hash_seeds():
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden.py")
    src = os.path.dirname(os.path.dirname(guardsim.__file__))
    runs = {seed: subprocess.Popen(
                [sys.executable, script],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for seed in ("0", "1")}
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    for seed, proc in runs.items():
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        got = json.loads(out)
        changed = sorted(k for k in expected.keys() | got.keys()
                         if expected.get(k) != got.get(k))
        assert not changed, f"PYTHONHASHSEED={seed}: parts differ: {changed}"

"""Self-test of the benchmark at tiny input sizes (about 15 seconds).

    python3 benchmarks/selftest.py

Runs every workload once timed and once traced, and checks the output
schema, that every metric BENCHMARK.json names is reported with its unit,
that the traced run wrote a readable span file, and that the benchmark
fails without a result when the guardsim sources are missing.  Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, WORKLOADS  # noqa: E402
from tracing import PER_LAYER_UNITS, read_spans  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_result(line: str, expected: dict) -> list:
    errors = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    if result["correct"] is not True:
        errors.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] != 0:
        errors.append(f"attempted {result['attempted']} failed "
                      f"{result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            errors.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)) \
                or isinstance(m["value"], bool) or not math.isfinite(m["value"]):
            errors.append(f"{name}: value {m['value']!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != PER_LAYER_UNITS:
        errors.append("BENCHMARK.json per_layer differs from "
                      "tracing.PER_LAYER_UNITS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, declared)):
            proc = run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not lines:
                errors.append(f"{label}: exit {proc.returncode}\n"
                              f"{proc.stderr}")
                continue
            errors += [f"{label}: {e}" for e in check_result(lines[-1],
                                                             expected)]
            print(f"{label}: ok", flush=True)
        header, arrays = read_spans(OUT / f"spans-{workload}.bin")
        if header["count"] < 1 or len(arrays[0]) != header["count"]:
            errors.append(f"{workload}: unreadable span file")

    # in a directory holding only BENCHMARK.json and benchmarks/, the
    # benchmark must fail without printing a result
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, WORKLOADS[0], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("benchmark did not fail without the guardsim sources")
    shutil.rmtree(bare)

    for e in errors:
        print("FAIL:", e)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""guardsim benchmark: one workload, one run.

    python3 benchmarks/run.py --workload {sessions,enumerate,fp,derive}
        --seed N --seconds S --trace {0,1}

Every workload runs in its own single-threaded worker process
(benchmarks/worker.py), closed-loop: a batch starts only when the
previous one has finished.  --trace 0 reports the end-to-end metrics
with tracing off; --trace 1 reports the per-layer metrics of one traced
batch plus the scaling sweeps.  Both modes repeat one batch under a
second PYTHONHASHSEED and require the same digest of the simulated
statistics.  The last stdout line is the result object; the line before
it is the run record (noise, digests, per-batch rates), which is also
written to benchmarks/out/.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sessions", "enumerate", "fp", "derive")
TIME_LIMIT_S = 170.0
# The timed phase is split over this many workers, each preceded by two
# set-up-only workers, so the set-up samples of a run are spread over its
# whole length: the machine's speed drifts in phases of 10 to 30 s.
TIMED_WORKERS = 3


class BenchError(Exception):
    pass


def read_steal_ticks() -> int:
    """CPU steal ticks of the whole machine, from /proc/stat (read only)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else -1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def noise_sample() -> dict:
    return {"loadavg": list(os.getloadavg()), "steal_ticks": read_steal_ticks(),
            "time": time.time()}


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.children = []

    def worker(self, mode: str, hash_seed: int, **extra) -> dict:
        """Start one worker, wait for it, return its result object with
        set-up time filled in."""
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--size", self.args.size]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} worker printed no result")
        out = json.loads(lines[-1])
        out["setup_s"] = out["setup_done"] - start
        out["mode"] = mode
        out["hash_seed"] = hash_seed
        self.children.append({k: v for k, v in out.items() if k != "metrics"})
        return out


def verdict(main: dict, check: dict):
    """Problems found and ops failed, over both workers of a run."""
    problems = main["problems"] + check["problems"]
    failed = main["failed"]
    if main["digest"] != check["digest"]:
        problems.append("digest differs between PYTHONHASHSEED 0 and 1")
        failed = main["attempted"]   # no op of the run can be trusted
    return problems, failed


def merge(parts: list) -> dict:
    """The timed workers of one run, as one worker's result."""
    problems = [p for part in parts for p in part["problems"]]
    if len({part["digest"] for part in parts}) != 1:
        problems.append("timed workers gave different digests")
    return {"attempted": sum(part["attempted"] for part in parts),
            "failed": sum(part["failed"] for part in parts),
            "rates": [r for part in parts for r in part["rates"]],
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
            "digest": parts[0]["digest"], "problems": problems}


def timed_run(runner: Runner, seconds: float):
    setups, parts = [], []
    for _ in range(TIMED_WORKERS):
        setups += [runner.worker("setup", h)["setup_s"] for h in (0, 1)]
        parts.append(runner.worker("timed", 0,
                                   seconds=seconds / TIMED_WORKERS))
        setups.append(parts[-1]["setup_s"])
    main = merge(parts)
    check = runner.worker("digest", 1)
    setups.append(check["setup_s"])
    problems, failed = verdict(main, check)
    attempted = main["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(main["rates"]), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return main, problems, failed, metrics


def traced_run(runner: Runner):
    sys.path.insert(0, str(HERE))
    from tracing import PER_LAYER_UNITS

    main = runner.worker("traced", 0)
    check = runner.worker("digest", 1)
    problems, failed = verdict(main, check)
    metrics = {name: (main["metrics"][name], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    return main, problems, failed, metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's input sizes")
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "guardsim" / "__init__.py").is_file():
        print(f"no guardsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args)
    before = noise_sample()
    t0 = time.monotonic()
    try:
        if args.trace:
            main_out, problems, failed, metrics = traced_run(runner)
        else:
            main_out, problems, failed, metrics = timed_run(runner,
                                                            args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    after = noise_sample()

    correct = not problems and failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size,
        "digest": main_out["digest"], "problems": problems,
        "noise": {
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "before": before, "after": after,
            "steal_ticks_during": after["steal_ticks"] - before["steal_ticks"],
            "wall_s": time.monotonic() - t0,
        },
        "workers": runner.children,
    }
    OUT.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": correct,
        "attempted": main_out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: the child that run.py starts.

    python3 benchmarks/worker.py --workload NAME --seed N --mode MODE
        [--seconds S] [--size full|tiny]

Modes:
  setup   set up and exit (a set-up time sample)
  timed   set up, then run batches closed-loop until S seconds have
          passed; each batch starts when the previous one has finished
  digest  set up and run one batch (the digest under another hash seed)
  traced  set up, run one batch untraced and the same batch traced, then
          the scaling sweeps untraced; write the spans to
          benchmarks/out/

The last stdout line is a JSON object.  Its "setup_done" is the
time.monotonic() at which set-up ended; run.py, which noted the same
clock before starting this process, turns it into set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_guardsim():
    """Import guardsim from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import guardsim
    if Path(guardsim.__file__).resolve().parent != SRC / "guardsim":
        raise SystemExit(f"guardsim imported from {guardsim.__file__}, "
                         f"not from {SRC}")


def run_batch(workload, state, around=None):
    """One batch: time (and trace, inside `around`) only the work, then
    check and digest its output."""
    with around or contextlib.nullcontext():
        t0 = time.perf_counter()
        output = workload.run(state)
        seconds = time.perf_counter() - t0
    return workload.check(state, output), seconds


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True,
                   choices=("setup", "timed", "digest", "traced"))
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    args = p.parse_args()

    import_guardsim()
    sys.path.insert(0, str(HERE))
    import workloads

    size = workloads.SIZES[args.size]
    workload = workloads.make_workload(args.workload, size, args.seed)
    state = workload.wire()
    out = {"setup_done": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    batches = []     # (ops, failed, seconds, digest)
    problems = []

    def record(result, seconds):
        batches.append((result.ops, result.failed, seconds,
                        workloads.digest_hex(result.digest)))
        problems.extend(result.problems)

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if args.mode in ("timed", "digest"):
        deadline = wall0 + (args.seconds if args.mode == "timed" else 0)
        while True:
            record(*run_batch(workload, state))
            state = workload.wire()
            if time.perf_counter() >= deadline:
                break
    else:
        import tracing
        record(*run_batch(workload, state))
        state = workload.wire()
        tracer = tracing.Tracer()
        result, traced_s = run_batch(
            workload, state, tracer.tracing(f"bench.{args.workload}.batch"))
        record(result, traced_s)
        metrics = tracer.metrics(traced_s)
        metrics["enumeration.budget_exceeded"] = result.budget_exceeded
        metrics["trace_overhead"] = traced_s / batches[0][2]
        metrics.update(workloads.sweeps(size, args.seed))
        out["metrics"] = metrics
        out["spans"] = len(tracer.nids)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}.bin"
        tracer.write(path)
        out["spans_file"] = str(path.relative_to(ROOT))

    digests = sorted({d for *_, d in batches})
    if len(digests) != 1:
        problems.append(f"batches of identical inputs gave {len(digests)} "
                        f"different digests")
    out.update({
        "attempted": sum(b[0] for b in batches),
        "failed": sum(b[1] for b in batches),
        "rates": [b[0] / b[2] for b in batches],
        "batch_s": [b[2] for b in batches],
        "digest": digests[0],
        "problems": problems,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(out))


if __name__ == "__main__":
    main()

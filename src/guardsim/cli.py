"""Command-line front end.

    guardsim run --scenario FILE [--seed N] [--trace-out FILE]
    guardsim cases --protocol iso-sc-27 [--seed N]
    guardsim montecarlo --trials N (--nonce-bits K | --scenario FILE)
                        [--dataset-size D] [--seed N]
    guardsim matrix [--protocols ...] [--topologies A..F] [--json-out FILE]
    guardsim export-builtin NAME [--out FILE]

Exit codes: 0 defended or no attack, 2 attack succeeded, 64 bad
configuration, 65 deadlocked scripts, 66 step budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cases import enumerate_interaction_cases
from .matrix import defense_matrix
from .montecarlo import monte_carlo_fp
from .network import DeadlockError
from .scenario import (EXIT_BUDGET, EXIT_CONFIG_ERROR, EXIT_DEADLOCK,
                       ScenarioConfig, export_builtin, run_scenario,
                       write_trace_file)
from .topology import ConfigError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guardsim",
        description="Security-protocol attack and guardian-defense simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trace-out", default=None)

    p_cases = sub.add_parser("cases",
                             help="the six two-attacker interaction cases")
    p_cases.add_argument("--protocol", default="iso-sc-27")
    p_cases.add_argument("--seed", type=int, default=0)

    p_mc = sub.add_parser("montecarlo",
                          help="false-positive rate estimation")
    p_mc.add_argument("--scenario", default=None,
                      help="scenario file providing seed and nonce bits; "
                           "--seed and --nonce-bits override it")
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--nonce-bits", type=int, default=None)
    p_mc.add_argument("--dataset-size", type=int, default=4)
    p_mc.add_argument("--seed", type=int, default=None)

    p_matrix = sub.add_parser("matrix", help="the defense matrix report")
    p_matrix.add_argument("--protocols", nargs="*", default=None)
    p_matrix.add_argument("--topologies", nargs="*", default=None)
    p_matrix.add_argument("--seed", type=int, default=0)
    p_matrix.add_argument("--json-out", default=None)

    p_exp = sub.add_parser("export-builtin",
                           help="write a builtin case study as a scenario file")
    p_exp.add_argument("name")
    p_exp.add_argument("--topology", default=None)
    p_exp.add_argument("--out", default=None)
    return parser


def _cmd_run(args) -> int:
    config = ScenarioConfig.load(args.scenario)
    if args.seed is not None:
        config.seed = args.seed
    result = run_scenario(config)
    if result.outcome is None:
        print("step budget exhausted", file=sys.stderr)
        return EXIT_BUDGET
    print(result.trace.render())
    print()
    print(json.dumps(result.outcome.to_dict(), indent=2, sort_keys=True))
    if args.trace_out:
        write_trace_file(result.sim, args.trace_out)
    return result.exit_code


def _cmd_cases(args) -> int:
    results = enumerate_interaction_cases(args.protocol, args.seed)
    for case, r in sorted(results.items()):
        head = f"case {case} -> {r.trace_name}: {r.result}"
        if r.dominant:
            head += f" ({r.dominant} dominates)"
        print(head)
        for line in r.trace.lines():
            print("  " + line)
        print()
    return 0


def _cmd_montecarlo(args) -> int:
    seed = args.seed
    bits = args.nonce_bits
    if args.scenario:
        config = ScenarioConfig.load(args.scenario)
        seed = config.seed if seed is None else seed
        bits = config.nonce_bits if bits is None else bits
    if bits is None:
        raise ConfigError("montecarlo needs --nonce-bits or --scenario")
    est = monte_carlo_fp(nonce_bits=bits, dataset_size=args.dataset_size,
                         trials=args.trials, seed=seed or 0)
    print(json.dumps({
        "trials": est.trials, "hits": est.hits,
        "empirical_rate": est.empirical,
        "analytic_rate": est.analytic,
        "wilson_95": [est.wilson_low, est.wilson_high],
        "interval_contains_analytic": est.contains_analytic(),
    }, indent=2, sort_keys=True))
    return 0


def _cmd_matrix(args) -> int:
    report = defense_matrix(protocols=args.protocols,
                            topologies=args.topologies, seed=args.seed)
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json())
    return 0


def _cmd_export(args) -> int:
    payload = export_builtin(args.name, topology=args.topology)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "cases":
            return _cmd_cases(args)
        if args.command == "montecarlo":
            return _cmd_montecarlo(args)
        if args.command == "matrix":
            return _cmd_matrix(args)
        if args.command == "export-builtin":
            return _cmd_export(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DeadlockError as exc:
        print(f"deadlock: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK
    return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())

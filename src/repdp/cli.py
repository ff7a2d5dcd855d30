"""Command-line interface.

Verbs:
  validate  parse a scenario, build the deployment, print the resolved
            plan (placement, tree, update periods, lowered program)
  run       simulate one scenario and export the CSV metrics family
  sweep     run the scenario across several replica counts
  summarize recompute the steady-state summary from exported CSVs

Exit codes: 0 success, 1 scenario/validation errors, 2 runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import RepdpError, ScenarioError, SimulationError
from .metrics import export_summary, read_metrics_dir, summarize
from .runner import build_simulation, run_single, run_sweep
from .scenario import parse_scenario


def _add_common(p, with_seed=True):
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--replicas", type=int, default=None,
                   help="override the scenario's replica count")
    if with_seed:
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--t-end", type=float, default=None,
                       help="override the simulated horizon (seconds)")


# Built once per process: in-process callers (the tests) call main often.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repdp",
                                 description="replicated-dataplane application simulator")
    sub = ap.add_subparsers(dest="verb", required=True)

    pv = sub.add_parser("validate", help="check a scenario and print the resolved plan")
    _add_common(pv, with_seed=False)

    pr = sub.add_parser("run", help="simulate a scenario")
    _add_common(pr)
    pr.add_argument("--out-dir", required=True, help="directory for the CSV outputs")
    pr.add_argument("--trace", action="store_true",
                    help="record a per-event trace to out-dir/trace.txt")
    pr.add_argument("--no-replication", action="store_true",
                    help="disable state replication traffic (baseline runs)")

    ps = sub.add_parser("sweep", help="run at several replica counts")
    _add_common(ps)
    ps.add_argument("--out-dir", required=True)
    ps.add_argument("--counts", default="1,2,4",
                    help="comma-separated replica counts (default 1,2,4)")

    pm = sub.add_parser("summarize", help="summarize exported CSV metrics")
    pm.add_argument("dir", help="a run directory, or a sweep directory of c<N> subdirs")
    pm.add_argument("--out", default=None,
                    help="summary CSV path (default <dir>/summary.csv)")
    return ap


def _verb_validate(args) -> int:
    config = parse_scenario(args.scenario)
    built = build_simulation(config, replicas=args.replicas)
    sys.stdout.write(built.sim.plan_text)
    flows = ", ".join(f.name for f in config.flows) or "(none)"
    print(f"scenario {config.name}: ok ({built.replicas} replicas; flows: {flows})")
    return 0


def _verb_run(args) -> int:
    config = parse_scenario(args.scenario)
    trace_path = os.path.join(args.out_dir, "trace.txt") if args.trace else None
    log = run_single(
        config, out_dir=args.out_dir, replicas=args.replicas, seed=args.seed,
        t_end_s=args.t_end, trace_path=trace_path,
        replication=False if args.no_replication else None,
    )
    rows = summarize({config.name: log})
    export_summary(rows, os.path.join(args.out_dir, "summary.csv"))
    print(f"run complete: {log.events_processed} events,"
          f" {log.updates_emitted} updates -> {args.out_dir}")
    return 0


def _verb_sweep(args) -> int:
    config = parse_scenario(args.scenario)
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError:
        raise ScenarioError(f"bad --counts value {args.counts!r}", args.scenario, 0) from None
    if not counts:
        raise ScenarioError("--counts is empty", args.scenario, 0)
    if len(set(counts)) != len(counts):
        raise ScenarioError(f"--counts names a count twice: {args.counts}", args.scenario, 0)
    logs = run_sweep(config, args.out_dir, counts, seed=args.seed, t_end_s=args.t_end)
    print(f"sweep complete: {', '.join(sorted(logs))} -> {args.out_dir}")
    return 0


def _verb_summarize(args) -> int:
    base = args.dir
    if os.path.exists(os.path.join(base, "links.csv")):
        runs = {os.path.basename(os.path.normpath(base)) or "run": base}
    else:
        runs = {}
        for entry in sorted(os.listdir(base)):
            sub = os.path.join(base, entry)
            if os.path.isdir(sub) and os.path.exists(os.path.join(sub, "links.csv")):
                runs[entry] = sub
        if not runs:
            raise ScenarioError("no run CSVs found (missing links.csv)", base, 0)
    logs = {label: read_metrics_dir(path) for label, path in runs.items()}
    rows = summarize(logs)
    out = args.out or os.path.join(base, "summary.csv")
    export_summary(rows, out)
    for r in rows:
        print(f"{r.label}: data={r.mean_data_bps:.0f} bps/link"
              f" repl_fraction={r.repl_fraction:.4f}"
              f" throughput={r.aggregate_throughput_bps:.0f} bps"
              f" detections={r.detections or '-'}")
    print(f"summary -> {out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "validate": _verb_validate,
        "run": _verb_run,
        "sweep": _verb_sweep,
        "summarize": _verb_summarize,
    }
    try:
        return handlers[args.verb](args)
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except RepdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Host-time benchmark of the repdp simulator, end to end and per layer.

Usage (from the repository root):

  python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 bench/run.py --workload all [--record bench/results/NAME.json]

Workloads and their reasons, the reference outputs at the default seed,
the held-out seed, the layer -> end-to-end mapping and what is not
measured live in bench/workloads.json.

--trace 0 runs the workload again and again, each repetition in a fresh
interpreter (bench/worker.py), one at a time, until --seconds have
passed (at least three repetitions), and reports the medians of:

  wall_s       parse_scenario -> build_simulation -> run_until ->
               export_metrics + summarize + export_summary
  setup_s      parse_scenario + build_simulation (imports excluded)
  events_per_s simulated events / host seconds of run_until
  peak_rss_mb  ru_maxrss of the repetition's own process

Host speed on a shared machine drifts: on a 2-vCPU Xeon VM shared with
other tenants (Python 3.11), the same ddos-ring-c1 repetition took 1.6 s
and 3.2 s an hour apart. Each repetition therefore times a fixed
calibration kernel that uses no repdp code (worker.calibration_s) before
and after its work, and the reported times are the medians scaled to a
host on which that kernel takes REF_CAL_S:
median(time) * REF_CAL_S / median(mean kernel time).
The raw medians and quartiles are printed and recorded beside them.

--trace 1 makes one repetition with wrappers on each layer's public
callables (bench/tracer.py) and reports the per-layer split, then
untraced repetitions for the tracing overhead ratio.

Every repetition's exported CSV family is hashed. All repetitions of a
run must agree; at the default seed and horizon they must also match
the stored reference digest and exact counts. A repetition that raises
or disagrees is a failure and counts toward error_rate.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--workload all runs every workload, timed and traced, and prints the
tables; --record also writes them with a run stamp to a JSON file.
--t-end shortens the simulated horizon (the reference check is then
skipped); the smoke test uses it.
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

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
MIN_REPEATS = 3
# Calibration kernel time that defines the reference host speed.
REF_CAL_S = 0.1
# Every run must end within 180 s, so no repetition may outlast this.
RUN_LIMIT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MiB"),
)


def load_spec() -> dict:
    with open(os.path.join(BENCH, "workloads.json")) as fh:
        return json.load(fh)


def scenario_path(spec: dict, name: str, seed: int) -> str:
    """The scenario file for a workload; the mesh is generated from seed."""
    wl = spec["workloads"][name]
    if wl["scenario"] is not None:
        return os.path.join(ROOT, wl["scenario"])
    sys.path.insert(0, BENCH)
    import meshgen

    path = os.path.join(WORK, name, f"mesh_{seed}.scn")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(meshgen.generate(seed))
    return path


def run_child(job: dict, deadline: float) -> tuple[dict | None, str]:
    """One repetition in a fresh interpreter: (result, error text).

    The repetition is killed when it runs past `deadline` (a
    time.perf_counter value)."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None, f"repetition ran past the {RUN_LIMIT_S} s run limit"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return None, tail[0]
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def check_outputs(results: list, reference: dict | None) -> list[str]:
    """Per repetition, '' when its outputs are correct, else the reason.

    Every repetition must produce the same CSV family digest; with a
    reference it must be the reference digest and exact counts.
    """
    expected = reference["digest"] if reference else next(
        (r["digest"] for r in results if r is not None), None)
    verdicts = []
    for r in results:
        if r is None:
            verdicts.append("raised")
        elif r["digest"] != expected:
            verdicts.append("CSV family digest differs")
        elif reference and r["counts"] != reference["counts"]:
            verdicts.append(f"counts {r['counts']} != reference")
        elif not r["flow_totals_ok"] or r["counts"]["events"] <= 0:
            verdicts.append("flow totals inconsistent")
        else:
            verdicts.append("")
    return verdicts


def describe(values: list[float]) -> dict:
    """Sample count, median and quartiles of one metric."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2]}


def timed(job: dict, seconds: float, min_repeats: int,
          deadline: float) -> tuple[list, list[str]]:
    """Fresh-process repetitions until `seconds` would be exceeded."""
    results, errors, took = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res, err = run_child(job, deadline)
        took.append(time.perf_counter() - t0)
        results.append(res)
        errors.append(err)
        elapsed = time.perf_counter() - start
        if (len(took) >= min_repeats and elapsed + statistics.median(took) > seconds
                or time.perf_counter() >= deadline):
            return results, errors


def end_to_end(results: list, verdicts: list[str]) -> dict:
    """Raw statistics per metric plus `value`, the median at reference
    host speed; the calibration kernel's own statistics under "cal_s"."""
    ok = [r for r, v in zip(results, verdicts) if not v]
    cal = describe([r["cal_s"] for r in ok])
    slow = cal["median"] / REF_CAL_S
    series = {
        "wall_s": ([r["wall_s"] for r in ok], 1 / slow),
        "setup_s": ([r["setup_s"] for r in ok], 1 / slow),
        "events_per_s": ([r["counts"]["events"] / r["run_s"] for r in ok], slow),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in ok], 1.0),
    }
    out = {"cal_s": dict(cal, unit="s", value=cal["median"])}
    for name, unit in END_TO_END:
        values, scale = series[name]
        stats = describe(values)
        out[name] = dict(stats, unit=unit, value=stats["median"] * scale)
    return out


def per_layer(traced: dict, untraced_wall_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced repetition."""
    tr = traced["trace"]
    st = tr["stats"]

    def calls(span):
        return st.get(span, {}).get("calls", 0)

    def total(*spans):
        return sum(st.get(s, {}).get("total_ns", 0) for s in spans) / 1e9

    def own(*spans):
        return sum(st.get(s, {}).get("self_ns", 0) for s in spans) / 1e9

    def share(span, status):
        n = calls(span)
        return st[span]["statuses"].get(status, 0) / n if n else 0.0

    sent = traced["counts"]["packets_sent"]
    m = {
        "scenario.parse_s": (total("scenario.parse_scenario"), "s"),
        "model.build_dag_s": (total("model.build_dag"), "s"),
        "model.scope_matches.calls": (calls("model.scope_matches"), "count"),
        "model.scope_matches.self_s": (own("model.scope_matches"), "s"),
        "compiler.compile_s": (total("compiler.compile_application",
                                     "compiler.assign_state_ids"), "s"),
        "compiler.apply_reduction.calls": (calls("compiler.apply_reduction"), "count"),
        "compiler.apply_reduction.self_s": (own("compiler.apply_reduction"), "s"),
        "embedding.betweenness_s": (total("embedding.weighted_betweenness"), "s"),
        "embedding.place_s": (own("embedding.place_replicas"), "s"),
        "embedding.plan_s": (total("embedding.build_replication_plan"), "s"),
        "embedding.rules_s": (total("embedding.install_rules"), "s"),
        "embedding.tree_edges": (traced["tree_edges"], "count"),
        "replication.read_global.calls": (calls("replication.read_global"), "count"),
        "replication.read_global.self_s": (own("replication.read_global"), "s"),
        "replication.apply_update.calls": (calls("replication.apply_update"), "count"),
        "replication.apply_update.self_s": (own("replication.apply_update"), "s"),
        "replication.apply_update.applied_ratio": (
            share("replication.apply_update", "applied"), "ratio"),
        "replication.local_write.calls": (calls("replication.note_write"), "count"),
        "replication.local_write.self_s": (
            own("replication.write_local", "replication.note_write"), "s"),
        "replication.should_emit.calls": (calls("replication.should_emit"), "count"),
        "replication.emit_ratio": (share("replication.should_emit", "emit"), "ratio"),
        "replication.flood_ports.calls": (calls("replication.flood_ports"), "count"),
        "replication.flood_ports.self_s": (own("replication.flood_ports"), "s"),
        "replication.updates_emitted": (traced["counts"]["updates_emitted"], "count"),
        "apps.estimator.observe.calls": (calls("apps.estimator_observe"), "count"),
        "apps.estimator.observe.self_s": (own("apps.estimator_observe"), "s"),
        "apps.estimator.read.calls": (calls("apps.estimator_read"), "count"),
        "apps.estimator.read.self_s": (own("apps.estimator_read"), "s"),
        "simcore.install_s": (total("simcore.init", "simcore.install_app",
                                    "simcore.add_flow"), "s"),
        "simcore.run_s": (total("simcore.run_until"), "s"),
        "simcore.loop.self_s": (own("simcore.run_until"), "s"),
        "simcore.events": (traced["counts"]["events"], "count"),
        "simcore.link.sends": (calls("simcore.link_send"), "count"),
        "simcore.link.send.self_s": (own("simcore.link_send"), "s"),
        "simcore.link.drop_ratio": (share("simcore.link_send", "drop"), "ratio"),
        "simcore.hops_per_packet": (calls("simcore.link_send") / sent if sent else 0.0,
                                    "sends/packet"),
        "metrics.bin_of.calls": (calls("metrics.bin_of"), "count"),
        "metrics.bin_of.self_s": (own("metrics.bin_of"), "s"),
        "metrics.export_s": (total("metrics.export_metrics"), "s"),
        "metrics.summarize_s": (total("metrics.summarize", "metrics.export_summary"), "s"),
        "metrics.export_bytes": (traced["export_bytes"], "bytes"),
        "trace.overhead_ratio": (traced["wall_s"] / untraced_wall_s, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, tr["absent"]


def run_stamp(name: str, seed: int, results: list) -> dict:
    """Where and on what a result was measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    # Stop git at the checkout so a copy outside any repository says so.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    rev, dirty = "unknown", None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            rev = out.stdout.strip()
            st = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=30)
            dirty = bool(st.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    first = next((r for r in results if r is not None), {})
    return {
        "workload": name, "seed": seed,
        "python": platform.python_version(), "numpy": first.get("numpy", "unknown"),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "git_rev": rev, "git_dirty": dirty,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_table(title: str, rows: dict):
    print(f"== {title}")
    for name, r in rows.items():
        if "median" in r:
            print(f"  {name:<16} {r['unit']:<9} value={r['value']:<11.6g} n={r['n']:<3}"
                  f" raw median={r['median']:.6g}  q1={r['q1']:.6g}  q3={r['q3']:.6g}")
        else:
            print(f"  {name:<42} {r['unit']:<13} {r['value']:.6g}")


def bench_workload(spec, name, seed, seconds, trace, t_end) -> dict:
    """Timed (trace=False) or traced (trace=True) run of one workload."""
    wl = spec["workloads"][name]
    job = {"root": ROOT, "scenario": scenario_path(spec, name, seed),
           "replicas": wl["replicas"], "seed": seed, "t_end": t_end,
           "out": os.path.join(WORK, name, "out"), "trace": False}
    at_reference = seed == spec["default_seed"] and t_end is None
    reference = wl["reference"] if at_reference else None
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    traced = None
    if trace:
        traced, err = run_child(dict(job, trace=True), deadline)
        if traced is not None and not traced["trace"]["closes"]:
            traced, err = None, "traced accounting does not close"
    remaining = seconds - (time.perf_counter() - t_start)
    # A traced run needs untraced repetitions only for the overhead ratio.
    results, errors = timed(job, remaining, 1 if trace else MIN_REPEATS, deadline)
    if trace:
        results.append(traced)
        errors.append(err)
    verdicts = check_outputs(results, reference)
    failed = sum(1 for v in verdicts if v)
    out = {"stamp": run_stamp(name, seed, results), "attempted": len(results),
           "failed": failed, "errors": sorted({e or v for e, v in zip(errors, verdicts)
                                               if e or v})}
    out["error_rate"] = {"value": failed / len(results), "unit": "fraction", "n": len(results)}
    n_timed = len(results) - trace
    if all(verdicts[:n_timed]):
        return out
    out["end_to_end"] = end_to_end(results[:n_timed], verdicts[:n_timed])
    if trace and not verdicts[-1]:
        out["per_layer"], out["absent"] = per_layer(
            traced, out["end_to_end"]["wall_s"]["median"])
        out["spans"] = traced["trace"]["spans"]
    ok = next(r for r, v in zip(results, verdicts) if not v)
    out["counts"], out["digest"] = ok["counts"], ok["digest"]
    return out


def report(name: str, res: dict, trace: bool):
    print(f"# stamp: {json.dumps(res['stamp'])}")
    if "end_to_end" in res:
        print_table(f"{name}: end to end (value = median at reference host speed;"
                    " no higher percentile has 10 samples beyond it)", res["end_to_end"])
    er = res["error_rate"]
    print(f"  {'error_rate':<16} {er['unit']:<9} n={er['n']:<3} value={er['value']:.6g}")
    for e in res["errors"]:
        print(f"  failure: {e}")
    if trace and "per_layer" in res:
        print_table(f"{name}: per layer (one traced repetition)", res["per_layer"])
        for a in res["absent"]:
            print(f"  absent: {a} (not found in repdp; its metrics read 0)")
    if "counts" in res:
        print(f"  counts: {json.dumps(res['counts'])}  digest: {res['digest'][:16]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-end", type=float, default=None,
                    help="override the simulated horizon in seconds")
    ap.add_argument("--record", default=None,
                    help="also write the results and run stamp to this JSON file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repdp", "__init__.py")):
        print(f"error: no repdp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    for n in names:
        if n not in spec["workloads"]:
            print(f"error: unknown workload {n!r}", file=sys.stderr)
            return 2
    seed = spec["default_seed"] if args.seed is None else args.seed

    recorded, metrics = {}, {}
    attempted = failed = 0
    runs = [bool(args.trace)] if args.workload != "all" else [False, True]
    for n in names:
        for trace in runs:
            res = bench_workload(spec, n, seed, args.seconds, trace, args.t_end)
            report(n, res, trace)
            recorded.setdefault(n, {})["traced" if trace else "timed"] = res
            attempted += res["attempted"]
            failed += res["failed"]
            if "end_to_end" not in res:
                print(f"error: every repetition of {n} failed", file=sys.stderr)
                return 1
            rows = res.get("per_layer", {}) if trace else {
                k: {"value": res["end_to_end"][k]["value"], "unit": u}
                for k, u in END_TO_END}
            prefix = f"{n}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in rows.items()})
    if args.record:
        with open(os.path.join(ROOT, args.record), "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

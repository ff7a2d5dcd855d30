"""Build and run simulations from scenario configs.

The runner owns the full deployment pipeline: the application's
apps.APPS record (factory and bindings) -> validation/DAG -> primitive
lowering (each state's wire id is its declaration index) -> replica placement -> distribution
tree and update periods -> simulator wiring (flood sets, stores,
estimators, triggers, and per flow its monitor and the routes toward
its destination switch and monitor). Sweeps run the same scenario at
several replica counts, each under a fresh simulator seeded
identically, and export one CSV directory per count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .apps import APPS
from .compiler import canonical_text, compile_application
from .embedding import (
    EmbeddingConfig,
    build_replication_plan,
    place_replicas,
    serialize_plan,
)
from .errors import (InfeasibleBudget, InsufficientNodes, InvalidParameter, ScenarioError,
                     SimulationError)
from .metrics import MetricsLog, export_metrics, export_summary, summarize
from .model import build_dag, replication_requirements
from .scenario import ScenarioConfig
from .simcore import Simulator


@dataclass
class BuiltSimulation:
    sim: Simulator
    app: object
    program: object
    placement: object
    plan: object
    replicas: int


def pick_monitor(topo, candidates, flows) -> list[str]:
    """Measurement switch of each flow: the candidate minimizing the
    detour ingress -> candidate -> destination, lowest name on ties.
    Candidate m's detour is d_m[ingress] + d_m[destination], read from
    m's own distance row. A flow that names a node the topology lacks
    gets None, and add_flow rejects it."""
    index, at, adj = topo.index, topo.attached_switch, topo.adj
    dists = [topo.dist_row(m) for m in candidates]
    ends = [(index[at(f.src)], index[at(f.dst)]) if f.src in adj and f.dst in adj else None
            for f in flows]
    return [None if e is None else min(zip([d[e[0]] + d[e[1]] for d in dists], candidates))[1]
            for e in ends]


def build_simulation(config: ScenarioConfig, replicas: int | None = None,
                     seed: int | None = None, t_end_s: float | None = None,
                     collect_trace: bool = False,
                     replication: bool | None = None) -> BuiltSimulation:
    """Deploy the scenario: an error a scenario key explains is raised as
    a ScenarioError at that key's line (at its section's header when the
    file leaves the key to its default). A replica count or horizon
    given here is blamed on no line."""
    topo = config.topology
    c = config.replicas if replicas is None else replicas
    if not 1 <= c <= len(topo.switches):
        raise ScenarioError(f"replicas must be in 1..{len(topo.switches)}, got {c}", config.path,
                            config.line("embedding", "replicas") if replicas is None else 0)

    record = APPS[config.app_name]
    # The [application] key each model parameter is read from.
    app_key = {k.param or k.key: k.key for k in record.keys}
    try:
        app = record.make(config.app_params, c)
        observers, egress_maps, forced_monitor = record.bind(config.app_params, topo)
        # build_dag would reject these too, but without the key.
        for trig in app.triggers:
            for name, problem in trig.inconsistency.problems().items():
                raise InvalidParameter(f"trigger {trig.name}: {problem}", app_key.get(name))
    except InvalidParameter as exc:
        raise ScenarioError(str(exc), config.path,
                            config.line("application", exc.key)) from None
    dag = build_dag(app)
    program = compile_application(dag)

    reqs = replication_requirements(dag)
    try:
        placement = place_replicas(topo, EmbeddingConfig(c, config.weights), program, reqs)
    except InsufficientNodes as exc:
        # A state's target hint lies outside the replica set the count
        # and weights chose: blame the count where it was set.
        if replicas is None:
            raise ScenarioError(str(exc), config.path,
                                config.line("embedding", "replicas")) from None
        raise ScenarioError(f"{exc} (replica count overridden to {c})", config.path) from None
    try:
        plan = build_replication_plan(topo, placement, reqs,
                                      config.r_min, config.trigger_mode)
    except InfeasibleBudget as exc:
        if exc.key in ("r_min", "trigger_mode"):
            line = config.line("embedding", exc.key)
        else:
            line = config.line("application", app_key.get(exc.key))
        raise ScenarioError(str(exc), config.path, line) from None
    # A flow's monitor is a replica or the app's forced monitor.
    replica_set = sorted({sw for nodes in placement.nodes.values() for sw in nodes})
    candidates = replica_set if forced_monitor is None else [forced_monitor]

    try:
        sim = Simulator(
            topo,
            seed=config.seed if seed is None else seed,
            t_end_s=config.t_end_s if t_end_s is None else t_end_s,
            metrics_bin_s=config.metrics_bin_s,
            queue_limit=config.queue_limit,
            collect_trace=collect_trace,
        )
    except InvalidParameter as exc:
        if exc.key == "t_end" and t_end_s is not None:
            raise
        raise ScenarioError(str(exc), config.path, config.line("scenario", exc.key)) from None
    # A run without replication installs the plan without its periods.
    replicate = config.replication if replication is None else replication
    sim.install_app(program, placement,
                    plan if replicate else replace(plan, solutions={}),
                    observers, egress_maps)
    sim.plan_text = serialize_plan(placement, plan) + "\n" + canonical_text(program)

    for f, monitor in zip(config.flows, pick_monitor(topo, candidates, config.flows)):
        try:
            sim.add_flow(f.name, f.src, f.dst, f.size_bits, f.syn,
                         f.segments, f.stop_s, monitor)
        except SimulationError as exc:
            sec = f"flow.{f.name}"
            # A flow without a stop runs to t_end: its start is what is
            # out of range.
            key = "start" if exc.key == "stop" and "stop" not in config.lines[sec].at else exc.key
            raise ScenarioError(str(exc), config.path, config.line(sec, key)) from None

    for (t_s, state, value) in config.loads:
        line = config.line("loads", state)
        # A load lies within the file's own horizon, whatever the run's.
        if t_s > config.t_end_s:
            raise ScenarioError(f"load on {state} at {t_s:g} s: past t_end = {config.t_end_s:g} s",
                                config.path, line)
        try:
            sim.schedule_scalar(t_s, state, value)
        except SimulationError as exc:
            raise ScenarioError(str(exc), config.path, line) from None

    return BuiltSimulation(sim, app, program, placement, plan, c)


def run_single(config: ScenarioConfig, out_dir: str | None = None,
               replicas: int | None = None, seed: int | None = None,
               t_end_s: float | None = None, trace_path: str | None = None,
               replication: bool | None = None) -> MetricsLog:
    built = build_simulation(config, replicas=replicas, seed=seed,
                             t_end_s=t_end_s, collect_trace=trace_path is not None,
                             replication=replication)
    return _run_built(built, out_dir, trace_path)


def _run_built(built: BuiltSimulation, out_dir: str | None,
               trace_path: str | None = None) -> MetricsLog:
    log = built.sim.run_until()
    if out_dir is not None:
        export_metrics(log, out_dir)
    if trace_path is not None:
        built.sim.save_trace(trace_path)
    return log


def run_sweep(config: ScenarioConfig, out_dir: str, replica_counts,
              seed: int | None = None, t_end_s: float | None = None) -> dict[str, MetricsLog]:
    """Run the scenario once per replica count, sequentially.

    Every count is built before the first run, so a count that cannot
    be deployed fails before anything is written. Each count gets its
    own subdirectory c<N> with the raw CSV family; a combined
    summary.csv is written at the top level.
    """
    builds = [build_simulation(config, replicas=c, seed=seed, t_end_s=t_end_s)
              for c in replica_counts]
    logs: dict[str, MetricsLog] = {}
    for built in builds:
        label = f"c{built.replicas}"
        logs[label] = _run_built(built, os.path.join(out_dir, label))
    rows = summarize(logs)
    export_summary(rows, os.path.join(out_dir, "summary.csv"))
    return logs

"""Span tracer installed around repdp's layer boundaries.

Each wrapped callable records, per call, a span that nests inside the
span that was open when it was called. Hot spans are folded into
per-name totals as they close (calls, total time, self time, return
statuses) so a run of millions of calls stays small in memory; spans
marked coarse (build, run and export phases) are also kept whole as
(name, start_ns, end_ns, parent). Self time is a span's duration minus
the durations of its direct children. Times are integer nanoseconds
from time.perf_counter_ns, so the accounting closes exactly.

A target that no longer exists (renamed or inlined) is recorded as
absent and skipped, never raised.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One callable to wrap: `owner` is a module path, `attr` may be
    dotted to reach a class attribute (e.g. "LinkDir.send")."""

    span: str
    owner: str
    attr: str
    status: object = None  # result -> status label, or None
    coarse: bool = False


def _send_status(arrival):
    return "drop" if arrival is None else "sent"


def _first(result):
    return result[0]


def _emit_status(fire):
    return "emit" if fire else "skip"


# Where repdp looks a name up through another module, the wrapper goes
# on that module's name (e.g. runner.place_replicas), so the call the
# program actually makes is the one traced.
TARGETS = (
    Target("scenario.parse_scenario", "repdp.scenario", "parse_scenario", coarse=True),
    Target("runner.build_simulation", "repdp.runner", "build_simulation", coarse=True),
    Target("model.build_dag", "repdp.runner", "build_dag", coarse=True),
    Target("model.scope_matches", "repdp.model", "ScopeFilter.matches"),
    Target("compiler.compile_application", "repdp.runner", "compile_application", coarse=True),
    Target("compiler.assign_state_ids", "repdp.runner", "assign_state_ids", coarse=True),
    Target("compiler.apply_reduction", "repdp.replication", "apply_reduction"),
    Target("embedding.place_replicas", "repdp.runner", "place_replicas", coarse=True),
    Target("embedding.weighted_betweenness", "repdp.embedding", "weighted_betweenness",
           coarse=True),
    Target("embedding.build_replication_plan", "repdp.runner", "build_replication_plan",
           coarse=True),
    Target("embedding.install_rules", "repdp.runner", "install_rules", coarse=True),
    Target("simcore.init", "repdp.simcore", "Simulator.__init__", coarse=True),
    Target("simcore.install_app", "repdp.simcore", "Simulator.install_app", coarse=True),
    Target("simcore.add_flow", "repdp.simcore", "Simulator.add_flow"),
    Target("simcore.run_until", "repdp.simcore", "Simulator.run_until", coarse=True),
    Target("simcore.link_send", "repdp.simcore", "LinkDir.send", status=_send_status),
    Target("replication.flood_ports", "repdp.simcore", "flood_ports"),
    Target("replication.read_global", "repdp.replication", "ReplicaStore.read_global"),
    Target("replication.apply_update", "repdp.replication", "ReplicaStore.apply_update",
           status=_first),
    Target("replication.write_local", "repdp.replication", "ReplicaStore.write_local"),
    Target("replication.note_write", "repdp.replication", "ReplicaStore.note_write"),
    Target("replication.should_emit", "repdp.replication", "UpdateTrigger.should_emit",
           status=_emit_status),
    Target("apps.estimator_observe", "repdp.apps", "RateEstimatorWindow.observe"),
    Target("apps.estimator_read", "repdp.apps", "RateEstimatorWindow.read"),
    Target("metrics.bin_of", "repdp.metrics", "MetricsLog.bin_of"),
    Target("metrics.export_metrics", "repdp.metrics", "export_metrics", coarse=True),
    Target("metrics.summarize", "repdp.metrics", "summarize", coarse=True),
    Target("metrics.export_summary", "repdp.metrics", "export_summary", coarse=True),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    statuses: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from every installed wrapper of one process."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.spans: list[tuple[str, int, int, str | None]] = []
        self.absent: list[str] = []
        # Self time summed per root span, to check that accounting closes.
        self.root_self_ns: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child_ns] per open span

    def install(self, targets=TARGETS):
        for tg in targets:
            owner, _, leaf = tg.attr.rpartition(".")
            try:
                obj = importlib.import_module(tg.owner)
                for part in filter(None, owner.split(".")):
                    obj = getattr(obj, part)
                fn = getattr(obj, leaf)
            except (ImportError, AttributeError):
                self.absent.append(tg.span)
                continue
            self.stats[tg.span] = SpanStats()
            setattr(obj, leaf, self._wrap(tg, fn))

    def _wrap(self, tg: Target, fn):
        name = tg.span
        st = self.stats[name]
        stack = self._stack
        spans = self.spans
        root_self = self.root_self_ns
        status = tg.status
        coarse = tg.coarse
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                st.calls += 1
                st.total_ns += dur
                st.self_ns += own
                if stack:
                    stack[-1][1] += dur
                    root = stack[0][0]
                else:
                    root = name
                root_self[root] = root_self.get(root, 0) + own
                if coarse:
                    spans.append((name, t0, t1, stack[-1][0] if stack else None))
            if status is not None:
                key = status(result)
                st.statuses[key] = st.statuses.get(key, 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    def closes(self, root: str) -> bool:
        """True when the self times of every span under `root`, root
        included, add up to the root's own traced duration."""
        st = self.stats.get(root)
        return st is not None and self.root_self_ns.get(root, 0) == st.total_ns

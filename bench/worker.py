"""One benchmark repetition in a fresh interpreter.

Usage: python3 bench/worker.py '<json job>'

The job names the checkout root, the scenario file, the replica count,
the simulator seed, an optional horizon override, the output directory
and whether to trace. The worker times a fixed calibration kernel,
imports repdp from the checkout's src/, runs the same call sequence as
`repdp run` (parse, build, run, export, summarize), times the kernel
again and prints one JSON line with host times, exact simulated counts,
peak RSS and a digest of the exported CSV family.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import sys
import time

# The files export_metrics writes, which byte-identical reruns compare.
CSV_FAMILY = (
    "links.csv", "flows.csv", "flow_totals.csv", "detections.csv",
    "notifications.csv", "staleness.csv", "write_lag.csv",
    "queue_drops.csv", "memory.csv", "counters.csv", "plan.txt",
)
CAL_ITERATIONS = 140_000


def family_digest(out_dir: str) -> tuple[str, int]:
    """sha256 over (name, bytes) of the CSV family, and its total size."""
    h = hashlib.sha256()
    size = 0
    for name in CSV_FAMILY:
        path = os.path.join(out_dir, name)
        h.update(name.encode() + b"\0")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            size += len(data)
            h.update(len(data).to_bytes(8, "big") + data)
        else:
            h.update(b"absent")
    return h.hexdigest(), size


def calibration_s() -> float:
    """Host time of a fixed pure-Python kernel shaped like an event loop
    (heap, slotted objects, dict counters).

    It uses no repdp code and runs with the garbage collector paused, so
    the objects a run leaves alive do not slow it: no change to repdp
    can move it, only the host's speed.
    """

    class Node:
        __slots__ = ("total",)

        def __init__(self):
            self.total = 0

        def bump(self, x):
            self.total += x
            return self.total

    rng = random.Random(1)
    nodes = [Node() for _ in range(64)]
    counts: dict[int, int] = {}
    heap = [(rng.random(), i) for i in range(256)]
    heapq.heapify(heap)
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(CAL_ITERATIONS):
            t, k = heapq.heappop(heap)
            nodes[k & 63].bump(k)
            counts[k & 1023] = counts.get(k & 1023, 0) + 1
            heapq.heappush(heap, (t + 1.0 + (k % 7) * 0.1, k))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_job(job: dict) -> dict:
    # The kernel brackets the repetition, so the mean of its two timings
    # follows the host's speed across the run.
    cal_before = calibration_s()
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import numpy

    import repdp.metrics
    import repdp.runner
    import repdp.scenario

    if not os.path.abspath(repdp.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"repdp imported from {repdp.__file__}, not {src}")

    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out = job["out"]
    shutil.rmtree(out, ignore_errors=True)
    # Module attribute lookups so installed wrappers are the ones called.
    t0 = time.perf_counter()
    config = repdp.scenario.parse_scenario(job["scenario"])
    built = repdp.runner.build_simulation(config, replicas=job["replicas"],
                                          seed=job["seed"], t_end_s=job["t_end"])
    t1 = time.perf_counter()
    log = built.sim.run_until()
    t2 = time.perf_counter()
    repdp.metrics.export_metrics(log, out, switch_names=config.topology.switches)
    rows = repdp.metrics.summarize({config.name: log}, is_switch=config.topology.is_switch)
    repdp.metrics.export_summary(rows, os.path.join(out, "summary.csv"))
    t3 = time.perf_counter()
    cal_s = (cal_before + calibration_s()) / 2

    digest, export_bytes = family_digest(out)
    # Plain ints, whether the log keeps numpy arrays or Python lists.
    sent, delivered, app_drops, queue_drops = (
        [int(x) for x in arr] for arr in (log.flow_sent, log.flow_delivered,
                                          log.flow_app_drops, log.flow_queue_drops))
    res = {
        "cal_s": cal_s,
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "export_s": t3 - t2,
        "wall_s": t3 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest,
        "counts": {
            "events": int(log.events_processed),
            "updates_emitted": int(log.updates_emitted),
            "packets_sent": sum(sent),
            "packets_delivered": sum(delivered),
            "detections": len(log.detections),
        },
        "flow_totals_ok": all(d + a + q <= s for s, d, a, q
                              in zip(sent, delivered, app_drops, queue_drops)),
        "tree_edges": len(built.plan.tree_edges),
        "export_bytes": export_bytes,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        res["trace"] = {
            "stats": {k: {"calls": s.calls, "total_ns": s.total_ns, "self_ns": s.self_ns,
                          "statuses": s.statuses} for k, s in tracer.stats.items()},
            "spans": tracer.spans,
            "absent": tracer.absent,
            "closes": tracer.closes("simcore.run_until"),
        }
    return res


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))

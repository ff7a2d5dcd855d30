"""The shipped scenarios export byte-identical CSV families.

Runs fig7 at one and at four replicas and fig8 exactly as the
benchmark does and compares the CSV-family digest and event count with the reference
values in bench/workloads.json, using the benchmark's own digest.
"""

import importlib.util
import json
import os

import pytest

from repdp import build_simulation, export_metrics, parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

_spec = importlib.util.spec_from_file_location("bench_worker", os.path.join(BENCH, "worker.py"))
bench_worker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_worker)

with open(os.path.join(BENCH, "workloads.json")) as fh:
    WORKLOADS = json.load(fh)


@pytest.mark.parametrize("name", ["ddos-ring-c1", "ddos-ring-c4", "ratelimit-ring"])
def test_shipped_scenario_matches_reference_digest(tmp_path, name):
    wl = WORKLOADS["workloads"][name]
    cfg = parse_scenario(os.path.join(ROOT, wl["scenario"]))
    built = build_simulation(cfg, replicas=wl["replicas"], seed=WORKLOADS["default_seed"])
    log = built.sim.run_until()
    export_metrics(log, str(tmp_path), switch_names=cfg.topology.switches)
    digest, _ = bench_worker.family_digest(str(tmp_path))
    assert log.events_processed == wl["reference"]["counts"]["events"]
    assert digest == wl["reference"]["digest"]

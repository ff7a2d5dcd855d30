"""The shipped scenarios export byte-identical CSV families.

Runs fig7 at one and at four replicas, fig8 and the generated 128-switch
mesh exactly as the benchmark does and compares the CSV-family digest
and event count with the reference values in bench/workloads.json, using
the benchmark's own digest.
"""

import importlib.util
import json
import os

import pytest

from repdp import build_simulation, export_metrics, parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_worker = _load("worker")
bench_meshgen = _load("meshgen")

with open(os.path.join(BENCH, "workloads.json")) as fh:
    WORKLOADS = json.load(fh)


@pytest.mark.parametrize("name", ["ddos-ring-c1", "ddos-ring-c4", "ratelimit-ring",
                                  "ddos-mesh-128"])
def test_shipped_scenario_matches_reference_digest(tmp_path, name):
    wl = WORKLOADS["workloads"][name]
    seed = WORKLOADS["default_seed"]
    if wl["scenario"] is None:
        path = tmp_path / "mesh.scn"
        path.write_text(bench_meshgen.generate(seed))
    else:
        path = os.path.join(ROOT, wl["scenario"])
    cfg = parse_scenario(str(path))
    built = build_simulation(cfg, replicas=wl["replicas"], seed=seed)
    log = built.sim.run_until()
    export_metrics(log, str(tmp_path), switch_names=cfg.topology.switches)
    digest, _ = bench_worker.family_digest(str(tmp_path))
    assert log.events_processed == wl["reference"]["counts"]["events"]
    assert digest == wl["reference"]["digest"]

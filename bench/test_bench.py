"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q bench/test_bench.py

The smoke test runs every workload once at a one-second horizon, timed
and traced, and checks that every metric BENCHMARK.json names is
emitted with its unit.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import meshgen  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(BENCH, "workloads.json")) as fh:
    WORKLOADS = list(json.load(fh)["workloads"])


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", str(trace), "--t-end", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    if trace and workload == "ddos-ring-c1":
        assert res["metrics"]["replication.apply_update.calls"]["value"] == 0
        assert res["metrics"]["replication.updates_emitted"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ddos-ring-c1", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_reports_missing_names_as_absent():
    tracer = Tracer()
    tracer.install([Target("gone", "json", "no_such_function"),
                    Target("gone_method", "json", "JSONDecoder.no_such_method"),
                    Target("gone_module", "no_such_module_here", "f")])
    assert tracer.absent == ["gone", "gone_method", "gone_module"]
    assert tracer.stats == {}


def test_traced_accounting_closes():
    mod = types.ModuleType("bench_tracer_probe")

    def inner(x):
        return sum(range(x))

    def outer(n):
        return [mod.inner(1000) for _ in range(n)]

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        tracer.install([Target("outer", mod.__name__, "outer", coarse=True),
                        Target("inner", mod.__name__, "inner")])
        mod.outer(50)
    finally:
        del sys.modules[mod.__name__]
    assert tracer.stats["inner"].calls == 50
    assert tracer.closes("outer")
    outer_st, inner_st = tracer.stats["outer"], tracer.stats["inner"]
    assert outer_st.self_ns + inner_st.self_ns == outer_st.total_ns
    assert [s[0] for s in tracer.spans] == ["outer"]


@pytest.mark.parametrize("seed", [1, 2, 3, 23, 1_000_003])
def test_mesh_generator_is_seeded_and_feasible(seed, tmp_path):
    text = meshgen.generate(seed)
    assert text == meshgen.generate(seed)
    assert text != meshgen.generate(seed + 1)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repdp import build_simulation, parse_scenario

    path = tmp_path / "mesh.scn"
    path.write_text(text)
    config = parse_scenario(str(path))
    assert len(config.topology.switches) == meshgen.SWITCHES
    assert len(config.flows) == meshgen.SOURCES * meshgen.COLLECTORS
    built = build_simulation(config)  # raises InfeasibleBudget if not
    assert built.replicas == meshgen.REPLICAS


def test_benchmark_json_names_known_workloads_and_layer_metrics():
    with open(os.path.join(BENCH, "workloads.json")) as fh:
        spec = json.load(fh)
    for w in SPEC["workloads"]:
        assert spec["workloads"][w["name"]]["why"] == w["why"]
    mapped = [m for layer in spec["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    for name, wl in spec["workloads"].items():
        assert wl["reference"]["counts"]["events"] > 0, name

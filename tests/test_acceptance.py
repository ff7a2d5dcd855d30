"""Acceptance gate for the shipped experiments.

One test per criterion, named so `pytest -v` prints exactly one
pass/fail line for each. Shared runs (the replica-count sweep and the
rate-limit run) live in module fixtures; assertion messages carry the
measured numbers.
"""

import os
import random
import time

import pytest

from repdp import (
    UPDATE_ETHTYPE,
    InconsistencySpec,
    InfeasibleBudget,
    UpdateHeader,
    build_simulation,
    decode_update,
    encode_update,
    export_metrics,
    parse_scenario,
    run_single,
    solve_replication_period,
    steiner_tree,
    summarize,
    update_frame_bits,
    weighted_betweenness,
)
from repdp import compiler

from helpers import (
    assert_valid_tree,
    brute_betweenness,
    exact_steiner_cost,
    random_switch_topology,
    tree_cost,
)

FIG7 = "scenarios/fig7_ddos_c2.scn"
FIG8 = "scenarios/fig8_ratelimit.scn"


# ---------------------------------------------------------------------------
# Shared runs.


@pytest.fixture(scope="module")
def fig7_cfg():
    return parse_scenario(FIG7)


@pytest.fixture(scope="module")
def sweep(fig7_cfg):
    """Detection scenario at 1, 2, and 4 replicas plus wall times and plans."""
    logs, walls, plans = {}, {}, {}
    for c in (1, 2, 4):
        t0 = time.perf_counter()
        logs[c] = run_single(fig7_cfg, replicas=c)
        walls[c] = time.perf_counter() - t0
        plans[c] = build_simulation(fig7_cfg, replicas=c).plan
    return logs, walls, plans


@pytest.fixture(scope="module")
def fig8():
    cfg = parse_scenario(FIG8)
    return cfg, run_single(cfg)


def core_window_sums(cfg, log):
    """(data_bits, repl_bits) on switch-switch links, steady-state window."""
    core = log.core_rows(cfg.topology.is_switch)
    sl = log.window_slice()
    return (sum(sum(log.data_bits[i][sl]) for i in core),
            sum(sum(log.repl_bits[i][sl]) for i in core))


def staleness_bound_ns(plan):
    """Allowed worst-case staleness: replication period + worst replica
    pair propagation + one inter-arrival at the assumed rate floor."""
    gap = round(1e9 / plan.r_min)
    return max(s.d_r_ns + s.worst_pair_delay_ns for s in plan.solutions.values()) + gap


def max_staleness_ns(log):
    return max((max(st, ra) for (_, _, _, _, st, ra, _) in log.applied), default=0)


# ---------------------------------------------------------------------------
# 1. Coherent distributed detection.


def test_criterion_1_coherent_distributed_detection(fig7_cfg, sweep):
    logs, walls, plans = sweep
    first: dict[str, int] = {}
    for (t, sw, _trig, _v) in logs[2].detections:
        first.setdefault(sw, t)
    assert set(first) == {"sw1", "sw3"}, f"detecting switches: {sorted(first)}"
    assert all(t / 1e9 > 20.0 for t in first.values()), first

    sol = next(iter(plans[2].solutions.values()))
    bound = sol.d_r_ns + sol.worst_pair_delay_ns + round(1e9 / fig7_cfg.r_min)
    diff = abs(first["sw1"] - first["sw3"])
    assert diff <= bound, f"detection skew {diff} ns exceeds {bound} ns"
    assert walls[2] < 10.0, f"run took {walls[2]:.1f} s"
    print(f"criterion 1: PASS (skew {diff / 1e6:.3f} ms <= {bound / 1e6:.0f} ms, "
          f"{walls[2]:.1f} s wall)")


# ---------------------------------------------------------------------------
# 2. Data-traffic reduction from replication.


def test_criterion_2_data_traffic_reduction(fig7_cfg, sweep):
    logs, _, _ = sweep
    d1, _ = core_window_sums(fig7_cfg, logs[1])
    d2, _ = core_window_sums(fig7_cfg, logs[2])
    d4, _ = core_window_sums(fig7_cfg, logs[4])
    ratio = d1 / d2
    further = 1.0 - d4 / d2
    assert 1.4 <= ratio <= 1.8, f"C1/C2 data ratio {ratio:.3f} outside [1.4, 1.8]"
    assert 0.10 <= further <= 0.30, f"C4 reduction {further:.3f} outside [0.10, 0.30]"
    print(f"criterion 2: PASS (ratio {ratio:.3f}, extra C4 reduction {further:.1%})")


# ---------------------------------------------------------------------------
# 3. Replication overhead growth.


def test_criterion_3_replication_overhead_growth(fig7_cfg, sweep):
    logs, _, _ = sweep
    fracs = {}
    for c in (1, 2, 4):
        d, r = core_window_sums(fig7_cfg, logs[c])
        fracs[c] = r / (d + r)
    assert fracs[1] == 0.0, f"C1 replication fraction {fracs[1]:.4f} != 0"
    assert 0.08 <= fracs[2] <= 0.18, f"C2 fraction {fracs[2]:.4f} outside [0.08, 0.18]"
    assert 0.18 <= fracs[4] <= 0.30, f"C4 fraction {fracs[4]:.4f} outside [0.18, 0.30]"
    print(f"criterion 3: PASS (fractions {fracs[1]:.1%} / {fracs[2]:.1%} / {fracs[4]:.1%})")


# ---------------------------------------------------------------------------
# 4. Distributed rate limiting.


def test_criterion_4_distributed_rate_limiting(fig8):
    cfg, log = fig8
    row = summarize({"fig8": log}, is_switch=cfg.topology.is_switch)[0]
    target = cfg.app_params["rate_limit_bps"]
    lo, hi = target * 0.85, target * 1.15
    agg = row.aggregate_throughput_bps
    assert lo <= agg <= hi, f"aggregate {agg / 1e6:.2f} Mb/s outside 8 Mb/s +/- 15%"
    assert row.min_flow_throughput_bps >= 2e6, (
        f"slow flow at {row.min_flow_throughput_bps / 1e6:.2f} Mb/s is starved")
    print(f"criterion 4: PASS (aggregate {agg / 1e6:.2f} Mb/s, "
          f"min flow {row.min_flow_throughput_bps / 1e6:.2f} Mb/s)")


# ---------------------------------------------------------------------------
# 5. Consistency-bound enforcement.

MICRO = """format_version = 1
[scenario]
name = micro
seed = {seed}
t_end = 1
metrics_bin = 0.5
[topology]
switches = s1 s2
links = s1-s2
link_delay = {delay_us}us
[host.a1]
attach = s1
port_class = external
[host.a2]
attach = s1
port_class = downlink
[host.b1]
attach = s2
port_class = external
[host.b2]
attach = s2
port_class = downlink
[application]
name = ddos
threshold = 1000000000
epsilon_t = {eps_us}us
[embedding]
replicas = 2
r_min = {r_min}
[flow.fa]
src = a1
dst = a2
size = 1000
syn = yes
rate = {rate}
[flow.fb]
src = b1
dst = b2
size = 1000
syn = yes
rate = {rate}
"""


def test_criterion_5_consistency_bounds(tmp_path, sweep, fig8):
    # Part one: the period solver honors its defining inequalities on
    # randomized budgets, or proves infeasibility.
    rng = random.Random(0xACCE)
    checked = 0
    for _ in range(100):
        if rng.random() < 0.5:
            spec = InconsistencySpec.time_obsolescence(rng.uniform(0.0005, 0.05))
        else:
            spec = InconsistencySpec.update_error(
                rng.randrange(1, 50), rng.choice([100.0, 625.0, 1000.0, 5000.0]))
        worst = rng.randrange(0, 5_000_000)
        r_min = rng.choice([20.0, 50.0, 100.0, 250.0, 1000.0, 2000.0])
        mode = rng.choice(["time", "packet"])
        budget_ns = round(spec.budget_s() * 1e9)
        gap_ns = round(1e9 / r_min)
        try:
            sol = solve_replication_period(spec, worst, r_min, mode)
        except InfeasibleBudget:
            d_r = budget_ns - worst
            if mode == "time":
                assert d_r <= 0 or d_r < gap_ns, (spec, worst, r_min, mode)
            else:
                assert d_r <= 0 or int(d_r * r_min // 1e9) < 1, (spec, worst, r_min)
            continue
        checked += 1
        assert sol.d_r_ns == budget_ns - worst > 0
        assert sol.d_r_ns + sol.worst_pair_delay_ns <= budget_ns
        if mode == "time":
            assert sol.tau_ns == sol.d_r_ns - gap_ns >= 0
        else:
            p = sol.packet_period
            assert p >= 1
            assert p * 1e9 / r_min <= sol.d_r_ns + 1
    assert checked >= 30, f"only {checked} feasible draws; widen the ranges"

    # Part two: measured staleness stays within d_r + worst pair + one
    # inter-arrival, on micro runs feeding both origins above r_min and
    # on the shipped scenarios.
    rng = random.Random(0x57A1E)
    worst_margin = 1.0
    for i in range(6):
        r_min = rng.choice([50, 100, 200, 400])
        delay_us = rng.randrange(100, 2000)
        eps_us = delay_us + round(1e6 / r_min) + rng.randrange(500, 30_000)
        p = tmp_path / f"micro{i}.scn"
        p.write_text(MICRO.format(seed=i + 1, delay_us=delay_us, eps_us=eps_us,
                                  r_min=r_min, rate=2 * r_min))
        cfg = parse_scenario(str(p))
        built = build_simulation(cfg)
        log = run_single(cfg)
        assert log.applied, "micro run applied no update"
        bound = staleness_bound_ns(built.plan)
        got = max_staleness_ns(log)
        assert got <= bound, (f"micro {i}: staleness {got} ns > bound {bound} ns "
                              f"(eps {eps_us} us, delay {delay_us} us, r_min {r_min})")
        worst_margin = min(worst_margin, got / bound)

    fig7_logs, _, fig7_plans = sweep
    for c in (2, 4):
        bound = staleness_bound_ns(fig7_plans[c])
        got = max_staleness_ns(fig7_logs[c])
        assert got <= bound, f"C={c}: staleness {got} ns > bound {bound} ns"
    cfg8, log8 = fig8
    bound8 = staleness_bound_ns(build_simulation(cfg8).plan)
    got8 = max_staleness_ns(log8)
    assert got8 <= bound8, f"fig8 staleness {got8} ns > bound {bound8} ns"
    print(f"criterion 5: PASS (100 solver draws, 6 micro runs, tightest margin "
          f"{worst_margin:.2f} of bound)")


# ---------------------------------------------------------------------------
# 6. Wire-format conformance.

GOLDEN_STACK_HEX = (
    "df2a851481e202c69cfc6bd107d7d318a08813f78e1a348c88b5"
    "a2caa367738b2f1b6a6eeb042c8ccea63f5f29d13ab8389288b5"
    "67083289df6ee5eaa86f55799161b701eff4fa6822d74d590800"
)


def _random_stack(rng, k):
    return [
        UpdateHeader(rng.randrange(2**32), rng.randrange(2**32),
                     rng.randrange(2**32), rng.randrange(2**32),
                     rng.randrange(2**64))
        for _ in range(k)
    ]


def test_criterion_6_wire_format_conformance():
    rng = random.Random(0xC0DE)
    for trial in range(1000):
        k = rng.randrange(1, 9)
        headers = _random_stack(rng, k)
        inner = rng.choice([0x0800, 0x86DD, 0x0806])
        data = encode_update(headers, inner_type=inner)
        assert len(data) * 8 == 208 * k, (trial, k, len(data))
        back, inner_back = decode_update(data)
        assert inner_back == inner, trial
        payload = lambda h: (h.src_sw_id, h.dst_sw_id, h.state_id,
                             h.replica_id, h.state_value)
        assert [payload(h) for h in back] == [payload(h) for h in headers], trial
        # The encoder owns the protocol chain: every header but the last
        # tags the next as another update header.
        assert all(h.l3_protocol_type == UPDATE_ETHTYPE for h in back[:-1]), trial
        assert back[-1].l3_protocol_type == inner, trial
        assert encode_update(back, inner_type=inner_back) == data, trial
        assert update_frame_bits(k) == max(512, 208 * k)

    golden = _random_stack(random.Random(0xD00D), 3)
    assert encode_update(golden, inner_type=0x0800).hex() == GOLDEN_STACK_HEX
    print("criterion 6: PASS (1000 round-trips, golden stack stable)")


# ---------------------------------------------------------------------------
# 7. Oracle equivalence.


def test_criterion_7_oracle_equivalence():
    # Distribution tree within twice the exact optimum.
    rng = random.Random(0xACC7)
    for trial in range(100):
        n = rng.randrange(4, 9)
        topo = random_switch_topology(rng, n, extra_edges=rng.randrange(0, 4))
        terminals = rng.sample(sorted(topo.switches), rng.randrange(2, min(5, n + 1)))
        tree = steiner_tree(topo, terminals)
        assert_valid_tree(topo, tree, terminals)
        opt = exact_steiner_cost(topo, terminals)
        got = tree_cost(topo, tree)
        assert opt <= got <= 2 * opt, (trial, terminals, got, opt)

    # Betweenness equals exhaustive path enumeration.
    for trial in range(60):
        topo = random_switch_topology(rng, rng.randrange(3, 7),
                                      extra_edges=rng.randrange(0, 3))
        weights = {sw: float(rng.randrange(0, 5)) for sw in topo.switches}
        got = weighted_betweenness(topo, weights)
        want = brute_betweenness(topo, weights)
        for sw in topo.switches:
            assert got[sw] == pytest.approx(want[sw], abs=1e-9), (trial, sw)

    # Path choice equals exhaustive argmin over pairwise maxima.
    for trial in range(1000):
        half = rng.randrange(1, 9)
        vals = [rng.randrange(0, 10_000_000) for _ in range(2 * half)]
        got = compiler.PRIMITIVES["minmax_argmin"](vals)
        best_i, best_s = 0, None
        for i in range(half):
            s = max(vals[i], vals[half + i])
            if best_s is None or s < best_s:
                best_i, best_s = i, s
        assert got == best_i, (trial, vals)
    print("criterion 7: PASS (100 tree graphs, 60 centrality graphs, 1000 vectors)")


# ---------------------------------------------------------------------------
# 8. Memory accounting.


def test_criterion_8_memory_accounting(sweep):
    logs, _, _ = sweep
    per_switch = {}
    for c in (1, 2, 4):
        mem = logs[c].replica_memory
        assert len(mem) == c, f"C={c}: {len(mem)} replica switches reported"
        assert set(mem.values()) == {32 * (c + 1)}, f"C={c}: {mem}"
        per_switch[c] = 32 * (c + 1)
    print(f"criterion 8: PASS (bits per switch {per_switch})")


# ---------------------------------------------------------------------------
# 9. Determinism.


def test_criterion_9_byte_identical_reruns(tmp_path):
    cfg = parse_scenario(FIG8)
    dirs = []
    for i in (0, 1):
        d = tmp_path / f"run{i}"
        export_metrics(run_single(cfg), str(d), switch_names=cfg.topology.switches)
        dirs.append(d)
    names0 = sorted(os.listdir(dirs[0]))
    assert names0 == sorted(os.listdir(dirs[1]))
    assert "links.csv" in names0
    for name in names0:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    print(f"criterion 9: PASS ({len(names0)} files byte-identical)")

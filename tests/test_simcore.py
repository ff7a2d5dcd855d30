"""Event engine behaviour: links, queues, flows, pipelines, applications."""

import collections
import csv
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from repdp import (
    ActionKind,
    ActivitySpec,
    ApplicationSpec,
    EmbeddingConfig,
    InconsistencySpec,
    InvalidParameter,
    Link,
    Predicate,
    ReductionKind,
    ReductionSpec,
    ScenarioError,
    ScopeFilter,
    SimulationError,
    Simulator,
    StateSpec,
    Topology,
    TriggerSpec,
    UpdateHeader,
    ValueKind,
    build_dag,
    build_replication_plan,
    build_simulation,
    compile_application,
    export_metrics,
    parse_scenario,
    place_replicas,
    replication_requirements,
    update_frame_bits,
)
from repdp import replication, simcore
from repdp.simcore import Packet

from helpers import GENERATED_APPS, mesh_config, random_scenario
from reference import (
    DequeLink,
    ReferenceSimulator,
    build_reference,
    counting,
    exported_family,
)

MS = 1_000_000
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "scenarios")
FIG7 = os.path.join(SCENARIOS, "fig7_ddos_c2.scn")
FIG8 = os.path.join(SCENARIOS, "fig8_ratelimit.scn")


def line_topo(capacity_bps=1_000_000, delay_ns=MS):
    links = [
        Link("hA", "sw", delay_ns, capacity_bps),
        Link("sw", "hB", delay_ns, capacity_bps),
    ]
    return Topology(("sw",), ("hA", "hB"), links)


def fwd_events(sim):
    out = []
    for line in sim.trace:
        m = re.match(r"(\d+) fwd (\S+) uid=(-?\d+) out=(\S+)", line)
        if m:
            out.append((int(m.group(1)), m.group(2), int(m.group(3)), m.group(4)))
    return out


def write_scenario(tmp_path, text, name="mini.scn"):
    p = tmp_path / name
    p.write_text(text)
    return parse_scenario(str(p))


# ---------------------------------------------------------------------------
# Link timing and queueing.


def test_store_and_forward_timing():
    # 1000 bits at 1 Mb/s is 1 ms serialization; plus 1 ms propagation
    # the packet reaches the switch at exactly 2 ms.
    sim = Simulator(line_topo(), t_end_s=1.0, collect_trace=True)
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 1.0)], stop_s=0.5)
    log = sim.run_until()
    assert fwd_events(sim) == [(2 * MS, "sw", 0, "hB")]
    assert log.flow_sent[0] == 1
    assert log.flow_delivered[0] == 1


def test_serialization_queues_back_to_back_packets():
    sim = Simulator(line_topo(), t_end_s=1.0, collect_trace=True)
    # Two packets 1 us apart share a 1 ms serialization pipe.
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 1_000_000.0)], stop_s=1.5e-6)
    sim.run_until()
    times = [t for t, _, _, _ in fwd_events(sim)]
    # The second packet waits out the first's serialization: it departs
    # at 2 ms, not 1 us after its own enqueue.
    assert times == [2 * MS, 3 * MS]


def test_queue_overflow_drops_excess():
    sim = Simulator(line_topo(), t_end_s=1.0, queue_limit=5, collect_trace=True)
    # Twelve packets 1 us apart; five fit the egress queue while the
    # first still serializes, the rest are dropped at the host uplink.
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 1_000_000.0)], stop_s=11.5e-6)
    log = sim.run_until()
    assert log.flow_sent[0] == 12
    assert log.flow_queue_drops[0] == 7
    assert log.flow_delivered[0] == 5
    assert sum(log.queue_drops) == 7
    assert sum(" drop_queue hA " in line for line in sim.trace) == 7


# Capacities in bit/s: 1 Mb/s and 10 Mb/s serialize, and 10 Tb/s turns
# every frame below 10,000 bits into a zero-length serialization.
@pytest.mark.parametrize("capacity_bps", (1_000_000, 10_000_000, 10**13))
@pytest.mark.parametrize("queue_limit", range(1, 9))
def test_link_admission_matches_the_deque_model(queue_limit, capacity_bps):
    rng = random.Random(f"{queue_limit}/{capacity_bps}")
    sim = Simulator(line_topo(capacity_bps=capacity_bps), t_end_s=1.0,
                    queue_limit=queue_limit)
    sim._build_log()
    link = sim._host_out["hA"]
    ref = DequeLink(link.delay_ns, capacity_bps, queue_limit)
    sizes = (512, 12_000, 513, 1_001, 4_097, 9_999)
    t = 0
    got, want = [], []
    while len(want) < 400:
        step = rng.randrange(3)
        if step == 0 and ref.backlog:
            # Exactly when the oldest queued packet departs.
            t = max(t, ref.backlog[0])
        elif step == 1:
            t += rng.choice((1, 37, 512, 4_096, 100_000, 3_000_000))
        # A burst at one timestamp, longer than any queue here.
        for _ in range(rng.choice((1, 1, 2, 10))):
            size = rng.choice(sizes)
            pkt = Packet(len(want), -1, "hB", size)
            got.append(sim._send(link, pkt, t))
            want.append(ref.send(size, t))
    assert got == want
    assert None in want or capacity_bps == 10**13
    assert sum(x is None for x in got) == sim.log.queue_drops[link.row]


@pytest.mark.parametrize("queue_limit", [0, -3])
def test_queue_limit_below_one_is_rejected(queue_limit):
    with pytest.raises(InvalidParameter):
        Simulator(line_topo(), t_end_s=1.0, queue_limit=queue_limit)


@pytest.mark.parametrize("t_end_s", [float("nan"), float("inf"), -1.0, 0.0, 1e-10])
def test_horizon_must_be_finite_and_at_least_1ns(t_end_s):
    with pytest.raises(InvalidParameter, match="t_end"):
        Simulator(line_topo(), t_end_s=t_end_s)


@pytest.mark.parametrize("bin_s", [float("nan"), float("inf"), -1.0, 0.0, 1e-12])
def test_metrics_bin_must_be_finite_and_at_least_1ns(bin_s):
    # Checked where the simulator is built, not at the first run_until.
    with pytest.raises(InvalidParameter, match="metrics bin"):
        Simulator(line_topo(), metrics_bin_s=bin_s)


@pytest.mark.parametrize("t_s", [float("nan"), float("inf"), float("-inf")])
def test_run_until_rejects_a_non_finite_time(t_s):
    sim = Simulator(line_topo(), t_end_s=1.0)
    with pytest.raises(InvalidParameter):
        sim.run_until(t_s)


def test_duplicate_flow_name_is_rejected():
    sim = Simulator(line_topo(), t_end_s=1.0)
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 10.0)], stop_s=0.5)
    with pytest.raises(SimulationError, match="already in use"):
        sim.add_flow("f", "hB", "hA", 1000, False, [(0.0, 10.0)], stop_s=0.5)
    log = sim.run_until()
    assert log.flow_names == ["f"]
    assert log.flow_sent == log.flow_delivered == [5]


def test_sent_equals_delivered_plus_drops():
    sim = Simulator(line_topo(), t_end_s=2.0, queue_limit=5)
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 1_000_000.0)], stop_s=11.5e-6)
    sim.add_flow("g", "hB", "hA", 600, False, [(0.1, 40.0)], stop_s=1.0)
    log = sim.run_until()
    for row in range(2):
        assert log.flow_sent[row] == (
            log.flow_delivered[row]
            + log.flow_queue_drops[row]
            + log.flow_app_drops[row]
        )


def test_emission_count_is_exact():
    sim = Simulator(line_topo(capacity_bps=1_000_000_000), t_end_s=12.0)
    sim.add_flow("steady", "hA", "hB", 1000, False, [(0.0, 100.0)], stop_s=10.0)
    sim.add_flow("stepped", "hB", "hA", 1000, False, [(0.0, 100.0), (5.0, 200.0)], stop_s=10.0)
    log = sim.run_until()
    assert log.flow_sent[0] == 1000
    assert log.flow_sent[1] == 500 + 1000
    assert log.flow_delivered[0] == 1000
    assert log.flow_delivered[1] == 1500


def test_flow_validation_errors():
    sim = Simulator(line_topo(), t_end_s=1.0)
    with pytest.raises(SimulationError):
        sim.add_flow("f", "hA", "hB", 256, False, [(0.0, 1.0)], stop_s=0.5)
    with pytest.raises(SimulationError):
        sim.add_flow("f", "ghost", "hB", 1000, False, [(0.0, 1.0)], stop_s=0.5)
    with pytest.raises(SimulationError):
        sim.add_flow("f", "hA", "ghost", 1000, False, [(0.0, 1.0)], stop_s=0.5)
    with pytest.raises(SimulationError):
        sim.add_flow("f", "hA", "hB", 1000, False, [(0.5, 1.0), (0.5, 2.0)], stop_s=1.0)
    with pytest.raises(SimulationError):
        sim.add_flow("f", "hA", "hB", 1000, False, [(0.5, 1.0)], stop_s=0.5)
    sim.run_until()
    with pytest.raises(SimulationError):
        sim.add_flow("late", "hA", "hB", 1000, False, [(0.0, 1.0)], stop_s=0.5)


@pytest.mark.parametrize("segments, stop_s", [
    ([(-1.0, 10.0)], 0.5),
    ([(0.0, 10.0), (-0.5, 5.0)], 0.5),
    ([(math.nan, 10.0)], 0.5),
    ([(math.inf, 10.0)], 0.5),
    ([(0.0, 10.0)], math.nan),
    ([(0.0, 10.0)], math.inf),
    # Each of these sent one packet; an infinite rate never let the
    # clock leave the segment's start.
    ([(0.0, -5.0)], 0.5),
    ([(0.0, math.nan)], 0.5),
    ([(0.0, 10.0), (0.2, math.inf)], 0.5),
])
def test_flow_times_and_rates_must_be_finite_and_not_negative(segments, stop_s):
    sim = Simulator(line_topo(), t_end_s=1.0)
    with pytest.raises(SimulationError, match="finite and not negative"):
        sim.add_flow("f", "hA", "hB", 1000, False, segments, stop_s)
    assert sim.flows == [] and sim.run_until().events_processed == 0


@pytest.mark.parametrize("change, key", [
    ({"src": "ghost"}, "src"),
    ({"dst": "sw"}, "dst"),
    ({"size_bits": 511}, "size"),
    ({"segments": []}, "rate"),
    ({"segments": [(-1.0, 10.0)]}, "start"),
    ({"stop_s": math.inf}, "stop"),
    ({"stop_s": 1e-10}, "stop"),
    ({"segments": [(0.0, -10.0)]}, "rate"),
    ({"segments": [(0.0, 10.0), (1e-10, 20.0)]}, "rate"),
    ({"segments": [(0.0, 10.0), (0.5, 20.0)]}, "rate"),
], ids=["src", "dst_is_a_switch", "size", "no_rate", "start", "stop_infinite", "stop_at_start_ns",
        "rate_negative", "step_at_start_ns", "step_at_stop"])
def test_flow_errors_name_their_scenario_key(change, key):
    sim = Simulator(line_topo(), t_end_s=1.0)
    flow = {"src": "hA", "dst": "hB", "size_bits": 1000, "syn": False,
            "segments": [(0.0, 10.0)], "stop_s": 0.5, **change}
    with pytest.raises(SimulationError) as exc:
        sim.add_flow("f", **flow)
    assert exc.value.key == key, str(exc.value)
    assert sim.flows == []


def test_scheduled_loads_need_a_time_and_an_owner(tmp_path):
    built = build_simulation(write_scenario(tmp_path, RESOURCE_LB), t_end_s=2.0)
    sim, origin = built.sim, built.placement.origin["srv_load_0"]
    for t_s in (-1.0, math.nan, math.inf):
        with pytest.raises(SimulationError, match="finite and not in the past"):
            sim.schedule_scalar(t_s, "srv_load_0", 5)
    # mean_load is a reduction output: it has a register but is no state.
    for state in ("ghost", "mean_load"):
        with pytest.raises(SimulationError, match=f"{state} is no state"):
            sim.schedule_scalar(0.5, state, 5)
    sim.run_until(1.0)
    # The run stands at 1 s: a load 1 ns before it is in the past.
    assert sim.t_now == 1_000_000_000
    for t_s in (0.5, 0.999999999):
        with pytest.raises(SimulationError, match="not in the past"):
            sim.schedule_scalar(t_s, "srv_load_0", 5)
    sim.schedule_scalar(1.0, "srv_load_0", 5)
    sid = built.program.registers["srv_load_0"]
    sim.run_until(1.0)
    assert sim.switch_rt[origin].store.regs[sid] == 5
    sim.run_until()


def test_scalar_writes_must_fit_the_state_width(tmp_path):
    # A -5 once read -5 at the origin and 2**64 - 5 at its replica.
    text = (RESOURCE_LB.replace("replicas = 1", "replicas = 2")
            .replace("r_min = 50", "r_min = 200").replace("rate = 50", "rate = 200"))
    built = build_simulation(write_scenario(tmp_path, text), t_end_s=2.0)
    sim, origin = built.sim, built.placement.origin["srv_load_0"]
    hosts = built.placement.nodes["srv_load_0"]
    assert len(hosts) == 2
    # 5.7 was once written as 5.
    for value in (-5, 1 << 32, 5.7):
        with pytest.raises(SimulationError, match="does not fit 32 bits"):
            sim.schedule_scalar(0.5, "srv_load_0", value)
    sim.schedule_scalar(1.5, "srv_load_0", (1 << 32) - 1)
    sim.run_until()
    sid = built.program.registers["srv_load_0"]
    assert {sim.switch_rt[sw].store.regs[sid] for sw in hosts} == {(1 << 32) - 1}


def test_run_until_stays_inside_horizon():
    sim = Simulator(line_topo(), t_end_s=1.0)
    with pytest.raises(SimulationError):
        sim.run_until(2.0)


@pytest.mark.parametrize("cls", [Simulator, ReferenceSimulator])
def test_run_until_leaves_the_run_standing_at_its_bound(cls):
    # Packets leave hA every 10 ms, so no stop but 0 and the horizon
    # falls on an event; the run stands at each stop all the same, and
    # cannot step back.
    sim = cls(line_topo(), t_end_s=1.0)
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 100.0)], stop_s=1.0)
    for stop in (0.0, 0.0123, 0.4567, 0.4567):
        sim.run_until(stop)
        assert sim.t_now == round(stop * 1e9)
    with pytest.raises(SimulationError, match="not between now, 456700000 ns,"):
        sim.run_until(0.4)
    assert sim.t_now == 456_700_000
    sim.run_until()
    assert sim.t_now == sim.t_end_ns


def test_event_pushed_into_the_past_is_rejected():
    sim = Simulator(line_topo(), t_end_s=1.0)
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 10.0)], stop_s=1.0)
    sim.run_until(0.5)
    sim._schedule(1, sim._notify, ("sw", "late"))
    with pytest.raises(SimulationError, match="went backwards"):
        sim.run_until()


def test_events_at_one_time_run_in_push_order():
    # Pushes interleaved over two times run, per time, in push order. An
    # event pushed at the running time runs after the rest of that
    # time's events, and a stop between two times keeps the later whole.
    runs = []
    for cls in (Simulator, ReferenceSimulator):
        sim = cls(line_topo(), t_end_s=1.0)
        order = []
        then = {"b": [(0, "b1")], "c": [(0, "c1"), (1, "c2")]}

        def handler(label, t, sim=sim, order=order):
            order.append((t, label))
            for dt, later in then.get(label, ()):
                sim._schedule(t + dt, handler, later)

        for t, label in ((2, "a"), (1, "b"), (2, "c"), (1, "d"), (2, "e")):
            sim._schedule(t, handler, label)
        sim.run_until(1e-9)
        stopped = list(order)
        sim._schedule(2, handler, "f")
        log = sim.run_until()
        runs.append((stopped, order, log.events_processed))
    assert runs[0] == runs[1]
    stopped, order, events = runs[0]
    assert stopped == [(1, "b"), (1, "d"), (1, "b1")]
    assert order == [*stopped, (2, "a"), (2, "c"), (2, "e"), (2, "f"), (2, "c1"), (3, "c2")]
    assert events == len(order)


class Boom(Exception):
    pass


@pytest.mark.parametrize("push_at_raise", [False, True])
def test_a_handler_that_raises_mid_slot_leaves_the_rest_queued(tmp_path, push_at_raise):
    # At 50 ms the flow starts, and its first packet, counted at its
    # host at 54 ms when its link admits it, is sent. Then a handler
    # raises between two notifications, having pushed one more at its
    # time or not. What follows it at that time stays queued, ahead of
    # that push, as on the heap, and the resumed run exports what the
    # reference does under the same raise.
    runs = []
    for cls in (Simulator, ReferenceSimulator):
        sim = cls(line_topo(), t_end_s=1.0)
        sim.add_flow("f", "hA", "hB", 1000, False, [(0.05, 100.0)], stop_s=1.0)

        def boom(_, t, sim=sim):
            if push_at_raise:
                sim._schedule(t, sim._notify, ("sw", "pushed"))
            raise Boom

        for kind, payload in ((sim._notify, ("sw", "before")), (boom, None),
                              (sim._notify, ("sw", "after"))):
            sim._schedule(50 * MS, kind, payload)
        with pytest.raises(Boom):
            sim.run_until()
        assert sim.t_now == 50 * MS
        log = sim.run_until()
        runs.append((log.notifications, exported_family(sim, log, tmp_path / cls.__name__)))
    assert runs[0] == runs[1]
    assert runs[0][0] == [(50 * MS, "sw", m) for m in ("before", "after", "pushed")
                          if push_at_raise or m != "pushed"]
    assert sum(log.flow_delivered) == 95


def test_save_trace_needs_trace_collection(tmp_path):
    sim = Simulator(line_topo(), t_end_s=1.0)
    sim.run_until()
    with pytest.raises(SimulationError, match="without trace collection"):
        sim.save_trace(str(tmp_path / "trace.txt"))
    assert not (tmp_path / "trace.txt").exists()


def test_zero_rate_segment_only_emits_at_its_start():
    sim = Simulator(line_topo(capacity_bps=1_000_000_000), t_end_s=6.0)
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 100.0), (2.0, 0.0), (4.0, 100.0)],
                 stop_s=5.0)
    # A zero-rate last segment, too, sends only at its start.
    sim.add_flow("g", "hA", "hB", 1000, False, [(0.0, 100.0), (2.0, 0.0)], stop_s=5.0)
    log = sim.run_until()
    assert log.flow_sent == [200 + 1 + 100, 200 + 1]


def test_send_at_the_horizon_counts_in_the_last_bin():
    # Two 0.5 s bins: a send at exactly t_end = 1 s indexes bin 2, one
    # past the end, and is folded into bin 1.
    sim = Simulator(line_topo(), t_end_s=1.0, metrics_bin_s=0.5)
    sim.add_flow("f", "hA", "hB", 1000, False, [(1.0, 1.0)], stop_s=2.0)
    log = sim.run_until()
    row = log.link_index[("hA", "sw")]
    assert log.data_bits[row][:log.n_bins] == [0, 1000]
    assert sum(map(sum, log.data_bits)) == 1000
    assert log.flow_sent[0] == 1


def test_run_returns_int_lists():
    sim = Simulator(line_topo(), t_end_s=1.0, metrics_bin_s=0.25)
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 10.0)], stop_s=0.5)
    for log in (sim.run_until(0.3), sim.run_until()):
        # A binned row holds the four bins and the horizon slot, which
        # reads 0 between runs.
        for name, n_rows in (("data_bits", 4), ("repl_bits", 4), ("flow_bits", 1)):
            rows = getattr(log, name)
            assert isinstance(rows, list) and len(rows) == n_rows, name
            for row in rows:
                assert isinstance(row, list) and len(row) == log.n_bins + 1 == 5, name
                assert all(type(x) is int for x in row) and row[-1] == 0, name
        for name, n in (("queue_drops", 4), ("flow_sent", 1), ("flow_delivered", 1),
                        ("flow_app_drops", 1), ("flow_queue_drops", 1)):
            counts = getattr(log, name)
            assert isinstance(counts, list) and len(counts) == n, name
            assert all(type(x) is int for x in counts), name
    assert log.flow_sent[0] == log.flow_delivered[0] == 5


# One short run in a fresh interpreter: other tests here call run_until
# often enough to have it specialized anyway.
SPECIALIZED_AFTER_ONE_CALL = """
import dis, sys
from repdp import Simulator, build_simulation, parse_scenario
build_simulation(parse_scenario(sys.argv[1]), t_end_s=0.2).sim.run_until()
adaptive = [i.opname for i in dis.get_instructions(Simulator.run_until, adaptive=True)]
plain = [i.opname for i in dis.get_instructions(Simulator.run_until)]
print(sum(a != p for a, p in zip(adaptive, plain)))
"""


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython has no specializing interpreter before 3.11")
def test_run_until_is_specialized_on_its_first_call():
    # The whole run is one run_until call; its loop only warms up if its
    # back edge is an unconditional jump.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", SPECIALIZED_AFTER_ONE_CALL, FIG8],
                         env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) > 0


def install(sim, app, **maps):
    """Compile `app` and install it on `sim`, one replica per state."""
    dag = build_dag(app)
    program = compile_application(dag)
    req = replication_requirements(dag)
    placement = place_replicas(sim.topo, EmbeddingConfig(1), program, req)
    plan = build_replication_plan(sim.topo, placement, req, 100.0)
    sim.install_app(program, placement, plan, **maps)


def test_change_triggers_run_after_a_scalar_write_and_an_egress_feed():
    states = (StateSpec("load", ScopeFilter(), ValueKind.scalar()),
              StateSpec("rate", ScopeFilter(), ValueKind.rate_estimate()))
    watch = tuple(TriggerSpec(f"by_{s.name}", s.name, Predicate.greater_than(limit),
                              InconsistencySpec.none(), "alert")
                  for s, limit in zip(states, (5, 50)))
    alert = ActivitySpec("alert", ActionKind.NOTIFY_CONTROLLER, message="hit")
    sim = Simulator(line_topo(capacity_bps=1_000_000_000), t_end_s=2.0, collect_trace=True)
    install(sim, ApplicationSpec("watch", states, (), watch, (alert,)),
            egress_observers={"rate": "hB"})
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 100.0)], stop_s=2.0)
    sim.run_until(1.0)
    sim.schedule_scalar(sim.t_now / 1e9, "load", 10)
    log = sim.run_until()
    by_rate, by_load = log.detections
    # The write fires its trigger at once; the rate crosses 50 packets/s
    # as a packet is forwarded to the observed port.
    assert by_load == (1_000_000_000, "sw", "by_load", 10)
    assert by_rate[1:3] == ("sw", "by_rate")
    assert f"{by_rate[0]} fwd sw uid=50 out=hB" in sim.trace


def test_a_load_before_the_run_runs_change_triggers_at_its_time():
    # The load's change triggers log into the run, at the load's time.
    load = StateSpec("load", ScopeFilter(), ValueKind.scalar())
    watch = TriggerSpec("by_load", "load", Predicate.greater_than(5),
                        InconsistencySpec.none(), "alert")
    alert = ActivitySpec("alert", ActionKind.NOTIFY_CONTROLLER, message="hit")
    sim = Simulator(line_topo(), t_end_s=1.0)
    install(sim, ApplicationSpec("watch", (load,), (), (watch,), (alert,)))
    sim.schedule_scalar(0.0, "load", 10)
    assert sim.run_until().detections == [(0, "sw", "by_load", 10)]


def test_a_load_at_now_exports_what_the_same_declared_load_does(tmp_path):
    # RESOURCE_LB declares srv_load_0 = 90 at 1 s. Written instead at
    # t_now between two run_until calls, it lands at the same time.
    declared = build_simulation(write_scenario(tmp_path, RESOURCE_LB), collect_trace=True)
    text = RESOURCE_LB.replace("srv_load_0 = 0:10 1.0:90", "srv_load_0 = 0:10")
    sim = build_simulation(write_scenario(tmp_path, text, "late.scn"), collect_trace=True).sim
    sim.run_until(1.0)
    sim.schedule_scalar(sim.t_now / 1e9, "srv_load_0", 90)
    got = exported_family(sim, sim.run_until(), tmp_path / "late")
    want = exported_family(declared.sim, declared.sim.run_until(), tmp_path / "declared")
    assert got == want
    assert len(got) > 3 and "trace.txt" in got


def test_rate_estimate_states_take_no_scalar_writes():
    # A write would land in the register the estimator's reading
    # overrides, and still count in the write lag of later updates.
    built = build_simulation(parse_scenario(FIG7), t_end_s=0.5)
    sim, origin = built.sim, built.placement.origin["syn_rate_0"]
    sid = built.program.registers["syn_rate_0"]
    store = sim.switch_rt[origin].store
    sim.run_until(0.2)
    before = store.writes[sid], store.local_value(sid, sim.t_now)
    with pytest.raises(SimulationError, match="syn_rate_0 is a rate-estimate state"):
        sim.schedule_scalar(0.3, "syn_rate_0", 12345)
    # Read at 0.2 s, where the run stands.
    assert (store.writes[sid], store.local_value(sid, sim.t_now)) == before == (54, 67)


@pytest.mark.parametrize("fed_on", ["ingress", "egress"])
def test_a_change_trigger_sees_a_bucket_close_on_the_first_ns_of_its_tick(fed_on):
    sim = Simulator(line_topo(capacity_bps=1_000_000_000), t_end_s=0.3)
    egress = fed_on == "egress"
    install(sim, WATCH, egress_observers={"rate": "hB"} if egress else None)
    # From 0.1 s on a packet reaches sw every 1 ms, so one lands on each
    # multiple of the estimator's 100 ms delta.
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.098999, 1000.0)], stop_s=0.3,
                 monitor=None if egress else "sw")
    log = sim.run_until()
    # The bucket that closes at 0.2 s holds 100 packets: 125 a second.
    assert log.detections == [(200_000_000, "sw", "by_rate", 125)]


def three_switch_line():
    """hA - sw1 - sw2 - sw3 - hB, with nothing installed."""
    links = [Link("hA", "sw1", MS, 1_000_000), Link("sw1", "sw2", MS, 1_000_000),
             Link("sw2", "sw3", MS, 1_000_000), Link("sw3", "hB", MS, 1_000_000)]
    return Simulator(Topology(("sw1", "sw2", "sw3"), ("hA", "hB"), links), t_end_s=1.0)


def rate_app(activity):
    """A rate over every packet, read by one trigger that fires above 50
    and runs `activity`."""
    state = StateSpec("rate", ScopeFilter(), ValueKind.rate_estimate())
    trig = TriggerSpec("by_rate", "rate", Predicate.greater_than(50),
                       InconsistencySpec.none(), activity.name)
    return ApplicationSpec("watch", (state,), (), (trig,), (activity,))


WATCH = rate_app(ActivitySpec("alert", ActionKind.NOTIFY_CONTROLLER, message="hit"))


def assert_nothing_installed(sim):
    for rt in sim.switch_rt.values():
        assert rt.store is None and not (rt.monitors or rt.egress_monitors), rt.name
        assert not (rt.packet_triggers or rt.change_triggers or rt.own_updates), rt.name
        assert rt.flood == {} and rt.rng is None, rt.name


def test_add_flow_rejects_a_monitor_that_is_no_switch():
    sim = three_switch_line()
    install(sim, WATCH)
    for monitor in ("ghost", "hB"):
        with pytest.raises(SimulationError, match=f"flow f: monitor {monitor} is not a switch"):
            sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 10.0)], stop_s=0.5,
                         monitor=monitor)
    # Any switch will do: the first flow that names one routes every
    # switch toward it.
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 10.0)], stop_s=0.5, monitor="sw2")
    sim.add_flow("g", "hA", "hB", 1000, False, [(0.0, 10.0)], stop_s=0.5, monitor="sw3")
    assert sim.switch_rt["sw3"].route["sw2"].dst == "sw2"
    assert sim.run_until().flow_delivered == [5, 5]


def test_egress_observer_must_neighbor_the_state_origin():
    # hB hangs off sw3, but the state lives on sw1, the one replica. The
    # failed install writes nothing, so the corrected one then succeeds.
    sim = three_switch_line()
    with pytest.raises(SimulationError,
                       match="state rate: egress observer hB is no neighbor of its origin sw1"):
        install(sim, WATCH, egress_observers={"rate": "hB"})
    assert_nothing_installed(sim)
    install(sim, WATCH, egress_observers={"rate": "sw2"})
    sw1 = sim.switch_rt["sw1"]
    # The monitor feeds rate, WATCH's one state (wire id 0).
    assert [m.sid for m in sw1.egress_monitors[sw1.ports["sw2"]]] == [0]


def test_an_egress_map_port_off_its_switch_installs_nothing():
    # The egress map's port sw3 does not neighbor sw1, the one replica.
    steer = rate_app(ActivitySpec("pick", ActionKind.SET_EGRESS, selector_const=1))
    sim = three_switch_line()
    with pytest.raises(SimulationError,
                       match="^activity pick: egress map port sw3 is no neighbor of sw1$"):
        install(sim, steer, egress_maps={"pick": {"sw1": ["hA", "sw3"]}})
    assert_nothing_installed(sim)
    install(sim, steer, egress_maps={"pick": {"sw1": ["hA", "sw2"]}})
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 100.0)], stop_s=1.0, monitor="sw1")
    assert sim.run_until().flow_delivered == [100]


@pytest.mark.parametrize("edge", [("c1", "sw4"), ("sw1", "sw3"), ("nosuch", "sw1")],
                         ids=["to_a_host", "unlinked", "no_node"])
def test_a_tree_edge_that_is_no_switch_link_installs_nothing(edge):
    # c1 is a host on sw4, which would flood updates to it; the ring
    # does not link sw1 to sw3; nosuch names nothing.
    built = build_simulation(parse_scenario(FIG7), replicas=2, t_end_s=1.0)
    sim = Simulator(built.sim.topo, t_end_s=1.0)
    plan = replace(built.plan, tree_edges=built.plan.tree_edges | {edge})
    with pytest.raises(SimulationError,
                       match=f"^tree edge {edge[0]}-{edge[1]} is no link between two switches$"):
        sim.install_app(built.program, built.placement, plan)
    assert_nothing_installed(sim)
    # The plan's own tree, sw1-sw2-sw3, installs.
    sim.install_app(built.program, built.placement, built.plan)
    assert {sw: [ld.dst for ld in rt.flood[None]] for sw, rt in sim.switch_rt.items()} \
        == {"sw1": ["sw2"], "sw2": ["sw1", "sw3"], "sw3": ["sw2"], "sw4": []}


def test_an_estimator_slot_below_1ns_installs_nothing():
    # validate_application rejects such a slot, so only a program
    # altered after it compiled reaches install_app with one.
    built = build_simulation(parse_scenario(FIG7), replicas=2, t_end_s=1.0)
    sim = Simulator(built.sim.topo, t_end_s=1.0)
    states = tuple(replace(s, value=replace(s.value, delta_s=1e-10))
                   for s in built.program.states)
    with pytest.raises(InvalidParameter, match="estimator delta must be at least 1 ns"):
        sim.install_app(replace(built.program, states=states), built.placement, built.plan)
    assert_nothing_installed(sim)
    sim.install_app(built.program, built.placement, built.plan)
    assert sim.switch_rt["sw1"].monitors


# A rate and a scalar state summed, read by one steering trigger: the
# one replica, sw1, runs it.
STEER_BY_TOTAL = ApplicationSpec(
    "steer",
    (StateSpec("rate", ScopeFilter(), ValueKind.rate_estimate()),
     StateSpec("load", ScopeFilter(), ValueKind.scalar())),
    (ReductionSpec("total", ReductionKind.SUM, ("rate", "load")),),
    (TriggerSpec("by_total", "total", Predicate.greater_than(50), InconsistencySpec.none(),
                 "pick"),),
    (ActivitySpec("pick", ActionKind.SET_EGRESS, selector_const=1),))

# Egress observers and maps naming nothing the installed application
# could use, each with the error install_app raises.
STRAY_EGRESS = {
    "observer_of_no_state": (
        WATCH, dict(egress_observers={"nosuch": "ghost"}),
        "egress observer on nosuch: no rate-estimate state of watch"),
    "observer_of_a_scalar": (
        STEER_BY_TOTAL, dict(egress_observers={"load": "sw2"}),
        "egress observer on load: no rate-estimate state of steer"),
    "map_of_no_activity": (
        WATCH, dict(egress_maps={"nosuch": {"sw9": ["x"]}, "alert": {"sw2": ["zz"]}}),
        "egress map for alert: no set_egress or insert_flow_rule activity of watch"),
    "map_where_no_trigger_runs": (
        STEER_BY_TOTAL, dict(egress_maps={"pick": {"sw1": ["hA", "sw2"], "sw2": ["sw3"]}}),
        "activity pick: egress map for sw2, where none of its triggers run"),
}


@pytest.mark.parametrize("case", STRAY_EGRESS.values(), ids=STRAY_EGRESS.keys())
def test_stray_egress_observers_and_maps_install_nothing(case):
    app, maps, message = case
    sim = three_switch_line()
    with pytest.raises(SimulationError, match=f"^{message}$"):
        install(sim, app, **maps)
    assert_nothing_installed(sim)
    install(sim, app)
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 100.0)], stop_s=1.0, monitor="sw1")
    assert sim.run_until().flow_delivered == [100]


def line_at_two_replicas(app):
    """hA - s1 - s2 - s3 - hB, with `app` compiled and placed at 2
    replicas, hA's load ranking s1 first: (topo, program, placement,
    plan)."""
    links = [Link("hA", "s1", MS, 1_000_000), Link("s1", "s2", MS, 1_000_000),
             Link("s2", "s3", MS, 1_000_000), Link("s3", "hB", MS, 1_000_000)]
    topo = Topology(("s1", "s2", "s3"), ("hA", "hB"), links)
    dag = build_dag(app)
    program = compile_application(dag)
    req = replication_requirements(dag)
    placement = place_replicas(topo, EmbeddingConfig(2, {"hA": 1.0}), program, req)
    return topo, program, placement, build_replication_plan(topo, placement, req, 100.0)


def test_a_trigger_runs_only_where_every_state_it_reads_is_hosted():
    # At 2 replicas, a is budget-free, so it lives on s1 alone, and t_b's
    # 50 ms budget puts b on s1 and s2. t_sum reads both; at s2, a would
    # read 0 and the sum would be b's value alone.
    states = (StateSpec("a", ScopeFilter(), ValueKind.scalar()),
              StateSpec("b", ScopeFilter(), ValueKind.scalar()))
    total = ReductionSpec("ab", ReductionKind.SUM, ("a", "b"))
    triggers = (TriggerSpec("t_sum", "ab", Predicate.greater_than(5),
                            InconsistencySpec.none(), "alert"),
                TriggerSpec("t_b", "b", Predicate.greater_than(100),
                            InconsistencySpec.time_obsolescence(0.05), "alert"))
    alert = ActivitySpec("alert", ActionKind.NOTIFY_CONTROLLER, message="hit")
    topo, program, placement, plan = line_at_two_replicas(
        ApplicationSpec("sums", states, (total,), triggers, (alert,)))
    assert placement.nodes == {"a": ("s1",), "b": ("s1", "s2")}
    sim = Simulator(topo, t_end_s=1.0)
    sim.install_app(program, placement, plan)
    hosted = {sw: {tr.name for tr in rt.change_triggers} for sw, rt in sim.switch_rt.items()}
    assert hosted == {"s1": {"t_sum", "t_b"}, "s2": {"t_b"}, "s3": set()}
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 200.0)], stop_s=1.0)
    sim.schedule_scalar(0.1, "b", 6)
    log = sim.run_until()
    # b's update reaches s2, which does not run t_sum on a sum it cannot
    # compute.
    assert "s2" in {row[3] for row in log.applied}
    assert [d[:3] for d in log.detections] == [(100_000_000, "s1", "t_sum")]


def test_a_sequential_group_runs_on_one_switch_set():
    # ta's 50 ms budget puts a on s1 and s2. The activities of ta and tb
    # share sequential_group g, so tb must run on the same switches.
    def seq_app(tb_budget):
        states = (StateSpec("a", ScopeFilter(), ValueKind.scalar()),
                  StateSpec("b", ScopeFilter(), ValueKind.scalar()))
        triggers = (TriggerSpec("ta", "a", Predicate.greater_than(5),
                                InconsistencySpec.time_obsolescence(0.05), "drop_a"),
                    TriggerSpec("tb", "b", Predicate.greater_than(5), tb_budget, "drop_b"))
        acts = tuple(ActivitySpec(name, ActionKind.DROP_PACKET, sequential_group="g")
                     for name in ("drop_a", "drop_b"))
        return line_at_two_replicas(ApplicationSpec("seq", states, (), triggers, acts))

    # A budget-free b lives on s1 alone. The install fails before it
    # installs anything, so the simulator cannot run half the group.
    topo, program, placement, plan = seq_app(InconsistencySpec.none())
    assert placement.nodes == {"a": ("s1", "s2"), "b": ("s1",)}
    sim = Simulator(topo, t_end_s=1.0)
    with pytest.raises(SimulationError,
                       match="sequential_group g: trigger ta runs on s1,s2 but tb on s1$"):
        sim.install_app(program, placement, plan)
    assert all(rt.store is None and not rt.packet_triggers for rt in sim.switch_rt.values())
    # With b on s1 and s2 too, both triggers run on both.
    topo, program, placement, plan = seq_app(InconsistencySpec.time_obsolescence(0.05))
    sim = Simulator(topo, t_end_s=1.0)
    sim.install_app(program, placement, plan)
    hosted = {sw: [tr.name for tr in rt.packet_triggers] for sw, rt in sim.switch_rt.items()}
    assert hosted == {"s1": ["ta", "tb"], "s2": ["ta", "tb"], "s3": []}


def test_selector_outside_its_egress_map_keeps_the_route():
    state = StateSpec("rate", ScopeFilter(), ValueKind.rate_estimate())
    steer = TriggerSpec("steer", "rate", Predicate.always(), InconsistencySpec.none(), "pick")
    pick = ActivitySpec("pick", ActionKind.SET_EGRESS, selector_const=1)
    sim = Simulator(line_topo(), t_end_s=1.0)
    # Selector 0 would send every packet back to hA.
    install(sim, ApplicationSpec("steer", (state,), (), (steer,), (pick,)),
            egress_maps={"pick": {"sw": ["hA"]}})
    sim.add_flow("f", "hA", "hB", 1000, False, [(0.0, 10.0)], stop_s=0.5, monitor="sw")
    log = sim.run_until()
    assert log.flow_sent == log.flow_delivered == [5]


# ---------------------------------------------------------------------------
# Scenario-driven runs (full pipeline).

MINI_DDOS = """
format_version = 1

[scenario]
name = mini_ddos
seed = 3
t_end = 4
metrics_bin = 0.5
queue_limit = 100

[topology]
switches = sw1 sw2 sw3 sw4
links = sw1-sw2 sw2-sw3 sw3-sw4 sw1-sw4
link_delay = 0.5ms
link_capacity = 10Mbps
host_delay = 0.01ms

[host.a1]
attach = sw1
port_class = external

[host.a3]
attach = sw3
port_class = external

[host.a4]
attach = sw4
port_class = external

[host.c1]
attach = sw2
port_class = downlink

[application]
name = ddos
threshold = 50
epsilon_t = 14ms
delta = 100ms
window = 8
states = auto

[embedding]
replicas = 2
r_min = 100
trigger_mode = time
weights = a1:3 a3:3 a4:1

[flow.f1]
src = a1
dst = c1
size = 1950
syn = yes
start = 0
rate = 100

[flow.f3]
src = a3
dst = c1
size = 1950
syn = yes
start = 0
rate = 100

[flow.f4]
src = a4
dst = c1
size = 1950
syn = yes
start = 0
rate = 100
"""


@pytest.fixture(scope="module")
def ddos_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "mini_ddos.scn"
    p.write_text(MINI_DDOS)
    return parse_scenario(str(p))


def test_same_seed_same_trace(ddos_cfg):
    a = build_simulation(ddos_cfg, collect_trace=True)
    b = build_simulation(ddos_cfg, collect_trace=True)
    a.sim.run_until()
    b.sim.run_until()
    assert a.sim.trace == b.sim.trace
    assert len(a.sim.trace) > 1000


def test_monitor_detour_goes_through_measurement_switch(ddos_cfg):
    built = build_simulation(ddos_cfg, collect_trace=True)
    built.sim.run_until(0.2)
    # f4 enters at sw4; its measurement switch is sw1 (lowest-name tie
    # among the replicas), so its packets detour sw4 -> sw1 -> sw2.
    hops = {}
    for t, sw, uid, out in fwd_events(built.sim):
        hops.setdefault(uid, []).append(sw)
    via_sw4 = [h for h in hops.values() if h[0] == "sw4"]
    assert via_sw4, "expected packets entering at sw4"
    assert all(h == ["sw4", "sw1", "sw2"] for h in via_sw4)


def test_detection_fires_on_every_replica(ddos_cfg):
    log = build_simulation(ddos_cfg).sim.run_until()
    fired = {sw for _, sw, _, _ in log.detections}
    assert fired == {"sw1", "sw3"}
    # Aggregate 300 pkt/s sits far above a threshold of 50: detection
    # lands while the first estimator window is still filling.
    first = min(t for t, _, _, _ in log.detections)
    assert first < 1_000_000_000


def test_controller_notifications_arrive_after_fixed_delay(ddos_cfg):
    log = build_simulation(ddos_cfg).sim.run_until()
    assert len(log.notifications) == len(log.detections)
    for (td, sw, _, _), (tn, nsw, _) in zip(log.detections, log.notifications):
        assert nsw == sw
        assert tn - td == 10 * MS


def test_replication_off_keeps_data_path(ddos_cfg):
    on = build_simulation(ddos_cfg, collect_trace=True)
    off = build_simulation(ddos_cfg, collect_trace=True, replication=False)
    log_on = on.sim.run_until()
    log_off = off.sim.run_until()

    def data_decisions(sim):
        seq = {}
        for _, sw, uid, out in fwd_events(sim):
            if uid >= 0:
                seq.setdefault(uid, []).append((sw, out))
        return seq

    # Update frames share links with data, so exact timings may shift,
    # but every data packet must take the identical hop sequence.
    assert data_decisions(on.sim) == data_decisions(off.sim)
    assert list(log_on.flow_sent) == list(log_off.flow_sent)
    assert list(log_on.flow_delivered) == list(log_off.flow_delivered)
    assert sum(log_on.queue_drops) == sum(log_off.queue_drops) == 0
    assert log_off.updates_emitted == 0
    assert log_on.updates_emitted > 0
    # The baseline installs the plan without its periods, and still
    # reports the plan it would have replicated by.
    assert not any(rt.own_updates for rt in off.sim.switch_rt.values())
    assert off.plan.solutions and off.sim.plan_text == on.sim.plan_text


def test_update_headers_carry_the_origin_path_index(tmp_path, monkeypatch):
    # The mesh declares its switches out of name order: a switch's
    # declaration index is not its path index.
    built = build_simulation(mesh_config(tmp_path, 11), t_end_s=0.3)
    sim, placement = built.sim, built.placement
    origins = {placement.origin[cs.name] for cs in built.program.states}
    assert any(sim.topo.index[o] != sim.topo.switches.index(o) for o in origins)
    headers = []
    send = sim._send

    def recording_send(ld, pkt, t):
        if pkt.is_update:
            headers.append(pkt.header)
        return send(ld, pkt, t)

    monkeypatch.setattr(sim, "_send", recording_send)
    sim.run_until()
    seen = set()
    for hdr in headers:
        name = built.program.states[hdr.state_id].name
        origin = placement.origin[name]
        assert hdr.src_sw_id == sim.topo.index[origin]
        # The replica id is the origin's position among the replicas.
        assert hdr.replica_id == placement.nodes[name].index(origin)
        seen.add(origin)
    assert seen == origins


def test_updates_flood_without_echo(ddos_cfg):
    built = build_simulation(ddos_cfg)
    log = built.sim.run_until()
    # On the two-replica plan the tree is a path; an echoing flood would
    # loop forever (the run would never drain) and re-deliveries would
    # pile up as stale drops.
    assert log.stale_update_drops == 0
    assert log.unknown_state_drops == 0
    # Both replicas see each other's state: staleness samples exist for
    # both origins.
    origins = {origin for _, _, origin, _, _, _, _ in log.applied}
    assert origins == {"sw1", "sw3"}


def test_update_drops_are_counted_on_the_log(tmp_path):
    built = build_simulation(parse_scenario(FIG7), t_end_s=1.0)
    sim = built.sim
    state = built.program.states[0]
    origin = built.placement.origin[state.name]
    (replica,) = set(built.placement.nodes[state.name]) - {origin}
    # The replica is a leaf of the distribution tree, so nothing floods on.
    (out,) = sim.switch_rt[replica].flood[None]

    def update(uid, state_id):
        hdr = UpdateHeader(src_sw_id=sim.switch_rt[origin].sw_id, dst_sw_id=0,
                           state_id=state_id, replica_id=0, state_value=5)
        return Packet(uid, -1, None, update_frame_bits(1), is_update=True,
                      header=hdr, origin_ts=1)

    # Delivered before any real update: the copy is stale, id 999 was
    # never registered. The first declared state has wire id 0.
    twice = update(-1000, 0)
    link = sim.switch_rt[out.dst].ports[replica]
    for pkt in (twice, twice, update(-1001, 999)):
        sim._schedule(1, link, pkt)
    log = sim.run_until()
    assert (log.stale_update_drops, log.unknown_state_drops) == (1, 1)
    export_metrics(log, str(tmp_path), switch_names=built.sim.topo.switches)
    with open(tmp_path / "counters.csv") as fh:
        counters = {row["key"]: int(row["value"]) for row in csv.DictReader(fh)}
    assert (counters["stale_update_drops"], counters["unknown_state_drops"]) == (1, 1)


def test_staged_run_matches_single_run(ddos_cfg):
    whole = build_simulation(ddos_cfg)
    staged = build_simulation(ddos_cfg)
    log_a = whole.sim.run_until()
    staged.sim.run_until(0.7)
    staged.sim.run_until(2.3)
    log_b = staged.sim.run_until()
    assert log_a.data_bits == log_b.data_bits
    assert log_a.repl_bits == log_b.repl_bits
    assert log_a.detections == log_b.detections
    assert log_a.events_processed == log_b.events_processed


@pytest.mark.parametrize("scenario, t_split", [("mini_ddos", 1.3), ("fig8", 23.7)])
def test_split_run_exports_identical_csv_family(tmp_path, scenario, t_split):
    cfg = write_scenario(tmp_path, MINI_DDOS) if scenario == "mini_ddos" else parse_scenario(FIG8)
    first = build_simulation(cfg).sim
    whole = first.run_until()
    expected = exported_family(first, whole, tmp_path / "whole")

    sim = build_simulation(cfg).sim
    part = sim.run_until(t_split)
    assert 0 < part.events_processed < whole.events_processed
    assert 0 < sum(part.flow_sent) < sum(whole.flow_sent)
    resumed = sim.run_until()
    assert resumed.events_processed == whole.events_processed
    assert exported_family(sim, resumed, tmp_path / "split") == expected


def record_sends(sim):
    """Watch `sim`'s link admissions: returns the arrival times of the
    packets admitted on host links, and the folded hops, each as
    (t, arr, host link, arrival at the host or None): a host link
    admission at arr that runs inside the admission at t of the packet
    on the link that feeds the host link's switch."""
    arrivals, folds, outer = [], [], []
    send = sim._send

    def recording_send(ld, pkt, t):
        outer.append(t)
        try:
            arr = send(ld, pkt, t)
        finally:
            outer.pop()
        if outer:
            folds.append((outer[-1], t, ld, arr))
        if arr is not None and ld.far is None:
            arrivals.append(arr)
        return arr

    sim._send = recording_send
    return arrivals, folds


def scenario_by_name(tmp_path, name):
    """A test or shipped scenario, and the replica count to build it at."""
    source, replicas = {
        "mini_ddos": (MINI_DDOS, None),
        "fig8": (FIG8, None),
        "fig7_c1": (FIG7, 1),
        "fig7_c2": (FIG7, 2),
        "fig7_c4": (FIG7, 4),
        "resource_lb": (RESOURCE_LB, None),
        "link_lb": (LINK_LB, None),
        "ratelimit_tiny": (RATELIMIT_TINY, None),
        "scope_misses_ddos": (SCOPE_MISSES.format(app=SCOPE_MISS_APPS["ddos"][0]), None),
        "scope_misses_ratelimit": (SCOPE_MISSES.format(app=SCOPE_MISS_APPS["ratelimit"][0]),
                                   None),
    }[name]
    if source.endswith(".scn"):
        return parse_scenario(source), replicas
    return write_scenario(tmp_path, source, f"{name}.scn"), replicas


def line_case(sim_class, case):
    """A flow from hA to hB whose last switch hop may not fold: that
    switch measures the flow ("measured"), drops it above a rate
    ("policed"), counts what it forwards to hB ("egress_watch") or owns
    an update trigger ("origin"), or a switch before it steers the flow
    ("steered")."""
    if case in ("measured", "policed", "egress_watch"):
        sim = sim_class(line_topo(capacity_bps=1_000_000_000), t_end_s=2.0)
        app = rate_app(ActivitySpec("police", ActionKind.DROP_PACKET)) if case == "policed" \
            else WATCH
        install(sim, app, egress_observers={"rate": "hB"} if case == "egress_watch" else None)
        # A packet reaches sw every 10 ms from 10 ms on: one lands on
        # each estimator tick boundary, where the rate read there first
        # crosses 50 packets/s at 0.5 s.
        sim.add_flow("f", "hA", "hB", 1000, False, [(0.008999, 100.0)], stop_s=2.0,
                     monitor=None if case == "egress_watch" else "sw")
        return sim
    if case == "steered":
        # s1 steers every packet onto its route, to s2.
        app = rate_app(ActivitySpec("pick", ActionKind.SET_EGRESS, selector_const=0))
        maps, ends = {"egress_maps": {"pick": {"s1": ["s2"]}}}, ("hA", "hB")
    else:
        # s1 writes the rate, and its update trigger checks each packet
        # it forwards to hA.
        app = ApplicationSpec("watch", WATCH.states, (), (replace(
            WATCH.triggers[0], inconsistency=InconsistencySpec.time_obsolescence(0.05)),),
            WATCH.activities)
        maps, ends = {}, ("hB", "hA")
    topo, program, placement, plan = line_at_two_replicas(app)
    assert placement.origin["rate"] == "s1"
    sim = sim_class(topo, t_end_s=1.0)
    sim.install_app(program, placement, plan, **maps)
    if case == "origin":
        assert sim.switch_rt["s1"].own_updates
    sim.add_flow("f", *ends, 1000, False, [(0.0, 100.0)], stop_s=1.0,
                 monitor="s1" if case == "steered" else None)
    return sim


@pytest.mark.parametrize("case", ["fig7_c2", "fig7_c4", "resource_lb", "link_lb", "trace",
                                  "measured", "egress_watch", "origin", "steered"])
def test_no_hop_folds_where_its_switch_does_more_than_forward(tmp_path, case):
    # Two or three links feed each host link of fig7 at 2 and 4
    # replicas; set_egress and insert_flow_rule may steer packets off
    # their static route; a trace logs each forward; and on the lines,
    # the last switch measures, counts or owns an update trigger, or s1
    # steers. test_simulator_matches_the_reference runs each of these
    # against the plain form.
    if case in ("measured", "egress_watch", "origin", "steered"):
        sim = line_case(Simulator, case)
    else:
        cfg, replicas = scenario_by_name(tmp_path, "fig8" if case == "trace" else case)
        sim = build_simulation(cfg, replicas=replicas, t_end_s=3.0,
                               collect_trace=case == "trace").sim
    _, folds = record_sends(sim)
    log = sim.run_until()
    assert sum(log.flow_delivered) > 0
    assert folds == []
    if case == "trace":
        # The switch that delivers to c1 still logs each forward to it.
        sw = sim.topo.attached_switch("c1")
        assert sum(f" fwd {sw} " in line and line.endswith(" out=c1") for line in sim.trace) \
            == log.flow_delivered[0]


def queued_events(sim):
    return sum(map(len, sim._slots.values()))


def count_queued(sim):
    """Count each event queued on `sim` from here on, in a slot it opens
    or in one already open: returns the count, a one-item list."""
    count = [0]

    class Slot(list):
        def append(self, event):
            count[0] += 1
            super().append(event)

    class Slots(dict):
        def __setitem__(self, t, slot):
            count[0] += len(slot)
            super().__setitem__(t, Slot(slot))

    slots = Slots()
    dict.update(slots, {t: Slot(slot) for t, slot in sim._slots.items()})
    sim._slots = slots
    return count


def test_host_deliveries_skip_the_heap():
    sim = build_simulation(parse_scenario(FIG8), t_end_s=10.0).sim
    queued = queued_events(sim)
    pushes = count_queued(sim)
    _, folds = record_sends(sim)
    log = sim.run_until()
    delivered = sum(log.flow_delivered)
    assert delivered > 1000
    # One link feeds each host link of fig8, and its far switch only
    # forwards to it: every delivery's last switch hop folds.
    assert len(folds) == delivered
    # Every event but a counted delivery or a folded hop was queued
    # before the run or during it, and ran unless it is still queued.
    assert pushes[0] == log.events_processed - delivered - len(folds) - queued + queued_events(sim)


def test_second_install_app_is_rejected(ddos_cfg):
    built = build_simulation(ddos_cfg)
    with pytest.raises(SimulationError, match="already installed"):
        built.sim.install_app(built.program, built.placement, built.plan)


def test_install_app_after_the_run_starts_is_rejected(ddos_cfg):
    # Each flow's scope matches are resolved when the run starts.
    built = build_simulation(ddos_cfg)
    sim = Simulator(ddos_cfg.topology, t_end_s=1.0)
    sim.run_until(0.0)
    with pytest.raises(SimulationError, match="before the run starts"):
        sim.install_app(built.program, built.placement, built.plan)


def test_scopes_are_matched_only_when_the_run_starts(monkeypatch):
    sim = build_simulation(parse_scenario(FIG8), t_end_s=22.0).sim
    calls = []
    matches = ScopeFilter.matches
    monkeypatch.setattr(ScopeFilter, "matches",
                        lambda self, *args: calls.append(args) or matches(self, *args))
    sim.run_until(0.0)
    # Two flows, each against the one state and the one police trigger
    # of its measurement switch.
    assert len(calls) == 4
    log = sim.run_until()
    assert len(calls) == 4
    assert min(log.flow_sent) > 500 and sum(log.flow_app_drops) > 0


SCOPE_MISSES = """
format_version = 1

[scenario]
name = scope_misses
seed = 5
t_end = 3
metrics_bin = 0.5

[topology]
switches = sw1 sw2
links = sw1-sw2
link_delay = 0.5ms
link_capacity = 10Mbps

[host.ext]
attach = sw1
port_class = external

[host.local]
attach = sw1
port_class = downlink

[host.dst]
attach = sw2
port_class = downlink

{app}

[flow.f_syn]
src = ext
dst = dst
size = 10000
syn = yes
start = 0
stop = 2.5
rate = 300

[flow.f_ack]
src = ext
dst = dst
size = 10000
syn = no
start = 0.1
stop = 2.5
rate = 100

[flow.f_local]
src = local
dst = dst
size = 10000
syn = yes
start = 0.2
stop = 2.5
rate = 200
"""

SCOPE_MISS_APPS = {
    # External SYNs only: f_ack misses on the L4 flag, f_local on the
    # port class it enters on.
    "ddos": ("""[application]
name = ddos
threshold = 1000000
epsilon_t = 14ms

[embedding]
replicas = 2
r_min = 100
""", {"f_syn"}),
    # External traffic of any kind is counted and policed; f_local is
    # neither.
    "ratelimit": ("""[application]
name = ratelimit
limit = 1Mbps
epsilon_r = 10
max_write_rate = 625

[embedding]
replicas = 1
r_min = 250
""", {"f_syn", "f_ack"}),
}


@pytest.mark.parametrize("app", SCOPE_MISS_APPS)
def test_per_flow_plan_matches_brute_force_scopes(tmp_path, app):
    text, matched = SCOPE_MISS_APPS[app]
    cfg = write_scenario(tmp_path, SCOPE_MISSES.format(app=text))
    built = build_simulation(cfg)
    sim, topo = built.sim, cfg.topology
    log = sim.run_until()
    assert not any(log.queue_drops)
    acts = {a.name: a for a in built.app.activities}
    writes = {cs.name: 0 for cs in built.program.states}
    seen = set()
    for f, fl in zip(cfg.flows, sim.flows):
        sw = topo.attached_switch(f.src)
        pkt = (topo.adj[f.src][sw].port_class(sw), f.syn, f.dst)
        states = [cs.name for cs in built.program.states
                  if built.placement.origin[cs.name] == fl.monitor and cs.scope.matches(*pkt)]
        triggers = [tr.name for tr in built.app.triggers
                    if acts[tr.activity].action is not ActionKind.NOTIFY_CONTROLLER
                    and acts[tr.activity].scope.matches(*pkt)]
        assert [built.program.states[sid].name for _, _, sid in fl.monitors] == states, f.name
        assert [tr.name for tr in fl.triggers] == triggers, f.name
        if states:
            seen.add(f.name)
        # Every packet reaches its measurement switch before the horizon.
        for s in states:
            writes[s] += log.flow_sent[fl.row]
        policed = any(acts[tr.activity].action is ActionKind.DROP_PACKET
                      for tr in built.app.triggers if tr.name in triggers)
        assert (log.flow_app_drops[fl.row] > 0) == policed, f.name
    assert seen == matched
    for sid, cs in enumerate(built.program.states):
        store = sim.switch_rt[built.placement.origin[cs.name]].store
        assert store.writes[sid] == writes[cs.name], cs.name


def test_different_seed_changes_policing(tmp_path):
    # Probabilistic policing consults the per-switch generator, so the
    # seed must steer which packets die once the limit engages.
    cfg = write_scenario(tmp_path, RATELIMIT_TINY)
    drops = []
    for seed in (1, 2):
        log = build_simulation(cfg, seed=seed).sim.run_until()
        drops.append(sum(log.flow_app_drops))
        assert sum(log.flow_app_drops) > 0
    sim = build_simulation(cfg, seed=1, collect_trace=True).sim
    assert sum(sim.run_until().flow_app_drops) == drops[0]
    # Each policed packet has its trace line.
    assert sum(" drop_app sw1 " in line for line in sim.trace) == drops[0]


def drawing_switches(sim):
    return {sw for sw, rt in sim.switch_rt.items() if any(tr.draws for tr in rt.packet_triggers)}


def test_only_switches_whose_triggers_draw_get_an_rng(tmp_path):
    fig8 = build_simulation(parse_scenario(FIG8))
    policers = drawing_switches(fig8.sim)
    # fig8 polices at both of its replicas.
    assert policers == set(next(iter(fig8.placement.nodes.values()))) and len(policers) == 2
    assert {sw for sw, rt in fig8.sim.switch_rt.items() if rt.rng is not None} == policers
    for cfg in (parse_scenario(FIG7), mesh_config(tmp_path, 11)):
        sim = build_simulation(cfg).sim
        assert drawing_switches(sim) == set()
        assert all(rt.rng is None for rt in sim.switch_rt.values())


@pytest.mark.parametrize("seed", [None, 3])
def test_rng_draws_follow_the_seed_and_switch_index(seed):
    cfg = parse_scenario(FIG8)
    sim = build_simulation(cfg, seed=seed).sim
    run_seed = cfg.seed if seed is None else seed
    m64 = (1 << 64) - 1
    rngs = [rt for rt in sim.switch_rt.values() if rt.rng is not None]
    assert len(rngs) == 2
    for rt in rngs:
        assert rt.sw_id == cfg.topology.index[rt.name]
        mix = (rt.sw_id + 1) * 0xD1B54A32D192ED03 & m64
        fresh = random.Random(simcore._splitmix64(run_seed & m64 ^ mix))
        assert [rt.rng.random() for _ in range(8)] == [fresh.random() for _ in range(8)]


RATELIMIT_TINY = """
format_version = 1

[scenario]
name = tiny_rl
seed = 11
t_end = 6
metrics_bin = 0.5
queue_limit = 100

[topology]
switches = sw1 sw2
links = sw1-sw2
link_delay = 0.5ms
link_capacity = 10Mbps
host_delay = 0.01ms

[host.src]
attach = sw1
port_class = external

[host.dst]
attach = sw2
port_class = downlink

[application]
name = ratelimit
limit = 2Mbps
epsilon_r = 10
max_write_rate = 625
delta = 100ms
window = 8
states = auto

[embedding]
replicas = 1
r_min = 250

[flow.f]
src = src
dst = dst
size = 10000
syn = no
start = 0
rate = 400
"""


def test_rate_limiter_converges_to_limit(tmp_path):
    cfg = write_scenario(tmp_path, RATELIMIT_TINY)
    log = build_simulation(cfg).sim.run_until()
    # Offered 4 Mb/s against a 2 Mb/s cap: accepted throughput over the
    # settled half of the run must sit near the cap.
    sl = log.window_slice()
    delivered_bits = sum(log.flow_bits[0][sl])
    seconds = (sl.stop - sl.start) * log.bin_ns / 1e9
    rate = delivered_bits / seconds
    assert rate == pytest.approx(2_000_000, rel=0.15)
    assert log.flow_app_drops[0] > 0


RESOURCE_LB = """
format_version = 1

[scenario]
name = mini_rlb
seed = 5
t_end = 3
metrics_bin = 0.5
queue_limit = 100

[topology]
switches = sw1 sw2
links = sw1-sw2
link_delay = 0.5ms
link_capacity = 10Mbps
host_delay = 0.01ms

[host.src1]
attach = sw2
port_class = external

[host.srv0]
attach = sw1
port_class = downlink

[host.srv1]
attach = sw1
port_class = downlink

[application]
name = resourcelb
lb_switch = sw1
servers = srv0 srv1
threshold = 0.8
load_scale = 100

[embedding]
replicas = 1
r_min = 50

[flow.g]
src = src1
dst = srv0
size = 1000
syn = yes
start = 0
rate = 50

[loads]
srv_load_0 = 0:10 1.0:90
srv_load_1 = 0:30 2.0:95
"""


def test_resource_dispatch_follows_injected_loads(tmp_path):
    cfg = write_scenario(tmp_path, RESOURCE_LB)
    built = build_simulation(cfg, collect_trace=True)
    log = built.sim.run_until()
    by_phase = {0: set(), 1: set(), 2: set()}
    for t, sw, uid, out in fwd_events(built.sim):
        if sw == "sw1":
            by_phase[min(t // 1_000_000_000, 2)].add(out)
    # Phase 0: srv0 is lighter (10 vs 30). Phase 1: srv0 jumps to 90,
    # srv1 wins. Phase 2: mean load 92.5 exceeds the 80-point bar, every
    # new arrival is escalated instead of served.
    assert by_phase[0] == {"srv0"}
    assert by_phase[1] == {"srv1"}
    assert by_phase[2] == set()
    assert log.controller_redirects
    assert all(sw == "sw1" for _, sw, _ in log.controller_redirects)
    assert log.flow_app_drops[0] == len(log.controller_redirects)


LINK_LB = """
format_version = 1

[scenario]
name = mini_llb
seed = 9
t_end = 6
metrics_bin = 0.5
queue_limit = 100

[topology]
switches = sw1 sw2 sw3 sw4
links = sw1-sw2 sw2-sw3 sw3-sw4 sw1-sw4
link_delay = 0.5ms
link_capacity = 10Mbps
host_delay = 0.01ms

[host.h1]
attach = sw1
port_class = external

[host.d1]
attach = sw3
port_class = downlink

[host.d2]
attach = sw3
port_class = downlink

[application]
name = linklb
lb_switch = sw1
path_via = sw2 sw4
dst_switch = sw3

[embedding]
replicas = 3
r_min = 200
weights = h1:5

[flow.k1]
src = h1
dst = d1
size = 10000
syn = no
start = 0
rate = 100

[flow.k2]
src = h1
dst = d2
size = 10000
syn = yes
start = 3
rate = 100
"""


def test_new_flows_pin_to_least_congested_path(tmp_path):
    cfg = write_scenario(tmp_path, LINK_LB)
    built = build_simulation(cfg, collect_trace=True)
    built.sim.run_until()
    before, after = set(), set()
    for t, sw, uid, out in fwd_events(built.sim):
        if sw == "sw1" and uid >= 0:
            (before if t < 3_000_000_000 else after).add(out)
    # k1 (no SYN flag) never matches the pinning rule and follows the
    # name-tie shortest path via sw2, loading that leg to ~1 Mb/s.
    assert before == {"sw2"}
    # k2's first SYN then finds leg 1 idle and is pinned via sw4.
    assert "sw4" in after
    # Egress measurement fed the leg estimates at their origin switches.
    t_end = built.sim.t_now
    reg = built.program.registers
    store1 = built.sim.switch_rt["sw1"].store
    assert store1.local_value(reg["leg_load_0"], t_end) > 500_000
    store2 = built.sim.switch_rt["sw2"].store
    assert store2.local_value(reg["leg_load_2"], t_end) > 500_000


def test_a_pinned_flow_whose_via_routes_back_to_its_monitor_is_rejected(tmp_path):
    # With d2 on sw2, sw4's route toward sw2 runs back through sw1 (its
    # next hop on the name tie): k2's SYN packets, pinned at sw1 to sw4,
    # would return to sw1 and be pinned to sw4 again. k1 is never pinned.
    text = LINK_LB.replace("[host.d2]\nattach = sw3", "[host.d2]\nattach = sw2")
    with pytest.raises(ScenarioError) as exc:
        build_simulation(write_scenario(tmp_path, text))
    assert exc.value.line == text.splitlines().index("dst = d2") + 1, str(exc.value)
    assert "flow k2: pinned at sw1 via sw4, whose route to d2 runs back through sw1" in str(
        exc.value)


# ---------------------------------------------------------------------------
# The plain form: every run-time shortcut checked against the reference.

# What both runs must agree on at every stop.
LOG_ROWS = ("flow_sent", "flow_delivered", "flow_bits", "data_bits", "repl_bits", "queue_drops",
            "flow_queue_drops", "flow_app_drops", "detections", "notifications",
            "updates_emitted")

# The scenario cases, by name: a scenario_by_name scenario and the
# horizon and trace collection to build it with (its own horizon when
# none is given).
SCENARIO_CASES = {
    "fig7_c1": ("fig7_c1", {}),
    "fig7_c2": ("fig7_c2", {"t_end_s": 3.0}),
    "fig7_c4": ("fig7_c4", {"t_end_s": 22.0}),
    "fig8": ("fig8", {}),
    "fig8_trace": ("fig8", {"t_end_s": 3.0, "collect_trace": True}),
    "mini_ddos": ("mini_ddos", {}),
    "ratelimit_tiny": ("ratelimit_tiny", {}),
    "resource_lb": ("resource_lb", {}),
    "link_lb": ("link_lb", {}),
    "scope_misses_ddos": ("scope_misses_ddos", {}),
    "scope_misses_ratelimit": ("scope_misses_ratelimit", {}),
}
LINE_CASES = ("measured", "policed", "egress_watch", "origin", "steered")
MESH_SEEDS = (11, 23)
GENERATED_SEEDS = range(36)
REFERENCE_CASES = (*SCENARIO_CASES, *(f"line_{c}" for c in LINE_CASES),
                   *(f"mesh_{s}" for s in MESH_SEEDS),
                   *(f"generated_{s}" for s in GENERATED_SEEDS))


def reference_case(tmp_path, case):
    """`case` as a function of a simulator class: a simulator of that
    class with the case built on it, ready to run."""
    kind, _, arg = case.partition("_")
    if kind == "line":
        return lambda cls: line_case(cls, arg)
    kwargs = {}
    if kind == "mesh":
        cfg, kwargs = mesh_config(tmp_path, int(arg)), {"t_end_s": 1.0}
    elif kind == "generated":
        cfg = write_scenario(tmp_path, random_scenario(int(arg)), f"{case}.scn")
    else:
        scenario, kwargs = SCENARIO_CASES[case]
        cfg, replicas = scenario_by_name(tmp_path, scenario)
        kwargs = dict(kwargs, replicas=replicas)
    return lambda cls: {Simulator: build_simulation,
                        ReferenceSimulator: build_reference}[cls](cfg, **kwargs).sim


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_simulator_matches_the_reference(tmp_path, case):
    build = reference_case(tmp_path, case)
    probe = build(Simulator)
    arrivals, folds = record_sends(probe)
    whole = probe.run_until()
    # Stops fall on host arrivals, anywhere, and on folded hops: where
    # the packet enters the link that feeds its last switch (it cannot
    # fold there), in between, where it reaches that switch, and where
    # it reaches its host.
    rng = random.Random(7)
    stops = {*rng.sample(arrivals, min(len(arrivals), 25)),
             *(rng.randrange(probe.t_end_ns) for _ in range(25))}
    for t, arr, _, at_host in rng.sample(folds, min(len(folds), 6)):
        stops.update(x for x in (t, (t + arr) // 2, arr, at_host) if x is not None)
    # A hop whose host link's next packet enters its link before it
    # reaches its switch: stopped where it enters, it waits on the heap,
    # and the next packet must not fold past it. Stop again once both
    # have reached their host.
    last, overtaken = {}, []
    for hop in folds:
        prev = last.get(hop[2])
        if prev is not None and hop[0] < prev[1] and hop[3] is not None:
            overtaken.append((prev[0], hop[3]))
        last[hop[2]] = hop
    for pair in rng.sample(overtaken, min(len(overtaken), 6)):
        stops.update(pair)
    sim, ref = build(Simulator), build(ReferenceSimulator)
    assert type(sim) is Simulator and type(ref) is ReferenceSimulator
    # A packet admitted near the horizon may arrive past it.
    for stop in [*sorted(x for x in stops if x < probe.t_end_ns), probe.t_end_ns]:
        want = ref.run_until(stop / 1e9)
        got = sim.run_until(stop / 1e9)
        assert got.events_processed == want.events_processed, stop
        for row in LOG_ROWS:
            assert getattr(got, row) == getattr(want, row), (stop, row)
        assert sim.t_now == ref.t_now == stop, stop
    assert got.events_processed == whole.events_processed
    assert (exported_family(sim, got, tmp_path / "sim")
            == exported_family(ref, want, tmp_path / "ref"))


@pytest.mark.parametrize("scenario", ["mini_ddos", "fig8", "fig7_c1"])
def test_counting_deliveries_at_admission_matches_the_queued_reference(tmp_path, scenario):
    # The simulator counts a host delivery when its link admits it, and
    # on fig8 and fig7_c1 folds every delivery's last switch hop; the
    # reference queues every arrival on the heap.
    cfg, replicas = scenario_by_name(tmp_path, scenario)
    sim = build_simulation(cfg, replicas=replicas).sim
    _, folds = record_sends(sim)
    log = sim.run_until()
    want = build_reference(cfg, replicas=replicas).sim.run_until()
    for row in LOG_ROWS:
        assert getattr(log, row) == getattr(want, row), row
    assert len(folds) == (0 if scenario == "mini_ddos" else sum(log.flow_delivered))


@pytest.mark.parametrize("scenario, t_end_s", [("mini_ddos", 4.0), ("fig7_c4", 22.0)])
def test_change_triggers_skipped_within_a_tick_match_every_feed(tmp_path, scenario, t_end_s):
    # Between two stored values, what a change trigger reads can only
    # move at the end of an estimator tick: the simulator skips the
    # feeds inside a tick, and the reference runs the triggers after
    # every feed.
    cfg, replicas = scenario_by_name(tmp_path, scenario)
    runs = []
    for build in (build_simulation, build_reference):
        sim = build(cfg, replicas=replicas, t_end_s=t_end_s).sim
        evals, run_triggers = [0], sim._eval_change_triggers

        def counting_triggers(sw, t, evals=evals, run_triggers=run_triggers):
            evals[0] += 1
            run_triggers(sw, t)

        sim._eval_change_triggers = counting_triggers
        runs.append((sim.run_until(), evals[0]))
    (log, skipping), (want, every_feed) = runs
    assert want.detections and log.detections == want.detections
    assert log.notifications == want.notifications
    assert 0 < skipping < every_feed


@pytest.mark.parametrize("path, replicas", [(FIG7, 4), (FIG8, None)])
def test_stores_run_their_steps_once_a_tick_and_time_triggers_are_asked_when_due(
        monkeypatch, path, replicas):
    # An applied update or a write re-runs only the steps it feeds, so
    # run_steps, every step, runs only where a tick has ended; and a time
    # trigger is asked only from its due time on, where it always emits.
    sim = build_simulation(parse_scenario(path), replicas=replicas, t_end_s=10.0).sim
    runs, run_steps = collections.Counter(), replication.run_steps

    def counting_run_steps(steps, regs):
        runs[id(regs)] += 1
        run_steps(steps, regs)

    monkeypatch.setattr(replication, "run_steps", counting_run_steps)
    with counting(replication.UpdateTrigger, "should_emit") as asked:
        log = sim.run_until()
    assert {st.trig.mode for st in sim._states if st.trig} == {"time"}
    assert asked[0] == log.updates_emitted > 0
    stores = [rt.store for rt in sim.switch_rt.values() if rt.store is not None]
    for store in stores:
        tick = store.tick_end(0)
        assert runs[id(store.regs)] <= (1 if tick == math.inf else sim.t_end_ns // tick + 1)
    assert sum(runs.values()) > len(stores)


def record_arrivals(sim):
    """Watch the packets `sim` runs at switches: returns how many run at
    each (time, switch), and the times a packet is measured at a switch
    with change triggers exactly where their tick ends."""
    at, on_tick = collections.Counter(), []
    on_data, on_update = sim._on_data, sim._on_update

    def recording_on_data(sw, pkt, t):
        at[t, sw.name] += 1
        if pkt.to == sw.name and sw.change_triggers and t == sw.triggers_until:
            on_tick.append(t)
        on_data(sw, pkt, t)

    def recording_on_update(sw, link, pkt, t):
        at[t, sw.name] += 1
        on_update(sw, link, pkt, t)

    sim._on_data, sim._on_update = recording_on_data, recording_on_update
    return at, on_tick


def test_generated_cases_cover_every_shortcut(tmp_path):
    # Across the generated cases of the comparison above: every
    # application, several replica counts, horizons of 2 s or less, a
    # folded hop in more than two cases, and at least one case each with
    # a queue drop, a detection, a policing drop (an application drop
    # that is no controller redirect), a pinned flow rule, a rate step,
    # two packets at one switch on one nanosecond (one time slot), and a
    # packet measured on the first nanosecond of an estimator tick.
    apps, counts, shown, folding = set(), set(), set(), 0
    for seed in GENERATED_SEEDS:
        cfg = write_scenario(tmp_path, random_scenario(seed), f"generated_{seed}.scn")
        assert cfg.t_end_s <= 2.0
        built = build_simulation(cfg)
        apps.add(cfg.app_name)
        counts.add(built.replicas)
        sim = built.sim
        _, folds = record_sends(sim)
        at, on_tick = record_arrivals(sim)
        tables = {sw: dict(rt.route) for sw, rt in sim.switch_rt.items()}
        log = sim.run_until()
        folding += bool(folds)
        shown.update(name for name, hit in (
            ("queue drop", any(log.queue_drops)),
            ("detection", log.detections),
            ("policing drop", sum(log.flow_app_drops) > len(log.controller_redirects)),
            ("flow rule", any(rt.route != tables[sw] for sw, rt in sim.switch_rt.items())),
            ("rate step", any(len(fl.segments) > 1 for fl in sim.flows)),
            ("shared slot", max(at.values()) >= 2),
            ("tick boundary", on_tick),
        ) if hit)
    assert apps == set(GENERATED_APPS)
    assert len(counts) >= 4
    assert folding > 2
    assert shown == {"queue drop", "detection", "policing drop", "flow rule", "rate step",
                     "shared slot", "tick boundary"}


def plain_table(sim, sw):
    """The table switch `sw` forwards from before the run, from the
    topology alone: toward each flow's destination host, the port on a
    shortest path to its switch (at that switch, the host's own port),
    and toward each flow's monitor other than `sw`, likewise."""
    topo, rt = sim.topo, sim.switch_rt[sw]
    table = {}
    for fl in sim.flows:
        at = topo.attached_switch(fl.dst)
        table[fl.dst] = rt.ports[fl.dst if at == sw else topo.next_hop(sw, at)]
        if fl.monitor not in (None, sw):
            table[fl.monitor] = rt.ports[topo.next_hop(sw, fl.monitor)]
    return table


TABLE_CASES = ("fig7_c1", "fig7_c2", "fig7_c4", "fig8", "link_lb", "resource_lb",
               *(f"mesh_{s}" for s in MESH_SEEDS), *(f"generated_{s}" for s in GENERATED_SEEDS))


@pytest.mark.parametrize("case", TABLE_CASES)
def test_each_switch_forwards_from_one_table_of_plain_routes(tmp_path, case):
    sim = reference_case(tmp_path, case)(Simulator)
    plain = {sw: plain_table(sim, sw) for sw in sim.switch_rt}
    for sw, rt in sim.switch_rt.items():
        assert rt.route == plain[sw], sw
    sim.run_until()
    # Only an insert_flow_rule activity rewrites a table: at a switch
    # where it runs, the entry of a destination host, to a link its
    # egress map names there.
    hosts = {fl.dst for fl in sim.flows}
    pinned = []
    for sw, rt in sim.switch_rt.items():
        maps = [tr.egress_map or () for tr in rt.packet_triggers
                if tr.kind is ActionKind.INSERT_FLOW_RULE]
        assert rt.route.keys() == plain[sw].keys(), sw
        for to, link in rt.route.items():
            if link is not plain[sw][to]:
                assert to in hosts and any(link in m for m in maps), (sw, to, link.dst)
                pinned.append((sw, to, link.dst))
    if case == "link_lb":
        # k2's SYNs pin its host d2 at sw1 off its shortest path, via sw4.
        assert pinned == [("sw1", "d2", "sw4")]

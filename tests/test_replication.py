"""Rate estimation, update triggers, replica stores, tree flooding."""

import os
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdp import (
    ApplicationSpec,
    InvalidParameter,
    RateEstimatorWindow,
    ReductionKind,
    ReductionSpec,
    ReplicaStore,
    ScopeFilter,
    StateSpec,
    UpdateHeader,
    UpdateTrigger,
    ValueKind,
    ValueType,
    build_dag,
    build_simulation,
    compile_application,
    make_ddos_app,
    make_link_lb_app,
    make_rate_limiter_app,
    make_resource_lb_app,
    parse_scenario,
)
from repdp.compiler import run_steps

from reference import FreshReadStore, evaluate_dag

DELTA_NS = 100_000_000  # 0.1 s buckets
FIG7 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "scenarios", "fig7_ddos_c2.scn")


# ---------------------------------------------------------------------------
# Windowed rate estimator.


def oracle_estimate(event_times_ns, read_t_ns, delta_ns, window):
    """Naive reference: count per bucket, average the last closed window."""
    buckets = defaultdict(int)
    for t in event_times_ns:
        buckets[t // delta_ns] += 1
    read_slot = read_t_ns // delta_ns
    closed = [buckets.get(s, 0) for s in range(read_slot - window, read_slot)]
    return sum(closed) * 1_000_000_000 // (window * delta_ns)


def feed(est, per_bucket, n_buckets, start_bucket=0, k=10):
    for b in range(start_bucket, start_bucket + n_buckets):
        for i in range(per_bucket):
            est.observe(b * DELTA_NS + (i * DELTA_NS) // max(per_bucket, 1))


def test_empty_estimator_reads_zero():
    est = RateEstimatorWindow(0.1, 8)
    assert est.read(0) == 0
    assert est.read(10 * DELTA_NS) == 0


def test_steady_rate_after_full_window():
    est = RateEstimatorWindow(0.1, 8)
    feed(est, per_bucket=10, n_buckets=8)
    # All eight closed buckets hold 10 events: 80 over 0.8 s.
    assert est.read(8 * DELTA_NS) == 100


def test_rate_step_needs_window_turnover():
    est = RateEstimatorWindow(0.1, 8)
    feed(est, per_bucket=10, n_buckets=8)
    readings = []
    for k in range(8):
        feed(est, per_bucket=20, n_buckets=1, start_bucket=8 + k)
        readings.append(est.read((9 + k) * DELTA_NS))
    # 100 -> 200 ramp, one-eighth of the gap per closed bucket.
    assert readings[0] == 112
    assert readings == sorted(readings)
    assert readings[-1] == 200


def test_silence_decays_through_zero_fill():
    est = RateEstimatorWindow(0.1, 8)
    feed(est, per_bucket=10, n_buckets=8)
    assert est.read(12 * DELTA_NS) == 50  # four empty buckets closed
    assert est.read(11 * DELTA_NS) == 50  # an earlier time turns no bucket back
    assert est.read(30 * DELTA_NS) == 0  # window fully drained


@settings(max_examples=150)
@given(
    st.lists(st.integers(min_value=0, max_value=2_000_000_000), min_size=0, max_size=120),
    st.sampled_from([1, 2, 4, 8]),
    st.integers(min_value=0, max_value=1_000_000_000),
)
def test_estimator_matches_bucket_oracle(times, window, extra):
    times = sorted(times)
    read_t = (times[-1] if times else 0) + extra
    est = RateEstimatorWindow(0.1, window)
    for t in times:
        est.observe(t)
    assert est.read(read_t) == oracle_estimate(times, read_t, DELTA_NS, window)


def test_estimator_counts_increments():
    est = RateEstimatorWindow(0.1, 4)
    est.observe(0, increment=40)
    assert est.read(DELTA_NS) == 100


# ---------------------------------------------------------------------------
# Update emission triggers.


def test_time_trigger_first_packet_emits():
    trig = UpdateTrigger("time", tau_ns=3_000_000)
    assert trig.should_emit(50)
    assert not trig.should_emit(50 + 2_999_999)
    assert trig.should_emit(50 + 3_000_000)


def test_time_trigger_rearms_from_emission_time():
    trig = UpdateTrigger("time", tau_ns=1000)
    assert trig.should_emit(0)
    # A late packet re-arms at its own clock, not at t' + tau.
    assert trig.should_emit(5000)
    assert not trig.should_emit(5999)
    assert trig.should_emit(6000)


def test_time_trigger_zero_tau_emits_every_packet():
    trig = UpdateTrigger("time", tau_ns=0)
    assert all(trig.should_emit(t) for t in (0, 1, 2, 3))


def test_packet_trigger_counts_packets():
    trig = UpdateTrigger("packet", packet_period=3)
    fires = [trig.should_emit(t) for t in range(9)]
    assert fires == [False, False, True] * 3


def test_trigger_rejects_bad_mode():
    with pytest.raises(InvalidParameter):
        UpdateTrigger("sideways")


# ---------------------------------------------------------------------------
# Replica store reconciliation.


# make_store's registers: three wire states, the third not hosted, and
# one sum step.
RATE_A, RATE_B, TOTAL = 0, 1, 3


def make_store():
    store = ReplicaStore(((TOTAL, sum, (RATE_A, RATE_B)),), 3)
    store.configure_state(RATE_A, width_bits=32, origin_sw_id=1)
    store.configure_state(RATE_B, width_bits=32)
    return store


def hdr(sid, value, src=1):
    return UpdateHeader(src_sw_id=src, dst_sw_id=0, state_id=sid, replica_id=0, state_value=value)


def test_last_writer_wins_per_origin():
    store = make_store()
    status, prev = store.apply_update(hdr(0, 7), origin_ts_ns=100)
    assert (status, prev) == ("applied", -1)
    status, prev = store.apply_update(hdr(0, 9), origin_ts_ns=250)
    assert (status, prev) == ("applied", 100)
    assert store.read_global(RATE_A, 250) == 9
    # Duplicate and reordered deliveries are dropped.
    assert store.apply_update(hdr(0, 1), origin_ts_ns=250) == ("stale", None)
    assert store.apply_update(hdr(0, 1), origin_ts_ns=180) == ("stale", None)
    assert store.read_global(RATE_A, 300) == 9


def test_missing_update_reads_zero():
    store = make_store()
    assert store.read_global(RATE_A, 0) == 0
    assert store.read_global(TOTAL, 0) == 0


def test_own_state_ignores_gossip():
    store = make_store()
    store.write_local(RATE_B, 5)
    assert store.apply_update(hdr(1, 99), origin_ts_ns=50) == ("local", None)
    assert store.local_value(RATE_B, 60) == 5


def test_transit_vs_unknown():
    store = make_store()
    assert store.apply_update(hdr(2, 1), 10) == ("transit", None)
    assert store.apply_update(hdr(7, 1), 10) == ("unknown", None)
    # A state has one origin: the same id from another switch is unknown.
    assert store.apply_update(hdr(0, 1, src=3), 10) == ("unknown", None)
    assert store.read_global(RATE_A, 10) == 0


def test_global_read_mixes_local_and_remote():
    store = make_store()
    store.write_local(RATE_B, 5)
    store.apply_update(hdr(0, 7), origin_ts_ns=20)
    assert store.read_global(TOTAL, 30) == 12
    # A write re-runs the sum at once, within the same tick.
    assert store.read_global(TOTAL, 30) == 12
    store.write_local(RATE_B, 6)
    assert store.regs[TOTAL] == 13
    assert store.read_global(TOTAL, 30) == 13


def test_cached_read_ends_with_its_tick():
    # A bucket closes on each multiple of delta: the read on the first
    # ns of the next tick sees it, with no value stored in between.
    store = make_store()
    est = RateEstimatorWindow(0.1, 8)
    store.attach_local(RATE_B, est)
    feed(est, per_bucket=10, n_buckets=1)
    assert store.read_global(TOTAL, DELTA_NS - 1) == 0
    assert store.tick_end(DELTA_NS - 1) == DELTA_NS
    assert store.read_global(TOTAL, DELTA_NS) == 12


def test_estimator_backed_local_state():
    store = make_store()
    est = RateEstimatorWindow(0.1, 8)
    feed(est, per_bucket=10, n_buckets=8)
    store.attach_local(RATE_B, est)
    t = 8 * DELTA_NS
    assert store.local_value(RATE_B, t) == 100
    store.apply_update(hdr(0, 11), origin_ts_ns=t)
    assert store.read_global(TOTAL, t) == 111


def test_write_log_counts_local_writes():
    store = make_store()
    store.write_local(RATE_B, 1)
    store.write_local(RATE_B, 2)
    assert store.writes[RATE_B] == 2


def test_replica_memory_scales_with_hosted_states():
    for c in (1, 2, 4):
        store = ReplicaStore(((c, sum, tuple(range(c))),), c)
        store.configure_state(0, 32)
        for i in range(1, c):
            store.configure_state(i, 32, origin_sw_id=i)
        assert store.replica_memory_bits() == 32 * (c + 1)


def test_lowered_mean_holds_one_register():
    program = compile_application(build_dag(make_resource_lb_app(2)))
    store = ReplicaStore(program.steps, len(program.states))
    store.configure_state(program.registers["srv_load_0"], 32)
    store.configure_state(program.registers["srv_load_1"], 32, origin_sw_id=1)
    # Two state slots plus least_loaded and mean_load: the mean's sum and
    # shift share one aggregate register.
    assert store.replica_memory_bits() == 4 * 32


def test_replica_memory_counts_32_bits_for_unhosted_and_reduction_operands():
    # Two 16-bit states; peak is a reduction output that total reads.
    a, b = (StateSpec(n, ScopeFilter(), ValueKind.scalar(), width_bits=16) for n in "ab")
    app = ApplicationSpec("mem", (a, b), (
        ReductionSpec("peak", ReductionKind.MAX, ("a",)),
        ReductionSpec("total", ReductionKind.SUM, ("a", "b", "peak")),
        ReductionSpec("pair", ReductionKind.SUM, ("a", "b"))), (), ())
    program = compile_application(build_dag(app))
    only_a = ReplicaStore(program.steps, 2)
    only_a.configure_state(0, 16)
    # a's slot 16, peak 16; total and pair read b, not hosted here: 32.
    assert only_a.replica_memory_bits() == 16 + 16 + 32 + 32
    both = ReplicaStore(program.steps, 2)
    both.configure_state(0, 16)
    both.configure_state(1, 16, origin_sw_id=1)
    # Two 16-bit slots, peak 16, total 32 for reading peak, pair 16.
    assert both.replica_memory_bits() == 16 + 16 + 16 + 32 + 16


def test_reduction_chains_evaluate_recursively():
    a, b, m, twice = range(4)
    store = ReplicaStore(((m, max, (a, b)), (twice, sum, (m, m))), 2)
    store.configure_state(a, 32)
    store.configure_state(b, 32)
    store.write_local(a, 3)
    store.write_local(b, 8)
    assert store.read_global(twice, 1) == 16


# Each reference application's DAG at the sizes the strategy draws from.
STORE_APPS = {
    "ddos": (lambda n: make_ddos_app(n, 1000, 0.014), st.integers(1, 8)),
    "ratelimit": (lambda n: make_rate_limiter_app(n, 1e6, 10, 100.0), st.integers(1, 8)),
    "linklb": (make_link_lb_app, st.integers(1, 4)),
    "resourcelb": (make_resource_lb_app, st.sampled_from([1, 2, 4, 8])),
}


@settings(max_examples=200)
@given(st.sampled_from(sorted(STORE_APPS)), st.data())
def test_every_store_agrees_with_the_dag_oracle(app_name, data):
    make, sizes = STORE_APPS[app_name]
    dag = build_dag(make(data.draw(sizes)))
    program = compile_application(dag)
    # Configured as Simulator.install_app does, on a switch that hosts
    # every state but one; origin 0 is this switch.
    absent = data.draw(st.sampled_from(program.states))
    hosted = [cs for cs in program.states if cs is not absent]
    origins = {cs.name: data.draw(st.integers(0, 3)) for cs in hosted}
    store = ReplicaStore(program.steps, len(program.states))
    reg = program.registers
    for cs in hosted:
        store.configure_state(reg[cs.name], cs.width_bits, origins[cs.name] or None)

    def agrees(t):
        want = evaluate_dag(dag, truth)[0]
        for out in dag.reductions:
            assert store.read_global(reg[out], t) == want[out], (out, truth)

    truth = {cs.name: 0 for cs in program.states}
    writes = []
    if hosted:
        writes = data.draw(st.lists(st.tuples(st.sampled_from(hosted), st.integers(0, 2**32 - 1),
                                              st.booleans()), max_size=24))
    for t, (cs, value, read_now) in enumerate(writes, start=1):
        origin = origins[cs.name]
        if origin:
            hdr = UpdateHeader(origin, 0, reg[cs.name], 0, value)
            assert store.apply_update(hdr, origin_ts_ns=t)[0] == "applied"
        else:
            store.write_local(reg[cs.name], value)
        truth[cs.name] = value
        if read_now:
            agrees(t)
    agrees(len(writes) + 1)
    assert store.read_global(reg[absent.name], len(writes) + 1) == 0


# Deltas whose pairwise gcd lies below each of them, so a cache keyed on
# one estimator's buckets would miss the other's.
CACHE_DELTAS_S = (0.003, 0.004, 0.01)


@pytest.mark.parametrize("seed", range(24))
def test_cached_reads_equal_fresh_steps(seed):
    """Observes, local writes, applied updates and reads at nondecreasing
    t: every cached read equals the steps run afresh on the readings."""
    rng = random.Random(seed)
    est_a, est_b, local, remote, est_sum, total, peak = range(7)
    steps = ((est_sum, sum, (est_a, est_b)),
             (total, sum, (est_sum, local, remote)),
             (peak, max, (est_a, local, remote)))
    store = ReplicaStore(steps, 4)
    for sid in (est_a, est_b, local):
        store.configure_state(sid, 32)
    store.configure_state(remote, 32, origin_sw_id=1)
    deltas = rng.sample(CACHE_DELTAS_S, rng.choice((1, 2)))
    live = {sid: RateEstimatorWindow(d, rng.choice((1, 2, 4)))
            for sid, d in zip((est_a, est_b), deltas)}
    for sid, est in live.items():
        store.attach_local(sid, est)
    written = {local: 0, remote: 0, est_b: 0}
    unlive = [sid for sid in (local, est_b) if sid not in live]
    t = 0
    for origin_ts in range(1, 400):
        t += rng.choice((0, 0, 1, 999_999, 1_000_000, rng.randrange(5_000_000)))
        op = rng.randrange(4)
        if op == 0:
            live[rng.choice(sorted(live))].observe(t, rng.randrange(1, 50))
        elif op == 1:
            sid = rng.choice(unlive)
            written[sid] = rng.randrange(1000)
            store.write_local(sid, written[sid])
        elif op == 2:
            written[remote] = rng.randrange(1000)
            store.apply_update(hdr(remote, written[remote]), origin_ts_ns=origin_ts)
        else:
            out = rng.choice((est_sum, total, peak, est_a))
            got = store.read_global(out, t)
            fresh = [0] * 7
            for sid, value in written.items():
                fresh[sid] = value
            for sid, est in live.items():
                fresh[sid] = est.read(t)
            run_steps(steps, fresh)
            assert got == fresh[out], (seed, t, out)


# One compiled program per application, covering sum (ddos, ratelimit),
# minmax_argmin (linklb), and argmin and mean, a sum then a shift
# (resourcelb).
INTERLEAVED_APPS = {
    "ddos": make_ddos_app(4, 1000, 0.014),
    "ratelimit": make_rate_limiter_app(4, 1e6, 10, 100.0),
    "linklb": make_link_lb_app(2),
    "resourcelb": make_resource_lb_app(4),
}


def first_disagreement(app, seed, store_cls=ReplicaStore):
    """Drive a `store_cls` store and a FreshReadStore, both built from
    the app's compiled program and configured alike, through one random
    interleaving of applied updates, local writes, feeds and reads at
    nondecreasing times. A stored value is as often as not one that
    repeats: the value its register holds, or one of a few small ones.
    Returns the first read (t, register, got, want) on which the two
    differ, or None."""
    rng = random.Random(seed)
    program = compile_application(build_dag(app))
    n = len(program.states)
    stores = (store_cls(program.steps, n), FreshReadStore(program.steps, n))
    remote = set(rng.sample(range(n), rng.randrange(n + 1)))
    live, written = {}, []
    for sid, cs in enumerate(program.states):
        for store in stores:
            store.configure_state(sid, cs.width_bits, 1 if sid in remote else None)
        if sid in remote:
            continue
        if cs.value.type is ValueType.RATE_ESTIMATE:
            live[sid] = [RateEstimatorWindow(cs.value.delta_s, cs.value.window) for _ in stores]
            for store, est in zip(stores, live[sid]):
                store.attach_local(sid, est)
        else:
            written.append(sid)

    def value(sid):
        return rng.choice((stores[1].regs[sid], rng.randrange(3), rng.randrange(2**32),
                           rng.randrange(2**32)))

    t = 0
    for origin_ts in range(1, 300):
        t += rng.choice((0, 0, 1, DELTA_NS - 1, DELTA_NS, rng.randrange(2 * DELTA_NS)))
        op = rng.randrange(4)
        if op == 0 and remote:
            sid = rng.choice(sorted(remote))
            header = hdr(sid, value(sid))
            for store in stores:
                store.apply_update(header, origin_ts)
        elif op == 1 and written:
            sid = rng.choice(written)
            x = value(sid)
            for store in stores:
                store.write_local(sid, x)
        elif op == 2 and live:
            size = rng.randrange(1, 1500)
            for est in live[rng.choice(sorted(live))]:
                est.observe(t, size)
        else:
            reg = rng.randrange(len(program.registers))
            got, want = (store.read_global(reg, t) for store in stores)
            if got != want:
                return t, reg, got, want
    return None


@pytest.mark.parametrize("app_name", sorted(INTERLEAVED_APPS))
def test_kept_registers_match_fresh_reads(app_name):
    for seed in range(30):
        assert first_disagreement(INTERLEAVED_APPS[app_name], seed) is None, seed


class SkipsTheRerun(ReplicaStore):
    """A planted fault: a stored value re-runs no step."""

    def _store(self, sid, value):
        self.regs[sid] = value


class RerunsDirectReadersOnly(ReplicaStore):
    """A planted fault: a stored value re-runs only the steps that read
    it directly."""

    def _store(self, sid, value):
        regs = self.regs
        regs[sid] = value
        for out, fn, operands in self.readers[sid]:
            if sid in operands:
                regs[out] = fn([regs[x] for x in operands])


class SkipsUnlessItGrows(ReplicaStore):
    """A planted fault: a stored value re-runs the steps it feeds only
    when it exceeds what its register held, so a value that falls skips
    them as one that repeats does."""

    def _store(self, sid, value):
        if value > self.regs[sid]:
            super()._store(sid, value)
        else:
            self.regs[sid] = value


@pytest.mark.parametrize("fault", [SkipsTheRerun, RerunsDirectReadersOnly, SkipsUnlessItGrows])
def test_the_interleavings_catch_a_planted_fault(fault):
    assert any(first_disagreement(app, seed, fault)
               for app in INTERLEAVED_APPS.values() for seed in range(30))


def test_random_interleavings_converge_to_newest():
    rng = random.Random(0xD1CE)
    for _ in range(50):
        store = make_store()
        stamps = rng.sample(range(1000), 20)
        for ts in stamps:
            store.apply_update(hdr(0, ts * 7), origin_ts_ns=ts)
        # Whatever the delivery order, the newest origin timestamp sticks.
        assert store.read_global(RATE_A, 2000) == max(stamps) * 7


# ---------------------------------------------------------------------------
# Flood port selection.


def test_flood_ports_exclude_ingress():
    # fig7 at two replicas: the tree is the path sw1 - sw2 - sw3. An
    # update leaves on every tree port but the one it came in on, and
    # the switch's own (key None) on all of them; it never arrives over
    # a port off the tree (sw1-sw4), and off the tree nothing floods.
    built = build_simulation(parse_scenario(FIG7), replicas=2)
    flood = {sw: {ingress: tuple(ld.dst for ld in links) for ingress, links in rt.flood.items()}
             for sw, rt in built.sim.switch_rt.items()}
    assert flood == {
        "sw1": {None: ("sw2",), "sw2": ()},
        "sw2": {None: ("sw1", "sw3"), "sw1": ("sw3",), "sw3": ("sw1",)},
        "sw3": {None: ("sw2",), "sw2": ()},
        "sw4": {None: ()},
    }

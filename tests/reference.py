"""Reference semantics that tests check the simulator against.

`evaluate_dag` evaluates an application DAG directly, with no lowering
and no replica store: what a switch computes from the compiled program
must agree with it wherever the program compiles.

`ReferenceSimulator` is the simulator in plain form, with every run-time
shortcut turned off: whatever the simulator exports, the reference must
export byte for byte. A new shortcut in `Simulator` lands together with
its plain form here.

Run as a script, it compares the two on the benchmark's workloads at
their full horizons, and exits non-zero naming the workload and the
exported file that differ. Per workload it also prints the reference's
heap pushes, the slots the simulator opened, the simulator's calls to
`run_steps` and `UpdateTrigger.should_emit`, and, from the start of the
run on (once `_build_log` has built each flow's records), its `Packet`
constructions, its `_eval_change_triggers` calls and the stores that
re-ran a state's readers::

    PYTHONPATH=src python tests/reference.py
"""

import contextlib
import heapq
import importlib.util
import itertools
import json
import os
import sys
import tempfile
from collections import deque
from pathlib import Path

from repdp import ReductionKind, Simulator, build_simulation, export_metrics, parse_scenario
from repdp import replication, runner, simcore
from repdp.compiler import PRIMITIVES, run_steps
from repdp.errors import SimulationError
from repdp.replication import ReplicaStore, UpdateTrigger
from repdp.simcore import LinkDir, Packet


def apply_reduction(kind, values):
    """A DAG reduction over its input values.

    Mean is floor division over any input count; the switch lowering
    (sum + shift) only accepts power-of-two counts and agrees there.
    """
    vals = list(values)
    if kind is ReductionKind.MEAN:
        return sum(vals) // len(vals)
    return PRIMITIVES[kind.value](vals)


def evaluate_dag(dag, state_values, uniform01=None):
    """Evaluate the application DAG over concrete state values.

    Returns (outputs, fires, actions): every state and reduction value
    by name, each trigger's fire decision, and (action, trigger, detail)
    per firing trigger in declaration order, the detail being the
    selector's value, the fixed port or the message. A probabilistic
    trigger without a uniform draw does not fire.
    """
    env = dict(state_values)
    for r in dag.reductions.values():
        env[r.output] = apply_reduction(r.primitive, [env[i] for i in r.inputs])
    fires = {}
    actions = []
    activities = {a.name: a for a in dag.app.activities}
    for t in dag.app.triggers:
        fired = fires[t.name] = t.predicate.test()(env[dag.trigger_inputs[t.name]], uniform01)
        if fired:
            a = activities[t.activity]
            detail = a.message
            if a.selector is not None:
                detail = env[a.selector]
            elif a.selector_const is not None:
                detail = a.selector_const
            actions.append((a.action.value, t.name, detail))
    return env, fires, actions


class DequeLink:
    """One link direction as a FIFO of pending departures: the deque
    link model the simulator started from, kept as the reference for
    its admission rule and timing."""

    def __init__(self, delay_ns, capacity_bps, queue_limit):
        self.delay_ns = delay_ns
        self.capacity_bps = capacity_bps
        self.queue_limit = queue_limit
        self.busy_until = 0
        self.backlog = deque()

    def send(self, size_bits: int, now: int) -> int | None:
        """Arrival time at the far end, or None if the queue is full.

        The backlog holds departure times of packets not yet fully
        serialized (the one in service included), oldest first; its
        length against queue_limit is the drop test.
        """
        bl = self.backlog
        while bl and bl[0] <= now:
            bl.popleft()
        if len(bl) >= self.queue_limit:
            return None
        start = now if now > self.busy_until else self.busy_until
        end = start + size_bits * 1_000_000_000 // self.capacity_bps
        self.busy_until = end
        bl.append(end)
        return end + self.delay_ns


class FreshReadStore(ReplicaStore):
    """A replica store that re-runs a state's readers on every stored
    value, and reads every live source and runs every reduction step on
    each read. Its `fresh_until` stays -1, so the simulator never reads
    a register past it."""

    def _store(self, sid, value):
        regs = self.regs
        self.changed = regs[sid] != value
        regs[sid] = value
        for out, fn, operands in self.readers[sid]:
            regs[out] = fn([regs[x] for x in operands])

    def read_global(self, reg, t_ns):
        regs = self.regs
        for sid, src in self.live.items():
            regs[sid] = src.read(t_ns)
        run_steps(self.steps, regs)
        return regs[reg]


class UngatedTrigger(UpdateTrigger):
    """An update trigger whose `due` stays -1, so the simulator asks it
    on every packet."""

    __slots__ = ()

    def should_emit(self, t_clk_ns):
        fire = super().should_emit(t_clk_ns)
        self.due = -1
        return fire


class AddressedPacket(Packet):
    """A data packet of its own, with one address that the measurement
    stage rewrites in place: its `measured` record is the packet itself,
    now addressed to its destination host `dst`."""

    __slots__ = ("dst",)

    def __init__(self, uid, flow, to, size_bits, dst):
        super().__init__(uid, flow, to, size_bits)
        self.dst = dst

    @property
    def measured(self):
        self.to = self.dst
        return self


class ReferenceSimulator(Simulator):
    """The simulator with every run-time shortcut turned off:

    - events wait on one binary heap of (time, seq, kind, payload)
      entries, seq counting pushes, instead of in per-time slots;
    - links are `DequeLink`s, and every arrival, at a host too, waits on
      the heap until the loop pops it, so nothing is counted when its
      link admits it and no switch hop folds;
    - each emission sends a fresh `AddressedPacket`, whose address its
      monitor rewrites, instead of its flow's shared records;
    - a packet's scopes are matched at its switch, from its flow's
      constants, instead of once per flow when the run starts;
    - each store is a `FreshReadStore`, so no stored value skips its
      readers and no read is cached;
    - each update trigger is an `UngatedTrigger`, asked on every packet
      whatever its `due` time;
    - a switch's change triggers run after every feed and every
      applied update, not only once the estimator tick they last ran in
      has ended (or, on an update, once it changed a register).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.deque_links = {ld: DequeLink(ld.delay_ns, ld.capacity_bps, self.queue_limit)
                            for ld in self._links}
        self._heap = []
        self._seq = itertools.count(1)

    def _schedule(self, t, kind, payload):
        heapq.heappush(self._heap, (t, next(self._seq), kind, payload))

    def run_until(self, t_end_s=None):
        """Pop and run events in (time, seq) order up to t_end_s."""
        if self.log is None:
            self._build_log()
        t_end = self.t_end_ns if t_end_s is None else round(t_end_s * 1e9)
        heap, log = self._heap, self.log
        while heap and heap[0][0] <= t_end:
            t, _, kind, payload = heapq.heappop(heap)
            if t < self.t_now:
                raise SimulationError("event queue went backwards")
            self.t_now = t
            log.events_processed += 1
            if not isinstance(kind, LinkDir):
                kind(payload, t)
            elif kind.far is None:
                log.flow_delivered[payload.flow] += 1
                log.flow_bits[payload.flow][t // self.bin_ns] += payload.size_bits
            elif payload.is_update:
                self._on_update(kind.far, kind, payload, t)
            else:
                self._on_data(kind.far, payload, t)
        # Nothing waits on the slots: this checks t_end_s and folds the
        # horizon bin into the last bin.
        return super().run_until(t_end_s)

    def _build_log(self):
        super()._build_log()
        for fl in self.flows:
            fl.packet = None

    def _data_packet(self, fl):
        uid = self._uid
        self._uid = uid + 1
        return AddressedPacket(uid, fl.row, fl.monitor or fl.dst, fl.size_bits, fl.dst)

    def install_app(self, *args, **kwargs):
        super().install_app(*args, **kwargs)
        for rt in self.switch_rt.values():
            if rt.store is not None:
                rt.store.__class__ = FreshReadStore
        for st in self._states:
            if st.trig is not None:
                st.trig.__class__ = UngatedTrigger

    def _send(self, ld, pkt, t):
        arr = self.deque_links[ld].send(pkt.size_bits, t)
        log = self.log
        if arr is None:
            log.queue_drops[ld.row] += 1
            if pkt.flow >= 0:
                log.flow_queue_drops[pkt.flow] += 1
            if self.trace is not None:
                self.trace.append(f"{t} drop_queue {ld.src} uid={pkt.uid} to={ld.dst}")
            return None
        (ld.repl if pkt.is_update else ld.data)[t // self.bin_ns] += pkt.size_bits
        self._schedule(arr, ld, pkt)
        return arr

    def _eval_change_triggers(self, sw, t):
        super()._eval_change_triggers(sw, t)
        # An evaluation covers no tick: the next feed runs them again.
        sw.triggers_until = -1

    def _on_data(self, sw, pkt, t):
        fl = self.flows[pkt.flow]
        seen = (fl.out.cls, fl.syn, fl.dst)
        if pkt.to == sw.name:
            fl.monitors = tuple((m.est.observe, fl.size_bits if m.use_bits else 1, m.sid)
                                for m in sw.monitors if m.scope.matches(*seen))
            fl.triggers = tuple(tr for tr in sw.packet_triggers if tr.scope.matches(*seen))
        for ld, mons in sw.egress_monitors.items():
            matched = tuple((m.est.observe, fl.size_bits if m.use_bits else 1, m.sid)
                            for m in mons if m.scope.matches(*seen))
            ld.egress = {fl.row: matched} if matched else None
        super()._on_data(sw, pkt, t)


def build_reference(cfg, **kwargs):
    """`build_simulation(cfg, **kwargs)` on a `ReferenceSimulator`."""
    make = runner.Simulator
    runner.Simulator = ReferenceSimulator
    try:
        return build_simulation(cfg, **kwargs)
    finally:
        runner.Simulator = make


def exported_family(sim, log, out_dir):
    """The CSV family `log` exports into `out_dir`, with the run's
    trace.txt when it collected one: {file name: bytes}."""
    export_metrics(log, str(out_dir), switch_names=sim.topo.switches)
    if sim.trace is not None:
        sim.save_trace(os.path.join(out_dir, "trace.txt"))
    return {name: Path(out_dir, name).read_bytes() for name in sorted(os.listdir(out_dir))}


@contextlib.contextmanager
def counting(owner, name, when=None):
    """Count the calls to `owner.name` while the block runs, or only
    those whose arguments satisfy `when` as the call starts: yields a
    one-item list that holds the count."""
    count = [0]
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        if when is None or when(*args, **kwargs):
            count[0] += 1
        return fn(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield count
    finally:
        setattr(owner, name, fn)


def rerunning(store, sid, value):
    """Whether `ReplicaStore._store(store, sid, value)` re-runs the
    state's readers."""
    return store.regs[sid] != value


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = os.path.join(root, "bench")
    with open(os.path.join(bench, "workloads.json")) as fh:
        spec = json.load(fh)
    gen = importlib.util.spec_from_file_location("bench_meshgen",
                                                 os.path.join(bench, "meshgen.py"))
    meshgen = importlib.util.module_from_spec(gen)
    gen.loader.exec_module(meshgen)
    seed = spec["default_seed"]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, wl in spec["workloads"].items():
            path = os.path.join(tmp, f"{name}.scn")
            if wl["scenario"] is None:
                with open(path, "w") as fh:
                    fh.write(meshgen.generate(seed))
            else:
                path = os.path.join(root, wl["scenario"])
            cfg = parse_scenario(path)
            runs = []
            for build in (build_simulation, build_reference):
                with (counting(simcore, "heappush") as opened,
                      counting(replication, "run_steps") as steps,
                      counting(UpdateTrigger, "should_emit") as asked):
                    sim = build(cfg, replicas=wl["replicas"], seed=seed).sim
                    # The run starts: the flows get their records.
                    sim._build_log()
                    with (counting(simcore, "Packet") as made,
                          counting(Simulator, "_eval_change_triggers") as evals,
                          counting(ReplicaStore, "_store", rerunning) as reruns):
                        log = sim.run_until()
                    out = os.path.join(tmp, name, type(sim).__name__)
                    os.makedirs(out)
                    runs.append((exported_family(sim, log, out),
                                 (opened[0], steps[0], asked[0], made[0], evals[0], reruns[0]),
                                 sim))
            (got, (opened, steps, asked, made, evals, reruns), _), (want, _, ref) = runs
            differ = sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))
            for f in differ:
                print(f"{name}: {f} differs from the reference")
            if not differ:
                print(f"{name}: matches the reference ({len(got)} files)")
            # The reference pushes each event on its heap; the simulator
            # pushes a time only to open a slot.
            print(f"{name}: {next(ref._seq) - 1:,} reference heap pushes,"
                  f" {opened:,} simulator slots opened")
            # The simulator runs every reduction step once per store and
            # estimator tick, and asks a time trigger only once it is due.
            print(f"{name}: simulator calls {steps:,} run_steps,"
                  f" {asked:,} should_emit")
            # An untraced run builds only its update frames; an update
            # runs the change triggers only if it changed its register or
            # the tick they last ran in has ended, and only a changed
            # register re-runs its readers.
            print(f"{name}: once the run starts the simulator builds {made:,} Packets,"
                  f" calls {evals:,} _eval_change_triggers and re-runs readers"
                  f" {reruns:,} times")
            failed += bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

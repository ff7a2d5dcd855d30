"""Deterministic discrete-event network simulator.

Time is integer nanoseconds. Events run in time order, and events at
one time in the order they were queued, so identical inputs replay
identically. The queue is a calendar keyed on exact times: a heap of
the distinct pending times, as plain ints, and per time its slot, the
list of events queued at it. Queueing at a time with a slot appends to
it, and only a new slot pushes its time on the heap. The loop pops a
time and runs its slot in order; an event queued at the running time
opens a fresh slot there, which runs next. That is exactly the order of
a (time, push count) heap, with one heap entry per time instead of per
event and no ties to compare. A packet arrival is the event
(link, packet): the `LinkDir` it came over carries the far-end switch
and the port class the packet enters it on. Every other event is
(handler, payload), and the loop calls handler(payload, t). Switches
run a fixed ingress pipeline per packet, one handler per packet kind:

  1. replication updates are reconciled into the local store and
     flooded along the distribution tree (minus the ingress port);
  2. a data packet is one of its flow's two shared records, built when
     the run starts and never written: the one its source sends, whose
     one address `to` is the flow's measurement switch (its destination
     host without one), and the one it becomes once measured there,
     addressed to the destination host. At the measurement switch the
     packet feeds the matching state estimators, then per-packet
     activities (policing, steering, rule insertion) and edge-triggered
     controller notifications run, and the packet goes on as its second
     record. A traced run names each packet, so it builds one such pair
     per emission, carrying the emission's uid.
     What a scope matches (the port class a packet enters the network
     on, its SYN flag, its destination) is constant per flow, so each
     flow's monitors, packet triggers and egress monitors are resolved
     once, when the run starts, and the pipeline only walks them, a
     monitor as its estimator's `observe`, the count the flow's packets
     add and its state;
  3. unless steered or dropped, the packet is forwarded on the
     switch's one table, `route[to]`, where a pinned flow rule has
     overwritten the shortest-path entry for its destination host;
     routes and egress maps resolve straight to a link;
  4. last, each state owned by the switch checks its update trigger
     against the traffic-driven clock and may emit an update frame.

Links model store-and-forward serialization plus propagation delay with
a bounded egress queue; overflow drops the packet. A packet's arrival at
a host only counts it, so when it falls within the running `run_until`
call it is counted as the link admits the packet, not queued: it is
still one event, and every return sees the same totals. The hop before
it folds the same way where nothing but the host link can see it: when
one link L is a host link H's only feeder over every flow's static
route, and the switch between them is not the packet's monitor, owns no
update trigger and has no egress monitor on H, the switch only forwards
L's packets to H in L's FIFO order (Chandy and Misra's single-sender
channel argument). So, without a trace, steering or flow rules, a
packet that L admits is admitted on H at once, at its arrival time at
the switch, which still counts as one event, unless that arrival falls
past the running call or an earlier packet for H is still queued.
Change triggers, too, run only when what they read can have moved: at
once on each scalar write and on each applied update that changed its
register, and after a feed or an update that changed nothing only once
the estimator tick they last ran in has ended. The replica store keeps
its registers current, so a packet trigger reads its register with one
compare against the store's `fresh_until` and calls into the store only
once a tick has ended; an update trigger is asked only from its `due`
time on. A link keeps the departure times of
its last `queue_limit` admitted packets in a ring: departures never
decrease, so the queue is full exactly when the oldest of them is still
in the future. The newest is kept apart as the time the link falls
idle: a packet that finds the link idle finds its queue empty and is
admitted without reading the ring. Controller messages travel out of
band with a fixed delay and consume no link capacity.

Per-packet accounting writes straight into the `MetricsLog`'s plain
int lists. A binned row's index is `t // bin_ns`; only an event at
exactly the horizon lands in the bin past the last, and every return
from `run_until` folds that bin into the last and zeroes it, so a
resumed run keeps counting right.

A whole run is usually one `run_until` call, so its loop ends in an
unconditional jump back: CPython 3.11 specializes a code object only
after calls or plain backward jumps have warmed it, and a conditional
`while` back edge never does.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from heapq import heappop, heappush

from .apps import RateEstimatorWindow
from .errors import InvalidParameter, SimulationError
from .metrics import CONTROLLER_DELAY_NS, MetricsLog
from .model import (
    CONTROLLER_PORT,
    ActionKind,
    PredicateKind,
    ValueType,
)
from .replication import (
    MIN_FRAME_BITS,
    ReplicaStore,
    UpdateHeader,
    UpdateTrigger,
    update_frame_bits,
)

_M64 = (1 << 64) - 1

# The measurement stage's verdict on a packet it dropped.
_DROPPED = object()

# Wire size of an update frame: the simulator sends one header a frame.
_UPDATE_BITS = update_frame_bits(1)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class LinkDir:
    """One direction of a link: serialization, delay, bounded queue.

    `far` is the switch at the far end (None for a host) and `cls` the
    port class a packet takes on entering it. `data` and `repl` are the
    direction's binned rows of the run's log, bound when the run starts.
    `ring` holds the departure times of the last `queue_limit` packets
    admitted, `head` indexing the oldest, and `busy` the newest, when the
    link falls idle; `Simulator._send` admits and times packets on it,
    and reads the ring only while the link is busy. `egress` maps a flow
    row to the feeds (see `_feeds`) of the monitors of this link's
    switch that count the flow's packets sent on it, resolved when the
    run starts (None: no egress monitor watches the link). `fold`, set
    when the run starts, maps a host to its link from the far switch
    when this link alone feeds that link and the switch only forwards
    to it (None: no such host). A host link's `held_until` is the latest
    arrival at its switch of a packet for it that was queued as an
    event.
    """

    __slots__ = ("src", "dst", "delay_ns", "capacity_bps", "row", "far", "cls",
                 "data", "repl", "ring", "head", "busy", "egress", "fold", "held_until")

    def __init__(self, src, dst, delay_ns, capacity_bps, queue_limit, row, far, cls):
        self.src = src
        self.dst = dst
        self.delay_ns = delay_ns
        self.capacity_bps = capacity_bps
        self.row = row
        self.far = far
        self.cls = cls
        self.data: list[int] | None = None
        self.repl: list[int] | None = None
        self.ring = array("q", bytes(8 * queue_limit))
        self.head = 0
        self.busy = 0
        self.egress: dict[int, tuple[tuple, ...]] | None = None
        self.fold: dict[str, LinkDir] | None = None
        self.held_until = -1


class Packet:
    """A data packet or an update frame in flight. A data packet is a
    record that no code writes once it is built: its one address `to`
    is its flow's measurement switch, and then `measured` is the record
    the measurement stage goes on with, addressed to the destination
    host; a flow without a monitor sends a record addressed to its
    destination host from the start. An untraced run shares one pair of
    records among all of a flow's packets, whose `uid` is then -1. An
    update frame carries one `header` and no address: the distribution
    tree floods it."""

    __slots__ = ("uid", "flow", "to", "size_bits", "is_update", "header",
                 "origin_ts", "origin_writes", "measured")

    def __init__(self, uid, flow, to, size_bits, is_update=False,
                 header=None, origin_ts=0, origin_writes=0):
        self.uid = uid
        self.flow = flow
        self.to = to
        self.size_bits = size_bits
        self.is_update = is_update
        self.header = header
        self.origin_ts = origin_ts
        self.origin_writes = origin_writes


class FlowRT:
    """A flow's generator state. `segments` holds (start_ns, rate_pps)
    pairs and `out` is the source host's link; its packets are first
    addressed to `monitor`, or to `dst` without one. `packet`, set when
    an untraced run starts, is the record every one of its packets is
    sent as (see `Packet`); it stays None in a traced run, where each
    emission builds its own. The current segment's start and rate, and
    the next segment's start (None after the last), are kept unpacked
    for the per-packet path. `monitors` and `triggers` are the monitor
    feeds (see `_feeds`) and packet triggers of the measurement switch
    whose scope the flow matches, in the switch's order, resolved when
    the run starts."""

    __slots__ = ("row", "name", "src", "dst", "size_bits", "syn",
                 "segments", "stop_ns", "monitor", "out", "packet", "seg", "k",
                 "seg_start", "rate", "next_start", "monitors", "triggers")

    def __init__(self, row, name, src, dst, size_bits, syn,
                 segments, stop_ns, monitor, out):
        self.row = row
        self.name = name
        self.src = src
        self.dst = dst
        self.size_bits = size_bits
        self.syn = syn
        self.segments = segments
        self.stop_ns = stop_ns
        self.monitor = monitor
        self.out = out
        self.packet: Packet | None = None
        self.monitors: tuple[tuple, ...] = ()
        self.triggers: tuple[_TriggerRT, ...] = ()
        self.enter(0)

    def enter(self, seg: int):
        """Make segment `seg` current, with no packet sent in it yet."""
        self.seg = seg
        self.k = 0
        self.seg_start, self.rate = self.segments[seg]
        self.next_start = self.segments[seg + 1][0] if seg + 1 < len(self.segments) else None


def _records(fl: FlowRT, uid: int) -> Packet:
    """A packet of flow `fl` as its source sends it, with its `measured`
    record; both carry `uid`."""
    pkt = Packet(uid, fl.row, fl.monitor or fl.dst, fl.size_bits)
    pkt.measured = Packet(uid, fl.row, fl.dst, fl.size_bits)
    return pkt


class _TriggerRT:
    """A switch's copy of one trigger step: `output` is the register of
    the reduction its predicate reads and `selector` that of its
    activity's selector (None without one), `kind` its activity's
    action, `test` its predicate as one call, and `draws` says whether
    the predicate takes a uniform draw from the switch's RNG."""

    __slots__ = ("name", "output", "test", "draws", "kind", "scope", "message",
                 "selector", "selector_const", "egress_map", "prev")

    def __init__(self, step, registers, egress_map):
        self.name = step.name
        self.output = registers[step.input]
        self.test = step.predicate.test()
        self.draws = step.predicate.kind is PredicateKind.PROBABILISTIC
        self.kind = step.action
        self.scope = step.scope
        self.message = step.message
        self.selector = None if step.selector is None else registers[step.selector]
        self.selector_const = step.selector_const
        self.egress_map = egress_map
        self.prev = False


class _StateRT:
    """One state of the installed application: its wire id `sid`, the
    `origin` switch that writes it, the origin's `replica_id` (its
    position among the state's replicas), the state's index in the run's
    name table (set when the run starts) and its update trigger (None
    when the plan gives the state no period)."""

    __slots__ = ("name", "sid", "origin", "replica_id", "name_id", "trig")

    def __init__(self, name, sid, origin, replica_id, trig):
        self.name = name
        self.sid = sid
        self.origin = origin
        self.replica_id = replica_id
        self.name_id = -1
        self.trig = trig


class _Monitor:
    """A rate-estimate state `sid` as its origin feeds it: the packets
    its scope matches go into its estimator `est`, counted in bits or
    in packets (`use_bits`)."""

    __slots__ = ("sid", "scope", "est", "use_bits")

    def __init__(self, sid, scope, est, use_bits):
        self.sid = sid
        self.scope = scope
        self.est = est
        self.use_bits = use_bits


def _scoped(elements, fl: FlowRT) -> tuple:
    """The monitors or triggers among `elements` whose scope matches the
    flow's packets: their port class on entering the network, SYN flag
    and destination."""
    return tuple(e for e in elements if e.scope.matches(fl.out.cls, fl.syn, fl.dst))


def _feeds(monitors, fl: FlowRT) -> tuple:
    """What each of `monitors` whose scope matches the flow does with
    one of its packets: (its estimator's observe, the packet's count in
    the monitor's unit, the monitor's state)."""
    return tuple((m.est.observe, fl.size_bits if m.use_bits else 1, m.sid)
                 for m in _scoped(monitors, fl))


class SwitchRT:
    """One switch at run time: its ports, its forwarding table `route`
    and tree flood sets, its replica store, and the monitors and
    triggers installed on it. `route` has one link per address a packet
    can carry: each flow's destination host (at the host's own switch,
    the host's port; an insert_flow_rule activity overwrites the entry
    at its switch) and each monitor switch other than this one. Its
    `sw_id` is its `Topology.index`, which the update headers it sends
    carry. `rng`
    is the uniform generator its probabilistic predicates draw from:
    install_app creates it only at a switch that holds a packet trigger
    whose predicate draws, seeded from the run's seed and the switch's
    index, and leaves it None everywhere else."""

    __slots__ = ("name", "sw_id", "name_id", "ports", "route", "flood", "store",
                 "monitors", "egress_monitors", "packet_triggers", "change_triggers",
                 "triggers_until", "own_updates", "rng")

    def __init__(self, name, sw_id):
        self.name = name
        self.sw_id = sw_id
        # Index of the name in the run's MetricsLog name table, for a
        # switch that hosts a store.
        self.name_id = -1
        self.ports: dict[str, LinkDir] = {}
        self.route: dict[str, LinkDir] = {}
        # Distribution-tree egress links per ingress port; None keys the
        # switch's own update emission.
        self.flood: dict[str | None, tuple[LinkDir, ...]] = {}
        self.store: ReplicaStore | None = None
        self.monitors: list[_Monitor] = []
        # Monitors of the traffic forwarded on each egress link; each
        # link's `egress` holds what they match per flow.
        self.egress_monitors: dict[LinkDir, list[_Monitor]] = {}
        self.packet_triggers: list[_TriggerRT] = []
        self.change_triggers: list[_TriggerRT] = []
        # The end of the last change-trigger evaluation's estimator
        # tick: every scalar write, and every applied update that changes
        # a register, runs the change triggers at once, so until that
        # tick ends no trigger input can change.
        self.triggers_until = -1
        # The states this switch writes that have an update trigger.
        self.own_updates: list[_StateRT] = []
        self.rng: random.Random | None = None


class Simulator:
    """Event-driven network with replicated in-switch application state.

    Setup costs what the run uses: a switch gets a random generator only
    when a packet trigger installed on it draws, and every switch gets a
    route toward a node only once a flow names it as its destination
    host or its monitor, read from the predecessor row of that node's
    switch."""

    def __init__(self, topo, seed=1, t_end_s=60.0, metrics_bin_s=0.5,
                 queue_limit=100, collect_trace=False):
        if queue_limit < 1:
            raise InvalidParameter(f"queue_limit must be at least 1, got {queue_limit}",
                                   "queue_limit")
        for key, what, x in (("t_end", "t_end", t_end_s),
                             ("metrics_bin", "metrics bin", metrics_bin_s)):
            if not math.isfinite(x) or round(x * 1e9) < 1:
                raise InvalidParameter(f"{what} must be a finite time of at least 1ns, got {x} s",
                                       key)
        self.topo = topo
        self.t_end_ns = round(t_end_s * 1e9)
        self.bin_ns = round(metrics_bin_s * 1e9)
        self.queue_limit = queue_limit
        self.trace: list[str] | None = [] if collect_trace else None
        self.t_now = 0
        self.log: MetricsLog | None = None
        self._flow_sent: list[int] = []
        self.flows: list[FlowRT] = []
        self._flow_names: set[str] = set()
        # The event queue: a heap of the distinct pending times, and per
        # time its slot, the (kind, payload) events queued at it in push
        # order.
        self._times: list[int] = []
        self._slots: dict[int, list] = {}
        # A flow's next packet is its most frequent event: bind its
        # handler once.
        self._emit = self._emit_flow
        self._app_installed = False
        self._uid = 0
        self._upd_uid = -1
        # The bound of the running run_until call (-1 outside one).
        self._bound = -1
        # The installed application's states, by wire id, and its
        # registers by name (a state's register is its wire id).
        self._states: list[_StateRT] = []
        self._registers: dict[str, int] = {}
        self.plan_text = ""

        self._seed = seed & _M64
        # The addresses (destination hosts and monitors) the tables route toward.
        self._routed: set[str] = set()
        # The switches by path-table index (`topo.index` lists them in
        # index order), and by name in declaration order.
        self._by_index = [SwitchRT(sw, i) for sw, i in topo.index.items()]
        self.switch_rt = {sw: self._by_index[topo.index[sw]] for sw in topo.switches}

        self._links: list[LinkDir] = []
        # Each host's one link: its keys are the topology's hosts.
        self._host_out: dict[str, LinkDir] = {}
        for ln in topo.links:
            for a, b in ((ln.u, ln.v), (ln.v, ln.u)):
                far = self.switch_rt.get(b)
                ld = LinkDir(a, b, ln.delay_ns, ln.capacity_bps, queue_limit,
                             len(self._links), far, ln.port_class(b) if far is not None else None)
                self._links.append(ld)
                if a in self.switch_rt:
                    self.switch_rt[a].ports[b] = ld
                else:
                    self._host_out[a] = ld

    # ------------------------------------------------------------------
    # wiring

    def install_app(self, program, placement, plan,
                    egress_observers=None, egress_maps=None):
        """Deploy one compiled application onto the switches.

        egress_observers maps a rate-estimate state's name to a neighbor
        of its origin: the state then measures traffic the origin
        forwards to that neighbor instead of matching ingress packets.
        egress_maps gives, per set_egress or insert_flow_rule activity
        and per switch where one of its triggers runs, the port list
        indexed by the activity's selector output; each port must
        neighbor the switch. A trigger runs at the switches that host
        every state it reads; triggers whose activities share a
        sequential_group must run at the same switches. Each state whose
        name the plan's `solutions` lists gets an update trigger at its
        origin, so a plan without solutions installs no replication. Each
        of the plan's tree edges must link two switches, and each switch
        floods updates to its distribution-tree neighbors in name order.
        A simulator holds one application, and install_app checks it
        whole, building its rate estimators, before it writes anything:
        an error leaves the simulator as it was.
        """
        if self._app_installed:
            raise SimulationError("an application is already installed")
        if self.log is not None:
            raise SimulationError("the application must be installed before the run starts")
        egress_observers = egress_observers or {}
        egress_maps = egress_maps or {}
        # Each rate-estimate state's monitor, by wire id, with the
        # neighbor it observes (None: it matches ingress packets).
        states, monitors = [], {}
        for sid, cs in enumerate(program.states):
            origin = self.switch_rt[placement.origin[cs.name]]
            sol = plan.solutions.get(cs.name)
            trig = None if sol is None else UpdateTrigger(sol.mode, tau_ns=sol.tau_ns,
                                                          packet_period=sol.packet_period)
            states.append(_StateRT(cs.name, sid, origin,
                                   placement.nodes[cs.name].index(origin.name), trig))
            if cs.value.type is not ValueType.RATE_ESTIMATE:
                # Scalars are written by schedule_scalar's loads.
                continue
            nbr = egress_observers.get(cs.name)
            if nbr is not None and nbr not in origin.ports:
                raise SimulationError(f"state {cs.name}: egress observer {nbr} is no neighbor"
                                      f" of its origin {origin.name}")
            est = RateEstimatorWindow(cs.value.delta_s, cs.value.window)
            monitors[sid] = (_Monitor(sid, cs.scope, est, cs.value.unit == "bits"), nbr)
        if stray := sorted(egress_observers.keys() - {states[sid].name for sid in monitors}):
            raise SimulationError(f"egress observer on {stray[0]}: no rate-estimate state"
                                  f" of {program.app_name}")
        # Each trigger's copy at each switch where it runs, with the links
        # its egress map names there, and where each activity that takes
        # an egress map runs.
        sites, seq_sites, map_sites = [], {}, {}
        for step in program.triggers:
            at = sorted(set.intersection(*(set(placement.nodes[s]) for s in step.upstream)))
            if step.action in (ActionKind.SET_EGRESS, ActionKind.INSERT_FLOW_RULE):
                map_sites.setdefault(step.activity, set()).update(at)
            group = step.sequential_group
            first, first_at = seq_sites.setdefault(group, (step.name, at))
            if group is not None and first_at != at:
                raise SimulationError(f"sequential_group {group}: trigger {first} runs on"
                                      f" {','.join(first_at)} but {step.name} on"
                                      f" {','.join(at)}")
            for sw in at:
                rt = self.switch_rt[sw]
                egress = egress_maps.get(step.activity, {}).get(sw)
                if egress is not None:
                    for p in egress:
                        if p not in rt.ports:
                            raise SimulationError(f"activity {step.activity}: egress map port"
                                                  f" {p} is no neighbor of {sw}")
                    egress = tuple(rt.ports[p] for p in egress)
                sites.append((rt, _TriggerRT(step, program.registers, egress)))
        for activity, per_sw in sorted(egress_maps.items()):
            if activity not in map_sites:
                raise SimulationError(f"egress map for {activity}: no set_egress or"
                                      f" insert_flow_rule activity of {program.app_name}")
            if idle := sorted(per_sw.keys() - map_sites[activity]):
                raise SimulationError(f"activity {activity}: egress map for {idle[0]},"
                                      f" where none of its triggers run")
        # Each switch's distribution-tree neighbors: updates flood only
        # between switches, so none ever reaches a host.
        tree = {sw: set() for sw in self.switch_rt}
        for a, b in sorted(plan.tree_edges):
            if a not in tree or b not in tree or b not in self.switch_rt[a].ports:
                raise SimulationError(f"tree edge {a}-{b} is no link between two switches")
            tree[a].add(b)
            tree[b].add(a)

        # Every check is done: a failed install has written nothing.
        self._app_installed = True
        self._states = states
        self._registers = program.registers
        # Tree links are symmetric, so updates only ever arrive over a
        # tree port.
        for sw, rt in self.switch_rt.items():
            nbrs = sorted(tree[sw])
            rt.flood = {ingress: tuple(rt.ports[p] for p in nbrs if p != ingress)
                        for ingress in (None, *nbrs)}
        for st, cs in zip(states, program.states):
            ort = st.origin
            for sw in placement.nodes[cs.name]:
                rt = self.switch_rt[sw]
                if rt.store is None:
                    rt.store = ReplicaStore(program.steps, len(states))
                rt.store.configure_state(st.sid, cs.width_bits, None if rt is ort else ort.sw_id)
            if st.trig is not None:
                ort.own_updates.append(st)
        for sid, (mon, nbr) in monitors.items():
            ort = states[sid].origin
            ort.store.attach_local(sid, mon.est)
            if nbr is None:
                ort.monitors.append(mon)
            else:
                ort.egress_monitors.setdefault(ort.ports[nbr], []).append(mon)

        for rt, trt in sites:
            if trt.kind is ActionKind.NOTIFY_CONTROLLER:
                rt.change_triggers.append(trt)
            else:
                rt.packet_triggers.append(trt)
            # Validation keeps draws to packet triggers.
            if trt.draws and rt.rng is None:
                mix = (rt.sw_id + 1) * 0xD1B54A32D192ED03 & _M64
                rt.rng = random.Random(_splitmix64(self._seed ^ mix))

    def add_flow(self, name, src, dst, size_bits, syn, segments, stop_s,
                 monitor=None) -> int:
        """Register a packet flow; segments are (start_s, rate_pps) steps,
        the first at the flow's start. Each rule is checked on the
        nanoseconds the run uses, and its error's `key` names the
        scenario key of [flow.NAME] at fault. Once an application is
        installed, a flow its monitor pins must not loop: no egress its
        flow rules can pick may route toward `dst` back through the
        monitor."""
        if self.log is not None:
            raise SimulationError("flows must be added before the run starts")
        if name in self._flow_names:
            raise SimulationError(f"flow {name}: name already in use")
        for key, host in (("src", src), ("dst", dst)):
            if host not in self._host_out:
                raise SimulationError(f"flow {name}: unknown {key} host {host!r}", key)
        if size_bits < MIN_FRAME_BITS:
            raise SimulationError(f"flow {name}: packets below the {MIN_FRAME_BITS}-bit"
                                  f" minimum frame", "size")
        if not segments:
            raise SimulationError(f"flow {name}: no rate", "rate")
        for key, what, xs in (("start", "start", (segments[0][0],)),
                              ("rate", "rate step at", [t for t, _ in segments[1:]]),
                              ("stop", "stop", (stop_s,)),
                              ("rate", "non-finite or negative rate", [r for _, r in segments])):
            for x in xs:
                if not (math.isfinite(x) and x >= 0):
                    raise SimulationError(f"flow {name}: {what} {x}: times and rates must be"
                                          f" finite and not negative", key)
        # A faster rate's gap rounds to 0 ns, where emission stalls.
        for _, r in segments:
            if r > 1e9:
                raise SimulationError(f"flow {name}: rate {r:g} is above one packet per ns", "rate")
        segs = [(round(t * 1e9), float(r)) for t, r in segments]
        stop_ns = round(stop_s * 1e9)
        if stop_ns <= segs[0][0]:
            raise SimulationError(f"flow {name}: stop must follow start", "stop")
        if any(a[0] >= b[0] for a, b in zip(segs, segs[1:])):
            raise SimulationError(f"flow {name}: rate step times must increase", "rate")
        if segs[-1][0] >= stop_ns:
            raise SimulationError(f"flow {name}: rate step at or beyond stop", "rate")
        if monitor is not None and not self.topo.is_switch(monitor):
            raise SimulationError(f"flow {name}: monitor {monitor} is not a switch")
        for to in (dst, monitor):
            if to is not None and to not in self._routed:
                self._routed.add(to)
                # A switch's route toward `to` is its predecessor on the
                # shortest paths to to's switch `at`; at a host's own
                # switch, the host's port.
                at = self.topo.attached_switch(to) if to == dst else to
                rts = self._by_index
                for rt, hop in zip(rts, self.topo.pred_row(at)):
                    if rt.name != to:
                        rt.route[to] = rt.ports[to if rt.name == at else rts[hop].name]
        # A flow rule at the monitor sends every later packet toward dst
        # out on the egress its trigger picks: dst's route from there
        # must not lead back to the monitor, or those packets loop.
        mon = self.switch_rt.get(monitor)
        for tr in mon.packet_triggers if mon else ():
            if (tr.kind is ActionKind.INSERT_FLOW_RULE
                    and tr.scope.matches(self._host_out[src].cls, syn, dst)):
                for ld in tr.egress_map or ():
                    hop = ld
                    while hop.far not in (None, mon):
                        hop = hop.far.route[dst]
                    if hop.far is mon:
                        raise SimulationError(f"flow {name}: pinned at {monitor} via {ld.dst},"
                                              f" whose route to {dst} runs back through"
                                              f" {monitor}", "dst")
        fl = FlowRT(len(self.flows), name, src, dst,
                    size_bits, syn, segs, stop_ns, monitor, self._host_out[src])
        self.flows.append(fl)
        self._flow_names.add(name)
        self._schedule(segs[0][0], self._start_flow, fl)
        self._schedule(stop_ns, self._stop_flow, fl)
        return fl.row

    def schedule_scalar(self, t_s, state, value):
        """Write `value` into the scalar state named `state` at time t_s,
        not before now: its origin, the state's one writer, takes the
        write and runs its change triggers then."""
        sid = self._registers.get(state, len(self._states))
        # A reduction output has a register too, past the states'.
        if sid >= len(self._states):
            raise SimulationError(f"{state} is no state of the installed application")
        st = self._states[sid]
        store = st.origin.store
        # Only a rate estimate's own estimator writes it.
        if sid in store.live:
            raise SimulationError(f"{state} is a rate-estimate state: only scalar states"
                                  f" take writes")
        width = store.widths[sid]
        # A register holds an integer: 5.7 would be written as 5.
        if not (isinstance(value, int) and 0 <= value < 1 << width):
            raise SimulationError(f"{state}: value {value} does not fit {width} bits")
        if not (math.isfinite(t_s) and round(t_s * 1e9) >= self.t_now):
            raise SimulationError(f"load on {state} at {t_s} s: time must be finite"
                                  f" and not in the past")
        self._schedule(round(t_s * 1e9), self._load, (st, value))

    # ------------------------------------------------------------------
    # engine

    def _schedule(self, t, kind, payload):
        """Queue an event, a handler and its payload or a link and the
        packet arriving over it, behind every event queued at t."""
        slot = self._slots.get(t)
        if slot is None:
            self._slots[t] = [(kind, payload)]
            heappush(self._times, t)
        else:
            slot.append((kind, payload))

    def _build_log(self):
        log = MetricsLog(self.t_end_ns, self.bin_ns, [(ld.src, ld.dst) for ld in self._links],
                         [f.name for f in self.flows],
                         [ld.far is not None and ld.src in self.switch_rt for ld in self._links])
        for sw, rt in sorted(self.switch_rt.items()):
            if rt.store is not None:
                log.replica_memory[sw] = rt.store.replica_memory_bits()
                rt.name_id = log.names.index(sw)
        for st in self._states:
            st.name_id = log.names.index(st.name)
        log.plan_text = self.plan_text
        self.log = log
        self._flow_sent = log.flow_sent
        for ld in self._links:
            ld.data = log.data_bits[ld.row]
            ld.repl = log.repl_bits[ld.row]
        # Flows and the application are final now, and a scope sees only
        # a flow's constants: match each flow against the scopes once.
        # An untraced run names no packet, so each flow's packets share
        # its two records.
        for fl in self.flows:
            if self.trace is None:
                fl.packet = _records(fl, -1)
            rt = self.switch_rt.get(fl.monitor)
            if rt is not None:
                fl.monitors = _feeds(rt.monitors, fl)
                fl.triggers = _scoped(rt.packet_triggers, fl)
        for rt in self.switch_rt.values():
            for ld, mons in rt.egress_monitors.items():
                ld.egress = {fl.row: m for fl in self.flows if (m := _feeds(mons, fl))}
        self._plan_folds()

    def _plan_folds(self):
        """Fold each delivery's last switch hop into the link that feeds
        it, where that is exact. A switch that only forwards a packet to
        its host link H, with no update trigger to advance, does nothing
        another event can see but admit it on H; when one FIFO link L is
        H's only feeder, H sees its packets in L's order whenever they
        are admitted, so `_send` admits them on H as L does. Without a
        trace, steering or flow rules, each flow takes its static route:
        walk it as `_on_data` would, measurement detour first."""
        if self.trace is not None or any(
                tr.kind in (ActionKind.SET_EGRESS, ActionKind.INSERT_FLOW_RULE)
                for rt in self._by_index for tr in rt.packet_triggers):
            return
        feeders: dict[LinkDir, set[LinkDir]] = {}
        for fl in self.flows:
            ld, to = fl.out, fl.monitor or fl.dst
            while (sw := ld.far) is not None:
                if to == sw.name:
                    to = fl.dst
                out = sw.route[to]
                if out.far is None:
                    feeders.setdefault(out, set()).add(ld)
                ld = out
        for host, into in feeders.items():
            if len(into) == 1 and not (self.switch_rt[host.src].own_updates or host.egress):
                (ld,) = into
                ld.fold = {**(ld.fold or {}), host.dst: host}

    def run_until(self, t_end_s=None) -> MetricsLog:
        """Process every event up to t_end_s (default: the horizon), which
        lies between now and the horizon.

        A later call resumes where this one stopped. On return `t_now` is
        t_end_s and the log's counters hold the totals so far; a handler
        that raises leaves `t_now` at its event's time.
        """
        if t_end_s is not None and not math.isfinite(t_end_s):
            raise InvalidParameter(f"run_until needs a finite time, got {t_end_s} s")
        if self.log is None:
            self._build_log()
        t_end = self.t_end_ns if t_end_s is None else round(t_end_s * 1e9)
        if not self.t_now <= t_end <= self.t_end_ns:
            raise SimulationError(f"run_until at {t_end} ns: not between now, {self.t_now} ns,"
                                  f" and the horizon, {self.t_end_ns} ns")
        times = self._times
        slots = self._slots
        log = self.log
        on_data = self._on_data
        on_update = self._on_update
        delivered = log.flow_delivered
        flow_bits = log.flow_bits
        bin_ns = self.bin_ns
        link_dir = LinkDir
        t_now = self.t_now
        events = 0
        self._bound = t_end
        run = iter(())
        try:
            # The back edge must stay an unconditional jump: CPython 3.11
            # warms a code object only on calls and on plain
            # JUMP_BACKWARDs, and a run is one call, so a `while <test>:`
            # header would leave this loop unspecialized for the whole run.
            while True:
                if not times or times[0] > t_end:
                    break
                t = heappop(times)
                slot = slots.pop(t)
                if t < t_now:
                    raise SimulationError("event queue went backwards")
                t_now = t
                # An event queued at t from here on opens a fresh slot,
                # which runs next.
                run = iter(slot)
                for kind, payload in run:
                    events += 1
                    if kind.__class__ is link_dir:
                        sw = kind.far
                        if sw is None:
                            delivered[payload.flow] += 1
                            flow_bits[payload.flow][t // bin_ns] += payload.size_bits
                        elif payload.is_update:
                            on_update(sw, kind, payload, t)
                        else:
                            on_data(sw, payload, t)
                    else:
                        kind(payload, t)
        finally:
            # If a handler raised mid-slot, the rest of its slot stays
            # queued, ahead of whatever was queued at t since.
            rest = list(run)
            if rest:
                if t not in slots:
                    heappush(times, t)
                slots[t] = rest + slots.get(t, [])
            self._bound = -1
            self.t_now = t_now
            log.events_processed += events
            # Fold the horizon bin into the last bin.
            n = log.n_bins
            for row in itertools.chain(log.data_bits, log.repl_bits, flow_bits):
                if row[n]:
                    row[n - 1] += row[n]
                    row[n] = 0
        # Every event up to t_end has run: the run stands at t_end.
        self.t_now = t_end
        return log

    def _start_flow(self, fl: FlowRT, t: int):
        if self.trace is not None:
            self.trace.append(f"{t} flow_start {fl.src} flow={fl.name}")
        self._emit_flow(fl, t)

    def _stop_flow(self, fl: FlowRT, t: int):
        if self.trace is not None:
            self.trace.append(f"{t} flow_stop {fl.src} flow={fl.name}")

    def _notify(self, payload: tuple[str, str], t: int):
        sw, message = payload
        self.log.notifications.append((t, sw, message))
        if self.trace is not None:
            self.trace.append(f"{t} notify ctrl from={sw} msg={message}")

    def _load(self, payload: tuple[_StateRT, int], t: int):
        st, value = payload
        st.origin.store.write_local(st.sid, value)
        if st.origin.change_triggers:
            self._eval_change_triggers(st.origin, t)

    def _data_packet(self, fl: FlowRT) -> Packet:
        """A traced emission's own packet of flow `fl`, with the next uid."""
        uid = self._uid
        self._uid = uid + 1
        return _records(fl, uid)

    def _emit_flow(self, fl: FlowRT, t: int):
        self._flow_sent[fl.row] += 1
        self._send(fl.out, fl.packet or self._data_packet(fl), t)
        # Schedule the segment's next packet, or once it would reach the
        # next segment, that segment's start.
        nxt = fl.next_start
        if fl.rate > 0:
            cand = fl.seg_start + round((fl.k + 1) * 1e9 / fl.rate)
            if nxt is None or cand < nxt:
                fl.k += 1
                if cand < fl.stop_ns:
                    self._schedule(cand, self._emit, fl)
                return
        if nxt is None:
            return
        fl.enter(fl.seg + 1)
        if nxt < fl.stop_ns:
            self._schedule(nxt, self._emit, fl)

    def _send(self, ld: LinkDir, pkt: Packet, t: int) -> int | None:
        """Put `pkt` on `ld` at t: its arrival time at the far end, or
        None if the egress queue is full and the packet is dropped.

        The queue holds the packets not yet fully serialized, the one in
        service included. The ring keeps the last queue_limit departure
        times, so the queue is full iff the oldest of them is after t.
        The oldest is never after the newest, `busy`, so an idle link
        admits without reading it.
        """
        busy = ld.busy
        i = ld.head
        if busy > t and ld.ring[i] > t:
            log = self.log
            log.queue_drops[ld.row] += 1
            if pkt.flow >= 0:
                log.flow_queue_drops[pkt.flow] += 1
            if self.trace is not None:
                self.trace.append(f"{t} drop_queue {ld.src} uid={pkt.uid} to={ld.dst}")
            return None
        size = pkt.size_bits
        end = (busy if busy > t else t) + size * 1_000_000_000 // ld.capacity_bps
        ld.ring[i] = end
        ld.busy = end
        i += 1
        ld.head = 0 if i == self.queue_limit else i
        (ld.repl if pkt.is_update else ld.data)[t // self.bin_ns] += size
        arr = end + ld.delay_ns
        if ld.far is None:
            if arr <= self._bound:
                # A host arrival within the running call: count it now,
                # as the loop would when it came due.
                log = self.log
                log.events_processed += 1
                log.flow_delivered[pkt.flow] += 1
                log.flow_bits[pkt.flow][arr // self.bin_ns] += size
                return arr
        elif ld.fold is not None and (host := ld.fold.get(pkt.to)) is not None:
            # The far switch would only forward the packet to its host
            # link: do that now, as the loop would when the arrival came
            # due, unless an earlier packet for that link is still
            # queued. The fold is keyed by host, so a packet still
            # addressed to its monitor never matches it.
            if arr <= self._bound and host.held_until < t:
                self.log.events_processed += 1
                self._send(host, pkt, arr)
                return arr
            host.held_until = arr
        slot = self._slots.get(arr)
        if slot is None:
            self._slots[arr] = [(ld, pkt)]
            heappush(self._times, arr)
        else:
            slot.append((ld, pkt))
        return arr

    def _eval_change_triggers(self, sw: SwitchRT, t: int):
        store = sw.store
        sw.triggers_until = store.tick_end(t)
        for tr in sw.change_triggers:
            v = store.read_global(tr.output, t)
            fired = tr.test(v)
            if fired and not tr.prev:
                self.log.detections.append((t, sw.name, tr.name, int(v)))
                if self.trace is not None:
                    self.trace.append(f"{t} detect {sw.name} trigger={tr.name} value={v}")
                self._schedule(t + CONTROLLER_DELAY_NS, self._notify,
                               (sw.name, tr.message or tr.name))
            tr.prev = fired

    def _emit_update(self, sw: SwitchRT, st: _StateRT, t: int):
        store = sw.store
        value = store.local_value(st.sid, t) & _M64
        hdr = UpdateHeader(sw.sw_id, 0, st.sid, st.replica_id, value)
        self._upd_uid -= 1
        pkt = Packet(self._upd_uid, -1, None, _UPDATE_BITS, True, hdr, t, store.writes[st.sid])
        self.log.updates_emitted += 1
        if self.trace is not None:
            self.trace.append(f"{t} update_emit {sw.name} state={st.name} value={value}")
        for ld in sw.flood[None]:
            self._send(ld, pkt, t)

    def _on_update(self, sw: SwitchRT, link: LinkDir, pkt: Packet, t: int):
        store = sw.store
        if store is not None:
            status, prev_ts = store.apply_update(pkt.header, pkt.origin_ts)
            if status == "applied":
                st = self._states[pkt.header.state_id]
                t_c, s_c, o_c, r_c, age_c, replaced_c, lag_c = self.log.applied.columns
                t_c.append(t)
                s_c.append(st.name_id)
                o_c.append(st.origin.name_id)
                r_c.append(sw.name_id)
                age_c.append(t - pkt.origin_ts)
                replaced_c.append(t - prev_ts if prev_ts >= 0 else 0)
                lag_c.append(st.origin.store.writes[st.sid] - pkt.origin_writes)
                # A value the register already held moves what the change
                # triggers read only at the end of an estimator tick.
                if sw.change_triggers and (t >= sw.triggers_until or store.changed):
                    self._eval_change_triggers(sw, t)
            elif status == "unknown":
                self.log.unknown_state_drops += 1
            elif status == "stale":
                self.log.stale_update_drops += 1
        for ld in sw.flood[link.src]:
            self._send(ld, pkt, t)
        # End of the ingress pipeline: each state the switch owns checks
        # its update trigger.
        for st in sw.own_updates:
            trig = st.trig
            if t >= trig.due and trig.should_emit(t):
                self._emit_update(sw, st, t)

    def _on_data(self, sw: SwitchRT, pkt: Packet, t: int):
        if pkt.to != sw.name:
            out = sw.route[pkt.to]
        else:
            # The measurement stage: go on as the record addressed to the
            # host, feed the monitors, then run the packet triggers, which
            # may steer the packet off its route (out) or drop it (out is
            # _DROPPED).
            fl = self.flows[pkt.flow]
            pkt = pkt.measured
            out = sw.route[fl.dst]
            store = sw.store
            if fl.monitors:
                writes = store.writes
                for observe, n, sid in fl.monitors:
                    observe(t, n)
                    writes[sid] += 1
                # A feed moves what the change triggers read only at the
                # end of an estimator tick.
                if sw.change_triggers and t >= sw.triggers_until:
                    self._eval_change_triggers(sw, t)
            for tr in fl.triggers:
                r = tr.output
                v = store.regs[r] if t < store.fresh_until else store.read_global(r, t)
                if not tr.test(v, sw.rng.random() if tr.draws else None):
                    continue
                if tr.kind is ActionKind.DROP_PACKET:
                    self.log.flow_app_drops[pkt.flow] += 1
                    if self.trace is not None:
                        self.trace.append(f"{t} drop_app {sw.name} uid={pkt.uid}")
                    out = _DROPPED
                    break
                sel = tr.selector_const
                if tr.selector is not None:
                    # The trigger's read left the registers fresh at t.
                    sel = store.regs[tr.selector]
                if sel == CONTROLLER_PORT:
                    self.log.controller_redirects.append((t, sw.name, fl.name))
                    self.log.flow_app_drops[pkt.flow] += 1
                    out = _DROPPED
                    break
                if tr.egress_map is None or not (0 <= sel < len(tr.egress_map)):
                    continue
                out = tr.egress_map[sel]
                if tr.kind is ActionKind.INSERT_FLOW_RULE:
                    sw.route[fl.dst] = out
        if out is not _DROPPED:
            egress = out.egress
            if egress is not None and pkt.flow in egress:
                writes = sw.store.writes
                for observe, n, sid in egress[pkt.flow]:
                    observe(t, n)
                    writes[sid] += 1
                if sw.change_triggers and t >= sw.triggers_until:
                    self._eval_change_triggers(sw, t)
            if self.trace is not None:
                self.trace.append(f"{t} fwd {sw.name} uid={pkt.uid} out={out.dst}")
            self._send(out, pkt, t)
        for st in sw.own_updates:
            trig = st.trig
            if t >= trig.due and trig.should_emit(t):
                self._emit_update(sw, st, t)

    def save_trace(self, path: str):
        if self.trace is None:
            raise SimulationError("run was started without trace collection")
        with open(path, "w") as fh:
            fh.write("\n".join(self.trace) + ("\n" if self.trace else ""))

"""Embedding of compiled applications onto a topology.

Covers replica placement by traffic-weighted betweenness, the shared
update-distribution tree (metric-closure Steiner approximation) and the
translation of inconsistency budgets into update trigger periods.

All of them, and the simulator's routes, read one shortest-path table
per source switch, over switch indices in name order: the distances, the
path counts, each switch's lowest-named predecessor (its next hop toward
the source) and the settle order. A table is filled by one Dijkstra pass
the first time something asks for it, so a build pays only for the
sources it reads: the loaded switches for betweenness, the first switch
of each delay asked for, and the switches a flow's packets are addressed
to for routes. Outside this module, `Topology.index`, `dist_row` and
`pred_row` are the one way to read them. All delays are integer
nanoseconds so shortest-path comparisons and tie-breaks are exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

from .compiler import PrimitiveProgram
from .errors import (
    DisconnectedTerminals,
    DisconnectedTopology,
    InfeasibleBudget,
    InsufficientNodes,
)
from .model import InconsistencyKind, InconsistencySpec, PortClass


@dataclass(frozen=True)
class Link:
    """Undirected link; u_class / v_class tag the port on that endpoint."""

    u: str
    v: str
    delay_ns: int
    capacity_bps: int
    u_class: PortClass = PortClass.ANY
    v_class: PortClass = PortClass.ANY

    def port_class(self, node: str) -> PortClass:
        return self.u_class if node == self.u else self.v_class

    def key(self) -> tuple[str, str]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


_SWITCHES, _LINKS = ("topology", "switches"), ("topology", "links")


class Topology:
    """Switches, hosts and the links between them. A host's last link is
    its attachment; every other link joins two switches. Each rule
    broken raises DisconnectedTopology, whose key is the scenario key to
    blame: [topology] switches or links, or a host's section (its name)
    or that section's attach."""

    def __init__(
        self,
        switches,
        hosts,
        links,
    ):
        self.switches = tuple(switches)
        self._sws = frozenset(self.switches)
        self.hosts = tuple(hosts)
        self.links = tuple(links)
        if not self.switches:
            raise DisconnectedTopology("empty topology: no switches", _SWITCHES)
        if len(self._sws) != len(self.switches):
            raise DisconnectedTopology("duplicate name in switches", _SWITCHES)
        self.adj: dict[str, dict[str, Link]] = {sw: {} for sw in self.switches}
        for h in self.hosts:
            if h in self.adj:
                raise DisconnectedTopology(f"duplicate node name {h!r}", (f"host.{h}", None))
            self.adj[h] = {}
        last = {n: i for i, ln in enumerate(self.links) for n in (ln.u, ln.v)
                if n in self.adj and n not in self._sws}
        for i, ln in enumerate(self.links):
            u, v = ln.u, ln.v
            host = next((n for n in (u, v) if last.get(n) == i), None)
            key = _LINKS if host is None else (f"host.{host}", "attach")
            bad = next((n for n in (u, v) if n != host and n not in self._sws), None)
            if bad is not None:
                if host is not None:
                    raise DisconnectedTopology(f"host {host} must attach to a switch:"
                                               f" unknown switch {bad!r}", key)
                # Links that name none of the switches point at the
                # switch list; one name no switch has is the link's fault.
                if not any(n in self._sws for x in self.links for n in (x.u, x.v)):
                    raise DisconnectedTopology("no link names any of these switches", _SWITCHES)
                raise DisconnectedTopology(f"link '{u}-{v}' references unknown switch", key)
            if u == v:
                raise DisconnectedTopology(f"link '{u}-{v}' connects a node to itself", key)
            if ln.delay_ns <= 0 or ln.capacity_bps <= 0:
                raise DisconnectedTopology(f"link '{u}-{v}': delay and capacity must be > 0", key)
            if v in self.adj[u]:
                raise DisconnectedTopology(f"duplicate link '{u}-{v}'", key)
            self.adj[u][v] = ln
            self.adj[v][u] = ln
        for h in self.hosts:
            if not self.adj[h]:
                raise DisconnectedTopology(f"host {h} attaches to no switch",
                                           (f"host.{h}", "attach"))
        self._check_connected()
        # Switch indices follow name order, so index order breaks ties
        # the way names do.
        self._names = tuple(sorted(self.switches))
        self.index = {sw: i for i, sw in enumerate(self._names)}
        # Each switch's switch neighbours in index order, with the link delay.
        self._nbrs: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(
                (self.index[m], ln.delay_ns)
                for m, ln in sorted(self.adj[sw].items())
                if m in self._sws
            )
            for sw in self._names
        )
        # Each switch's shortest-path table, by index, once something asks.
        self._tables: dict[int, tuple[list[int], list[int], list[int], list[int]]] = {}

    def _check_connected(self):
        nodes = self.switches + self.hosts
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            n = stack.pop()
            for m in self.adj[n]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        if len(seen) != len(nodes):
            missing = sorted(set(nodes) - seen)
            raise DisconnectedTopology(f"unreachable nodes: {', '.join(missing)}", _LINKS)

    def attached_switch(self, host: str) -> str:
        return next(iter(self.adj[host]))

    def is_switch(self, node: str) -> bool:
        return node in self._sws

    def _paths(self, s: int) -> tuple[list[int], list[int], list[int], list[int]]:
        """Dijkstra from switch index s, run on first ask: (dist, sigma, pred, order).

        dist[v] is the delay from the source to v, sigma[v] the number of
        shortest paths, pred[v] the lowest-index neighbour of v on one of
        them (v's next hop toward the source; the source's own is itself)
        and order the switches in the order they were settled, which is
        by nondecreasing distance. The switch graph is connected, since
        each host has one link, so every entry is set.
        """
        paths = self._tables.get(s)
        if paths is not None:
            return paths
        n = len(self._names)
        nbrs = self._nbrs
        dist: list[int | None] = [None] * n
        sigma = [0] * n
        pred = [s] * n
        order = []
        dist[s] = 0
        sigma[s] = 1
        # A heap entry is the int distance << bits | index: it sorts as
        # the pair would, and ints compare faster than tuples.
        bits = n.bit_length()
        mask = (1 << bits) - 1
        heap = [s]
        while heap:
            key = heappop(heap)
            d, u = key >> bits, key & mask
            if d > dist[u]:
                continue
            order.append(u)
            su = sigma[u]
            for m, delay in nbrs[u]:
                nd = d + delay
                dm = dist[m]
                if dm is None or nd < dm:
                    dist[m] = nd
                    sigma[m] = su
                    pred[m] = u
                    heappush(heap, nd << bits | m)
                elif nd == dm:
                    # Delays are positive, so m is not settled yet.
                    sigma[m] += su
                    if u < pred[m]:
                        pred[m] = u
        paths = self._tables[s] = (dist, sigma, pred, order)
        return paths

    def dist_row(self, switch: str) -> list[int]:
        """The delay from `switch` to every switch, by index."""
        return self._paths(self.index[switch])[0]

    def pred_row(self, switch: str) -> list[int]:
        """Each switch's next hop toward `switch`, by index: its
        lowest-index neighbour on a shortest path (`switch`'s own entry
        is itself)."""
        return self._paths(self.index[switch])[2]

    def delay_between(self, a: str, b: str) -> int:
        """Shortest switch-graph delay between two switches."""
        return self.dist_row(a)[self.index[b]]

    def next_hop(self, switch: str, dst_switch: str) -> str:
        """Neighbor switch on a shortest path; name order breaks ties."""
        return self._names[self.pred_row(dst_switch)[self.index[switch]]]


def node_loads(topo: Topology, weights: dict[str, float]) -> dict[str, float]:
    """Aggregate traffic weight per switch (own plus attached hosts)."""
    load = {sw: float(weights.get(sw, 0.0)) for sw in topo.switches}
    for h in topo.hosts:
        w = float(weights.get(h, 0.0))
        if w:
            load[topo.attached_switch(h)] += w
    return load


def weighted_betweenness(topo: Topology, weights: dict[str, float]) -> dict[str, float]:
    """Traffic-weighted shortest-path betweenness over switches.

    Endpoint-inclusive: a demand pair {u, v} with weight
    rat(load u) + rat(load v) credits every node on each shortest u-v
    path, endpoints included, splitting evenly across equal-cost paths.
    rat(x) is the fraction nearest x with a denominator of at most 10**9.
    For loads with many significant digits this weight can differ in
    the last place from rat(load u + load v), so a near-tied ranking on
    such weights follows this definition.

    The pair weight splits by end and the switch graph is undirected, so
    a score is a sum over sources s of rat(load s) times the share of v
    in every pair (s, t), the source-weighted form of Brandes, "On
    variants of shortest-path betweenness centrality and their generic
    computation" (2008). A switch with no load adds nothing, so only
    loaded switches run a pass.

    The pass from s (Brandes, "A faster algorithm for betweenness
    centrality", 2001) walks the switches in reverse settle order, so by
    nonincreasing distance from s, and accumulates A(v) = 1 / sigma_sv
    plus A(w) of every w that has v as a shortest-path predecessor
    (A(s) has no own term). Source s credits rat(load s) * sigma_sv * A(v)
    to v: its share of the pairs (s, t) routed through v, the pair (s, v)
    itself, and at v = s every pair of s. A(v) is kept as an integer over
    the lcm of the path counts from s, and each source is added over one
    running global denominator, so each score is an exact rational
    rounded to float once.
    """
    load = node_loads(topo, weights)
    nbrs = topo._nbrs
    num = [0] * len(topo._names)  # score = num / total
    total = 1
    for s, sw in enumerate(topo._names):
        r = load[sw] and Fraction(load[sw]).limit_denominator(10**9)
        if not r:
            continue
        dist, sigma, pred, order = topo._paths(s)
        common = lcm(*set(sigma))
        den = r.denominator * common
        if total % den:
            grow = lcm(total, den) // total
            total *= grow
            num = [x * grow for x in num]
        scale = total // den * r.numerator
        acc = [common // x for x in sigma]  # A(v) = acc[v] / common
        acc[s] = 0
        for w in reversed(order):
            a = acc[w]
            num[w] += sigma[w] * a * scale
            # sigma[w] is the sum of sigma over w's predecessors, so it
            # equals that of pred[w] exactly when pred[w] is the only
            # one. (The source, walked last, passes its A to itself.)
            if sigma[w] == sigma[pred[w]]:
                acc[pred[w]] += a
                continue
            dw = dist[w]
            for v, delay in nbrs[w]:
                if dist[v] + delay == dw:
                    acc[v] += a
    index = topo.index
    return {sw: float(Fraction(num[index[sw]], total)) for sw in topo.switches}


@dataclass(frozen=True)
class EmbeddingConfig:
    replica_count: int
    traffic_weights: dict[str, float] = field(default_factory=dict)


@dataclass
class ReplicaPlacement:
    """Where each wire state lives and which replica writes it. A
    replica's id is its position in the state's name-sorted `nodes`."""

    nodes: dict[str, tuple[str, ...]]
    origin: dict[str, str]
    ranking: list[str]

    def replicated_states(self) -> list[str]:
        return [s for s, n in self.nodes.items() if len(n) > 1]


def place_replicas(
    topo: Topology,
    config: EmbeddingConfig,
    program: PrimitiveProgram,
    requirements: dict[str, InconsistencySpec],
) -> ReplicaPlacement:
    """Pick replica sets and writer origins for every wire state.

    States whose budget kind is NONE stay on the single top-ranked
    switch. Replicated states share the top-C set; origins follow the
    state's target hint when given, otherwise round-robin over the
    name-sorted replica set so the k-th declared state writes at the
    k-th switch.
    """
    if config.replica_count < 1:
        raise InsufficientNodes("replica_count must be >= 1")
    if config.replica_count > len(topo.switches):
        raise InsufficientNodes(
            f"replica_count {config.replica_count} exceeds"
            f" {len(topo.switches)} switches"
        )
    scores = weighted_betweenness(topo, config.traffic_weights)
    ranking = sorted(topo.switches, key=lambda sw: (-scores[sw], sw))

    nodes: dict[str, tuple[str, ...]] = {}
    origin: dict[str, str] = {}
    k = 0
    for cs in program.states:
        req = requirements.get(cs.name, InconsistencySpec.none())
        c = config.replica_count if req.kind is not InconsistencyKind.NONE else 1
        chosen = tuple(sorted(ranking[:c]))
        nodes[cs.name] = chosen
        if cs.target_hint is not None:
            if cs.target_hint not in chosen:
                raise InsufficientNodes(
                    f"state {cs.name}: hint {cs.target_hint} not among replicas {chosen}"
                )
            origin[cs.name] = cs.target_hint
        else:
            origin[cs.name] = chosen[k % c]
        if len(chosen) > 1:
            k += 1
    return ReplicaPlacement(nodes, origin, ranking)


def steiner_tree(topo: Topology, terminals) -> frozenset[tuple[str, str]]:
    """2-approximate Steiner tree over the switch graph.

    Metric-closure MST expanded along shortest paths, then pruned of
    non-terminal leaves. Deterministic under (delay, name) tie-breaks.
    """
    terms = sorted(set(terminals))
    if len(terms) <= 1:
        return frozenset()
    for t in terms:
        if not topo.is_switch(t):
            raise DisconnectedTerminals(f"terminal {t} is not a switch")

    # Kruskal over the metric closure.
    closure = sorted(
        (topo.delay_between(a, b), a, b) for i, a in enumerate(terms) for b in terms[i + 1 :]
    )
    edges: set[tuple[str, str]] = set()
    for a, b in _kruskal([(a, b) for _, a, b in closure]):
        edges.update(_shortest_path_edges(topo, a, b))

    # The union of expanded paths may contain cycles; reduce to a minimum
    # spanning tree of the union subgraph (stable order), then prune
    # non-terminal leaves.
    edges = set(_kruskal(sorted(edges, key=lambda e: (topo.adj[e[0]][e[1]].delay_ns, e))))
    term_set = set(terms)
    while True:
        degree = Counter(n for e in edges for n in e)
        leaves = {e for e in edges if any(degree[n] == 1 and n not in term_set for n in e)}
        if not leaves:
            return frozenset(edges)
        edges -= leaves


def _shortest_path_edges(topo: Topology, a: str, b: str) -> list[tuple[str, str]]:
    edges = []
    cur = a
    while cur != b:
        nxt = topo.next_hop(cur, b)
        ln = topo.adj[cur][nxt]
        edges.append(ln.key())
        cur = nxt
    return edges


def _kruskal(ranked: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The pairs of `ranked` that join two components, in order: with
    `ranked` sorted by weight, a minimum spanning forest (Kruskal)."""
    parent = {n: n for pair in ranked for n in pair}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = []
    for pair in ranked:
        ra, rb = find(pair[0]), find(pair[1])
        if ra != rb:
            parent[ra] = rb
            kept.append(pair)
    return kept


@dataclass(frozen=True)
class PeriodSolution:
    """Solved update cadence for one state."""

    d_r_ns: int
    worst_pair_delay_ns: int
    mode: str
    tau_ns: int | None = None
    packet_period: int | None = None


def _check_clock(r_min: float, mode: str):
    """The update clock's rules, which hold whether or not any state is
    replicated: the trigger mode is time or packet, and r_min > 0."""
    if mode not in ("time", "packet"):
        raise InfeasibleBudget(f"trigger_mode must be time or packet, got {mode!r}",
                               "trigger_mode")
    if not r_min > 0:
        raise InfeasibleBudget("r_min must be positive", "r_min")


def solve_replication_period(
    spec: InconsistencySpec,
    worst_pair_delay_ns: int,
    r_min: float,
    mode: str = "time",
) -> PeriodSolution:
    """Turn an inconsistency budget into an update trigger period.

    The total allowance is epsilon_t (time obsolescence) or
    epsilon_r / max_write_rate (update error); propagation over the
    worst replica pair consumes worst_pair_delay, the remainder is the
    replication period d_r. Time mode then reserves one minimum packet
    interarrival (1 / r_min) for the traffic-driven clock check; packet
    mode counts floor(d_r * r_min) packets instead.
    """
    _check_clock(r_min, mode)
    if spec.kind is InconsistencyKind.NONE:
        raise InfeasibleBudget("state has no inconsistency budget, nothing to solve")
    budget_ns = round(spec.budget_s() * 1e9)
    d_r = budget_ns - worst_pair_delay_ns
    if d_r <= 0:
        raise InfeasibleBudget(
            f"budget {budget_ns} ns does not cover worst replica pair delay"
            f" {worst_pair_delay_ns} ns", spec.budget_field()
        )
    if mode == "time":
        gap_ns = round(1e9 / r_min)
        tau = d_r - gap_ns
        if tau < 0:
            raise InfeasibleBudget(
                f"replication period {d_r} ns is below the packet interarrival"
                f" floor {gap_ns} ns; emit cannot keep the bound", "r_min"
            )
        return PeriodSolution(d_r, worst_pair_delay_ns, "time", tau_ns=tau)
    p = int(d_r * r_min // 1_000_000_000)
    if p < 1:
        raise InfeasibleBudget(
            f"replication period {d_r} ns spans no full packet at rate {r_min}/s",
            "r_min"
        )
    return PeriodSolution(d_r, worst_pair_delay_ns, "packet", packet_period=p)


@dataclass
class ReplicationPlan:
    tree_edges: frozenset[tuple[str, str]]
    solutions: dict[str, PeriodSolution]
    r_min: float


def build_replication_plan(
    topo: Topology,
    placement: ReplicaPlacement,
    requirements: dict[str, InconsistencySpec],
    r_min: float,
    mode: str = "time",
) -> ReplicationPlan:
    """Shared distribution tree plus a period solution per replicated state."""
    _check_clock(r_min, mode)
    replicated = placement.replicated_states()
    terminals = sorted({n for s in replicated for n in placement.nodes[s]})
    tree = steiner_tree(topo, terminals) if len(terminals) > 1 else frozenset()
    solutions: dict[str, PeriodSolution] = {}
    for s in replicated:
        nodes = placement.nodes[s]
        worst = 0
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                worst = max(worst, topo.delay_between(a, b))
        solutions[s] = solve_replication_period(
            requirements[s], worst, r_min, mode
        )
    return ReplicationPlan(tree, solutions, r_min)


def serialize_plan(placement: ReplicaPlacement, plan: ReplicationPlan) -> str:
    """Human-readable resolved plan (used by the validate verb)."""
    lines = []
    lines.append("ranking: " + " ".join(placement.ranking))
    for s in sorted(placement.nodes):
        nodes = ",".join(placement.nodes[s])
        lines.append(f"state {s}: replicas=[{nodes}] origin={placement.origin[s]}")
    tree = " ".join(f"{u}-{v}" for u, v in sorted(plan.tree_edges)) or "(none)"
    lines.append(f"tree: {tree}")
    for s in sorted(plan.solutions):
        sol = plan.solutions[s]
        extra = (
            f"tau_ns={sol.tau_ns}" if sol.mode == "time" else f"packet_period={sol.packet_period}"
        )
        lines.append(
            f"period {s}: d_r_ns={sol.d_r_ns} worst_pair_ns={sol.worst_pair_delay_ns}"
            f" mode={sol.mode} {extra}"
        )
    return "\n".join(lines) + "\n"

"""Brute-force oracles, random topologies and the benchmark's mesh
scenario, shared across test modules.

Everything here is written from the declared behaviour alone, by the
slowest most obvious method available, so the fast implementations have
an independent reference to be checked against.
"""

import heapq
import importlib.util
import itertools
import os
from collections import deque
from fractions import Fraction

from repdp import Link, Simulator, Topology, node_loads, parse_scenario


def random_switch_topology(
    rng,
    n_switches,
    extra_edges=2,
    delay_choices=(200_000, 500_000, 1_000_000),
    capacity_bps=10_000_000,
):
    """Connected switch-only topology: random spanning tree plus extras."""
    names = [f"s{i}" for i in range(n_switches)]
    order = names[:]
    rng.shuffle(order)
    links = []
    used = set()
    for i in range(1, len(order)):
        a, b = order[rng.randrange(i)], order[i]
        key = (min(a, b), max(a, b))
        used.add(key)
        links.append(Link(key[0], key[1], rng.choice(delay_choices), capacity_bps))
    spare = [p for p in itertools.combinations(sorted(names), 2) if p not in used]
    rng.shuffle(spare)
    for a, b in spare[:extra_edges]:
        links.append(Link(a, b, rng.choice(delay_choices), capacity_bps))
    return Topology(names, (), links)


def mesh_config(tmp_path, seed):
    """The benchmark's generated 128-switch mesh scenario at `seed`."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_meshgen", os.path.join(root, "bench", "meshgen.py")
    )
    meshgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(meshgen)
    path = tmp_path / "mesh.scn"
    path.write_text(meshgen.generate(seed))
    return parse_scenario(str(path))


def all_shortest_paths(topo, u, v):
    """Every minimum-delay simple switch path from u to v, by exhaustive DFS."""
    best = None
    paths = []

    def walk(node, cost, seen, path):
        nonlocal best
        if best is not None and cost > best:
            return
        if node == v:
            if best is None or cost < best:
                best = cost
                paths.clear()
            if cost == best:
                paths.append(tuple(path))
            return
        for m in sorted(topo.adj[node]):
            if m in seen or not topo.is_switch(m):
                continue
            seen.add(m)
            path.append(m)
            walk(m, cost + topo.adj[node][m].delay_ns, seen, path)
            path.pop()
            seen.remove(m)

    walk(u, 0, {u}, [u])
    return paths


def brute_betweenness(topo, weights):
    """Endpoint-inclusive traffic-weighted betweenness by path enumeration."""
    load = node_loads(topo, weights)
    score = {sw: Fraction(0) for sw in topo.switches}
    sws = list(topo.switches)
    for i, u in enumerate(sws):
        for v in sws[i + 1 :]:
            w = load[u] + load[v]
            if w == 0:
                continue
            paths = all_shortest_paths(topo, u, v)
            wf = Fraction(w).limit_denominator(10**9)
            for n in sws:
                through = sum(1 for p in paths if n in p)
                if through:
                    score[n] += wf * Fraction(through, len(paths))
    return {sw: float(score[sw]) for sw in topo.switches}


def all_pairs_paths(topo):
    """Switch-graph delays and shortest-path counts for every ordered
    pair, by Floyd-Warshall over ints: ({u: {v: d}}, {u: {v: sigma}}).

    After round k, d[i][j] and c[i][j] cover the i-j paths whose inner
    switches all come before k in declaration order. A shortest path
    through k joins a shortest i-k and k-j path of the previous round,
    and round k leaves row and column k alone, so the counts add up.
    """
    sws = list(topo.switches)
    n = len(sws)
    pos = {sw: i for i, sw in enumerate(sws)}
    none = 1 + sum(ln.delay_ns for ln in topo.links)  # above every path
    d = [[0 if i == j else none for j in range(n)] for i in range(n)]
    c = [[int(i == j) for j in range(n)] for i in range(n)]
    for ln in topo.links:
        if ln.u in pos and ln.v in pos:
            i, j = pos[ln.u], pos[ln.v]
            d[i][j] = d[j][i] = ln.delay_ns
            c[i][j] = c[j][i] = 1
    for k in range(n):
        dk, ck = d[k], c[k]
        for i in range(n):
            di, ci = d[i], c[i]
            dik, cik = di[k], ci[k]
            if i == k or dik == none:
                continue
            for j in range(n):
                if j == k:
                    continue
                via = dik + dk[j]
                if via < di[j]:
                    di[j], ci[j] = via, cik * ck[j]
                elif via == di[j]:
                    ci[j] += cik * ck[j]
    dist = {u: dict(zip(sws, d[pos[u]])) for u in sws}
    sigma = {u: dict(zip(sws, c[pos[u]])) for u in sws}
    return dist, sigma


def pairwise_betweenness(topo, weights):
    """The same betweenness pair by pair, from shortest-path counts.

    A node n lies on sigma(u, n) * sigma(n, v) of the sigma(u, v)
    shortest u-v paths exactly when d(u, n) + d(n, v) = d(u, v). Cubic
    in the switch count but polynomial, so it reaches graphs that path
    enumeration cannot.
    """
    load = node_loads(topo, weights)
    score = {sw: Fraction(0) for sw in topo.switches}
    sws = list(topo.switches)
    dist, sigma = all_pairs_paths(topo)
    for i, u in enumerate(sws):
        for v in sws[i + 1 :]:
            w = load[u] + load[v]
            if w == 0:
                continue
            duv = dist[u][v]
            total = sigma[u][v]
            wf = Fraction(w).limit_denominator(10**9)
            for n in sws:
                if dist[u][n] + dist[n][v] == duv:
                    through = sigma[u][n] * sigma[n][v]
                    score[n] += wf * Fraction(through, total)
    return {sw: float(score[sw]) for sw in topo.switches}


def _induced_mst_cost(topo, nodes):
    """Kruskal over the induced subgraph; None when it is disconnected."""
    edges = sorted(
        (topo.adj[a][b].delay_ns, a, b)
        for a in nodes
        for b in topo.adj[a]
        if b in nodes and a < b
    )
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cost, joined = 0, 0
    for d, a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            cost += d
            joined += 1
    return cost if joined == len(nodes) - 1 else None


def exact_steiner_cost(topo, terminals):
    """Optimal connecting-subtree cost by trying every helper-node subset.

    Any optimal tree spans its own node set, so taking the minimum
    induced-subgraph MST over all subsets of non-terminals is exact.
    Exponential, fine for the small graphs used in tests.
    """
    terms = sorted(set(terminals))
    if len(terms) <= 1:
        return 0
    others = [s for s in topo.switches if s not in set(terms)]
    best = None
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            cost = _induced_mst_cost(topo, set(terms) | set(extra))
            if cost is not None and (best is None or cost < best):
                best = cost
    return best


def tree_cost(topo, edges):
    return sum(topo.adj[u][v].delay_ns for u, v in edges)


def assert_valid_tree(topo, edges, terminals):
    """The edge set must be a real tree in the graph covering all terminals."""
    terms = sorted(set(terminals))
    if len(terms) <= 1:
        assert edges == frozenset()
        return
    nodes = {n for e in edges for n in e}
    assert set(terms) <= nodes
    for u, v in edges:
        assert v in topo.adj[u], f"edge {u}-{v} not in topology"
    assert len(edges) == len(nodes) - 1, "cycle or disconnection"
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        assert ru != rv, "cycle in tree"
        parent[ru] = rv
    roots = {find(n) for n in nodes}
    assert len(roots) == 1, "tree is disconnected"


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


class QueuedDeliverySimulator(Simulator):
    """A simulator whose links are `DequeLink`s and whose every arrival,
    a host delivery too, waits on the event heap until the loop pops it:
    the event model from before host deliveries were counted when their
    link admits them, kept as the reference for that."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.deque_links = {ld: DequeLink(ld.delay_ns, ld.capacity_bps, self.queue_limit)
                            for ld in self._links}

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
        heapq.heappush(self._heap, (arr, next(self._seq), ld, pkt))
        return arr

"""Brute-force oracles, random topologies and scenarios, and the
benchmark's mesh scenario, shared across test modules.

Everything here is written from the declared behaviour alone, by the
slowest most obvious method available, so the fast implementations have
an independent reference to be checked against.
"""

import importlib.util
import itertools
import os
import random
from fractions import Fraction

from repdp import Link, Topology, node_loads, parse_scenario


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


def loop_free_vias(topo, lb, dst):
    """The neighbors of switch `lb`, in name order, through which linklb
    can balance toward switch `dst`: each is not `dst`, and its route to
    `dst`, walked hop by hop, never comes back to `lb`."""
    if dst == lb:
        return []
    vias = []
    for via in sorted(topo.adj[lb]):
        hop = via
        while hop not in (dst, lb):
            hop = topo.next_hop(hop, dst)
        if via != dst and hop == dst:
            vias.append(via)
    return vias


GENERATED_APPS = ("ddos", "ratelimit", "linklb", "resourcelb")
# The first seed whose `random_scenario` synchronizes its flows.
SYNCED_SEEDS = 20
MS = 1_000_000


def random_scenario(seed):
    """Scenario text for a small seeded case: a `random_switch_topology`
    of 3 to 6 switches with hosts, one of the four applications (by
    seed, in GENERATED_APPS order), a random replica count where the
    application's placement allows one, flows whose rates step up or
    down, links and queues small enough to drop packets, and a horizon
    of 2 s or less.

    From SYNCED_SEEDS on, the flows are synchronized: they start
    together at one rate, from two or three sources on one switch, so
    their packets reach switches on the same nanosecond. Every rate's
    period divides the estimators' delta, and serialization plus delay
    takes 10 or 20 ms a hop, so packets land on estimator tick
    boundaries."""
    rng = random.Random(seed)
    synced = seed >= SYNCED_SEEDS
    app = GENERATED_APPS[seed % len(GENERATED_APPS)]
    n = rng.randint(3, 6)
    mbps = rng.choice((2, 5, 10))
    topo = random_switch_topology(rng, n, extra_edges=rng.randint(0, 2),
                                  capacity_bps=mbps * 1_000_000,
                                  **({"delay_choices": (9 * MS, 19 * MS)} if synced else {}))
    sws = list(topo.switches)
    t_end = rng.choice((1.0, 1.5, 2.0))
    flows, loads = [], []
    # (name, switch, port class); each source weighs on the placement.
    sources = [(f"src{i}", rng.choice(sws), "external") for i in range(rng.randint(1, 3))]
    if synced:
        sources = [(f"src{i}", sources[0][1], "external") for i in range(rng.randint(2, 3))]
    sinks = [(f"dst{i}", rng.choice(sws), "downlink") for i in range(rng.randint(1, 2))]
    replicas = rng.randint(1, n)
    if app == "ddos":
        params = [f"threshold = {rng.choice((100, 200, 400))}",
                  f"epsilon_t = {20 * n if synced else 10 + n + 2}ms",
                  f"delta = {rng.choice((50, 100))}ms",
                  f"window = {rng.choice((4, 8))}", "states = auto"]
        r_min = 100
    elif app == "ratelimit":
        params = [f"limit = {rng.choice((1, 2))}Mbps", "epsilon_r = 10",
                  f"max_write_rate = {100 if synced else 625}",
                  f"delta = {rng.choice((50, 100))}ms",
                  f"window = {rng.choice((4, 8))}", "states = auto"]
        r_min = 250
    elif app == "linklb":
        # The busiest switch balances over up to two of its neighbors
        # toward a switch that is none of them.
        busiest = sorted(sws, key=lambda sw: (len(topo.adj[sw]), sw), reverse=True)
        lb = busiest[0]
        vias = sorted(topo.adj[lb])[:2]
        others = [sw for sw in sws if sw != lb and sw not in vias]
        # Where every other switch is a via, the last via is the target.
        dst = rng.choice(others) if others else vias.pop()
        # A flow pinned to a via whose route to dst runs back through lb
        # would loop: keep the vias clear of lb. Where none is, the
        # busiest switch that has a clear via to some switch balances
        # toward the first such switch in name order.
        vias = [v for v in vias if v in loop_free_vias(topo, lb, dst)]
        if not vias:
            lb, dst = next((b, d) for b in busiest for d in sws if loop_free_vias(topo, b, d))
            vias = loop_free_vias(topo, lb, dst)[:2]
        params = [f"lb_switch = {lb}", "path_via = " + " ".join(vias), f"dst_switch = {dst}"]
        sources[0] = ("src0", lb, "external")
        sinks = [(f"dst{i}", dst, "downlink") for i in range(len(sinks))]
        r_min = 200
    else:
        lb = rng.choice(sws)
        # The mean load lowers to a shift: a power-of-two server count.
        servers = [f"srv{i}" for i in range(rng.choice((2, 4)))]
        params = [f"lb_switch = {lb}", "servers = " + " ".join(servers)]
        sinks = [(srv, lb, "downlink") for srv in servers]
        for i, srv in enumerate(servers):
            steps = sorted(rng.sample(range(1, round(10 * t_end)), 2))
            loads.append(f"srv_load_{i} = " + " ".join(
                f"{t / 10:g}:{rng.randrange(100)}" for t in (0, *steps)))
        r_min = 100
    if synced and app in ("linklb", "resourcelb"):
        # Budgets of 100 ms and more cover the longer hops.
        params.append("max_write_rate = 100")
    if app in ("linklb", "resourcelb"):
        # Both place their states at their balancing switches (and
        # linklb's legs): take every switch, so the placement has them.
        replicas = n
    hosts = sources + sinks
    weights = [f"{h}:{rng.randint(1, 3)}" for h, _, _ in sources]
    if synced:
        # One start and rate for every flow, and 1 ms to serialize a
        # packet.
        start, rate = rng.randrange(2) / 10, rng.choice((100, 200))
    for src, _, _ in sources:
        for dst, _, _ in rng.sample(sinks, rng.randint(1, len(sinks))):
            rates = (0, 100, 200) if synced else (0, 50, 200, 600)
            steps = " ".join(f"@{t / 10:g}:{rng.choice(rates)}"
                             for t in sorted(rng.sample(range(2, round(10 * t_end)), 2)))
            size = rng.choice((512, 1500, 4000, 10000))
            syn = rng.choice(('yes', 'yes', 'no'))
            if not synced:
                start, rate = rng.randrange(2) / 10, rng.choice((50, 150, 400))
            flows.append([f"[flow.f{len(flows)}]", f"src = {src}", f"dst = {dst}",
                          f"size = {mbps * 1000 if synced else size}", f"syn = {syn}",
                          f"start = {start:g}", f"rate = {rate} {steps}"])
    out = ["format_version = 1", "", "[scenario]", f"name = generated_{seed}",
           f"seed = {seed}", f"t_end = {t_end:g}", "metrics_bin = 0.25",
           f"queue_limit = {rng.choice((2, 5, 100))}", "", "[topology]",
           "switches = " + " ".join(sws),
           "links = " + " ".join(f"{ln.u}-{ln.v}" for ln in topo.links),
           f"link_capacity = {mbps}Mbps", *(["host_delay = 9ms"] if synced else []), ""]
    for ln in topo.links:
        out += [f"[link.{ln.u}.{ln.v}]", f"delay = {ln.delay_ns / 1e6:g}ms", ""]
    for h, sw, cls in hosts:
        out += [f"[host.{h}]", f"attach = {sw}", f"port_class = {cls}", ""]
    out += ["[application]", f"name = {app}", *params, "", "[embedding]",
            f"replicas = {replicas}", f"r_min = {r_min}", "weights = " + " ".join(weights), ""]
    for flow in flows:
        out += [*flow, ""]
    if loads:
        out += ["[loads]", *loads, ""]
    return "\n".join(out)


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

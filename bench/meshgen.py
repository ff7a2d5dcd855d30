"""Seeded generator for the ddos-mesh-128 scenario (stdlib only).

Shape: 128 switches joined by a random spanning tree plus 64 extra
links (0.2, 0.5 or 1 ms each), 32 source hosts and 8 collector hosts on
distinct switches, one SYN flow per source/collector pair (256 flows)
whose rate triples at mid-run, and the ddos app at 8 replicas.

The switch graph comes from the fixed GRAPH_SEED; the workload seed
places the hosts, and with them the flows' paths, the replica set and
the distribution tree. A random graph per seed would swing the event
count and the betweenness cost by several percent from seed to seed,
which the benchmark would read as run-to-run noise. The same seed
always yields the same scenario text.
"""

from __future__ import annotations

import heapq
import itertools
import random

GRAPH_SEED = 128
SWITCHES = 128
EXTRA_LINKS = 64
DELAYS_MS = (0.2, 0.5, 1.0)
SOURCES = 32
COLLECTORS = 8
REPLICAS = 8
T_END_S = 20
BASE_PPS = 10
PACKET_BITS = 512
R_MIN = 100
EPSILON_T_MS = 20.0


def _diameter_ms(names, links) -> float:
    """Largest shortest-path delay between any two switches."""
    adj = {n: [] for n in names}
    for a, b, d in links:
        adj[a].append((b, d))
        adj[b].append((a, d))
    worst = 0.0
    for src in names:
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, n = heapq.heappop(heap)
            if d > dist[n]:
                continue
            for m, w in adj[n]:
                nd = d + w
                if nd < dist.get(m, float("inf")):
                    dist[m] = nd
                    heapq.heappush(heap, (nd, m))
        worst = max(worst, max(dist.values()))
    return worst


def epsilon_t_ms(diameter_ms: float) -> float:
    """Staleness budget that is feasible for any replica placement.

    The solver needs epsilon_t > worst replica-pair delay + 1/r_min; the
    worst pair is at most the switch diameter, so 20 ms is widened only
    when a generated topology would leave no room for it.
    """
    return max(EPSILON_T_MS, 1000.0 / R_MIN + diameter_ms + 1.0)


def generate(seed: int) -> str:
    """Scenario text for `seed`, ready for repdp's parse_scenario."""
    rng = random.Random(GRAPH_SEED)
    names = [f"s{i}" for i in range(SWITCHES)]
    order = names[:]
    rng.shuffle(order)
    links = []
    used = set()
    for i in range(1, len(order)):
        a, b = sorted((order[rng.randrange(i)], order[i]))
        used.add((a, b))
        links.append((a, b, rng.choice(DELAYS_MS)))
    spare = [p for p in itertools.combinations(sorted(names), 2) if p not in used]
    for a, b in rng.sample(spare, EXTRA_LINKS):
        links.append((a, b, rng.choice(DELAYS_MS)))

    attach = random.Random(seed).sample(names, SOURCES + COLLECTORS)
    sources = [(f"src{i}", attach[i]) for i in range(SOURCES)]
    collectors = [(f"dst{i}", attach[SOURCES + i]) for i in range(COLLECTORS)]
    n_flows = SOURCES * COLLECTORS
    eps = epsilon_t_ms(_diameter_ms(names, links))

    out = [
        f"# ddos-mesh-128, generated from seed {seed}.",
        "format_version = 1",
        "",
        "[scenario]",
        "name = ddos_mesh",
        f"seed = {seed}",
        f"t_end = {T_END_S}",
        "metrics_bin = 0.5",
        "queue_limit = 100",
        "",
        "[topology]",
        "switches = " + " ".join(names),
        "links = " + " ".join(f"{a}-{b}" for a, b, _ in links),
        "link_capacity = 10Mbps",
        "host_delay = 0.01ms",
        "",
    ]
    for a, b, d in links:
        out += [f"[link.{a}.{b}]", f"delay = {d}ms", ""]
    for h, sw in sources:
        out += [f"[host.{h}]", f"attach = {sw}", "port_class = external", ""]
    for h, sw in collectors:
        out += [f"[host.{h}]", f"attach = {sw}", "port_class = downlink", ""]
    # Detection fires once the tripled rate pushes the sum past 2x base.
    out += [
        "[application]",
        "name = ddos",
        f"threshold = {2 * BASE_PPS * n_flows}",
        f"epsilon_t = {eps!r}ms",
        "delta = 100ms",
        "window = 8",
        "states = auto",
        "",
        "[embedding]",
        f"replicas = {REPLICAS}",
        f"r_min = {R_MIN}",
        "trigger_mode = time",
        "weights = " + " ".join(f"{h}:1" for h, _ in sources + collectors),
        "",
    ]
    half = T_END_S / 2
    for s, _ in sources:
        for c, _ in collectors:
            out += [
                f"[flow.{s}_{c}]",
                f"src = {s}",
                f"dst = {c}",
                f"size = {PACKET_BITS}",
                "syn = yes",
                "start = 0",
                f"rate = {BASE_PPS} @{half:g}:{3 * BASE_PPS}",
                "",
            ]
    return "\n".join(out)

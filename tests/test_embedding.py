"""Placement, distribution tree, and update-period solving."""

import random
from dataclasses import replace

import pytest
from helpers import (
    all_pairs_paths,
    assert_valid_tree,
    brute_betweenness,
    exact_steiner_cost,
    mesh_config,
    pairwise_betweenness,
    random_switch_topology,
    tree_cost,
)

from repdp import (
    DisconnectedTerminals,
    DisconnectedTopology,
    EmbeddingConfig,
    InconsistencySpec,
    InfeasibleBudget,
    InsufficientNodes,
    Link,
    Simulator,
    Topology,
    build_dag,
    build_replication_plan,
    build_simulation,
    compile_application,
    make_ddos_app,
    node_loads,
    place_replicas,
    serialize_plan,
    solve_replication_period,
    steiner_tree,
    weighted_betweenness,
)

MS = 1_000_000


def ring4(delay_ns=500_000):
    links = [
        Link("sw1", "sw2", delay_ns, 10_000_000),
        Link("sw2", "sw3", delay_ns, 10_000_000),
        Link("sw3", "sw4", delay_ns, 10_000_000),
        Link("sw1", "sw4", delay_ns, 10_000_000),
    ]
    return Topology(("sw1", "sw2", "sw3", "sw4"), (), links)


# ---------------------------------------------------------------------------
# Topology basics.


def test_topology_rejects_bad_shapes():
    good = [Link("a", "b", 1000, 1_000_000)]
    with pytest.raises(DisconnectedTopology):
        Topology(("a", "a"), (), good)  # duplicate name
    with pytest.raises(DisconnectedTopology):
        Topology(("a", "b"), (), [Link("a", "c", 1000, 1_000_000)])  # unknown endpoint
    with pytest.raises(DisconnectedTopology):
        Topology(("a", "b"), (), [Link("a", "b", 0, 1_000_000)])  # zero delay
    with pytest.raises(DisconnectedTopology):
        Topology(("a", "b", "c"), (), good)  # c unreachable
    with pytest.raises(DisconnectedTopology):
        Topology(("a", "b"), ("h",), good)  # host with no attachment
    with pytest.raises(DisconnectedTopology):
        Topology(
            ("a", "b"),
            ("h",),
            good + [Link("h", "a", 1000, 1_000_000), Link("h", "b", 1000, 1_000_000)],
        )  # host with two attachments
    with pytest.raises(DisconnectedTopology, match="to itself"):
        Topology(("a", "b"), (), good + [Link("a", "a", 1000, 1_000_000)])  # self-loop
    with pytest.raises(DisconnectedTopology, match="duplicate link"):
        Topology(("a", "b"), (), good + [Link("b", "a", 1000, 1_000_000)])
    with pytest.raises(DisconnectedTopology, match="attach to a switch"):
        Topology(("a", "b"), ("h", "g"), good + [Link("h", "g", 1000, 1_000_000)])
    with pytest.raises(DisconnectedTopology, match="empty topology"):
        Topology((), (), [])


@pytest.mark.parametrize("switches, hosts, links, key", [
    ((), (), [], ("topology", "switches")),
    (("a", "b", "a"), (), [("a", "b")], ("topology", "switches")),
    (("a", "b"), ("h", "b"), [("a", "b"), ("h", "a")], ("host.b", None)),
    (("a", "b"), (), [("a", "c")], ("topology", "links")),
    (("x",), (), [("a", "b")], ("topology", "switches")),
    (("a", "b"), (), [("a", "b"), ("b", "b")], ("topology", "links")),
    (("a", "b"), (), [("a", "b"), ("b", "a")], ("topology", "links")),
    (("a", "b", "c"), (), [("a", "b")], ("topology", "links")),
    (("a", "b"), ("h",), [("a", "b"), ("h", "z")], ("host.h", "attach")),
    (("a", "b"), ("h", "g"), [("a", "b"), ("h", "g"), ("g", "a")], ("host.h", "attach")),
    (("a", "b"), ("h",), [("a", "b"), ("h", "a"), ("h", "b")], ("topology", "links")),
    (("a", "b"), ("h",), [("a", "b")], ("host.h", "attach")),
], ids=["no_switches", "duplicate_switch", "host_named_like_a_switch", "unknown_endpoint",
        "no_link_names_a_switch", "self_loop", "duplicate_link", "disconnected",
        "host_attaches_to_unknown_switch", "host_attaches_to_a_host",
        "host_linked_twice", "host_not_attached"])
def test_topology_errors_name_the_key_they_blame(switches, hosts, links, key):
    with pytest.raises(DisconnectedTopology) as exc:
        Topology(switches, hosts, [Link(u, v, 1000, 1_000_000) for u, v in links])
    assert exc.value.key == key, str(exc.value)


def test_next_hop_breaks_ties_by_name():
    topo = ring4()
    # Both ways around the ring cost the same; the name-lowest neighbor wins.
    assert topo.next_hop("sw1", "sw3") == "sw2"
    assert topo.next_hop("sw3", "sw1") == "sw2"
    assert topo.delay_between("sw1", "sw3") == topo.delay_between("sw3", "sw1") == MS


def test_routes_and_delays_match_floyd_warshall_on_random_graphs():
    # At 11 switches or more s10 sorts before s2, so name order and
    # declaration order differ; two delays make equal-cost ties common.
    rng = random.Random(0x4E47)
    ties = 0
    for trial in range(40):
        n = rng.randrange(11, 25)
        topo = random_switch_topology(
            rng, n, extra_edges=rng.randrange(n, 2 * n), delay_choices=(1000, 2000)
        )
        topo = with_hosts(rng, topo, rng.randrange(0, 4))
        dist, _ = all_pairs_paths(topo)
        # A flow monitored at each switch installs every switch's route
        # toward it; host hx gives the flows a host on every graph.
        sim = Simulator(Topology(topo.switches, (*topo.hosts, "hx"),
                                 (*topo.links, Link("hx", "s0", 10_000, 10_000_000))))
        for to in topo.switches:
            sim.add_flow(to, "hx", "hx", 1000, False, [(0.0, 1.0)], 1.0, monitor=to)
        for sw in topo.switches:
            for dst in topo.switches:
                assert topo.delay_between(sw, dst) == dist[sw][dst], (trial, sw, dst)
                if dst == sw:
                    continue
                hops = sorted(
                    m
                    for m, ln in topo.adj[sw].items()
                    if topo.is_switch(m) and ln.delay_ns + dist[m][dst] == dist[sw][dst]
                )
                ties += len(hops) > 1
                link = sim.switch_rt[sw].route[dst]
                assert (link.src, link.far.name) == (sw, hops[0]), (trial, sw, dst, hops)
                assert topo.next_hop(sw, dst) == hops[0]
    assert ties > 1000


def test_tables_filled_on_demand_match_floyd_warshall_in_any_order():
    # Each topology is fresh, so its tables fill in the order of the
    # questions: a delay reads its first switch's table, and a next hop
    # the destination's.
    rng = random.Random(0x7AB1)
    for trial in range(40):
        n = rng.randrange(2, 25)
        topo = random_switch_topology(
            rng, n, extra_edges=rng.randrange(0, 2 * n), delay_choices=(1000, 2000)
        )
        topo = with_hosts(rng, topo, rng.randrange(1, 4))
        dist, _ = all_pairs_paths(topo)
        asks = [(ask, a, b) for ask in ("delay", "hop") for a in topo.switches
                for b in topo.switches if ask == "delay" or a != b]
        rng.shuffle(asks)
        for ask, a, b in asks:
            if ask == "delay":
                assert topo.delay_between(a, b) == dist[a][b], (trial, a, b)
                continue
            hop = min(
                m
                for m, ln in topo.adj[a].items()
                if topo.is_switch(m) and ln.delay_ns + dist[m][b] == dist[a][b]
            )
            assert topo.next_hop(a, b) == hop, (trial, a, b)
        assert len(topo._tables) == n


def test_host_attachment_and_loads():
    topo = Topology(
        ("a", "b"),
        ("h1", "h2"),
        [
            Link("a", "b", 1000, 1_000_000),
            Link("h1", "a", 10, 1_000_000),
            Link("h2", "a", 10, 1_000_000),
        ],
    )
    assert topo.attached_switch("h1") == "a"
    loads = node_loads(topo, {"h1": 2.0, "h2": 1.0, "b": 4.0})
    assert loads == {"a": 3.0, "b": 4.0}


# ---------------------------------------------------------------------------
# Betweenness against exhaustive path enumeration.


def test_betweenness_matches_brute_force_on_random_graphs():
    rng = random.Random(0xBEE5)
    for trial in range(30):
        topo = random_switch_topology(rng, rng.randrange(3, 7), extra_edges=rng.randrange(0, 3))
        weights = {sw: float(rng.randrange(0, 5)) for sw in topo.switches}
        got = weighted_betweenness(topo, weights)
        want = brute_betweenness(topo, weights)
        for sw in topo.switches:
            assert got[sw] == pytest.approx(want[sw], abs=1e-9), (trial, sw, weights)


WEIGHT_CHOICES = (0.0, 0.1, 1 / 3, 1.0, 2.5)


def with_hosts(rng, topo, n_hosts):
    """`topo` plus n_hosts hosts, each on a random switch."""
    hosts = [f"h{i}" for i in range(n_hosts)]
    links = list(topo.links)
    for h in hosts:
        links.append(Link(h, rng.choice(topo.switches), 10_000, 10_000_000))
    return Topology(topo.switches, hosts, links)


def test_betweenness_equals_pairwise_formula_exactly():
    rng = random.Random(0xB7A4)
    for trial in range(60):
        n = rng.randrange(2, 41)
        # Few distinct delays, so many pairs have several shortest paths.
        delays = rng.choice([(1000,), (1000, 2000), (200_000, 500_000, 1_000_000)])
        topo = random_switch_topology(
            rng, n, extra_edges=rng.randrange(0, n + 1), delay_choices=delays
        )
        topo = with_hosts(rng, topo, rng.randrange(0, 4))
        nodes = topo.switches + topo.hosts
        weighted = rng.sample(nodes, rng.randrange(len(nodes) + 1))
        weights = {x: rng.choice(WEIGHT_CHOICES) for x in weighted}
        assert weighted_betweenness(topo, weights) == pairwise_betweenness(topo, weights), (
            trial,
            weights,
        )


def test_betweenness_of_empty_weights_is_zero():
    rng = random.Random(7)
    topo = with_hosts(rng, random_switch_topology(rng, 12, extra_edges=6), 3)
    got = weighted_betweenness(topo, {})
    assert got == pairwise_betweenness(topo, {})
    assert got == {sw: 0.0 for sw in topo.switches}


def test_betweenness_equals_pairwise_formula_on_generated_mesh(tmp_path):
    cfg = mesh_config(tmp_path, 11)
    assert len(cfg.topology.switches) == 128
    got = weighted_betweenness(cfg.topology, cfg.weights)
    assert got == pairwise_betweenness(cfg.topology, cfg.weights)


def ranking(topo, weights):
    program = compile_application(build_dag(make_ddos_app(1, 1000, 0.014)))
    return place_replicas(topo, EmbeddingConfig(1, weights), program, {}).ranking


def test_path_graph_center_scores_highest():
    topo = Topology(
        ("a", "b", "c"),
        (),
        [Link("a", "b", 1000, 1_000_000), Link("b", "c", 1000, 1_000_000)],
    )
    assert ranking(topo, {"a": 1.0, "c": 1.0}) == ["b", "a", "c"]


def test_ranking_tie_breaks_by_name():
    topo = ring4()
    assert ranking(topo, {sw: 1.0 for sw in topo.switches}) == ["sw1", "sw2", "sw3", "sw4"]


# ---------------------------------------------------------------------------
# Distribution tree against the exact optimum.


def test_steiner_tree_within_twice_optimal():
    rng = random.Random(0x57E1)
    for trial in range(100):
        n = rng.randrange(4, 9)
        topo = random_switch_topology(rng, n, extra_edges=rng.randrange(0, 4))
        k = rng.randrange(2, min(5, n + 1))
        terminals = rng.sample(sorted(topo.switches), k)
        tree = steiner_tree(topo, terminals)
        assert_valid_tree(topo, tree, terminals)
        opt = exact_steiner_cost(topo, terminals)
        got = tree_cost(topo, tree)
        assert opt <= got <= 2 * opt, (trial, terminals, got, opt)


def test_steiner_degenerate_and_errors():
    topo = ring4()
    assert steiner_tree(topo, []) == frozenset()
    assert steiner_tree(topo, ["sw2"]) == frozenset()
    assert steiner_tree(topo, ["sw2", "sw2"]) == frozenset()
    with pytest.raises(DisconnectedTerminals):
        steiner_tree(topo, ["sw1", "nope"])


def test_steiner_tree_is_deterministic():
    topo = ring4()
    t1 = steiner_tree(topo, ["sw1", "sw3"])
    assert t1 == steiner_tree(topo, ["sw3", "sw1"])
    assert t1 == frozenset({("sw1", "sw2"), ("sw2", "sw3")})


def test_steiner_tree_prunes_non_terminal_leaves():
    # u and v are joined by two equal shortest paths, u-p-s-v and u-q-r-v.
    # The path a -> b steps from v to r (r < s), the path b -> c from u
    # to p (p < q), so the union holds the whole ring. Its spanning tree
    # drops s-v, which leaves the non-terminal branch s-p hanging off u.
    hop = [("u", "p", 1), ("p", "s", 1), ("s", "v", 1), ("v", "r", 1), ("r", "q", 1),
           ("q", "u", 1), ("b", "u", 1), ("a", "v", 5), ("c", "v", 5)]
    topo = Topology(tuple("abcpqrsuv"), (), [Link(x, y, d * MS, 10_000_000) for x, y, d in hop])
    tree = steiner_tree(topo, ["a", "b", "c"])
    assert_valid_tree(topo, tree, ["a", "b", "c"])
    assert tree == frozenset({("a", "v"), ("b", "u"), ("c", "v"), ("q", "r"), ("q", "u"),
                              ("r", "v")})


# ---------------------------------------------------------------------------
# Replica placement.


def ddos_program(n=4):
    dag = build_dag(make_ddos_app(n, 1000, 0.014))
    return compile_application(dag)


def test_placement_replicates_budgeted_states_on_top_ranked():
    topo = ring4()
    program = ddos_program(4)
    reqs = {s.name: InconsistencySpec.time_obsolescence(0.014) for s in program.states}
    placement = place_replicas(topo, EmbeddingConfig(2, {"sw1": 3, "sw3": 3}), program, reqs)
    for cs in program.states:
        assert placement.nodes[cs.name] == ("sw1", "sw3")
    # Round-robin origins over the name-sorted replica set.
    origins = [placement.origin[cs.name] for cs in program.states]
    assert origins == ["sw1", "sw3", "sw1", "sw3"]
    assert placement.replicated_states() == [cs.name for cs in program.states]


def test_budget_free_states_stay_single():
    topo = ring4()
    program = ddos_program(2)
    placement = place_replicas(topo, EmbeddingConfig(3), program, {})
    for cs in program.states:
        assert len(placement.nodes[cs.name]) == 1
    assert placement.replicated_states() == []


def hinted_program(*hints):
    app = make_ddos_app(len(hints), 1000, 0.014)
    states = tuple(replace(s, target_hint=h) for s, h in zip(app.states, hints))
    return compile_application(build_dag(replace(app, states=states)))


def test_target_hint_overrides_round_robin():
    topo = ring4()
    program = hinted_program("sw2", "sw2")
    reqs = {s.name: InconsistencySpec.time_obsolescence(0.014) for s in program.states}
    placement = place_replicas(topo, EmbeddingConfig(2), program, reqs)
    assert all(placement.origin[cs.name] == "sw2" for cs in program.states)
    program = hinted_program("sw4", "sw2")  # sw4 is not in the top-2 set
    with pytest.raises(InsufficientNodes):
        place_replicas(topo, EmbeddingConfig(2), program, reqs)


def test_replica_count_bounds():
    topo = ring4()
    program = ddos_program(2)
    with pytest.raises(InsufficientNodes):
        place_replicas(topo, EmbeddingConfig(0), program, {})
    with pytest.raises(InsufficientNodes):
        place_replicas(topo, EmbeddingConfig(5), program, {})


# ---------------------------------------------------------------------------
# Update period solving.


def test_time_mode_budget_split_exact():
    spec = InconsistencySpec.time_obsolescence(0.014)
    sol = solve_replication_period(spec, worst_pair_delay_ns=MS, r_min=100.0)
    assert sol.d_r_ns == 13 * MS
    assert sol.worst_pair_delay_ns == MS
    assert sol.mode == "time"
    assert sol.tau_ns == 13 * MS - 10 * MS


def test_update_error_budget_is_count_over_rate():
    spec = InconsistencySpec.update_error(10, 625.0)
    sol = solve_replication_period(spec, worst_pair_delay_ns=MS, r_min=250.0)
    assert sol.d_r_ns == 16 * MS - MS
    assert sol.tau_ns == sol.d_r_ns - round(1e9 / 250.0)


def test_packet_mode_counts_whole_packets():
    spec = InconsistencySpec.time_obsolescence(0.014)
    sol = solve_replication_period(spec, MS, r_min=250.0, mode="packet")
    assert sol.mode == "packet"
    assert sol.packet_period == int(13 * MS * 250 // 1e9) == 3


def test_infeasible_budgets_raise():
    spec = InconsistencySpec.time_obsolescence(0.014)
    with pytest.raises(InfeasibleBudget):
        solve_replication_period(spec, worst_pair_delay_ns=14 * MS, r_min=100.0)
    with pytest.raises(InfeasibleBudget):  # 13 ms < one interarrival at 50/s
        solve_replication_period(spec, MS, r_min=50.0)
    with pytest.raises(InfeasibleBudget):  # under one packet per period
        solve_replication_period(spec, MS, r_min=10.0, mode="packet")
    with pytest.raises(InfeasibleBudget):
        solve_replication_period(InconsistencySpec.none(), MS, 100.0)
    with pytest.raises(InfeasibleBudget):
        solve_replication_period(spec, MS, 100.0, mode="sideways")
    with pytest.raises(InfeasibleBudget):
        solve_replication_period(spec, MS, r_min=0.0)


def test_clock_rules_hold_at_one_replica():
    # Without a replicated state no period is solved; the plan still
    # checks r_min and the trigger mode, and names the key at fault.
    topo = ring4()
    program = ddos_program(2)
    reqs = {s.name: InconsistencySpec.time_obsolescence(0.014) for s in program.states}
    placement = place_replicas(topo, EmbeddingConfig(1), program, reqs)
    assert placement.replicated_states() == []
    for r_min, mode, key in ((0.0, "time", "r_min"), (-1.0, "packet", "r_min"),
                             (100.0, "sideways", "trigger_mode")):
        with pytest.raises(InfeasibleBudget) as exc:
            build_replication_plan(topo, placement, reqs, r_min, mode)
        assert exc.value.key == key
        with pytest.raises(InfeasibleBudget) as exc:
            solve_replication_period(reqs["syn_rate_0"], MS, r_min, mode)
        assert exc.value.key == key


# ---------------------------------------------------------------------------
# Plan assembly and rule installation.


def fig_like_setup(replica_count):
    topo = ring4()
    program = ddos_program(4)
    reqs = {s.name: InconsistencySpec.time_obsolescence(0.014) for s in program.states}
    weights = {"sw1": 3.0, "sw2": 1.0, "sw3": 3.0, "sw4": 1.0}
    placement = place_replicas(topo, EmbeddingConfig(replica_count, weights), program, reqs)
    plan = build_replication_plan(topo, placement, reqs, r_min=100.0)
    return topo, placement, plan


def test_plan_uses_worst_pair_among_replicas():
    topo, placement, plan = fig_like_setup(2)
    assert set(placement.nodes["syn_rate_0"]) == {"sw1", "sw3"}
    sol = plan.solutions["syn_rate_0"]
    assert sol.worst_pair_delay_ns == MS  # two 0.5 ms hops across the ring
    assert sol.d_r_ns == 13 * MS
    assert plan.tree_edges == frozenset({("sw1", "sw2"), ("sw2", "sw3")})


def installed(replica_count):
    """A simulator on ring4 with fig_like_setup's plan installed."""
    topo, placement, plan = fig_like_setup(replica_count)
    sim = Simulator(topo)
    sim.install_app(ddos_program(4), placement, plan)
    return sim


def test_single_replica_plan_has_no_tree_or_flooding():
    topo, placement, plan = fig_like_setup(1)
    assert plan.tree_edges == frozenset()
    assert plan.solutions == {}
    sim = installed(1)
    for sw, rt in sim.switch_rt.items():
        assert rt.flood == {None: ()}
        # Routes come with flows: until one is added, a table is empty.
        assert rt.route == {}


def test_mesh_build_runs_dijkstra_only_from_addressed_switches(tmp_path):
    cfg = mesh_config(tmp_path, 11)
    built = build_simulation(cfg)
    topo = cfg.topology
    # Betweenness runs from the loaded switches, each of which has a
    # host, and the tree, the periods and the monitor choice read
    # replica tables: 46 passes, not 128.
    tabled = {topo.attached_switch(h) for h in topo.hosts}
    tabled.update(sw for nodes in built.placement.nodes.values() for sw in nodes)
    assert len(topo._tables) == len(tabled) == 46
    assert {sw for sw, i in topo.index.items() if i in topo._tables} == tabled
    # Packets are addressed to their flow's destination host or its
    # monitor, a replica (ddos forces none), so only those get routes,
    # each switch's to every such host and every monitor but itself.
    hosts = {fl.dst for fl in built.sim.flows}
    monitors = {fl.monitor for fl in built.sim.flows}
    assert (len(hosts), len(monitors)) == (8, 8)
    for sw, rt in built.sim.switch_rt.items():
        assert set(rt.route) == hosts | (monitors - {sw})


def test_install_app_floods_along_tree_only():
    sim = installed(2)
    # Tree sw1-sw2-sw3: each switch floods to its tree neighbours in name
    # order, minus the port an update came in on.
    floods = {sw: {ingress: tuple(ld.dst for ld in out) for ingress, out in rt.flood.items()}
              for sw, rt in sim.switch_rt.items()}
    assert floods == {
        "sw1": {None: ("sw2",), "sw2": ()},
        "sw2": {None: ("sw1", "sw3"), "sw1": ("sw3",), "sw3": ("sw1",)},
        "sw3": {None: ("sw2",), "sw2": ()},
        "sw4": {None: ()},
    }


def test_serialize_plan_is_stable_and_complete():
    _, placement, plan = fig_like_setup(2)
    text = serialize_plan(placement, plan)
    assert text == serialize_plan(placement, plan)
    assert "ranking: sw1 sw3 sw2 sw4" in text
    assert "tree: sw1-sw2 sw2-sw3" in text
    assert "state syn_rate_0: replicas=[sw1,sw3] origin=sw1" in text
    assert "period syn_rate_0: d_r_ns=13000000 worst_pair_ns=1000000 mode=time tau_ns=3000000" in text

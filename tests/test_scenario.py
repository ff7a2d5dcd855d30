"""Scenario file parsing: happy paths, units, and line-accurate errors."""

import pathlib

import pytest

from repdp import PortClass, ScenarioError, build_simulation, parse_scenario

BASE = """format_version = 1
[scenario]
name = t
seed = 1
[topology]
switches = s1 s2
links = s1-s2
[host.h1]
attach = s1
port_class = external
[host.h2]
attach = s2
port_class = downlink
[application]
name = ddos
threshold = 10
epsilon_t = 14ms
[embedding]
replicas = 1
[flow.f]
src = h1
dst = h2
size = 1000
rate = 10
"""


def parse_text(tmp_path, text, name="case.scn"):
    p = tmp_path / name
    p.write_text(text)
    return parse_scenario(str(p))


def expect_error(tmp_path, text, needle, at_line=None):
    with pytest.raises(ScenarioError) as exc:
        parse_text(tmp_path, text)
    assert needle in str(exc.value), str(exc.value)
    if at_line is not None:
        assert exc.value.line == at_line, str(exc.value)
    return exc.value


def expect_build_error(tmp_path, text, needle, at_line=None):
    """As expect_error, for a rule that the reader leaves to the build."""
    cfg = parse_text(tmp_path, text)
    with pytest.raises(ScenarioError) as exc:
        build_simulation(cfg)
    assert needle in str(exc.value), str(exc.value)
    if at_line is not None:
        assert exc.value.line == at_line, str(exc.value)
    return exc.value


def line_of(text, fragment):
    for i, line in enumerate(text.splitlines(), start=1):
        if fragment in line:
            return i
    raise AssertionError(f"{fragment!r} not in text")


# ---------------------------------------------------------------------------
# Shipped scenarios.


def test_parses_detection_scenario():
    cfg = parse_scenario("scenarios/fig7_ddos_c2.scn")
    assert cfg.name == "ddos_ring"
    assert cfg.seed == 7
    assert cfg.t_end_s == 60.0
    assert cfg.metrics_bin_s == 0.5
    assert cfg.replication is True
    assert cfg.topology.switches == ("sw1", "sw2", "sw3", "sw4")
    assert len(cfg.topology.hosts) == 7
    assert cfg.app_name == "ddos"
    assert cfg.app_params["threshold"] == 1000.0
    assert cfg.app_params["epsilon_t_s"] == pytest.approx(0.014)
    assert cfg.app_params["window"] == 8
    assert cfg.replicas == 2
    assert cfg.r_min == 100.0
    assert cfg.trigger_mode == "time"
    assert cfg.weights == {"as1": 3.0, "as2": 1.0, "as3": 3.0, "as4": 1.0}
    assert len(cfg.flows) == 12
    heavy = next(f for f in cfg.flows if f.name == "a1c1")
    assert heavy.size_bits == 1950
    assert heavy.syn is True
    assert heavy.stop_s == 60.0
    assert heavy.segments == [(0.0, 48.0), (20.0, 100.0), (20.5, 200.0), (21.0, 300.0)]
    # Port classes tag the switch side of the host link.
    ln = cfg.topology.adj["as1"]["sw1"]
    assert ln.port_class("sw1") is PortClass.EXTERNAL
    assert ln.delay_ns == 10_000
    collector = cfg.topology.adj["c1"]["sw4"]
    assert collector.port_class("sw4") is PortClass.DOWNLINK


def test_parses_limiter_scenario():
    cfg = parse_scenario("scenarios/fig8_ratelimit.scn")
    assert cfg.app_name == "ratelimit"
    assert cfg.app_params["rate_limit_bps"] == 8_000_000
    assert cfg.app_params["epsilon_r"] == 10
    assert cfg.app_params["max_write_rate"] == 625.0
    assert cfg.r_min == 250.0
    f2 = next(f for f in cfg.flows if f.name == "f2")
    assert f2.segments == [(20.0, 500.0)]
    link = cfg.topology.adj["sw1"]["sw2"]
    assert link.delay_ns == 500_000
    assert link.capacity_bps == 10_000_000


# ---------------------------------------------------------------------------
# Units, defaults, overrides.


def test_defaults_fill_in(tmp_path):
    cfg = parse_text(tmp_path, BASE)
    assert cfg.t_end_s == 60.0
    assert cfg.metrics_bin_s == 0.5
    assert cfg.queue_limit == 100
    assert cfg.replication is True
    assert cfg.trigger_mode == "time"
    assert cfg.r_min == 100.0
    assert cfg.weights == {}
    f = cfg.flows[0]
    assert f.syn is False
    assert f.stop_s == 60.0
    assert f.segments == [(0.0, 10.0)]
    assert cfg.app_params["delta_s"] == pytest.approx(0.1)


def test_duration_and_capacity_units(tmp_path):
    text = BASE.replace("[topology]",
                        "[topology]\nlink_delay = 250us\nlink_capacity = 1Gbps\nhost_delay = 2ms")
    cfg = parse_text(tmp_path, text)
    ln = cfg.topology.adj["s1"]["s2"]
    assert ln.delay_ns == 250_000
    assert ln.capacity_bps == 1_000_000_000
    assert cfg.topology.adj["h1"]["s1"].delay_ns == 2_000_000


def test_per_link_and_per_host_overrides(tmp_path):
    text = BASE + "\n[link.s2.s1]\ndelay = 3ms\ncapacity = 1Mbps\n"
    text = text.replace("[host.h1]\nattach = s1",
                        "[host.h1]\nattach = s1\ndelay = 5ms\ncapacity = 2Mbps")
    cfg = parse_text(tmp_path, text)
    ln = cfg.topology.adj["s1"]["s2"]
    assert (ln.delay_ns, ln.capacity_bps) == (3_000_000, 1_000_000)
    hl = cfg.topology.adj["h1"]["s1"]
    assert (hl.delay_ns, hl.capacity_bps) == (5_000_000, 2_000_000)


def test_comments_and_blank_lines_ignored(tmp_path):
    text = BASE.replace("seed = 1", "seed = 1   # chosen fairly\n\n# a full-line comment")
    assert parse_text(tmp_path, text).seed == 1


def test_hash_glued_to_a_value_is_part_of_it(tmp_path):
    # '#' opens a comment only at line start or after a space or a tab.
    text = BASE.replace("name = t", "name = run#1")
    expect_error(tmp_path, text, "bad scenario name 'run#1'", at_line=line_of(text, "run#1"))


def test_tab_before_hash_opens_a_comment(tmp_path):
    text = BASE.replace("name = t", "name = t\t# tabbed").replace("seed = 1", "seed = 1\t#2")
    cfg = parse_text(tmp_path, text)
    assert (cfg.name, cfg.seed) == ("t", 1)


def test_comment_only_lines_are_skipped(tmp_path):
    text = BASE.replace("[topology]", "# a = b\n   # [flow.x]\n\t#= c\n#\n[topology]")
    cfg = parse_text(tmp_path, text)
    assert cfg.topology.switches == ("s1", "s2")
    assert [f.name for f in cfg.flows] == ["f"]
    assert cfg.line("topology") == line_of(text, "[topology]")
    assert cfg.line("topology", "links") == line_of(text, "links = ")


def test_replication_can_be_disabled(tmp_path):
    cfg = parse_text(tmp_path, BASE.replace("seed = 1", "seed = 1\nreplication = off"))
    assert cfg.replication is False


def test_loads_sorted_by_time_then_state(tmp_path):
    text = (BASE.replace("name = ddos\nthreshold = 10\nepsilon_t = 14ms",
                         "name = resourcelb\nlb_switch = s1\nservers = h1")
            .replace("[flow.f]\nsrc = h1", "[flow.f]\nsrc = h2")
            .replace("dst = h2", "dst = h1")
            + "[loads]\nsrv_load_0 = 2:50 0:10 1:20\n")
    cfg = parse_text(tmp_path, text)
    assert cfg.loads == [(0.0, "srv_load_0", 10), (1.0, "srv_load_0", 20),
                         (2.0, "srv_load_0", 50)]


def test_rate_steps_use_absolute_times(tmp_path):
    text = BASE.replace("rate = 10", "start = 5\nstop = 30\nrate = 10 @12:75 @20:0")
    f = parse_text(tmp_path, text).flows[0]
    assert f.segments == [(5.0, 10.0), (12.0, 75.0), (20.0, 0.0)]


# ---------------------------------------------------------------------------
# Malformed inputs carry the offending line.


def test_missing_format_version(tmp_path):
    expect_error(tmp_path, BASE.replace("format_version = 1\n", ""),
                 "format_version", at_line=1)


def test_wrong_format_version(tmp_path):
    text = BASE.replace("format_version = 1", "format_version = 9")
    expect_error(tmp_path, text, "unsupported format_version",
                 at_line=line_of(text, "format_version"))


def test_missing_seed(tmp_path):
    expect_error(tmp_path, BASE.replace("seed = 1\n", ""), "seed")


def test_bad_duration(tmp_path):
    text = BASE.replace("epsilon_t = 14ms", "epsilon_t = 14parsecs")
    expect_error(tmp_path, text, "bad duration",
                 at_line=line_of(text, "14parsecs"))


def test_bad_capacity(tmp_path):
    text = BASE.replace("[topology]", "[topology]\nlink_capacity = fast")
    expect_error(tmp_path, text, "bad capacity", at_line=line_of(text, "fast"))


def test_link_references_unknown_switch(tmp_path):
    text = BASE.replace("links = s1-s2", "links = s1-s9")
    expect_error(tmp_path, text, "unknown switch", at_line=line_of(text, "s1-s9"))


@pytest.mark.parametrize("old, new, needle, cited", [
    ("switches = s1 s2", "switches = s1 s2 s1", "duplicate name", "switches"),
    ("links = s1-s2", "links = s1-s2 s2-s1", "duplicate link", "links"),
    ("links = s1-s2", "links = s1-s2 s1-s1", "to itself", "links"),
    ("[host.h2]", "[host.s2]", "duplicate node name", "[host.s2]"),
    ("attach = s1", "attach = s1\ncapacity = 0", "capacity must be", "capacity = 0"),
    ("[host.h1]", "[link.s1.s2]\ndelay = 0.1ns\n[host.h1]", "delay must be", "0.1ns"),
    ("links = s1-s2", "links = s1-s2\nlink_delay = 1e400s", "finite", "1e400"),
    ("rate = 10", "rate = 10 @1.2.3:20", "number", "@1.2.3"),
    ("name = t", "name = a,b", "bad scenario name", "name = a,b"),
    ("[embedding]", "[ ]\n[embedding]", "empty section name", "[ ]"),
    ("seed = 1", "seed = 1\n= 5", "missing key", "= 5"),
    ("rate = 10", "rate = 10 20", "bad rate step", "rate = 10 20"),
    ("[embedding]\nreplicas = 1\n", "", "missing section [embedding]", "format_version"),
    ("[host.h1]", "[link.s1]\n[host.h1]", "bad link section", "[link.s1]"),
    ("[host.h2]", "[host.h-2]", "bad host name", "[host.h-2]"),
    ("[host.h1]\nattach = s1\nport_class = external\n[host.h2]\nattach = s2\n"
     "port_class = downlink\n", "", "defines no hosts", "format_version"),
    ("[flow.f]", "[flow.f-1]", "bad flow name", "[flow.f-1]"),
    # Topology states the graph rules; the reader cites the key it names.
    ("attach = s1", "attach = s9", "unknown switch", "attach = s9"),
    ("attach = s1", "attach = h2", "attach to a switch", "attach = h2"),
    ("switches = s1 s2", "switches = x", "no link names", "switches = x"),
    ("links = s1-s2", "links = s1-s2 s1-s3", "unknown switch", "links = "),
    ("links = s1-s2", "links =", "unreachable", "links ="),
    # A host's last link is its attachment: one in `links` is a switch link.
    ("links = s1-s2", "links = s1-s2 s2-h1", "unknown switch", "links = "),
], ids=["duplicate_switch", "duplicate_link", "self_loop_link", "host_named_like_a_switch",
        "host_capacity_zero", "link_delay_override_below_1ns", "duration_overflow",
        "rate_step_not_a_number", "scenario_name_not_an_identifier", "section_name_empty",
        "key_missing", "rate_step_without_time", "section_missing",
        "link_section_one_switch", "host_name_not_an_identifier", "no_hosts",
        "flow_name_not_an_identifier", "attach_unknown", "attach_to_a_host",
        "switches_unlinked", "link_endpoint_unknown", "links_empty",
        "link_names_a_host"])
def test_topology_and_number_errors_cite_their_line(tmp_path, old, new, needle, cited):
    text = BASE.replace(old, new)
    expect_error(tmp_path, text, needle, at_line=line_of(text, cited))


# ---------------------------------------------------------------------------
# Every section is read through one key table: a key or a section the
# tables do not name, and an override of a link that `links` lacks, fail
# at their own line.


@pytest.mark.parametrize("old, new, cited", [
    ("format_version = 1", "format_version = 1\nfromat = 2", "fromat"),
    ("seed = 1", "seed = 1\nsede = 2", "sede"),
    ("links = s1-s2", "links = s1-s2\nlink_dealy = 0.1ms", "link_dealy"),
    ("[host.h1]", "[link.s1.s2]\ndelya = 1ms\n[host.h1]", "delya"),
    ("attach = s1", "attach = s1\nport_clas = any", "port_clas"),
    ("epsilon_t = 14ms", "epsilon_t = 14ms\nthreshhold = 5", "threshhold"),
    ("replicas = 1", "replicas = 1\nr_mn = 5", "r_mn"),
    ("size = 1000", "size = 1000\nstrat = 1", "strat"),
    ("[embedding]", "[embedding]\nreplicas = 1\n[embeding]", "[embeding]"),
    ("[flow.f]", "[flows.f]", "[flows.f]"),
    ("[flow.f]", "[flow]", "[flow]"),
    # A host section whose header is lost leaves its keys in the
    # section above, where they are unknown.
    ("[host.h1]\n", "", "attach = s1"),
], ids=["top_level", "scenario", "topology", "link", "host", "application", "embedding",
        "flow", "section_misspelled", "section_prefix_misspelled", "section_prefix_alone",
        "host_header_lost"])
def test_unknown_key_or_section_fails_at_its_line(tmp_path, old, new, cited):
    text = BASE.replace(old, new, 1)
    needle = "unknown section" if cited.startswith("[") else "unknown key"
    expect_error(tmp_path, text, needle, at_line=line_of(text, cited))


def test_unknown_key_names_the_known_keys(tmp_path):
    err = expect_error(tmp_path, BASE.replace("links = s1-s2", "links = s1-s2\nlink_dealy = 1"),
                       "unknown key 'link_dealy' in [topology]")
    assert "(known: host_delay, link_capacity, link_delay, links, switches)" in str(err)


RING = (pathlib.Path(__file__).parents[1] / "scenarios" / "fig8_ratelimit.scn").read_text()


@pytest.mark.parametrize("header", ["[link.sw1.sw3]", "[link.sw1.sw9]"],
                         ids=["pair_not_linked", "unknown_switch"])
def test_link_override_must_name_a_link(tmp_path, header):
    text = RING + f"\n{header}\ndelay = 1ms\n"
    expect_error(tmp_path, text, "overrides no link", at_line=line_of(text, header))


def test_link_override_given_twice(tmp_path):
    text = RING + "\n[link.sw1.sw2]\ndelay = 1ms\n[link.sw2.sw1]\ncapacity = 1Mbps\n"
    expect_error(tmp_path, text, "duplicate section", at_line=line_of(text, "[link.sw2.sw1]"))


def test_flow_given_twice(tmp_path):
    text = BASE + "[flow.f]\nsrc = h2\ndst = h1\nsize = 1000\nrate = 10\n"
    expect_error(tmp_path, text, "duplicate flow 'f'", at_line=len(BASE.splitlines()) + 1)


def test_every_key_keeps_its_line(tmp_path):
    text = RING.replace("[host.as1]", "[link.sw1.sw2]\ndelay = 1ms\n\n[host.as1]")
    cfg = parse_text(tmp_path, text)
    section = ""
    for n, line in enumerate(text.splitlines(), start=1):
        if line.startswith("["):
            section = line[1:-1]
            assert cfg.line(section) == n
        elif "=" in line and not line.startswith("#"):
            assert cfg.line(section, line.partition(" =")[0]) == n, line


def test_bad_link_token(tmp_path):
    text = BASE.replace("links = s1-s2", "links = s1_s2")
    expect_error(tmp_path, text, "expected u-v", at_line=line_of(text, "s1_s2"))


def test_host_attaches_to_unknown_switch(tmp_path):
    text = BASE.replace("attach = s1", "attach = s9")
    expect_error(tmp_path, text, "unknown switch")


def test_host_named_twice_fails_at_its_second_header(tmp_path):
    text = BASE.replace("[host.h2]", "[host.h1]")
    expect_error(tmp_path, text, "duplicate node name", at_line=line_of(text, "attach = s2") - 1)


def test_bad_port_class(tmp_path):
    text = BASE.replace("port_class = external", "port_class = sideways")
    expect_error(tmp_path, text, "port_class")


# Flow rules and the replica range are checked when the deployment is
# built, and cited at their key's line.


def test_flow_unknown_src(tmp_path):
    text = BASE.replace("src = h1", "src = h9")
    expect_build_error(tmp_path, text, "unknown src")


def test_flow_size_too_small(tmp_path):
    text = BASE.replace("size = 1000", "size = 400")
    expect_build_error(tmp_path, text, "512")


def test_rate_steps_must_increase(tmp_path):
    text = BASE.replace("rate = 10", "rate = 10 @5:20 @5:30")
    expect_build_error(tmp_path, text, "must increase", at_line=line_of(text, "@5:20"))


def test_rate_step_beyond_stop(tmp_path):
    text = BASE.replace("rate = 10", "stop = 4\nrate = 10 @5:20")
    expect_build_error(tmp_path, text, "beyond stop", at_line=line_of(text, "@5:20"))


def test_negative_rate(tmp_path):
    expect_build_error(tmp_path, BASE.replace("rate = 10", "rate = -3"), "negative rate")


def test_rate_step_negative(tmp_path):
    text = BASE.replace("rate = 10", "rate = 10 @1:-5")
    expect_build_error(tmp_path, text, "negative rate", at_line=line_of(text, "@1:-5"))


def test_duplicate_key(tmp_path):
    text = BASE.replace("seed = 1", "seed = 1\nseed = 2")
    expect_error(tmp_path, text, "duplicate key", at_line=line_of(text, "seed = 2"))


def test_duplicate_section(tmp_path):
    text = BASE + "[scenario]\nname = again\n"
    expect_error(tmp_path, text, "duplicate section")


def test_missing_equals(tmp_path):
    text = BASE.replace("seed = 1", "seed 1")
    expect_error(tmp_path, text, "key = value", at_line=line_of(text, "seed 1"))


def test_unterminated_section(tmp_path):
    text = BASE.replace("[scenario]", "[scenario")
    expect_error(tmp_path, text, "unterminated", at_line=line_of(text, "[scenario"))


def test_unknown_application(tmp_path):
    text = BASE.replace("name = ddos", "name = teleport")
    expect_error(tmp_path, text, "unknown application")


def test_replicas_out_of_range(tmp_path):
    text = BASE.replace("replicas = 1", "replicas = 7")
    expect_build_error(tmp_path, text, "replicas", at_line=line_of(text, "replicas = 7"))


def test_weight_unknown_node(tmp_path):
    text = BASE.replace("replicas = 1", "replicas = 1\nweights = ghost:2")
    expect_error(tmp_path, text, "unknown node", at_line=line_of(text, "ghost:2"))


def test_bad_load_point(tmp_path):
    text = (BASE.replace("name = ddos\nthreshold = 10\nepsilon_t = 14ms",
                         "name = resourcelb\nlb_switch = s1\nservers = h1")
            .replace("[flow.f]\nsrc = h1", "[flow.f]\nsrc = h2")
            .replace("dst = h2", "dst = h1")
            + "[loads]\nsrv_load_0 = nonsense\n")
    expect_error(tmp_path, text, "t:value", at_line=line_of(text, "nonsense"))


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(str(tmp_path / "absent.scn"))
    assert "absent.scn" in str(exc.value)


def test_linklb_via_must_be_adjacent(tmp_path):
    # Build-time binding check: the candidate path's first hop has to be
    # a neighbor of the balancing switch.
    text = """format_version = 1
[scenario]
name = t
seed = 1
[topology]
switches = s1 s2 s3
links = s1-s2 s2-s3
[host.h1]
attach = s1
port_class = external
[host.h2]
attach = s3
port_class = downlink
[application]
name = linklb
lb_switch = s3
path_via = s1
dst_switch = s2
[embedding]
replicas = 3
r_min = 200
[flow.f]
src = h1
dst = h2
size = 1000
rate = 10
"""
    cfg = parse_text(tmp_path, text)
    with pytest.raises(ScenarioError, match="not adjacent"):
        build_simulation(cfg)


# ---------------------------------------------------------------------------
# Application and [loads] errors carry the line of the offending key.

DDOS_KEYS = "name = ddos\nthreshold = 10\nepsilon_t = 14ms"
RESOURCE_LB = "name = resourcelb\nlb_switch = s1\nservers = h1"
THREE_SWITCHES = BASE.replace("switches = s1 s2\nlinks = s1-s2",
                              "switches = s1 s2 s3\nlinks = s1-s2 s2-s3")
# Every application with a rate estimator, with valid keys.
ESTIMATOR_APPS = {
    "ddos": BASE,
    "ratelimit": BASE.replace(DDOS_KEYS, "name = ratelimit\nlimit = 1Mbps\nepsilon_r = 10\n"
                                         "max_write_rate = 100"),
    "linklb": THREE_SWITCHES.replace(DDOS_KEYS, "name = linklb\nlb_switch = s1\n"
                                                "path_via = s2\ndst_switch = s3"),
}

# case -> (scenario text, fragment of the line the error must cite)
APP_AND_LOAD_ERRORS = {
    "states_not_an_integer": (BASE.replace(DDOS_KEYS, DDOS_KEYS + "\nstates = many"),
                              "states = many"),
    "states_zero": (BASE.replace(DDOS_KEYS, DDOS_KEYS + "\nstates = 0"), "states = 0"),
    "linklb_unknown_switch": (
        THREE_SWITCHES.replace(DDOS_KEYS, "name = linklb\nlb_switch = s9\n"
                                          "path_via = s2\ndst_switch = s3"),
        "lb_switch = s9"),
    "linklb_via_not_adjacent": (
        THREE_SWITCHES.replace(DDOS_KEYS, "name = linklb\nlb_switch = s1\n"
                                          "path_via = s3\ndst_switch = s2"),
        "path_via = s3"),
    "resourcelb_server_not_attached": (
        BASE.replace(DDOS_KEYS, RESOURCE_LB.replace("servers = h1", "servers = h2")),
        "servers = h2"),
    "resourcelb_threshold_above_one": (
        BASE.replace(DDOS_KEYS, RESOURCE_LB + "\nthreshold = 1.5"), "threshold = 1.5"),
    "resourcelb_servers_empty": (
        BASE.replace(DDOS_KEYS, RESOURCE_LB.replace("servers = h1", "servers =")), "servers ="),
    "resourcelb_load_scale_zero": (
        BASE.replace(DDOS_KEYS, RESOURCE_LB + "\nload_scale = 0"), "load_scale = 0"),
    "linklb_path_via_repeated": (
        THREE_SWITCHES.replace(DDOS_KEYS, "name = linklb\nlb_switch = s1\n"
                                          "path_via = s2 s2\ndst_switch = s3"),
        "path_via = s2 s2"),
    "linklb_path_via_is_dst_switch": (
        THREE_SWITCHES.replace(DDOS_KEYS, "name = linklb\nlb_switch = s1\n"
                                          "path_via = s2\ndst_switch = s2"),
        "path_via = s2"),
    "resourcelb_server_repeated": (
        BASE.replace(DDOS_KEYS, RESOURCE_LB.replace("servers = h1", "servers = h1 h1")),
        "servers = h1 h1"),
    # s1's route to s3 runs back through s2, where a pinned flow would
    # be pinned to s1 again.
    "linklb_path_via_loops_back": (
        THREE_SWITCHES.replace(DDOS_KEYS, "name = linklb\nlb_switch = s2\n"
                                          "path_via = s1\ndst_switch = s3"),
        "path_via = s1"),
    "linklb_path_via_empty": (
        THREE_SWITCHES.replace(DDOS_KEYS, "name = linklb\nlb_switch = s1\n"
                                          "path_via =\ndst_switch = s3"),
        "path_via ="),
    "unknown_application_key": (BASE.replace(DDOS_KEYS, DDOS_KEYS + "\nwindw = 4"),
                                "windw = 4"),
    "load_on_unknown_state": (
        BASE.replace(DDOS_KEYS, RESOURCE_LB) + "[loads]\nsrv_load_0 = 0:10\nsrv_load_7 = 1:5\n",
        "srv_load_7"),
    "load_on_rate_estimator": (BASE + "[loads]\nsyn_rate_0 = 1:5000\n", "syn_rate_0"),
    # A load's time lies in [0, t_end] and its value fits the state's
    # 32-bit register.
    "load_time_negative": (
        BASE.replace(DDOS_KEYS, RESOURCE_LB) + "[loads]\nsrv_load_0 = -1:5\n", "srv_load_0"),
    "load_time_past_t_end": (
        BASE.replace("seed = 1", "seed = 1\nt_end = 1").replace(DDOS_KEYS, RESOURCE_LB)
        + "[loads]\nsrv_load_0 = 5:10\n", "srv_load_0"),
    "load_value_negative": (
        BASE.replace(DDOS_KEYS, RESOURCE_LB) + "[loads]\nsrv_load_0 = 0:-5\n", "srv_load_0"),
    "load_value_above_width": (
        BASE.replace(DDOS_KEYS, RESOURCE_LB) + "[loads]\nsrv_load_0 = 0:4294967296\n",
        "srv_load_0"),
    # One replica on s1 cannot hold the leg state hinted at s2.
    "linklb_hint_outside_replicas": (ESTIMATOR_APPS["linklb"], "replicas = 1"),
    # Flow times are checked on the nanoseconds the run uses: a rate
    # step or a stop 0.1 ns after the start falls on the start.
    "fig8_rate_step_at_start_ns": (RING.replace("rate = 500", "rate = 500 @1e-10:600", 1),
                                   "@1e-10:600"),
    "fig8_stop_at_start_ns": (RING.replace("start = 20", "start = 20\nstop = 20.0000000001"),
                              "stop = 20.0000000001"),
    # Above one packet per ns, a packet gap rounds to 0 ns: the run
    # would never leave the segment's start.
    "fig8_rate_above_one_per_ns": (RING.replace("rate = 500", "rate = 1e30", 1), "rate = 1e30"),
    "fig8_rate_step_above_one_per_ns": (RING.replace("rate = 500", "rate = 500 @5:1e30", 1),
                                        "@5:1e30"),
    # The clock's rules hold with no state replicated.
    "r_min_zero_one_replica": (BASE.replace("replicas = 1", "replicas = 1\nr_min = 0"),
                               "r_min = 0"),
    "trigger_mode_unknown_one_replica": (
        BASE.replace("replicas = 1", "replicas = 1\ntrigger_mode = sideways"),
        "trigger_mode = sideways"),
}
APP_AND_LOAD_ERRORS.update({
    f"{app}_{key.replace(' = ', '_')}": (text.replace("[embedding]", f"{key}\n[embedding]"), key)
    for app, text in ESTIMATOR_APPS.items() for key in ("window = 6", "delta = 0")})


@pytest.mark.parametrize("text, fragment", APP_AND_LOAD_ERRORS.values(),
                         ids=APP_AND_LOAD_ERRORS.keys())
def test_application_and_load_errors_cite_their_line(tmp_path, text, fragment):
    with pytest.raises(ScenarioError) as exc:
        build_simulation(parse_text(tmp_path, text))
    assert exc.value.line == line_of(text, fragment) > 0, str(exc.value)
    assert f"case.scn:{exc.value.line}: " in str(exc.value)


def test_state_count_sets_the_number_of_states(tmp_path):
    built = build_simulation(parse_text(tmp_path, BASE.replace(DDOS_KEYS,
                                                               DDOS_KEYS + "\nstates = 3")))
    assert [s.name for s in built.program.states] == ["syn_rate_0", "syn_rate_1", "syn_rate_2"]


def test_application_keys_default_from_their_record(tmp_path):
    cfg = parse_text(tmp_path, BASE.replace(DDOS_KEYS, RESOURCE_LB))
    assert cfg.app_params == {"lb_switch": "s1", "servers": ["h1"], "threshold": 0.8,
                              "load_scale": 100, "epsilon_r": 15, "max_write_rate": 1000.0}

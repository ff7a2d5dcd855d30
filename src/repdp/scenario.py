"""Scenario file reader.

Scenarios are line-oriented text: `key = value` pairs grouped under
`[section]` headers, `#` comments, blank lines ignored. Every error is
reported with the file path and line number. Each section is read
through one table of apps.Key rows, which gives every key its kind and
default; a key or a section the tables do not name is an error at its
line. The reader produces a ScenarioConfig with units normalized
(durations to seconds, capacities to bits/s, sizes to bits) and the
line of every key it read, which build-time checks cite. The reader
checks grammar, units, names and the rules no component states.
Topology states the graph rules and names the key it blames, which
the reader cites. A flow's rules and the run's (Simulator's), the
replica range, r_min and trigger_mode (the replication plan's) and a
load's time and value are checked when runner.build_simulation builds
the deployment, which cites the offending key's line.

Sections:
  top level    format_version (must be 1)
  [scenario]   name, seed (mandatory), t_end, metrics_bin, queue_limit,
               replication (on/off)
  [topology]   switches, links (u-v pairs), link_delay, link_capacity,
               host_delay
  [link.U.V]   delay/capacity overrides of a link that `links` names
  [host.H]     attach, port_class, optional delay/capacity
  [application] name (ddos/ratelimit/linklb/resourcelb) + its apps.APPS keys
  [embedding]  replicas, r_min, trigger_mode, weights (node:w list)
  [flow.NAME]  src, dst, size, syn, start, stop (default t_end),
               rate (base + @t:rate steps, at absolute times)
  [loads]      state = t:value pairs (scalar writes over time; t in
               [0, t_end], value in [0, 2^width) of the state, both
               checked at build time)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .apps import APPS, Key
from .embedding import Link, Topology
from .errors import DisconnectedTopology, ScenarioError
from .model import NAME_RE, PortClass

FORMAT_VERSION = 1

# '#' opens a comment at line start or after whitespace.
_COMMENT = re.compile(r"(?:^|[ \t])#.*")

_DUR = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_DUR_RE = re.compile(r"([0-9.eE+-]+)\s*(ns|us|ms|s)?")
_BPS = {"bps": 1, "kbps": 1_000, "Mbps": 1_000_000, "Gbps": 1_000_000_000}
_BPS_RE = re.compile(r"([0-9.eE+-]+)\s*(bps|kbps|Mbps|Gbps)?")
_STEP_RE = re.compile(r"@([0-9.eE+-]+):([0-9.eE+-]+)")


@dataclass
class FlowDef:
    """One [flow.NAME] section: `segments` holds its (time_s, rate_pps)
    steps, the first at the flow's start."""

    name: str
    src: str
    dst: str
    size_bits: int
    syn: bool
    stop_s: float
    segments: list[tuple[float, float]]


@dataclass
class ScenarioConfig:
    path: str
    name: str
    seed: int
    t_end_s: float
    metrics_bin_s: float
    queue_limit: int
    replication: bool
    topology: Topology
    app_name: str
    app_params: dict
    replicas: int
    r_min: float
    trigger_mode: str
    weights: dict[str, float]
    flows: list[FlowDef]
    loads: list[tuple[float, str, int]] = field(default_factory=list)
    # The sections read, by name, with the line of each key and header.
    lines: dict[str, _Section] = field(default_factory=dict, repr=False)

    def line(self, section: str, key: str | None = None) -> int:
        """Line of `key` in [section], else of the section header, else 0.
        The reader keeps the line of every key it read and of every
        section header."""
        return _line(self.lines, section, key)


def _line(lines, section, key):
    sec = lines.get(section) or _Section(section, 0)
    return sec.at.get(key, sec.line)


class _Section:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        # Each key's raw value and its line: two flat dicts, not one of
        # pairs, so a section holds no container the collector tracks.
        self.items: dict[str, str] = {}
        self.at: dict[str, int] = {}


def _parse_sections(path: str, text: str):
    """Split the text into the top level and its sections, dropping
    comments and blank lines."""
    # The top level has no header; its missing key is blamed at line 1.
    top = _Section("", 1)
    sections: list[_Section] = []
    cur = top
    for ln, line in enumerate(text.splitlines(), start=1):
        line = (_COMMENT.sub("", line, count=1) if "#" in line else line).strip()
        if not line:
            continue
        if line[0] == "[":
            if line[-1] != "]":
                raise ScenarioError("unterminated section header", path, ln)
            name = line[1:-1].strip()
            if not name:
                raise ScenarioError("empty section name", path, ln)
            cur = _Section(name, ln)
            sections.append(cur)
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ScenarioError(f"expected key = value, got {line!r}", path, ln)
        key = key.strip()
        if not key:
            raise ScenarioError("missing key before '='", path, ln)
        if key in cur.items:
            raise ScenarioError(f"duplicate key {key!r} in section [{cur.name}]", path, ln)
        cur.items[key] = value.strip()
        cur.at[key] = ln
    return top, sections


def _dur_s(path, raw: str, ln: int, key=None) -> float:
    m = _DUR_RE.fullmatch(raw)
    if not m:
        raise ScenarioError(f"bad duration {raw!r}", path, ln)
    val = _num(path, m.group(1), ln)
    return val * _DUR[m.group(2) or "s"]


def _bps(path, raw: str, ln: int, key=None) -> int:
    m = _BPS_RE.fullmatch(raw)
    if not m:
        raise ScenarioError(f"bad capacity {raw!r}", path, ln)
    val = _num(path, m.group(1), ln)
    return round(val * _BPS[m.group(2) or "bps"])


def _num(path, raw: str, ln: int, key=None) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ScenarioError(f"expected a number, got {raw!r}", path, ln) from None
    if not math.isfinite(val):
        raise ScenarioError(f"expected a finite number, got {raw!r}", path, ln)
    return val


def _int(path, raw: str, ln: int, key=None) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {raw!r}", path, ln) from None


def _bool(path, raw: str, ln: int, key=None) -> bool:
    low = raw.lower()
    if low in ("yes", "true", "on", "1"):
        return True
    if low in ("no", "false", "off", "0"):
        return False
    raise ScenarioError(f"expected yes/no, got {raw!r}", path, ln)


def _delay_ns(path, raw: str, ln: int, key: str) -> int:
    ns = round(_dur_s(path, raw, ln) * 1e9)
    if ns < 1:
        raise ScenarioError(f"{key} must be at least 1ns", path, ln)
    return ns


def _capacity(path, raw: str, ln: int, key: str) -> int:
    bps = _bps(path, raw, ln)
    if bps < 1:
        raise ScenarioError(f"{key} must be at least 1bps", path, ln)
    return bps


def _names(path, raw: str, ln: int, key: str) -> list[str]:
    out = raw.split()
    for n in out:
        if not NAME_RE.match(n):
            raise ScenarioError(f"bad name {n!r} in {key}", path, ln)
    return out


def _text(path, raw: str, ln: int, key=None) -> str:
    return raw


# The parser of each Key.kind: (path, raw text, line, key) -> value.
KINDS = {"text": _text, "num": _num, "integer": _int, "dur": _dur_s, "bps": _bps,
         "flag": _bool, "delay_ns": _delay_ns, "capacity": _capacity, "names": _names}

# The default of a key that takes its value from another key where it
# is used (a link's delay from link_delay, a flow's stop from t_end).
OPTIONAL = object()

_TOP = (Key("format_version", "integer"),)
_SCENARIO = (Key("name", "text", "run"), Key("seed", "integer"), Key("t_end", "dur", "60"),
             Key("metrics_bin", "dur", "0.5"), Key("queue_limit", "integer", "100"),
             Key("replication", "flag", "on"))
_TOPOLOGY = (Key("switches", "names"), Key("links", "text"),
             Key("link_delay", "delay_ns", "0.5ms"), Key("link_capacity", "capacity", "10Mbps"),
             Key("host_delay", "delay_ns", "0.01ms"))
_LINK = (Key("delay", "delay_ns", OPTIONAL), Key("capacity", "capacity", OPTIONAL))
_HOST = (Key("attach", "text"), Key("port_class", "text", "any"), *_LINK)
_APP_NAME = Key("name", "text")
_EMBEDDING = (Key("replicas", "integer", "1"), Key("r_min", "num", "100"),
              Key("trigger_mode", "text", "time"), Key("weights", "text", ""))
_FLOW = (Key("src", "text"), Key("dst", "text"), Key("size", "integer"),
         Key("syn", "flag", "no"), Key("start", "dur", "0"), Key("stop", "dur", OPTIONAL),
         Key("rate", "text"))
# Sections read through a table above, and [loads], whose keys are
# state names; [flow.F], [host.H] and [link.U.V] go by their prefix.
_SECTIONS = ("scenario", "topology", "application", "embedding", "loads")


def _read(path, sec: _Section, table, lines, what: str | None = None) -> dict:
    """Parse [sec] through `table`: each key's value by its kind (the
    default when absent, none for an absent OPTIONAL key), under its
    parsed name. Keeps the section in `lines` under its name.
    An unknown key fails at its line, before a missing mandatory one
    fails at the header: a misspelled key is blamed where it stands.
    `what` replaces "in [section]" in the unknown-key message."""
    where = f"[{sec.name}]" if sec.name else "the top level"
    items = sec.items
    known = {row[0] for row in table}
    if items.keys() - known:
        key = next(k for k in items if k not in known)
        raise ScenarioError(f"unknown key {key!r} {what or 'in ' + where} "
                            f"(known: {', '.join(sorted(known))})", path, sec.at[key])
    lines[sec.name] = sec
    out = {}
    for key, kind, default, param in table:
        raw = items.get(key, default)
        ln = sec.at.get(key, sec.line)
        if raw is None:
            raise ScenarioError(f"{where} is missing key {key!r}", path, ln)
        if raw is not OPTIONAL:
            out[param or key] = KINDS[kind](path, raw, ln, key)
    return out


def _parse_rate_steps(path, raw: str, ln: int, start_s: float):
    """`rate = BASE [@t:rate ...]` into absolute (time_s, pps) segments."""
    toks = raw.split()
    if not toks:
        raise ScenarioError("empty rate", path, ln)
    segs = [(start_s, _num(path, toks[0], ln))]
    for tok in toks[1:]:
        m = _STEP_RE.fullmatch(tok)
        if not m:
            raise ScenarioError(f"bad rate step {tok!r} (expected @time:rate)", path, ln)
        segs.append((_num(path, m.group(1), ln), _num(path, m.group(2), ln)))
    return segs


def parse_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", path, 0) from None
    top, sections = _parse_sections(path, text)
    lines: dict[str, _Section] = {}

    def at(section, key):
        return _line(lines, section, key)

    ver = _read(path, top, _TOP, lines)["format_version"]
    if ver != FORMAT_VERSION:
        raise ScenarioError(f"unsupported format_version {ver}", path, at("", "format_version"))

    by_name: dict[str, _Section] = {}
    groups: dict[str, list[_Section]] = {"flow": [], "host": [], "link": []}
    for sec in sections:
        prefix, dot, _ = sec.name.partition(".")
        if dot and prefix in groups:
            groups[prefix].append(sec)
        elif sec.name not in _SECTIONS:
            raise ScenarioError(f"unknown section [{sec.name}] (known: {', '.join(_SECTIONS)},"
                                " flow.F, host.H, link.U.V)", path, sec.line)
        elif sec.name in by_name:
            raise ScenarioError(f"duplicate section [{sec.name}]", path, sec.line)
        else:
            by_name[sec.name] = sec

    def section(name) -> _Section:
        if name not in by_name:
            raise ScenarioError(f"missing section [{name}]", path, 1)
        return by_name[name]

    scen = _read(path, section("scenario"), _SCENARIO, lines)
    if not NAME_RE.match(scen["name"]):
        raise ScenarioError(f"bad scenario name {scen['name']!r}", path, at("scenario", "name"))
    t_end = scen["t_end"]

    # ---- topology -----------------------------------------------------
    # Topology states the graph rules; its error names the key to cite.
    topo = _read(path, section("topology"), _TOPOLOGY, lines)
    link_delay, link_cap = topo["link_delay"], topo["link_capacity"]

    overrides = {}
    for sec in groups["link"]:
        parts = sec.name.split(".")
        if len(parts) != 3:
            raise ScenarioError(f"bad link section [{sec.name}]", path, sec.line)
        key = tuple(sorted(parts[1:]))
        if key in overrides:
            raise ScenarioError(f"duplicate section [{sec.name}]", path, sec.line)
        overrides[key] = sec, _read(path, sec, _LINK, lines)

    links = []
    for tok in topo["links"].split():
        u, sep, v = tok.partition("-")
        if not (sep and NAME_RE.match(u) and NAME_RE.match(v)):
            raise ScenarioError(f"bad link {tok!r} (expected u-v)", path, at("topology", "links"))
        o = overrides.pop(tuple(sorted((u, v))), (None, {}))[1]
        links.append(Link(u, v, o.get("delay", link_delay), o.get("capacity", link_cap)))
    # An override left over names a pair that `links` does not connect.
    for sec, _ in overrides.values():
        raise ScenarioError(f"[{sec.name}] overrides no link: links has no "
                            f"{'-'.join(sec.name.split('.')[1:])}", path, sec.line)

    hosts = []
    for sec in groups["host"]:
        hname = sec.name.split(".", 1)[1]
        if not NAME_RE.match(hname):
            raise ScenarioError(f"bad host name {hname!r}", path, sec.line)
        h = _read(path, sec, _HOST, lines)
        try:
            port_class = PortClass(h["port_class"])
        except ValueError:
            raise ScenarioError(f"bad port_class {h['port_class']!r}", path,
                                at(sec.name, "port_class")) from None
        hosts.append(hname)
        # The class tags the switch-side port facing this host.
        links.append(Link(hname, h["attach"], h.get("delay", topo["host_delay"]),
                          h.get("capacity", link_cap), u_class=PortClass.ANY,
                          v_class=port_class))
    if not hosts:
        raise ScenarioError("scenario defines no hosts", path, 1)

    try:
        topology = Topology(topo["switches"], hosts, links)
    except DisconnectedTopology as exc:
        raise ScenarioError(str(exc), path, at(*exc.key)) from None

    # ---- application ---------------------------------------------------
    # Without a name, every other key is unknown.
    app_sec = section("application")
    app_name = app_sec.items.get("name")
    record = APPS.get(app_name)
    if record is None and app_name is not None:
        known = ", ".join(sorted(APPS))
        raise ScenarioError(f"unknown application {app_name!r} (known: {known})",
                            path, app_sec.at["name"])
    app_params = _read(path, app_sec, (_APP_NAME, *(record.keys if record else ())), lines,
                       record and f"for application {app_name}")
    del app_params["name"]

    # ---- embedding -----------------------------------------------------
    emb = _read(path, section("embedding"), _EMBEDDING, lines)
    weights: dict[str, float] = {}
    wl = at("embedding", "weights")
    for tok in emb["weights"].split():
        if ":" not in tok:
            raise ScenarioError(f"bad weight {tok!r} (expected node:w)", path, wl)
        node, _, w = tok.partition(":")
        if node not in topology.adj:
            raise ScenarioError(f"weight references unknown node {node!r}", path, wl)
        if node in weights:
            raise ScenarioError(f"weight for node {node!r} given twice", path, wl)
        weights[node] = _num(path, w, wl)
        if weights[node] < 0:
            raise ScenarioError(f"negative weight {tok!r}", path, wl)

    # ---- flows ----------------------------------------------------------
    flows = []
    seen_flows = set()
    for sec in groups["flow"]:
        fname = sec.name.split(".", 1)[1]
        if not NAME_RE.match(fname):
            raise ScenarioError(f"bad flow name {fname!r}", path, sec.line)
        if fname in seen_flows:
            raise ScenarioError(f"duplicate flow {fname!r}", path, sec.line)
        seen_flows.add(fname)
        f = _read(path, sec, _FLOW, lines)
        segs = _parse_rate_steps(path, f["rate"], sec.at["rate"], f["start"])
        flows.append(FlowDef(fname, f["src"], f["dst"], f["size"], f["syn"],
                             f.get("stop", t_end), segs))

    # ---- scheduled scalar loads -----------------------------------------
    loads: list[tuple[float, str, int]] = []
    if "loads" in by_name:
        lines["loads"] = by_name["loads"]
        for state, raw in by_name["loads"].items.items():
            ln = by_name["loads"].at[state]
            for tok in raw.split():
                if ":" not in tok:
                    raise ScenarioError(f"bad load point {tok!r} (expected t:value)",
                                        path, ln)
                t, _, val = tok.partition(":")
                loads.append((_num(path, t, ln), state, _int(path, val, ln)))
        loads.sort(key=lambda x: (x[0], x[1]))

    return ScenarioConfig(
        path=path, name=scen["name"], seed=scen["seed"], t_end_s=t_end,
        metrics_bin_s=scen["metrics_bin"], queue_limit=scen["queue_limit"],
        replication=scen["replication"], topology=topology, app_name=app_name,
        app_params=app_params, replicas=emb["replicas"], r_min=emb["r_min"],
        trigger_mode=emb["trigger_mode"], weights=weights, flows=flows,
        loads=loads, lines=lines,
    )

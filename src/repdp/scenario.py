"""Scenario file reader.

Scenarios are line-oriented text: `key = value` pairs grouped under
`[section]` headers, `#` comments, blank lines ignored. Every error is
reported with the file path and line number. The reader produces a
ScenarioConfig with units normalized (durations to seconds, capacities
to bits/s, sizes to bits); build-time checks cite the lines it keeps.

Sections:
  top level    format_version (must be 1)
  [scenario]   name, seed (mandatory), t_end, metrics_bin, queue_limit,
               replication (on/off)
  [topology]   switches, links (u-v pairs), link_delay, link_capacity,
               host_delay
  [link.U.V]   per-link delay/capacity overrides
  [host.H]     attach, port_class, optional delay/capacity
  [application] name (ddos/ratelimit/linklb/resourcelb) + its apps.APPS keys
  [embedding]  replicas, r_min, trigger_mode, weights (node:w list)
  [flow.NAME]  src, dst, size, syn, start (>= 0), stop,
               rate (base + @t:rate steps)
  [loads]      state = t:value pairs (scalar writes over time; t in
               [0, t_end], value in [0, 2^width) of the state)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .apps import APPS
from .embedding import Link, Topology
from .errors import DisconnectedTopology, ScenarioError
from .model import PortClass

FORMAT_VERSION = 1

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_DUR = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_BPS = {"bps": 1, "kbps": 1_000, "Mbps": 1_000_000, "Gbps": 1_000_000_000}
_CLASSES = {
    "external": PortClass.EXTERNAL,
    "uplink": PortClass.UPLINK,
    "downlink": PortClass.DOWNLINK,
    "any": PortClass.ANY,
}


@dataclass
class FlowDef:
    name: str
    src: str
    dst: str
    size_bits: int
    syn: bool
    start_s: float
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
    lines: dict[tuple[str, str | None], int] = field(default_factory=dict, repr=False)

    def line(self, section: str, key: str | None = None) -> int:
        """Line of `key` in [section], else of the section header, else 0.
        The reader keeps the lines of [application], [embedding] and
        [loads] only."""
        return self.lines.get((section, key)) or self.lines.get((section, None), 0)


class _Section:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.items: dict[str, tuple[str, int]] = {}


def _split_lines(path: str, text: str):
    """Yield (line_no, content) with comments and blanks removed."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw
        # '#' opens a comment at line start or after whitespace.
        for m in re.finditer(r"#", line):
            if m.start() == 0 or line[m.start() - 1] in " \t":
                line = line[: m.start()]
                break
        line = line.strip()
        if line:
            yield i, line


def _parse_sections(path: str, text: str):
    top = _Section("", 0)
    sections: list[_Section] = []
    cur = top
    for ln, line in _split_lines(path, text):
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError("unterminated section header", path, ln)
            name = line[1:-1].strip()
            if not name:
                raise ScenarioError("empty section name", path, ln)
            cur = _Section(name, ln)
            sections.append(cur)
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {line!r}", path, ln)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ScenarioError("missing key before '='", path, ln)
        if key in cur.items:
            raise ScenarioError(f"duplicate key {key!r} in section [{cur.name}]", path, ln)
        cur.items[key] = (value, ln)
    return top, sections


def _dur_s(path, raw: str, ln: int) -> float:
    m = re.fullmatch(r"([0-9.eE+-]+)\s*(ns|us|ms|s)?", raw)
    if not m:
        raise ScenarioError(f"bad duration {raw!r}", path, ln)
    val = _num(path, m.group(1), ln)
    return val * _DUR[m.group(2) or "s"]


def _bps(path, raw: str, ln: int) -> int:
    m = re.fullmatch(r"([0-9.eE+-]+)\s*(bps|kbps|Mbps|Gbps)?", raw)
    if not m:
        raise ScenarioError(f"bad capacity {raw!r}", path, ln)
    val = _num(path, m.group(1), ln)
    return round(val * _BPS[m.group(2) or "bps"])


def _num(path, raw: str, ln: int) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ScenarioError(f"expected a number, got {raw!r}", path, ln) from None
    if not math.isfinite(val):
        raise ScenarioError(f"expected a finite number, got {raw!r}", path, ln)
    return val


def _int(path, raw: str, ln: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {raw!r}", path, ln) from None


def _bool(path, raw: str, ln: int) -> bool:
    low = raw.lower()
    if low in ("yes", "true", "on", "1"):
        return True
    if low in ("no", "false", "off", "0"):
        return False
    raise ScenarioError(f"expected yes/no, got {raw!r}", path, ln)


class _View:
    """Typed access to one section's items with line-aware errors."""

    def __init__(self, path: str, sec: _Section):
        self.path = path
        self.sec = sec

    def has(self, key) -> bool:
        return key in self.sec.items

    def raw(self, key, default=None):
        if key in self.sec.items:
            return self.sec.items[key]
        if default is not None:
            return default, self.sec.line
        raise ScenarioError(f"[{self.sec.name}] is missing key {key!r}", self.path, self.sec.line)

    def text(self, key, default=None) -> str:
        return self.raw(key, default)[0]

    def num(self, key, default=None) -> float:
        return _num(self.path, *self.raw(key, default))

    def integer(self, key, default=None) -> int:
        return _int(self.path, *self.raw(key, default))

    def dur(self, key, default=None) -> float:
        return _dur_s(self.path, *self.raw(key, default))

    def bps(self, key, default=None) -> int:
        return _bps(self.path, *self.raw(key, default))

    def delay_ns(self, key, default=None) -> int:
        raw, ln = self.raw(key, default)
        ns = round(_dur_s(self.path, raw, ln) * 1e9)
        if ns < 1:
            raise ScenarioError(f"{key} must be at least 1ns", self.path, ln)
        return ns

    def capacity(self, key, default=None) -> int:
        raw, ln = self.raw(key, default)
        bps = _bps(self.path, raw, ln)
        if bps < 1:
            raise ScenarioError(f"{key} must be at least 1bps", self.path, ln)
        return bps

    def flag(self, key, default=None) -> bool:
        return _bool(self.path, *self.raw(key, default))

    def names(self, key, default=None) -> list[str]:
        raw, ln = self.raw(key, default)
        out = raw.split()
        for n in out:
            if not _NAME.match(n):
                raise ScenarioError(f"bad name {n!r} in {key}", self.path, ln)
        return out


def _parse_rate_steps(path, raw: str, ln: int, start_s: float):
    """`rate = BASE [@t:rate ...]` into absolute (time_s, pps) segments."""
    toks = raw.split()
    if not toks:
        raise ScenarioError("empty rate", path, ln)
    base = _num(path, toks[0], ln)
    if base < 0:
        raise ScenarioError("negative rate", path, ln)
    segs = [(start_s, base)]
    for tok in toks[1:]:
        m = re.fullmatch(r"@([0-9.eE+-]+):([0-9.eE+-]+)", tok)
        if not m:
            raise ScenarioError(f"bad rate step {tok!r} (expected @time:rate)", path, ln)
        t = _num(path, m.group(1), ln)
        r = _num(path, m.group(2), ln)
        if r < 0:
            raise ScenarioError("negative rate", path, ln)
        if t <= segs[-1][0]:
            raise ScenarioError("rate step times must increase", path, ln)
        segs.append((t, r))
    return segs


def parse_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", path, 0) from None
    top, sections = _parse_sections(path, text)

    topv = _View(path, top)
    if not topv.has("format_version"):
        raise ScenarioError("missing top-level format_version", path, 1)
    ver = topv.integer("format_version")
    if ver != FORMAT_VERSION:
        raise ScenarioError(f"unsupported format_version {ver}", path,
                            top.items["format_version"][1])

    by_name: dict[str, _Section] = {}
    flows_secs, links_secs, hosts_secs = [], [], []
    for sec in sections:
        if sec.name.startswith("flow."):
            flows_secs.append(sec)
        elif sec.name.startswith("link."):
            links_secs.append(sec)
        elif sec.name.startswith("host."):
            hosts_secs.append(sec)
        elif sec.name in by_name:
            raise ScenarioError(f"duplicate section [{sec.name}]", path, sec.line)
        else:
            by_name[sec.name] = sec

    def require(name) -> _View:
        if name not in by_name:
            raise ScenarioError(f"missing section [{name}]", path, 1)
        return _View(path, by_name[name])

    scen = require("scenario")
    name, name_ln = scen.raw("name", "run")
    if not _NAME.match(name):
        raise ScenarioError(f"bad scenario name {name!r}", path, name_ln)
    if not scen.has("seed"):
        raise ScenarioError("[scenario] must declare a seed", path, by_name["scenario"].line)
    seed = scen.integer("seed")
    t_end = scen.dur("t_end", "60")
    if round(t_end * 1e9) < 1:
        raise ScenarioError("t_end must be at least 1ns", path, scen.raw("t_end", "60")[1])
    bin_s = scen.dur("metrics_bin", "0.5")
    if round(bin_s * 1e9) < 1:
        raise ScenarioError("metrics_bin must be at least 1ns", path,
                            scen.raw("metrics_bin", "0.5")[1])
    queue_limit = scen.integer("queue_limit", "100")
    if queue_limit < 1:
        raise ScenarioError("queue_limit must be at least 1", path,
                            scen.raw("queue_limit", "100")[1])
    replication = scen.flag("replication", "on")

    # ---- topology -----------------------------------------------------
    # Each value Topology rejects is checked here, at its own key.
    topo_v = require("topology")
    switches = topo_v.names("switches")
    sw_ln = topo_v.raw("switches")[1]
    sw_set = set(switches)
    if not switches:
        raise ScenarioError("switches is empty", path, sw_ln)
    if len(sw_set) != len(switches):
        raise ScenarioError("duplicate name in switches", path, sw_ln)
    link_delay = topo_v.delay_ns("link_delay", "0.5ms")
    link_cap = topo_v.capacity("link_capacity", "10Mbps")
    host_delay = topo_v.delay_ns("host_delay", "0.01ms")

    overrides = {}
    for sec in links_secs:
        parts = sec.name.split(".")
        if len(parts) != 3:
            raise ScenarioError(f"bad link section [{sec.name}]", path, sec.line)
        v = _View(path, sec)
        overrides[tuple(sorted(parts[1:]))] = (
            v.delay_ns("delay") if v.has("delay") else link_delay,
            v.capacity("capacity") if v.has("capacity") else link_cap,
        )

    raw_links, ll = topo_v.raw("links")
    pairs = []
    for tok in raw_links.split():
        u, sep, v = tok.partition("-")
        if not (sep and _NAME.match(u) and _NAME.match(v)):
            raise ScenarioError(f"bad link {tok!r} (expected u-v)", path, ll)
        pairs.append((u, v))
    # Links that name none of the switches point at the switch list; a
    # single name no switch has is the link list's fault.
    if pairs and sw_set.isdisjoint(x for pair in pairs for x in pair):
        raise ScenarioError("no link names any of these switches", path, sw_ln)
    links = []
    seen_links = set()
    for u, v in pairs:
        if u not in sw_set or v not in sw_set:
            raise ScenarioError(f"link '{u}-{v}' references unknown switch", path, ll)
        if u == v:
            raise ScenarioError(f"link '{u}-{v}' connects a switch to itself", path, ll)
        key = tuple(sorted((u, v)))
        if key in seen_links:
            raise ScenarioError(f"duplicate link '{u}-{v}'", path, ll)
        seen_links.add(key)
        d, c = overrides.get(key, (link_delay, link_cap))
        links.append(Link(u, v, d, c))

    hosts = []
    nodes = set(sw_set)
    for sec in hosts_secs:
        hname = sec.name.split(".", 1)[1]
        if not _NAME.match(hname):
            raise ScenarioError(f"bad host name {hname!r}", path, sec.line)
        if hname in nodes:
            raise ScenarioError(f"duplicate node name {hname!r}", path, sec.line)
        nodes.add(hname)
        v = _View(path, sec)
        attach, attach_ln = v.raw("attach")
        if attach not in sw_set:
            raise ScenarioError(f"host {hname} attaches to unknown switch {attach!r}",
                                path, attach_ln)
        cls_raw, cls_ln = v.raw("port_class", "any")
        if cls_raw not in _CLASSES:
            raise ScenarioError(f"bad port_class {cls_raw!r}", path, cls_ln)
        d = v.delay_ns("delay") if v.has("delay") else host_delay
        c = v.capacity("capacity") if v.has("capacity") else link_cap
        hosts.append(hname)
        # The class tags the switch-side port facing this host.
        links.append(Link(hname, attach, d, c, u_class=PortClass.ANY, v_class=_CLASSES[cls_raw]))
    if not hosts:
        raise ScenarioError("scenario defines no hosts", path, 1)

    try:
        topology = Topology(switches, hosts, links)
    except DisconnectedTopology as exc:
        # The checks above leave connectivity, which the links decide.
        raise ScenarioError(str(exc), path, ll) from None

    # ---- application ---------------------------------------------------
    app_v = require("application")
    app_name, name_ln = app_v.raw("name")
    record = APPS.get(app_name)
    if record is None:
        known = ", ".join(sorted(APPS))
        raise ScenarioError(f"unknown application {app_name!r} (known: {known})",
                            path, name_ln)
    known_keys = {"name", *(k.key for k in record.keys)}
    for key, (_, ln) in app_v.sec.items.items():
        if key not in known_keys:
            raise ScenarioError(f"unknown key {key!r} for application {app_name} "
                                f"(known: {', '.join(sorted(known_keys))})", path, ln)
    app_params = {k.param or k.key: getattr(app_v, k.kind)(k.key, k.default)
                  for k in record.keys}

    # ---- embedding -----------------------------------------------------
    emb = require("embedding")
    replicas = emb.integer("replicas", "1")
    if not 1 <= replicas <= len(switches):
        raise ScenarioError(f"replicas must be in 1..{len(switches)}", path,
                            emb.raw("replicas", "1")[1])
    r_min = emb.num("r_min", "100")
    if r_min <= 0:
        raise ScenarioError("r_min must be positive", path, emb.raw("r_min", "100")[1])
    mode, mode_ln = emb.raw("trigger_mode", "time")
    if mode not in ("time", "packet"):
        raise ScenarioError(f"trigger_mode must be time or packet, got {mode!r}",
                            path, mode_ln)
    weights: dict[str, float] = {}
    if emb.has("weights"):
        raw_w, wl = emb.raw("weights")
        for tok in raw_w.split():
            if ":" not in tok:
                raise ScenarioError(f"bad weight {tok!r} (expected node:w)", path, wl)
            node, _, w = tok.partition(":")
            if node not in nodes:
                raise ScenarioError(f"weight references unknown node {node!r}", path, wl)
            weights[node] = _num(path, w, wl)
            if weights[node] < 0:
                raise ScenarioError(f"negative weight {tok!r}", path, wl)

    # Build-time checks on the application, the embedding and the loads
    # cite these lines.
    lines = {}
    for sec in (app_v.sec, emb.sec):
        lines.update(((sec.name, key), ln) for key, (_, ln) in sec.items.items())
        lines[sec.name, None] = sec.line

    # ---- flows ----------------------------------------------------------
    flows = []
    seen_flows = set()
    for sec in flows_secs:
        fname = sec.name.split(".", 1)[1]
        if not _NAME.match(fname):
            raise ScenarioError(f"bad flow name {fname!r}", path, sec.line)
        if fname in seen_flows:
            raise ScenarioError(f"duplicate flow {fname!r}", path, sec.line)
        seen_flows.add(fname)
        v = _View(path, sec)
        src, src_ln = v.raw("src")
        if src not in hosts:
            raise ScenarioError(f"flow {fname}: unknown src host {src!r}", path, src_ln)
        dst, dst_ln = v.raw("dst")
        if dst not in hosts:
            raise ScenarioError(f"flow {fname}: unknown dst host {dst!r}", path, dst_ln)
        size = v.integer("size")
        if size < 512:
            raise ScenarioError(f"flow {fname}: size below 512-bit minimum frame",
                                path, v.raw("size")[1])
        syn = v.flag("syn", "no")
        start = v.dur("start", "0")
        if start < 0:
            raise ScenarioError(f"flow {fname}: start must be >= 0", path,
                                v.raw("start", "0")[1])
        stop = v.dur("stop", None) if v.has("stop") else t_end
        if stop <= start:
            # Without a stop of its own the flow runs to t_end, so the
            # start is what is out of range.
            ln = v.raw("stop")[1] if v.has("stop") else v.raw("start", "0")[1]
            raise ScenarioError(f"flow {fname}: stop must follow start", path, ln)
        raw_rate, rate_ln = v.raw("rate")
        segs = _parse_rate_steps(path, raw_rate, rate_ln, start)
        if any(t >= stop for t, _ in segs[1:]):
            raise ScenarioError(f"flow {fname}: rate step beyond stop time", path, rate_ln)
        flows.append(FlowDef(fname, src, dst, size, syn, start, stop, segs))

    # ---- scheduled scalar loads -----------------------------------------
    loads: list[tuple[float, str, int]] = []
    if "loads" in by_name:
        for state, (raw, ln) in by_name["loads"].items.items():
            for tok in raw.split():
                if ":" not in tok:
                    raise ScenarioError(f"bad load point {tok!r} (expected t:value)",
                                        path, ln)
                t, _, val = tok.partition(":")
                t_s = _num(path, t, ln)
                if not 0 <= t_s <= t_end:
                    raise ScenarioError(f"load time {t} outside [0, t_end = {t_end:g}]", path, ln)
                loads.append((t_s, state, _int(path, val, ln)))
            lines["loads", state] = ln
        loads.sort(key=lambda x: (x[0], x[1]))

    return ScenarioConfig(
        path=path, name=name, seed=seed, t_end_s=t_end, metrics_bin_s=bin_s,
        queue_limit=queue_limit, replication=replication, topology=topology,
        app_name=app_name, app_params=app_params, replicas=replicas,
        r_min=r_min, trigger_mode=mode, weights=weights, flows=flows,
        loads=loads, lines=lines,
    )

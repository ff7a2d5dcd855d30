"""The four reference applications and the shared windowed rate estimator.

Each factory returns a plain ApplicationSpec; nothing here touches the
simulator. APPS holds one AppRecord per name scenario files use (ddos,
ratelimit, linklb, resourcelb): the app's `[application]` keys, its
factory call and its deployment bindings.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple

from .errors import InvalidParameter
from .model import (
    ActionKind,
    ActivitySpec,
    ApplicationSpec,
    CONTROLLER_PORT,
    InconsistencySpec,
    L4Match,
    PortClass,
    Predicate,
    ReductionKind,
    ReductionSpec,
    ScopeFilter,
    StateSpec,
    TriggerSpec,
    ValueKind,
)


class RateEstimatorWindow:
    """Windowed average rate over the last `window` closed buckets.

    The running bucket accumulates counts; at each `delta_s` boundary it
    closes into a circular buffer of `window` samples (window must be a
    power of two so the average is a shift on a switch). The estimate is
    total-over-closed-buckets / (window * delta), so a rate step needs a
    full window turnover to be reflected completely.
    """

    __slots__ = ("delta_ns", "window", "ring", "head", "total", "cur_slot", "cur_count")

    def __init__(self, delta_s: float = 0.1, window: int = 8):
        if window < 1 or window & (window - 1):
            raise InvalidParameter(f"estimator window must be a power of two, got {window}",
                                   "window")
        self.delta_ns = round(delta_s * 1e9)
        if self.delta_ns <= 0:
            raise InvalidParameter(f"estimator delta must be at least 1 ns, got {delta_s} s",
                                   "delta")
        self.window = window
        self.ring = [0] * window
        self.head = 0
        self.total = 0
        self.cur_slot = 0
        self.cur_count = 0

    def _advance(self, t_ns: int):
        slot = t_ns // self.delta_ns
        steps = slot - self.cur_slot
        if steps <= 0:
            return
        # Close the running bucket, then zero-fill any skipped buckets.
        spins = min(steps, self.window + 1)
        fill = self.cur_count
        for _ in range(spins):
            self.head = (self.head + 1) % self.window
            self.total += fill - self.ring[self.head]
            self.ring[self.head] = fill
            fill = 0
        self.cur_slot = slot
        self.cur_count = 0

    def observe(self, t_ns: int, increment: int = 1):
        if t_ns // self.delta_ns != self.cur_slot:
            self._advance(t_ns)
        self.cur_count += increment

    def read(self, t_ns: int) -> int:
        """Estimated rate in events per second (integer floor)."""
        if t_ns // self.delta_ns != self.cur_slot:
            self._advance(t_ns)
        return self.total * 1_000_000_000 // (self.window * self.delta_ns)


def make_ddos_app(
    n: int,
    threshold: float,
    epsilon_t_s: float,
    delta_s: float = 0.1,
    window: int = 8,
) -> ApplicationSpec:
    """SYN-rate anomaly detection over `n` edge measurement points.

    Each state estimates the SYN arrival rate on external ports at one
    replica switch; their sum is compared against `threshold` under a
    staleness budget, notifying the controller on detection.
    """
    scope = ScopeFilter(PortClass.EXTERNAL, L4Match.SYN_ONLY)
    states = tuple(
        StateSpec(
            name=f"syn_rate_{i}",
            scope=scope,
            value=ValueKind.rate_estimate(delta_s, window, unit="packets"),
        )
        for i in range(n)
    )
    return ApplicationSpec(
        name="ddos",
        states=states,
        reductions=(
            ReductionSpec("syn_rate_total", ReductionKind.SUM, tuple(s.name for s in states)),
        ),
        triggers=(
            TriggerSpec(
                name="syn_flood",
                input="syn_rate_total",
                predicate=Predicate.greater_than(threshold),
                inconsistency=InconsistencySpec.time_obsolescence(epsilon_t_s),
                activity="alert",
            ),
        ),
        activities=(
            ActivitySpec(
                name="alert",
                action=ActionKind.NOTIFY_CONTROLLER,
                scope=ScopeFilter(),
                message="syn rate above threshold",
            ),
        ),
    )


def make_rate_limiter_app(
    n: int,
    rate_limit_bps: float,
    epsilon_r: int,
    max_write_rate: float,
    delta_s: float = 0.1,
    window: int = 8,
) -> ApplicationSpec:
    """Network-wide aggregate rate limiter over `n` ingress points.

    States estimate the inbound bit rate at each ingress; packets are
    dropped with probability max(0, (s - R) / s) over the summed rate s,
    holding the aggregate near R regardless of where flows enter.
    """
    scope = ScopeFilter(PortClass.EXTERNAL, L4Match.ANY)
    states = tuple(
        StateSpec(
            name=f"in_rate_{i}",
            scope=scope,
            value=ValueKind.rate_estimate(delta_s, window, unit="bits"),
        )
        for i in range(n)
    )
    return ApplicationSpec(
        name="ratelimit",
        states=states,
        reductions=(
            ReductionSpec("in_rate_total", ReductionKind.SUM, tuple(s.name for s in states)),
        ),
        triggers=(
            TriggerSpec(
                name="over_limit",
                input="in_rate_total",
                predicate=Predicate.probabilistic(rate_limit_bps),
                inconsistency=InconsistencySpec.update_error(epsilon_r, max_write_rate),
                activity="police",
            ),
        ),
        activities=(
            ActivitySpec(
                name="police",
                action=ActionKind.DROP_PACKET,
                scope=scope,
            ),
        ),
    )


def make_link_lb_app(
    p: int,
    epsilon_r: int = 10,
    max_write_rate: float = 1000.0,
    delta_s: float = 0.1,
    window: int = 8,
) -> ApplicationSpec:
    """Least-congested-path selection over `p` candidate paths.

    2p states carry the uplink (0..p-1) and downlink (p..2p-1) loads of
    each path; new flows (SYN packets) get a flow rule toward the path
    minimizing the worse of its two legs.
    """
    states = tuple(
        StateSpec(
            name=f"leg_load_{i}",
            scope=ScopeFilter(),
            value=ValueKind.rate_estimate(delta_s, window, unit="bits"),
        )
        for i in range(2 * p)
    )
    return ApplicationSpec(
        name="linklb",
        states=states,
        reductions=(
            ReductionSpec(
                "best_path", ReductionKind.MINMAX_ARGMIN, tuple(s.name for s in states)
            ),
        ),
        triggers=(
            TriggerSpec(
                name="route_new_flow",
                input="best_path",
                predicate=Predicate.always(),
                inconsistency=InconsistencySpec.update_error(epsilon_r, max_write_rate),
                activity="pin_path",
            ),
        ),
        activities=(
            ActivitySpec(
                name="pin_path",
                action=ActionKind.INSERT_FLOW_RULE,
                scope=ScopeFilter(l4=L4Match.SYN_ONLY),
                selector="best_path",
            ),
        ),
    )


def make_resource_lb_app(
    n: int,
    threshold: float = 0.8,
    load_scale: int = 100,
    epsilon_r: int = 15,
    max_write_rate: float = 1000.0,
) -> ApplicationSpec:
    """Least-loaded-server dispatch with a scale-out escape hatch.

    `n` scalar states carry server loads on a 0..load_scale integer
    scale (scenario-injected). While the mean load stays at or below
    threshold * load_scale, new flows go to the least loaded server;
    above it they are steered to the controller port instead.
    """
    if not 0 < threshold < 1:
        raise InvalidParameter(f"threshold must be in (0, 1), got {threshold}", "threshold")
    if load_scale < 1:
        raise InvalidParameter(f"load_scale must be at least 1, got {load_scale}", "load_scale")
    states = tuple(
        StateSpec(
            name=f"srv_load_{i}",
            scope=ScopeFilter(),
            value=ValueKind.scalar(),
        )
        for i in range(n)
    )
    names = tuple(s.name for s in states)
    bar = threshold * load_scale
    return ApplicationSpec(
        name="resourcelb",
        states=states,
        reductions=(
            ReductionSpec("least_loaded", ReductionKind.ARGMIN, names),
            ReductionSpec("mean_load", ReductionKind.MEAN, names),
        ),
        triggers=(
            TriggerSpec(
                name="capacity_ok",
                input="mean_load",
                predicate=Predicate.less_or_equal(bar),
                inconsistency=InconsistencySpec.update_error(epsilon_r, max_write_rate),
                activity="assign_server",
            ),
            TriggerSpec(
                name="capacity_exhausted",
                input="mean_load",
                predicate=Predicate.greater_than(bar),
                inconsistency=InconsistencySpec.update_error(epsilon_r, max_write_rate),
                activity="escalate",
            ),
        ),
        activities=(
            ActivitySpec(
                name="assign_server",
                action=ActionKind.SET_EGRESS,
                scope=ScopeFilter(l4=L4Match.SYN_ONLY),
                selector="least_loaded",
                sequential_group="dispatch",
            ),
            ActivitySpec(
                name="escalate",
                action=ActionKind.SET_EGRESS,
                scope=ScopeFilter(l4=L4Match.SYN_ONLY),
                selector_const=CONTROLLER_PORT,
                sequential_group="dispatch",
            ),
        ),
    )


class Key(NamedTuple):
    """One key of a scenario section: the scenario reader's kind that
    parses it (see scenario.KINDS), its default as scenario text (None:
    mandatory; scenario.OPTIONAL: absent unless given, its user fills it
    from another key) and its parsed name when that differs from the
    key."""

    key: str
    kind: str
    default: str | None = None
    param: str | None = None


class AppRecord(NamedTuple):
    """One application as scenario files name it.

    `make(params, replicas)` calls the factory (`states = auto` resolves
    to the replica count). `bind(params, topology)` checks the app's
    switches and hosts against the topology and returns Simulator's
    egress observers and egress maps (see install_app) and the switch
    that must measure every flow, or None. Both raise InvalidParameter
    naming the offending key.
    """

    keys: tuple[Key, ...]
    make: Callable[[dict, int], ApplicationSpec]
    bind: Callable[[dict, object], tuple] = lambda p, topo: ({}, {}, None)


_ESTIMATOR_KEYS = (Key("delta", "dur", "0.1", "delta_s"), Key("window", "integer", "8"))
_STATES_KEY = Key("states", "text", "auto")


def _estimator_args(p: dict) -> tuple[float, int]:
    """delta_s and window, checked by building the estimator they configure."""
    RateEstimatorWindow(p["delta_s"], p["window"])
    return p["delta_s"], p["window"]


def _state_count(p: dict, replicas: int) -> int:
    raw = p["states"]
    if raw == "auto":
        return replicas
    if not raw.isdecimal() or int(raw) < 1:
        raise InvalidParameter(f"states must be 'auto' or an integer >= 1, got {raw!r}",
                               "states")
    return int(raw)


def _hinted(app: ApplicationSpec, hints) -> ApplicationSpec:
    """The app with each state placed near the switch named in `hints`."""
    return replace(app, states=tuple(replace(s, target_hint=h)
                                     for s, h in zip(app.states, hints)))


def _bind_linklb(p: dict, topo) -> tuple:
    lb, vias, dst = p["lb_switch"], p["path_via"], p["dst_switch"]
    if not vias:
        raise InvalidParameter("linklb: path_via names no switch", "path_via")
    if len(set(vias)) != len(vias):
        raise InvalidParameter("linklb: path_via names a switch twice", "path_via")
    for key, names in (("lb_switch", [lb]), ("dst_switch", [dst]), ("path_via", vias)):
        for sw in names:
            if not topo.is_switch(sw):
                raise InvalidParameter(f"linklb references unknown switch {sw!r}", key)
    observers = {}
    for i, via in enumerate(vias):
        if via not in topo.adj[lb]:
            raise InvalidParameter(f"linklb: {via} is not adjacent to {lb}", "path_via")
        if via == dst:
            raise InvalidParameter("linklb: path_via must differ from dst_switch", "path_via")
        # A flow pinned to via must not come back: lb would pin it again.
        hop = via
        while hop not in (dst, lb):
            hop = topo.next_hop(hop, dst)
        if hop == lb:
            raise InvalidParameter(f"linklb: {via}'s route to {dst} runs back through {lb}",
                                   "path_via")
        observers[f"leg_load_{i}"] = via
        observers[f"leg_load_{i + len(vias)}"] = topo.next_hop(via, dst)
    return observers, {"pin_path": {lb: list(vias)}}, lb


def _bind_resourcelb(p: dict, topo) -> tuple:
    lb = p["lb_switch"]
    if not topo.is_switch(lb):
        raise InvalidParameter(f"resourcelb lb_switch {lb!r} is not a switch", "lb_switch")
    if not p["servers"]:
        raise InvalidParameter("resourcelb: servers names no host", "servers")
    if len(set(p["servers"])) != len(p["servers"]):
        raise InvalidParameter("resourcelb: servers names a host twice", "servers")
    for h in p["servers"]:
        if h not in topo.hosts or topo.attached_switch(h) != lb:
            raise InvalidParameter(f"resourcelb: server {h} must be a host on {lb}", "servers")
    return {}, {"assign_server": {lb: list(p["servers"])}}, lb


APPS = {
    "ddos": AppRecord(
        keys=(Key("threshold", "num"), Key("epsilon_t", "dur", param="epsilon_t_s"),
              *_ESTIMATOR_KEYS, _STATES_KEY),
        make=lambda p, c: make_ddos_app(_state_count(p, c), p["threshold"], p["epsilon_t_s"],
                                        *_estimator_args(p)),
    ),
    "ratelimit": AppRecord(
        keys=(Key("limit", "bps", param="rate_limit_bps"), Key("epsilon_r", "integer"),
              Key("max_write_rate", "num"), *_ESTIMATOR_KEYS, _STATES_KEY),
        make=lambda p, c: make_rate_limiter_app(_state_count(p, c), p["rate_limit_bps"],
                                                p["epsilon_r"], p["max_write_rate"],
                                                *_estimator_args(p)),
    ),
    "linklb": AppRecord(
        keys=(Key("lb_switch", "text"), Key("path_via", "names"),
              Key("dst_switch", "text"), Key("epsilon_r", "integer", "10"),
              Key("max_write_rate", "num", "1000"), *_ESTIMATOR_KEYS),
        # Uplink legs are measured at lb_switch, downlink legs at each via.
        make=lambda p, c: _hinted(make_link_lb_app(len(p["path_via"]), p["epsilon_r"],
                                                   p["max_write_rate"], *_estimator_args(p)),
                                  [p["lb_switch"]] * len(p["path_via"]) + p["path_via"]),
        bind=_bind_linklb,
    ),
    "resourcelb": AppRecord(
        keys=(Key("lb_switch", "text"), Key("servers", "names"),
              Key("threshold", "num", "0.8"), Key("load_scale", "integer", "100"),
              Key("epsilon_r", "integer", "15"), Key("max_write_rate", "num", "1000")),
        make=lambda p, c: _hinted(make_resource_lb_app(len(p["servers"]), p["threshold"],
                                                       p["load_scale"], p["epsilon_r"],
                                                       p["max_write_rate"]),
                                  [p["lb_switch"]] * len(p["servers"])),
        bind=_bind_resourcelb,
    ),
}

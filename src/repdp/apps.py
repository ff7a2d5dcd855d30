"""The four reference applications and the shared windowed rate estimator.

Each factory returns a plain ApplicationSpec; nothing here touches the
simulator. Factories are registered under the names scenario files use:
ddos, ratelimit, linklb, resourcelb.
"""

from __future__ import annotations

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
            raise InvalidParameter(f"estimator window must be a power of two, got {window}")
        self.delta_ns = round(delta_s * 1e9)
        if self.delta_ns <= 0:
            raise InvalidParameter(f"estimator delta must be at least 1 ns, got {delta_s} s")
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
        self._advance(t_ns)
        self.cur_count += increment

    def read(self, t_ns: int) -> int:
        """Estimated rate in events per second (integer floor)."""
        self._advance(t_ns)
        return self.total * 1_000_000_000 // (self.window * self.delta_ns)


def make_ddos_app(
    n: int,
    threshold: float,
    epsilon_t_s: float,
    delta_s: float = 0.1,
    window: int = 8,
    dst_hosts: tuple[str, ...] | None = None,
) -> ApplicationSpec:
    """SYN-rate anomaly detection over `n` edge measurement points.

    Each state estimates the SYN arrival rate on external ports at one
    replica switch; their sum is compared against `threshold` under a
    staleness budget, notifying the controller on detection.
    """
    scope = ScopeFilter(PortClass.EXTERNAL, L4Match.SYN_ONLY, dst_hosts)
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
    dst_hosts: tuple[str, ...] | None = None,
) -> ApplicationSpec:
    """Network-wide aggregate rate limiter over `n` ingress points.

    States estimate the inbound bit rate at each ingress; packets are
    dropped with probability max(0, (s - R) / s) over the summed rate s,
    holding the aggregate near R regardless of where flows enter.
    """
    scope = ScopeFilter(PortClass.EXTERNAL, L4Match.ANY, dst_hosts)
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
    thr: float = 0.8,
    load_scale: int = 100,
    epsilon_r: int = 15,
    max_write_rate: float = 1000.0,
) -> ApplicationSpec:
    """Least-loaded-server dispatch with a scale-out escape hatch.

    `n` scalar states carry server loads on a 0..load_scale integer
    scale (scenario-injected). While the mean load stays at or below
    thr, new flows go to the least loaded server; above it they are
    steered to the controller port instead.
    """
    if not 0 < thr < 1:
        raise ValueError("thr must be in (0, 1)")
    states = tuple(
        StateSpec(
            name=f"srv_load_{i}",
            scope=ScopeFilter(),
            value=ValueKind.scalar(),
        )
        for i in range(n)
    )
    names = tuple(s.name for s in states)
    threshold = thr * load_scale
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
                predicate=Predicate.less_or_equal(threshold),
                inconsistency=InconsistencySpec.update_error(epsilon_r, max_write_rate),
                activity="assign_server",
            ),
            TriggerSpec(
                name="capacity_exhausted",
                input="mean_load",
                predicate=Predicate.greater_than(threshold),
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


APP_FACTORIES = {
    "ddos": make_ddos_app,
    "ratelimit": make_rate_limiter_app,
    "linklb": make_link_lb_app,
    "resourcelb": make_resource_lb_app,
}

"""Application model: replicated states, reductions, triggers and activities.

An application is declared as a set of named elements that form a DAG:
states are written by the dataplane, reductions combine state replicas
into network-wide values, triggers evaluate predicates over those values
under a declared inconsistency budget, and activities are the actions a
firing trigger applies to matching packets.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field

from .errors import InvalidApplication

STATE_MAX_WIDTH_BITS = 64

# Sentinel egress index: steer matching packets up to the controller.
CONTROLLER_PORT = -1

# Element names must be addressable in wire registries and scenario files.
NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# Names synthesized from element names: a trigger's identity reduction,
# a lowered mean's sum and an estimator's slot ring.
IDENTITY_SUFFIX = "__id"
SUM_SUFFIX = "__sum"
SLOTS_SUFFIX = "__slots"
RESERVED_SUFFIXES = (IDENTITY_SUFFIX, SUM_SUFFIX, SLOTS_SUFFIX)


class PortClass(enum.Enum):
    """Classification of a switch port, used by scope filters."""

    EXTERNAL = "external"
    UPLINK = "uplink"
    DOWNLINK = "downlink"
    ANY = "any"


class L4Match(enum.Enum):
    SYN_ONLY = "syn"
    ANY = "any"


@dataclass(frozen=True)
class ScopeFilter:
    """Selects the packets an element observes or acts on."""

    port_class: PortClass = PortClass.ANY
    l4: L4Match = L4Match.ANY
    dst_hosts: tuple[str, ...] | None = None

    def matches(self, port_class: PortClass, syn: bool, dst: str) -> bool:
        if self.port_class is not PortClass.ANY and port_class is not self.port_class:
            return False
        if self.l4 is L4Match.SYN_ONLY and not syn:
            return False
        if self.dst_hosts is not None and dst not in self.dst_hosts:
            return False
        return True

    def signature(self) -> str:
        """Stable text form; equal signatures mean the same packet set."""
        dst = "*" if self.dst_hosts is None else ",".join(sorted(self.dst_hosts))
        return f"{self.port_class.value}/{self.l4.value}/{dst}"


class ValueType(enum.Enum):
    RATE_ESTIMATE = "rate_estimate"
    SCALAR = "scalar"


@dataclass(frozen=True)
class ValueKind:
    """What a state slot holds and how it is maintained.

    Rate estimates count either packets or bits per second, selected by
    `unit`; the distinction only matters to the switch feeding the
    estimator.
    """

    type: ValueType
    window: int = 8
    delta_s: float = 0.1
    unit: str = "packets"

    @classmethod
    def rate_estimate(
        cls, delta_s: float = 0.1, window: int = 8, unit: str = "packets"
    ) -> "ValueKind":
        """Windowed average over `window` slots of `delta_s` seconds each."""
        return cls(ValueType.RATE_ESTIMATE, window=window, delta_s=delta_s, unit=unit)

    @classmethod
    def scalar(cls) -> "ValueKind":
        return cls(ValueType.SCALAR)


class InconsistencyKind(enum.Enum):
    NONE = "none"
    TIME_OBSOLESCENCE = "time_obsolescence"
    UPDATE_ERROR = "update_error"


@dataclass(frozen=True)
class InconsistencySpec:
    """Bound on how far replicas may drift from the true global value.

    TIME_OBSOLESCENCE bounds staleness to epsilon_t_s seconds.
    UPDATE_ERROR bounds the missed-update count to epsilon_r given a
    declared peak write rate; this induces a time budget
    epsilon_r / max_write_rate.
    """

    kind: InconsistencyKind
    epsilon_t_s: float | None = None
    epsilon_r: int | None = None
    max_write_rate: float | None = None

    @classmethod
    def none(cls) -> "InconsistencySpec":
        return cls(InconsistencyKind.NONE)

    @classmethod
    def time_obsolescence(cls, epsilon_t_s: float) -> "InconsistencySpec":
        return cls(InconsistencyKind.TIME_OBSOLESCENCE, epsilon_t_s=epsilon_t_s)

    @classmethod
    def update_error(cls, epsilon_r: int, max_write_rate: float) -> "InconsistencySpec":
        return cls(
            InconsistencyKind.UPDATE_ERROR,
            epsilon_r=epsilon_r,
            max_write_rate=max_write_rate,
        )

    def budget_s(self) -> float | None:
        """Propagation-delay budget in seconds, None when not replicated."""
        if self.kind is InconsistencyKind.TIME_OBSOLESCENCE:
            return self.epsilon_t_s
        if self.kind is InconsistencyKind.UPDATE_ERROR:
            return self.epsilon_r / self.max_write_rate
        return None

    def budget_field(self) -> str | None:
        """The field that sets the budget's size: the one to blame when
        it is infeasible. None when not replicated."""
        if self.kind is InconsistencyKind.TIME_OBSOLESCENCE:
            return "epsilon_t_s"
        if self.kind is InconsistencyKind.UPDATE_ERROR:
            return "epsilon_r"
        return None

    def problems(self) -> dict[str, str]:
        """Each out-of-range field, mapped to what is wrong with it."""
        out = {}
        if self.kind is InconsistencyKind.TIME_OBSOLESCENCE:
            if self.epsilon_t_s is None or self.epsilon_t_s <= 0:
                out["epsilon_t_s"] = "time_obsolescence requires epsilon_t_s > 0"
        elif self.kind is InconsistencyKind.UPDATE_ERROR:
            if self.epsilon_r is None or self.epsilon_r <= 0:
                out["epsilon_r"] = "update_error requires epsilon_r > 0"
            if self.max_write_rate is None or self.max_write_rate <= 0:
                out["max_write_rate"] = "update_error requires max_write_rate > 0"
        return out


class ReductionKind(enum.Enum):
    SUM = "sum"
    MEAN = "mean"
    MIN = "min"
    MAX = "max"
    ARGMIN = "argmin"
    ARGMAX = "argmax"
    MINMAX_ARGMIN = "minmax_argmin"
    IDENTITY = "identity"


@dataclass(frozen=True)
class StateSpec:
    """A dataplane-resident value replicated across the network."""

    name: str
    scope: ScopeFilter
    value: ValueKind
    width_bits: int = 32
    target_hint: str | None = None


@dataclass(frozen=True)
class ReductionSpec:
    """Combines inputs (states or other reductions) into one output."""

    output: str
    primitive: ReductionKind
    inputs: tuple[str, ...]


class PredicateKind(enum.Enum):
    GREATER_THAN = "greater_than"
    LESS_OR_EQUAL = "less_or_equal"
    PROBABILISTIC = "probabilistic"
    ALWAYS = "always"


@dataclass(frozen=True)
class Predicate:
    """Boolean test over a reduction output.

    PROBABILISTIC fires with probability max(0, (v - threshold) / v),
    the normalized excess over the threshold; the caller supplies the
    uniform draw in [0, 1) so evaluation stays deterministic under a
    seeded RNG, and without a draw it does not fire.
    """

    kind: PredicateKind
    threshold: float | None = None

    @classmethod
    def greater_than(cls, threshold: float) -> "Predicate":
        return cls(PredicateKind.GREATER_THAN, threshold)

    @classmethod
    def less_or_equal(cls, threshold: float) -> "Predicate":
        return cls(PredicateKind.LESS_OR_EQUAL, threshold)

    @classmethod
    def probabilistic(cls, threshold: float) -> "Predicate":
        return cls(PredicateKind.PROBABILISTIC, threshold)

    @classmethod
    def always(cls) -> "Predicate":
        return cls(PredicateKind.ALWAYS)

    def test(self):
        """The predicate as a function test(v, u=None) -> bool of a value
        v and a uniform draw u in [0, 1), built once so that a call
        dispatches on nothing."""
        th = self.threshold
        kind = self.kind
        if kind is PredicateKind.PROBABILISTIC:
            # A draw is never below a probability of 0, so no max(0, .)
            # is needed.
            return lambda v, u=None: u is not None and v > 0 and u < (v - th) / v
        if kind is PredicateKind.GREATER_THAN:
            return lambda v, u=None: v > th
        if kind is PredicateKind.LESS_OR_EQUAL:
            return lambda v, u=None: v <= th
        return lambda v, u=None: True


@dataclass(frozen=True)
class TriggerSpec:
    """Watches one reduction output and fires an activity.

    `input` may name a state directly; DAG construction inserts an
    identity reduction so every trigger formally reads a reduction.
    The inconsistency budget declared here applies to every state
    upstream of the trigger.
    """

    name: str
    input: str
    predicate: Predicate
    inconsistency: InconsistencySpec
    activity: str


class ActionKind(enum.Enum):
    NOTIFY_CONTROLLER = "notify_controller"
    DROP_PACKET = "drop_packet"
    SET_EGRESS = "set_egress"
    INSERT_FLOW_RULE = "insert_flow_rule"


@dataclass(frozen=True)
class ActivitySpec:
    """Action applied to packets matching `scope` while the trigger holds.

    NOTIFY_CONTROLLER sends `message` once per false->true transition.
    SET_EGRESS and INSERT_FLOW_RULE read the path choice from the
    reduction output named by `selector`, or use the fixed port index
    `selector_const` (e.g. CONTROLLER_PORT). Activities sharing a
    `sequential_group` must run on one switch set: the compiler merges
    their colocation groups, and Simulator.install_app rejects a
    placement that installs their triggers on different switches.
    """

    name: str
    action: ActionKind
    scope: ScopeFilter = field(default_factory=ScopeFilter)
    message: str | None = None
    selector: str | None = None
    selector_const: int | None = None
    sequential_group: str | None = None


@dataclass(frozen=True)
class ApplicationSpec:
    name: str
    states: tuple[StateSpec, ...]
    reductions: tuple[ReductionSpec, ...]
    triggers: tuple[TriggerSpec, ...]
    activities: tuple[ActivitySpec, ...]


def validate_application(app: ApplicationSpec) -> list[str]:
    """Check naming, references, arity and budget declarations; returns
    the violations found, empty for a valid application."""
    bad: list[str] = []

    names: dict[str, str] = {}
    for kind, elems in (
        ("state", app.states),
        ("reduction", app.reductions),
        ("trigger", app.triggers),
        ("activity", app.activities),
    ):
        for e in elems:
            name = e.output if kind == "reduction" else e.name
            if not NAME_RE.match(name):
                bad.append(f"{kind} name {name!r} is not a valid identifier")
            if name.endswith(RESERVED_SUFFIXES):
                bad.append(
                    f"{kind} name {name!r} ends in a suffix reserved for"
                    f" synthesized names ({', '.join(RESERVED_SUFFIXES)})"
                )
            if name in names:
                bad.append(f"name {name!r} used by both {names[name]} and {kind}")
            names[name] = kind

    if not NAME_RE.match(app.name):
        bad.append(f"application name {app.name!r} is not a valid identifier")

    state_names = {s.name for s in app.states}
    reduction_names = {r.output for r in app.reductions}
    activities = {a.name: a for a in app.activities}

    for s in app.states:
        if not 1 <= s.width_bits <= STATE_MAX_WIDTH_BITS:
            bad.append(
                f"state {s.name}: width {s.width_bits} outside"
                f" [1, {STATE_MAX_WIDTH_BITS}]"
            )
        if s.value.type is ValueType.RATE_ESTIMATE:
            w = s.value.window
            if w < 1 or w & (w - 1):
                bad.append(f"state {s.name}: estimator window {w} not a power of two")
            # The estimator's own rule: its slot is a whole number of ns.
            if not (math.isfinite(s.value.delta_s) and round(s.value.delta_s * 1e9) >= 1):
                bad.append(f"state {s.name}: estimator slot width must be at least 1 ns")
            if s.value.unit not in ("packets", "bits"):
                bad.append(f"state {s.name}: estimator unit {s.value.unit!r}"
                           f" is not packets or bits")

    for r in app.reductions:
        if not r.inputs:
            bad.append(f"reduction {r.output}: no inputs")
        for src in r.inputs:
            if src not in state_names and src not in reduction_names:
                bad.append(f"reduction {r.output}: unknown input {src!r}")
        if r.primitive is ReductionKind.IDENTITY and len(r.inputs) != 1:
            bad.append(f"reduction {r.output}: identity takes exactly one input")
        if r.primitive is ReductionKind.MINMAX_ARGMIN and len(r.inputs) % 2:
            bad.append(
                f"reduction {r.output}: minmax_argmin pairs inputs, needs an even count"
            )

    cycle = _order_reductions(app.reductions)[1]
    if cycle is not None:
        bad.append(f"reduction {cycle}: part of a reference cycle")

    for t in app.triggers:
        if t.input not in state_names and t.input not in reduction_names:
            bad.append(f"trigger {t.name}: unknown input {t.input!r}")
        if t.activity not in activities:
            bad.append(f"trigger {t.name}: unknown activity {t.activity!r}")
        elif (t.predicate.kind is PredicateKind.PROBABILISTIC
              and activities[t.activity].action is ActionKind.NOTIFY_CONTROLLER):
            # A notification fires on a change of the trigger's value,
            # which switches evaluate without a draw.
            bad.append(f"trigger {t.name}: a probabilistic predicate cannot"
                       f" drive notify_controller")
        if t.predicate.kind in (
            PredicateKind.GREATER_THAN,
            PredicateKind.LESS_OR_EQUAL,
            PredicateKind.PROBABILISTIC,
        ):
            thr = t.predicate.threshold
            if thr is None:
                bad.append(f"trigger {t.name}: predicate needs a threshold")
            elif not math.isfinite(thr):
                bad.append(f"trigger {t.name}: threshold must be finite")
        for p in t.inconsistency.problems().values():
            bad.append(f"trigger {t.name}: {p}")

    for a in app.activities:
        if a.action is ActionKind.NOTIFY_CONTROLLER and not a.message:
            bad.append(f"activity {a.name}: notify_controller needs a message")
        if a.action in (ActionKind.NOTIFY_CONTROLLER, ActionKind.DROP_PACKET) and (
                a.selector is not None or a.selector_const is not None):
            bad.append(f"activity {a.name}: {a.action.value} takes no selector")
        if a.action is ActionKind.SET_EGRESS:
            if (a.selector is None) == (a.selector_const is None):
                bad.append(
                    f"activity {a.name}: set_egress needs exactly one of"
                    f" selector / selector_const"
                )
            elif a.selector is not None and a.selector not in reduction_names:
                bad.append(f"activity {a.name}: unknown selector {a.selector!r}")
        if a.action is ActionKind.INSERT_FLOW_RULE:
            if a.selector is None:
                bad.append(f"activity {a.name}: insert_flow_rule needs a selector")
            elif a.selector not in reduction_names:
                bad.append(f"activity {a.name}: unknown selector {a.selector!r}")

    return bad


def _order_reductions(reductions) -> tuple[list[ReductionSpec], str | None]:
    """Reductions in evaluation order: each after the reductions it
    reads, otherwise in declaration order. Also returns the first
    declared reduction whose references reach a cycle (None when there
    is none); the order is then incomplete."""
    by_name = {r.output: r for r in reductions}
    mark: dict[str, int] = {}  # 1 while on the search path, 2 once placed
    order: list[ReductionSpec] = []

    def place(name: str) -> bool:
        if name in mark:
            return mark[name] == 2
        mark[name] = 1
        r = by_name[name]
        ok = all(place(i) for i in r.inputs if i in by_name)
        mark[name] = 2
        order.append(r)
        return ok

    for name in by_name:
        if not place(name):
            return order, name
    return order, None


@dataclass
class ElementDag:
    """A validated application, laid out for evaluation and lowering.

    `reductions` maps each output to its reduction in evaluation order,
    the identity reductions synthesized for triggers that named a state
    directly last; `trigger_inputs` maps each trigger to the reduction
    its predicate reads, and `feeds` to everything the trigger reads:
    the states (in declaration order) and reductions (in evaluation
    order) that feed that reduction or its activity's selector, those
    two included.
    """

    app: ApplicationSpec
    reductions: dict[str, ReductionSpec]
    trigger_inputs: dict[str, str]
    feeds: dict[str, tuple[str, ...]]

    def upstream_states(self, trigger: str) -> list[str]:
        """States `trigger` reads, in declaration order."""
        return [n for n in self.feeds[trigger] if n not in self.reductions]


def build_dag(app: ApplicationSpec) -> ElementDag:
    """Validate `app`, order its reductions and find what each trigger
    reads.

    Raises InvalidApplication when validation reports violations.
    """
    if violations := validate_application(app):
        raise InvalidApplication(violations)

    reductions = {r.output: r for r in _order_reductions(app.reductions)[0]}
    # Triggers may read a state directly; insert an identity reduction so
    # that every trigger reads a reduction.
    trigger_inputs: dict[str, str] = {}
    state_names = [s.name for s in app.states]
    for t in app.triggers:
        red = t.input
        if red in state_names:
            red += IDENTITY_SUFFIX
            reductions.setdefault(red, ReductionSpec(red, ReductionKind.IDENTITY, (t.input,)))
        trigger_inputs[t.name] = red

    # What each reduction reads, transitively; its inputs come first.
    reads: dict[str, set[str]] = {}
    for r in reductions.values():
        got = reads[r.output] = set(r.inputs)
        for i in r.inputs:
            got.update(reads.get(i, ()))
    # A trigger reads its input and its activity's selector, so the
    # selector's states take the trigger's budget and hosting rule too.
    selectors = {a.name: a.selector for a in app.activities}
    feeds = {}
    for t in app.triggers:
        read = {trigger_inputs[t.name], selectors[t.activity]} - {None}
        fed = read.union(*(reads[r] for r in read))
        feeds[t.name] = tuple(n for n in (*state_names, *reductions) if n in fed)
    return ElementDag(app, reductions, trigger_inputs, feeds)


def replication_requirements(dag: ElementDag) -> dict[str, InconsistencySpec]:
    """Map each state to its effective inconsistency budget.

    A state consumed by several triggers inherits the strictest budget
    (smallest time allowance); a state only consumed by budget-free
    triggers stays unreplicated.
    """
    out: dict[str, InconsistencySpec] = {}
    for s in dag.app.states:
        out[s.name] = InconsistencySpec.none()
    for t in dag.app.triggers:
        spec = t.inconsistency
        if spec.kind is InconsistencyKind.NONE:
            continue
        for sname in dag.upstream_states(t.name):
            cur = out[sname]
            if cur.kind is InconsistencyKind.NONE or spec.budget_s() < cur.budget_s():
                out[sname] = spec
    return out

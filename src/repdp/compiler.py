"""Compilation of an application DAG into a switch-level primitive program.

The output is a flat list of data structures (registers, circular
buffers) plus primitive operations in topological order, with
colocation groups tying each trigger to the ops it must share a switch
with. Each declared state is one wire state, whose id is its
declaration index; rate estimates expand to a slot buffer feeding an
estimate register, and only the register is replicated.
The reduction and shift ops, as flat steps (`reduction_steps`), are
the one executable semantics: every replica store and
`evaluate_program` run them; `evaluate_dag` is the oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .errors import UnsupportedPrimitive
from .model import (
    SLOTS_SUFFIX,
    SUM_SUFFIX,
    ActionKind,
    ElementDag,
    Predicate,
    PredicateKind,
    ReductionKind,
    ScopeFilter,
    ValueType,
)

DEFAULT_CAPABILITIES = frozenset(
    {
        "register",
        "circular_buffer",
        "sum",
        "shift",
        "min",
        "max",
        "argmin",
        "argmax",
        "minmax_argmin",
        "identity",
        "greater_than",
        "less_or_equal",
        "probabilistic",
        "always",
        "notify_controller",
        "drop_packet",
        "set_egress",
        "insert_flow_rule",
    }
)


@dataclass
class CompiledState:
    """One declared state: a wire-addressable replicated value."""

    name: str
    state_id: int
    scope: ScopeFilter
    width_bits: int
    value_type: ValueType
    window: int
    delta_s: float
    unit: str
    target_hint: str | None


@dataclass(frozen=True)
class DataStructure:
    name: str
    kind: str
    width_bits: int
    slots: int = 1


@dataclass(frozen=True)
class PrimitiveOp:
    op_id: int
    opcode: str
    operands: tuple[str, ...]
    output: str | None = None
    params: tuple[tuple[str, object], ...] = ()

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass
class PrimitiveProgram:
    app_name: str
    states: list[CompiledState]
    structures: list[DataStructure]
    ops: list[PrimitiveOp]
    groups: list[frozenset[int]]
    state_index: dict[str, CompiledState] = field(default_factory=dict)

    def __post_init__(self):
        if not self.state_index:
            self.state_index = {s.name: s for s in self.states}


def _require(cap: str, capabilities: frozenset, element: str):
    if cap not in capabilities:
        raise UnsupportedPrimitive(f"{element}: target lacks primitive {cap!r}")


def compile_application(
    dag: ElementDag, capabilities: frozenset = DEFAULT_CAPABILITIES
) -> PrimitiveProgram:
    """Lower a validated DAG onto the primitive set in `capabilities`.

    Raises UnsupportedPrimitive when an element needs a missing
    primitive, including Mean over a non power-of-two input count
    (Mean lowers to Sum plus a right shift).
    """
    app = dag.app
    states = [
        CompiledState(s.name, k, s.scope, s.width_bits, s.value.type, s.value.window,
                      s.value.delta_s, s.value.unit, s.target_hint)
        for k, s in enumerate(app.states)
    ]

    structures: list[DataStructure] = []
    ops: list[PrimitiveOp] = []
    op_of: dict[str, int] = {}

    def emit(opcode, operands, output=None, params=()):
        op = PrimitiveOp(len(ops), opcode, tuple(operands), output, tuple(params))
        ops.append(op)
        if output is not None:
            op_of[output] = op.op_id
        return op

    for cs in states:
        _require("register", capabilities, f"state {cs.name}")
        if cs.value_type is ValueType.RATE_ESTIMATE:
            _require("circular_buffer", capabilities, f"state {cs.name}")
            slots = cs.name + SLOTS_SUFFIX
            structures.append(DataStructure(slots, "circular_buffer", cs.width_bits, cs.window))
            structures.append(DataStructure(cs.name, "register", cs.width_bits))
            emit("estimate_rate", (slots,), cs.name,
                 (("window", cs.window), ("delta_s", cs.delta_s)))
        else:
            structures.append(DataStructure(cs.name, "register", cs.width_bits))
            emit("store", (), cs.name)

    # Reductions in topological order (the dag order is already layered).
    topo = dag.topo_order()
    for node in topo:
        if dag.nodes[node] != "reduction":
            continue
        r = dag.reductions[node]
        prim = r.primitive
        if prim is ReductionKind.MEAN:
            _require("sum", capabilities, f"reduction {r.output}")
            _require("shift", capabilities, f"reduction {r.output}")
            n = len(r.inputs)
            if n < 1 or n & (n - 1):
                raise UnsupportedPrimitive(
                    f"reduction {r.output}: mean lowers to sum+shift and needs a"
                    f" power-of-two input count, got {n}"
                )
            emit("sum", r.inputs, r.output + SUM_SUFFIX)
            emit(
                "shift",
                (r.output + SUM_SUFFIX,),
                r.output,
                (("shift", n.bit_length() - 1),),
            )
        else:
            _require(prim.value, capabilities, f"reduction {r.output}")
            emit(prim.value, r.inputs, r.output)

    activities = {a.name: a for a in app.activities}
    groups: list[frozenset[int]] = []
    for t in app.triggers:
        red = dag.trigger_inputs[t.name]
        _require(t.predicate.kind.value, capabilities, f"trigger {t.name}")
        params = []
        if t.predicate.threshold is not None:
            params.append(("threshold", t.predicate.threshold))
        trig_op = emit(t.predicate.kind.value, (red,), t.name, params)

        a = activities[t.activity]
        _require(a.action.value, capabilities, f"activity {a.name}")
        aparams = [("activity", a.name)]
        if a.message is not None:
            aparams.append(("message", a.message))
        if a.selector is not None:
            aparams.append(("selector", a.selector))
        if a.selector_const is not None:
            aparams.append(("selector_const", a.selector_const))
        act_op = emit(a.action.value, (t.name,), None, aparams)

        # The trigger, its activity and the reduction chain below it must
        # land on the same switch.
        group = {trig_op.op_id, act_op.op_id}
        stack = [red]
        while stack:
            name = stack.pop()
            if name in op_of:
                group.add(op_of[name])
                if name + SUM_SUFFIX in op_of:
                    group.add(op_of[name + SUM_SUFFIX])
            if name in dag.reductions:
                stack.extend(dag.reductions[name].inputs)
        groups.append(frozenset(group))

    # Activities sharing a sequential_group pull their trigger groups
    # together onto one switch.
    by_seq: dict[str, list[int]] = {}
    for gi, t in enumerate(app.triggers):
        seq = activities[t.activity].sequential_group
        if seq is not None:
            by_seq.setdefault(seq, []).append(gi)
    if by_seq:
        merged_away: set[int] = set()
        for indices in by_seq.values():
            if len(indices) < 2:
                continue
            union = frozenset().union(*(groups[i] for i in indices))
            groups[indices[0]] = union
            merged_away.update(indices[1:])
        groups = [g for i, g in enumerate(groups) if i not in merged_away]

    return PrimitiveProgram(app.name, states, structures, ops, groups)


def canonical_text(program: PrimitiveProgram) -> str:
    """Stable one-line-per-item dump used for golden comparisons."""
    lines = [f"program {program.app_name}"]
    for cs in program.states:
        lines.append(
            f"state {cs.state_id} {cs.name} {cs.value_type.value}"
            f" width={cs.width_bits} scope={cs.scope.signature()}"
        )
    for d in program.structures:
        extra = f" slots={d.slots}" if d.slots != 1 else ""
        lines.append(f"struct {d.name} {d.kind} width={d.width_bits}{extra}")
    for op in program.ops:
        out = f" -> {op.output}" if op.output else ""
        params = "".join(f" {k}={v}" for k, v in op.params)
        operands = ",".join(op.operands)
        lines.append(f"op {op.op_id} {op.opcode}({operands}){out}{params}")
    for g in program.groups:
        lines.append("group {" + ",".join(str(i) for i in sorted(g)) + "}")
    return "\n".join(lines) + "\n"


def _argmin(vals):
    return vals.index(min(vals))


def _argmax(vals):
    return vals.index(max(vals))


def _minmax_argmin(vals):
    half = len(vals) // 2
    return _argmin([max(vals[i], vals[half + i]) for i in range(half)])


# Integer semantics of each reduction opcode over its operand values.
# argmin/argmax break ties toward the lowest index; minmax_argmin pairs
# operand i with operand i + n/2 and returns the index minimizing the
# pairwise max.
PRIMITIVES = {
    "sum": sum,
    "min": min,
    "max": max,
    "argmin": _argmin,
    "argmax": _argmax,
    "minmax_argmin": _minmax_argmin,
    "identity": operator.itemgetter(0),
}


class RightShift:
    """The `shift` opcode: floor division of its one operand by 2**k.

    It lowers Mean as a read-side shift of the preceding sum's register,
    so it holds no aggregate register of its own.
    """

    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k

    def __call__(self, vals):
        return vals[0] >> self.k


def reduction_steps(program: PrimitiveProgram) -> tuple:
    """The program's reduction and shift ops as (output, fn, operands)
    steps over wire names, in op (topological) order; `fn` takes the
    operand values as a list. Every replica store and evaluate_program
    run these steps through run_steps."""
    steps = []
    for op in program.ops:
        if op.opcode == "shift":
            steps.append((op.output, RightShift(op.param("shift")), op.operands))
        elif op.opcode in PRIMITIVES:
            steps.append((op.output, PRIMITIVES[op.opcode], op.operands))
    return tuple(steps)


def run_steps(steps, env: dict) -> None:
    """Evaluate each step in order, writing its output into `env`."""
    for output, fn, operands in steps:
        env[output] = fn([env[x] for x in operands])


def apply_reduction(kind: ReductionKind, values) -> int:
    """A DAG reduction over its input values.

    Mean is floor division over any input count; the switch lowering
    (sum + shift) only accepts power-of-two counts and agrees there.
    """
    vals = list(values)
    if kind is ReductionKind.MEAN:
        return sum(vals) // len(vals)
    return PRIMITIVES[kind.value](vals)


@dataclass
class ProgramResult:
    outputs: dict[str, int]
    fires: dict[str, bool]
    actions: list[tuple[str, str, object]]


_PREDICATE_OPCODES = frozenset(k.value for k in PredicateKind)
_ACTION_OPCODES = frozenset(k.value for k in ActionKind)


def evaluate_program(
    program: PrimitiveProgram,
    state_values: dict[str, int],
    uniform01: float | None = None,
) -> ProgramResult:
    """Run a compiled program over concrete wire-state values.

    The reduction steps are the ones every replica store runs; trigger
    ops evaluate through Predicate, so a probabilistic trigger without
    a uniform draw does not fire. Tests compare the result against
    evaluate_dag.
    """
    env: dict[str, int] = {cs.name: 0 for cs in program.states}
    env.update(state_values)
    run_steps(reduction_steps(program), env)
    fires: dict[str, bool] = {}
    actions: list[tuple[str, str, object]] = []
    for op in program.ops:
        if op.opcode in _PREDICATE_OPCODES:
            pred = Predicate(PredicateKind(op.opcode), op.param("threshold"))
            fired = pred.evaluate(env[op.operands[0]], uniform01)
            env[op.output] = int(fired)
            fires[op.output] = fired
        elif op.opcode in _ACTION_OPCODES and env[op.operands[0]]:
            detail = op.param("message")
            if op.param("selector") is not None:
                detail = env[op.param("selector")]
            elif op.param("selector_const") is not None:
                detail = op.param("selector_const")
            actions.append((op.opcode, op.operands[0], detail))
    return ProgramResult(env, fires, actions)


def evaluate_dag(dag, state_values: dict[str, int], uniform01: float | None = None) -> ProgramResult:
    """Reference semantics: evaluate the application DAG directly.

    Mean here is exact floor division over any input count; the lowered
    program agrees wherever it compiles (power-of-two counts). Used to
    check that lowering preserves semantics.
    """
    env: dict[str, int] = dict(state_values)
    fires: dict[str, bool] = {}
    actions: list[tuple[str, str, object]] = []
    order = dag.topo_order()
    activities = {a.name: a for a in dag.app.activities}
    triggers = {t.name: t for t in dag.app.triggers}
    for node in order:
        kind = dag.nodes[node]
        if kind == "reduction":
            r = dag.reductions[node]
            env[node] = apply_reduction(r.primitive, [env[i] for i in r.inputs])
        elif kind == "trigger":
            t = triggers[node]
            fired = t.predicate.evaluate(env[dag.trigger_inputs[node]], uniform01)
            fires[node] = fired
            env[node] = int(fired)
        elif kind == "activity":
            pass
    for t in dag.app.triggers:
        if fires[t.name]:
            a = activities[t.activity]
            detail = a.message
            if a.selector is not None:
                detail = env[a.selector]
            elif a.selector_const is not None:
                detail = a.selector_const
            actions.append((a.action.value, t.name, detail))
    return ProgramResult(env, fires, actions)

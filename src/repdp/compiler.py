"""Compilation of an application DAG into a switch-level primitive program.

One pass over the DAG's evaluation order emits the declared states,
the primitive operations, the executable steps, the trigger table and
the colocation groups tying each trigger to the ops it must share a
switch with. Each declared state is one wire state, whose id is its
declaration index; a rate estimate is a slot buffer feeding an estimate
register, and only the register is replicated. The program is the one
executable semantics: every replica store and `evaluate_program` run
its reduction and shift ops as flat steps (`PrimitiveProgram.steps`),
and every switch and `evaluate_program` run its trigger table
(`PrimitiveProgram.triggers`); `evaluate_dag` is the oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import UnsupportedPrimitive
from .model import (
    SLOTS_SUFFIX,
    SUM_SUFFIX,
    ActionKind,
    ElementDag,
    Predicate,
    ReductionKind,
    ScopeFilter,
    StateSpec,
    ValueType,
)


@dataclass(frozen=True)
class PrimitiveOp:
    op_id: int
    opcode: str
    operands: tuple[str, ...]
    output: str | None = None
    params: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class TriggerStep:
    """One trigger and its activity, as every switch holding a replica
    of an upstream state runs it: `input` names the reduction output the
    predicate reads, `upstream` the states feeding it, in declaration
    order."""

    name: str
    input: str
    predicate: Predicate
    activity: str
    action: ActionKind
    scope: ScopeFilter
    message: str | None
    selector: str | None
    selector_const: int | None
    upstream: tuple[str, ...]


@dataclass
class PrimitiveProgram:
    """The lowered application. `states` are the declared states, each
    state's wire id being its index; `steps` are the reduction and shift
    ops as (output, fn, operands) over wire names, in op order, `fn`
    taking the operand values as a list, which every replica store and
    evaluate_program run through run_steps; `triggers` is the one
    trigger table that evaluate_program and every switch run."""

    app_name: str
    states: tuple[StateSpec, ...]
    ops: list[PrimitiveOp]
    steps: tuple[tuple, ...]
    groups: list[frozenset[int]]
    triggers: tuple[TriggerStep, ...]


def compile_application(dag: ElementDag) -> PrimitiveProgram:
    """Lower a validated DAG onto switch primitives.

    Raises UnsupportedPrimitive for Mean over a non power-of-two input
    count (Mean lowers to Sum plus a right shift).
    """
    app = dag.app
    ops: list[PrimitiveOp] = []
    steps: list[tuple] = []
    # The op ids each state and reduction lowers to.
    op_ids: dict[str, tuple[int, ...]] = {}

    def emit(opcode, operands, output=None, params=(), fn=None):
        op = PrimitiveOp(len(ops), opcode, tuple(operands), output, tuple(params))
        ops.append(op)
        if fn is not None:
            steps.append((output, fn, op.operands))
        return op.op_id

    for s in app.states:
        if s.value.type is ValueType.RATE_ESTIMATE:
            op_ids[s.name] = (emit("estimate_rate", (s.name + SLOTS_SUFFIX,), s.name,
                                   (("window", s.value.window), ("delta_s", s.value.delta_s))),)
        else:
            op_ids[s.name] = (emit("store", (), s.name),)

    for r in dag.reductions.values():
        if r.primitive is ReductionKind.MEAN:
            n = len(r.inputs)
            if n < 1 or n & (n - 1):
                raise UnsupportedPrimitive(
                    f"reduction {r.output}: mean lowers to sum+shift and needs a"
                    f" power-of-two input count, got {n}"
                )
            k = n.bit_length() - 1
            op_ids[r.output] = (
                emit("sum", r.inputs, r.output + SUM_SUFFIX, fn=sum),
                emit("shift", (r.output + SUM_SUFFIX,), r.output, (("shift", k),),
                     RightShift(k)),
            )
        else:
            op_ids[r.output] = (emit(r.primitive.value, r.inputs, r.output,
                                     fn=PRIMITIVES[r.primitive.value]),)

    activities = {a.name: a for a in app.activities}
    groups: list[frozenset[int]] = []
    triggers: list[TriggerStep] = []
    for t in app.triggers:
        red = dag.trigger_inputs[t.name]
        params = []
        if t.predicate.threshold is not None:
            params.append(("threshold", t.predicate.threshold))
        trig_op = emit(t.predicate.kind.value, (red,), t.name, params)

        a = activities[t.activity]
        aparams = [("activity", a.name)]
        if a.message is not None:
            aparams.append(("message", a.message))
        if a.selector is not None:
            aparams.append(("selector", a.selector))
        if a.selector_const is not None:
            aparams.append(("selector_const", a.selector_const))
        act_op = emit(a.action.value, (t.name,), None, aparams)

        # The trigger, its activity and everything feeding it must land
        # on the same switch; the states among them are the ones whose
        # replicas run the trigger.
        group = {trig_op, act_op}
        for name in dag.feeds[t.name]:
            group.update(op_ids[name])
        groups.append(frozenset(group))
        triggers.append(TriggerStep(
            t.name, red, t.predicate, a.name, a.action, a.scope, a.message, a.selector,
            a.selector_const, tuple(dag.upstream_states(t.name))))

    # Activities sharing a sequential_group pull their trigger groups
    # together onto one switch.
    by_seq: dict[str, list[int]] = {}
    for gi, t in enumerate(app.triggers):
        seq = activities[t.activity].sequential_group
        if seq is not None:
            by_seq.setdefault(seq, []).append(gi)
    merged_away: set[int] = set()
    for indices in by_seq.values():
        groups[indices[0]] = frozenset().union(*(groups[i] for i in indices))
        merged_away.update(indices[1:])
    groups = [g for i, g in enumerate(groups) if i not in merged_away]

    return PrimitiveProgram(app.name, app.states, ops, tuple(steps), groups, tuple(triggers))


def canonical_text(program: PrimitiveProgram) -> str:
    """Stable one-line-per-item dump used for golden comparisons."""
    lines = [f"program {program.app_name}"]
    for k, s in enumerate(program.states):
        lines.append(
            f"state {k} {s.name} {s.value.type.value}"
            f" width={s.width_bits} scope={s.scope.signature()}"
        )
    for s in program.states:
        if s.value.type is ValueType.RATE_ESTIMATE:
            lines.append(f"struct {s.name}{SLOTS_SUFFIX} circular_buffer"
                         f" width={s.width_bits} slots={s.value.window}")
        lines.append(f"struct {s.name} register width={s.width_bits}")
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


def evaluate_program(
    program: PrimitiveProgram,
    state_values: dict[str, int],
    uniform01: float | None = None,
) -> ProgramResult:
    """Run a compiled program over concrete wire-state values.

    The reduction steps are the ones every replica store runs, and the
    trigger steps the ones every switch installs; a probabilistic
    trigger without a uniform draw does not fire. Tests compare the
    result against evaluate_dag.
    """
    env: dict[str, int] = {s.name: 0 for s in program.states}
    env.update(state_values)
    run_steps(program.steps, env)
    fires: dict[str, bool] = {}
    actions: list[tuple[str, str, object]] = []
    for tr in program.triggers:
        fired = fires[tr.name] = tr.predicate.evaluate(env[tr.input], uniform01)
        env[tr.name] = int(fired)
        if fired:
            detail = tr.message
            if tr.selector is not None:
                detail = env[tr.selector]
            elif tr.selector_const is not None:
                detail = tr.selector_const
            actions.append((tr.action.value, tr.name, detail))
    return ProgramResult(env, fires, actions)


def evaluate_dag(dag, state_values: dict[str, int], uniform01: float | None = None) -> ProgramResult:
    """Reference semantics: evaluate the application DAG directly.

    Mean here is exact floor division over any input count; the lowered
    program agrees wherever it compiles (power-of-two counts). Used to
    check that lowering preserves semantics.
    """
    env: dict[str, int] = dict(state_values)
    for r in dag.reductions.values():
        env[r.output] = apply_reduction(r.primitive, [env[i] for i in r.inputs])
    fires: dict[str, bool] = {}
    actions: list[tuple[str, str, object]] = []
    activities = {a.name: a for a in dag.app.activities}
    for t in dag.app.triggers:
        fired = fires[t.name] = t.predicate.evaluate(env[dag.trigger_inputs[t.name]], uniform01)
        env[t.name] = int(fired)
        if fired:
            a = activities[t.activity]
            detail = a.message
            if a.selector is not None:
                detail = env[a.selector]
            elif a.selector_const is not None:
                detail = a.selector_const
            actions.append((a.action.value, t.name, detail))
    return ProgramResult(env, fires, actions)

"""Compilation of an application DAG into a switch-level primitive program.

One pass over the DAG's evaluation order emits the declared states,
the primitive operations, the executable steps, the trigger table and
the colocation groups tying each trigger to the ops it must share a
switch with. Each declared state is one wire state, whose id is its
declaration index; a rate estimate is a slot buffer feeding an estimate
register, and only the register is replicated. A state's register is its
wire id, and each reduction or shift output takes the next free one. The
simulator is the program's one executor: every replica store runs its
reduction and shift ops as flat steps over registers
(`PrimitiveProgram.steps`), and every switch runs its trigger table
(`PrimitiveProgram.triggers`).
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
    """One trigger and its activity, as every switch hosting all its
    upstream states runs it: `input` names the reduction output the
    predicate reads, `upstream` the states feeding that output or the
    selector, in declaration order."""

    name: str
    input: str
    predicate: Predicate
    activity: str
    action: ActionKind
    scope: ScopeFilter
    message: str | None
    selector: str | None
    selector_const: int | None
    sequential_group: str | None
    upstream: tuple[str, ...]


@dataclass
class PrimitiveProgram:
    """The lowered application. `states` are the declared states, each
    state's wire id being its index; `steps` are the reduction and shift
    ops as (out_reg, fn, operand_regs), in op order, `fn` taking the
    operand values as a list, which every replica store runs through
    run_steps; `registers` maps each state and step output to its
    register; `triggers` is the trigger table every switch runs."""

    app_name: str
    states: tuple[StateSpec, ...]
    ops: list[PrimitiveOp]
    steps: tuple[tuple, ...]
    registers: dict[str, int]
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
    registers = {s.name: sid for sid, s in enumerate(app.states)}
    # The op ids each state and reduction lowers to.
    op_ids: dict[str, tuple[int, ...]] = {}

    def emit(opcode, operands, output=None, params=(), fn=None):
        op = PrimitiveOp(len(ops), opcode, tuple(operands), output, tuple(params))
        ops.append(op)
        if fn is not None:
            registers[output] = len(registers)
            steps.append((registers[output], fn, tuple(registers[x] for x in operands)))
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
            a.selector_const, a.sequential_group, tuple(dag.upstream_states(t.name))))

    # Activities sharing a sequential_group pull their trigger groups
    # together onto one switch.
    by_seq: dict[str, list[int]] = {}
    for gi, tr in enumerate(triggers):
        if tr.sequential_group is not None:
            by_seq.setdefault(tr.sequential_group, []).append(gi)
    merged_away: set[int] = set()
    for indices in by_seq.values():
        groups[indices[0]] = frozenset().union(*(groups[i] for i in indices))
        merged_away.update(indices[1:])
    groups = [g for i, g in enumerate(groups) if i not in merged_away]

    return PrimitiveProgram(app.name, app.states, ops, tuple(steps), registers, groups,
                            tuple(triggers))


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


def run_steps(steps, regs: list) -> None:
    """Evaluate each step in order, writing its output register."""
    for out, fn, operands in steps:
        regs[out] = fn([regs[x] for x in operands])

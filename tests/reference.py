"""Reference semantics that tests check the simulator against.

`evaluate_dag` evaluates an application DAG directly, with no lowering
and no replica store: what a switch computes from the compiled program
must agree with it wherever the program compiles.
"""

from repdp import ReductionKind
from repdp.compiler import PRIMITIVES


def apply_reduction(kind, values):
    """A DAG reduction over its input values.

    Mean is floor division over any input count; the switch lowering
    (sum + shift) only accepts power-of-two counts and agrees there.
    """
    vals = list(values)
    if kind is ReductionKind.MEAN:
        return sum(vals) // len(vals)
    return PRIMITIVES[kind.value](vals)


def evaluate_dag(dag, state_values, uniform01=None):
    """Evaluate the application DAG over concrete state values.

    Returns (outputs, fires, actions): every state and reduction value
    by name, each trigger's fire decision, and (action, trigger, detail)
    per firing trigger in declaration order, the detail being the
    selector's value, the fixed port or the message. A probabilistic
    trigger without a uniform draw does not fire.
    """
    env = dict(state_values)
    for r in dag.reductions.values():
        env[r.output] = apply_reduction(r.primitive, [env[i] for i in r.inputs])
    fires = {}
    actions = []
    activities = {a.name: a for a in dag.app.activities}
    for t in dag.app.triggers:
        fired = fires[t.name] = t.predicate.evaluate(env[dag.trigger_inputs[t.name]], uniform01)
        if fired:
            a = activities[t.activity]
            detail = a.message
            if a.selector is not None:
                detail = env[a.selector]
            elif a.selector_const is not None:
                detail = a.selector_const
            actions.append((a.action.value, t.name, detail))
    return env, fires, actions

"""Application model: validation, DAG construction, budgets, predicates."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repdp import (
    ActionKind,
    ActivitySpec,
    ApplicationSpec,
    InconsistencyKind,
    InconsistencySpec,
    InvalidApplication,
    L4Match,
    PortClass,
    Predicate,
    PredicateKind,
    ReductionKind,
    ReductionSpec,
    ScopeFilter,
    StateSpec,
    TriggerSpec,
    ValueKind,
    build_dag,
    make_ddos_app,
    make_rate_limiter_app,
    make_resource_lb_app,
    replication_requirements,
    validate_application,
)
from repdp.model import IDENTITY_SUFFIX


def tiny_app(**overrides):
    state = StateSpec("cnt", ScopeFilter(), ValueKind.scalar())
    red = ReductionSpec("total", ReductionKind.SUM, ("cnt",))
    trig = TriggerSpec("watch", "total", Predicate.greater_than(5),
                       InconsistencySpec.time_obsolescence(0.01), "act")
    act = ActivitySpec("act", ActionKind.NOTIFY_CONTROLLER, message="hit")
    fields = dict(name="tiny", states=(state,), reductions=(red,),
                  triggers=(trig,), activities=(act,))
    fields.update(overrides)
    return ApplicationSpec(**fields)


def test_valid_app_passes():
    assert validate_application(tiny_app()) == []


def test_duplicate_names_rejected():
    dup = tiny_app(reductions=(ReductionSpec("cnt", ReductionKind.SUM, ("cnt",)),))
    rep = validate_application(dup)
    assert rep
    assert any("cnt" in v for v in rep)


def test_unknown_reduction_input_rejected():
    bad = tiny_app(reductions=(ReductionSpec("total", ReductionKind.SUM, ("ghost",)),))
    rep = validate_application(bad)
    assert any("ghost" in v for v in rep)


def test_reduction_cycle_rejected():
    a = ReductionSpec("a", ReductionKind.SUM, ("b",))
    b = ReductionSpec("b", ReductionKind.SUM, ("a",))
    trig = TriggerSpec("watch", "a", Predicate.greater_than(5),
                       InconsistencySpec.time_obsolescence(0.01), "act")
    rep = validate_application(tiny_app(reductions=(a, b), triggers=(trig,)))
    assert rep == ["reduction a: part of a reference cycle"]


def test_estimator_window_must_be_power_of_two():
    st = StateSpec("r", ScopeFilter(), ValueKind.rate_estimate(window=6))
    rep = validate_application(tiny_app(
        states=(st,),
        reductions=(ReductionSpec("total", ReductionKind.SUM, ("r",)),),
    ))
    assert any("power of two" in v for v in rep)


def test_width_bounds_enforced():
    wide = StateSpec("w", ScopeFilter(), ValueKind.scalar(), width_bits=65)
    rep = validate_application(tiny_app(
        states=(wide,),
        reductions=(ReductionSpec("total", ReductionKind.SUM, ("w",)),),
    ))
    assert any("width" in v for v in rep)


def test_set_egress_needs_exactly_one_selector():
    both = ActivitySpec("act", ActionKind.SET_EGRESS, selector="total", selector_const=1)
    rep = validate_application(tiny_app(activities=(both,)))
    assert any("selector" in v for v in rep)
    neither = ActivitySpec("act", ActionKind.SET_EGRESS)
    rep = validate_application(tiny_app(activities=(neither,)))
    assert any("selector" in v for v in rep)


def test_notify_needs_message():
    silent = ActivitySpec("act", ActionKind.NOTIFY_CONTROLLER)
    rep = validate_application(tiny_app(activities=(silent,)))
    assert any("message" in v for v in rep)


# Each of these used to validate, and the switches then ignored part
# of what the application declared: a notification fires on a change of
# its trigger, evaluated without a draw, and only set_egress and
# insert_flow_rule read a selector.
IGNORED_BY_SWITCHES = {
    "probabilistic_notify": (
        dict(triggers=(TriggerSpec("watch", "total", Predicate.probabilistic(5),
                                   InconsistencySpec.time_obsolescence(0.01), "act"),)),
        "trigger watch: a probabilistic predicate cannot drive notify_controller",
    ),
    "notify_with_selector": (
        dict(activities=(ActivitySpec("act", ActionKind.NOTIFY_CONTROLLER, message="hit",
                                      selector="total"),)),
        "activity act: notify_controller takes no selector",
    ),
    "notify_with_selector_const": (
        dict(activities=(ActivitySpec("act", ActionKind.NOTIFY_CONTROLLER, message="hit",
                                      selector_const=1),)),
        "activity act: notify_controller takes no selector",
    ),
    "drop_with_selector": (
        dict(activities=(ActivitySpec("act", ActionKind.DROP_PACKET, selector="total"),)),
        "activity act: drop_packet takes no selector",
    ),
    "drop_with_selector_const": (
        dict(activities=(ActivitySpec("act", ActionKind.DROP_PACKET, selector_const=-1),)),
        "activity act: drop_packet takes no selector",
    ),
}


@pytest.mark.parametrize("case", IGNORED_BY_SWITCHES.values(), ids=IGNORED_BY_SWITCHES.keys())
def test_elements_switches_would_ignore_are_rejected(case):
    overrides, message = case
    app = tiny_app(**overrides)
    assert message in validate_application(app)
    with pytest.raises(InvalidApplication):
        build_dag(app)


# Elements no switch program could be built from, each with its violation.
MALFORMED = {
    "state_name_not_an_identifier": (
        dict(states=(StateSpec("cnt", ScopeFilter(), ValueKind.scalar()),
                     StateSpec("2x", ScopeFilter(), ValueKind.scalar()))),
        "state name '2x' is not a valid identifier",
    ),
    "application_name_not_an_identifier": (
        dict(name="tiny app"), "application name 'tiny app' is not a valid identifier",
    ),
    "estimator_slot_width_zero": (
        dict(states=(StateSpec("cnt", ScopeFilter(), ValueKind.rate_estimate(delta_s=0)),)),
        "state cnt: estimator slot width must be at least 1 ns",
    ),
    # RateEstimatorWindow rounds its slot to whole ns: 0.1 ns is none.
    "estimator_slot_width_below_1ns": (
        dict(states=(StateSpec("cnt", ScopeFilter(),
                               ValueKind.rate_estimate(delta_s=1e-10)),)),
        "state cnt: estimator slot width must be at least 1 ns",
    ),
    "estimator_unit_unknown": (
        dict(states=(StateSpec("cnt", ScopeFilter(), ValueKind.rate_estimate(unit="bit")),)),
        "state cnt: estimator unit 'bit' is not packets or bits",
    ),
    "identity_of_two_inputs": (
        dict(reductions=(ReductionSpec("total", ReductionKind.IDENTITY, ("cnt", "cnt")),)),
        "reduction total: identity takes exactly one input",
    ),
    "minmax_argmin_of_odd_count": (
        dict(reductions=(ReductionSpec("total", ReductionKind.MINMAX_ARGMIN, ("cnt",)),)),
        "reduction total: minmax_argmin pairs inputs, needs an even count",
    ),
    "threshold_missing": (
        dict(triggers=(TriggerSpec("watch", "total", Predicate(PredicateKind.GREATER_THAN),
                                   InconsistencySpec.time_obsolescence(0.01), "act"),)),
        "trigger watch: predicate needs a threshold",
    ),
    "budget_out_of_range": (
        dict(triggers=(TriggerSpec("watch", "total", Predicate.greater_than(5),
                                   InconsistencySpec.time_obsolescence(0), "act"),)),
        "trigger watch: time_obsolescence requires epsilon_t_s > 0",
    ),
    "set_egress_unknown_selector": (
        dict(activities=(ActivitySpec("act", ActionKind.SET_EGRESS, selector="ghost"),)),
        "activity act: unknown selector 'ghost'",
    ),
    "insert_flow_rule_without_selector": (
        dict(activities=(ActivitySpec("act", ActionKind.INSERT_FLOW_RULE),)),
        "activity act: insert_flow_rule needs a selector",
    ),
    "insert_flow_rule_unknown_selector": (
        dict(activities=(ActivitySpec("act", ActionKind.INSERT_FLOW_RULE, selector="ghost"),)),
        "activity act: unknown selector 'ghost'",
    ),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_elements_are_rejected(case):
    overrides, message = case
    assert message in validate_application(tiny_app(**overrides))


def test_nonfinite_threshold_rejected():
    trig = TriggerSpec("watch", "total", Predicate.greater_than(math.inf),
                       InconsistencySpec.time_obsolescence(0.01), "act")
    rep = validate_application(tiny_app(triggers=(trig,)))
    assert any("finite" in v for v in rep)


def test_build_dag_raises_on_invalid():
    with pytest.raises(InvalidApplication):
        build_dag(tiny_app(activities=()))


def scalar(name):
    return StateSpec(name, ScopeFilter(), ValueKind.scalar())


def watch(input_name):
    return (TriggerSpec("watch", input_name, Predicate.greater_than(5),
                        InconsistencySpec.time_obsolescence(0.01), "act"),)


# Each of these used to validate, and the lowered program then disagreed
# with the DAG (or reused a user element as a synthesized one).
NAME_COLLISIONS = {
    # The lowered mean m writes its sum to m__sum, over the user's state.
    "state_named_like_a_mean_sum": (
        (scalar("x"), scalar("y"), scalar("m__sum")),
        (ReductionSpec("m", ReductionKind.MEAN, ("x", "y")),
         ReductionSpec("total", ReductionKind.SUM, ("m__sum", "m"))),
        watch("total"),
        "'m__sum' ends in a suffix reserved",
    ),
    # A trigger on state x would read this sum as x's identity reduction.
    "reduction_named_like_an_identity": (
        (scalar("x"), scalar("z")),
        (ReductionSpec("x__id", ReductionKind.SUM, ("x", "z")),),
        watch("x"),
        "'x__id' ends in a suffix reserved",
    ),
    # The estimator r keeps its slot ring as the data structure r__slots.
    "state_named_like_an_estimator_ring": (
        (StateSpec("r", ScopeFilter(), ValueKind.rate_estimate(window=4)),
         scalar("r__slots")),
        (ReductionSpec("total", ReductionKind.SUM, ("r", "r__slots")),),
        watch("total"),
        "'r__slots' ends in a suffix reserved",
    ),
}


@pytest.mark.parametrize("case", NAME_COLLISIONS.values(), ids=NAME_COLLISIONS.keys())
def test_names_colliding_with_synthesized_names_rejected(case):
    states, reductions, triggers, message = case
    app = tiny_app(states=states, reductions=reductions, triggers=triggers)
    rep = validate_application(app)
    assert any(message in v for v in rep), rep
    with pytest.raises(InvalidApplication):
        build_dag(app)


def test_dag_layers_and_identity_insertion():
    # A trigger reading a state directly gets an identity reduction.
    state = StateSpec("cnt", ScopeFilter(), ValueKind.scalar())
    trig = TriggerSpec("watch", "cnt", Predicate.greater_than(5),
                       InconsistencySpec.time_obsolescence(0.01), "act")
    act = ActivitySpec("act", ActionKind.NOTIFY_CONTROLLER, message="hit")
    dag = build_dag(ApplicationSpec("t", (state,), (), (trig,), (act,)))
    ident = "cnt" + IDENTITY_SUFFIX
    assert dag.trigger_inputs["watch"] == ident
    assert dag.reductions[ident].primitive is ReductionKind.IDENTITY
    assert dag.feeds["watch"] == ("cnt", ident)


def test_upstream_states_transitive():
    app = make_ddos_app(3, threshold=100, epsilon_t_s=0.02)
    dag = build_dag(app)
    assert dag.upstream_states("syn_flood") == ["syn_rate_0", "syn_rate_1", "syn_rate_2"]


def test_replication_requirements_take_strictest_budget():
    state = StateSpec("cnt", ScopeFilter(), ValueKind.scalar())
    loose = TriggerSpec("loose", "cnt", Predicate.greater_than(5),
                        InconsistencySpec.time_obsolescence(0.5), "act")
    strict = TriggerSpec("strict", "cnt", Predicate.greater_than(9),
                         InconsistencySpec.update_error(10, 1000), "act")
    act = ActivitySpec("act", ActionKind.NOTIFY_CONTROLLER, message="hit")
    dag = build_dag(ApplicationSpec("t", (state,), (), (loose, strict), (act,)))
    req = replication_requirements(dag)
    assert req["cnt"].kind is InconsistencyKind.UPDATE_ERROR
    assert req["cnt"].budget_s() == pytest.approx(0.01)


def test_budget_free_state_is_unreplicated():
    state = StateSpec("cnt", ScopeFilter(), ValueKind.scalar())
    trig = TriggerSpec("watch", "cnt", Predicate.greater_than(5),
                       InconsistencySpec.none(), "act")
    act = ActivitySpec("act", ActionKind.NOTIFY_CONTROLLER, message="hit")
    dag = build_dag(ApplicationSpec("t", (state,), (), (trig,), (act,)))
    req = replication_requirements(dag)
    assert req["cnt"].kind is InconsistencyKind.NONE
    assert req["cnt"].budget_s() is None and req["cnt"].budget_field() is None


def test_scope_matching():
    s = ScopeFilter(PortClass.EXTERNAL, L4Match.SYN_ONLY, dst_hosts=("h1",))
    assert s.matches(PortClass.EXTERNAL, True, "h1")
    assert not s.matches(PortClass.DOWNLINK, True, "h1")
    assert not s.matches(PortClass.EXTERNAL, False, "h1")
    assert not s.matches(PortClass.EXTERNAL, True, "h2")
    wild = ScopeFilter()
    assert wild.matches(PortClass.UPLINK, False, "anything")


def test_scope_signature_is_order_insensitive():
    a = ScopeFilter(dst_hosts=("b", "a"))
    b = ScopeFilter(dst_hosts=("a", "b"))
    assert a.signature() == b.signature()


def fire_probability(threshold, value):
    """A probabilistic predicate's declared chance of firing: the
    normalized excess (value - threshold) / value, and 0 where that is
    not positive."""
    if value <= 0:
        return 0.0
    return max(0.0, (value - threshold) / value)


def test_predicate_probability_normalized_excess():
    # A draw fires exactly when it lies below (100 - 80) / 100 = 0.2.
    test = Predicate.probabilistic(80.0).test()
    assert test(100.0, math.nextafter(0.2, 0.0))
    assert not test(100.0, 0.2)
    assert test(100.0, 0.19)
    assert not test(100.0, 0.21)
    # No excess, no chance: not even a draw of 0 fires.
    for value in (80.0, 40.0, 0.0, -5.0):
        assert not test(value, 0.0)


_reals = st.one_of(st.integers(-10**12, 10**12), st.floats(-1e12, 1e12))


@given(_reals, _reals, st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_evaluate_agrees_with_fire_probability(threshold, value, u):
    p = Predicate.probabilistic(threshold)
    assert p.test()(value, u) == (u is not None and u < fire_probability(threshold, value))
    assert Predicate.greater_than(threshold).test()(value, u) == (value > threshold)
    assert Predicate.less_or_equal(threshold).test()(value, u) == (value <= threshold)
    assert Predicate.always().test()(value, u)


def test_update_error_budget_is_ratio():
    spec = InconsistencySpec.update_error(10, 625.0)
    assert spec.budget_s() == pytest.approx(0.016)
    bad = InconsistencySpec.update_error(0, 625.0)
    assert bad.problems()


def test_factory_apps_validate():
    for app in (
        make_ddos_app(4, 1000, 0.014),
        make_rate_limiter_app(2, 8_000_000, 10, 625),
        make_resource_lb_app(4),
    ):
        assert validate_application(app) == [], app.name

"""Out-of-range parameters raise typed errors, not asserts that python -O strips."""

import pytest

from repdp import (
    ActionKind,
    ActivitySpec,
    ApplicationSpec,
    InconsistencySpec,
    MetricsLog,
    Predicate,
    RateEstimatorWindow,
    ReductionKind,
    ReductionSpec,
    RepdpError,
    TriggerSpec,
    UpdateTrigger,
    build_dag,
    make_resource_lb_app,
)


def mean_of_nothing():
    red = ReductionSpec("m", ReductionKind.MEAN, ())
    trig = TriggerSpec("t", "m", Predicate.always(), InconsistencySpec.none(), "a")
    return ApplicationSpec("mean", (), (red,), (trig,),
                           (ActivitySpec("a", ActionKind.DROP_PACKET),))


INVALID = {
    "metrics_bin_zero": lambda: MetricsLog(1_000, 0, [], [], []),
    "metrics_bin_negative": lambda: MetricsLog(1_000, -5, [], [], []),
    "estimator_window_not_power_of_two": lambda: RateEstimatorWindow(0.1, 6),
    "estimator_window_zero": lambda: RateEstimatorWindow(0.1, 0),
    "estimator_delta_below_1ns": lambda: RateEstimatorWindow(1e-10, 8),
    "time_trigger_without_tau": lambda: UpdateTrigger("time"),
    "time_trigger_negative_tau": lambda: UpdateTrigger("time", tau_ns=-1),
    "packet_trigger_without_period": lambda: UpdateTrigger("packet"),
    "packet_trigger_zero_period": lambda: UpdateTrigger("packet", packet_period=0),
    "trigger_unknown_mode": lambda: UpdateTrigger("bogus", tau_ns=1, packet_period=1),
    "mean_of_none_at_build": lambda: build_dag(mean_of_nothing()),
    "resourcelb_threshold_above_one": lambda: make_resource_lb_app(2, 1.5),
    "resourcelb_threshold_zero": lambda: make_resource_lb_app(2, 0.0),
}


@pytest.mark.parametrize("make", INVALID.values(), ids=INVALID.keys())
def test_invalid_parameter_raises_repdp_error(make):
    with pytest.raises(RepdpError):
        make()

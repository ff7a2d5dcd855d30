"""Network-wide dataplane applications over replicated switch state.

Declare an application as states, reductions, triggers and activities;
compile it to switch primitives; place replicas by weighted
betweenness; solve update periods from inconsistency budgets; and run
the result in a deterministic discrete-event network simulator.
"""

from .apps import (
    APPS,
    RateEstimatorWindow,
    make_ddos_app,
    make_link_lb_app,
    make_rate_limiter_app,
    make_resource_lb_app,
)
from .compiler import PrimitiveProgram, canonical_text, compile_application
from .embedding import (
    EmbeddingConfig,
    Link,
    PeriodSolution,
    ReplicaPlacement,
    ReplicationPlan,
    Topology,
    build_replication_plan,
    node_loads,
    place_replicas,
    serialize_plan,
    solve_replication_period,
    steiner_tree,
    weighted_betweenness,
)
from .errors import (
    DisconnectedTerminals,
    DisconnectedTopology,
    ExportError,
    FieldOverflow,
    InfeasibleBudget,
    InsufficientNodes,
    InvalidApplication,
    InvalidParameter,
    RepdpError,
    ScenarioError,
    SimulationError,
    TruncatedHeader,
    UnsupportedPrimitive,
)
from .metrics import MetricsLog, export_metrics, export_summary, read_metrics_dir, summarize
from .model import (
    ActionKind,
    ActivitySpec,
    ApplicationSpec,
    InconsistencyKind,
    InconsistencySpec,
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
    ValueType,
    build_dag,
    replication_requirements,
    validate_application,
)
from .replication import (
    HEADER_BITS,
    MIN_FRAME_BITS,
    UPDATE_ETHTYPE,
    ReplicaStore,
    UpdateHeader,
    UpdateTrigger,
    decode_update,
    encode_update,
    update_frame_bits,
)
from .runner import build_simulation, pick_monitor, run_single, run_sweep
from .scenario import ScenarioConfig, parse_scenario
from .simcore import Simulator

__version__ = "0.1.0"

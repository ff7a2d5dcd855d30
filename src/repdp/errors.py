"""Exception types shared across the package."""


class RepdpError(Exception):
    """Base class for all package errors. `key`, when given, names the
    scenario key at fault, which build_simulation cites by its line."""

    def __init__(self, message="", key=None):
        self.key = key
        super().__init__(message)


class InvalidApplication(RepdpError):
    """Application failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnsupportedPrimitive(RepdpError):
    """An element requires a primitive the target does not offer."""


class DisconnectedTopology(RepdpError):
    """The topology breaks one of Topology's rules: unique node names,
    links between known switches, no self-loop or duplicate link, each
    host attached to exactly one switch, and a connected graph. `key` is
    the (section, key) pair of the scenario key to blame: ("topology",
    "switches"), ("topology", "links"), ("host.H", "attach"), or
    ("host.H", None) for host H's own name."""


class InsufficientNodes(RepdpError):
    """Fewer eligible switches than requested replicas."""


class DisconnectedTerminals(RepdpError):
    """Steiner terminals do not lie in one connected component."""


class InfeasibleBudget(RepdpError):
    """Inconsistency budget cannot be met on this topology, or the update
    clock is ill-defined; `key` names the parameter to change: the
    budget's `InconsistencySpec` field, `r_min`, or `trigger_mode`."""


class TruncatedHeader(RepdpError):
    """Byte string ends mid-way through an update header chain."""


class FieldOverflow(RepdpError):
    """Header field value does not fit its wire width."""


class ScenarioError(RepdpError):
    """Scenario file is malformed; carries file and line context."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        if path and line:
            where = f"{path}:{line}: "
        elif path:
            where = f"{path}: "
        else:
            where = ""
        super().__init__(f"{where}{message}")


class InvalidParameter(RepdpError):
    """A parameter lies outside the range its component accepts; `key`
    names its scenario key, when it has one."""


class ExportError(RepdpError):
    """A run's metrics cannot be written as unquoted CSV."""


class SimulationError(RepdpError):
    """Runtime failure while building or running a simulation; `key`
    names the scenario key of a flow or run rule it broke."""

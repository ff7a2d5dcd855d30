"""Metric collection and CSV export for simulation runs.

Link traffic is binned into fixed windows and split by class (data vs
replication updates); the split sums to the total by construction.
The counters have one form: plain Python int lists that `MetricsLog`
allocates and owns. The simulator writes into them during a run, and
export, `summarize` and `read_metrics_dir` read them directly. A binned
row has one slot past its last bin, so `t_ns // bin_ns` indexes it for
every event time up to the horizon; each return from
`Simulator.run_until` folds that horizon slot into the last bin and
zeroes it, and readers only ever look at the first `n_bins` slots.
The applied-update log, `applied`, holds one row for every remote
update a replica applies, so it is kept as typed columns (`ColumnLog`):
ints in `array('q')`, names as 32-bit indices into an interned name
table, 44 bytes per applied update. `staleness.csv` and `write_lag.csv`
are two views of it, row for row.

Everything exports to plain CSVs with deterministic formatting: ints as
decimal, floats via repr, rows in sorted or insertion order only, so
identical runs produce byte-identical files. Each file is streamed a
chunk of rows at a time and never quotes a field, so every name in it
(switch, host, state, flow, trigger, message) must need no CSV quoting:
one holding `,`, `"`, CR or LF makes the export raise `ExportError`.
"""

from __future__ import annotations

import csv
import math
import os
from array import array
from dataclasses import dataclass
from itertools import islice, zip_longest

from .errors import ExportError, InvalidParameter, ScenarioError

CONTROLLER_DELAY_NS = 10_000_000


class NameTable:
    """Interned names: each distinct name gets the next index."""

    __slots__ = ("names", "_index")

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}

    def index(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
        return i


class ColumnLog:
    """Rows of int and name fields, held column by column.

    `kinds` has one letter per field: "i" for an int, kept in an
    `array('q')`, and "n" for a name, kept as its index in `names`, in
    an `array('I')`.
    Iterating yields the rows as tuples with the names resolved, and
    `view` yields them cut to some of the fields. The simulator appends
    to `columns` directly, with name indices it resolved once; `append`
    takes a whole row of ints and names.
    """

    __slots__ = ("kinds", "names", "columns")

    def __init__(self, kinds: str, names: NameTable):
        self.kinds = kinds
        self.names = names
        self.columns = tuple(array("q" if kind == "i" else "I") for kind in kinds)

    def append(self, row):
        if len(row) != len(self.kinds):
            raise ValueError(f"row has {len(row)} fields, the log {len(self.kinds)}")
        for col, kind, x in zip(self.columns, self.kinds, row):
            col.append(self.names.index(x) if kind == "n" else x)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return self.view(*range(len(self.kinds)))

    def view(self, *fields):
        """The rows cut to the fields at these indices, names resolved."""
        name = self.names.names.__getitem__
        return zip(*(self.columns[i] if self.kinds[i] == "i" else map(name, self.columns[i])
                     for i in fields))


class MetricsLog:
    """Run-wide measurement state.

    The simulator appends event rows and bumps the counters inline.
    Binned rows (`data_bits`, `repl_bits` per link direction, `flow_bits`
    per flow) hold n_bins + 1 slots, the last being the horizon slot,
    zero between runs. The counters are `queue_drops` per link direction
    and `flow_sent`, `flow_delivered`, `flow_app_drops`,
    `flow_queue_drops` per flow. `applied` has one row per applied
    update: (t_ns, state, origin, replica, staleness_ns,
    replaced_age_ns, lag_writes), its names interned in `names`.
    `core` holds each link direction's flag: whether both its ends are
    switches.
    """

    def __init__(self, t_end_ns: int, bin_ns: int, link_dirs, flow_names, core):
        if bin_ns <= 0:
            raise InvalidParameter(f"metrics bin must be positive, got {bin_ns} ns")
        self.t_end_ns = t_end_ns
        self.bin_ns = bin_ns
        self.n_bins = max(1, math.ceil(t_end_ns / bin_ns))
        self.link_dirs = list(link_dirs)
        self.link_index = {ld: i for i, ld in enumerate(self.link_dirs)}
        self.core = list(core)
        self.flow_names = list(flow_names)
        self.flow_index = {f: i for i, f in enumerate(self.flow_names)}
        slots = self.n_bins + 1
        n_links, n_flows = len(self.link_dirs), len(self.flow_names)
        self.data_bits = [[0] * slots for _ in range(n_links)]
        self.repl_bits = [[0] * slots for _ in range(n_links)]
        self.flow_bits = [[0] * slots for _ in range(n_flows)]
        self.queue_drops = [0] * n_links
        self.flow_sent = [0] * n_flows
        self.flow_delivered = [0] * n_flows
        self.flow_app_drops = [0] * n_flows
        self.flow_queue_drops = [0] * n_flows
        self.detections: list[tuple[int, str, str, int]] = []
        self.notifications: list[tuple[int, str, str]] = []
        self.controller_redirects: list[tuple[int, str, str]] = []
        self.names = NameTable()
        self.applied = ColumnLog("innniii", self.names)
        self.unknown_state_drops = 0
        self.stale_update_drops = 0
        self.events_processed = 0
        self.updates_emitted = 0
        self.replica_memory: dict[str, int] = {}
        self.plan_text = ""

    def core_rows(self, is_switch=None) -> list[int]:
        """Core switch-switch link rows, in index order: those the log
        flags, or with `is_switch`, those whose ends it says are
        switches."""
        if is_switch is None:
            return [i for i, core in enumerate(self.core) if core]
        return [
            i for i, (u, v) in enumerate(self.link_dirs) if is_switch(u) and is_switch(v)
        ]

    def window_slice(self) -> slice:
        """The steady-state window: the last half of the bins, at least one."""
        return slice(self.n_bins // 2, self.n_bins)


# Rows per write: the text of one chunk is all an export holds at once.
_CHUNK_ROWS = 4096
_QUOTED = frozenset(',"\r\n')


def _check_plain(names):
    """Raise ExportError for a name that CSV would have to quote."""
    for name in names:
        if not _QUOTED.isdisjoint(name):
            raise ExportError(f"name {name!r} holds a comma, quote or line break; "
                              "the CSV export does not quote fields")


def _write_csv(path: str, header: str, lines):
    """Stream one CSV file: `header`, then `lines`, each one formatted
    row ending in CRLF, as `csv.writer` ends them. The rows are joined
    and written a chunk at a time."""
    lines = iter(lines)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        while chunk := "".join(islice(lines, _CHUNK_ROWS)):
            fh.write(chunk)


def export_metrics(log: MetricsLog, out_dir: str, switch_names=None):
    """Write the raw per-bin CSV family for one run into `out_dir`. A
    link is core as the log flags it, or with `switch_names`, if both
    its ends are named there."""
    names = {x for ld in log.link_dirs for x in ld}
    names.update(log.flow_names)
    names.update(x for _, sw, tr, _ in log.detections for x in (sw, tr))
    names.update(x for _, sw, msg in log.notifications for x in (sw, msg))
    names.update(log.names.names)
    names.update(log.replica_memory)
    _check_plain(names)

    os.makedirs(out_dir, exist_ok=True)
    core = log.core
    if switch_names is not None:
        sws = frozenset(switch_names)
        core = [u in sws and v in sws for u, v in log.link_dirs]
    bin_s = log.bin_ns / 1e9
    starts = [repr(b * bin_s) for b in range(log.n_bins)]

    def path(name):
        return os.path.join(out_dir, name)

    links = [f"{u},{v},{int(c)}," for (u, v), c in zip(log.link_dirs, core)]
    _write_csv(
        path("links.csv"),
        "src,dst,core,bin_start_s,data_bits,repl_bits,total_bits",
        (f"{link}{start},{d},{r},{d + r}\r\n"
         for link, data, repl in zip(links, log.data_bits, log.repl_bits)
         for start, d, r in zip(starts, data, repl)),
    )
    _write_csv(
        path("flows.csv"),
        "flow,bin_start_s,delivered_bits,throughput_bps",
        (f"{f},{start},{bits},{bits / bin_s!r}\r\n"
         for f, i in log.flow_index.items()
         for start, bits in zip(starts, log.flow_bits[i])),
    )
    sent, delivered = log.flow_sent, log.flow_delivered
    app_drops, queue_drops = log.flow_app_drops, log.flow_queue_drops
    _write_csv(
        path("flow_totals.csv"),
        "flow,sent_pkts,delivered_pkts,app_drops,queue_drops",
        (f"{f},{sent[i]},{delivered[i]},{app_drops[i]},{queue_drops[i]}\r\n"
         for f, i in log.flow_index.items()),
    )
    _write_csv(
        path("detections.csv"),
        "t_s,switch,trigger,value",
        (f"{t / 1e9!r},{sw},{tr},{v}\r\n" for t, sw, tr, v in log.detections),
    )
    _write_csv(
        path("notifications.csv"),
        "t_s,switch,message",
        (f"{t / 1e9!r},{sw},{msg}\r\n" for t, sw, msg in log.notifications),
    )
    _write_csv(
        path("staleness.csv"),
        "t_s,state,origin,replica,staleness_ns,replaced_age_ns",
        (f"{t / 1e9!r},{s},{o},{r},{st},{ra}\r\n"
         for t, s, o, r, st, ra in log.applied.view(0, 1, 2, 3, 4, 5)),
    )
    _write_csv(
        path("write_lag.csv"),
        "t_s,state,replica,lag_writes",
        (f"{t / 1e9!r},{s},{r},{lag}\r\n" for t, s, r, lag in log.applied.view(0, 1, 3, 6)),
    )
    _write_csv(
        path("queue_drops.csv"),
        "src,dst,drops",
        (f"{u},{v},{n}\r\n" for (u, v), n in zip(log.link_dirs, log.queue_drops) if n),
    )
    _write_csv(
        path("memory.csv"),
        "switch,replica_state_bits",
        (f"{sw},{bits}\r\n" for sw, bits in sorted(log.replica_memory.items())),
    )
    counters = (
        ("events_processed", log.events_processed),
        ("updates_emitted", log.updates_emitted),
        ("unknown_state_drops", log.unknown_state_drops),
        ("stale_update_drops", log.stale_update_drops),
        ("t_end_ns", log.t_end_ns),
        ("bin_ns", log.bin_ns),
    )
    _write_csv(path("counters.csv"), "key,value", (f"{k},{v}\r\n" for k, v in counters))
    if log.plan_text:
        with open(path("plan.txt"), "w") as fh:
            fh.write(log.plan_text)


# The fields staleness.csv and write_lag.csv both hold.
_SHARED_FIELDS = ("t_s", "state", "replica")


def read_metrics_dir(path: str) -> MetricsLog:
    """Rebuild a MetricsLog from the raw CSVs written by export_metrics.

    Only the fields summarize() consumes and the applied-update log are
    reconstructed; the rest stay at defaults.
    """
    counters = {}
    with open(os.path.join(path, "counters.csv")) as fh:
        for row in csv.DictReader(fh):
            counters[row["key"]] = int(row["value"])
    t_end_ns = counters["t_end_ns"]
    bin_ns = counters["bin_ns"]

    link_rows = []
    with open(os.path.join(path, "links.csv")) as fh:
        for row in csv.DictReader(fh):
            link_rows.append(row)
    # Each link direction's core flag, in file order.
    core_flags = {}
    for row in link_rows:
        core_flags.setdefault((row["src"], row["dst"]), row["core"] == "1")

    flow_rows = []
    with open(os.path.join(path, "flows.csv")) as fh:
        for row in csv.DictReader(fh):
            flow_rows.append(row)
    flow_names = list(dict.fromkeys(row["flow"] for row in flow_rows))

    log = MetricsLog(t_end_ns, bin_ns, core_flags, flow_names, core_flags.values())
    for row in link_rows:
        i = log.link_index[(row["src"], row["dst"])]
        b = int(float(row["bin_start_s"]) * 1e9 / bin_ns + 0.5)
        log.data_bits[i][b] = int(row["data_bits"])
        log.repl_bits[i][b] = int(row["repl_bits"])
    for row in flow_rows:
        i = log.flow_index[row["flow"]]
        b = int(float(row["bin_start_s"]) * 1e9 / bin_ns + 0.5)
        log.flow_bits[i][b] = int(row["delivered_bits"])
    with open(os.path.join(path, "detections.csv")) as fh:
        for row in csv.DictReader(fh):
            log.detections.append(
                (round(float(row["t_s"]) * 1e9), row["switch"], row["trigger"], int(row["value"]))
            )
    stale_path = os.path.join(path, "staleness.csv")
    if os.path.exists(stale_path):
        # Both files are views of one log, written row for row.
        with open(stale_path) as sfh, open(os.path.join(path, "write_lag.csv")) as lfh:
            for s, w in zip_longest(csv.DictReader(sfh), csv.DictReader(lfh)):
                if s is None or w is None or any(s[k] != w[k] for k in _SHARED_FIELDS):
                    raise ScenarioError("staleness.csv and write_lag.csv differ row for row",
                                        path)
                log.applied.append((round(float(s["t_s"]) * 1e9), s["state"], s["origin"],
                                    s["replica"], int(s["staleness_ns"]),
                                    int(s["replaced_age_ns"]), int(w["lag_writes"])))
    mem_path = os.path.join(path, "memory.csv")
    if os.path.exists(mem_path):
        with open(mem_path) as fh:
            for row in csv.DictReader(fh):
                log.replica_memory[row["switch"]] = int(row["replica_state_bits"])
    return log


@dataclass
class SummaryRow:
    label: str
    mean_data_bps: float
    mean_repl_bps: float
    repl_fraction: float
    detections: str
    aggregate_throughput_bps: float
    min_flow_throughput_bps: float
    max_staleness_ns: int
    memory_bits: str


def summarize(logs: dict[str, MetricsLog], is_switch=None) -> list[SummaryRow]:
    """Steady-state summary per run, over `MetricsLog.window_slice`.

    Link means are taken over switch-switch (core) directed links,
    `MetricsLog.core_rows(is_switch)`; the replication fraction is
    replication bits over total bits in the window.
    """
    out = []
    for label in sorted(logs):
        log = logs[label]
        core = log.core_rows(is_switch)
        sl = log.window_slice()
        nbins = sl.stop - sl.start
        window_s = nbins * log.bin_ns / 1e9
        data = sum(sum(log.data_bits[i][sl]) for i in core)
        repl = sum(sum(log.repl_bits[i][sl]) for i in core)
        n_core = max(1, len(core))
        mean_data = data / window_s / n_core
        mean_repl = repl / window_s / n_core
        frac = repl / (data + repl) if (data + repl) else 0.0

        first: dict[str, float] = {}
        for (t, sw, trig, val) in log.detections:
            if sw not in first:
                first[sw] = t / 1e9
        det = ";".join(f"{sw}:{first[sw]}" for sw in sorted(first))

        fl = [sum(row[sl]) for row in log.flow_bits]
        agg = sum(fl) / window_s if fl else 0.0
        # Flows idle in the window report 0; exclude them from the min.
        active = [x / window_s for x in fl if x > 0]
        min_tp = min(active) if active else 0.0

        age, replaced = log.applied.columns[4:6]
        max_stale = max(max(age, default=0), max(replaced, default=0))
        mem = ";".join(f"{sw}:{bits}" for sw, bits in sorted(log.replica_memory.items()))
        out.append(
            SummaryRow(
                label=label,
                mean_data_bps=mean_data,
                mean_repl_bps=mean_repl,
                repl_fraction=frac,
                detections=det,
                aggregate_throughput_bps=agg,
                min_flow_throughput_bps=min_tp,
                max_staleness_ns=max_stale,
                memory_bits=mem,
            )
        )
    return out


def export_summary(rows: list[SummaryRow], path: str):
    _check_plain(x for r in rows for x in (r.label, r.detections, r.memory_bits))
    _write_csv(
        path,
        "label,mean_data_bps,mean_repl_bps,repl_fraction,detections,"
        "aggregate_throughput_bps,min_flow_throughput_bps,max_staleness_ns,memory_bits",
        (f"{r.label},{r.mean_data_bps!r},{r.mean_repl_bps!r},{r.repl_fraction!r},"
         f"{r.detections},{r.aggregate_throughput_bps!r},{r.min_flow_throughput_bps!r},"
         f"{r.max_staleness_ns},{r.memory_bits}\r\n" for r in rows),
    )

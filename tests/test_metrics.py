"""The metrics log's columns and the streamed CSV writer.

The writer never quotes a field, so its bytes are checked against
`csv.writer` with the float formatting the export has always used, on
hand-made logs full of edge values; names that would need quoting must
raise instead of writing a broken row.
"""

import csv
import io
import os

import pytest

from repdp import (
    ExportError,
    MetricsLog,
    build_simulation,
    export_metrics,
    export_summary,
    parse_scenario,
    read_metrics_dir,
    summarize,
)
from repdp.metrics import ColumnLog, NameTable, SummaryRow

BIG = 2**63 - 1


def csv_writer_bytes(rows) -> bytes:
    """What `csv.writer` writes for `rows`, floats as repr, the rest as str."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    for row in rows:
        w.writerow([repr(x) if isinstance(x, float) else str(x) for x in row])
    return buf.getvalue().encode()


def edge_log() -> MetricsLog:
    """Three 1 ns bins, so the bin starts are 0.0, 1e-09 and 2e-09."""
    log = MetricsLog(3, 1, [("sw1", "sw2"), ("sw2", "h1")], ["f1", ""], [True, False])
    log.data_bits[0] = [0, 2**62, -7]
    log.repl_bits[0] = [5, 2**62 - 1, -2**40]
    log.flow_bits[0] = [1, 0, 3]
    log.flow_bits[1] = [2**50, -1, 0]
    log.flow_sent[:] = [BIG, 0]
    log.flow_delivered[:] = [-1, 2]
    log.queue_drops[:] = [0, 4]
    log.detections += [(1, "sw1", "syn", -5), (0, "sw2", "syn", BIG)]
    log.notifications.append((10**18, "sw1", ""))
    log.applied.append((1, "s0", "sw1", "sw2", 2**62, 0, BIG))
    log.applied.append((3, "s0", "sw1", "", -1, 123, -3))
    log.replica_memory.update({"sw2": 0, "sw1": BIG})
    log.events_processed = BIG
    log.stale_update_drops = -2
    return log


B1, B2 = 1e-09, 2 * 1e-09
EDGE_FAMILY = {
    "links.csv": [
        ("src", "dst", "core", "bin_start_s", "data_bits", "repl_bits", "total_bits"),
        ("sw1", "sw2", 1, 0.0, 0, 5, 5),
        ("sw1", "sw2", 1, B1, 2**62, 2**62 - 1, BIG),
        ("sw1", "sw2", 1, B2, -7, -2**40, -7 - 2**40),
        ("sw2", "h1", 0, 0.0, 0, 0, 0),
        ("sw2", "h1", 0, B1, 0, 0, 0),
        ("sw2", "h1", 0, B2, 0, 0, 0),
    ],
    "flows.csv": [
        ("flow", "bin_start_s", "delivered_bits", "throughput_bps"),
        ("f1", 0.0, 1, 1 / B1),
        ("f1", B1, 0, 0 / B1),
        ("f1", B2, 3, 3 / B1),
        ("", 0.0, 2**50, 2**50 / B1),
        ("", B1, -1, -1 / B1),
        ("", B2, 0, 0 / B1),
    ],
    "flow_totals.csv": [
        ("flow", "sent_pkts", "delivered_pkts", "app_drops", "queue_drops"),
        ("f1", BIG, -1, 0, 0),
        ("", 0, 2, 0, 0),
    ],
    "detections.csv": [
        ("t_s", "switch", "trigger", "value"),
        (1e-09, "sw1", "syn", -5),
        (0.0, "sw2", "syn", BIG),
    ],
    "notifications.csv": [("t_s", "switch", "message"), (1e9, "sw1", "")],
    "staleness.csv": [
        ("t_s", "state", "origin", "replica", "staleness_ns", "replaced_age_ns"),
        (1e-09, "s0", "sw1", "sw2", 2**62, 0),
        (3e-09, "s0", "sw1", "", -1, 123),
    ],
    "write_lag.csv": [
        ("t_s", "state", "replica", "lag_writes"),
        (1e-09, "s0", "sw2", BIG),
        (3e-09, "s0", "", -3),
    ],
    "queue_drops.csv": [("src", "dst", "drops"), ("sw2", "h1", 4)],
    "memory.csv": [("switch", "replica_state_bits"), ("sw1", BIG), ("sw2", 0)],
    "counters.csv": [
        ("key", "value"),
        ("events_processed", BIG),
        ("updates_emitted", 0),
        ("unknown_state_drops", 0),
        ("stale_update_drops", -2),
        ("t_end_ns", 3),
        ("bin_ns", 1),
    ],
}


def test_export_writes_what_csv_writer_writes(tmp_path):
    export_metrics(edge_log(), str(tmp_path), switch_names=["sw1", "sw2"])
    assert sorted(os.listdir(tmp_path)) == sorted(EDGE_FAMILY)
    for name, rows in EDGE_FAMILY.items():
        assert (tmp_path / name).read_bytes() == csv_writer_bytes(rows), name


def test_summary_writes_what_csv_writer_writes(tmp_path):
    row = SummaryRow("run", 0.1, 1e-09, 0.0, "", 1e300, -0.0, 2**62, "")
    export_summary([row], str(tmp_path / "summary.csv"))
    header = ("label", "mean_data_bps", "mean_repl_bps", "repl_fraction", "detections",
              "aggregate_throughput_bps", "min_flow_throughput_bps", "max_staleness_ns",
              "memory_bits")
    want = csv_writer_bytes([header, ("run", 0.1, 1e-09, 0.0, "", 1e300, -0.0, 2**62, "")])
    assert (tmp_path / "summary.csv").read_bytes() == want


def set_flow(log, name):
    log.flow_names[1] = name
    log.flow_index = {f: i for i, f in enumerate(log.flow_names)}


# Where a name that CSV would quote can sit in a log.
UNQUOTABLE = {
    "link_node": lambda log, x: log.link_dirs.__setitem__(1, ("sw2", x)),
    "flow": set_flow,
    "trigger": lambda log, x: log.detections.append((4, "sw1", x, 0)),
    "message": lambda log, x: log.notifications.append((4, "sw1", x)),
    "state": lambda log, x: log.applied.append((4, x, "sw1", "sw2", 0, 0, 0)),
    "memory_switch": lambda log, x: log.replica_memory.__setitem__(x, 1),
}


@pytest.mark.parametrize("name", ['a,b', 'say "hi"', "two\nlines", "cr\r"])
@pytest.mark.parametrize("where", UNQUOTABLE)
def test_name_that_needs_quoting_raises_before_any_file(tmp_path, where, name):
    log = edge_log()
    UNQUOTABLE[where](log, name)
    out = tmp_path / "out"
    with pytest.raises(ExportError, match="does not quote"):
        export_metrics(log, str(out))
    assert not out.exists()


def test_summary_label_that_needs_quoting_raises(tmp_path):
    row = SummaryRow("a,b", 0.0, 0.0, 0.0, "", 0.0, 0.0, 0, "")
    with pytest.raises(ExportError):
        export_summary([row], str(tmp_path / "summary.csv"))
    assert not (tmp_path / "summary.csv").exists()


def test_column_logs_share_one_name_table():
    names = NameTable()
    stale = ColumnLog("innnii", names)
    lag = ColumnLog("inni", names)
    rows = [(5, "s1", "sw1", "sw2", 7, 0), (9, "s0", "sw2", "sw1", 1, 2**62)]
    for row in rows:
        stale.append(row)
    lag.append((9, "sw2", "s1", -4))
    assert list(stale) == rows and len(stale) == 2
    assert list(lag) == [(9, "sw2", "s1", -4)]
    assert names.names == ["s1", "sw1", "sw2", "s0"]
    assert list(lag.columns[1]) == [2] and list(lag.columns[2]) == [0]
    assert list(stale.view(0, 2, 5)) == [(5, "sw1", 0), (9, "sw2", 2**62)]
    with pytest.raises(ValueError):
        lag.append((1, "s1", "sw1"))
    assert not ColumnLog("in", names)


def test_a_log_flags_its_own_core_links(tmp_path):
    # Straight from a run or read back from its CSVs, a log knows which
    # link directions join two switches: summarize and links.csv need no
    # topology to be given.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = parse_scenario(os.path.join(root, "scenarios", "fig7_ddos_c2.scn"))
    log = build_simulation(cfg, t_end_s=2.0).sim.run_until()
    export_metrics(log, str(tmp_path / "given"), switch_names=cfg.topology.switches)
    export_metrics(log, str(tmp_path / "own"))
    links = (tmp_path / "own" / "links.csv").read_bytes()
    assert links == (tmp_path / "given" / "links.csv").read_bytes()
    assert b",1,0.0," in links and b",0,0.0," in links
    (want,) = summarize({"run": log}, is_switch=cfg.topology.is_switch)
    assert want.mean_data_bps > 0
    assert summarize({"run": log}) == [want]
    assert summarize({"run": read_metrics_dir(str(tmp_path / "own"))}) == [want]

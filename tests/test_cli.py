"""End-to-end command-line checks: exit codes, CSV outputs, summaries."""

import csv
import os
import pathlib
import re
import shutil

import pytest

from repdp import SimulationError, cli, read_metrics_dir
from repdp.cli import main
from test_simcore import LINK_LB, MINI_DDOS, RESOURCE_LB

CSV_FAMILY = [
    "links.csv", "flows.csv", "flow_totals.csv", "detections.csv",
    "notifications.csv", "staleness.csv", "write_lag.csv",
    "queue_drops.csv", "memory.csv", "counters.csv",
]


@pytest.fixture(scope="module")
def scn_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "mini_ddos.scn"
    p.write_text(MINI_DDOS)
    return str(p)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, scn_file):
    # Directory name matches the scenario name so summary labels line up.
    d = tmp_path_factory.mktemp("out") / "mini_ddos"
    rc = main(["run", scn_file, "--out-dir", str(d), "--trace"])
    assert rc == 0
    return str(d)


def read_counters(run_path):
    with open(os.path.join(run_path, "counters.csv")) as fh:
        return {row["key"]: int(row["value"]) for row in csv.DictReader(fh)}


# ---------------------------------------------------------------------------
# validate


def test_validate_prints_plan(scn_file, capsys):
    assert main(["validate", scn_file]) == 0
    out = capsys.readouterr().out
    assert "ranking:" in out
    assert "tree:" in out
    assert "period" in out
    assert "scenario mini_ddos: ok (2 replicas; flows: f1, f3, f4)" in out


def test_validate_replica_override(scn_file, capsys):
    assert main(["validate", scn_file, "--replicas", "1"]) == 0
    out = capsys.readouterr().out
    assert "(1 replicas" in out
    # A single replica needs no distribution tree.
    assert "tree: (none)" in out


def test_hint_outside_overridden_replicas_names_the_override(tmp_path, capsys):
    # Every leg estimate is pinned to its leg's switch; two replicas
    # leave sw4, the origin of leg_load_3, out of the set.
    p = tmp_path / "llb.scn"
    p.write_text(LINK_LB)
    line = LINK_LB.splitlines().index("replicas = 3") + 1
    assert main(["validate", str(p)]) == 0
    capsys.readouterr()
    assert main(["validate", str(p), "--replicas", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: state leg_load_3: hint sw4 not among replicas")
    assert "(replica count overridden to 2)" in err
    assert f":{line}:" not in err
    # A count the scenario sets itself is blamed at its line.
    p.write_text(LINK_LB.replace("replicas = 3", "replicas = 2"))
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}:{line}: state leg_load_3: hint sw4")


def test_missing_scenario_is_exit_1(capsys):
    assert main(["validate", "/nonexistent/nowhere.scn"]) == 1
    assert "error:" in capsys.readouterr().err
    # An empty path leaves the message without a place.
    assert main(["validate", ""]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read scenario: ")


def test_simulation_error_is_exit_2(monkeypatch, tmp_path, scn_file, capsys):
    def fail(*args, **kwargs):
        raise SimulationError("event queue went backwards")

    monkeypatch.setattr(cli, "run_single", fail)
    assert main(["run", scn_file, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "runtime error: event queue went backwards\n"


def test_malformed_scenario_is_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.scn"
    p.write_text(MINI_DDOS.replace("size = 1950", "size = 100"))
    assert main(["validate", str(p)]) == 1
    assert "512" in capsys.readouterr().err


def test_bad_application_parameter_is_exit_1_with_its_line(tmp_path, capsys):
    p = tmp_path / "lb.scn"
    text = RESOURCE_LB.replace("threshold = 0.8", "threshold = 1.5")
    p.write_text(text)
    assert main(["validate", str(p)]) == 1
    line = text.splitlines().index("threshold = 1.5") + 1
    assert f"lb.scn:{line}: threshold must be in (0, 1)" in capsys.readouterr().err


SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "scenarios")

# (shipped scenario, line as shipped, replacement): numbers that are not
# finite, a negative weight, a queue_limit below 1 or a metrics_bin under
# 1 ns must fail at their own line.
BAD_NUMBERS = {
    "r_min_nan": ("fig7_ddos_c2.scn", "r_min = 100", "r_min = nan"),
    "max_write_rate_nan": ("fig8_ratelimit.scn", "max_write_rate = 625",
                           "max_write_rate = nan"),
    "weight_nan": ("fig7_ddos_c2.scn", "weights = as1:3 as2:1 as3:3 as4:1",
                   "weights = as1:nan as2:1 as3:3 as4:1"),
    "weight_inf": ("fig7_ddos_c2.scn", "weights = as1:3 as2:1 as3:3 as4:1",
                   "weights = as1:inf as2:1 as3:3 as4:1"),
    "weight_negative": ("fig8_ratelimit.scn", "weights = as1:1 as3:1",
                        "weights = as1:-5 as3:1"),
    "weight_twice": ("fig8_ratelimit.scn", "weights = as1:1 as3:1",
                     "weights = as1:1 as3:1 as1:7"),
    "queue_limit_zero": ("fig8_ratelimit.scn", "queue_limit = 100", "queue_limit = 0"),
    "queue_limit_negative": ("fig7_ddos_c2.scn", "queue_limit = 100", "queue_limit = -3"),
    "metrics_bin_zero": ("fig7_ddos_c2.scn", "metrics_bin = 0.5", "metrics_bin = 0"),
    "metrics_bin_negative": ("fig8_ratelimit.scn", "metrics_bin = 0.5", "metrics_bin = -1"),
    "metrics_bin_below_1ns": ("fig7_ddos_c2.scn", "metrics_bin = 0.5", "metrics_bin = 0.4ns"),
    "t_end_zero": ("fig7_ddos_c2.scn", "t_end = 60", "t_end = 0"),
    "r_min_negative": ("fig8_ratelimit.scn", "r_min = 250", "r_min = -1"),
    "replicas_zero": ("fig7_ddos_c2.scn", "replicas = 2", "replicas = 0"),
    # The reader accepts these; the model's budget checks and the period
    # solver reject them at build time.
    "epsilon_t_negative": ("fig7_ddos_c2.scn", "epsilon_t = 14ms", "epsilon_t = -1"),
    "epsilon_r_negative": ("fig8_ratelimit.scn", "epsilon_r = 10", "epsilon_r = -1"),
    "max_write_rate_negative": ("fig8_ratelimit.scn", "max_write_rate = 625",
                                "max_write_rate = -1"),
    "r_min_below_interarrival": ("fig7_ddos_c2.scn", "r_min = 100", "r_min = 1e-10"),
    "epsilon_t_below_delay": ("fig7_ddos_c2.scn", "epsilon_t = 14ms", "epsilon_t = 1e-10"),
    # An infeasible budget cites the budget's key, whatever overran it.
    "link_delay_over_budget": ("fig7_ddos_c2.scn", "link_delay = 0.5ms", "link_delay = 1e30",
                               "epsilon_t = 14ms"),
    "t_end_below_1ns": ("fig8_ratelimit.scn", "t_end = 60", "t_end = 1e-10"),
    # Hosts, flows, the topology and the application name.
    "attach_unknown": ("fig8_ratelimit.scn", "attach = sw4", "attach = sw9"),
    "flow_src_unknown": ("fig8_ratelimit.scn", "src = as1", "src = x"),
    "flow_dst_unknown": ("fig8_ratelimit.scn", "dst = c3", "dst = x"),
    "flow_size_below_frame": ("fig8_ratelimit.scn", "size = 10000", "size = 100"),
    "flow_start_after_t_end": ("fig8_ratelimit.scn", "start = 20", "start = 1e30"),
    "flow_start_negative": ("fig8_ratelimit.scn", "start = 0", "start = -1"),
    # The stop takes the start's line, and the start moves down one.
    "flow_stop_before_start": ("fig8_ratelimit.scn", "start = 20", "stop = 10\nstart = 20"),
    "link_delay_zero": ("fig8_ratelimit.scn", "link_delay = 0.5ms", "link_delay = 0"),
    "link_capacity_negative": ("fig8_ratelimit.scn", "link_capacity = 10Mbps",
                               "link_capacity = -1"),
    "host_delay_below_1ns": ("fig8_ratelimit.scn", "host_delay = 0.01ms",
                             "host_delay = 1e-10"),
    "switches_unlinked": ("fig8_ratelimit.scn", "switches = sw1 sw2 sw3 sw4", "switches = x"),
    "links_disconnected": ("fig8_ratelimit.scn", "links = sw1-sw2 sw2-sw3 sw3-sw4 sw1-sw4",
                           "links = sw1-sw2 sw3-sw4"),
    "application_unknown": ("fig8_ratelimit.scn", "name = ratelimit", "name = x"),
}


@pytest.mark.parametrize("case", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
def test_bad_number_is_exit_1_at_its_line(tmp_path, capsys, case):
    # The error cites the mutated line, or the line named after it.
    scenario, line_text, bad, *cited = case
    with open(os.path.join(SCENARIOS, scenario)) as fh:
        text = fh.read()
    lines = text.splitlines()
    assert line_text in lines
    p = tmp_path / scenario
    p.write_text(text.replace(line_text, bad))
    assert main(["validate", str(p)]) == 1
    err = capsys.readouterr().err
    line = lines.index(cited[0] if cited else line_text) + 1
    assert err.startswith(f"error: {p}:{line}: "), err


def _shipped(scenario):
    with open(os.path.join(SCENARIOS, scenario)) as fh:
        return fh.read()


# The scenarios the misuse sweeps mutate: the two shipped ones and the
# test scenarios of the two load-balancing applications.
SWEPT = {
    "fig7_ddos_c2.scn": _shipped("fig7_ddos_c2.scn"),
    "fig8_ratelimit.scn": _shipped("fig8_ratelimit.scn"),
    "link_lb.scn": LINK_LB,
    "resource_lb.scn": RESOURCE_LB,
}


def _validate(p, capsys):
    """Validate `p`: the exit code, the line its error cites (None when
    it cites none) and the error text."""
    rc = main(["validate", str(p)])
    err = capsys.readouterr().err
    cited = re.match(rf"error: {re.escape(str(p))}:(\d+): ", err)
    return rc, cited and int(cited[1]), err


def _blamed_for_build(lines, err):
    """The lines a build-time error may cite besides the mutated one: an
    infeasible budget its `epsilon_` key, or the [application] header
    when the key is defaulted; a target hint outside the replica set the
    `replicas` line."""
    out = set()
    if "budget" in err:
        out = ({n for n, line in enumerate(lines, 1) if line.startswith("epsilon_")}
               or {n for n, line in enumerate(lines, 1) if line == "[application]"})
    if "hint" in err:
        out |= {n for n, line in enumerate(lines, 1) if line.startswith("replicas =")}
    return out


MUTANT_VALUES = ("nan", "inf", "-1", "0", "1e30", "", "x", "1e-10", "-0")


@pytest.mark.parametrize("scenario", SWEPT)
def test_every_mutated_value_is_valid_or_exit_1_at_its_line(tmp_path, capsys, scenario):
    # Each `key = value` line in turn takes each value above. The mutant
    # validates, or exits 1 citing the mutated line or a line that
    # _blamed_for_build names.
    lines = SWEPT[scenario].splitlines()
    p = tmp_path / scenario
    mutants, failures = 0, []
    for n, line in enumerate(lines, 1):
        key = re.match(r"([A-Za-z_]\w*)\s*=", line)
        if key is None:
            continue
        for value in MUTANT_VALUES:
            mutants += 1
            p.write_text("\n".join([*lines[:n - 1], f"{key[1]} = {value}", *lines[n:]]))
            rc, cited, err = _validate(p, capsys)
            if rc != 0 and (rc != 1 or cited not in {n} | _blamed_for_build(lines, err)):
                failures.append(f"line {n} {key[1]} = {value!r}: exit {rc}: {err.strip()}")
    assert mutants > 9 * 30
    assert not failures, "\n".join(failures)


def _misspelled(word):
    """`word` with its first two letters swapped."""
    out = word[1] + word[0] + word[2:]
    assert out != word, word
    return out


@pytest.mark.parametrize("scenario", SWEPT)
def test_every_misspelled_key_or_section_is_exit_1_at_its_line(tmp_path, capsys, scenario):
    # Each key in turn, and each section header's name (the prefix of a
    # [flow.F], [host.H] or [link.U.V] header), is misspelled. The
    # mutant exits 1 citing the mutated line: an unknown key or section
    # fails there, and so does a [loads] key, which names no state.
    lines = SWEPT[scenario].splitlines()
    p = tmp_path / scenario
    mutants, failures = 0, []
    for n, line in enumerate(lines, 1):
        word = re.match(r"\[?([A-Za-z_]\w*)", line)
        if word is None:
            continue
        mutants += 1
        p.write_text("\n".join([*lines[:n - 1], line.replace(word[1], _misspelled(word[1]), 1),
                                *lines[n:]]))
        rc, cited, err = _validate(p, capsys)
        if rc != 1 or cited != n:
            failures.append(f"line {n} {line!r}: exit {rc}: {err.strip()}")
    assert mutants > 30
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("scenario", SWEPT)
def test_every_deleted_or_duplicated_line_is_valid_or_exit_1_at_a_line(tmp_path, capsys,
                                                                       scenario):
    # Each line in turn is deleted, or written twice. The mutant
    # validates, or exits 1 citing the mutated line (the line that moved
    # into a deleted line's place, or either copy), or else a line the
    # loss explains: the section header of a deleted key, line 1 for a
    # deleted section or format_version, or a line that
    # _blamed_for_build names.
    lines = SWEPT[scenario].splitlines()
    p = tmp_path / scenario
    header = 1
    rejected, failures = 0, []
    for n, line in enumerate(lines, 1):
        if line.startswith("["):
            header = n
        for kind, mutant in (("delete", lines[:n - 1] + lines[n:]),
                             ("duplicate", lines[:n] + lines[n - 1:])):
            p.write_text("\n".join(mutant))
            rc, cited, err = _validate(p, capsys)
            if rc == 0:
                continue
            rejected += 1
            allowed = _blamed_for_build(mutant, err)
            if kind == "duplicate":
                allowed |= {n, n + 1}
            else:
                allowed |= {n, 1 if line.startswith(("[", "format_version")) else header}
            if rc != 1 or cited not in allowed:
                failures.append(f"{kind} line {n} {line!r}: exit {rc}: {err.strip()}")
    assert rejected > 10
    assert not failures, "\n".join(failures)


def test_infeasible_budget_is_exit_1(tmp_path, capsys):
    p = tmp_path / "tight.scn"
    p.write_text(MINI_DDOS.replace("epsilon_t = 14ms", "epsilon_t = 1ms"))
    assert main(["validate", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run


def test_run_writes_csv_family(run_dir):
    for name in CSV_FAMILY + ["summary.csv", "plan.txt", "trace.txt"]:
        assert os.path.exists(os.path.join(run_dir, name)), name
    counters = read_counters(run_dir)
    assert counters["events_processed"] > 0
    assert counters["updates_emitted"] > 0
    assert counters["t_end_ns"] == 4_000_000_000


def test_trace_records_forwarding(run_dir):
    with open(os.path.join(run_dir, "trace.txt")) as fh:
        text = fh.read()
    assert "fwd" in text
    assert len(text.splitlines()) > 100


def test_run_without_replication(tmp_path, scn_file, capsys):
    d = tmp_path / "none"
    assert main(["run", scn_file, "--out-dir", str(d), "--no-replication"]) == 0
    assert "run complete" in capsys.readouterr().out
    counters = read_counters(str(d))
    assert counters["updates_emitted"] == 0
    assert counters["stale_update_drops"] == 0


def test_run_horizon_override(tmp_path, scn_file):
    d = tmp_path / "short"
    assert main(["run", scn_file, "--out-dir", str(d), "--t-end", "2"]) == 0
    assert read_counters(str(d))["t_end_ns"] == 2_000_000_000


@pytest.mark.parametrize("verb", ["run", "sweep"])
@pytest.mark.parametrize("t_end", ["nan", "inf", "-1", "0", "1e-10"])
def test_bad_horizon_override_is_exit_1_and_writes_nothing(tmp_path, scn_file, capsys,
                                                           verb, t_end):
    d = tmp_path / "out"
    assert main([verb, scn_file, "--out-dir", str(d), f"--t-end={t_end}"]) == 1
    assert "error: t_end must be" in capsys.readouterr().err
    assert not d.exists()


def test_sweep_checks_every_count_before_its_first_run(tmp_path, scn_file, capsys):
    d = tmp_path / "out"
    assert main(["sweep", scn_file, "--out-dir", str(d), "--counts", "1,9"]) == 1
    assert "replicas must be in 1..4, got 9" in capsys.readouterr().err
    assert not d.exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_creates_per_count_dirs(tmp_path, scn_file, capsys):
    d = tmp_path / "sweep"
    assert main(["sweep", scn_file, "--out-dir", str(d), "--counts", "1,2"]) == 0
    assert "sweep complete: c1, c2" in capsys.readouterr().out
    for label in ("c1", "c2"):
        assert os.path.exists(d / label / "links.csv")
    with open(d / "summary.csv") as fh:
        labels = [row["label"] for row in csv.DictReader(fh)]
    assert labels == ["c1", "c2"]

    # Re-summarizing the sweep directory from its CSVs alone reproduces
    # the summary byte for byte.
    original = (d / "summary.csv").read_bytes()
    out2 = d / "resummary.csv"
    assert main(["summarize", str(d), "--out", str(out2)]) == 0
    assert out2.read_bytes() == original


def test_sweep_rejects_bad_counts(tmp_path, scn_file, capsys):
    d = tmp_path / "sweep"
    # A repeated count would run twice into the same directory.
    for counts, needle in (("a,b", "bad --counts value"), (",", "--counts is empty"),
                           ("2,2", "--counts names a count twice")):
        assert main(["sweep", scn_file, "--out-dir", str(d), "--counts", counts]) == 1
        assert needle in capsys.readouterr().err
        assert not d.exists()


# ---------------------------------------------------------------------------
# summarize


def test_summarize_single_run_matches(run_dir, tmp_path, capsys):
    with open(os.path.join(run_dir, "summary.csv"), "rb") as fh:
        original = fh.read()
    out2 = tmp_path / "again.csv"
    assert main(["summarize", run_dir, "--out", str(out2)]) == 0
    assert out2.read_bytes() == original
    printed = capsys.readouterr().out
    assert "mini_ddos:" in printed
    assert "summary ->" in printed


def test_summarize_missing_dir_is_exit_2(tmp_path, capsys):
    assert main(["summarize", str(tmp_path / "void")]) == 2
    assert "runtime error:" in capsys.readouterr().err


def test_summarize_empty_dir_is_exit_1(tmp_path, capsys):
    assert main(["summarize", str(tmp_path)]) == 1
    assert "links.csv" in capsys.readouterr().err


def test_summarize_update_views_that_differ_is_exit_1(run_dir, tmp_path, capsys):
    # staleness.csv and write_lag.csv are two views of one log: a row
    # missing from one of them, or a row of another update, is an error.
    lines = (pathlib.Path(run_dir) / "write_lag.csv").read_bytes().splitlines(keepends=True)
    t_s, state, rest = lines[1].split(b",", 2)
    other = b",".join((t_s, state + b"x", rest))
    for label, rows in (("cut", lines[:-1]), ("other_state", [lines[0], other, *lines[2:]])):
        d = tmp_path / label
        shutil.copytree(run_dir, d)
        (d / "write_lag.csv").write_bytes(b"".join(rows))
        assert main(["summarize", str(d)]) == 1
        assert (f"error: {d}: staleness.csv and write_lag.csv differ"
                in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# CSV re-ingestion round trip


def test_read_metrics_dir_round_trip(run_dir, scn_file, tmp_path):
    from repdp import parse_scenario, run_single

    cfg = parse_scenario(scn_file)
    live = run_single(cfg)
    back = read_metrics_dir(run_dir)
    assert back.link_dirs == live.link_dirs
    assert back.flow_names == live.flow_names
    assert back.data_bits == live.data_bits
    assert back.repl_bits == live.repl_bits
    assert back.flow_bits == live.flow_bits
    assert back.detections == live.detections
    assert back.replica_memory == live.replica_memory
    assert list(back.applied) == list(live.applied)

    # fig7 as shipped, at two replicas: its applied-update log comes back
    # row for row from the two CSV views.
    fig7 = parse_scenario(os.path.join(SCENARIOS, "fig7_ddos_c2.scn"))
    out = str(tmp_path / "ddos_ring")
    live = run_single(fig7, out_dir=out)
    back = read_metrics_dir(out)
    assert len(live.applied) > 0
    assert list(back.applied) == list(live.applied)

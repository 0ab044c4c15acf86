"""The trace as the fabric records and renders it: rows in emission order,
read through Fabric.trace, sorted stably and rendered by trace_text."""

import gc
import sys
from pathlib import Path

import pytest

from internames.fabric import EventKind, TraceEvent
from internames.names import parse_name
from internames.node_api import NodeApi
from internames.scenario import (
    BUILTIN_NAMES,
    build_fabric,
    load_builtin,
    parse_scenario,
    run_scenario,
)

from conftest import trace_line

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # perfbench's generator; perfbench is not a package

SMOKE_WORKLOADS = ("bridge-pull", "catalog", "churn")


def run_fabric(name):
    """The fabric after a run of a builtin, or of a perfbench workload at
    smoke size; catalog's calls are made through NodeApi, one at a time."""
    if name in BUILTIN_NAMES:
        return run_scenario(load_builtin(name)).fabric
    wl = workloads.generate(name, 1, "smoke")
    scenario = parse_scenario(wl.scenario_text, name=name)
    if not wl.calls:
        return run_scenario(scenario).fabric
    fabric = build_fabric(scenario)
    for client, query in wl.calls:
        api = NodeApi(fabric, parse_name(client))
        found = api.search(list(query))
        if found.names:
            api.pull(found.names[0])
    return fabric


def oracle_text(fabric):
    """The trace rendered by a stable sort on named fields and trace_line."""
    events = sorted(fabric.trace, key=lambda e: (e.tick, e.node, e.msg_id))
    return "\n".join(trace_line(e) for e in events)


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, *SMOKE_WORKLOADS])
def test_trace_text_matches_the_line_oracle(name):
    fabric = run_fabric(name)
    expected = oracle_text(fabric)
    assert fabric.trace_text() == expected
    assert [trace_line(row) for row in fabric.sorted_trace()] == expected.split("\n")


@pytest.mark.parametrize("name", ["fig3", "churn"])
def test_oracle_a_recv_and_its_deliver_tie_and_keep_emission_order(name):
    # _deliver logs RECV then DELIVER with the same tick, node and msg: the
    # sort keys tie, and only its stability keeps the RECV first.
    lines = run_fabric(name).trace_text().split("\n")
    delivers = [i for i, line in enumerate(lines) if " event=DELIVER " in line]
    assert delivers
    for i in delivers:
        recv, deliver = (line.split(" ") for line in lines[i - 1:i + 1])
        assert recv[3] == "event=RECV"
        assert recv[:3] + recv[4:5] == deliver[:3] + deliver[4:5]  # t, node, realm, msg


def test_fabric_trace_yields_trace_events_in_emission_order():
    fabric = run_fabric("churn")
    rows = fabric._rows
    events = fabric.trace
    assert len(events) == len(rows) > 0
    assert all(type(e) is TraceEvent and type(e.event) is EventKind for e in events)
    # A row holds the event's text where its TraceEvent holds the kind.
    assert [e._replace(event=e.event.value) for e in events] == rows
    assert [e.tick for e in events] == sorted(e.tick for e in events)
    assert any(e.event is EventKind.DELIVER for e in events)
    with pytest.raises(AttributeError):
        fabric.trace = []


def test_rows_hold_only_values_the_collector_untracks():
    # A row of str and int is untracked by the first collection that sees
    # it, so a long trace is not scanned again by every later one.
    fabric = run_fabric("churn")
    gc.collect()
    assert not [row for row in fabric._rows if gc.is_tracked(row)]

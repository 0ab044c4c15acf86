"""perfbench's tracer wraps attributes of the package by name; a wrapped
name that moves, or is no longer called through, leaves its layer empty."""

import sys
from pathlib import Path
from types import SimpleNamespace

from internames import fabric, node_api, nrs, ors, scenario, wire
from internames.fabric import Fabric

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # perfbench's layer tracer; perfbench is not a package


def test_tracer_counts_the_route_entry_points_and_uninstall_restores_them():
    program = SimpleNamespace(fabric=fabric, scenario=scenario, nrs=nrs, ors=ors, wire=wire,
                              node_api=node_api)
    before = dict(vars(Fabric))
    tracer = Tracer()
    tracer.install(program)
    try:
        scenario.run_scenario(scenario.load_builtin("fig3"))
    finally:
        tracer.uninstall()
    assert tracer.calls("fabric.path") > 0
    assert tracer.calls("fabric.nearest_server") > 0
    assert dict(vars(Fabric)) == before


def test_trace_text_sorts_through_the_wrapped_sorted_trace():
    # perfbench's smoke run flags a layer that records zero calls.
    program = SimpleNamespace(fabric=fabric, scenario=scenario, nrs=nrs, ors=ors, wire=wire,
                              node_api=node_api)
    tracer = Tracer()
    tracer.install(program)
    try:
        scenario.run_scenario(scenario.load_builtin("fig3"))
    finally:
        tracer.uninstall()
    assert tracer.calls("fabric.trace.render") == tracer.calls("fabric.trace.sort") == 1

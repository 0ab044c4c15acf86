"""Per-layer tracing from outside the program.

Wrappers go on the functions each layer exposes, under the name the
calling module looks up (``fib_lookup`` is wrapped in ``fabric``, where
it is called).  Every wrapped call is a span: name, start, end and the
span that was open when it began.  Counts, inclusive time and self time
(duration minus the time child spans cover) are accumulated as spans
close; the spans themselves are kept in memory, up to a cap, and written
out as JSON at the end.  Nothing is written into the program's trace.
"""

from __future__ import annotations

import json
from time import perf_counter

SPAN_CAP = 20000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.keep = False
        self.dropped = 0
        self._stack: list[list] = []  # open spans: [child_s, span_id]
        self._next_id = 1
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, tracer._next_id]
            tracer._next_id += 1
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if tracer.keep:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((frame[1], name, start, end, parent))
                    else:
                        tracer.dropped += 1

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, program) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        fabric_mod, scenario_mod = program.fabric, program.scenario
        Fabric = fabric_mod.Fabric
        spans = [
            (scenario_mod, "parse_scenario", "scenario.parse"),
            (scenario_mod, "build_fabric", "scenario.build"),
            (Fabric, "_path", "fabric.path"),
            (Fabric, "_nearest_server", "fabric.nearest_server"),
            (Fabric, "build_fibs", "fabric.build_fibs"),
            (Fabric, "run", "fabric.engine"),
            (Fabric, "sorted_trace", "fabric.trace.sort"),
            (Fabric, "trace_text", "fabric.trace.render"),
            (program.nrs.NameResolutionService, "register", "nrs.register"),
            (program.nrs.NameResolutionService, "withdraw", "nrs.withdraw"),
            (program.nrs.NameResolutionService, "resolve", "nrs.resolve"),
            (program.ors.ObjectResolutionService, "register", "ors.register"),
            (program.ors.ObjectResolutionService, "search", "ors.search"),
            (fabric_mod, "fib_lookup", "wire.fib_lookup"),
            (fabric_mod, "encode", "wire.encode"),
            (fabric_mod, "bridge", "name_router.bridge"),
            (fabric_mod, "check_access", "name_router.check_access"),
            (program.node_api.NodeApi, "pull", "node_api.pull"),
            (program.node_api.NodeApi, "search", "node_api.search"),
        ]
        for owner, attr, name in spans:
            self._patch(owner, attr, self._span(name, owner.__dict__[attr]))

        counts = self.counts
        counts.update({"wire.cs.lookups": 0, "wire.cs.hits": 0, "fabric.engine.callbacks": 0})
        cs_get = program.wire.ContentStore.get

        def get(store, fcn):
            body = cs_get(store, fcn)
            counts["wire.cs.lookups"] += 1
            if body is not None:
                counts["wire.cs.hits"] += 1
            return body

        pop_due = fabric_mod.SimClock.pop_due

        def counted_pop_due(clock, until_tick):
            for item in pop_due(clock, until_tick):
                counts["fabric.engine.callbacks"] += 1
                yield item

        self._patch(program.wire.ContentStore, "get", get)
        self._patch(fabric_mod.SimClock, "pop_due", counted_pop_due)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- results

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def total(self, name: str) -> float:
        return self.stats[name][1]

    def self_time(self, name: str) -> float:
        return self.stats[name][2]

    def write_spans(self, path, meta: dict) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][2] if self.spans else 0.0
        doc = dict(meta)
        doc.update({
            "fields": ["id", "name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[sid, index[name], round(start - origin, 9), round(end - origin, 9), parent]
                      for sid, name, start, end, parent in sorted(self.spans, key=lambda s: s[2])],
            "spans_dropped": self.dropped,
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

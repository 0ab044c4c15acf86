#!/usr/bin/env python3
"""Seeded benchmark for internames: three workloads, host-time metrics.

One run measures one workload in this process for --seconds seconds, in
whole rounds.  A round parses and builds the generated scenario, runs it
(timeline workloads) or drives its closed-loop calls (catalog), renders
the trace and checks every output against the generator's own record.

    python3 perfbench/run.py --workload churn --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced
    python3 perfbench/run.py --smoke         # tiny sizes, all checks, a few seconds
    python3 perfbench/run.py --digests       # trace sha256 per workload, default seed
    python3 perfbench/run.py --workload catalog --write-scn /tmp/catalog.scn

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones from the
wrapped run (see tracer.py), and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
TAIL_BEYOND = 10
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
REFERENCE_S = 0.05

# Metric names and units are defined once, in BENCHMARK.json.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# Layers each workload is built to exercise; a zero count there means a
# wrapper missed its target.
EXERCISED = {
    "bridge-pull": ["scenario.parse", "scenario.build", "fabric.build_fibs", "nrs.register",
                    "fabric.path", "fabric.nearest_server", "fabric.engine",
                    "fabric.trace.sort", "fabric.trace.render", "nrs.resolve",
                    "wire.fib_lookup", "name_router.bridge", "name_router.check_access"],
    "catalog": ["scenario.build", "nrs.register", "ors.register", "fabric.build_fibs",
                "ors.search", "wire.fib_lookup", "fabric.trace.sort", "node_api.search",
                "node_api.pull", "nrs.resolve", "name_router.bridge"],
    "churn": ["scenario.build", "fabric.path", "fabric.nearest_server", "nrs.resolve",
              "nrs.register", "nrs.withdraw", "ors.search", "wire.encode", "wire.fib_lookup",
              "name_router.bridge", "name_router.check_access", "fabric.engine"],
}


class Program:
    """The internames modules, imported from this checkout's src/ only."""

    def __init__(self):
        package = SRC / "internames"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no program source at {package}; "
                             "run from the root of a checkout of the repository")
        sys.path.insert(0, str(SRC))
        for mod in ("errors", "fabric", "scenario", "nrs", "ors", "wire", "node_api", "names"):
            setattr(self, mod, importlib.import_module(f"internames.{mod}"))
        if Path(self.fabric.__file__).resolve().parent != package.resolve():
            raise SystemExit(f"perfbench: imported internames from {self.fabric.__file__}, "
                             f"not from {package}")


# ------------------------------------------------------------------ rounds


class _Delivered(list):
    """A call's delivery list that notes the host time and tick of the first."""

    def __init__(self, note):
        super().__init__()
        self._note = note

    def append(self, item):
        if not self:
            self._note()
        super().append(item)


class _CallLog(list):
    """The calls list handed to the scenario runner.

    A marker callback scheduled just before each call action notes when
    the engine reached it; the first delivery of the call closes it."""

    def __init__(self, fabric):
        super().__init__()
        self.fabric = fabric
        self.started: list[tuple[float, int]] = []
        self.done: dict[int, tuple[float, int]] = {}

    def mark(self):
        self.started.append((perf_counter(), self.fabric.now))

    def append(self, call):
        index = len(self)
        done = self.done
        fabric = self.fabric
        call.deliveries = _Delivered(lambda: done.setdefault(index, (perf_counter(), fabric.now)))
        super().append(call)


class Round:
    __slots__ = ("setup_s", "total_s", "run_s", "completed", "latencies", "ticks",
                 "digest", "text", "stats", "problems", "fabric",
                 "speed_setup", "speed_run")


def timeline_round(P, wl, timed_calls: bool, pause) -> Round:
    """One session of a timeline workload; `pause` runs untimed after set-up."""
    scenario = P.scenario
    r = Round()
    t0 = perf_counter()
    sc = scenario.parse_scenario(wl.scenario_text, name=wl.name)
    fab = scenario.build_fabric(sc)
    r.setup_s = perf_counter() - t0
    pause()
    t1 = perf_counter()
    calls = _CallLog(fab) if timed_calls else []
    for action in sc.timeline:
        if timed_calls and action.op in workloads.CALL_OPS:
            fab.at(action.tick, calls.mark)
        scenario._schedule_action(fab, action, calls)
    fab.run()
    t2 = perf_counter()
    text = fab.trace_text()
    t3 = perf_counter()
    r.run_s, r.total_s = t2 - t1, r.setup_s + t3 - t1
    r.completed, r.problems = checks.timeline_outcomes(
        wl, calls, P.names.format_name)
    r.latencies, r.ticks = [], []
    if timed_calls:
        for i, op in enumerate(wl.ops):
            if op.kind == "pull" and i in calls.done:
                (h0, k0), (h1, k1) = calls.started[i], calls.done[i]
                r.latencies.append(h1 - h0)
                r.ticks.append(k1 - k0)
    return _finish(r, fab, text)


def catalog_round(P, wl, timed_calls: bool, pause) -> Round:
    """One closed-loop session of `catalog`; `pause` runs untimed after set-up."""
    r = Round()
    t0 = perf_counter()
    sc = P.scenario.parse_scenario(wl.scenario_text, name=wl.name)
    fab = P.scenario.build_fabric(sc)
    r.setup_s = perf_counter() - t0
    pause()
    t1 = perf_counter()
    apis = {}
    results = []
    r.latencies, r.ticks = [], []
    for client, query in wl.calls:
        api = apis.get(client)
        if api is None:
            api = apis[client] = P.node_api.NodeApi(fab, P.names.parse_name(client))
        start = perf_counter()
        try:
            found = api.search(list(query))
            tick = fab.now
            # An empty result is not pulled; the check below reports it.
            body = api.pull(found.names[0]) if found.names else None
        except P.errors.InternamesError as exc:
            results.append((query, None, None, repr(exc)))
            continue
        if body is not None:
            r.latencies.append(perf_counter() - start)
            r.ticks.append(fab.now - tick)
        results.append((query, [P.names.format_name(n) for n in found.names], body, None))
    t2 = perf_counter()
    text = fab.trace_text()
    t3 = perf_counter()
    r.run_s, r.total_s = t2 - t1, r.setup_s + t3 - t1
    r.completed, r.problems = 0, []
    for query, names, body, error in results:
        if error is not None:
            r.problems.append(f"call {query}: failed unexpectedly: {error}")
            continue
        r.completed += 1
        r.problems += checks.catalog_outcome(wl, query, names, body)
    if not timed_calls:
        r.latencies, r.ticks = [], []
    return _finish(r, fab, text)


def _finish(r: Round, fab, text: str) -> Round:
    """Checks that need the fabric; the trace is parsed once it is gone."""
    r.digest = hashlib.sha256(text.encode()).hexdigest()
    r.problems += checks.pending_requests(fab)
    r.fabric, r.text = fab, text
    return r


def _untimed() -> None:
    pass


# ----------------------------------------------------------------- metrics


def tail_percentile(samples: int) -> int:
    """The highest whole percentile whose nearest rank leaves at least
    TAIL_BEYOND of `samples` beyond it (never below the median)."""
    return max(50, 100 * (samples - TAIL_BEYOND) // samples)


def tail(values: list[float]) -> float:
    """Nearest-rank tail_percentile of the samples."""
    ordered = sorted(values)
    rank = -(-tail_percentile(len(ordered)) * len(ordered) // 100)
    return ordered[rank - 1]


class _Link:
    __slots__ = ("a", "b", "delay")

    def __init__(self, a, b, delay):
        self.a, self.b, self.delay = a, b, delay


_REFERENCE_LINKS = [_Link(f"n{i:02d}", f"n{(i * 7 + 3) % 60:02d}", 1 + i % 3) for i in range(90)]


def reference_loop() -> float:
    """Host seconds for a fixed piece of pure-Python work like the simulator's
    route search: scans of link objects, tuple keys, dict updates and small
    sorts.  It does not touch the program, so a change to the program
    leaves it alone."""
    start = perf_counter()
    best: dict[str, tuple] = {}
    for rep in range(60):
        for i in range(60):
            node = f"n{i:02d}"
            out = [(l.b if l.a == node else l.a, l.delay) for l in _REFERENCE_LINKS
                   if node in (l.a, l.b)]
            for nbr, delay in sorted(out):
                cand = (rep + delay, (node, nbr))
                if nbr not in best or cand < best[nbr]:
                    best[nbr] = cand
    return perf_counter() - start


def end_to_end(rounds: list[Round], scaled: bool = True) -> dict:
    """Medians over the run's rounds; each phase's host time is scaled by the
    speed measured around that phase (see reference_loop).  The tail is
    taken in each round, whose sample count is the same in every round of
    a workload, so that the percentile does not depend on the run length."""
    speeds = [(r.speed_setup, r.speed_run) if scaled else (1.0, 1.0) for r in rounds]
    per_round = [[x * run for x in r.latencies] for r, (_, run) in zip(rounds, speeds)]
    return {
        "setup_s": statistics.median(r.setup_s * s for r, (s, _) in zip(rounds, speeds)),
        "total_s": statistics.median(r.setup_s * s + (r.total_s - r.setup_s) * run
                                     for r, (s, run) in zip(rounds, speeds)),
        "calls_per_s": statistics.median(r.completed / r.run_s / run
                                         for r, (_, run) in zip(rounds, speeds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "call_ms_p50": 1000 * statistics.median(x for xs in per_round for x in xs),
        "call_ms_tail": 1000 * statistics.median(tail(xs) for xs in per_round),
    }


def layer_metrics(tracer: Tracer, fab) -> dict:
    m = {}
    for layer in ("fabric.path", "fabric.nearest_server", "nrs.register", "ors.search",
                  "wire.fib_lookup", "fabric.trace.sort", "nrs.resolve", "nrs.withdraw",
                  "wire.encode", "name_router.bridge", "name_router.check_access"):
        m[f"{layer}.calls"] = tracer.calls(layer)
        m[f"{layer}.s"] = tracer.total(layer)
    for layer in ("fabric.build_fibs", "ors.register", "scenario.parse", "scenario.build"):
        m[f"{layer}.s"] = tracer.total(layer)
    m["fabric.trace.events"] = len(fab.trace)
    m["fabric.trace.render.s"] = tracer.self_time("fabric.trace.render")
    m["fabric.engine.callbacks"] = tracer.counts["fabric.engine.callbacks"]
    m["fabric.engine.self_s"] = tracer.self_time("fabric.engine")
    hits = sum(node.cache.hits for node in fab.nodes.values())
    lookups = hits + sum(node.cache.misses for node in fab.nodes.values())
    m["nrs.cache.lookups"] = lookups
    m["nrs.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    cs = tracer.counts["wire.cs.lookups"]
    m["wire.cs.lookups"] = cs
    m["wire.cs.hit_ratio"] = tracer.counts["wire.cs.hits"] / cs if cs else 0.0
    m["fabric.messages.retained"] = len(fab.messages)
    return m


def sim_line(wl, rounds: list[Round], flags=()) -> dict:
    ticks = sorted(t for r in rounds for t in r.ticks)
    sim = {"workload": wl.name, "seed": wl.seed, "rounds": len(rounds),
           "ops_per_round": wl.ops_per_round, "trace_sha256": rounds[0].digest}
    if ticks:
        samples = max(len(r.latencies) for r in rounds)
        sim["pull_ticks_p50"] = statistics.median(ticks)
        sim["pull_ticks_max"] = ticks[-1]
        sim["latency_samples_per_round"] = samples
        sim["tail_percentile"] = tail_percentile(samples)
    sim.update(rounds[0].stats)
    if flags:
        sim["flags"] = list(flags)
    return {"sim": sim}


# -------------------------------------------------------------------- runs


def measure(args) -> int:
    P = Program()
    wl = workloads.generate(args.workload, args.seed, _size(args))
    one_round = catalog_round if wl.calls else timeline_round
    plain: list[Round] = []
    traced: list[Round] = []
    layers: list[dict] = []
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    problems: list[str] = []
    reference: list[float] = []
    first_digest = None

    def pause() -> None:
        reference.append(reference_loop())

    def keep(r: Round, into: list) -> None:
        nonlocal first_digest
        # Each round leaves cyclic garbage (handlers that close over the
        # fabric); free it before the trace is parsed, so that no round pays
        # for an earlier one and the peak resident size is the program's.
        r.fabric = None
        gc.collect()
        rows = checks.parse_trace(r.text)
        r.text = None
        r.problems += checks.trace_problems(wl, rows)
        r.stats = checks.sim_stats(rows)
        del rows
        problems.extend(r.problems)
        if first_digest is None:
            first_digest = r.digest
        elif r.digest != first_digest:
            problems.append(f"a {'traced' if into is traced else 'untraced'} round's trace "
                            f"differs from the run's first round under the same seed")
        into.append(r)

    while True:
        enough_plain = len(plain) >= (MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS)
        enough_traced = not tracer or len(traced) >= MIN_TRACED_ROUNDS
        if enough_plain and enough_traced and perf_counter() - start >= args.seconds:
            break
        if tracer and len(traced) < len(plain):
            tracer.reset()
            tracer.keep = not traced
            tracer.install(P)
            try:
                r = one_round(P, wl, False, _untimed)
            finally:
                tracer.uninstall()
                tracer.keep = False
            layers.append(layer_metrics(tracer, r.fabric))
            keep(r, traced)
        elif tracer:
            keep(one_round(P, wl, False, _untimed), plain)
        else:
            # The reference loop runs before set-up, between set-up and the
            # run, and after the round; each phase takes the speed around it.
            if not reference:
                pause()
            r = one_round(P, wl, True, pause)
            pause()
            before, between, after = reference[-3:]
            r.speed_setup = 2 * REFERENCE_S / (before + between)
            r.speed_run = 2 * REFERENCE_S / (between + after)
            keep(r, plain)
        if problems:
            break

    if not problems and fresh_digest(args) != first_digest:
        problems.append("a fresh process under another hash seed rendered a different "
                        "trace for the same seed")
    rounds = plain + traced
    metrics, extra, flags = {}, {}, []
    if tracer:
        units = PER_LAYER_UNITS
        if traced:
            metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
            metrics["trace.overhead_s"] = (statistics.median(r.total_s for r in traced)
                                           - statistics.median(r.total_s for r in plain))
            flags = [f"{layer} recorded zero calls" for layer in EXERCISED[wl.name]
                     if tracer.calls(layer) == 0]
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{wl.name}-seed{wl.seed}.json", {
                "workload": wl.name, "seed": wl.seed,
                "layers": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                           for name, s in sorted(tracer.stats.items())},
            })
    else:
        units = END_TO_END_UNITS
        if not problems:
            metrics = end_to_end(plain)
            extra = {"reference_s": statistics.median(reference),
                     "speed": statistics.median(r.speed_run for r in plain),
                     "unscaled": end_to_end(plain, scaled=False)}
    for flag in flags:
        print(f"perfbench: FLAG {flag}", file=sys.stderr)
    line = sim_line(wl, rounds, flags)
    line["sim"].update(extra)
    print(json.dumps(line))
    for p in problems[:20]:
        print(f"perfbench: CHECK FAILED {p}", file=sys.stderr)
    failed = (wl.ops_per_round * len(rounds)) - sum(r.completed for r in rounds)
    print(json.dumps({
        "correct": not problems,
        "attempted": wl.ops_per_round * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 1 if problems else 0


def write_scenario(args) -> int:
    wl = workloads.generate(args.workload, args.seed, _size(args))
    path = Path(args.write_scn)
    path.write_text(wl.scenario_text, encoding="utf-8")
    if wl.calls:
        calls = path.with_suffix(".calls")
        calls.write_text("".join(f"{c},{' '.join(q)}\n" for c, q in wl.calls),
                         encoding="utf-8")
        print(f"wrote {path} and {calls}")
    else:
        print(f"wrote {path}")
    return 0


def _size(args) -> str:
    return "smoke" if args.smoke else "full"


def fresh_digest(args) -> str:
    """The trace sha256 of one round of the run's workload and seed, rendered
    by a fresh process whose string hashing differs from this one's, so that
    a trace that depends on set or dict order does not go unseen."""
    cmd = [sys.executable, str(HERE / "run.py"), "--digests", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: --digests exited {proc.returncode}: {proc.stderr}")
    return proc.stdout.split("sha256=")[-1].strip()


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench: {workload} --trace {trace} exited {proc.returncode}")
    return json.loads(lines[-2])["sim"], json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload, each in a fresh process: untraced, then traced."""
    status = 0
    for workload in WORKLOADS:
        sim, plain = _child(workload, args.seed, args.seconds, 0, args.smoke)
        traced_sim, traced = _child(workload, args.seed, args.seconds, 1, args.smoke)
        same = traced_sim["trace_sha256"] == sim["trace_sha256"]
        if not same:
            print(f"perfbench: CHECK FAILED {workload}: the untraced and traced processes "
                  f"rendered different traces for seed {args.seed}", file=sys.stderr)
            status = 1
        print(f"== {workload} seed={args.seed} rounds={sim['rounds']} "
              f"attempted={plain['attempted']} failed={plain['failed']} "
              f"correct={plain['correct'] and traced['correct'] and same}")
        for name, m in plain["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        print(f"  -- traced run (attempted={traced['attempted']} failed={traced['failed']})")
        for name, m in traced["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        print(f"  -- simulated: trace_sha256={sim['trace_sha256']} "
              f"pull_ticks_p50={sim.get('pull_ticks_p50')} "
              f"pull_ticks_max={sim.get('pull_ticks_max')}")
        print(f"     events={sim['events']}")
        print(f"     drops={sim['drops']}")
    return status


def digests(args) -> int:
    """The trace sha256 of one untraced round of each workload (or of
    --workload), in this process; no checks are run."""
    P = Program()
    for workload in [args.workload] if args.workload else WORKLOADS:
        wl = workloads.generate(workload, args.seed, _size(args))
        r = (catalog_round if wl.calls else timeline_round)(P, wl, False, _untimed)
        print(f"{workload} seed={args.seed} size={_size(args)} "
              f"lines={len(r.text.splitlines())} sha256={r.digest}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, with all checks")
    parser.add_argument("--digests", action="store_true",
                        help="print the trace sha256 of one round of each workload "
                             "(or of --workload)")
    parser.add_argument("--write-scn", metavar="PATH",
                        help="write the generated scenario for --workload and exit")
    args = parser.parse_args(argv)
    if args.write_scn:
        if not args.workload:
            parser.error("--write-scn needs --workload")
        return write_scenario(args)
    if args.smoke:
        args.seconds = 0
    if args.digests:
        return digests(args)
    if args.workload is None:
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

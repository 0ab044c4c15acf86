"""Correctness checks computed from the generator's own record.

Every function returns a list of problems; an empty list means the
check passed.  Operations that failed are counted by the caller and not
checked here beyond the trace-wide properties.
"""

from __future__ import annotations

from collections import Counter


def parse_trace(text: str) -> list[tuple[int, str, str, str, int, str, str]]:
    """Split canonical trace lines into (tick, node, realm, event, msg, name, detail)."""
    rows = []
    for line in text.splitlines():
        t, node, realm, event, msg, name, detail = line.split(" ", 6)
        rows.append((int(t[2:]), node[5:], realm[6:], event[6:], int(msg[4:]),
                     name[5:], detail[7:]))
    return rows


def pending_requests(fabric) -> list[str]:
    """CCN request state left behind once the fabric is idle."""
    return [f"{node.id} holds request state in {realm}"
            for node in fabric.nodes.values()
            for realm, state in node.ccn.items() if state.pending_request_records()]


def trace_problems(wl, rows) -> list[str]:
    problems = []
    keys = [(t, node, msg) for t, node, _r, _e, msg, _n, _d in rows]
    for i, (a, b) in enumerate(zip(keys, keys[1:])):
        if b < a:
            problems.append(f"trace line {i + 2} out of (tick, node, msg) order: {b} after {a}")
            break
    for t, _node, _realm, event, msg, name, detail in rows:
        if event != "DELIVER":
            continue
        nap = detail.split()[0].removeprefix("nap=")
        if not wl.bindings.bound_at(name, nap, t):
            problems.append(f"msg {msg} delivered to {name} at {nap}, t={t}, "
                            f"where the schedule has no binding")
    return problems


def sim_stats(rows) -> dict:
    events = Counter(e for _t, _n, _r, e, _m, _na, _d in rows)
    drops = Counter(d.split()[0] for _t, _n, _r, e, _m, _na, d in rows if e == "DROP")
    return {"trace_lines": len(rows), "events": dict(sorted(events.items())),
            "drops": dict(sorted(drops.items()))}


def timeline_outcomes(wl, calls, format_name) -> tuple[int, list[str]]:
    """Check each timeline call against the generator's record; a call that
    fails where the generator does not expect it is a problem too.

    Returns (completed, problems)."""
    problems = []
    if len(calls) != len(wl.ops):
        return 0, [f"{len(calls)} calls made for {len(wl.ops)} operations"]
    completed = 0
    for op, call in zip(wl.ops, calls):
        where = f"{op.kind} t={op.tick} {op.caller} -> {op.target}"
        if op.kind == "pull":
            done = call.result is not None
            if done:
                want = wl.payloads[op.target]
                bodies = {body for _nap, _name, body in call.deliveries}
                if call.result != want or bodies != {want}:
                    problems.append(f"{where}: got {sorted(bodies)}, want {want!r}")
        elif op.kind == "push":
            done = bool(call.deliveries)
            bodies = {body for _nap, _name, body in call.deliveries}
            if done and bodies != {op.body.encode()}:
                problems.append(f"{where}: pushed {op.body!r}, delivered {sorted(bodies)}")
        elif op.kind == "publish":
            reached = {format_name(name) for _nap, name, _body in call.deliveries}
            done = reached == wl.subscribers[op.target]
            if reached - wl.subscribers[op.target]:
                problems.append(f"{where}: reached non-subscribers "
                                f"{sorted(reached - wl.subscribers[op.target])}")
        elif op.kind == "subscribe":
            done = call.result == b"subscribed"
        else:  # search
            done = call.search_result is not None
            if done:
                got = [format_name(n) for n in call.search_result.names]
                want = wl.search_oracle(op.target.split())
                if got != want:
                    problems.append(f"{where}: search returned {got}, linear scan {want}")
        if done:
            completed += 1
        elif not op.expect_fail:
            problems.append(f"{where}: failed unexpectedly: {call.error}")
    return completed, problems


def catalog_outcome(wl, query, names, body) -> list[str]:
    """One closed-loop call: the search equals the scan, the pull the payload."""
    want = wl.search_oracle(query)
    if names != want or not want:
        return [f"search {query}: returned {names}, linear scan {want}"]
    if body != wl.payloads[want[0]]:
        return [f"pull {want[0]}: got {body!r}, want {wl.payloads[want[0]]!r}"]
    return []

"""Seeded workload generators.

Each generator takes a seed and sizes and returns program inputs only:
scenario text (plus, for ``catalog``, a list of closed-loop calls).  It
also returns the generator's own record of what it asked for -- payloads,
keyword tables, binding schedules and operations -- which the checks use
as an oracle that owes nothing to the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

CALL_OPS = ("pull", "push", "publish", "subscribe", "search", "fetch")


@dataclass(frozen=True)
class Op:
    """One user operation of a timeline, in the generator's own terms."""

    tick: int
    kind: str
    caller: str
    target: str
    body: str = ""
    expect_fail: bool = False


@dataclass
class BindingSchedule:
    """Where each name is bound over time: (uri, nap) -> [start, end) ticks."""

    intervals: dict[tuple[str, str], list[list[int]]] = field(default_factory=dict)

    def bind(self, uri: str, nap: str, tick: int) -> None:
        spans = self.intervals.setdefault((uri, nap), [])
        if spans and spans[-1][1] is None:
            return
        spans.append([tick, None])

    def unbind(self, uri: str, nap: str, tick: int) -> None:
        self.intervals[(uri, nap)][-1][1] = tick

    def bound_at(self, uri: str, nap: str, tick: int) -> bool:
        # Timeline actions of a tick run before the traffic of that tick,
        # so a binding made at t covers t and one dropped at t does not.
        return any(start <= tick and (end is None or tick < end)
                   for start, end in self.intervals.get((uri, nap), ()))


@dataclass
class Workload:
    """Program inputs plus the generator's record of them.

    `ops` are the timeline's calls in the order the engine fires them;
    `calls` are `catalog`'s closed-loop calls as (client, keywords)."""

    name: str
    seed: int
    scenario_text: str
    payloads: dict[str, bytes]
    keywords: dict[str, frozenset[str]]
    bindings: BindingSchedule
    ops: list[Op]
    calls: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    subscribers: dict[str, set[str]] = field(default_factory=dict)

    @property
    def ops_per_round(self) -> int:
        return len(self.calls) if self.calls else len(self.ops)

    def search_oracle(self, keywords) -> list[str]:
        """Linear scan over the generator's keyword table, sorted by URI."""
        wanted = {k.lower() for k in keywords}
        return sorted(uri for uri, kws in self.keywords.items() if wanted <= kws)


class _Text:
    def __init__(self):
        self.sections: dict[str, list[str]] = {}

    def add(self, section: str, line: str) -> None:
        self.sections.setdefault(section, []).append(line)

    def render(self, header: str) -> str:
        out = [f"# {header}", ""]
        for name, lines in self.sections.items():
            out.append(f"[{name}]")
            out.extend(lines)
            out.append("")
        return "\n".join(out)


def _payload(rng: Random) -> bytes:
    return f"pl-{rng.getrandbits(48):012x}".encode()


def _attach(rng: Random, routers: list[str], count: int) -> list[str]:
    """Routers for `count` hosts: as even a share each as possible, seeded order.

    The topology's shape stays the same across seeds so that a seed changes
    which host does what, not how much routing work the run needs."""
    slots = [routers[i % len(routers)] for i in range(count)]
    rng.shuffle(slots)
    return slots


def _record(uri, proto, fcn, tech, hop, location, tags="-") -> str:
    return f"{uri},{proto},{fcn or '-'},{tech},{hop},0,100,{tags},{location},-,-"


# ------------------------------------------------------------- bridge-pull


def bridge_pull(seed: int, hosts: int = 100, pulls: int = 100, names: int = 50,
                gap: int = 5) -> Workload:
    """Routing-bound: hosts on an IPISH router chain, one name-router into a
    CCNISH chain, one repo; every pull crosses the bridge."""
    rng = Random(f"bridge-pull:{seed}")
    s = _Text()
    s.add("realms", "ipnet,IPISH,-")
    s.add("realms", "ccnet,CCNISH,-")
    s.add("name_realms", "content.org,hierarchical,published objects")
    s.add("name_realms", "users,hierarchical,user endpoints")
    routers = [f"r{i:02d}" for i in range(max(2, hosts // 20))]
    ccn = [f"c{i:02d}" for i in range(max(2, hosts // 40))]
    host_ids = [f"h{i:03d}" for i in range(hosts)]
    for r in routers:
        s.add("nodes", f"{r},router,ipnet")
    for h in host_ids:
        s.add("nodes", f"{h},host,ipnet")
    s.add("nodes", "nrs1,nrs,ipnet")
    s.add("nodes", "rn,name_router,ipnet+ccnet")
    for c in ccn:
        s.add("nodes", f"{c},ccn_router,ccnet")
    s.add("nodes", "repo,repo,ccnet")
    for i, (a, b) in enumerate(zip(routers, routers[1:])):
        s.add("links", f"{a},{b},ipnet,{1 + i % 3}")
    for h, r in zip(host_ids, _attach(rng, routers, hosts)):
        s.add("links", f"{h},{r},ipnet,1")
    s.add("links", f"nrs1,{routers[len(routers) // 2]},ipnet,1")
    s.add("links", f"rn,{routers[-1]},ipnet,1")
    chain = ["rn", *ccn, "repo"]
    for a, b in zip(chain, chain[1:]):
        s.add("links", f"{a},{b},ccnet,1")

    payloads, keywords = {}, {}
    items = [f"n2n://content.org:item-{i:02d}" for i in range(names)]
    for i, uri in enumerate(items):
        payloads[uri] = _payload(rng)
        keywords[uri] = frozenset({"item", f"n{i:02d}"})
        s.add("entities", f"{uri},content,repo,content.org/item-{i:02d},"
                          f"{payloads[uri].decode()},item n{i:02d},catalogue item")
    bindings = BindingSchedule()
    users = [f"n2n://users:u{i:03d}" for i in range(hosts)]
    for user, h in zip(users, host_ids):
        s.add("bindings", f"{user},{h}.ipnet")
        bindings.bind(user, f"{h}.ipnet", 0)
    for i, uri in enumerate(items):
        fcn = f"content.org/item-{i:02d}"
        s.add("nrs", _record(uri, "CCNISH_OVER_UDPISH", fcn, "IPISH", "rn", "ipnet"))
        s.add("nrs", _record(uri, "CCNISH_OVER_UDPISH", fcn, "CCNISH", ccn[0], "ccnet"))
    ops = []
    callers = users[:]
    rng.shuffle(callers)
    for k in range(pulls):
        # Users take turns, so every router sends the same share of pulls.
        op = Op(k * gap, "pull", callers[k % hosts], rng.choice(items))
        ops.append(op)
        s.add("timeline", f"{op.tick},pull,{op.caller},{op.target}")
    text = s.render(f"bridge-pull seed={seed} hosts={hosts} pulls={pulls} names={names}")
    return Workload("bridge-pull", seed, text, payloads, keywords, bindings, ops)


# ----------------------------------------------------------------- catalog


def catalog(seed: int, objects: int = 1500, repos: int = 4, clients: int = 4,
            calls: int = 100, vocab: int = 400, per_object: int = 4) -> Workload:
    """Resolution-bound: a large catalogue over several CCN repos, searched and
    pulled by a few closed-loop clients on a small topology."""
    rng = Random(f"catalog:{seed}")
    s = _Text()
    s.add("realms", "net,IPISH,-")
    s.add("realms", "lib,CCNISH,-")
    s.add("name_realms", "lib.org,hierarchical,catalogue objects")
    s.add("name_realms", "users,hierarchical,user endpoints")
    routers = ["rt0", "rt1", "rt2"]
    client_ids = [f"cl{i}" for i in range(clients)]
    cores = ["k0", "k1"]
    repo_ids = [f"rp{i}" for i in range(repos)]
    for c in client_ids:
        s.add("nodes", f"{c},host,net")
    for r in routers:
        s.add("nodes", f"{r},router,net")
    s.add("nodes", "ors1,ors,net")
    s.add("nodes", "nrs1,nrs,net")
    s.add("nodes", "rn,name_router,net+lib")
    for k in cores:
        s.add("nodes", f"{k},ccn_router,lib")
    for r in repo_ids:
        s.add("nodes", f"{r},repo,lib")
    for a, b in zip(routers, routers[1:]):
        s.add("links", f"{a},{b},net,1")
    for c, r in zip(client_ids, _attach(rng, routers, clients)):
        s.add("links", f"{c},{r},net,1")
    s.add("links", "ors1,rt0,net,1")
    s.add("links", "nrs1,rt1,net,1")
    s.add("links", f"rn,{routers[-1]},net,1")
    s.add("links", "rn,k0,lib,1")
    s.add("links", "k0,k1,lib,1")
    for i, r in enumerate(repo_ids):
        s.add("links", f"{r},{cores[i % len(cores)]},lib,1")

    words = [f"w{i:03d}" for i in range(vocab)]
    payloads, keywords = {}, {}
    for i in range(objects):
        uri = f"n2n://lib.org:obj/{i:05d}"
        kws = sorted(set(rng.sample(words, per_object)))
        payloads[uri] = _payload(rng)
        keywords[uri] = frozenset(kws)
        s.add("entities", f"{uri},content,{repo_ids[i % repos]},lib.org/obj/{i:05d},"
                          f"{payloads[uri].decode()},{' '.join(kws)},catalogue object")
    bindings = BindingSchedule()
    client_names = [f"n2n://users:client{i}" for i in range(clients)]
    for name, c in zip(client_names, client_ids):
        s.add("bindings", f"{name},{c}.net")
        bindings.bind(name, f"{c}.net", 0)
    # One prefix record leads the IPISH side to the name-router; the CCNISH
    # side needs a record per object, since each carries its own FCN.
    s.add("nrs", _record("n2n://lib.org:obj", "CCNISH_OVER_UDPISH", "lib.org/obj",
                         "IPISH", "rn", "net"))
    for i in range(objects):
        s.add("nrs", _record(f"n2n://lib.org:obj/{i:05d}", "CCNISH_OVER_UDPISH",
                             f"lib.org/obj/{i:05d}", "CCNISH", "k0", "lib"))
    uris = sorted(payloads)
    call_list = []
    for k in range(calls):
        # Targets take the repos in turn, so near and far repos share the calls
        # equally on every seed.
        target = uris[rng.randrange(objects // repos) * repos + k % repos]
        query = tuple(rng.sample(sorted(keywords[target]), 2))
        call_list.append((client_names[k % clients], query))
    text = s.render(f"catalog seed={seed} objects={objects} repos={repos} "
                    f"clients={clients} calls={calls}")
    return Workload("catalog", seed, text, payloads, keywords, bindings, [],
                    calls=call_list)


# ------------------------------------------------------------------- churn

# The stub realm's part of the timeline is fixed; only the rest of the
# workload depends on the seed.  Its pulls outside the partition fail on
# every seed because the vault's return path leaves through the first
# name-router by id (nr-a), which does not border the stub realm.
EPOCH = 400
EPOCHS = 4
CALL_WINDOW = 200
# Each epoch's calls start this many ticks in, so the first publish comes
# well after the subscriptions made at ticks 1-8 have reached the
# rendezvous node (at most 8 ticks away); otherwise, on some seeds, it
# would race them and miss a subscriber.
CALL_START = 30
MAKE_AT = 150
BREAK_AT = 350
PARTITION_AT = 700
HEAL_AT = 1100
STUB_FAILING = [20 + 30 * k for k in range(10)] + [1210 + 30 * k for k in range(10)]
STUB_LOCAL = [760 + 40 * k for k in range(5)]
STUB_OBJECTS = 5
LATE_REGISTER_AT = 390
WITHDRAW_AT = 1150


def churn(seed: int, mobile: int = 16, static: int = 8, objects: int = 60,
          hosts: int = 24, teams: int = 5) -> Workload:
    """Writes beside reads: mobile users rebinding make-before-break, pushes to
    multi-homed names, NRS register/withdraw, a partitioned stub realm served
    by disaster-tagged records, pub/sub and access policies, with content in a
    nested CCNISH realm whose hops tunnel through the parent."""
    rng = Random(f"churn:{seed}")
    s = _Text()
    s.add("realms", "core,IPISH,-")
    s.add("realms", "vault,CCNISH,core")
    s.add("realms", "stub,IPISH,-")
    for realm, what in (("vault.org", "vaulted objects"), ("users", "user endpoints"),
                        ("team", "multi-homed groups"), ("blocked", "refused principals")):
        s.add("name_realms", f"{realm},hierarchical,{what}")
    routers = [f"cr{i}" for i in range(5)]
    host_ids = [f"ch{i:02d}" for i in range(hosts)]
    vault = [f"v{i:02d}" for i in range(6)]
    for r in routers:
        s.add("nodes", f"{r},router,core")
    for h in host_ids:
        s.add("nodes", f"{h},host,core")
    for node, kind in (("cnrs", "nrs"), ("cors", "ors"), ("rdv", "rendezvous")):
        s.add("nodes", f"{node},{kind},core")
    s.add("nodes", "nr-a,name_router,core+vault")
    s.add("nodes", "nr-b,name_router,core+stub+vault")
    for v in vault:
        s.add("nodes", f"{v},ccn_router,core+vault")
    s.add("nodes", "vr0,repo,core+vault")
    s.add("nodes", "vr1,repo,core+vault")
    for node, kind in (("sh0", "host"), ("sr", "router"), ("sc", "server"), ("snrs", "nrs")):
        s.add("nodes", f"{node},{kind},stub")

    for i, (a, b) in enumerate(zip(routers, routers[1:])):
        s.add("links", f"{a},{b},core,{1 + i % 2}")
    for h, r in zip(host_ids, _attach(rng, routers, hosts)):
        s.add("links", f"{h},{r},core,1")
    for node, r in (("cnrs", routers[2]), ("cors", routers[1]), ("rdv", routers[3])):
        s.add("links", f"{node},{r},core,1")
    s.add("links", f"nr-a,{routers[-1]},core,1")
    s.add("links", f"nr-b,{routers[0]},core,1")
    vault_links = [("nr-a", vault[0])] + list(zip(vault, vault[1:])) + \
        [(vault[-1], "vr0"), (vault[3], "vr1")]
    for a, b in vault_links:
        s.add("links", f"{a},{b},vault,1")
        s.add("links", f"{a},{b},core,1")  # carries the tunnelled hop
    s.add("links", f"nr-b,{vault[-1]},vault,1")
    for node in ("sh0", "sc", "snrs", "nr-b"):
        s.add("links", f"{node},sr,stub,1")

    words = [f"k{i:02d}" for i in range(40)]
    uris = [f"n2n://vault.org:obj-{i:04d}" for i in range(objects)]
    stub_set = uris[:STUB_OBJECTS]
    late = uris[objects - objects // 6:]
    withdrawn = uris[objects - 2 * (objects // 6):objects - objects // 6]
    payloads, keywords = {}, {}
    for i, uri in enumerate(uris):
        kws = sorted(set(rng.sample(words, 3)))
        payloads[uri] = _payload(rng)
        keywords[uri] = frozenset(kws)
        hosts_of = ("vr0", "vr1")[i % 2] + ("+sc" if uri in stub_set else "")
        s.add("entities", f"{uri},content,{hosts_of},vault.org/obj-{i:04d},"
                          f"{payloads[uri].decode()},{' '.join(kws)},vaulted object")

    def records(uri):
        fcn = "vault.org/" + uri.split(":", 2)[2]
        return [_record(uri, "CCNISH_OVER_UDPISH", fcn, "IPISH", "nr-a", "core"),
                _record(uri, "CCNISH_OVER_UDPISH", fcn, "CCNISH", vault[0], "vault")]

    for uri in uris:
        if uri not in late:
            for rec in records(uri):
                s.add("nrs", rec)
    for uri in stub_set:
        s.add("nrs", _record(uri, "HTTPISH", "", "IPISH", "nr-b", "stub", "normal"))
        s.add("nrs", _record(uri, "HTTPISH", "", "IPISH", "sc", "stub", "disaster"))

    for router in ("nr-a", "nr-b"):
        s.add("policies", f"{router},n2n://blocked:spam,deny,any")
        s.add("policies", f"{router},n2n://users:intruder,deny,pull")
        s.add("policies", f"{router},n2n://team:outsiders,deny,push")
        s.add("policies", f"{router},n2n://users:guest,deny,publish")
    s.add("topics", "topic/news,rdv")

    bindings = BindingSchedule()
    naps = [f"{h}.core" for h in host_ids]
    mobiles = [f"n2n://users:m{i:02d}" for i in range(mobile)]
    statics = [f"n2n://users:s{i:02d}" for i in range(static)]
    team_names = [f"n2n://team:g{i}" for i in range(teams)]
    stub_user = "n2n://users:stub0"
    at = {}
    for user, nap in zip(mobiles + statics, naps * 2):
        at[user] = nap
        s.add("bindings", f"{user},{at[user]}")
        bindings.bind(user, at[user], 0)
    for team in team_names:
        for nap in rng.sample(naps, 3):
            s.add("bindings", f"{team},{nap}")
            bindings.bind(team, nap, 0)
    s.add("bindings", f"{stub_user},sh0.stub")
    bindings.bind(stub_user, "sh0.stub", 0)

    timeline: list[tuple[int, int, str, Op | None]] = []

    def act(tick, line, call=None):
        timeline.append((tick, len(timeline), f"{tick},{line}", call))

    def op(tick, kind, caller, target, body=""):
        call = Op(tick, kind, caller, target, body,
                  expect_fail=caller == stub_user and tick not in STUB_LOCAL)
        act(tick, ",".join([kind, caller, target] + ([body] if body else [])), call)

    def targets(epoch, count):
        """`count` pull targets with a fixed skew: low ranks are popular.

        The seed decides which object holds which rank, but only among objects
        on the same repo, so the share of near and far pulls is seed-free."""
        pool = [u for u in uris
                if not (u in late and epoch < 1) and not (u in withdrawn and epoch > 2)]
        relabel = list(range(len(pool)))
        for parity in (0, 1):
            same_repo = relabel[parity::2]
            rng.shuffle(same_repo)
            relabel[parity::2] = same_repo
        return [pool[relabel[int(len(pool) * ((k + 0.5) / count) ** 2)]] for k in range(count)]

    subscribers = statics[:4] + mobiles[:4]
    for k, user in enumerate(subscribers):
        op(1 + k, "subscribe", user, "topic/news")
    for epoch in range(EPOCHS):
        base = epoch * EPOCH
        pullers = [user for user in mobiles for _ in range(3)] + statics
        calls = [("pull", user, target, "")
                 for user, target in zip(pullers, targets(epoch, len(pullers)))]
        calls += [("push", statics[k % static], team_names[k % teams],
                   f"msg-{rng.getrandbits(32):08x}") for k in range(10)]
        calls += [("publish", statics[k % static], "topic/news",
                   f"news-{rng.getrandbits(32):08x}") for k in range(4)]
        for _ in range(4):
            target = rng.choice(uris)
            calls.append(("search", rng.choice(statics),
                          " ".join(rng.sample(sorted(keywords[target]), 2)), ""))
        # Evenly spaced in the window, in seeded order: how many calls are in
        # flight at once, and so how long each waits, is the same on every seed.
        rng.shuffle(calls)
        for k, (kind, caller, target, body) in enumerate(calls):
            op(base + CALL_START + k * (CALL_WINDOW - CALL_START) // len(calls),
               kind, caller, target, body)
        if epoch == EPOCHS - 1:
            continue
        shift = rng.randrange(1, len(naps))
        for user in mobiles:
            old = at[user]
            new = naps[(naps.index(old) + shift) % len(naps)]
            act(base + MAKE_AT, f"bind,{user},{new}")
            act(base + BREAK_AT, f"unbind,{user},{old}")
            bindings.bind(user, new, base + MAKE_AT)
            bindings.unbind(user, old, base + BREAK_AT)
            at[user] = new
    for k, tick in enumerate(sorted(STUB_FAILING + STUB_LOCAL)):
        op(tick, "pull", stub_user, stub_set[k % STUB_OBJECTS])
    for uri in late:
        for rec in records(uri):
            act(LATE_REGISTER_AT, f"nrs_register,{rec}")
    for uri in withdrawn:
        act(WITHDRAW_AT, f"nrs_withdraw,{uri},nr-a")
        act(WITHDRAW_AT, f"nrs_withdraw,{uri},{vault[0]}")
    act(PARTITION_AT, "partition,stub")
    act(HEAL_AT, "heal,stub")
    timeline.sort(key=lambda entry: entry[:2])
    for _tick, _order, line, _call in timeline:
        s.add("timeline", line)
    # The engine fires a tick's actions in file order, so this is call order.
    ops = [call for *_, call in timeline if call is not None]
    text = s.render(f"churn seed={seed} mobile={mobile} static={static} "
                    f"objects={objects} hosts={hosts}")
    return Workload("churn", seed, text, payloads, keywords, bindings, ops,
                    subscribers={"topic/news": set(subscribers)})


GENERATORS = {"bridge-pull": bridge_pull, "catalog": catalog, "churn": churn}

# Sizes of the measured runs and of the smoke mode.
SIZES = {
    "full": {"bridge-pull": {}, "catalog": {}, "churn": {}},
    "smoke": {
        "bridge-pull": {"hosts": 20, "pulls": 20, "names": 10},
        "catalog": {"objects": 60, "calls": 12, "vocab": 30},
        "churn": {"mobile": 4, "static": 3, "objects": 18, "hosts": 8},
    },
}


def generate(name: str, seed: int, size: str = "full") -> Workload:
    return GENERATORS[name](seed, **SIZES[size][name])

from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import internames
from internames.cli import main
from internames.errors import InvalidStep, ParseError, ValidationError
from internames.fabric import EventKind
from internames.names import Name
from internames.scenario import (
    BUILTIN_NAMES,
    TIMELINE_OPS,
    ActionSpec,
    BindingSpec,
    EntitySpec,
    LinkSpec,
    MigrationPlan,
    NameRealmSpec,
    NodeSpec,
    PolicySpec,
    RealmSpec,
    RecordSpec,
    Scenario,
    TopicSpec,
    apply_migration,
    build_fabric,
    diff_trace,
    golden_trace,
    load_builtin,
    parse_plan,
    parse_scenario,
    run_scenario,
    save_scenario,
)

from conftest import CROSS_REALM

ALL_SOURCES = ("fig3", "mobility-return", "reverse-multicast", "disaster", "cdn")

MINIMAL = """
[realms]
net,IPISH,-

[nodes]
a,host,net
b,host,net

[links]
a,b,net,1

[bindings]
n2n://users:x,a.net
"""


def test_builtins_load():
    fig3 = load_builtin("fig3")
    ip = [r for r in fig3.realms if r.technology == "IPISH"]
    ccn = [r for r in fig3.realms if r.technology == "CCNISH"]
    assert len(ip) == 1 and len(ccn) == 1
    kinds = {n.id: n.kind for n in fig3.nodes}
    assert kinds["RN1"] == "name_router"
    assert "ors" in kinds.values() and "nrs" in kinds.values()
    assert set(BUILTIN_NAMES) == {
        "fig3", "mobility-return", "reverse-multicast", "disaster", "migration",
    }


def test_unknown_builtin():
    with pytest.raises(ParseError):
        load_builtin("nope")


def test_load_save_load_fixpoint_on_all_builtins():
    for name in ALL_SOURCES + ("migration",):
        s = load_builtin(name)
        assert parse_scenario(save_scenario(s), name=s.name) == s


# Values the format can carry: no commas, line breaks or edge whitespace in
# a field, no '+' inside a multi-valued field, no field that is '-' alone
# where '-' marks an empty one, and no line that starts with '#' or '['.
TOKEN = st.text(st.characters(whitelist_categories=("L", "N"), whitelist_characters="._:/-"),
                min_size=1, max_size=6).filter(lambda t: t != "-")
PHRASE = st.lists(TOKEN, min_size=1, max_size=3).map(" ".join)
BLANK_OR_PHRASE = st.just("") | PHRASE
TOKENS = st.lists(TOKEN, max_size=3).map(tuple)
INTS = st.integers(-10**6, 10**6)


def _records(spec, *fields):
    return st.lists(st.builds(spec, *fields), max_size=2).map(tuple)


def _action(op):
    kinds = TIMELINE_OPS[op].kinds
    arity = st.integers(11, 12) if kinds is None else st.just(len(kinds))
    arg = st.just("") | st.just("-") | PHRASE
    return arity.flatmap(lambda n: st.tuples(INTS, st.just(op), st.tuples(*[arg] * n)))


SCENARIOS = st.builds(
    Scenario,
    realms=_records(RealmSpec, TOKEN, TOKEN, st.none() | TOKEN),
    # A description may hold commas, trail one, or be left out.
    name_realms=_records(NameRealmSpec, TOKEN, TOKEN,
                         st.lists(BLANK_OR_PHRASE, max_size=3).map(",".join)),
    nodes=_records(NodeSpec, TOKEN, TOKEN, TOKENS),
    links=_records(LinkSpec, TOKEN, TOKEN, TOKEN, INTS),
    entities=_records(EntitySpec, TOKEN, TOKEN, TOKENS, BLANK_OR_PHRASE,
                      BLANK_OR_PHRASE.map(str.encode), TOKENS, BLANK_OR_PHRASE),
    bindings=_records(BindingSpec, TOKEN, TOKEN),
    nrs_records=_records(RecordSpec, TOKEN, TOKEN, BLANK_OR_PHRASE, TOKEN, TOKEN, INTS, INTS,
                         TOKENS, TOKENS, st.none() | st.tuples(INTS, INTS),
                         st.none() | TOKEN, st.none() | st.just("") | TOKEN),
    policies=_records(PolicySpec, TOKEN, TOKEN, TOKEN, TOKEN),
    topics=_records(TopicSpec, TOKEN, TOKEN),
    timeline=st.lists(st.sampled_from(sorted(TIMELINE_OPS)).flatmap(_action), max_size=4)
    .map(lambda actions: tuple(ActionSpec(*a) for a in actions)),
)


@given(SCENARIOS)
@example(Scenario(name_realms=(NameRealmSpec("users", "flat", "people,"),)))
def test_parse_inverts_save_on_every_section_and_op(s):
    # Validation would reject most drawn records; the format does not.
    with mock.patch("internames.scenario.validate_scenario"):
        assert parse_scenario(save_scenario(s), name=s.name) == s


HOST_RECORD = "n2n://users:x,HTTPISH,-,IPISH,a.net,0,100,-,-,-,-"


@pytest.mark.parametrize("nrs_lines,repeats", [
    ([HOST_RECORD], "the host record of [bindings] line n2n://users:x,a.net"),
    # The store keys a record by prefix, protocol, next hop and predicate.
    (["n2n://users:x,HTTPISH,-,IPISH,a.net,3,50,-,-,-,-,net"],
     "the host record of [bindings] line n2n://users:x,a.net"),
    (["n2n://users:y,HTTPISH,-,IPISH,b,0,100,t1+t2,-,-,-",
      "n2n://users:y,HTTPISH,-,IPISH,b,5,100,t2+t1,-,-,-"],
     "[nrs] line n2n://users:y,HTTPISH,-,IPISH,b,0,100,t1+t2,-,-,-"),
])
def test_duplicate_nrs_records_rejected(nrs_lines, repeats):
    with pytest.raises(ValidationError) as info:
        parse_scenario(MINIMAL + "[nrs]\n" + "\n".join(nrs_lines) + "\n")
    assert str(info.value).endswith(f": repeats {repeats}")
    assert str(info.value).startswith(f"nrs record {nrs_lines[-1]}")


def test_nrs_record_beside_host_record_builds():
    text = MINIMAL + "[nrs]\n" + HOST_RECORD.replace(",-,-,-,-", ",lab,-,-,-") + "\n"
    assert len(build_fabric(parse_scenario(text)).nrs.records()) == 2


# Each object's URI appears in an entity, an [nrs] record, a binding and
# the timeline; the two records share one predicate.
NAMED_OFTEN = MINIMAL + """
[entities]
n2n://shop:item/1,content,b,-,one,item,first
n2n://shop:item/2,content,b,-,two,item,second

[bindings]
n2n://shop:item/1,b.net
n2n://shop:item/2,b.net

[nrs]
n2n://shop:item/1,HTTPISH,-,IPISH,b,0,100,lab,-,-,-
n2n://shop:item/2,HTTPISH,-,IPISH,b,0,100,lab,-,-,-

[timeline]
1,pull,n2n://users:x,n2n://shop:item/1
2,pull,n2n://users:x,n2n://shop:item/2
"""


def test_set_up_builds_each_name_once_per_step(monkeypatch):
    built = Counter()
    post_init = Name.__post_init__

    def counted(name):
        post_init(name)
        built[f"n2n://{name.realm_id}:{'/'.join(name.segments)}"] += 1

    monkeypatch.setattr(Name, "__post_init__", counted)
    once = dict.fromkeys(["n2n://users:x", "n2n://shop:item/1", "n2n://shop:item/2"], 1)
    # The second round must count the same: nothing is memoised across calls.
    for _ in range(2):
        built.clear()
        s = parse_scenario(NAMED_OFTEN)
        assert built == once
        built.clear()
        fabric = build_fabric(s)
        assert built == once
    item1, item2 = [r for r in fabric.nrs.records() if r.prefix.realm_id == "shop"
                    and r.sd.next_hop_address == "b"]
    assert item1.predicate is item2.predicate


@pytest.mark.parametrize("section,line,message", [
    ("nrs", "n2n://users:y,CCNISH_OVER_UDPISH,-,IPISH,b,0,100,-,-,-,-",
     "nrs record n2n://users:y: CCNISH_OVER_UDPISH descriptors need a non-empty fcn in line "
     "n2n://users:y,CCNISH_OVER_UDPISH,-,IPISH,b,0,100,-,-,-,-"),
    ("nrs", "n2n://users:y,HTTPISH,-,IPISH,b,-1,100,-,-,-,-",
     "nrs record n2n://users:y: priority and ttl_ticks must be >= 0 in line "
     "n2n://users:y,HTTPISH,-,IPISH,b,-1,100,-,-,-,-"),
    ("timeline", "1,nrs_register,n2n://users:y,TELEPATHY,-,IPISH,nowhere,0,100,-,-,-,-",
     "timeline t=1 nrs_register: unknown protocol TELEPATHY"),
], ids=["ccn-without-fcn", "negative-priority", "op-unknown-protocol"])
def test_records_the_nrs_cannot_hold_are_rejected(section, line, message):
    # An [nrs] line and an nrs_register op pass the same record checks.
    with pytest.raises(ValidationError) as info:
        parse_scenario(MINIMAL + f"[{section}]\n{line}\n")
    assert str(info.value) == message


@pytest.mark.parametrize("text,error", [
    ("[nodes]\nn1,host,nowhere\n", ValidationError),
    ("[realms]\nnet,IPISH,-\n[links]\na,b,net,1\n", ValidationError),
    ("[realms]\nnet,WIFI,-\n", ValidationError),
    ("[realms]\nnet,IPISH,-\nnet,IPISH,-\n", ValidationError),
    ("[whatever]\nx\n", ParseError),
    ("stray line\n", ParseError),
    ("[realms]\nnet,IPISH\n", ParseError),
    ("[timeline]\n5,pull,n2n://u:a,n2n://u:b\n1,pull,n2n://u:a,n2n://u:b\n", ValidationError),
    ("[timeline]\n0,teleport,x\n", ParseError),
    ("[bindings]\nn2n://u:x,ghost.net\n", ValidationError),
])
def test_invalid_scenarios_rejected(text, error):
    with pytest.raises(error):
        parse_scenario(text)


def test_topic_rendezvous_must_be_a_rendezvous_node():
    text = CROSS_REALM.replace("sports/news,rvX", "sports/news,host3a")
    with pytest.raises(ValidationError, match="host3a is not a rendezvous node"):
        parse_scenario(text)


def test_empty_timeline_trace_has_only_rebinds():
    result = run_scenario(parse_scenario(MINIMAL, name="minimal"))
    assert {e.event for e in result.fabric.trace} == {EventKind.REBIND}


def test_scenario_runs_are_deterministic():
    for name in ALL_SOURCES:
        s = load_builtin(name)
        assert run_scenario(s).trace_text == run_scenario(s).trace_text


def test_diff_trace_identical_and_perturbed():
    trace = run_scenario(load_builtin("fig3")).trace_text + "\n"
    assert diff_trace(trace, trace) == (0, "traces identical")
    lines = trace.splitlines()
    lines[2] = lines[2].replace("t=", "t=9")
    status, message = diff_trace(trace, "\n".join(lines) + "\n")
    assert status == 1
    assert "line 3" in message
    status, message = diff_trace(trace, trace + "extra\n")
    assert status == 1 and "longer" in message


def test_builtins_match_frozen_goldens():
    for name in BUILTIN_NAMES:
        actual = run_scenario(load_builtin(name)).trace_text + "\n"
        assert diff_trace(actual, golden_trace(name))[0] == 0, name


def test_empty_migration_plan_is_identity():
    s = load_builtin("cdn")
    assert apply_migration(s, MigrationPlan()) == s


def test_plan_parsing_and_bad_steps():
    plan = parse_plan("replace_authoritative_resolver\n")
    assert len(plan.steps) == 1
    with pytest.raises(ParseError):
        parse_plan("warp_drive,now\n")
    with pytest.raises(ParseError):
        parse_plan("deploy_nested_realm,too,few\n")


def test_invalid_migration_steps():
    s = load_builtin("cdn")
    with pytest.raises(InvalidStep):
        apply_migration(s, parse_plan("deploy_nested_realm,net,IPISH,net,r1,r2,rtrC\n"))
    with pytest.raises(InvalidStep):
        apply_migration(s, parse_plan(
            "update_nrs,n2n://cp.com:ghost,CCNISH_OVER_UDPISH,f,CCNISH,cdn,0,100,-,-,-,-\n"))
    bare = parse_scenario(MINIMAL, name="bare")
    with pytest.raises(InvalidStep):
        apply_migration(bare, parse_plan("replace_authoritative_resolver\n"))


@pytest.mark.parametrize("step, problem", [
    ("deploy_nested_realm,cpccn,CCNISH,nowhere,RNC,repoC,rtrC",
     "realm cpccn: undefined parent nowhere"),
    ("deploy_nested_realm,cpccn,CCNISH,net,RNC,repoC,ghost",
     "link references undefined node ghost"),
    ("deploy_nested_realm,cpccn,WIFI,net,RNC,repoC,rtrC",
     "realm cpccn: unknown technology WIFI"),
    ("deploy_nested_realm,cpccn,CCNISH,net,cdn,repoC,rtrC",
     "duplicate node cdn"),
    ("update_nrs,n2n://cp.com:video,CCNISH_OVER_UDPISH,-,IPISH,cdn,0,100,-,-,-,-",
     "CCNISH_OVER_UDPISH descriptors need a non-empty fcn"),
], ids=["undefined-parent", "undefined-attach", "unknown-technology", "router-is-a-node",
        "record-the-nrs-cannot-hold"])
def test_migration_step_whose_result_fails_validation(step, problem):
    with pytest.raises(InvalidStep) as info:
        apply_migration(load_builtin("cdn"), parse_plan(step + "\n"))
    assert str(info.value).startswith(f"{step}: ")
    assert problem in str(info.value)


def test_migration_keeps_old_path_pullable():
    before = load_builtin("cdn")
    after = load_builtin("migration")
    prefixes_before = {r.prefix for r in before.nrs_records}
    prefixes_after = {r.prefix for r in after.nrs_records}
    assert prefixes_before <= prefixes_after
    old_records = set(before.nrs_records)
    assert old_records <= set(after.nrs_records)


# ----------------------------------------------------------------------- CLI


def test_cli_run_builtin(capsys, tmp_path):
    assert main(["run", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "event=DELIVER" in out
    trace_file = tmp_path / "t.txt"
    assert main(["run", "fig3", "--trace", str(trace_file)]) == 0
    assert trace_file.read_text() == out


def test_cli_bless_writes_user_golden_beside_scenario_file(tmp_path, capsys):
    scn = tmp_path / "mine.scn"
    scn.write_text(save_scenario(load_builtin("fig3")))
    package_golden = Path(internames.__file__).parent / "scenarios" / "mine.golden"
    try:
        assert main(["run", str(scn), "--bless"]) == 0
        assert not package_golden.exists()
    finally:
        package_golden.unlink(missing_ok=True)
    out = capsys.readouterr().out
    assert (tmp_path / "mine.golden").read_text() == out
    assert main(["diff", str(scn), str(tmp_path / "mine.golden")]) == 0
    capsys.readouterr()


def test_cli_run_until(capsys):
    assert main(["run", "fig3", "--until", "4"]) == 0
    out = capsys.readouterr().out
    assert "event=ORS_R" in out
    assert "event=DELIVER" not in out


def test_cli_diff_match_and_mismatch(tmp_path, capsys):
    assert main(["diff", "fig3", "fig3"]) == 0
    bad = tmp_path / "bad.golden"
    bad.write_text("t=0 node=x realm=y event=SEND msg=1 name=- detail=-\n")
    assert main(["diff", "fig3", str(bad)]) == 1
    capsys.readouterr()


def test_cli_parse_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.scn"
    assert main(["run", str(missing)]) == 2
    broken = tmp_path / "broken.scn"
    broken.write_text("[nodes]\nn1,host,nowhere\n")
    assert main(["run", str(broken)]) == 2
    capsys.readouterr()


def test_cli_migrate(tmp_path, capsys):
    plan = tmp_path / "plan"
    plan.write_text("replace_authoritative_resolver\n")
    assert main(["migrate", "cdn", str(plan)]) == 0
    out = capsys.readouterr().out
    assert "[realms]" in out
    bad_plan = tmp_path / "bad.plan"
    bad_plan.write_text("deploy_nested_realm,net,IPISH,net,a,b,rtrC\n")
    assert main(["migrate", "cdn", str(bad_plan)]) == 2
    capsys.readouterr()


def test_cli_list_builtin(capsys):
    assert main(["list-builtin"]) == 0
    assert capsys.readouterr().out.split() == list(BUILTIN_NAMES)

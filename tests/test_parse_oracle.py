"""parse_scenario reads a section a column at a time as the former reader
read it a line at a time.

The former per-line reader is kept below as the reference: on generated
blocks of every section, on generated scenarios with one line spoiled, and
on the builtins and the three benchmark workloads, parse_scenario gives the
same specs, of the same classes, or the same ParseError for the same line."""

import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from internames.errors import ParseError
from internames.scenario import (
    _SECTION_OF,
    SECTIONS,
    TIMELINE_OPS,
    Scenario,
    parse_scenario,
    save_scenario,
)

from test_scenario import ALL_SOURCES, SCENARIOS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # perfbench's generator; perfbench is not a package


def _parse_window(text):
    if text == "-":
        return None
    start, _, end = text.partition(":")
    try:
        return int(start), int(end)
    except ValueError:
        raise ValueError(f"bad window {text!r}") from None


# The former codecs' readers of one field; None keeps the field's text.
INT = int
NONE = lambda f: None if f == "-" else f
BLANK = lambda f: "" if f == "-" else f
PLUS = lambda f: () if f in ("-", "") else tuple(f.split("+"))
WORDS = lambda f: () if f == "-" else tuple(f.split())
BYTES = lambda f: b"" if f == "-" else f.encode()
WINDOW = _parse_window
REST = ",".join
ARGS = tuple
PARSERS = {
    "realms": (None, None, NONE),
    "name_realms": (None, None, REST),
    "nodes": (None, None, PLUS),
    "links": (None, None, None, INT),
    "entities": (None, None, PLUS, BLANK, BYTES, WORDS, BLANK),
    "bindings": (None, None),
    "nrs": (None, None, BLANK, None, None, INT, INT, PLUS, PLUS, WINDOW, NONE, NONE),
    "policies": (None, None, None, None),
    "topics": (None, None),
    "timeline": (INT, None, ARGS),
}


# The former Section.read, verbatim but for reading its parsers from the
# table above.
def read_line(self, line_fields):
    """The spec a line's stripped fields describe; ValueError if they cannot."""
    n = len(line_fields)
    if n < self.least or n > self.width and not self.rest:
        names = [f.name for f in self.fields]
        usage = ",".join(names[:self.least]) + "".join(
            f"[,{name}]" for name in names[self.least:])
        raise ValueError(f"[{self.name}] line needs {usage}, got {n} fields")
    if self.rest and n >= self.width:
        line_fields = [*line_fields[:self.width - 1], line_fields[self.width - 1:]]
    values = [f if p is None else p(f) for p, f in zip(PARSERS[self.name], line_fields)]
    values += self.defaults[len(values):]
    return tuple.__new__(self.spec, values) if issubclass(self.spec, tuple) else \
        self.spec(*values)


# The former parse_scenario, verbatim but for calling read_line.
def oracle_parse_scenario(text: str, name: str = "scenario") -> Scenario:
    records: dict[str, list] = {s.attr: [] for s in SECTIONS}
    section = rows = None
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = _SECTION_OF.get(line[1:-1])
                if section is None:
                    raise ParseError(f"line {lineno}: unknown section {line}")
                rows = records[section.attr]
                continue
            if section is None:
                raise ParseError(f"line {lineno}: record outside any section")
            rows.append(read_line(section, [f.strip() for f in line.split(",")]))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    return Scenario(name, **{attr: tuple(found) for attr, found in records.items()})


def outcome(parse, text):
    """Each section's specs with their classes, or the ParseError's text
    and that of the error it was raised from."""
    try:
        s = parse(text)
    except ParseError as exc:
        return str(exc), str(exc.__cause__)
    return [[(type(r), r) for r in getattr(s, section.attr)] for section in SECTIONS]


# --------------------------------------------------------- generated blocks

PAD = st.sampled_from(["", " ", "  ", "\t"])
TEXT = st.text(alphabet="ab1-+: ", max_size=4)
NUMBER = st.integers(-99, 999).map(str)
WINDOW_TEXT = st.just("-") | st.tuples(NUMBER, NUMBER).map(":".join)
FIELD = {INT: NUMBER, WINDOW: WINDOW_TEXT}
# Texts that a numeric field cannot be read from.
BAD = st.sampled_from(["x", "", "1.5", "1:", ":", "x:1", "1:2:3"])


@st.composite
def line_of(draw, section):
    """A line that section reads, or, one time in twenty, one that it may
    not: one field too few, one too many (past a rest field, still one it
    reads) or a numeric field it cannot read; or an unknown timeline op,
    which it reads and build_fabric refuses.  An [nrs] line has its scope
    or not, and a rest field none to three parts."""
    parsers = PARSERS[section.name]
    if section.name == "timeline":
        op = draw(st.sampled_from(sorted(TIMELINE_OPS)))
        kinds = TIMELINE_OPS[op].kinds
        arity = draw(st.integers(11, 12)) if kinds is None else len(kinds)
        fields = [draw(NUMBER), op, *draw(st.lists(TEXT, min_size=arity, max_size=arity))]
    else:
        most = section.width + (2 if section.rest else 0)
        fields = [draw(FIELD.get(parsers[min(i, section.width - 1)], TEXT))
                  for i in range(draw(st.integers(section.least, most)))]
    if draw(st.integers(0, 19)) == 0:
        fault = draw(st.sampled_from(["short", "long", "value", "op"]))
        numeric = [i for i, p in enumerate(parsers[:len(fields)]) if p in (INT, WINDOW)]
        if fault == "short":
            fields = fields[:section.least - 1]
        elif fault == "long":
            fields += [draw(TEXT)] * (section.width + 1 - len(fields))
        elif fault == "value" and numeric:
            fields[draw(st.sampled_from(numeric))] = draw(BAD)
        elif section.name == "timeline":
            fields[1] = "teleport"
    return ",".join(draw(PAD) + f + draw(PAD) for f in fields)


NOISE = st.sampled_from(["", "   ", "# a comment", "  # [nrs]", "\t"])


@st.composite
def block(draw):
    """A header, or one time in thirty an unknown one or a line before any
    header, then lines, comments and blank lines."""
    if draw(st.integers(0, 29)) == 0:
        return [draw(st.sampled_from(["[bogus]", "record outside any section"]))]
    section = draw(st.sampled_from(SECTIONS))
    return [draw(PAD) + f"[{section.name}]",
            *draw(st.lists(line_of(section) | NOISE, max_size=8))]


# Sections repeat, in any order.
BLOCKS = st.lists(block(), max_size=6).map(lambda bs: "\n".join(l for b in bs for l in b))


@given(BLOCKS)
@example("[nrs]\n" + "\n".join([
    "n2n://u:x,HTTPISH,-,IPISH,a,0,100,-,-,-,-",
    " n2n://u:y , HTTPISH,-,IPISH,a,1,9,t+u,-,1:5,anycast,net",
    "", "# between", "n2n://u:z,HTTPISH,-,IPISH,a,2,9,-,-,-,-,-"]))
@example("[name_realms]\nusers,flat, people , all ,\nshop,hierarchical\n"
         "[timeline]\n1,pull,a,b\n2,heal,net\n3,nrs_register,"
         "n2n://u:x,HTTPISH,-,IPISH,a,0,100,-,-,-,-\n[name_realms]\nx,flat,\n")
@example("[links]\na,b,net,1\na,b,net,x\na,b\n")
@example("[nrs]\na,b,c,d,e,1,2,-,-,1:,-,-\na,b,c,d,e,x,2,-,-,-,-\n[bogus]\n")
def test_column_reader_reads_generated_blocks_as_the_line_oracle(text):
    assert outcome(parse_scenario, text) == outcome(oracle_parse_scenario, text)


def _spoil(draw, line, section):
    """line with one field set to a value its codec cannot read, or, where
    it has no such field, cut one field short of the least the section
    takes."""
    fields = line.split(",")
    numeric = [i for i, p in enumerate(PARSERS[section.name][:len(fields)])
               if p in (INT, WINDOW)]
    if numeric:
        fields[draw(st.sampled_from(numeric))] = draw(st.sampled_from(["x", "", "1:x"]))
    else:
        fields = fields[:section.least - 1]
    return ",".join(fields)


@given(SCENARIOS, st.data())
def test_one_spoiled_line_fails_as_the_line_oracle_says(s, data):
    lines = save_scenario(s).splitlines()
    rows, section = [], None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = _SECTION_OF[line[1:-1]]
        elif line:
            rows.append((i, section))
    if not rows:
        return
    i, section = data.draw(st.sampled_from(rows))
    lines[i] = _spoil(data.draw, lines[i], section)
    text = "\n".join(lines)
    expected = outcome(oracle_parse_scenario, text)
    assert outcome(parse_scenario, text) == expected
    assert expected[0].startswith(f"line {i + 1}: ")


@pytest.mark.parametrize("source", [f"builtin {name}" for name in ALL_SOURCES]
                         + [f"workload {name}" for name in workloads.GENERATORS])
def test_builtins_and_workloads_read_as_the_line_oracle(source):
    kind, name = source.split()
    text = (resources.files("internames.scenarios").joinpath(f"{name}.scn").read_text()
            if kind == "builtin" else workloads.generate(name, 1).scenario_text)
    got = outcome(parse_scenario, text)
    assert isinstance(got, list) and any(got)
    assert got == outcome(oracle_parse_scenario, text)

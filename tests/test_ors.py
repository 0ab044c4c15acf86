import random

import pytest

from internames.errors import DuplicateName
from internames.names import EntityKind, NamedEntity, parse_name
from internames.ors import ObjectResolutionService, OrsQuery, OrsResult


def entity(uri, keywords, **meta):
    meta = {"keywords": keywords, **meta}
    return NamedEntity(parse_name(uri), EntityKind.CONTENT, b"data", meta)


def small_corpus():
    ors = ObjectResolutionService()
    ors.register(entity("n2n://ccn.com:article.pdf", "article,pdf"))
    ors.register(entity("n2n://ccn.com:video", "video,stream"))
    ors.register(entity("n2n://other:article", "article,draft", lang="en"))
    return ors


def test_register_then_search_by_keyword():
    ors = small_corpus()
    result = ors.search(OrsQuery(("article",)))
    assert parse_name("n2n://ccn.com:article.pdf") in result.names
    assert parse_name("n2n://other:article") in result.names


def test_duplicate_name_rejected():
    ors = small_corpus()
    with pytest.raises(DuplicateName):
        ors.register(entity("n2n://ccn.com:video", "other"))


def test_conjunctive_keywords():
    ors = small_corpus()
    assert len(ors.search(OrsQuery(("article", "pdf"))).entries) == 1
    assert len(ors.search(OrsQuery(("article", "stream"))).entries) == 0


def test_keywords_case_insensitive():
    ors = small_corpus()
    assert ors.search(OrsQuery(("ARTICLE",))).names == ors.search(OrsQuery(("article",))).names


def test_empty_query_returns_empty_result():
    ors = small_corpus()
    assert ors.search(OrsQuery()) == OrsResult()
    assert ors.search(OrsQuery(("  ",))).entries == ()


def test_metadata_filters_exact():
    ors = small_corpus()
    hit = ors.search(OrsQuery(("article",), {"lang": "en"}))
    assert hit.names == (parse_name("n2n://other:article"),)
    assert ors.search(OrsQuery(("article",), {"lang": "fr"})).entries == ()


def test_results_sorted_by_uri():
    ors = small_corpus()
    names = ors.search(OrsQuery(("article",))).names
    assert [str(n) for n in names] == sorted(str(n) for n in names)


def test_every_generated_entity_findable_by_own_keyword():
    rng = random.Random(7)
    ors = ObjectResolutionService()
    entities = []
    for i in range(50):
        kws = sorted({rng.choice("abcdefgh") + str(rng.randint(0, 3)) for _ in range(3)})
        e = entity(f"n2n://gen:item{i}", ",".join(kws))
        ors.register(e)
        entities.append((e, kws))
    for e, kws in entities:
        result = ors.search(OrsQuery((rng.choice(kws),)))
        assert e.name in result.names


def test_random_query_matches_linear_scan_oracle():
    rng = random.Random(11)
    ors = ObjectResolutionService()
    corpus = []
    for i in range(60):
        kws = {rng.choice("xyz") + str(rng.randint(0, 2)) for _ in range(rng.randint(1, 4))}
        e = entity(f"n2n://gen:obj{i}", ",".join(sorted(kws)))
        ors.register(e)
        corpus.append((e, kws))
    for _ in range(200):
        query = tuple(sorted({rng.choice("xyz") + str(rng.randint(0, 2))
                              for _ in range(rng.randint(1, 3))}))
        expected = sorted(
            (str(e.name) for e, kws in corpus if set(query) <= kws),
        )
        got = [str(n) for n in ors.search(OrsQuery(query)).names]
        assert got == expected


def test_search_monotone_in_keywords():
    ors = small_corpus()
    wide = set(ors.search(OrsQuery(("article",))).names)
    narrow = set(ors.search(OrsQuery(("article", "draft"))).names)
    assert narrow <= wide


def test_result_serialization_deterministic():
    a = small_corpus().search(OrsQuery(("article",))).to_text()
    b = small_corpus().search(OrsQuery(("article",))).to_text()
    assert a == b
    assert "n2n://" in a


def test_index_edge_queries_match_linear_scan_oracle():
    rng = random.Random(13)
    ors = ObjectResolutionService()
    corpus = []
    for i in range(60):
        kws = {rng.choice("xyz") + str(rng.randint(0, 2)) for _ in range(rng.randint(0, 3))}
        meta = {"lang": rng.choice(["en", "fr"])} if rng.random() < 0.7 else {}
        e = entity(f"n2n://gen:obj{i}", ",".join(sorted(kws)), **meta)
        ors.register(e)
        corpus.append((e, kws))
    queries = [
        OrsQuery(("x0", "x0")),
        OrsQuery(("x0", " X0 ", "y1")),
        OrsQuery(("nope",)),
        OrsQuery(("x1", "nope")),
        OrsQuery((), {"lang": "en"}),
        OrsQuery((), {"lang": "de"}),
        OrsQuery(("z2",), {"lang": "fr"}),
    ]
    for query in queries:
        expected = [
            (str(e.name), e.metadata)
            for e, kws in sorted(corpus, key=lambda c: str(c[0].name))
            if set(query.keywords) <= kws
            and all(e.metadata.get(k) == v for k, v in query.metadata_filters.items())
        ]
        got = [(str(n), meta) for n, meta in ors.search(query).entries]
        assert got == expected
    # the repeated keyword and the metadata-only query have hits to get wrong
    assert ors.search(OrsQuery(("x0", "x0"))).entries
    assert ors.search(OrsQuery((), {"lang": "en"})).entries

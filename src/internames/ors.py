"""Object Resolution Service: keyword + metadata search over all named-entities.

Keyword semantics are conjunctive (every query token must be in the
entity's keyword set) and results come back sorted by canonical URI so
that identical corpora always serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DuplicateName
from .names import Name, NamedEntity, format_name


def _keyword_tokens(entity: NamedEntity) -> set[str]:
    raw = entity.metadata.get("keywords", "")
    return {tok.strip().lower() for tok in raw.split(",") if tok.strip()}


@dataclass(frozen=True)
class OrsQuery:
    keywords: tuple[str, ...] = ()
    metadata_filters: dict = field(default_factory=dict)

    def __post_init__(self):
        lowered = tuple(k.strip().lower() for k in self.keywords if k.strip())
        object.__setattr__(self, "keywords", lowered)

    @property
    def empty(self) -> bool:
        return not self.keywords and not self.metadata_filters


@dataclass(frozen=True)
class OrsResult:
    entries: tuple[tuple[Name, dict], ...] = ()

    @property
    def names(self) -> tuple[Name, ...]:
        return tuple(n for n, _ in self.entries)

    def to_text(self) -> str:
        lines = []
        for name, meta in self.entries:
            pairs = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
            lines.append(f"{format_name(name)} {pairs}".rstrip())
        return "\n".join(lines)


class ObjectResolutionService:
    """Registry of every NamedEntity in the namespace, searchable by keywords."""

    def __init__(self):
        self._entities: dict[Name, NamedEntity] = {}
        self._postings: dict[str, list[Name]] = {}  # keyword token -> names

    def register(self, entity: NamedEntity) -> None:
        if entity.name in self._entities:
            raise DuplicateName(f"duplicate entity {format_name(entity.name)}")
        self._entities[entity.name] = entity
        for token in _keyword_tokens(entity):
            self._postings.setdefault(token, []).append(entity.name)

    def get(self, name: Name) -> NamedEntity | None:
        return self._entities.get(name)

    def __contains__(self, name: Name) -> bool:
        return name in self._entities

    def entities(self) -> list[NamedEntity]:
        return [self._entities[n] for n in sorted(self._entities, key=format_name)]

    def search(self, query: OrsQuery) -> OrsResult:
        if query.empty:
            return OrsResult()
        if query.keywords:
            postings = sorted((self._postings.get(k, []) for k in set(query.keywords)), key=len)
            names = set(postings[0]).intersection(*postings[1:])
            candidates = [self._entities[n] for n in sorted(names, key=format_name)]
        else:
            candidates = self.entities()
        hits = []
        for entity in candidates:
            if any(entity.metadata.get(k) != v for k, v in query.metadata_filters.items()):
                continue
            hits.append((entity.name, dict(entity.metadata)))
        return OrsResult(tuple(hits))

"""Sentence store with exact and wildcard subsequence queries.

A query matches a stored sentence exactly when its chain encoding is a
suffix-prefix fragment of the sentence's left-nested implication formula,
which is equivalent to the query tokens occurring contiguously in the
sentence.  Sentences are therefore kept as deduplicated tuples of plain
word strings, with no formula, plus one positional index, word -> every
(sentence id, offset) where it occurs; a query of any length, with or
without wildcards, is anchored on the positions of its least frequent
concrete word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .corpus import normalize_words


class RetrievalError(Exception):
    """Base class for retrieval errors."""


class EmptySentence(RetrievalError):
    """build_db received a sentence with no tokens."""


class EmptyQuery(RetrievalError):
    """A text query was empty after normalization."""


@dataclass(frozen=True)
class Wildcard:
    """An unknown query token; equal names must bind the same word."""

    name: Optional[str] = None


QueryItem = Union[str, Wildcard]


@dataclass(frozen=True)
class Sentence:
    id: int
    tokens: tuple[str, ...]


class SentenceDB:
    """Immutable deduplicated sentence store with a positional word index."""

    def __init__(
        self,
        sentences: tuple[Sentence, ...],
        positions: dict[str, tuple[tuple[int, int], ...]],
        k_max: int,
    ):
        self.sentences = sentences
        self.positions = positions
        self.k_max = k_max

    def __len__(self) -> int:
        return len(self.sentences)

    def occurrences(self, words: Sequence[str]) -> list[tuple[int, int]]:
        """All (sentence id, start offset) where ``words`` occur contiguously.

        The list is in (sentence id, offset) order.
        """
        if not words or any(word not in self.positions for word in words):
            return []
        return [(sid, off) for sid, off, _ in self._match(words)]

    def _match(self, items: Sequence[QueryItem]) -> Iterator[tuple[int, int, dict[str, str]]]:
        """Yield (sentence id, offset, bindings) for every window ``items`` match.

        Windows come in (sentence id, offset) order: an anchor word's
        positions are, and shifting each back by the anchor's index ``j``
        keeps them so.  A pattern of wildcards only tries every window.
        """
        m = len(items)
        concrete = [(j, it) for j, it in enumerate(items) if isinstance(it, str)]
        if concrete:
            j, word = min(concrete, key=lambda c: len(self.positions.get(c[1], ())))
            starts = ((sid, off - j) for sid, off in self.positions.get(word, ()) if off >= j)
        else:
            starts = ((s.id, off) for s in self.sentences for off in range(len(s.tokens) - m + 1))
        for sid, off in starts:
            window = self.sentences[sid].tokens[off : off + m]
            if len(window) < m:
                continue
            bindings: dict[str, str] = {}
            for item, word in zip(items, window):
                if isinstance(item, str):
                    if item != word:
                        break
                elif item.name is not None:
                    if bindings.setdefault(item.name, word) != word:
                        break
            else:
                yield sid, off, bindings

    def parse_pattern(self, raw: str) -> Optional[list[QueryItem]]:
        """Parse ``?name`` / ``_`` wildcard syntax into query items.

        Every other whitespace-separated part goes through the corpus
        normalizer, so ``"Cat, ?x"`` asks what ``"cat ?x"`` asks.  Returns
        None when a concrete word is absent from the store (such a pattern
        can never match).
        """
        items: list[QueryItem] = []
        for part in raw.lower().split():
            if part == "_":
                items.append(Wildcard())
            elif part.startswith("?"):
                items.append(Wildcard(part[1:] or None))
            else:
                for word in normalize_words(part):
                    if word not in self.positions:
                        return None
                    items.append(word)
        return items


def build_db(sentences: Iterable[Sequence[str]], k_max: int = 5) -> SentenceDB:
    """Store sentences (deduplicated, ids in input order) and index word positions.

    ``k_max`` (at least 1) sizes nothing and is only stored as
    ``SentenceDB.k_max``, because existing callers still pass and read it.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    stored: list[Sentence] = []
    seen: set[tuple[str, ...]] = set()
    positions: dict[str, list[tuple[int, int]]] = {}
    for sent in sentences:
        toks = tuple(sent)
        if not toks:
            raise EmptySentence("sentences must contain at least one token")
        if toks in seen:
            continue
        seen.add(toks)
        sid = len(stored)
        stored.append(Sentence(sid, toks))
        for off, word in enumerate(toks):
            positions.setdefault(word, []).append((sid, off))
    frozen = {word: tuple(hits) for word, hits in positions.items()}
    return SentenceDB(tuple(stored), frozen, k_max)


def query_exact(db: SentenceDB, words: Sequence[str]) -> list[tuple[int, Sentence]]:
    """Sentences containing ``words`` contiguously, once each, in id order.

    Returns (sentence id, sentence) pairs.
    """
    if not words:
        raise EmptyQuery("query must contain at least one word")
    seen: set[int] = set()
    out: list[tuple[int, Sentence]] = []
    for sid, _ in db.occurrences(words):
        if sid not in seen:
            seen.add(sid)
            out.append((sid, db.sentences[sid]))
    return out


def query_pattern(
    db: SentenceDB, items: Sequence[QueryItem]
) -> list[tuple[dict[str, str], int, Sentence]]:
    """Match a word/wildcard pattern against all sentence windows.

    Returns (bindings, sentence id, sentence) triples, deduplicated on
    (bindings, id); bindings cover named wildcards only.
    """
    if not items:
        raise EmptyQuery("pattern must contain at least one item")
    results: list[tuple[dict[str, str], int, Sentence]] = []
    seen: set[tuple[tuple[tuple[str, str], ...], int]] = set()
    for sid, _, bindings in db._match(items):
        key = (tuple(sorted(bindings.items())), sid)
        if key not in seen:
            seen.add(key)
            results.append((bindings, sid, db.sentences[sid]))
    return results

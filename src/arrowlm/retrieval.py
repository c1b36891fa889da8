"""Sentence store with exact and wildcard subsequence queries.

A query matches a stored sentence exactly when its chain encoding is a
suffix-prefix fragment of the sentence's left-nested implication formula,
which is equivalent to the query tokens occurring contiguously in the
sentence.  Sentences are therefore kept as deduplicated tuples of plain
word strings, with no formula, plus one positional index, word -> every
(sentence id, offset) where it occurs; a query of any length, with or
without wildcards, is anchored on the positions of its least frequent
concrete word.  A pattern is split once into the offsets of its other
concrete words and of its named wildcards, so each window is checked by
indexing the sentence at those offsets.
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
    """A pattern or text query was empty (a text query after normalization)."""


@dataclass(frozen=True)
class Wildcard:
    """An unknown query token; equal names must bind the same word."""

    name: Optional[str] = None


QueryItem = Union[str, Wildcard]


class SentenceDB:
    """Immutable deduplicated word tuples, ``sentences[sid]``, with a positional word index."""

    def __init__(
        self,
        sentences: tuple[tuple[str, ...], ...],
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
        if not words:
            return []
        return [(sid, off) for sid, off, _ in self._match(words)]

    def _match(self, items: Sequence[QueryItem]) -> Iterator[tuple[int, int, dict[str, str]]]:
        """Yield (sentence id, offset, bindings) for every window ``items`` match.

        Windows come in (sentence id, offset) order: an anchor word's
        positions are, and shifting each back by the anchor's index ``j``
        keeps them so.  The anchor matches at its positions by construction,
        so only the other concrete words are compared.  A word the store
        lacks has no positions, so as the anchor it yields no window.  A
        pattern of wildcards only tries every window.
        """
        m = len(items)
        concrete = [(j, it) for j, it in enumerate(items) if isinstance(it, str)]
        named = [(j, it.name) for j, it in enumerate(items)
                 if isinstance(it, Wildcard) and it.name is not None]
        if concrete:
            # starts reads j and word lazily, so the window loop must not rebind them.
            j, word = min(concrete, key=lambda c: len(self.positions.get(c[1], ())))
            concrete.remove((j, word))
            starts = ((sid, off - j) for sid, off in self.positions.get(word, ()) if off >= j)
        else:
            starts = ((sid, off) for sid, toks in enumerate(self.sentences)
                      for off in range(len(toks) - m + 1))
        sentences = self.sentences
        for sid, off in starts:
            toks = sentences[sid]
            if off + m > len(toks):
                continue
            for k, it in concrete:
                if toks[off + k] != it:
                    break
            else:
                bindings: dict[str, str] = {}
                for k, name in named:
                    bound = toks[off + k]
                    if bindings.setdefault(name, bound) != bound:
                        break
                else:
                    yield sid, off, bindings

    def parse_pattern(self, raw: str) -> list[QueryItem]:
        """Parse ``?name`` / ``_`` wildcard syntax into query items.

        Names and other whitespace-separated parts go through the corpus
        normalizer, so ``"Cat, ?X."`` asks what ``"cat ?x"`` asks.
        """
        items: list[QueryItem] = []
        for part in raw.split():
            if part == "_":
                items.append(Wildcard())
            elif part.startswith("?"):
                items.append(Wildcard("".join(normalize_words(part[1:])) or None))
            else:
                items.extend(normalize_words(part))
        return items


def build_db(sentences: Iterable[Sequence[str]], k_max: int = 5) -> SentenceDB:
    """Store sentences (deduplicated, ids in input order) and index word positions.

    ``k_max`` (at least 1) sizes nothing and is only stored as
    ``SentenceDB.k_max``, because existing callers still pass and read it.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ids: dict[tuple[str, ...], int] = {}
    positions: dict[str, list[tuple[int, int]]] = {}
    for sent in sentences:
        toks = tuple(sent)
        if not toks:
            raise EmptySentence("sentences must contain at least one token")
        if toks in ids:
            continue
        sid = ids[toks] = len(ids)
        for off, word in enumerate(toks):
            positions.setdefault(word, []).append((sid, off))
    frozen = {word: tuple(hits) for word, hits in positions.items()}
    return SentenceDB(tuple(ids), frozen, k_max)


def query_pattern(
    db: SentenceDB, items: Sequence[QueryItem]
) -> list[tuple[dict[str, str], int, tuple[str, ...]]]:
    """Match a word/wildcard pattern against all sentence windows.

    Returns (bindings, sentence id, sentence) triples, deduplicated on
    (bindings, id); bindings cover named wildcards only, each name once, in
    order of first appearance.
    """
    if not items:
        raise EmptyQuery("pattern must contain at least one item")
    results: dict[tuple, tuple[dict[str, str], int, tuple[str, ...]]] = {}
    for sid, _, bindings in db._match(items):
        key = (sid, *bindings.values())  # _match binds the same names in the same order
        results.setdefault(key, (bindings, sid, db.sentences[sid]))
    return list(results.values())

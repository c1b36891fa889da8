"""Sentence store with exact and wildcard subsequence queries.

Sentences are kept as deduplicated token sequences plus an inverted
n-gram index.  A query matches a stored sentence exactly when its chain
encoding is a suffix-prefix fragment of the sentence's left-nested
implication formula, which is equivalent to the query tokens occurring
contiguously in the sentence; matching is therefore computed on token
sequences, and a sentence's formula is built only when a result asks
for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .corpus import normalize_words
from .formula import Atom, Formula, Interner, list_to_impl


class RetrievalError(Exception):
    """Base class for retrieval errors."""


class EmptySentence(RetrievalError):
    """build_db received a sentence with no tokens."""


class EmptyQuery(RetrievalError):
    """A text query was empty after normalization."""


@dataclass(frozen=True)
class Word:
    """A concrete query token."""

    atom: Atom


@dataclass(frozen=True)
class Wildcard:
    """An unknown query token; equal names must bind the same word."""

    name: Optional[str] = None


QueryItem = Union[Word, Wildcard]


@dataclass(frozen=True)
class Sentence:
    id: int
    tokens: tuple[str, ...]
    atoms: tuple[Atom, ...]

    @property
    def formula(self) -> Formula:
        """The sentence's chain, built on demand: matching never reads it."""
        return list_to_impl(self.atoms)


class SentenceDB:
    """Immutable deduplicated sentence store with an n-gram offset index."""

    def __init__(
        self,
        sentences: tuple[Sentence, ...],
        fragment_index: dict[tuple[str, ...], tuple[tuple[int, int], ...]],
        k_max: int,
        interner: Interner,
    ):
        self.sentences = sentences
        self.fragment_index = fragment_index
        self.k_max = k_max
        self.interner = interner

    def __len__(self) -> int:
        return len(self.sentences)

    def occurrences(self, words: Sequence[str]) -> list[tuple[int, int]]:
        """All (sentence id, start offset) where ``words`` occur contiguously."""
        key = tuple(words)
        if not key:
            return []
        if len(key) <= self.k_max:
            return list(self.fragment_index.get(key, ()))
        return _scan_occurrences(self.sentences, key)

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
                    atom = self.interner.lookup(word)
                    if atom is None:
                        return None
                    items.append(Word(atom))
        return items


def _scan_occurrences(
    sentences: Iterable[Sentence], words: tuple[str, ...]
) -> list[tuple[int, int]]:
    hits: list[tuple[int, int]] = []
    m = len(words)
    for sent in sentences:
        toks = sent.tokens
        for off in range(len(toks) - m + 1):
            if toks[off : off + m] == words:
                hits.append((sent.id, off))
    return hits


def build_db(sentences: Iterable[Sequence[str]], k_max: int = 5) -> SentenceDB:
    """Store sentences (deduplicated, ids in input order) and index n-grams.

    ``k_max`` caps the indexed n-gram length; longer queries fall back to a
    linear scan.  The default matches the training-side fragment cap.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    interner = Interner()
    stored: list[Sentence] = []
    seen: set[tuple[str, ...]] = set()
    for sent in sentences:
        toks = tuple(sent)
        if not toks:
            raise EmptySentence("sentences must contain at least one token")
        if toks in seen:
            continue
        seen.add(toks)
        stored.append(Sentence(len(stored), toks, tuple(map(interner.atom, toks))))
    index: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    for sent in stored:
        toks = sent.tokens
        for n in range(1, k_max + 1):
            for off in range(len(toks) - n + 1):
                index.setdefault(toks[off : off + n], []).append((sent.id, off))
    frozen = {gram: tuple(hits) for gram, hits in index.items()}
    return SentenceDB(tuple(stored), frozen, k_max, interner)


def query_exact(db: SentenceDB, words: Sequence[str]) -> list[tuple[int, Sentence]]:
    """Sentences containing ``words`` contiguously, once each, in id order.

    Returns (sentence id, sentence) pairs; a sentence's ``formula`` is built
    only if read.
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
    (bindings, id); bindings cover named wildcards only.  A sentence's
    ``formula`` is built only if read.
    """
    if not items:
        raise EmptyQuery("pattern must contain at least one item")
    m = len(items)
    results: list[tuple[dict[str, str], int, Sentence]] = []
    seen: set[tuple[tuple[tuple[str, str], ...], int]] = set()
    for sent in db.sentences:
        toks = sent.tokens
        for off in range(len(toks) - m + 1):
            bindings: dict[str, str] = {}
            ok = True
            for item, word in zip(items, toks[off : off + m]):
                if isinstance(item, Word):
                    if item.atom.surface != word:
                        ok = False
                        break
                elif item.name is not None:
                    bound = bindings.get(item.name)
                    if bound is None:
                        bindings[item.name] = word
                    elif bound != word:
                        ok = False
                        break
            if not ok:
                continue
            key = (tuple(sorted(bindings.items())), sent.id)
            if key not in seen:
                seen.add(key)
                results.append((bindings, sent.id, sent))
    return results


def query_text(db: SentenceDB, raw: str) -> list[str]:
    """Normalize ``raw`` as the corpus is, query exactly, render hits as text."""
    words = normalize_words(raw)
    if not words:
        raise EmptyQuery("query is empty after normalization")
    return [" ".join(db.sentences[sid].tokens) for sid, _ in query_exact(db, words)]

"""Raw text to sentences, vocabulary, and the fragment training set.

The pipeline is deliberately light: boilerplate stripping by marker
lines, naive sentence splitting on ``.!?``, lowercasing with a
``[a-z0-9_' ]`` character whitelist, and word-level ids.  Apostrophes
stay inside words so clitics do not explode the vocabulary.  Training
items are every contiguous fragment of length 2..k_frag plus each full
sentence with an EOS marker, globally deduplicated; with k_frag fixed
the item count is linear in corpus size.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import DEFAULTS

EOS_WORD = "<eos>"
PAD_WORD = "<pad>"

_START_MARKER = "*** START OF"
_END_MARKER = "*** END OF"


class CorpusError(Exception):
    """Base class for corpus errors."""


class EmptyCorpus(CorpusError):
    """No sentences were available to build a vocabulary from."""


class Vocab:
    """Dense word ids in first-occurrence order, with EOS and PAD appended."""

    def __init__(self, content_words: Sequence[str]):
        self.words: tuple[str, ...] = tuple(content_words) + (EOS_WORD, PAD_WORD)
        self.index: dict[str, int] = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise CorpusError("duplicate words in vocabulary")
        self.eos_id = len(self.words) - 2
        self.pad_id = len(self.words) - 1

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.index[t] for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.words[i] for i in ids]


@dataclass
class TrainingSet:
    """The deduplicated fragments, in first-seen order."""

    fragments: list[tuple[int, ...]] = field(default_factory=list)


def strip_boilerplate(raw: str) -> str:
    """Keep the body between the standard ``*** START OF``/``*** END OF`` lines.

    Returns the input unchanged (with a warning) when the markers are missing.
    """
    lines = raw.splitlines(keepends=True)
    start = end = None
    for i, line in enumerate(lines):
        if start is None:
            if _START_MARKER in line:
                start = i
        elif _END_MARKER in line:
            end = i
            break
    if start is None or end is None:
        warnings.warn("boilerplate markers not found; keeping full text")
        return raw
    return "".join(lines[start + 1 : end])


_KEEP_RE = re.compile(r"[^a-z0-9_' ]+")


def normalize_words(text: str) -> list[str]:
    """Lowercase, keep the ``[a-z0-9_' ]`` alphabet, split into words."""
    return _KEEP_RE.sub("", re.sub(r"\s+", " ", text.lower())).split()


def split_sentences(body: str, max_len: int = DEFAULTS["max_len"]) -> list[list[str]]:
    """Split on ``.!?``, normalize to the word alphabet, drop empties.

    Sentences longer than ``max_len`` words are truncated.
    """
    sentences: list[list[str]] = []
    for part in re.split(r"[.!?]", body):
        tokens = normalize_words(part)
        if tokens:
            sentences.append(tokens[:max_len])
    return sentences


def build_vocab(sentences: Sequence[Sequence[str]]) -> Vocab:
    """Assign ids to every word (first-occurrence order); no unknown bucket."""
    if not sentences:
        raise EmptyCorpus("need at least one sentence")
    seen: dict[str, None] = {}
    for sent in sentences:
        for word in sent:
            seen.setdefault(word)
    return Vocab(list(seen))


def enumerate_fragments(
    sentences: Sequence[Sequence[str]],
    vocab: Vocab,
    k_frag: int = DEFAULTS["max_frag"],
    max_len: int = DEFAULTS["max_len"],
) -> TrainingSet:
    """Emit all length-2..k_frag fragments plus EOS-terminated sentences.

    Fragments are globally deduplicated and kept in the order first seen.
    Length-1 spans carry no prediction target and are excluded.
    """
    if k_frag < 2:
        raise ValueError("k_frag must be >= 2")
    ts = TrainingSet()
    seen: set[tuple[int, ...]] = set()
    for sent in sentences:
        ids = vocab.encode(sent[:max_len])
        n = len(ids)
        for i in range(n):
            for j in range(i + 2, min(i + k_frag, n) + 1):
                frag = tuple(ids[i:j])
                if frag not in seen:
                    seen.add(frag)
                    ts.fragments.append(frag)
        full = tuple(ids) + (vocab.eos_id,)
        if full not in seen:
            seen.add(full)
            ts.fragments.append(full)
    return ts


def write_sentences(path, sentences: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent) + "\n")


def read_sentences(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip()]


def write_vocab(path, vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word in vocab.words:
            fh.write(word + "\n")


def read_vocab(path) -> Vocab:
    with open(path, encoding="utf-8") as fh:
        words = [line.rstrip("\n") for line in fh if line.strip()]
    if len(words) < 2 or words[-2:] != [EOS_WORD, PAD_WORD]:
        raise CorpusError(f"vocab file must end with {EOS_WORD} and {PAD_WORD} lines")
    return Vocab(words[:-2])


def write_fragments(path, training_set: TrainingSet, vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for frag in training_set.fragments:
            fh.write(" ".join(vocab.words[i] for i in frag) + "\n")

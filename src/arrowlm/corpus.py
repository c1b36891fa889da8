"""Raw text to sentences, vocabulary, and the fragment training set.

The pipeline is deliberately light: boilerplate stripping by marker
lines, naive sentence splitting on ``.!?``, lowercasing with a
``[a-z0-9_' ]`` character whitelist, and word-level ids.  Apostrophes
stay inside words so clitics do not explode the vocabulary.  Training
items are every contiguous fragment of length 2..k_frag plus each full
sentence with an EOS marker, globally deduplicated; with k_frag fixed
the item count is linear in corpus size.

``corpus build`` writes ``sentences.txt`` (``query`` reads it),
``vocab.txt`` (``train`` and ``query``) and ``fragments.txt`` (``train``).
Each ``fragments.txt`` line is cut from its sentence's words, joined
once: a window's text is one slice of that line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
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
    """The deduplicated fragments, in first-seen order, and ``text``, one line per fragment.

    ``text`` is the exact content of ``fragments.txt``.
    """

    fragments: list[tuple[int, ...]]
    text: str


def strip_boilerplate(raw: str) -> str:
    """Keep the body between the standard ``*** START OF``/``*** END OF`` lines.

    Returns the input unchanged when either marker is missing.
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
    fragments: list[tuple[int, ...]] = []
    chunks: list[str] = []  # per sentence, the lines of its new fragments
    seen: set[tuple[int, ...]] = set()
    for sent in sentences:
        words = sent[:max_len]
        ids = tuple(vocab.encode(words))
        line = " ".join(words)
        ends = list(accumulate(len(word) + 1 for word in words))  # where each next word starts
        n, start, lines = len(ids), 0, []
        for i in range(n):
            for j in range(i + 2, min(i + k_frag, n) + 1):
                frag = ids[i:j]
                if frag not in seen:
                    seen.add(frag)
                    fragments.append(frag)
                    lines.append(line[start : ends[j - 1] - 1])
            start = ends[i]
        full = ids + (vocab.eos_id,)
        if full not in seen:
            seen.add(full)
            fragments.append(full)
            lines.append(" ".join((*words, EOS_WORD)))
        if lines:
            chunks.append("\n".join(lines) + "\n")
    return TrainingSet(fragments, "".join(chunks))


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
    """Write ``training_set.text`` in one call.

    ``vocab`` is no longer read; the signature stays because ``bench/`` calls it so.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(training_set.text)


def read_fragments(path, vocab: Vocab) -> TrainingSet:
    """Inverse of :func:`write_fragments`: one fragment of 2+ vocab words per line.

    The set keeps the text it read, so writing it back gives the same lines.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if not lines[-1]:
        del lines[-1]  # the empty string after the last newline is no line
    fragments = []
    for n, line in enumerate(lines, 1):
        words = line.split()
        unknown = [word for word in words if word not in vocab]
        if unknown or len(words) < 2:
            problem = f"unknown word {unknown[0]!r}" if unknown else "fewer than 2 words"
            raise CorpusError(f"{path}:{n}: {problem}")
        fragments.append(tuple(vocab.encode(words)))
    if not fragments:
        raise CorpusError(f"{path}: no fragments")
    return TrainingSet(fragments, text)

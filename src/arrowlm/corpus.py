"""Raw text to sentences, vocabulary, and the fragment training set.

The pipeline is deliberately light: boilerplate stripping by marker lines,
naive sentence splitting on ``.!?``, lowercasing, a whitelist of
whitespace and the word alphabet :data:`arrowlm.WORD_CHARS`, and
word-level ids.  Apostrophes stay inside words so clitics do not explode
the vocabulary.  Training items are every contiguous fragment of length
2..k_frag plus each full sentence with an EOS marker, globally
deduplicated; with k_frag fixed the item count is linear in corpus size.

``corpus build`` writes ``sentences.txt``, cut at ``max_len`` words, and
both ``train`` and ``query`` read it: ``train`` builds the vocabulary from
it and cuts the fragments at ``max_frag``, so each setting has one owner.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from . import DEFAULTS, WORD_CHARS

EOS_WORD = "<eos>"
PAD_WORD = "<pad>"

_START_MARKER = "*** START OF"
_END_MARKER = "*** END OF"


class CorpusError(Exception):
    """Base class for corpus errors."""


class EmptyCorpus(CorpusError):
    """No sentences were available to build a vocabulary from."""


class Vocab:
    """Dense word ids in first-occurrence order, with EOS and PAD appended.

    Each content word is one that :func:`normalize_words` can produce, so a
    file that holds the words, one per line or space-separated, splits back
    into the same ones.
    """

    def __init__(self, content_words: Sequence[str]):
        self.words: tuple[str, ...] = tuple(content_words) + (EOS_WORD, PAD_WORD)
        joined = " ".join(self.words[:-2])  # one space per gap, and one per space inside a word
        if len(self) > 2 and (joined.count(" ") != len(self) - 3 or not _WORDS_RE.fullmatch(joined)):
            bad = next(word for word in self.words[:-2] if normalize_words(word) != [word])
            raise CorpusError(f"word {bad!r} is not one that normalize_words gives")
        self.index: dict[str, int] = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise CorpusError("duplicate words in vocabulary")
        self.eos_id = len(self.words) - 2
        self.pad_id = len(self.words) - 1

    def __len__(self) -> int:
        return len(self.words)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.index[t] for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.words[i] for i in ids]

    def text(self) -> str:
        """The words as a checkpoint stores them: one ``word\\n`` line each."""
        return "".join(f"{word}\n" for word in self.words)

    @classmethod
    def parse(cls, text: str) -> "Vocab":
        """Inverse of :meth:`text`; skips blank lines and refuses an ending other than EOS, PAD."""
        words = [line for line in text.split("\n") if line.strip()]
        if words[-2:] != [EOS_WORD, PAD_WORD]:
            raise CorpusError(f"vocabulary must end with {EOS_WORD} and {PAD_WORD} lines")
        return cls(words[:-2])


@dataclass
class TrainingSet:
    """The deduplicated fragments, in first-seen order, and ``text``, one line per fragment.

    ``text`` is what :func:`write_fragments` writes; ``bench/`` alone reads it (ROADMAP item 1a).
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


_KEEP_RE = re.compile(rf"[^{WORD_CHARS}\s]+")  # str.split splits at exactly re's \s
_WORDS_RE = re.compile(rf"[{WORD_CHARS}]+(?: [{WORD_CHARS}]+)*")  # normalize_words' words, space-joined
_STORED = f"{WORD_CHARS} \n".encode()  # the bytes write_sentences writes


def normalize_words(text: str) -> list[str]:
    """Lowercase, keep the ``[a-z0-9_']`` alphabet, split into words at whitespace."""
    return _KEEP_RE.sub("", text.lower()).split()


def split_sentences(body: str, max_len: int = DEFAULTS["max_len"]) -> list[list[str]]:
    """Split on ``.!?``, normalize to the word alphabet, drop empties.

    Sentences longer than ``max_len`` words are truncated.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
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
    max_len: Optional[int] = None,
) -> TrainingSet:
    """Emit all length-2..k_frag fragments plus EOS-terminated sentences.

    Fragments are globally deduplicated and kept in the order first seen.
    Length-1 spans carry no prediction target and are excluded.  Each
    sentence is taken whole, since :func:`split_sentences` already cut it;
    ``max_len`` is not read, and stays because ``bench/`` passes it.
    """
    if k_frag < 2:
        raise ValueError(f"need k_frag >= 2, got {k_frag}")
    fragments: list[tuple[int, ...]] = []
    chunks: list[str] = []  # per sentence, the lines of its new fragments
    seen: set[tuple[int, ...]] = set()
    for words in sentences:
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
    """One sentence per non-blank line; refuses a word that :func:`normalize_words` cannot give."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()  # universal newlines: "\r" and "\r\n" end a line too
    lines = text.split("\n")
    if text.encode().translate(None, _STORED):  # more than write_sentences writes: check each word
        for n, line in enumerate(lines, 1):
            bad = [word for word in line.split() if not _WORDS_RE.fullmatch(word)]
            if bad:
                raise CorpusError(f"{path}:{n}: word {bad[0]!r} is not one that normalize_words gives")
    return [line.split() for line in lines if line.strip()]


def write_vocab(path, vocab: Vocab) -> None:
    """Kept only for ``bench/``, which still writes ``vocab.txt`` (ROADMAP item 1a)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(vocab.text())


def read_vocab(path) -> Vocab:
    """Kept only for ``bench/``, which still reads ``vocab.txt`` (ROADMAP item 1a)."""
    with open(path, encoding="utf-8") as fh:
        return Vocab.parse(fh.read())


def write_fragments(path, training_set: TrainingSet, vocab: Vocab) -> None:
    """Kept only for ``bench/``, which still writes ``fragments.txt`` (ROADMAP item 1a).

    Writes ``training_set.text`` in one call; ``vocab`` is not read.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(training_set.text)

"""Generation and evaluation on top of a trained checkpoint.

Retrieval-first completion enumerates every occurrence of the query as a
contiguous subsequence of a stored sentence, takes each sentence suffix
after the match as a candidate continuation, deduplicates candidates by
their text, and ranks them by per-token mean log-likelihood under the
model (conditioning on the query tokens).  Matches at a sentence end
have nothing left to score and are reported separately as exact hits.

Free generation is repeated modus ponens on the left-nested chain: each
step takes the next token from one next-token distribution, greedily (its
argmax) or by sampling at a temperature.  PAD is never chosen, and a
generated EOS ends the text (and is not emitted).

A model whose scores overflow to inf or NaN (finite parameters can still
overflow float32 logits) raises :class:`~arrowlm.model.ModelError` instead
of printing NaN scores or decoding from NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import DEFAULTS
from .corpus import Vocab
from .model import ModelError, ModelParams, TokenOutOfRange, _log_softmax, step
from .retrieval import SentenceDB


@dataclass(frozen=True)
class Candidate:
    """One retrieval-first completion; continuation may be empty (exact hit)."""

    sentence_id: int
    start: int
    end: int
    continuation: tuple[str, ...]
    total_logprob: float
    mean_logprob: float


@dataclass(frozen=True)
class RetrievalResult:
    ranked: tuple[Candidate, ...]
    exact_matches: tuple[Candidate, ...]

    def __bool__(self) -> bool:
        return bool(self.ranked or self.exact_matches)


@dataclass
class DecodeConfig:
    mode: str = "greedy"  # greedy | sample
    temperature: float = DEFAULTS["temperature"]
    max_new_tokens: int = DEFAULTS["max_new_tokens"]
    seed: int = DEFAULTS["seed"]

    def __post_init__(self):
        if self.mode not in ("greedy", "sample"):
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")


def _run_prefix(params: ModelParams, prefix: Sequence[int]) -> np.ndarray:
    h = params.h0.copy()
    for tok in prefix:
        h = step(params, h, int(tok))
    return h


def score_continuation(
    params: ModelParams, prefix: Sequence[int], continuation: Sequence[int]
) -> tuple[float, list[float]]:
    """Total and per-token log-probability of ``continuation`` after ``prefix``."""
    if not prefix:
        raise ValueError("prefix must be non-empty")
    h = _run_prefix(params, prefix)
    per_token: list[float] = []
    for tok in continuation:
        tok = int(tok)
        if not (0 <= tok < params.vocab_size):
            raise TokenOutOfRange(f"token {tok} outside vocabulary")
        per_token.append(float(_log_softmax(params.w_out @ h)[tok]))
        h = step(params, h, tok)
    return sum(per_token), per_token


@np.errstate(over="ignore", invalid="ignore")  # non-finite scores raise ModelError
def retrieval_first(
    params: ModelParams,
    vocab: Vocab,
    db: SentenceDB,
    query: Sequence[str],
    k: int = DEFAULTS["top_k"],
) -> RetrievalResult:
    """Rank the corpus continuations of ``query``; see module docstring.

    An empty result means the query never occurs and the caller should
    fall back to free generation.
    """
    if not query:
        raise ValueError("query must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    query = [w.lower() for w in query]
    occurrences = sorted(db.occurrences(query))
    continuations: dict[tuple[str, ...], Candidate] = {}
    exact: list[Candidate] = []
    exact_ids: set[int] = set()
    prefix_ids = [vocab.index[w] for w in query if w in vocab.index]
    if len(prefix_ids) != len(query):
        # A query word outside the model vocabulary cannot occur in a stored
        # sentence built from the same corpus, so occurrences is empty too.
        return RetrievalResult((), ())
    for sid, start in occurrences:
        tokens = db.sentences[sid].tokens
        end = start + len(query)
        continuation = tokens[end:]
        if not continuation:
            if sid not in exact_ids:
                exact_ids.add(sid)
                exact.append(Candidate(sid, start, end, (), 0.0, 0.0))
            continue
        if continuation in continuations:
            continue
        total, per_token = score_continuation(
            params, prefix_ids, vocab.encode(continuation)
        )
        if not math.isfinite(total):
            raise ModelError(f"continuation of sentence {sid} scores {total}")
        continuations[continuation] = Candidate(
            sid, start, end, continuation, total, total / len(per_token)
        )
    ranked = sorted(
        continuations.values(), key=lambda c: (-c.mean_logprob, c.sentence_id)
    )
    return RetrievalResult(tuple(ranked[:k]), tuple(exact))


@np.errstate(over="ignore", invalid="ignore")  # non-finite scores raise ModelError
def generate_free(
    params: ModelParams,
    vocab: Vocab,
    prompt: Sequence[int],
    config: Optional[DecodeConfig] = None,
) -> list[int]:
    """Continue ``prompt`` token ids; output excludes prompt and final EOS."""
    config = config or DecodeConfig()
    if not prompt:
        raise ValueError("prompt must be non-empty")
    for tok in prompt:
        if not (0 <= int(tok) < params.vocab_size):
            raise TokenOutOfRange(f"prompt token {tok} outside vocabulary")
    h = _run_prefix(params, prompt)
    # Added to the logits, this promotes them to float64 and removes PAD.
    no_pad = np.zeros(params.vocab_size)
    no_pad[vocab.pad_id] = -np.inf
    rng = np.random.default_rng(config.seed)
    out: list[int] = []
    for _ in range(config.max_new_tokens):
        logits = params.w_out @ h + no_pad
        top = logits.max()
        if not np.isfinite(top):  # NaN anywhere makes the maximum NaN
            raise ModelError(f"next-token logit is {top}")
        if config.mode == "greedy":
            tok = int(np.argmax(logits))
        else:
            # Subtracting the maximum first keeps a tiny temperature from
            # turning every logit into -inf (and the distribution into NaN).
            probs = np.exp((logits - top) / config.temperature)
            probs /= probs.sum()
            tok = int(rng.choice(len(probs), p=probs))
        if tok == vocab.eos_id:
            break
        out.append(tok)
        h = step(params, h, tok)
    return out

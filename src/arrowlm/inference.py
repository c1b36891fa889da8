"""Generation and evaluation on top of a trained checkpoint.

Retrieval-first completion enumerates every occurrence of the query as a
contiguous subsequence of a stored sentence, takes each sentence suffix
after the match as a candidate continuation, deduplicates candidates by
their text, and ranks them by per-token mean log-likelihood under the
model (conditioning on the query tokens): one softmax, training's, over
the stacked next-token logits, with no step after the last scored token.
Matches at a sentence end have nothing left to score: they are exact hits.

Free generation is repeated modus ponens on the left-nested chain: each
step takes the next token from one next-token distribution, greedily (its
argmax) or by sampling at a temperature.  PAD is never chosen, and a
generated EOS ends the text (and is not emitted).  As in scoring, no step
follows the last token, since no distribution would read its state.  The
logits keep the parameters' dtype (float32 in a checkpoint); only sampling
promotes them.

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
from .model import ModelError, ModelParams, _softmax, _validate_tokens, step
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
        if not 0 < self.temperature < math.inf:  # also refuses NaN
            raise ValueError("temperature must be finite and > 0")
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
    targets = np.array(continuation, dtype=np.int64)
    _validate_tokens(params, targets)
    h = _run_prefix(params, prefix)
    logits = np.empty((len(targets), params.vocab_size), dtype=params.w_out.dtype)
    for i, tok in enumerate(continuation):
        np.matmul(params.w_out, h, out=logits[i])
        if i + 1 < len(targets):  # no step after the last scored token
            h = step(params, h, int(tok))
    per_token = _softmax(logits, targets)[0].tolist()
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

    ``query`` holds words as :func:`~arrowlm.corpus.normalize_words`
    returns them.  An empty result means the query never occurs and the
    caller should fall back to free generation.
    """
    if not query:
        raise ValueError("query must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    occurrences = db.occurrences(query)
    if not occurrences:
        return RetrievalResult((), ())
    continuations: dict[tuple[str, ...], Candidate] = {}
    exact: dict[int, Candidate] = {}  # the first exact hit in each sentence
    prefix_ids = vocab.encode(query)
    for sid, start in occurrences:
        end = start + len(query)
        continuation = db.sentences[sid][end:]
        if not continuation:
            exact.setdefault(sid, Candidate(sid, start, end, (), 0.0, 0.0))
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
    return RetrievalResult(tuple(ranked[:k]), tuple(exact.values()))


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
    h = _run_prefix(params, prompt)  # step refuses a token outside the vocabulary
    rng = np.random.default_rng(config.seed) if config.mode == "sample" else None
    out: list[int] = []
    for _ in range(config.max_new_tokens):
        logits = params.w_out @ h
        logits[vocab.pad_id] = -np.inf
        tok = int(logits.argmax())  # the first NaN, if there is one
        top = float(logits[tok])
        if not math.isfinite(top):
            raise ModelError(f"next-token logit is {top}")
        if config.mode == "sample":
            # Subtracting the maximum first keeps a tiny temperature from
            # turning every logit into -inf (and the distribution into NaN).
            probs = np.exp((logits.astype(np.float64) - top) / config.temperature)
            probs /= probs.sum()
            tok = int(rng.choice(len(probs), p=probs))
        if tok == vocab.eos_id:
            break
        out.append(tok)
        if len(out) < config.max_new_tokens:  # no step after the last token
            h = step(params, h, tok)
    return out

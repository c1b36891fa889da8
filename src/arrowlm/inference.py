"""Generation and evaluation on top of a trained checkpoint.

Retrieval-first completion enumerates every occurrence of the query as a
contiguous subsequence of a stored sentence, takes each sentence suffix
after the match as a candidate continuation, deduplicates candidates by
their text, and ranks them by per-token mean log-likelihood under the
model (conditioning on the query tokens).  Matches at a sentence end
have nothing left to score and are reported separately as exact hits.

Free generation supports greedy, temperature/top-k sampling, and
length-normalized beam search; PAD is always excluded from the support
and a generated EOS terminates (and is not emitted).

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
    mode: str = "greedy"  # greedy | sample | beam
    temperature: float = DEFAULTS["temperature"]
    top_k: int = 0  # 0 disables the cutoff
    beam_width: int = 1
    max_new_tokens: int = DEFAULTS["max_new_tokens"]
    seed: int = DEFAULTS["seed"]

    def __post_init__(self):
        if self.mode not in ("greedy", "sample", "beam"):
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.top_k < 0 or self.beam_width < 1 or self.max_new_tokens < 0:
            raise ValueError("top_k >= 0, beam_width >= 1, max_new_tokens >= 0")


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


def _decode_logprobs(params: ModelParams, h: np.ndarray, no_pad: np.ndarray) -> np.ndarray:
    logp = _log_softmax(params.w_out @ h + no_pad)
    if not np.isfinite(logp.max()):  # the best token's; NaN anywhere makes it NaN
        raise ModelError(f"next-token log-probability is {logp.max()}")
    return logp


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
    if config.mode == "beam":
        return _beam_search(params, vocab, h, config, no_pad)
    rng = np.random.default_rng(config.seed)
    out: list[int] = []
    for _ in range(config.max_new_tokens):
        logp = _decode_logprobs(params, h, no_pad)
        if config.mode == "greedy":
            tok = int(np.argmax(logp))
        else:
            scaled = logp / config.temperature
            if config.top_k > 0:
                keep = np.argsort(-scaled, kind="stable")[: config.top_k]
                cut = np.full_like(scaled, -np.inf)
                cut[keep] = scaled[keep]
                scaled = cut
            probs = np.exp(scaled - scaled.max())
            probs /= probs.sum()
            tok = int(rng.choice(len(probs), p=probs))
        if tok == vocab.eos_id:
            break
        out.append(tok)
        h = step(params, h, tok)
    return out


def _beam_search(
    params: ModelParams,
    vocab: Vocab,
    h0: np.ndarray,
    config: DecodeConfig,
    no_pad: np.ndarray,
) -> list[int]:
    # Hypotheses: (score, tokens, state, total logp, finished).  The score is
    # the mean log-probability per generated token, counting a final EOS, and
    # is fixed when the hypothesis is made.
    beams: list[tuple[float, tuple[int, ...], np.ndarray, float, bool]] = [
        (0.0, (), h0, 0.0, False)
    ]
    for _ in range(config.max_new_tokens):
        live = [b for b in beams if not b[4]]
        if not live:
            break
        candidates = [b for b in beams if b[4]]
        for _, toks, state, total, _ in live:
            logp = _decode_logprobs(params, state, no_pad)
            for tok in np.argsort(-logp, kind="stable")[: config.beam_width]:
                tok = int(tok)
                new_total = total + float(logp[tok])
                done = tok == vocab.eos_id
                new_toks = toks if done else toks + (tok,)
                candidates.append((new_total / (len(toks) + 1), new_toks, state, new_total, done))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = [
            (score, toks, state if done else step(params, state, toks[-1]), total, done)
            for score, toks, state, total, done in candidates[: config.beam_width]
        ]
    return list(beams[0][1])

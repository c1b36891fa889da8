"""Scoring, retrieval-first ranking and decoding, against plain reference loops."""

import itertools

import numpy as np
import pytest

from arrowlm.corpus import Vocab, build_vocab, split_sentences
from arrowlm.inference import DecodeConfig, generate_free, retrieval_first, score_continuation
from arrowlm.model import pack_batch, step
from arrowlm.retrieval import build_db

from conftest import TOY_RAW
from oracles import materialized_loss, random_params


def materialized_total(params, prefix, continuation):
    """Total log-probability of ``continuation`` from the all-logits loss."""
    tokens, mask = pack_batch([list(prefix) + list(continuation)], pad_id=params.vocab_size - 1)
    mask[0, : len(prefix) - 1] = False
    return -materialized_loss(params, tokens, mask) * len(continuation)


def masked_logprobs(params, h, pad_id):
    """Next-token log-probabilities with PAD excluded, via a float64 log-sum-exp."""
    logits = params.w_out.astype(np.float64) @ h
    keep = np.arange(len(logits)) != pad_id
    top = logits[keep].max()
    logp = logits - top - np.log(np.exp(logits[keep] - top).sum())
    logp[pad_id] = -np.inf
    return logp


def run_prefix(params, prefix):
    h = params.h0.copy()
    for tok in prefix:
        h = step(params, h, tok)
    return h


@pytest.mark.parametrize("seed", range(4))
def test_score_continuation_equals_materialized_loss(seed):
    rng = np.random.default_rng(seed)
    params = random_params(9, 8, 3, seed)
    prefix = [int(t) for t in rng.integers(0, 8, 1 + seed)]
    continuation = [int(t) for t in rng.integers(0, 8, 4)]
    total, per_token = score_continuation(params, prefix, continuation)
    assert len(per_token) == len(continuation)
    assert abs(total - materialized_total(params, prefix, continuation)) <= 1e-10


class TestRetrievalFirst:
    @pytest.fixture(scope="class")
    def toy(self):
        sentences = split_sentences(TOY_RAW)
        vocab = build_vocab(sentences)
        return sentences, vocab, build_db(sentences), random_params(len(vocab), 8, 3, 17)

    @pytest.mark.parametrize("query", [["the"], ["the", "cat"], ["sits", "on"], ["cat"], ["mat"]])
    def test_ranks_like_brute_force(self, toy, query):
        sentences, vocab, db, params = toy
        expected: dict[tuple, tuple] = {}
        exact = []
        for sid, sent in enumerate(sentences):
            for start in range(len(sent) - len(query) + 1):
                if sent[start : start + len(query)] != query:
                    continue
                rest = tuple(sent[start + len(query) :])
                if not rest:
                    exact.append(sid)
                elif rest not in expected:
                    total = materialized_total(params, vocab.encode(query), vocab.encode(rest))
                    expected[rest] = (-total / len(rest), sid)
        ranking = sorted(expected, key=expected.get)
        result = retrieval_first(params, vocab, db, query, k=len(ranking) + 1)
        assert [c.continuation for c in result.ranked] == ranking
        for cand in result.ranked:
            assert cand.mean_logprob == pytest.approx(-expected[cand.continuation][0], abs=1e-10)
            assert cand.sentence_id == expected[cand.continuation][1]
        assert sorted(c.sentence_id for c in result.exact_matches) == sorted(set(exact))
        assert bool(result) == bool(ranking or exact)
        top = retrieval_first(params, vocab, db, query, k=1)
        assert top.ranked == result.ranked[:1]

    def test_absent_query_is_empty(self, toy):
        _, vocab, db, params = toy
        assert not retrieval_first(params, vocab, db, ["mouse", "sits"])
        assert not retrieval_first(params, vocab, db, ["unicorn"])


def test_greedy_equals_argmax_loop():
    vocab = Vocab(["a", "b", "c", "d", "e"])
    config = DecodeConfig(mode="greedy", max_new_tokens=12)
    pad_wins = eos_stops = 0
    for seed in range(6):
        params = random_params(len(vocab), 8, 3, 100 + seed)
        params.w_out[vocab.pad_id] *= 5.0  # PAD would win many argmaxes if it were allowed
        params.w_out[vocab.eos_id] += 0.2 * seed
        prompt = [seed % 5, (seed + 2) % 5]
        h = run_prefix(params, prompt)
        expected = []
        for _ in range(config.max_new_tokens):
            pad_wins += int(np.argmax(params.w_out @ h)) == vocab.pad_id
            tok = int(np.argmax(masked_logprobs(params, h, vocab.pad_id)))
            if tok == vocab.eos_id:
                eos_stops += 1
                break
            expected.append(tok)
            h = step(params, h, tok)
        assert generate_free(params, vocab, prompt, config) == expected, seed
    assert pad_wins > 0 and eos_stops > 0


@pytest.mark.parametrize("seed", range(4))
def test_wide_beam_equals_exhaustive_search(seed):
    vocab = Vocab(["a", "b", "c"])
    params = random_params(len(vocab), 8, 3, 200 + seed)
    params.w_out[vocab.eos_id] += 0.3 * seed
    prompt, horizon = [seed % 3], 3
    h0 = run_prefix(params, prompt)
    words = [vocab.index[w] for w in ("a", "b", "c")]
    scored = []
    for length in range(horizon + 1):
        for toks in itertools.product(words, repeat=length):
            h, total = h0, 0.0
            for tok in toks:
                total += masked_logprobs(params, h, vocab.pad_id)[tok]
                h = step(params, h, tok)
            if length < horizon:  # finished: the EOS is scored and counted
                eos = total + masked_logprobs(params, h, vocab.pad_id)[vocab.eos_id]
                scored.append((eos / (length + 1), toks))
            else:
                scored.append((total / length, toks))
    best = max(scored)[1]
    config = DecodeConfig(mode="beam", beam_width=500, max_new_tokens=horizon)
    assert generate_free(params, vocab, prompt, config) == list(best)


def reference_beam(params, vocab, prompt, width, horizon):
    """Plain beam search; a hypothesis keeps the mean log-probability it was made with."""
    beams = [(0.0, [], run_prefix(params, prompt), 0.0, False)]  # score, tokens, state, total, done
    for _ in range(horizon):
        if all(done for *_, done in beams):
            break
        pool = [b for b in beams if b[4]]
        for _, toks, h, total, done in beams:
            if done:
                continue
            logp = masked_logprobs(params, h, vocab.pad_id)
            for tok in sorted(range(len(logp)), key=lambda t: -logp[t])[:width]:
                new_total = total + logp[tok]
                if tok == vocab.eos_id:
                    pool.append((new_total / (len(toks) + 1), toks, h, new_total, True))
                else:
                    pool.append((new_total / (len(toks) + 1), toks + [tok], h, new_total, False))
        pool.sort(key=lambda b: (-b[0], b[1]))
        beams = [
            (score, toks, h if done else step(params, h, toks[-1]), total, done)
            for score, toks, h, total, done in pool[:width]
        ]
    return beams[0][1]


def test_beam_equals_reference_beam():
    vocab = Vocab(["a", "b", "c"])
    for seed in range(200):
        params = random_params(len(vocab), 6, 2, 300 + seed)
        params.w_out[vocab.eos_id] += 0.5 * (seed % 4)
        width, prompt = 2 + seed % 2, [seed % 3]
        config = DecodeConfig(mode="beam", beam_width=width, max_new_tokens=6)
        expected = reference_beam(params, vocab, prompt, width, config.max_new_tokens)
        assert generate_free(params, vocab, prompt, config) == expected, seed

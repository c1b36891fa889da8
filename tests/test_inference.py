"""Scoring, retrieval-first ranking and decoding, against plain reference loops."""

import numpy as np
import pytest

from arrowlm import inference
from arrowlm.corpus import Vocab, build_vocab, split_sentences
from arrowlm.inference import DecodeConfig, generate_free, retrieval_first, score_continuation
from arrowlm.model import ModelError, pack_batch, step
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


# A float32 total's error relative to float64, at most: twice the worst that per-token gemv
# readouts gave (1.5e-7, seeds 0-19 of the test below), before one product read them all out.
FLOAT32_SCORE_BOUND = 3e-7


@pytest.mark.parametrize("seed", range(3))
def test_float32_scores_at_query_tail_shape_stay_near_float64(seed):
    # |V| = 2,720, d = 64, r = 8, as query-tail's checkpoint.  Continuations of 1 to 40 tokens read
    # their logits out as 1 to 40 rows: OpenBLAS's small-matrix path up to 5, its packed one from 6.
    params = random_params(2720, 64, 8, seed, dtype=np.float32)
    exact = params.like(params.flat.astype(np.float64))
    rng = np.random.default_rng(seed)
    prefix = [int(t) for t in rng.integers(0, 2718, 3)]
    means, exact_means = [], []
    for n in range(1, 41):
        continuation = [int(t) for t in rng.integers(0, 2718, n)]
        total, _ = score_continuation(params, prefix, continuation)
        want = materialized_total(exact, prefix, continuation)
        assert abs(total - want) <= FLOAT32_SCORE_BOUND * abs(want), n
        means.append(total / n)
        exact_means.append(want / n)
    # Ranked by mean, as retrieval_first ranks, float32 keeps float64's order wherever the
    # float64 means differ by more than both of their bounds.
    for a in range(40):
        for b in range(40):
            gap = FLOAT32_SCORE_BOUND * (abs(exact_means[a]) + abs(exact_means[b]))
            if exact_means[a] - exact_means[b] > gap:
                assert means[a] > means[b], (a, b)


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

    def test_scores_each_distinct_continuation_once(self, monkeypatch):
        # "a" is followed by "b" in two sentences and by "c" in one: two scorings.
        sentences = [["x", "a", "b"], ["y", "a", "b"], ["a", "c"]]
        vocab = build_vocab(sentences)
        params = random_params(len(vocab), 8, 3, 5)
        scored = []

        def counting(params, prefix, continuation):
            scored.append(vocab.decode(continuation))
            return score_continuation(params, prefix, continuation)

        monkeypatch.setattr(inference, "score_continuation", counting)
        result = retrieval_first(params, vocab, build_db(sentences), ["a"], k=5)
        assert sorted(scored) == [["b"], ["c"]]
        assert sorted(c.continuation for c in result.ranked) == [("b",), ("c",)]


def skewed_params(vocab, seed):
    """Parameters whose PAD logit often wins, and whose EOS grows likelier with the seed."""
    params = random_params(len(vocab), 8, 3, 100 + seed)
    params.w_out[vocab.pad_id] *= 5.0
    params.w_out[vocab.eos_id] += 0.2 * seed
    return params


def test_greedy_equals_argmax_loop():
    vocab = Vocab(["a", "b", "c", "d", "e"])
    config = DecodeConfig(mode="greedy", max_new_tokens=12)
    pad_wins = eos_stops = 0
    for seed in range(6):
        params = skewed_params(vocab, seed)
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


@pytest.mark.parametrize("temperature", [1e-300, 0.5, 1.0, 3.0])
def test_sampling_equals_softmax_draw_loop(temperature):
    # Each token is drawn with the decoder's seeded generator from the float64
    # exp((logit - max) / T) / sum over the logits, PAD's set to -inf.
    vocab = Vocab(["a", "b", "c", "d", "e"])
    for seed in range(6):
        params = skewed_params(vocab, seed)
        prompt = [seed % 5, (seed + 2) % 5]
        config = DecodeConfig(mode="sample", temperature=temperature, max_new_tokens=12, seed=seed)
        rng, h, expected = np.random.default_rng(seed), run_prefix(params, prompt), []
        for _ in range(config.max_new_tokens):
            logits = (params.w_out @ h).astype(np.float64)
            logits[vocab.pad_id] = -np.inf
            with np.errstate(over="ignore"):  # a tiny T sends every other logit to -inf
                probs = np.exp((logits - logits.max()) / temperature)
            tok = int(rng.choice(len(probs), p=probs / probs.sum()))
            if tok == vocab.eos_id:
                break
            expected.append(tok)
            h = step(params, h, tok)
        assert generate_free(params, vocab, prompt, config) == expected, seed


def test_scoring_steps_every_token_but_the_last(count_calls):
    # The last continuation token's state would feed no distribution.
    params = random_params(9, 8, 3, 0)
    calls = count_calls(inference, "step")
    for m, n in [(1, 1), (1, 4), (3, 1), (3, 4)]:
        calls.calls = 0
        score_continuation(params, list(range(m)), list(range(1, n + 1)))
        assert calls.calls == m + n - 1, (m, n)


def test_decoding_steps_every_token_but_the_last(count_calls):
    vocab = Vocab(["a", "b", "c", "d", "e"])
    params, prompt = skewed_params(vocab, 4), [1, 3]  # five greedy tokens, none of them EOS
    calls = count_calls(inference, "step")
    for n in (0, 1, 5):
        calls.calls = 0
        out = generate_free(params, vocab, prompt, DecodeConfig(max_new_tokens=n))
        assert len(out) == n  # no EOS ends it early
        assert calls.calls == len(prompt) + max(n - 1, 0), n


@pytest.mark.parametrize(
    "settings",
    [
        dict(mode="beam"),
        dict(temperature=0.0),
        dict(temperature=-1.0),
        dict(mode="sample", temperature=float("nan")),
        dict(mode="sample", temperature=float("inf")),
        dict(max_new_tokens=-1),
    ],
)
def test_decode_config_refuses_bad_settings(settings):
    with pytest.raises(ValueError):
        DecodeConfig(**settings)


@pytest.mark.parametrize("mode", ["greedy", "sample"])
def test_zero_new_tokens_generate_nothing(mode):
    # query accepts --max-new-tokens 0, so a free generation may be asked for no token.
    vocab = Vocab(["a", "b", "c", "d", "e"])
    config = DecodeConfig(mode=mode, max_new_tokens=0)
    assert generate_free(skewed_params(vocab, 0), vocab, [1, 3], config) == []


@pytest.mark.parametrize("mode", ["greedy", "sample"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_chosen_logit_raises(mode, bad):
    # argmax returns the first NaN, so a NaN after the largest finite logit is
    # still the chosen one; +inf is the largest logit outright.
    vocab = Vocab(["a", "b", "c", "d", "e"])
    params, prompt = random_params(len(vocab), 8, 3, 5, dtype=np.float32), [1, 3]
    h = run_prefix(params, prompt)
    params.w_out[0] = 10 * h  # the largest finite logit
    params.w_out[3] = np.where(h > 0, bad, 0.0)
    logits = params.w_out @ h
    np.testing.assert_equal(logits[3], bad)
    assert np.argmax(np.where(np.isfinite(logits), logits, -np.inf)) == 0
    with pytest.raises(ModelError, match="next-token logit is"):
        generate_free(params, vocab, prompt, DecodeConfig(mode=mode, max_new_tokens=4))


@pytest.mark.parametrize("seed", range(6))
def test_tiny_temperature_sampling_is_greedy(seed):
    # At T = 1e-320, (logit - max) / T is -inf for every token but the argmax.
    vocab = Vocab(["a", "b", "c", "d", "e"])
    params, prompt = skewed_params(vocab, seed), [seed % 5, (seed + 2) % 5]
    greedy = generate_free(params, vocab, prompt, DecodeConfig(mode="greedy", max_new_tokens=12))
    for decode_seed in range(3):
        config = DecodeConfig(mode="sample", temperature=1e-320, max_new_tokens=12, seed=decode_seed)
        assert generate_free(params, vocab, prompt, config) == greedy


def test_sampling_is_seeded_and_never_emits_pad():
    vocab = Vocab(["a", "b", "c", "d", "e"])
    pad_wins, outputs = 0, set()
    for seed in range(12):
        params, prompt = skewed_params(vocab, seed % 6), [seed % 5]
        config = DecodeConfig(mode="sample", max_new_tokens=12, seed=seed)
        out = generate_free(params, vocab, prompt, config)
        assert generate_free(params, vocab, prompt, config) == out
        assert vocab.pad_id not in out
        outputs.add(tuple(out))
        for i in range(len(out) + 1):
            h = run_prefix(params, prompt + out[:i])
            pad_wins += int(np.argmax(params.w_out @ h)) == vocab.pad_id
    assert pad_wins > 0 and len(outputs) > 1


@pytest.mark.parametrize("temperature", [0.5, 2.0])
def test_first_token_frequencies_match_softmax(temperature):
    # The draws come from fixed seeds, so the outcome is deterministic; each
    # frequency must lie within 4 binomial standard errors (plus 1/n) of the
    # float64 softmax of logits / T over the tokens other than PAD.
    vocab = Vocab(["a", "b", "c", "d", "e"])
    params, prompt, n = skewed_params(vocab, 2), [1, 3], 4000
    logits = params.w_out @ run_prefix(params, prompt)
    logits[vocab.pad_id] = -np.inf
    expected = np.exp((logits - logits.max()) / temperature)
    expected /= expected.sum()
    counts = np.zeros(len(vocab))
    for seed in range(n):
        config = DecodeConfig(mode="sample", temperature=temperature, max_new_tokens=1, seed=seed)
        out = generate_free(params, vocab, prompt, config)
        counts[out[0] if out else vocab.eos_id] += 1
    assert counts[vocab.pad_id] == 0
    tolerance = 4 * np.sqrt(expected * (1 - expected) / n) + 1 / n
    assert np.all(np.abs(counts / n - expected) <= tolerance), (counts / n, expected)

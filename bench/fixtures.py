"""Seeded, deterministic inputs for the benchmark workloads.

Every generator takes the workload seed and returns the same bytes for the
same seed.  ``make_fixtures`` writes one workload's inputs into a directory
and returns the sha256 digest of each file it wrote, so two runs (or two
commits) can confirm that they measured identical inputs.  Nothing here is
timed.

The text is Zipfian (exponent 1.1) over a syllable vocabulary, with
lognormal sentence lengths clipped at the corpus ``max_len``; frequent
words are short, as in natural text.  Formulas come from the test oracle's
``random_formula`` family plus long left-nested chains.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from pathlib import Path

import numpy as np

from arrowlm import cli, corpus, model
from arrowlm.formula import Interner, print_formula
from oracles import random_formula, random_params

ZIPF_EXPONENT = 1.1
WORD_TYPES = 20_000
SENTENCE_MEDIAN = 12
SENTENCE_SIGMA = 0.35
MAX_LEN = cli.DEFAULTS["max_len"]
K_MAX = cli.DEFAULTS["max_frag"]

# Corpus sizes in sentences.  query-tail's store is several times the
# build-train corpus, so lookup and decode dominate.
TRAIN_SENTENCES = 200
TAIL_SENTENCES = 800

FORMULA_DEPTHS = (6, 7, 8)
FORMULA_ATOMS = ("p", "q", "r")
CHAIN_EVERY = 32  # one formula in CHAIN_EVERY is a long chain
CHAIN_MIN, CHAIN_MAX = 64, 4096

PROVE_FORMULAS = 3_072
TAIL_QUERIES = 400

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def _spellings(seed: int, count: int) -> list[str]:
    """Distinct words; rank k is the bijective base-70 numeral of k in syllables."""
    table = list(_SYLLABLES)
    random.Random(seed).shuffle(table)
    base = len(table)
    words = []
    for rank in range(1, count + 1):
        parts = []
        while rank:
            rank, digit = divmod(rank - 1, base)
            parts.append(table[digit])
        words.append("".join(reversed(parts)))
    return words


def _quotas(total: int, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Largest-remainder integer counts summing to ``total``, in proportion to ``weights``."""
    exact = weights * total / weights.sum()
    counts = np.floor(exact).astype(int)
    order = np.lexsort((rng.random(len(weights)), -(exact - counts)))
    counts[order[: total - counts.sum()]] += 1
    return counts


def zipf_text(seed: int, n_sentences: int) -> str:
    """Raw text between boilerplate markers, as the corpus stage expects.

    Sentence lengths are the lognormal's quantiles and each word occurs its
    Zipf quota of times, in random order: the seed changes the text but not
    its statistics, so runs on different seeds cost about the same.
    """
    rng = _rng(seed, 1)
    words = _spellings(seed, WORD_TYPES)
    normal = statistics.NormalDist(math.log(SENTENCE_MEDIAN), SENTENCE_SIGMA)
    lengths = [round(math.exp(normal.inv_cdf((i + 0.5) / n_sentences))) for i in range(n_sentences)]
    lengths = np.clip(rng.permutation(lengths), 1, MAX_LEN)
    probs = np.arange(1, WORD_TYPES + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    ranks = rng.permutation(np.repeat(np.arange(WORD_TYPES), _quotas(int(lengths.sum()), probs, rng)))
    enders = rng.choice([".", ".", ".", "!", "?"], size=n_sentences)
    commas = rng.random(len(ranks)) < 0.05
    lines = ["Header line\n", "*** START OF THE SYNTHETIC TEXT ***\n"]
    pos = 0
    for length, ender in zip(lengths, enders):
        toks = [words[r] + ("," if commas[pos + i] else "") for i, r in enumerate(ranks[pos : pos + length])]
        toks[0] = toks[0].capitalize()
        lines.append(" ".join(toks) + ender + "\n")
        pos += length
    lines.append("*** END OF THE SYNTHETIC TEXT ***\nFooter line\n")
    return "".join(lines)


def chain_text(atoms: list[str]) -> str:
    """Left-nested chain ``((a1->a2)->a3)->...`` built without recursion."""
    return "(" * (len(atoms) - 2) + atoms[0] + "".join(f"->{a})" for a in atoms[1:-1]) + "->" + atoms[-1]


def formulas(seed: int, count: int) -> list[tuple[str, int, str]]:
    """The prove-mix set: (family, depth or length, text) triples.

    Random formulas cycle through the depths; every CHAIN_EVERY-th item is a
    chain.  Chain lengths are stratified over a log scale from CHAIN_MIN to
    CHAIN_MAX (one per stratum, in random order), so every seed gets the
    same spread of lengths.  Chains of a few hundred atoms and more overflow
    the recursive parser or prover today; they stay in the set and count as
    failures.
    """
    rng = random.Random(seed)
    interner = Interner()
    atoms = [interner.atom(a) for a in FORMULA_ATOMS]
    strata = count // CHAIN_EVERY
    span = math.log(CHAIN_MAX) - math.log(CHAIN_MIN)
    lengths = [round(CHAIN_MIN * math.exp(span * (k + 0.5) / strata)) for k in range(strata)]
    rng.shuffle(lengths)
    out = []
    for i in range(count):
        if i % CHAIN_EVERY == CHAIN_EVERY - 1:
            n = lengths.pop()
            out.append(("chain", n, chain_text([rng.choice(FORMULA_ATOMS) for _ in range(n)])))
        else:
            depth = FORMULA_DEPTHS[i % len(FORMULA_DEPTHS)]
            out.append(("random", depth, print_formula(random_formula(rng, atoms, depth))))
    return out


def _build_corpus(raw: str, out_dir: Path) -> list[list[str]]:
    """The corpus stage, untimed, to produce the artifacts queries load."""
    sentences = corpus.split_sentences(corpus.strip_boilerplate(raw), max_len=MAX_LEN)
    vocab = corpus.build_vocab(sentences)
    corpus.write_sentences(out_dir / "sentences.txt", sentences)
    corpus.write_vocab(out_dir / "vocab.txt", vocab)
    return sentences


def generic_checkpoint(seed: int, vocab: corpus.Vocab, path: Path) -> None:
    """float32 parameters at a generic point, so candidate scores do not tie."""
    params = random_params(len(vocab), cli.DEFAULTS["d"], cli.DEFAULTS["r"], seed, dtype=np.float32)
    model.save_checkpoint(params, vocab, path)


def tail_queries(seed: int, sentences: list[list[str]]) -> list[dict]:
    """Long n-grams, rare words, wildcard patterns and out-of-vocabulary queries."""
    rng = _rng(seed, 4)
    counts: dict[str, int] = {}
    for sent in sentences:
        for w in sent:
            counts[w] = counts.get(w, 0) + 1
    rare = sorted(w for w, c in counts.items() if c <= 2)
    long_sents = [s for s in sentences if len(s) >= K_MAX + 3]
    windowed = [s for s in sentences if len(s) >= 3]
    queries = []
    for q in range(TAIL_QUERIES):
        family = q % 4
        if family == 0:
            sent = long_sents[rng.integers(len(long_sents))]
            n = int(rng.integers(K_MAX + 1, K_MAX + 4))
            off = int(rng.integers(len(sent) - n + 1))
            queries.append({"kind": "text", "text": " ".join(sent[off : off + n])})
        elif family == 1:
            queries.append({"kind": "text", "text": rare[rng.integers(len(rare))]})
        elif family == 2:
            sent = windowed[rng.integers(len(windowed))]
            off = int(rng.integers(len(sent) - 2))
            a, b, c = sent[off : off + 3]
            shape = int(rng.integers(3))
            text = [f"{a} _ {c}", f"?x {b} {c}", f"{a} ?x ?y"][shape]
            queries.append({"kind": "pattern", "text": text})
        else:
            known = rare[rng.integers(len(rare))]
            queries.append({"kind": "text", "text": f"qoov{q} {known}"})
    return queries


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_fixtures(workload: str, seed: int, out_dir: Path) -> dict[str, str]:
    """Write ``workload``'s inputs into ``out_dir``; return {file: sha256}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "prove-mix":
        (out_dir / "formulas.json").write_text(json.dumps(formulas(seed, PROVE_FORMULAS)), encoding="utf-8")
    elif workload == "build-train":
        (out_dir / "raw.txt").write_text(zipf_text(seed, TRAIN_SENTENCES), encoding="utf-8")
    else:
        size = TAIL_SENTENCES if workload == "query-tail" else TRAIN_SENTENCES
        sentences = _build_corpus(zipf_text(seed, size), out_dir)
        vocab = corpus.read_vocab(out_dir / "vocab.txt")
        generic_checkpoint(seed, vocab, out_dir / "model.ckpt")
        (out_dir / "queries.json").write_text(json.dumps(tail_queries(seed, sentences)), encoding="utf-8")
    return {p.name: _digest(p) for p in sorted(out_dir.iterdir()) if p.is_file()}

"""Independent oracles the tests check the package against.

Everything here is deliberately implemented by a different route from the
code under test: a history-checked exhaustive sequent search instead of
the committed four-rule prover, an environment-based normalizer against
witnesses built already normal, brute-force subsequence enumeration,
central finite differences instead of the hand-written backward pass, an
all-logits-at-once loss instead of the streaming one, AdamW written as
plain expressions instead of in-place temporaries, the initial parameters
drawn tensor by tensor and concatenated instead of drawn into views of one
buffer, and ``fragments.txt`` rendered word by word from each fragment's ids
instead of sliced from its sentence.  It also holds the helpers only tests
need: the chain -> token-list inverse, fragment enumeration,
alpha-equivalence and a text-in, text-out exact query.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from arrowlm.corpus import normalize_words
from arrowlm.formula import Atom, Formula, FormulaError, Imp, list_to_impl, print_formula
from arrowlm.model import _DECAYED, ADAM_EPS, BETA1, BETA2, ModelParams, forward_loss
from arrowlm.prover import App, Lam, ProofTerm, Var
from arrowlm.retrieval import EmptyQuery, SentenceDB

# ---------------------------------------------------------------------------
# Exhaustive sequent search (loop-checked) for implicational intuitionistic
# provability.  Left rule keeps the used implication (contraction); cycles on
# a branch are cut by the history set; successes are absolute and memoized.
# ---------------------------------------------------------------------------


def lj_provable(goal: Formula, _memo={}) -> bool:
    def search(gamma: frozenset, goal: Formula, history: frozenset) -> bool:
        if goal in gamma:
            return True
        key = (gamma, goal)
        if _memo.get(key):
            return True
        if key in history:
            return False
        history = history | {key}
        if isinstance(goal, Imp):
            if search(gamma | {goal.antecedent}, goal.consequent, history):
                _memo[key] = True
                return True
        for f in gamma:
            if isinstance(f, Imp):
                if search(gamma, f.antecedent, history) and search(
                    gamma | {f.consequent}, goal, history
                ):
                    _memo[key] = True
                    return True
        return False

    return search(frozenset(), goal, frozenset())


def enumerate_formulas(atoms: list[Atom], max_nodes: int) -> list[Formula]:
    """Every formula tree with at most ``max_nodes`` implication nodes."""

    @lru_cache(maxsize=None)
    def exactly(n: int) -> tuple[Formula, ...]:
        if n == 0:
            return tuple(atoms)
        out = []
        for left in range(n):
            for a in exactly(left):
                for b in exactly(n - 1 - left):
                    out.append(Imp(a, b))
        return tuple(out)

    result: list[Formula] = []
    for n in range(max_nodes + 1):
        result.extend(exactly(n))
    exactly.cache_clear()
    return result


def random_formula(rng, atoms: list[Atom], max_depth: int) -> Formula:
    if max_depth == 0 or rng.random() < 0.4:
        return atoms[rng.randrange(len(atoms))]
    return Imp(
        random_formula(rng, atoms, max_depth - 1),
        random_formula(rng, atoms, max_depth - 1),
    )


# ---------------------------------------------------------------------------
# Environment-based (normalization-by-evaluation) lambda normalizer.
# ---------------------------------------------------------------------------


class _Closure:
    def __init__(self, bound, body, env):
        self.bound, self.body, self.env = bound, body, env


class _Neutral:
    def __init__(self, head, args=()):
        self.head, self.args = head, tuple(args)


def nbe_normal_form(term: ProofTerm) -> ProofTerm:
    def evaluate(t, env):
        if isinstance(t, Var):
            return env.get(t.name, _Neutral(t.name))
        if isinstance(t, Lam):
            return _Closure(t.bound, t.body, env)
        return apply(evaluate(t.fun, env), evaluate(t.arg, env))

    def apply(fun, arg):
        if isinstance(fun, _Closure):
            return evaluate(fun.body, {**fun.env, fun.bound: arg})
        return _Neutral(fun.head, fun.args + (arg,))

    counter = itertools.count(1)

    def reify(value) -> ProofTerm:
        if isinstance(value, _Closure):
            name = f"n{next(counter)}"
            return Lam(name, reify(apply(value, _Neutral(name))))
        out: ProofTerm = Var(value.head)
        for arg in value.args:
            out = App(out, reify(arg))
        return out

    return reify(evaluate(term, {}))


def alpha_eq(a: ProofTerm, b: ProofTerm) -> bool:
    """Structural equality up to renaming of bound variables."""

    def go(a: ProofTerm, b: ProofTerm, ea: dict[str, int], eb: dict[str, int], depth: int) -> bool:
        if isinstance(a, Var) and isinstance(b, Var):
            return ea.get(a.name, a.name) == eb.get(b.name, b.name)
        if isinstance(a, Lam) and isinstance(b, Lam):
            return go(a.body, b.body, {**ea, a.bound: depth}, {**eb, b.bound: depth}, depth + 1)
        if isinstance(a, App) and isinstance(b, App):
            return go(a.fun, b.fun, ea, eb, depth) and go(a.arg, b.arg, ea, eb, depth)
        return False

    return go(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# Chains and sequence helpers.
# ---------------------------------------------------------------------------


class NotAChain(FormulaError):
    """The formula is not a left-nested chain (some consequent is compound)."""


def impl_to_list(f: Formula) -> list[Atom]:
    """Invert :func:`arrowlm.formula.list_to_impl` on left-nested chains."""
    rev: list[Atom] = []
    node = f
    while isinstance(node, Imp):
        if not isinstance(node.consequent, Atom):
            raise NotAChain(f"compound consequent: {print_formula(node.consequent)}")
        rev.append(node.consequent)
        node = node.antecedent
    rev.append(node)
    rev.reverse()
    return rev


def suffix_prefixes(f: Formula) -> list[Formula]:
    """Enumerate the n(n+1)/2 chain encodings of all contiguous subsequences.

    Order matches the suffix-then-prefix generation: suffixes from the
    last token outward, and within each suffix the prefixes longest first.
    """
    tokens = impl_to_list(f)
    n = len(tokens)
    out: list[Formula] = []
    for i in range(n - 1, -1, -1):
        for j in range(n, i, -1):
            out.append(list_to_impl(tokens[i:j]))
    return out


def contiguous_subsequences(tokens) -> set[tuple]:
    n = len(tokens)
    return {tuple(tokens[i:j]) for i in range(n) for j in range(i + 1, n + 1)}


def scan_matches(sentences, words) -> list[int]:
    """Sentence ids containing ``words`` contiguously (brute force)."""
    words = tuple(words)
    hits = []
    for sid, toks in enumerate(sentences):
        toks = tuple(toks)
        if any(toks[i : i + len(words)] == words for i in range(len(toks) - len(words) + 1)):
            hits.append(sid)
    return hits


def query_text(db: SentenceDB, raw: str) -> list[str]:
    """Normalize ``raw`` as the corpus is, query exactly, render hits as text."""
    words = normalize_words(raw)
    if not words:
        raise EmptyQuery("query is empty after normalization")
    hits = dict.fromkeys(sid for sid, _ in db.occurrences(words))  # each sentence once
    return [" ".join(db.sentences[sid]) for sid in hits]


def pattern_windows(sentences, parts) -> list[tuple[int, int, dict[str, str]]]:
    """Every (sentence id, offset, bindings) where a pattern matches (brute force).

    ``parts`` holds words, ``_`` and ``?name`` (``?`` alone is anonymous);
    each name must see one word across the window.  Windows come in
    (sentence id, offset) order.
    """
    out = []
    for sid, toks in enumerate(sentences):
        toks = tuple(toks)
        for off in range(len(toks) - len(parts) + 1):
            window = toks[off : off + len(parts)]
            seen: dict[str, set] = {}
            for part, word in zip(parts, window):
                if len(part) > 1 and part.startswith("?"):
                    seen.setdefault(part[1:], set()).add(word)
            words_agree = all(
                part == word for part, word in zip(parts, window) if part != "_" and part[0] != "?"
            )
            if words_agree and all(len(ws) == 1 for ws in seen.values()):
                out.append((sid, off, {name: min(ws) for name, ws in seen.items()}))
    return out


def fragments_file(sentences, vocab, k_frag: int, max_len: int) -> tuple[list[tuple[int, ...]], str]:
    """The fragments ``enumerate_fragments`` keeps, and ``fragments.txt`` for them.

    Windows of 2..k_frag words, then the sentence with EOS, first-seen order
    with repeats dropped; each line is rendered from its ids, one word at a time.
    """
    fragments: dict[tuple[int, ...], None] = {}
    for sent in sentences:
        ids = vocab.encode(sent[:max_len])
        for i in range(len(ids)):
            for j in range(i + 2, min(i + k_frag, len(ids)) + 1):
                fragments.setdefault(tuple(ids[i:j]))
        fragments.setdefault((*ids, vocab.eos_id))
    text = "".join(" ".join(vocab.words[i] for i in frag) + "\n" for frag in fragments)
    return list(fragments), text


# ---------------------------------------------------------------------------
# Numerical oracles.
# ---------------------------------------------------------------------------


def finite_difference_grads(
    params: ModelParams, tokens: np.ndarray, mask: np.ndarray, delta: float = 1e-4
) -> ModelParams:
    """Central finite differences of the mean loss for every coordinate."""
    grads = params.like(np.zeros_like(params.flat))
    flat = params.flat  # every tensor is a view into it
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + delta
        up, _ = forward_loss(params, tokens, mask)
        flat[i] = original - delta
        down, _ = forward_loss(params, tokens, mask)
        flat[i] = original
        grads.flat[i] = (up - down) / (2 * delta)
    return grads


def materialized_loss(params: ModelParams, tokens: np.ndarray, mask: np.ndarray) -> float:
    """Loss with all per-step logits stacked first, same summation order."""
    batch, width = tokens.shape
    h = np.broadcast_to(params.h0, (batch, params.d)).copy()
    all_logits = []
    for t in range(width - 1):
        s = np.tanh(params.emb[tokens[:, t]])
        z = h @ params.v
        pre = h + (z * s) @ params.u.T
        mu = pre.mean(axis=-1, keepdims=True)
        var = ((pre - mu) ** 2).mean(axis=-1, keepdims=True)
        h = params.gain * (pre - mu) / np.sqrt(var + params.eps) + params.bias
        all_logits.append(h @ params.w_out.T)
    total = 0.0
    rows = np.arange(batch)
    for t in range(width - 1):
        logits = all_logits[t]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        nll = -logp[rows, tokens[:, t + 1]]
        total += float(np.sum(nll, where=mask[:, t], initial=0.0))
    return total / int(mask.sum())


def layer_norm(params: ModelParams, pre: np.ndarray):
    """LayerNorm of a (d,) state with (1,)-shaped statistics: the expression ``model._layer_norm``
    used for one state before its statistics became numpy scalars.  Returns (out, xhat, inv_std)."""
    centered = pre - pre.sum(axis=-1, keepdims=True) / params.d
    var = (centered * centered).sum(axis=-1, keepdims=True) / params.d
    inv_std = 1.0 / np.sqrt(var + params.eps)
    xhat = centered * inv_std
    return params.gain * xhat + params.bias, xhat, inv_std


def adamw_step(params: ModelParams, grads: ModelParams, m: dict, v: dict, step_count: int, config) -> None:
    """AdamW step ``step_count`` (from 1) as plain expressions; updates ``params``, ``m``, ``v``."""
    lr = config.lr
    if config.warmup_steps > 0:
        lr = config.lr * min(step_count, config.warmup_steps) / config.warmup_steps
    bc1 = 1.0 - BETA1**step_count
    bc2 = 1.0 - BETA2**step_count
    for (name, param), (_, grad) in zip(params.tensors(), grads.tensors()):
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * grad
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * grad * grad
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
        if name in _DECAYED and config.weight_decay > 0:
            update = update + config.weight_decay * param
        param -= (lr * update).astype(param.dtype)


def dense_operator(params: ModelParams, token: int) -> np.ndarray:
    """Materialize M_t = I + U diag(tanh(emb_t)) V^T (tests only)."""
    s = np.tanh(params.emb[token])
    return np.eye(params.d, dtype=params.h0.dtype) + params.u @ np.diag(s) @ params.v.T


def random_params(
    vocab_size: int, d: int, r: int, seed: int, dtype=np.float64
) -> ModelParams:
    """A generic (mid-training-like) parameter point.

    The fresh initialization is a special point (near-identity operators,
    zero bias, unit gain); numeric tests (finite differences, operator
    commutators) need a generic point instead.
    """
    rng = np.random.default_rng(seed)
    tensors = (
        rng.normal(0, 1.0, d),  # h0
        rng.normal(0, 0.5, (vocab_size, r)),  # emb
        rng.normal(0, 0.3, (d, r)),  # u
        rng.normal(0, 0.3, (d, r)),  # v
        1.0 + rng.normal(0, 0.1, d),  # gain
        rng.normal(0, 0.1, d),  # bias
        rng.normal(0, 0.3, (vocab_size, d)),  # w_out
    )
    return ModelParams(np.concatenate([arr.ravel() for arr in tensors]).astype(dtype), d, r, vocab_size)


def init_params_reference(vocab_size: int, d: int, r: int, seed: int, dtype=np.float32) -> np.ndarray:
    """``model.init_params``' flat buffer, drawn tensor by tensor and concatenated in checkpoint order."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return (rng.standard_normal(shape) * 0.02).astype(dtype)

    emb, u, v, w_out = draw(vocab_size, r), draw(d, r), draw(d, r), draw(vocab_size, d)
    h0, gain, bias = rng.standard_normal(d).astype(dtype), np.ones(d, dtype), np.zeros(d, dtype)
    return np.concatenate([arr.ravel() for arr in (h0, emb, u, v, gain, bias, w_out)])

"""Token-operator recurrent language model with hand-derived gradients.

Each token ``t`` acts on the state through the low-rank operator
``M_t = I + U diag(s_t) V^T`` with gate ``s_t = tanh(emb[t])``; the state
update is ``h' = LayerNorm(h + U((V^T h) * s_t))``.  The operator is
always applied in factored form (cost O(d*r) per step); the dense matrix
is never materialized here.  Next-token logits are ``W_out @ h``.

The output layer is differentiated inside :func:`forward_loss`, one block
of states at a time, so peak transient memory is bounded by the block, not
by the sequence length, and :func:`backward` never rebuilds logits or a
softmax.

The parameters, their gradients and Adam's two moments are each a
:class:`ModelParams` over one flat array, so AdamW, gradient clipping and
the checkpoint each walk one array.  A checkpoint is one file: the floats,
then the words that name their rows, all under one CRC32.

Everything is seeded, so runs are bit-reproducible for a fixed BLAS thread
count; nothing here pins that count (the CLI's manifests record it), and
matrix products may sum in a different order under another one.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import DEFAULTS, ModelError
from .corpus import CorpusError, Vocab

CHECKPOINT_MAGIC = b"ARRW"
CHECKPOINT_VERSION = 2


class InvalidShape(ModelError):
    pass


class TokenOutOfRange(ModelError):
    pass


class DegenerateBatch(ModelError):
    """A batch with no prediction positions."""


class NonFiniteTraining(ModelError):
    """A step's loss or gradient norm is not finite, or trained activations can overflow."""


class FormatVersionMismatch(ModelError):
    """Checkpoint magic, version, or header is inconsistent."""


class ChecksumMismatch(ModelError):
    """Checkpoint CRC32 does not match its contents."""


# Every trainable tensor in checkpoint order, with its axes over d, r and
# the vocabulary size v.  This is also the order of ModelParams.flat.
_TENSORS = (
    ("h0", "d"),  # initial state
    ("emb", "vr"),  # gate embeddings
    ("u", "dr"),  # output basis
    ("v", "dr"),  # input basis
    ("gain", "d"),  # LayerNorm gain
    ("bias", "d"),  # LayerNorm bias
    ("w_out", "vd"),  # output projection
)
# Set once by the constructor: the views, and the sizes that fix their layout.
_FIXED = frozenset({"flat", "d", "r", "vocab_size", *(name for name, _ in _TENSORS)})


@lru_cache
def _layout(d: int, r: int, vocab_size: int) -> tuple[tuple, int]:
    """Each tensor's ``(name, slice of flat, shape)`` in checkpoint order, and the size of flat."""
    sizes, layout, end = {"d": d, "r": r, "v": vocab_size}, [], 0
    for name, axes in _TENSORS:
        shape = tuple(sizes[axis] for axis in axes)
        start, end = end, end + math.prod(shape)
        layout.append((name, slice(start, end), shape))
    return tuple(layout), end


class ModelParams:
    """The trainable tensors, or their gradients or an optimizer moment.

    ``flat`` holds them all, in :data:`_TENSORS` order (checkpoint order is
    memory order is optimizer order), and each tensor attribute is a view
    into it, laid out by :func:`_layout`; the constructor copies nothing.
    Write through a view; rebinding one would detach it from ``flat``, so it
    raises, as does rebinding a size.
    """

    def __init__(self, flat: np.ndarray, d: int, r: int, vocab_size: int, eps: float = 1e-5):
        layout, size = _layout(d, r, vocab_size)
        if flat.shape != (size,):
            raise InvalidShape(f"flat has shape {flat.shape}, the layout needs ({size},)")
        self.__dict__.update(
            {name: flat[where].reshape(shape) for name, where, shape in layout},
            flat=flat, d=d, r=r, vocab_size=vocab_size, eps=eps,
        )

    def like(self, flat: np.ndarray) -> "ModelParams":
        """Tensors of this one's shapes as views into ``flat``, e.g. ``np.empty_like(p.flat)``."""
        return ModelParams(flat, self.d, self.r, self.vocab_size, self.eps)

    def __setattr__(self, name: str, value) -> None:
        if name in _FIXED and value is not self.__dict__[name]:  # x += y rebinds x to itself
            raise AttributeError(f"cannot rebind {name}: write the tensors through their views")
        self.__dict__[name] = value

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """``(name, array)`` pairs in checkpoint order."""
        return [(name, self.__dict__[name]) for name, _ in _TENSORS]


@dataclass
class TrainConfig:
    d: int = DEFAULTS["d"]
    r: int = DEFAULTS["r"]
    lr: float = DEFAULTS["lr"]
    warmup_steps: int = DEFAULTS["warmup"]
    epochs: int = DEFAULTS["epochs"]
    batch_size: int = DEFAULTS["batch_size"]
    k_frag: int = DEFAULTS["max_frag"]  # the longest window train cuts from a sentence
    # Nothing in arrowlm reads this one; it stays because bench/workloads.py passes it.
    max_len: int = DEFAULTS["max_len"]
    seed: int = DEFAULTS["seed"]
    weight_decay: float = DEFAULTS["weight_decay"]
    clip_norm: float = DEFAULTS["clip_norm"]


@dataclass
class StepTape:
    """What backward needs from forward_loss, stacked time-major; W_out is differentiated already."""

    tokens: np.ndarray  # (B, T) the padded batch
    n_pred: int
    grads: ModelParams  # w_out holds the whole W_out gradient; backward writes the rest
    h: np.ndarray  # (T, B, d) the states before each step, then the last one
    z: np.ndarray  # (T-1, B, r) V^T h
    s: np.ndarray  # (T-1, B, r) gates
    g: np.ndarray  # (T-1, B, r) z * s
    xhat: np.ndarray  # (T-1, B, d) normalized pre-activations
    inv_std: np.ndarray  # (T-1, B, 1)
    d_h: np.ndarray  # (T-1, B, d) each step's state gradient from its own logits


def init_params(
    vocab_size: int, d: int, r: int, seed: int, dtype=np.float32
) -> ModelParams:
    """Seeded N(0, 0.02^2) matrices, N(0, 1) h0, zero bias, unit gain.

    A zero h0 with zero bias would start every state at exactly zero, where
    LayerNorm divides by ``sqrt(eps)`` and the backward recurrence blows up.
    h0 is drawn after the matrices, so their values do not depend on it.
    """
    if not (d >= r >= 1):
        raise InvalidShape(f"need d >= r >= 1, got d={d}, r={r}")
    if vocab_size < 1:
        raise InvalidShape("vocab_size must be >= 1")
    params = ModelParams(np.zeros(_layout(d, r, vocab_size)[1], dtype), d, r, vocab_size)
    rng = np.random.default_rng(seed)
    for arr in (params.emb, params.u, params.v, params.w_out):
        arr[...] = rng.standard_normal(arr.shape) * 0.02
    params.h0[...] = rng.standard_normal(d)
    params.gain.fill(1.0)
    return params


def _layer_norm(params: ModelParams, pre: np.ndarray):
    """LayerNorm of (B, d) states, or of one (d,) state, with the statistics along the last axis.

    A batch keeps (B, 1) statistics; one state's are numpy scalars of its
    dtype, which round as one-element arrays do but skip a ufunc call each.
    ``sum / d`` is bit-identical to ``mean`` and costs a fraction of its
    call overhead.
    """
    d, keep = pre.shape[-1], pre.ndim > 1
    centered = pre - pre.sum(axis=-1, keepdims=keep) / d
    var = (centered * centered).sum(axis=-1, keepdims=keep) / d
    inv_std = 1.0 / np.sqrt(var + params.eps)
    xhat = centered * inv_std
    return params.gain * xhat + params.bias, xhat, inv_std


def _step_cached(params: ModelParams, h: np.ndarray, tokens):
    """Update (B, d) states by (B,) tokens, or a (d,) state by one token; add tape entries."""
    s = np.tanh(params.emb[tokens])
    z = h @ params.v
    g = z * s
    pre = h + g @ params.u.T
    out, xhat, inv_std = _layer_norm(params, pre)
    return out, (z, s, g, xhat, inv_std)


def step(params: ModelParams, h: np.ndarray, token: int) -> np.ndarray:
    """Apply one token operator to a single (d,) state vector, with no batch axis."""
    if not (0 <= token < params.vocab_size):
        raise TokenOutOfRange(f"token {token} outside vocabulary of {params.vocab_size}")
    return _step_cached(params, h, token)[0]


def pack_batch(fragments: Sequence[Sequence[int]], pad_id: int):
    """Pad fragments into a (B, T) token array and (B, T-1) prediction mask."""
    if not fragments:
        raise DegenerateBatch("empty batch")
    batch = len(fragments)
    width = max(len(f) for f in fragments)
    tokens = np.full((batch, width), pad_id, dtype=np.int64)
    mask = np.zeros((batch, max(width - 1, 0)), dtype=bool)
    for i, frag in enumerate(fragments):
        tokens[i, : len(frag)] = frag
        if len(frag) >= 2:
            mask[i, : len(frag) - 1] = True
    return tokens, mask


def _softmax(logits: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """Turn (B, V) ``logits`` into ``exp(logits - row max)`` in place, with one exp; return
    the log-probabilities of ``targets`` (B,) and the (B, 1) sums that normalize the rows."""
    logits -= logits.max(axis=-1, keepdims=True)
    picked = logits[np.arange(len(logits)), targets]
    sums = np.exp(logits, out=logits).sum(axis=-1, keepdims=True)
    return picked - np.log(sums[:, 0]), sums


def _validate_tokens(params: ModelParams, tokens: np.ndarray) -> None:
    if tokens.size and (tokens.min() < 0 or tokens.max() >= params.vocab_size):
        raise TokenOutOfRange(
            f"token ids must lie in [0, {params.vocab_size}), got "
            f"[{tokens.min()}, {tokens.max()}]"
        )


# Rows of one output-layer block.  A default batch (32 fragments of at most
# 5 tokens, so 4 steps) is one block; 128-row blocks measured slower.
_OUT_ROWS = 256


def forward_loss(
    params: ModelParams, tokens: np.ndarray, mask: np.ndarray
) -> tuple[float, StepTape]:
    """Mean next-token cross-entropy (nats per prediction) plus the tape.

    After consuming ``tokens[:, :t+1]`` the model scores ``tokens[:, t+1]``;
    ``mask[:, t]`` marks real prediction positions.  The time loop runs only
    the token operators; the output layer then reads the states out in
    time-major blocks of at most ``_OUT_ROWS`` rows, so logits exist for one
    block at a time.  The tape's logit gradient is each block's one exp,
    scaled per row by ``mask / (n_pred * row sum)`` in the parameters'
    dtype, less that weight at the target.
    """
    _validate_tokens(params, tokens)
    if tokens.ndim != 2 or mask.shape != (tokens.shape[0], tokens.shape[1] - 1):
        raise InvalidShape("tokens must be (B, T) with mask (B, T-1)")
    n_pred = int(mask.sum())
    if n_pred == 0:
        raise DegenerateBatch("batch has no prediction positions")
    batch, width = tokens.shape
    steps, dtype = width - 1, params.h0.dtype
    h = np.empty((width, batch, params.d), dtype)
    h[0] = params.h0
    z, s, g = (np.empty((steps, batch, params.r), dtype) for _ in range(3))
    xhat, inv_std = np.empty((steps, batch, params.d), dtype), np.empty((steps, batch, 1), dtype)
    for t in range(steps):
        h[t + 1], (z[t], s[t], g[t], xhat[t], inv_std[t]) = _step_cached(params, h[t], tokens[:, t])
    states = h[1:].reshape(-1, params.d)
    targets, live = tokens[:, 1:].T.ravel(), mask.T.ravel()
    weight = (live / n_pred).astype(params.w_out.dtype)
    d_h = np.empty_like(states)
    logits = np.empty((min(len(states), _OUT_ROWS), params.vocab_size), params.w_out.dtype)
    grads = params.like(np.empty_like(params.flat))  # every tensor is written before it is read
    total = 0.0
    for lo in range(0, len(states), _OUT_ROWS):
        rows = slice(lo, lo + _OUT_ROWS)
        h_rows = states[rows]
        d_logits = np.matmul(h_rows, params.w_out.T, out=logits[: len(h_rows)])
        logp, sums = _softmax(d_logits, targets[rows])
        total -= float(np.sum(logp, where=live[rows], initial=0.0))
        d_logits *= weight[rows, None] / sums
        d_logits[np.arange(len(d_logits)), targets[rows]] -= weight[rows]
        if lo == 0:
            np.matmul(d_logits.T, h_rows, out=grads.w_out)
        else:
            grads.w_out += d_logits.T @ h_rows
        np.matmul(d_logits, params.w_out, out=d_h[rows])
    tape = StepTape(tokens, n_pred, grads, h, z, s, g, xhat, inv_std, d_h.reshape(xhat.shape))
    return total / n_pred, tape


def backward(params: ModelParams, tape: StepTape) -> ModelParams:
    """Exact reverse-mode gradients of the mean loss for every tensor.

    The output layer was differentiated during :func:`forward_loss`, so the
    time loop walks only the recurrence, starting each step from the tape's
    ``d_h``; each parameter gradient is then taken once over all steps and
    written through its view of the tape's ``grads``, which it returns.
    LayerNorm uses the standard three-term rule for population statistics.
    """
    d_out, d_pre, d_g = np.empty_like(tape.d_h), np.empty_like(tape.d_h), np.empty_like(tape.g)
    d_next = np.zeros_like(tape.d_h[0])
    for t in range(len(tape.d_h) - 1, -1, -1):
        d_xhat = np.add(tape.d_h[t], d_next, out=d_out[t]) * params.gain
        xhat = tape.xhat[t]
        d_pre[t] = tape.inv_std[t] * (
            d_xhat
            - d_xhat.sum(axis=-1, keepdims=True) / params.d
            - xhat * ((d_xhat * xhat).sum(axis=-1, keepdims=True) / params.d)
        )
        np.matmul(d_pre[t], params.u, out=d_g[t])
        d_next = d_pre[t] + (d_g[t] * tape.s[t]) @ params.v.T
    grads = tape.grads
    d_next.sum(axis=0, out=grads.h0)
    grads.emb.fill(0)
    d_emb = d_g * tape.z * (1.0 - tape.s**2)
    np.add.at(grads.emb, tape.tokens[:, :-1].T.ravel(), d_emb.reshape(-1, params.r))
    np.matmul(d_pre.reshape(-1, params.d).T, tape.g.reshape(-1, params.r), out=grads.u)
    np.matmul(tape.h[:-1].reshape(-1, params.d).T, (d_g * tape.s).reshape(-1, params.r), out=grads.v)
    (d_out * tape.xhat).sum(axis=(0, 1), out=grads.gain)
    d_out.sum(axis=(0, 1), out=grads.bias)
    return grads


def clip_gradients(grads: ModelParams, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``."""
    # Per-tensor squares summed in checkpoint order; one vdot over flat rounds differently.
    norm = math.sqrt(sum(float(np.vdot(arr, arr)) for _, arr in grads.tensors()))
    if max_norm > 0 and norm > max_norm:
        grads.flat *= max_norm / norm
    return norm


# LayerNorm gain/bias and the initial state are excluded from weight decay,
# matching the usual treatment of norm and bias-like parameters.
_DECAYED = frozenset({"emb", "u", "v", "w_out"})
# Adam's moment decay rates and denominator floor, at their usual values.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Bias-corrected AdamW with decoupled weight decay."""

    def __init__(self, params: ModelParams, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self.m = params.like(np.zeros_like(params.flat))
        self.v = params.like(np.zeros_like(params.flat))
        layout, _ = _layout(params.d, params.r, params.vocab_size)
        self.decayed = [where for name, where, _ in layout if name in _DECAYED]

    def learning_rate(self) -> float:
        cfg = self.config
        if cfg.warmup_steps > 0:
            return cfg.lr * min(self.step_count, cfg.warmup_steps) / cfg.warmup_steps
        return cfg.lr

    def update(self, params: ModelParams, grads: ModelParams) -> None:
        cfg = self.config
        self.step_count += 1
        lr = self.learning_rate()
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        param, grad, m, v = params.flat, grads.flat, self.m.flat, self.v.flat
        # Two temporaries reused in place, in the order of (m/bc1) / (sqrt(v/bc2) + eps) + wd*p.
        tmp = np.multiply(grad, 1.0 - BETA1)
        m *= BETA1
        m += tmp
        np.multiply(grad, 1.0 - BETA2, out=tmp)
        v *= BETA2
        v += np.multiply(tmp, grad, out=tmp)
        update = np.divide(v, bc2)
        np.add(np.sqrt(update, out=update), ADAM_EPS, out=update)
        np.divide(np.divide(m, bc1, out=tmp), update, out=update)
        if cfg.weight_decay > 0:
            for run in self.decayed:
                np.add(update[run], np.multiply(param[run], cfg.weight_decay, out=tmp[run]),
                       out=update[run])
        param -= np.multiply(update, lr, out=update)


def _make_batches(
    fragments: Sequence[Sequence[int]], batch_size: int, rng: np.random.Generator
) -> list[list[Sequence[int]]]:
    """Shuffle, stable-sort by length (bucketing), chunk, shuffle chunk order."""
    order = list(rng.permutation(len(fragments)))
    order.sort(key=lambda i: len(fragments[i]))
    chunks = [
        [fragments[i] for i in order[lo : lo + batch_size]]
        for lo in range(0, len(order), batch_size)
    ]
    return [chunks[i] for i in rng.permutation(len(chunks))]


@np.errstate(over="ignore", invalid="ignore")  # both failures below raise NonFiniteTraining
def train(
    params: ModelParams,
    fragments: Sequence[Sequence[int]],
    config: TrainConfig,
    pad_id: int,
) -> tuple[ModelParams, list[float]]:
    """AdamW training over the fragment set; returns per-epoch mean losses.

    ``params`` is updated in place.  Raises :class:`NonFiniteTraining`
    before applying a step whose loss or gradient norm is not finite, and
    after the last step, every step applied to ``params``, when
    :func:`activation_bound` exceeds the largest value of their dtype.
    """
    if not fragments:
        raise DegenerateBatch("training set is empty")
    rng = np.random.default_rng(config.seed)
    optimizer = AdamW(params, config)
    history: list[float] = []
    for _ in range(config.epochs):
        epoch_nll = 0.0
        epoch_pred = 0
        for batch in _make_batches(fragments, config.batch_size, rng):
            tokens, mask = pack_batch(batch, pad_id)
            loss, tape = forward_loss(params, tokens, mask)
            grads = backward(params, tape)
            norm = clip_gradients(grads, config.clip_norm)
            if not (math.isfinite(loss) and math.isfinite(norm)):
                raise NonFiniteTraining(
                    f"step {optimizer.step_count + 1}: loss {loss}, gradient norm {norm}"
                )
            optimizer.update(params, grads)
            epoch_nll += loss * tape.n_pred
            epoch_pred += tape.n_pred
        history.append(epoch_nll / epoch_pred)
    bound, dtype = activation_bound(params), params.flat.dtype
    if not bound <= float(np.finfo(dtype).max):  # NaN fails too
        raise NonFiniteTraining(f"activations can reach {bound:.3g}, beyond {dtype}")
    return params, history


def activation_bound(params: ModelParams) -> float:
    """A bound, from the parameters alone, on the magnitudes a forward pass computes.

    LayerNorm keeps each state coordinate within ``|gain| sqrt(d) + |bias|``
    (as is ``h0``) and gates lie in [-1, 1]; this bounds the pre-LayerNorm
    values, the sum of their squared deviations and the logit spread.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = {name: np.abs(arr.astype(np.float64)) for name, arr in params.tensors()}
        state = np.maximum(a["h0"].max(), a["gain"].max() * math.sqrt(params.d) + a["bias"].max())
        z = state * a["v"].sum(axis=0).max()
        pre = state + a["u"].sum(axis=1).max() * z
        spread = 2.0 * state * a["w_out"].sum(axis=1).max()
        return float(np.max([z, pre, params.d * (2.0 * pre) ** 2, spread]))


_HEADER = struct.Struct("<4sIIIIf")  # magic, version, d, r, vocab, eps


def save_checkpoint(params: ModelParams, vocab: Vocab, path) -> None:
    """Write the header, ``flat`` as float32, ``vocab.text()`` as UTF-8, then a CRC32."""
    if params.vocab_size != len(vocab):
        raise InvalidShape(
            f"params cover {params.vocab_size} tokens but vocab has {len(vocab)}"
        )
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, params.d, params.r, params.vocab_size, params.eps
    )
    blob = header + params.flat.astype("<f4").tobytes() + vocab.text().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob + struct.pack("<I", zlib.crc32(blob)))


def load_checkpoint(path) -> tuple[ModelParams, Vocab]:
    """Inverse of :func:`save_checkpoint`: checks the CRC, the header, then the parsed words."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size + 4:
        raise ChecksumMismatch("checkpoint file is too short")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ChecksumMismatch("checkpoint CRC32 does not match contents")
    magic, version, d, r, vocab_size, eps = _HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC or version != CHECKPOINT_VERSION:
        raise FormatVersionMismatch(
            f"unsupported checkpoint magic/version {magic!r}/{version}"
        )
    _, size = _layout(d, r, vocab_size)
    end = _HEADER.size + 4 * size
    # A header whose sizes end the floats early leaves float bytes to read as words: bad UTF-8,
    # or characters outside the words' alphabet.  Sizes that overrun them leave no words.
    try:
        vocab = Vocab.parse(data[end:-4].decode("utf-8"))
    except (CorpusError, UnicodeDecodeError) as exc:
        raise FormatVersionMismatch(f"bad vocabulary after d={d}, r={r}: {exc}") from None
    if len(vocab) != vocab_size:
        raise FormatVersionMismatch(f"checkpoint stores {len(vocab)} words; its header (d={d}, "
                                    f"r={r}) needs {vocab_size}")
    flat = np.frombuffer(data, dtype="<f4", count=size, offset=_HEADER.size)
    params = ModelParams(flat.copy(), d, r, vocab_size, eps)  # the read buffer is read-only
    return params, vocab

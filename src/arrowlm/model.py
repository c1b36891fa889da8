"""Token-operator recurrent language model with hand-derived gradients.

Each token ``t`` acts on the state through the low-rank operator
``M_t = I + U diag(s_t) V^T`` with gate ``s_t = tanh(emb[t])``; the state
update is ``h' = LayerNorm(h + U((V^T h) * s_t))``.  The operator is
always applied in factored form (cost O(d*r) per step); the dense matrix
is never materialized here.  Next-token logits are ``W_out @ h``.

The loss is streamed: per time step the (batch x vocab) logits are
materialized, consumed by the cross-entropy, and discarded, so peak
transient memory does not scale with sequence length.  The backward pass
recomputes each step's logits from the tape for the same reason.

Training is AdamW (bias-corrected, decoupled weight decay on the matrix
parameters) with a linear warmup to a constant learning rate, global
gradient-norm clipping, and length-bucketed batches.  Everything is
seeded, so runs are bit-reproducible for a fixed BLAS thread count;
nothing here pins that count, and matrix products may sum in a different
order under another one.  A step whose loss or gradient norm is not
finite stops training with :class:`NonFiniteTraining`.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .corpus import Vocab, read_vocab, write_vocab

CHECKPOINT_MAGIC = b"ARRW"
CHECKPOINT_VERSION = 1


class ModelError(Exception):
    """Base class for model errors."""


class InvalidShape(ModelError):
    pass


class TokenOutOfRange(ModelError):
    pass


class DegenerateBatch(ModelError):
    """A batch with no prediction positions."""


class TapeMismatch(ModelError):
    """backward() received a tape recorded for a different batch."""


class NonFiniteTraining(ModelError):
    """A training step produced a non-finite loss or gradient norm."""


class FormatVersionMismatch(ModelError):
    """Checkpoint magic, version, or header is inconsistent."""


class ChecksumMismatch(ModelError):
    """Checkpoint CRC32 does not match its contents."""


# Every trainable tensor in checkpoint order, with its axes over d, r and
# the vocabulary size v.
_TENSORS = (
    ("h0", "d"),
    ("emb", "vr"),
    ("u", "dr"),
    ("v", "dr"),
    ("gain", "d"),
    ("bias", "d"),
    ("w_out", "vd"),
)


class _TensorSet:
    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """``(name, array)`` pairs in checkpoint order."""
        return [(name, getattr(self, name)) for name, _ in _TENSORS]


@dataclass
class ModelParams(_TensorSet):
    """All trainable tensors; see the module docstring for roles."""

    h0: np.ndarray  # (d,) initial state
    emb: np.ndarray  # (vocab, r) gate embeddings
    u: np.ndarray  # (d, r) output basis
    v: np.ndarray  # (d, r) input basis
    gain: np.ndarray  # (d,) LayerNorm gain
    bias: np.ndarray  # (d,) LayerNorm bias
    w_out: np.ndarray  # (vocab, d) output projection
    eps: float = 1e-5

    @property
    def d(self) -> int:
        return self.h0.shape[0]

    @property
    def r(self) -> int:
        return self.u.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.w_out.shape[0]


@dataclass
class Gradients(_TensorSet):
    """Per-tensor gradients, same shapes as :class:`ModelParams`."""

    h0: np.ndarray
    emb: np.ndarray
    u: np.ndarray
    v: np.ndarray
    gain: np.ndarray
    bias: np.ndarray
    w_out: np.ndarray

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "Gradients":
        return cls(*(np.zeros_like(arr) for _, arr in params.tensors()))


@dataclass
class TrainConfig:
    d: int = 64
    r: int = 8
    lr: float = 3e-3
    warmup_steps: int = 100
    epochs: int = 1
    batch_size: int = 32
    k_frag: int = 5
    max_len: int = 256
    seed: int = 42
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0


@dataclass
class StepTape:
    """Per-step intermediates cached by forward_loss for the backward pass."""

    tokens: np.ndarray  # (B, T) the padded batch
    mask: np.ndarray  # (B, T-1) prediction-position mask
    n_pred: int
    h_in: list[np.ndarray] = field(default_factory=list)  # (B, d) per step
    z: list[np.ndarray] = field(default_factory=list)  # (B, r)
    s: list[np.ndarray] = field(default_factory=list)  # (B, r)
    g: list[np.ndarray] = field(default_factory=list)  # (B, r)
    xhat: list[np.ndarray] = field(default_factory=list)  # (B, d)
    inv_std: list[np.ndarray] = field(default_factory=list)  # (B, 1)


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
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return (rng.standard_normal(shape) * 0.02).astype(dtype)

    emb, u, v, w_out = draw(vocab_size, r), draw(d, r), draw(d, r), draw(vocab_size, d)
    return ModelParams(
        h0=rng.standard_normal(d).astype(dtype),
        emb=emb,
        u=u,
        v=v,
        gain=np.ones(d, dtype=dtype),
        bias=np.zeros(d, dtype=dtype),
        w_out=w_out,
        eps=1e-5,
    )


def _layer_norm(params: ModelParams, pre: np.ndarray):
    mu = pre.mean(axis=-1, keepdims=True)
    centered = pre - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + params.eps)
    xhat = centered * inv_std
    return params.gain * xhat + params.bias, xhat, inv_std


def _step_cached(params: ModelParams, h: np.ndarray, tokens: np.ndarray):
    """One batched update; returns the new state plus tape entries."""
    s = np.tanh(params.emb[tokens])
    z = h @ params.v
    g = z * s
    pre = h + g @ params.u.T
    out, xhat, inv_std = _layer_norm(params, pre)
    return out, (z, s, g, xhat, inv_std)


def step(params: ModelParams, h: np.ndarray, token: int) -> np.ndarray:
    """Apply one token operator to a single state vector."""
    if not (0 <= token < params.vocab_size):
        raise TokenOutOfRange(f"token {token} outside vocabulary of {params.vocab_size}")
    out, _ = _step_cached(params, h[None, :], np.array([token]))
    return out[0]


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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _validate_tokens(params: ModelParams, tokens: np.ndarray) -> None:
    if tokens.size and (tokens.min() < 0 or tokens.max() >= params.vocab_size):
        raise TokenOutOfRange(
            f"token ids must lie in [0, {params.vocab_size}), got "
            f"[{tokens.min()}, {tokens.max()}]"
        )


def forward_loss(
    params: ModelParams, tokens: np.ndarray, mask: np.ndarray
) -> tuple[float, StepTape]:
    """Mean next-token cross-entropy (nats per prediction) plus the tape.

    After consuming ``tokens[:, :t+1]`` the model scores ``tokens[:, t+1]``;
    ``mask[:, t]`` marks real prediction positions.  Logits are streamed
    step by step and never stacked across time.
    """
    _validate_tokens(params, tokens)
    if tokens.ndim != 2 or mask.shape != (tokens.shape[0], tokens.shape[1] - 1):
        raise InvalidShape("tokens must be (B, T) with mask (B, T-1)")
    n_pred = int(mask.sum())
    if n_pred == 0:
        raise DegenerateBatch("batch has no prediction positions")
    batch, width = tokens.shape
    tape = StepTape(tokens=tokens, mask=mask, n_pred=n_pred)
    h = np.broadcast_to(params.h0, (batch, params.d)).copy()
    total = 0.0
    for t in range(width - 1):
        tape.h_in.append(h)
        h, (z, s, g, xhat, inv_std) = _step_cached(params, h, tokens[:, t])
        tape.z.append(z)
        tape.s.append(s)
        tape.g.append(g)
        tape.xhat.append(xhat)
        tape.inv_std.append(inv_std)
        logits = h @ params.w_out.T
        logp = _log_softmax(logits)
        rows = np.arange(batch)
        step_nll = -logp[rows, tokens[:, t + 1]]
        total += float(np.sum(step_nll, where=mask[:, t], initial=0.0))
        # logits/logp fall out of scope here: peak memory is O(batch * vocab)
    return total / n_pred, tape


def backward(
    params: ModelParams, tokens: np.ndarray, mask: np.ndarray, tape: StepTape
) -> Gradients:
    """Exact reverse-mode gradients of the mean loss for every tensor.

    Logits are recomputed per step from the tape so the backward pass is
    as streaming as the forward one.  LayerNorm uses the standard
    three-term rule for population statistics.
    """
    if (
        tape.tokens.shape != tokens.shape
        or not np.array_equal(tape.tokens, tokens)
        or not np.array_equal(tape.mask, mask)
        or len(tape.h_in) != tokens.shape[1] - 1
    ):
        raise TapeMismatch("tape was not produced by forward_loss on this batch")
    grads = Gradients.zeros_like(params)
    batch, width = tokens.shape
    rows = np.arange(batch)
    d_h_next = np.zeros((batch, params.d), dtype=params.h0.dtype)
    for t in range(width - 2, -1, -1):
        xhat = tape.xhat[t]
        inv_std = tape.inv_std[t]
        h_out = params.gain * xhat + params.bias
        logits = h_out @ params.w_out.T
        shifted = logits - logits.max(axis=-1, keepdims=True)
        expd = np.exp(shifted)
        probs = expd / expd.sum(axis=-1, keepdims=True)
        d_logits = probs
        d_logits[rows, tokens[:, t + 1]] -= 1.0
        d_logits *= mask[:, t, None] / tape.n_pred
        grads.w_out += d_logits.T @ h_out
        d_out = d_logits @ params.w_out + d_h_next
        grads.gain += (d_out * xhat).sum(axis=0)
        grads.bias += d_out.sum(axis=0)
        d_xhat = d_out * params.gain
        d_pre = inv_std * (
            d_xhat
            - d_xhat.mean(axis=-1, keepdims=True)
            - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
        )
        d_g = d_pre @ params.u
        grads.u += d_pre.T @ tape.g[t]
        d_z = d_g * tape.s[t]
        d_s = d_g * tape.z[t]
        grads.v += tape.h_in[t].T @ d_z
        np.add.at(grads.emb, tokens[:, t], d_s * (1.0 - tape.s[t] ** 2))
        d_h_next = d_pre + d_z @ params.v.T
    grads.h0 += d_h_next.sum(axis=0)
    return grads


def global_grad_norm(grads: Gradients) -> float:
    return float(np.sqrt(sum(float((arr * arr).sum()) for _, arr in grads.tensors())))


def clip_gradients(grads: Gradients, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``."""
    norm = global_grad_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, arr in grads.tensors():
            arr *= scale
    return norm


# LayerNorm gain/bias and the initial state are excluded from weight decay,
# matching the usual treatment of norm and bias-like parameters.
_DECAYED = frozenset({"emb", "u", "v", "w_out"})


class AdamW:
    """Bias-corrected AdamW with decoupled weight decay."""

    def __init__(self, params: ModelParams, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.tensors()}

    def learning_rate(self) -> float:
        cfg = self.config
        if cfg.warmup_steps > 0:
            return cfg.lr * min(self.step_count, cfg.warmup_steps) / cfg.warmup_steps
        return cfg.lr

    def update(self, params: ModelParams, grads: Gradients) -> None:
        cfg = self.config
        self.step_count += 1
        lr = self.learning_rate()
        bc1 = 1.0 - cfg.beta1**self.step_count
        bc2 = 1.0 - cfg.beta2**self.step_count
        for (name, param), (_, grad) in zip(params.tensors(), grads.tensors()):
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * grad
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * grad * grad
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
            if name in _DECAYED and cfg.weight_decay > 0:
                update = update + cfg.weight_decay * param
            param -= (lr * update).astype(param.dtype)


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


def train(
    params: ModelParams,
    fragments: Sequence[Sequence[int]],
    config: TrainConfig,
    pad_id: Optional[int] = None,
) -> tuple[ModelParams, list[float]]:
    """AdamW training over the fragment set; returns per-epoch mean losses.

    ``params`` is updated in place.  ``pad_id`` defaults to the last
    vocabulary id, matching the vocab file layout.  Raises
    :class:`NonFiniteTraining` before applying a step whose loss or
    gradient norm is not finite.
    """
    if not fragments:
        raise DegenerateBatch("training set is empty")
    if pad_id is None:
        pad_id = params.vocab_size - 1
    rng = np.random.default_rng(config.seed)
    optimizer = AdamW(params, config)
    history: list[float] = []
    for _ in range(config.epochs):
        epoch_nll = 0.0
        epoch_pred = 0
        for batch in _make_batches(fragments, config.batch_size, rng):
            tokens, mask = pack_batch(batch, pad_id)
            loss, tape = forward_loss(params, tokens, mask)
            grads = backward(params, tokens, mask, tape)
            norm = clip_gradients(grads, config.clip_norm)
            if not (math.isfinite(loss) and math.isfinite(norm)):
                raise NonFiniteTraining(
                    f"step {optimizer.step_count + 1}: loss {loss}, gradient norm {norm}"
                )
            optimizer.update(params, grads)
            epoch_nll += loss * tape.n_pred
            epoch_pred += tape.n_pred
        history.append(epoch_nll / epoch_pred)
    return params, history


_HEADER = struct.Struct("<4sIIIIf")  # magic, version, d, r, vocab, eps


def save_checkpoint(params: ModelParams, vocab: Vocab, path) -> None:
    """Write the binary checkpoint and its vocab sidecar (``<path>.vocab``)."""
    if params.vocab_size != len(vocab):
        raise InvalidShape(
            f"params cover {params.vocab_size} tokens but vocab has {len(vocab)}"
        )
    blob = bytearray(
        _HEADER.pack(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            params.d,
            params.r,
            params.vocab_size,
            params.eps,
        )
    )
    for _, arr in params.tensors():
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    write_vocab(f"{path}.vocab", vocab)


def load_checkpoint(path) -> tuple[ModelParams, Vocab]:
    """Inverse of :func:`save_checkpoint`; verifies CRC, magic, and sizes."""
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
    sizes = {"d": d, "r": r, "v": vocab_size}
    shapes = [tuple(sizes[axis] for axis in axes) for _, axes in _TENSORS]
    expected = _HEADER.size + 4 * sum(int(np.prod(s)) for s in shapes) + 4
    if len(data) != expected:
        raise FormatVersionMismatch(
            f"checkpoint size {len(data)} does not match header "
            f"(d={d}, r={r}, vocab={vocab_size})"
        )
    offset = _HEADER.size
    arrays = []
    for shape in shapes:
        count = int(np.prod(shape))
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        arrays.append(arr.reshape(shape).copy())
        offset += 4 * count
    params = ModelParams(*arrays, eps=eps)
    vocab = read_vocab(f"{path}.vocab")
    if len(vocab) != vocab_size:
        raise FormatVersionMismatch(
            f"vocab sidecar has {len(vocab)} entries, header says {vocab_size}"
        )
    return params, vocab

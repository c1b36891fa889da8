"""Forward/backward numerics, training behavior, checkpoint format."""

import math
import tracemalloc

import numpy as np
import pytest

from arrowlm.corpus import Vocab, write_vocab
from arrowlm.model import (
    AdamW,
    ChecksumMismatch,
    DegenerateBatch,
    FormatVersionMismatch,
    InvalidShape,
    ModelParams,
    NonFiniteTraining,
    TokenOutOfRange,
    TrainConfig,
    _OUT_ROWS,
    _HEADER,
    _TENSORS,
    _layer_norm,
    activation_bound,
    backward,
    clip_gradients,
    forward_loss,
    init_params,
    load_checkpoint,
    pack_batch,
    save_checkpoint,
    step,
    train,
)

import oracles
from oracles import (
    adamw_step,
    dense_operator,
    finite_difference_grads,
    materialized_loss,
    random_params,
)


def random_batch(rng, vocab_size, n_seq, length):
    tokens = rng.integers(0, vocab_size - 1, size=(n_seq, length))  # no PAD
    mask = np.ones((n_seq, length - 1), dtype=bool)
    return tokens, mask


def assert_close_grads(analytic, numeric, rtol):
    for (name, a), (_, f) in zip(analytic.tensors(), numeric.tensors()):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        rel = np.abs(a - f) / denom
        assert rel.max() <= rtol, (name, rel.max())


def layer_norm(params, pre):
    centered = pre - pre.mean()
    return params.gain * centered / np.sqrt(np.mean(centered**2) + params.eps) + params.bias


class TestInitParams:
    def test_deterministic(self):
        a = init_params(13, 64, 8, 42)
        b = init_params(13, 64, 8, 42)
        for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    @pytest.mark.parametrize("vocab_size, d, r", [(13, 64, 8), (943, 64, 8), (7, 5, 5), (1, 4, 2), (1, 1, 1)])
    def test_matches_the_draw_then_concatenate_reference(self, vocab_size, d, r, seed, dtype):
        flat = init_params(vocab_size, d, r, seed, dtype=dtype).flat
        reference = oracles.init_params_reference(vocab_size, d, r, seed, dtype=dtype)
        assert flat.dtype == reference.dtype and np.array_equal(flat, reference)

    def test_invalid_shape(self):
        with pytest.raises(InvalidShape):
            init_params(13, 4, 8, 1)
        with pytest.raises(InvalidShape):
            init_params(13, 4, 0, 1)

    def test_initial_loss_near_uniform(self):
        rng = np.random.default_rng(0)
        params = init_params(11, 32, 4, 7)
        tokens, mask = random_batch(rng, 11, 8, 6)
        loss, _ = forward_loss(params, tokens, mask)
        assert abs(loss - np.log(11)) / np.log(11) < 0.05


class TestModelParams:
    """One flat buffer in checkpoint order, with every tensor a view into it."""

    def test_tensors_are_views_of_flat_in_checkpoint_order(self):
        params = random_params(7, 6, 2, 3)
        assert [name for name, _ in params.tensors()] == [name for name, _ in _TENSORS]
        assert params.flat.flags.c_contiguous
        assert np.array_equal(params.flat, np.concatenate([arr.ravel() for _, arr in params.tensors()]))
        for name, arr in params.tensors():
            assert arr.base is params.flat, name

    def test_assigning_a_tensor_raises(self):
        params = random_params(7, 6, 2, 3)
        before = params.flat.copy()
        for name, arr in params.tensors():
            with pytest.raises(AttributeError, match="view"):
                setattr(params, name, arr.copy())
        with pytest.raises(AttributeError, match="view"):
            params.flat = before.copy()
        for name in ("d", "r", "vocab_size"):  # they fix the layout of the views
            with pytest.raises(AttributeError, match="view"):
                setattr(params, name, getattr(params, name) + 1)
        assert np.array_equal(params.flat, before)
        params.gain *= 2.0  # an in-place update rebinds the attribute to the same view
        params.eps = 1e-3
        assert params.gain.base is params.flat and params.eps == 1e-3

    def test_flat_must_fit_the_layout(self):
        size = random_params(7, 6, 2, 3).flat.size
        assert ModelParams(np.zeros(size), 6, 2, 7).d == 6
        for flat in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((1, size))):
            with pytest.raises(InvalidShape):
                ModelParams(flat, 6, 2, 7)

    def test_writes_through_a_view_reach_flat_and_the_checkpoint(self, tmp_path):
        params = init_params(6, 8, 2, 1)
        params.w_out[2, 3] = 7.5
        params.u[...] = 0.25
        start = sum(arr.size for _, arr in params.tensors()[:6])  # where w_out begins
        assert params.flat[start + 2 * params.d + 3] == 7.5
        path, vocab = tmp_path / "m.arrw", Vocab([f"w{i}" for i in range(4)])
        save_checkpoint(params, vocab, path)
        data = path.read_bytes()
        per_tensor = b"".join(arr.astype("<f4").tobytes() for _, arr in params.tensors())
        floats_end = _HEADER.size + len(per_tensor)
        assert data[_HEADER.size : floats_end] == per_tensor
        write_vocab(tmp_path / "vocab.txt", vocab)  # the words follow, as vocab.txt holds them
        assert data[floats_end:-4] == (tmp_path / "vocab.txt").read_bytes()
        loaded, _ = load_checkpoint(path)
        assert loaded.w_out[2, 3] == 7.5 and np.all(loaded.u == 0.25)

    def test_loaded_params_are_writable(self, tmp_path):
        path = tmp_path / "m.arrw"
        save_checkpoint(init_params(6, 8, 2, 1), Vocab([f"w{i}" for i in range(4)]), path)
        loaded, _ = load_checkpoint(path)
        loaded.flat *= 2.0
        loaded.emb[0, 0] = 1.0
        assert loaded.flat[loaded.d] == 1.0
        assert all(arr.flags.writeable and arr.base is loaded.flat for _, arr in loaded.tensors())


class TestActivationBound:
    def test_bounds_every_forward_magnitude(self):
        # The float64 forward pass, written out, against the bound on random points and runs.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 17))
            params = random_params(int(rng.integers(2, 12)), d, int(rng.integers(1, d + 1)), seed)
            p = dict(params.tensors())
            bound = activation_bound(params)
            h = p["h0"]
            spreads = [np.ptp(p["w_out"] @ h)]
            for tok in rng.integers(0, params.vocab_size, int(rng.integers(1, 13))):
                z = p["v"].T @ h
                pre = h + p["u"] @ (z * np.tanh(p["emb"][tok]))
                deviations = ((pre - pre.mean()) ** 2).sum()
                assert max(np.abs(z).max(), np.abs(pre).max(), deviations) <= bound, seed
                h = layer_norm(params, pre)
                spreads.append(np.ptp(p["w_out"] @ h))
            assert max(spreads) <= bound, seed
            params.flat *= 1e30
            assert activation_bound(params) > float(np.finfo(np.float32).max), seed


class TestStep:
    def test_zero_gate_is_identity_after_norm(self):
        params = init_params(5, 2, 1, 0, dtype=np.float64)
        params.emb[:] = 0.0
        h = np.array([1.0, -1.0])
        out = step(params, h, 3)
        np.testing.assert_allclose(out, h / np.sqrt(1 + params.eps), rtol=1e-12)

    def test_token_out_of_range(self):
        params = init_params(5, 4, 2, 0)
        with pytest.raises(TokenOutOfRange):
            step(params, params.h0, 5)

    def test_depth_equals_step_count(self):
        params = random_params(5, 8, 2, 3)
        h = params.h0.copy()
        states = [h]
        for tok in [0, 1, 2, 3]:
            h = step(params, h, tok)
            states.append(h)
        for a, b in zip(states, states[1:]):
            assert not np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_state_layer_norm_matches_the_oracle_bit_for_bit(self, dtype):
        # One state's statistics are numpy scalars; they must round as the oracle's
        # (1,)-shaped arrays do, and each row of a batch as one state does.
        rng = np.random.default_rng(21)
        params = random_params(5, 16, 2, 21, dtype=dtype)
        for scale in (1e-3, 3e-3, 1e-2, 1.0, 1e2, 3e2, 1e3):
            pre = (rng.standard_normal((200, 16)) * scale).astype(dtype)
            batch = _layer_norm(params, pre)
            for i, state in enumerate(pre):
                got, want = _layer_norm(params, state), oracles.layer_norm(params, state)
                for g, w, rows in zip(got, want, batch):
                    g = np.asarray(g)
                    assert g.dtype == w.dtype == rows.dtype, (scale, i)
                    assert g.reshape(w.shape).tobytes() == w.tobytes() == rows[i].tobytes(), (scale, i)


class TestForwardLoss:
    def test_zero_projection_gives_log_vocab(self):
        params = init_params(11, 16, 4, 1, dtype=np.float64)
        params.w_out[:] = 0.0
        tokens, mask = random_batch(np.random.default_rng(5), 11, 4, 5)
        loss, _ = forward_loss(params, tokens, mask)
        assert loss == pytest.approx(np.log(11), abs=1e-12)

    def test_two_token_fragment_definition(self):
        params = random_params(9, 8, 3, 2)
        a, b = 1, 4
        tokens, mask = pack_batch([(a, b)], pad_id=8)
        loss, _ = forward_loss(params, tokens, mask)
        h = step(params, params.h0, a)
        logits = params.w_out @ h
        logp = logits - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
        assert loss == pytest.approx(-logp[b], abs=1e-12)

    def test_degenerate_batch(self):
        params = init_params(6, 8, 2, 0)
        tokens = np.array([[1], [2]])
        mask = np.zeros((2, 0), dtype=bool)
        with pytest.raises(DegenerateBatch):
            forward_loss(params, tokens, mask)

    def test_token_range_validated(self):
        params = init_params(6, 8, 2, 0)
        tokens = np.array([[1, 99]])
        mask = np.ones((1, 1), dtype=bool)
        with pytest.raises(TokenOutOfRange):
            forward_loss(params, tokens, mask)

    def test_mask_shape_validated(self):
        params = init_params(6, 8, 2, 0)
        tokens = np.array([[1, 2, 3]])
        with pytest.raises(InvalidShape):
            forward_loss(params, tokens, np.ones((1, 3), dtype=bool))

    def test_streaming_equals_materialized(self):
        rng = np.random.default_rng(11)
        params = random_params(13, 12, 4, 8)
        tokens, mask = random_batch(rng, 13, 6, 9)
        mask[2, 4:] = False  # some padding-like gaps
        streaming, _ = forward_loss(params, tokens, mask)
        assert abs(streaming - materialized_loss(params, tokens, mask)) <= 1e-10


class TestBackward:
    def test_writes_every_gradient_into_the_tape(self):
        params = random_params(9, 6, 2, 4)
        tokens, mask = random_batch(np.random.default_rng(4), 9, 3, 5)
        expected = backward(params, forward_loss(params, tokens, mask)[1]).flat.copy()
        _, tape = forward_loss(params, tokens, mask)
        tape.grads.flat[: -params.w_out.size] = np.nan  # all but w_out, which forward_loss wrote
        grads = backward(params, tape)
        assert np.shares_memory(grads.w_out, tape.grads.w_out)  # no copy
        assert grads.flat.tobytes() == expected.tobytes()

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = random_params(7, 8, 3, seed)
            tokens, mask = random_batch(rng, 7, 4, 5)
            _, tape = forward_loss(params, tokens, mask)
            analytic = backward(params, tape)
            numeric = finite_difference_grads(params, tokens, mask, delta=1e-4)
            assert_close_grads(analytic, numeric, 1e-4)

    def test_untouched_embedding_rows_zero(self):
        params = random_params(9, 8, 3, 4)
        tokens, mask = pack_batch([(0, 1, 2), (2, 1, 0)], pad_id=8)
        _, tape = forward_loss(params, tokens, mask)
        grads = backward(params, tape)
        for row in range(3, 9):
            assert np.all(grads.emb[row] == 0.0)

    def test_saturated_target_gives_near_zero_grads(self):
        params = random_params(4, 8, 2, 5)
        tokens, mask = pack_batch([(0, 1)], pad_id=3)
        # drive the logit of the target token up until the loss is ~0
        h = step(params, params.h0, 0)
        params.w_out[1] = 50.0 * h / np.dot(h, h)
        loss, tape = forward_loss(params, tokens, mask)
        assert loss < 1e-8
        grads = backward(params, tape)
        for _, g in grads.tensors():
            assert np.abs(g).max() < 1e-6

    def test_pad_positions_contribute_nothing(self):
        params = random_params(6, 8, 2, 9)
        padded_tokens, padded_mask = pack_batch([(0, 1, 2), (3, 1)], pad_id=5)
        loss_a, tape = forward_loss(params, padded_tokens, padded_mask)
        grads_a = backward(params, tape)
        # same data without a padded batch partner, combined by hand
        t1, m1 = pack_batch([(0, 1, 2)], pad_id=5)
        t2, m2 = pack_batch([(3, 1)], pad_id=5)
        l1, tape1 = forward_loss(params, t1, m1)
        l2, tape2 = forward_loss(params, t2, m2)
        combined = (2 * l1 + 1 * l2) / 3
        assert loss_a == pytest.approx(combined, abs=1e-12)
        g1 = backward(params, tape1)
        g2 = backward(params, tape2)
        for (_, ga), (_, g1a), (_, g2a) in zip(
            grads_a.tensors(), g1.tensors(), g2.tensors()
        ):
            np.testing.assert_allclose(ga, (2 * g1a + g2a) / 3, atol=1e-12)


class TestOutputBlocks:
    """Batches whose (steps x batch) prediction rows span several output-layer blocks."""

    def batch(self):
        params = random_params(7, 8, 3, 21)
        tokens, mask = random_batch(np.random.default_rng(21), 7, 40, 10)
        assert _OUT_ROWS < 40 * 9 < 2 * _OUT_ROWS
        # Rows are time-major, row t*40 + b, so the second block starts at (t, b).
        t, b = divmod(_OUT_ROWS, 40)
        mask[b - 4 : b + 4, t - 1 : t + 2] = False  # gaps straddling the boundary
        mask[3] = False
        return params, tokens, mask

    def test_loss_equals_materialized(self):
        params, tokens, mask = self.batch()
        loss, _ = forward_loss(params, tokens, mask)
        assert abs(loss - materialized_loss(params, tokens, mask)) <= 1e-10

    def test_gradients_match_finite_differences(self):
        params, tokens, mask = self.batch()
        _, tape = forward_loss(params, tokens, mask)
        numeric = finite_difference_grads(params, tokens, mask, delta=1e-4)
        assert_close_grads(backward(params, tape), numeric, 1e-4)

    def test_transient_memory_is_bounded_by_a_block(self):
        # A 257-token batch has 8 blocks of rows; stacking every step's logits would hold 8.
        params = random_params(400, 8, 2, 3)
        tokens, mask = random_batch(np.random.default_rng(3), 400, 8, 257)
        assert mask.size >= 4 * _OUT_ROWS
        block_logits = _OUT_ROWS * params.vocab_size * params.w_out.itemsize
        tracemalloc.start()
        try:
            _, tape = forward_loss(params, tokens, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in vars(tape).values() if isinstance(a, np.ndarray) and a is not tokens)
        assert peak - kept < 2 * block_logits, (peak, kept, block_logits)


class TestNonCommutativity:
    def test_final_state_changes_on_swap(self):
        gaps = []
        for seed in range(100):
            params = random_params(9, 16, 4, 1000 + seed)
            h = params.h0
            a, b = 2, 7
            hab = step(params, step(params, h, a), b)
            hba = step(params, step(params, h, b), a)
            gaps.append(float(np.linalg.norm(hab - hba)))
        assert sum(g > 1e-6 for g in gaps) >= 99

    def test_dense_operators_do_not_commute(self):
        params = random_params(9, 16, 4, 123)
        ma = dense_operator(params, 2)
        mb = dense_operator(params, 7)
        assert np.linalg.norm(ma @ mb - mb @ ma) > 1e-6

    def test_shared_orthonormal_basis_commutes_but_layer_norm_keeps_order(self):
        # With U = V orthonormal, V^T U is the identity, so the operators of
        # tokens 0 and 1 commute; the LayerNorm between the two steps does not.
        params = random_params(5, 8, 3, 1)
        generic = dense_operator(params, 0) @ dense_operator(params, 1)
        assert np.abs(generic - dense_operator(params, 1) @ dense_operator(params, 0)).max() > 1e-3
        basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 3)))
        params.u[...], params.v[...] = basis, basis
        ma, mb = dense_operator(params, 0), dense_operator(params, 1)
        assert np.abs(ma @ mb - mb @ ma).max() <= 1e-15
        h = params.h0
        hab = step(params, step(params, h, 0), 1)
        hba = step(params, step(params, h, 1), 0)
        assert np.linalg.norm(hab - hba) > 1e-2

    def test_factored_step_matches_dense_operator(self):
        params = random_params(9, 16, 4, 42)
        h = np.linspace(-1, 1, 16)
        tok = 5
        m = dense_operator(params, tok)
        s = np.tanh(params.emb[tok])
        pre = h + params.u @ ((params.v.T @ h) * s)
        np.testing.assert_allclose(m @ h, pre, atol=1e-12)


class TestArchitectureClaim:
    """The abstract's claim: a multiplicative RNN whose token operators are low rank."""

    def states(self, params):
        return [params.h0, *np.random.default_rng(5).normal(0, 1, (3, params.d))]

    def test_step_is_layer_norm_of_the_dense_operator(self):
        params = random_params(9, 16, 4, 77)
        for h in self.states(params):
            for tok in range(params.vocab_size):
                expected = layer_norm(params, dense_operator(params, tok) @ h)
                np.testing.assert_allclose(step(params, h, tok), expected, rtol=0, atol=1e-12)

    def test_operator_is_identity_plus_rank_r(self):
        params = random_params(9, 16, 4, 77)
        for tok in range(params.vocab_size):
            m = dense_operator(params, tok)
            assert np.linalg.matrix_rank(m - np.eye(params.d)) <= params.r < params.d

    def test_update_is_a_factored_mrnn_transition(self):
        # Sutskever, Martens & Hinton (ICML 2011): f_t = diag(W_fx x_t) W_fh h_{t-1} and
        # h_t = phi(W_hf f_t), here with W_fh = V^T, W_hf = U, factor gates W_fx x_t =
        # tanh(emb_t) for a one-hot x_t, and phi(a) = LayerNorm(h_{t-1} + a).
        params = random_params(9, 16, 4, 77)
        w_fx, w_fh, w_hf = np.tanh(params.emb).T, params.v.T, params.u
        for h in self.states(params):
            for tok in range(params.vocab_size):
                x = np.eye(params.vocab_size)[tok]
                f = (w_fx @ x) * (w_fh @ h)
                expected = layer_norm(params, h + w_hf @ f)
                np.testing.assert_allclose(step(params, h, tok), expected, rtol=0, atol=1e-12)


class TestClipGradients:
    @staticmethod
    def grads(dtype):
        return random_params(50, 16, 4, 8, dtype=dtype)  # generic gradient-shaped tensors

    @staticmethod
    def reference_norm(grads):
        return math.sqrt(sum(float((arr.astype(np.float64) ** 2).sum()) for _, arr in grads.tensors()))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_returns_the_norm_and_scales_every_tensor_to_max_norm(self, dtype):
        grads = self.grads(dtype)
        before = [arr.copy() for _, arr in grads.tensors()]
        reference = self.reference_norm(grads)
        norm = clip_gradients(grads, reference / 4)
        assert abs(norm - reference) <= 1e-6 * reference
        assert self.reference_norm(grads) == pytest.approx(reference / 4, rel=1e-6)
        for (name, arr), old in zip(grads.tensors(), before):
            np.testing.assert_allclose(arr, old / 4, rtol=1e-6, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor", [2.0, 0.0], ids=["below-max-norm", "max-norm-0"])
    def test_leaves_tensors_bit_identical(self, dtype, factor):
        grads = self.grads(dtype)
        before = [arr.copy() for _, arr in grads.tensors()]
        reference = self.reference_norm(grads)
        norm = clip_gradients(grads, factor * reference)
        assert abs(norm - reference) <= 1e-6 * reference
        for (_, arr), old in zip(grads.tensors(), before):
            assert np.array_equal(arr, old)

    def test_max_norm_1_scales_a_larger_gradient(self):
        # 1.0 is the default clip_norm; any max_norm above 0 is a bound, not only those above 1.
        grads = self.grads(np.float64)
        assert self.reference_norm(grads) > 1
        clip_gradients(grads, 1.0)
        assert self.reference_norm(grads) == pytest.approx(1.0, rel=1e-12)


class TestTrain:
    def test_zero_lr_leaves_params_unchanged(self):
        params = init_params(6, 8, 2, 0)
        before = [arr.copy() for _, arr in params.tensors()]
        cfg = TrainConfig(d=8, r=2, lr=0.0, warmup_steps=0, epochs=3, batch_size=2, seed=1)
        _, history = train(params, [(0, 1), (1, 2), (2, 3)], cfg, pad_id=5)
        assert len(history) == 3
        assert history[0] == history[1] == history[2]
        for (_, arr), old in zip(params.tensors(), before):
            assert np.array_equal(arr, old)

    def test_same_seed_same_history(self):
        frags = [(0, 1), (1, 2, 3), (2, 3), (0, 2, 3, 1)]
        runs = []
        for _ in range(2):
            params = init_params(6, 8, 2, 7)
            cfg = TrainConfig(d=8, r=2, epochs=5, batch_size=2, seed=7)
            _, history = train(params, frags, cfg, pad_id=5)
            runs.append((history, [arr.copy() for _, arr in params.tensors()]))
        assert runs[0][0] == runs[1][0]
        for x, y in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(x, y)

    def test_loss_decreases_on_learnable_data(self):
        params = init_params(6, 16, 4, 3)
        frags = [(0, 1, 2, 3), (1, 2, 3, 0)]
        cfg = TrainConfig(d=16, r=4, epochs=60, batch_size=2, seed=3, warmup_steps=10)
        _, history = train(params, frags, cfg, pad_id=5)
        assert history[-1] < history[0] / 2

    def test_empty_training_set(self):
        params = init_params(6, 8, 2, 0)
        with pytest.raises(DegenerateBatch):
            train(params, [], TrainConfig(d=8, r=2), pad_id=5)

    def test_long_fragments_stay_finite_from_init(self):
        # A zero start state puts LayerNorm at its 1/sqrt(eps) floor, which
        # 31 backward steps amplify past float32 range.
        rng = np.random.default_rng(0)
        frags = [tuple(int(t) for t in rng.integers(0, 49, 31)) for _ in range(64)]
        params = init_params(50, 64, 8, 42)
        _, history = train(params, frags, TrainConfig(epochs=2), pad_id=49)
        assert np.isfinite(history).all()
        for _, arr in params.tensors():
            assert np.isfinite(arr).all()

    def test_non_finite_step_raises_before_update(self):
        params = init_params(6, 8, 2, 0)
        params.w_out[0, 0] = np.nan
        before = [arr.copy() for _, arr in params.tensors()]
        with pytest.raises(NonFiniteTraining):
            train(params, [(0, 1, 2)], TrainConfig(d=8, r=2), pad_id=5)
        for (_, arr), old in zip(params.tensors(), before):
            assert np.array_equal(arr, old, equal_nan=True)

    def overflowing_run(self, dtype):
        # One epoch at lr=1e30 leaves finite parameters whose activations can reach
        # 1.18e185 (measured in float32 and in float64): past float32's range, inside float64's.
        params = init_params(5, 8, 2, 0, dtype=dtype)
        cfg = TrainConfig(d=8, r=2, lr=1e30, warmup_steps=0, epochs=1, batch_size=256)
        return params, lambda: train(params, [(0, 1, 2), (1, 2, 3), (2, 3, 0)], cfg, pad_id=4)

    def test_activations_past_the_dtype_range_raise(self):
        params, run = self.overflowing_run(np.float32)
        with pytest.raises(NonFiniteTraining, match="activations can reach 1.18e[+]185, beyond float32"):
            run()
        # The refused parameters are finite and already hold the trained step.
        assert np.isfinite(params.flat).all()
        assert not np.array_equal(params.flat, init_params(5, 8, 2, 0).flat)

    def test_the_range_checked_is_the_params_dtype(self):
        params, run = self.overflowing_run(np.float64)
        _, history = run()
        assert np.isfinite(history).all()
        assert float(np.finfo(np.float32).max) < activation_bound(params) <= np.finfo(np.float64).max

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adamw_matches_the_plain_expressions_bit_for_bit(self, weight_decay):
        params = random_params(6, 8, 2, 9, dtype=np.float32)
        reference = random_params(6, 8, 2, 9, dtype=np.float32)
        cfg = TrainConfig(d=8, r=2, lr=0.05, warmup_steps=3, weight_decay=weight_decay)
        opt = AdamW(params, cfg)
        m = {name: np.zeros_like(arr) for name, arr in reference.tensors()}
        v = {name: np.zeros_like(arr) for name, arr in reference.tensors()}
        rng = np.random.default_rng(4)
        for k in range(1, 7):  # three warmup steps, then three at the full rate
            grads = params.like(rng.standard_normal(params.flat.size).astype(np.float32))
            opt.update(params, grads)
            adamw_step(reference, grads, m, v, k, cfg)
        for name, arr in params.tensors():
            assert np.array_equal(arr, getattr(reference, name)), name
            opt_m, opt_v = getattr(opt.m, name), getattr(opt.v, name)
            assert np.array_equal(opt_m, m[name]) and np.array_equal(opt_v, v[name]), name

    def test_warmup_ramp(self):
        params = init_params(6, 8, 2, 0)
        cfg = TrainConfig(d=8, r=2, lr=1.0, warmup_steps=4)
        opt = AdamW(params, cfg)
        rates = []
        for _ in range(6):
            opt.step_count += 1
            rates.append(opt.learning_rate())
        assert rates == [0.25, 0.5, 0.75, 1.0, 1.0, 1.0]


class TestCheckpoint:
    def make_vocab(self, n):
        return Vocab([f"w{i}" for i in range(n - 2)])

    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(11, 16, 4, 21)
        vocab = self.make_vocab(11)
        path = tmp_path / "model.arrw"
        save_checkpoint(params, vocab, path)
        loaded, loaded_vocab = load_checkpoint(path)
        for (_, a), (_, b) in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a, b)
        assert loaded_vocab.words == vocab.words

    def test_truncated_file(self, tmp_path):
        params = init_params(11, 16, 4, 21)
        path = tmp_path / "model.arrw"
        save_checkpoint(params, self.make_vocab(11), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_header_dimension_mismatch(self, tmp_path):
        import struct
        import zlib

        params = init_params(11, 16, 4, 21)
        path = tmp_path / "model.arrw"
        save_checkpoint(params, self.make_vocab(11), path)
        data = bytearray(path.read_bytes())[:-4]
        # corrupt d in the header, then re-seal the CRC
        struct.pack_into("<I", data, 8, 999)
        data += struct.pack("<I", zlib.crc32(bytes(data)))
        path.write_bytes(bytes(data))
        with pytest.raises(FormatVersionMismatch):
            load_checkpoint(path)

    def test_header_that_ends_the_floats_early(self, tmp_path):
        # d=15 where 16 was written: the words would start inside the floats.
        path = tmp_path / "model.arrw"
        save_checkpoint(init_params(11, 16, 4, 21), self.make_vocab(11), path)
        data = bytearray(path.read_bytes()[:-4])
        data[8:12] = (15).to_bytes(4, "little")
        self.resealed(path, bytes(data))
        with pytest.raises(FormatVersionMismatch):
            load_checkpoint(path)

    def test_header_that_ends_zero_floats_early(self, tmp_path):
        # Zero floats read as words are NUL bytes and valid UTF-8: 88 of them would lead w0.
        path = tmp_path / "model.arrw"
        params = init_params(11, 16, 4, 21)
        params.flat[:] = 0.0
        save_checkpoint(params, self.make_vocab(11), path)
        data = bytearray(path.read_bytes()[:-4])
        data[8:12] = (15).to_bytes(4, "little")
        self.resealed(path, bytes(data))
        with pytest.raises(FormatVersionMismatch, match=r"word '(\\x00){88}w0'"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        import struct
        import zlib

        path = tmp_path / "model.arrw"
        blob = b"NOPE" + b"\x00" * 20
        blob += struct.pack("<I", zlib.crc32(blob))
        path.write_bytes(blob)
        with pytest.raises(FormatVersionMismatch):
            load_checkpoint(path)

    def resealed(self, path, data):
        """Write ``data`` to ``path`` under a CRC32 that matches it."""
        import struct
        import zlib

        path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))

    def test_flipped_byte_anywhere_is_a_checksum_mismatch(self, tmp_path):
        path = tmp_path / "model.arrw"
        save_checkpoint(init_params(6, 4, 2, 21), self.make_vocab(6), path)
        data = path.read_bytes()
        assert data.index(b"w0\nw1\nw2\nw3\n<eos>\n<pad>\n") > _HEADER.size
        for at in range(len(data)):  # header, floats, words and the CRC itself
            flipped = bytearray(data)
            flipped[at] ^= 0x20
            path.write_bytes(bytes(flipped))
            with pytest.raises(ChecksumMismatch):
                load_checkpoint(path)

    def test_version_1_file_is_refused(self, tmp_path):
        # Version 1 kept the words in a sidecar: header, floats and CRC only.
        import struct

        path = tmp_path / "model.arrw"
        params = init_params(11, 16, 4, 21)
        save_checkpoint(params, self.make_vocab(11), path)
        header = bytearray(path.read_bytes()[: _HEADER.size])
        struct.pack_into("<I", header, 4, 1)
        self.resealed(path, bytes(header) + params.flat.astype("<f4").tobytes())
        with pytest.raises(FormatVersionMismatch, match="version"):
            load_checkpoint(path)

    def test_stored_vocab_length_guard(self, tmp_path):
        path = tmp_path / "model.arrw"
        save_checkpoint(init_params(11, 16, 4, 21), self.make_vocab(11), path)
        data = path.read_bytes()[:-4]
        self.resealed(path, data.replace(b"w0\n", b""))  # 10 words, the header says 11
        with pytest.raises(FormatVersionMismatch):
            load_checkpoint(path)

    def test_stored_vocab_must_end_in_eos_and_pad(self, tmp_path):
        path = tmp_path / "model.arrw"
        save_checkpoint(init_params(11, 16, 4, 21), self.make_vocab(11), path)
        data = path.read_bytes()[:-4]
        self.resealed(path, data.replace(b"<eos>\n<pad>\n", b"<pad>\n<eos>\n"))
        with pytest.raises(FormatVersionMismatch):
            load_checkpoint(path)

    def test_repeated_stored_word_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.arrw"
        save_checkpoint(init_params(11, 16, 4, 21), self.make_vocab(11), path)
        data = path.read_bytes()[:-4]
        self.resealed(path, data.replace(b"w0\nw1\n", b"w0\nw0\n"))  # 11 words, one twice
        with pytest.raises(FormatVersionMismatch, match="duplicate words"):
            load_checkpoint(path)

    def test_vocab_size_guard(self, tmp_path):
        params = init_params(11, 16, 4, 21)
        with pytest.raises(InvalidShape):
            save_checkpoint(params, self.make_vocab(9), tmp_path / "m.arrw")

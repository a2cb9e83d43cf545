import tracemalloc

import numpy as np
import pytest

from conftest import masked_sigmoid, random_undirected_graph, toy_graph
from robustgsl.encoder import (
    PROB_CLIP,
    EncoderConfig,
    EncoderModel,
    _changed_rows,
    _contrastive_epoch,
    _stacked_operand,
    contrastive_loss,
    init_encoder,
    shuffle_features,
    shuffle_permutation,
    train_encoder,
)
from robustgsl.graph import SparseGraph, renormalized_adjacency
from robustgsl.linalg import BLOCK_BYTES, adam_init, adam_step, grad_check, make_rng
from robustgsl.preprocess import ViewBundle, identical_views, make_views, random_perturb_views


def small_instance(n=8, d=5, h=4, m=2, seed=0):
    rng = make_rng(seed)
    base = toy_graph(n)
    removed = {(0, 4), (1, 6), (3, 7)}
    bundle = make_views(base, removed, p=0.5, m=m, seed=seed)
    x = (rng.random((n, d)) < 0.5).astype(float)
    config = EncoderConfig(hidden=h)
    model = init_encoder(d, config, rng)
    shuffled = shuffle_features(x, seed + 1)
    return model, bundle, x, shuffled


def trained_on_random_graph(rng, n=12, d=6, h=4, activation="relu"):
    """train_encoder on a random graph with normal features and one view."""
    g = random_undirected_graph(n, 0.3, rng)
    x = rng.normal(size=(n, d))
    bundle = ViewBundle(base=g, views=[g])
    config = EncoderConfig(hidden=h, epochs=5, activation=activation)
    model, emb, z = train_encoder(bundle, x, config, seed=0)
    return g, x, model, emb, z


class TestEncodeReadout:
    def test_embedding_shape(self, rng):
        _, _, _, emb, z = trained_on_random_graph(rng)
        assert emb.shape == z.shape == (12, 4)

    def test_relu_embeddings_nonnegative(self, rng):
        _, _, _, emb, _ = trained_on_random_graph(rng)
        assert np.all(emb >= 0)

    def test_linear_activation_matches_oracle(self, rng):
        g, x, model, emb, z = trained_on_random_graph(rng, n=10, d=5, h=3, activation="linear")
        expected = renormalized_adjacency(g).toarray() @ x @ model.w_enc
        np.testing.assert_allclose(emb, expected, atol=1e-12)
        np.testing.assert_array_equal(emb, z)

    def test_preactivation_matches_oracle(self, rng):
        g, x, model, _, z = trained_on_random_graph(rng, n=10, d=5, h=3)
        np.testing.assert_array_equal(z, renormalized_adjacency(g) @ x @ model.w_enc)
        assert np.any(z < 0)

    def test_relu_of_preactivation_is_embeddings(self, rng):
        _, _, _, emb, z = trained_on_random_graph(rng)
        assert np.maximum(z, 0.0).tobytes() == emb.tobytes()


class TestShuffleFeatures:
    def test_is_row_permutation(self, rng):
        x = rng.normal(size=(20, 5))
        shuf = shuffle_features(x, 3)
        assert sorted(map(tuple, shuf)) == sorted(map(tuple, x))
        assert not np.array_equal(shuf, x)

    def test_deterministic(self, rng):
        x = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(shuffle_features(x, 7), shuffle_features(x, 7))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            shuffle_features(np.ones((1, 3)), 0)


class TestContrastiveLoss:
    def test_zero_discriminator_gives_log2(self):
        # With w_disc = 0 every pair probability is exactly 1/2, so the
        # binary cross-entropy collapses to ln 2 regardless of the encoder.
        model, bundle, x, shuf = small_instance()
        model.w_disc[:] = 0.0
        loss, _ = contrastive_loss(model, bundle.base, bundle.views, x, shuf)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_gradients_match_finite_differences(self, activation):
        model, bundle, x, shuf = small_instance()
        model.activation = activation

        def lag(params):
            probe = EncoderModel(params["w_enc"], params["w_disc"], activation)
            return contrastive_loss(probe, bundle.base, bundle.views, x, shuf)

        err = grad_check(lag, {"w_enc": model.w_enc, "w_disc": model.w_disc})
        assert err < 1e-6

    def test_requires_views(self):
        model, bundle, x, shuf = small_instance()
        with pytest.raises(ValueError):
            contrastive_loss(model, bundle.base, [], x, shuf)

    def test_loss_positive(self):
        model, bundle, x, shuf = small_instance(seed=5)
        loss, _ = contrastive_loss(model, bundle.base, bundle.views, x, shuf)
        assert loss > 0


class TestTrainEncoder:
    def test_loss_decreases(self):
        _, bundle, x, _ = small_instance(n=8, d=5, h=4)
        config = EncoderConfig(hidden=4, epochs=100, patience=100)
        model, _, _ = train_encoder(bundle, x, config, seed=0)
        init = init_encoder(5, config, make_rng(0))
        shuf = shuffle_features(x, 0)
        l_init, _ = contrastive_loss(init, bundle.base, bundle.views, x, shuf)
        l_final, _ = contrastive_loss(model, bundle.base, bundle.views, x, shuf)
        assert l_final < l_init

    def test_zero_epochs_returns_init(self):
        _, bundle, x, _ = small_instance()
        config = EncoderConfig(hidden=4, epochs=0)
        model, emb, _ = train_encoder(bundle, x, config, seed=3)
        expected = init_encoder(5, config, make_rng(3))
        np.testing.assert_array_equal(model.w_enc, expected.w_enc)
        ax = renormalized_adjacency(bundle.base) @ x
        np.testing.assert_array_equal(emb, np.maximum(ax @ model.w_enc, 0.0))

    def test_deterministic(self):
        _, bundle, x, _ = small_instance()
        config = EncoderConfig(hidden=4, epochs=30)
        a, ea, _ = train_encoder(bundle, x, config, seed=9)
        b, eb, _ = train_encoder(bundle, x, config, seed=9)
        np.testing.assert_array_equal(a.w_enc, b.w_enc)
        np.testing.assert_array_equal(ea, eb)

    def test_embedding_shape(self):
        _, bundle, x, _ = small_instance()
        _, emb, _ = train_encoder(bundle, x, EncoderConfig(hidden=6, epochs=10), seed=1)
        assert emb.shape == (8, 6)


def _reference_loss_and_grads(w_enc, w_disc, ax_base, ax_shuf, ax_views, activation):
    """The contrastive epoch as plain dense expressions: every view forwarded
    and back-propagated as a full N x d product, with a fresh array for every
    intermediate and float masks. It is the oracle of the stacked-operand epoch."""

    def act(z):
        return np.maximum(z, 0.0) if activation == "relu" else z

    def mask(z):
        return (z > 0).astype(float) if activation == "relu" else np.ones_like(z)

    n = ax_base.shape[0]
    m = len(ax_views)

    z_pos = ax_base @ w_enc
    h_pos = act(z_pos)
    z_neg = ax_shuf @ w_enc
    h_neg = act(z_neg)

    z_views = [ax @ w_enc for ax in ax_views]
    h_views = [act(z) for z in z_views]
    means = np.stack([h.mean(axis=0) for h in h_views])
    summaries = masked_sigmoid(means)

    logits_pos = h_pos @ w_disc @ summaries.T
    logits_neg = h_neg @ w_disc @ summaries.T
    p = masked_sigmoid(logits_pos)
    q = masked_sigmoid(logits_neg)
    pc = np.clip(p, PROB_CLIP, 1 - PROB_CLIP)
    qc = np.clip(q, PROB_CLIP, 1 - PROB_CLIP)
    scale = 1.0 / (2.0 * n * m)
    loss = -scale * (np.log(pc).sum() + np.log(1 - qc).sum())

    g_pos = -scale * (p * (1 - p) / pc) * (p == pc)
    g_neg = scale * (q * (1 - q) / (1 - qc)) * (q == qc)

    d_wd = h_pos.T @ g_pos @ summaries + h_neg.T @ g_neg @ summaries
    sw = summaries @ w_disc.T
    d_hpos = g_pos @ sw
    d_hneg = g_neg @ sw
    d_summ = g_pos.T @ h_pos @ w_disc + g_neg.T @ h_neg @ w_disc

    d_we = ax_base.T @ (d_hpos * mask(z_pos))
    d_we += ax_shuf.T @ (d_hneg * mask(z_neg))
    d_means = d_summ * summaries * (1 - summaries)
    for j in range(m):
        d_hj = np.broadcast_to(d_means[j] / n, h_views[j].shape)
        d_we += ax_views[j].T @ (d_hj * mask(z_views[j]))

    return float(loss), {"w_enc": d_we, "w_disc": d_wd}


# The stacked-operand epoch sums in another order than the dense oracle, so
# the two agree to rounding, not bit for bit: within a few thousand float64 ulps
# of the largest entry, for one epoch and after 60 Adam steps alike. The
# largest deviation these tests see is about 2.4e-15.
EPOCH_RTOL = 1e-12
VIEW_KINDS = ("identical", "random", "recovery")


def _view_instance(kind, num_views, seed=0):
    """A base graph with views of one kind, and normal features (so that a row
    of A_hat X changes exactly when its row of A_hat does).

    identical: every view is the base graph, so no row changes.
    random: random_perturb_views removes and adds edges all over the graph.
    recovery: make_views recovers a few removed edges on a sparse graph, so
    under 10 % of the rows change.
    """
    rng = make_rng(seed)
    n, density = (400, 0.01) if kind == "recovery" else (40, 0.15)
    base = random_undirected_graph(n, density, rng)
    if kind == "identical":
        bundle = identical_views(base, num_views)
    elif kind == "random":
        bundle = random_perturb_views(base, 0.5, num_views, seed)
    else:
        present = base.edge_set()
        removed = set()
        while len(removed) < 6:
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            if (u, v) not in present:
                removed.add((u, v))
        bundle = make_views(base, removed, 0.5, num_views, seed)
    return bundle, rng.normal(size=(n, 7))


def _products(bundle, x, seed=0):
    """A_hat X products of an instance: base, shuffled and one per view."""
    a_base = renormalized_adjacency(bundle.base)
    return (
        a_base @ x,
        a_base @ shuffle_features(x, seed + 1),
        [renormalized_adjacency(v) @ x for v in bundle.views],
    )


def _view_delta(ax_base, ax_view):
    """The indices of the rows where a view's dense A_hat X differs from the
    base's, and those rows of the view: the oracle of _changed_rows."""
    rows = np.flatnonzero((ax_view != ax_base).any(axis=1))
    return rows, ax_view[rows]


def _dense_stack(ax_base, ax_shuf, ax_views):
    """The stacked operand and changed-row sets built from full dense
    products: the oracle of _stacked_operand."""
    deltas = [_view_delta(ax_base, ax) for ax in ax_views]
    operand = np.concatenate((ax_base, ax_shuf, *(rows for _, rows in deltas)))
    return operand, [changed for changed, _ in deltas]


def _epoch_on_products(ax_base, ax_shuf, ax_views, activation, hidden):
    """_contrastive_epoch on the operand stacked from dense products."""
    return _contrastive_epoch(*_dense_stack(ax_base, ax_shuf, ax_views), activation, hidden)


def _bits(loss, grads):
    return np.float64(loss).tobytes(), grads["w_enc"].tobytes(), grads["w_disc"].tobytes()


def _relative_error(got, want):
    """The largest deviation, relative to the largest entry of the oracle."""
    return np.max(np.abs(np.subtract(got, want))) / np.max(np.abs(want))


def _stacked(bundle, x, negatives=None, perm=None):
    """_stacked_operand on an instance: by default the shuffled rows are x
    under the permutation that shuffle_features(x, 1) applies."""
    if negatives is None:
        negatives, perm = x, shuffle_permutation(len(x), 1)
    return _stacked_operand(renormalized_adjacency(bundle.base), bundle.views, x, negatives, perm)


def _sparse_binary(x, seed=1):
    """Binary features with about 20 % ones, as in the SBM bundles."""
    return (make_rng(seed).random(x.shape) < 0.2).astype(float)


def _zero_on_changed_neighbour():
    """A view whose one added edge (1, 4) changes every row of A_hat, on
    features that are zero at nodes 1 and 4: rows 0, 2, 3 and 5 change in
    A_hat only through a weight on node 1 or 4, so their A_hat X rows are
    bit-equal to the base's; rows 1 and 4 reweight their other neighbours
    and change."""
    base = SparseGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 5)])
    view = SparseGraph.from_edges(6, [*base.edge_array().tolist(), (1, 4)])
    x = np.ones((6, 3))
    x[[1, 4]] = 0.0
    return ViewBundle(base=base, views=[view]), x


class TestStackedOperand:
    @pytest.mark.parametrize("kind", VIEW_KINDS)
    @pytest.mark.parametrize("binary", [False, True])
    def test_changed_rows_equal_dense_delta(self, kind, binary):
        bundle, x = _view_instance(kind, 3)
        if binary:
            x = _sparse_binary(x)
        ax_base, _, ax_views = _products(bundle, x)
        a_base = renormalized_adjacency(bundle.base)
        n = len(ax_base)
        partial = 0
        for view, ax in zip(bundle.views, ax_views):
            a_view = renormalized_adjacency(view)
            rows = _changed_rows(a_view, a_base, x)
            assert rows.tobytes() == _view_delta(ax_base, ax)[0].astype(rows.dtype).tobytes()
            if not binary:
                # With normal features they are the rows of A_hat that the
                # view's edges renormalize.
                renormalized = (a_view != a_base).getnnz(axis=1) > 0
                assert rows.tolist() == np.flatnonzero(renormalized).tolist()
            # A renormalized row keeps the columns that none of its changed
            # neighbours has, and is kept when any column differs.
            partial += np.count_nonzero(~(ax[rows] != ax_base[rows]).all(axis=1))
            if kind == "identical":
                assert len(rows) == 0
            elif kind == "random" and not binary:
                assert len(rows) == n
            elif kind == "recovery":
                assert 0 < len(rows) < 0.1 * n
        if binary and kind != "identical":
            assert partial > 0

    @pytest.mark.parametrize("kind", VIEW_KINDS)
    @pytest.mark.parametrize("binary", [False, True])
    def test_operand_equals_dense_stack(self, kind, binary):
        bundle, x = _view_instance(kind, 3)
        if binary:
            x = _sparse_binary(x)
        operand, changed = _stacked(bundle, x)
        want, want_changed = _dense_stack(*_products(bundle, x))
        assert operand.shape == want.shape
        assert operand.tobytes() == want.tobytes()
        assert [c.tolist() for c in changed] == [c.tolist() for c in want_changed]

    def test_given_negatives_are_stacked_as_given(self):
        # contrastive_loss's shuffled copy, under the identity permutation.
        bundle, x = _view_instance("recovery", 2)
        shuffled = shuffle_features(x, 1)
        operand, _ = _stacked(bundle, x, shuffled, np.arange(len(x)))
        assert operand.tobytes() == _stacked(bundle, x)[0].tobytes()

    def test_row_whose_product_does_not_change_is_not_stacked(self):
        bundle, x = _zero_on_changed_neighbour()
        a_base, a_view = (renormalized_adjacency(g) for g in (bundle.base, bundle.views[0]))
        assert np.flatnonzero((a_view != a_base).getnnz(axis=1)).tolist() == [0, 1, 2, 3, 4, 5]
        assert _changed_rows(a_view, a_base, x).tolist() == [1, 4]
        operand, changed = _stacked(bundle, x)
        want, want_changed = _dense_stack(*_products(bundle, x))
        assert [c.tolist() for c in changed] == [c.tolist() for c in want_changed] == [[1, 4]]
        assert operand.tobytes() == want.tobytes()

    def test_rows_written_in_blocks(self):
        # Wide enough features that every product spans several blocks.
        bundle, _ = _view_instance("random", 2)
        x = make_rng(4).normal(size=(bundle.base.num_nodes, BLOCK_BYTES // (8 * 7)))
        operand, _ = _stacked(bundle, x)
        assert operand.tobytes() == _dense_stack(*_products(bundle, x))[0].tobytes()

    def test_build_holds_operand_and_one_block(self):
        # No N x d product besides the operand: the build's traced peak is the
        # operand, one block being written and the sparse matrices (the two
        # blocks that find the changed rows come before the operand).
        bundle, x = _view_instance("random", 3)
        x = make_rng(5).normal(size=(len(x), 8000))
        a_base = renormalized_adjacency(bundle.base)
        perm = shuffle_permutation(len(x), 1)
        tracemalloc.start()
        try:
            operand, _ = _stacked_operand(a_base, bundle.views, x, x, perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 2**16
        assert x.nbytes > BLOCK_BYTES + slack
        assert peak <= operand.nbytes + BLOCK_BYTES + slack


class TestTrainEncoderMemory:
    def test_in_call_peak_is_epoch_buffers_and_one_block(self):
        # N x d = 2.4 MB: an N x d product alive beside the epoch's buffers,
        # as the base and shuffled products were, breaks the bound.
        n, d, h, m = 1000, 300, 32, 2
        rng = make_rng(0)
        base = random_undirected_graph(n, 0.004, rng)
        present = base.edge_set()
        removed = set()
        while len(removed) < 30:
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            if (u, v) not in present:
                removed.add((u, v))
        bundle = make_views(base, removed, 0.5, m, 0)
        x = _sparse_binary(np.empty((n, d)), seed=0)
        r = len(_stacked(bundle, x)[0])
        epoch_buffers = r * d * 8 + r * h * 8 + r * h + r * 2 * m * 8  # operand, act, mask, left
        tracemalloc.start()
        try:
            train_encoder(bundle, x, EncoderConfig(hidden=h, epochs=3), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.nbytes >= 2**20
        assert peak <= epoch_buffers + BLOCK_BYTES + 2**18


class TestContrastiveEpoch:
    @pytest.mark.parametrize("kind", VIEW_KINDS)
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("num_views", [1, 3])
    def test_matches_reference_over_calls(self, kind, activation, num_views):
        bundle, x = _view_instance(kind, num_views)
        ax_base, ax_shuf, ax_views = _products(bundle, x)
        h = 5
        epoch = _epoch_on_products(ax_base, ax_shuf, ax_views, activation, h)
        rng = make_rng(num_views)
        for call in range(4):
            # Fresh weights on every call: stale buffer state would show.
            w_enc = rng.normal(size=(ax_base.shape[1], h))
            w_disc = rng.normal(size=(h, h)) * (call + 1)
            loss, grads = epoch(w_enc, w_disc)
            want_loss, want = _reference_loss_and_grads(
                w_enc, w_disc, ax_base, ax_shuf, ax_views, activation
            )
            assert _relative_error(loss, want_loss) <= EPOCH_RTOL, f"call {call}"
            for key in ("w_enc", "w_disc"):
                assert _relative_error(grads[key], want[key]) <= EPOCH_RTOL, f"call {call}, {key}"

    def test_returned_gradients_survive_next_call(self):
        ax_base, ax_shuf, ax_views = _products(*_view_instance("random", 2))
        epoch = _epoch_on_products(ax_base, ax_shuf, ax_views, "relu", 4)
        rng = make_rng(3)
        w1 = rng.normal(size=(7, 4)), rng.normal(size=(4, 4))
        loss1, grads1 = epoch(*w1)
        kept = _bits(loss1, grads1)
        epoch(rng.normal(size=(7, 4)), rng.normal(size=(4, 4)))
        assert _bits(loss1, grads1) == kept
        assert _bits(*epoch(*w1)) == kept

    def test_unknown_activation(self):
        ax_base, ax_shuf, ax_views = _products(*_view_instance("random", 1))
        with pytest.raises(ValueError, match="activation"):
            _epoch_on_products(ax_base, ax_shuf, ax_views, "tanh", 4)


def _loop_start(bundle, x, config, seed):
    """train_encoder's initial weights and A_hat X products, drawn in its order."""
    rng = make_rng(seed)
    init = init_encoder(x.shape[1], config, rng)
    a_base = renormalized_adjacency(bundle.base)
    ax_base = a_base @ x
    ax_views = [renormalized_adjacency(v) @ x for v in bundle.views]
    ax_shuf = a_base @ shuffle_features(x, int(rng.integers(2 ** 63)))
    return {"w_enc": init.w_enc, "w_disc": init.w_disc}, ax_base, ax_shuf, ax_views


def _adam_loop(loss_and_grads, params, config):
    """train_encoder's loop written plainly: Adam with patience on the loss.
    Returns the best-loss weights and the number of epochs run."""
    state = adam_init(params, config.lr)
    best, best_loss, stale = dict(params), np.inf, 0
    for epoch in range(config.epochs):
        loss, grads = loss_and_grads(params["w_enc"], params["w_disc"])
        if loss < best_loss - 1e-9:
            best_loss, best, stale = loss, {k: v.copy() for k, v in params.items()}, 0
        else:
            stale += 1
            if stale >= config.patience:
                return best, epoch + 1
        params = adam_step(params, grads, state)
    return best, config.epochs


def _train_encoder_against_loop(activation, lr):
    """train_encoder and _adam_loop on the same instance, with patience 5 and
    a 60-epoch cap; asserts that their outputs match byte for byte and
    returns the number of epochs the loop ran."""
    _, bundle, x, _ = small_instance(n=8, d=5, h=4, m=3)
    config = EncoderConfig(hidden=4, lr=lr, epochs=60, patience=5, activation=activation)
    model, emb, z = train_encoder(bundle, x, config, seed=4)

    params, ax_base, ax_shuf, ax_views = _loop_start(bundle, x, config, 4)
    epoch = _epoch_on_products(ax_base, ax_shuf, ax_views, activation, config.hidden)
    best, epochs_run = _adam_loop(epoch, params, config)
    want_z = ax_base @ best["w_enc"]
    want_emb = np.maximum(want_z, 0.0) if activation == "relu" else want_z

    assert model.w_enc.tobytes() == best["w_enc"].tobytes()
    assert model.w_disc.tobytes() == best["w_disc"].tobytes()
    assert z.tobytes() == want_z.tobytes()
    assert emb.tobytes() == want_emb.tobytes()
    return epochs_run


class TestTrainEncoderLoop:
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_train_encoder_bitwise_equal_to_epoch_loop(self, activation):
        _train_encoder_against_loop(activation, EncoderConfig.lr)

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_train_encoder_patience_stop_bitwise_equal_to_epoch_loop(self, activation):
        # At lr 1e-15 no epoch improves the first loss by 1e-9, so both loops
        # stop after the first epoch and 5 stale ones, well before the cap.
        assert _train_encoder_against_loop(activation, 1e-15) == 6

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("kind", ["random", "recovery"])
    def test_epoch_loop_matches_reference_loop(self, activation, kind):
        bundle, x = _view_instance(kind, 3)
        config = EncoderConfig(hidden=4, epochs=60, patience=60, activation=activation)
        params, ax_base, ax_shuf, ax_views = _loop_start(bundle, x, config, 4)
        epoch = _epoch_on_products(ax_base, ax_shuf, ax_views, activation, config.hidden)
        got, got_epochs = _adam_loop(epoch, dict(params), config)

        def reference(w_enc, w_disc):
            return _reference_loss_and_grads(w_enc, w_disc, ax_base, ax_shuf, ax_views, activation)

        want, want_epochs = _adam_loop(reference, dict(params), config)
        assert got_epochs == want_epochs == config.epochs
        for key in ("w_enc", "w_disc"):
            assert _relative_error(got[key], want[key]) <= EPOCH_RTOL, key

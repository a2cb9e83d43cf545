import numpy as np
import pytest

from conftest import random_undirected_graph, toy_graph
from robustgsl.encoder import (
    EncoderConfig,
    EncoderModel,
    contrastive_loss,
    encode,
    init_encoder,
    preactivation,
    readout,
    shuffle_features,
    train_encoder,
)
from robustgsl.linalg import grad_check, make_rng, sigmoid
from robustgsl.preprocess import ViewBundle, make_views


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


class TestEncodeReadout:
    def test_embedding_shape(self, rng):
        g = random_undirected_graph(12, 0.3, rng)
        x = rng.random((12, 6))
        model = init_encoder(6, EncoderConfig(hidden=4), rng)
        assert encode(model, x, g).shape == (12, 4)

    def test_relu_embeddings_nonnegative(self, rng):
        g = random_undirected_graph(12, 0.3, rng)
        x = rng.normal(size=(12, 6))
        model = init_encoder(6, EncoderConfig(hidden=4), rng)
        assert np.all(encode(model, x, g) >= 0)

    def test_linear_activation_matches_oracle(self, rng):
        from robustgsl.graph import renormalized_adjacency

        g = random_undirected_graph(10, 0.3, rng)
        x = rng.normal(size=(10, 5))
        model = init_encoder(5, EncoderConfig(hidden=3, activation="linear"), rng)
        expected = renormalized_adjacency(g).toarray() @ x @ model.w_enc
        np.testing.assert_allclose(encode(model, x, g), expected, atol=1e-12)

    def test_feature_dim_mismatch(self, rng):
        g = random_undirected_graph(10, 0.3, rng)
        model = init_encoder(5, EncoderConfig(hidden=3), rng)
        with pytest.raises(ValueError, match="dim"):
            encode(model, rng.random((10, 7)), g)

    def test_preactivation_matches_oracle(self, rng):
        from robustgsl.graph import renormalized_adjacency
        from robustgsl.linalg import spmm

        g = random_undirected_graph(10, 0.3, rng)
        x = rng.normal(size=(10, 5))
        model = init_encoder(5, EncoderConfig(hidden=3), rng)
        z = preactivation(model, x, g)
        np.testing.assert_array_equal(z, spmm(renormalized_adjacency(g), x) @ model.w_enc)
        assert np.any(z < 0)

    def test_relu_of_preactivation_is_encode(self, rng):
        g = random_undirected_graph(12, 0.3, rng)
        x = rng.normal(size=(12, 6))
        model = init_encoder(6, EncoderConfig(hidden=4), rng)
        np.testing.assert_array_equal(np.maximum(preactivation(model, x, g), 0.0), encode(model, x, g))

    def test_readout_is_sigmoid_of_mean(self, rng):
        h = rng.normal(size=(9, 4))
        np.testing.assert_allclose(readout(h), sigmoid(h.mean(axis=0)), atol=1e-15)

    def test_readout_permutation_invariant(self, rng):
        h = rng.normal(size=(9, 4))
        perm = make_rng(0).permutation(9)
        np.testing.assert_allclose(readout(h), readout(h[perm]), atol=1e-15)


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
        np.testing.assert_array_equal(emb, encode(model, x, bundle.base))

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

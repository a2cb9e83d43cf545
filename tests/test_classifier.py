import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_undirected_graph
from robustgsl.classifier import (
    ClassifierConfig,
    ClassifierModel,
    accuracy,
    classifier_loss_and_grads,
    degree_weighted_matrix,
    predict,
    propagation_matrix,
    train_classifier,
)
from robustgsl.data_io import DataSplit, SbmSpec, generate_sbm
from robustgsl.graph import SparseGraph, degrees, renormalized_adjacency
from robustgsl.linalg import adam_init, adam_step, glorot, grad_check, make_rng


def reference_train(g, h0, labels, split, config, mode, alpha, beta, seed):
    """train_classifier as a plain loop over the public API: every epoch calls
    classifier_loss_and_grads, then adam_step, then predicts the validation
    nodes, so nothing is carried from one epoch to the next. Returns the
    selected model, its test accuracy and its validation accuracy."""
    rng = make_rng(seed)
    params = {
        "w1": glorot(h0.shape[1], config.hidden, rng),
        "w2": glorot(config.hidden, int(labels.max()) + 1, rng),
    }
    q = propagation_matrix(g, mode, alpha, beta)
    train_ids = np.asarray(split.train, dtype=np.int64)
    state = adam_init(params, config.lr)
    best, best_val = params, -1.0
    for _ in range(config.epochs):
        _, grads = classifier_loss_and_grads(
            params["w1"], params["w2"], q, h0, labels, train_ids, config.weight_decay
        )
        params = adam_step(params, grads, state)
        model = ClassifierModel(params["w1"], params["w2"], mode, alpha, beta)
        val_acc = accuracy(predict(model, g, h0), labels, split.val)
        if val_acc > best_val:
            best, best_val = {k: v.copy() for k, v in params.items()}, val_acc
    model = ClassifierModel(best["w1"], best["w2"], mode, alpha, beta)
    return model, accuracy(predict(model, g, h0), labels, split.test), best_val


def random_directed_graph(n: int, density: float, rng: np.random.Generator) -> SparseGraph:
    """Random ordered pairs, except that about a quarter of the nodes keep no
    out-edges, as in a refined graph that `train --graph` loads."""
    src, dst = np.nonzero(rng.random((n, n)) < density)
    keep = rng.random(n) >= 0.25
    return SparseGraph.from_edges(n, np.column_stack((src, dst))[keep[src]], directed=True)


def dense_degree_oracle(g, alpha, beta):
    """Independent dense computation of the degree-reweighted operator."""
    n = g.num_nodes
    a = g.adj.toarray()
    deg = degrees(g).astype(float)
    out = np.zeros((n, n))
    for i in range(n):
        w = np.zeros(n)
        for j in range(n):
            if a[i, j]:
                dd = deg[i] * deg[j]
                if dd > 0:
                    w[j] = dd ** alpha
                elif alpha >= 0:
                    w[j] = 0.0 if alpha > 0 else 1.0
        z = w.sum()
        if z > 0:
            out[i] = w / z
        out[i, i] += beta
    return out


class TestDegreeWeightedMatrix:
    def test_alpha_zero_is_uniform_average(self):
        g = SparseGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        q = degree_weighted_matrix(g, alpha=0.0, beta=0.0).toarray()
        np.testing.assert_allclose(q[0, 1:], 1 / 3)
        np.testing.assert_allclose(q[1, 0], 1.0)

    def test_rows_sum_to_one_plus_beta(self, rng):
        g = random_undirected_graph(25, 0.2, rng)
        beta = 2.0
        q = degree_weighted_matrix(g, alpha=0.6, beta=beta).toarray()
        deg = degrees(g)
        sums = q.sum(axis=1)
        for i in range(25):
            expected = beta + (1.0 if deg[i] > 0 else 0.0)
            assert sums[i] == pytest.approx(expected, abs=1e-12)

    def test_hand_path_alpha_one(self):
        # path 0-1-2: node 1 weights are (d1*d0, d1*d2) = (2, 2) -> 0.5 each
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2)])
        q = degree_weighted_matrix(g, alpha=1.0, beta=0.5).toarray()
        np.testing.assert_allclose(q[1], [0.5, 0.5, 0.5])
        np.testing.assert_allclose(q[0], [0.5, 1.0, 0.0])

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.6, 1.0])
    def test_matches_dense_oracle(self, alpha, rng):
        for _ in range(5):
            directed = random_directed_graph(20, 0.2, rng)
            # Some edge ends at a node without out-edges, whose degree is 0.
            assert (degrees(directed)[directed.adj.indices] == 0).any()
            for g in (random_undirected_graph(20, 0.2, rng), directed):
                q = degree_weighted_matrix(g, alpha=alpha, beta=1.5).toarray()
                np.testing.assert_allclose(q, dense_degree_oracle(g, alpha, 1.5), atol=1e-12)

    @pytest.mark.parametrize("beta", [-1.0, -1e-12, np.nan, np.inf])
    def test_bad_beta_rejected(self, beta):
        g = SparseGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="beta"):
            degree_weighted_matrix(g, alpha=0.6, beta=beta)

    def test_isolated_node_keeps_beta_only(self):
        g = SparseGraph.from_edges(3, [(0, 1)])
        q = degree_weighted_matrix(g, alpha=0.6, beta=2.0).toarray()
        np.testing.assert_allclose(q[2], [0.0, 0.0, 2.0])


class TestPropagation:
    def test_vanilla_matches_renormalized(self, rng):
        g = random_undirected_graph(15, 0.3, rng)
        np.testing.assert_allclose(
            propagation_matrix(g, "vanilla").toarray(),
            renormalized_adjacency(g).toarray(),
        )

    def test_vanilla_symmetrizes_directed(self, rng):
        g = random_directed_graph(15, 0.2, rng)
        undirected = SparseGraph.from_edges(15, np.argwhere((g.adj + g.adj.T).toarray()))
        q, ref = propagation_matrix(g, "vanilla"), propagation_matrix(undirected, "vanilla")
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(q, part), getattr(ref, part))

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError, match="unknown"):
            propagation_matrix(random_undirected_graph(5, 0.5, rng), "magic")


class TestLossAndGradients:
    # The loss is a mean over node_ids as listed, so a repeated node counts
    # twice in the loss and must count twice in the gradient.
    @pytest.mark.parametrize("node_ids", [[0, 2, 5, 7, 9], [9, 2, 0, 7, 5], [0, 2, 2, 5, 7, 9]])
    def test_gradients_match_finite_differences(self, rng, node_ids):
        g = random_undirected_graph(12, 0.3, rng)
        h0 = rng.normal(size=(12, 5))
        labels = rng.integers(0, 3, size=12)
        q = propagation_matrix(g, "advanced", alpha=0.6, beta=2.0)
        node_ids = np.array(node_ids)

        def lag(params):
            return classifier_loss_and_grads(
                params["w1"], params["w2"], q, h0, labels, node_ids, weight_decay=5e-4
            )

        params = {
            "w1": make_rng(1).normal(size=(5, 6)) * 0.3,
            "w2": make_rng(2).normal(size=(6, 3)) * 0.3,
        }
        assert grad_check(lag, params) < 1e-6

    def test_weight_decay_term(self, rng):
        g = random_undirected_graph(8, 0.4, rng)
        h0 = rng.normal(size=(8, 3))
        labels = np.zeros(8, dtype=int)
        q = propagation_matrix(g, "vanilla")
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))
        ids = np.arange(8)
        l0, _ = classifier_loss_and_grads(w1, w2, q, h0, labels, ids, 0.0)
        l1, _ = classifier_loss_and_grads(w1, w2, q, h0, labels, ids, 0.1)
        expected = 0.5 * 0.1 * (np.sum(w1 * w1) + np.sum(w2 * w2))
        assert l1 - l0 == pytest.approx(expected, rel=1e-10)

    def test_uniform_logits_loss_is_log_c(self, rng):
        g = random_undirected_graph(6, 0.5, rng)
        h0 = rng.normal(size=(6, 3))
        labels = rng.integers(0, 4, size=6)
        q = propagation_matrix(g, "vanilla")
        loss, _ = classifier_loss_and_grads(
            np.zeros((3, 5)), np.zeros((5, 4)), q, h0, labels, np.arange(6), 0.0
        )
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)


class TestPredictAccuracy:
    def test_predict_tie_smaller_class(self):
        g = SparseGraph.from_edges(2, [(0, 1)])
        model = ClassifierModel(np.zeros((2, 3)), np.zeros((3, 4)), mode="vanilla")
        np.testing.assert_array_equal(predict(model, g, np.ones((2, 2))), [0, 0])

    def test_accuracy_hand_value(self):
        preds = np.array([0, 1, 1, 0])
        labels = np.array([0, 1, 0, 0])
        assert accuracy(preds, labels, [0, 1, 2, 3]) == pytest.approx(0.75)
        assert accuracy(preds, labels, [2]) == 0.0

    def test_accuracy_empty_set(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(3), [])


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm(SbmSpec(90, 3, 0.3, 0.01, 30, 8, 0.02, seed=3))


class TestTrainClassifier:
    def test_learns_separable_sbm(self, sbm):
        _, acc = train_classifier(
            sbm.graph,
            sbm.features,
            sbm.labels,
            sbm.split,
            ClassifierConfig(epochs=100),
            mode="vanilla",
            alpha=0.0,
            beta=0.0,
            seed=0,
        )
        assert acc > 0.9

    def test_advanced_mode_learns(self, sbm):
        _, acc = train_classifier(
            sbm.graph,
            sbm.features,
            sbm.labels,
            sbm.split,
            ClassifierConfig(epochs=100),
            mode="advanced",
            alpha=0.6,
            beta=2.0,
            seed=0,
        )
        assert acc > 0.9

    def test_deterministic(self, sbm):
        kwargs = dict(mode="vanilla", alpha=0.0, beta=0.0, seed=5)
        config = ClassifierConfig(epochs=30)
        a = train_classifier(sbm.graph, sbm.features, sbm.labels, sbm.split, config, **kwargs)
        b = train_classifier(sbm.graph, sbm.features, sbm.labels, sbm.split, config, **kwargs)
        np.testing.assert_array_equal(a[0].w1, b[0].w1)
        assert a[1] == b[1]

    @pytest.mark.parametrize("mode, alpha, beta", [("advanced", 0.6, 2.0), ("vanilla", 0.0, 0.0)])
    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_bitwise_equal_to_reference_loop(self, sbm, mode, alpha, beta, order):
        split = sbm.split
        if order == "shuffled":
            # split.json may list its nodes in any order.
            rng = make_rng(4)
            split = DataSplit(
                train=rng.permutation(split.train).tolist(),
                val=rng.permutation(split.val).tolist(),
                test=split.test,
            )
            assert split.train != sorted(split.train) and split.val != sorted(split.val)
        args = (sbm.graph, sbm.features, sbm.labels, split, ClassifierConfig(epochs=60),
                mode, alpha, beta, 7)
        model, acc = train_classifier(*args)
        ref_model, ref_acc, ref_val = reference_train(*args)
        np.testing.assert_array_equal(model.w1, ref_model.w1)
        np.testing.assert_array_equal(model.w2, ref_model.w2)
        assert (acc, model.val_accuracy) == (ref_acc, ref_val)

    def test_vanilla_on_directed_equals_undirected(self, sbm):
        # Each edge stored once, with u < v: its symmetrization is sbm.graph.
        directed = SparseGraph.from_edges(sbm.graph.num_nodes, sbm.graph.edge_array(), directed=True)
        config = ClassifierConfig(epochs=30)
        runs = [
            train_classifier(g, sbm.features, sbm.labels, sbm.split, config, "vanilla", 0.0, 0.0, 5)
            for g in (directed, sbm.graph)
        ]
        np.testing.assert_array_equal(runs[0][0].w1, runs[1][0].w1)
        assert runs[0][1] == runs[1][1]
        np.testing.assert_array_equal(
            predict(runs[0][0], directed, sbm.features), predict(runs[1][0], sbm.graph, sbm.features)
        )

    @pytest.mark.parametrize("split, message", [
        (DataSplit(train=[], val=[0], test=[1]), "training split is empty"),
        (DataSplit(train=[0], val=[1], test=[]), "test split is empty"),
    ])
    def test_empty_split_rejected(self, sbm, split, message):
        with pytest.raises(ValueError, match=message):
            train_classifier(
                sbm.graph, sbm.features, sbm.labels, split,
                ClassifierConfig(epochs=1), "vanilla", 0.0, 0.0, 0,
            )

    def test_zero_epochs_rejected(self, sbm):
        # With no epoch there is no model selection, and no validation accuracy to report.
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            train_classifier(
                sbm.graph, sbm.features, sbm.labels, sbm.split,
                ClassifierConfig(epochs=0), "vanilla", 0.0, 0.0, 0,
            )

    def test_empty_val_warns(self, sbm):
        split = DataSplit(train=list(range(10)), val=[], test=list(range(10, 20)))
        with pytest.warns(UserWarning, match="validation"):
            model, _ = train_classifier(
                sbm.graph, sbm.features, sbm.labels, split,
                ClassifierConfig(epochs=2), "vanilla", 0.0, 0.0, 0,
            )
        assert model.val_accuracy is None

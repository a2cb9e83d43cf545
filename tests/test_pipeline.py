import dataclasses
import gc
import weakref

import numpy as np
import pytest

from conftest import pairs
from robustgsl.attack import AttackBudget, dice_attack, random_attack
from robustgsl.data_io import GraphBundle, SbmSpec, generate_sbm
from robustgsl.encoder import EncoderConfig
from robustgsl.graph import SparseGraph
from robustgsl.classifier import ClassifierConfig
from robustgsl.preprocess import rough_preprocess
from robustgsl.refine import embedding_similarity
from robustgsl import pipeline
from robustgsl.pipeline import (
    VARIANTS,
    PipelineConfig,
    preprocess_stage,
    run_experiment,
    run_gcn_baseline,
    run_pipeline,
    run_variant,
    sweep,
)


def _no_training(*args, **kwargs):
    raise AssertionError("an encoder was trained before the inputs were checked")


def fast_config(**kwargs):
    """Small training budgets so pipeline tests stay quick."""
    return PipelineConfig(
        encoder=EncoderConfig(hidden=16, epochs=20, patience=20),
        classifier=ClassifierConfig(hidden=8, epochs=30),
        **kwargs,
    )


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm(SbmSpec(60, 3, 0.3, 0.02, 20, 6, 0.02, seed=2))


class TestRunVariant:
    def test_stats_consistency(self, sbm):
        run = run_pipeline(sbm, fast_config(), seed=0)
        s = run.stats
        assert s["edges_input"] == sbm.graph.num_edges
        assert s["edges_preprocessed"] + s["edges_removed_preprocess"] == s["edges_input"]
        assert s["edges_retained"] + s["edges_removed_refine"] == s["edges_preprocessed"]
        assert s["edges_refined_directed"] == 2 * s["edges_retained"] + s["edges_inserted_directed"]
        assert pairs(run.removed_preprocess) == pairs(run.removed_total) - pairs(run.removed_refine)
        assert 0.0 <= run.accuracy <= 1.0
        assert run.refined_graph.directed

    def test_deterministic(self, sbm):
        a = run_pipeline(sbm, fast_config(), seed=7)
        b = run_pipeline(sbm, fast_config(), seed=7)
        assert a.accuracy == b.accuracy
        assert a.refined_graph.edges() == b.refined_graph.edges()
        np.testing.assert_array_equal(a.embeddings, b.embeddings)

    def test_all_variants_run(self, sbm):
        config = fast_config()
        for variant in VARIANTS:
            run = run_variant(sbm, config, variant, seed=1)
            assert 0.0 <= run.accuracy <= 1.0

    def test_prune_only_inserts_nothing(self, sbm):
        run = run_variant(sbm, fast_config(), "prune-only", seed=0)
        assert run.stats["edges_inserted_directed"] == 0

    def test_prune_only_refines_on_preactivation_cosine(self):
        # The acceptance battery instance at the default config: refinement
        # must prune, and exactly the edges whose pre-activation cosine is at
        # most t2.
        clean = generate_sbm(SbmSpec(300, 3, 0.1, 0.005, 100, 10, 0.01, seed=1))
        poisoned, _ = dice_attack(clean.graph, clean.labels, AttackBudget(0.2, 51))
        bundle = GraphBundle(poisoned, clean.features, clean.labels, clean.split)
        config = PipelineConfig()
        run = run_variant(bundle, config, "prune-only", seed=0)
        assert run.stats["edges_removed_refine"] > 0
        base = poisoned.edge_set() - pairs(run.removed_preprocess)
        expected = {
            e for e in base if embedding_similarity(run.preactivation, e[0], e[1]) <= config.t2
        }
        assert pairs(run.removed_refine) == expected

    def test_no_preprocess_skips_pruning(self, sbm):
        run = run_variant(sbm, fast_config(), "no-preprocess", seed=0)
        assert run.stats["edges_removed_preprocess"] == 0
        assert not pairs(run.removed_preprocess)

    def test_no_augmentation_recovers_nothing(self, sbm):
        run = run_variant(sbm, fast_config(), "no-augmentation", seed=0)
        assert run.stats["mean_recovered_per_view"] == 0.0

    def test_stage_outputs_are_sorted_edge_arrays(self, sbm):
        # Every stage hands on the edges it added or removed as an (E, 2) int64
        # array of pairs u < v, sorted and without repeats.
        def check(edges):
            assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 2
            assert (edges[:, 0] < edges[:, 1]).all()
            assert (np.diff(edges[:, 0] * sbm.graph.num_nodes + edges[:, 1]) > 0).all()

        budget = AttackBudget(0.2, 3)
        for _, record in (dice_attack(sbm.graph, sbm.labels, budget), random_attack(sbm.graph, budget)):
            assert len(record.added) and len(record.removed)
            check(record.added)
            check(record.removed)
        check(rough_preprocess(sbm.graph, sbm.features, "jaccard", 0.2)[1])
        run = run_pipeline(sbm, fast_config(t1=0.2, t2=0.9), seed=0)
        assert len(run.removed_preprocess) and len(run.removed_refine)
        for edges in (run.removed_preprocess, run.removed_refine, run.removed_total):
            check(edges)
        assert not (pairs(run.removed_preprocess) & pairs(run.removed_refine))
        union = pairs(run.removed_preprocess) | pairs(run.removed_refine)
        assert list(map(tuple, run.removed_total.tolist())) == sorted(union)

    def test_unknown_variant(self, sbm):
        with pytest.raises(ValueError, match="unknown variant"):
            run_variant(sbm, fast_config(), "bogus", seed=0)


class TestFeaturelessGraph:
    """With X = I every edge scores 0 under both metrics, so the rough
    pre-process would remove every edge and leave the encoder garbage."""

    @pytest.fixture(scope="class")
    def featureless(self):
        battery = generate_sbm(SbmSpec(300, 3, 0.1, 0.005, 100, 10, 0.01, seed=1))
        return dataclasses.replace(battery, features=np.eye(300))

    @pytest.mark.parametrize("metric", ["jaccard", "cosine"])
    def test_pipeline_refuses(self, featureless, metric):
        message = rf"the {metric} pre-process at t1=0.03 removed all 1638 edges; a lower t1 keeps them$"
        with pytest.raises(ValueError, match=message):
            run_pipeline(featureless, PipelineConfig(metric=metric), seed=0)

    def test_no_preprocess_runs(self, featureless):
        run = run_variant(featureless, PipelineConfig(), "no-preprocess", seed=0)
        assert run.stats["edges_removed_preprocess"] == 0
        assert run.accuracy > 0.9

    def test_edgeless_graph_passes(self):
        # Only a graph that has edges can lose all of them.
        base, removed, _ = preprocess_stage(SparseGraph.from_edges(5, []), np.eye(5), PipelineConfig(), seed=0)
        assert base.num_edges == len(removed) == 0


class TestBaselineAndExperiment:
    def test_gcn_baseline_learns(self, sbm):
        acc = run_gcn_baseline(sbm, fast_config(), seed=0)
        assert acc > 0.8

    def test_experiment_record_fields(self, sbm):
        record = run_experiment(sbm, fast_config(), seeds=[0, 1])
        assert record["seeds"] == [0, 1]
        assert len(record["accuracies"]) == 2
        assert record["mean"] == pytest.approx(np.mean(record["accuracies"]))
        assert record["std"] == pytest.approx(np.std(record["accuracies"]))
        assert len(record["stage_stats"]) == 2
        assert record["config"]["t1"] == pytest.approx(0.03)
        assert record["wall_time_sec"] > 0

    def test_experiment_needs_seeds(self, sbm):
        with pytest.raises(ValueError):
            run_experiment(sbm, fast_config(), seeds=[])

    def test_experiment_needs_a_test_split(self, sbm, monkeypatch):
        monkeypatch.setattr(pipeline, "train_encoder", _no_training)
        bundle = dataclasses.replace(sbm, split=dataclasses.replace(sbm.split, test=[]))
        with pytest.raises(ValueError, match="test split is empty"):
            run_experiment(bundle, fast_config(), seeds=[0])

    def test_experiment_keeps_only_numbers(self, sbm, monkeypatch):
        # A run holds its refined graph and N x h arrays. When seed k+1 starts,
        # no run before seed k may still be alive.
        refs, alive_at_start = [], []

        def tracked(*args):
            gc.collect()
            alive_at_start.append(sum(ref() is not None for ref in refs[:-1]))
            run = run_variant(*args)
            refs.append(weakref.ref(run))
            return run

        monkeypatch.setattr(pipeline, "run_variant", tracked)
        record = run_experiment(sbm, fast_config(), seeds=[0, 1, 2])
        assert alive_at_start == [0, 0, 0]
        assert len(record["accuracies"]) == len(record["stage_stats"]) == 3


class TestSweep:
    def test_sweep_rows(self, sbm):
        rows = sweep(sbm, fast_config(), "k", [0, 3], seeds=[0])
        assert [r["value"] for r in rows] == [0, 3]
        for row in rows:
            assert row["param"] == "k"
            assert len(row["accuracies"]) == 1

    def test_sweep_value_actually_applied(self, sbm):
        config = fast_config()
        row_acc = sweep(sbm, config, "t1", [0.5], seeds=[3])[0]["accuracies"][0]
        import dataclasses

        direct = run_pipeline(sbm, dataclasses.replace(config, t1=0.5), seed=3).accuracy
        assert row_acc == direct

    def test_featureless_value_stops_before_training(self, sbm, monkeypatch):
        # No Jaccard score reaches t1=1.5, so its pre-process would remove every edge.
        monkeypatch.setattr(pipeline, "train_encoder", _no_training)
        message = rf"the jaccard pre-process at t1=1.5 removed all {sbm.graph.num_edges} edges; a lower t1"
        with pytest.raises(ValueError, match=message):
            sweep(sbm, fast_config(), "t1", [0.03, 1.5], seeds=[0])

    def test_unsweepable_param(self, sbm):
        with pytest.raises(ValueError, match="cannot sweep"):
            sweep(sbm, fast_config(), "metric", ["cosine"], seeds=[0])

    def test_empty_values(self, sbm):
        with pytest.raises(ValueError):
            sweep(sbm, fast_config(), "k", [], seeds=[0])

    def test_empty_seeds(self, sbm):
        with pytest.raises(ValueError, match="need at least one seed"):
            sweep(sbm, fast_config(), "k", [0], seeds=[])


class TestConfigSerialization:
    def test_roundtrip(self):
        config = fast_config(t1=0.1, k=9, classifier_mode="advanced")
        assert PipelineConfig.from_dict(dataclasses.asdict(config)) == config

    def test_defaults(self):
        config = PipelineConfig()
        assert config.metric == "jaccard"
        assert config.t1 == 0.03
        assert config.recover_p == 0.2
        assert config.num_views == 2
        assert config.t2 == 0.2
        assert config.k == 5
        assert config.alpha == 0.6
        assert config.beta == 2.0

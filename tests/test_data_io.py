import json

import numpy as np
import pytest

from robustgsl.data_io import (
    BundleFormatError,
    DataSplit,
    GraphBundle,
    SbmSpec,
    generate_sbm,
    load_graph_bundle,
    read_report,
    save_graph_bundle,
    summarize_runs,
    write_report,
)
from robustgsl.graph import SparseGraph


def toy_bundle():
    g = SparseGraph.from_edges(3, [(0, 1), (1, 2)])
    x = np.array([[1.0, 0.0], [0.5, 0.25], [0.0, 1.0]])
    y = np.array([0, 1, 1])
    return GraphBundle(g, x, y, DataSplit(train=[0], val=[1], test=[2]))


class TestBundleIo:
    def test_roundtrip(self, tmp_path):
        bundle = toy_bundle()
        save_graph_bundle(bundle, tmp_path)
        loaded = load_graph_bundle(tmp_path)
        assert loaded.graph.edges() == bundle.graph.edges()
        np.testing.assert_array_equal(loaded.features, bundle.features)
        np.testing.assert_array_equal(loaded.labels, bundle.labels)
        assert loaded.split == bundle.split

    def test_reversed_edges_deduplicated(self, tmp_path):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "edges.tsv").write_text("0\t1\n1\t0\n# comment\n")
        loaded = load_graph_bundle(tmp_path)
        assert loaded.graph.edges() == [(0, 1)]

    def test_overlapping_split_names_offender(self, tmp_path):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "split.json").write_text(json.dumps({"train": [0, 2], "val": [1], "test": [2]}))
        with pytest.raises(BundleFormatError, match="node 2"):
            load_graph_bundle(tmp_path)

    def test_ragged_features_rejected(self, tmp_path):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "features.txt").write_text("3 2\n1 0\n0.5\n0 1\n")
        with pytest.raises(BundleFormatError, match="features.txt:3"):
            load_graph_bundle(tmp_path)

    def test_non_finite_feature_rejected(self, tmp_path):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "features.txt").write_text("3 2\n1 0\n0.5 nan\n0 inf\n")
        with pytest.raises(BundleFormatError, match="features.txt:3"):
            load_graph_bundle(tmp_path)

    def test_unlabelled_split_node_rejected(self, tmp_path):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "labels.tsv").write_text("0\t0\n2\t1\n")
        with pytest.raises(BundleFormatError, match="node 1 has no label"):
            load_graph_bundle(tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "labels.tsv").unlink()
        with pytest.raises(BundleFormatError, match="missing file"):
            load_graph_bundle(tmp_path)

    def test_out_of_range_edge_rejected(self, tmp_path):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "edges.tsv").write_text("0\t7\n")
        with pytest.raises(BundleFormatError, match="edges.tsv:1"):
            load_graph_bundle(tmp_path)


class TestSbm:
    def test_degenerate_probabilities_give_cliques(self):
        spec = SbmSpec(4, 2, 1.0, 0.0, 4, 2, 0.0, seed=0)
        bundle = generate_sbm(spec)
        assert bundle.graph.edges() == [(0, 1), (2, 3)]

    def test_zero_noise_identical_features_within_class(self):
        bundle = generate_sbm(SbmSpec(12, 3, 0.5, 0.1, 16, 4, 0.0, seed=5))
        for c in range(3):
            rows = bundle.features[bundle.labels == c]
            assert np.all(rows == rows[0])

    def test_class_sizes_balanced(self):
        bundle = generate_sbm(SbmSpec(10, 3, 0.5, 0.1, 8, 2, 0.0, seed=1))
        sizes = np.bincount(bundle.labels)
        assert sizes.max() - sizes.min() <= 1

    def test_seed_determinism(self):
        spec = SbmSpec(30, 3, 0.3, 0.02, 20, 5, 0.05, seed=9)
        a, b = generate_sbm(spec), generate_sbm(spec)
        assert a.graph.edges() == b.graph.edges()
        np.testing.assert_array_equal(a.features, b.features)
        assert a.split == b.split

    def test_intra_class_edge_fraction(self):
        # Monte Carlo over seeds; binomial mean ~0.90 for these rates.
        fractions = []
        for seed in range(100):
            bundle = generate_sbm(SbmSpec(300, 3, 0.1, 0.005, 4, 1, 0.0, seed=seed))
            lab = bundle.labels
            edges = bundle.graph.edges()
            intra = sum(1 for u, v in edges if lab[u] == lab[v])
            fractions.append(intra / len(edges))
        assert 0.85 <= np.mean(fractions) <= 0.95

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            generate_sbm(SbmSpec(10, 2, 0.1, 0.5, 4, 2, 0.0, seed=0))

    def test_split_proportions(self):
        bundle = generate_sbm(SbmSpec(300, 3, 0.1, 0.005, 10, 3, 0.0, seed=2))
        assert len(bundle.split.train) == 30
        assert len(bundle.split.val) == 30
        assert len(bundle.split.test) == 240


class TestReports:
    def test_empty_runs(self, tmp_path):
        write_report({"runs": []}, tmp_path / "r.json")
        assert read_report(tmp_path / "r.json") == {"runs": []}

    def test_roundtrip_field_identical(self, tmp_path):
        record = {"accuracies": [0.5, 0.75], "config": {"k": 5}, "mean": 0.625}
        write_report(record, tmp_path / "r.json")
        assert read_report(tmp_path / "r.json") == record

    def test_population_std(self):
        stats = summarize_runs([0.8, 0.9])
        assert stats["mean"] == pytest.approx(0.85)
        assert stats["std"] == pytest.approx(0.05)

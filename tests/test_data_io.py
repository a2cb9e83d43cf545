import json

import numpy as np
import pytest

from robustgsl.data_io import (
    BundleFormatError,
    DataSplit,
    GraphBundle,
    SbmSpec,
    generate_sbm,
    load_edges,
    load_features,
    load_graph_bundle,
    read_report,
    save_edges,
    save_features,
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

    @pytest.mark.parametrize("name, split", [
        ("train", {"train": [0, 0], "val": [1], "test": [2]}),
        ("test", {"train": [0], "val": [1], "test": [2, 2, 2]}),
    ])
    def test_repeated_split_node_rejected(self, tmp_path, name, split):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "split.json").write_text(json.dumps(split))
        with pytest.raises(BundleFormatError, match=f"split set {name} lists node {split[name][0]} more"):
            load_graph_bundle(tmp_path)

    @pytest.mark.parametrize("text, problem", [
        ("[]", "expected an object"),
        ('{"train": [0.7, 1], "val": [], "test": []}', "split set train must be"),
        ('{"train": ["0"]}', "split set train must be"),
        ('{"train": [true]}', "split set train must be"),
        ('{"train": [[1]]}', "split set train must be"),
        ('{"train": [0], "val": 1}', "split set val must be"),
        ('{"train": [0], "test": [2.0]}', "split set test must be"),
        ("", "not valid JSON"),
        ('{"train": [0],', "not valid JSON"),
    ])
    def test_malformed_split_rejected(self, tmp_path, text, problem):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "split.json").write_text(text)
        with pytest.raises(BundleFormatError) as exc:
            load_graph_bundle(tmp_path)
        message = str(exc.value)
        assert message.startswith(f"{tmp_path / 'split.json'}: ") and problem in message

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

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("labels.tsv", "0\t0\n1\tx\n2\t1\n", "labels.tsv:2"),
            ("features.txt", "12 four\n1 0\n", "features.txt:1"),
            ("features.txt", "3 2\n1 0\n\n0.5 abc\n0 1\n", "features.txt:4"),
            ("edges.tsv", "# header\n0\t1\n1\t2\t3\n", "edges.tsv:3"),
            ("edges.tsv", "0\t1\n1\t2.0\n", "edges.tsv:2"),
            ("labels.tsv", "0\t0\n\n5\t1\n", "labels.tsv:3"),
        ],
        ids=["label-not-int", "header-not-int", "feature-not-number", "edge-three-fields",
             "edge-float-id", "label-node-out-of-range"],
    )
    def test_malformed_line_named(self, tmp_path, name, text, where):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / name).write_text(text)
        with pytest.raises(BundleFormatError, match=where):
            load_graph_bundle(tmp_path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "edges.tsv").write_text("# edges\n\n1\t2  # kept\n   \n0 1\n")
        (tmp_path / "labels.tsv").write_text("0\t0\n# two\n\n1\t1\n2\t0\n2\t1\n")
        (tmp_path / "features.txt").write_text("3 2\n1 0\n\n0.5 0.25\n  \n0 1\n")
        loaded = load_graph_bundle(tmp_path)
        bundle = toy_bundle()
        assert loaded.graph.edges() == bundle.graph.edges()
        np.testing.assert_array_equal(loaded.features, bundle.features)
        np.testing.assert_array_equal(loaded.labels, bundle.labels)  # last label of node 2 wins

    def test_empty_edge_file(self, tmp_path):
        (tmp_path / "e.tsv").write_text("# nothing\n")
        assert load_edges(tmp_path / "e.tsv", 4).num_edges == 0


def _loop_saved_edges(graph) -> str:
    return "".join(f"{u}\t{v}\n" for u, v in graph.edges())


def _loop_saved_features(x) -> str:
    n, dim = x.shape
    return f"{n} {dim}\n" + "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in x)


class TestSaveBytes:
    """The block writers give the bytes of the per-value loops they replaced."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_save_edges_matches_loop(self, tmp_path, directed):
        rng = np.random.default_rng(11)
        for n in (1, 7, 60, 3000):
            pairs = rng.integers(0, n, size=(3 * n, 2))
            g = SparseGraph.from_edges(n, pairs, directed=directed)
            save_edges(g, tmp_path / "e.tsv")
            assert (tmp_path / "e.tsv").read_bytes() == _loop_saved_edges(g).encode()
            assert load_edges(tmp_path / "e.tsv", n, directed).edges() == g.edges()

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (1, 1), (5, 7), (2500, 9)])
    def test_save_features_matches_loop(self, tmp_path, shape):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        specials = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
        x.ravel()[: len(specials)] = specials[: x.size]
        save_features(x, tmp_path / "f.txt")
        assert (tmp_path / "f.txt").read_bytes() == _loop_saved_features(x).encode()
        if shape[1]:  # rows of no values are blank lines, which the loader skips
            loaded = load_features(tmp_path / "f.txt")
            assert loaded.shape == shape
            assert loaded.tobytes() == x.tobytes()

    def test_save_labels_matches_loop(self, tmp_path):
        bundle = generate_sbm(SbmSpec(1500, 3, 0.01, 0.001, 4, 2, 0.0, seed=3))
        save_graph_bundle(bundle, tmp_path)
        want = "".join(f"{node}\t{int(lab)}\n" for node, lab in enumerate(bundle.labels))
        assert (tmp_path / "labels.tsv").read_text() == want


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

    @pytest.mark.parametrize(
        "feature_dim, on_bits, message", [(4, -1, "on_bits must be >= 0"), (0, 0, "feature_dim must be >= 1")]
    )
    def test_invalid_feature_shape_rejected(self, feature_dim, on_bits, message):
        with pytest.raises(ValueError, match=message):
            generate_sbm(SbmSpec(10, 2, 0.5, 0.1, feature_dim, on_bits, 0.0, seed=0))

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

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"runs": [')
        with pytest.raises(ValueError, match="not valid JSON") as exc:
            read_report(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_population_std(self):
        stats = summarize_runs([0.8, 0.9])
        assert stats["mean"] == pytest.approx(0.85)
        assert stats["std"] == pytest.approx(0.05)

import hashlib
import json
import tracemalloc

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
    write_report,
)
from robustgsl.graph import SparseGraph
from robustgsl.linalg import make_rng


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

    @pytest.mark.parametrize("split, message", [
        ({"train": [], "val": [1], "test": [2]}, "split has an empty train set"),
        ({"train": [0], "val": [3], "test": [2]}, "split references node 3, out of range 0..2"),
        ({"train": [-1], "val": [1], "test": [2]}, "split references node -1, out of range 0..2"),
        ({"train": [0], "val": [1, 1], "test": [2]}, "split set val lists node 1 more than once"),
        ({"train": [0, 2], "val": [1], "test": [2]}, "split sets train and test overlap at node 2"),
    ])
    def test_split_contents_checked(self, tmp_path, split, message):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "split.json").write_text(json.dumps(split))
        with pytest.raises(BundleFormatError) as exc:
            load_graph_bundle(tmp_path)
        assert str(exc.value) == f"{tmp_path / 'split.json'}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("-3 2\n1 0\n0.5 0.25\n0 1\n", ":1: expected header 'N d', got '-3 2'"),
        ("3 1_0\n1 0\n0.5 0.25\n0 1\n", ":1: expected header 'N d', got '3 1_0'"),
        ("2 2\n1 0\n0.5 0.25\n0 1\n", ": header says 2 rows, found 3"),
        ("4 2\n1 0\n0.5 0.25\n0 1\n", ": header says 4 rows, found 3"),
    ])
    def test_features_header_checked(self, tmp_path, text, message):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "features.txt").write_text(text)
        with pytest.raises(BundleFormatError) as exc:
            load_graph_bundle(tmp_path)
        assert str(exc.value) == f"{tmp_path / 'features.txt'}{message}"

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

    def test_feature_rows_checked_against_node_count(self, tmp_path):
        path = tmp_path / "emb.txt"
        save_features(np.zeros((3, 2)), path)
        assert load_features(path, 3).shape == (3, 2)
        with pytest.raises(BundleFormatError) as exc:
            load_features(path, 4)
        assert str(exc.value) == f"{path}: 3 rows, but the graph has 4 nodes"

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

    def test_unreadable_file_rejected(self, tmp_path):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / "edges.tsv").unlink()
        (tmp_path / "edges.tsv").mkdir()
        with pytest.raises(BundleFormatError) as exc:
            load_graph_bundle(tmp_path)
        assert str(exc.value).startswith(f"cannot read {tmp_path / 'edges.tsv'}: ")

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
            ("labels.tsv", "0\t0\n1\t1\n2\t200000\n", "labels.tsv:3"),
            # Python's int() and float() take these two; numpy's reader does not.
            ("edges.tsv", "0\t1\n2\t1_0\n", "edges.tsv:2: '1_0' is not an integer"),
            ("features.txt", "3 2\n1 0\n0.5 \u0663\n0 1\n", "features.txt:3: '\u0663' is not a number"),
        ],
        ids=["label-not-int", "header-not-int", "feature-not-number", "edge-three-fields",
             "edge-float-id", "label-node-out-of-range", "label-out-of-range", "edge-underscore-digits",
             "feature-non-ascii-digit"],
    )
    def test_malformed_line_named(self, tmp_path, name, text, where):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / name).write_text(text)
        with pytest.raises(BundleFormatError, match=where):
            load_graph_bundle(tmp_path)

    @pytest.mark.parametrize("name, data, where", [
        ("edges.tsv", b"0\t1\n\xff\t2\n", "edges.tsv:2"),
        ("features.txt", b"3 2\n1 0\n0.5 0.25\n0 \xfe\n", "features.txt:4"),
    ])
    def test_undecodable_bytes_named(self, tmp_path, name, data, where):
        save_graph_bundle(toy_bundle(), tmp_path)
        (tmp_path / name).write_bytes(data)
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


# Small specs over every edge case of the class layout and the probabilities:
# n == k, n % k != 0, p_in = 1 and p_out = 0.
SMALL_SPECS = [
    SbmSpec(n, k, p_in, p_out, 4 + 5 * seed, 1 + seed, 0.2 * seed, seed)
    for n, k in ((2, 2), (3, 3), (5, 5), (7, 3), (10, 4), (31, 3), (64, 2), (100, 7))
    for p_in, p_out in ((1.0, 0.0), (0.5, 0.1), (0.1, 0.005))
    for seed in (0, 1)
]


def _bundle_arrays(bundle):
    adj = bundle.graph.adj
    return [adj.indptr, adj.indices, adj.data, bundle.features, bundle.labels]


def _sbm_digest(specs) -> str:
    """SHA-256 over each spec's CSR arrays, features, labels (with dtypes) and split."""
    h = hashlib.sha256()
    for spec in specs:
        bundle = generate_sbm(spec)
        for a in _bundle_arrays(bundle):
            h.update(a.dtype.str.encode() + a.tobytes())
        h.update(json.dumps([bundle.split.train, bundle.split.val, bundle.split.test]).encode())
    return h.hexdigest()


def _all_pairs_edges(spec, labels):
    """The edges of one uniform per pair i < j drawn in a single call over
    np.triu_indices: the draw that generate_sbm streams in blocks."""
    iu, ju = np.triu_indices(spec.num_nodes, k=1)
    same = labels[iu] == labels[ju]
    mask = make_rng(spec.seed).random(len(iu)) < np.where(same, spec.p_in, spec.p_out)
    return np.column_stack((iu[mask], ju[mask]))


class TestSbmDraws:
    """generate_sbm's outputs, pinned by digests taken before its pair draws
    were streamed in blocks. A digest changes only if the generator consumes
    its draws differently."""

    def test_small_specs_pinned(self):
        assert len(SMALL_SPECS) == 48
        assert _sbm_digest(SMALL_SPECS) == "d133218de44c0565bc77490d88595da67d208ce8552287e61a61c21121853319"

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                SbmSpec(300, 3, 0.1, 0.005, 100, 10, 0.01, seed=1),
                "191c365e0bcb412c991f9b962621970371dc2cb3b63bca6cdf8389868786e42c",
            ),
            (
                SbmSpec(3000, 3, 0.01, 0.0005, 100, 10, 0.01, seed=1),
                "bfc638b48f73696eb039041e55fafde377f30e516f2f2e44f8418bf11d3aeb9d",
            ),
        ],
        ids=["battery", "n3000"],
    )
    def test_benchmark_specs_pinned(self, spec, digest):
        assert _sbm_digest([spec]) == digest

    @pytest.mark.parametrize("block", [1, 7, 99])  # 99 divides the 4950 pairs of 100 nodes
    def test_block_boundaries(self, monkeypatch, block):
        specs = [s for s in SMALL_SPECS if s.num_nodes == 100 and s.seed == 0]
        default = [generate_sbm(spec) for spec in specs]
        monkeypatch.setattr("robustgsl.graph.PAIR_BLOCK", block)
        for spec, want in zip(specs, default):
            got = generate_sbm(spec)
            for a, b in zip(_bundle_arrays(got), _bundle_arrays(want)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got.split == want.split
            np.testing.assert_array_equal(got.graph.edge_array(), _all_pairs_edges(spec, want.labels))

    def test_memory_stays_below_the_pair_count(self):
        # Holding all n(n - 1)/2 pairs at n = 3000 peaked near 145 MB; streamed
        # blocks need one 8 MB block of draws plus the outputs.
        tracemalloc.start()
        try:
            generate_sbm(SbmSpec(3000, 3, 0.01, 0.0005, 100, 10, 0.01, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6


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

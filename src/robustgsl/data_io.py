"""Bundle I/O (edges.tsv / features.txt / labels.tsv / split.json), synthetic
stochastic-block-model generation, and JSON report writing."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import SparseGraph
from .linalg import make_rng


class BundleFormatError(ValueError):
    """A bundle file is missing, malformed, or internally inconsistent."""


@dataclass
class DataSplit:
    train: list[int]
    val: list[int]
    test: list[int]

    def validate(self, num_nodes: int) -> None:
        if not self.train:
            raise BundleFormatError("split has an empty train set")
        all_ids = self.train + self.val + self.test
        for i in all_ids:
            if not (0 <= i < num_nodes):
                raise BundleFormatError(f"split references node {i}, out of range 0..{num_nodes - 1}")
        for a_name, a, b_name, b in [
            ("train", self.train, "val", self.val),
            ("train", self.train, "test", self.test),
            ("val", self.val, "test", self.test),
        ]:
            overlap = set(a) & set(b)
            if overlap:
                raise BundleFormatError(
                    f"split sets {a_name} and {b_name} overlap at node {min(overlap)}"
                )


@dataclass
class GraphBundle:
    graph: SparseGraph
    features: np.ndarray
    labels: np.ndarray
    split: DataSplit


def _read_edge_file(path: Path, num_nodes: int | None = None) -> list[tuple[int, int]]:
    if not path.exists():
        raise BundleFormatError(f"missing file: {path}")
    edges = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise BundleFormatError(f"{path}:{lineno}: expected 'u<TAB>v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise BundleFormatError(f"{path}:{lineno}: non-integer node id in {line!r}") from None
            if num_nodes is not None and not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise BundleFormatError(f"{path}:{lineno}: node id out of range in {line!r}")
            edges.append((u, v))
    return edges


def load_edges(path, num_nodes: int, directed: bool = False) -> SparseGraph:
    """Read an edge list file into a graph; reversed duplicates collapse."""
    return SparseGraph.from_edges(num_nodes, _read_edge_file(Path(path), num_nodes), directed=directed)


def load_features(path) -> np.ndarray:
    """Read a dense matrix file: header 'N d' then N rows of d reals."""
    path = Path(path)
    if not path.exists():
        raise BundleFormatError(f"missing file: {path}")
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise BundleFormatError(f"{path}:1: expected header 'N d'")
        n, dim = int(header[0]), int(header[1])
        rows, linenos = [], []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            vals = line.split()
            if len(vals) != dim:
                raise BundleFormatError(f"{path}:{lineno}: expected {dim} values, got {len(vals)}")
            rows.append([float(v) for v in vals])
            linenos.append(lineno)
    if len(rows) != n:
        raise BundleFormatError(f"{path}: header says {n} rows, found {len(rows)}")
    x = np.array(rows, dtype=float).reshape(n, dim)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise BundleFormatError(f"{path}:{linenos[bad[0]]}: non-finite value (NaN or inf)")
    return x


def load_graph_bundle(dir_path) -> GraphBundle:
    d = Path(dir_path)
    features = load_features(d / "features.txt")
    n = features.shape[0]

    labels = np.full(n, -1, dtype=np.int64)
    label_path = d / "labels.tsv"
    if not label_path.exists():
        raise BundleFormatError(f"missing file: {label_path}")
    with label_path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise BundleFormatError(f"{label_path}:{lineno}: expected 'node<TAB>label'")
            node, lab = int(parts[0]), int(parts[1])
            if not (0 <= node < n):
                raise BundleFormatError(f"{label_path}:{lineno}: node id {node} out of range")
            labels[node] = lab

    graph = load_edges(d / "edges.tsv", n)

    split_path = d / "split.json"
    if not split_path.exists():
        raise BundleFormatError(f"missing file: {split_path}")
    with split_path.open() as fh:
        raw = json.load(fh)
    split = DataSplit(
        train=[int(i) for i in raw.get("train", [])],
        val=[int(i) for i in raw.get("val", [])],
        test=[int(i) for i in raw.get("test", [])],
    )
    split.validate(n)
    unlabelled = [i for i in split.train + split.val + split.test if labels[i] < 0]
    if unlabelled:
        raise BundleFormatError(f"{label_path}: split node {unlabelled[0]} has no label")
    return GraphBundle(graph=graph, features=features, labels=labels, split=split)


def save_edges(graph: SparseGraph, path) -> None:
    path = Path(path)
    with path.open("w") as fh:
        for u, v in graph.edges():
            fh.write(f"{u}\t{v}\n")


def save_features(features: np.ndarray, path) -> None:
    path = Path(path)
    n, dim = features.shape
    with path.open("w") as fh:
        fh.write(f"{n} {dim}\n")
        for row in features:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def save_graph_bundle(bundle: GraphBundle, dir_path) -> None:
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    save_edges(bundle.graph, d / "edges.tsv")
    save_features(bundle.features, d / "features.txt")
    with (d / "labels.tsv").open("w") as fh:
        for node, lab in enumerate(bundle.labels):
            fh.write(f"{node}\t{int(lab)}\n")
    with (d / "split.json").open("w") as fh:
        json.dump(
            {"train": bundle.split.train, "val": bundle.split.val, "test": bundle.split.test},
            fh,
            indent=1,
        )
        fh.write("\n")


@dataclass
class SbmSpec:
    """Planted-partition benchmark: K equal blocks, binary template features."""

    num_nodes: int
    num_classes: int
    p_in: float
    p_out: float
    feature_dim: int
    on_bits: int
    flip_noise: float
    seed: int

    def validate(self) -> None:
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValueError(f"need 0 <= p_out < p_in <= 1, got {self.p_out}, {self.p_in}")
        if self.on_bits > self.feature_dim:
            raise ValueError("on_bits cannot exceed feature_dim")
        if self.num_classes < 2 or self.num_nodes < self.num_classes:
            raise ValueError("need at least 2 classes and one node per class")
        if not (0.0 <= self.flip_noise <= 1.0):
            raise ValueError("flip_noise must be in [0, 1]")


def generate_sbm(spec: SbmSpec) -> GraphBundle:
    """Seed-determined SBM bundle with a stratified 10/10/80 split."""
    spec.validate()
    rng = make_rng(spec.seed)
    n, k = spec.num_nodes, spec.num_classes

    # Contiguous blocks; sizes differ by at most 1.
    base, extra = divmod(n, k)
    labels = np.concatenate(
        [np.full(base + (1 if c < extra else 0), c, dtype=np.int64) for c in range(k)]
    )

    iu, ju = np.triu_indices(n, k=1)
    probs = np.where(labels[iu] == labels[ju], spec.p_in, spec.p_out)
    mask = rng.random(len(iu)) < probs
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
    graph = SparseGraph.from_edges(n, edges)

    templates = np.zeros((k, spec.feature_dim))
    for c in range(k):
        on = rng.choice(spec.feature_dim, size=spec.on_bits, replace=False)
        templates[c, on] = 1.0
    features = templates[labels].copy()
    flips = rng.random(features.shape) < spec.flip_noise
    features[flips] = 1.0 - features[flips]

    train, val, test = [], [], []
    for c in range(k):
        ids = np.flatnonzero(labels == c)
        ids = rng.permutation(ids)
        n_tr = max(1, int(round(0.1 * len(ids))))
        n_va = max(1, int(round(0.1 * len(ids))))
        train.extend(int(i) for i in ids[:n_tr])
        val.extend(int(i) for i in ids[n_tr:n_tr + n_va])
        test.extend(int(i) for i in ids[n_tr + n_va:])
    split = DataSplit(train=sorted(train), val=sorted(val), test=sorted(test))
    return GraphBundle(graph=graph, features=features, labels=labels, split=split)


def summarize_runs(accuracies) -> dict:
    """Mean and population std over per-run accuracies."""
    acc = np.asarray(list(accuracies), dtype=float)
    if acc.size == 0:
        return {"mean": None, "std": None}
    return {"mean": float(acc.mean()), "std": float(acc.std())}


def write_report(record: dict, path) -> None:
    """Serialize a result record as JSON with deterministic key order."""
    path = Path(path)
    with path.open("w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    with Path(path).open() as fh:
        return json.load(fh)

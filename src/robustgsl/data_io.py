"""Bundle I/O (edges.tsv / features.txt / labels.tsv / split.json), synthetic
stochastic-block-model generation, and JSON report writing."""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from collections.abc import Callable
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
        for name, ids in (("train", self.train), ("val", self.val), ("test", self.test)):
            repeated = [i for i, count in Counter(ids).items() if count > 1]
            if repeated:
                raise BundleFormatError(f"split set {name} lists node {min(repeated)} more than once")
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


# A check names what is wrong with one line's fields, or returns None.
LineCheck = Callable[[str, list[str]], str | None]


def _line_error(path: Path, check: LineCheck, comments: bool, start: int) -> BundleFormatError:
    """The error for the first line of path, from line ``start`` on, that
    ``check`` rejects. It runs only after a bulk parse or check has failed."""
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            if lineno < start:
                continue
            line = (line.split("#", 1)[0] if comments else line).strip()
            problem = check(line, line.split()) if line else None
            if problem:
                return BundleFormatError(f"{path}:{lineno}: {problem}")
    return BundleFormatError(f"{path}: a value is not a plain decimal number")


def _read_table(
    path: Path, dtype, columns: int, check: LineCheck, comments: bool = True, start: int = 1
) -> np.ndarray:
    """The whitespace-separated numbers of path from line ``start`` on, as a
    (rows, columns) array parsed by numpy's C reader; blank lines are skipped,
    and so is everything after a ``#`` when ``comments`` is set."""
    if not path.exists():
        raise BundleFormatError(f"missing file: {path}")
    with path.open() as fh:
        for _ in range(start - 1):
            fh.readline()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                table = np.loadtxt(fh, dtype=dtype, comments="#" if comments else None, ndmin=2)
        except ValueError:
            table = None
    if table is not None and table.size == 0:
        return np.empty((0, columns), dtype=dtype)
    if table is None or table.shape[1] != columns:
        raise _line_error(path, check, comments, start)
    return table


def _read_edge_array(path: Path, num_nodes: int) -> np.ndarray:
    def check(line, fields):
        if len(fields) != 2:
            return f"expected 'u<TAB>v', got {line!r}"
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            return f"non-integer node id in {line!r}"
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            return f"node id out of range in {line!r}"
        return None

    edges = _read_table(path, np.int64, 2, check)
    if ((edges < 0) | (edges >= num_nodes)).any():
        raise _line_error(path, check, True, 1)
    return edges


def load_edges(path, num_nodes: int, directed: bool = False) -> SparseGraph:
    """Read an edge list file into a graph; reversed duplicates collapse."""
    return SparseGraph.from_edges(num_nodes, _read_edge_array(Path(path), num_nodes), directed=directed)


def load_features(path) -> np.ndarray:
    """Read a dense matrix file: header 'N d' then N rows of d reals."""
    path = Path(path)
    if not path.exists():
        raise BundleFormatError(f"missing file: {path}")
    with path.open() as fh:
        header = fh.readline().strip()
    try:
        n, dim = (int(f) for f in header.split())
    except ValueError:
        raise BundleFormatError(f"{path}:1: expected header 'N d', got {header!r}") from None
    if n < 0 or dim < 0:
        raise BundleFormatError(f"{path}:1: expected header 'N d', got {header!r}")

    def check(line, fields):
        if len(fields) != dim:
            return f"expected {dim} values, got {len(fields)}"
        try:
            values = [float(f) for f in fields]
        except ValueError:
            return f"non-numeric value in {line!r}"
        if not all(math.isfinite(v) for v in values):
            return "non-finite value (NaN or inf)"
        return None

    x = _read_table(path, float, dim, check, comments=False, start=2)
    if len(x) != n:
        raise BundleFormatError(f"{path}: header says {n} rows, found {len(x)}")
    if not np.isfinite(x).all():
        raise _line_error(path, check, False, 2)
    return x


def _read_labels(path: Path, n: int) -> np.ndarray:
    """Label per node, -1 where the file lists none; a node listed twice
    keeps its last label."""

    def check(line, fields):
        if len(fields) != 2:
            return f"expected 'node<TAB>label', got {line!r}"
        try:
            node, _ = int(fields[0]), int(fields[1])
        except ValueError:
            return f"non-integer value in {line!r}"
        if not (0 <= node < n):
            return f"node id {node} out of range"
        return None

    nodes, labs = _read_table(path, np.int64, 2, check).T
    if ((nodes < 0) | (nodes >= n)).any():
        raise _line_error(path, check, True, 1)
    last = len(nodes) - 1 - np.unique(nodes[::-1], return_index=True)[1]
    labels = np.full(n, -1, dtype=np.int64)
    labels[nodes[last]] = labs[last]
    return labels


def _read_json(path: Path, error=ValueError):
    """The JSON value in path; text that does not parse raises error naming path."""
    with path.open() as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSON syntax error, or bytes that are not text
            raise error(f"{path}: not valid JSON: {exc}") from None


def load_graph_bundle(dir_path) -> GraphBundle:
    d = Path(dir_path)
    features = load_features(d / "features.txt")
    n = features.shape[0]

    label_path = d / "labels.tsv"
    labels = _read_labels(label_path, n)

    graph = load_edges(d / "edges.tsv", n)

    split_path = d / "split.json"
    if not split_path.exists():
        raise BundleFormatError(f"missing file: {split_path}")
    raw = _read_json(split_path, BundleFormatError)
    if not isinstance(raw, dict):
        raise BundleFormatError(f"{split_path}: expected an object with train, val and test lists")
    sets = {name: raw.get(name, []) for name in ("train", "val", "test")}  # an absent set is empty
    for name, ids in sets.items():
        # type(i) is int: JSON true and false parse as bools, which are ints too.
        if not isinstance(ids, list) or any(type(i) is not int for i in ids):
            raise BundleFormatError(f"{split_path}: split set {name} must be a list of integer node ids")
    split = DataSplit(**sets)
    split.validate(n)
    unlabelled = [i for i in split.train + split.val + split.test if labels[i] < 0]
    if unlabelled:
        raise BundleFormatError(f"{label_path}: split node {unlabelled[0]} has no label")
    return GraphBundle(graph=graph, features=features, labels=labels, split=split)


# Rows formatted per write by the savers.
_WRITE_ROWS = 1024


def _write_rows(fh, table: np.ndarray, line_format: str) -> None:
    """Write each row of a 2-D array as ``line_format % tuple(row)``."""
    for lo in range(0, len(table), _WRITE_ROWS):
        block = table[lo : lo + _WRITE_ROWS]
        fh.write((line_format * len(block)) % tuple(block.ravel().tolist()))


def _create(path) -> Path:
    """path, with its parent directory made if it is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def save_edges(graph: SparseGraph, path) -> None:
    with _create(path).open("w") as fh:
        _write_rows(fh, graph.edge_array(), "%d\t%d\n")


def save_features(features: np.ndarray, path) -> None:
    """Header 'N d', then each row's values as repr of Python floats."""
    n, dim = features.shape
    with _create(path).open("w") as fh:
        fh.write(f"{n} {dim}\n")
        _write_rows(fh, np.asarray(features, dtype=float), " ".join(["%r"] * dim) + "\n")


def save_graph_bundle(bundle: GraphBundle, dir_path) -> None:
    d = Path(dir_path)
    save_edges(bundle.graph, d / "edges.tsv")  # creates d
    save_features(bundle.features, d / "features.txt")
    labels = np.asarray(bundle.labels, dtype=np.int64)
    with (d / "labels.tsv").open("w") as fh:
        _write_rows(fh, np.column_stack((np.arange(len(labels)), labels)), "%d\t%d\n")
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
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.on_bits < 0:
            raise ValueError(f"on_bits must be >= 0, got {self.on_bits}")
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
    graph = SparseGraph.from_edges(n, np.column_stack((iu[mask], ju[mask])))

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
    with _create(path).open("w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    return _read_json(Path(path))

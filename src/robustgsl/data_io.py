"""Bundle I/O (edges.tsv / features.txt / labels.tsv / split.json), synthetic
stochastic-block-model generation, and JSON report writing."""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import SparseGraph, pair_at, pair_blocks
from .linalg import make_rng


class BundleFormatError(ValueError):
    """An input file is missing, unreadable, malformed, or internally inconsistent."""


@dataclass
class DataSplit:
    train: list[int]
    val: list[int]
    test: list[int]


@dataclass
class GraphBundle:
    graph: SparseGraph
    features: np.ndarray
    labels: np.ndarray
    split: DataSplit


def _open(path: Path, errors: str = "strict"):
    """path opened as text; a path that cannot be opened raises
    BundleFormatError naming it."""
    try:
        return path.open(errors=errors)
    except FileNotFoundError:
        raise BundleFormatError(f"missing file: {path}") from None
    except OSError as exc:
        raise BundleFormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _read_table(
    path: Path, dtype, columns: int, lowest=(), num_nodes: int = 0, comments: bool = True, start: int = 1
) -> np.ndarray:
    """The whitespace-separated numbers of path from line ``start`` on, as a
    (rows, columns) array parsed by numpy's C reader; blank lines are skipped,
    and so is everything after a ``#`` when ``comments`` is set. Every value
    must be finite, and each leading column j < len(lowest) must hold values
    in [lowest[j], num_nodes). Bytes that are not UTF-8 read as U+FFFD, so
    that the line holding them is the one named."""
    with _open(path, errors="replace") as fh:
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
    if table is not None and table.shape[1] == columns and np.isfinite(table).all():
        ranged = table[:, : len(lowest)]
        if not ((ranged < np.array(lowest, dtype=dtype)) | (ranged >= num_nodes)).any():
            return table
    raise _line_error(path, dtype, columns, lowest, num_nodes, comments, start)


def _line_error(path: Path, dtype, columns, lowest, num_nodes, comments, start) -> BundleFormatError:
    """The error for the first line of path, from line ``start`` on, that
    breaks a rule of _read_table. It runs only after the bulk parse or a bulk
    check has failed."""
    cast = int if np.issubdtype(dtype, np.integer) else float
    with _open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            fields = (line.split("#", 1)[0] if comments else line).split()
            problem = _field_problem(fields, cast, columns, lowest, num_nodes) if lineno >= start else None
            if problem:
                return BundleFormatError(f"{path}:{lineno}: {problem}")
    return BundleFormatError(f"{path}: a value is not a plain decimal number")


def _field_problem(fields, cast, columns, lowest, num_nodes) -> str | None:
    """The rule of _read_table that one line's fields break, or None."""
    if not fields:  # a blank or comment line
        return None
    if len(fields) != columns:
        return f"expected {columns} fields, got {len(fields)}"
    for j, field in enumerate(fields):
        try:
            # int() and float() also take '1_0' and non-ASCII digits, which numpy's reader refuses.
            if "_" in field or not field.isascii():
                raise ValueError(field)
            value = cast(field)
        except ValueError:
            return f"{field!r} is not {'an integer' if cast is int else 'a number'}"
        if not math.isfinite(value):
            return f"{field!r} is not finite"
        if j < len(lowest) and not lowest[j] <= value < num_nodes:
            return f"{field!r} is outside [{lowest[j]}, {num_nodes})"
    return None


def load_edges(path, num_nodes: int, directed: bool = False) -> SparseGraph:
    """Read an edge list file into a graph; reversed duplicates collapse."""
    edges = _read_table(Path(path), np.int64, 2, (0, 0), num_nodes)
    return SparseGraph.from_edges(num_nodes, edges, directed=directed)


def _read_header(path: Path) -> tuple[int, int]:
    """The (N, d) of a dense matrix file's header line 'N d'."""
    with _open(path, errors="replace") as fh:
        header = fh.readline().strip()
    try:
        n, dim = (int(f) for f in header.split())
    except ValueError:
        raise BundleFormatError(f"{path}:1: expected header 'N d', got {header!r}") from None
    if n < 0 or dim < 0 or "_" in header or not header.isascii():  # as in _field_problem
        raise BundleFormatError(f"{path}:1: expected header 'N d', got {header!r}")
    return n, dim


def load_num_nodes(path) -> int:
    """The node count N of a bundle, from the header line 'N d' of its
    features file; the rows are not read."""
    return _read_header(Path(path))[0]


def load_features(path, num_nodes: int | None = None) -> np.ndarray:
    """Read a dense matrix file: header 'N d' then N rows of d reals. With
    num_nodes given, the matrix must have one row per node."""
    path = Path(path)
    n, dim = _read_header(path)
    x = _read_table(path, float, dim, comments=False, start=2)
    if len(x) != n:
        raise BundleFormatError(f"{path}: header says {n} rows, found {len(x)}")
    if num_nodes is not None and n != num_nodes:
        raise BundleFormatError(f"{path}: {n} rows, but the graph has {num_nodes} nodes")
    return x


def load_labels(path, num_nodes: int) -> np.ndarray:
    """Label per node, -1 where the file lists none; a node listed twice
    keeps its last label. A label is -1 (unlabelled) or in [0, num_nodes)."""
    nodes, labs = _read_table(Path(path), np.int64, 2, (0, -1), num_nodes).T
    last = len(nodes) - 1 - np.unique(nodes[::-1], return_index=True)[1]
    labels = np.full(num_nodes, -1, dtype=np.int64)
    labels[nodes[last]] = labs[last]
    return labels


def read_json(path):
    """The JSON value in path; a path that cannot be read, or text that does
    not parse, raises BundleFormatError naming path."""
    path = Path(path)
    with _open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSON syntax error, or bytes that are not text
            raise BundleFormatError(f"{path}: not valid JSON: {exc}") from None


def load_split(path, labels: np.ndarray) -> DataSplit:
    """The train/val/test split of a split.json file over the len(labels)
    nodes of its bundle: a non-empty train set, and nodes in range, in one
    set once and labelled; each error names path."""
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise BundleFormatError(f"{path}: expected an object with train, val and test lists")
    sets = {name: raw.get(name, []) for name in ("train", "val", "test")}  # an absent set is empty
    for name, ids in sets.items():
        # type(i) is int: JSON true and false parse as bools, which are ints too.
        if not isinstance(ids, list) or any(type(i) is not int for i in ids):
            raise BundleFormatError(f"{path}: split set {name} must be a list of integer node ids")
    if not sets["train"]:
        raise BundleFormatError(f"{path}: split has an empty train set")
    n = len(labels)
    for i in sets["train"] + sets["val"] + sets["test"]:
        if not 0 <= i < n:
            raise BundleFormatError(f"{path}: split references node {i}, out of range 0..{n - 1}")
    for name, ids in sets.items():
        repeated = [i for i, count in Counter(ids).items() if count > 1]
        if repeated:
            raise BundleFormatError(f"{path}: split set {name} lists node {min(repeated)} more than once")
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        overlap = set(sets[a]) & set(sets[b])
        if overlap:
            raise BundleFormatError(f"{path}: split sets {a} and {b} overlap at node {min(overlap)}")
    unlabelled = [i for ids in sets.values() for i in ids if labels[i] < 0]
    if unlabelled:
        raise BundleFormatError(f"{path}: split node {unlabelled[0]} has no label")
    return DataSplit(**sets)


def load_graph_bundle(dir_path) -> GraphBundle:
    """Every file of a bundle directory, each parsed by its own reader; the
    features file sets the node count that the others are checked against."""
    d = Path(dir_path)
    features = load_features(d / "features.txt")
    n = features.shape[0]
    labels = load_labels(d / "labels.tsv", n)
    graph = load_edges(d / "edges.tsv", n)
    split = load_split(d / "split.json", labels)
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
    sizes = base + (np.arange(k) < extra)
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)
    class_end = np.repeat(np.cumsum(sizes), sizes)  # one past the last node of each node's class

    # One uniform u per pair i < j, in row-major order, drawn PAIR_BLOCK pairs
    # at a time: the same draws as one call over all pairs, in O(n + E)
    # memory. A pair is an edge if u < p_in within a class, or if u < p_out
    # (< p_in) across classes.
    edges = []
    for lo, hi in pair_blocks(n):
        u = rng.random(hi - lo)
        candidates = np.flatnonzero(u < spec.p_in)
        i, j = pair_at(lo + candidates, n)
        keep = (j < class_end[i]) | (u[candidates] < spec.p_out)
        edges.append(np.column_stack((i[keep], j[keep])))
    graph = SparseGraph.from_edges(n, np.concatenate(edges))

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


def write_report(record: dict, path) -> None:
    """Serialize a result record as JSON with deterministic key order."""
    with _create(path).open("w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    return read_json(path)

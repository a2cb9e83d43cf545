"""Structural poisoning baselines (random noise, DICE) and perturbation audits."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Edge, SparseGraph, as_edge_array, canonical_edge, edge_difference, edge_keys
from .linalg import make_rng


@dataclass
class AttackBudget:
    """Fraction of clean edges to change; the change count is round(rate * |E|)."""

    rate: float
    seed: int

    def num_changes(self, num_edges: int) -> int:
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"perturbation rate must be in [0, 1], got {self.rate}")
        return int(round(self.rate * num_edges))


@dataclass
class PerturbationRecord:
    """The edges an attack added and removed, each a sorted (E, 2) int64
    array of pairs (u, v) with u < v."""

    added: np.ndarray
    removed: np.ndarray
    complete: bool = True

    @property
    def num_changes(self) -> int:
        return len(self.added) + len(self.removed)

    def to_dict(self) -> dict:
        return {
            "added": self.added.tolist(),
            "removed": self.removed.tolist(),
            "complete": self.complete,
        }


def apply_perturbation(g: SparseGraph, record: PerturbationRecord) -> SparseGraph:
    """The graph with the record's removed edges taken out and its added ones put in.

    A removal matches a stored edge as written, (u, v) with u < v on an
    undirected graph; a pair that matches none is ignored.
    """
    n = g.num_nodes
    edges = g.edge_array()
    removed = record.removed[((record.removed >= 0) & (record.removed < n)).all(axis=1)]
    kept = edges[np.isin(edge_keys(edges, n), edge_keys(removed, n), invert=True)]
    return SparseGraph.from_edges(n, np.concatenate((kept, record.added)))


def _sample_nonedge(rng: np.random.Generator, n: int, forbidden: set, labels=None) -> Edge | None:
    """Uniform rejection sampling of an absent unordered pair.

    With labels given, only inter-class pairs qualify. Returns None once the
    eligible pool is provably empty (checked by enumeration after repeated
    rejection failures).
    """
    for _ in range(50 * n):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        e = canonical_edge(u, v)
        if e in forbidden:
            continue
        if labels is not None and labels[u] == labels[v]:
            continue
        return e
    # Slow path: enumerate to distinguish "unlucky" from "exhausted".
    pool = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in forbidden and (labels is None or labels[i] != labels[j])
    ]
    if not pool:
        return None
    return pool[int(rng.integers(len(pool)))]


def random_attack(
    g: SparseGraph, budget: AttackBudget, add_fraction: float = 0.5
) -> tuple[SparseGraph, PerturbationRecord]:
    """Each budgeted change is an addition with probability add_fraction,
    else a uniform deletion; falls back to the other move when a pool runs out."""
    rng = make_rng(budget.seed)
    target = budget.num_changes(g.num_edges)
    n = g.num_nodes
    deletable = g.edges()
    # Every clean edge and every addition: removed edges are not re-added.
    forbidden = set(deletable)
    added, removed = set(), set()
    while len(added) + len(removed) < target:
        want_add = rng.random() < add_fraction
        e = None
        if want_add:
            e = _sample_nonedge(rng, n, forbidden)
        if e is None and deletable:
            idx = int(rng.integers(len(deletable)))
            removed.add(deletable.pop(idx))
            continue
        if e is None and not want_add:
            e = _sample_nonedge(rng, n, forbidden)
        if e is None:
            raise ValueError(
                f"budget of {target} changes is infeasible: both edge pools exhausted "
                f"after {len(added) + len(removed)} changes"
            )
        added.add(e)
        forbidden.add(e)
    record = PerturbationRecord(as_edge_array(sorted(added)), as_edge_array(sorted(removed)))
    return apply_perturbation(g, record), record


def dice_attack(
    g: SparseGraph,
    labels: np.ndarray,
    budget: AttackBudget,
    add_fraction: float = 0.5,
) -> tuple[SparseGraph, PerturbationRecord]:
    """Disconnect internally, connect externally: deletions target intra-class
    edges, additions target inter-class non-edges. Needs full labels."""
    if np.any(labels < 0):
        raise ValueError("dice attack requires a label for every node")
    rng = make_rng(budget.seed)
    target = budget.num_changes(g.num_edges)
    n = g.num_nodes
    # One tuple per edge, shared by the deletion pool and the presence set.
    edges = g.edges()
    intra = [e for e in edges if labels[e[0]] == labels[e[1]]]
    present = set(edges)
    added, removed = set(), set()
    complete = True
    while len(added) + len(removed) < target:
        want_add = rng.random() < add_fraction
        moved = False
        order = ("add", "del") if want_add else ("del", "add")
        for move in order:
            if move == "add":
                e = _sample_nonedge(rng, n, present, labels=labels)
                if e is not None:
                    added.add(e)
                    present.add(e)
                    moved = True
                    break
            else:
                if intra:
                    idx = int(rng.integers(len(intra)))
                    e = intra.pop(idx)
                    removed.add(e)
                    present.discard(e)
                    moved = True
                    break
        if not moved:
            complete = False
            warnings.warn(
                f"dice pools exhausted after {len(added) + len(removed)} of {target} changes;"
                " returning a partial perturbation",
                stacklevel=2,
            )
            break
    record = PerturbationRecord(as_edge_array(sorted(added)), as_edge_array(sorted(removed)), complete)
    return apply_perturbation(g, record), record


def perturbation_diff(clean: SparseGraph, poisoned: SparseGraph) -> PerturbationRecord:
    """Exact edge-set difference between a clean and a poisoned graph."""
    if clean.num_nodes != poisoned.num_nodes:
        raise ValueError(
            f"node-count mismatch: clean has {clean.num_nodes}, poisoned has {poisoned.num_nodes}"
        )
    return PerturbationRecord(
        added=edge_difference(poisoned, clean),
        removed=edge_difference(clean, poisoned),
    )

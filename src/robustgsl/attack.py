"""Structural poisoning baselines: random noise and DICE."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, edge_keys, key_edges, sample_nonedge
from .linalg import make_rng

# Probability that a change tries an addition before a deletion.
ADD_FRACTION = 0.5


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


def _draw_changes(
    rng: np.random.Generator, n: int, target: int, deletable: list, present: set, labels=None
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Make up to target changes, each the addition of an absent pair (an
    inter-class one when labels are given) or the deletion of a uniform pick
    from deletable.

    Pairs are keys u * n + v with u < v. A coin with P(add) = ADD_FRACTION
    picks each change's first move; the other move is the fallback when the
    first one's pool is empty. present holds the keys that may not be added
    and grows with every addition. Returns the added and removed edges as
    sorted (E, 2) int64 arrays, and whether all target changes were made.
    """
    added, removed = [], []
    complete = True
    while len(added) + len(removed) < target:
        add_first = rng.random() < ADD_FRACTION
        for add in (add_first, not add_first):
            if add:
                key = sample_nonedge(rng, n, present, labels)
                if key is not None:
                    present.add(key)
                    added.append(key)
                    break
            elif deletable:
                removed.append(deletable.pop(int(rng.integers(len(deletable)))))
                break
        else:
            complete = False
            break
    return key_edges(added, n), key_edges(removed, n), complete


def random_attack(g: SparseGraph, budget: AttackBudget) -> tuple[SparseGraph, PerturbationRecord]:
    """Uniform additions of absent pairs and uniform deletions of edges; a
    removed edge is never re-added."""
    rng = make_rng(budget.seed)
    keys = edge_keys(g.edge_array(), g.num_nodes).tolist()
    # Always completes: the budget is at most |E|, and the pools (never refilled) hold all n(n-1)/2 pairs.
    record = PerturbationRecord(
        *_draw_changes(rng, g.num_nodes, budget.num_changes(g.num_edges), keys, set(keys))
    )
    return apply_perturbation(g, record), record


def dice_attack(
    g: SparseGraph, labels: np.ndarray, budget: AttackBudget
) -> tuple[SparseGraph, PerturbationRecord]:
    """Disconnect internally, connect externally: deletions target intra-class
    edges, additions target inter-class non-edges. Needs full labels."""
    unlabelled = np.flatnonzero(labels < 0)
    if unlabelled.size:
        raise ValueError(f"dice attack requires a label for every node; node {unlabelled[0]} has none")
    rng = make_rng(budget.seed)
    target = budget.num_changes(g.num_edges)
    edges = g.edge_array()
    keys = edge_keys(edges, g.num_nodes)
    intra = keys[labels[edges[:, 0]] == labels[edges[:, 1]]].tolist()
    record = PerturbationRecord(*_draw_changes(rng, g.num_nodes, target, intra, set(keys.tolist()), labels))
    if not record.complete:
        warnings.warn(
            f"dice pools exhausted after {record.num_changes} of {target} changes;"
            " returning a partial perturbation",
            stacklevel=2,
        )
    return apply_perturbation(g, record), record

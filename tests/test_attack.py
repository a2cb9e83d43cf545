import hashlib
import json

import numpy as np
import pytest

from conftest import pairs, random_undirected_graph
from robustgsl.attack import (
    AttackBudget,
    PerturbationRecord,
    apply_perturbation,
    dice_attack,
    random_attack,
)
from robustgsl.data_io import SbmSpec, generate_sbm
from robustgsl.graph import SparseGraph, as_edge_array
from robustgsl.preprocess import random_perturb_views


class TestRandomAttack:
    def test_zero_budget(self, rng):
        g = random_undirected_graph(20, 0.2, rng)
        poisoned, record = random_attack(g, AttackBudget(0.0, 1))
        assert record.num_changes == 0
        assert poisoned.edges() == g.edges()

    def test_complete_graph_forces_deletions(self):
        n = 10
        g = SparseGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        _, record = random_attack(g, AttackBudget(0.1, 3))
        assert not pairs(record.added)
        assert len(record.removed) == round(0.1 * g.num_edges)

    def test_exact_budget(self, rng):
        g = random_undirected_graph(40, 0.13, rng)
        rate = 0.2
        _, record = random_attack(g, AttackBudget(rate, 7))
        assert record.num_changes == round(rate * g.num_edges)

    def test_deterministic(self, rng):
        g = random_undirected_graph(30, 0.2, rng)
        a = random_attack(g, AttackBudget(0.15, 5))[1]
        b = random_attack(g, AttackBudget(0.15, 5))[1]
        assert pairs(a.added) == pairs(b.added) and pairs(a.removed) == pairs(b.removed)

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_budget_always_completes(self, rate):
        # Every density from empty to complete: the budget is at most |E| and
        # the two pools hold all n(n-1)/2 pairs, so no budget can run out.
        rng = np.random.default_rng(17)
        cases = 0
        for n in range(2, 9):
            iu, ju = np.triu_indices(n, k=1)
            for m in range(len(iu) + 1):
                keep = rng.permutation(len(iu))[:m]
                g = SparseGraph.from_edges(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))
                for seed in range(2):
                    _, record = random_attack(g, AttackBudget(rate, seed))
                    assert record.complete
                    assert record.num_changes == round(rate * m)
                    cases += 1
        assert cases == 182

    def test_record_invariants(self, rng):
        g = random_undirected_graph(25, 0.2, rng)
        clean = g.edge_set()
        _, record = random_attack(g, AttackBudget(0.3, 11))
        assert not (pairs(record.added) & clean)
        assert pairs(record.removed) <= clean
        assert not (pairs(record.added) & pairs(record.removed))


class TestDiceAttack:
    def test_label_contract_many_seeds(self):
        bundle = generate_sbm(SbmSpec(40, 2, 0.4, 0.05, 8, 3, 0.0, seed=0))
        lab = bundle.labels
        for seed in range(200):
            _, record = dice_attack(bundle.graph, lab, AttackBudget(0.2, seed))
            assert all(lab[u] == lab[v] for u, v in record.removed)
            assert all(lab[u] != lab[v] for u, v in record.added)

    def test_fallback_to_additions(self):
        # bipartite-style graph: every edge crosses classes, so no deletions
        g = SparseGraph.from_edges(6, [(0, 3), (1, 4), (2, 5)])
        lab = np.array([0, 0, 0, 1, 1, 1])
        _, record = dice_attack(g, lab, AttackBudget(1.0, 2))
        assert not pairs(record.removed)
        assert len(record.added) == 3

    def test_exact_budget_on_sbm(self):
        bundle = generate_sbm(SbmSpec(60, 3, 0.35, 0.02, 8, 3, 0.0, seed=4))
        _, record = dice_attack(bundle.graph, bundle.labels, AttackBudget(0.1, 9))
        assert record.num_changes == round(0.1 * bundle.graph.num_edges)
        assert record.complete

    def test_pool_exhaustion_warns(self):
        # two nodes per class, no inter-class non-edges left after one addition
        g = SparseGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        lab = np.array([0, 0, 1])
        with pytest.warns(UserWarning, match="exhausted"):
            _, record = dice_attack(g, lab, AttackBudget(1.0, 1))
        assert not record.complete

    def test_requires_full_labels(self, rng):
        g = random_undirected_graph(10, 0.3, rng)
        lab = np.array([0, 1, -1, 0, 1, 0, 1, -1, 1, 0])
        with pytest.raises(ValueError, match="label for every node; node 2 has none"):
            dice_attack(g, lab, AttackBudget(0.1, 0))


def _digest(edges) -> str:
    return hashlib.sha256(json.dumps(sorted(edges.tolist())).encode()).hexdigest()


class TestDrawSequences:
    """Pinned outputs on the acceptance battery graph. PCG64 draws are the
    same on every platform, so a digest changes only when an attack consumes
    its random draws differently."""

    @pytest.fixture(scope="class")
    def battery(self):
        return generate_sbm(SbmSpec(300, 3, 0.1, 0.005, 100, 10, 0.01, seed=1))

    def test_dice_seed_51(self, battery):
        _, record = dice_attack(battery.graph, battery.labels, AttackBudget(0.2, 51))
        assert (len(record.added), len(record.removed)) == (169, 159)
        assert _digest(record.added) == "f6bd88069309eba9ccd0dd969bf0214c2caf4c674a7a67c872e7325d344eeae5"
        assert _digest(record.removed) == "1968b279dc6c9c1f8ffe082df0cdbad07a0e77a1639d76118e5013c87dcbceec"

    def test_random_seed_51(self, battery):
        _, record = random_attack(battery.graph, AttackBudget(0.2, 51))
        assert (len(record.added), len(record.removed)) == (171, 157)
        assert _digest(record.added) == "a7f176eaf34c7d528010a46b3d312bda12d23bc6ffad25c61374112dd6b0846c"
        assert _digest(record.removed) == "72b2c1e4cdd646e78b797f9f67b262c01b6043b548cea5dd4c46f7bc2c8a90bc"


class TestExhaustedPoolDraws:
    """Pinned outputs on small dense graphs, where additions exhaust
    ``sample_nonedge``'s rejection loop and enumerate the pool (1,069 times
    in this sweep), and draw loops run out of pairs. A digest changes only
    when an attack or a random view consumes its draws differently."""

    @pytest.mark.filterwarnings("ignore:dice pools exhausted")
    def test_small_graph_sweep(self):
        rng = np.random.default_rng(5)
        outputs = []
        for n in range(2, 10):
            iu, ju = np.triu_indices(n, k=1)
            for density in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
                for seed in range(3):
                    keep = rng.random(len(iu)) < density
                    g = SparseGraph.from_edges(n, np.column_stack((iu[keep], ju[keep])))
                    labels = rng.integers(0, 2, size=n)
                    for rate in (0.2, 0.5, 1.0):
                        for _, record in (
                            random_attack(g, AttackBudget(rate, seed)),
                            dice_attack(g, labels, AttackBudget(rate, seed)),
                        ):
                            outputs.append([record.added.tolist(), record.removed.tolist(), record.complete])
                        try:
                            views = random_perturb_views(g, rate, 2, seed).views
                            outputs.append([v.edge_array().tolist() for v in views])
                        except ValueError:  # too few absent pairs to add
                            outputs.append(None)
        assert len(outputs) == 1296
        digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
        assert digest == "2a84cafc777f7ec96a18d32c624d6a31d06dabd51a9df76a7322ccaad1d562e0"


class TestApplyPerturbation:
    @staticmethod
    def _set_reference(g, record):
        """The tuple-set form: stored pairs minus the removals, plus the additions."""
        edges = g.edge_set()
        edges -= pairs(record.removed)
        edges |= pairs(record.added)
        return SparseGraph.from_edges(g.num_nodes, sorted(edges))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_reference_byte_for_byte(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        g = random_undirected_graph(n, 0.2, rng)
        present = g.edges()
        picks = rng.choice(len(present), size=len(present) // 3, replace=False)
        removed = {present[i] for i in picks}
        # Pairs that match no stored edge as written: a reversed stored pair, an
        # absent pair, ids out of range (one whose u * n + v key is a stored edge's).
        u, v = next(e for e in reversed(present) if e not in removed and e[0] > 0)
        removed |= {(v, u), (0, 0), (n + 1, 3), (0, n * u + v)}
        added = {tuple(int(i) for i in rng.integers(n, size=2)) for _ in range(8)} | {present[1]}
        record = PerturbationRecord(
            added=as_edge_array(sorted(added)), removed=as_edge_array(sorted(removed))
        )
        got, want = apply_perturbation(g, record), self._set_reference(g, record)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got.adj, name), getattr(want.adj, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

"""End-to-end orchestration: pre-process, views, encoder, refinement, classifier.

Also hosts the ablation variants, multi-seed experiment driver, and parameter
sweeps. Every run is a pure function of (bundle, config, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .classifier import ClassifierConfig, ClassifierModel, train_classifier
from .data_io import DataSplit, GraphBundle
from .encoder import EncoderConfig, train_encoder
from .graph import SparseGraph, edge_difference
from .linalg import make_rng
from .preprocess import (
    ViewBundle,
    identical_views,
    make_views,
    random_perturb_views,
    rough_preprocess,
)
from .refine import prune_edges, topk_insert

AUGMENTATIONS = ("recovery", "random", "none")

# Each ablation switches off one part of the pipeline through PipelineConfig
# overrides.
VARIANTS = {
    "full": {},
    "no-preprocess": {"augmentation": "random", "t1": -math.inf},  # no score is below -inf
    "no-augmentation": {"augmentation": "none"},  # views are copies of the base graph
    "random-augmentation": {"augmentation": "random"},  # random add/remove, not recovery
    "prune-only": {"k": 0},  # no top-k insertion
    "vanilla-classifier": {"classifier_mode": "vanilla"},  # classic GCN
}


@dataclass
class PipelineConfig:
    metric: str = "jaccard"
    t1: float = 0.03
    recover_p: float = 0.2
    num_views: int = 2
    augmentation: str = "recovery"  # one of AUGMENTATIONS
    t2: float = 0.2
    k: int = 5
    alpha: float = 0.6
    beta: float = 2.0
    classifier_mode: str = "advanced"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        raw = dict(raw)
        enc = EncoderConfig(**raw.pop("encoder", {}))
        clf = ClassifierConfig(**raw.pop("classifier", {}))
        return cls(encoder=enc, classifier=clf, **raw)


@dataclass
class PipelineRun:
    accuracy: float
    stats: dict
    removed_preprocess: np.ndarray  # sorted (E, 2) edge arrays, disjoint
    removed_refine: np.ndarray
    refined_graph: SparseGraph
    embeddings: np.ndarray
    preactivation: np.ndarray  # what refinement measures similarity on

    @property
    def removed_total(self) -> np.ndarray:
        return np.unique(np.concatenate((self.removed_preprocess, self.removed_refine)), axis=0)


def _rough_stage(
    graph: SparseGraph, features: np.ndarray, config: PipelineConfig
) -> tuple[SparseGraph, np.ndarray]:
    """rough_preprocess at config's metric and t1. Raises ValueError when it
    removes every edge of a graph that has edges, as on featureless graphs
    (X = I), where every pair scores 0: the encoder would then train on the
    recovered edges alone."""
    base, removed = rough_preprocess(graph, features, config.metric, config.t1)
    if graph.num_edges and not base.num_edges:
        raise ValueError(
            f"the {config.metric} pre-process at t1={config.t1} removed all {graph.num_edges} edges;"
            " a lower t1 keeps them"
        )
    return base, removed


def preprocess_stage(
    graph: SparseGraph, features: np.ndarray, config: PipelineConfig, seed: int
) -> tuple[SparseGraph, np.ndarray, ViewBundle]:
    """Rough pre-process (_rough_stage), then the encoder's augmentation views
    of its result. Returns (pre-processed graph, removed edges, views)."""
    base, removed = _rough_stage(graph, features, config)
    aug = config.augmentation
    if aug == "recovery":
        views = make_views(base, removed, config.recover_p, config.num_views, seed)
    elif aug == "random":
        views = random_perturb_views(base, config.recover_p, config.num_views, seed)
    elif aug == "none":
        views = identical_views(base, config.num_views)
    else:
        raise ValueError(f"unknown augmentation {aug!r}, expected one of {AUGMENTATIONS}")
    return base, removed, views


def refine_stage(
    base: SparseGraph, z: np.ndarray, config: PipelineConfig
) -> tuple[SparseGraph, np.ndarray, SparseGraph]:
    """Prune base at t2, then insert each node's k most similar peers.

    Similarity is taken on the encoder's pre-activation z: the ReLU embeddings
    are nonnegative, so their cosines never fall to t2 and refinement would
    prune nothing. Returns (retained graph, pruned edges, refined directed graph).
    """
    retained = prune_edges(base, z, config.t2)
    return retained, edge_difference(base, retained), topk_insert(retained, z, config.k)


def classify_stage(
    graph: SparseGraph, h0: np.ndarray, labels: np.ndarray, split: DataSplit, config: PipelineConfig, seed: int
) -> tuple[ClassifierModel, float]:
    """Train the classifier of config.classifier_mode on graph with node
    features h0, on labels and split. Returns (model, test accuracy)."""
    return train_classifier(
        graph, h0, labels, split, config.classifier, config.classifier_mode, config.alpha, config.beta, seed
    )


def run_variant(
    bundle: GraphBundle, config: PipelineConfig, variant: str, seed: int
) -> PipelineRun:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {tuple(VARIANTS)}")
    config = replace(config, **VARIANTS[variant])
    rng = make_rng(seed)
    view_seed, encoder_seed, classifier_seed = (int(rng.integers(2 ** 63)) for _ in range(3))

    base, removed, views = preprocess_stage(bundle.graph, bundle.features, config, view_seed)
    # The classifier keeps the activated embeddings as its features.
    _, embeddings, z = train_encoder(views, bundle.features, config.encoder, encoder_seed)
    retained, removed_refine, refined = refine_stage(base, z, config)
    _, test_acc = classify_stage(refined, embeddings, bundle.labels, bundle.split, config, classifier_seed)

    stats = {
        "edges_input": bundle.graph.num_edges,
        "edges_preprocessed": base.num_edges,
        "edges_removed_preprocess": len(removed),
        "mean_recovered_per_view": float(np.mean([v.num_edges - base.num_edges for v in views.views])),
        "edges_retained": retained.num_edges,
        "edges_removed_refine": len(removed_refine),
        "edges_inserted_directed": refined.num_edges - 2 * retained.num_edges,
        "edges_refined_directed": refined.num_edges,
        "variant": variant,
    }
    return PipelineRun(
        accuracy=test_acc,
        stats=stats,
        removed_preprocess=removed,
        removed_refine=removed_refine,
        refined_graph=refined,
        embeddings=embeddings,
        preactivation=z,
    )


def run_pipeline(bundle: GraphBundle, config: PipelineConfig, seed: int) -> PipelineRun:
    return run_variant(bundle, config, "full", seed)


def run_gcn_baseline(bundle: GraphBundle, config: PipelineConfig, seed: int) -> float:
    """Vanilla two-layer GCN on the input graph with raw features; the
    vanilla mode ignores alpha and beta."""
    vanilla = replace(config, classifier_mode="vanilla")
    return classify_stage(bundle.graph, bundle.features, bundle.labels, bundle.split, vanilla, seed)[1]


def run_experiment(
    bundle: GraphBundle,
    config: PipelineConfig,
    seeds: list[int],
    variant: str = "full",
) -> dict:
    """Multi-seed experiment record: per-seed accuracy, mean/population std,
    stage stats. Only each run's numbers are kept, not its graphs or arrays."""
    if not seeds:
        raise ValueError("need at least one seed")
    if not bundle.split.test:
        raise ValueError("test split is empty")
    start = time.perf_counter()
    acc, stats = [], []
    for s in seeds:
        run = run_variant(bundle, config, variant, s)
        acc.append(run.accuracy)
        stats.append(run.stats)
    return {
        "variant": variant,
        "seeds": list(seeds),
        "accuracies": acc,
        "mean": float(np.mean(acc)),
        "std": float(np.std(acc)),
        "stage_stats": stats,
        "wall_time_sec": time.perf_counter() - start,
        "config": asdict(config),
    }


SWEEPABLE = ("k", "alpha", "t1", "t2")


def sweep(
    bundle: GraphBundle,
    config: PipelineConfig,
    param: str,
    values: list,
    seeds: list[int],
) -> list[dict]:
    """One full-pipeline experiment per value; one summary row per value. Every
    value's pre-process is checked (_rough_stage) before the first training."""
    if param not in SWEEPABLE:
        raise ValueError(f"cannot sweep {param!r}, expected one of {SWEEPABLE}")
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = [replace(config, **{param: value}) for value in values]
    for c in configs:
        _rough_stage(bundle.graph, bundle.features, c)
    rows = []
    for value, c in zip(values, configs):
        record = run_experiment(bundle, c, seeds)
        rows.append({"param": param, "value": value, **{k: record[k] for k in ("accuracies", "mean", "std")}})
    return rows

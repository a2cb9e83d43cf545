"""End-to-end orchestration: pre-process, views, encoder, refinement, classifier.

Also hosts the ablation variants, multi-seed experiment driver, and parameter
sweeps. Every run is a pure function of (bundle, config, seed).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .classifier import ClassifierConfig, train_classifier
from .data_io import GraphBundle, summarize_runs
from .encoder import EncoderConfig, train_encoder
from .graph import SparseGraph
from .linalg import make_rng
from .preprocess import (
    ViewBundle,
    identical_views,
    make_views,
    random_perturb_views,
    rough_preprocess,
)
from .refine import prune_edges, topk_insert

# Each ablation switches off one part of the pipeline through PipelineConfig
# overrides; "no-preprocess" also skips rough_preprocess (see run_variant).
VARIANTS = {
    "full": {},
    "no-preprocess": {"augmentation": "random"},
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
    augmentation: str = "recovery"  # recovery | random | none
    t2: float = 0.2
    k: int = 5
    alpha: float = 0.6
    beta: float = 2.0
    classifier_mode: str = "advanced"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def to_dict(self) -> dict:
        return asdict(self)

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
    removed_preprocess: set
    removed_refine: set
    refined_graph: SparseGraph
    embeddings: np.ndarray
    preactivation: np.ndarray  # what refinement measures similarity on

    @property
    def removed_total(self) -> set:
        return self.removed_preprocess | self.removed_refine


def symmetrized(g: SparseGraph) -> SparseGraph:
    """Undirected graph over all ordered edges of g (OR with its transpose)."""
    return SparseGraph.from_edges(g.num_nodes, g.edges(), directed=False)


def build_views(base: SparseGraph, removed: set, config: PipelineConfig, seed: int) -> ViewBundle:
    """The encoder's augmentation views of the pre-processed graph."""
    aug = config.augmentation
    if aug == "recovery":
        return make_views(base, removed, config.recover_p, config.num_views, seed)
    if aug == "random":
        return random_perturb_views(base, config.recover_p, config.num_views, seed)
    if aug == "none":
        return identical_views(base, config.num_views, seed)
    raise ValueError(f"unknown augmentation {aug!r}")


def run_variant(
    bundle: GraphBundle, config: PipelineConfig, variant: str, seed: int
) -> PipelineRun:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {tuple(VARIANTS)}")
    config = replace(config, **VARIANTS[variant])
    rng = make_rng(seed)
    view_seed = int(rng.integers(2 ** 63))
    encoder_seed = int(rng.integers(2 ** 63))
    classifier_seed = int(rng.integers(2 ** 63))

    g_in = bundle.graph
    if variant == "no-preprocess":
        base, removed = g_in, set()
    else:
        base, removed, _ = rough_preprocess(g_in, bundle.features, config.metric, config.t1)

    views = build_views(base, removed, config, view_seed)
    # Similarity is taken on the pre-activation z: the ReLU embeddings are
    # nonnegative, so their cosines never fall to t2 and refinement would prune
    # nothing. The classifier keeps the activated embeddings as features.
    _, embeddings, z = train_encoder(views, bundle.features, config.encoder, encoder_seed)

    retained = prune_edges(base, z, config.t2)
    removed_refine = base.edge_set() - retained.edge_set()
    refined = topk_insert(retained, z, config.k)

    clf_graph = symmetrized(refined) if config.classifier_mode == "vanilla" else refined
    _, test_acc = train_classifier(
        clf_graph,
        embeddings,
        bundle.labels,
        bundle.split,
        config.classifier,
        config.classifier_mode,
        config.alpha,
        config.beta,
        classifier_seed,
    )

    retained_directed = 2 * retained.num_edges
    stats = {
        "edges_input": g_in.num_edges,
        "edges_preprocessed": base.num_edges,
        "edges_removed_preprocess": len(removed),
        "mean_recovered_per_view": float(
            np.mean([v.num_edges - base.num_edges for v in views.views])
        ),
        "edges_retained": retained.num_edges,
        "edges_removed_refine": len(removed_refine),
        "edges_inserted_directed": refined.num_edges - retained_directed,
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
    """Vanilla two-layer GCN on the input graph with raw features."""
    _, test_acc = train_classifier(
        bundle.graph,
        bundle.features,
        bundle.labels,
        bundle.split,
        config.classifier,
        "vanilla",
        0.0,
        0.0,
        seed,
    )
    return test_acc


def run_experiment(
    bundle: GraphBundle,
    config: PipelineConfig,
    seeds: list[int],
    variant: str = "full",
) -> dict:
    """Multi-seed experiment record: per-seed accuracy, mean/std, stage stats."""
    if not seeds:
        raise ValueError("need at least one seed")
    start = time.perf_counter()
    runs = [run_variant(bundle, config, variant, s) for s in seeds]
    acc = [r.accuracy for r in runs]
    return {
        "variant": variant,
        "seeds": list(seeds),
        "accuracies": acc,
        **summarize_runs(acc),
        "stage_stats": [r.stats for r in runs],
        "wall_time_sec": time.perf_counter() - start,
        "config": config.to_dict(),
    }


SWEEPABLE = ("k", "alpha", "t1", "t2")


def sweep(
    bundle: GraphBundle,
    config: PipelineConfig,
    param: str,
    values: list,
    seeds: list[int],
) -> list[dict]:
    """Full pipeline per (value, seed); one summary row per value."""
    if param not in SWEEPABLE:
        raise ValueError(f"cannot sweep {param!r}, expected one of {SWEEPABLE}")
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for value in values:
        cfg = replace(config, **{param: value})
        acc = [run_pipeline(bundle, cfg, s).accuracy for s in seeds]
        rows.append({"param": param, "value": value, "accuracies": acc, **summarize_runs(acc)})
    return rows

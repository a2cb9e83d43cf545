"""Robust graph structure learning for node classification under poisoning.

Pipeline: similarity pre-processing of a poisoned graph, contrastive
embedding with recovery augmentations, embedding-based edge refinement, and
a degree-reweighted GCN classifier. Includes baseline structural attacks
(random noise, DICE) and a synthetic SBM benchmark generator.
"""

from .attack import AttackBudget, PerturbationRecord, apply_perturbation, dice_attack, perturbation_diff, random_attack
from .classifier import ClassifierConfig, ClassifierModel, accuracy, predict, train_classifier
from .data_io import (
    DataSplit,
    GraphBundle,
    SbmSpec,
    generate_sbm,
    load_graph_bundle,
    save_graph_bundle,
    write_report,
)
from .encoder import EncoderConfig, EncoderModel, contrastive_loss, encode, readout, train_encoder
from .graph import SparseGraph, degrees, renormalized_adjacency
from .pipeline import (
    PipelineConfig,
    PipelineRun,
    run_experiment,
    run_gcn_baseline,
    run_pipeline,
    run_variant,
    sweep,
)
from .preprocess import feature_similarity, make_views, random_perturb_views, rough_preprocess
from .refine import embedding_similarity, prune_edges, removal_report, topk_insert

__all__ = [name for name in dir() if not name.startswith("_")]

"""Command-line interface.

Exit codes: 0 success, 2 configuration/input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .attack import AttackBudget, dice_attack, random_attack
from .classifier import train_classifier
from .data_io import (
    BundleFormatError,
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
from .encoder import ACTIVATIONS, train_encoder
from .graph import SparseGraph
from .linalg import NumericError
from .pipeline import (
    SWEEPABLE,
    VARIANTS,
    PipelineConfig,
    preprocess_stage,
    refine_stage,
    run_experiment,
    run_gcn_baseline,
    sweep,
)
from .preprocess import METRICS, ViewBundle
from .refine import removal_report
# Not called here; perfbench/spans.py still lists these names as call sites of this module.
from .classifier import predict  # noqa: F401
from .preprocess import identical_views, make_views, random_perturb_views, rough_preprocess  # noqa: F401
from .refine import prune_edges, topk_insert  # noqa: F401


class ConfigError(ValueError):
    pass


def _checked(cast, ok, requirement):
    """An argparse type: cast the value, then reject it unless ok(value).
    argparse exits with code 2 and names the flag."""

    def parse(text):
        try:
            value = cast(text)
            valid = ok(value)
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_at_least_one = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_finite = _checked(float, math.isfinite, "a finite number")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def _one_of(choices):
    parse = _checked(str, lambda v: v in choices, f"one of {', '.join(choices)}")
    parse.metavar = "{" + ",".join(choices) + "}"  # as argparse shows choices
    return parse


AUGMENTATIONS = ("recovery", "random", "none")
CLASSIFIER_MODES = ("advanced", "vanilla")

# The rule of each PipelineConfig field, keyed by the field's path in a
# --config file. Every file value and every flag that sets the field is parsed
# with it before any run.
FIELD_RULES = {
    "metric": _one_of(METRICS),
    "t1": _finite,
    "recover_p": _probability,
    "num_views": _at_least_one,
    "augmentation": _one_of(AUGMENTATIONS),
    "t2": _finite,
    "alpha": _finite,
    "beta": _non_negative,
    "k": _non_negative_int,
    "classifier_mode": _one_of(CLASSIFIER_MODES),
    "encoder.hidden": _at_least_one,
    "encoder.lr": _positive,
    "encoder.epochs": _at_least_one,
    "encoder.patience": _at_least_one,
    "encoder.activation": _one_of(ACTIVATIONS),
    "classifier.hidden": _at_least_one,
    "classifier.lr": _positive,
    "classifier.weight_decay": _non_negative,
    "classifier.epochs": _at_least_one,
}


def _load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        with open(path) as fh:
            raw = json.load(fh)
        # A file's value is parsed as the flag's text would be, so 1.5 is no integer.
        for key, rule in FIELD_RULES.items():
            section, _, name = key.rpartition(".")
            fields = raw.get(section, {}) if section else raw
            if name in fields:
                fields[name] = rule(str(fields[name]))
        return PipelineConfig.from_dict(raw)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"config {path}: {key} {exc}") from exc
    except (OSError, json.JSONDecodeError, TypeError, AttributeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc


def _apply_overrides(config: PipelineConfig, args) -> PipelineConfig:
    """Set each field whose flag was given; an unset flag keeps config's value."""
    for key in FIELD_RULES:
        value = getattr(args, key, None)
        if value is not None:
            section, _, name = key.rpartition(".")
            setattr(getattr(config, section) if section else config, name, value)
    return config


def _seed_list(args) -> list[int]:
    return [args.seed + i for i in range(args.seeds)]


def cmd_synth(args) -> int:
    spec = SbmSpec(
        num_nodes=args.nodes,
        num_classes=args.classes,
        p_in=args.p_in,
        p_out=args.p_out,
        feature_dim=args.dim,
        on_bits=args.on_bits,
        flip_noise=args.noise,
        seed=args.seed,
    )
    bundle = generate_sbm(spec)
    save_graph_bundle(bundle, args.out)
    print(f"wrote SBM bundle: {bundle.graph.num_nodes} nodes, {bundle.graph.num_edges} edges -> {args.out}")
    return 0


def cmd_attack(args) -> int:
    bundle = load_graph_bundle(args.in_dir)
    budget = AttackBudget(rate=args.ptb_rate, seed=args.seed)
    if args.method == "random":
        poisoned, record = random_attack(bundle.graph, budget)
    else:
        poisoned, record = dice_attack(bundle.graph, bundle.labels, budget)
    out = Path(args.out)
    save_graph_bundle(
        GraphBundle(graph=poisoned, features=bundle.features, labels=bundle.labels, split=bundle.split),
        out,
    )
    write_report(record.to_dict(), out / "perturbation.json")
    print(
        f"{args.method} attack: +{len(record.added)} / -{len(record.removed)} edges -> {out}"
    )
    return 0


def cmd_preprocess(args) -> int:
    bundle = load_graph_bundle(args.in_dir)
    config = _apply_overrides(PipelineConfig(), args)
    base, removed, views = preprocess_stage(bundle.graph, bundle.features, config, args.seed)
    out = Path(args.out)
    save_edges(base, out / "preprocessed_edges.tsv")
    save_edges(SparseGraph.from_edges(base.num_nodes, removed), out / "removed_edges.tsv")
    for j, view in enumerate(views.views):
        save_edges(view, out / f"view_{j}.tsv")
    write_report(
        {
            "metric": config.metric,
            "t1": config.t1,
            "aug": config.augmentation,
            "recover_p": config.recover_p,
            "num_views": config.num_views,
            "seed": args.seed,
            "edges_removed": len(removed),
        },
        out / "preprocess.json",
    )
    print(f"pre-process removed {len(removed)} edges; {config.num_views} views -> {out}")
    return 0


def _load_view_bundle(pre: Path, n: int) -> ViewBundle:
    """The base graph and the views that `preprocess` wrote to pre."""
    base = load_edges(pre / "preprocessed_edges.tsv", n)
    views = []
    while (pre / f"view_{len(views)}.tsv").exists():
        views.append(load_edges(pre / f"view_{len(views)}.tsv", n))
    if not views:
        raise ConfigError(f"no view_*.tsv files in {pre}")
    return ViewBundle(base=base, views=views)


def _preactivation_path(embeddings_path) -> Path:
    """Where `embed` writes the pre-activation next to the embeddings file."""
    p = Path(embeddings_path)
    return p.with_name(f"{p.stem}.preact{p.suffix}")


def cmd_embed(args) -> int:
    bundle = load_graph_bundle(args.in_dir)
    views = _load_view_bundle(Path(args.pre), bundle.graph.num_nodes)
    config = _apply_overrides(PipelineConfig(), args)
    _, embeddings, z = train_encoder(views, bundle.features, config.encoder, args.seed)
    save_features(embeddings, args.out)
    z_path = _preactivation_path(args.out)
    save_features(z, z_path)
    print(f"embeddings {embeddings.shape[0]}x{embeddings.shape[1]} -> {args.out} (pre-activation -> {z_path})")
    return 0


def cmd_refine(args) -> int:
    bundle = load_graph_bundle(args.in_dir)
    n = bundle.graph.num_nodes
    pre = Path(args.pre)
    base = load_edges(pre / "preprocessed_edges.tsv", n)
    config = _apply_overrides(PipelineConfig(), args)
    # refine_stage measures similarity on the pre-activation, with no fallback
    # to the embeddings. A missing file exits with code 2 and names it.
    z_path = _preactivation_path(args.embeddings)
    z = load_features(z_path)
    if z.shape[0] != n:
        raise ConfigError(f"{z_path}: {z.shape[0]} rows, but the graph has {n} nodes")
    if args.clean:
        # The audit needs the clean graph, on the poisoned bundle's nodes, and
        # the edges that preprocess removed. Both are read before any output.
        clean_graph = load_edges(Path(args.clean) / "edges.tsv", n)
        removed_preprocess = load_edges(pre / "removed_edges.tsv", n).edge_array()
    retained, removed_refine, refined = refine_stage(base, z, config)
    out = Path(args.out)
    save_edges(refined, out / "refined_edges.tsv")
    if args.clean:
        removed = np.concatenate((removed_preprocess, removed_refine))
        report = removal_report(clean_graph, bundle.graph, removed, bundle.labels)
        write_report(report, out / "removal_report.json")
        print(f"removal accuracy {report['accuracy']:.4f} over {report['total']} removals")
    print(
        f"refined graph: {retained.num_edges} retained undirected edges, "
        f"{refined.num_edges} directed edges -> {out}"
    )
    return 0


def cmd_train(args) -> int:
    bundle = load_graph_bundle(args.in_dir)
    n = bundle.graph.num_nodes
    graph = load_edges(args.graph, n, directed=True) if args.graph else bundle.graph
    h0 = bundle.features
    if args.embeddings:
        h0 = load_features(args.embeddings)
        if h0.shape[0] != n:
            raise ConfigError(f"{args.embeddings}: {h0.shape[0]} rows, but the graph has {n} nodes")
    config = _apply_overrides(PipelineConfig(), args)
    model, test_acc = train_classifier(
        graph,
        h0,
        bundle.labels,
        bundle.split,
        config.classifier,
        config.classifier_mode,
        config.alpha,
        config.beta,
        args.seed,
    )
    print(f"test accuracy {test_acc:.4f}")
    if args.out:
        write_report(
            {
                "test_accuracy": test_acc,
                "val_accuracy": model.val_accuracy,
                "mode": config.classifier_mode,
                "alpha": config.alpha,
                "beta": config.beta,
            },
            Path(args.out) / "train_metrics.json",
        )
    return 0


def cmd_pipeline(args) -> int:
    bundle = load_graph_bundle(args.in_dir)
    config = _apply_overrides(_load_config(args.config), args)
    seeds = _seed_list(args)
    record = run_experiment(bundle, config, seeds, variant=args.variant)
    if args.baseline:
        record["gcn_baseline_accuracies"] = [run_gcn_baseline(bundle, config, s) for s in seeds]
    if args.out:
        write_report(record, Path(args.out) / "report.json")
    print(f"{args.variant}: mean accuracy {record['mean']:.4f} +/- {record['std']:.4f} over {len(seeds)} seed(s)")
    return 0


def cmd_ablate(args) -> int:
    bundle = load_graph_bundle(args.in_dir)
    config = _apply_overrides(_load_config(args.config), args)
    seeds = _seed_list(args)
    variants = [args.variant] if args.variant else list(VARIANTS)
    records = {v: run_experiment(bundle, config, seeds, variant=v) for v in variants}
    for v, rec in records.items():
        print(f"{v:>22}: {rec['mean']:.4f} +/- {rec['std']:.4f}")
    if args.out:
        write_report(records, Path(args.out) / "ablation.json")
    return 0


def cmd_sweep(args) -> int:
    # Every value passes its flag's check before the first run trains anything.
    parse = FIELD_RULES[args.param]
    try:
        values = [parse(v) for v in args.values.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"--values for --param {args.param}: {exc}") from exc
    bundle = load_graph_bundle(args.in_dir)
    config = _apply_overrides(_load_config(args.config), args)
    seeds = _seed_list(args)
    rows = sweep(bundle, config, args.param, values, seeds)
    for row in rows:
        print(f"{args.param}={row['value']}: {row['mean']:.4f} +/- {row['std']:.4f}")
    if args.out:
        write_report({"param": args.param, "rows": rows}, Path(args.out) / "sweep.json")
    return 0


def cmd_report(args) -> int:
    record = read_report(args.in_file)
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robustgsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flag(p, flag, key, **kwargs):
        # Unset, the flag keeps the PipelineConfig (or --config) value.
        rule = FIELD_RULES[key]
        metavar = getattr(rule, "metavar", flag[2:].replace("-", "_").upper())
        p.add_argument(flag, dest=key, type=rule, default=None, metavar=metavar, **kwargs)

    def common(p, out_required=False):
        p.add_argument("--seed", type=_non_negative_int, default=0)
        p.add_argument("--out", required=out_required, help="output directory")

    def preprocess_options(p):
        config_flag(p, "--metric", "metric")
        config_flag(p, "--t1", "t1")
        config_flag(p, "--recover-p", "recover_p")
        config_flag(p, "--views", "num_views")
        config_flag(p, "--aug", "augmentation")

    p = sub.add_parser("synth", help="generate a synthetic SBM bundle")
    p.add_argument("--nodes", type=int, default=300)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--p-in", dest="p_in", type=float, default=0.1)
    p.add_argument("--p-out", dest="p_out", type=float, default=0.005)
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--on-bits", dest="on_bits", type=int, default=10)
    p.add_argument("--noise", type=float, default=0.01)
    common(p)
    p.set_defaults(func=cmd_synth, out="sbm")

    p = sub.add_parser("attack", help="poison a bundle's structure")
    p.add_argument("--method", choices=("random", "dice"), required=True)
    p.add_argument("--ptb-rate", dest="ptb_rate", type=_probability, required=True)
    p.add_argument("--in", dest="in_dir", required=True)
    common(p, out_required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("preprocess", help="similarity pruning and view generation")
    p.add_argument("--in", dest="in_dir", required=True)
    preprocess_options(p)
    common(p, out_required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("embed", help="train the contrastive encoder")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--pre", required=True, help="preprocess output directory")
    for name in ("hidden", "lr", "epochs", "patience"):
        config_flag(p, f"--{name}", f"encoder.{name}")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument(
        "--out", required=True, help="embedding output file; the pre-activation goes beside it"
    )
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("refine", help="prune and insert edges by cosine on the encoder pre-activation")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--pre", required=True)
    p.add_argument(
        "--embeddings",
        required=True,
        help="embedding file from embed; the pre-activation beside it (<stem>.preact<suffix>) is read",
    )
    config_flag(p, "--t2", "t2", help="prune edges whose pre-activation cosine is at most t2")
    config_flag(p, "--k", "k", help="insert each node's k most similar peers")
    p.add_argument("--clean", default=None, help="clean bundle for the removal audit")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("train", help="train the classifier")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--graph", default=None, help="directed refined edge list")
    p.add_argument("--embeddings", default=None)
    config_flag(p, "--alpha", "alpha")
    config_flag(p, "--beta", "beta")
    for name in ("hidden", "lr", "weight_decay", "epochs"):
        config_flag(p, f"--{name.replace('_', '-')}", f"classifier.{name}")
    config_flag(p, "--mode", "classifier_mode")
    common(p)
    p.set_defaults(func=cmd_train)

    def pipeline_like(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--in", dest="in_dir", required=True)
        q.add_argument("--config", default=None)
        q.add_argument("--seeds", type=_at_least_one, default=1)
        preprocess_options(q)
        for name in ("t2", "k", "alpha", "beta"):
            config_flag(q, f"--{name}", name)
        config_flag(q, "--mode", "classifier_mode")
        common(q)
        return q

    p = pipeline_like("pipeline", "run the full pipeline over seeds")
    p.add_argument("--variant", choices=VARIANTS, default="full")
    p.add_argument("--baseline", action="store_true", help="also run the vanilla GCN baseline")
    p.set_defaults(func=cmd_pipeline)

    p = pipeline_like("ablate", "run pipeline variants")
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.set_defaults(func=cmd_ablate)

    p = pipeline_like("sweep", "sweep one hyperparameter")
    p.add_argument("--param", choices=SWEEPABLE, required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="pretty-print a report file")
    p.add_argument("--in", dest="in_file", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BundleFormatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

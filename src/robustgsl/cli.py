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
from .classifier import ClassifierConfig, accuracy, predict, train_classifier
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
from .encoder import EncoderConfig, train_encoder
from .graph import SparseGraph, edge_difference
from .linalg import NumericError
from .pipeline import (
    SWEEPABLE,
    VARIANTS,
    PipelineConfig,
    build_views,
    run_experiment,
    run_gcn_baseline,
    sweep,
)
from .preprocess import METRICS, ViewBundle, rough_preprocess
# Not called here; perfbench/spans.py still lists these names as call sites of this module.
from .preprocess import identical_views, make_views, random_perturb_views  # noqa: F401
from .refine import prune_edges, removal_report, topk_insert


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
    return _checked(str, lambda v: v in choices, f"one of {', '.join(choices)}")


AUGMENTATIONS = ("recovery", "random", "none")
CLASSIFIER_MODES = ("advanced", "vanilla")

# The rule of each PipelineConfig field, keyed by the field's path in a
# --config file. Every file value is parsed with it before any run. The
# numeric flags parse with it too; the named-value flags take the same choices.
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
    # --recover-p parses as a plain float, so its range is checked here, before
    # any run; --aug none would otherwise never check it.
    if getattr(args, "recover_p", None) is not None:
        try:
            FIELD_RULES["recover_p"](str(args.recover_p))
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"--recover-p: recover_p {exc}") from exc
    for name in ("metric", "t1", "recover_p", "t2", "alpha", "beta", "k", "num_views"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    if getattr(args, "aug", None) is not None:
        config.augmentation = args.aug
    if getattr(args, "mode", None) is not None:
        config.classifier_mode = args.mode
    return config


def _seed_list(args) -> list[int]:
    base = args.seed if args.seed is not None else 0
    return [base + i for i in range(args.seeds)]


def cmd_synth(args) -> int:
    spec = SbmSpec(
        num_nodes=args.nodes,
        num_classes=args.classes,
        p_in=args.p_in,
        p_out=args.p_out,
        feature_dim=args.dim,
        on_bits=args.on_bits,
        flip_noise=args.noise,
        seed=args.seed if args.seed is not None else 0,
    )
    bundle = generate_sbm(spec)
    save_graph_bundle(bundle, args.out)
    print(f"wrote SBM bundle: {bundle.graph.num_nodes} nodes, {bundle.graph.num_edges} edges -> {args.out}")
    return 0


def cmd_attack(args) -> int:
    bundle = load_graph_bundle(args.in_dir)
    budget = AttackBudget(rate=args.ptb_rate, seed=args.seed if args.seed is not None else 0)
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
    seed = args.seed if args.seed is not None else 0
    base, removed = rough_preprocess(bundle.graph, bundle.features, config.metric, config.t1)
    views = build_views(base, removed, config, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
            "seed": seed,
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
    config = EncoderConfig(hidden=args.hidden, lr=args.lr, epochs=args.epochs, patience=args.patience)
    _, embeddings, z = train_encoder(views, bundle.features, config, args.seed if args.seed is not None else 0)
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
    # Similarity is taken on the pre-activation, as in run_pipeline; there is
    # no fallback to the embeddings, whose cosines never fall to t2. A missing
    # file exits with code 2 and names it.
    z_path = _preactivation_path(args.embeddings)
    z = load_features(z_path)
    if z.shape[0] != n:
        raise ConfigError(f"{z_path}: {z.shape[0]} rows, but the graph has {n} nodes")
    if args.clean:
        # The audit needs the clean graph, on the poisoned bundle's nodes, and
        # the edges that preprocess removed. Both are read before any output.
        clean_graph = load_edges(Path(args.clean) / "edges.tsv", n)
        removed_preprocess = load_edges(pre / "removed_edges.tsv", n).edge_array()
    retained = prune_edges(base, z, args.t2)
    refined = topk_insert(retained, z, args.k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_edges(refined, out / "refined_edges.tsv")
    if args.clean:
        removed = np.concatenate((removed_preprocess, edge_difference(base, retained)))
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
    h0 = load_features(args.embeddings) if args.embeddings else bundle.features
    config = ClassifierConfig(
        hidden=args.hidden, lr=args.lr, weight_decay=args.weight_decay, epochs=args.epochs
    )
    model, test_acc = train_classifier(
        graph,
        h0,
        bundle.labels,
        bundle.split,
        config,
        args.mode,
        args.alpha,
        args.beta,
        args.seed if args.seed is not None else 0,
    )
    print(f"test accuracy {test_acc:.4f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        preds = predict(model, graph, h0)
        write_report(
            {
                "test_accuracy": test_acc,
                "val_accuracy": accuracy(preds, bundle.labels, bundle.split.val)
                if bundle.split.val
                else None,
                "mode": args.mode,
                "alpha": args.alpha,
                "beta": args.beta,
            },
            out / "train_metrics.json",
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_report(record, out / "report.json")
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_report(records, out / "ablation.json")
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_report({"param": args.param, "rows": rows}, out / "sweep.json")
    return 0


def cmd_report(args) -> int:
    record = read_report(args.in_file)
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robustgsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = PipelineConfig()

    def common(p, out_required=False):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=out_required, help="output directory")

    def preprocess_options(p):
        # No defaults here: unset options keep the PipelineConfig value.
        p.add_argument("--metric", choices=METRICS, default=None)
        p.add_argument("--t1", type=FIELD_RULES["t1"], default=None)
        p.add_argument("--recover-p", dest="recover_p", type=float, default=None)
        p.add_argument("--views", dest="num_views", type=FIELD_RULES["num_views"], default=None)
        p.add_argument("--aug", choices=AUGMENTATIONS, default=None)

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
    p.add_argument("--ptb-rate", dest="ptb_rate", type=float, required=True)
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
    p.add_argument("--hidden", type=FIELD_RULES["encoder.hidden"], default=defaults.encoder.hidden)
    p.add_argument("--lr", type=FIELD_RULES["encoder.lr"], default=defaults.encoder.lr)
    p.add_argument("--epochs", type=FIELD_RULES["encoder.epochs"], default=defaults.encoder.epochs)
    p.add_argument("--patience", type=FIELD_RULES["encoder.patience"], default=defaults.encoder.patience)
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument(
        "--t2",
        type=FIELD_RULES["t2"],
        default=defaults.t2,
        help="prune edges whose pre-activation cosine is at most t2",
    )
    p.add_argument(
        "--k", type=FIELD_RULES["k"], default=defaults.k, help="insert each node's k most similar peers"
    )
    p.add_argument("--clean", default=None, help="clean bundle for the removal audit")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("train", help="train the classifier")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--graph", default=None, help="directed refined edge list")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--alpha", type=FIELD_RULES["alpha"], default=defaults.alpha)
    p.add_argument("--beta", type=FIELD_RULES["beta"], default=defaults.beta)
    p.add_argument("--hidden", type=FIELD_RULES["classifier.hidden"], default=defaults.classifier.hidden)
    p.add_argument("--lr", type=FIELD_RULES["classifier.lr"], default=defaults.classifier.lr)
    p.add_argument(
        "--weight-decay",
        dest="weight_decay",
        type=FIELD_RULES["classifier.weight_decay"],
        default=defaults.classifier.weight_decay,
    )
    p.add_argument("--epochs", type=FIELD_RULES["classifier.epochs"], default=defaults.classifier.epochs)
    p.add_argument("--mode", choices=CLASSIFIER_MODES, default=defaults.classifier_mode)
    common(p)
    p.set_defaults(func=cmd_train)

    def pipeline_like(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--in", dest="in_dir", required=True)
        q.add_argument("--config", default=None)
        q.add_argument("--seeds", type=_at_least_one, default=1)
        preprocess_options(q)
        for name in ("t2", "k", "alpha", "beta"):
            q.add_argument(f"--{name}", type=FIELD_RULES[name], default=None)
        q.add_argument("--mode", choices=CLASSIFIER_MODES, default=None)
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

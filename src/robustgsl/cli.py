"""Command-line interface.

Exit codes: 0 success, 2 configuration/input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from .attack import AttackBudget, dice_attack, random_attack
from .classifier import MODES
from .data_io import (
    BundleFormatError,
    SbmSpec,
    generate_sbm,
    load_edges,
    load_features,
    load_graph_bundle,
    load_labels,
    load_num_nodes,
    load_split,
    read_json,
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
    AUGMENTATIONS,
    SWEEPABLE,
    VARIANTS,
    PipelineConfig,
    classify_stage,
    override,
    preprocess_stage,
    refine_stage,
    run_experiment,
    run_gcn_baseline,
    sweep,
)
from .preprocess import METRICS, ViewBundle
from .refine import removal_report
# Not called here; perfbench/spans.py still lists these names as call sites of this module.
from .classifier import predict, train_classifier  # noqa: F401
from .preprocess import identical_views, make_views, random_perturb_views, rough_preprocess  # noqa: F401
from .refine import prune_edges, topk_insert  # noqa: F401


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
_at_least_two = _checked(int, lambda v: v >= 2, "an integer >= 2")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_finite = _checked(float, math.isfinite, "a finite number")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def _one_of(choices):
    parse = _checked(str, lambda v: v in choices, f"one of {', '.join(choices)}")
    parse.metavar = "{" + ",".join(choices) + "}"  # as argparse shows choices
    return parse


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
    "classifier_mode": _one_of(MODES),
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


def _config(args) -> PipelineConfig:
    """The defaults, then the values of the --config file (if the command takes
    one) by dotted key, each parsed as the flag's text would be (so 1.5 is no
    integer), then each flag that was given, applied by one override."""
    path = getattr(args, "config", None)
    sections = {key.rpartition(".")[0] for key in FIELD_RULES} - {""}  # each an object in the file

    def items(obj, section=""):
        if not isinstance(obj, dict):
            raise ValueError(f"cannot load config {path}: {section or 'the file'} must be a JSON object")
        for name, value in obj.items():
            key = f"{section}.{name}" if section else name
            yield from items(value, key) if key in sections else [(key, value)]

    changes = {}
    for key, value in items(read_json(path)) if path else ():
        if key not in FIELD_RULES:
            raise ValueError(f"cannot load config {path}: {key} is not a config key")
        try:
            changes[key] = FIELD_RULES[key](str(value))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config {path}: {key} {exc}") from exc
    changes.update((key, v) for key in FIELD_RULES if (v := getattr(args, key, None)) is not None)
    return override(PipelineConfig(), changes)


def _experiment_inputs(args) -> tuple:
    """The bundle, the configuration (_config) and the seeds (--seed,
    --seed + 1, ..., --seeds of them) of an experiment command."""
    return load_graph_bundle(args.in_dir), _config(args), list(range(args.seed, args.seed + args.seeds))


def cmd_synth(args) -> int:
    bundle = generate_sbm(SbmSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SbmSpec)}))
    save_graph_bundle(bundle, args.out)
    print(f"wrote SBM bundle: {bundle.graph.num_nodes} nodes, {bundle.graph.num_edges} edges -> {args.out}")
    return 0


# The bundle files that attack copies to its output unchanged.
_UNCHANGED_BY_ATTACK = ("features.txt", "labels.tsv", "split.json")


def cmd_attack(args) -> int:
    d, out = Path(args.in_dir), Path(args.out)
    n = load_num_nodes(d / "features.txt")
    graph = load_edges(d / "edges.tsv", n)
    for name in _UNCHANGED_BY_ATTACK:  # before anything is written
        if not (d / name).is_file():
            raise BundleFormatError(f"missing file: {d / name}")
    budget = AttackBudget(rate=args.ptb_rate, seed=args.seed)
    if args.method == "random":
        poisoned, record = random_attack(graph, budget)
    else:
        poisoned, record = dice_attack(graph, load_labels(d / "labels.tsv", n), budget)
    save_edges(poisoned, out / "edges.tsv")  # creates out
    for name in _UNCHANGED_BY_ATTACK:
        try:
            shutil.copyfile(d / name, out / name)
        except shutil.SameFileError:  # --out is --in
            pass
    write_report(record.to_dict(), out / "perturbation.json")
    print(
        f"{args.method} attack: +{len(record.added)} / -{len(record.removed)} edges -> {out}"
    )
    return 0


def cmd_preprocess(args) -> int:
    d = Path(args.in_dir)
    features = load_features(d / "features.txt")
    graph = load_edges(d / "edges.tsv", len(features))
    config = _config(args)
    base, removed, views = preprocess_stage(graph, features, config, args.seed)
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
    """The base graph and the num_views views that `preprocess` wrote to pre,
    as its preprocess.json records; view files of an earlier run are not read."""
    meta_path = pre / "preprocess.json"
    meta = read_json(meta_path)
    num_views = meta.get("num_views") if isinstance(meta, dict) else None
    # type() is int: JSON true and false parse as bools, which are ints too.
    if type(num_views) is not int or num_views < 1:
        raise ValueError(f"{meta_path}: num_views must be an integer >= 1, got {num_views!r}")
    base = load_edges(pre / "preprocessed_edges.tsv", n)
    views = [load_edges(pre / f"view_{j}.tsv", n) for j in range(num_views)]
    return ViewBundle(base=base, views=views)


def _preactivation_path(embeddings_path) -> Path:
    """Where `embed` writes the pre-activation next to the embeddings file."""
    p = Path(embeddings_path)
    return p.with_name(f"{p.stem}.preact{p.suffix}")


def cmd_embed(args) -> int:
    features = load_features(Path(args.in_dir) / "features.txt")
    views = _load_view_bundle(Path(args.pre), len(features))
    config = _config(args)
    _, embeddings, z = train_encoder(views, features, config.encoder, args.seed)
    save_features(embeddings, args.out)
    z_path = _preactivation_path(args.out)
    save_features(z, z_path)
    print(f"embeddings {embeddings.shape[0]}x{embeddings.shape[1]} -> {args.out} (pre-activation -> {z_path})")
    return 0


def cmd_refine(args) -> int:
    d, pre = Path(args.in_dir), Path(args.pre)
    n = load_num_nodes(d / "features.txt")
    base = load_edges(pre / "preprocessed_edges.tsv", n)
    config = _config(args)
    # refine_stage measures similarity on the pre-activation, with no fallback
    # to the embeddings. A missing file exits with code 2 and names it.
    z = load_features(_preactivation_path(args.embeddings), n)
    if args.clean:
        # The audit needs the poisoned and the clean graph, on the poisoned
        # bundle's nodes, their labels and the edges that preprocess removed.
        # All are read before any output.
        poisoned = load_edges(d / "edges.tsv", n)
        labels = load_labels(d / "labels.tsv", n)
        clean_graph = load_edges(Path(args.clean) / "edges.tsv", n)
        removed_preprocess = load_edges(pre / "removed_edges.tsv", n).edge_array()
    retained, removed_refine, refined = refine_stage(base, z, config)
    out = Path(args.out)
    save_edges(refined, out / "refined_edges.tsv")
    if args.clean:
        removed = np.concatenate((removed_preprocess, removed_refine))
        report = removal_report(clean_graph, poisoned, removed, labels)
        write_report(report, out / "removal_report.json")
        print(f"removal accuracy {report['accuracy']:.4f} over {report['total']} removals")
    print(
        f"refined graph: {retained.num_edges} retained undirected edges, "
        f"{refined.num_edges} directed edges -> {out}"
    )
    return 0


def cmd_train(args) -> int:
    d = Path(args.in_dir)
    n = load_num_nodes(d / "features.txt")
    labels = load_labels(d / "labels.tsv", n)
    split = load_split(d / "split.json", labels)
    graph = load_edges(args.graph, n, directed=True) if args.graph else load_edges(d / "edges.tsv", n)
    h0 = load_features(args.embeddings or d / "features.txt", n)
    config = _config(args)
    model, test_acc = classify_stage(graph, h0, labels, split, config, args.seed)
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
    bundle, config, seeds = _experiment_inputs(args)
    record = run_experiment(bundle, config, seeds, variant=args.variant)
    if args.baseline:
        record["gcn_baseline_accuracies"] = [run_gcn_baseline(bundle, config, s) for s in seeds]
    if args.out:
        write_report(record, Path(args.out) / "report.json")
    print(f"{args.variant}: mean accuracy {record['mean']:.4f} +/- {record['std']:.4f} over {len(seeds)} seed(s)")
    return 0


def cmd_ablate(args) -> int:
    bundle, config, seeds = _experiment_inputs(args)
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
        raise ValueError(f"--values for --param {args.param}: {exc}") from exc
    bundle, config, seeds = _experiment_inputs(args)
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
    # Each flag's dest is the SbmSpec field it sets. Each flag is checked alone
    # here; SbmSpec.validate checks how they combine.
    p.add_argument("--nodes", dest="num_nodes", metavar="NODES", type=_at_least_one, default=300)
    p.add_argument("--classes", dest="num_classes", metavar="CLASSES", type=_at_least_two, default=3)
    p.add_argument("--p-in", dest="p_in", type=_probability, default=0.1)
    p.add_argument("--p-out", dest="p_out", type=_probability, default=0.005)
    p.add_argument("--dim", dest="feature_dim", metavar="DIM", type=_at_least_one, default=100)
    p.add_argument("--on-bits", dest="on_bits", type=_non_negative_int, default=10)
    p.add_argument("--noise", dest="flip_noise", metavar="NOISE", type=_probability, default=0.01)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

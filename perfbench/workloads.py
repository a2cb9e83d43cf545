"""The three benchmark workloads.

Each workload builds its inputs in ``prepare`` from fixed specs plus the
workload seed and writes them under its work directory; ``prepare`` runs in
a separate set-up process, so that its memory does not count toward the
measured process's peak. ``load`` reads those inputs into the measured
process, ``run`` runs one operation (the only timed part, which calls only
the program) and ``check`` validates that operation's outputs.

``layers`` names the layers every operation must reach, which a traced run
checks. ``accuracy`` is the mean over operations ``0 .. acc_ops - 1``,
which every untraced run completes, so that it does not depend on speed.
Program functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from robustgsl import attack, cli, data_io, pipeline

RATE = 0.2  # DICE / random perturbation rate of every workload
# Acceptance-battery instance (tests/test_acceptance.py) and its n=3000
# degree-matched counterpart: p_in and p_out scale as 1/n.
BATTERY_SPEC = data_io.SbmSpec(300, 3, 0.1, 0.005, 100, 10, 0.01, seed=1)
LARGE_SPEC = data_io.SbmSpec(3000, 3, 0.01, 0.0005, 100, 10, 0.01, seed=1)


class CheckFailed(Exception):
    """An operation returned, but its output breaks a contract."""


def check_attack(record, num_clean_edges: int) -> None:
    budget = int(round(RATE * num_clean_edges))
    if not record.complete or record.num_changes != budget:
        raise CheckFailed(
            f"attack made {record.num_changes} of {budget} changes (complete={record.complete})"
        )


def check_accuracy(acc, what: str) -> float:
    if not (isinstance(acc, float) and math.isfinite(acc) and 0.0 <= acc <= 1.0):
        raise CheckFailed(f"{what} accuracy {acc!r} is not a finite value in [0, 1]")
    return acc


def op_seed(seed: int, i: int) -> int:
    return int(np.random.default_rng([seed, i]).integers(2 ** 31))


class Battery:
    """Pinned acceptance instance; op i = run_pipeline + GCN baseline at
    pipeline seed (seed + i) mod 10, so ops 0..9 cover every pipeline seed."""

    layers = ("preprocess", "encoder", "refine", "classifier", "pipeline")
    acc_ops = 10

    def __init__(self, seed: int, work: Path):
        self.offset = seed % 10
        self.work = work
        self.config = pipeline.PipelineConfig()

    def prepare(self) -> None:
        clean = data_io.generate_sbm(BATTERY_SPEC)
        poisoned, record = attack.dice_attack(clean.graph, clean.labels, attack.AttackBudget(RATE, 51))
        check_attack(record, clean.graph.num_edges)
        bundle = data_io.GraphBundle(poisoned, clean.features, clean.labels, clean.split)
        data_io.save_graph_bundle(bundle, self.work / "poisoned")

    def load(self) -> None:
        self.bundle = data_io.load_graph_bundle(self.work / "poisoned")

    def run(self, i: int):
        seed = (self.offset + i) % 10
        run = pipeline.run_pipeline(self.bundle, self.config, seed)
        return run.accuracy, pipeline.run_gcn_baseline(self.bundle, self.config, seed)

    def check(self, i: int, result) -> float:
        acc, baseline = result
        check_accuracy(baseline, "baseline")
        return check_accuracy(acc, "pipeline")


class Scale:
    """n=3000 graph; op i = DICE at a per-op seed, then run_pipeline."""

    layers = ("attack", "preprocess", "encoder", "refine", "classifier", "pipeline")
    acc_ops = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config = pipeline.PipelineConfig()

    def prepare(self) -> None:
        data_io.save_graph_bundle(data_io.generate_sbm(LARGE_SPEC), self.work / "clean")

    def load(self) -> None:
        self.clean = data_io.load_graph_bundle(self.work / "clean")

    def run(self, i: int):
        s = op_seed(self.seed, i)
        c = self.clean
        poisoned, record = attack.dice_attack(c.graph, c.labels, attack.AttackBudget(RATE, s))
        bundle = data_io.GraphBundle(poisoned, c.features, c.labels, c.split)
        return record, pipeline.run_pipeline(bundle, self.config, s).accuracy

    def check(self, i: int, result) -> float:
        record, acc = result
        check_attack(record, self.clean.graph.num_edges)
        return check_accuracy(acc, "pipeline")


class Stages:
    """n=3000 graph through the stage commands of the CLI, in process.

    Set-up writes the clean bundle and trains embeddings on it once; op i
    attacks the clean bundle at a per-op seed and runs every later stage on
    the result, on the alternative code paths (random attack, cosine, random
    views, vanilla GCN) next to the default refine and advanced classifier.
    """

    layers = ("attack", "preprocess", "refine", "classifier", "data_io", "cli")
    acc_ops = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.runs = 0

    def _cli(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise CheckFailed(f"robustgsl {argv[0]} exited with {code}")

    def prepare(self) -> None:
        d = self.work / "setup"
        shutil.rmtree(d, ignore_errors=True)
        s = LARGE_SPEC
        self._cli("synth", "--nodes", s.num_nodes, "--classes", s.num_classes, "--p-in", s.p_in,
                  "--p-out", s.p_out, "--dim", s.feature_dim, "--on-bits", s.on_bits,
                  "--noise", s.flip_noise, "--seed", s.seed, "--out", d / "clean")
        self._cli("preprocess", "--in", d / "clean", "--seed", 0, "--out", d / "pre")
        self._cli("embed", "--in", d / "clean", "--pre", d / "pre", "--seed", 0, "--out", d / "emb.txt")

    def load(self) -> None:
        d = self.work / "setup"
        self.clean_dir, self.embeddings = d / "clean", d / "emb.txt"
        self.num_clean_edges = sum(1 for _ in (self.clean_dir / "edges.tsv").open())

    def run(self, i: int):
        s = op_seed(self.seed, i)
        self.runs += 1
        d = self.work / f"op{self.runs}"
        shutil.rmtree(d, ignore_errors=True)
        emb = self.embeddings
        self._cli("attack", "--method", "random", "--ptb-rate", RATE, "--in", self.clean_dir,
                  "--seed", s, "--out", d / "poisoned")
        self._cli("preprocess", "--in", d / "poisoned", "--metric", "cosine", "--aug", "random",
                  "--seed", s, "--out", d / "pre")
        self._cli("refine", "--in", d / "poisoned", "--pre", d / "pre", "--embeddings", emb,
                  "--clean", self.clean_dir, "--out", d / "refined")
        for mode in ("advanced", "vanilla"):
            self._cli("train", "--in", d / "poisoned", "--graph", d / "refined" / "refined_edges.tsv",
                      "--embeddings", emb, "--mode", mode, "--seed", s, "--out", d / mode)
        return d

    def check(self, i: int, d: Path) -> float:
        try:
            return self._check(d)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _check(self, d: Path) -> float:
        try:
            poisoned = data_io.load_graph_bundle(d / "poisoned")
            record = json.loads((d / "poisoned" / "perturbation.json").read_text())
            pre = json.loads((d / "pre" / "preprocess.json").read_text())
            n = poisoned.graph.num_nodes
            for j in range(pre["num_views"]):
                data_io.load_edges(d / "pre" / f"view_{j}.tsv", n)
            data_io.load_edges(d / "refined" / "refined_edges.tsv", n, directed=True)
            audit = json.loads((d / "refined" / "removal_report.json").read_text())
            accs = {m: json.loads((d / m / "train_metrics.json").read_text())["test_accuracy"]
                    for m in ("advanced", "vanilla")}
        except (OSError, ValueError, KeyError) as exc:
            raise CheckFailed(f"stage output does not parse: {exc}") from exc
        changes = len(record["added"]) + len(record["removed"])
        if not record["complete"] or changes != int(round(RATE * self.num_clean_edges)):
            raise CheckFailed(f"random attack made {changes} changes (complete={record['complete']})")
        if poisoned.graph.num_edges != self.num_clean_edges + len(record["added"]) - len(record["removed"]):
            raise CheckFailed("poisoned edge count disagrees with the perturbation record")
        check_accuracy(audit["accuracy"], "removal audit")
        check_accuracy(accs["vanilla"], "vanilla classifier")
        return check_accuracy(accs["advanced"], "advanced classifier")


WORKLOADS = {"battery": Battery, "scale": Scale, "stages": Stages}

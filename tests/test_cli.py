import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from robustgsl import data_io
from robustgsl.cli import FIELD_RULES, main
from robustgsl.data_io import load_features, load_graph_bundle, read_report, save_features
from robustgsl.linalg import NumericError, make_rng
from robustgsl.pipeline import PipelineConfig, run_variant


# Flags that take any finite float: NaN and inf must stop at parsing.
FINITE_FLAGS = [("preprocess", "--t1"), ("refine", "--t2"), ("train", "--alpha"), ("train", "--beta")] + [
    (command, flag) for command in ("pipeline", "ablate", "sweep") for flag in ("--t1", "--t2", "--alpha", "--beta")
]


def _no_training(*args, **kwargs):
    raise AssertionError("an encoder was trained before the inputs were checked")


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundles") / "clean"
    code = main(
        [
            "synth",
            "--nodes", "60",
            "--classes", "3",
            "--p-in", "0.3",
            "--p-out", "0.02",
            "--dim", "20",
            "--on-bits", "6",
            "--noise", "0.02",
            "--seed", "1",
            "--out", str(d),
        ]
    )
    assert code == 0
    return d


@pytest.fixture(scope="module")
def poisoned_dir(clean_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("bundles") / "poisoned"
    code = main(
        [
            "attack",
            "--method", "dice",
            "--ptb-rate", "0.2",
            "--in", str(clean_dir),
            "--seed", "3",
            "--out", str(d),
        ]
    )
    assert code == 0
    return d


class TestSynthAndAttack:
    def test_synth_bundle_loads(self, clean_dir):
        bundle = load_graph_bundle(clean_dir)
        assert bundle.graph.num_nodes == 60
        assert bundle.features.shape == (60, 20)

    def test_attack_changes_edges(self, clean_dir, poisoned_dir):
        clean = load_graph_bundle(clean_dir)
        poisoned = load_graph_bundle(poisoned_dir)
        record = read_report(poisoned_dir / "perturbation.json")
        n_changes = len(record["added"]) + len(record["removed"])
        assert n_changes == round(0.2 * clean.graph.num_edges)
        assert poisoned.graph.num_edges == (
            clean.graph.num_edges + len(record["added"]) - len(record["removed"])
        )


class TestStageCommands:
    def test_preprocess_embed_refine_train(self, clean_dir, poisoned_dir, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert main(
            [
                "preprocess",
                "--in", str(poisoned_dir),
                "--t1", "0.03",
                "--views", "2",
                "--seed", "0",
                "--out", str(pre),
            ]
        ) == 0
        assert (pre / "preprocessed_edges.tsv").exists()
        assert (pre / "view_0.tsv").exists() and (pre / "view_1.tsv").exists()
        meta = read_report(pre / "preprocess.json")
        assert meta["num_views"] == 2

        emb = tmp_path / "embeddings.txt"
        assert main(
            [
                "embed",
                "--in", str(poisoned_dir),
                "--pre", str(pre),
                "--hidden", "16",
                "--epochs", "20",
                "--seed", "0",
                "--out", str(emb),
            ]
        ) == 0
        assert emb.exists()
        preact = tmp_path / "embeddings.preact.txt"
        assert preact.exists()
        assert load_features(preact).shape == load_features(emb).shape

        refined = tmp_path / "refined"
        assert main(
            [
                "refine",
                "--in", str(poisoned_dir),
                "--pre", str(pre),
                "--embeddings", str(emb),
                "--clean", str(clean_dir),
                "--out", str(refined),
            ]
        ) == 0
        assert (refined / "refined_edges.tsv").exists()
        report = read_report(refined / "removal_report.json")
        assert report["total"] == report["adversarial"] + report["normal"]

        # Without the pre-activation beside the embeddings, refine stops
        # instead of pruning on the activated embeddings.
        preact.unlink()
        capsys.readouterr()
        assert main(
            [
                "refine",
                "--in", str(poisoned_dir),
                "--pre", str(pre),
                "--embeddings", str(emb),
                "--out", str(tmp_path / "refined_missing"),
            ]
        ) == 2
        assert str(preact) in capsys.readouterr().err

        out = tmp_path / "train"
        assert main(
            [
                "train",
                "--in", str(poisoned_dir),
                "--graph", str(refined / "refined_edges.tsv"),
                "--embeddings", str(emb),
                "--epochs", "30",
                "--seed", "0",
                "--out", str(out),
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "test accuracy" in captured.out
        metrics = read_report(out / "train_metrics.json")
        assert 0.0 <= metrics["test_accuracy"] <= 1.0

    def test_embed_into_new_directory(self, poisoned_dir, tmp_path):
        pre = tmp_path / "pre"
        assert main(["preprocess", "--in", str(poisoned_dir), "--out", str(pre)]) == 0
        emb = tmp_path / "new" / "dir" / "emb.txt"
        assert main(["embed", "--in", str(poisoned_dir), "--pre", str(pre), "--epochs", "2", "--out", str(emb)]) == 0
        assert load_features(emb).shape == load_features(emb.with_name("emb.preact.txt")).shape

    def test_preprocess_report_records_applied_defaults(self, poisoned_dir, tmp_path):
        pre = tmp_path / "pre"
        assert main(["preprocess", "--in", str(poisoned_dir), "--out", str(pre)]) == 0
        meta = read_report(pre / "preprocess.json")
        assert meta["t1"] == 0.03
        assert (meta["metric"], meta["aug"], meta["num_views"]) == ("jaccard", "recovery", 2)


def _file_digests(root) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestPinnedStageChain:
    """sha256 of every file that attack -> preprocess -> refine writes on the
    60-node synth bundle, computed before the edge-array core replaced the
    set-based stages. The features are binary and the embeddings small
    integers, so every dot product is exact and the files do not depend on
    the BLAS build."""

    DIGESTS = {
        "poisoned/edges.tsv": "34b5dc15b9b410d5b1546701e4fc961e0072bb79dda123d84b16cbfe2fd45596",
        "poisoned/features.txt": "0d291291b8e5895938768e50cdf1b788c4d2decb367caa328414bc9704fb04c1",
        "poisoned/labels.tsv": "d749ff9502a5d7d0a2f64ba677e2e204c525b3b757e52cef1cc8b20d2e764fe1",
        "poisoned/perturbation.json": "7bea7585c148941e3f2819633452cdd4db91d7eb94c71c4a162f17db91d525a8",
        "poisoned/split.json": "bb35eb571f7ae756c1ac20958071ed281589aed2d5b302eba519a01399f272ba",
        "pre/preprocess.json": "5117cc0402e70d37a86a0f0c09bb5780e526657fdd98b8b1f8f120a78f9a69d0",
        "pre/preprocessed_edges.tsv": "36e44f39cf96646d7bd791d60070bf0da2bce8cea069eef60378b845bfd5e1bb",
        "pre/removed_edges.tsv": "e965413867b166e3de73e0af72f5421e33fcfc607a1d5d49fe4c93ad06832ee3",
        "pre/view_0.tsv": "c17cf7d2b873f010df32decb44f2d0ca4294ecbb9022d26ff9caf207c64f6cfe",
        "pre/view_1.tsv": "09515ae05f0e7d2ffd06fb71c25a550223ad84b13ffd5b649bd07672e19c7c71",
        "refined/refined_edges.tsv": "d65c74d39a3d8f35bf8cb829c10b47b5cca3817018c6d5a111581fe5b3016a5c",
        "refined/removal_report.json": "591f61df80dc53e3e4060a9947348d5344034c0d77c995034ff27e596b8e62bf",
    }

    def test_files_unchanged(self, clean_dir, tmp_path):
        z = make_rng(5).integers(-2, 3, size=(60, 6)).astype(float)
        save_features(z, tmp_path / "emb.txt")
        save_features(z, tmp_path / "emb.preact.txt")
        out = tmp_path / "out"
        steps = [
            ["attack", "--method", "random", "--ptb-rate", "0.2", "--in", clean_dir, "--seed", "3",
             "--out", out / "poisoned"],
            ["preprocess", "--in", out / "poisoned", "--metric", "cosine", "--t1", "0.3",
             "--aug", "random", "--seed", "4", "--out", out / "pre"],
            ["refine", "--in", out / "poisoned", "--pre", out / "pre", "--embeddings",
             tmp_path / "emb.txt", "--clean", clean_dir, "--out", out / "refined"],
        ]
        for argv in steps:
            assert main([str(a) for a in argv]) == 0
        assert _file_digests(out) == self.DIGESTS


def test_stage_commands_reproduce_pipeline_run(poisoned_dir, tmp_path):
    """preprocess, embed, refine and train, each given the seed that
    run_variant derives for its stage, give run_variant's embeddings, refined
    edges and test accuracy bit for bit."""
    rng = make_rng(3)
    view_seed, encoder_seed, classifier_seed = (str(rng.integers(2 ** 63)) for _ in range(3))
    run = run_variant(load_graph_bundle(poisoned_dir), PipelineConfig(), "full", 3)
    bundle, pre, emb = str(poisoned_dir), str(tmp_path / "pre"), str(tmp_path / "emb.txt")
    steps = [
        ["preprocess", "--in", bundle, "--seed", view_seed, "--out", pre],
        ["embed", "--in", bundle, "--pre", pre, "--seed", encoder_seed, "--out", emb],
        ["refine", "--in", bundle, "--pre", pre, "--embeddings", emb, "--out", str(tmp_path / "refined")],
        ["train", "--in", bundle, "--graph", str(tmp_path / "refined" / "refined_edges.tsv"), "--embeddings", emb,
         "--seed", classifier_seed, "--out", str(tmp_path / "train")],
    ]
    for argv in steps:
        assert main(argv) == 0
    np.testing.assert_array_equal(load_features(emb), run.embeddings)
    refined = data_io.load_edges(tmp_path / "refined" / "refined_edges.tsv", 60, directed=True)
    np.testing.assert_array_equal(refined.edge_array(), run.refined_graph.edge_array())
    assert read_report(tmp_path / "train" / "train_metrics.json")["test_accuracy"] == run.accuracy


@pytest.fixture(scope="module")
def stage_dir(clean_dir, poisoned_dir, tmp_path_factory):
    """A directory holding the clean and the poisoned bundle, preprocess's
    output for the poisoned one, embeddings with their pre-activation, and a
    refined graph: every input of a stage command, at a relative path."""
    root = tmp_path_factory.mktemp("stages")
    shutil.copytree(clean_dir, root / "clean")
    shutil.copytree(poisoned_dir, root / "bundle")
    assert main(["preprocess", "--in", str(root / "bundle"), "--out", str(root / "pre")]) == 0
    z = make_rng(0).normal(size=(60, 4))
    save_features(z, root / "emb.txt")
    save_features(z, root / "emb.preact.txt")
    (root / "fast.json").write_text('{"encoder": {"epochs": 1}, "classifier": {"epochs": 1}}')
    assert main(["refine", "--in", str(root / "bundle"), "--pre", str(root / "pre"),
                 "--embeddings", str(root / "emb.txt"), "--out", str(root / "refined")]) == 0
    return root


BUNDLE = {"bundle/features.txt", "bundle/labels.tsv", "bundle/edges.tsv", "bundle/split.json"}
PRE = {"pre/preprocess.json", "pre/preprocessed_edges.tsv", "pre/view_0.tsv", "pre/view_1.tsv"}


class TestFilesRead:
    """Each command opens only the files whose contents it uses, and parses
    the rows of fewer still: of features.txt, attack, refine and train with
    --embeddings read only the header line, for the node count."""

    @pytest.mark.parametrize("argv, opened, parsed", [
        (["attack", "--method", "random", "--ptb-rate", "0.2", "--in", "bundle"],
         {"bundle/features.txt", "bundle/edges.tsv"}, {"bundle/edges.tsv"}),
        (["attack", "--method", "dice", "--ptb-rate", "0.2", "--in", "bundle"],
         {"bundle/features.txt", "bundle/edges.tsv", "bundle/labels.tsv"},
         {"bundle/edges.tsv", "bundle/labels.tsv"}),
        (["preprocess", "--in", "bundle"],
         {"bundle/features.txt", "bundle/edges.tsv"}, {"bundle/features.txt", "bundle/edges.tsv"}),
        (["embed", "--in", "bundle", "--pre", "pre", "--epochs", "1"],
         {"bundle/features.txt"} | PRE, {"bundle/features.txt"} | PRE - {"pre/preprocess.json"}),
        (["refine", "--in", "bundle", "--pre", "pre", "--embeddings", "emb.txt"],
         {"bundle/features.txt", "pre/preprocessed_edges.tsv", "emb.preact.txt"},
         {"pre/preprocessed_edges.tsv", "emb.preact.txt"}),
        (["refine", "--in", "bundle", "--pre", "pre", "--embeddings", "emb.txt", "--clean", "clean"],
         BUNDLE - {"bundle/split.json"} | {"pre/preprocessed_edges.tsv", "pre/removed_edges.tsv",
                                           "emb.preact.txt", "clean/edges.tsv"},
         {"bundle/edges.tsv", "bundle/labels.tsv", "pre/preprocessed_edges.tsv", "pre/removed_edges.tsv",
          "emb.preact.txt", "clean/edges.tsv"}),
        (["train", "--in", "bundle", "--graph", "refined/refined_edges.tsv", "--embeddings", "emb.txt",
          "--epochs", "1"],
         BUNDLE - {"bundle/edges.tsv"} | {"refined/refined_edges.tsv", "emb.txt"},
         {"bundle/labels.tsv", "refined/refined_edges.tsv", "emb.txt"}),
        (["train", "--in", "bundle", "--graph", "refined/refined_edges.tsv", "--epochs", "1"],
         BUNDLE - {"bundle/edges.tsv"} | {"refined/refined_edges.tsv"},
         {"bundle/features.txt", "bundle/labels.tsv", "refined/refined_edges.tsv"}),
        (["train", "--in", "bundle", "--epochs", "1"],
         BUNDLE, BUNDLE - {"bundle/split.json"}),
        (["pipeline", "--in", "bundle", "--config", "fast.json"],
         BUNDLE | {"fast.json"}, BUNDLE - {"bundle/split.json"}),
    ], ids=["attack-random", "attack-dice", "preprocess", "embed", "refine", "refine-clean",
            "train-graph-embeddings", "train-graph", "train", "pipeline"])
    def test_files_read(self, stage_dir, tmp_path, argv, opened, parsed, monkeypatch):
        seen = {"opened": set(), "parsed": set()}

        def spy(kind, real):
            def reader(path, *args, **kwargs):
                seen[kind].add(Path(path).as_posix())
                return real(path, *args, **kwargs)
            return reader

        # Every reader of data_io opens its file through _open, and parses
        # rows through _read_table.
        monkeypatch.setattr(data_io, "_open", spy("opened", data_io._open))
        monkeypatch.setattr(data_io, "_read_table", spy("parsed", data_io._read_table))
        monkeypatch.chdir(stage_dir)
        assert main([*argv, "--out", str(tmp_path / "out" / "o.txt" if argv[0] == "embed" else tmp_path / "out")]) == 0
        assert seen == {"opened": opened, "parsed": parsed}


def _non_canonical_copy(bundle, dest):
    """bundle copied to dest, with each file that attack leaves unchanged
    rewritten in a form the package does not write itself: integer features,
    a commented label file in reverse node order, a one-line split."""
    shutil.copytree(bundle, dest)
    x = load_features(bundle / "features.txt")
    assert np.array_equal(x, x.astype(int))
    rows = "".join(" ".join(map(str, row)) + "\n" for row in x.astype(int).tolist())
    (dest / "features.txt").write_text(f"{x.shape[0]} {x.shape[1]}\n{rows}")
    lines = (bundle / "labels.tsv").read_text().splitlines()
    (dest / "labels.tsv").write_text("# node\tlabel\n" + "\n".join(reversed(lines)) + "\n")
    (dest / "split.json").write_text(json.dumps(json.loads((bundle / "split.json").read_text())))
    return dest


UNCHANGED_BY_ATTACK = ("features.txt", "labels.tsv", "split.json")


class TestAttackCopies:
    @pytest.mark.parametrize("method", ["random", "dice"])
    def test_copies_byte_equal(self, clean_dir, tmp_path, method):
        src = _non_canonical_copy(clean_dir, tmp_path / "in")
        out = tmp_path / "out"
        attack = ["attack", "--method", method, "--ptb-rate", "0.2", "--seed", "3"]
        assert main([*attack, "--in", str(src), "--out", str(out)]) == 0
        for name in UNCHANGED_BY_ATTACK:
            assert (out / name).read_bytes() == (src / name).read_bytes(), name
        given, poisoned = load_graph_bundle(src), load_graph_bundle(out)
        np.testing.assert_array_equal(poisoned.features, given.features)
        np.testing.assert_array_equal(poisoned.labels, given.labels)
        assert poisoned.split == given.split
        # The graph is the one the same attack makes on the canonical bundle.
        assert main([*attack, "--in", str(clean_dir), "--out", str(tmp_path / "ref")]) == 0
        assert (out / "edges.tsv").read_bytes() == (tmp_path / "ref" / "edges.tsv").read_bytes()

    def test_in_place(self, clean_dir, tmp_path):
        d = tmp_path / "d"
        shutil.copytree(clean_dir, d)
        unchanged = {name: (d / name).read_bytes() for name in UNCHANGED_BY_ATTACK}
        clean_edges = load_graph_bundle(d).graph.num_edges
        assert main(["attack", "--method", "dice", "--ptb-rate", "0.2", "--in", str(d), "--out", str(d)]) == 0
        assert {name: (d / name).read_bytes() for name in UNCHANGED_BY_ATTACK} == unchanged
        record = read_report(d / "perturbation.json")
        assert load_graph_bundle(d).graph.num_edges == clean_edges + len(record["added"]) - len(record["removed"])

    @pytest.mark.parametrize("name", UNCHANGED_BY_ATTACK)
    def test_missing_copied_file(self, clean_dir, tmp_path, name, capsys):
        src = tmp_path / "in"
        shutil.copytree(clean_dir, src)
        (src / name).unlink()
        argv = ["attack", "--method", "random", "--ptb-rate", "0.2", "--in", str(src), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"error: missing file: {src / name}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestDamagedFeatureRows:
    """A features.txt whose header is intact but whose rows are not is
    reported by the commands that parse the rows, and only by them."""

    @pytest.fixture
    def damaged(self, stage_dir, tmp_path):
        d = tmp_path / "damaged"
        shutil.copytree(stage_dir / "bundle", d)
        header = (d / "features.txt").read_text().splitlines()[0]
        (d / "features.txt").write_text(f"{header}\n1 x\n")
        return d

    @pytest.mark.parametrize("argv", [
        ["attack", "--method", "random", "--ptb-rate", "0.2", "--out", "{tmp}/a"],
        ["refine", "--pre", "{stages}/pre", "--embeddings", "{stages}/emb.txt", "--clean", "{stages}/clean",
         "--out", "{tmp}/r"],
        ["train", "--graph", "{stages}/refined/refined_edges.tsv", "--embeddings", "{stages}/emb.txt",
         "--epochs", "2"],
    ], ids=["attack", "refine", "train"])
    def test_header_readers_succeed(self, damaged, stage_dir, tmp_path, argv):
        paths = {"tmp": tmp_path, "stages": stage_dir}
        assert main([argv[0], "--in", str(damaged), *(a.format(**paths) for a in argv[1:])]) == 0

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--out", "{tmp}/p"],
        ["embed", "--pre", "{stages}/pre", "--out", "{tmp}/e.txt"],
        ["train", "--graph", "{stages}/refined/refined_edges.tsv", "--epochs", "2"],
        ["pipeline"],
    ], ids=["preprocess", "embed", "train-features", "pipeline"])
    def test_row_readers_exit_2(self, damaged, stage_dir, tmp_path, argv, capsys):
        paths = {"tmp": tmp_path, "stages": stage_dir}
        assert main([argv[0], "--in", str(damaged), *(a.format(**paths) for a in argv[1:])]) == 2
        assert f"error: {damaged / 'features.txt'}:2: " in capsys.readouterr().err


class TestPipelineCommands:
    def test_pipeline_with_baseline(self, poisoned_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "pipeline",
                "--in", str(poisoned_dir),
                "--seeds", "2",
                "--seed", "0",
                "--baseline",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "mean accuracy" in capsys.readouterr().out
        record = read_report(out / "report.json")
        assert len(record["accuracies"]) == 2
        assert len(record["gcn_baseline_accuracies"]) == 2

    def test_pipeline_overrides_echoed_in_report(self, poisoned_dir, tmp_path):
        out = tmp_path / "run"
        assert main(
            [
                "pipeline",
                "--in", str(poisoned_dir),
                "--k", "3",
                "--t1", "0.1",
                "--out", str(out),
            ]
        ) == 0
        record = read_report(out / "report.json")
        assert record["config"]["k"] == 3
        assert record["config"]["t1"] == pytest.approx(0.1)

    def test_config_file(self, poisoned_dir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"k": 2, "encoder": {"epochs": 10, "hidden": 8}}))
        out = tmp_path / "run"
        assert main(
            ["pipeline", "--in", str(poisoned_dir), "--config", str(cfg), "--out", str(out)]
        ) == 0
        record = read_report(out / "report.json")
        assert record["config"]["k"] == 2
        assert record["config"]["encoder"]["epochs"] == 10

    def test_flag_beats_config_file(self, poisoned_dir, tmp_path):
        # A given flag overrides the file's value; an unset one keeps it.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"k": 2, "t2": 0.1, "encoder": {"epochs": 2}, "classifier": {"epochs": 2}}))
        out = tmp_path / "run"
        argv = ["pipeline", "--in", str(poisoned_dir), "--config", str(cfg), "--k", "3", "--out", str(out)]
        assert main(argv) == 0
        config = read_report(out / "report.json")["config"]
        assert (config["k"], config["t2"]) == (3, 0.1)

    def test_ablate_single_variant(self, poisoned_dir, tmp_path, capsys):
        out = tmp_path / "abl"
        assert main(
            [
                "ablate",
                "--in", str(poisoned_dir),
                "--variant", "prune-only",
                "--out", str(out),
            ]
        ) == 0
        assert "prune-only" in capsys.readouterr().out
        record = read_report(out / "ablation.json")
        assert set(record) == {"prune-only"}

    def test_sweep(self, poisoned_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(
            [
                "sweep",
                "--in", str(poisoned_dir),
                "--param", "k",
                "--values", "0,3",
                "--out", str(out),
            ]
        ) == 0
        record = read_report(out / "sweep.json")
        assert [row["value"] for row in record["rows"]] == [0, 3]

    def test_report_pretty_print(self, poisoned_dir, capsys):
        assert main(["report", "--in", str(poisoned_dir / "perturbation.json")]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["complete"] is True


class _Stop(Exception):
    """Raised by a stubbed stage function once it has recorded its arguments."""


def _recorder(calls, name, passthrough=False):
    def stub(*args):
        calls[name] = args
        if passthrough:
            return args[0]
        raise _Stop

    return stub


class TestStageConfig:
    """embed, refine and train pass PipelineConfig's values to their stage
    functions, with any given flag applied."""

    DEFAULTS = PipelineConfig()

    @pytest.fixture
    def stage_inputs(self, poisoned_dir, tmp_path):
        pre = tmp_path / "pre"
        assert main(["preprocess", "--in", str(poisoned_dir), "--out", str(pre)]) == 0
        z = make_rng(0).normal(size=(60, 4))
        save_features(z, tmp_path / "emb.txt")
        save_features(z, tmp_path / "emb.preact.txt")
        return ["--in", str(poisoned_dir), "--pre", str(pre)], str(tmp_path / "emb.txt")

    @pytest.mark.parametrize(
        "flags, changes", [([], {}), (["--lr", "0.05", "--epochs", "3"], {"lr": 0.05, "epochs": 3})]
    )
    def test_embed(self, stage_inputs, tmp_path, flags, changes, monkeypatch):
        calls = {}
        monkeypatch.setattr("robustgsl.cli.train_encoder", _recorder(calls, "train_encoder"))
        inputs, _ = stage_inputs
        with pytest.raises(_Stop):
            main(["embed", *inputs, "--out", str(tmp_path / "e.txt"), *flags])
        _, _, config, seed = calls["train_encoder"]
        assert (config, seed) == (dataclasses.replace(self.DEFAULTS.encoder, **changes), 0)

    def test_embed_reads_recorded_view_count(self, poisoned_dir, tmp_path, monkeypatch):
        # A second preprocess with fewer views into the same directory leaves
        # view_2.tsv behind; embed trains on the two views preprocess.json records.
        pre = tmp_path / "pre"
        for views in ("3", "2"):
            assert main(["preprocess", "--in", str(poisoned_dir), "--views", views, "--out", str(pre)]) == 0
        assert (pre / "view_2.tsv").exists()
        calls = {}
        monkeypatch.setattr("robustgsl.cli.train_encoder", _recorder(calls, "train_encoder"))
        with pytest.raises(_Stop):
            main(["embed", "--in", str(poisoned_dir), "--pre", str(pre), "--out", str(tmp_path / "e.txt")])
        assert len(calls["train_encoder"][0].views) == 2

    @pytest.mark.parametrize("flags, t2, k", [([], DEFAULTS.t2, DEFAULTS.k), (["--t2", "0.5", "--k", "2"], 0.5, 2)])
    def test_refine(self, stage_inputs, tmp_path, flags, t2, k, monkeypatch):
        calls = {}
        # refine runs pipeline.refine_stage, which calls the names pipeline imports.
        monkeypatch.setattr("robustgsl.pipeline.prune_edges", _recorder(calls, "prune_edges", passthrough=True))
        monkeypatch.setattr("robustgsl.pipeline.topk_insert", _recorder(calls, "topk_insert"))
        inputs, emb = stage_inputs
        with pytest.raises(_Stop):
            main(["refine", *inputs, "--embeddings", emb, "--out", str(tmp_path / "r"), *flags])
        assert (calls["prune_edges"][2], calls["topk_insert"][2]) == (t2, k)

    @pytest.mark.parametrize(
        "flags, changes, mode",
        [([], {}, DEFAULTS.classifier_mode), (["--lr", "0.05", "--mode", "vanilla"], {"lr": 0.05}, "vanilla")],
    )
    def test_train(self, poisoned_dir, flags, changes, mode, monkeypatch):
        calls = {}
        # train runs pipeline.classify_stage, which calls the name pipeline imports.
        monkeypatch.setattr("robustgsl.pipeline.train_classifier", _recorder(calls, "train_classifier"))
        with pytest.raises(_Stop):
            main(["train", "--in", str(poisoned_dir), *flags])
        config, got_mode, alpha, beta, seed = calls["train_classifier"][4:]
        assert config == dataclasses.replace(self.DEFAULTS.classifier, **changes)
        assert (got_mode, alpha, beta, seed) == (mode, self.DEFAULTS.alpha, self.DEFAULTS.beta, 0)


def test_every_config_field_has_a_rule():
    # A PipelineConfig field without a rule would reach a run unchecked.
    def leaves(obj, prefix=""):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                yield from leaves(value, f"{f.name}.")
            else:
                yield prefix + f.name

    assert set(FIELD_RULES) == set(leaves(PipelineConfig()))


class TestErrorExitCodes:
    def test_missing_bundle_is_config_error(self, tmp_path):
        assert main(["pipeline", "--in", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dim", "5", "--on-bits", "6"], "on_bits cannot exceed feature_dim"),
            (["--nodes", "2", "--classes", "3"], "need at least 2 classes and one node per class"),
            (["--p-in", "0.1", "--p-out", "0.1"], "need 0 <= p_out < p_in <= 1"),
        ],
    )
    def test_synth_cross_field_rules_checked(self, tmp_path, flags, message, capsys):
        out = tmp_path / "sbm"
        assert main(["synth", "--nodes", "6", *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file(self, poisoned_dir, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["pipeline", "--in", str(poisoned_dir), "--config", str(cfg)]) == 2

    WRONG_SHAPES = [
        ('{"bogus": 1}', "bogus is not a config key"),
        ('{"encoder": 5}', "encoder must be a JSON object"),
        ("[1]", "the file must be a JSON object"),
        ('{"encoder": "hidden"}', "encoder must be a JSON object"),
        ('{"encoder": {"hiden": 3}}', "encoder.hiden is not a config key"),
    ]

    @pytest.mark.parametrize("text, named", WRONG_SHAPES, ids=[text for text, _ in WRONG_SHAPES])
    def test_config_of_wrong_shape(self, poisoned_dir, tmp_path, text, named, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("pipeline trained an encoder on a config it could not load")

        monkeypatch.setattr("robustgsl.pipeline.train_encoder", no_training)
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["pipeline", "--in", str(poisoned_dir), "--config", str(cfg)]) == 2
        assert f"cannot load config {cfg}: {named}" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, poisoned_dir, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise NumericError("contrastive loss diverged at epoch 0")

        monkeypatch.setattr("robustgsl.pipeline.train_encoder", diverge)
        assert main(["pipeline", "--in", str(poisoned_dir)]) == 3
        assert "numeric failure: contrastive loss diverged at epoch 0" in capsys.readouterr().err

    def test_featureless_preprocess(self, clean_dir, tmp_path, capsys):
        # With X = I every edge scores 0, and the pre-process would remove them all.
        bundle = tmp_path / "featureless"
        shutil.copytree(clean_dir, bundle)
        save_features(np.eye(60), bundle / "features.txt")
        out = tmp_path / "pre"
        assert main(["preprocess", "--in", str(bundle), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "the jaccard pre-process at t1=0.03 removed all" in err and "edges; a lower t1 keeps them" in err
        assert not out.exists()

    def test_sweep_checks_every_value_before_training(self, poisoned_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("robustgsl.pipeline.train_encoder", _no_training)
        out = tmp_path / "sweep"
        argv = ["sweep", "--in", str(poisoned_dir), "--param", "t1", "--values", "0.03,1.5", "--out", str(out)]
        assert main(argv) == 2
        assert "the jaccard pre-process at t1=1.5 removed all" in capsys.readouterr().err
        assert not (out / "sweep.json").exists()

    @pytest.mark.parametrize("command", ["train", "pipeline", "ablate", "sweep"])
    def test_empty_test_split(self, clean_dir, tmp_path, command, monkeypatch, capsys):
        # No test node means no accuracy: the run stops before training and writes nothing.
        monkeypatch.setattr("robustgsl.pipeline.train_encoder", _no_training)
        bundle = tmp_path / "no-test"
        shutil.copytree(clean_dir, bundle)
        split = json.loads((bundle / "split.json").read_text())
        (bundle / "split.json").write_text(json.dumps({**split, "test": []}))
        out = tmp_path / "out"
        extra = ["--param", "k", "--values", "3"] if command == "sweep" else []
        assert main([command, "--in", str(bundle), *extra, "--out", str(out)]) == 2
        assert "test split is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_threshold_value(self, poisoned_dir, capsys):
        # recover_p outside [0, 1] stops at parsing, like every other flag
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--in", str(poisoned_dir), "--recover-p", "2.0"])
        assert exc.value.code == 2
        assert "argument --recover-p: must be a number in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--method", "random", "--ptb-rate", "0.1"],
            ["preprocess"],
            ["refine", "--pre", "pre", "--embeddings", "emb.txt"],
        ],
    )
    def test_out_is_required(self, poisoned_dir, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--in", str(poisoned_dir)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [59, 61])
    def test_refine_preactivation_row_count(self, poisoned_dir, tmp_path, rows, capsys):
        # The bundle has 60 nodes; one pre-activation row per node is required.
        pre = tmp_path / "pre"
        assert main(["preprocess", "--in", str(poisoned_dir), "--out", str(pre)]) == 0
        emb, preact = tmp_path / "emb.txt", tmp_path / "emb.preact.txt"
        z = make_rng(0).normal(size=(rows, 4))
        save_features(z, emb)
        save_features(z, preact)
        capsys.readouterr()
        argv = ["refine", "--in", str(poisoned_dir), "--pre", str(pre), "--embeddings", str(emb)]
        assert main(argv + ["--out", str(tmp_path / "refined")]) == 2
        assert str(preact) in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [59, 61])
    def test_train_embeddings_row_count(self, poisoned_dir, tmp_path, rows, capsys):
        # The bundle has 60 nodes; the error names the embeddings file.
        emb = tmp_path / "emb.txt"
        save_features(make_rng(0).normal(size=(rows, 4)), emb)
        out = tmp_path / "train"
        assert main(["train", "--in", str(poisoned_dir), "--embeddings", str(emb), "--out", str(out)]) == 2
        assert f"{emb}: {rows} rows, but the graph has 60 nodes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("embed", "--epochs", "0"),
            ("embed", "--epochs", "-3"),
            ("embed", "--lr", "-1"),
            ("embed", "--lr", "0"),
            ("embed", "--lr", "nan"),
            ("embed", "--lr", "inf"),
            ("embed", "--patience", "0"),
            ("train", "--epochs", "0"),
            ("train", "--lr", "-1"),
            ("train", "--weight-decay", "-1"),
            ("train", "--weight-decay", "nan"),
            ("pipeline", "--seeds", "0"),
            ("ablate", "--seeds", "0"),
            ("sweep", "--seeds", "0"),
            ("pipeline", "--k", "-1"),
            ("ablate", "--k", "-1"),
            ("sweep", "--k", "-1"),
            ("refine", "--k", "-1"),
            ("train", "--beta", "-1"),
            ("pipeline", "--beta", "-1"),
            ("ablate", "--beta", "-1"),
            ("sweep", "--beta", "-0.5"),
            ("preprocess", "--views", "0"),
            ("pipeline", "--views", "0"),
            ("embed", "--hidden", "0"),
            ("train", "--hidden", "0"),
            ("attack", "--ptb-rate", "1.5"),
            ("attack", "--ptb-rate", "-0.1"),
            ("attack", "--ptb-rate", "nan"),
        ]
        + [(command, flag, value) for command, flag in FINITE_FLAGS for value in ("nan", "inf")]
        + [
            (command, "--seed", value)
            for command in ("attack", "preprocess", "embed", "train", "pipeline", "ablate", "sweep")
            for value in ("-1", "1.5")
        ],
    )
    def test_bad_hyperparameter_rejected(self, poisoned_dir, tmp_path, command, flag, value, capsys):
        argv = [command, "--in", str(poisoned_dir), flag, value]
        if command == "embed":
            argv += ["--pre", str(tmp_path / "pre"), "--out", str(tmp_path / "emb.txt")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err
        assert not (tmp_path / "emb.txt").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--nodes", "0"),
            ("--nodes", "-5"),
            ("--nodes", "1.5"),
            ("--classes", "1"),
            ("--dim", "0"),
            ("--on-bits", "-1"),
            ("--p-in", "1.5"),
            ("--p-in", "nan"),
            ("--p-out", "-0.1"),
            ("--noise", "2"),
            ("--noise", "nan"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_synth_flag_rejected(self, tmp_path, flag, value, capsys):
        out = tmp_path / "sbm"
        with pytest.raises(SystemExit) as exc:
            main(["synth", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param, values", [("k", "1,-1"), ("k", "1,1.5"), ("t2", "0.1,nan"), ("t1", "0.1,inf"), ("alpha", "0.1,x")]
    )
    def test_sweep_values_checked_before_any_run(self, poisoned_dir, tmp_path, param, values, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained an encoder before checking every value")

        monkeypatch.setattr("robustgsl.pipeline.train_encoder", no_training)
        out = tmp_path / "sweep"
        argv = ["sweep", "--in", str(poisoned_dir), "--param", param, f"--values={values}", "--out", str(out)]
        assert main(argv) == 2
        assert "--values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "ablate", "sweep"])
    @pytest.mark.parametrize(
        "config, key",
        [
            ('{"t1": Infinity}', "t1"),
            ('{"t2": NaN}', "t2"),
            ('{"alpha": "x"}', "alpha"),
            ('{"beta": -1.0}', "beta"),
            ('{"k": -1}', "k"),
            ('{"k": 1.5}', "k"),
            ('{"encoder": {"epochs": 0}}', "encoder.epochs"),
            ('{"encoder": {"lr": -0.1}}', "encoder.lr"),
            ('{"classifier": {"epochs": 0}}', "classifier.epochs"),
            ('{"classifier": {"lr": 0}}', "classifier.lr"),
            ('{"classifier": {"weight_decay": -1}}', "classifier.weight_decay"),
            ('{"recover_p": "x"}', "recover_p"),
            ('{"recover_p": 1.5}', "recover_p"),
            ('{"num_views": 0}', "num_views"),
            ('{"metric": "euclid"}', "metric"),
            ('{"augmentation": "mixup"}', "augmentation"),
            ('{"classifier_mode": "magic"}', "classifier_mode"),
            ('{"encoder": {"hidden": 0}}', "encoder.hidden"),
            ('{"classifier": {"hidden": 0}}', "classifier.hidden"),
            ('{"encoder": {"activation": "tanh"}}', "encoder.activation"),
        ],
    )
    def test_config_values_checked_before_any_run(
        self, poisoned_dir, tmp_path, command, config, key, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError(f"{command} trained an encoder before checking the config")

        monkeypatch.setattr("robustgsl.pipeline.train_encoder", no_training)
        cfg = tmp_path / "config.json"
        cfg.write_text(config)
        out = tmp_path / "run"
        argv = [command, "--in", str(poisoned_dir), "--config", str(cfg), "--out", str(out)]
        if command == "sweep":
            argv += ["--param", "k", "--values", "1"]
        assert main(argv) == 2
        assert f"config {cfg}: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["preprocess", "pipeline", "ablate", "sweep"])
    @pytest.mark.parametrize("value", ["2.0", "-0.1", "nan"])
    def test_recover_p_checked_without_views(self, poisoned_dir, tmp_path, command, value, capsys):
        # --aug none builds no recovery views, so nothing downstream checks the flag.
        out = tmp_path / "run"
        argv = [command, "--in", str(poisoned_dir), "--aug", "none", "--recover-p", value, "--out", str(out)]
        if command == "sweep":
            argv += ["--param", "k", "--values", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --recover-p: must be a number in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_cast_like_flags(self, poisoned_dir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"k": "3", "beta": 0, "encoder": {"epochs": 2}, "classifier": {"epochs": 2}}')
        out = tmp_path / "run"
        assert main(["pipeline", "--in", str(poisoned_dir), "--config", str(cfg), "--out", str(out)]) == 0
        config = read_report(out / "report.json")["config"]
        assert (config["k"], config["beta"], config["encoder"]["epochs"]) == (3, 0.0, 2)

    @pytest.mark.parametrize("damage", ["missing", "malformed", "directory"])
    def test_refine_clean_edges_checked(self, clean_dir, poisoned_dir, tmp_path, damage, capsys):
        import shutil

        pre = tmp_path / "pre"
        assert main(["preprocess", "--in", str(poisoned_dir), "--out", str(pre)]) == 0
        z = make_rng(0).normal(size=(60, 4))
        save_features(z, tmp_path / "emb.txt")
        save_features(z, tmp_path / "emb.preact.txt")
        clean = tmp_path / "clean"
        shutil.copytree(clean_dir, clean)
        edges = clean / "edges.tsv"
        if damage == "malformed":
            edges.write_text("0\t1\n2\tx\n")
        else:
            edges.unlink()
            if damage == "directory":
                edges.mkdir()
        capsys.readouterr()
        argv = ["refine", "--in", str(poisoned_dir), "--pre", str(pre), "--embeddings",
                str(tmp_path / "emb.txt"), "--clean", str(clean), "--out", str(tmp_path / "refined")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(edges) in err
        assert not (tmp_path / "refined").exists()
        if damage == "malformed":
            assert f"{edges}:2" in err

    def test_refine_clean_needs_removed_edges(self, clean_dir, poisoned_dir, tmp_path, capsys):
        # The audit counts the pre-process removals too; without their file it
        # stops rather than audit refinement's removals alone.
        pre = tmp_path / "pre"
        assert main(["preprocess", "--in", str(poisoned_dir), "--out", str(pre)]) == 0
        (pre / "removed_edges.tsv").unlink()
        z = make_rng(0).normal(size=(60, 4))
        save_features(z, tmp_path / "emb.txt")
        save_features(z, tmp_path / "emb.preact.txt")
        capsys.readouterr()
        argv = ["refine", "--in", str(poisoned_dir), "--pre", str(pre), "--embeddings",
                str(tmp_path / "emb.txt"), "--clean", str(clean_dir), "--out", str(tmp_path / "refined")]
        assert main(argv) == 2
        assert f"missing file: {pre / 'removed_edges.tsv'}" in capsys.readouterr().err
        assert not (tmp_path / "refined").exists()

    @pytest.mark.parametrize(
        "damage, culprit",
        [
            ("no record", "preprocess.json"),
            ("bad JSON", "preprocess.json"),
            ("no num_views", "preprocess.json"),
            ("num_views 1.5", "preprocess.json"),
            ("num_views true", "preprocess.json"),
            ("num_views 0", "preprocess.json"),
            ("no view_1.tsv", "view_1.tsv"),
        ],
    )
    def test_embed_view_record_checked(self, poisoned_dir, tmp_path, damage, culprit, capsys):
        pre = tmp_path / "pre"
        assert main(["preprocess", "--in", str(poisoned_dir), "--out", str(pre)]) == 0
        meta = pre / "preprocess.json"
        record = json.loads(meta.read_text())
        if damage == "no record":
            meta.unlink()
        elif damage == "bad JSON":
            meta.write_text("{")
        elif damage == "no num_views":
            del record["num_views"]
        elif damage.startswith("num_views"):
            record["num_views"] = json.loads(damage.split()[1])
        else:
            (pre / "view_1.tsv").unlink()
        if meta.exists() and damage != "bad JSON":
            meta.write_text(json.dumps(record))
        capsys.readouterr()
        out = tmp_path / "emb" / "emb.txt"
        assert main(["embed", "--in", str(poisoned_dir), "--pre", str(pre), "--epochs", "2", "--out", str(out)]) == 2
        assert str(pre / culprit) in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_repeated_split_node(self, clean_dir, tmp_path, command, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(clean_dir, broken)
        split = json.loads((broken / "split.json").read_text())
        split["train"].append(split["train"][0])
        (broken / "split.json").write_text(json.dumps(split))
        out = tmp_path / "out"
        assert main([command, "--in", str(broken), "--out", str(out)]) == 2
        assert f"split set train lists node {split['train'][0]} more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["[]", '{"train": [0.7, 1]}', '{"train": [true]}', '{"train": [[1]]}', "{", '{"train": []}',
         '{"train": [0], "val": [0]}'],
    )
    def test_malformed_split(self, clean_dir, tmp_path, text, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(clean_dir, broken)
        (broken / "split.json").write_text(text)
        out = tmp_path / "out"
        assert main(["train", "--in", str(broken), "--out", str(out)]) == 2
        assert f"error: {broken / 'split.json'}: " in capsys.readouterr().err
        assert not out.exists()

    def test_dice_names_unlabelled_node(self, clean_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(clean_dir, broken)
        lines = (broken / "labels.tsv").read_text().splitlines(keepends=True)
        (broken / "labels.tsv").write_text("".join(line for line in lines if line.split()[0] != "4"))
        out = tmp_path / "out"
        assert main(["attack", "--method", "dice", "--ptb-rate", "0.2", "--in", str(broken), "--out", str(out)]) == 2
        assert "node 4 has none" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["train", "--in", "{bundle}", "--graph", "{dir}"], "{dir}"),
            (["train", "--in", "{bundle}", "--embeddings", "{dir}"], "{dir}"),
            (["report", "--in", "{dir}"], "{dir}"),
            (["synth", "--nodes", "6", "--out", "{file}/sub"], "{file}/sub"),
        ],
        ids=["train-graph-dir", "train-embeddings-dir", "report-dir", "synth-out-under-file"],
    )
    def test_unreadable_path(self, poisoned_dir, tmp_path, argv, culprit, capsys):
        # A path that is a directory, or lies under a file, exits 2 and names the path.
        (tmp_path / "file").write_text("")
        paths = {"bundle": poisoned_dir, "dir": tmp_path / "dir", "file": tmp_path / "file"}
        paths["dir"].mkdir()
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert culprit.format(**paths) in capsys.readouterr().err

    def test_report_of_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        assert main(["report", "--in", str(path)]) == 2
        assert f"error: {path}: not valid JSON" in capsys.readouterr().err

    def test_corrupt_bundle_file(self, clean_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(clean_dir, broken)
        (broken / "edges.tsv").write_text("0\t99999\n")
        assert main(["pipeline", "--in", str(broken)]) == 2
        assert "error:" in capsys.readouterr().err

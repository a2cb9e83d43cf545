import dataclasses
import hashlib
import json

import pytest

from robustgsl.cli import FIELD_RULES, main
from robustgsl.data_io import load_features, load_graph_bundle, read_report, save_features
from robustgsl.linalg import make_rng
from robustgsl.pipeline import PipelineConfig


# Flags that take any finite float: NaN and inf must stop at parsing.
FINITE_FLAGS = [("preprocess", "--t1"), ("refine", "--t2"), ("train", "--alpha"), ("train", "--beta")] + [
    (command, flag) for command in ("pipeline", "ablate", "sweep") for flag in ("--t1", "--t2", "--alpha", "--beta")
]


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
        monkeypatch.setattr("robustgsl.cli.train_classifier", _recorder(calls, "train_classifier"))
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
        "flags, field", [(["--on-bits", "-1"], "on_bits"), (["--dim", "0", "--on-bits", "0"], "feature_dim")]
    )
    def test_synth_feature_shape_checked(self, tmp_path, flags, field, capsys):
        out = tmp_path / "sbm"
        assert main(["synth", "--nodes", "6", *flags, "--out", str(out)]) == 2
        assert f"{field} must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file(self, poisoned_dir, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["pipeline", "--in", str(poisoned_dir), "--config", str(cfg)]) == 2

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

    @pytest.mark.parametrize("damage", ["missing", "malformed"])
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
        if damage == "missing":
            edges.unlink()
        else:
            edges.write_text("0\t1\n2\tx\n")
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

    @pytest.mark.parametrize("text", ["[]", '{"train": [0.7, 1]}', '{"train": [true]}', '{"train": [[1]]}', "{"])
    def test_malformed_split(self, clean_dir, tmp_path, text, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(clean_dir, broken)
        (broken / "split.json").write_text(text)
        out = tmp_path / "out"
        assert main(["train", "--in", str(broken), "--out", str(out)]) == 2
        assert f"error: {broken / 'split.json'}: " in capsys.readouterr().err
        assert not out.exists()

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

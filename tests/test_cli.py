import json

import pytest

from robustgsl.cli import main
from robustgsl.data_io import load_features, load_graph_bundle, read_report


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


    def test_preprocess_report_records_applied_defaults(self, poisoned_dir, tmp_path):
        pre = tmp_path / "pre"
        assert main(["preprocess", "--in", str(poisoned_dir), "--out", str(pre)]) == 0
        meta = read_report(pre / "preprocess.json")
        assert meta["t1"] == 0.03
        assert (meta["metric"], meta["aug"], meta["num_views"]) == ("jaccard", "recovery", 2)


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


class TestErrorExitCodes:
    def test_missing_bundle_is_config_error(self, tmp_path):
        assert main(["pipeline", "--in", str(tmp_path / "nope")]) == 2

    def test_bad_config_file(self, poisoned_dir, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["pipeline", "--in", str(poisoned_dir), "--config", str(cfg)]) == 2

    def test_invalid_threshold_value(self, poisoned_dir):
        # recover_p outside [0, 1] is a configuration error
        assert main(["pipeline", "--in", str(poisoned_dir), "--recover-p", "2.0"]) == 2

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

    def test_corrupt_bundle_file(self, clean_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(clean_dir, broken)
        (broken / "edges.tsv").write_text("0\t99999\n")
        assert main(["pipeline", "--in", str(broken)]) == 2
        assert "error:" in capsys.readouterr().err

import json

import numpy as np
import pytest

from anodens.cli import main
from anodens.data import load_csv
from anodens.model import anomaly_score_batch, load_model
from anodens.synth import make_tabular_benchmark


FAST = [
    "--hidden", "16", "--masks", "2", "--orderings", "2",
    "--epochs", "4", "--batch-size", "32",
]


def write_benchmark_csv(path, seed=0, n_normal=80, n_anomaly=20):
    ds = make_tabular_benchmark(seed=seed, n_normal=n_normal, n_anomaly=n_anomaly, n_attributes=3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.attribute_names) + ",label\n")
        for row, label in zip(ds.attributes, ds.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")
    return str(path)


class TestTrainScore:
    def test_train_then_score_roundtrip(self, tmp_path, capsys):
        data = write_benchmark_csv(tmp_path / "d.csv")
        out = tmp_path / "run"
        rc = main(["train", "--data", data, "--out", str(out), "--seed", "1",
                   "--lambda", "1", *FAST])
        assert rc == 0
        assert (out / "model.bin").exists()
        assert (out / "normstats.txt").exists()
        assert (out / "train_report.csv").exists()

        score_out = tmp_path / "scores"
        rc = main(["score", "--model", str(out / "model.bin"), "--data", data,
                   "--out", str(score_out), "--roc"])
        assert rc == 0
        summary = json.loads((score_out / "score_summary.json").read_text())
        assert summary["n_anomalies"] == 20
        assert 0.0 <= summary["auc"] <= 1.0
        lines = (score_out / "scores.csv").read_text().splitlines()
        assert lines[0] == "index,label,score"
        assert len(lines) == 101
        assert (score_out / "roc.tsv").exists()

    def test_sweep_writes_report(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        out = tmp_path / "run"
        rc = main(["sweep", "--data", data, "--out", str(out), "--seed", "0",
                   "--lambda-grid", "0,1000", *FAST])
        assert rc == 0
        lines = (out / "sweep_report.csv").read_text().splitlines()
        assert lines[0] == "lambda,best_epoch,best_val_auc,chosen"
        assert len(lines) == 3
        assert sum(line.endswith(",1") for line in lines[1:]) == 1


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    data = write_benchmark_csv(root / "d.csv")
    rc = main(["train", "--data", data, "--out", str(root / "run"), "--seed", "0", *FAST])
    assert rc == 0
    return root / "d.csv", root / "run" / "model.bin"


class TestScoreInputs:
    def test_normals_only_csv_scores_without_auc(self, trained_model, tmp_path, capsys):
        data, model_path = trained_model
        lines = data.read_text().splitlines()
        path = tmp_path / "normals.csv"
        path.write_text("\n".join([lines[0]] + [l for l in lines[1:] if l.endswith(",0")]) + "\n")
        out = tmp_path / "scores"
        rc = main(["score", "--model", str(model_path), "--data", str(path),
                   "--out", str(out), "--roc"])
        assert rc == 0
        assert "auc=n/a" in capsys.readouterr().out
        summary = json.loads((out / "score_summary.json").read_text())
        assert summary == {"auc": None, "n_anomalies": 0, "n_normals": 80}
        assert not (out / "roc.tsv").exists()
        params, stats = load_model(str(model_path))
        scores = anomaly_score_batch(params, stats.apply(load_csv(str(path), "label").attributes))
        expected = "index,label,score\n" + "".join(
            f"{i},0,{float(s)!r}\n" for i, s in enumerate(scores)
        )
        assert (out / "scores.csv").read_text() == expected

    def test_swapped_columns_rejected(self, trained_model, tmp_path, capsys):
        data, model_path = trained_model
        rows = [line.split(",") for line in data.read_text().splitlines()]
        path = tmp_path / "swapped.csv"
        path.write_text("".join(",".join([r[1], r[0], *r[2:]]) + "\n" for r in rows))
        out = tmp_path / "scores"
        rc = main(["score", "--model", str(model_path), "--data", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: attribute 0 is")
        assert "\n" not in err
        assert not (out / "scores.csv").exists()


class TestExperiment:
    def test_file_contract_and_determinism(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            rc = main(["experiment", "--data", data, "--out", str(out),
                       "--seeds", "0,1", "--lambda-grid", "0,1000", *FAST])
            assert rc == 0
            outs.append(out)
        for out in outs:
            assert (out / "aggregate.csv").exists()
            for seed in (0, 1):
                assert (out / f"report_{seed}.json").exists()
                assert (out / f"scores_{seed}.csv").exists()
        assert (outs[0] / "aggregate.csv").read_bytes() == (outs[1] / "aggregate.csv").read_bytes()
        agg = (outs[0] / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "method,mean_auc,stderr,n_seeds"
        methods = [line.split(",")[0] for line in agg[1:]]
        assert methods == ["proposed", "lambda0", "gaussian", "knn"]

    def test_insufficient_anomalies_fails_with_single_line(self, tmp_path, capsys):
        data = write_benchmark_csv(tmp_path / "d.csv", n_normal=60, n_anomaly=5)
        rc = main(["experiment", "--data", data, "--out", str(tmp_path / "o"),
                   "--seeds", "0", *FAST])
        assert rc != 0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "insufficient anomalies" in err
        assert "\n" not in err


class TestSynthCommand:
    def test_outputs_and_determinism(self, tmp_path):
        outs = []
        for name in ("s_a", "s_b"):
            out = tmp_path / name
            rc = main(["synth", "--scenario", "outside_cluster", "--seed", "3",
                       "--out", str(out), *FAST])
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "dataset.csv").read_bytes() == (outs[1] / "dataset.csv").read_bytes()
        assert (outs[0] / "profile.tsv").read_bytes() == (outs[1] / "profile.tsv").read_bytes()
        lines = (outs[0] / "profile.tsv").read_text().splitlines()
        assert lines[0] == "x\tscore_unsup\tscore_sup"
        assert len(lines) == 202

    def test_outside_anomalies_score_high_for_both_models(self, tmp_path):
        out = tmp_path / "s"
        rc = main(["synth", "--scenario", "outside_cluster", "--seed", "0",
                   "--out", str(out), "--hidden", "32", "--masks", "2",
                   "--orderings", "2", "--epochs", "40", "--batch-size", "16",
                   "--lr", "0.003", "--train-anoms", "4", "--val-anoms", "4"])
        assert rc == 0
        rows = np.loadtxt(out / "profile.tsv", skiprows=1)
        x, unsup, sup = rows[:, 0], rows[:, 1], rows[:, 2]
        center = (x > 0.35) & (x < 0.65)
        edges = (x < 0.08) | (x > 0.92)
        assert unsup[edges].min() > np.median(unsup[center])
        assert sup[edges].min() > np.median(sup[center])

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--scenario", "bogus", "--out", str(tmp_path)])


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        config = tmp_path / "run.cfg"
        config.write_text(
            f"data={data}\nhidden=16\nmasks=2\norderings=2\nepochs=3\n"
            "batch-size=32\nlambda=1\n# comment line\n"
        )
        out = tmp_path / "run"
        rc = main(["train", "--config", str(config), "--out", str(out), "--epochs", "2"])
        assert rc == 0
        report = (out / "train_report.csv").read_text().splitlines()
        # flag --epochs 2 beats config epochs=3: header + 2 epochs + summary
        assert len(report) == 4

    def test_missing_required_option(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "missing required option --data" in capsys.readouterr().err

import argparse
import dataclasses
import inspect
import json

import numpy as np
import pytest

from anodens.baselines import fit_knn, knn_score_batch
from anodens.cli import SEED_OPTIONS, build_parser, main
from anodens.data import NormStats, dedup, load_csv, normalize_minmax, split, write_csv
from anodens.metrics import auc
from anodens.model import BERNOULLI, anomaly_score_batch, load_model, save_model
from anodens.synth import make_tabular_benchmark
from anodens.training import TrainConfig, seeded_setup

from helpers import tiny_params


FAST = [
    "--hidden", "16", "--masks", "2", "--orderings", "2",
    "--epochs", "4", "--batch-size", "32",
]


def write_benchmark_csv(path, seed=0, n_normal=80, n_anomaly=20):
    ds = make_tabular_benchmark(seed=seed, n_normal=n_normal, n_anomaly=n_anomaly, n_attributes=3)
    write_csv(str(path), ds)
    return str(path)


class TestTrainScore:
    def test_train_then_score_roundtrip(self, tmp_path, capsys):
        data = write_benchmark_csv(tmp_path / "d.csv")
        out = tmp_path / "run"
        rc = main(["train", "--data", data, "--out", str(out), "--seed", "1",
                   "--lambda", "1", *FAST])
        assert rc == 0
        assert (out / "model.bin").exists()
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

    def test_components_reaches_the_saved_model(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        out = tmp_path / "run"
        rc = main(["train", "--data", data, "--out", str(out), "--seed", "0",
                   "--components", "1", *FAST])
        assert rc == 0
        params, _ = load_model(str(out / "model.bin"))
        assert params.n_components == 1 and params.head_width == 3

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

    def test_label_none_scores_unlabeled_rows(self, trained_model, tmp_path, capsys):
        data, model_path = trained_model
        path = tmp_path / "unlabeled.csv"
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                for line in data.read_text().splitlines()))
        out = tmp_path / "scores"
        rc = main(["score", "--model", str(model_path), "--data", str(path), "--label", "none",
                   "--out", str(out), "--roc"])
        assert rc == 0
        assert capsys.readouterr().out == "scored 100 instances auc=n/a\n"
        summary = json.loads((out / "score_summary.json").read_text())
        assert summary == {"auc": None, "n_anomalies": None, "n_normals": None}
        assert not (out / "roc.tsv").exists()
        params, stats = load_model(str(model_path))
        scores = anomaly_score_batch(params, stats.apply(load_csv(str(data), "label").attributes))
        expected = "index,label,score\n" + "".join(
            f"{i},,{float(s)!r}\n" for i, s in enumerate(scores)
        )
        assert (out / "scores.csv").read_text() == expected

    @pytest.mark.parametrize("label", [None, "lable"], ids=["missing", "misspelt"])
    def test_label_column_not_in_header_fails(self, trained_model, tmp_path, capsys, label):
        data, model_path = trained_model
        if label is None:
            # unlabeled rows without --label none: the default "label" column is missing
            path = tmp_path / "unlabeled.csv"
            path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                    for line in data.read_text().splitlines()))
        else:
            path = data
        out = tmp_path / "scores"
        rc = main(["score", "--model", str(model_path), "--data", str(path), "--out", str(out),
                   *([] if label is None else ["--label", label])])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: label column {label or 'label'!r} not found in header\n"
        )
        assert not (out / "scores.csv").exists()

    def test_model_trained_on_a_byte_order_mark_csv_scores_the_plain_csv(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "d.csv").read_bytes())
        run = tmp_path / "run"
        assert main(["train", "--data", str(bom), "--out", str(run), *FAST]) == 0
        out = tmp_path / "scores"
        assert main(["score", "--model", str(run / "model.bin"), "--data", data,
                     "--out", str(out)]) == 0
        assert len((out / "scores.csv").read_text().splitlines()) == 101

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

    def test_label_column_kept_by_label_none_is_named(self, trained_model, tmp_path, capsys):
        data, model_path = trained_model
        out = tmp_path / "scores"
        rc = main(["score", "--model", str(model_path), "--data", str(data), "--label", "none",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: the data has 4 attribute columns but the model 3; its last column 'label'"
            " may be a label column, which --label none reads as an attribute\n"
        )
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_attribute_count_mismatch_names_both_counts(self, trained_model, tmp_path, capsys,
                                                        change):
        data, model_path = trained_model
        rows = [line.split(",") for line in data.read_text().splitlines()]
        if change == "extra":  # a fourth attribute column before the label
            rows = [[*r[:3], "0.5" if i else "extra", r[3]] for i, r in enumerate(rows)]
        else:  # the third attribute column dropped
            rows = [[*r[:2], r[3]] for r in rows]
        path = tmp_path / "columns.csv"
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        out = tmp_path / "scores"
        rc = main(["score", "--model", str(model_path), "--data", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: the data has {len(rows[0]) - 1} attribute columns but the model 3\n"
        )
        assert not (out / "scores.csv").exists()

    def test_non_binary_value_rejected_by_bernoulli_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        stats = NormStats(("a", "b", "c"), np.zeros(3), np.ones(3))
        save_model(str(model_path), tiny_params(head=BERNOULLI, seed=1), stats)
        path = tmp_path / "mixed.csv"
        # the blank line 3 still counts, as load_csv counts lines
        path.write_text("a,b,c,label\n1,0,1,0\n\n0,1,1,1\n1,0.5,0,0\n")
        out = tmp_path / "scores"
        rc = main(["score", "--model", str(model_path), "--data", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: attribute b holds non-binary value 0.5 on line 5\n"
        )
        assert not (out / "scores.csv").exists()
        # 7 lies outside the stored [0, 1] range: it must not be clamped to 1 first
        path.write_text("a,b,c,label\n0,7,1,1\n")
        rc = main(["score", "--model", str(model_path), "--data", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: attribute b holds non-binary value 7.0 on line 2\n"
        )
        assert not (out / "scores.csv").exists()

    def test_scores_rise_with_the_distance_past_the_training_max(self, tmp_path, capsys):
        raw = make_tabular_benchmark(seed=0, n_normal=400, n_anomaly=40, n_attributes=8)
        data = tmp_path / "d.csv"
        write_csv(str(data), raw)
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--seed", "0",
                   "--hidden", "64", "--masks", "3", "--orderings", "3", "--epochs", "40",
                   "--lambda", "0"])
        assert rc == 0
        _, stats = load_model(str(tmp_path / "run" / "model.bin"))
        # one normal with a0 at the training max plus k spans
        spans = [0.0, 0.5, 1.0, 3.0, 30.0]
        row = raw.attributes[int(np.flatnonzero(raw.labels == 0)[0])].copy()
        rows = []
        for k in spans:
            row[0] = stats.maxs[0] + k * (stats.maxs[0] - stats.mins[0])
            rows.append(",".join(repr(float(v)) for v in row))
        path = tmp_path / "beyond.csv"
        path.write_text(",".join(raw.attribute_names) + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "scores"
        rc = main(["score", "--model", str(tmp_path / "run" / "model.bin"), "--data", str(path),
                   "--label", "none", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = (out / "scores.csv").read_text().splitlines()[1:]
        scores = [float(line.rsplit(",", 1)[1]) for line in lines]
        assert len(scores) == len(spans)
        assert all(a < b for a, b in zip(scores, scores[1:])), scores

    def test_score_too_far_out_to_be_finite_fails_with_one_line(self, trained_model, tmp_path,
                                                                capsys):
        data, model_path = trained_model
        lines = data.read_text().splitlines()
        path = tmp_path / "far.csv"
        values = lines[2].split(",")
        values[1] = "1e300"
        path.write_text("\n".join([lines[0], lines[1], ",".join(values)]) + "\n")
        out = tmp_path / "scores"
        rc = main(["score", "--model", str(model_path), "--data", str(path), "--out", str(out)])
        assert rc == 1
        name = lines[0].split(",")[1]
        assert capsys.readouterr().err == (
            f"error: attribute {name} holds value 1e+300 on line 3, "
            "too far outside the training range for a finite score\n"
        )
        assert not out.exists()
        # a value that maps beyond float64 fails the same way, before any scoring
        narrow = tmp_path / "narrow.bin"
        stats = NormStats(("a", "b", "c"), np.zeros(3), np.full(3, 1e-3))
        save_model(str(narrow), tiny_params(seed=3), stats)
        path.write_text("a,b,c,label\n0,0,0,0\n0,0,-1e308,1\n")
        rc = main(["score", "--model", str(narrow), "--data", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: attribute c holds value -1e+308 on line 3, "
            "too far outside the training range for a finite score\n"
        )
        assert not out.exists()

    def test_malformed_model_header_fails_with_one_line(self, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        save_model(str(model_path), tiny_params(seed=2))
        with np.load(model_path) as payload:
            arrays = dict(payload)
        header = json.loads(bytes(arrays["header_json"]).decode())
        header["n_orderings"] = "2"
        arrays["header_json"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
        with open(model_path, "wb") as fh:
            np.savez(fh, **arrays)
        data = tmp_path / "rows.csv"
        data.write_text("a,b,c,label\n0.1,0.2,0.3,0\n")
        rc = main(["score", "--model", str(model_path), "--data", str(data),
                   "--out", str(tmp_path / "scores")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: model file {model_path} header key 'n_orderings' is '2', "
            "expected an integer\n"
        )


METHODS = ["proposed", "lambda0", "gaussian", "knn"]


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
        assert [line.split(",")[0] for line in agg[1:]] == METHODS

    def test_grid_without_zero_still_reports_lambda0(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        reports = {}
        for grid in ("10", "0,10"):
            out = tmp_path / grid
            rc = main(["experiment", "--data", data, "--out", str(out), "--seeds", "0",
                       "--lambda-grid", grid, *FAST])
            assert rc == 0
            reports[grid] = json.loads((out / "report_0.json").read_text())
            agg = (out / "aggregate.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in agg[1:]] == METHODS
        assert reports["10"]["chosen_lambda"] == 10.0
        assert list(reports["10"]["lambda_val_auc"]) == ["10"]
        # the lambda=0 model trained apart is the one the sweep over 0,10 trains
        lambda0 = [r["auc_per_method"]["lambda0"] for r in reports.values()]
        assert lambda0[0] == lambda0[1]

    def test_knn_k_reaches_the_baseline(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        out = tmp_path / "o"
        rc = main(["experiment", "--data", data, "--out", str(out), "--seeds", "0",
                   "--lambda-grid", "0", "--knn-k", "1", *FAST])
        assert rc == 0
        report = json.loads((out / "report_0.json").read_text())
        # the experiment's split of seed 0, with the default anomaly counts
        ds, _ = normalize_minmax(dedup(load_csv(data, "label")))
        bundle = split(ds, 0)
        test_normals = ds.attributes[bundle.test_normal]
        test_anomalies = ds.attributes[bundle.test_anom]
        aucs = {}
        for k in (1, 5):
            knn = fit_knn(ds.attributes[bundle.train_normal], k=k)
            aucs[k] = auc(knn_score_batch(knn, test_anomalies), knn_score_batch(knn, test_normals))
        assert aucs[1] != aucs[5]  # so the AUC tells the two apart
        assert report["auc_per_method"]["knn"] == aucs[1]

    def test_diverging_optimiser_fails_with_single_line(self, tmp_path, capsys):
        data = write_benchmark_csv(tmp_path / "d.csv")
        out = tmp_path / "o"
        rc = main(["experiment", "--data", data, "--out", str(out), "--seeds", "0",
                   "--lambda-grid", "0,1000", *FAST, "--lr", "1e12"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: lambda=0 diverged at epoch 1: non-finite validation scores; "
            "try a lower --lr than 1e+12\n"
        )
        assert not (out / "aggregate.csv").exists()

    def test_out_of_range_knn_k_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def sweep_lambda(*args, **kwargs):
            raise AssertionError("the sweep ran before knn_k was checked")

        monkeypatch.setattr("anodens.training.sweep_lambda", sweep_lambda)
        data = write_benchmark_csv(tmp_path / "d.csv")
        out = tmp_path / "o"
        # the split of seed 0 keeps 80% of the 80 normals for training
        for k in ("0", "1000"):
            rc = main(["experiment", "--data", data, "--out", str(out), "--seeds", "0",
                       "--knn-k", k, *FAST])
            assert rc == 1
            assert capsys.readouterr().err == f"error: k must lie in [1, 64], got {k}\n"
            assert not out.exists()

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

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "s"
        rc = main(["synth", "--scenario", "both", "--seed", "-1", "--out", str(out), *FAST])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not (out / "dataset.csv").exists()

    def test_out_of_range_option_writes_no_dataset(self, tmp_path, capsys):
        out = tmp_path / "s"
        rc = main(["synth", "--scenario", "both", "--lr", "nan", "--out", str(out), *FAST])
        assert rc == 1
        assert capsys.readouterr().err == "error: learning rate must be finite, got nan\n"
        assert not out.exists()


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

    def test_config_with_a_byte_order_mark(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        config = tmp_path / "run.cfg"
        # the mark sits before the first key, which must still read as --epochs
        config.write_text(f"epochs=2\ndata={data}\nhidden=16\nmasks=2\norderings=2\n",
                          encoding="utf-8-sig")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        # header + 2 epochs + summary
        assert len((out / "train_report.csv").read_text().splitlines()) == 4

    def test_missing_required_option(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "missing required option --data" in capsys.readouterr().err

    def test_lambda_reaches_training_and_flags_win_before_config(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        config = tmp_path / "run.cfg"
        config.write_text(
            f"data={data}\nhidden=16\nmasks=2\norderings=2\nepochs=3\n"
            "batch_size=32\nlambda=1\n"
        )
        out = tmp_path / "run"
        rc = main(["train", "--epochs", "2", "--config", str(config), "--out", str(out)])
        assert rc == 0
        report = (out / "train_report.csv").read_text().splitlines()
        assert len(report) == 4
        assert report[-1].endswith(" lambda=1.0")

    def test_underscore_key_matches_flag(self, tmp_path):
        data = write_benchmark_csv(tmp_path / "d.csv")
        outs = []
        for name, spelling in (("a", "batch_size"), ("b", "batch-size")):
            config = tmp_path / f"{name}.cfg"
            config.write_text(f"{spelling}=16\n")
            outs.append(tmp_path / name)
            rc = main(["train", "--config", str(config), "--data", data,
                       "--out", str(outs[-1]), *FAST[:-2], "--epochs", "2"])
            assert rc == 0
        flagged = tmp_path / "flag"
        rc = main(["train", "--data", data, "--out", str(flagged), *FAST[:-2],
                   "--epochs", "2", "--batch-size", "16"])
        assert rc == 0
        for out in outs:
            assert (out / "model.bin").read_bytes() == (flagged / "model.bin").read_bytes()

    def test_option_of_another_subcommand_rejected(self, tmp_path, capsys):
        data = write_benchmark_csv(tmp_path / "d.csv")
        config = tmp_path / "run.cfg"
        config.write_text("hidden=16\nseeds=0..3\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(config), "--data", data, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config {config}: unknown option --seeds\n"
        assert not (out / "model.bin").exists()

    def test_included_config_rejected(self, tmp_path, capsys):
        data = write_benchmark_csv(tmp_path / "d.csv")
        inner = tmp_path / "inner.cfg"
        inner.write_text("hidden=8\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"# wraps another file\nconfig={inner}\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(config), "--data", data, "--out", str(out), *FAST])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: config {config}: line 2 includes another config\n"
        assert not (out / "model.bin").exists()

    @pytest.mark.parametrize(
        "line, flag", [("conf={inner}", "--conf"), ("epoch=1", "--epoch")], ids=["conf", "epoch"]
    )
    def test_key_that_abbreviates_a_flag_rejected(self, tmp_path, capsys, line, flag):
        data = write_benchmark_csv(tmp_path / "d.csv")
        inner = tmp_path / "inner.cfg"
        inner.write_text("epochs=1\n")
        config = tmp_path / "run.cfg"
        config.write_text("hidden=16\n" + line.format(inner=inner) + "\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(config), "--data", data, "--out", str(out), *FAST])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config {config}: unknown option {flag}\n"
        assert not (out / "model.bin").exists()

    def test_data_file_in_a_synth_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("data=x\n")
        out = tmp_path / "s"
        rc = main(["synth", "--config", str(config), "--scenario", "both",
                   "--out", str(out), *FAST])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config {config}: unknown option --data\n"
        assert not out.exists()

    def test_malformed_value_fails_like_the_flag(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epochs=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "argument --epochs: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambda", "nan"], "regularizer weight must be finite, got nan"),
        (["--lambda", "inf"], "regularizer weight must be finite, got inf"),
        (["--lr", "nan"], "learning rate must be finite, got nan"),
        (["--patience", "0"], "patience must be at least 1"),
        (["--train-anoms", "-1"], "n_train_anom must be non-negative, got -1"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
        (["--lambda", "-1"], "regularizer weight must be non-negative, got -1.0"),
    ],
)
def test_out_of_range_training_option_rejected(tmp_path, capsys, flags, message):
    data = write_benchmark_csv(tmp_path / "d.csv")
    out = tmp_path / "o"
    rc = main(["train", "--data", data, "--out", str(out), *FAST, *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [
        (["sweep", "--lambda-grid", "0,-1"], "regularizer weight must be non-negative, got -1.0"),
        (["score", "--model", "missing.bin"], "No such file or directory: 'missing.bin'"),
    ],
)
def test_rejected_run_leaves_no_output_directory(tmp_path, capsys, monkeypatch, command,
                                                  message):
    monkeypatch.chdir(tmp_path)
    data = write_benchmark_csv(tmp_path / "d.csv")
    out = tmp_path / "o"
    rc = main([*command, "--data", data, "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "seeds, message",
    [
        pytest.param("3..1", "empty seed list", id="3..1"),
        pytest.param(",", "empty seed list", id=","),
        pytest.param("0,-1", "seed must be non-negative, got -1", id="0,-1"),
        pytest.param("0,0", "seed list '0,0' repeats a seed", id="0,0"),
    ],
)
def test_empty_seed_list_rejected(tmp_path, capsys, seeds, message):
    data = write_benchmark_csv(tmp_path / "d.csv")
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--data", data, "--out", str(out), "--seeds", seeds, *FAST])
    assert exc.value.code == 2
    assert f"argument --seeds: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--data", "x"],
        ["synth", "--label", "y"],
        ["synth", "--lambda-grid", "1"],
        ["train", "--lambda-grid", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_option_the_command_does_not_read_rejected(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


def test_every_option_without_a_default_reaches_the_library():
    """A flag left out of `SEED_OPTIONS` would be parsed and silently dropped."""
    parser = build_parser()
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in subcommands.choices.items():
        for action in sub._actions:
            if action.default is argparse.SUPPRESS and "--help" not in action.option_strings:
                assert action.dest in SEED_OPTIONS, (command, action.dest)
    setup_options = {
        name for name, p in inspect.signature(seeded_setup).parameters.items()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    }
    config_fields = {field.name for field in dataclasses.fields(TrainConfig)}
    assert set(SEED_OPTIONS) <= setup_options | config_fields | {"knn_k"}

"""Tests of the benchmark's own arithmetic.  Run: python3 -m pytest bench -q"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from anodens import data, model, synth, training  # noqa: E402
from probe import Recorder, Span, TraceError, patched, percentile, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("child", 1.0, 4.0, 0, 0),
        Span("grandchild", 2.0, 3.0, 1, 0),
        Span("sibling", 5.0, 8.0, 0, 0),
        Span("other_root", 11.0, 12.5, None, 1),
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 1.5]


def test_self_times_sum_to_root_duration():
    spans = [Span("a", 0.0, 7.0, None, 0), Span("b", 1.0, 2.5, 0, 0), Span("c", 3.0, 6.0, 0, 0),
             Span("d", 4.0, 5.0, 2, 0)]
    assert sum(self_times(spans)) == pytest.approx(7.0)


def test_recorder_links_parents_and_closes_spans_on_error():
    rec = Recorder(trace=True)
    rec.op = 7
    with pytest.raises(ZeroDivisionError):
        with rec.span("outer"):
            with rec.span("inner", work=3):
                pass
            with rec.span("failing"):
                1 / 0
    names = [(s.name, s.parent, s.op) for s in rec.spans]
    assert names == [("outer", None, 7), ("inner", 0, 7), ("failing", 0, 7)]
    assert all(s.end >= s.start for s in rec.spans)
    assert rec.calls["inner"] == 1 and rec.work["inner"] == 3


def test_untraced_recorder_counts_without_spans():
    rec = Recorder(trace=False)
    with rec.span("x", work=5):
        pass
    assert rec.spans == [] and rec.calls["x"] == 1 and rec.work["x"] == 5


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 90) == 3.0


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_missing_public_function_fails_loudly_and_restores():
    original = training.adam_step
    targets = [("anodens.training", "adam_step", "training.adam", None),
               ("anodens.training", "no_such_function", "x", None)]
    with pytest.raises(TraceError, match="anodens.training.no_such_function"):
        with patched(Recorder(trace=True), targets):
            pass
    assert training.adam_step is original


def test_expected_counts_by_hand():
    # 160 train normals in batches of 64 -> 3 steps per epoch; 2 epochs; grid {0, 10}
    calls, work = workloads.expected_sweep_counts(
        n_train=160, n_val=23, n_test=64, n_row_requests=25,
        grid=(0.0, 10.0, 0.0), epochs=2, batch=64, n_train_anom=3)
    assert calls["objective"] == calls["model.backward"] == calls["training.adam"] == 12
    assert calls["training.val_score"] == 8
    assert calls["model.forward"] == 12 + 8 + 2 + 25
    assert work["model.backward"] == 2 * (160 + 160 + 3 * 3)
    assert work["objective"] == 2 * 3 * 160
    assert work["model.forward"] == work["model.backward"] + 2 * 2 * 23 + 2 * 64 + 25


def _tiny_prepared(seed=0):
    raw = synth.make_tabular_benchmark(seed, n_normal=100, n_anomaly=30, n_attributes=3)
    ds, _ = data.normalize_minmax(data.dedup(raw))
    masks = model.build_masks(3, 8, 1, 2, seed=1000 + seed)
    return workloads.Prepared(ds, model.init_params(masks, model.GAUSSIAN_MIXTURE, 2, seed=2000 + seed))


def test_expected_counts_match_a_real_pass(tmp_path):
    rec, tally = Recorder(trace=True), workloads.Tally()
    runner = workloads.SweepPasses(_tiny_prepared(), seed=0, workdir=tmp_path)
    with patched(rec, workloads.WRAPPED):
        result = runner.run(rec, tally)
    assert tally.problems == [] and tally.failed == 0
    assert result is not None and len(result.reports) == len(set(workloads.SWEEP_GRID))
    # every wrapped boundary was seen, and the wrappers were removed again
    assert {"model.forward", "model.backward", "objective", "training.adam",
            "training.val_score", "training.train", "metrics.auc"} <= set(rec.calls)
    assert not hasattr(training.train, "__wrapped__")


def test_failed_sweep_counts_every_lambda_run(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise ValueError("scores must be finite")

    monkeypatch.setattr(training, "sweep_lambda", diverge)
    tally = workloads.Tally()
    runner = workloads.SweepPasses(_tiny_prepared(), seed=0, workdir=tmp_path)
    assert runner.run(Recorder(trace=False), tally) is None
    assert tally.attempted == tally.failed == len(set(workloads.SWEEP_GRID))


def test_binary_generator_has_fixed_sizes_and_bernoulli_head():
    ds = workloads.make_binary(3, 200, 50)
    assert ds.n_instances == 250 and int(ds.labels.sum()) == 50
    assert data.dedup(ds).n_instances == 250
    assert model.choose_head(ds.attribute_kinds) == model.BERNOULLI
    assert np.isin(ds.attributes, (0.0, 1.0)).all()

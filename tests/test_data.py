import os
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anodens import data
from anodens.data import (
    BINARY,
    CONTINUOUS,
    Dataset,
    NormStats,
    dedup,
    load_csv,
    normalize_minmax,
    read_csv,
    split,
)
from anodens.model import load_model, save_model

from helpers import assert_partition, split_parts, tiny_params


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return str(path)


@pytest.fixture
def toy_dataset():
    rng = np.random.default_rng(5)
    attrs = rng.uniform(size=(50, 3))
    labels = np.zeros(50, dtype=np.int64)
    labels[:10] = 1
    return Dataset(attrs, labels, ("a", "b", "c"), (CONTINUOUS,) * 3)


class TestLoadCsv:
    def test_benchmark_shaped_file(self, tmp_path):
        # 625 rows, 8 attribute columns, 125 anomalies
        rng = np.random.default_rng(0)
        rows = []
        for i in range(625):
            label = 1 if i < 125 else 0
            rows.append(list(rng.uniform(size=8).round(6)) + [label])
        path = write_csv(tmp_path / "d.csv", [f"a{j}" for j in range(8)] + ["label"], rows)
        ds = load_csv(path, "label")
        assert ds.n_instances == 625
        assert ds.n_attributes == 8
        assert len(ds.anomaly_indices()) == 125
        assert len(ds.normal_indices()) == 500

    def test_header_only_is_zero_rows(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "label"], [])
        with pytest.raises(ValueError, match="zero data rows"):
            load_csv(path, "label")

    def test_three_rows_label_counts(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "label"], [[1.0, 0], [2.0, 0], [3.0, 1]])
        ds = load_csv(path, "label")
        assert len(ds.anomaly_indices()) == 1
        assert len(ds.normal_indices()) == 2

    def test_string_labels_and_column_by_index(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", ["y", "a"], [["normal", 0.5], ["anomaly", 0.7]]
        )
        ds = load_csv(path, 0)
        assert ds.labels.tolist() == [0, 1]
        assert ds.attribute_names == ("a",)

    def test_binary_kind_detection(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["bin", "cont", "label"],
            [[0, 0.2, 0], [1, 0.4, 0], [1, 0.9, 1]],
        )
        ds = load_csv(path, "label")
        assert ds.attribute_kinds == (BINARY, CONTINUOUS)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(str(tmp_path / "nope.csv"), "label")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n1,0\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(str(path), "label")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, token):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,label\n1,2,0\n1,{token},0\n")
        with pytest.raises(ValueError, match="non-finite attribute value on line 3"):
            load_csv(str(path), "label")

    def test_multi_line_quoted_header_counts_file_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"a\nx",b,label\n1,2,0\n1,nan,0\n')
        with pytest.raises(ValueError, match="non-finite attribute value on line 4"):
            load_csv(str(path), "label")
        path.write_text('"a\nx",b,label\n1,2,0\n\n3,4,1\n')
        assert read_csv(str(path), "label").line_numbers == (3, 5)

    def test_multi_line_quoted_field_counts_file_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        # float() strips the newline, so the first row parses; it spans lines 2-3
        path.write_text('a,b,label\n"1\n",2,0\n3,4,1\n')
        assert read_csv(str(path), "label").line_numbers == (2, 4)
        path.write_text('a,b,label\n"1\n",2,0\n"x\ny",4,1\n')
        with pytest.raises(ValueError, match="non-numeric attribute value on line 4"):
            load_csv(str(path), "label")
        path.write_text('a,b,label\n"1\n",2,0\n"x\ny",4\n')
        with pytest.raises(ValueError, match="ragged row on line 4"):
            load_csv(str(path), "label")
        path.write_text('a,b,label\n"1\n\n",2,0\n3,4,"no\nrmal"\n')
        with pytest.raises(ValueError, match=r"unparseable label 'no\\nrmal' on line 5"):
            load_csv(str(path), "label")

    @pytest.mark.parametrize("label_first", [False, True])
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, label_first):
        path = tmp_path / "d.csv"
        header, row = ("label,x,y", "1,0.5,0.25") if label_first else ("x,y,label", "0.5,0.25,1")
        path.write_text(f"{header}\n{row}\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        table = read_csv(str(path), "label")
        assert table.attribute_names == ("x", "y")
        assert table.attributes.tolist() == [[0.5, 0.25]] and table.labels.tolist() == [1]

    def test_bad_label_value(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "label"], [[1.0, 2]])
        with pytest.raises(ValueError, match="label"):
            load_csv(str(path), "label")

    def test_unknown_label_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "label"], [[1.0, 0]])
        with pytest.raises(ValueError, match="not found"):
            load_csv(str(path), "target")


    def test_without_label_column_every_column_is_an_attribute(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "label"], [[1.5, 0], [2.5, 1]])
        table = read_csv(path, None)
        assert table.labels is None and table.attribute_names == ("a", "label")
        assert table.attributes.tolist() == [[1.5, 0.0], [2.5, 1.0]]
        labeled = read_csv(path, "label")
        assert labeled.labels.tolist() == [0, 1] and labeled.attribute_names == ("a",)

    def test_written_dataset_reads_back_bit_for_bit(self, tmp_path):
        values = [[0.1 + 0.2, -0.0], [5e-324, -1.797e308], [0.5, 1.0]]
        ds = Dataset(values, [0, 1, 0], ("a", "b,c"), (CONTINUOUS, CONTINUOUS))
        path = str(tmp_path / "d.csv")
        data.write_csv(path, ds)
        back = load_csv(path, "label")
        # bytes, as array equality would not tell -0.0 from 0.0
        assert back.attributes.tobytes() == ds.attributes.tobytes()
        assert back.labels.tolist() == [0, 1, 0]
        assert back.attribute_names == ("a", "b,c")


class TestNormalize:
    def test_linear_map_endpoints(self):
        ds = Dataset(np.array([[2.0], [4.0], [6.0]]), [0, 0, 1], ("a",), (CONTINUOUS,))
        out, stats = normalize_minmax(ds)
        assert out.attributes[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert stats.mins[0] == 2.0 and stats.maxs[0] == 6.0

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(np.array([[5.0], [5.0], [5.0]]), [0, 0, 1], ("a",), (CONTINUOUS,))
        out, _ = normalize_minmax(ds)
        assert out.attributes[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_already_unit_range_unchanged(self):
        ds = Dataset(np.array([[0.0], [0.25], [1.0]]), [0, 0, 1], ("a",), (CONTINUOUS,))
        out, _ = normalize_minmax(ds)
        assert out.attributes[:, 0].tolist() == [0.0, 0.25, 1.0]

    def test_binary_column_untouched(self):
        attrs = np.array([[0.0, 3.0], [1.0, 9.0], [1.0, 6.0]])
        ds = Dataset(attrs, [0, 0, 1], ("b", "c"), (BINARY, CONTINUOUS))
        out, _ = normalize_minmax(ds)
        assert out.attributes[:, 0].tolist() == [0.0, 1.0, 1.0]

    def test_continuous_columns_span_unit_interval(self, toy_dataset):
        out, _ = normalize_minmax(toy_dataset)
        for j in range(out.n_attributes):
            col = out.attributes[:, j]
            assert col.min() == 0.0
            assert col.max() == 1.0

    def test_apply_maps_unseen_values_linearly(self):
        stats = NormStats(("a",), np.array([0.0]), np.array([10.0]))
        out = stats.apply(np.array([[-5.0], [5.0], [20.0], [310.0]]))
        assert out[:, 0].tolist() == [-0.5, 0.5, 2.0, 31.0]

    @pytest.mark.parametrize(
        "column, expected",
        [([-1e308, 0.0, 1e308], [0.0, 0.5, 1.0]), ([-1.7e308, 1.7e308], [0.0, 1.0])],
    )
    def test_column_whose_range_overflows_maps_exactly(self, column, expected):
        ds = Dataset(np.array(column)[:, None], [0] * len(column), ("a",), (CONTINUOUS,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, stats = normalize_minmax(ds)
            unseen = stats.apply(np.array([[-np.finfo(float).max], [np.finfo(float).max]]))
        assert out.attributes[:, 0].tolist() == expected
        # unseen values map linearly too, beyond [0, 1] and finite
        lo, hi = Fraction(column[0]), Fraction(column[-1])
        exact = [(Fraction(v) - lo) / (hi - lo) for v in (-np.finfo(float).max, np.finfo(float).max)]
        np.testing.assert_allclose(unseen[:, 0], [float(v) for v in exact], rtol=1e-15, atol=0)
        assert unseen[0, 0] < 0.0 and unseen[1, 0] > 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 4).flatmap(lambda d: st.lists(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, 1.0, -0.0, 5e-324, np.finfo(float).max,
                                     -np.finfo(float).max]),
                ),
                min_size=d, max_size=d,
            ),
            min_size=1, max_size=12,
        ))
    )
    @example(rows=[[-1e308], [0.0], [1e308]])
    @example(rows=[[-1.7e308, 0.0], [1.7e308, 1.0]])
    def test_csv_training_rows_map_into_unit_interval_exactly(self, rows):
        names = tuple(f"a{j}" for j in range(len(rows[0])))
        labels = [i % 2 for i in range(len(rows))]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            data.write_csv(path, Dataset(rows, labels, names, (CONTINUOUS,) * len(names)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ds = dedup(load_csv(path, "label"))
                normalized, stats = normalize_minmax(ds)
                out = stats.apply(ds.attributes)
        np.testing.assert_array_equal(out, normalized.attributes)
        assert ((out >= 0.0) & (out <= 1.0)).all()
        for j, kind in enumerate(ds.attribute_kinds):
            column = ds.attributes[:, j]
            if kind == BINARY:
                np.testing.assert_array_equal(out[:, j], column)
            elif column.min() < column.max():
                assert out[column.argmin(), j] == 0.0 and out[column.argmax(), j] == 1.0
            else:
                assert (out[:, j] == 0.0).all()

    def test_stats_roundtrip(self, tmp_path, toy_dataset):
        # the model file stores the stats; names may hold "=", "," or a newline
        _, stats = normalize_minmax(toy_dataset)
        stats = NormStats(("a=1", "b,c", "d\n"), stats.mins, stats.maxs)
        path = str(tmp_path / "model.bin")
        save_model(path, tiny_params(n_attributes=toy_dataset.n_attributes), stats)
        _, loaded = load_model(path)
        assert loaded.attribute_names == stats.attribute_names
        np.testing.assert_array_equal(loaded.mins, stats.mins)
        np.testing.assert_array_equal(loaded.maxs, stats.maxs)


class TestDedup:
    def test_exact_duplicates_collapse(self):
        attrs = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        ds = Dataset(attrs, [0, 0, 1], ("a", "b"), (CONTINUOUS,) * 2)
        out = dedup(ds)
        assert out.n_instances == 2
        np.testing.assert_array_equal(out.attributes[0], [1.0, 2.0])

    def test_same_attributes_different_labels_kept(self):
        attrs = np.array([[1.0], [1.0]])
        ds = Dataset(attrs, [0, 1], ("a",), (CONTINUOUS,))
        assert dedup(ds).n_instances == 2

    def test_distinct_rows_identity(self, toy_dataset):
        out = dedup(toy_dataset)
        np.testing.assert_array_equal(out.attributes, toy_dataset.attributes)
        np.testing.assert_array_equal(out.labels, toy_dataset.labels)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        # coarse values force collisions
        attrs = rng.integers(0, 3, size=(20, 2)).astype(float)
        labels = rng.integers(0, 2, size=20)
        ds = Dataset(attrs, labels, ("a", "b"), (CONTINUOUS,) * 2)
        once = dedup(ds)
        twice = dedup(once)
        np.testing.assert_array_equal(once.attributes, twice.attributes)
        np.testing.assert_array_equal(once.labels, twice.labels)


class TestSplit:
    def make(self, n_normal, n_anom, seed=0):
        attrs = np.arange(float(n_normal + n_anom))[:, None]
        labels = np.r_[np.zeros(n_normal, int), np.ones(n_anom, int)]
        return Dataset(attrs, labels, ("a",), (CONTINUOUS,))

    def test_protocol_counts(self):
        ds = self.make(100, 10)
        bundle = split(ds, seed=3, n_train_anom=3, n_val_anom=3)
        assert len(bundle.train_normal) == 80
        assert len(bundle.val_normal) == 10
        assert len(bundle.test_normal) == 10
        assert len(bundle.train_anom) == 3
        assert len(bundle.val_anom) == 3
        assert len(bundle.test_anom) == 4

    def test_insufficient_anomalies(self):
        ds = self.make(100, 5)
        with pytest.raises(ValueError, match="insufficient anomalies"):
            split(ds, seed=0, n_train_anom=3, n_val_anom=3)

    @pytest.mark.parametrize("counts, name", [((-1, 3), "n_train_anom"), ((0, -1), "n_val_anom")])
    def test_negative_anomaly_count_rejected(self, counts, name):
        ds = self.make(40, 16)
        with pytest.raises(ValueError, match=f"{name} must be non-negative, got -1"):
            split(ds, 0, *counts)
        # a zero count is allowed and still yields disjoint sets
        assert_partition(split(ds, 0, *(max(c, 0) for c in counts)), 56)

    def test_insufficient_normals(self):
        ds = self.make(5, 10)
        with pytest.raises(ValueError, match="insufficient normals"):
            split(ds, seed=0)

    def test_deterministic(self):
        ds = self.make(40, 10)
        a = split(ds, seed=11)
        b = split(ds, seed=11)
        for left, right in zip(split_parts(a), split_parts(b)):
            np.testing.assert_array_equal(left, right)

    def test_disjoint_cover_over_many_seeds(self):
        ds = self.make(40, 10)  # 50-instance toy dataset
        for seed in range(1000):
            bundle = split(ds, seed=seed)
            assert_partition(bundle, 50)
            # anomaly indices stay anomalous, normals stay normal
            assert set(np.concatenate([bundle.train_anom, bundle.val_anom, bundle.test_anom])) <= set(range(40, 50))

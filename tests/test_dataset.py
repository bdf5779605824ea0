import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapnet.dataset import (
    DatasetError,
    compute_stats,
    load_csv,
    normalize,
    save_csv,
    split,
)
from conftest import make_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_empty_cell_is_missing(tmp_path):
    path = write(tmp_path, "a,b,label\n1,2,0\n3,,1\n5,6,0\n")
    ds = load_csv(path)
    assert (~ds.present).sum() == 1
    assert not ds.present[1, 1]
    assert np.isnan(ds.values[1, 1])
    assert ds.labels.tolist() == [0, 1, 0]


def test_load_csv_missing_token(tmp_path):
    path = write(tmp_path, "a,b,label\n1,NA,0\n3,4,1\n")
    ds = load_csv(path)
    assert not ds.present[0, 1]


def test_fully_complete_file(tmp_path):
    path = write(tmp_path, "a,b,label\n1,2,0\n3,4,1\n")
    ds = load_csv(path)
    assert ds.complete_rows().tolist() == [0, 1]


def test_round_trip_preserves_everything(tmp_path, paper_madelon):
    path = tmp_path / "madelon.csv"
    save_csv(paper_madelon, path)
    again = load_csv(path, missing_token="")
    assert again.feature_names == paper_madelon.feature_names
    assert np.array_equal(again.present, paper_madelon.present)
    assert np.array_equal(again.labels, paper_madelon.labels)
    mask = paper_madelon.present
    assert np.array_equal(again.values[mask], paper_madelon.values[mask])


# names with commas, quotes and line breaks, which the CSV writer must quote
CSV_NAMES = st.text(alphabet=' ab,"\'\n\r', max_size=5).filter(lambda s: s != "label")
CSV_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.225e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False),  # subnormals and infinities included
)


# tokens that csv.writer leaves bare, quotes, or that load_csv strips to ""
CSV_TOKENS = ["", "NA", "?", "missing", ",", '"', "a\nb", " ", "\r", "\t", 'x,y"z']


def draw_dataset(data):
    n, f = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    names = data.draw(st.lists(CSV_NAMES, min_size=f, max_size=f, unique=True))
    cells = st.lists(CSV_VALUES, min_size=n * f, max_size=n * f)
    values = np.array(data.draw(cells)).reshape(n, f)
    present = np.array(data.draw(st.lists(st.booleans(), min_size=n * f, max_size=n * f)))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return make_dataset(values, present.reshape(n, f), labels, names)


def reference_save_csv(ds, path, missing_token="", label_column="label"):
    """save_csv as first written: every row through csv.writer, cell by cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [label_column])
        for i in range(ds.n_samples):
            row = [
                repr(float(ds.values[i, j])) if ds.present[i, j] else missing_token
                for j in range(ds.n_features)
            ]
            row.append(str(int(ds.labels[i])))
            writer.writerow(row)


@given(data=st.data(), token=st.sampled_from(CSV_TOKENS), label_column=CSV_NAMES)
@settings(max_examples=80, deadline=None)
def test_save_csv_writes_the_csv_writer_bytes(tmp_path_factory, data, token, label_column):
    ds = draw_dataset(data)
    d = tmp_path_factory.mktemp("bytes")
    save_csv(ds, d / "new.csv", missing_token=token, label_column=label_column)
    reference_save_csv(ds, d / "ref.csv", missing_token=token, label_column=label_column)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


@given(data=st.data(), token=st.sampled_from(CSV_TOKENS))
@settings(max_examples=60, deadline=None)
def test_csv_round_trip(tmp_path_factory, data, token):
    ds = draw_dataset(data)
    names = ds.feature_names
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_csv(ds, path, missing_token=token)
    again = load_csv(path, missing_token=token)
    assert again.feature_names == names
    assert np.array_equal(again.present, ds.present)
    assert np.array_equal(again.labels, ds.labels)
    assert np.isnan(again.values[~ds.present]).all()
    kept = ds.values[ds.present]
    assert np.array_equal(again.values[ds.present].view(np.int64), kept.view(np.int64))


@pytest.mark.parametrize("token", ["1.0", "-0", "nan", "inf", " 2 ", "1e3", "1_0"])
def test_save_csv_rejects_a_numeric_missing_token(tmp_path, token):
    ds = make_dataset([[1.0, 2.0]], present=[[True, False]], labels=[1])
    with pytest.raises(DatasetError, match="would read as a number"):
        save_csv(ds, tmp_path / "data.csv", missing_token=token)


@pytest.mark.parametrize("token", [" x ", "x ", " NA", "\tx"])
def test_save_csv_rejects_a_token_that_strip_would_change(tmp_path, token):
    # load_csv strips every cell, so such a token could not be read back
    ds = make_dataset([[1.0, 2.0]], present=[[True, False]], labels=[1])
    with pytest.raises(DatasetError, match="surrounding whitespace"):
        save_csv(ds, tmp_path / "data.csv", missing_token=token)


def test_load_csv_errors(tmp_path):
    with pytest.raises(DatasetError, match="label"):
        load_csv(write(tmp_path, "a,b\n1,2\n", "nolabel.csv"))
    with pytest.raises(DatasetError, match="duplicate"):
        load_csv(write(tmp_path, "a,a,label\n1,2,0\n", "dupe.csv"))
    with pytest.raises(DatasetError, match=":2"):
        load_csv(write(tmp_path, "a,label\nxx,0\n", "badcell.csv"))
    with pytest.raises(DatasetError, match="label must be"):
        load_csv(write(tmp_path, "a,label\n1,2\n", "badlabel.csv"))


def test_complete_rows_paper_layout(paper_madelon):
    rows = paper_madelon.complete_rows()
    # samples 451..550 in the paper's 1-based numbering
    assert rows.tolist() == list(range(450, 550))


def test_complete_rows_with_all_missing_feature():
    ds = make_dataset(np.ones((4, 2)), present=[[1, 0], [1, 0], [1, 0], [1, 0]])
    assert ds.complete_rows().size == 0


def test_complete_rows_for_clusters(paper_madelon):
    assert paper_madelon.complete_rows_for(range(25)).size == 550
    assert paper_madelon.complete_rows_for(range(25, 40)).size == 550


def test_complete_rows_for_empty_cluster(paper_madelon):
    assert paper_madelon.complete_rows_for([]).size == 1000


def test_dense_block_refuses_missing_cells(paper_madelon):
    with pytest.raises(DatasetError, match="missing value"):
        paper_madelon.dense_block([0], range(40))


def test_split_madelon_sizes(paper_madelon):
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    assert s.test_rows.size == 20
    assert s.train_rows.size == 980


def test_split_covid_shape_sizes():
    # 3926 rows of which 501 are complete
    n, f = 3926, 5
    present = np.ones((n, f), dtype=bool)
    present[501:, 0] = False
    labels = np.arange(n) % 2
    ds = make_dataset(np.random.default_rng(0).standard_normal((n, f)),
                      present=present, labels=labels)
    s = split(ds, 0.2, np.random.default_rng(1))
    assert s.test_rows.size == 100
    assert s.train_rows.size == 3826


def test_split_same_seed_is_identical(paper_madelon):
    a = split(paper_madelon, 0.2, np.random.default_rng(42))
    b = split(paper_madelon, 0.2, np.random.default_rng(42))
    assert np.array_equal(a.test_rows, b.test_rows)
    assert np.array_equal(a.train_rows, b.train_rows)


def test_split_partition_and_completeness(paper_madelon):
    s = split(paper_madelon, 0.2, np.random.default_rng(3))
    both = np.concatenate([s.train_rows, s.test_rows])
    assert np.array_equal(np.sort(both), np.arange(1000))
    assert paper_madelon.present[s.test_rows].all()


def test_split_stratification_preserves_ratio(paper_madelon):
    complete = paper_madelon.complete_rows()
    ratio = paper_madelon.labels[complete].mean()
    s = split(paper_madelon, 0.2, np.random.default_rng(4), stratified=True)
    test_pos = paper_madelon.labels[s.test_rows].sum()
    assert abs(test_pos - ratio * 20) <= 1


def test_split_rejects_bad_fraction_and_tiny_data():
    ds = make_dataset([[1.0], [2.0]], labels=[0, 1])
    with pytest.raises(DatasetError):
        split(ds, 1.5, np.random.default_rng(0))
    with pytest.raises(DatasetError, match="too few"):
        split(ds, 0.2, np.random.default_rng(0))


def test_normalize_constant_feature_maps_to_zero():
    ds = make_dataset([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]], labels=[0, 1, 0])
    stats = compute_stats(ds, np.arange(3))
    out = normalize(ds, stats)
    assert np.all(out.values[:, 0] == 0.0)  # std 0 replaced by 1


def test_normalize_leaves_standardized_feature_alone():
    col = np.array([-1.0, 0.0, 1.0]) / np.array([-1.0, 0.0, 1.0]).std()
    ds = make_dataset(col.reshape(-1, 1), labels=[0, 1, 0])
    out = normalize(ds, compute_stats(ds, np.arange(3)))
    assert out.values[:, 0] == pytest.approx(ds.values[:, 0], abs=1e-12)


def test_normalize_round_trip(paper_madelon):
    stats = compute_stats(paper_madelon, paper_madelon.complete_rows())
    out = normalize(paper_madelon, stats)
    mask = paper_madelon.present
    expected = (paper_madelon.values - stats.mean) / stats.std
    assert np.array_equal(out.values[mask], expected[mask])
    assert np.array_equal(out.present, paper_madelon.present)


def test_normalize_keeps_missing_missing(paper_madelon):
    stats = compute_stats(paper_madelon, np.arange(1000))
    out = normalize(paper_madelon, stats)
    assert np.array_equal(out.present, paper_madelon.present)
    assert np.isnan(out.values[~out.present]).all()

import csv
import hashlib
import io
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapnet import dataset
from gapnet.dataset import (
    DatasetError,
    GappedDataset,
    compute_stats,
    load_csv,
    normalize,
    save_csv,
    split,
)
from conftest import count_forks, make_dataset


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


def draw_dataset(data, label_column="label"):
    n, f = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    feature_names = CSV_NAMES.filter(lambda s: s != label_column)
    names = data.draw(st.lists(feature_names, min_size=f, max_size=f, unique=True))
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
    ds = draw_dataset(data, label_column)
    d = tmp_path_factory.mktemp("bytes")
    save_csv(ds, d / "new.csv", missing_token=token, label_column=label_column)
    reference_save_csv(ds, d / "ref.csv", missing_token=token, label_column=label_column)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


def forking_at_every_size(mp, cpus):
    """Patch save_csv to fork at any size on `cpus` CPUs; the list of the
    pids that os.fork returned to this process."""
    mp.setattr(dataset, "FORK_CELLS", 0)
    return count_forks(mp, cpus)


@pytest.mark.parametrize("cpus", [2, 3])
@given(data=st.data(), token=st.sampled_from(CSV_TOKENS), label_column=CSV_NAMES)
@settings(max_examples=40, deadline=None)
def test_forked_save_csv_writes_the_csv_writer_bytes(tmp_path_factory, cpus, data, token,
                                                     label_column):
    ds = draw_dataset(data, label_column)
    d = tmp_path_factory.mktemp("forked")
    with pytest.MonkeyPatch.context() as mp:
        forked = forking_at_every_size(mp, cpus)
        save_csv(ds, d / "new.csv", missing_token=token, label_column=label_column)
    assert len(forked) == min(cpus, ds.n_samples) - 1
    reference_save_csv(ds, d / "ref.csv", missing_token=token, label_column=label_column)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class LabelError(Exception):
    pass


class BadLabel:
    def __int__(self):
        raise LabelError("label of the last row")


def test_a_failed_forked_range_raises_its_error_and_writes_no_file(tmp_path, monkeypatch):
    ds = make_dataset(np.arange(12.0).reshape(6, 2))
    ds.labels = np.array([0, 1, 0, 1, 0, BadLabel()], dtype=object)
    forked = forking_at_every_size(monkeypatch, 3)
    with pytest.raises(LabelError, match="^label of the last row$"):
        save_csv(ds, tmp_path / "data.csv")
    assert len(forked) == 2
    assert not (tmp_path / "data.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("names,label_column,message", [
    (["a", "label"], "label", "names the 'label' column more than once"),
    (["a", "a"], "label", r"duplicate feature names \['a'\]"),
    (["y", "x"], "y", "names the 'y' column more than once"),
])
def test_save_csv_rejects_a_header_load_csv_rejects(tmp_path, names, label_column, message):
    ds = make_dataset(np.ones((2, 2)), names=names)
    with pytest.raises(DatasetError, match=message):
        save_csv(ds, tmp_path / "data.csv", label_column=label_column)
    assert not (tmp_path / "data.csv").exists()


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
    with pytest.raises(DatasetError, match="empty file"):
        load_csv(write(tmp_path, "", "empty.csv"))
    with pytest.raises(DatasetError, match="label"):
        load_csv(write(tmp_path, "a,b\n1,2\n", "nolabel.csv"))
    with pytest.raises(DatasetError, match="duplicate"):
        load_csv(write(tmp_path, "a,a,label\n1,2,0\n", "dupe.csv"))
    with pytest.raises(DatasetError, match=":2"):
        load_csv(write(tmp_path, "a,label\nxx,0\n", "badcell.csv"))
    with pytest.raises(DatasetError, match="label must be"):
        load_csv(write(tmp_path, "a,label\n1,2\n", "badlabel.csv"))


def test_load_csv_rejects_a_label_column_named_twice(tmp_path):
    # read as a feature, the second copy would hand the models the labels
    path = write(tmp_path, "x1,label,label\n0.5,1,1\n0.25,0,0\n", "twice.csv")
    with pytest.raises(DatasetError, match="names the 'label' column more than once"):
        load_csv(path)


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


@pytest.mark.parametrize("features", [[2], [-1], [10**30]])
def test_complete_rows_for_a_feature_out_of_range(features):
    with pytest.raises(DatasetError, match="feature index out of range"):
        make_dataset(np.ones((3, 2))).complete_rows_for(features)


@pytest.mark.parametrize("change, message", [
    ({"feature_names": ["a"]}, "feature name count does not match columns"),
    ({"present": np.ones((3, 1), dtype=bool)}, "mask shape does not match values"),
    ({"labels": np.array([0, 1])}, "label count does not match rows"),
    ({"labels": np.array([0, 1, 2])}, "labels must be 0 or 1"),
])
def test_a_dataset_whose_parts_disagree_is_refused(change, message):
    parts = {"feature_names": ["a", "b"], "values": np.zeros((3, 2)),
             "present": np.ones((3, 2), dtype=bool), "labels": np.array([0, 1, 0])}
    with pytest.raises(DatasetError, match=message):
        GappedDataset(**{**parts, **change})


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


def _reference_test_rows(ds, test_fraction, rng, stratified):
    """The sorted test rows of a split, drawn case by case: one `rng.choice`
    per class, in class order, with largest-remainder counts, or one over
    all complete rows. None where split must refuse."""
    complete = ds.complete_rows()
    n_test = int(test_fraction * complete.size)
    if n_test < 1:
        return None
    if not stratified:
        return np.sort(rng.choice(complete, size=n_test, replace=False))
    class_rows = [complete[ds.labels[complete] == c] for c in (0, 1)]
    if min(rows.size for rows in class_rows) == 0:
        return None
    quotas = [n_test * rows.size / complete.size for rows in class_rows]
    counts = [int(q) for q in quotas]
    for c in sorted((0, 1), key=lambda c: (counts[c] - quotas[c], c))[: n_test - sum(counts)]:
        counts[c] += 1
    return np.sort(np.concatenate([
        rng.choice(rows, size=count, replace=False) for rows, count in zip(class_rows, counts)
    ]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), stratified=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_split_draws_the_reference_rows(data, stratified, seed):
    n = data.draw(st.integers(1, 60))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    present = np.ones((n, 2), dtype=bool)
    present[data.draw(st.lists(st.integers(0, n - 1), max_size=n)), 0] = False
    fraction = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    ds = make_dataset(np.zeros((n, 2)), present=present, labels=labels)
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _reference_test_rows(ds, fraction, reference, stratified)
    if expected is None:
        with pytest.raises(DatasetError):
            split(ds, fraction, rng, stratified=stratified)
    else:
        s = split(ds, fraction, rng, stratified=stratified)
        assert np.array_equal(s.test_rows, expected)
        assert np.array_equal(s.train_rows, np.setdiff1d(np.arange(n), expected))
    # the generator stands where the reference's does
    assert rng.integers(2**63) == reference.integers(2**63)


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


# --- the parser against a per-cell reader ---------------------------------

CELL_PADDING = ["", " ", "\t", "\xa0", "\x1c"]  # "\x1c": strip() drops it, float() does not
# "-1" and "1" read as numbers; strip() changes " NA" and " "
READ_TOKENS = ["NA", "", "?", "-1", "1", " NA", " "]


def reference_load_csv(text, token):
    """load_csv as a plain per-cell reader: strip each cell, then test it."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    label_pos = rows[0].index("label")
    values, present, labels = [], [], []
    for row in rows[1:]:
        labels.append(int(row[label_pos].strip()))
        cells = [c.strip() for i, c in enumerate(row) if i != label_pos]
        present.append([c not in ("", token) for c in cells])
        values.append([float(c) if p else np.nan for c, p in zip(cells, present[-1])])
    return np.array(values), np.array(present, dtype=bool), np.array(labels, dtype=np.int64)


@st.composite
def gapped_csv_text(draw, token):
    f = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    label_pos = draw(st.integers(0, f))
    number = st.one_of(
        st.floats(allow_nan=False).map(repr),
        st.sampled_from(["1", "-1", "0", "nan", "-nan", "inf", "-inf", "NaN", "1e5"]),
    )
    bare = st.one_of(number, st.sampled_from(["", token, " ", "\t "]))
    pad = st.sampled_from(CELL_PADDING)
    cell = st.builds(lambda a, c, b: a + c + b, pad, bare, pad)
    label = st.builds(lambda a, c, b: a + c + b, pad, st.sampled_from(["0", "1"]), pad)
    names = [f"x{j}" for j in range(f)]
    names.insert(label_pos, "label")
    lines = [",".join(names)]
    for _ in range(n):
        row = draw(st.lists(cell, min_size=f, max_size=f))
        row.insert(label_pos, draw(label))
        lines.append(",".join(row))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=n + 1, max_size=n + 1))
    last = draw(st.sampled_from(["", "\n", "\r\n"]))
    return "".join(line + end for line, end in zip(lines, ends[:-1] + [last]))


def assert_same_dataset(ds, values, present, labels):
    assert ds.values.dtype == np.float64 and ds.values.flags.c_contiguous
    assert ds.present.flags.c_contiguous and ds.labels.dtype == np.int64
    assert np.array_equal(ds.values.view(np.uint64), values.view(np.uint64))
    assert np.array_equal(ds.present, present)
    assert np.array_equal(ds.labels, labels)


def count_parses(mp):
    """Patch _parse_rows to count its calls."""
    parse, calls = dataset._parse_rows, []

    def counted(*args, **kwargs):
        calls.append(1)
        return parse(*args, **kwargs)

    mp.setattr(dataset, "_parse_rows", counted)
    return calls


@given(data=st.data(), token=st.sampled_from(READ_TOKENS))
@settings(max_examples=80, deadline=None)
def test_load_csv_reads_the_bits_of_a_per_cell_reader(tmp_path_factory, data, token):
    text = data.draw(gapped_csv_text(token))
    path = tmp_path_factory.mktemp("read") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        # a fresh cache for each example, so that its load parses
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        parses = count_parses(mp)
        try:
            expected = reference_load_csv(text, token)
        except ValueError:  # a padded token that strip() changes cannot be read
            with pytest.raises(DatasetError, match="cannot parse"):
                load_csv(path, missing_token=token)
            return
        ds = load_csv(path, missing_token=token)
    assert_same_dataset(ds, *expected)
    assert len(parses) == 1


@pytest.mark.parametrize("token,cell,value", [
    ("-1", " -1", None),  # a numeric token equals the stripped cell
    ("NA", " NA\t", None),
    ("NA", " \t", None),
    ("NA", "\x1c2.5\xa0", 2.5),  # strip() drops "\x1c"; float() does not
    ("NA", " nan ", "nan"),
    ("", "-inf ", -np.inf),
    (" NA", " NA", "cannot parse 'NA' in column 'b'"),  # strip() changes the token
])
def test_a_cell_is_stripped_before_it_is_matched_or_parsed(tmp_path, token, cell, value):
    path = write(tmp_path, f"a,b,label\n1,{cell},0\n")
    if isinstance(value, str) and value.startswith("cannot parse"):
        with pytest.raises(DatasetError, match=f":2: {value}$"):
            load_csv(path, missing_token=token)
        return
    ds = load_csv(path, missing_token=token)
    assert ds.present[0].tolist() == [True, value is not None]
    expected = np.array([np.nan if value is None else float(value)])
    assert ds.values[0, 1:].view(np.uint64) == expected.view(np.uint64)


def many_rows(n=40, bad=None):
    """A CSV text of n rows over two features, row `bad` replaced."""
    rows = [f"{i}.5,,{i % 2}" if i % 3 else f",-{i}.25,{i % 2}" for i in range(n)]
    if bad is not None:
        rows[bad[0]] = bad[1]
    return "a,b,label\n" + "\n".join(rows) + "\n"


def with_byte_order_mark(tmp_path, label_first):
    """A many_rows file that starts with a UTF-8 byte-order mark, as a
    spreadsheet's "CSV UTF-8" writes it, and the text after the mark."""
    text = many_rows()
    if label_first:
        rows = [line.split(",") for line in text.splitlines()]
        text = "".join(",".join(r[-1:] + r[:-1]) + "\n" for r in rows)
    path = tmp_path / "data.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return path, text


@pytest.mark.parametrize("label_first", [False, True])
def test_a_byte_order_mark_is_not_read_on_a_serial_read(tmp_path, label_first):
    path, text = with_byte_order_mark(tmp_path, label_first)
    ds = load_csv(path)
    assert ds.feature_names == ["a", "b"]
    assert_same_dataset(ds, *reference_load_csv(text, "NA"))


@pytest.mark.parametrize("row", [38, 5])
@pytest.mark.parametrize("bad,message", [
    ("1,2,0,3", "expected 3 fields"),
    ("1,2", "expected 3 fields"),
    ("1,2,7", "label must be 0 or 1, got '7'"),
    ("1, x ,1", "cannot parse 'x' in column 'b'"),
    # the padded good cell before the bad one reads once stripped
    ("\x1c2.5,x,0", "cannot parse 'x' in column 'b'"),
    ("\xa02.5,x,0", "cannot parse 'x' in column 'b'"),
])
def test_a_bad_record_is_reported_with_its_line_and_fault(tmp_path, row, bad, message):
    path = write(tmp_path, many_rows(bad=(row, bad)))
    with pytest.raises(DatasetError) as error:
        load_csv(path)
    assert str(error.value) == f"{path}:{row + 2}: {message}"


def test_the_first_bad_record_in_file_order_is_named(tmp_path):
    text = many_rows(bad=(38, "1,2,7")).replace("\n10.5,,0\n", "\n10.5,oops,0\n")
    path = write(tmp_path, text)
    with pytest.raises(DatasetError, match=r":12: cannot parse 'oops' in column 'b'$"):
        load_csv(path)


@pytest.mark.parametrize("text,message", [
    ('a,b,label\n"1\n",2,0\nx,2,0\n', "4: cannot parse 'x' in column 'a'"),
    ('a,b,label\n1,2,0\n"3\n\n",4,1\n5,6\n', "6: expected 3 fields"),
    ('a,b,label\n1,"2\n3",0,9\n', "3: expected 3 fields"),  # the line the record ends on
], ids=["bad-cell-after", "field-count-after", "record-that-spans"])
def test_a_bad_record_after_a_field_that_spans_lines_names_its_line(tmp_path, text, message):
    path = write(tmp_path, text, "ml.csv")
    with pytest.raises(DatasetError) as error:
        load_csv(path, missing_token="")
    assert str(error.value) == f"{path}:{message}"


@pytest.mark.parametrize("case", ["quoted field"])
def test_quoted_fields_read_the_bits_of_a_per_cell_reader(tmp_path, case):
    text = many_rows().replace("\n38.5,", '\n"38.5",')
    assert '"' in text
    path = write(tmp_path, text)
    assert_same_dataset(load_csv(path), *reference_load_csv(text, "NA"))


# --- the parsed-cell cache ------------------------------------------------------


def entries(cache):
    return sorted(cache.glob("*")) if cache.exists() else []


def test_a_hit_does_not_parse_and_keeps_every_bit(
        tmp_path, monkeypatch, parsed_cell_cache):
    text = many_rows().replace("\n1.5,,1\n", "\n-0.0,nan,1\n")
    text = text.replace("\n2.5,,0\n", "\n5e-324,inf,0\n")
    path = write(tmp_path, text)
    parses = count_parses(monkeypatch)
    cold = load_csv(path)
    assert len(parses) == 1
    assert len(entries(parsed_cell_cache)) == 1
    warm = load_csv(path)
    assert len(parses) == 1
    assert warm.feature_names == cold.feature_names
    assert np.array_equal(warm.values.view(np.uint64), cold.values.view(np.uint64))
    assert np.array_equal(warm.present, cold.present)
    assert np.array_equal(warm.labels.view(np.uint64), cold.labels.view(np.uint64))
    assert_same_dataset(warm, *reference_load_csv(text, "NA"))


def test_other_read_arguments_miss(tmp_path, parsed_cell_cache):
    path = write(tmp_path, "a,b,label\n1,?,0\n3,2.5,1\n")
    assert load_csv(path, missing_token="?").present.tolist() == [[True, False], [True, True]]
    with pytest.raises(DatasetError, match=r":2: cannot parse '\?' in column 'b'$"):
        load_csv(path)
    path = write(tmp_path, "a,b,label\n1,0,0\n3,2.5,1\n")
    load_csv(path)
    with pytest.raises(DatasetError, match=r":3: label must be 0 or 1, got '2.5'$"):
        load_csv(path, label_column="b")
    assert len(entries(parsed_cell_cache)) == 2


def test_another_parser_misses(tmp_path, monkeypatch, parsed_cell_cache):
    path = write(tmp_path, "a,b,label\n1,2,0\n3,4,1\n")
    parses = count_parses(monkeypatch)
    load_csv(path)
    edited = tmp_path / "dataset.py"
    edited.write_bytes(Path(dataset.__file__).read_bytes() + b"# edited\n")
    monkeypatch.setattr(dataset, "__file__", str(edited))
    load_csv(path)
    assert len(parses) == 2 and len(entries(parsed_cell_cache)) == 2


def test_an_edited_file_misses(tmp_path, parsed_cell_cache):
    path = write(tmp_path, "a,b,label\n1,2,0\n3,4,1\n")
    load_csv(path)
    path.write_text("a,b,label\n1,2,0\n3,5,1\n", encoding="utf-8")
    assert load_csv(path).values[1].tolist() == [3.0, 5.0]
    assert len(entries(parsed_cell_cache)) == 2


def test_a_file_edited_during_its_parse_stores_no_entry(tmp_path, monkeypatch, parsed_cell_cache):
    path = write(tmp_path, "a,b,label\n1,2,0\n3,4,1\n")
    parse = dataset._parse_rows

    def editing(*args, **kwargs):
        cells = parse(*args, **kwargs)
        path.write_text("a,b,label\n1,2,0\n3,5,1\n", encoding="utf-8")
        return cells

    monkeypatch.setattr(dataset, "_parse_rows", editing)
    ds = load_csv(path)
    assert ds.values[1].tolist() == [3.0, 4.0] and ds.sha256 is None
    assert entries(parsed_cell_cache) == []


def test_a_dataset_carries_the_sha256_of_its_bytes(tmp_path, parsed_cell_cache):
    path = write(tmp_path, many_rows())
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert load_csv(path).sha256 == digest  # the miss
    assert load_csv(path).sha256 == digest  # the hit
    assert len(entries(parsed_cell_cache)) == 1


def test_a_hit_does_not_need_a_writable_mtime(tmp_path, monkeypatch, parsed_cell_cache):
    path = write(tmp_path, many_rows())
    load_csv(path)
    parses = count_parses(monkeypatch)

    def refused(*args, **kwargs):
        raise PermissionError("read-only cache")

    monkeypatch.setattr(os, "utime", refused)
    assert_same_dataset(load_csv(path), *reference_load_csv(path.read_text(), "NA"))
    assert parses == []


def test_cells_over_the_entry_bytes_are_not_stored(tmp_path, monkeypatch, parsed_cell_cache):
    small = write(tmp_path, "a,label\n1,0\n", name="small.csv")
    large = write(tmp_path, many_rows(), name="large.csv")
    monkeypatch.setattr(dataset, "CACHE_ENTRY_BYTES", 16)  # two cells
    parses = count_parses(monkeypatch)
    for _ in range(2):
        assert load_csv(large).sha256 == hashlib.sha256(large.read_bytes()).hexdigest()
        load_csv(small)
    assert len(parses) == 3 and len(entries(parsed_cell_cache)) == 1


def rewrite_entry(entry, how):
    cells = np.load(entry)
    if how == "truncated":
        entry.write_bytes(entry.read_bytes()[:-9])
    elif how == "empty":
        entry.write_bytes(b"")
    elif how == "not an array":
        entry.write_bytes(b"a,b,label\n")
    elif how == "one column short":
        np.save(entry, cells[:, 1:])
    elif how == "big-endian":
        np.save(entry, cells.astype(">f8"))
    elif how == "float32":
        np.save(entry, cells.astype(np.float32))
    elif how == "one-dimensional":
        np.save(entry, cells.reshape(-1))
    elif how == "Fortran order":
        np.save(entry, np.asfortranarray(cells))
    elif how == "a label no parse gives":  # would load as label 0
        assert cells[1, 2] == 1.0
        cells[1, 2] = 0.5
        np.save(entry, cells)
    elif how == "pickled objects":
        np.save(entry, cells.astype(object), allow_pickle=True)
    else:
        np.savez(entry.with_suffix(""), cells)
        entry.with_suffix(".npz").replace(entry)


@pytest.mark.parametrize("how", [
    "truncated", "empty", "not an array", "one column short", "big-endian", "float32",
    "one-dimensional", "Fortran order", "a label no parse gives", "pickled objects",
    "npz archive",
])
def test_a_bad_entry_is_a_miss(tmp_path, monkeypatch, capsys, parsed_cell_cache, how):
    path = write(tmp_path, many_rows())
    expected = reference_load_csv(path.read_text(), "NA")
    load_csv(path)
    [entry] = entries(parsed_cell_cache)
    rewrite_entry(entry, how)
    parses = count_parses(monkeypatch)
    for _ in range(2):  # the miss, then a hit on the entry it stored again
        assert_same_dataset(load_csv(path), *expected)
    assert len(parses) == 1
    assert entries(parsed_cell_cache) == [entry]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("where", ["a file", "a file's child"])
def test_an_unusable_cache_dir_still_reads_the_file(tmp_path, monkeypatch, capsys, where):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    home = blocker if where == "a file" else blocker / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    path = write(tmp_path, many_rows())
    for _ in range(2):
        assert_same_dataset(load_csv(path), *reference_load_csv(path.read_text(), "NA"))
    assert capsys.readouterr() == ("", "")


def test_a_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch, parsed_cell_cache):
    def full_disk(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(np.lib.format, "write_array", full_disk)
    path = write(tmp_path, many_rows())
    assert_same_dataset(load_csv(path), *reference_load_csv(path.read_text(), "NA"))
    assert os.listdir(parsed_cell_cache) == []


def test_a_file_that_fails_to_parse_stores_nothing(tmp_path, parsed_cell_cache):
    path = write(tmp_path, many_rows(bad=(5, "1, x ,1")))
    for _ in range(2):
        with pytest.raises(DatasetError) as error:
            load_csv(path)
        assert str(error.value) == f"{path}:7: cannot parse 'x' in column 'b'"
    assert entries(parsed_cell_cache) == []


@pytest.mark.parametrize("text", ["a,b,label\n", "a,b,label"])
def test_a_header_only_file_stores_nothing(tmp_path, parsed_cell_cache, text):
    path = write(tmp_path, text)
    for _ in range(2):
        with pytest.raises(DatasetError) as error:
            load_csv(path)
        assert str(error.value) == f"{path}: no data rows"
    assert entries(parsed_cell_cache) == []


def test_the_cache_keeps_the_most_recently_used_entries(tmp_path, parsed_cell_cache):
    paths, named = [], []
    for i in range(dataset.CACHE_ENTRIES):
        paths.append(write(tmp_path, f"a,label\n{i},0\n", name=f"{i}.csv"))
        load_csv(paths[-1])
        [new] = set(entries(parsed_cell_cache)) - set(named)
        named.append(new)
    for age, entry in enumerate(named):  # file 0's entry the oldest
        os.utime(entry, ns=(age * 10**9, age * 10**9))
    assert load_csv(paths[0]).values[0, 0] == 0.0  # a hit makes it the newest
    for i in range(dataset.CACHE_ENTRIES, dataset.CACHE_ENTRIES + 2):
        load_csv(write(tmp_path, f"a,label\n{i},0\n", name=f"{i}.csv"))
    kept = set(entries(parsed_cell_cache))
    assert len(kept) == dataset.CACHE_ENTRIES
    assert named[0] in kept and not {named[1], named[2]} & kept


def test_eviction_counts_and_deletes_only_entries(tmp_path, monkeypatch, parsed_cell_cache):
    named = []
    for i in range(dataset.CACHE_ENTRIES):
        load_csv(write(tmp_path, f"a,label\n{i},0\n", name=f"{i}.csv"))
        [new] = set(entries(parsed_cell_cache)) - set(named)
        named.append(new)
    for age, entry in enumerate(named):  # file 0's entry the oldest
        os.utime(entry, ns=((age + 1) * 10**9, (age + 1) * 10**9))
    others = [parsed_cell_cache / "in-flight.tmp", parsed_cell_cache / "notes.txt"]
    stale = parsed_cell_cache / ("0" * 64 + ".npy")  # another process's entry
    for path in [*others, stale]:
        path.write_text("")
        os.utime(path, ns=(0, 0))  # older than any entry
    unlink = os.unlink

    def racing(path):  # another process deletes file 0's entry first
        unlink(path)
        if path == str(named[0]):
            raise FileNotFoundError(path)

    monkeypatch.setattr(os, "unlink", racing)
    load_csv(write(tmp_path, "a,label\n8,0\n", name="8.csv"))
    kept = set(entries(parsed_cell_cache))
    assert set(others) < kept and len(kept - set(others)) == dataset.CACHE_ENTRIES
    assert not {named[0], stale} & kept and named[1] in kept

"""Incomplete tabular datasets with explicit per-cell presence masks.

The mask is authoritative: a missing cell holds NaN so accidental reads
surface immediately, but all code must consult ``present`` first.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np


class DatasetError(ValueError):
    pass


@dataclass
class GappedDataset:
    feature_names: list
    values: np.ndarray  # (N, F) float64, NaN where absent
    present: np.ndarray  # (N, F) bool
    labels: np.ndarray  # (N,) int, values in {0, 1}

    def __post_init__(self):
        n, f = self.values.shape
        if f < 1 or n < 1:
            raise DatasetError("dataset needs at least one row and one feature")
        if len(self.feature_names) != f:
            raise DatasetError("feature name count does not match columns")
        if self.present.shape != (n, f):
            raise DatasetError("mask shape does not match values")
        if self.labels.shape != (n,):
            raise DatasetError("label count does not match rows")
        if not np.isin(self.labels, (0, 1)).all():
            raise DatasetError("labels must be 0 or 1")

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_features(self):
        return self.values.shape[1]

    def complete_rows(self):
        """Indices of rows where every feature is present, ascending."""
        return np.flatnonzero(self.present.all(axis=1))

    def complete_rows_for(self, feature_indices):
        """Rows complete with respect to a subset of features."""
        idx = np.asarray(list(feature_indices), dtype=int)
        if idx.size == 0:
            return np.arange(self.n_samples)
        if idx.min() < 0 or idx.max() >= self.n_features:
            raise DatasetError("feature index out of range")
        return np.flatnonzero(self.present[:, idx].all(axis=1))

    def dense_block(self, rows, feature_indices):
        """Values for the given rows/features; every requested cell must be present."""
        rows = np.asarray(rows, dtype=int)
        idx = np.asarray(list(feature_indices), dtype=int)
        block_present = self.present[np.ix_(rows, idx)]
        if not block_present.all():
            r, c = np.argwhere(~block_present)[0]
            raise DatasetError(
                f"missing value at row {rows[r] + 1}, feature "
                f"{self.feature_names[idx[c]]!r}"
            )
        return self.values[np.ix_(rows, idx)]


@dataclass
class DataSplit:
    train_rows: np.ndarray
    test_rows: np.ndarray


@dataclass
class NormalizationStats:
    mean: np.ndarray  # (F,)
    std: np.ndarray  # (F,), zeros replaced by 1


def load_csv(path, missing_token="NA", label_column="label"):
    """Read a gapped dataset from CSV; empty cells or the token mean missing."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if label_column not in header:
            raise DatasetError(f"{path}: no {label_column!r} column in header")
        label_pos = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_pos]
        if len(set(feature_names)) != len(feature_names):
            dupes = sorted({n for n in feature_names if feature_names.count(n) > 1})
            raise DatasetError(f"{path}: duplicate feature names {dupes}")
        values, mask, labels = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DatasetError(f"{path}:{lineno}: expected {len(header)} fields")
            label_cell = row[label_pos].strip()
            if label_cell not in ("0", "1"):
                raise DatasetError(
                    f"{path}:{lineno}: label must be 0 or 1, got {label_cell!r}"
                )
            labels.append(int(label_cell))
            vrow, mrow = [], []
            for i, cell in enumerate(row):
                if i == label_pos:
                    continue
                cell = cell.strip()
                if cell == "" or cell == missing_token:
                    vrow.append(np.nan)
                    mrow.append(False)
                else:
                    try:
                        vrow.append(float(cell))
                    except ValueError:
                        raise DatasetError(
                            f"{path}:{lineno}: cannot parse {cell!r} in column "
                            f"{header[i]!r}"
                        ) from None
                    mrow.append(True)
            values.append(vrow)
            mask.append(mrow)
    if not values:
        raise DatasetError(f"{path}: no data rows")
    return GappedDataset(
        feature_names=feature_names,
        values=np.array(values, dtype=np.float64),
        present=np.array(mask, dtype=bool),
        labels=np.array(labels, dtype=np.int64),
    )


def save_csv(ds, path, missing_token="", label_column="label"):
    """Write a dataset back out. Read back with the same missing token, the
    names, value bits, mask and labels are kept exactly; so a token that
    reads as a number, or that load_csv's strip would change, raises
    DatasetError. The bytes are csv.writer's (excel dialect): a float repr
    never needs quoting, so only the header and the token go through it."""
    try:
        float(missing_token)
    except ValueError:
        pass
    else:
        raise DatasetError(f"missing token {missing_token!r} would read as a number")
    if missing_token.strip() not in ("", missing_token):
        raise DatasetError(f"missing token {missing_token!r} has surrounding whitespace")
    quoted = io.StringIO()
    csv.writer(quoted).writerow([missing_token, ""])
    token = quoted.getvalue()[: -len(",\r\n")]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(ds.feature_names) + [label_column])
        for values, present, label in zip(ds.values, ds.present, ds.labels):
            cells = [
                repr(v) if p else token
                for v, p in zip(values.tolist(), present.tolist())
            ]
            fh.write(",".join(cells) + f",{int(label)}\r\n")


def split(ds, test_fraction, rng, stratified=True):
    """Draw a test set from the complete rows; everything else trains.

    The test size is floor(test_fraction * n_complete). With stratification
    the per-class test counts follow the complete-row class proportions
    (largest-remainder rounding to hit the exact total).
    """
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError("test_fraction must be in (0, 1)")
    complete = ds.complete_rows()
    n_test = int(test_fraction * complete.size)
    if n_test < 1:
        raise DatasetError(
            f"too few complete rows ({complete.size}) for test fraction {test_fraction}"
        )
    if stratified:
        test_parts = []
        class_rows = [complete[ds.labels[complete] == c] for c in (0, 1)]
        if any(rows.size == 0 for rows in class_rows):
            raise DatasetError("stratified split needs both classes among complete rows")
        quotas = [n_test * rows.size / complete.size for rows in class_rows]
        counts = [int(q) for q in quotas]
        # hand out the remainder by largest fractional part, class 0 first on ties
        order = sorted(range(2), key=lambda c: (counts[c] - quotas[c], c))
        for c in order[: n_test - sum(counts)]:
            counts[c] += 1
        for rows, count in zip(class_rows, counts):
            if count > rows.size:
                raise DatasetError("not enough complete rows in one class")
            picked = rng.choice(rows, size=count, replace=False)
            test_parts.append(picked)
        test_rows = np.sort(np.concatenate(test_parts))
    else:
        test_rows = np.sort(rng.choice(complete, size=n_test, replace=False))
    in_test = np.zeros(ds.n_samples, dtype=bool)
    in_test[test_rows] = True
    train_rows = np.flatnonzero(~in_test)
    return DataSplit(train_rows=train_rows, test_rows=test_rows)


def compute_stats(ds, rows):
    """Per-feature mean/std over the present cells of the given rows."""
    rows = np.asarray(rows, dtype=int)
    vals = ds.values[rows]
    mask = ds.present[rows]
    mean = np.zeros(ds.n_features)
    std = np.ones(ds.n_features)
    for j in range(ds.n_features):
        col = vals[mask[:, j], j]
        if col.size:
            mean[j] = col.mean()
            s = col.std()
            std[j] = s if s > 0 else 1.0
    return NormalizationStats(mean=mean, std=std)


def normalize(ds, stats):
    """Return a standardized copy; missing cells stay missing."""
    values = np.where(ds.present, (ds.values - stats.mean) / stats.std, np.nan)
    return GappedDataset(
        feature_names=list(ds.feature_names),
        values=values,
        present=ds.present.copy(),
        labels=ds.labels.copy(),
    )


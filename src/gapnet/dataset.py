"""Incomplete tabular datasets with explicit per-cell presence masks.

The mask is authoritative: a missing cell holds NaN so accidental reads
surface immediately, but all code must consult ``present`` first.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .numerics import forked_map, usable_cpus

# save_csv formats a table of at least this many cells on forked children.
# In process on a 2-CPU host, a forked write of an n x 40 table took 11%
# longer than a serial one at 8,000 cells, 2% longer at 12,000 and 5-8% less
# at 14,000-20,000 (medians of 31): a fork and the pipe back cost ~4 ms.
FORK_CELLS = 16_000

# Parsed-cell cache entries kept; writing one deletes the least recently used
# beyond this many. Cells larger than CACHE_ENTRY_BYTES (8 bytes per cell)
# are not stored, so the cache holds at most 8 x 64 MiB.
CACHE_ENTRIES = 8
CACHE_ENTRY_BYTES = 64 << 20

# A missing cell parses as this NaN, whose payload float() never produces,
# so one compare of the bits finds every missing cell.
_MISSING_BITS = 0x7FF8_0000_0000_0001
_MISSING = struct.unpack("<d", struct.pack("<Q", _MISSING_BITS))[0]
_LABELS = ("0", "1")


class DatasetError(ValueError):
    pass


@dataclass
class GappedDataset:
    feature_names: list
    values: np.ndarray  # (N, F) float64, NaN where absent
    present: np.ndarray  # (N, F) bool
    labels: np.ndarray  # (N,) int, values in {0, 1}
    sha256: str | None = None  # of the CSV bytes load_csv read, when known

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
    """Read a gapped dataset from CSV; empty cells or the token mean missing.

    The records are parsed in one pass on this process (`_parse_rows`), and
    the parsed cells are kept in a cache (`_cached_parse`), so a later read
    of the same bytes with the same arguments skips the parse. Every check
    after the parse runs on every read. The dataset's sha256 is that of the
    bytes read, or None when the file changed during the read or could not
    be hashed. A line the csv module rejects (one holding a field longer
    than `csv.field_size_limit()`, say) raises DatasetError naming it.
    """
    # utf-8-sig drops the byte-order mark a spreadsheet may write first
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetError(f"{path}: empty file")
            label_pos, feature_names = _header_fields(path, header, label_column)
            cells, digest = _cached_parse(
                path, [missing_token, label_column], len(header),
                lambda: _parse_rows(reader, path, header, label_pos, missing_token))
        except csv.Error as exc:
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None
    missing = np.delete(cells.view(np.uint64) == _MISSING_BITS, label_pos, axis=1)
    values = np.delete(cells, label_pos, axis=1)
    values[missing] = np.nan
    return GappedDataset(
        feature_names=feature_names,
        values=values,
        present=~missing,
        labels=cells[:, label_pos].astype(np.int64),
        sha256=digest,
    )


def _header_fields(path, header, label_column):
    """The label column's index in a CSV header and the feature names in it;
    DatasetError when the header lacks the label column, names it more than
    once or names a feature more than once."""
    if label_column not in header:
        raise DatasetError(f"{path}: no {label_column!r} column in header")
    if header.count(label_column) > 1:
        raise DatasetError(f"{path}: the header names the {label_column!r} column more than once")
    label_pos = header.index(label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_pos]
    if len(set(feature_names)) != len(feature_names):
        dupes = sorted({n for n in feature_names if feature_names.count(n) > 1})
        raise DatasetError(f"{path}: duplicate feature names {dupes}")
    return label_pos, feature_names


def file_sha256(path):
    """The hex sha256 of the bytes of the file at path."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_json(path, error):
    """The JSON value in the UTF-8 file at path, a leading byte-order mark
    dropped, and the sha256 of the bytes it was read from. Text that is not
    UTF-8 JSON, nests too deeply or names one key twice within an object
    raises `error`, a ValueError class, naming path."""

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"name {key!r} appears twice")
            obj[key] = value
        return obj

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        value = json.loads(data.decode("utf-8-sig"), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from None
    return value, hashlib.sha256(data).hexdigest()


def _cache_dir():
    """$XDG_CACHE_HOME/gapnet, or ~/.cache/gapnet when that is unset or
    relative (as the XDG base directory spec asks)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "gapnet")


def _cached_parse(path, arguments, width, read):
    """The (n, width) cells of the file at path, from `read()` or from what a
    past read stored for the same file bytes, `arguments` and parser; and the
    sha256 of the file, or None when it is unknown or the file changed during
    `read()`.

    An entry is one .npy file named by the sha256 of the file's sha256,
    `arguments` and this module's sha256, so a changed parser never reads
    another's entries. An entry is used only when it is a C-ordered, 2-D,
    native float64 array `width` columns wide, and is written only after
    `read()` returned, only when the file still has the bytes the key was
    made from, and only when it holds at most CACHE_ENTRY_BYTES. The cache
    can only miss: any OSError, ValueError or EOFError from it reads the file.
    """
    cache_errors = (OSError, ValueError, EOFError)
    digest = entry = None
    try:
        digest = file_sha256(path)
        key = json.dumps([digest, *arguments, file_sha256(__file__)])
        entry = os.path.join(_cache_dir(), hashlib.sha256(key.encode()).hexdigest() + ".npy")
        with open(entry, "rb") as fh:
            cells = np.lib.format.read_array(fh, allow_pickle=False)
        if (cells.ndim == 2 and cells.dtype == np.float64 and cells.shape[1] == width
                and cells.flags.c_contiguous):
            with contextlib.suppress(OSError):
                os.utime(entry)  # the mtime orders the evictions
            return cells, digest
    except cache_errors:
        pass
    cells = read()
    try:
        if digest is None or file_sha256(path) != digest:
            return cells, None
    except OSError:
        return cells, None
    if entry is not None and cells.nbytes <= CACHE_ENTRY_BYTES:
        with contextlib.suppress(*cache_errors):
            _store_entry(entry, cells)
    return cells, digest


def _store_entry(entry, cells):
    """Write cells to the cache file entry atomically, then delete the least
    recently used entries beyond CACHE_ENTRIES. Only .npy files are counted
    or deleted: not the .tmp files of writes in flight, nor other files. An
    entry that another process deletes first is passed over."""
    cache = os.path.dirname(entry)
    os.makedirs(cache, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=cache, suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            np.lib.format.write_array(fh, cells, allow_pickle=False)
        os.replace(temp, entry)
    except BaseException:
        os.unlink(temp)
        raise
    ages = []
    for found in os.scandir(cache):
        if found.name.endswith(".npy"):
            with contextlib.suppress(OSError):
                ages.append((found.stat().st_mtime_ns, found.path))
    for _, old in sorted(ages, reverse=True)[CACHE_ENTRIES:]:
        with contextlib.suppress(OSError):
            os.unlink(old)


def _parse_rows(reader, path, header, label_pos, token):
    """The records of a csv.reader as an (n, len(header)) float64 array: the
    label as 0.0 or 1.0, a missing cell as _MISSING. Each cell is stripped
    once; a feature cell that is then empty or equals the token is missing.
    Raises DatasetError at the first bad record, naming the line it ends on
    (a quoted field may span lines), or when there is no record.
    """
    width = len(header)
    out = []
    for row in reader:
        if len(row) != width:
            raise DatasetError(f"{path}:{reader.line_num}: expected {width} fields")
        cells = [c.strip() for c in row]
        label = cells[label_pos]
        if label not in _LABELS:
            raise DatasetError(f"{path}:{reader.line_num}: label must be 0 or 1, got {label!r}")
        try:
            values = [float(c) if c and c != token else _MISSING for c in cells]
        except ValueError:
            bad = next(i for i, c in enumerate(cells)
                       if c and c != token and not _reads_as_number(c))
            raise DatasetError(
                f"{path}:{reader.line_num}: cannot parse {cells[bad]!r} in column "
                f"{header[bad]!r}"
            ) from None
        values[label_pos] = float(label)  # never missing, even when it equals the token
        out.append(values)
    if not out:
        raise DatasetError(f"{path}: no data rows")
    return np.array(out, dtype=np.float64)


def _reads_as_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def save_csv(ds, path, missing_token="", label_column="label"):
    """Write a dataset back out. Read back with the same missing token, the
    names, value bits, mask and labels are kept exactly; so a token that
    reads as a number, or that load_csv's strip would change, raises
    DatasetError, as does a header that load_csv would reject. The bytes are
    csv.writer's (excel dialect): a float repr never needs quoting, so only
    the header and the token go through it.

    A table of at least FORK_CELLS cells is cut into one contiguous range of
    rows per usable CPU, and numerics.forked_map formats the first range
    here and each other on a forked child. The file is opened only once
    every row is formatted.
    """
    if _reads_as_number(missing_token):
        raise DatasetError(f"missing token {missing_token!r} would read as a number")
    if missing_token.strip() not in ("", missing_token):
        raise DatasetError(f"missing token {missing_token!r} has surrounding whitespace")
    header = list(ds.feature_names) + [label_column]
    _header_fields(path, header, label_column)
    quoted = io.StringIO()
    csv.writer(quoted).writerow([missing_token, ""])
    token = quoted.getvalue()[: -len(",\r\n")]

    def format_rows(bounds):
        lines = []
        rows = slice(*bounds)
        for values, present, label in zip(ds.values[rows], ds.present[rows], ds.labels[rows]):
            cells = [
                repr(v) if p else token
                for v, p in zip(values.tolist(), present.tolist())
            ]
            lines.append(",".join(cells) + f",{int(label)}\r\n")
        return "".join(lines)

    n = ds.n_samples
    parts = min(usable_cpus(), n) if ds.values.size >= FORK_CELLS else 1
    cuts = [n * i // parts for i in range(parts + 1)]
    bodies = forked_map(format_rows, zip(cuts, cuts[1:]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(bodies)


def split(ds, test_fraction, rng, stratified=True):
    """Draw a test set from the complete rows; everything else trains.

    The test size is floor(test_fraction * n_complete). The complete rows
    are cut into groups: one per class when stratified, else one group of
    all of them. Each group's test count follows its share of the complete
    rows (largest-remainder rounding to hit the exact total, so a lone group
    gets all of it), and each group draws its rows with one `choice` of rng,
    in group order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError("test_fraction must be in (0, 1)")
    complete = ds.complete_rows()
    n_test = int(test_fraction * complete.size)
    if n_test < 1:
        raise DatasetError(
            f"too few complete rows ({complete.size}) for test fraction {test_fraction}"
        )
    groups = [complete]
    if stratified:
        groups = [complete[ds.labels[complete] == c] for c in (0, 1)]
        if any(rows.size == 0 for rows in groups):
            raise DatasetError("stratified split needs both classes among complete rows")
    quotas = [n_test * rows.size / complete.size for rows in groups]
    counts = [int(q) for q in quotas]
    # hand out the remainder by largest fractional part, first group on ties
    order = sorted(range(len(groups)), key=lambda g: (counts[g] - quotas[g], g))
    for g in order[: n_test - sum(counts)]:
        counts[g] += 1
    test_rows = np.sort(np.concatenate([
        rng.choice(rows, size=count, replace=False) for rows, count in zip(groups, counts)
    ]))
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


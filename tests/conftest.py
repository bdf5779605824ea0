import os

import numpy as np
import pytest

from gapnet.dataset import GappedDataset
from gapnet.synth import MadelonConfig, generate_madelon, inject_gaps, paper_gap_pattern


@pytest.fixture(autouse=True)
def parsed_cell_cache(tmp_path_factory, monkeypatch):
    """A fresh, empty CSV cache directory for each test, so that no test
    reads another's entries or writes under the real home."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache / "gapnet"


def count_forks(mp):
    """Patch os.fork through the MonkeyPatch mp to record each pid it
    returns to this process; the list it records them in."""
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    mp.setattr(os, "fork", counted_fork)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def paper_madelon():
    """The 1000x40 benchmark with the published gap pattern."""
    ds = generate_madelon(MadelonConfig(seed=12345))
    return inject_gaps(ds, paper_gap_pattern())


@pytest.fixture(scope="session")
def complete_madelon():
    return generate_madelon(MadelonConfig(seed=12345))


def make_dataset(values, present=None, labels=None, names=None):
    values = np.asarray(values, dtype=np.float64)
    n, f = values.shape
    if present is None:
        present = np.ones((n, f), dtype=bool)
    else:
        present = np.asarray(present, dtype=bool)
    values = np.where(present, values, np.nan)
    if labels is None:
        labels = np.arange(n) % 2
    if names is None:
        names = [f"f{j + 1}" for j in range(f)]
    return GappedDataset(
        feature_names=names,
        values=values,
        present=present,
        labels=np.asarray(labels, dtype=np.int64),
    )


@pytest.fixture
def toy_separable():
    """Linearly separable 2D points, fully complete, balanced classes."""
    rng = np.random.default_rng(5)
    n = 60
    labels = np.arange(n) % 2
    centers = np.where(labels[:, None] == 1, 2.0, -2.0)
    values = centers + 0.3 * rng.standard_normal((n, 2))
    return make_dataset(values, labels=labels)


def random_gapped(rng, n=None, f=None, p_missing=0.4):
    """Random dataset with at least a few fully complete rows of each class."""
    n = n or int(rng.integers(8, 30))
    f = f or int(rng.integers(2, 8))
    present = rng.random((n, f)) > p_missing
    present[:4] = True  # guarantee complete rows
    labels = rng.integers(0, 2, size=n)
    labels[:4] = [0, 1, 0, 1]  # both classes among the complete rows
    values = rng.standard_normal((n, f))
    return make_dataset(values, present=present, labels=labels)

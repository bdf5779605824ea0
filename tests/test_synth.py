import numpy as np
import pytest

from gapnet.dataset import compute_stats, normalize, split
from gapnet.evaluation import auc
from gapnet.models import TrainConfig, predict, train_vanilla
from gapnet.synth import (
    DEFAULT_INFORMATIVE,
    DEFAULT_NOISE,
    DEFAULT_REDUNDANT,
    GapPattern,
    MadelonConfig,
    SynthError,
    generate_madelon,
    inject_gaps,
    paper_gap_pattern,
)


def test_default_shape_and_index_partition():
    ds = generate_madelon(MadelonConfig(seed=0))
    assert ds.values.shape == (1000, 40)
    assert ds.present.all()
    assert len(DEFAULT_INFORMATIVE) == 25
    assert len(DEFAULT_REDUNDANT) == 10
    assert len(DEFAULT_NOISE) == 5
    assert sorted(DEFAULT_INFORMATIVE + DEFAULT_REDUNDANT + DEFAULT_NOISE) == list(
        range(1, 41)
    )


def test_redundant_columns_are_linear_combinations():
    ds = generate_madelon(MadelonConfig(seed=1))
    info = ds.values[:, [j - 1 for j in DEFAULT_INFORMATIVE]]
    design = np.column_stack([info, np.ones(len(info))])  # standardization adds an offset
    for j in DEFAULT_REDUNDANT:
        col = ds.values[:, j - 1]
        coef, *_ = np.linalg.lstsq(design, col, rcond=None)
        assert np.abs(design @ coef - col).max() < 1e-8


def test_noise_columns_uncorrelated_with_label():
    ds = generate_madelon(MadelonConfig(seed=2))
    y = ds.labels - ds.labels.mean()
    for j in DEFAULT_NOISE:
        col = ds.values[:, j - 1]
        r = np.corrcoef(col, y)[0, 1]
        assert abs(r) < 0.1


def test_informative_columns_carry_signal():
    ds = generate_madelon(MadelonConfig(seed=2))
    # at least some informative columns separate the class means visibly
    gaps = []
    for j in DEFAULT_INFORMATIVE:
        col = ds.values[:, j - 1]
        gaps.append(abs(col[ds.labels == 1].mean() - col[ds.labels == 0].mean()))
    assert max(gaps) > 0.1


def test_same_seed_same_dataset():
    a = generate_madelon(MadelonConfig(seed=9))
    b = generate_madelon(MadelonConfig(seed=9))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


def test_class_balance():
    for seed in range(5):
        ds = generate_madelon(MadelonConfig(seed=seed))
        counts = np.bincount(ds.labels, minlength=2)
        assert abs(counts[0] - counts[1]) <= 1


def test_invalid_partition_rejected():
    cfg = MadelonConfig(
        informative_indices=tuple(range(1, 26)),
        redundant_indices=tuple(range(26, 36)),
        noise_indices=tuple(range(35, 40)),  # overlaps and misses 40
    )
    with pytest.raises(SynthError, match="partition"):
        generate_madelon(cfg)


def test_paper_gap_pattern_complete_rows():
    ds = inject_gaps(generate_madelon(MadelonConfig(seed=3)), paper_gap_pattern())
    assert ds.complete_rows().tolist() == list(range(450, 550))


def test_paper_gap_pattern_scales_by_row_fraction():
    assert paper_gap_pattern(1000) == paper_gap_pattern()
    assert paper_gap_pattern(500).blocks == [((1, 225), (1, 25)), ((276, 500), (26, 40))]
    for n in range(2, 60):
        (first, _), (second, _) = paper_gap_pattern(n).blocks
        assert first == (1, max(1, n * 9 // 20)) and second[1] == n
        assert first[1] >= first[0] and second[1] >= second[0] and first[1] < second[0]


def test_empty_pattern_is_identity():
    ds = generate_madelon(MadelonConfig(seed=3))
    out = inject_gaps(ds, GapPattern())
    assert np.array_equal(out.values, ds.values)
    assert out.present.all()


def test_pattern_covering_everything():
    ds = generate_madelon(MadelonConfig(seed=3))
    out = inject_gaps(ds, GapPattern(blocks=[((1, 1000), (1, 40))]))
    assert out.complete_rows().size == 0


def test_out_of_range_block_rejected():
    ds = generate_madelon(MadelonConfig(seed=3))
    with pytest.raises(SynthError, match="out of bounds"):
        inject_gaps(ds, GapPattern(blocks=[((1, 1001), (1, 40))]))
    with pytest.raises(SynthError, match=r"feature range \(1, 41\) out of bounds"):
        inject_gaps(ds, GapPattern(blocks=[((1, 10), (1, 41))]))


def test_gaps_are_injected_into_a_fully_present_dataset_only():
    ds = inject_gaps(generate_madelon(MadelonConfig(seed=3)), paper_gap_pattern())
    with pytest.raises(SynthError, match="expects a fully present dataset"):
        inject_gaps(ds, GapPattern())


def test_gap_injection_leaves_other_cells_untouched():
    ds = generate_madelon(MadelonConfig(seed=4))
    out = inject_gaps(ds, paper_gap_pattern())
    assert np.array_equal(out.values[out.present], ds.values[out.present])


def test_benchmark_is_learnable():
    # the repo's own MLP on ample data must clear AUC 0.7 at default settings
    # (the task is deliberately non-linear, so this replaces a linear probe)
    ds = generate_madelon(MadelonConfig(seed=5))
    s = split(ds, 0.2, np.random.default_rng(0))
    work = normalize(ds, compute_stats(ds, s.train_rows))
    cfg = TrainConfig(epochs=300, seed=0, batch_size=64)
    net = train_vanilla(work, s, cfg)
    score = auc(predict(net, work, s.test_rows), ds.labels[s.test_rows])
    assert score > 0.7

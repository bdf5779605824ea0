import json
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapnet import models
from gapnet.clustering import ClusterPlan, FeatureCluster, signature_clusters
from gapnet.dataset import DataSplit, split
from gapnet.models import (
    ConfigError,
    ModelFileError,
    TrainConfig,
    TrainingError,
    build_subnet,
    build_vanilla,
    fit_gapnet,
    fit_network,
    fuse,
    gapnet_gradients,
    load_model,
    predict,
    predict_subnet,
    save_model,
    tile_rows,
    train_gapnet,
    train_stage1,
    train_stage2,
    train_vanilla,
    _train_rows_for,
)
from gapnet.numerics import AdamState, MlpNetwork, NumericsError, adam_step, sigmoid
from gapnet.evaluation import auc, importance_report
from conftest import make_dataset


def widths(net):
    return [net.input_width] + [l.fan_out for l in net.layers]


@pytest.mark.parametrize(
    "n_features,expected",
    [(40, [40, 80, 80, 1]), (82, [82, 164, 164, 1]), (1, [1, 2, 2, 1])],
)
def test_vanilla_widths(n_features, expected):
    assert widths(build_vanilla(n_features)) == expected


@pytest.mark.parametrize("size,hidden", [(25, 50), (15, 30), (5, 10), (4, 8)])
def test_subnet_widths(size, hidden):
    cluster = FeatureCluster("c", list(range(size)))
    assert widths(build_subnet(cluster)) == [size, hidden, hidden, 1]


def test_vanilla_activations_and_dropout():
    net = build_vanilla(10, dropout_rate=0.5)
    assert [l.activation for l in net.layers] == ["relu", "relu", "sigmoid"]
    assert [l.dropout for l in net.layers] == [0.0, 0.5, 0.0]


def test_a_network_of_no_features_is_refused():
    with pytest.raises(NumericsError, match="fan_in and fan_out must be >= 1"):
        build_vanilla(0)


def fast_cfg(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("seed", 0)
    return TrainConfig(**kw)


def test_stage1_training_sizes_on_paper_madelon(paper_madelon):
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    plan = signature_clusters(paper_madelon)
    for cluster in plan.clusters:
        rows = _train_rows_for(paper_madelon, s, cluster.features)
        assert rows.size == 530
        assert not np.intersect1d(rows, s.test_rows).size


def test_stage2_and_vanilla_training_sizes(paper_madelon):
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    rows = _train_rows_for(paper_madelon, s, range(40))
    assert rows.size == 80


def test_adni_shape_stage1_sizes():
    # 1465 visits, three modality clusters with 233/1045/1258 acquisitions,
    # 120 fully complete visits, 24 test rows
    rng = np.random.default_rng(0)
    n = 1465
    present = np.zeros((n, 3), dtype=bool)
    present[:120] = True
    present[120:233, 0] = True  # MRI: 233 total
    present[233 : 233 + 925, 1] = True  # amyloid: 1045 total
    present[233 : 233 + 1138, 2] = True  # FDG: 1258 total
    ds = make_dataset(rng.standard_normal((n, 3)), present=present,
                      labels=np.arange(n) % 2)
    s = split(ds, 0.2, np.random.default_rng(1))
    assert s.test_rows.size == 24
    assert _train_rows_for(ds, s, [0]).size == 209
    assert _train_rows_for(ds, s, [1]).size == 1021
    assert _train_rows_for(ds, s, [2]).size == 1234


def test_fuse_concatenation_widths():
    rng = np.random.default_rng(0)
    subnets = [
        build_subnet(FeatureCluster("a", list(range(25))), rng=rng),
        build_subnet(FeatureCluster("b", list(range(25, 40))), rng=rng),
    ]
    model = fuse(subnets, [FeatureCluster("a", list(range(25))),
                           FeatureCluster("b", list(range(25, 40)))], rng)
    assert model.fusion.fan_in == 80


def test_fuse_seven_covid_clusters():
    rng = np.random.default_rng(0)
    clusters = [
        FeatureCluster(chr(65 + i), list(range(5 * i, 5 * i + 5))) for i in range(7)
    ]
    subnets = [build_subnet(c, rng=rng) for c in clusters]
    model = fuse(subnets, clusters, rng)
    assert model.fusion.fan_in == 70


def test_fuse_single_subnet():
    rng = np.random.default_rng(0)
    cluster = FeatureCluster("a", [0, 1, 2])
    model = fuse([build_subnet(cluster, rng=rng)], [cluster], rng)
    assert model.fusion.fan_in == 6


def test_fuse_rejects_clusters_that_share_a_feature():
    rng = np.random.default_rng(0)
    clusters = [FeatureCluster("a", [0, 1]), FeatureCluster("b", [1, 2])]
    with pytest.raises(NumericsError, match="a feature appears in two clusters"):
        fuse([build_subnet(c, rng=rng) for c in clusters], clusters, rng)


def test_fuse_needs_one_subnet_per_cluster():
    rng = np.random.default_rng(0)
    clusters = [FeatureCluster("a", [0, 1]), FeatureCluster("b", [2, 3])]
    with pytest.raises(NumericsError, match="do not match the cluster sizes"):
        fuse([build_subnet(clusters[0], rng=rng)], clusters, rng)


def test_a_gapnet_block_must_have_its_width():
    rng = np.random.default_rng(0)
    clusters = [FeatureCluster("a", [0, 1]), FeatureCluster("b", [2, 3, 4])]
    model = fuse([build_subnet(c, rng=rng) for c in clusters], clusters, rng)
    X = rng.standard_normal((3, 6))  # one column too many
    for call in (model.predict, model.column_scorer):
        with pytest.raises(NumericsError, match=r"input \(3, 6\) is not 5 feature columns"):
            call(X)


def test_freezing_keeps_bodies_bit_identical(paper_madelon):
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    plan = signature_clusters(paper_madelon)
    cfg = fast_cfg(freeze_bodies=True)
    subnets = train_stage1(paper_madelon, plan, s, cfg)
    model = fuse(subnets, plan.clusters, np.random.default_rng(1), freeze_bodies=True)
    before = [[l.weights.copy() for l in b.layers] for b in model.bodies]
    train_stage2(model, paper_madelon, s, cfg)
    for body, saved in zip(model.bodies, before):
        for layer, w in zip(body.layers, saved):
            assert np.array_equal(layer.weights, w)


def test_unfrozen_bodies_do_change(toy_separable):
    s = split(toy_separable, 0.2, np.random.default_rng(0))
    plan = signature_clusters(toy_separable)
    cfg = fast_cfg(epochs=20, freeze_bodies=False, dropout_rate=0.0)
    model, _ = train_gapnet(toy_separable, plan, s, cfg)
    # at least one body weight moved during stage II fine-tuning
    cfg_frozen = fast_cfg(epochs=20, freeze_bodies=True, dropout_rate=0.0)
    frozen_model, _ = train_gapnet(toy_separable, plan, s, cfg_frozen)
    moved = any(
        not np.array_equal(a.weights, b.weights)
        for ab, bb in zip(model.bodies, frozen_model.bodies)
        for a, b in zip(ab.layers, bb.layers)
    )
    assert moved


def test_predict_scores_and_determinism(paper_madelon):
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    plan = signature_clusters(paper_madelon)
    cfg = fast_cfg()
    model, subnets = train_gapnet(paper_madelon, plan, s, cfg)
    scores = predict(model, paper_madelon, s.test_rows)
    assert np.all((scores > 0) & (scores < 1))
    assert np.array_equal(scores, predict(model, paper_madelon, s.test_rows))
    sub_scores = predict_subnet(subnets[0], plan.clusters[0], paper_madelon, s.test_rows)
    assert np.all((sub_scores > 0) & (sub_scores < 1))


def interleaved_plan(ds):
    """Two clusters out of index order, each taking every other feature."""
    odd = list(range(ds.n_features - 1, -1, -2))
    even = list(range(ds.n_features - 2, -1, -2))
    return ClusterPlan([FeatureCluster("b", odd), FeatureCluster("a", even)])


@pytest.mark.parametrize("make_plan", [signature_clusters, interleaved_plan])
def test_gapnet_score_composes_from_bodies(paper_madelon, make_plan):
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    plan = make_plan(paper_madelon)
    model, _ = train_gapnet(paper_madelon, plan, s, fast_cfg())
    rows = s.test_rows[:5]
    scores = predict(model, paper_madelon, rows)
    # recompute by running each body independently and applying the fusion node
    parts = []
    for body, cluster in zip(model.bodies, plan.clusters):
        X = paper_madelon.dense_block(rows, cluster.features)
        parts.append(body.forward(X, mode="infer").outputs)
    concat = np.hstack(parts)
    manual = sigmoid(concat @ model.fusion.weights + model.fusion.biases).reshape(-1)
    assert scores == pytest.approx(manual, abs=1e-15)


def test_gapnet_importance_rescoring_matches_full_passes():
    rng = np.random.default_rng(4)
    clusters = [FeatureCluster("b", [3, 1]), FeatureCluster("a", [0, 4, 2])]
    model = fuse([build_subnet(c, rng=rng) for c in clusters], clusters, rng)
    X = rng.standard_normal((40, model.input_width))
    labels = np.arange(40) % 2
    score = model.column_scorer(X)
    for j in range(X.shape[1]):
        values = X[rng.permutation(40), j]
        Xp = X.copy()
        Xp[:, j] = values
        assert np.array_equal(score(j, values), model.predict(Xp))
    # a lambda hides the model, so every permutation takes a full pass
    reports = [
        importance_report(f, X, labels, list("abcde"), repeats=3, rng=np.random.default_rng(0))
        for f in (model.predict, lambda rows: model.predict(rows))
    ]
    for field in ("mean_drop", "std_drop", "ranks"):
        assert np.array_equal(getattr(reports[0], field), getattr(reports[1], field))


def test_predict_rejects_missing_features(paper_madelon):
    plan = signature_clusters(paper_madelon)
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    model, _ = train_gapnet(paper_madelon, plan, s, fast_cfg())
    with pytest.raises(Exception, match="missing value"):
        predict(model, paper_madelon, [0])  # row 1 lacks x1..x25


def test_learning_sanity_on_separable_toy(toy_separable):
    s = split(toy_separable, 0.2, np.random.default_rng(0))
    cfg = TrainConfig(epochs=500, seed=1)
    vanilla = train_vanilla(toy_separable, s, cfg)
    train_rows = _train_rows_for(toy_separable, s, range(2))
    v_auc = auc(predict(vanilla, toy_separable, train_rows),
                toy_separable.labels[train_rows])
    plan = signature_clusters(toy_separable)
    model, _ = train_gapnet(toy_separable, plan, s, cfg)
    g_auc = auc(predict(model, toy_separable, train_rows),
                toy_separable.labels[train_rows])
    assert v_auc >= 0.99
    assert g_auc >= 0.99


def test_epochs_must_be_positive():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)


def test_vanilla_errors_without_complete_rows():
    present = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=bool)
    ds = make_dataset(np.ones((4, 2)), present=present, labels=[0, 1, 0, 1])

    class FakeSplit:
        test_rows = np.array([], dtype=int)
        train_rows = np.arange(4)

    with pytest.raises(TrainingError):
        train_vanilla(ds, FakeSplit(), fast_cfg())


def test_train_gapnet_without_complete_training_rows_fails_in_stage2():
    # each cluster keeps training rows, but every complete row is a test row
    present = np.ones((40, 4), dtype=bool)
    present[:20, :2] = present[20:30, 2:] = False
    ds = make_dataset(np.ones((40, 4)), present=present)
    s = DataSplit(train_rows=np.arange(30), test_rows=np.arange(30, 40))
    with pytest.raises(TrainingError, match="^no complete training rows for stage II$"):
        train_gapnet(ds, signature_clusters(ds), s, fast_cfg())


def test_fit_network_refuses_an_output_with_dropout():
    # a kept unit is scaled by 1/keep, so the output is no probability and
    # its cross-entropy has no gradient to fuse with the sigmoid's
    net = build_vanilla(3)
    net.layers[-1] = replace(net.layers[-1], dropout=0.2)
    X = np.random.default_rng(0).standard_normal((6, 3))
    with pytest.raises(NumericsError, match="sigmoid head without dropout"):
        fit_network(net, X, np.arange(6) % 2, fast_cfg(), np.random.default_rng(0))


def test_serialization_round_trip(tmp_path, paper_madelon):
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    plan = signature_clusters(paper_madelon)
    cfg = fast_cfg()
    model, _ = train_gapnet(paper_madelon, plan, s, cfg)
    vanilla = train_vanilla(paper_madelon, s, cfg)
    for m, name in ((model, "g.json"), (vanilla, "v.json")):
        path = tmp_path / name
        save_model(m, path, feature_names=paper_madelon.feature_names)
        loaded, names, stats = load_model(path)
        assert names == paper_madelon.feature_names
        assert stats is None
        assert np.array_equal(
            predict(m, paper_madelon, s.test_rows),
            predict(loaded, paper_madelon, s.test_rows),
        )


def reference_batches(n, cfg, rng):
    """Row indices of every step of the plain training loop."""
    for _ in range(cfg.epochs):
        if cfg.batch_size is None or cfg.batch_size >= n:
            yield np.arange(n)
        else:
            order = rng.permutation(n)
            yield from (order[i : i + cfg.batch_size] for i in range(0, n, cfg.batch_size))


def reference_fit(net, X, y, cfg, rng):
    """The plain training loop: fresh arrays every step, list Adam."""
    params = [p for layer in net.layers for p in (layer.weights, layer.biases)]
    state = AdamState(learning_rate=cfg.learning_rate)
    for idx in reference_batches(len(X), cfg, rng):
        cache = net.forward(X[idx], mode="train", rng=rng)
        grads = [g for pair in net.backprop(cache, y[idx]) for g in pair]
        adam_step(params, grads, state)


# 37 rows: at 8 a short last batch of 5, at 1 none, at 50 one full batch;
# at 36 with a 36-row tile (widest layer 10) a batch of exactly one tile
@pytest.mark.parametrize(
    "batch_size,tile_elements",
    [(None, None), (8, None), (1, None), (50, None), (36, 360)],
    ids=["None", "8", "1", "50", "36-one-tile"],
)
def test_fit_network_matches_reference_loop(batch_size, tile_elements, monkeypatch):
    if tile_elements is not None:
        monkeypatch.setattr(models, "TILE_ELEMENTS", tile_elements)
    data = np.random.default_rng(21)
    X = data.standard_normal((37, 5))
    y = (X[:, 0] + 0.5 * data.standard_normal(37) > 0).astype(float)
    cfg = fast_cfg(epochs=15, batch_size=batch_size)
    engine = build_vanilla(5, rng=np.random.default_rng(3))
    assert min(37, batch_size or 37) <= tile_rows(engine)
    reference = build_vanilla(5, rng=np.random.default_rng(3))
    rng_engine, rng_reference = np.random.default_rng(8), np.random.default_rng(8)
    fit_network(engine, X, y, cfg, rng_engine)
    reference_fit(reference, X, y, cfg, rng_reference)
    for a, b in zip(engine.layers, reference.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
    assert rng_engine.random() == rng_reference.random()


def fit_gradients(monkeypatch, X, y, tile_elements, batch_size=None):
    """The gradient vector of every Adam step of a one-epoch fit, and the
    next number the fit's generator gives, under a tile budget."""
    monkeypatch.setattr(models, "TILE_ELEMENTS", tile_elements)
    seen = []

    def spy(params, grads, state):
        seen.append(grads.data.copy())
        return adam_step(params, grads, state)

    monkeypatch.setattr(models, "adam_step", spy)
    net = build_vanilla(X.shape[1], rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    fit_network(net, X, y, fast_cfg(epochs=1, batch_size=batch_size), rng)
    return seen, rng.random(), tile_rows(net)


def test_tiled_masks_equal_the_full_batch_draw():
    net = build_vanilla(12, rng=np.random.default_rng(0))  # 12 -> 24 -> 24 -> 1
    X = np.random.default_rng(1).standard_normal((9800, 12))
    tile = tile_rows(net)
    assert tile == 1364  # 32,768 // 24 rounded down to a multiple of 4
    full = net.forward(X, mode="train", rng=np.random.default_rng(2)).dropout_masks[1]
    rng = np.random.default_rng(2)
    tiles = [
        net.forward(X[i : i + tile], mode="train", rng=rng).dropout_masks[1]
        for i in range(0, len(X), tile)
    ]
    assert len(tiles) == 8
    assert np.array_equal(np.vstack(tiles), full)


# 9800 rows: 7 tiles of 1364 and one of 252; 37 rows in batches of 30 and 7
# with 24-row tiles (250 // 10 rounded down to a multiple of 4): tiles of 24
# and 6, then one of 7
@pytest.mark.parametrize(
    "rows,features,batch_size,tiled_elements", [(9800, 12, None, 32768), (37, 5, 30, 250)]
)
def test_tiled_step_matches_the_one_tile_step(monkeypatch, rows, features, batch_size,
                                              tiled_elements):
    data = np.random.default_rng(21)
    X = data.standard_normal((rows, features))
    y = (X[:, 0] + 0.5 * data.standard_normal(rows) > 0).astype(float)
    whole, after_whole, tile = fit_gradients(monkeypatch, X, y, 10**9, batch_size)
    assert tile >= rows
    tiled, after_tiled, tile = fit_gradients(monkeypatch, X, y, tiled_elements, batch_size)
    assert tile < min(rows, batch_size or rows)
    assert after_tiled == after_whole  # the same masks drawn from the same words
    assert len(tiled) == len(whole)  # one Adam step per batch
    assert not np.array_equal(tiled[0], whole[0])  # summed in another order
    for a, b in zip(whole, tiled):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


def test_paper_madelon_fits_take_one_tile(paper_madelon):
    """Criterion 1 and the madelon-serial benchmark keep their bits only while
    every fit on the paper's dataset takes one tile per step."""
    plan = signature_clusters(paper_madelon)
    fits = [(build_vanilla(paper_madelon.n_features), paper_madelon.complete_rows().size)]
    fits += [
        (build_subnet(c), paper_madelon.complete_rows_for(c.features).size)
        for c in plan.clusters
    ]
    shapes = [(rows, max(l.fan_out for l in net.layers)) for net, rows in fits]
    assert shapes == [(100, 80), (550, 50), (550, 30)]
    for net, rows in fits:
        assert rows <= tile_rows(net)


def tiled_stage1_data(monkeypatch):
    """60 rows in three clusters under a 64-element tile: cluster_1 (2
    features, 16-row tiles) and cluster_2 (3 features, 8-row tiles) train on
    47 rows each; cluster_3 (1 feature, 32-row tiles) on 13."""
    monkeypatch.setattr(models, "TILE_ELEMENTS", 64)
    present = np.ones((60, 6), dtype=bool)
    present[50:, 0:2] = False
    present[40:50, 2:5] = False
    present[16:, 5] = False
    ds = make_dataset(np.random.default_rng(4).standard_normal((60, 6)), present=present)
    return ds, signature_clusters(ds), split(ds, 0.2, np.random.default_rng(0))


def spy_fits(monkeypatch, fail_widths=()):
    """Record each fit's input width and whether it ran on the calling
    thread, and fail the fits of inputs `fail_widths` wide."""
    real, seen = fit_network, []

    def spy(net, X, *rest):
        seen.append((X.shape[1], threading.current_thread() is threading.main_thread()))
        if X.shape[1] in fail_widths:
            raise TrainingError(f"fit of {X.shape[1]} features failed")
        return real(net, X, *rest)

    monkeypatch.setattr(models, "fit_network", spy)
    return seen


def test_tiled_stage1_fits_overlap_with_the_same_bits(monkeypatch):
    """The tiled stage-I nets are those of each cluster's fit alone, and
    every fit runs on the calling thread, in plan order."""
    ds, plan, s = tiled_stage1_data(monkeypatch)
    cfg = fast_cfg(epochs=3)
    seen = spy_fits(monkeypatch)
    nets = train_stage1(ds, plan, s, cfg)
    assert seen == [(2, True), (3, True), (1, True)]
    for k, (cluster, net) in enumerate(zip(plan.clusters, nets)):
        alone = fit_network(*models._fit_setup(ds, s, cfg, cluster.features, k, ""))
        for a, b in zip(alone.layers, net.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)


def test_overlapped_stage1_raises_the_first_failure_in_plan_order(monkeypatch):
    ds, plan, s = tiled_stage1_data(monkeypatch)
    seen = spy_fits(monkeypatch)
    held_out = DataSplit(train_rows=np.arange(16, 60), test_rows=np.arange(16))
    with pytest.raises(
        TrainingError, match="^cluster 'cluster_3' has no training rows after test exclusion$"
    ):
        train_stage1(ds, plan, held_out, fast_cfg())
    assert seen == []  # every fit is set up before any trains
    # cluster_2's fit fails, and cluster_3's after it does not train
    seen = spy_fits(monkeypatch, fail_widths=(3, 1))
    with pytest.raises(TrainingError, match="^fit of 3 features failed$"):
        train_stage1(ds, plan, s, fast_cfg())
    assert seen == [(2, True), (3, True)]


def test_train_gapnet_rejects_clusters_that_share_a_feature_before_any_fit(monkeypatch):
    ds = make_dataset(np.random.default_rng(0).standard_normal((200, 4)))
    plan = ClusterPlan([FeatureCluster("a", [0, 1]), FeatureCluster("b", [1, 2])])
    seen = spy_fits(monkeypatch)
    with pytest.raises(NumericsError, match="^a feature appears in two clusters$"):
        train_gapnet(ds, plan, split(ds, 0.2, np.random.default_rng(0)), fast_cfg())
    assert seen == []


def test_paper_madelon_stage1_starts_no_pool(paper_madelon, monkeypatch):
    """Stage I starts no thread, on multi-tile fits as on paper Madelon."""
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    assert len(train_stage1(paper_madelon, signature_clusters(paper_madelon), s, fast_cfg())) == 2
    ds, plan, s = tiled_stage1_data(monkeypatch)
    assert len(train_stage1(ds, plan, s, fast_cfg())) == 3


def reference_fit_gapnet(model, X, y, cfg, rng):
    """The plain stage-II loop: a train-mode pass over every body each step,
    and list Adam on the fusion node, then, when unfrozen, on every body
    layer in body order."""
    params = [model.fusion.weights, model.fusion.biases]
    if not model.freeze_bodies:
        params += [p for body in model.bodies for l in body.layers for p in (l.weights, l.biases)]
    state = AdamState(learning_rate=cfg.learning_rate)
    for idx in reference_batches(len(X), cfg, rng):
        caches, concat, scores = model.forward(X[idx], mode="train", rng=rng)
        adam_step(params, gapnet_gradients(model, caches, concat, scores, y[idx]), state)


def assert_same_stage2(engine, reference, rng_engine, rng_reference):
    assert np.array_equal(engine.fusion.weights, reference.fusion.weights)
    assert np.array_equal(engine.fusion.biases, reference.fusion.biases)
    for a, b in zip(engine.bodies, reference.bodies):
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)
    assert rng_engine.random() == rng_reference.random()


@pytest.mark.parametrize("batch_size", [None, 32])
def test_frozen_stage2_matches_reference_loop(paper_madelon, batch_size):
    s = split(paper_madelon, 0.2, np.random.default_rng(0))
    plan = signature_clusters(paper_madelon)
    cfg = fast_cfg(epochs=12, batch_size=batch_size)
    subnets = train_stage1(paper_madelon, plan, s, fast_cfg())
    engine = fuse(subnets, plan.clusters, np.random.default_rng(1))
    reference = fuse(subnets, plan.clusters, np.random.default_rng(1))
    rows = _train_rows_for(paper_madelon, s, engine.feature_indices)
    X = paper_madelon.dense_block(rows, engine.feature_indices)
    y = paper_madelon.labels[rows].astype(float)
    rng_engine, rng_reference = np.random.default_rng(5), np.random.default_rng(5)
    fit_gapnet(engine, X, y, cfg, rng_engine)
    reference_fit_gapnet(reference, X, y, cfg, rng_reference)
    assert_same_stage2(engine, reference, rng_engine, rng_reference)


def random_fused_pair(seed, freeze_bodies=True):
    """Two copies of one fused model over 2-4 clusters of 1-5 features, with
    bodies of dropout rates 0 and 0.5, one masked body of odd width, and an
    odd number of rows of its input block and labels."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=int(rng.integers(2, 5)))
    rates = [0.5 * ((seed + k) % 2) for k in range(len(sizes))]
    sizes[rates.index(0.5)] |= 1  # a masked body of odd width
    ends = np.cumsum(sizes)
    clusters = [
        FeatureCluster(f"c{k}", list(range(end - size, end)))
        for k, (size, end) in enumerate(zip(sizes, ends))
    ]
    subnets = [
        build_subnet(c, hidden_multiplier=1 + 2 * (k % 2), dropout_rate=rate, rng=rng)
        for k, (c, rate) in enumerate(zip(clusters, rates))
    ]
    models = [
        fuse(subnets, clusters, np.random.default_rng(seed), freeze_bodies=freeze_bodies)
        for _ in range(2)
    ]
    rows = 2 * int(rng.integers(5, 30)) + 1
    X = rng.standard_normal((rows, int(ends[-1])))
    y = (X.sum(axis=1) + rng.standard_normal(rows) > 0).astype(float)
    return models, X, y


@pytest.mark.parametrize("seed", range(8))
def test_cached_stage2_matches_reference_loop_at_any_shape(seed):
    (engine, reference), X, y = random_fused_pair(seed)
    assert {b.layers[-1].dropout for b in engine.bodies} == {0.0, 0.5}
    # a mask of this many units ends inside a raw word of the generator
    assert any(len(X) * b.output_width % 4 for b in engine.bodies if b.layers[-1].dropout)
    cfg = fast_cfg(epochs=7)
    rng_engine, rng_reference = np.random.default_rng(seed), np.random.default_rng(seed)
    fit_gapnet(engine, X, y, cfg, rng_engine)
    reference_fit_gapnet(reference, X, y, cfg, rng_reference)
    assert_same_stage2(engine, reference, rng_engine, rng_reference)


@pytest.mark.parametrize("batch_size", [None, 8])
@pytest.mark.parametrize("seed", range(4))
def test_unfrozen_stage2_matches_reference_loop(seed, batch_size):
    (engine, reference), X, y = random_fused_pair(seed, freeze_bodies=False)
    cfg = fast_cfg(epochs=7, batch_size=batch_size)
    rng_engine, rng_reference = np.random.default_rng(seed), np.random.default_rng(seed)
    fit_gapnet(engine, X, y, cfg, rng_engine)
    reference_fit_gapnet(reference, X, y, cfg, rng_reference)
    assert_same_stage2(engine, reference, rng_engine, rng_reference)


# 3 epochs of 21 rows: one cached pass, or a pass per step of one or two batches
@pytest.mark.parametrize(
    "batch_size,freeze,modes",
    [(None, True, ["infer"]), (None, False, ["train"] * 3), (13, True, ["train"] * 6)],
    ids=["full-frozen", "full-unfrozen", "minibatch-frozen"],
)
def test_stage2_runs_cached_bodies_once(monkeypatch, batch_size, freeze, modes):
    (model, _), X, y = random_fused_pair(1, freeze_bodies=freeze)
    X, y = X[:21], y[:21]
    seen = {id(body): [] for body in model.bodies}
    forward = MlpNetwork.forward

    def spy(self, batch, mode="infer", rng=None, workspace=None):
        seen.get(id(self), []).append(mode)
        return forward(self, batch, mode, rng, workspace)

    monkeypatch.setattr(MlpNetwork, "forward", spy)
    fit_gapnet(model, X, y, fast_cfg(epochs=3, batch_size=batch_size),
               np.random.default_rng(0))
    assert list(seen.values()) == [modes] * len(model.bodies)


def test_divergence_names_the_parameter(monkeypatch):
    backprop = MlpNetwork.backprop

    def poisoned(self, *args, **kwargs):
        grads = backprop(self, *args, **kwargs)
        grads[1][1][0] = np.inf
        return grads

    monkeypatch.setattr(MlpNetwork, "backprop", poisoned)
    X = np.random.default_rng(0).standard_normal((6, 3))
    with pytest.raises(TrainingError, match="non-finite gradient for layer 1 biases"):
        fit_network(build_vanilla(3), X, np.arange(6) % 2, fast_cfg(), np.random.default_rng(0))


def test_stage2_divergence_names_the_parameter(monkeypatch):
    def poisoned(*args):
        grads = gapnet_gradients(*args)
        grads[0][0, 0] = np.nan
        return grads

    monkeypatch.setattr(models, "gapnet_gradients", poisoned)
    (model, _), X, y = random_fused_pair(0)
    message = "^training diverged: non-finite gradient for fusion weights$"
    with pytest.raises(TrainingError, match=message):
        fit_gapnet(model, X, y, fast_cfg(), np.random.default_rng(0))


def tiny_models(tmp_path):
    """Saved gapnet and baseline models of a small dataset, as parsed JSON."""
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.standard_normal((30, 4)), labels=np.arange(30) % 2)
    plan = ClusterPlan([FeatureCluster("b", [3, 1]), FeatureCluster("a", [0, 2])])
    s = split(ds, 0.2, np.random.default_rng(0))
    model, _ = train_gapnet(ds, plan, s, fast_cfg())
    out = {}
    for kind, m in (("gapnet", model), ("mlp", train_vanilla(ds, s, fast_cfg()))):
        save_model(m, tmp_path / "m.json")
        out[kind] = json.loads((tmp_path / "m.json").read_text())
    return out


def _at(path, change):
    """A corruption that applies `change(parent, key)` at a JSON path."""

    def corrupt(obj):
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        change(parent, path[-1])
        return obj

    return corrupt


def _set(path, value):
    return _at(path, lambda parent, key: parent.__setitem__(key, value))


def _drop(path):
    return _at(path, lambda parent, key: parent.__delitem__(key))


def _widen(path):
    """A corruption that gives the layer at a JSON path two output units."""

    def widen(parent, key):
        layer = parent[key]
        layer["weights"] = [row * 2 for row in layer["weights"]]
        layer["biases"] = [0.0, 0.0]

    return _at(path, widen)


def _stats(mean, std):
    return {"mean": mean, "std": std}


def _named(names, normalization):
    """A file that lists feature names and a normalization."""
    return lambda obj: {**obj, "feature_names": names, "normalization": normalization}


# name -> (model kind, corruption, expected message)
MODEL_CORRUPTIONS = {
    "not an object": ("gapnet", lambda obj: [1], "expected a JSON object"),
    "format version 2": ("mlp", _set(["format_version"], 2), "unsupported format_version 2"),
    "boolean format version": ("gapnet", _set(["format_version"], True),
                               "unsupported format_version True"),
    "kind only": ("gapnet", lambda obj: {"kind": "gapnet"}, "missing key 'bodies'"),
    "wrong kind": ("gapnet", _set(["kind"], "forest"), "unknown model kind 'forest'"),
    "missing fusion": ("gapnet", _drop(["fusion"]), "missing key 'fusion'"),
    "missing biases": ("mlp", _drop(["network", "layers", 0, "biases"]),
                       "missing key 'biases'"),
    "string weights": ("gapnet", _set(["bodies", 0, "layers", 0, "weights"], "abc"),
                       "could not convert"),
    "non-numeric weight": ("mlp", _set(["network", "layers", 1, "weights", 0, 0], "x"),
                           "could not convert"),
    "ragged weights": ("mlp", _set(["network", "layers", 0, "weights", 1], [1.0]),
                       "inhomogeneous"),
    "biases of wrong width": ("mlp", _set(["network", "layers", 2, "biases"], [0.0, 0.0]),
                              "do not form a layer"),
    "layers do not chain": ("gapnet", _set(["bodies", 1, "layers", 1, "weights"],
                                           [[0.0] * 4] * 3), "do not chain"),
    "no layers": ("mlp", _set(["network", "layers"], []), "at least one layer"),
    "unknown activation": ("gapnet", _set(["bodies", 0, "layers", 1, "activation"], "tanh"),
                           "unknown activation 'tanh'"),
    "body wider than cluster": ("gapnet", _set(["clusters", 0, "features"], [3]),
                                "do not match the cluster sizes"),
    "fusion of wrong width": ("gapnet", _drop(["bodies", 0]), "fusion input width"),
    "two-unit fusion": ("gapnet", _widen(["fusion"]), "one sigmoid unit"),
    "relu fusion": ("gapnet", _set(["fusion", "activation"], "relu"), "one sigmoid unit"),
    "two-unit baseline output": ("mlp", _widen(["network", "layers", 2]), "one sigmoid unit"),
    "relu baseline output": ("mlp", _set(["network", "layers", 2, "activation"], "relu"),
                             "one sigmoid unit"),
    "clusters share a feature": ("gapnet", _set(["clusters", 1, "features"], [0, 3]),
                                 "a feature appears in two clusters"),
    "fractional feature index": ("gapnet", _set(["clusters", 1, "features"], [0, 2.5]),
                                 "not an integer"),
    "dropout rate of 1": ("mlp", _set(["network", "dropout", 0, "rate"], 1.0),
                          "dropout rate"),
    "non-numeric normalization": ("mlp", _set(["normalization"], {"mean": ["a"], "std": [1]}),
                                  "could not convert"),
    "nan fusion weight": ("gapnet", _set(["fusion", "weights", 0, 0], float("nan")),
                          "non-finite weight or bias"),
    "infinite bias": ("mlp", _set(["network", "layers", 1, "biases", 0], -float("inf")),
                      "non-finite weight or bias"),
    "std shorter than mean": ("mlp", _set(["normalization"], _stats([0.0] * 4, [1.0] * 3)),
                              "not two lists of one length"),
    "nested normalization": ("mlp", _set(["normalization"], _stats([[0.0]], [[1.0]])),
                             "not two lists of one length"),
    "normalization wider than the names": (
        "gapnet", _named(["f1", "f2", "f3"], _stats([0.0] * 4, [1.0] * 4)),
        "normalization of 4 features for 3 feature names"),
    "std of 0": ("gapnet", _named(["f1", "f2"], _stats([0.0] * 2, [1.0, 0.0])),
                 "finite stds > 0"),
    "negative std": ("mlp", _set(["normalization"], _stats([0.0], [-1.0])), "finite stds > 0"),
    "nan std": ("mlp", _set(["normalization"], _stats([0.0], [float("nan")])),
                "finite stds > 0"),
    "infinite mean": ("mlp", _set(["normalization"], _stats([float("inf")], [1.0])),
                      "finite means"),
    "string freeze_bodies": ("gapnet", _set(["freeze_bodies"], "no"),
                             "freeze_bodies must be a JSON boolean, got 'no'"),
    "string trainable": ("mlp", _set(["network", "layers", 0, "trainable"], "false"),
                         "trainable must be a JSON boolean, got 'false'"),
    "float dropout placement": ("mlp", _set(["network", "dropout", 0, "placement"], 1.0),
                                "placement must be a JSON integer, got 1.0"),
    "boolean dropout placement": ("mlp", _set(["network", "dropout", 0, "placement"], True),
                                  "placement must be a JSON integer, got True"),
    "repeated dropout placement": ("mlp", _set(["network", "dropout"], [
        {"rate": 0.5, "placement": 1}, {"rate": 0.0, "placement": 1}]),
        "dropout placement 1 named twice"),
    "dropout placement out of range": ("mlp", _set(["network", "dropout", 0, "placement"], 5),
                                       "dropout placement 5 out of range"),
}


@pytest.mark.parametrize("name", sorted(MODEL_CORRUPTIONS))
def test_load_model_rejects_corrupt_files(tmp_path, name):
    kind, corrupt, message = MODEL_CORRUPTIONS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(corrupt(tiny_models(tmp_path)[kind])))
    with pytest.raises(ModelFileError, match=f"bad.json: .*{message}"):
        load_model(path)


def test_a_model_file_with_a_byte_order_mark_loads_as_without(tmp_path):
    text = json.dumps(tiny_models(tmp_path)["gapnet"])
    (tmp_path / "bom.json").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.json").read_bytes().startswith(b"\xef\xbb\xbf")
    save_model(load_model(tmp_path / "bom.json")[0], tmp_path / "again.json")
    assert json.loads((tmp_path / "again.json").read_text()) == json.loads(text)


@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    special=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
    freeze=st.booleans(),
    versioned=st.booleans(),
    rate=st.sampled_from([0.0, 0.5]),
)
@settings(max_examples=25, deadline=None)
def test_model_file_round_trip(tmp_path_factory, sizes, seed, special, freeze, versioned, rate):
    rng = np.random.default_rng(seed)
    order = rng.permutation(sum(sizes)).tolist()  # clusters in any index order
    ends = np.cumsum(sizes).tolist()
    clusters = [
        FeatureCluster(f"c{k}", order[end - size : end])
        for k, (size, end) in enumerate(zip(sizes, ends))
    ]
    subnets = [build_subnet(c, dropout_rate=rate, rng=rng) for c in clusters]
    model = fuse(subnets, clusters, rng, freeze_bodies=freeze)
    baseline = build_vanilla(sum(sizes), dropout_rate=rate, rng=rng)
    dropout = [{"rate": 0.5, "placement": 1}] if rate else []
    directory = tmp_path_factory.mktemp("model")
    for m in (model, baseline):
        weights = (m if m is baseline else m.bodies[0]).layers[0].weights
        weights.reshape(-1)[: len(special)] = special[: weights.size]  # any finite float64
        path, again = directory / "m.json", directory / "again.json"
        save_model(m, path)
        written = path.read_bytes()
        obj = json.loads(written)
        assert obj["format_version"] == 1
        nets = [obj["network"]] if m is baseline else obj["bodies"]
        assert [net["dropout"] for net in nets] == [dropout] * len(nets)
        # "trainable" is written from freeze_bodies: false only on frozen bodies
        trains = m is baseline or not freeze
        assert all(l["trainable"] is trains for net in nets for l in net["layers"])
        assert m is baseline or obj["fusion"]["trainable"] is True
        if not versioned:  # as written before the field existed
            del obj["format_version"]
            path.write_text(json.dumps(obj))
        loaded, names, stats = load_model(path)
        save_model(loaded, again)
        assert again.read_bytes() == written
        assert (names, stats) == (None, None)
        if m is model:
            assert loaded.freeze_bodies == freeze
            assert loaded.feature_indices == model.feature_indices
        X = rng.standard_normal((7, m.input_width))
        with np.errstate(over="ignore", invalid="ignore"):  # huge special weights
            assert np.array_equal(loaded.predict(X), m.predict(X), equal_nan=True)

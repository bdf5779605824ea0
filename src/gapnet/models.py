"""Vanilla baseline and two-stage gap-aware model construction and training.

Stage I trains one sub-network per feature cluster on the rows complete for
that cluster (test rows excluded). Stage II removes the sub-network output
heads, concatenates their last hidden activations, and trains a single
sigmoid output node over the concatenation on the fully complete rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import FeatureCluster
from .dataset import NormalizationStats, read_json
from .numerics import (
    AdamState,
    DenseLayer,
    FlatBuffer,
    MlpNetwork,
    NonFiniteError,
    NumericsError,
    Workspace,
    adam_step,
    dense_layer,
    dropout_mask,
    pin_blas_threads,
)


class TrainingError(RuntimeError):
    pass


class ConfigError(ValueError):
    """An invalid training or benchmark setting."""


class ModelFileError(ValueError):
    """A model file that does not describe a valid model."""


# the "format_version" that save_model writes and load_model accepts
MODEL_FORMAT_VERSION = 1

# elements of one activation array of a training step's row tile (rows x the
# widest layer; 256 KiB of float64), so that a step's arrays stay in the CPU
# cache. Fits of more rows than a tile get other output bits when it changes.
TILE_ELEMENTS = 32768


@dataclass
class TrainConfig:
    epochs: int = 2000
    learning_rate: float = 1e-3
    batch_size: int | None = None  # None = full batch
    dropout_rate: float = 0.5
    hidden_multiplier: int = 2
    seed: int = 0
    freeze_bodies: bool = True
    test_fraction: float = 0.2
    normalize: bool = True
    stratified: bool = True

    def __post_init__(self):
        for ok, message in self._rules():
            if not ok:
                raise ConfigError(message)

    def _rules(self):
        return [
            (self.epochs >= 1, "epochs must be >= 1"),
            (0 < self.learning_rate < math.inf, "learning_rate must be positive and finite"),
            (self.batch_size is None or self.batch_size >= 1, "batch_size must be >= 1"),
            (0.0 <= self.dropout_rate < 1.0, "dropout_rate must be in [0, 1)"),
            (self.hidden_multiplier >= 1, "hidden_multiplier must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),  # as SeedSequence requires
            (0.0 < self.test_fraction < 1.0, "test_fraction must be in (0, 1)"),
        ]


def build_vanilla(n_features, hidden_multiplier=2, dropout_rate=0.5, rng=None):
    """MLP with two hidden layers of hidden_multiplier * n_features ReLU units,
    dropout after the second hidden layer, and a single sigmoid output."""
    rng = rng if rng is not None else np.random.default_rng(0)
    width = hidden_multiplier * n_features
    layers = [
        dense_layer(n_features, width, "relu", rng),
        dense_layer(width, width, "relu", rng),
        dense_layer(width, 1, "sigmoid", rng),
    ]
    layers[1] = replace(layers[1], dropout=dropout_rate)
    return MlpNetwork(layers)


def build_subnet(cluster, hidden_multiplier=2, dropout_rate=0.5, rng=None):
    """Same construction rule applied to one cluster's feature count."""
    return build_vanilla(
        len(cluster.features), hidden_multiplier, dropout_rate, rng=rng
    )


def _pack(named_layers):
    """Move the layers' weights and biases into one FlatBuffer. Each layer
    keeps C-ordered views of it, so training updates the layers in place."""
    flat = FlatBuffer(
        [a.shape for _, l in named_layers for a in (l.weights, l.biases)],
        [f"{name} {part}" for name, _ in named_layers for part in ("weights", "biases")],
    )
    for k, (_, layer) in enumerate(named_layers):
        flat.views[2 * k][...], flat.views[2 * k + 1][...] = layer.weights, layer.biases
        layer.weights, layer.biases = flat.views[2 * k], flat.views[2 * k + 1]
    return flat


def _training_set(X, y, message):
    """X as one C-ordered float64 copy at most (a GEMM's bits depend on its
    operands' layout) and y as float64. An X of no rows raises
    TrainingError(message)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise TrainingError(message)
    return X, np.asarray(y, dtype=np.float64)


def _fit(named, X, y, cfg, rng, gradients):
    """The training loop of every fit: Adam on mean BCE over the parameters
    of the `(name, layer)` pairs, packed in that order, for cfg.epochs
    epochs of one full batch or of batches of cfg.batch_size rows in an
    order drawn from rng. `gradients(Xb, yb, out)` returns a batch's
    gradients as a FlatBuffer laid out like the packed parameters: `out`,
    which it fills, or one of its own."""
    params = _pack(named)
    out = FlatBuffer([v.shape for v in params.views])
    state = AdamState(learning_rate=cfg.learning_rate)
    pin_blas_threads()
    n = len(X)
    full = cfg.batch_size is None or cfg.batch_size >= n
    try:
        for _ in range(cfg.epochs):
            batches = [slice(None)] if full else np.split(
                rng.permutation(n), range(cfg.batch_size, n, cfg.batch_size))
            for rows in batches:
                adam_step(params, gradients(X[rows], y[rows], out), state)
    except NonFiniteError as exc:
        raise TrainingError(f"training diverged: {exc}") from exc


def tile_rows(net):
    """Rows per tile of a training step: the largest multiple of 4 (at least
    4) whose activations of the widest layer hold at most TILE_ELEMENTS."""
    widest = max(l.fan_out for l in net.layers)
    return max(4, TILE_ELEMENTS // widest // 4 * 4)


def fit_network(net, X, y, cfg, rng):
    """Train in place with Adam on mean BCE; full batch unless batch_size set.

    A batch longer than `tile_rows(net)` runs forward and backprop tile by
    tile, and the tiles' gradients are summed before its one Adam step. With
    a multiple of 4 rows per tile, each tile's dropout mask continues the
    generator's words where the last tile's stopped, so one dropout layer
    draws the masks of one pass over the whole batch.
    """
    X, y = _training_set(X, y, "empty training set")
    tile = tile_rows(net)
    workspaces = {}  # per tile length, made when first used

    def gradients(Xb, yb, total):
        m = len(yb)
        for start in range(0, m, tile):
            span = min(tile, m - start)
            workspace = workspaces.get(span) or workspaces.setdefault(span, Workspace(net, span))
            end = start + workspace.rows
            cache = net.forward(Xb[start:end], mode="train", rng=rng, workspace=workspace)
            net.backprop(cache, yb[start:end], workspace=workspace, mean_over=m)
            if start:
                total.data += workspace.grads.data
            elif m > tile:
                np.copyto(total.data, workspace.grads.data)
        return total if m > tile else workspace.grads

    _fit([(f"layer {i}", l) for i, l in enumerate(net.layers)], X, y, cfg, rng, gradients)
    return net


def _check_disjoint(clusters):
    """Raise NumericsError when a feature is in two of the clusters."""
    features = [j for c in clusters for j in c.features]
    if len(set(features)) != len(features):
        raise NumericsError("a feature appears in two clusters")


class GapNetModel:
    """Fused model: sub-network bodies, which stage II trains only when
    `freeze_bodies` is false, plus one trainable sigmoid output node over
    their concatenated hidden outputs.
    Its input is the block of the `feature_indices` columns, in that order;
    `columns[k]` indexes body k's columns of it. `head` is the one-layer
    network of the `fusion` layer, which it shares. No feature may be in
    two clusters."""

    def __init__(self, bodies, clusters, fusion, freeze_bodies=True):
        expected = sum(b.output_width for b in bodies)
        if fusion.fan_in != expected:
            raise NumericsError(
                f"fusion input width {fusion.fan_in} != sum of body widths {expected}"
            )
        if (fusion.fan_out, fusion.activation) != (1, "sigmoid"):
            raise NumericsError("the fusion node must be one sigmoid unit")
        widths = [b.input_width for b in bodies]
        if widths != [len(c.features) for c in clusters]:
            raise NumericsError(f"body input widths {widths} do not match the cluster sizes")
        _check_disjoint(clusters)
        # index arrays, not slices: X[:, cols] is the F-ordered copy the
        # bodies' GEMMs have always been given
        ends = np.cumsum(widths, dtype=int)
        self.columns = [np.arange(end - w, end) for w, end in zip(widths, ends)]
        self.input_width = sum(widths)
        self.bodies = bodies
        self.clusters = clusters
        self.fusion = fusion
        self.head = MlpNetwork([fusion])
        self.freeze_bodies = freeze_bodies

    @property
    def feature_indices(self):
        return [j for c in self.clusters for j in c.features]

    def check_block(self, X):
        if X.ndim != 2 or X.shape[1] != self.input_width:
            raise NumericsError(f"input {X.shape} is not {self.input_width} feature columns")

    def forward(self, X, mode="infer", rng=None):
        """X is the feature block; each body takes its cluster's columns.
        Returns every body's ForwardCache, their outputs' concat and the
        scores, which training needs."""
        self.check_block(X)
        caches = [
            body.forward(X[:, cols], mode=mode, rng=rng)
            for body, cols in zip(self.bodies, self.columns)
        ]
        concat = np.hstack([cache.outputs for cache in caches])
        return caches, concat, self.head.forward(concat).outputs

    def body_outputs(self, X):
        """Each body's inference output on its columns of block X. The bodies
        run one at a time, and each pass's cache is dropped before the next."""
        self.check_block(X)
        return [body.forward(X[:, cols]).outputs for body, cols in zip(self.bodies, self.columns)]

    def predict(self, X):
        return self.head.predict(np.hstack(self.body_outputs(np.asarray(X, dtype=np.float64))))

    def column_scorer(self, X):
        """A function `score(j, values)`: the scores of block X with its
        column j replaced by `values`, as `predict` gives them.

        Only the body whose cluster holds column j runs again, on its own
        F-ordered column copy of X, as `body_outputs` gives it. The head reads
        the C-ordered concat of the bodies' outputs over X: each score writes
        body k's new output into body k's columns, then restores them.
        """
        X = np.asarray(X, dtype=np.float64)
        hidden = self.body_outputs(X)
        blocks = [X[:, cols] for cols in self.columns]
        concat = np.hstack(hidden)
        owner = np.repeat(np.arange(len(blocks)), [len(cols) for cols in self.columns])
        edges = np.cumsum([0] + [h.shape[1] for h in hidden])

        def score(j, values):
            k = owner[j]
            block, local = blocks[k], j - self.columns[k][0]
            out = slice(edges[k], edges[k + 1])
            block[:, local] = values
            concat[:, out] = self.bodies[k].forward(block).outputs
            block[:, local] = X[:, j]
            scores = self.head.forward(concat).outputs.reshape(-1)
            concat[:, out] = hidden[k]
            return scores

        return score


def fuse(subnets, clusters, rng, freeze_bodies=True):
    """Drop each sub-network's output head and add a fresh fused output node.
    Clusters that share a feature, or a count of sub-networks other than
    one per cluster, raise NumericsError, as in GapNetModel."""
    bodies = [
        MlpNetwork([replace(l, weights=l.weights.copy(), biases=l.biases.copy())
                    for l in net.layers[:-1]])
        for net in subnets
    ]
    width = sum(b.output_width for b in bodies)
    fusion = dense_layer(width, 1, "sigmoid", rng)
    return GapNetModel(bodies, list(clusters), fusion, freeze_bodies=freeze_bodies)


def gapnet_gradients(model, caches, concat, scores, labels):
    """Gradients of mean BCE for the fused model, fusion node first, then
    body parameters in layer order (only when bodies are unfrozen)."""
    labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    delta = (scores - labels) / labels.size
    grads = [concat.T @ delta, np.ones(labels.size) @ delta]
    if not model.freeze_bodies:
        upstream = delta @ model.fusion.weights.T
        offset = 0
        for body, cache in zip(model.bodies, caches):
            w = body.output_width
            for pair in body.backprop_from(cache, upstream[:, offset : offset + w]):
                grads.extend(pair)
            offset += w
    return grads


def fit_gapnet(model, X, y, cfg, rng):
    """Stage-II training: Adam on the fusion node (and bodies when unfrozen).

    Body dropout stays active in train mode; the fusion node sees the
    post-dropout body outputs.

    A full batch over frozen bodies whose only dropout follows their last
    layer caches each body's output before that dropout: it never changes,
    so `model.body_outputs` computes it once, from the columns of X it
    always gives the body. Each step then draws only the masks, in body
    order as a full pass draws them, and applies the head to the C-ordered
    concat.
    Minibatches get no cache: the cached rows of a batch can differ by an
    ulp from a GEMM over those rows.
    """
    model.check_block(np.asarray(X, dtype=np.float64))
    X, y = _training_set(X, y, "no complete training rows for stage II")
    named = [("fusion", model.fusion)]
    if not model.freeze_bodies:
        named += [
            (f"body {k} layer {i}", layer)
            for k, body in enumerate(model.bodies)
            for i, layer in enumerate(body.layers)
        ]
    full_batch = cfg.batch_size is None or cfg.batch_size >= len(X)
    cached = full_batch and model.freeze_bodies and all(
        l.dropout == 0 for body in model.bodies for l in body.layers[:-1]
    )
    if cached:
        hidden = model.body_outputs(X)
        rates = [body.layers[-1].dropout for body in model.bodies]

    def gradients(Xb, yb, out):
        if cached:
            concat = np.hstack([
                h * dropout_mask(rng, rate, h.shape) if rate > 0 else h
                for h, rate in zip(hidden, rates)
            ])
            caches, scores = None, model.head.forward(concat).outputs
        else:
            caches, concat, scores = model.forward(Xb, mode="train", rng=rng)
        parts = gapnet_gradients(model, caches, concat, scores, yb)
        np.concatenate([g.ravel() for g in parts], out=out.data)
        return out

    _fit(named, X, y, cfg, rng, gradients)
    return model


def _train_rows_for(ds, split, feature_indices):
    rows = ds.complete_rows_for(feature_indices)
    excluded = np.isin(rows, split.test_rows)
    return rows[~excluded]


def _stream(cfg, key):
    """Model stream `key` of cfg.seed, as `SeedSequence(cfg.seed).spawn(...)[key]`: cluster k
    uses k, the baseline 0 (as cluster 0 does), stage II 999, the fusion node 1000."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(key,)))


def _fit_setup(ds, split, cfg, features, key, empty_message):
    """The `fit_network` arguments that train a baseline-shaped network over
    `features`, drawn from model stream `key`, on the rows complete for them
    minus test rows."""
    rows = _train_rows_for(ds, split, features)
    if rows.size == 0:
        raise TrainingError(empty_message)
    rng = _stream(cfg, key)
    net = build_vanilla(len(features), cfg.hidden_multiplier, cfg.dropout_rate, rng=rng)
    return net, ds.dense_block(rows, features), ds.labels[rows], cfg, rng


def train_stage1(ds, plan, split, cfg):
    """Train one sub-network per cluster on its complete rows minus test rows.

    Every fit is set up before any trains, so a cluster with no training
    rows raises before any training. The fits then train one after another
    in plan order, each drawing only from its own stream; the first failure
    is raised, and the fits after it do not train.
    """
    fits = [
        _fit_setup(
            ds, split, cfg, cluster.features, k,
            f"cluster {cluster.name!r} has no training rows after test exclusion",
        )
        for k, cluster in enumerate(plan.clusters)
    ]
    return [fit_network(*fit) for fit in fits]


def train_stage2(model, ds, split, cfg):
    """Train the fused model on the fully complete rows minus test rows."""
    rows = _train_rows_for(ds, split, model.feature_indices)
    X = ds.dense_block(rows, model.feature_indices)
    return fit_gapnet(model, X, ds.labels[rows], cfg, _stream(cfg, 999))


def train_gapnet(ds, plan, split, cfg):
    """Both stages: sub-networks, fuse, then fusion training. A plan whose
    clusters share a feature raises NumericsError before any fit trains."""
    _check_disjoint(plan.clusters)
    subnets = train_stage1(ds, plan, split, cfg)
    model = fuse(subnets, plan.clusters, _stream(cfg, 1000), freeze_bodies=cfg.freeze_bodies)
    train_stage2(model, ds, split, cfg)
    return model, subnets


def train_vanilla(ds, split, cfg):
    """Baseline: train on the fully complete rows minus test rows."""
    return fit_network(*_fit_setup(
        ds, split, cfg, range(ds.n_features), 0, "no complete training rows for the baseline"
    ))


def input_features(model):
    """The dataset columns a model reads, in its input order."""
    if isinstance(model, GapNetModel):
        return model.feature_indices
    return range(model.input_width)


def predict(model, ds, rows):
    """Deterministic scores for complete-enough rows of a dataset."""
    return model.predict(ds.dense_block(rows, input_features(model)))


def predict_subnet(net, cluster, ds, rows):
    """Score rows with a stage-I sub-network (its own cluster features only)."""
    return net.predict(ds.dense_block(rows, cluster.features))


# --- serialization -----------------------------------------------------------

def _layer_to_json(layer, trainable=True):
    return {
        "weights": layer.weights.tolist(),
        "biases": layer.biases.tolist(),
        "activation": layer.activation,
        "trainable": trainable,
    }


def _typed(value, kind, what):
    """value, when its type is exactly kind (so a bool is no int)."""
    if type(value) is not kind:
        name = {bool: "boolean", int: "integer"}[kind]
        raise ModelFileError(f"{what} must be a JSON {name}, got {value!r}")
    return value


def _layer_from_json(obj):
    _typed(obj["trainable"], bool, "a layer's trainable")
    layer = DenseLayer(
        weights=np.array(obj["weights"], dtype=np.float64),
        biases=np.array(obj["biases"], dtype=np.float64),
        activation=obj["activation"],
    )
    if not (np.isfinite(layer.weights).all() and np.isfinite(layer.biases).all()):
        raise ModelFileError("a layer holds a non-finite weight or bias")
    return layer


def _net_to_json(net, trainable=True):
    return {
        "layers": [_layer_to_json(l, trainable) for l in net.layers],
        "dropout": [
            {"rate": l.dropout, "placement": i}
            for i, l in enumerate(net.layers)
            if l.dropout > 0
        ],
    }


def _net_from_json(obj):
    """The network of obj; each `dropout` entry sets the rate of the layer
    at its placement."""
    net = MlpNetwork([_layer_from_json(l) for l in obj["layers"]])
    seen = set()
    for entry in obj["dropout"]:
        i = _typed(entry["placement"], int, "a dropout placement")
        if not 0 <= i < len(net.layers):
            raise ModelFileError(f"dropout placement {i} out of range")
        if i in seen:
            raise ModelFileError(f"dropout placement {i} named twice")
        seen.add(i)
        net.layers[i] = replace(net.layers[i], dropout=entry["rate"])
    return net


def save_model(model, path, feature_names=None, normalization=None):
    """Write a model (plus optional normalization stats) as JSON.

    Floats go through repr, which round-trips float64 exactly, so a loaded
    model predicts bit-identically. Each layer's "trainable" is
    `not freeze_bodies` on a body and true everywhere else.
    """
    if isinstance(model, GapNetModel):
        obj = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "gapnet",
            "bodies": [_net_to_json(b, not model.freeze_bodies) for b in model.bodies],
            "clusters": [
                {"name": c.name, "features": list(c.features)} for c in model.clusters
            ],
            "fusion": _layer_to_json(model.fusion),
            "freeze_bodies": model.freeze_bodies,
        }
    else:
        obj = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "mlp",
            "network": _net_to_json(model),
        }
    if feature_names is not None:
        obj["feature_names"] = list(feature_names)
    if normalization is not None:
        obj["normalization"] = {
            "mean": normalization.mean.tolist(),
            "std": normalization.std.tolist(),
        }
    # json.dumps runs the C encoder; json.dump(obj, fh) the pure-Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")


def _model_from_json(obj):
    if not isinstance(obj, dict):
        raise ModelFileError("expected a JSON object")
    # files written before the field existed are version 1
    version = obj.get("format_version", 1)
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelFileError(f"unsupported format_version {version!r}")
    if obj["kind"] == "gapnet":
        model = GapNetModel(
            bodies=[_net_from_json(b) for b in obj["bodies"]],
            clusters=[
                FeatureCluster(c["name"], c["features"]) for c in obj["clusters"]
            ],
            fusion=_layer_from_json(obj["fusion"]),
            freeze_bodies=_typed(obj["freeze_bodies"], bool, "freeze_bodies"),
        )
    elif obj["kind"] == "mlp":
        model = _net_from_json(obj["network"])
        if (model.output_width, model.layers[-1].activation) != (1, "sigmoid"):
            raise ModelFileError("the baseline's output layer must be one sigmoid unit")
    else:
        raise ModelFileError(f"unknown model kind {obj['kind']!r}")
    names, stats = obj.get("feature_names"), None
    if "normalization" in obj:
        stats = NormalizationStats(
            mean=np.array(obj["normalization"]["mean"], dtype=np.float64),
            std=np.array(obj["normalization"]["std"], dtype=np.float64),
        )
        width = stats.mean.shape
        if len(width) != 1 or stats.std.shape != width:
            raise ModelFileError("normalization mean and std are not two lists of one length")
        if names is not None and width != (len(names),):
            raise ModelFileError(
                f"normalization of {width[0]} features for {len(names)} feature names"
            )
        if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()
                and (stats.std > 0).all()):
            raise ModelFileError("normalization needs finite means and finite stds > 0")
    return model, names, stats


def load_model(path):
    """Returns (model, feature_names or None, NormalizationStats or None).

    Raises ModelFileError, a ValueError, when the file does not describe a
    model: a format_version other than 1 (a missing one reads as 1), a
    wrong kind, a missing key, a non-numeric array, a non-finite weight or
    bias, layers that do not chain, an unknown activation, a baseline
    network or fusion node that does not end in one sigmoid unit, a body
    that does not fit its cluster, a feature in two clusters, a
    `freeze_bodies` or layer `trainable` that is not a JSON boolean (a
    layer's `trainable` is dropped once checked: `freeze_bodies` alone
    decides what stage II trains), a
    dropout `placement` that is not a JSON integer (true and false are
    not), is not a layer index or is named twice (an entry of rate 0 too),
    a dropout rate outside [0, 1), or a normalization whose mean and std
    are not finite lists of one length per feature name with every std > 0.
    The file is read by `read_json`.
    """
    obj, _ = read_json(path, ModelFileError)
    try:
        return _model_from_json(obj)
    except KeyError as exc:
        raise ModelFileError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: {exc}") from exc

"""Dense-network math: layers, activations, loss, backprop, Adam, dropout.

Everything operates on float64 numpy arrays. Batches are row-major
(samples x features). Networks are plain stacks of dense layers; a layer
with a dropout rate above 0 applies an inverted-dropout mask to its output
in training.

Training passes a `Workspace` so that a step writes into preallocated arrays
and keeps its parameters and gradients in `FlatBuffer`s; every other caller
gets fresh arrays. Both paths run the same operations on operands of the
same layout, so they give the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import pickle
import threading
from dataclasses import dataclass, field

import numpy as np

SCORE_EPS = 1e-12

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# the prefixes and suffixes around OpenBLAS's symbol names ("get_config")
# that numpy's wheels have used
_BLAS_NAMINGS = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


class NumericsError(ValueError):
    """Raised on shape mismatches or non-finite values in network math."""


class NonFiniteError(NumericsError):
    """Raised by Adam when a gradient holds inf or NaN."""


@functools.cache
def _openblas():
    """The OpenBLAS bundled with numpy, as a function from a symbol's base
    name ("set_num_threads") to that symbol; None when no bundled OpenBLAS
    with a known naming is found."""
    base = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(base, ".libs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded, not a second one
        except OSError:
            continue
        for prefix, suffix in _BLAS_NAMINGS:
            if hasattr(lib, f"{prefix}set_num_threads{suffix}"):
                return lambda name: getattr(lib, prefix + name + suffix)
    return None


def pin_blas_threads():
    """Run the OpenBLAS bundled with numpy on one thread.

    A GEMM's bits depend on how many threads split it, so output is only
    reproducible at a fixed count. Forked children inherit the setting.
    Does nothing when no bundled OpenBLAS is found.
    """
    blas = _openblas()
    if blas is not None:
        blas("set_num_threads")(1)


def blas_build():
    """What sets the output bits besides the inputs: numpy's version, the
    bundled OpenBLAS's config string, which names its GEMM kernel, and its
    thread count; the last two are None when no bundled OpenBLAS is found."""
    blas = _openblas()
    config = threads = None
    if blas is not None:
        get_config = blas("get_config")
        get_config.restype = ctypes.c_char_p
        config, threads = get_config().decode(), blas("get_num_threads")()
    return {"numpy_version": np.__version__, "blas_config": config, "blas_threads": threads}


def usable_cpus():
    """The number of CPUs this process may run on, at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def forked_map(fn, n, processes):
    """[fn(r) for r in ranges], where range(n) is cut into
    p = min(processes, n, usable CPUs) contiguous ranges, the i-th being
    range(n * i // p, n * (i + 1) // p), and ranges 1 and up each run on a
    forked child.

    Every child is forked before range 0 runs here, and sends its result or
    its exception back pickled through a pipe. The results come back in range
    order; the first failure in range order is raised here, and a child that
    ends without sending a result raises RuntimeError. Every child is reaped
    before this returns or raises, and is killed first when this fails or is
    interrupted before every result is in. Every range runs here when there
    is no os.fork, another live thread (a forked copy of a lock that thread
    holds would never be released) or one range.
    """
    parts = min(processes, n, usable_cpus())
    ranges = [range(n * i // parts, n * (i + 1) // parts) for i in range(parts)]
    if len(ranges) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(r) for r in ranges]
    children, sent, codes = [], [], []
    try:
        for part in ranges[1:]:
            children.append(_fork_call(fn, part))
        results = [fn(ranges[0])]
        for _, r in children:
            with open(r, "rb", closefd=False) as fh:
                sent.append(fh.read())
    finally:
        if len(sent) < len(children):
            # imported only here: its enums add 0.1 MB to every gapnet process
            import signal

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        for pid, r in children:
            os.close(r)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for data, code in zip(sent, codes):
        if code != 0 or not data:
            raise RuntimeError(f"a forked child ended with code {code} without a result")
        ok, value = pickle.loads(data)  # written by a child forked above
        if not ok:
            raise value
        results.append(value)
    return results


def _fork_call(fn, item):
    """Fork a child that pickles (True, fn(item)), or (False, the exception
    fn raised), to a pipe and leaves through os._exit, with code 0 only once
    all of it is written; (the child's pid, the pipe's read end)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                outcome = (True, fn(item))
            except BaseException as exc:  # raised again by the caller
                outcome = (False, exc)
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            with open(w, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


def sigmoid(z, out=None):
    # exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, e / (1 + e) below
    z = np.asarray(z, dtype=np.float64)
    e = np.negative(np.abs(z))
    np.exp(e, out=e)
    num = np.where(z >= 0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=out)


_ACTIVATIONS = {
    "relu": relu,
    "sigmoid": sigmoid,
}


def _activation_backward(name, h, grad_h):
    """Turn dL/dh into dL/dz in place, given the post-activation h of a
    relu or sigmoid layer (the two that `DenseLayer` admits).

    ReLU reads h > 0, which holds exactly where z > 0 does.
    """
    if name == "relu":
        np.multiply(grad_h, h > 0, out=grad_h)
    else:
        slope = np.subtract(1.0, h)
        slope *= h
        grad_h *= slope
    return grad_h


def dropout_mask(rng, rate, shape, out=None):
    """Inverted-dropout mask: 1/keep for a kept unit, else 0 (keep = 1 - rate).

    Unit i of the mask, in C order, is the 16-bit field i % 4 of raw word
    i // 4 of rng's bit generator, read little-endian. The unit is kept when
    its field is below round(keep * 2**16), so the keep probability is that
    threshold over 2**16. An n-unit mask advances the generator by exactly
    ceil(n / 4) words. With `out` the shape is taken from it.
    """
    keep = 1.0 - rate
    shape = shape if out is None else out.shape
    n = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-n // 4))
    fields = words.astype("<u8", copy=False).view("<u2")[:n].reshape(shape)
    # True * (1/keep) and False * (1/keep) are exactly 1/keep and 0
    return np.multiply(fields < round(keep * 2**16), 1.0 / keep, out=out)


class FlatBuffer:
    """Arrays stored back to back in one float64 vector, `data`, with
    optional names.

    `views[i]` is array i as a C-ordered view of its slice of `data`, so a
    write through either is seen by both.
    """

    def __init__(self, shapes, names=()):
        sizes = [int(np.prod(s)) for s in shapes]
        self.ends = np.cumsum(sizes, dtype=np.int64)
        self.data = np.zeros(int(self.ends[-1]) if sizes else 0)
        self.views = [
            self.data[end - size : end].reshape(shape)
            for end, size, shape in zip(self.ends, sizes, shapes)
        ]
        self.names = list(names)

    def name_at(self, index):
        """Name of the array that holds element `index` of `data`."""
        return self.names[int(np.searchsorted(self.ends, index, side="right"))]


@dataclass
class DenseLayer:
    weights: np.ndarray  # (fan_in, fan_out)
    biases: np.ndarray  # (fan_out,)
    activation: str = "relu"
    dropout: float = 0.0  # probability of dropping an output unit in training
    # not a field, and true of every layer: perfbench/tracer.py's _backprop_meta reads it
    trainable = True

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise NumericsError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise NumericsError(f"dropout rate must be in [0, 1), got {self.dropout}")
        if self.weights.ndim != 2 or self.biases.shape != self.weights.shape[1:]:
            raise NumericsError(
                f"weights of shape {self.weights.shape} and biases of shape "
                f"{self.biases.shape} do not form a layer"
            )

    @property
    def fan_in(self):
        return self.weights.shape[0]

    @property
    def fan_out(self):
        return self.weights.shape[1]


def glorot_init(fan_in, fan_out, rng):
    """Glorot-uniform weight matrix; biases are created separately as zeros."""
    if fan_in < 1 or fan_out < 1:
        raise NumericsError("fan_in and fan_out must be >= 1")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def dense_layer(fan_in, fan_out, activation, rng):
    return DenseLayer(
        weights=glorot_init(fan_in, fan_out, rng),
        biases=np.zeros(fan_out),
        activation=activation,
    )


class Workspace:
    """Preallocated C-ordered arrays for training steps of one network on
    batches of exactly `rows` rows.

    `grads` holds every layer's gradients in one FlatBuffer (weights then
    biases, layer by layer), laid out like the parameters a trainer packs.
    Arrays a step returns stay valid only until the next step. Each
    activation is computed in place over its pre-activation, which backprop
    never reads; fewer arrays keep a step's working set in the CPU cache.
    """

    def __init__(self, net, rows):
        layers = net.layers

        def per_layer(keep=lambda l: True):
            return [np.empty((rows, l.fan_out)) if keep(l) else None for l in layers]

        self.grads = FlatBuffer([a.shape for l in layers for a in (l.weights, l.biases)])
        self.rows = rows
        self.ones = np.ones(rows)  # bias gradients are ones @ delta
        self.h = per_layer()  # pre-activation, overwritten in place by the activation
        self.mask = per_layer(lambda l: l.dropout > 0)
        self.a = per_layer(lambda l: l.dropout > 0)  # post-dropout output
        self.delta = per_layer()  # dL/dh, turned into dL/dz in place

    def check(self, rows):
        if rows != self.rows:
            raise NumericsError(f"batch of {rows} rows in a workspace of {self.rows}")


@dataclass
class ForwardCache:
    """Per-layer tensors recorded during a forward pass, needed by backprop."""

    inputs: list  # input to each layer (post-dropout of the previous one)
    post_activations: list  # after activation, before dropout
    dropout_masks: dict  # layer index -> mask (already scaled by 1/keep)
    outputs: np.ndarray  # final post-dropout output of the last layer


class MlpNetwork:
    """A stack of dense layers; each applies its own dropout rate in training."""

    def __init__(self, layers):
        if not layers:
            raise NumericsError("a network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.fan_out != b.fan_in:
                raise NumericsError(
                    f"layer widths do not chain: {a.fan_out} -> {b.fan_in}"
                )
        self.layers = list(layers)

    @property
    def input_width(self):
        return self.layers[0].fan_in

    @property
    def output_width(self):
        return self.layers[-1].fan_out

    def forward(self, batch, mode="infer", rng=None, workspace=None):
        """Run the network; in train mode draws and records dropout masks.

        With a workspace, which must be sized for this batch, the returned
        tensors live in its arrays.
        """
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.input_width:
            raise NumericsError(
                f"batch width {batch.shape[1] if batch.ndim == 2 else batch.shape} "
                f"does not match network input width {self.input_width}"
            )
        if mode == "train" and any(l.dropout > 0 for l in self.layers) and rng is None:
            raise NumericsError("train mode with dropout requires an rng")
        if workspace is not None:
            workspace.check(batch.shape[0])
        inputs, post, masks = [], [], {}
        a = batch
        for i, layer in enumerate(self.layers):
            inputs.append(a)
            z = np.matmul(a, layer.weights, out=workspace.h[i] if workspace else None)
            z += layer.biases
            h = _ACTIVATIONS[layer.activation](z, out=z)
            post.append(h)
            if layer.dropout > 0 and mode == "train":
                mask, out = (workspace.mask[i], workspace.a[i]) if workspace else (None, None)
                masks[i] = dropout_mask(rng, layer.dropout, h.shape, out=mask)
                a = np.multiply(h, masks[i], out=out)
            else:
                a = h
        return ForwardCache(inputs, post, masks, a)

    def predict(self, X):
        """Scores of an inference pass, one per row of X."""
        return self.forward(X, mode="infer").outputs.reshape(-1)

    def backprop(self, cache, labels, workspace=None, mean_over=None):
        """Gradients of mean BCE loss w.r.t. all parameters.

        Requires a sigmoid output head without dropout (BCE of a probability
        scaled by 1/keep is not defined); uses the fused sigmoid+BCE delta.
        With a workspace the gradients are written into `workspace.grads`.
        The mean is taken over `mean_over` rows (default: this batch's), so
        the gradients of a batch's row tiles sum to the batch's gradients.
        """
        labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        scores = cache.outputs
        if scores.shape[0] != labels.shape[0]:
            raise NumericsError("label count does not match batch size")
        if (self.layers[-1].activation, self.layers[-1].dropout) != ("sigmoid", 0.0):
            raise NumericsError("backprop against labels requires a sigmoid head without dropout")
        n = scores.shape[0]
        if workspace is not None:
            workspace.check(n)
        delta = np.subtract(scores, labels, out=workspace.delta[-1] if workspace else None)
        delta /= n if mean_over is None else mean_over  # dL/dz of the output layer
        return self._backward(cache, delta, workspace)

    def backprop_from(self, cache, upstream):
        """Gradients given dL/d(final post-dropout output) instead of labels."""
        last = len(self.layers) - 1
        if last in cache.dropout_masks:
            grad_h = upstream * cache.dropout_masks[last]
        else:
            grad_h = np.array(upstream, dtype=np.float64)
        delta = _activation_backward(
            self.layers[last].activation, cache.post_activations[last], grad_h
        )
        return self._backward(cache, delta, None)

    def _backward(self, cache, delta, workspace):
        """Shared backward chain; `delta` is dL/dz of the last layer."""
        grads = [None] * len(self.layers)
        ones = workspace.ones if workspace else np.ones(delta.shape[0])
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            gw, gb = workspace.grads.views[2 * i : 2 * i + 2] if workspace else (None, None)
            grads[i] = (
                np.matmul(cache.inputs[i].T, delta, out=gw),
                np.matmul(ones, delta, out=gb),  # one GEMV
            )
            if i == 0:
                break  # nothing consumes the gradient w.r.t. the input batch
            out = workspace.delta[i - 1] if workspace else None
            if layer.fan_out == 1:
                # an outer product: elementwise, it skips GEMM set-up and
                # differs at most in the sign of zeros, which no later sum
                # or Adam update can see
                grad_h = np.multiply(delta, layer.weights.T, out=out)
            else:
                grad_h = np.matmul(delta, layer.weights.T, out=out)
            if (i - 1) in cache.dropout_masks:
                grad_h *= cache.dropout_masks[i - 1]
            delta = _activation_backward(
                self.layers[i - 1].activation, cache.post_activations[i - 1], grad_h
            )
        return grads


def bce_loss(scores, labels):
    """Mean binary cross-entropy; scores are clamped away from {0, 1}."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.size == 0:
        raise NumericsError("bce_loss on empty input")
    if scores.shape != labels.shape:
        raise NumericsError("scores and labels differ in length")
    if not np.all(np.isfinite(scores)):
        raise NumericsError("non-finite score passed to bce_loss")
    s = np.clip(scores, SCORE_EPS, 1.0 - SCORE_EPS)
    return float(-np.mean(labels * np.log(s) + (1.0 - labels) * np.log(1.0 - s)))




@dataclass
class AdamState:
    """Adam moments for one list of parameter arrays."""

    learning_rate: float = 1e-3
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    temps: list = field(default_factory=list, repr=False)

    def _ensure(self, params):
        if not self.first_moment:
            self.first_moment = [np.zeros_like(p) for p in params]
            self.second_moment = [np.zeros_like(p) for p in params]
        if len(self.first_moment) != len(params):
            raise NumericsError("Adam state does not match parameter count")
        if len(self.temps) != len(params):
            self.temps = [(np.empty_like(p), np.empty_like(p)) for p in params]


def adam_step(params, grads, state):
    """One in-place Adam update over a flat list of parameter arrays.

    `params` and `grads` may instead be two FlatBuffers of one layout: they
    are then updated as one vector with one finiteness check, and an error
    gives the name that `params` holds for the offending array.
    """
    names = None
    if isinstance(params, FlatBuffer):
        names, params, grads = params, [params.data], [grads.data]
    state._ensure(params)
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for i, (p, g) in enumerate(zip(params, grads)):
        # the sum is non-finite if an element is, or on overflow; only
        # then does the elementwise test run
        if not np.isfinite(g.sum()) and not np.isfinite(g).all():
            where = f"parameter {i}"
            if names is not None:
                where = names.name_at(np.flatnonzero(~np.isfinite(g))[0])
            raise NonFiniteError(f"non-finite gradient for {where}")
        m = state.first_moment[i]
        v = state.second_moment[i]
        tmp, step = state.temps[i]
        # the same roundings as m = b1 m + (1-b1) g, v = b2 v + (1-b2) g g,
        # p -= lr m_hat / (sqrt(v_hat) + eps), with products commuted
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, 1.0 - b2**t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPSILON
        np.divide(m, 1.0 - b1**t, out=step)
        step *= state.learning_rate
        step /= tmp
        p -= step
    return params, state


def finite_diff_grad(network, batch, labels, epsilon=1e-6):
    """Central-difference gradient of mean BCE, parameter by parameter.

    Test oracle: runs the network in infer mode, so dropout must be disabled
    when comparing against backprop.
    """
    if not 1e-7 <= epsilon <= 1e-4:
        raise NumericsError("epsilon out of the supported range [1e-7, 1e-4]")

    def loss():
        return bce_loss(network.forward(batch, mode="infer").outputs, labels)

    grads = []
    for layer in network.layers:
        pair = []
        for arr in (layer.weights, layer.biases):
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + epsilon
                up = loss()
                flat[k] = orig - epsilon
                down = loss()
                flat[k] = orig
                gflat[k] = (up - down) / (2.0 * epsilon)
            pair.append(g)
        grads.append(tuple(pair))
    return grads

import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from gapnet import numerics
from gapnet.numerics import (
    AdamState,
    DenseLayer,
    MlpNetwork,
    NumericsError,
    Workspace,
    adam_step,
    bce_loss,
    dense_layer,
    dropout_mask,
    finite_diff_grad,
    forked_map,
    glorot_init,
    relu,
    sigmoid,
)
from conftest import assert_no_child_left


def make_net(widths, activations, seed=0):
    rng = np.random.default_rng(seed)
    layers = [
        dense_layer(a, b, act, rng)
        for (a, b), act in zip(zip(widths, widths[1:]), activations)
    ]
    return MlpNetwork(layers)


def test_sigmoid_symmetry():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([500.0]))[0] == pytest.approx(1.0)
    assert sigmoid(np.array([-500.0]))[0] == pytest.approx(0.0)


def test_relu_definition():
    assert relu(np.array([-3.0]))[0] == 0.0
    assert relu(np.array([2.5]))[0] == 2.5


def test_forward_rejects_width_mismatch():
    net = make_net([4, 3, 1], ["relu", "sigmoid"])
    with pytest.raises(NumericsError, match="width"):
        net.forward(np.zeros((2, 5)))


def test_sigmoid_head_scores_in_open_interval():
    net = make_net([3, 6, 1], ["relu", "sigmoid"], seed=2)
    out = net.forward(np.random.default_rng(0).standard_normal((10, 3))).outputs
    assert np.all(out > 0) and np.all(out < 1)


def test_bce_all_half_is_ln2():
    assert bce_loss([0.5, 0.5, 0.5], [1, 0, 1]) == pytest.approx(math.log(2))


def test_bce_perfect_prediction_near_zero():
    assert bce_loss([1 - 1e-12], [1]) == pytest.approx(0.0, abs=1e-9)


def test_bce_frozen_example():
    # brute force: -(ln 0.9 + ln 0.8) / 2
    assert bce_loss([0.9, 0.2], [1, 0]) == pytest.approx(0.164252033486018, abs=1e-12)


def test_bce_rejects_empty_and_nan():
    with pytest.raises(NumericsError):
        bce_loss([], [])
    with pytest.raises(NumericsError):
        bce_loss([np.nan], [1])
    with pytest.raises(NumericsError, match="scores and labels differ in length"):
        bce_loss([0.5, 0.5], [1])


def test_logistic_regression_gradient_closed_form():
    # single dense layer + sigmoid: dW_j = mean((s - y) * x_j)
    rng = np.random.default_rng(3)
    net = make_net([4, 1], ["sigmoid"], seed=3)
    x = rng.standard_normal((12, 4))
    y = rng.integers(0, 2, 12).astype(float)
    cache = net.forward(x, mode="train")
    (gw, gb), = net.backprop(cache, y)
    s = cache.outputs.reshape(-1)
    expected = (x * (s - y)[:, None]).mean(axis=0)
    assert gw.reshape(-1) == pytest.approx(expected, abs=1e-12)
    assert gb[0] == pytest.approx((s - y).mean(), abs=1e-12)


def test_labels_equal_scores_give_zero_gradients():
    net = make_net([3, 5, 1], ["relu", "sigmoid"], seed=4)
    x = np.random.default_rng(1).standard_normal((6, 3))
    cache = net.forward(x, mode="train")
    grads = net.backprop(cache, cache.outputs.reshape(-1))
    for gw, gb in grads:
        assert np.all(gw == 0) and np.all(gb == 0)


def test_backprop_needs_one_label_per_row():
    net = make_net([3, 1], ["sigmoid"])
    cache = net.forward(np.zeros((4, 3)), mode="train")
    with pytest.raises(NumericsError, match="label count does not match batch size"):
        net.backprop(cache, np.ones(3))


def test_train_mode_with_dropout_needs_an_rng():
    net = make_net([3, 4, 1], ["relu", "sigmoid"])
    net.layers[0] = replace(net.layers[0], dropout=0.5)
    with pytest.raises(NumericsError, match="train mode with dropout requires an rng"):
        net.forward(np.zeros((2, 3)), mode="train")


def rel_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            scale = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    return worst


@pytest.mark.parametrize("seed, hidden", [(0, "relu"), (1, "relu"), (2, "relu"), (0, "sigmoid")],
                         ids=["0", "1", "2", "sigmoid"])
def test_backprop_matches_finite_differences(seed, hidden):
    rng = np.random.default_rng(seed)
    net = make_net([5, 10, 10, 1], [hidden, hidden, "sigmoid"], seed=seed)
    x = rng.standard_normal((7, 5))
    y = rng.integers(0, 2, 7).astype(float)
    cache = net.forward(x, mode="train")
    analytic = net.backprop(cache, y)
    numeric = finite_diff_grad(net, x, y)
    assert rel_error(analytic, numeric) < 1e-4


def test_finite_diff_matches_logistic_closed_form():
    rng = np.random.default_rng(7)
    net = make_net([3, 1], ["sigmoid"], seed=7)
    x = rng.standard_normal((9, 3))
    y = rng.integers(0, 2, 9).astype(float)
    (gw, gb), = finite_diff_grad(net, x, y)
    s = net.forward(x).outputs.reshape(-1)
    expected = (x * (s - y)[:, None]).mean(axis=0)
    assert gw.reshape(-1) == pytest.approx(expected, abs=1e-6)


def test_finite_diff_epsilon_bounds():
    net = make_net([2, 1], ["sigmoid"])
    with pytest.raises(NumericsError):
        finite_diff_grad(net, np.zeros((1, 2)), [1], epsilon=1e-3)


def test_adam_first_step_magnitude():
    # with a constant gradient the bias-corrected ratio is sign(g)
    params = [np.array([1.0, -2.0])]
    grads = [np.array([0.3, -4.0])]
    state = AdamState(learning_rate=1e-3)
    adam_step(params, grads, state)
    delta = params[0] - np.array([1.0, -2.0])
    assert delta == pytest.approx([-1e-3, 1e-3], rel=1e-6)


def test_adam_zero_gradient_is_a_fixed_point():
    params = [np.array([0.5, 1.5])]
    state = AdamState()
    for _ in range(10):
        adam_step(params, [np.zeros(2)], state)
    assert np.array_equal(params[0], [0.5, 1.5])
    assert state.step_count == 10


def test_adam_rejects_non_finite_gradient():
    state = AdamState()
    with pytest.raises(NumericsError, match="parameter 1"):
        adam_step([np.zeros(2), np.zeros(2)], [np.zeros(2), np.array([np.inf, 0.0])], state)


def test_adam_state_keeps_its_parameter_count():
    state = AdamState()
    adam_step([np.zeros(2)], [np.zeros(2)], state)
    with pytest.raises(NumericsError, match="Adam state does not match parameter count"):
        adam_step([np.zeros(2), np.zeros(2)], [np.zeros(2), np.zeros(2)], state)


def test_adam_trajectories_are_bit_identical():
    def run():
        rng = np.random.default_rng(11)
        net = make_net([4, 8, 1], ["relu", "sigmoid"], seed=11)
        x = rng.standard_normal((10, 4))
        y = rng.integers(0, 2, 10).astype(float)
        params = [p for layer in net.layers for p in (layer.weights, layer.biases)]
        state = AdamState()
        for _ in range(50):
            cache = net.forward(x, mode="train")
            grads = [g for pair in net.backprop(cache, y) for g in pair]
            adam_step(params, grads, state)
        return [p.copy() for p in params]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_glorot_bound_and_determinism():
    w = glorot_init(3, 3, np.random.default_rng(0))
    assert np.all(np.abs(w) <= 1.0)  # sqrt(6/6) = 1
    assert np.array_equal(w, glorot_init(3, 3, np.random.default_rng(0)))


def test_glorot_mean_near_zero():
    w = glorot_init(500, 200, np.random.default_rng(1))
    assert abs(w.mean()) < 0.01


def test_glorot_rejects_degenerate_fans():
    with pytest.raises(NumericsError):
        glorot_init(0, 3, np.random.default_rng(0))


def test_inverted_dropout_preserves_expectation():
    # the identity on positive input
    net = MlpNetwork([DenseLayer(np.eye(4), np.zeros(4), "relu", dropout=0.5)])
    x = np.full((250_000, 4), 3.0)
    out = net.forward(x, mode="train", rng=np.random.default_rng(1)).outputs
    infer = net.forward(x[:1], mode="infer").outputs[0]
    # a unit reads 0 or 6, mean 3 and sd 3: five standard errors of a
    # column mean, 5 * 3 / sqrt(250,000), are 1% of the mean
    assert np.all(np.abs(out.mean(axis=0) - infer) / infer < 0.01)


MASK_UNITS = (1000, 1000)


@pytest.mark.parametrize("rate", [0.5, 0.2, 0.3])
def test_dropout_keeps_its_share(rate):
    mask = dropout_mask(np.random.default_rng(3), rate, MASK_UNITS)
    keep = round((1 - rate) * 2**16) / 2**16
    n = mask.size
    assert abs(np.count_nonzero(mask) / n - keep) < 5 * math.sqrt(keep * (1 - keep) / n)


@pytest.mark.parametrize("rate", [0.5, 0.3])
def test_dropout_mask_values_are_zero_or_the_scale(rate):
    mask = dropout_mask(np.random.default_rng(4), rate, MASK_UNITS)
    assert mask.dtype == np.float64
    assert set(np.unique(mask).tolist()) == {0.0, 1.0 / (1.0 - rate)}


def test_dropout_mask_is_fixed_by_the_generator_state():
    masks = [dropout_mask(np.random.default_rng(5), 0.3, MASK_UNITS) for _ in range(2)]
    assert np.array_equal(*masks)
    assert not np.array_equal(masks[0], dropout_mask(np.random.default_rng(6), 0.3, MASK_UNITS))


def test_dropout_mask_into_out_equals_fresh_mask():
    fresh = dropout_mask(np.random.default_rng(7), 0.3, MASK_UNITS)
    out = np.full(MASK_UNITS, np.nan)
    into = dropout_mask(np.random.default_rng(7), 0.3, None, out=out)
    assert into is out
    assert np.array_equal(fresh, out)


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_dropout_mask_takes_one_raw_word_per_four_units(extra):
    n = 10**6 + extra
    drawn = np.random.default_rng(8)
    dropout_mask(drawn, 0.5, (n,))
    skipped = np.random.default_rng(8)
    skipped.bit_generator.random_raw(-(-n // 4))
    assert drawn.bit_generator.state == skipped.bit_generator.state


def test_dropout_rate_must_be_below_one():
    with pytest.raises(NumericsError, match="dropout rate"):
        DenseLayer(np.eye(2), np.zeros(2), dropout=1.0)


def test_a_layer_takes_no_trainable_setting():
    # what trains is the trainer's choice (GapNetModel.freeze_bodies), not the layer's
    with pytest.raises(TypeError, match="trainable"):
        DenseLayer(np.eye(2), np.zeros(2), trainable=False)


def test_gradient_descent_decreases_loss_on_separable_toy():
    rng = np.random.default_rng(9)
    n = 40
    y = (np.arange(n) % 2).astype(float)
    x = np.where(y[:, None] == 1, 1.5, -1.5) + 0.2 * rng.standard_normal((n, 2))
    net = make_net([2, 4, 1], ["relu", "sigmoid"], seed=9)
    losses = []
    for _ in range(100):
        cache = net.forward(x, mode="train")
        losses.append(bce_loss(cache.outputs, y))
        for layer, (gw, gb) in zip(net.layers, net.backprop(cache, y)):
            layer.weights -= 0.05 * gw
            layer.biases -= 0.05 * gb
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_infer_forward_returns_fresh_arrays():
    net = make_net([3, 6, 1], ["relu", "sigmoid"], seed=5)
    x = np.random.default_rng(2).standard_normal((4, 3))
    first = net.forward(x)
    kept = first.outputs.copy()
    second = net.forward(2.0 * x)
    assert not np.shares_memory(first.outputs, second.outputs)
    for a, b in zip(first.post_activations, second.post_activations):
        assert not np.shares_memory(a, b)
    assert np.array_equal(first.outputs, kept)


def test_workspace_takes_batches_of_its_own_size_only():
    net = make_net([3, 6, 1], ["relu", "sigmoid"], seed=5)
    x = np.random.default_rng(2).standard_normal((4, 3))
    cache = net.forward(x, mode="train", workspace=Workspace(net, 4))
    for rows in (3, 5):
        with pytest.raises(NumericsError, match=f"batch of 4 rows in a workspace of {rows}"):
            net.forward(x, mode="train", workspace=Workspace(net, rows))
        with pytest.raises(NumericsError, match=f"batch of 4 rows in a workspace of {rows}"):
            net.backprop(cache, np.ones(4), workspace=Workspace(net, rows))


def test_forked_map_returns_the_results_in_item_order(cpus):
    forked = cpus(4)
    pids = forked_map(lambda r: (r.start * r.start, os.getpid()), 4, 4)
    assert [square for square, _ in pids] == [0, 1, 4, 9]
    assert pids[0][1] == os.getpid()
    assert len({pid for _, pid in pids}) == 4
    assert len(forked) == 3
    assert_no_child_left()


@pytest.mark.parametrize("n_cpus,processes,n,ranges", [
    (2, 5, 5, [range(0, 2), range(2, 5)]),
    (8, 5, 3, [range(0, 1), range(1, 2), range(2, 3)]),
    (8, 2, 5, [range(0, 2), range(2, 5)]),
])
def test_forked_map_cuts_range_n_to_the_fewest_of_processes_n_and_cpus(
        cpus, n_cpus, processes, n, ranges):
    # the calling process runs the first range, so it forks one child fewer
    forked = cpus(n_cpus)
    assert forked_map(lambda r: r, n, processes) == ranges
    assert len(forked) == len(ranges) - 1
    assert_no_child_left()


def fail_from(first):
    def fn(r):
        if r.start >= first:
            raise KeyError(f"item {r.start}")
        return r.start
    return fn


@pytest.mark.parametrize("first", [0, 1, 2])
def test_forked_map_raises_the_first_failure_in_item_order(cpus, first):
    forked = cpus(4)
    with pytest.raises(KeyError, match=f"item {first}"):
        forked_map(fail_from(first), 4, 4)
    assert len(forked) == 3
    assert_no_child_left()


@pytest.mark.parametrize("code", [0, 5])
def test_a_child_that_sends_no_result_is_a_runtime_error(cpus, code):
    cpus(3)
    with pytest.raises(RuntimeError, match=f"code {code} without a result"):
        forked_map(lambda r: os._exit(code) if r.start == 2 else r.start, 3, 3)
    assert_no_child_left()


def test_the_children_are_killed_when_the_caller_fails(cpus):
    def fn(r):
        if r.start == 0:
            raise ValueError("caller failed")
        threading.Event().wait(60)  # killed long before this returns

    forked = cpus(3)
    with pytest.raises(ValueError, match="caller failed"):
        forked_map(fn, 3, 3)
    assert len(forked) == 2
    assert_no_child_left()


def test_a_failed_fork_closes_its_pipe_and_leaves_no_child(monkeypatch):
    # the first fork succeeds, the second raises: forked_map kills and reaps
    # the first child, and _fork_call closes the pipe it made for the second
    monkeypatch.setattr(numerics, "usable_cpus", lambda: 3)
    fork, pipe, ends = os.fork, os.pipe, []

    def recorded_pipe():
        ends.extend(pipe())
        return ends[-2], ends[-1]

    def fork_once():
        if len(ends) > 2:
            raise OSError("fork failed")
        return fork()

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(OSError, match="fork failed"):
        forked_map(lambda r: r, 3, 3)
    assert len(ends) == 4
    for fd in ends:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert_no_child_left()


@pytest.fixture
def live_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    yield
    stop.set()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("case", ["no os.fork", "one cpu", "live thread", "one item"])
def test_cases_that_must_not_fork_run_here(monkeypatch, request, case):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(numerics, "usable_cpus", lambda: 1 if case == "one cpu" else 3)
    if case == "no os.fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", no_fork)
    if case == "live thread":
        request.getfixturevalue("live_thread")
    n = 1 if case == "one item" else 3
    ranges = [range(0, 3)] if case == "one cpu" else [range(i, i + 1) for i in range(n)]
    assert forked_map(lambda r: (r, os.getpid()), n, 3) == [(r, os.getpid()) for r in ranges]


def test_usable_cpus_is_at_least_one(monkeypatch):
    assert numerics.usable_cpus() >= 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert numerics.usable_cpus() == 1

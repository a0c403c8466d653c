import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient, fd_relative_error, oracle_error_rate
from snapens.errors import InputError
from snapens.nn import (
    EVAL_BLOCK_ROWS,
    Batch,
    ModelSpec,
    Workspace,
    evaluate_error,
    forward,
    init_params,
    layer_views,
    loss_and_grad,
    param_count,
    softmax,
)


def test_param_count_is_deterministic_sum():
    assert param_count(ModelSpec((2, 3, 2))) == 2 * 3 + 3 + 3 * 2 + 2
    assert param_count(ModelSpec((5, 4))) == 5 * 4 + 4


def test_model_spec_validation():
    with pytest.raises(InputError):
        ModelSpec((3,))
    with pytest.raises(InputError):
        ModelSpec((3, 0, 2))
    with pytest.raises(InputError):
        ModelSpec((2, 2), activation="tanh")
    with pytest.raises(InputError):
        ModelSpec((2, 2), dropout_rate=1.0)


def test_init_biases_are_exactly_zero():
    params = init_params(ModelSpec((2, 3, 2)), seed=42)
    for _, b in layer_views(ModelSpec((2, 3, 2)), params):
        assert np.all(b == 0.0)


def test_init_is_pure_function_of_seed_and_spec():
    spec = ModelSpec((2, 3, 2))
    a = init_params(spec, 7)
    b = init_params(spec, 7)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, init_params(spec, 8))


def test_init_weight_bounds_follow_fan_in():
    spec = ModelSpec((2, 3, 2))
    params = init_params(spec, 7)
    (w1, _), (w2, _) = layer_views(spec, params)
    assert np.all(np.abs(w1) <= math.sqrt(6.0 / 2))
    assert np.all(np.abs(w2) <= math.sqrt(6.0 / 3))


def test_layer_views_of_a_stack_are_its_rows_views_without_copies():
    spec = ModelSpec((3, 5, 4, 2))
    stack = np.random.default_rng(4).normal(size=(3, param_count(spec)))
    views = layer_views(spec, stack)
    for k, row in enumerate(stack):
        for (w, b), (w_k, b_k) in zip(views, layer_views(spec, row), strict=True):
            assert (w[k].shape, b[k].shape) == (w_k.shape, b_k.shape)
            assert w[k].tobytes() == w_k.tobytes() and b[k].tobytes() == b_k.tobytes()
    # a write through each view lands in every row of the stack, in layout order
    for i, (w, b) in enumerate(views):
        w[...], b[...] = 2.0 * i + 1, 2.0 * i + 2
    row = np.concatenate([np.full(n, 2.0 * i + j) for i, (w, b) in enumerate(views)
                          for n, j in ((w[0].size, 1), (b[0].size, 2))])
    assert stack.tobytes() == np.tile(row, (3, 1)).tobytes()


@pytest.mark.parametrize("shape", [(), (2, 2, 54)], ids=["0-d", "3-d"])
def test_layer_views_refuse_params_that_are_not_a_vector_or_a_stack(shape):
    spec = ModelSpec((3, 5, 4, 2))
    assert param_count(spec) == 54
    with pytest.raises(InputError, match=r"a flat vector or a \(K, P\) stack"):
        layer_views(spec, np.zeros(shape))


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=25)
def test_init_purity_property(seed):
    spec = ModelSpec((3, 4, 2))
    np.testing.assert_array_equal(init_params(spec, seed), init_params(spec, seed))


def test_forward_zero_params_give_zero_logits():
    spec = ModelSpec((2, 3, 2))
    batch = Batch(np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([0, 1]))
    logits = forward(spec, np.zeros(param_count(spec)), batch)
    np.testing.assert_array_equal(logits, np.zeros((2, 2)))


def test_forward_train_equals_eval_without_dropout():
    spec = ModelSpec((2, 4, 3), dropout_rate=0.0)
    params = init_params(spec, 1)
    batch = Batch(np.random.default_rng(2).normal(size=(5, 2)), np.zeros(5, int))
    train_out = forward(spec, params, batch, "train", dropout_seed=99)
    eval_out = forward(spec, params, batch, "eval")
    np.testing.assert_array_equal(train_out, eval_out)


def test_forward_matches_hand_computation():
    # [2,2,2]: z1 = x@W1 + b1 = [-3, 6.5] -> relu [0, 6.5]; logits = [-6.25, 6.25]
    spec = ModelSpec((2, 2, 2))
    params = np.array([1.0, -2.0, 3.0, 4.0, -10.0, 0.5, 1.0, 2.0, -1.0, 1.0, 0.25, -0.25])
    batch = Batch(np.array([[1.0, 2.0]]), np.array([0]))
    logits = forward(spec, params, batch)
    np.testing.assert_allclose(logits, [[-6.25, 6.25]], rtol=0, atol=0)


def test_forward_dimension_mismatch_raises():
    spec = ModelSpec((2, 3, 2))
    batch = Batch(np.zeros((4, 3)), np.zeros(4, int))
    with pytest.raises(InputError):
        forward(spec, init_params(spec, 0), batch)
    with pytest.raises(InputError):
        forward(spec, np.zeros(3), Batch(np.zeros((4, 2)), np.zeros(4, int)))


def test_forward_dropout_is_seed_deterministic_and_eval_free():
    spec = ModelSpec((2, 8, 2), dropout_rate=0.5)
    params = init_params(spec, 5)
    batch = Batch(np.random.default_rng(0).normal(size=(6, 2)), np.zeros(6, int))
    a = forward(spec, params, batch, "train", dropout_seed=123)
    b = forward(spec, params, batch, "train", dropout_seed=123)
    c = forward(spec, params, batch, "train", dropout_seed=124)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # eval never applies dropout regardless of the seed
    np.testing.assert_array_equal(
        forward(spec, params, batch, "eval", 1), forward(spec, params, batch, "eval", 2)
    )


def _trained_like(sizes, rows, seed):
    """Spec, perturbed parameters and a batch of random inputs."""
    spec = ModelSpec(sizes)
    rng = np.random.default_rng(seed)
    params = 1.3 * init_params(spec, seed) + rng.normal(0.0, 0.05, param_count(spec))
    return spec, params, Batch(rng.normal(size=(rows, sizes[0])), np.zeros(rows, int))


def _full_batch_forward(spec, params, inputs, drop=0.0, seed=0):
    """The whole batch through every layer at once, written apart from `nn`:
    the logits, each layer's input, and each hidden layer's pre-activation
    and dropout mask (None without dropout), masks drawn layer by layer."""
    rng = np.random.default_rng(seed)
    layers = layer_views(spec, params)
    a, layer_inputs, pre_acts, masks = inputs, [], [], []
    for w, b in layers:
        layer_inputs.append(a)
        z = a @ w
        z += b
        if len(layer_inputs) == len(layers):
            return z, layer_inputs, pre_acts, masks
        pre_acts.append(z)
        a = np.maximum(z, 0.0)
        masks.append(rng.random(a.shape) < 1.0 - drop if drop > 0.0 else None)
        if drop > 0.0:
            a *= masks[-1]
            a /= 1.0 - drop


def _full_batch_probabilities(spec, params, batch):
    return softmax(_full_batch_forward(spec, params, batch.inputs)[0])


@pytest.mark.parametrize(
    "sizes, rows",
    [((2, 64, 64, 2), 1), ((2, 64, 64, 2), 1000), ((2, 64, 64, 2), 6000), ((784, 256, 256, 10), 250)],
)
def test_eval_forward_equals_full_batch_bit_for_bit(sizes, rows):
    spec, params, batch = _trained_like(sizes, rows, 31)
    blocked = softmax(forward(spec, params, batch))
    assert blocked.tobytes() == _full_batch_probabilities(spec, params, batch).tobytes()


# On OpenBLAS 0.3.31 a gemm over a short final block can round differently
# from the same rows inside one full-batch gemm: these shapes differ in the
# last bits of some probabilities, never in an argmax seen so far.
@pytest.mark.parametrize(
    "sizes, rows", [((2, 64, 64, 2), 513), ((784, 256, 256, 10), 513), ((784, 256, 256, 10), 1100)]
)
def test_eval_forward_matches_full_batch_to_the_last_bits(sizes, rows):
    spec, params, batch = _trained_like(sizes, rows, 32)
    blocked = softmax(forward(spec, params, batch))
    full = _full_batch_probabilities(spec, params, batch)
    np.testing.assert_array_equal(blocked.argmax(axis=1), full.argmax(axis=1))
    np.testing.assert_allclose(blocked, full, rtol=1e-12, atol=0)


def test_train_forward_with_dropout_keeps_the_full_batch_mask_stream():
    spec = ModelSpec((2, 16, 16, 2), dropout_rate=0.3)
    _, params, batch = _trained_like((2, 16, 16, 2), 1100, 33)
    logits, *_ = _full_batch_forward(spec, params, batch.inputs, 0.3, 77)
    assert forward(spec, params, batch, "train", dropout_seed=77).tobytes() == logits.tobytes()


def test_softmax_symmetric_and_constant_rows():
    np.testing.assert_allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=0)
    out = softmax(np.array([[7.3, 7.3, 7.3]]))
    np.testing.assert_allclose(out, np.full((1, 3), 1 / 3), atol=1e-15)


def test_softmax_survives_huge_logits():
    out = softmax(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)


@given(
    st.lists(
        st.lists(st.floats(-30, 30), min_size=2, max_size=5),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    st.floats(-50, 50),
)
@settings(max_examples=80)
def test_softmax_rows_sum_to_one_and_shift_invariant(rows, shift):
    logits = np.array(rows)
    probs = softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(softmax(logits + shift), probs, rtol=0, atol=1e-12)


def test_loss_zero_params_is_log_k():
    spec = ModelSpec((2, 4, 3))
    batch = Batch(np.random.default_rng(1).normal(size=(6, 2)), np.array([0, 1, 2, 0, 1, 2]))
    loss, _ = loss_and_grad(spec, np.zeros(param_count(spec)), batch, "eval")
    assert loss == pytest.approx(math.log(3), rel=1e-12)


def test_gradient_matches_central_finite_differences():
    spec = ModelSpec((2, 4, 3))
    rng = np.random.default_rng(0)
    params = rng.normal(scale=0.8, size=param_count(spec))
    batch = Batch(rng.normal(size=(8, 2)), rng.integers(0, 3, 8))
    assert fd_relative_error(spec, params, batch, step=1e-5) < 1e-6


def test_gradient_matches_finite_differences_under_dropout():
    spec = ModelSpec((2, 6, 3), dropout_rate=0.4)
    rng = np.random.default_rng(3)
    params = rng.normal(scale=0.8, size=param_count(spec))
    batch = Batch(rng.normal(size=(5, 2)), rng.integers(0, 3, 5))

    def loss_fn(p):
        return loss_and_grad(spec, p, batch, "train", dropout_seed=77)[0]

    _, analytic = loss_and_grad(spec, params, batch, "train", dropout_seed=77)
    numeric = fd_gradient(spec, params, batch, step=1e-5, loss_fn=loss_fn)
    scale = max(np.max(np.abs(numeric)), 1e-12)
    assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


def test_loss_and_grad_duplication_invariant():
    spec = ModelSpec((2, 4, 3))
    rng = np.random.default_rng(4)
    params = rng.normal(size=param_count(spec))
    inputs = rng.normal(size=(5, 2))
    labels = rng.integers(0, 3, 5)
    loss1, grad1 = loss_and_grad(spec, params, Batch(inputs, labels), "eval")
    doubled = Batch(np.repeat(inputs, 2, axis=0), np.repeat(labels, 2))
    loss2, grad2 = loss_and_grad(spec, params, doubled, "eval")
    assert loss1 == pytest.approx(loss2, abs=1e-12)
    np.testing.assert_allclose(grad1, grad2, atol=1e-12)


def test_evaluate_error_perfect_and_inverted(moons200):
    # zero params predict class 0 everywhere (argmax tie -> lowest index)
    spec = ModelSpec((2, 2))
    params = np.zeros(param_count(spec))
    all_zero = Batch(moons200.inputs, np.zeros(len(moons200), int))
    all_one = Batch(moons200.inputs, np.ones(len(moons200), int))
    assert evaluate_error(spec, params, all_zero) == 0.0
    assert evaluate_error(spec, params, all_one) == 1.0


def test_evaluate_error_matches_per_example_oracle(moons200):
    spec = ModelSpec((2, 5, 2))
    params = init_params(spec, 9)
    assert evaluate_error(spec, params, moons200) == oracle_error_rate(spec, params, moons200)


def test_evaluate_error_duplication_invariant(moons200):
    spec = ModelSpec((2, 5, 2))
    params = init_params(spec, 10)
    base = evaluate_error(spec, params, moons200)
    doubled = Batch(
        np.repeat(moons200.inputs, 2, axis=0), np.repeat(moons200.labels, 2)
    )
    assert evaluate_error(spec, params, doubled) == base


def test_evaluate_error_empty_dataset_raises():
    spec = ModelSpec((2, 2))
    with pytest.raises(InputError):
        evaluate_error(spec, np.zeros(param_count(spec)), Batch(np.zeros((0, 2)), np.zeros(0, int)))


def test_gradient_property_twenty_random_cases():
    spec = ModelSpec((2, 4, 3))
    rng = np.random.default_rng(12)
    for _ in range(20):
        params = rng.normal(scale=0.7, size=param_count(spec))
        batch = Batch(rng.normal(size=(8, 2)), rng.integers(0, 3, 8))
        assert fd_relative_error(spec, params, batch, step=1e-5) < 1e-6


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
def test_workspace_gradient_is_bit_identical_and_written_in_place(dropout_rate):
    spec = ModelSpec((3, 7, 5, 4), dropout_rate=dropout_rate)
    rng = np.random.default_rng(21)
    batch = Batch(rng.normal(size=(9, 3)), rng.integers(0, 4, 9))
    workspace = Workspace(spec)
    workspace.params[...] = rng.normal(scale=0.8, size=param_count(spec))
    loss, grad = loss_and_grad(spec, workspace.params.copy(), batch, "train", dropout_seed=5)
    ws_loss, ws_grad = loss_and_grad(
        spec, workspace.params, batch, "train", dropout_seed=5, workspace=workspace
    )
    assert ws_grad is workspace.grad
    assert ws_loss == loss
    assert ws_grad.tobytes() == grad.tobytes()


def _full_batch_loss_and_grad(spec, params, batch, drop, seed):
    """Mean cross-entropy and its gradient by a backward pass that applies
    the reference forward's explicit masks and pre-activation signs."""
    logits, layer_inputs, pre_acts, masks = _full_batch_forward(spec, params, batch.inputs, drop, seed)
    n = len(batch)
    rows = np.arange(n)
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    expsum = exp.sum(axis=1, keepdims=True)
    loss = float(np.add.reduce(np.log(expsum[:, 0]) - logits[rows, batch.labels]) / n)
    delta = exp / expsum
    delta[rows, batch.labels] -= 1.0
    delta /= n
    grads = []
    for i in range(len(layer_inputs) - 1, -1, -1):
        grads[:0] = [(layer_inputs[i].T @ delta).ravel(), delta.sum(axis=0)]
        if i > 0:
            delta = delta @ layer_views(spec, params)[i][0].T
            if masks[i - 1] is not None:
                delta *= masks[i - 1]
                delta /= 1.0 - drop
            delta *= pre_acts[i - 1] > 0.0
    return loss, np.concatenate(grads)


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
def test_loss_and_grad_on_a_batch_past_the_eval_block_matches_the_full_batch_reference(dropout_rate):
    spec = ModelSpec((2, 64, 64, 2), dropout_rate=dropout_rate)
    _, params, batch = _trained_like((2, 64, 64, 2), 1100, 34)
    batch = Batch(batch.inputs, np.random.default_rng(35).integers(0, 2, len(batch)))
    assert len(batch) > EVAL_BLOCK_ROWS
    loss, grad = loss_and_grad(spec, params, batch, "train", dropout_seed=78)
    ref_loss, ref_grad = _full_batch_loss_and_grad(spec, params, batch, dropout_rate, 78)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad.tobytes()


def test_workspace_rejects_foreign_params():
    spec = ModelSpec((2, 3, 2))
    batch = Batch(np.zeros((2, 2)), np.zeros(2, int))
    with pytest.raises(InputError):
        loss_and_grad(spec, np.zeros(param_count(spec)), batch, workspace=Workspace(spec))


def test_evaluate_error_rejects_label_outside_class_count(moons200):
    spec = ModelSpec((2, 3, 2))
    labels = moons200.labels.copy()
    labels[0] = 2
    with pytest.raises(InputError, match="labels"):
        evaluate_error(spec, init_params(spec, 0), Batch(moons200.inputs, labels))


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_stacked_loss_and_grad_gives_each_run_its_lone_bytes(rows):
    specs = [ModelSpec((3, 7, 5, 4), dropout_rate=rate) for rate in (0.0, 0.3, 0.5)]
    rng = np.random.default_rng(rows)
    workspace = Workspace(specs[0], len(specs))
    workspace.params[...] = rng.normal(scale=0.8, size=workspace.params.shape)
    stack = Batch(rng.normal(size=(3, rows, 3)), rng.integers(0, 4, (3, rows)))
    seeds = (5, 6, 7)
    losses, grad = loss_and_grad(specs, workspace.params, stack, "train", seeds, workspace=workspace)
    assert grad is workspace.grad and grad.shape == workspace.params.shape
    for k, spec in enumerate(specs):
        batch = Batch(stack.inputs[k], stack.labels[k])
        loss, lone = loss_and_grad(spec, workspace.params[k].copy(), batch, "train", seeds[k])
        assert losses[k] == loss
        assert grad[k].tobytes() == lone.tobytes()


def test_stack_of_one_equals_the_lone_call():
    spec = ModelSpec((2, 6, 3), dropout_rate=0.2)
    rng = np.random.default_rng(3)
    workspace = Workspace(spec, 1)
    workspace.params[0] = rng.normal(size=param_count(spec))
    batch = Batch(rng.normal(size=(9, 2)), rng.integers(0, 3, 9))
    losses, grad = loss_and_grad([spec], workspace.params, Batch(batch.inputs[None], batch.labels[None]),
                                 "train", [11], workspace=workspace)
    loss, lone = loss_and_grad(spec, workspace.params[0].copy(), batch, "train", 11)
    assert losses == [loss]
    assert grad.tobytes() == lone.tobytes()


def test_stacked_call_refuses_mixed_layer_shapes():
    specs = [ModelSpec((2, 4, 2)), ModelSpec((2, 5, 2))]
    params = np.zeros((2, param_count(specs[0])))
    batch = Batch(np.zeros((2, 3, 2)), np.zeros((2, 3), int))
    with pytest.raises(InputError, match="one layer shape"):
        loss_and_grad(specs, params, batch, "train", [0, 0])

import math

import numpy as np
import pytest

from snapens.analysis import (
    CorrelationMatrix,
    default_lambda_grid,
    interpolate,
    mean_offdiagonal,
    softmax_correlation,
)
from snapens.data import gen_two_moons
from snapens.ensemble import PredictionMatrix
from snapens.errors import InputError, UndefinedCorrelationError
from snapens.nn import ModelSpec, evaluate_error, init_params


@pytest.fixture(scope="module")
def setup():
    ds = gen_two_moons(200, 0.1, seed=0)
    spec = ModelSpec((2, 6, 2))
    theta1 = init_params(spec, 1)
    theta2 = init_params(spec, 2)
    return spec, theta1, theta2, ds


def test_interpolation_endpoints_match_standalone_bit_for_bit(setup):
    spec, theta1, theta2, ds = setup
    curve = interpolate(spec, theta1, theta2, ds, np.array([0.0, 0.5, 1.0]))
    assert curve.errors[0] == evaluate_error(spec, theta2, ds)
    assert curve.errors[-1] == evaluate_error(spec, theta1, ds)


def test_interpolation_of_identical_endpoints_is_constant(setup):
    spec, theta1, _, ds = setup
    curve = interpolate(spec, theta1, theta1, ds)
    assert np.all(curve.errors == curve.errors[0])
    assert len(curve.lambdas) == 51


def test_interpolation_symmetry_on_dyadic_grid(setup):
    spec, theta1, theta2, ds = setup
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    forward_curve = interpolate(spec, theta1, theta2, ds, grid)
    backward_curve = interpolate(spec, theta2, theta1, ds, grid)
    np.testing.assert_array_equal(forward_curve.errors, backward_curve.errors[::-1])


def test_interpolation_validation(setup):
    spec, theta1, _, ds = setup
    with pytest.raises(InputError):
        interpolate(spec, theta1, theta1[:-1], ds)
    with pytest.raises(InputError):
        interpolate(spec, theta1, theta1, ds, np.array([0.0, 1.2]))
    with pytest.raises(InputError):
        interpolate(spec, theta1, theta1, ds, np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        interpolate(spec, theta1, theta1, ds, np.array([]))


def test_default_lambda_grid_shape():
    grid = default_lambda_grid()
    assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 51


def test_correlation_of_identical_matrices_is_one():
    probs = np.array([[0.8, 0.2], [0.3, 0.7]])
    matrix = softmax_correlation(
        [PredictionMatrix(probs, "a"), PredictionMatrix(probs.copy(), "b")]
    )
    assert abs(matrix.values[0, 1] - 1.0) < 1e-12
    assert matrix.values[0, 0] == 1.0 and matrix.values[1, 1] == 1.0


def test_correlation_affine_invariance():
    rng = np.random.default_rng(0)
    x = rng.random((5, 3))
    y = 2.5 * x + 0.3
    matrix = softmax_correlation([PredictionMatrix(x, "x"), PredictionMatrix(y, "y")])
    assert abs(matrix.values[0, 1] - 1.0) < 1e-9


def test_correlation_matches_hand_computation():
    # flattened vectors: A=(.8,.2,.4,.6), B=(.6,.4,.3,.7), C=(.5,.5,.9,.1)
    # hand Pearson: r_AB = sqrt(2)/2, r_AC = -1/sqrt(10), r_BC = -2/sqrt(5)
    a = PredictionMatrix(np.array([[0.8, 0.2], [0.4, 0.6]]), "a")
    b = PredictionMatrix(np.array([[0.6, 0.4], [0.3, 0.7]]), "b")
    c = PredictionMatrix(np.array([[0.5, 0.5], [0.9, 0.1]]), "c")
    matrix = softmax_correlation([a, b, c])
    assert matrix.values[0, 1] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert matrix.values[0, 2] == pytest.approx(-1 / math.sqrt(10), abs=1e-12)
    assert matrix.values[1, 2] == pytest.approx(-2 / math.sqrt(5), abs=1e-12)


def test_correlation_matrix_properties():
    rng = np.random.default_rng(3)
    preds = [PredictionMatrix(rng.random((6, 4)), f"s{i}") for i in range(5)]
    matrix = softmax_correlation(preds)
    np.testing.assert_array_equal(matrix.values, matrix.values.T)
    assert np.all(np.diag(matrix.values) == 1.0)
    assert np.all(matrix.values <= 1.0 + 1e-9)
    assert np.all(matrix.values >= -1.0 - 1e-9)


def test_zero_variance_vector_raises_named_error():
    flat = PredictionMatrix(np.full((3, 2), 0.5), "flat_snapshot")
    other = PredictionMatrix(np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]), "ok")
    with pytest.raises(UndefinedCorrelationError, match="flat_snapshot"):
        softmax_correlation([other, flat])


def test_correlation_input_validation():
    probs = np.ones((2, 2)) / 2
    with pytest.raises(InputError):
        softmax_correlation([PredictionMatrix(probs, "a")])
    with pytest.raises(InputError):
        softmax_correlation(
            [PredictionMatrix(probs, "a"), PredictionMatrix(np.ones((3, 2)) / 2, "b")]
        )


def test_mean_offdiagonal():
    values = np.array([[1.0, 0.2, 0.4], [0.2, 1.0, 0.6], [0.4, 0.6, 1.0]])
    assert mean_offdiagonal(CorrelationMatrix(values)) == pytest.approx(0.4)

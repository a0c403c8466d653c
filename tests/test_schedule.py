import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snapens.errors import InputError
from snapens.schedule import ScheduleSpec, cycle_end_iterations, lr_at

# alpha0/2 * (cos(pi*99/100) + 1) at 50-digit precision (frozen from mpmath)
LR_T100_ALPHA02_L100 = 4.9343963426844300e-05

CYCLIC = ScheduleSpec("cyclic_cosine", 0.2, 600, 6)
STEP = ScheduleSpec("step", 0.1, 300)


def test_cyclic_cycle_start_is_alpha0_exactly():
    assert lr_at(CYCLIC, 1) == 0.2
    assert lr_at(CYCLIC, 101) == 0.2  # restart
    assert lr_at(CYCLIC, 501) == 0.2


def test_cyclic_half_cycle_is_half_alpha0():
    assert abs(lr_at(CYCLIC, 51) - 0.1) < 1e-12


def test_cyclic_end_of_cycle_matches_high_precision_cosine():
    assert abs(lr_at(CYCLIC, 100) - LR_T100_ALPHA02_L100) < 1e-12
    assert abs(lr_at(CYCLIC, 600) - LR_T100_ALPHA02_L100) < 1e-12


def test_step_drops_at_half_and_three_quarters():
    assert lr_at(STEP, 1) == 0.1
    assert lr_at(STEP, 150) == 0.1
    assert abs(lr_at(STEP, 151) - 0.01) < 1e-12
    assert abs(lr_at(STEP, 225) - 0.01) < 1e-12
    assert abs(lr_at(STEP, 226) - 0.001) < 1e-12
    assert abs(lr_at(STEP, 300) - 0.001) < 1e-12


def test_custom_step_fractions():
    spec = ScheduleSpec("step", 1.0, 100, step_fractions=((0.2, 0.5), (0.9, 0.1)))
    assert lr_at(spec, 20) == 1.0
    assert lr_at(spec, 21) == 0.5
    assert lr_at(spec, 90) == 0.5
    assert abs(lr_at(spec, 91) - 0.05) < 1e-15


def test_iteration_out_of_range_raises():
    for t in (0, 601, -5):
        with pytest.raises(InputError):
            lr_at(CYCLIC, t)


def test_is_cycle_end_at_boundaries():
    assert cycle_end_iterations(CYCLIC) == (100, 200, 300, 400, 500, 600)


def test_final_partial_cycle_ends_with_snapshot():
    spec = ScheduleSpec("cyclic_cosine", 0.2, 601, 6)  # L = 101
    assert cycle_end_iterations(spec) == (101, 202, 303, 404, 505, 601)


def test_is_cycle_end_requires_cyclic():
    with pytest.raises(InputError):
        cycle_end_iterations(STEP)


def test_spec_validation():
    for kind in ("warmup", "constant"):
        with pytest.raises(InputError):
            ScheduleSpec(kind, 0.1, 10)
    with pytest.raises(InputError):
        ScheduleSpec("step", 0.0, 10)
    with pytest.raises(InputError):
        ScheduleSpec("cyclic_cosine", 0.1, 10)  # cycles missing
    with pytest.raises(InputError):
        ScheduleSpec("cyclic_cosine", 0.1, 5, 6)  # M > T
    with pytest.raises(InputError):
        ScheduleSpec("step", 0.1, 10, step_fractions=((0.75, 0.1), (0.5, 0.1)))
    with pytest.raises(InputError):
        ScheduleSpec("step", 0.1, 10, step_fractions=((1.5, 0.1),))


@given(st.integers(1, 12), st.integers(1, 40))
@settings(max_examples=60)
def test_cycle_count_and_periodicity_when_m_divides_t(cycles, cycle_len):
    total = cycles * cycle_len
    spec = ScheduleSpec("cyclic_cosine", 0.3, total, cycles)
    ends = cycle_end_iterations(spec)
    assert len(ends) == cycles
    assert ends == tuple(range(cycle_len, total + 1, cycle_len))
    for t in range(1, total - cycle_len + 1):
        assert lr_at(spec, t) == lr_at(spec, t + cycle_len)


@given(st.integers(1, 8), st.integers(2, 50), st.floats(0.01, 2.0))
@settings(max_examples=60)
def test_cyclic_monotone_within_cycle_and_bounded(cycles, cycle_len, alpha0):
    total = cycles * cycle_len
    spec = ScheduleSpec("cyclic_cosine", alpha0, total, cycles)
    values = [lr_at(spec, t) for t in range(1, total + 1)]
    for t, lr in enumerate(values, start=1):
        assert 0.0 < lr <= alpha0
        if (t - 1) % cycle_len == 0:
            assert lr == alpha0  # every cycle start restarts at alpha0 exactly
    for t in range(1, total):
        if t % cycle_len != 0:  # same cycle window
            assert values[t] <= values[t - 1]

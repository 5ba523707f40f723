import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlsbm import Assignment, RecoveryLoss, ValidationError, detection_risk, hamming_loss


def balanced_assignments(m):
    """Strategy over balanced length-m assignments."""
    positions = st.permutations(range(m))
    return positions.map(
        lambda perm: Assignment(tuple(1 if i in set(perm[: m // 2]) else 0 for i in range(m)))
    )


def test_identity_and_flip_give_zero():
    sigma = Assignment((0, 1, 1, 0))
    assert hamming_loss(sigma, sigma).value == 0.0
    assert hamming_loss(sigma.flipped(), sigma).value == 0.0


def test_worst_case_half():
    sigma = Assignment((0, 0, 1, 1))
    sigma_hat = Assignment((0, 1, 0, 1))
    assert hamming_loss(sigma_hat, sigma).value == pytest.approx(0.5)


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        hamming_loss(Assignment((0, 1)), Assignment((0, 0, 1, 1)))


@given(a=balanced_assignments(6), b=balanced_assignments(6))
def test_loss_symmetric_flip_invariant_and_bounded(a, b):
    loss = hamming_loss(a, b).value
    assert loss == hamming_loss(b, a).value
    assert loss == hamming_loss(a, b.flipped()).value
    assert 0.0 <= loss <= 0.5
    # the value is a multiple of 1/n by construction
    assert math.isclose(loss * 6, round(loss * 6))


def test_detection_risk_perfect_and_degenerate():
    truths = [0, 0, 1, 1]
    assert detection_risk(truths, [0, 0, 1, 1]) == 0.0
    # constant-1 classifier: full type-I, no type-II
    assert detection_risk(truths, [1, 1, 1, 1]) == pytest.approx(1.0)


def test_detection_risk_counts_both_error_types():
    truths = [0] * 10 + [1] * 10
    decisions = [1] + [0] * 9 + [0, 0] + [1] * 8
    assert detection_risk(truths, decisions) == pytest.approx(0.1 + 0.2)


def test_detection_risk_requires_both_classes():
    with pytest.raises(ValidationError):
        detection_risk([1, 1], [1, 0])
    with pytest.raises(ValidationError):
        detection_risk([0, 0], [0, 0])


def test_detection_risk_length_mismatch():
    with pytest.raises(ValidationError):
        detection_risk([0, 1], [0])


@given(
    null_errors=st.integers(0, 5),
    planted_errors=st.integers(0, 7),
)
def test_detection_risk_is_sum_of_rates(null_errors, planted_errors):
    truths = [0] * 5 + [1] * 7
    decisions = [1] * null_errors + [0] * (5 - null_errors)
    decisions += [0] * planted_errors + [1] * (7 - planted_errors)
    expected = null_errors / 5 + planted_errors / 7
    assert detection_risk(truths, decisions) == pytest.approx(expected)


def test_recovery_loss_refuses_a_value_above_one_half():
    with pytest.raises(ValidationError, match=r"^loss must lie in \[0, 1/2\], got 0.6"):
        RecoveryLoss(0.6)


@pytest.mark.parametrize("truths, decisions", [([0, 2], [0, 1]), ([0, 1], [0, -1]),
                                               ([1, 0.7], [1, 0]), ([1, 0], [1, 0.5])],
                         ids=["truth", "decision", "fractional-truth", "fractional-decision"])
def test_detection_risk_refuses_non_bits(truths, decisions):
    with pytest.raises(ValidationError, match="^truths and decisions must be bits"):
        detection_risk(truths, decisions)

"""Loss and risk functionals for recovery and detection experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import Assignment


@dataclass(frozen=True)
class RecoveryLoss:
    """Normalized Hamming loss, minimized over the global label flip.

    Always in [0, 1/2] for balanced labellings: flipping all labels turns a
    distance d into n - d, and one of the two is at most n/2.
    """

    value: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 0.5):
            raise ValidationError(f"loss must lie in [0, 1/2], got {self.value}")


def hamming_loss(sigma_hat: Assignment, sigma: Assignment) -> RecoveryLoss:
    """min(d_Ham(sigma_hat, sigma), d_Ham(sigma_hat, flip(sigma))) / n."""
    if sigma_hat.size != sigma.size:
        raise ValidationError(
            f"length mismatch: {sigma_hat.size} vs {sigma.size}"
        )
    n = sigma.size
    d = int(np.count_nonzero(sigma_hat.as_array() != sigma.as_array()))
    return RecoveryLoss(min(d, n - d) / n)


def detection_risk(truths: Sequence[int], decisions: Sequence[int]) -> float:
    """Empirical type-I rate plus empirical type-II rate.

    truths[i] says which model generated trial i (1 = planted); decisions[i]
    is the test output. Requires at least one trial of each class.
    """
    if len(truths) != len(decisions):
        raise ValidationError(f"length mismatch: {len(truths)} vs {len(decisions)}")
    truths = [int(t) for t in truths]
    decisions = [int(d) for d in decisions]
    if any(t not in (0, 1) for t in truths) or any(d not in (0, 1) for d in decisions):
        raise ValidationError("truths and decisions must be bits")
    n_null = truths.count(0)
    n_planted = truths.count(1)
    if n_null == 0 or n_planted == 0:
        raise ValidationError("detection_risk needs at least one trial of each class")
    type_one = sum(1 for t, d in zip(truths, decisions) if t == 0 and d == 1) / n_null
    type_two = sum(1 for t, d in zip(truths, decisions) if t == 1 and d == 0) / n_planted
    return type_one + type_two

"""Bell labels in Z2 x Z2 and the two-qubit Bell vectors and projectors.

A Bell vector is placed by its (parity, phase) label alone: basis index p
(qubit 1 is the most significant bit) paired with its complement 3 - p.
The paper's bit-string definition of the class subspaces, and the GHZ/cat
vectors built from it, live with the tests as their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT_HALF = 1.0 / math.sqrt(2.0)


class BasisError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class BellLabel:
    """(parity, phase) element of Z2 x Z2: parity 0 = Phi, phase 0 = +."""

    parity: int
    phase: int

    def __post_init__(self):
        if self.parity not in (0, 1) or self.phase not in (0, 1):
            raise BasisError(f"bits must be 0/1, got {(self.parity, self.phase)}")

    def __xor__(self, other: "BellLabel") -> "BellLabel":
        return BellLabel(self.parity ^ other.parity, self.phase ^ other.phase)

    @property
    def symbol(self) -> str:
        return ("phi" if self.parity == 0 else "psi") + ("+" if self.phase == 0 else "-")

    def __str__(self) -> str:
        return self.symbol


PHI_PLUS = BellLabel(0, 0)
PHI_MINUS = BellLabel(0, 1)
PSI_PLUS = BellLabel(1, 0)
PSI_MINUS = BellLabel(1, 1)
BELL_LABELS = (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)  # canonical order


def bell_vector(label: BellLabel) -> np.ndarray:
    """(|0 p> + (-1)^phase |1 ~p>)/sqrt(2) for p = parity: index p and its complement 3 - p."""
    v = np.zeros(4, dtype=complex)
    v[label.parity] = SQRT_HALF
    v[3 - label.parity] = -SQRT_HALF if label.phase else SQRT_HALF
    return v


def bell_projector(label: BellLabel) -> np.ndarray:
    """|b><b| written on its 2x2 support {p, 3 - p} as products of the real amplitudes."""
    i, j = label.parity, 3 - label.parity
    m = np.zeros((4, 4), dtype=complex)
    m[i, i] = m[j, j] = SQRT_HALF * SQRT_HALF
    m[i, j] = m[j, i] = SQRT_HALF * (-SQRT_HALF if label.phase else SQRT_HALF)
    return m

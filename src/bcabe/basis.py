"""Parity-classified bit strings and the GHZ/cat and Bell bases.

Bit strings are ASCII '0'/'1' text with the first character belonging to
qubit 1, the most significant bit of the basis index.  A GHZ state is a
dense vector with two nonzero amplitudes; a Bell vector is the two-qubit
case, placed by its (parity, phase) label alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

SQRT_HALF = 1.0 / math.sqrt(2.0)


class BasisError(ValueError):
    pass


def complement(bits: str) -> str:
    """Bitwise NOT, so <complement(x)|x> = 0 holds by construction."""
    return "".join("1" if b == "0" else "0" for b in bits)


def _family_strings(n: int, zeros_parity: int) -> list[str]:
    if n < 2 or n % 2:
        raise BasisError(f"qubit count must be even and >= 2, got {n}")
    out = []
    for tail in itertools.product("01", repeat=n - 1):
        s = "0" + "".join(tail)
        if s.count("0") % 2 == zeros_parity:
            out.append(s)
    return out  # lexicographic by construction


def enumerate_p_strings(n: int) -> list[str]:
    """Strings with leading 0 and an even number of 0s; 2**(n-2) of them."""
    return _family_strings(n, 0)


def enumerate_q_strings(n: int) -> list[str]:
    """Strings with leading 0 and an odd number of 0s; 2**(n-2) of them."""
    return _family_strings(n, 1)


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


def ghz_state(bits: str, sign: int) -> np.ndarray:
    """(|x> + sign |~x>)/sqrt(2) for a bit string x, as a dense vector."""
    if sign not in (+1, -1):
        raise BasisError(f"sign must be +1 or -1, got {sign}")
    if set(bits) - {"0", "1"}:
        raise BasisError(f"not a bit string: {bits!r}")
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = SQRT_HALF
    v[int(complement(bits), 2)] = sign * SQRT_HALF
    return v


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

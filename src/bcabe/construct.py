"""Constructors for the four orthogonal-subspace states and their mixtures.

Each even qubit count n >= 4 carries four mutually orthogonal states
rho+, rho-, sigma+, sigma- (normalized projectors of rank 2**(n-2)).
They can be built three independent ways: an index rule that writes the
GHZ-pair entries directly (and every mixture of the four), conjugating rho+
by a single Pauli on the last qubit, or the Bell-correlated recursion that
peels qubits (1, 2) off as a Bell pair.
n = 2 is the degenerate base where the four states are the Bell projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis
from .basis import BELL_LABELS, BellLabel, bell_projector
from .config import max_qubits
from .linalg import DensityMatrix, PAULIS, add_entries


class ConstructError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class StateClass:
    """One of the four families, encoded as a Bell label.

    parity 0 <-> rho (even-zeros strings), parity 1 <-> sigma; phase 0 <-> '+'.
    The encoding makes the recursion's case analysis and the Pauli relations
    the same Z2 x Z2 group action.
    """

    label: BellLabel

    @property
    def family(self) -> str:
        return "rho" if self.label.parity == 0 else "sigma"

    @property
    def sign(self) -> int:
        return +1 if self.label.phase == 0 else -1

    @property
    def descriptor(self) -> str:
        return self.family + ("+" if self.sign > 0 else "-")

    @classmethod
    def parse(cls, text: str) -> "StateClass":
        t = text.strip().lower()
        for sc in STATE_CLASSES:
            if t == sc.descriptor:
                return sc
        raise ConstructError(f"unknown state class {text!r} (want rho+|rho-|sigma+|sigma-)")

    def __xor__(self, label: BellLabel) -> "StateClass":
        return StateClass(self.label ^ label)

    def __str__(self) -> str:
        return self.descriptor


RHO_PLUS = StateClass(basis.PHI_PLUS)
RHO_MINUS = StateClass(basis.PHI_MINUS)
SIGMA_PLUS = StateClass(basis.PSI_PLUS)
SIGMA_MINUS = StateClass(basis.PSI_MINUS)
STATE_CLASSES = (RHO_PLUS, RHO_MINUS, SIGMA_PLUS, SIGMA_MINUS)

# which single Pauli on the last qubit maps rho+ onto each class
PAULI_FOR_LABEL = {
    basis.PHI_MINUS: "z",
    basis.PSI_PLUS: "x",
    basis.PSI_MINUS: "y",
}


def _check_size(n: int) -> None:
    if n < 2 or n % 2:
        raise ConstructError(f"qubit count must be even and >= 2, got {n}")
    ceiling = max_qubits()
    if n > ceiling:
        raise ConstructError(
            f"n={n} exceeds the size ceiling {ceiling} (raise BCABE_MAX_N to override)"
        )


def _mixture(weights: tuple[float, float, float, float], n: int) -> DensityMatrix:
    """x+ rho+ + x- rho- + y+ sigma+ + y- sigma-, written as its entries.

    Index i pairs with ~i = (2**n - 1) XOR i. At even n both share the
    zero-count parity that picks rho or sigma, whose weights (w+, w-) give
    (i, i) = w+ h + w- h and (i, ~i) = w+ h - w- h, h = 2**-(n-1).
    """
    _check_size(n)
    idx = np.arange(2**n)
    parity = sum((idx >> bit) & 1 for bit in range(n)) & 1
    plus, minus = np.reshape(weights, (2, 2))[parity].T * 0.5 ** (n - 1)  # w+ h, w- h
    # row i holds (i, i) and (i, ~i), in column order: the diagonal first while i < ~i
    first, diag, off = idx < idx[::-1], plus + minus, plus - minus
    cols = np.stack([np.minimum(idx, idx[::-1]), np.maximum(idx, idx[::-1])], axis=1).ravel()
    vals = np.stack([np.where(first, diag, off), np.where(first, off, diag)], axis=1).ravel()
    nz = vals != 0
    return DensityMatrix(n, (np.repeat(idx, 2)[nz], cols[nz], vals[nz]))


def projector_direct(cls: StateClass, n: int) -> DensityMatrix:
    """Normalized projector onto the class's GHZ pairs (|x> + sign |~x>)/sqrt(2)."""
    return _mixture(tuple(float(c == cls) for c in STATE_CLASSES), n)


def recursive_family(n: int) -> dict[StateClass, DensityMatrix]:
    """The four class states by the Bell-correlated recursion, in one pass:
    1/4 sum_b [Bell_b]_(1,2) (x) state(cls^b, n-2), built up from the Bell
    projectors at n = 2, each class once per level.

    A level sums Kronecker products of entries (a Bell projector has four) in
    label order, then divides by 4, as a dense `m += kron(...)` per term would.
    """
    _check_size(n)
    level = {c: DensityMatrix(2, bell_projector(c.label)).entries() for c in STATE_CLASSES}
    for k in range(4, n + 1, 2):
        below, level, dim = level, {}, 2 ** (k - 2)
        for c in STATE_CLASSES:
            terms = []
            for b in BELL_LABELS:
                proj = bell_projector(b)
                i, j = np.nonzero(proj)
                r, s, v = below[c ^ b]
                terms.append((i[:, None] * dim + r, j[:, None] * dim + s, proj[i, j][:, None] * v))
            rows, cols, vals = add_entries(4 * dim, terms)
            level[c] = (rows, cols, vals / 4.0)
    return {c: DensityMatrix(n, level[c]) for c in STATE_CLASSES}


def projector_recursive(cls: StateClass, n: int) -> DensityMatrix:
    """One class state of `recursive_family`."""
    return recursive_family(n)[cls]


def pauli_relate(base: DensityMatrix, target: StateClass) -> DensityMatrix:
    """Map rho+ onto `target` by conjugating with one Pauli on the last qubit.

    A Pauli has one nonzero per row, at column t ^ flip of row t, so entry
    (r, c) moves to (r ^ flip, c ^ flip), its value v becoming
    P[r ^ flip, r] v conj(P[c ^ flip, c]) on the last bits.
    """
    if target == RHO_PLUS:
        return base
    pauli = PAULIS[PAULI_FOR_LABEL[target.label]]
    flip = int(np.flatnonzero(pauli[0])[0])
    rows, cols, vals = base.entries()
    to_rows, to_cols = rows ^ flip, cols ^ flip
    # + 0.0: summed from 0 like a dense conjugation, so no part is left at -0.0
    vals = (pauli[to_rows & 1, rows & 1] * vals) * pauli[to_cols & 1, cols & 1].conj() + 0.0
    order = np.argsort(to_rows * base.dim + to_cols)
    return DensityMatrix(base.qubits, (to_rows[order], to_cols[order], vals[order]))


@dataclass(frozen=True)
class NoisyWeights:
    """Convex weights (x+, x-, y+, y-) over the four classes."""

    x_plus: float
    x_minus: float
    y_plus: float
    y_minus: float

    def __post_init__(self):
        vals = self.as_tuple()
        if any(not (0 <= v <= 1) for v in vals):
            raise ConstructError(f"weights must lie in [0, 1], got {vals}")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise ConstructError(f"weights must sum to 1, got sum {sum(vals)!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_plus, self.x_minus, self.y_plus, self.y_minus)

    @property
    def w_max(self) -> float:
        return max(self.as_tuple())

    @classmethod
    def parse(cls, text: str) -> "NoisyWeights":
        parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
        if len(parts) != 4:
            raise ConstructError(f"need four comma-separated weights, got {text!r}")
        return cls(*(float(p) for p in parts))

    @property
    def descriptor(self) -> str:
        x1, x2, y1, y2 = (repr(float(v)) for v in self.as_tuple())
        return f"noisy x+={x1} x-={x2} y+={y1} y-={y2}"


def noisy_state(weights: NoisyWeights, n: int) -> DensityMatrix:
    """Convex mixture x+ rho+ + x- rho- + y+ sigma+ + y- sigma-."""
    return _mixture(weights.as_tuple(), n)


# the two noisy-scan lines through the weight simplex, w -> weights
SCAN_LINES = {
    "two-term": lambda w: NoisyWeights(w, 1.0 - w, 0.0, 0.0),
    "werner": lambda w: NoisyWeights(w, *((1.0 - w) / 3.0,) * 3),
}


def bell_diagonal(weights: NoisyWeights, label: BellLabel = basis.PHI_PLUS) -> DensityMatrix:
    """sum_l w_l [Bell_(l ^ label)] over the class labels l, added in class order:
    the 2-qubit Bell-diagonal state an unlock branch leaves behind when its
    measured labels XOR to `label`."""
    x1, x2, y1, y2 = (w * bell_projector(b ^ label) for w, b in zip(weights.as_tuple(), BELL_LABELS))
    return DensityMatrix(2, x1 + x2 + y1 + y2)

"""Dense oracles for the entries-native routes in `bcabe`.

Each function here forms the 2**n x 2**n array (or its grouped layout) that
the package no longer needs, and computes the old dense way what the package
now computes from a state's nonzero entries. Tests compare the two.

The paper's own definition of the class subspaces lives here too: bit
strings with a leading 0 and an even (P) or odd (Q) number of 0s, each
paired with its complement in a GHZ/cat vector. The package builds the
states by the index rule (i pairs with ~i) instead, and is checked against
these strings.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from bcabe.basis import BELL_LABELS, SQRT_HALF, BasisError, BellLabel, bell_vector
from bcabe.construct import STATE_CLASSES, StateClass, projector_direct
from bcabe.linalg import DensityMatrix, LinalgError, _dense_zeros, split_index


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


def group_qubits(mat: np.ndarray, n: int, front: Sequence[int]) -> np.ndarray:
    """The matrix as a (2**k, 2**(n-k), 2**k, 2**(n-k)) array over k = len(front).

    Row and column indices are each split into the `front` qubits, in the
    given order, and the remaining qubits in ascending order. The result is
    C-ordered for every choice of qubits.
    """
    front = [int(q) for q in front]
    if len(set(front)) != len(front) or not set(front) <= set(range(1, n + 1)):
        raise LinalgError(f"qubits {front} are not distinct qubits of 1..{n}")
    rows = [q - 1 for q in front] + [q - 1 for q in range(1, n + 1) if q not in front]
    t = np.asarray(mat, dtype=complex).reshape((2,) * (2 * n))
    k = len(front)
    moved = t.transpose(rows + [n + a for a in rows]).reshape((2**k, 2 ** (n - k)) * 2)
    return np.ascontiguousarray(moved)


def group_entries(rho: DensityMatrix, front: Sequence[int]) -> np.ndarray:
    """group_qubits(rho.matrix, n, front), written from the entries: one dense
    array in the grouped layout, refused over the dense budget like `.matrix`."""
    n, k = rho.qubits, len(front)
    rows, cols, vals = rho.entries()
    (a, r), (b, s) = split_index(rows, n, front), split_index(cols, n, front)
    out = _dense_zeros(n).reshape((2**k, 2 ** (n - k)) * 2)
    out[a, r, b, s] = vals
    return out


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out everything but `keep`; result qubits follow ascending old labels."""
    keep = tuple(sorted(set(keep)))
    n = rho.qubits
    if not keep:
        raise LinalgError("keep set must be nonempty")
    if not set(keep) <= set(range(1, n + 1)):
        raise LinalgError(f"keep set {keep} out of range for n={n}")
    return DensityMatrix(len(keep), np.einsum("arbr->ab", group_qubits(rho.matrix, n, keep)))


def conditional_operators(grouped: np.ndarray) -> dict[BellLabel, np.ndarray]:
    """sum_ab conj(v_a) v_b grouped[a, :, b, :] per Bell vector v, over the
    four (a, b) where v is nonzero, a-major: the bits einsum gives on a
    C-ordered operand."""
    out = {}
    for label in BELL_LABELS:
        v = bell_vector(label)
        op = np.zeros_like(grouped[0, :, 0, :])
        for a, b in itertools.product(np.flatnonzero(v), repeat=2):
            op += (grouped[a, :, b, :] * v[a].conj()) * v[b]
        out[label] = op
    return out


def class_projector_unnormalized(cls: StateClass, n: int) -> np.ndarray:
    """The rank-2**(n-2) subspace projector itself (trace 2**(n-2))."""
    return projector_direct(cls, n).matrix * (2 ** (n - 2))


def unlock_leaves(rho: DensityMatrix, keep, pairing) -> list[tuple[tuple[BellLabel, ...], np.ndarray]]:
    """Every branch of the sequential unlock as (labels, unnormalized 4 x 4
    operator), on one dense grouped array: the state with the pairs in
    measuring order and the kept pair last, each level peeling the leading pair.
    `keep` and the pairs are taken in ascending order, as unlock_sequential does."""
    leaves = []

    def descend(mat: np.ndarray, index: int, labels: tuple[BellLabel, ...]):
        if index == len(pairing):
            leaves.append((labels, mat))
            return
        rest = mat.shape[0] // 4
        for label, op in conditional_operators(mat.reshape(4, rest, 4, rest)).items():
            descend(op, index + 1, labels + (label,))

    order = [q for pair in tuple(pairing) + (keep,) for q in sorted(pair)]
    descend(group_entries(rho, order).reshape(rho.dim, rho.dim), 0, ())
    return leaves


def discriminate_operators(rho: DensityMatrix, kept: tuple[int, int]) -> list[np.ndarray]:
    """The kept pair's unnormalized 4 x 4 operator per class outcome, in class
    order: the group's subspace projector contracted against the grouped state."""
    split = group_entries(rho, kept)
    g = rho.qubits - 2
    return [np.einsum("agbh,hg->ab", split, class_projector_unnormalized(cls, g)) for cls in STATE_CLASSES]

"""Exact simulation of the two activation protocols.

Both protocols are simulated by full branch enumeration (no sampling):
outcome trees stay small (at most 4**3 branches at n = 8), and exactness
turns the protocol claims into equality tests.  Post-measurement operators
are kept unnormalized along the way; a branch probability is simply the
trace of its final operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .basis import BELL_LABELS, BellLabel, bell_vector
from .config import DEFAULT_TOLERANCES, Tolerances
from .construct import STATE_CLASSES, StateClass, class_projector_unnormalized
from .linalg import DensityMatrix, add_entries, group_entries, split_index, trace_entries


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class MeasurementOutcome:
    """One projective outcome: its label, probability, and conditional state."""

    label: BellLabel | StateClass
    probability: float
    post_state: DensityMatrix | None  # None when the branch has ~zero probability


@dataclass(frozen=True)
class UnlockBranch:
    labels: tuple[BellLabel, ...]
    probability: float
    state: DensityMatrix | None
    best_label: BellLabel | None
    fidelity: float | None


@dataclass(frozen=True)
class UnlockResult:
    keep: tuple[int, int]
    pairing: tuple[tuple[int, int], ...]
    branches: tuple[UnlockBranch, ...]
    min_fidelity: float
    xor_rule_holds: bool

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


def bell_fidelity(rho2: DensityMatrix) -> tuple[BellLabel, float]:
    """Best Bell overlap <B|rho|B>; ties go to the canonical label order."""
    if rho2.qubits != 2:
        raise ProtocolError(f"expected a 2-qubit state, got {rho2.qubits} qubits")
    best_label, best = BELL_LABELS[0], -1.0
    for label in BELL_LABELS:
        v = bell_vector(label)
        f = float(np.real(v.conj() @ rho2.matrix @ v))
        if f > best + 1e-15:
            best_label, best = label, f
    return best_label, best


def _conditional_operators(grouped: np.ndarray) -> dict[BellLabel, np.ndarray]:
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


def _normalize_pair(pair, n) -> tuple[int, int]:
    i, j = int(pair[0]), int(pair[1])
    if i == j:
        raise ProtocolError(f"pair qubits must be distinct, got {pair}")
    if not {i, j} <= set(range(1, n + 1)):
        raise ProtocolError(f"pair {pair} out of range for n={n}")
    return (min(i, j), max(i, j))


def _conditional_entries(rho: DensityMatrix, pair: tuple[int, int]) -> dict[BellLabel, tuple]:
    """_conditional_operators(group_qubits(rho.matrix, n, pair)) as entries: each
    (a, b) term reads the entries whose pair bits are (a, b), added a-major."""
    n = rho.qubits
    rows, cols, vals = rho.entries()
    (a, r), (b, s) = split_index(rows, n, pair), split_index(cols, n, pair)
    out = {}
    for label in BELL_LABELS:
        v = bell_vector(label)
        terms = []
        for i, j in itertools.product(np.flatnonzero(v), repeat=2):
            on = (a == i) & (b == j)
            terms.append((r[on], s[on], (vals[on] * v[i].conj()) * v[j]))
        out[label] = add_entries(2 ** (n - 2), terms)
    return out


def bell_measure(
    rho: DensityMatrix, pair: tuple[int, int], tol: Tolerances = DEFAULT_TOLERANCES
) -> list[MeasurementOutcome]:
    """Projective Bell measurement of one pair, on the state's entries; outcomes in
    canonical label order, each probability with the bits np.trace gives."""
    pair = _normalize_pair(pair, rho.qubits)
    rest = rho.qubits - 2
    outcomes = []
    for label, (rows, cols, vals) in _conditional_entries(rho, pair).items():
        p = float(trace_entries(2**rest, rows, cols, vals).real)
        post = DensityMatrix(rest, (rows, cols, vals / p)) if p > tol.zero_probability else None
        outcomes.append(MeasurementOutcome(label, p, post))
    return outcomes


def default_pairing(n: int, keep: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """Ascending disjoint pairs of the non-kept qubits."""
    rest = [q for q in range(1, n + 1) if q not in keep]
    return tuple((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))


def unlock_sequential(
    rho: DensityMatrix,
    keep: tuple[int, int],
    pairing: tuple[tuple[int, int], ...] | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> UnlockResult:
    """Bell-measure all non-kept qubits pairwise and enumerate every branch.

    The kept pair's conditional state, probability, and best Bell fidelity are
    recorded per branch.  xor_rule_holds reports whether one fixed class label c
    explains every branch as best_label = c ^ (xor of measured labels).
    """
    n = rho.qubits
    if n % 2 or n < 4:
        raise ProtocolError(f"need an even qubit count >= 4, got {n}")
    keep = _normalize_pair(keep, n)
    if pairing is None:
        pairing = default_pairing(n, keep)
    else:
        pairing = tuple(_normalize_pair(p, n) for p in pairing)
    covered = sorted(q for p in pairing for q in p)
    expected = [q for q in range(1, n + 1) if q not in keep]
    if covered != expected:
        raise ProtocolError(
            f"pairing {pairing} must cover the non-kept qubits {expected} exactly"
        )

    # depth-first over outcome tuples, carrying unnormalized conditional operators.
    # ρ is grouped once, pairs in measuring order and the kept pair last, so
    # each level's pair is the leading one of the operator it measures
    branches: list[UnlockBranch] = []

    def descend(mat: np.ndarray, index: int, labels: tuple[BellLabel, ...]):
        if index == len(pairing):
            p = float(np.trace(mat).real)
            if p > tol.zero_probability:
                state = DensityMatrix(2, mat / p)
                best, fid = bell_fidelity(state)
                branches.append(UnlockBranch(labels, p, state, best, fid))
            else:
                branches.append(UnlockBranch(labels, max(p, 0.0), None, None, None))
            return
        rest = mat.shape[0] // 4
        for label, op in _conditional_operators(mat.reshape(4, rest, 4, rest)).items():
            descend(op, index + 1, labels + (label,))

    order = [q for pair in pairing + (keep,) for q in pair]
    descend(group_entries(rho, order).reshape(rho.dim, rho.dim), 0, ())

    live = [b for b in branches if b.state is not None]
    min_fid = min((b.fidelity for b in live), default=0.0)
    implied = {b.best_label ^ _xor_all(b.labels) for b in live}
    xor_rule = len(implied) == 1
    return UnlockResult(keep, pairing, tuple(branches), min_fid, xor_rule)


def _xor_all(labels: tuple[BellLabel, ...]) -> BellLabel:
    acc = BellLabel(0, 0)
    for lb in labels:
        acc = acc ^ lb
    return acc


def discriminate_subspace(
    rho: DensityMatrix,
    group: tuple[int, ...],
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[MeasurementOutcome]:
    """Joint four-outcome measurement {class subspaces} on all but one pair.

    Outcome k projects the group onto the class-k subspace; the post state is
    the kept pair's conditional state.  For the class states each outcome has
    probability 1/4 and leaves the kept pair in the correlated Bell state.

    Only the kept pair's operator is needed, and for a projector P on the group
    Tr_group[(I⊗P) rho (I⊗P)] = Tr_group[(I⊗P) rho], so each outcome is one
    contraction of rho against P over the group's indices: O(4**n) work, with
    no 2**n x 2**n product formed.
    """
    n = rho.qubits
    group = tuple(sorted(int(q) for q in group))
    kept = tuple(q for q in range(1, n + 1) if q not in group)
    if len(kept) != 2 or sorted(group + kept) != list(range(1, n + 1)):
        raise ProtocolError(
            f"group {group} must be all qubits of 1..{n} except one pair"
        )
    g = len(group)
    split = group_entries(rho, kept)
    outcomes = []
    for cls in STATE_CLASSES:
        op = np.einsum("agbh,hg->ab", split, class_projector_unnormalized(cls, g))
        p = float(np.trace(op).real)
        post = DensityMatrix(2, op / p) if p > tol.zero_probability else None
        outcomes.append(MeasurementOutcome(cls, p, post))
    return outcomes

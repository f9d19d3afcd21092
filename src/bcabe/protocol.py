"""Exact simulation of the two activation protocols.

Both protocols are simulated by full branch enumeration (no sampling) on the
state's nonzero entries: a measured pair takes one pass over them for all its
outcomes (4**(n/2 - 1) unlock branches, 16384 at n = 16), and exactness turns
the protocol claims into equality tests.  Post-measurement operators are kept
unnormalized along the way; a branch probability is simply the trace of its
final operator.  The unlock branches end as one (4**k, 4, 4) stack, and their
probabilities, normalized states, Bell fidelities and XOR-rule labels are
computed over the whole stack at once, each with the bits it gets alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import BELL_LABELS, BellLabel, bell_vector
from .config import TOL
from .construct import STATE_CLASSES, StateClass, projector_direct
from .linalg import DensityMatrix, add_entries, relabel_entries, split_index, trace_entries, values_at


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
    """Every branch of a sequential unlock, in the order of its measured labels.

    The branches come from one (4**k, 4, 4) stack of the kept pair's
    unnormalized operators; each live branch's state adopts its normalized
    4 x 4 slice of that stack, and a dead one (trace at most
    TOL.zero_probability) has state None."""

    keep: tuple[int, int]
    pairing: tuple[tuple[int, int], ...]
    branches: tuple[UnlockBranch, ...]
    min_fidelity: float  # the extremes over the live branches,
    max_fidelity: float  # each 0.0 when no branch is live
    xor_rule_holds: bool

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


def best_bell(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best Bell overlap <B|rho|B> of each matrix of a (count, 4, 4) stack, and
    the index of its label in BELL_LABELS; ties within 1e-15 go to the canonical
    label order. Each overlap has the bits of v.conj() @ rho @ v on its matrix
    alone: the stacked matmuls make the same per-matrix BLAS calls (a vector-
    matrix product, then a 1 x 4 by 4 x 1 one, which numpy computes as a dot)."""
    best, at = np.full(len(states), -1.0), np.zeros(len(states), dtype=np.intp)
    for k, label in enumerate(BELL_LABELS):
        v = bell_vector(label)
        f = ((v.conj() @ states)[:, None, :] @ v[:, None])[:, 0, 0].real
        better = f > best + 1e-15
        best, at = np.where(better, f, best), np.where(better, k, at)
    return at, best


def bell_fidelity(rho2: DensityMatrix) -> tuple[BellLabel, float]:
    """Best Bell overlap <B|rho|B>; the one-state case of `best_bell`."""
    if rho2.qubits != 2:
        raise ProtocolError(f"expected a 2-qubit state, got {rho2.qubits} qubits")
    (at,), (best,) = best_bell(rho2.matrix[None])
    return BELL_LABELS[at], float(best)


def _normalize_pair(pair, n) -> tuple[int, int]:
    i, j = int(pair[0]), int(pair[1])
    if i == j:
        raise ProtocolError(f"pair qubits must be distinct, got {pair}")
    if not {i, j} <= set(range(1, n + 1)):
        raise ProtocolError(f"pair {pair} out of range for n={n}")
    return (min(i, j), max(i, j))


def _measure_pair(n: int, entries: tuple[np.ndarray, ...], front: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Bell-measure the last two qubits of `front`, every outcome at once, on an
    n-qubit operator's entries given row-major.

    The result, row-major, has the `front` qubits first, in order, and the rest
    after, ascending. It is block diagonal in the measured pair, whose two
    qubits come to hold the outcome's index in BELL_LABELS: block k is the
    unnormalized operator outcome k leaves, conj(v_a) v_b times the entries at
    ((a, r), (b, s)) over the pair bits (a, b) where Bell vector v_k is
    nonzero, added a-major.
    """
    rows, cols, vals = entries
    rest = 2 ** (n - len(front))
    (f, r), (g, s) = split_index(rows, n, front), split_index(cols, n, front)
    a, b = f % 4, g % 4
    stem_rows, stem_cols, pair_bits = (f - a) * rest + r, (g - b) * rest + s, 4 * a + b
    terms = []
    for k, label in enumerate(BELL_LABELS):
        v = bell_vector(label)
        for i, j in itertools.product(np.flatnonzero(v), repeat=2):
            on = pair_bits == 4 * i + j
            terms.append((stem_rows[on] + k * rest, stem_cols[on] + k * rest, (vals[on] * v[i].conj()) * v[j]))
    return add_entries(2**n, terms)


def _diagonal_blocks(entries: tuple[np.ndarray, ...], count: int, size: int) -> list[tuple[np.ndarray, ...]]:
    """The `count` diagonal size x size blocks, each as its own row-major
    entries, of a block-diagonal operator whose entries are given row-major."""
    rows, cols, vals = entries
    ends = np.searchsorted(rows, np.arange(count + 1) * size)
    return [
        (rows[x:y] - t * size, cols[x:y] - t * size, vals[x:y])
        for t, (x, y) in enumerate(zip(ends[:-1], ends[1:]))
    ]


def _conditional_entries(rho: DensityMatrix, pair: tuple[int, int]) -> dict[BellLabel, tuple]:
    """The unnormalized operator on the other qubits per Bell outcome of the pair, as entries."""
    n = rho.qubits
    return dict(zip(BELL_LABELS, _diagonal_blocks(_measure_pair(n, rho.entries(), pair), 4, 2 ** (n - 2))))


def bell_measure(rho: DensityMatrix, pair: tuple[int, int]) -> list[MeasurementOutcome]:
    """Projective Bell measurement of one pair, on the state's entries; outcomes in
    canonical label order, each probability with the bits np.trace gives."""
    pair = _normalize_pair(pair, rho.qubits)
    rest = rho.qubits - 2
    outcomes = []
    for label, (rows, cols, vals) in _conditional_entries(rho, pair).items():
        p = float(trace_entries(2**rest, rows, cols, vals).real)
        post = DensityMatrix(rest, (rows, cols, vals / p)) if p > TOL.zero_probability else None
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

    # ρ is relabelled once, pairs in measuring order and the kept pair last;
    # level d measures the pair after the 2d qubits that hold the earlier
    # outcomes, so block t of the measured operator is branch t of the tree
    k = len(pairing)
    rows, cols, vals = relabel_entries(rho, [q for pair in pairing + (keep,) for q in pair])
    for depth in range(k):
        rows, cols, vals = _measure_pair(n, (rows, cols, vals), range(1, 2 * depth + 3))
    blocks = np.zeros((4**k, 4, 4), dtype=complex)
    blocks[rows // 4, rows % 4, cols % 4] = vals
    probs, live, states = _normalized(blocks)
    at, fids = best_bell(states)
    # a label's index in BELL_LABELS is 2 * parity + phase, so XOR-ing labels is
    # XOR-ing indices, and branch t's measured labels are t's base-4 digits
    branch = np.arange(4**k)
    measured_xor = np.zeros_like(branch)
    for depth in range(k):
        measured_xor ^= (branch >> (2 * depth)) & 3
    implied = at ^ measured_xor[live]
    xor_rule = implied.size > 0 and bool((implied == implied[0]).all())

    fids = fids.tolist()
    found = iter(zip(states, at.tolist(), fids))
    branches = []
    for labels, p, alive in zip(itertools.product(BELL_LABELS, repeat=k), probs.tolist(), live.tolist()):
        if alive:
            state, best, fid = next(found)
            branches.append(UnlockBranch(labels, p, DensityMatrix(2, state), BELL_LABELS[best], fid))
        else:
            branches.append(UnlockBranch(labels, max(p, 0.0), None, None, None))
    return UnlockResult(keep, pairing, tuple(branches), min(fids, default=0.0), max(fids, default=0.0), xor_rule)


def _normalized(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The traces of a (count, 4, 4) stack, with the bits np.trace gives each
    block (its pairwise order, (d0 + d1) + (d2 + d3), not a row sum's), which
    blocks are live (trace above TOL.zero_probability), and the live blocks
    divided by their traces."""
    d = blocks[:, range(4), range(4)].real
    probs = (d[:, 0] + d[:, 1]) + (d[:, 2] + d[:, 3])
    live = probs > TOL.zero_probability
    states = blocks[live]
    states /= probs[live, None, None]
    return probs, live, states


def discriminate_subspace(rho: DensityMatrix, group: tuple[int, ...]) -> list[MeasurementOutcome]:
    """Joint four-outcome measurement {class subspaces} on all but one pair.

    Outcome k projects the group onto the class-k subspace; the post state is
    the kept pair's conditional state.  For the class states each outcome has
    probability 1/4 and leaves the kept pair in the correlated Bell state.

    Only the kept pair's operator is needed, and for a projector P on the group
    Tr_group[(I⊗P) rho (I⊗P)] = Tr_group[(I⊗P) rho]: entry (a, b) of outcome
    k is sum_{g,h} rho[(a, g), (b, h)] P_k[h, g]. P_k is nonzero only at
    (g, g) and (g, ~g) for g of class k's parity, so each outcome reads O(2**n)
    of the state's entries, and no projector or 2**n x 2**n array is formed.
    """
    n = rho.qubits
    group = tuple(sorted(int(q) for q in group))
    kept = tuple(q for q in range(1, n + 1) if q not in group)
    if len(kept) != 2 or sorted(group + kept) != list(range(1, n + 1)):
        raise ProtocolError(
            f"group {group} must be all qubits of 1..{n} except one pair"
        )
    m = len(group)
    rows, cols, vals = rho.entries()
    (a, g), (b, h) = split_index(rows, n, kept), split_index(cols, n, kept)
    outcomes = []
    for cls in STATE_CLASSES:
        # P_k[h, g] at each entry: the projector is 2**(m-2) times the class state
        weight = values_at(2**m, projector_direct(cls, m).entries(), h, g) * 2 ** (m - 2)
        on = weight != 0
        # the sum over h for each (a, b, g), which row-major entries reach in
        # ascending h, then the sum of those over ascending g
        ab, _, part = add_entries(2**m, [(4 * a[on] + b[on], g[on], vals[on] * weight[on])])
        op_rows, op_cols, op = add_entries(4, [(ab // 4, ab % 4, part)])
        p = float(trace_entries(4, op_rows, op_cols, op).real)
        post = DensityMatrix(2, (op_rows, op_cols, op / p)) if p > TOL.zero_probability else None
        outcomes.append(MeasurementOutcome(cls, p, post))
    return outcomes

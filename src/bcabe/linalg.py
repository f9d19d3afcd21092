"""Multiqubit states, held as their nonzero entries, and the kernels that read them.

Qubit 1 is the most significant bit of the basis index: index(a_1 .. a_n) =
sum a_j 2**(n-j). Everything here is a pure function of immutable inputs; the
eigensolver reads a matrix as its nonzero entries and works on a private copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import TOL


class LinalgError(ValueError):
    """Raised on contract violations (bad cut, non-Hermitian input, ...)."""


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def tensor(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor is the most significant."""
    if not mats:
        raise LinalgError("tensor() needs at least one factor")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise LinalgError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class Bipartition:
    """An unordered split of qubits {1..n} into two nonempty groups."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left = tuple(sorted(self.left))
        right = tuple(sorted(self.right))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        n = len(left) + len(right)
        if not left or not right:
            raise LinalgError("both sides of a bipartition must be nonempty")
        if set(left) & set(right):
            raise LinalgError(f"cut sides overlap: {left} | {right}")
        if set(left) | set(right) != set(range(1, n + 1)):
            raise LinalgError(f"cut does not cover 1..{n}: {left} | {right}")

    @classmethod
    def of(cls, left: Iterable[int], n: int) -> "Bipartition":
        left = tuple(sorted(left))
        right = tuple(q for q in range(1, n + 1) if q not in set(left))
        return cls(left, right)

    @property
    def qubits(self) -> int:
        return len(self.left) + len(self.right)

    def __str__(self) -> str:
        fmt = lambda side: ",".join(str(q) for q in side)
        return f"{fmt(self.left)}|{fmt(self.right)}"


DENSE_BUDGET = 2**30  # bytes of the largest dense matrix a state may be asked for
PT_BATCH_ENTRIES = 2**12  # moved entries per stacked solve of a cut scan; bounds its scratch memory


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A (presumed normalized) n-qubit state.

    `data` is a 2**n x 2**n array or the entries (rows, cols, vals) exactly as
    `_entries` lists them: row-major, no stored zeros. Either is adopted, not
    copied, and becomes read-only for its caller too; a non-complex array is
    converted once. `matrix` is the dense array, given or built on first read.
    """

    qubits: int
    data: InitVar[np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]]

    def __post_init__(self, data):
        dim = 2**self.qubits
        if isinstance(data, tuple):
            rows, cols, vals = (np.asarray(a, t) for a, t in zip(data, (np.intp, np.intp, complex)))
            keys = rows * dim + cols  # strictly increasing: row-major, each position once
            if not (rows.shape == cols.shape == vals.shape == (keys.size,) and (np.diff(keys) > 0).all()
                    and (vals != 0).all() and ((0 <= rows | cols) & (rows | cols < dim)).all()):
                raise LinalgError(f"entries are not the row-major nonzeros of a {self.qubits}-qubit matrix")
            for a in (rows, cols, vals):
                a.setflags(write=False)
            object.__setattr__(self, "_entries", (rows, cols, vals))
            return
        m = np.asarray(data, dtype=complex)
        if m.shape != (dim, dim):
            raise LinalgError(f"matrix shape {m.shape} does not match {self.qubits} qubits")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense array of an entries-built state."""
        rows, cols, vals = self.entries()
        m = _dense_zeros(self.qubits)
        m[rows, cols] = vals
        m.setflags(write=False)
        return m

    @property
    def dim(self) -> int:
        return 2**self.qubits

    def trace(self) -> float:
        return float(trace_entries(self.dim, *self.entries()).real)

    def validate(self) -> None:
        """Check Hermiticity and unit trace over the nonzero entries; non-finite
        entries are rejected. A pass is remembered, see `validated`."""
        rows, cols, vals = self.entries()
        herm_err = float(_hermitian_deviation(self.dim, rows, cols, vals).max(initial=0.0))
        if herm_err > TOL.hermiticity:
            raise LinalgError(f"not Hermitian: max deviation {herm_err:.3e}")
        tr_err = abs(vals[rows == cols].sum() - 1.0)
        if tr_err > TOL.trace:
            raise LinalgError(f"trace differs from 1 by {tr_err:.3e}")
        object.__setattr__(self, "_validated", True)

    def validated(self) -> bool:
        """Whether Hermiticity and unit trace already passed."""
        return "_validated" in self.__dict__

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzeros, row-major; scanned once, then kept."""
        if "_entries" not in self.__dict__:
            object.__setattr__(self, "_entries", _entries(self.matrix)[1:])
            for a in self._entries:
                a.setflags(write=False)
        return self.__dict__["_entries"]

    def eigenvalues(self) -> np.ndarray:
        """All real eigenvalues, ascending, solved on the entries."""
        return spectra(self.dim, [self.entries()])[0]


def check_dense_budget(n: int) -> None:
    """Refuse a 2**n x 2**n complex array, or its dump, above DENSE_BUDGET; allocates nothing."""
    nbytes = 16 * 4**n
    if nbytes > DENSE_BUDGET:
        raise LinalgError(f"a dense {n}-qubit matrix needs {nbytes / 2**30:g} GiB, "
                          f"over the {DENSE_BUDGET / 2**30:g} GiB budget")


def _dense_zeros(n: int) -> np.ndarray:
    """A zero 2**n x 2**n complex array, refused above DENSE_BUDGET before anything is allocated."""
    check_dense_budget(n)
    return np.zeros((2**n, 2**n), dtype=complex)


def trace_entries(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> complex:
    """The trace of the dim x dim matrix with these nonzeros, with the bits of
    np.trace: numpy sums the full diagonal, zeros included, pairwise by position."""
    diag = np.zeros(dim, dtype=complex)
    on = rows == cols
    diag[rows[on]] = vals[on]
    return complex(diag.sum())


def add_entries(dim: int, terms: Iterable[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros, row-major, of the dim x dim sum of the terms, each given as
    (rows, cols, vals) arrays of one shape. Entries at one position are added
    from 0 in the order given: the bits of a dense `+=` per term."""
    rows, cols, vals = (np.concatenate([np.ravel(a) for a in part]) for part in zip(*terms))
    # stable, so each position's entries keep the order given; the terms are
    # row-major runs, which the stable sort merges in near-linear time
    keys = rows * dim + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) > 0  # the first entry at each position
    acc = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(acc, np.cumsum(first) - 1, vals[order])
    nz = acc != 0
    keys = keys[first][nz]
    return keys // dim, keys % dim, acc[nz]


def norm_of(vals: np.ndarray) -> float:
    """Frobenius norm from the nonzero values: the correctly rounded sum of the
    squared real and imaginary parts, which neither their order nor zeros move."""
    return math.sqrt(math.fsum((np.concatenate([vals.real, vals.imag]) ** 2).tolist()))


def swap_qubits(index, n: int, i: int, j: int):
    """Basis index (an int or an int array) with the bits of qubits i and j exchanged."""
    flip = (1 << (n - i)) | (1 << (n - j))
    return index ^ ((((index >> (n - i)) ^ (index >> (n - j))) & 1) * flip)


def split_index(index, n: int, front: Sequence[int]):
    """Basis index (an int or an int array) split into the bits of the `front`
    qubits, in the given order, and the index of the remaining qubits, in
    ascending order."""
    head, rest = index & 0, index
    for q in front:
        head = (head << 1) | ((index >> (n - q)) & 1)
    for q in sorted(front):  # the highest bit first, so the lower bits still to go stay put
        low = (1 << (n - q)) - 1
        rest = ((rest >> 1) & ~low) | (rest & low)
    return head, rest


def relabel_entries(rho: DensityMatrix, order: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries, row-major, of rho with its qubits in `order`: qubit k of the
    result is qubit order[k-1] of rho. Row and column move by one bit permutation."""
    n = rho.qubits
    if sorted(order) != list(range(1, n + 1)):
        raise LinalgError(f"{list(order)} is not a qubit ordering of 1..{n}")
    rows, cols, vals = rho.entries()
    rows, cols = split_index(rows, n, order)[0], split_index(cols, n, order)[0]
    at = np.argsort(rows * rho.dim + cols)
    return rows[at], cols[at], vals[at]


def spectra(dim: int, parts: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Ascending spectra, one row per dim x dim matrix given as its row-major
    nonzeros, from one stacked solve; row g has the bits of matrix g solved alone."""
    shifted = [(r + g * dim, c + g * dim, v) for g, (r, c, v) in enumerate(parts)]
    rows, cols, vals = (np.concatenate(a) for a in zip(*shifted))
    return _jacobi(dim, rows, cols, vals, want_vectors=False, count=len(shifted))[0]


def pt_spectra(rho: DensityMatrix, cuts: Sequence[Bipartition]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra, one row per cut, and max column sums of the cuts'
    partial transposes, `transpose_qubits(rho.matrix, n, cut.right)`, from one
    stacked solve. The Hermiticity check is skipped for a state that passed
    `validate`: a transpose moves each entry and its mirror alike, so their
    deviations stay within validate's 1e-12, under the stack's 1e-10 bound."""
    rows, cols, vals = _pt_entries(rho, cuts)
    shift = rho.dim * np.arange(len(cuts))[:, None]
    rows, cols = (rows + shift).ravel(), (cols + shift).ravel()
    return _pt_solve(rho.dim, len(cuts), rows, cols, vals.ravel(), rho.validated())


def stacked_pt_spectra(states: Sequence[DensityMatrix], cut: Bipartition) -> tuple[np.ndarray, np.ndarray]:
    """`pt_spectra` of several states of one size at one cut, one row per state,
    from one stacked solve; each row has the bits of its state solved alone."""
    dim, parts = 2**cut.qubits, []
    for g, state in enumerate(states):
        (rows,), (cols,), (vals,) = _pt_entries(state, [cut])
        parts.append((rows + g * dim, cols + g * dim, vals))
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    return _pt_solve(dim, len(states), rows, cols, vals, all(s.validated() for s in states))


def _pt_solve(
    dim: int, count: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, validated: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Spectra and max column sums of `count` partial transposes given as the
    entries of their direct sum, each matrix's in its state's row-major order.
    The entries are sorted row-major only for the Hermiticity check, which
    looks mirrors up by key; a state that passed `validate` skips both."""
    one_norms = np.bincount(cols, weights=np.abs(vals), minlength=count * dim).reshape(count, dim)
    if not validated:
        order = np.argsort(rows * (count * dim) + cols)
        rows, cols, vals = rows[order], cols[order], vals[order]
    eigs = _jacobi(dim, rows, cols, vals, False, count, check=not validated)[0]
    return eigs, one_norms.max(axis=1, initial=0.0)


def _pt_entries(rho: DensityMatrix, cuts: Sequence[Bipartition]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of each cut's partial transpose, one row per cut, in the
    state's own row-major order (not the transpose's).

    Transposing the right group's qubits moves entry (r, c) to (r ^ s, c ^ s)
    with s = (r ^ c) & mask, so each transpose is the state's own nonzeros,
    moved in O(nnz); no 2**n x 2**n array is formed.
    """
    n = rho.qubits
    for cut in cuts:
        if cut.qubits != n:
            raise LinalgError(f"cut over {cut.qubits} qubits applied to a {n}-qubit state")
    rows, cols, vals = rho.entries()
    s = (rows ^ cols) & np.array([sum(1 << (n - q) for q in cut.right) for cut in cuts], dtype=np.intp)[:, None]
    return rows ^ s, cols ^ s, np.broadcast_to(vals, s.shape)


def transpose_qubits(mat: np.ndarray, n: int, qubits: Sequence[int]) -> np.ndarray:
    """Partial transpose of an arbitrary 1-based qubit subset."""
    if not set(qubits) <= set(range(1, n + 1)):
        raise LinalgError(f"qubits {qubits} out of range for n={n}")
    t = np.asarray(mat, dtype=complex).reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in qubits:
        axes[q - 1], axes[n + q - 1] = axes[n + q - 1], axes[q - 1]
    return t.transpose(axes).reshape(2**n, 2**n)


def apply_qubit_permutation(rho: DensityMatrix, perm: Sequence[int]) -> DensityMatrix:
    """Conjugate by the relabeling unitary sending qubit i to position perm[i-1]:
    the qubit in slot i of the input is qubit perm[i-1] of the output."""
    n = rho.qubits
    if sorted(perm) != list(range(1, n + 1)):
        raise LinalgError(f"{perm} is not a qubit ordering of 1..{n}")
    # qubit q of the output sits in input slot `slots[q - 1]`
    return DensityMatrix(n, relabel_entries(rho, sorted(range(1, n + 1), key=lambda slot: perm[slot - 1])))


# ---------------------------------------------------------------------------
# Hermitian eigensolver: Jacobi with complex plane rotations in the parallel
# order of Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985), run on each
# connected component of the matrix's nonzero pattern. The paper's states
# pair each index with its complement, and so do their partial transposes,
# so their components hold at most two indices; a dense matrix is one
# component. Rotations in different components touch disjoint rows and
# columns, so the spectrum is the one Jacobi on the whole matrix gives.
# ---------------------------------------------------------------------------

_MAX_SWEEPS = 100


def _entries(mat: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The dimension of a square matrix and its nonzeros, row-major."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise LinalgError(f"expected a nonempty square matrix, got shape {m.shape}")
    rows, cols = np.nonzero(m != 0)  # a bool mask scans faster than complex entries
    return m.shape[0], rows, cols, m[rows, cols]


def values_at(dim: int, entries: tuple[np.ndarray, ...], rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Values at (rows, cols) of the dim x dim matrix whose nonzeros `entries`
    lists row-major, looked up by sorted key r * dim + c; a missing one reads 0."""
    have_rows, have_cols, vals = entries
    keys, want = have_rows * dim + have_cols, rows * dim + cols
    at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return np.where(keys[at] == want, vals[at], 0.0)


def _hermitian_deviation(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """|M - M^dag| at each entry, given row-major; rejects non-finite entries."""
    if not np.isfinite(vals).all():
        raise LinalgError("matrix has a non-finite entry")
    return np.abs(vals - values_at(dim, (rows, cols, vals), cols, rows).conj())


def _check_hermitian(dim: int, count: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
    """Reject non-finite entries and, in any of the `count` stacked dim x dim
    matrices, a Hermiticity deviation above 1e-10 relative to its largest entry."""
    owner = rows // dim
    worst, scale = np.zeros(count), np.ones(count)
    np.maximum.at(worst, owner, _hermitian_deviation(count * dim, rows, cols, vals))
    np.maximum.at(scale, owner, np.abs(vals))
    if (worst > 1e-10 * scale).any():
        raise LinalgError(f"matrix is not Hermitian: max deviation {worst.max():.3e}")


def _blocks(dim: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Connected components of the off-diagonal pattern, stacked by size.

    Each entry is a (d, k) index array: column b lists the d indices of one
    component, ascending.
    """
    off = rows != cols
    rows, cols = rows[off], cols[off]
    # each index points at a smaller-or-equal index of its component; hook to
    # the smallest neighbouring label, then jump pointers, until nothing moves
    label = np.arange(dim)
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    size = np.bincount(label, minlength=dim)[label]
    blocks = []
    for d in np.flatnonzero(np.bincount(size)):
        members = np.flatnonzero(size == d)
        # by component, ascending within it: one key below dim**2 < 2**63
        order = np.sort(label[members] * dim + members) % dim
        blocks.append(order.reshape(-1, d).T)
    return blocks


@functools.cache
def _rounds(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parallel order of one sweep over a d x d block: round i rotates the
    disjoint pairs (p[i, j], q[i, j]), p < q, and mate[i] maps each index to
    its partner (an idle one to itself). The indices sit on a ring of even
    length m (an odd d adds an index d, whose partner idles); a round pairs
    position j with m - 1 - j, then every position but 0 moves one step on,
    so the m - 1 rounds meet every pair once."""
    m = d + d % 2
    ring, pairs = np.arange(m), []
    for _ in range(m - 1):
        pair = np.sort([ring[: m // 2], ring[: m // 2 - 1 : -1]], axis=0)
        pairs.append(pair[:, pair[1] < d])
        ring[1:] = np.roll(ring[1:], 1)
    p, q = np.array(pairs).transpose(1, 0, 2)
    mate = np.tile(np.arange(d), (m - 1, 1))
    np.put_along_axis(mate, p, q, axis=1)
    np.put_along_axis(mate, q, p, axis=1)
    return p, q, mate


def _sweep(a: np.ndarray, v: np.ndarray | None, skip: np.ndarray) -> None:
    """One sweep over a (d, d, k) stack of blocks, in place; `v` is laid out
    like `a`. Each round zeroes a[p, q] for all its pairs in every block b where
    |a[p, q]| > skip[b], and the other blocks rotate by the identity. Each block
    ends exactly Hermitian, with no imaginary rounding left on its diagonal."""
    d, _, k = a.shape
    for p, q, mate in zip(*_rounds(d)):
        apq = a[p, q]
        r = np.hypot(apq.real, apq.imag)  # not np.abs, which can differ in the last bit
        sel = r > skip
        r = np.where(sel, r, 1.0)  # keeps the angles the identity replaces finite
        theta = (a[p, p].real - a[q, q].real) / (2.0 * r)
        # small-magnitude root of t^2 + 2 theta t - 1 = 0, with the sign of theta
        # (+1 at theta = +0, which is the zero a difference of equal numbers gives)
        t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = np.where(sel, (t * c) * (apq / r).conjugate(), 0.0)
        # U = [[c, -conj(s)], [s, c]] on each (p, q): column j of A U is
        # cj A[:, j] + sj A[:, mate[j]], and row j of U^dag A is the same with conj(sj)
        cj = np.ones((d, k))
        cj[p] = cj[q] = np.where(sel, c, 1.0)
        sj = np.zeros((d, k), dtype=complex)
        sj[p], sj[q] = s, -s.conjugate()
        mixes = [(a, 1, cj, sj), (a, 0, cj[:, None], sj.conjugate()[:, None])]
        for m, axis, cm, sm in mixes + ([] if v is None else [(v, 1, cj, sj)]):
            g = np.take(m, mate, axis=axis)
            np.multiply(sm, g, out=g)
            m *= cm
            m += g
        a[p, q] = np.where(sel, 0.0, a[p, q])
        a[q, p] = np.where(sel, 0.0, a[q, p])
    a += a.transpose(1, 0, 2).conj()
    a /= 2.0


def _per_matrix(owner: np.ndarray, x: np.ndarray, count: int) -> np.ndarray:
    """Sums of a (.., k) stack over the blocks b of each matrix owner[b], added in
    C order, so no stack-mate and no BLAS thread count moves a matrix's bits."""
    return np.bincount(np.broadcast_to(owner, x.shape).ravel(), weights=x.ravel(), minlength=count)


def _jacobi(
    dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, want_vectors: bool, count: int = 1,
    check: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenpairs, (count, dim) ascending values and (count, dim, dim) vector
    columns, of `count` matrices given row-major as the nonzeros of their direct
    sum, matrix g on indices g * dim ..; each has its own norm, skip level and
    stop test and leaves the sweeps once it stops: the bits it gets alone.
    `check=False` skips `_check_hermitian`, for entries known to pass it."""
    if check:
        _check_hermitian(dim, count, rows, cols, vals)
    # per size d: the (d, k) indices, the Hermitian (d, d, k) blocks, their
    # (d, d, k) eigenvector blocks and the matrix each block belongs to
    stacks = []
    for ix in _blocks(count * dim, rows, cols):
        d, k = ix.shape
        at = np.full(count * dim, -1)  # flat (position, block) slot of each index of the stack
        at[ix] = np.arange(ix.size).reshape(d, k)
        mine = at[rows] >= 0
        r, c = at[rows[mine]], at[cols[mine]]
        a = np.zeros((d, d, k), dtype=complex)
        a[r // k, c // k, r % k] = vals[mine]
        # Hermitian part in place, so the stack stays C-ordered for the sweeps'
        # gathers (numpy may lay out a new sum with the transpose column-major)
        a += a.transpose(1, 0, 2).conj()
        a /= 2.0
        v = np.repeat(np.eye(d, dtype=complex)[:, :, None], k, axis=2) if want_vectors else None
        stacks.append([ix, a, v, ix[0] // dim])
    norm = np.sqrt(sum(_per_matrix(owner, a.real**2 + a.imag**2, count) for _, a, _, owner in stacks))
    target = TOL.eigen_offdiag * norm
    # anything below `skip` can contribute at most target/100 in total, so
    # skipping it can never leave the stop criterion unmet
    skip = target / (100.0 * dim)
    live = [stack for stack in stacks if len(stack[0]) > 1]  # 1 x 1 blocks are diagonal
    busy = np.ones(count, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        # every a[p, q] with p < q; a is Hermitian, so its off-diagonal norm is sqrt(2) times theirs
        off, big = np.zeros(count), np.zeros(count)
        for ix, a, _, owner in live:
            upper = a[_rounds(len(ix))[:2]]
            off += _per_matrix(owner, upper.real**2 + upper.imag**2, count)
            big += _per_matrix(owner, np.hypot(upper.real, upper.imag) > skip[owner], count)
        busy &= (math.sqrt(2.0) * np.sqrt(off) > target) & (big > 0)
        if not busy.any():
            break
        for ix, a, v, owner in live:
            on = busy[owner]  # the blocks of matrices still sweeping, swept as one stack
            a_on, v_on = (None if m is None else np.ascontiguousarray(m[:, :, on]) for m in (a, v))
            _sweep(a_on, v_on, skip[owner[on]])
            a[:, :, on] = a_on
            if v is not None:
                v[:, :, on] = v_on
    else:
        raise LinalgError(f"Jacobi did not converge in {_MAX_SWEEPS} sweeps (dim {dim})")
    eigs = np.empty(count * dim)
    vecs = np.zeros((count * dim, dim), dtype=complex) if want_vectors else None
    for ix, a, v, _ in stacks:
        diag = np.arange(ix.shape[0])
        eigs[ix] = a[diag, diag].real
        if vecs is not None:
            vecs[ix[:, None, :], ix[None, :, :] % dim] = v
    if vecs is None:
        return np.sort(eigs.reshape(count, dim), axis=1), None
    # stable, so the vectors follow the values in a fixed order
    order = np.argsort(eigs.reshape(count, dim), axis=1, kind="stable")
    eigs = np.take_along_axis(eigs.reshape(count, dim), order, axis=1)
    return eigs, np.take_along_axis(vecs.reshape(count, dim, dim), order[:, None, :], axis=2)


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending."""
    return _jacobi(*_entries(mat), want_vectors=False)[0][0]


def hermitian_eigensystem(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and matching eigenvector columns, each pair
    checked: ||M v - lambda v|| <= eigen_residual * ||M||."""
    (vals,), (vecs,) = _jacobi(*_entries(mat), want_vectors=True)
    m = np.asarray(mat, dtype=complex)
    bound = TOL.eigen_residual * max(float(np.linalg.norm(m)), 1e-300)
    resid = m @ vecs - vecs * vals[np.newaxis, :]
    worst = float(np.linalg.norm(resid, axis=0).max())
    if worst > bound:
        raise LinalgError(f"eigenpair residual {worst:.3e} exceeds {bound:.3e}")
    return vals, vecs


# ---------------------------------------------------------------------------
# Text dump format: header "dim=<d>", then d*d lines "i j re im" (0-based,
# row-major, 17 significant digits).
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


def dump_matrix(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> Iterator[str]:
    """The dump of the dim x dim matrix whose nonzeros are given row-major, in
    chunks: the header line, then one chunk per row. Only the given values are
    formatted; every other position's line is "i j 0 0"."""
    yield f"dim={dim}\n"
    zeros = [f"{j} 0 0" for j in range(dim)]
    bounds, cols, vals = np.searchsorted(rows, np.arange(dim + 1)).tolist(), cols.tolist(), vals.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        tails = zeros.copy()
        for j, v in zip(cols[lo:hi], vals[lo:hi]):
            tails[j] = f"{j} {format_float(v.real)} {format_float(v.imag)}"
        yield f"{i} " + f"\n{i} ".join(tails) + "\n"

"""Bit-identity of the sort-free kernels against the formulations they replaced.

Each oracle below is the earlier kernel, written out here: `np.unique` plus
`np.add.at` for `add_entries`, the `lexsort((label, size))` rule for
`_blocks`, bit-by-bit packing for `split_index`, one `pt_spectra` solve per
state and cut for the stacked partial transposes, the stable argsort for
values-only spectra, and one `is_ppt` per state for the stacked branch
verdicts and the four Bell-diagonal forms. The paired route's oracle is the
Jacobi sweeps it skips, `linalg._sweeps`, which still serve every other pattern.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcabe import analyze, construct, linalg
from bcabe.analyze import is_ppt
from bcabe.basis import BELL_LABELS
from bcabe.config import TOL
from bcabe.linalg import Bipartition, DensityMatrix, LinalgError, pt_spectra
from conftest import random_density_matrix, random_hermitian

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _bytes(arrays) -> list[tuple[str, bytes]]:
    return [(a.dtype.str, np.ascontiguousarray(a).tobytes()) for a in arrays]


def unique_add_entries(dim, terms):
    rows, cols, vals = (np.concatenate([np.ravel(a) for a in part]) for part in zip(*terms))
    keys, at = np.unique(rows * dim + cols, return_inverse=True)
    acc = np.zeros(keys.size, dtype=complex)
    np.add.at(acc, at, vals)
    nz = acc != 0
    return keys[nz] // dim, keys[nz] % dim, acc[nz]


class TestAddEntriesKernelBits:
    # a value pool with exact negatives (so some positions cancel to 0 and are
    # dropped) and -0.0 parts, drawn onto few positions so they repeat
    POOL = np.array([1.5, -1.5, 0.25, -0.25, 0.0, -0.0, 1e-300, 3.0])

    @settings(deadline=None, max_examples=60)
    @given(SEEDS, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5),
           st.booleans())
    def test_matches_unique_and_add_at(self, seed, dim, count, row_major):
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(count):
            size = int(rng.integers(0, 3 * dim * dim))
            rows, cols = rng.integers(0, dim, size), rng.integers(0, dim, size)
            if row_major:  # as the callers give them: each term a row-major run
                at = np.argsort(rows * dim + cols, kind="stable")
                rows, cols = rows[at], cols[at]
            vals = rng.choice(self.POOL, size) + 1j * rng.choice(self.POOL, size)
            terms.append((rows, cols, vals))
        assert _bytes(linalg.add_entries(dim, terms)) == _bytes(unique_add_entries(dim, terms))

    def test_cancellation_and_negative_zero(self):
        rows = np.array([0, 0, 1, 1, 2, 2])
        cols = np.array([1, 1, 0, 0, 2, 2])
        vals = np.array([1.5 - 0.0j, -1.5 + 0.0j, complex(-0.0, 2.0), complex(-0.0, 1.0), -0.0, 0.5])
        terms = [(rows[:3], cols[:3], vals[:3]), (rows[3:], cols[3:], vals[3:])]
        got = linalg.add_entries(3, terms)
        assert _bytes(got) == _bytes(unique_add_entries(3, terms))
        assert got[0].tolist() == [1, 2] and got[2].tolist() == [3j, 0.5]

    def test_two_dimensional_terms(self):
        rows = np.array([[2, 0], [1, 0]])
        terms = [(rows, rows.T, np.arange(4.0).reshape(2, 2) + 1j), (rows, rows, -np.ones((2, 2)))]
        assert _bytes(linalg.add_entries(3, terms)) == _bytes(unique_add_entries(3, terms))


def lexsort_blocks(dim, rows, cols):
    off = rows != cols
    rows, cols = rows[off], cols[off]
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
    order = np.lexsort((label, size))
    sizes = np.flatnonzero(np.bincount(size))
    return [order[size[order] == d].reshape(-1, d).T for d in sizes]


class TestBlocksKernelBits:
    @settings(deadline=None, max_examples=60)
    @given(SEEDS, st.integers(min_value=1, max_value=48), st.sampled_from([0.0, 0.02, 0.1, 0.4, 1.0]))
    def test_matches_lexsort_rule(self, seed, dim, density):
        rng = np.random.default_rng(seed)
        keep = rng.random((dim, dim)) < density
        rows, cols = np.nonzero(keep | keep.T | np.eye(dim, dtype=bool))
        assert _bytes(linalg._blocks(dim, rows, cols)) == _bytes(lexsort_blocks(dim, rows, cols))

    @settings(deadline=None, max_examples=20)
    @given(SEEDS, st.integers(min_value=1, max_value=6))
    def test_matches_lexsort_rule_on_shuffled_pairs(self, seed, n):
        # the paper's pattern, each index with its complement, relabelled at random
        rng = np.random.default_rng(seed)
        dim = 2**n
        perm = rng.permutation(dim)
        rows, cols = perm[np.arange(dim)], perm[(dim - 1) - np.arange(dim)]
        assert _bytes(linalg._blocks(dim, rows, cols)) == _bytes(lexsort_blocks(dim, rows, cols))


def packed_split_index(index, n, front):
    bit = lambda q: (index >> (n - q)) & 1
    pack = lambda qs: sum((bit(q) << (len(qs) - 1 - i) for i, q in enumerate(qs)), index & 0)
    return pack(list(front)), pack([q for q in range(1, n + 1) if q not in front])


class TestSplitIndexKernelBits:
    @settings(deadline=None, max_examples=60)
    @given(SEEDS, st.integers(min_value=1, max_value=12), st.data())
    def test_matches_bit_packing(self, seed, n, data):
        size = data.draw(st.integers(min_value=0, max_value=n))
        front = data.draw(st.permutations(range(1, n + 1)))[:size]
        index = np.random.default_rng(seed).integers(0, 2**n, 64)
        got, want = linalg.split_index(index, n, front), packed_split_index(index, n, front)
        assert _bytes(got) == _bytes(want)
        assert linalg.split_index(int(index[0]), n, front) == packed_split_index(int(index[0]), n, front)

    def test_every_front_at_six_qubits(self):
        index = np.arange(64)
        for size in range(7):
            for front in itertools.permutations(range(1, 7), size):
                assert _bytes(linalg.split_index(index, 6, front)) == _bytes(packed_split_index(index, 6, front))


def _all_cuts(n):
    return [Bipartition.of(left, n) for r in range(1, n) for left in itertools.combinations(range(1, n + 1), r)]


def _verdict_bits(verdicts):
    return [(str(v.cut), v.min_eigenvalue.hex(), v.negativity.hex(), v.ppt) for v in verdicts]


class TestPtSpectraKernelBits:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=2, max_value=4), SEEDS, st.sampled_from([1.0, 0.4]))
    def test_validated_copy_matches_checked_route(self, n, seed, kept):
        # a validated state skips the Hermiticity check; its spectra,
        # one-norms and verdicts are the unvalidated state's
        rng = np.random.default_rng(seed)
        m = random_density_matrix(rng, n).matrix
        keep = np.triu(rng.random(m.shape) < kept)
        m = m * (keep | keep.T | np.eye(2**n, dtype=bool))
        m /= np.trace(m).real
        raw, checked = DensityMatrix(n, m), DensityMatrix(n, m)
        checked.validate()
        cuts = _all_cuts(n)
        checked_route, skipped = pt_spectra([raw], cuts), pt_spectra([checked], cuts)
        assert not raw.validated()
        assert _bytes(skipped) == _bytes(checked_route)
        assert _verdict_bits(analyze._verdicts(cuts, skipped, TOL.ppt)) == _verdict_bits(
            analyze._verdicts(cuts, checked_route, TOL.ppt)
        )

    def test_one_norms_of_the_paper_states_match_the_transposes_row_major_sum(self):
        # summed in the state's row-major order rather than the transpose's:
        # where a column of the transpose holds at most two entries, as on
        # every state of the paper, the order cannot move a bit
        for n, weights in itertools.product((4, 6), [(1, 0, 0, 0), (0.553, 0.2, 0.147, 0.1)]):
            rho = construct.noisy_state(construct.NoisyWeights(*weights), n)
            rho.validate()
            cuts = _all_cuts(n)
            rows, cols, vals = linalg._pt_entries(rho, cuts)
            order = np.argsort(rows * rho.dim + cols, axis=1)
            sorted_cols = np.take_along_axis(cols, order, axis=1)
            sorted_vals = np.take_along_axis(vals, order, axis=1)
            for cut, one_norm, c, v in zip(cuts, pt_spectra([rho], cuts)[1], sorted_cols, sorted_vals):
                assert one_norm.hex() == np.bincount(c, weights=np.abs(v)).max().hex(), (n, weights, str(cut))

    @settings(deadline=None, max_examples=40)
    @given(SEEDS, st.integers(min_value=2, max_value=4), st.data())
    def test_stack_rows_match_each_state_and_cut_alone(self, seed, n, data):
        # one solve over states x cuts, state-major; each row has the bits of
        # that partial transpose solved alone, validated or not
        rng = np.random.default_rng(seed)
        kinds = data.draw(st.lists(st.sampled_from(["dense", "sparse", "bell_diagonal"]), min_size=1, max_size=4))
        states = [self._state(rng, n, kind, data.draw(st.booleans())) for kind in kinds]
        cuts = data.draw(st.lists(st.sampled_from(_all_cuts(n)), min_size=1, max_size=4))
        eigs, one_norms = pt_spectra(states, cuts)
        assert eigs.shape == (len(states) * len(cuts), 2**n) and one_norms.shape == (len(states) * len(cuts),)
        rows = iter(zip(eigs, one_norms))
        for state, cut in itertools.product(states, cuts):
            row_eigs, row_norm = next(rows)
            (alone_eigs,), (alone_norm,) = pt_spectra([state], [cut])
            assert _bytes([row_eigs, row_norm]) == _bytes([alone_eigs, alone_norm]), str(cut)

    @settings(deadline=None, max_examples=30)
    @given(SEEDS, st.integers(min_value=2, max_value=4), st.data())
    def test_bad_state_in_a_stack_raises_its_own_error(self, seed, n, data):
        rng = np.random.default_rng(seed)
        kinds = data.draw(st.lists(st.sampled_from(["dense", "sparse", "bell_diagonal"]), max_size=3))
        states = [self._state(rng, n, kind, data.draw(st.booleans())) for kind in kinds]
        m = random_density_matrix(rng, n).matrix.copy()
        m[0, -1] += data.draw(st.sampled_from([1e-6, 1e-3j, np.nan]))  # skewed, or not finite
        bad = DensityMatrix(n, m)
        states.insert(data.draw(st.integers(min_value=0, max_value=len(states))), bad)
        cuts = data.draw(st.lists(st.sampled_from(_all_cuts(n)), min_size=1, max_size=3))
        with pytest.raises(LinalgError) as alone:
            pt_spectra([bad], cuts[:1])
        with pytest.raises(LinalgError) as stacked:
            pt_spectra(states, cuts)
        message = str(alone.value)
        assert str(stacked.value) == message
        assert re.fullmatch(r"matrix is not Hermitian: max deviation .*|matrix has a non-finite entry", message)

    @staticmethod
    def _state(rng, n, kind, validated):
        if kind == "bell_diagonal":
            weights = construct.NoisyWeights(*rng.dirichlet(np.ones(4)))
            m = np.kron(construct.bell_diagonal(weights, BELL_LABELS[rng.integers(4)]).matrix, np.eye(2 ** (n - 2)))
            m /= 2 ** (n - 2)
        else:
            m = random_density_matrix(rng, n).matrix
            if kind == "sparse":
                keep = np.triu(rng.random(m.shape) < 0.3)
                m = m * (keep | keep.T | np.eye(2**n, dtype=bool))
                m /= np.trace(m).real
        state = DensityMatrix(n, m)
        if validated:
            state.validate()
        return state


class TestValuesOnlySpectraKernelBits:
    @settings(deadline=None, max_examples=30)
    @given(SEEDS, st.integers(min_value=1, max_value=8),
           st.lists(st.sampled_from(["dense", "sparse", "rank1", "zero"]), min_size=1, max_size=4))
    def test_sort_matches_stable_argsort(self, seed, dim, kinds):
        # compared with ==, not tobytes(): np.sort may order an eigenvalue -0.0
        # and another +0.0 of one matrix either way round, where the stable
        # argsort keeps their positions. format_float prints both as 0 and
        # every comparison reads them as equal, so no report or verdict moves
        rng = np.random.default_rng(seed)
        mats = []
        for kind in kinds:
            m = random_hermitian(rng, dim)
            if kind == "sparse":
                keep = np.triu(rng.random((dim, dim)) < 0.3)
                m *= keep | keep.T
            elif kind == "rank1":  # exact zero eigenvalues, and rows left empty
                v = np.zeros(dim, dtype=complex)
                v[: max(1, dim // 2)] = 1.0
                m = np.outer(v, v)
            elif kind == "zero":
                m = np.zeros((dim, dim))
            mats.append(m)
        parts = [linalg._entries(m)[1:] for m in mats]
        rows = np.concatenate([r + g * dim for g, (r, _, _) in enumerate(parts)])  # matrix g on indices g * dim ..
        cols = np.concatenate([c + g * dim for g, (_, c, _) in enumerate(parts)])
        vals = np.concatenate([v for _, _, v in parts])
        values_only, _ = linalg._jacobi(dim, rows, cols, vals, want_vectors=False, count=len(mats))
        with_vectors, _ = linalg._jacobi(dim, rows, cols, vals, want_vectors=True, count=len(mats))
        assert values_only.shape == with_vectors.shape and (values_only == with_vectors).all()


class TestStackedCutVerdictsKernelBits:
    @settings(deadline=None, max_examples=40)
    @given(SEEDS, st.lists(st.sampled_from(["dense", "bell_diagonal", "diagonal"]), min_size=1, max_size=6))
    def test_stacked_matches_is_ppt_per_state(self, seed, kinds):
        rng = np.random.default_rng(seed)
        mats = []
        for kind in kinds:
            if kind == "dense":
                m = random_density_matrix(rng, 2).matrix
            elif kind == "bell_diagonal":
                w = rng.dirichlet(np.ones(4))
                m = construct.bell_diagonal(construct.NoisyWeights(*w), BELL_LABELS[rng.integers(4)]).matrix
            else:
                m = np.diag(rng.dirichlet(np.ones(4))).astype(complex)
            mats.append(m)
        stacked = analyze._cut_verdicts([DensityMatrix(2, m) for m in mats], [analyze._PAIR_CUT], TOL.ppt)
        alone = [is_ppt(DensityMatrix(2, m), analyze._PAIR_CUT) for m in mats]
        assert _verdict_bits(stacked) == _verdict_bits(alone)


def four_is_ppt_bell_diagonal_entangled(weights, ppt):
    """The earlier `bell_diagonal_entangled`: one `is_ppt` solve per Bell-diagonal form."""
    w = weights.w_max
    rule = w > 0.5
    verdicts = tuple(is_ppt(construct.bell_diagonal(weights, label), analyze._PAIR_CUT, ppt) for label in BELL_LABELS)
    if (not verdicts[0].ppt) != rule and abs(w - 0.5) > 10 * ppt:
        raise analyze.AnalyzeError(f"w_max rule ({rule}) and PPT test ({not verdicts[0].ppt}) disagree at w={w!r}")
    return analyze.BellDiagonalVerdict(w, rule, verdicts[0].min_eigenvalue, verdicts)


class TestBellDiagonalVerdictsKernelBits:
    # both scan lines, through w_max = 1/2 exactly and one TOL.ppt either side
    GRID = sorted({*np.linspace(0.0, 1.0, 21).tolist(), 0.5 - TOL.ppt, 0.5 + TOL.ppt})

    @pytest.mark.parametrize("line", sorted(construct.SCAN_LINES))
    @pytest.mark.parametrize("ppt", [TOL.ppt, 0.3])
    def test_one_solve_matches_four_is_ppt(self, line, ppt):
        for w in self.GRID:
            weights = construct.SCAN_LINES[line](w)
            got, want = analyze.bell_diagonal_entangled(weights, ppt), four_is_ppt_bell_diagonal_entangled(weights, ppt)
            assert (got.w_max.hex(), got.entangled, got.min_pt_eigenvalue.hex()) == (
                want.w_max.hex(), want.entangled, want.min_pt_eigenvalue.hex()), (line, w)
            assert _verdict_bits(got.ppt_verdicts) == _verdict_bits(want.ppt_verdicts), (line, w)


class TestPairedRouteKernelBits:
    """`linalg._paired`, the one exact rotation per paired 2 x 2 block, against
    the sweeps it replaces there (`linalg._sweeps`), eigenvalue bytes equal."""

    KINDS = ["zero", "diagonal", "converged", "busy", "busy"]

    @settings(deadline=None, max_examples=200)
    @given(SEEDS, st.integers(min_value=2, max_value=16), st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
           st.booleans())
    # a converged matrix whose off-diagonal is +-5e-324j: its norm underflows to 0, so
    # every pair clears the skip level, but no sweep would rotate it, and 1/|apq| overflows
    @example(seed=4294967294, dim=2, kinds=["busy", "converged"], shuffled=False)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_the_sweeps(self, seed, dim, kinds, shuffled):
        rng = np.random.default_rng(seed)
        parts = [self._paired_matrix(rng, dim, kind) for kind in kinds]
        rows, cols, vals = linalg._direct_sum(dim, parts)
        if shuffled:  # as pt_spectra gives them: the state's order, not the transpose's
            at = rng.permutation(rows.size)
            rows, cols, vals = rows[at], cols[at], vals[at]
        assert linalg._paired(dim, len(parts), rows, cols, vals) is not None
        got, _ = linalg._jacobi(dim, rows, cols, vals, want_vectors=False, count=len(parts), check=False)
        want, _ = linalg._sweeps(dim, rows, cols, vals, want_vectors=False, count=len(parts))
        assert _bytes([got]) == _bytes([want])

    @pytest.mark.parametrize("entries", [
        [(0, 1), (1, 0), (0, 2), (2, 0)],  # index 0 with two partners
        [(0, 1), (2, 1)],  # index 1 with two, named only as a column: no mirrors
        [(1, 0), (1, 2)],  # and only as a row
        [(0, 1), (1, 2)],  # a chain of three
        [(0, 3), (3, 0), (1, 2), (2, 1), (2, 3)],
    ])
    def test_an_index_with_two_partners_is_swept(self, entries):
        rows, cols = (np.array(a) for a in zip(*entries, *((i, i) for i in range(4))))
        vals = np.linspace(1.0, 2.0, rows.size) + 0.5j * (rows != cols)
        assert linalg._paired(4, 1, rows, cols, vals) is None
        got, _ = linalg._jacobi(4, rows, cols, vals, want_vectors=False, check=False)
        assert _bytes([got]) == _bytes(linalg._sweeps(4, rows, cols, vals, want_vectors=False)[:1])

    @staticmethod
    def _paired_matrix(rng, dim, kind):
        """Entries of one matrix whose indices pair at most once: some left
        unpaired, the diagonal often equal across a pair (theta = 0), and
        off-diagonals at the skip level, one ulp either side of it, a few
        times it (a matrix that meets the stop test but has pairs to rotate)
        or far above it; some mirrors left out."""
        if kind == "zero":
            return np.zeros(0, int), np.zeros(0, int), np.zeros(0, complex)
        scale = 10.0 ** rng.integers(-12, 13)
        m = np.diag(rng.standard_normal(dim) * scale * (rng.random(dim) < 0.8)).astype(complex)
        order = rng.permutation(dim)
        pairs = order[: 2 * rng.integers(0 if kind == "diagonal" else 1, dim // 2 + 1)].reshape(-1, 2)
        if kind == "diagonal":
            pairs = pairs[:0]
        for p, q in pairs:
            if rng.random() < 0.5:
                m[q, q] = m[p, p]
        big = [(p, q) for p, q in pairs if kind == "busy" and rng.random() < 0.6] or (
            [tuple(pairs[0])] if kind == "busy" else [])
        for p, q in big:
            m[p, q] = scale * 10.0 ** rng.uniform(-8, 0) * np.exp(2j * np.pi * rng.random())
        # the skip level `_jacobi` takes from this norm; the small pairs below do not move it
        skip = TOL.eigen_offdiag * np.sqrt(np.sum(np.abs(m + np.triu(m, 1).conj().T) ** 2)) / (100.0 * dim)
        for p, q in pairs:
            if (p, q) in big:
                continue
            size = rng.choice([skip, np.nextafter(skip, 0), np.nextafter(skip, np.inf), 2.0 * skip, 7.0 * skip,
                               1e-20 * scale])
            m[p, q] = size * rng.choice([1.0, -1.0, 1j, -1j, np.exp(2j * np.pi * rng.random())])
        for p, q in pairs:
            if rng.random() < 0.9:
                m[q, p] = np.conj(m[p, q])
        rows, cols = np.nonzero(m)
        return rows, cols, m[rows, cols]

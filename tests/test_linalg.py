import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bcabe
from bcabe import analyze, construct, linalg
from bcabe.analyze import scan_all_cuts
from bcabe.basis import PHI_PLUS, bell_projector
from bcabe.config import TOL
from bcabe.linalg import (
    Bipartition,
    DensityMatrix,
    LinalgError,
    SIGMA_X,
    SIGMA_Z,
    apply_qubit_permutation,
    dump_matrix,
    format_float,
    frobenius_distance,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    pt_spectra,
    swap_qubits,
    tensor,
    transpose_qubits,
)
from conftest import random_density_matrix, random_hermitian, random_sparse_hermitian, read_dump
from dense_oracle import group_entries, group_qubits, partial_trace

I2 = np.eye(2, dtype=complex)


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_trace_multiplicativity(self):
        m = tensor(bell_projector(PHI_PLUS), I2)
        assert m.shape == (8, 8)
        assert np.trace(m) == pytest.approx(2.0)

    def test_sigma_z_tensor_diagonal(self):
        assert np.allclose(np.diag(tensor(SIGMA_Z, SIGMA_Z)), [1, -1, -1, 1])

    def test_first_factor_most_significant(self):
        # |0><0| (x) sigma_x acts on qubit 2 only
        m = tensor(np.diag([1.0, 0.0]), SIGMA_X)
        assert m[0, 1] == 1 and m[1, 0] == 1
        assert np.abs(m[2:, :]).max() == 0


class TestPartialTranspose:
    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(7)
        a = random_density_matrix(rng, 1)
        b = random_density_matrix(rng, 1)
        prod = DensityMatrix(2, tensor(a.matrix, b.matrix))
        pt = transpose_qubits(prod.matrix, 2, Bipartition.of((1,), 2).right)
        eigs = np.linalg.eigvalsh(pt)
        assert eigs.min() >= -1e-12
        assert np.allclose(np.sort(eigs), np.sort(np.linalg.eigvalsh(prod.matrix)))

    def test_bell_state_min_eigenvalue(self):
        dm = DensityMatrix(2, bell_projector(PHI_PLUS))
        pt = transpose_qubits(dm.matrix, 2, Bipartition.of((1,), 2).right)
        eigs = hermitian_eigenvalues(pt)
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_full_transpose_preserves_eigenvalues(self):
        rng = np.random.default_rng(8)
        dm = random_density_matrix(rng, 3)
        full = transpose_qubits(dm.matrix, 3, [1, 2, 3])
        assert np.allclose(full, dm.matrix.T)
        assert np.allclose(
            np.linalg.eigvalsh(full), np.linalg.eigvalsh(dm.matrix), atol=1e-12
        )

    def test_involution_and_trace(self):
        rng = np.random.default_rng(9)
        dm = random_density_matrix(rng, 3)
        cut = Bipartition.of((1, 3), 3)
        pt = transpose_qubits(dm.matrix, 3, cut.right)
        assert np.trace(pt) == pytest.approx(1.0)
        assert np.abs(pt - pt.conj().T).max() < 1e-12
        back = transpose_qubits(pt, 3, cut.right)
        assert np.array_equal(back, dm.matrix)

    def test_invalid_cut_rejected(self):
        rng = np.random.default_rng(10)
        dm = random_density_matrix(rng, 2)
        with pytest.raises(LinalgError):
            transpose_qubits(dm.matrix, dm.qubits, Bipartition.of((1,), 3).right)


class TestPtSpectrum:
    """pt_spectra against the dense oracle: hermitian_eigenvalues of transpose_qubits."""

    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(min_value=2, max_value=4),  # a 1-qubit state has no cut
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1.0, 0.5, 0.2]),
    )
    def test_matches_dense_route_on_every_cut(self, n, seed, kept):
        rng = np.random.default_rng(seed)
        dim = 2**n
        keep = np.triu(rng.random((dim, dim)) < kept)
        dm = DensityMatrix(n, random_hermitian(rng, dim) * (keep | keep.T))
        cuts = [Bipartition.of(left, n) for r in range(1, n) for left in itertools.combinations(range(1, n + 1), r)]
        spectra, one_norms = pt_spectra(dm, cuts)
        assert spectra.shape == (len(cuts), dim) and one_norms.shape == (len(cuts),)
        for cut, eigs, one_norm in zip(cuts, spectra, one_norms):
            pt = transpose_qubits(dm.matrix, n, cut.right)
            assert eigs.tobytes() == hermitian_eigenvalues(pt).tobytes(), str(cut)
            assert one_norm == pytest.approx(np.abs(pt).sum(axis=0).max(), rel=1e-15, abs=0)

    def test_entries_scanned_once(self):
        dm = DensityMatrix(2, bell_projector(PHI_PLUS))
        rows, cols, vals = dm.entries()
        assert dm.entries()[0] is rows and not vals.flags.writeable
        assert rows.tolist() == [0, 0, 3, 3] and cols.tolist() == [0, 3, 0, 3]
        assert np.allclose(vals, 0.5)

    def test_cut_scan_forms_no_dense_transpose(self, monkeypatch):
        def dense(*args):
            raise AssertionError("dense partial transpose formed")

        monkeypatch.setattr(linalg, "transpose_qubits", dense)
        verdicts = scan_all_cuts(construct.projector_direct(construct.RHO_PLUS, 8))
        assert len(verdicts) == 127
        assert all(v.ppt == (len(v.cut.left) % 2 == 0) for v in verdicts)  # odd sides are NPT

    def test_cut_scan_memory_is_bounded(self, monkeypatch):
        # the scan stacks a slice of cuts per solve; all 127 cuts at once
        # would peak at about 7 MB
        rho = construct.noisy_state(construct.NoisyWeights(0.7, 0.1, 0.1, 0.1), 8)
        peaks = []
        for batch in (linalg.PT_BATCH_ENTRIES, 2**30):
            monkeypatch.setattr(analyze, "PT_BATCH_ENTRIES", batch)
            scan_all_cuts(rho)  # entries, validation and sweep orders are cached
            tracemalloc.start()
            try:
                scan_all_cuts(rho)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2**20 < peaks[1]

    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1.0, 0.3]),
        st.sampled_from([0.0, 1e-13, 1e-3]),
    )
    def test_moved_deviations_are_the_sources_permuted(self, n, seed, kept, skew):
        # why a validated state may skip the stack's check: a transpose moves
        # an entry and its mirror by the same s, so the deviations move along
        rng = np.random.default_rng(seed)
        dim = 2**n
        keep = np.triu(rng.random((dim, dim)) < kept)
        m = (random_hermitian(rng, dim) + skew * random_hermitian(rng, dim) * 1j) * (keep | keep.T)
        dm = DensityMatrix(n, m)
        source = np.sort(linalg._hermitian_deviation(dim, *dm.entries()))
        cuts = [Bipartition.of(left, n) for r in range(1, n) for left in itertools.combinations(range(1, n + 1), r)]
        for cut, rows, cols, vals in zip(cuts, *linalg._pt_entries(dm, cuts)):
            at = np.argsort(rows * dim + cols)  # the mirror lookup reads row-major keys
            moved = np.sort(linalg._hermitian_deviation(dim, rows[at], cols[at], vals[at]))
            assert moved.tobytes() == source.tobytes(), str(cut)

    def test_hermiticity_checked_once_per_state(self, monkeypatch):
        checked = []
        real_check = linalg._check_hermitian
        monkeypatch.setattr(linalg, "_check_hermitian", lambda *args: checked.append(args[1]) or real_check(*args))
        rho = construct.noisy_state(construct.NoisyWeights(0.7, 0.1, 0.1, 0.1), 4)
        cuts = [Bipartition.of((1,), 4), Bipartition.of((1, 2), 4)]
        raw = DensityMatrix(4, rho.entries())
        pt_spectra(raw, cuts)
        assert checked == [2]  # not validated: the stack is checked
        raw.validate()
        pt_spectra(raw, cuts)
        linalg.spectra(16, [raw.entries()])
        hermitian_eigenvalues(raw.matrix)
        assert checked == [2, 1, 1]  # validated: pt_spectra skips it, the raw-input routes do not
        skewed = np.eye(4) / 4
        skewed[0, 3] = 1e-6
        with pytest.raises(LinalgError, match="not Hermitian"):
            pt_spectra(DensityMatrix(2, skewed), [Bipartition.of((1,), 2)])

    def test_invalid_cut_rejected(self):
        with pytest.raises(LinalgError, match="cut over 3 qubits"):
            pt_spectra(DensityMatrix(2, bell_projector(PHI_PLUS)), [Bipartition.of((1,), 2), Bipartition.of((1,), 3)])


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        dm = DensityMatrix(2, bell_projector(PHI_PLUS))
        red = partial_trace(dm, {1})
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_product_factorization(self):
        rng = np.random.default_rng(11)
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 1)
        prod = DensityMatrix(3, tensor(a.matrix, b.matrix))
        assert np.allclose(partial_trace(prod, {1, 2}).matrix, a.matrix, atol=1e-12)
        assert np.allclose(partial_trace(prod, {3}).matrix, b.matrix, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(12)
        dm = random_density_matrix(rng, 4)
        red = partial_trace(dm, {2, 4})
        assert red.qubits == 2
        assert red.trace() == pytest.approx(1.0)

    def test_empty_keep_rejected(self):
        rng = np.random.default_rng(13)
        dm = random_density_matrix(rng, 2)
        with pytest.raises(LinalgError):
            partial_trace(dm, set())


class TestPermutation:
    def test_identity(self):
        rng = np.random.default_rng(14)
        dm = random_density_matrix(rng, 3)
        out = apply_qubit_permutation(dm, [1, 2, 3])
        assert np.array_equal(out.matrix, dm.matrix)

    def test_swap_basis_state(self):
        ket01 = np.zeros((4, 4), dtype=complex)
        ket01[1, 1] = 1.0  # |01><01|
        out = apply_qubit_permutation(DensityMatrix(2, ket01), [2, 1])
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1.0  # |10><10|
        assert np.array_equal(out.matrix, expected)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(15)
        dm = random_density_matrix(rng, 3)
        out = apply_qubit_permutation(dm, [3, 1, 2])
        assert np.allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(dm.matrix), atol=1e-12
        )

    def test_non_bijective_rejected(self):
        rng = np.random.default_rng(16)
        dm = random_density_matrix(rng, 2)
        with pytest.raises(LinalgError):
            apply_qubit_permutation(dm, [1, 1])

    def test_three_cycle_direction(self):
        # three distinct one-qubit states with dyadic entries, so the
        # Kronecker products are exact whatever the factor order
        a = np.array([[1, 0], [0, 0]], dtype=complex)
        b = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        c = np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)
        moved = apply_qubit_permutation(DensityMatrix(3, tensor(a, b, c)), [2, 3, 1])
        assert np.array_equal(moved.matrix, tensor(c, a, b))


class TestFrobenius:
    def test_zero_on_equal(self):
        m = np.arange(16, dtype=complex).reshape(4, 4)
        assert frobenius_distance(m, m) == 0.0

    def test_identity_vs_sigma_z(self):
        assert frobenius_distance(I2, SIGMA_Z) == pytest.approx(2.0)

    def test_dim_mismatch(self):
        with pytest.raises(LinalgError):
            frobenius_distance(np.eye(2), np.eye(4))


class TestEigensolver:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4))

    def test_sigma_x(self):
        assert np.allclose(hermitian_eigenvalues(SIGMA_X), [-1.0, 1.0])

    def test_matches_lapack_on_random(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 5, 8, 16, 33):
            h = random_hermitian(rng, dim)
            mine = hermitian_eigenvalues(h)
            ref = np.linalg.eigvalsh(h)
            assert np.abs(mine - ref).max() < 1e-10 * max(1, np.linalg.norm(h))

    def test_eigensystem_reconstruction_and_residuals(self):
        rng = np.random.default_rng(18)
        h = random_hermitian(rng, 24)
        vals, vecs = hermitian_eigensystem(h)
        recon = (vecs * vals[np.newaxis, :]) @ vecs.conj().T
        assert np.linalg.norm(recon - h) < 1e-9 * np.linalg.norm(h)

    def test_eigensystem_rejects_a_bad_eigenpair(self, monkeypatch):
        real = linalg._jacobi

        def perturbed(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals, vecs + 1e-6

        monkeypatch.setattr(linalg, "_jacobi", perturbed)
        with pytest.raises(LinalgError, match="eigenpair residual"):
            hermitian_eigensystem(random_hermitian(np.random.default_rng(22), 8))

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=2, max_value=16),
        st.lists(
            st.tuples(st.sampled_from(["dense", "sparse", "diagonal"]), st.integers(min_value=-12, max_value=12)),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(16, [("dense", 0), ("diagonal", 6), ("sparse", -9)], 0)
    def test_stacked_matches_solo(self, dim, kinds, seed):
        # each matrix keeps its own norm and stop rule: a stack of a dense
        # matrix that needs several sweeps, a diagonal one that needs none and
        # norms 1e24 apart solves each one to the bits it gets alone
        rng = np.random.default_rng(seed)
        mats = []
        for kind, exponent in kinds:
            m = random_hermitian(rng, dim) * 10.0**exponent
            if kind == "sparse":
                keep = np.triu(rng.random((dim, dim)) < 0.3)
                m *= keep | keep.T
            elif kind == "diagonal":
                m = np.diag(np.diag(m))
            mats.append(m)
        parts = [linalg._entries(m)[1:] for m in mats]  # matrix g on indices g * dim ..
        rows = np.concatenate([r + g * dim for g, (r, _, _) in enumerate(parts)])
        cols = np.concatenate([c + g * dim for g, (_, c, _) in enumerate(parts)])
        vals = np.concatenate([v for _, _, v in parts])
        stacked, _ = linalg._jacobi(dim, rows, cols, vals, want_vectors=False, count=len(mats))
        assert stacked.shape == (len(mats), dim)
        for m, eigs in zip(mats, stacked):
            assert eigs.tobytes() == hermitian_eigenvalues(m).tobytes()

    def test_input_not_mutated(self):
        rng = np.random.default_rng(19)
        h = random_hermitian(rng, 6)
        kept = h.copy()
        hermitian_eigenvalues(h)
        assert np.array_equal(h, kept)

    def test_non_hermitian_rejected(self):
        with pytest.raises(LinalgError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def permuted_block_sum(rng, sizes):
    """A random Hermitian direct sum of blocks of the given sizes with its rows
    and columns permuted, and each block as the submatrix on its indices there."""
    dim = sum(sizes)
    m = np.zeros((dim, dim), dtype=complex)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    for b, d in enumerate(sizes):
        at = np.flatnonzero(owner == b)
        m[np.ix_(at, at)] = random_hermitian(rng, d)
    perm = rng.permutation(dim)
    m, owner = m[np.ix_(perm, perm)], owner[perm]
    blocks = [m[np.ix_(owner == b, owner == b)] for b in range(len(sizes))]
    return m, blocks


class TestEigensolverByComponent:
    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=8),
    )
    def test_block_sum_matches_lapack_and_its_blocks(self, seed, sizes):
        m, blocks = permuted_block_sum(np.random.default_rng(seed), sizes)
        vals = hermitian_eigenvalues(m)
        bound = TOL.eigen_offdiag * max(1.0, np.linalg.norm(m))
        assert np.abs(vals - np.linalg.eigvalsh(m)).max() <= bound
        one_at_a_time = np.sort(np.concatenate([hermitian_eigenvalues(b) for b in blocks]))
        assert np.array_equal(vals, one_at_a_time)

    def test_tridiagonal_is_one_component(self):
        dim = 33
        m = np.diag(np.arange(dim, dtype=complex)) + np.diag(np.full(dim - 1, 0.5 + 0.25j), 1)
        m = m + np.triu(m, 1).conj().T
        (ix,) = linalg._blocks(dim, *np.nonzero(m))
        assert ix.shape == (dim, 1) and np.array_equal(ix[:, 0], np.arange(dim))
        assert np.abs(hermitian_eigenvalues(m) - np.linalg.eigvalsh(m)).max() < 1e-10

    def test_entry_mirrored_by_zero_rejected(self):
        m = np.kron(np.eye(2), SIGMA_X).astype(complex)
        m[0, 3] = 1e-3  # m[3, 0] stays 0: the only asymmetry
        with pytest.raises(LinalgError, match="not Hermitian"):
            hermitian_eigenvalues(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(LinalgError, match="non-finite"):
            hermitian_eigenvalues(np.array([[1, bad], [bad, 1]]))
        with pytest.raises(LinalgError, match="non-finite"):
            hermitian_eigenvalues(np.array([[bad, 0], [0, 1]]))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3)])
    def test_empty_or_non_square_rejected(self, shape):
        with pytest.raises(LinalgError, match="nonempty square"):
            hermitian_eigenvalues(np.zeros(shape))

    def test_eigensystem_residuals_on_permuted_blocks(self):
        m, _ = permuted_block_sum(np.random.default_rng(21), (1, 2, 2, 3, 4, 4, 1, 5, 6))
        dim = len(m)
        vals, vecs = hermitian_eigensystem(m)
        assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() < 1e-12
        assert np.abs(vals - np.linalg.eigvalsh(m)).max() < 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_parallel_order_meets_every_pair_once_per_sweep(self, d):
        p, q, mate = linalg._rounds(d)
        assert (p < q).all() and q.max() < d
        met = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
        assert met == list(itertools.combinations(range(d), 2))
        for pr, qr, mr in zip(p, q, mate):
            assert len(set(pr) | set(qr)) == pr.size + qr.size  # no index twice in a round
            idle = np.setdiff1d(np.arange(d), np.r_[pr, qr])
            assert (mr[pr] == qr).all() and (mr[qr] == pr).all() and (mr[idle] == idle).all()

    def test_too_few_sweeps_raise(self, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(LinalgError, match="did not converge"):
            hermitian_eigenvalues(random_hermitian(np.random.default_rng(22), 16))


class TestBipartition:
    def test_validation(self):
        cut = Bipartition.of((2, 4), 4)
        assert cut.left == (2, 4) and cut.right == (1, 3)
        assert str(cut) == "2,4|1,3"
        with pytest.raises(LinalgError):
            Bipartition((1, 2), (2, 3))
        with pytest.raises(LinalgError):
            Bipartition.of((), 3)
        with pytest.raises(LinalgError):
            Bipartition.of((1, 2, 3), 3)


class TestDensityMatrix:
    def test_validate_catches_bad_trace(self):
        with pytest.raises(LinalgError):
            DensityMatrix(1, np.eye(2)).validate()

    def test_validate_catches_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(LinalgError):
            DensityMatrix(1, m).validate()

    @pytest.mark.parametrize("at", [[(0, 0)], [(0, 1), (1, 0)], [(3, 3)]], ids=["first", "mirrored", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validate_rejects_non_finite(self, at, bad):
        m = np.eye(4, dtype=complex) / 4
        for ix in at:
            m[ix] = bad
        dm = DensityMatrix(2, m)
        with pytest.raises(LinalgError, match="non-finite"):
            dm.validate()
        assert not dm.validated()

    @pytest.mark.parametrize("density", [1.0, 0.2])
    def test_hermiticity_deviation_matches_dense(self, density):
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 32)
        m[rng.random(m.shape) > density] = 0.0  # one-sided zeros: mirrors go missing
        m += 1e-3 * np.triu(rng.standard_normal(m.shape), 1) * (m != 0)
        dense = float(np.abs(m - m.conj().T).max())
        assert dense > 1e-4
        assert linalg._hermitian_deviation(*linalg._entries(m)).max() == dense
        with pytest.raises(LinalgError, match=re.escape(f"max deviation {dense:.3e}")):
            DensityMatrix(5, m).validate()

    def test_matrix_frozen(self):
        dm = DensityMatrix(1, np.eye(2) / 2)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 5.0

    def test_complex_array_adopted_float_converted(self):
        m = np.eye(2, dtype=complex) / 2
        dm = DensityMatrix(1, m)
        assert dm.matrix is m and not m.flags.writeable
        real = np.eye(2) / 2
        converted = DensityMatrix(1, real).matrix
        assert converted.dtype == complex and real.flags.writeable


class TestEntriesState:
    """A state built from its entries against the same state built dense."""

    @pytest.mark.parametrize("density", [1.0, 0.2, 0.02])
    def test_same_state_either_way(self, density):
        m = random_sparse_hermitian(np.random.default_rng(130), 5, density)
        rows, cols, vals = linalg._entries(m)[1:]
        dm = DensityMatrix(5, (rows, cols, vals))
        assert dm.entries()[0] is rows and not vals.flags.writeable  # adopted, frozen
        assert dm.matrix.tobytes() == m.tobytes() and not dm.matrix.flags.writeable
        assert dm.matrix is dm.matrix  # densified once, then kept
        dense = DensityMatrix(5, m.copy())
        assert dm.trace() == dense.trace() == float(np.trace(m).real)
        assert dm.eigenvalues().tobytes() == hermitian_eigenvalues(m).tobytes()

    def test_trace_has_the_bits_of_np_trace(self):
        rng = np.random.default_rng(131)
        for _ in range(200):
            dim = int(rng.integers(2, 600))
            m = np.zeros((dim, dim), dtype=complex)
            on = rng.choice(dim, size=int(rng.integers(1, dim)), replace=False)
            m[on, on] = rng.standard_normal(on.size) * 10.0 ** rng.integers(-6, 6, on.size)
            assert linalg.trace_entries(dim, *linalg._entries(m)[1:]) == np.trace(m)

    @pytest.mark.parametrize(
        "entries",
        [
            ([0, 1], [1, 0], [1.0, 0.0]),  # a stored zero
            ([1, 0], [0, 1], [1.0, 1.0]),  # not row-major
            ([0, 0], [1, 1], [1.0, 1.0]),  # a position twice
            ([0], [4], [1.0]),  # out of range
            ([0, 1], [0], [1.0, 1.0]),  # ragged
        ],
    )
    def test_malformed_entries_rejected(self, entries):
        with pytest.raises(LinalgError, match="row-major nonzeros"):
            DensityMatrix(2, tuple(np.array(a) for a in entries))

    def test_dense_view_refused_before_allocating(self, monkeypatch):
        monkeypatch.setenv("BCABE_MAX_N", "16")
        rho = construct.projector_direct(construct.RHO_PLUS, 16)
        rho.validate()
        tracemalloc.start()
        try:
            with pytest.raises(LinalgError, match="64 GiB, over the 1 GiB budget"):
                rho.matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_group_entries_is_group_qubits_of_the_dense_view(self, n):
        m = random_sparse_hermitian(np.random.default_rng(134 + n), n, 0.3)
        dm = DensityMatrix(n, linalg._entries(m)[1:])
        for k in (1, 2, n - 1):
            for front in itertools.permutations(range(1, n + 1), k):
                grouped = group_entries(dm, front)
                assert grouped.tobytes() == group_qubits(m, n, front).tobytes(), front
        assert "matrix" not in vars(dm)

    def test_group_entries_refused_over_budget(self, monkeypatch):
        monkeypatch.setenv("BCABE_MAX_N", "14")
        rho = construct.projector_direct(construct.RHO_PLUS, 14)
        with pytest.raises(LinalgError, match="4 GiB, over the 1 GiB budget"):
            group_entries(rho, (1, 2))

    def test_budget_admits_twelve_qubits(self):
        assert 16 * 4**12 <= linalg.DENSE_BUDGET < 16 * 4**14

    def test_add_entries_is_the_dense_sum_term_by_term(self):
        rng = np.random.default_rng(132)
        for density in (1.0, 0.3, 0.05):
            terms = [random_sparse_hermitian(rng, 4, density) for _ in range(4)]
            terms[1][terms[0] != 0] *= -1  # some cancellations
            dense = np.zeros((16, 16), dtype=complex)
            for t in terms:
                dense += t
            got = linalg.add_entries(16, [linalg._entries(t)[1:] for t in terms])
            want = linalg._entries(dense)[1:]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_norm_of_ignores_order_and_zeros(self):
        rng = np.random.default_rng(133)
        z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        padded = np.zeros(1000, dtype=complex)
        padded[rng.choice(1000, 300, replace=False)] = z
        assert linalg.norm_of(z) == linalg.norm_of(rng.permutation(z)) == linalg.norm_of(padded)
        assert linalg.norm_of(z) == pytest.approx(float(np.linalg.norm(z)), rel=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_split_index_is_group_qubits_layout(self, n):
        m = np.arange(4**n, dtype=complex).reshape(2**n, 2**n) + 1
        for front in itertools.permutations(range(1, n + 1), 2):
            grouped = group_qubits(m, n, front)
            rows, cols = np.divmod(np.arange(4**n), 2**n)
            (a, r), (b, s) = linalg.split_index(rows, n, front), linalg.split_index(cols, n, front)
            assert np.array_equal(grouped[a, r, b, s], m[rows, cols]), front


class TestDumpFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(20)
        dm = random_density_matrix(rng, 2)
        text = "".join(dump_matrix(dm.dim, *dm.entries()))
        lines = text.splitlines()
        assert lines[0] == "dim=4"
        assert len(lines) == 1 + 16
        back = read_dump(text)
        assert np.abs(back - dm.matrix).max() < 1e-16

    def test_negative_zero_normalized(self):
        m = np.array([[-0.0 + 0.0j]])
        assert "-0" not in "".join(dump_matrix(*linalg._entries(np.kron(m, np.eye(1)))))

    def test_17_digit_round_trip(self):
        val = 1 / 3 + 1e-16
        m = np.array([[val]], dtype=complex)
        assert read_dump("".join(dump_matrix(*linalg._entries(m))))[0, 0].real == val

    def test_matches_formatting_every_entry(self):
        m = random_sparse_hermitian(np.random.default_rng(21), 3, 0.3)
        m[0, 1], m[2, 2], m[3, 3], m[4, 5] = complex(-0.0, 2.5), complex(1.5, -0.0), complex(-0.0, -0.0), np.nan
        expect = "".join(f"{i} {j} {format_float(v.real)} {format_float(v.imag)}\n" for (i, j), v in np.ndenumerate(m))
        assert "".join(dump_matrix(*linalg._entries(m))) == "dim=8\n" + expect

    def test_one_chunk_per_row(self):
        chunks = list(dump_matrix(*linalg._entries(np.arange(9, dtype=complex).reshape(3, 3))))
        assert chunks[0] == "dim=3\n" and len(chunks) == 4
        assert chunks[2] == "1 0 3 0\n1 1 4 0\n1 2 5 0\n"


class TestQubitLayout:
    def test_only_linalg_builds_the_qubit_tensor(self):
        # the qubit-to-index-bit layout is decided in linalg alone; other
        # modules split indices through linalg.split_index, relabel through
        # linalg.relabel_entries and move index bits through linalg.swap_qubits
        offenders = [
            f"{path.name}:{i}"
            for path in sorted(Path(bcabe.__file__).parent.glob("*.py"))
            if path.name != "linalg.py"
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(r"\(2,\)\s*\*|(<<|>>)\s*\(n\s*-", line)
        ]
        assert offenders == []

    def test_group_qubits_c_ordered_for_every_pair(self):
        n = 4
        m = np.arange(4**n, dtype=complex).reshape(2**n, 2**n)
        for pair in itertools.permutations(range(1, n + 1), 2):
            grouped = group_qubits(m, n, pair)
            assert grouped.flags.c_contiguous, pair
            # the pair's bits lead, the rest follow in ascending order
            rest = [q for q in range(1, n + 1) if q not in pair]
            bit = lambda q: (np.arange(2**n) >> (n - q)) & 1
            a = 2 * bit(pair[0]) + bit(pair[1])
            r = sum(bit(q) << (len(rest) - 1 - i) for i, q in enumerate(rest))
            assert np.array_equal(grouped[a[:, None], r[:, None], a, r], m), pair

    def test_swap_qubits(self):
        assert swap_qubits(0b100, 3, 1, 3) == 0b001
        assert swap_qubits(0b110, 3, 1, 2) == 0b110
        assert swap_qubits(np.array([0b0100, 0b0001]), 4, 2, 4).tolist() == [0b0001, 0b0100]

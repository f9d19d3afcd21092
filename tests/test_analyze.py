import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcabe import analyze, linalg
from bcabe.analyze import (
    AnalyzeError,
    _completeness_error,
    _distance,
    _overlap,
    bell_diagonal_entangled,
    certificate_pairs,
    certify_pairs,
    certify_two_vs_rest_separable,
    check_family,
    check_permutation_invariance,
    classify_abe,
    gather_evidence,
    is_ppt,
    scan_all_cuts,
)
from bcabe.basis import BELL_LABELS, bell_projector
from bcabe.construct import (
    NoisyWeights,
    RHO_PLUS,
    STATE_CLASSES,
    StateClass,
    bell_diagonal,
    noisy_state,
    projector_direct,
)
from bcabe.linalg import (
    Bipartition,
    DensityMatrix,
    LinalgError,
    apply_qubit_permutation,
    frobenius_distance,
    tensor,
)
from conftest import random_density_matrix, random_hermitian, random_sparse_hermitian
from dense_oracle import group_qubits

MIXTURES = [NoisyWeights(0.7, 0.1, 0.1, 0.1), NoisyWeights(0.4, 0.2, 0.2, 0.2), NoisyWeights(0.553, 0.2, 0.147, 0.1)]


def paper_states(class_states, n):
    """The four class states and three mixtures at n qubits."""
    return [class_states[(cls, n)] for cls in STATE_CLASSES] + [noisy_state(w, n) for w in MIXTURES]


class TestIsPpt:
    def test_smolin_two_vs_two_is_ppt(self, class_states):
        rho = class_states[(RHO_PLUS, 4)]
        v = is_ppt(rho, Bipartition.of((1, 2), 4))
        assert v.ppt and v.negativity < 1e-12

    def test_smolin_one_vs_rest_is_npt(self, class_states, goldens):
        rho = class_states[(RHO_PLUS, 4)]
        v = is_ppt(rho, Bipartition.of((1,), 4))
        rec = goldens["per_n"]["4"]["by_cut_size"]["1"]
        assert not v.ppt
        assert v.min_eigenvalue == pytest.approx(rec["min_eigenvalue"], abs=1e-10)
        assert v.negativity == pytest.approx(rec["negativity"], abs=1e-10)

    def test_maximally_mixed_all_cuts_ppt(self):
        dm = DensityMatrix(4, np.eye(16) / 16)
        for v in scan_all_cuts(dm):
            assert v.ppt and v.negativity == 0.0

    def test_negativity_invariant_under_side_swap(self):
        rng = np.random.default_rng(21)
        dm = random_density_matrix(rng, 3)
        a = is_ppt(dm, Bipartition((1,), (2, 3)))
        b = is_ppt(dm, Bipartition((2, 3), (1,)))
        assert a.negativity == pytest.approx(b.negativity, abs=1e-10)
        assert a.min_eigenvalue == pytest.approx(b.min_eigenvalue, abs=1e-10)


class TestScanAllCuts:
    def test_smolin_profile(self, class_states):
        verdicts = scan_all_cuts(class_states[(RHO_PLUS, 4)])
        assert len(verdicts) == 7
        ones = [v for v in verdicts if len(v.cut.left) == 1 or len(v.cut.right) == 1]
        twos = [v for v in verdicts if min(len(v.cut.left), len(v.cut.right)) == 2]
        assert len(ones) == 4 and all(not v.ppt for v in ones)
        assert len(twos) == 3 and all(v.ppt for v in twos)

    def test_validates_once_per_scan(self, monkeypatch):
        calls = []
        real = DensityMatrix.validate
        monkeypatch.setattr(
            DensityMatrix, "validate", lambda self, *a, **k: calls.append(1) or real(self, *a, **k)
        )
        rho = noisy_state(NoisyWeights(0.7, 0.1, 0.1, 0.1), 4)
        assert len(scan_all_cuts(rho)) == 7
        assert len(calls) == 1
        is_ppt(rho, Bipartition.of((1,), 4))
        assert len(calls) == 1  # a validated state is not checked again
        bad = DensityMatrix(4, 2 * rho.matrix)
        with pytest.raises(LinalgError):
            is_ppt(bad, Bipartition.of((1,), 4))
        with pytest.raises(LinalgError):
            scan_all_cuts(bad)

    def test_six_qubit_all_two_vs_four_ppt(self, class_states):
        verdicts = scan_all_cuts(class_states[(RHO_PLUS, 6)])
        twos = [v for v in verdicts if min(len(v.cut.left), len(v.cut.right)) == 2]
        assert len(twos) == 15
        assert all(v.ppt for v in twos)

    def test_matches_goldens(self, class_states, goldens):
        for n in (4, 6):
            for cls in STATE_CLASSES:
                for v in scan_all_cuts(class_states[(cls, n)]):
                    size = min(len(v.cut.left), len(v.cut.right))
                    rec = goldens["per_n"][str(n)]["by_cut_size"][str(size)]
                    assert v.ppt == rec["ppt"]
                    assert v.min_eigenvalue == pytest.approx(
                        rec["min_eigenvalue"], abs=1e-10
                    )
                    assert v.negativity == pytest.approx(rec["negativity"], abs=1e-10)

    def test_deterministic_order(self, class_states):
        verdicts = scan_all_cuts(class_states[(RHO_PLUS, 4)])
        lefts = [v.cut.left for v in verdicts]
        assert lefts == sorted(lefts, key=lambda s: (len(s), s))

    def test_product_state_every_cut_ppt(self):
        rng = np.random.default_rng(22)
        parts = [random_density_matrix(rng, 1).matrix for _ in range(4)]
        dm = DensityMatrix(4, tensor(*parts))
        assert all(v.ppt for v in scan_all_cuts(dm))

    def test_cut_rule(self):
        for n in (4, 6, 8):
            cuts = [v.cut for v in scan_all_cuts(DensityMatrix(n, np.eye(2**n) / 2**n))]
            assert len(cuts) == 2 ** (n - 1) - 1
            assert len({frozenset((c.left, c.right)) for c in cuts}) == len(cuts)
            assert [c.left for c in cuts] == sorted((c.left for c in cuts), key=lambda s: (len(s), s))
        verdicts = scan_all_cuts(DensityMatrix(10, np.eye(1024) / 1024))
        assert [v.cut.left for v in verdicts] == [tuple(range(1, k + 1)) for k in range(1, 6)]
        assert all(v.ppt for v in verdicts)


class TestSeparabilityCertificate:
    def test_six_qubit_pair_12(self, class_states):
        cert = certify_two_vs_rest_separable(class_states[(RHO_PLUS, 6)], (1, 2))
        assert cert.ok
        for label in BELL_LABELS:
            assert cert.weights[label] == pytest.approx(0.25, abs=1e-12)
            inner = class_states[(RHO_PLUS ^ label, 4)]
            assert (
                frobenius_distance(cert.factors[label].matrix, inner.matrix) < 1e-10
            )

    def test_negative_conditional_state_not_psd(self):
        # rho = sum_b [Bell_b]_12 (x) tau_b / 4 with tau_phi+ of unit trace but a
        # negative eigenvalue: the four terms rebuild rho, yet the floor fails it
        tau = np.diag([1.5, -0.5, 0.0, 0.0])
        m = sum(tensor(bell_projector(lb), tau if k == 0 else np.eye(4) / 4) for k, lb in enumerate(BELL_LABELS))
        cert = certify_two_vs_rest_separable(DensityMatrix(4, m / 4), (1, 2))
        assert not cert.ok and "not PSD" in cert.reason
        assert cert.reconstruction_error < 1e-12

    def test_six_qubit_arbitrary_pair(self, class_states):
        cert = certify_two_vs_rest_separable(class_states[(RHO_PLUS, 6)], (3, 5))
        assert cert.ok
        for label in BELL_LABELS:
            assert cert.weights[label] == pytest.approx(0.25, abs=1e-12)

    def test_single_term_product(self):
        dm = DensityMatrix(4, tensor(bell_projector(BELL_LABELS[0]), np.eye(4) / 4))
        cert = certify_two_vs_rest_separable(dm, (1, 2))
        assert cert.ok
        assert cert.weights[BELL_LABELS[0]] == pytest.approx(1.0)
        for label in BELL_LABELS[1:]:
            assert cert.weights[label] == pytest.approx(0.0, abs=1e-14)

    def test_fails_on_state_without_bell_form(self):
        ghz = np.zeros((16, 16), dtype=complex)
        for i in (0, 15):
            for j in (0, 15):
                ghz[i, j] = 0.5
        cert = certify_two_vs_rest_separable(DensityMatrix(4, ghz), (1, 2))
        assert not cert.ok
        assert cert.reconstruction_error > 1e-3
        assert cert.reason is not None

    def test_noisy_states_certify_everywhere(self):
        w = NoisyWeights(0.4, 0.3, 0.2, 0.1)
        dm = noisy_state(w, 4)
        for pair in ((1, 2), (1, 3), (2, 4), (3, 4)):
            assert certify_two_vs_rest_separable(dm, pair).ok


def _certificate_bits(cert) -> tuple:
    """Everything a certificate holds, as bytes where it holds numbers."""
    floats = lambda xs: np.array(list(xs), dtype=float).tobytes()
    factors = tuple(
        None if tau is None else tuple(a.tobytes() for a in tau.entries()) for tau in cert.factors.values()
    )
    return (cert.pair, cert.ok, cert.reason, floats([cert.reconstruction_error]),
            tuple(cert.weights), floats(cert.weights.values()), tuple(cert.factors), factors)


@st.composite
def certificate_inputs(draw):
    """A state at n = 4..6 and a list of pairs, in any order, to certify on it.

    The states are random density matrices, random unit-trace Hermitian
    matrices (not PSD), class states (n = 4, 6) with one entry and its mirror perturbed,
    and Bell projector (x) random state, whose pair (1, 2) has three
    zero-probability outcomes."""
    kind = draw(st.sampled_from(["psd", "hermitian", "perturbed", "dead-outcome"]))
    n = draw(st.sampled_from([4, 6]) if kind == "perturbed" else st.integers(min_value=4, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dim = 2**n
    if kind == "psd":
        m = random_density_matrix(rng, n).matrix
    elif kind == "hermitian":
        m = random_hermitian(rng, dim)
        m += (1.0 - np.trace(m).real) / dim * np.eye(dim)
    elif kind == "perturbed":
        m = projector_direct(draw(st.sampled_from(STATE_CLASSES)), n).matrix.copy()
        r, c = (int(x) for x in rng.integers(dim, size=2))
        delta = draw(st.sampled_from([1e-13, 1e-6, 0.1])) * (1.0 if r == c else np.exp(2j * np.pi * rng.random()))
        m[r, c] += delta
        if r != c:
            m[c, r] += np.conj(delta)
    else:
        label = draw(st.sampled_from(BELL_LABELS))
        m = tensor(bell_projector(label), random_density_matrix(rng, n - 2).matrix)
    qubit = st.integers(min_value=1, max_value=n)
    pairs = draw(st.lists(st.tuples(qubit, qubit).filter(lambda p: p[0] != p[1]), min_size=1, max_size=6))
    return DensityMatrix(n, m), ([(2, 1)] if kind == "dead-outcome" else []) + pairs


class TestCertifyPairs:
    @settings(deadline=None, max_examples=60)
    @given(certificate_inputs())
    def test_stacked_solve_matches_one_pair_at_a_time(self, arg):
        rho, pairs = arg
        stacked = certify_pairs(rho, pairs)
        assert [_certificate_bits(c) for c in stacked] == [
            _certificate_bits(certify_two_vs_rest_separable(rho, pair)) for pair in pairs
        ]

    def test_dead_outcomes_have_no_factor(self):
        rho = DensityMatrix(4, tensor(bell_projector(BELL_LABELS[1]), np.eye(4) / 4))
        (cert,) = certify_pairs(rho, [(1, 2)])
        assert cert.ok
        assert [tau is None for tau in cert.factors.values()] == [True, False, True, True]

    def test_bad_pair_raises(self, class_states):
        from bcabe.protocol import ProtocolError

        for pair in ((1, 1), (0, 2), (3, 7)):
            with pytest.raises(ProtocolError):
                certify_pairs(class_states[(RHO_PLUS, 6)], [(1, 2), pair])

    def test_certificate_stage_peaks_below_the_cut_scan(self, monkeypatch):
        # the pairs' factor states are solved as one stack, but each pair's Bell
        # measurement and residual are formed and dropped in turn; holding all
        # three pairs' residuals at once peaks at about 2.3 MiB
        monkeypatch.setenv("BCABE_MAX_N", "10")
        rho = projector_direct(RHO_PLUS, 10)
        pairs = certificate_pairs(10)
        stages = (lambda: scan_all_cuts(rho), lambda: certify_pairs(rho, pairs))
        peaks = []
        for stage in stages:
            stage()  # the state's entries and validation, and the sweep orders, are cached
            tracemalloc.start()
            try:
                stage()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0]


def _einsum_reconstruction_error(rho: DensityMatrix, cert) -> float:
    """The certificate's residual rebuilt densely: four outer products, then a
    difference, in the order the terms are added. Its norm is the correctly
    rounded sum of the squared parts, which no BLAS kernel or zero can move."""
    grouped = group_qubits(rho.matrix, rho.qubits, cert.pair)
    rest = 2 ** (rho.qubits - 2)
    rebuilt = np.zeros((4, rest, 4, rest), dtype=complex)
    for label, tau in cert.factors.items():
        if tau is not None:
            rebuilt += cert.weights[label] * np.einsum("ab,rs->arbs", bell_projector(label), tau.matrix)
    residual = (rebuilt - grouped).ravel()
    return math.sqrt(math.fsum(np.concatenate([residual.real, residual.imag]) ** 2))


class TestReconstructionErrorBits:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_states_every_pair(self, n):
        rho = random_density_matrix(np.random.default_rng(80 + n), n)
        for pair in itertools.combinations(range(1, n + 1), 2):
            cert = certify_two_vs_rest_separable(rho, pair)
            assert cert.reconstruction_error > 1e-3  # a random state has no Bell form
            assert cert.reconstruction_error == _einsum_reconstruction_error(rho, cert), pair

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_class_states_and_mixtures(self, class_states, n):
        for rho in paper_states(class_states, n):
            for pair in certificate_pairs(n):
                cert = certify_two_vs_rest_separable(rho, pair)
                assert cert.reconstruction_error == _einsum_reconstruction_error(rho, cert), pair


class TestFamilyChecksOnEntries:
    """The family checks against dense computations on inputs with no structure."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("density", [1.0, 0.1, 0.01])
    def test_completeness(self, n, density):
        rng = np.random.default_rng(180 + n)
        mats = [random_sparse_hermitian(rng, n, density) for _ in range(4)]
        mats[0][np.diag_indices(2**n)] = 2.0 ** -(n - 2)  # sums to exactly 1 where the others are 0
        dense = float(np.abs(sum(2 ** (n - 2) * m for m in mats) - np.eye(2**n)).max())
        assert _completeness_error([DensityMatrix(n, m) for m in mats]) == dense

    # a dense n = 8 product is 2**24 terms through the sparse join: slow, and no new case
    @pytest.mark.parametrize("n, density", [(n, d) for n in (2, 4, 6, 8) for d in (1.0, 0.1, 0.01) if (n, d) != (8, 1.0)])
    def test_orthogonality(self, n, density):
        rng = np.random.default_rng(190 + n)
        a, b = [random_sparse_hermitian(rng, n, density) for _ in range(2)]
        dense = float(np.abs(a @ b).max())
        assert _overlap(DensityMatrix(n, a), DensityMatrix(n, b)) == pytest.approx(dense, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("density", [1.0, 0.1, 0.01])
    def test_distance(self, n, density):
        rng = np.random.default_rng(200 + n)
        a, b = [random_sparse_hermitian(rng, n, density) for _ in range(2)]
        same = rng.random(a.shape) < 0.3
        same |= same.T
        b[same] = a[same]  # exact cancellations
        diff = (a - b).ravel()
        dense = math.sqrt(math.fsum(np.concatenate([diff.real, diff.imag]) ** 2))
        assert _distance(DensityMatrix(n, a), DensityMatrix(n, b)) == dense

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_paper_family_exact(self, n):
        states = [projector_direct(cls, n) for cls in STATE_CLASSES]
        assert _completeness_error(states) == 0.0
        assert all(_overlap(a, b) == 0.0 for a, b in itertools.combinations(states, 2))

    def test_verify_never_densifies(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_BUDGET", 0)  # any dense view raises
        states, checks = check_family(6)
        assert all(c.passed for c in checks)
        for rho in states.values():
            assert all(c.passed for c in gather_evidence(rho).checks("state"))
            assert "matrix" not in vars(rho)
        with pytest.raises(LinalgError, match="budget"):
            states[RHO_PLUS].matrix


def _dense_permutation_deviation(rho: DensityMatrix) -> float:
    n = rho.qubits
    worst = 0.0
    for j in range(2, n + 1):
        perm = list(range(1, n + 1))
        perm[0], perm[j - 1] = j, 1
        worst = max(worst, frobenius_distance(apply_qubit_permutation(rho, perm).matrix, rho.matrix))
    return worst


class TestPermutationInvariance:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("density", [1.0, 0.3, 0.05])
    def test_matches_dense_relabelling(self, n, density):
        # sparse patterns leave entries whose relabelled place holds no entry
        rng = np.random.default_rng(90 + n)
        m = random_hermitian(rng, 2**n)
        keep = rng.random(m.shape) < density
        m[~(keep | keep.T)] = 0.0
        m[1, 1] += 1.0  # |0..01><0..01| is moved by the transposition (1 n)
        dense = _dense_permutation_deviation(DensityMatrix(n, m))
        ok, dev = check_permutation_invariance(DensityMatrix(n, m))
        assert dense > 1e-3 and not ok
        assert dev == pytest.approx(dense, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_exactly_zero_on_paper_states(self, class_states, n):
        for rho in paper_states(class_states, n):
            assert check_permutation_invariance(rho) == (True, 0.0)

    def test_class_states_invariant(self, class_states):
        for n in (4, 6):
            for cls in STATE_CLASSES:
                ok, dev = check_permutation_invariance(class_states[(cls, n)])
                assert ok and dev < 1e-12

    def test_noisy_mixture_invariant(self):
        dm = noisy_state(NoisyWeights(0.4, 0.3, 0.2, 0.1), 4)
        ok, _ = check_permutation_invariance(dm)
        assert ok

    def test_asymmetric_state_detected(self):
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1.0
        dm = DensityMatrix(4, tensor(bell_projector(BELL_LABELS[0]), ket00))
        ok, dev = check_permutation_invariance(dm)
        assert not ok and dev > 0.1

    @pytest.mark.parametrize("n", [4, 6])
    def test_single_excitation_detected_on_every_qubit(self, n):
        for k in range(2, n + 1):
            m = np.zeros((2**n, 2**n), dtype=complex)
            m[2 ** (n - k), 2 ** (n - k)] = 1.0  # |0..1..0><0..1..0|, the 1 on qubit k
            ok, dev = check_permutation_invariance(DensityMatrix(n, m))
            assert not ok and dev > 0.1, k


def _pair_state(rng: np.random.Generator, n: int) -> DensityMatrix:
    """A random state that is not permutation invariant, in small blocks: a few
    superpositions of two random basis states over a diagonal floor, so some
    cuts read NPT and some PPT, and every spectrum is cheap."""
    dim = 2**n
    m = np.diag(4 * rng.random(dim)).astype(complex)
    for _ in range(n):
        v = np.zeros(dim, dtype=complex)
        v[rng.choice(dim, 2, replace=False)] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        m += np.outer(v, v.conj())
    return DensityMatrix(n, m / np.trace(m).real)


def _four_term_state(rng: np.random.Generator, n: int) -> DensityMatrix:
    """sum_b p_b [Bell_b]_(1,2) (x) tau_b with tau_b drawn as above: separable
    across (1, 2) | rest, with a certificate, and not permutation invariant."""
    p = rng.dirichlet(np.ones(4))
    terms = (w * tensor(bell_projector(b), _pair_state(rng, n - 2).matrix) for w, b in zip(p, BELL_LABELS))
    return DensityMatrix(n, sum(terms))


class TestRelabellingQubits:
    """Relabelling the qubits by a permutation pi, and every cut and pair with
    them, commutes with the cut scan and with the pair certificates."""

    @staticmethod
    def _draws(n: int, makers):
        rng = np.random.default_rng(70 + n)
        for make in makers:
            rho = make(rng, n)
            assert not check_permutation_invariance(rho)[0]
            perm = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
            yield rho, perm, apply_qubit_permutation(rho, perm)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cut_scan_commutes_with_relabelling(self, n):
        seen = set()
        for rho, perm, moved in self._draws(n, [_pair_state] * 3):
            for v in scan_all_cuts(rho):
                again = is_ppt(moved, Bipartition.of([perm[q - 1] for q in v.cut.left], n))
                assert again.ppt == v.ppt, (perm, v.cut)
                assert abs(again.min_eigenvalue - v.min_eigenvalue) < 1e-12
                seen.add(v.ppt)
        assert seen == {True, False}  # the draws hold PPT and NPT cuts alike

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_certificates_commute_with_relabelling(self, n):
        seen = set()
        for rho, perm, moved in self._draws(n, [_pair_state, _pair_state, _four_term_state]):
            for i, j in itertools.combinations(range(1, n + 1), 2):
                cert = certify_two_vs_rest_separable(rho, (i, j))
                again = certify_two_vs_rest_separable(moved, (perm[i - 1], perm[j - 1]))
                assert again.ok == cert.ok
                assert abs(again.reconstruction_error - cert.reconstruction_error) < 1e-12
                for label in BELL_LABELS:  # a Bell projector is symmetric in its two qubits
                    assert abs(again.weights[label] - cert.weights[label]) < 1e-12
                seen.add(cert.ok)
        assert seen == {True, False}  # the four-term state certifies on (1, 2), the others on no pair


class TestBellDiagonalEntangled:
    def test_point_six(self):
        v = bell_diagonal_entangled(NoisyWeights(0.6, 0.4, 0.0, 0.0))
        assert v.entangled and v.w_max == 0.6
        assert v.min_pt_eigenvalue == pytest.approx(-0.1, abs=1e-10)

    def test_boundary_not_entangled(self):
        v = bell_diagonal_entangled(NoisyWeights(0.5, 0.5, 0.0, 0.0))
        assert not v.entangled
        assert v.min_pt_eigenvalue == pytest.approx(0.0, abs=1e-10)

    def test_cross_family_two_term(self):
        v = bell_diagonal_entangled(NoisyWeights(0.7, 0.0, 0.3, 0.0))
        assert v.entangled and v.w_max == 0.7

    def test_verdicts_of_all_four_forms(self):
        w = NoisyWeights(0.7, 0.0, 0.3, 0.0)
        v = bell_diagonal_entangled(w)
        assert len(v.ppt_verdicts) == 4
        for verdict, label in zip(v.ppt_verdicts, BELL_LABELS):
            again = is_ppt(bell_diagonal(w, label), Bipartition.of((1,), 2))
            assert verdict == again
        assert v.min_pt_eigenvalue == v.ppt_verdicts[0].min_eigenvalue

    def test_rule_agrees_with_ppt_on_simplex_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            w = NoisyWeights(*rng.dirichlet(np.ones(4)).tolist())
            v = bell_diagonal_entangled(w)  # raises internally on disagreement
            assert v.entangled == (w.w_max > 0.5)


class TestClassifyAbe:
    def test_smolin_is_activable(self, class_states):
        report = classify_abe(class_states[(RHO_PLUS, 4)])
        assert report.activable
        assert report.permutation_invariant
        assert report.two_vs_rest_separable_certified
        assert report.has_npt_cut
        assert report.activation.min_fidelity > 1 - 1e-10

    def test_noisy_below_threshold_not_activable(self):
        dm = noisy_state(NoisyWeights(0.4, 0.2, 0.2, 0.2), 6)
        report = classify_abe(dm)
        assert not report.activation.all_branches_entangled
        assert not report.activable
        # still separable across pair cuts and permutation invariant
        assert report.two_vs_rest_separable_certified
        assert report.permutation_invariant

    def test_noisy_above_threshold_activable(self):
        dm = noisy_state(NoisyWeights(0.7, 0.1, 0.1, 0.1), 4)
        report = classify_abe(dm)
        assert report.activation.all_branches_entangled
        assert report.activable

    def test_maximally_mixed_not_activable(self):
        report = classify_abe(DensityMatrix(4, np.eye(16) / 16))
        assert not report.has_npt_cut
        assert not report.activable

    @pytest.mark.parametrize("fault", ["permutation_invariant", "certified", "branches_entangled"])
    def test_one_failed_conjunct_is_not_activable(self, fault, class_states, monkeypatch):
        if fault == "permutation_invariant":
            monkeypatch.setattr(analyze, "check_permutation_invariance", lambda rho: (False, 1.0))
        elif fault == "certified":  # the last pair's certificate fails
            real_certify = analyze.certify_pairs
            def certify(rho, pairs):
                *good, last = real_certify(rho, pairs)
                return [*good, dataclasses.replace(last, ok=False)]
            monkeypatch.setattr(analyze, "certify_pairs", certify)
        else:  # the first of the four distinct branch states reads PPT, the other three NPT
            real_verdicts = analyze._cut_verdicts
            def cut_verdicts(states, cuts, ppt):
                verdicts = real_verdicts(states, cuts, ppt)
                if list(cuts) != [analyze._PAIR_CUT]:
                    return verdicts
                assert len(verdicts) == 4
                return [dataclasses.replace(v, ppt=k == 0) for k, v in enumerate(verdicts)]
            monkeypatch.setattr(analyze, "_cut_verdicts", cut_verdicts)
        report = classify_abe(class_states[(RHO_PLUS, 4)])
        conjuncts = {
            "npt_cut": report.has_npt_cut,
            "two_vs_rest_ppt": report.two_vs_rest_ppt,
            "permutation_invariant": report.permutation_invariant,
            "certified": report.two_vs_rest_separable_certified,
            "branches_entangled": report.activation.all_branches_entangled,
        }
        assert [name for name, holds in conjuncts.items() if not holds] == [fault]
        assert not report.activable

    def test_certificate_on_a_pair_cut_reported_npt_raises(self, class_states, monkeypatch):
        real_scan = analyze.scan_all_cuts
        def scan(rho, ppt):
            return [dataclasses.replace(v, ppt=False) if v.cut.left == (1, 2) else v for v in real_scan(rho, ppt)]
        monkeypatch.setattr(analyze, "scan_all_cuts", scan)
        with pytest.raises(AnalyzeError, match=r"certificate for pair \(1, 2\) contradicts NPT verdict"):
            gather_evidence(class_states[(RHO_PLUS, 4)])

    def test_timings_recorded(self, class_states):
        report = classify_abe(class_states[(RHO_PLUS, 4)])
        assert set(report.timings) == {
            "cut_scan",
            "permutation",
            "certificates",
            "activation",
        }


def test_ten_qubits_behind_env_flag(monkeypatch):
    from bcabe import protocol
    from bcabe.construct import projector_recursive

    monkeypatch.setenv("BCABE_MAX_N", "10")
    dm = projector_recursive(RHO_PLUS, 10)
    assert abs(dm.trace() - 1.0) < 1e-12
    verdicts = scan_all_cuts(dm)
    for v in verdicts:
        size = len(v.cut.left)
        if size % 2:  # odd cuts are NPT with the same negativity as smaller sizes
            assert not v.ppt and v.negativity == pytest.approx(0.5, abs=1e-9)
        else:
            assert v.ppt and v.negativity < 1e-10
    unlock = protocol.unlock_sequential(dm, (1, 2))
    assert len(unlock.branches) == 256
    assert unlock.min_fidelity > 1 - 1e-10
    assert unlock.xor_rule_holds

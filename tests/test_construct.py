import numpy as np
import pytest

from bcabe.basis import BELL_LABELS, BellLabel, bell_projector
from bcabe.construct import (
    ConstructError,
    NoisyWeights,
    RHO_MINUS,
    RHO_PLUS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    STATE_CLASSES,
    StateClass,
    bell_diagonal,
    noisy_state,
    pauli_relate,
    projector_direct,
    projector_recursive,
    recursive_family,
)
from bcabe import construct, linalg
from bcabe.linalg import PAULIS, DensityMatrix, frobenius_distance, tensor
from dense_oracle import enumerate_p_strings, enumerate_q_strings, ghz_state, group_qubits, partial_trace


class TestStateClass:
    def test_parse_and_descriptor(self):
        for text, cls in [
            ("rho+", RHO_PLUS),
            ("rho-", RHO_MINUS),
            ("sigma+", SIGMA_PLUS),
            ("SIGMA-", SIGMA_MINUS),
        ]:
            assert StateClass.parse(text) == cls
        with pytest.raises(ConstructError):
            StateClass.parse("tau+")

    def test_xor_action_matches_pauli_table(self):
        # z flips the sign, x swaps the family, y does both
        assert RHO_PLUS ^ BellLabel(0, 1) == RHO_MINUS
        assert RHO_PLUS ^ BellLabel(1, 0) == SIGMA_PLUS
        assert RHO_PLUS ^ BellLabel(1, 1) == SIGMA_MINUS


class TestProjectorDirect:
    def test_smolin_spot_entries(self):
        rho = projector_direct(RHO_PLUS, 4)
        assert rho.matrix[0, 0] == pytest.approx(0.125)
        assert rho.matrix[0, 15] == pytest.approx(0.125)

    def test_base_case_is_bell_projector(self):
        for cls in STATE_CLASSES:
            dm = projector_direct(cls, 2)
            assert np.abs(dm.matrix - bell_projector(cls.label)).max() < 1e-15

    def test_rank_and_idempotence_up_to_scale(self):
        for n in (4, 6):
            for cls in STATE_CLASSES:
                dm = projector_direct(cls, n)
                proj = dm.matrix * 2 ** (n - 2)
                assert np.abs(proj @ proj - proj).max() < 1e-12
                assert np.trace(proj).real == pytest.approx(2 ** (n - 2))

    def test_sigma4_minus_diagonal_on_odd_parity_strings(self):
        dm = projector_direct(SIGMA_MINUS, 4)
        diag = np.diag(dm.matrix).real
        for idx in range(16):
            parity = bin(idx).count("1") % 2
            if parity == 1:
                assert diag[idx] == pytest.approx(1 / 8)
            else:
                assert diag[idx] == 0.0

    def test_smolin_pair_marginal_maximally_mixed(self):
        rho = projector_direct(RHO_PLUS, 4)
        red = partial_trace(rho, {1, 2})
        assert np.abs(red.matrix - np.eye(4) / 4).max() < 1e-14

    def test_odd_n_rejected(self):
        with pytest.raises(ConstructError):
            projector_direct(RHO_PLUS, 5)


class TestPauliRelate:
    def test_z_maps_rho_plus_to_rho_minus(self):
        base = projector_direct(RHO_PLUS, 4)
        related = pauli_relate(base, RHO_MINUS)
        target = projector_direct(RHO_MINUS, 4)
        assert frobenius_distance(related.matrix, target.matrix) < 1e-12

    def test_involution(self):
        base = projector_direct(RHO_PLUS, 4)
        twice = pauli_relate(pauli_relate(base, SIGMA_PLUS), SIGMA_PLUS)
        assert frobenius_distance(twice.matrix, base.matrix) < 1e-12

    def test_x_maps_rho6_plus_to_sigma6_plus(self):
        base = projector_direct(RHO_PLUS, 6)
        related = pauli_relate(base, SIGMA_PLUS)
        target = projector_direct(SIGMA_PLUS, 6)
        assert frobenius_distance(related.matrix, target.matrix) < 1e-12

    def test_identity_target_returns_base(self):
        base = projector_direct(RHO_PLUS, 4)
        assert pauli_relate(base, RHO_PLUS) is base


class TestRecursion:
    def test_smolin_form(self):
        rec = projector_recursive(RHO_PLUS, 4)
        smolin = sum(
            tensor(bell_projector(b), bell_projector(b)) for b in BELL_LABELS
        ) / 4
        assert np.abs(rec.matrix - smolin).max() < 1e-14

    def test_rho4_minus_is_cross_correlated_bell_form(self):
        # the sign-flipped four-qubit state pairs each Bell label with its
        # phase-flipped partner
        rec = projector_recursive(RHO_MINUS, 4)
        phi_p, phi_m, psi_p, psi_m = (bell_projector(b) for b in BELL_LABELS)
        cross = (
            tensor(phi_p, phi_m) + tensor(phi_m, phi_p)
            + tensor(psi_p, psi_m) + tensor(psi_m, psi_p)
        ) / 4
        assert np.abs(rec.matrix - cross).max() < 1e-14

    def test_six_qubit_bell_correlated_form(self):
        rec = projector_recursive(RHO_PLUS, 6)
        explicit = (
            tensor(bell_projector(BELL_LABELS[0]), projector_direct(RHO_PLUS, 4).matrix)
            + tensor(bell_projector(BELL_LABELS[1]), projector_direct(RHO_MINUS, 4).matrix)
            + tensor(bell_projector(BELL_LABELS[2]), projector_direct(SIGMA_PLUS, 4).matrix)
            + tensor(bell_projector(BELL_LABELS[3]), projector_direct(SIGMA_MINUS, 4).matrix)
        ) / 4
        assert frobenius_distance(rec.matrix, explicit) < 1e-13

    @pytest.mark.parametrize("n", [4, 6])
    def test_direct_equals_recursive(self, n):
        for cls in STATE_CLASSES:
            d = projector_direct(cls, n)
            r = projector_recursive(cls, n)
            assert frobenius_distance(d.matrix, r.matrix) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_bit_identical_to_tree_recursion(self, n):
        def tree(cls, n):
            if n == 2:
                return DensityMatrix(2, bell_projector(cls.label))
            m = np.zeros((2**n, 2**n), dtype=complex)
            for b in BELL_LABELS:
                m += tensor(bell_projector(b), tree(cls ^ b, n - 2).matrix)
            return DensityMatrix(n, m / 4.0)

        for cls in STATE_CLASSES:
            assert projector_recursive(cls, n).matrix.tobytes() == tree(cls, n).matrix.tobytes()

    def test_inner_class_is_outer_xor_label(self):
        # the only rule in the recursion: peeling Bell label b from class c
        # leaves class c ^ b on the remaining qubits; check all 16 pairs
        for cls in STATE_CLASSES:
            outer = projector_direct(cls, 6).matrix
            for b in BELL_LABELS:
                inner = projector_direct(cls ^ b, 4).matrix
                # project outer onto [b] on qubits (1,2): trace out the pair
                pb = tensor(bell_projector(b), np.eye(16))
                block = pb @ outer @ pb
                got = np.einsum("aibj,ab->ij", block.reshape(4, 16, 4, 16), np.eye(4))
                assert np.abs(got - inner / 4).max() < 1e-12


class TestCompleteness:
    @pytest.mark.parametrize("n", [4, 6])
    def test_projectors_sum_to_identity(self, n):
        total = sum(
            2 ** (n - 2) * projector_direct(cls, n).matrix for cls in STATE_CLASSES
        )
        assert np.abs(total - np.eye(2**n)).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 6])
    def test_mutual_orthogonality(self, n):
        mats = [projector_direct(cls, n).matrix for cls in STATE_CLASSES]
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                assert np.abs(a @ b).max() < 1e-12


class TestNoisyWeights:
    def test_validation(self):
        with pytest.raises(ConstructError):
            NoisyWeights(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(ConstructError):
            NoisyWeights(0.5, 0.4, 0.0, 0.0)
        w = NoisyWeights.parse("0.6,0.4,0,0")
        assert w.w_max == 0.6
        assert w.as_tuple() == (0.6, 0.4, 0.0, 0.0)

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ConstructError):
            NoisyWeights.parse("0.5,0.5")


class TestNoisyState:
    def test_degenerate_mixture(self):
        w = NoisyWeights(1.0, 0.0, 0.0, 0.0)
        assert (
            frobenius_distance(
                noisy_state(w, 4).matrix, projector_direct(RHO_PLUS, 4).matrix
            )
            == 0.0
        )

    def test_uniform_mixture_is_maximally_mixed(self):
        w = NoisyWeights(0.25, 0.25, 0.25, 0.25)
        assert np.abs(noisy_state(w, 4).matrix - np.eye(16) / 16).max() < 1e-14

    def test_six_qubit_expansion_term_by_term(self):
        x_plus, x_minus = 0.6, 0.4
        w = NoisyWeights(x_plus, x_minus, 0.0, 0.0)
        got = noisy_state(w, 6).matrix
        four = {cls: projector_direct(cls, 4).matrix for cls in STATE_CLASSES}
        phi_p, phi_m, psi_p, psi_m = (bell_projector(b) for b in BELL_LABELS)
        expansion = x_plus / 4 * (
            tensor(phi_p, four[RHO_PLUS])
            + tensor(phi_m, four[RHO_MINUS])
            + tensor(psi_p, four[SIGMA_PLUS])
            + tensor(psi_m, four[SIGMA_MINUS])
        ) + x_minus / 4 * (
            tensor(phi_p, four[RHO_MINUS])
            + tensor(phi_m, four[RHO_PLUS])
            + tensor(psi_p, four[SIGMA_MINUS])
            + tensor(psi_m, four[SIGMA_PLUS])
        )
        assert np.abs(got - expansion).max() < 1e-14


def _sign_bits(m):
    return np.signbit(m.real), np.signbit(m.imag)


class TestIndexRule:
    """The index-rule construction against the bit-string definition."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_projector_direct_matches_ghz_reference(self, n):
        for cls in STATE_CLASSES:
            strings = enumerate_p_strings(n) if cls.family == "rho" else enumerate_q_strings(n)
            ref = sum(np.outer(v, v.conj()) for v in (ghz_state(s, cls.sign) for s in strings)) / 2 ** (n - 2)
            got = projector_direct(cls, n).matrix
            assert np.array_equal(ref != 0, got != 0)
            assert np.array_equal(np.sign(ref.real), np.sign(got.real))
            assert np.abs(got - ref).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_noisy_state_is_the_weighted_class_sum_bitwise(self, n):
        rng = np.random.default_rng(n)
        draws = [
            (1.0, 0.0, 0.0, 0.0),
            (0.25, 0.25, 0.25, 0.25),
            (0.5, 0.5, 0.0, 0.0),
            (0.0, 0.5, 0.0, 0.5),
            (0.5, 0.5, 1e-310, 0.0),
            (0.0, 5e-324, 1.0, 0.0),
            (0.553, 0.2, 0.147, 0.1),
            (0.7, 0.1, 0.1, 0.1),
            (-0.0, -0.0, 0.5, 0.5),
            (0.5, -0.0, 0.5, 0.0),
        ]
        draws += [tuple(rng.dirichlet(np.ones(4)).tolist()) for _ in range(6)]
        draws += [tuple(rng.permutation([0.6, 0.4, 0.0, 0.0]).tolist()) for _ in range(3)]
        classes = {cls: projector_direct(cls, n).matrix for cls in STATE_CLASSES}
        for vals in draws:
            w = NoisyWeights(*vals)
            ref = sum(wc * classes[cls] for wc, cls in zip(w.as_tuple(), STATE_CLASSES))
            got = noisy_state(w, n).matrix
            assert np.array_equal(got, ref), vals
            for a, b in zip(_sign_bits(got), _sign_bits(ref)):
                assert np.array_equal(a, b), vals


def _same_entries(state: DensityMatrix, dense: np.ndarray) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in zip(state.entries(), linalg._entries(dense)[1:]))


def _dense_mixture(weights, n: int) -> np.ndarray:
    """The index rule written into a dense array."""
    idx = np.arange(2**n)
    parity = np.array([bin(i).count("1") % 2 for i in idx])  # at even n, the zero-count parity
    plus, minus = (np.reshape(weights, (2, 2)) + 0.0)[parity].T * 0.5 ** (n - 1)
    m = np.zeros((2**n, 2**n), dtype=complex)
    m[idx, idx] = plus + minus
    m[idx, idx[::-1]] = plus - minus
    return m


def _dense_recursion(cls, n: int) -> np.ndarray:
    if n == 2:
        return bell_projector(cls.label)
    m = np.zeros((2**n, 2**n), dtype=complex)
    for b in BELL_LABELS:
        m += np.kron(bell_projector(b), _dense_recursion(cls ^ b, n - 2))
    m /= 4.0
    return m


def _dense_pauli_conjugation(base: np.ndarray, n: int, pauli: np.ndarray) -> np.ndarray:
    grouped = group_qubits(base, n, range(1, n))
    return np.einsum("ca,rasb,db->rcsd", pauli, grouped, pauli.conj()).reshape(2**n, 2**n)


class TestEntriesMatchDenseOracles:
    """Each construction route writes exactly the entries its dense oracle holds."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_mixture(self, n):
        rng = np.random.default_rng(140 + n)
        draws = [tuple(float(c == cls) for c in STATE_CLASSES) for cls in STATE_CLASSES]
        draws += [(0.5, 0.5, 0.0, 0.0), (-0.0, 0.5, 0.0, 0.5), (0.5, 0.5, 1e-310, 0.0)]
        draws += [tuple(rng.dirichlet(np.ones(4)).tolist()) for _ in range(4)]
        for w in draws:
            assert _same_entries(construct._mixture(w, n), _dense_mixture(w, n)), w

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_recursion(self, n):
        for cls in STATE_CLASSES:
            assert _same_entries(projector_recursive(cls, n), _dense_recursion(cls, n)), cls

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_recursive_family(self, n, monkeypatch):
        monkeypatch.setenv("BCABE_MAX_N", "10")
        family = recursive_family(n)
        assert list(family) == list(STATE_CLASSES)
        for cls, state in family.items():
            assert _same_entries(state, _dense_recursion(cls, n)), cls
            one = projector_recursive(cls, n).entries()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(state.entries(), one)), cls

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_pauli_conjugation_of_rho_plus(self, n):
        base = projector_direct(RHO_PLUS, n)
        for cls in STATE_CLASSES[1:]:
            pauli = PAULIS[construct.PAULI_FOR_LABEL[cls.label]]
            assert _same_entries(pauli_relate(base, cls), _dense_pauli_conjugation(base.matrix, n, pauli)), cls

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_pauli_conjugation_of_random_operators(self, n, density):
        rng = np.random.default_rng(150 + n)
        m = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        m[rng.random(m.shape) > density] = 0.0
        for cls in STATE_CLASSES[1:]:
            pauli = PAULIS[construct.PAULI_FOR_LABEL[cls.label]]
            got = pauli_relate(DensityMatrix(n, m.copy()), cls)
            assert _same_entries(got, _dense_pauli_conjugation(m, n, pauli)), cls


class TestBellDiagonal:
    def test_pi_plus_degenerate(self):
        w = NoisyWeights(1.0, 0.0, 0.0, 0.0)
        dm = bell_diagonal(w, BELL_LABELS[0])
        assert np.abs(dm.matrix - bell_projector(BELL_LABELS[0])).max() < 1e-15

    def test_gamma_plus_degenerate(self):
        w = NoisyWeights(1.0, 0.0, 0.0, 0.0)
        dm = bell_diagonal(w, BELL_LABELS[2])
        assert np.abs(dm.matrix - bell_projector(BELL_LABELS[2])).max() < 1e-15

    def test_werner_line_reproduces_werner_state(self):
        for w_val in (0.3, 0.5, 0.8):
            rest = (1 - w_val) / 3
            dm = bell_diagonal(NoisyWeights(w_val, rest, rest, rest), BELL_LABELS[0])
            p = (4 * w_val - 1) / 3
            werner = p * bell_projector(BELL_LABELS[0]) + (1 - p) * np.eye(4) / 4
            assert np.abs(dm.matrix - werner).max() < 1e-14

    def test_same_bytes_as_the_family_and_sign_sum(self):
        # the form as (family, sign) wrote it: family pi puts x+ and x- on
        # [Phi+-] and gamma on [Psi+-], the sign picks which of them gets x+
        rng = np.random.default_rng(29)
        draws = [(1.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.5, 0.0), (0.0, 0.0, 0.25, 0.75)]
        draws += [tuple(rng.dirichlet(np.ones(4)).tolist()) for _ in range(300)]
        forms = [("pi", +1), ("pi", -1), ("gamma", +1), ("gamma", -1)]  # BELL_LABELS order
        for x1, x2, y1, y2 in draws:
            for (family, sign), label in zip(forms, BELL_LABELS):
                major, phase = int(family == "gamma"), int(sign < 0)
                old = DensityMatrix(2, (
                    x1 * bell_projector(BellLabel(major, phase))
                    + x2 * bell_projector(BellLabel(major, phase ^ 1))
                    + y1 * bell_projector(BellLabel(major ^ 1, phase))
                    + y2 * bell_projector(BellLabel(major ^ 1, phase ^ 1))
                ))
                new = bell_diagonal(NoisyWeights(x1, x2, y1, y2), label)
                assert [a.tobytes() for a in new.entries()] == [a.tobytes() for a in old.entries()]
                assert new.matrix.tobytes() == old.matrix.tobytes()

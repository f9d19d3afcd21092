import itertools
import math

import numpy as np
import pytest

from bcabe.basis import (
    BELL_LABELS,
    BasisError,
    BellLabel,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    bell_projector,
    bell_vector,
)
from dense_oracle import complement, enumerate_p_strings, enumerate_q_strings, ghz_state


class TestStringEnumeration:
    def test_n2(self):
        assert enumerate_p_strings(2) == ["00"]
        assert enumerate_q_strings(2) == ["01"]

    def test_n4(self):
        assert enumerate_p_strings(4) == ["0000", "0011", "0101", "0110"]
        assert enumerate_q_strings(4) == ["0001", "0010", "0100", "0111"]

    def test_n6_membership(self):
        p6 = enumerate_p_strings(6)
        q6 = enumerate_q_strings(6)
        assert len(p6) == 16 and len(q6) == 16
        assert "000000" in p6 and "000011" in p6
        # leading bit must be 0: 100011 shows up only as the complement of 011100
        assert "000001" in q6
        assert "011100" in q6
        assert "100011" not in q6
        assert complement("011100") == "100011"

    def test_n6_even_family_full_listing(self):
        # the sixteen defining strings of the six-qubit plus-family, in order
        assert enumerate_p_strings(6) == [
            "000000", "000011", "000101", "000110",
            "001001", "001010", "001100", "001111",
            "010001", "010010", "010100", "010111",
            "011000", "011011", "011101", "011110",
        ]

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_partition_of_all_strings(self, n):
        p = enumerate_p_strings(n)
        q = enumerate_q_strings(n)
        pbar = [complement(s) for s in p]
        qbar = [complement(s) for s in q]
        groups = [set(p), set(pbar), set(q), set(qbar)]
        assert all(len(g) == 2 ** (n - 2) for g in groups)
        union = set().union(*groups)
        assert len(union) == 2**n  # pairwise disjoint and exhaustive

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_sorted_lexicographically(self, n):
        for fam in (enumerate_p_strings(n), enumerate_q_strings(n)):
            assert fam == sorted(fam)

    def test_odd_or_small_rejected(self):
        for bad in (0, 1, 3, 5):
            with pytest.raises(BasisError):
                enumerate_p_strings(bad)
            with pytest.raises(BasisError):
                enumerate_q_strings(bad)


class TestGhzStates:
    def test_n2_reduction_is_bell(self):
        assert ghz_state("00", +1).tobytes() == bell_vector(PHI_PLUS).tobytes()

    def test_ghz_0000_minus(self):
        v = ghz_state("0000", -1)
        expect = np.zeros(16, dtype=complex)
        expect[0] = 1 / math.sqrt(2)
        expect[15] = -1 / math.sqrt(2)
        assert np.allclose(v, expect)

    def test_sign_orthogonality(self):
        for s in ("01", "0010", "110101"):
            plus = ghz_state(s, +1)
            minus = ghz_state(s, -1)
            assert abs(np.vdot(plus, minus)) < 1e-15

    def test_amplitude_positions(self):
        st = ghz_state("0110", +1)
        assert np.flatnonzero(st).tolist() == [0b0110, 0b1001]

    def test_bad_inputs(self):
        with pytest.raises(BasisError):
            ghz_state("01", 2)
        with pytest.raises(BasisError):
            ghz_state("0a", 1)


@pytest.mark.parametrize("n", [4, 6])
def test_ghz_families_form_orthonormal_basis(n):
    vectors = []
    for strings, sign in itertools.product(
        (enumerate_p_strings(n), enumerate_q_strings(n)), (+1, -1)
    ):
        vectors.extend(ghz_state(s, sign) for s in strings)
    assert len(vectors) == 2**n
    m = np.array(vectors)
    gram = m.conj() @ m.T
    assert np.abs(gram - np.eye(2**n)).max() < 1e-12


class TestBellStates:
    def test_phi_plus(self):
        assert np.allclose(bell_vector(PHI_PLUS), np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_psi_minus(self):
        assert np.allclose(bell_vector(PSI_MINUS), np.array([0, 1, -1, 0]) / math.sqrt(2))

    def test_projectors_resolve_identity(self):
        total = sum(bell_projector(b) for b in BELL_LABELS)
        assert np.abs(total - np.eye(4)).max() < 1e-15

    def test_product_to_bell_identity(self):
        # |00> = (|Phi+> + |Phi->)/sqrt(2) and companions
        sqrt_half = 1 / math.sqrt(2)
        e = np.eye(4)
        assert np.allclose(e[0], sqrt_half * (bell_vector(PHI_PLUS) + bell_vector(PHI_MINUS)), atol=1e-15)
        assert np.allclose(e[3], sqrt_half * (bell_vector(PHI_PLUS) - bell_vector(PHI_MINUS)), atol=1e-15)
        assert np.allclose(e[1], sqrt_half * (bell_vector(PSI_PLUS) + bell_vector(PSI_MINUS)), atol=1e-15)
        assert np.allclose(e[2], sqrt_half * (bell_vector(PSI_PLUS) - bell_vector(PSI_MINUS)), atol=1e-15)


class TestBellLabel:
    def test_group_structure(self):
        identity = BellLabel(0, 0)
        for a in BELL_LABELS:
            assert a ^ identity == a
            assert a ^ a == identity
            for b in BELL_LABELS:
                assert a ^ b == b ^ a

    def test_canonical_order(self):
        assert [b.symbol for b in BELL_LABELS] == ["phi+", "phi-", "psi+", "psi-"]

    def test_bad_bits(self):
        with pytest.raises(BasisError):
            BellLabel(2, 0)


class TestIndexRulePinned:
    """Literal bytes, so a -0.0 imaginary part or a last-bit change fails."""

    def test_bell_vectors_and_projectors(self):
        h = 1 / math.sqrt(2)
        q = h * h
        literals = {
            PHI_PLUS: ([h, 0, 0, h], [[q, 0, 0, q], [0, 0, 0, 0], [0, 0, 0, 0], [q, 0, 0, q]]),
            PHI_MINUS: ([h, 0, 0, -h], [[q, 0, 0, -q], [0, 0, 0, 0], [0, 0, 0, 0], [-q, 0, 0, q]]),
            PSI_PLUS: ([0, h, h, 0], [[0, 0, 0, 0], [0, q, q, 0], [0, q, q, 0], [0, 0, 0, 0]]),
            PSI_MINUS: ([0, h, -h, 0], [[0, 0, 0, 0], [0, q, -q, 0], [0, -q, q, 0], [0, 0, 0, 0]]),
        }
        for label, (vec, proj) in literals.items():
            assert bell_vector(label).tobytes() == np.array(vec, dtype=complex).tobytes()
            assert bell_projector(label).tobytes() == np.array(proj, dtype=complex).tobytes()

    def test_ghz_0110(self):
        for sign in (+1, -1):
            expect = np.zeros(16, dtype=complex)
            expect.real[0b0110] = 1 / math.sqrt(2)
            expect.real[0b1001] = sign / math.sqrt(2)
            assert ghz_state("0110", sign).tobytes() == expect.tobytes()

    def test_fresh_arrays(self):
        for make in (bell_vector, bell_projector):
            make(PSI_MINUS)[...] = 7
            assert not (make(PSI_MINUS) == 7).any()

import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcabe.basis import BELL_LABELS, PHI_MINUS, PHI_PLUS, PSI_MINUS, bell_projector
from bcabe.config import TOL
from bcabe.construct import (
    NoisyWeights,
    RHO_PLUS,
    SIGMA_MINUS,
    STATE_CLASSES,
    bell_diagonal,
    noisy_state,
    projector_direct,
)
from bcabe.basis import bell_vector
from bcabe.linalg import (
    DensityMatrix,
    apply_qubit_permutation,
    frobenius_distance,
    hermitian_eigenvalues,
    tensor,
    trace_entries,
)
from bcabe.protocol import (
    ProtocolError,
    _conditional_entries,
    _normalized,
    bell_fidelity,
    bell_measure,
    best_bell,
    default_pairing,
    discriminate_subspace,
    unlock_sequential,
)
from conftest import random_density_matrix
from dense_oracle import (
    class_projector_unnormalized,
    conditional_operators,
    discriminate_operators,
    group_qubits,
    partial_trace,
    unlock_leaves,
)


class TestBellFidelity:
    def test_pure_bell_state(self):
        dm = DensityMatrix(2, bell_projector(PSI_MINUS))
        label, fid = bell_fidelity(dm)
        assert label == PSI_MINUS and fid == pytest.approx(1.0)

    def test_maximally_mixed_tie_break(self):
        label, fid = bell_fidelity(DensityMatrix(2, np.eye(4) / 4))
        assert label == PHI_PLUS and fid == pytest.approx(0.25)

    def test_bell_diagonal_mixture(self):
        dm = bell_diagonal(NoisyWeights(0.6, 0.4, 0.0, 0.0), PHI_PLUS)
        label, fid = bell_fidelity(dm)
        assert label == PHI_PLUS and fid == pytest.approx(0.6)

    def test_wrong_dimension(self):
        with pytest.raises(ProtocolError):
            bell_fidelity(DensityMatrix(3, np.eye(8) / 8))


def _branch_per_block(block):
    """A branch's probability, normalized state, best label index and fidelity
    the way unlock once found them, one block at a time: trace_entries on the
    block's nonzeros, then v.conj() @ rho @ v per label, first best kept
    unless a later one beats it by more than 1e-15."""
    rows, cols = np.nonzero(block)
    vals = block[rows, cols]
    p = float(trace_entries(4, rows, cols, vals).real)
    if not p > TOL.zero_probability:
        return p, None, None, None
    state = DensityMatrix(2, (rows, cols, vals / p)).matrix
    best_at, best = 0, -1.0
    for k, label in enumerate(BELL_LABELS):
        v = bell_vector(label)
        f = float(np.real(v.conj() @ state @ v))
        if f > best + 1e-15:
            best_at, best = k, f
    return p, state, best_at, best


def _branch_block(kind, rng):
    """A 4 x 4 Hermitian block of one kind, scaled by a power of ten."""
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    if kind == "psd":
        h = h @ h
    elif kind == "zero-trace":
        h -= np.eye(4) * (np.trace(h).real / 4)
    elif kind == "negative-trace":
        h = -(h @ h)
    elif kind == "tie":  # two Bell weights equal, or 5e-16 apart
        w = rng.permutation([0.3, 0.3 + rng.choice([0.0, 5e-16, -5e-16]), 0.25, 0.15])
        h = sum(wk * bell_projector(label) for wk, label in zip(w, BELL_LABELS))
    elif kind == "mixed":  # I/4: four exact ties
        h = np.eye(4, dtype=complex) / 4
    elif kind == "zero":
        return np.zeros((4, 4), dtype=complex)
    elif kind == "threshold":  # trace exactly at the dead-branch threshold
        return np.diag([TOL.zero_probability, 0, 0, 0]).astype(complex)
    return h * 10.0 ** rng.integers(-12, 13)


class TestBranchStack:
    """unlock's branches as one (count, 4, 4) stack: every probability,
    normalized state, best label and fidelity has the bits the per-block
    route gives."""

    KINDS = ["hermitian", "psd", "zero-trace", "negative-trace", "tie", "mixed", "zero", "threshold"]

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=16),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(KINDS * 2, 0)
    def test_stacked_branches_match_per_block(self, kinds, seed):
        rng = np.random.default_rng(seed)
        blocks = np.array([_branch_block(kind, rng) for kind in kinds])
        probs, live, states = _normalized(blocks)
        at, fids = best_bell(states)
        want = [_branch_per_block(block) for block in blocks]
        assert probs.tobytes() == np.array([p for p, *_ in want]).tobytes()
        assert live.tolist() == [state is not None for _, state, _, _ in want]
        alive = [w for w in want if w[1] is not None]
        assert states.tobytes() == np.array([state for _, state, _, _ in alive]).reshape(-1, 4, 4).tobytes()
        assert at.tolist() == [best_at for _, _, best_at, _ in alive]
        assert fids.tobytes() == np.array([best for *_, best in alive]).tobytes()


class TestBellMeasure:
    def test_eigenstate_measurement(self):
        rng = np.random.default_rng(30)
        tau = random_density_matrix(rng, 2)
        dm = DensityMatrix(4, tensor(bell_projector(PHI_PLUS), tau.matrix))
        outcomes = bell_measure(dm, (1, 2))
        assert outcomes[0].label == PHI_PLUS
        assert outcomes[0].probability == pytest.approx(1.0)
        assert frobenius_distance(outcomes[0].post_state.matrix, tau.matrix) < 1e-12
        for o in outcomes[1:]:
            assert o.probability < 1e-14 and o.post_state is None

    def test_smolin_pair_outcomes(self, class_states):
        outcomes = bell_measure(class_states[(RHO_PLUS, 4)], (3, 4))
        assert [o.label for o in outcomes] == list(BELL_LABELS)
        for o in outcomes:
            assert o.probability == pytest.approx(0.25)
        phi_minus = outcomes[1]
        assert frobenius_distance(phi_minus.post_state.matrix, bell_projector(PHI_MINUS)) < 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_class_bell_correlation_on_every_pair(self, n, class_states):
        for cls in STATE_CLASSES:
            for pair in itertools.combinations(range(1, n + 1), 2):
                for o in bell_measure(class_states[(cls, n)], pair):
                    assert abs(o.probability - 0.25) < 1e-12, (cls, pair, o.label)
                    expected = projector_direct(cls ^ o.label, n - 2).matrix
                    err = frobenius_distance(o.post_state.matrix, expected)
                    assert err < TOL.equality, (cls, pair, o.label)

    def test_probabilities_sum_to_one_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            dm = random_density_matrix(rng, 3)
            outcomes = bell_measure(dm, (2, 3))
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)

    def test_rare_outcome_keeps_its_state(self):
        # Psi- at probability 1e-5, far above TOL.zero_probability, is a live outcome with a state
        eps, tau = 1e-5, bell_projector(PHI_PLUS)
        dm = DensityMatrix(4, tensor((1 - eps) * tau + eps * bell_projector(PSI_MINUS), tau))
        rare = bell_measure(dm, (1, 2))[3]
        assert rare.label == PSI_MINUS and rare.probability == pytest.approx(eps)
        assert frobenius_distance(rare.post_state.matrix, tau) < 1e-12

    def test_bad_pairs(self):
        rng = np.random.default_rng(32)
        dm = random_density_matrix(rng, 3)
        with pytest.raises(ProtocolError):
            bell_measure(dm, (2, 2))
        with pytest.raises(ProtocolError):
            bell_measure(dm, (1, 7))


class TestUnlockSequential:
    def test_smolin_four_branches(self, class_states):
        result = unlock_sequential(class_states[(RHO_PLUS, 4)], (1, 2))
        assert len(result.branches) == 4
        assert result.total_probability == pytest.approx(1.0, abs=1e-12)
        for b in result.branches:
            assert b.probability == pytest.approx(0.25)
            assert b.fidelity == pytest.approx(1.0, abs=1e-12)
            assert b.best_label == b.labels[0]  # rho+ carries the identity label
        assert result.min_fidelity > 1 - 1e-10
        assert result.xor_rule_holds

    def test_xor_rule_fails_when_the_kept_pair_ignores_the_outcomes(self):
        # Phi+ on the kept pair and I/16 on the rest: every branch leaves Phi+, whatever was measured
        dm = DensityMatrix(6, tensor(bell_projector(PHI_PLUS), np.eye(16) / 16))
        result = unlock_sequential(dm, (1, 2))
        assert [(b.probability, b.best_label) for b in result.branches] == [(pytest.approx(1 / 16), PHI_PLUS)] * 16
        assert not result.xor_rule_holds

    def test_six_qubit_branch_states(self, class_states):
        result = unlock_sequential(class_states[(RHO_PLUS, 6)], (1, 2))
        assert len(result.branches) == 16
        for b in result.branches:
            assert b.probability == pytest.approx(1 / 16)
            expected = b.labels[0] ^ b.labels[1]  # rho+ class label is identity
            assert b.best_label == expected
            assert b.fidelity == pytest.approx(1.0, abs=1e-12)
        phi_phi = next(
            b for b in result.branches if b.labels == (PHI_PLUS, PHI_PLUS)
        )
        assert frobenius_distance(phi_phi.state.matrix, bell_projector(PHI_PLUS)) < 1e-12

    def test_xor_rule_all_classes(self, class_states):
        for cls in STATE_CLASSES:
            result = unlock_sequential(class_states[(cls, 6)], (1, 2))
            assert result.xor_rule_holds
            for b in result.branches:
                assert b.best_label == cls.label ^ b.labels[0] ^ b.labels[1]

    def test_noisy_branches_bell_diagonal_with_top_weight(self):
        w = NoisyWeights(0.4, 0.3, 0.2, 0.1)
        result = unlock_sequential(noisy_state(w, 4), (1, 2))
        for b in result.branches:
            assert b.fidelity == pytest.approx(0.4, abs=1e-12)
            eigs = hermitian_eigenvalues(b.state.matrix)
            assert np.allclose(np.sort(eigs), [0.1, 0.2, 0.3, 0.4], atol=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_every_branch_is_the_bell_diagonal_form_of_its_labels(self, n):
        # a mixture's branch leaves sum_l w_l [Bell_(l ^ L)] on the kept pair,
        # L the XOR of its measured labels: the Bell-diagonal state the paper
        # matches to the noisy states (R. & M. Horodecki, PRA 54, 1838 (1996))
        rng = np.random.default_rng(60 + n)
        w = NoisyWeights(*rng.dirichlet(np.ones(4)).tolist())
        keep = tuple(rng.choice(np.arange(1, n + 1), 2, replace=False).tolist())
        result = unlock_sequential(noisy_state(w, n), keep)
        assert len(result.branches) == 4 ** (n // 2 - 1)
        for b in result.branches:
            form = bell_diagonal(w, functools.reduce(operator.xor, b.labels))
            assert np.abs(b.state.matrix - form.matrix).max() < 1e-12
        assert result.max_fidelity == max(b.fidelity for b in result.branches) == pytest.approx(w.w_max, abs=1e-12)

    def test_keep_pair_independence(self, class_states):
        reference = None
        for keep in ((1, 2), (1, 3), (2, 4), (3, 4)):
            result = unlock_sequential(class_states[(SIGMA_MINUS, 4)], keep)
            signature = sorted((b.probability, b.fidelity) for b in result.branches)
            if reference is None:
                reference = signature
            else:
                assert np.allclose(signature, reference, atol=1e-10)

    def test_custom_pairing_equivalent(self, class_states):
        rho6 = class_states[(RHO_PLUS, 6)]
        default = unlock_sequential(rho6, (1, 2))
        crossed = unlock_sequential(rho6, (1, 2), pairing=((3, 6), (4, 5)))
        assert crossed.pairing == ((3, 6), (4, 5))
        a = sorted((b.probability, b.fidelity) for b in default.branches)
        c = sorted((b.probability, b.fidelity) for b in crossed.branches)
        assert np.allclose(a, c, atol=1e-10)
        assert crossed.xor_rule_holds

    def test_dead_branches_recorded(self):
        dm = DensityMatrix(
            4, tensor(bell_projector(PHI_PLUS), bell_projector(PSI_MINUS))
        )
        result = unlock_sequential(dm, (1, 2))
        live = [b for b in result.branches if b.state is not None]
        assert len(live) == 1 and live[0].labels == (PSI_MINUS,)
        assert live[0].probability == pytest.approx(1.0)
        dead = [b for b in result.branches if b.state is None]
        assert len(dead) == 3
        assert all(b.fidelity is None for b in dead)

    def test_pairing_must_cover_rest(self, class_states):
        with pytest.raises(ProtocolError):
            unlock_sequential(class_states[(RHO_PLUS, 6)], (1, 2), pairing=((3, 4),))
        with pytest.raises(ProtocolError):
            unlock_sequential(
                class_states[(RHO_PLUS, 6)], (1, 2), pairing=((3, 4), (4, 5))
            )

    def test_default_pairing(self):
        assert default_pairing(8, (3, 6)) == ((1, 2), (4, 5), (7, 8))


class TestDiscriminateSubspace:
    def test_six_qubit_correlation_pattern(self, class_states):
        outcomes = discriminate_subspace(class_states[(RHO_PLUS, 6)], (3, 4, 5, 6))
        assert [o.label for o in outcomes] == list(STATE_CLASSES)
        for o in outcomes:
            assert o.probability == pytest.approx(0.25, abs=1e-12)
            label, fid = bell_fidelity(o.post_state)
            assert label == o.label.label  # kept pair Bell label matches class
            assert fid == pytest.approx(1.0, abs=1e-10)

    def test_four_qubit_base_case(self, class_states):
        outcomes = discriminate_subspace(class_states[(RHO_PLUS, 4)], (3, 4))
        for o in outcomes:
            assert o.probability == pytest.approx(0.25, abs=1e-12)
            label, fid = bell_fidelity(o.post_state)
            assert label == o.label.label and fid == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        dm = DensityMatrix(4, np.eye(16) / 16)
        outcomes = discriminate_subspace(dm, (3, 4))
        for o in outcomes:
            assert o.probability == pytest.approx(0.25, abs=1e-12)
            assert frobenius_distance(o.post_state.matrix, np.eye(4) / 4) < 1e-12
            _, fid = bell_fidelity(o.post_state)
            assert fid == pytest.approx(0.25)

    def test_group_must_leave_one_pair(self, class_states):
        with pytest.raises(ProtocolError):
            discriminate_subspace(class_states[(RHO_PLUS, 4)], (2, 3, 4))

    @pytest.mark.parametrize("group", [(0, 3, 4, 5, 6), (-1, 0, 3, 4, 5, 6)])
    def test_group_members_must_be_qubits(self, class_states, group):
        with pytest.raises(ProtocolError):
            discriminate_subspace(class_states[(RHO_PLUS, 6)], group)

    def test_agrees_with_unlock_marginal_on_random_state(self):
        # grouping unlock branches by the xor of their labels reproduces the
        # four-outcome subspace discrimination, for arbitrary input states
        rng = np.random.default_rng(33)
        dm = random_density_matrix(rng, 6)
        unlock = unlock_sequential(dm, (1, 2))
        disc = discriminate_subspace(dm, (3, 4, 5, 6))
        for outcome in disc:
            matching = [
                b
                for b in unlock.branches
                if (b.labels[0] ^ b.labels[1]) == outcome.label.label
            ]
            p = sum(b.probability for b in matching)
            assert p == pytest.approx(outcome.probability, abs=1e-12)
            mixed = sum(b.probability * b.state.matrix for b in matching) / p
            assert frobenius_distance(mixed, outcome.post_state.matrix) < 1e-10


def _dense_discriminate_reference(rho: np.ndarray, n: int, kept: tuple[int, int]):
    """P @ rho @ P per class, then a partial trace over the group, in plain numpy.

    Shares no code with discriminate_subspace: the group projector is embedded
    with np.kron in (kept, group) order and moved to natural qubit order by an
    explicit basis-index permutation.
    """
    group = [q for q in range(1, n + 1) if q not in kept]
    order = list(kept) + group
    gdim = 2 ** len(group)
    # natural basis index x -> index of the same basis state in (kept, group) order
    to_ordered = np.zeros(2**n, dtype=int)
    for x in range(2**n):
        bits = [(x >> (n - q)) & 1 for q in range(1, n + 1)]
        to_ordered[x] = sum(bits[q - 1] << (n - 1 - i) for i, q in enumerate(order))
    to_natural = np.argsort(to_ordered)
    h = np.arange(gdim)
    results = []
    for cls in STATE_CLASSES:
        big = np.kron(np.eye(4), class_projector_unnormalized(cls, len(group)))
        proj = big[np.ix_(to_ordered, to_ordered)]
        op = proj @ rho @ proj
        reduced = np.zeros((4, 4), dtype=complex)
        for a in range(4):
            for b in range(4):
                reduced[a, b] = op[to_natural[a * gdim + h], to_natural[b * gdim + h]].sum()
        p = np.trace(op).real
        results.append((p, reduced / p))
    return results


class TestDiscriminateReference:
    @pytest.mark.parametrize("n", [4, 6])
    def test_every_kept_pair_matches_dense_reference(self, n):
        rng = np.random.default_rng(40 + n)
        dm = random_density_matrix(rng, n)
        for kept in itertools.combinations(range(1, n + 1), 2):
            group = tuple(q for q in range(1, n + 1) if q not in kept)
            outcomes = discriminate_subspace(dm, group)
            expected = _dense_discriminate_reference(dm.matrix, n, kept)
            assert [o.label for o in outcomes] == list(STATE_CLASSES)
            for o, (p, post) in zip(outcomes, expected):
                assert abs(o.probability - p) < 1e-12, kept
                assert np.abs(o.post_state.matrix - post).max() < 1e-10, kept

    @pytest.mark.parametrize("n", [4, 6])
    def test_relabelling_qubits_with_group_leaves_outcomes(self, n):
        rng = np.random.default_rng(50 + n)
        dm = random_density_matrix(rng, n)
        swap = np.eye(4)[[0, 2, 1, 3]]
        for _ in range(4):
            kept = tuple(sorted(rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()))
            perm = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
            group = tuple(q for q in range(1, n + 1) if q not in kept)
            moved = apply_qubit_permutation(dm, perm)
            outcomes = discriminate_subspace(dm, group)
            relabelled = discriminate_subspace(moved, tuple(perm[q - 1] for q in group))
            flipped = perm[kept[0] - 1] > perm[kept[1] - 1]
            for o, r in zip(outcomes, relabelled):
                assert r.label == o.label
                assert abs(r.probability - o.probability) < 1e-12
                post = swap @ r.post_state.matrix @ swap if flipped else r.post_state.matrix
                assert np.abs(post - o.post_state.matrix).max() < 1e-10


def _dense_bell_measure_reference(rho: np.ndarray, n: int, pair: tuple[int, int]):
    """Bell projector on the pair, then a partial trace over it, in plain numpy.

    Shares no code with bell_measure: the projector is embedded with np.kron
    in (pair, rest) order and moved to natural qubit order by an explicit
    basis-index permutation.
    """
    rest = [q for q in range(1, n + 1) if q not in pair]
    order = list(pair) + rest
    rdim = 2 ** len(rest)
    # natural basis index x -> index of the same basis state in (pair, rest) order
    to_ordered = np.zeros(2**n, dtype=int)
    for x in range(2**n):
        bits = [(x >> (n - q)) & 1 for q in range(1, n + 1)]
        to_ordered[x] = sum(bits[q - 1] << (n - 1 - i) for i, q in enumerate(order))
    to_natural = np.argsort(to_ordered)
    k = np.arange(4)
    results = []
    for label in BELL_LABELS:
        big = np.kron(bell_projector(label), np.eye(rdim))
        proj = big[np.ix_(to_ordered, to_ordered)]
        op = proj @ rho @ proj
        reduced = np.zeros((rdim, rdim), dtype=complex)
        for a in range(rdim):
            for b in range(rdim):
                reduced[a, b] = op[to_natural[k * rdim + a], to_natural[k * rdim + b]].sum()
        p = np.trace(op).real
        results.append((p, reduced / p))
    return results


class TestBellMeasureReference:
    @pytest.mark.parametrize("n", [4, 6])
    def test_every_pair_matches_dense_reference(self, n):
        rng = np.random.default_rng(60 + n)
        dm = random_density_matrix(rng, n)
        cycled = apply_qubit_permutation(dm, list(range(2, n + 1)) + [1])
        assert np.abs(cycled.matrix - dm.matrix).max() > 1e-3  # not permutation symmetric
        for pair in itertools.combinations(range(1, n + 1), 2):
            outcomes = bell_measure(dm, pair)
            expected = _dense_bell_measure_reference(dm.matrix, n, pair)
            assert [o.label for o in outcomes] == list(BELL_LABELS)
            for o, (p, post) in zip(outcomes, expected):
                assert abs(o.probability - p) < 1e-12, pair
                assert np.abs(o.post_state.matrix - post).max() < 1e-10, pair


class TestConditionalOperatorsBits:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bit_identical_to_full_einsum(self, n):
        # the sum runs over the Bell vector's nonzeros only; the full 16-term
        # einsum is the oracle, on complex entries with no structure. On a
        # C-ordered operand einsum sums the (a, b) terms a-major, one by one,
        # as the production sum does
        rng = np.random.default_rng(70 + n)
        m = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        for pair in itertools.combinations(range(1, n + 1), 2):
            grouped = group_qubits(m, n, pair)
            ops = conditional_operators(grouped)
            assert list(ops) == list(BELL_LABELS)
            for label, op in ops.items():
                v = bell_vector(label)
                dense = np.einsum("arbs,a,b->rs", np.ascontiguousarray(grouped), v.conj(), v)
                assert op.tobytes() == dense.tobytes(), (pair, label)
                on_view = np.einsum("arbs,a,b->rs", grouped, v.conj(), v)
                assert op.tobytes() == on_view.tobytes(), (pair, label)


class TestConditionalEntries:
    """bell_measure reads the state's entries; the dense grouping is its oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("density", [1.0, 0.3, 0.05])
    def test_bit_identical_to_dense_operators(self, n, density):
        rng = np.random.default_rng(160 + n)
        m = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        m[rng.random(m.shape) > density] = 0.0
        m[0, 0] = 1.0  # one nonzero at least
        dm = DensityMatrix(n, m.copy())
        for pair in itertools.combinations(range(1, n + 1), 2):
            dense = conditional_operators(group_qubits(m, n, pair))
            for label, (rows, cols, vals) in _conditional_entries(dm, pair).items():
                got = DensityMatrix(n - 2, (rows, cols, vals)).matrix
                assert got.tobytes() == dense[label].tobytes(), (pair, label)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_outcomes_bit_identical_to_dense_trace_and_division(self, n):
        dm = random_density_matrix(np.random.default_rng(170 + n), n)
        for pair in itertools.combinations(range(1, n + 1), 2):
            dense = conditional_operators(group_qubits(dm.matrix, n, pair))
            for o in bell_measure(dm, pair):
                p = float(np.trace(dense[o.label]).real)
                assert o.probability == p, (pair, o.label)
                assert o.post_state.matrix.tobytes() == (dense[o.label] / p).tobytes(), (pair, o.label)


def _unlock_regrouped_per_node(rho: DensityMatrix, keep, pairing):
    """unlock's leaves as (labels, operator), computed the way it once was:
    every node groups its operator anew on the positions, among the qubits not
    yet measured, of the pair it measures."""
    leaves = []

    def descend(mat, alive, index, labels):
        if index == len(pairing):
            leaves.append((labels, mat))
            return
        pair = sorted(pairing[index])
        local = [alive.index(q) + 1 for q in pair]
        remaining = [q for q in alive if q not in pair]
        for label, op in conditional_operators(group_qubits(mat, len(alive), local)).items():
            descend(op, remaining, index + 1, labels + (label,))

    descend(rho.matrix, list(range(1, rho.qubits + 1)), 0, ())
    return leaves


class TestUnlockGroupsOnce:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_same_bits_as_regrouping_at_every_node(self, n):
        rng = np.random.default_rng(110 + n)
        for _ in range(3):
            rho = random_density_matrix(rng, n)
            order = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
            keep = (order[1], order[0])
            # pairs in shuffled order, each given in either orientation
            pairing = tuple((order[i], order[i + 1]) for i in range(2, n, 2))
            result = unlock_sequential(rho, keep, pairing)
            leaves = _unlock_regrouped_per_node(rho, keep, pairing)
            assert [b.labels for b in result.branches] == [labels for labels, _ in leaves]
            for branch, (_, mat) in zip(result.branches, leaves):
                p = float(np.trace(mat).real)
                assert branch.probability == p
                assert branch.state.matrix.tobytes() == (mat / p).tobytes()


MIXTURES = [
    NoisyWeights(0.7, 0.1, 0.1, 0.1),
    NoisyWeights(0.4, 0.2, 0.2, 0.2),
    NoisyWeights(0.553, 0.2, 0.147, 0.1),
    NoisyWeights(0.1, 0.623, 0.177, 0.1),
]


def _paper_states(n):
    return [projector_direct(cls, n) for cls in STATE_CLASSES] + [noisy_state(w, n) for w in MIXTURES]


def _unlock_against_oracle(rho, keep, pairing, same):
    """Every branch of unlock_sequential against the dense oracle's operator:
    `same(got, want)` on the probability, the post state and the fidelity."""
    result = unlock_sequential(rho, keep, pairing)
    leaves = unlock_leaves(rho, result.keep, result.pairing)
    assert [b.labels for b in result.branches] == [labels for labels, _ in leaves]
    for branch, (_, mat) in zip(result.branches, leaves):
        p = float(np.trace(mat).real)
        same(np.array(branch.probability), np.array(p))
        same(branch.state.matrix, mat / p)
        same(np.array(branch.fidelity), np.array(bell_fidelity(DensityMatrix(2, mat / p))[1]))


def _discriminate_against_oracle(rho, kept, same):
    kept = tuple(sorted(kept))  # the order discriminate_subspace leaves the pair in
    group = tuple(q for q in range(1, rho.qubits + 1) if q not in kept)
    outcomes = discriminate_subspace(rho, group)
    assert [o.label for o in outcomes] == list(STATE_CLASSES)
    for o, op in zip(outcomes, discriminate_operators(rho, kept)):
        p = float(np.trace(op).real)
        same(np.array(o.probability), np.array(p))
        same(o.post_state.matrix, op / p)
        same(np.array(bell_fidelity(o.post_state)[1]), np.array(bell_fidelity(DensityMatrix(2, op / p))[1]))


def _bytes_equal(got, want):
    assert got.tobytes() == want.tobytes()


class TestEntriesAgainstDenseOracle:
    """unlock and discriminate read the state's entries; the dense grouped array is their oracle."""

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_paper_states_bit_for_bit(self, n, monkeypatch):
        monkeypatch.setenv("BCABE_MAX_N", str(n))
        for rho in _paper_states(n):
            _unlock_against_oracle(rho, (1, 3), None, _bytes_equal)
            # the pairs measured last-first, each given high qubit first
            reversed_pairing = tuple(zip(range(n, 4, -2), range(n - 1, 4, -2))) + ((1, 3),)
            _unlock_against_oracle(rho, (4, 2), reversed_pairing, _bytes_equal)
            _discriminate_against_oracle(rho, (2, 4), _bytes_equal)
            _discriminate_against_oracle(rho, (1, n), _bytes_equal)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_states_within_rounding(self, half, seed):
        n = 2 * half
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, n)
        order = [int(q) for q in rng.permutation(np.arange(1, n + 1))]

        def same(got, want):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

        _unlock_against_oracle(rho, (order[0], order[1]), tuple(zip(order[2::2], order[3::2])), same)
        _discriminate_against_oracle(rho, (order[0], order[1]), same)


def _outcomes(result):
    """The multiset of (probability, best label XOR measured labels)."""
    return sorted((b.probability, functools.reduce(operator.xor, b.labels, b.best_label).symbol) for b in result.branches)


class TestUnlockMetamorphic:
    @pytest.mark.parametrize("n", [6, 8])
    def test_outcomes_do_not_depend_on_pairing(self, n):
        # the paper's states are permutation invariant, so any keep pair and
        # pairing leaves the same outcome multiset, to the last bit
        rng = np.random.default_rng(180 + n)
        for rho in _paper_states(n):
            reference = _outcomes(unlock_sequential(rho, (1, 2)))
            for _ in range(3):
                order = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
                pairing = tuple(zip(order[2::2], order[3::2]))
                assert _outcomes(unlock_sequential(rho, (order[0], order[1]), pairing)) == reference

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_relabelling_qubits_commutes_with_unlock(self, n):
        # unlock of the relabelled state, on the relabelled keep pair and
        # pairing, is unlock of the state; a kept pair whose order flips
        # comes back swapped
        rng = np.random.default_rng(190 + n)
        swap = np.eye(4)[[0, 2, 1, 3]]
        for _ in range(3):
            rho = random_density_matrix(rng, n)
            perm = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
            order = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
            keep, pairing = (order[0], order[1]), tuple(zip(order[2::2], order[3::2]))
            moved = unlock_sequential(
                apply_qubit_permutation(rho, perm),
                (perm[keep[0] - 1], perm[keep[1] - 1]),
                tuple((perm[i - 1], perm[j - 1]) for i, j in pairing),
            )
            result = unlock_sequential(rho, keep, pairing)
            flipped = (perm[keep[0] - 1] > perm[keep[1] - 1]) != (keep[0] > keep[1])
            assert [b.labels for b in moved.branches] == [b.labels for b in result.branches]
            for b, m in zip(result.branches, moved.branches):
                assert abs(m.probability - b.probability) < 1e-15
                post = swap @ m.state.matrix @ swap if flipped else m.state.matrix
                assert np.abs(post - b.state.matrix).max() < 1e-13
                assert m.best_label == b.best_label

    def test_activation_needs_every_party(self):
        # Bell-measure every pair but one and trace that pair out instead:
        # in every branch the kept pair is left maximally mixed, so without
        # the last party's measurement nothing is unlocked
        n = 6
        for rho in _paper_states(n):
            for keep in itertools.combinations(range(1, n + 1), 2):
                rest = [q for q in range(1, n + 1) if q not in keep]
                for measured in itertools.combinations(rest, 2):
                    for o in bell_measure(rho, measured):
                        left = [q for q in range(1, n + 1) if q not in measured]  # post_state's qubits, in order
                        kept = partial_trace(o.post_state, [left.index(q) + 1 for q in keep])
                        assert np.abs(kept.matrix - np.eye(4) / 4).max() < 1e-15, (keep, measured, o.label)
            assert unlock_sequential(rho, (1, 2)).min_fidelity > 0.35  # with every party, the top weight (0.4 or more)

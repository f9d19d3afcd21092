"""Randomized properties: the kernel invariants the rest of the suite leans on."""

import numpy as np
from hypothesis import given, settings, strategies as st

from bcabe import protocol
from bcabe.analyze import certify_two_vs_rest_separable, is_ppt
from bcabe.basis import BELL_LABELS, BellLabel, bell_projector
from bcabe.construct import NoisyWeights, noisy_state
from bcabe.linalg import (
    Bipartition,
    DensityMatrix,
    apply_qubit_permutation,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    tensor,
    transpose_qubits,
)
from conftest import random_density_matrix, random_hermitian
from dense_oracle import complement, ghz_state, partial_trace

SETTINGS = settings(deadline=None, max_examples=100)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def state_and_cut(draw, max_qubits=4):
    n = draw(st.integers(min_value=2, max_value=max_qubits))
    seed = draw(seeds)
    size = draw(st.integers(min_value=1, max_value=n - 1))
    left = draw(st.permutations(list(range(1, n + 1))))[:size]
    return random_density_matrix(np.random.default_rng(seed), n), Bipartition.of(left, n)


@SETTINGS
@given(state_and_cut())
def test_partial_transpose_involution_trace_hermiticity(arg):
    dm, cut = arg
    pt = transpose_qubits(dm.matrix, dm.qubits, cut.right)
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.abs(pt - pt.conj().T).max() < 1e-12
    back = transpose_qubits(pt, dm.qubits, cut.right)
    assert np.array_equal(back, dm.matrix)


@SETTINGS
@given(state_and_cut())
def test_negativity_symmetric_under_side_swap(arg):
    dm, cut = arg
    a = is_ppt(dm, cut)
    b = is_ppt(dm, Bipartition(cut.right, cut.left))
    assert abs(a.negativity - b.negativity) < 1e-10
    assert a.ppt == b.ppt


@SETTINGS
@given(seeds, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
def test_partial_trace_of_tensor_factors(seed, na, nb):
    rng = np.random.default_rng(seed)
    da, db = 2**na, 2**nb
    a = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
    b = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
    prod = tensor(a, b)
    left = partial_trace(DensityMatrix(na + nb, prod), range(1, na + 1))
    assert np.abs(left.matrix - a * np.trace(b)).max() < 1e-10


@SETTINGS
@given(seeds, st.integers(min_value=2, max_value=16))
def test_eigensolver_reconstruction(seed, dim):
    h = random_hermitian(np.random.default_rng(seed), dim)
    vals, vecs = hermitian_eigensystem(h)
    assert list(vals) == sorted(vals)
    recon = (vecs * vals[np.newaxis, :]) @ vecs.conj().T
    assert np.linalg.norm(recon - h) <= 1e-9 * max(1.0, np.linalg.norm(h))


@SETTINGS
@given(seeds, st.integers(min_value=2, max_value=4))
def test_permutation_preserves_spectrum(seed, n):
    rng = np.random.default_rng(seed)
    dm = random_density_matrix(rng, n)
    perm = list(rng.permutation(n) + 1)
    moved = apply_qubit_permutation(dm, perm)
    assert np.allclose(
        np.linalg.eigvalsh(moved.matrix), np.linalg.eigvalsh(dm.matrix), atol=1e-11
    )
    assert abs(moved.trace() - 1.0) < 1e-12


@SETTINGS
@given(seeds, st.integers(min_value=2, max_value=4))
def test_bell_measure_probabilities_normalize(seed, n):
    rng = np.random.default_rng(seed)
    dm = random_density_matrix(rng, n)
    pair = tuple(sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False)))
    outcomes = protocol.bell_measure(dm, pair)
    assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-12
    for o in outcomes:
        assert o.probability >= -1e-14
        if o.post_state is not None:
            assert abs(o.post_state.trace() - 1.0) < 1e-10


@SETTINGS
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(st.sampled_from("01"), min_size=n, max_size=n).map("".join)
))
def test_ghz_pair_is_orthonormal(bits):
    plus = ghz_state(bits, +1)
    minus = ghz_state(bits, -1)
    assert abs(np.vdot(plus, minus)) < 1e-15
    assert abs(np.vdot(plus, plus) - 1.0) < 1e-12
    assert complement(complement(bits)) == bits


@SETTINGS
@given(seeds)
def test_noisy_state_is_valid_density_matrix(seed):
    rng = np.random.default_rng(seed)
    w = NoisyWeights(*rng.dirichlet(np.ones(4)).tolist())
    dm = noisy_state(w, 4)
    dm.validate()
    eigs = hermitian_eigenvalues(dm.matrix)
    assert eigs[0] >= -1e-12
    assert eigs[-1] <= w.w_max / 4 + 1e-12  # class weights spread over rank-4 projectors


@SETTINGS
@given(st.sampled_from(BELL_LABELS), st.sampled_from(BELL_LABELS), st.sampled_from(BELL_LABELS))
def test_bell_label_group_laws(a, b, c):
    identity = BellLabel(0, 0)
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ b == b ^ a
    assert a ^ a == identity and a ^ identity == a


@SETTINGS
@given(seeds)
def test_certificate_recovers_planted_decomposition(seed):
    # plant rho = sum_b lambda_b [B_b] (x) tau_b, then ask for it back
    rng = np.random.default_rng(seed)
    lams = rng.dirichlet(np.ones(4))
    taus = [random_density_matrix(rng, 2) for _ in range(4)]
    m = sum(
        lam * tensor(bell_projector(b), tau.matrix)
        for lam, b, tau in zip(lams, BELL_LABELS, taus)
    )
    cert = certify_two_vs_rest_separable(DensityMatrix(4, m), (1, 2))
    assert cert.ok
    for lam, b, tau in zip(lams, BELL_LABELS, taus):
        assert abs(cert.weights[b] - lam) < 1e-10
        if lam > 1e-9:
            assert np.abs(cert.factors[b].matrix - tau.matrix).max() < 1e-9


@SETTINGS
@given(seeds, st.integers(min_value=2, max_value=4))
def test_qubit_permutation_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    dm = random_density_matrix(rng, n)
    perm = list(rng.permutation(n) + 1)
    placed = apply_qubit_permutation(dm, perm)
    # sending it back through the inverse permutation restores the matrix
    inverse = [perm.index(q) + 1 for q in range(1, n + 1)]
    restored = apply_qubit_permutation(placed, inverse)
    assert np.array_equal(restored.matrix, dm.matrix)


def test_eigensolver_reconstruction_large_dims():
    # spot checks above the hypothesis size range, still inside the dim<=256 contract
    rng = np.random.default_rng(40)
    for dim in (64, 128):
        h = random_hermitian(rng, dim)
        vals, vecs = hermitian_eigensystem(h)
        recon = (vecs * vals[np.newaxis, :]) @ vecs.conj().T
        assert np.linalg.norm(recon - h) <= 1e-9 * np.linalg.norm(h)
        assert np.abs(vals - np.linalg.eigvalsh(h)).max() < 1e-10 * np.linalg.norm(h)

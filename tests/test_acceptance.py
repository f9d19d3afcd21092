"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; a failed assert in any test is the corresponding FAIL.  Tolerances are
pinned here and must not be loosened.
"""

import itertools
import time

import numpy as np
import pytest

from bcabe import protocol
from bcabe.analyze import (
    bell_diagonal_entangled,
    certify_two_vs_rest_separable,
    is_ppt,
)
from bcabe.basis import BELL_LABELS, bell_projector
from bcabe.construct import (
    NoisyWeights,
    RHO_PLUS,
    STATE_CLASSES,
    bell_diagonal,
    projector_recursive,
    pauli_relate,
)
from bcabe.linalg import (
    Bipartition,
    apply_qubit_permutation,
    frobenius_distance,
    hermitian_eigensystem,
    tensor,
    transpose_qubits,
)
from conftest import random_density_matrix, random_hermitian

SIZES = (4, 6, 8)


def passed(num, name, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[PASS] criterion {num}: {name}{tail}")


def test_criterion_01_decomposition_completeness(class_states):
    worst_sum = worst_orth = 0.0
    elapsed_n8 = None
    for n in SIZES:
        t0 = time.perf_counter()
        projectors = [
            2 ** (n - 2) * class_states[(cls, n)].matrix for cls in STATE_CLASSES
        ]
        total = sum(projectors)
        worst_sum = max(worst_sum, float(np.linalg.norm(total - np.eye(2**n))))
        for i, a in enumerate(projectors):
            for b in projectors[i + 1 :]:
                worst_orth = max(worst_orth, float(np.linalg.norm(a @ b)))
        if n == 8:
            elapsed_n8 = time.perf_counter() - t0
    assert worst_sum < 1e-12
    assert worst_orth < 1e-12
    assert elapsed_n8 < 10.0
    passed(
        1,
        "decomposition completeness and orthogonality",
        f"sum err {worst_sum:.2e}, orth err {worst_orth:.2e}, n=8 in {elapsed_n8:.2f}s",
    )


def test_criterion_02_smolin_equality(class_states):
    rho = class_states[(RHO_PLUS, 4)].matrix
    bell_form = (
        sum(tensor(bell_projector(b), bell_projector(b)) for b in BELL_LABELS) / 4
    )
    entry_err = float(np.abs(rho - bell_form).max())
    assert entry_err < 1e-14
    assert rho[0, 0] == pytest.approx(0.125, abs=1e-15)
    assert rho[0, 15] == pytest.approx(0.125, abs=1e-15)
    passed(2, "four-qubit state equals the Bell-correlated (Smolin) form",
           f"max entry err {entry_err:.2e}")


def test_criterion_03_construction_triangle(class_states):
    worst = 0.0
    comparisons = 0
    for n in SIZES:
        base = class_states[(RHO_PLUS, n)]
        for cls in STATE_CLASSES:
            builds = [
                class_states[(cls, n)].matrix,
                projector_recursive(cls, n).matrix,
                pauli_relate(base, cls).matrix,
            ]
            for a, b in itertools.combinations(builds, 2):
                worst = max(worst, frobenius_distance(a, b))
                comparisons += 1
    assert comparisons == 36
    assert worst < 1e-12
    passed(3, "direct = recursive = Pauli-conjugated construction",
           f"{comparisons} comparisons, worst {worst:.2e}")


def test_criterion_04_permutation_invariance(class_states):
    worst = 0.0
    for n in (4, 6):
        for cls in STATE_CLASSES:
            dm = class_states[(cls, n)]
            for i, j in itertools.combinations(range(1, n + 1), 2):
                perm = list(range(1, n + 1))
                perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
                moved = apply_qubit_permutation(dm, perm)
                worst = max(worst, frobenius_distance(moved.matrix, dm.matrix))
    # sampled transpositions at n = 8
    for cls in STATE_CLASSES:
        dm = class_states[(cls, 8)]
        for i, j in ((1, 2), (1, 8), (3, 6), (5, 7)):
            perm = list(range(1, 9))
            perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
            moved = apply_qubit_permutation(dm, perm)
            worst = max(worst, frobenius_distance(moved.matrix, dm.matrix))
    assert worst < 1e-10
    passed(4, "permutation invariance under all transpositions",
           f"max deviation {worst:.2e}")


def test_criterion_05_two_vs_rest_separability(class_states):
    worst_recon = 0.0
    worst_eig = 0.0
    for n in (4, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for cls in STATE_CLASSES:
            dm = class_states[(cls, n)]
            for pair in pairs:
                cert = certify_two_vs_rest_separable(dm, pair)
                assert cert.ok, (cls.descriptor, n, pair, cert.reason)
                worst_recon = max(worst_recon, cert.reconstruction_error)
                verdict = is_ppt(dm, Bipartition.of(pair, n))
                assert verdict.ppt
                worst_eig = min(worst_eig, verdict.min_eigenvalue)
    for cls in STATE_CLASSES:
        dm = class_states[(cls, 8)]
        for pair in ((1, 2), (2, 7), (7, 8)):
            cert = certify_two_vs_rest_separable(dm, pair)
            assert cert.ok, (cls.descriptor, 8, pair, cert.reason)
            worst_recon = max(worst_recon, cert.reconstruction_error)
            verdict = is_ppt(dm, Bipartition.of(pair, 8))
            assert verdict.ppt
            worst_eig = min(worst_eig, verdict.min_eigenvalue)
    assert worst_eig >= -1e-10
    passed(5, "pair-vs-rest separability certificates and PPT verdicts",
           f"worst reconstruction {worst_recon:.2e}, min PT eig {worst_eig:.2e}")


def test_criterion_06_one_vs_rest_npt_witness(class_states, goldens):
    for n in SIZES:
        golden = goldens["per_n"][str(n)]["by_cut_size"]["1"]
        values = []
        for cls in STATE_CLASSES:
            dm = class_states[(cls, n)]
            for q in range(1, n + 1):
                v = is_ppt(dm, Bipartition.of((q,), n))
                assert not v.ppt, (cls.descriptor, n, q)
                assert v.negativity > 1e-3
                values.append(v.negativity)
                assert v.negativity == pytest.approx(golden["negativity"], abs=1e-10)
                assert v.min_eigenvalue == pytest.approx(
                    golden["min_eigenvalue"], abs=1e-10
                )
        spread = max(values) - min(values)
        assert spread < 1e-10, n
    passed(6, "every one-vs-rest cut is NPT and matches the frozen goldens",
           "negativity 1/2 at n=4,6,8")


def test_criterion_07_unlock_protocol(class_states):
    worst_fid = 1.0
    for n in SIZES:
        m = (n - 2) // 2
        uniform = 1.0 / 4**m
        for cls in STATE_CLASSES:
            result = protocol.unlock_sequential(class_states[(cls, n)], (1, 2))
            assert len(result.branches) == 4**m
            assert result.xor_rule_holds
            for b in result.branches:
                assert abs(b.probability - uniform) < 1e-12
                assert b.fidelity >= 1 - 1e-10
                worst_fid = min(worst_fid, b.fidelity)
                expected = cls.label
                for lb in b.labels:
                    expected = expected ^ lb
                assert b.best_label == expected

    def signature(result):
        return np.array(sorted((b.probability, b.fidelity) for b in result.branches))

    # kept-pair independence
    for n, keeps in ((4, list(itertools.combinations(range(1, 5), 2))),
                     (6, [(1, 2), (2, 5), (5, 6)]),
                     (8, [(1, 2), (7, 8)])):
        ref = None
        for keep in keeps:
            sig = signature(protocol.unlock_sequential(class_states[(RHO_PLUS, n)], keep))
            if ref is None:
                ref = sig
            else:
                assert np.abs(sig - ref).max() < 1e-10
    # pairing independence at n = 6 (all three pairings of the rest)
    rho6 = class_states[(RHO_PLUS, 6)]
    ref = signature(protocol.unlock_sequential(rho6, (1, 2)))
    for pairing in (((3, 5), (4, 6)), ((3, 6), (4, 5))):
        sig = signature(protocol.unlock_sequential(rho6, (1, 2), pairing=pairing))
        assert np.abs(sig - ref).max() < 1e-10
    passed(7, "unlock leaves a perfect Bell pair on every branch",
           f"min fidelity {worst_fid:.15f}")


def test_criterion_08_discrimination_protocol(class_states):
    for n in SIZES:
        group = tuple(range(3, n + 1))
        for cls in STATE_CLASSES:
            outcomes = protocol.discriminate_subspace(class_states[(cls, n)], group)
            assert [o.label for o in outcomes] == list(STATE_CLASSES)
            for o in outcomes:
                assert abs(o.probability - 0.25) < 1e-12
                expected = bell_projector(cls.label ^ o.label.label)
                assert frobenius_distance(o.post_state.matrix, expected) < 1e-10
    passed(8, "subspace discrimination yields uniform outcomes and the correlated Bell pair")


def test_criterion_09_noisy_threshold():
    grid = [i / 100 for i in range(101)]
    lines = {
        "two-term": lambda w: NoisyWeights(w, 1.0 - w, 0.0, 0.0),
        "werner": lambda w: NoisyWeights(w, *([(1.0 - w) / 3] * 3)),
    }
    flips = {}
    for name, make in lines.items():
        verdicts = []
        for w in grid:
            weights = make(w)
            v = bell_diagonal_entangled(weights)
            assert v.entangled == (weights.w_max > 0.5), (name, w)
            # PPT test on all four activated-pair states agrees with the rule
            for label in BELL_LABELS:
                dm = bell_diagonal(weights, label)
                ppt = is_ppt(dm, Bipartition.of((1,), 2)).ppt
                assert (not ppt) == v.entangled, (name, w, label)
            verdicts.append(v.entangled)
        flips[name] = [
            (grid[i], grid[i + 1])
            for i in range(100)
            if verdicts[i] != verdicts[i + 1]
        ]
    assert flips["werner"] == [(0.5, 0.51)]
    assert flips["two-term"] == [(0.49, 0.5), (0.5, 0.51)]
    # two-term mixtures: entangled exactly when the two weights differ
    positions = list(itertools.combinations(range(4), 2))
    for i, j in positions:
        for a in (0.9, 0.7, 0.51):
            vals = [0.0] * 4
            vals[i], vals[j] = a, 1.0 - a
            assert bell_diagonal_entangled(NoisyWeights(*vals)).entangled
        vals = [0.0] * 4
        vals[i] = vals[j] = 0.5
        assert not bell_diagonal_entangled(NoisyWeights(*vals)).entangled
    passed(9, "activated-pair entanglement flips exactly at w = 1/2 on both scan lines")


def test_criterion_10_randomized_property_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # partial transpose involution + trace preservation, 100 cases each
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dm = random_density_matrix(rng, n)
        size = int(rng.integers(1, n))
        left = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False)))
        cut = Bipartition.of(left, n)
        pt = transpose_qubits(dm.matrix, n, cut.right)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        back = transpose_qubits(pt, n, cut.right)
        assert np.array_equal(back, dm.matrix)

    # eigensolver reconstruction, 100 cases, dims up to 256
    dims = [2, 3, 4, 6, 8, 12, 16, 24, 32] * 11
    dims = dims[:97] + [64, 128, 256]
    for dim in dims:
        h = random_hermitian(rng, dim)
        vals, vecs = hermitian_eigensystem(h)
        recon = (vecs * vals[np.newaxis, :]) @ vecs.conj().T
        assert np.linalg.norm(recon - h) < 1e-9 * max(1.0, np.linalg.norm(h))

    # measurement probability normalization, 100 cases
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dm = random_density_matrix(rng, n)
        pair = tuple(sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False)))
        outcomes = protocol.bell_measure(dm, pair)
        assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    passed(10, "randomized property battery", f"{elapsed:.1f}s for 300 cases")

"""Entanglement diagnostics for the projector states and their mixtures.

Verdicts are evidence-carrying: a PPT answer comes with the minimal partial
transpose eigenvalue, a separability answer with the explicit decomposition
that reconstructs the state. Nothing here decides general separability; the
certificate is restricted to the four-term Bell-correlated form the states
actually have.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .basis import BELL_LABELS, BellLabel, bell_projector
from .config import TOL
from .construct import (
    NoisyWeights,
    RHO_PLUS,
    STATE_CLASSES,
    StateClass,
    bell_diagonal,
    pauli_relate,
    projector_direct,
    recursive_family,
)
from .linalg import (
    Bipartition,
    DensityMatrix,
    PT_BATCH_ENTRIES,
    add_entries,
    # unused here; perfbench's tracer patches it in this namespace, and
    # perfbench/tests/test_perfbench.py::test_untraced_runs_leave_bcabe_unpatched asserts it
    hermitian_eigenvalues,
    norm_of,
    pt_spectra,
    spectra,
    split_index,
    swap_qubits,
    values_at,
)
from . import protocol


class AnalyzeError(ValueError):
    pass


@dataclass(frozen=True)
class CutVerdict:
    cut: Bipartition
    min_eigenvalue: float
    ppt: bool
    negativity: float


def _verdicts(cuts: Sequence[Bipartition], solved: tuple[np.ndarray, np.ndarray], ppt: float) -> list[CutVerdict]:
    """A PPT verdict with eigenvalue evidence per cut, from its row of `pt_spectra`'s output."""
    verdicts = []
    for cut, eigs, one_norm in zip(cuts, *solved):
        threshold = ppt * max(1.0, float(one_norm))
        min_eig = float(eigs[0])
        negativity = float(-eigs[eigs < 0].sum()) + 0.0
        verdicts.append(CutVerdict(cut, min_eig, min_eig >= -threshold, negativity))
    return verdicts


def _cut_verdicts(states: Sequence[DensityMatrix], cuts: Sequence[Bipartition], ppt: float) -> list[CutVerdict]:
    """PPT tests with eigenvalue evidence, one per (state, cut), state-major, from one stacked solve."""
    for rho in states:
        if not rho.validated():
            rho.validate()
    return _verdicts(list(cuts) * len(states), pt_spectra(states, cuts), ppt)


def is_ppt(rho: DensityMatrix, cut: Bipartition, ppt: float = TOL.ppt) -> CutVerdict:
    """PPT test with eigenvalue evidence for one bipartite cut."""
    return _cut_verdicts([rho], [cut], ppt)[0]


@functools.cache
def _cuts(n: int) -> tuple[Bipartition, ...]:
    # both lists come out sorted by (left size, left)
    if n <= 8:
        lefts = [(1,) + extra for r in range(n - 1) for extra in itertools.combinations(range(2, n + 1), r)]
    else:
        lefts = [tuple(range(1, k + 1)) for k in range(1, n // 2 + 1)]
    return tuple(Bipartition.of(left, n) for left in lefts)


def scan_all_cuts(rho: DensityMatrix, ppt: float = TOL.ppt) -> list[CutVerdict]:
    """One verdict per cut, sorted by (left size, left); the cuts depend on n alone.

    Up to n = 8 every unordered cut is scanned, 2**(n-1) - 1 of them, each
    with qubit 1 on the left. Above n = 8 one representative {1..k} | rest is
    scanned per side size k = 1..n/2: on a permutation-invariant state every
    cut of a given side size has the same verdict, and gather_evidence checks
    that invariance separately. Each solve stacks as many cuts as fit
    PT_BATCH_ENTRIES moved entries.
    """
    cuts = _cuts(rho.qubits)
    step = max(1, PT_BATCH_ENTRIES // max(1, rho.entries()[0].size))
    return [v for i in range(0, len(cuts), step) for v in _cut_verdicts([rho], cuts[i : i + step], ppt)]


@dataclass(frozen=True)
class SeparabilityCertificate:
    """Explicit rho = sum_b lambda_b [Bell_b]_pair (x) tau_b decomposition."""

    pair: tuple[int, int]
    weights: dict[BellLabel, float] = field(repr=False)
    factors: dict[BellLabel, DensityMatrix | None] = field(repr=False)
    reconstruction_error: float
    ok: bool
    reason: str | None = None


def _measure(rho: DensityMatrix, pair: tuple[int, int]) -> tuple[list[protocol.MeasurementOutcome], float]:
    """The pair's Bell outcomes and the Frobenius norm of sum_b p_b [Bell_b]_pair
    (x) tau_b - rho over its live outcomes, both from one `split_index` of the
    state's rows and columns. The residual is summed in split_index's (pair,
    rest) layout: each term on the (a, b) blocks of its Bell projector, in
    label order, then the state subtracted."""
    n, rest = rho.qubits, 2 ** (rho.qubits - 2)
    rows, cols, vals = rho.entries()
    (a, r), (b, s) = split = split_index(rows, n, pair), split_index(cols, n, pair)
    outcomes = protocol.bell_measure(rho, pair, split)
    parts = []
    for o in outcomes:
        if o.post_state is not None:
            proj = bell_projector(o.label)
            t_rows, t_cols, t_vals = o.post_state.entries()
            for i, j in zip(*np.nonzero(proj)):
                parts.append((i * rest + t_rows, j * rest + t_cols, o.probability * (proj[i, j] * t_vals)))
    parts.append((a * rest + r, b * rest + s, -vals))
    return outcomes, norm_of(add_entries(4 * rest, parts)[2])


def certify_pairs(rho: DensityMatrix, pairs: Iterable[tuple[int, int]]) -> list[SeparabilityCertificate]:
    """Constructive separability witnesses for the pair-vs-rest cuts, one per pair.

    Each pair's Bell-conditional operators are extracted and renormalized, and
    the four product terms must rebuild the state. Failure means the state has
    no such four-term form, not that it is entangled. The PSD floors of every
    pair's factor states come from one stacked solve, each with the bits it
    gets alone; the measurement and the residual stay one pair at a time, so
    only one pair's moved entries are held at once.
    """
    measured = []
    for pair in pairs:
        pair = protocol.normalize_pair(pair, rho.qubits)
        measured.append((pair, *_measure(rho, pair)))
    solved = [o.post_state.entries() for _, outcomes, _ in measured for o in outcomes if o.post_state is not None]
    floors = iter(spectra(2 ** (rho.qubits - 2), solved)[:, 0].tolist() if solved else [])
    certs = []
    for pair, outcomes, err in measured:
        reason = None
        for o in outcomes:
            if o.post_state is not None and (lo := next(floors)) < -TOL.psd:
                reason = f"conditional state for {o.label} not PSD (min eig {lo:.3e})"
        weights = {o.label: o.probability for o in outcomes}
        if abs(sum(weights.values()) - 1.0) > TOL.probability:
            reason = reason or f"weights sum to {sum(weights.values())!r}"
        if err > TOL.certificate:
            reason = reason or f"reconstruction error {err:.3e}"
        factors = {o.label: o.post_state for o in outcomes}
        certs.append(SeparabilityCertificate(pair, weights, factors, err, reason is None, reason))
    return certs


def certify_two_vs_rest_separable(rho: DensityMatrix, pair: tuple[int, int]) -> SeparabilityCertificate:
    """Separability witness for one pair-vs-rest cut; the one-pair case of `certify_pairs`."""
    return certify_pairs(rho, [pair])[0]


def check_permutation_invariance(rho: DensityMatrix) -> tuple[bool, float]:
    """Max Frobenius deviation over the n - 1 transpositions (1 j), j = 2..n.

    They generate S_n, so a state fixed by each of them is fixed by every
    relabelling and the verdict is the one over all n! relabellings. A
    non-invariant input may report a smaller worst deviation than the worst
    over all relabellings.
    """
    n = rho.qubits
    rows, cols, vals = rho.entries()
    worst = 0.0
    for j in range(2, n + 1):
        # (1 j) swaps the bits of qubits 1 and j: the relabelled state at (r, c)
        # is the state at (swap(r), swap(c)), and where that reads 0 the
        # relabelling holds the entry's value at the swapped place instead
        moved = values_at(rho.dim, (rows, cols, vals), swap_qubits(rows, n, 1, j), swap_qubits(cols, n, 1, j))
        diff = np.concatenate([moved - vals, vals[moved == 0]])
        worst = max(worst, float(np.linalg.norm(diff)))
    return worst < TOL.invariance, worst


@dataclass(frozen=True)
class BellDiagonalVerdict:
    w_max: float
    entangled: bool
    min_pt_eigenvalue: float
    ppt_verdicts: tuple[CutVerdict, ...]  # one Bell-diagonal form per label, in BELL_LABELS order


_PAIR_CUT = Bipartition.of((1,), 2)


def bell_diagonal_entangled(weights: NoisyWeights, ppt: float = TOL.ppt) -> BellDiagonalVerdict:
    """Largest-weight verdict w > 1/2, cross-checked against the PPT test.

    The rule and the Phi+ form's verdict must agree whenever w_max sits clearly
    off the 1/2 boundary; disagreement there raises, being an internal
    inconsistency. The verdicts of all four Bell-diagonal forms are returned.
    """
    w = weights.w_max
    rule = w > 0.5
    verdicts = tuple(_cut_verdicts([bell_diagonal(weights, label) for label in BELL_LABELS], [_PAIR_CUT], ppt))
    verdict = verdicts[0]
    if (not verdict.ppt) != rule and abs(w - 0.5) > 10 * ppt:
        raise AnalyzeError(
            f"w_max rule ({rule}) and PPT test ({not verdict.ppt}) disagree at w={w!r}"
        )
    return BellDiagonalVerdict(w, rule, verdict.min_eigenvalue, verdicts)


@dataclass(frozen=True)
class ActivationEvidence:
    keep: tuple[int, int]
    branch_count: int
    min_fidelity: float
    xor_rule_holds: bool
    all_branches_entangled: bool


@dataclass(frozen=True)
class Check:
    """One checklist line: a property, the state it was checked on, the verdict
    and the numbers behind it."""

    name: str
    state: str
    passed: bool
    detail: dict[str, float | int | bool | None]


def _completeness_error(states: list[DensityMatrix]) -> float:
    """max |sum_k 2**(n-2) states[k] - I|, the terms added in order, then I subtracted."""
    n = states[0].qubits
    scaled = [(r, c, 2 ** (n - 2) * v) for r, c, v in (s.entries() for s in states)]
    diag = np.arange(2**n)
    return float(np.abs(add_entries(2**n, scaled + [(diag, diag, -np.ones(2**n))])[2]).max(initial=0.0))


def _overlap(a: DensityMatrix, b: DensityMatrix) -> float:
    """max |(a b)[i, j]|: each entry (i, k) of a meets the entries (k, j) of b."""
    a_rows, a_cols, a_vals = a.entries()
    b_rows, b_cols, b_vals = b.entries()
    start = np.searchsorted(b_rows, a_cols)
    count = np.searchsorted(b_rows, a_cols, side="right") - start
    left = np.repeat(np.arange(a_cols.size), count)
    right = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
    prod = (a_rows[left], b_cols[right], a_vals[left] * b_vals[right])
    return float(np.abs(add_entries(a.dim, [prod])[2]).max(initial=0.0))


def _distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Frobenius distance over the union of the two supports."""
    b_rows, b_cols, b_vals = b.entries()
    return norm_of(add_entries(a.dim, [a.entries(), (b_rows, b_cols, -b_vals)])[2])


def check_family(n: int) -> tuple[dict[StateClass, DensityMatrix], list[Check]]:
    """The four class states built directly, and the checks on them as a family.

    Their projectors sum to the identity, they are mutually orthogonal, and
    the direct, recursive and Pauli constructions build the same states. Each
    check reads entries only, summed over the union of the supports involved.
    """
    direct = {cls: projector_direct(cls, n) for cls in STATE_CLASSES}
    err = _completeness_error(list(direct.values()))
    overlap = max(
        _overlap(direct[a], direct[b]) for a, b in itertools.combinations(STATE_CLASSES, 2)
    )
    checks = [
        Check("completeness", "all", err < TOL.equality, {"max_error": err}),
        Check("mutual-orthogonality", "all", overlap < TOL.equality, {"max_error": overlap}),
    ]
    recursive = recursive_family(n)
    for cls in STATE_CLASSES:
        rec = recursive[cls]
        pau = pauli_relate(direct[RHO_PLUS], cls)
        d = {
            "direct_vs_recursive": _distance(direct[cls], rec),
            "direct_vs_pauli": _distance(direct[cls], pau),
            "recursive_vs_pauli": _distance(rec, pau),
        }
        checks.append(Check("construction-triangle", cls.descriptor, max(d.values()) < TOL.equality, d))
    return direct, checks


@dataclass(frozen=True)
class StateEvidence:
    """Cut scan, qubit-swap symmetry and pair-vs-rest certificates of one state."""

    qubits: int
    cut_verdicts: tuple[CutVerdict, ...]
    permutation_invariant: bool
    max_permutation_deviation: float
    certificates: tuple[SeparabilityCertificate, ...]
    timings: dict[str, float] = field(repr=False, default_factory=dict)

    def cuts_of_size(self, k: int) -> list[CutVerdict]:
        """Verdicts on the cuts whose smaller side holds k qubits."""
        return [v for v in self.cut_verdicts if min(len(v.cut.left), len(v.cut.right)) == k]

    @property
    def has_npt_cut(self) -> bool:
        return any(not v.ppt for v in self.cut_verdicts)

    @property
    def two_vs_rest_ppt(self) -> bool:
        return all(v.ppt for v in self.cuts_of_size(2))

    @property
    def two_vs_rest_separable_certified(self) -> bool:
        return all(c.ok for c in self.certificates)

    def checks(self, state: str) -> list[Check]:
        """The evidence as checklist lines: symmetry, cut pattern, certificates."""
        ones = self.cuts_of_size(1)
        one_npt = all(not v.ppt for v in ones)
        scan = {
            "cuts": len(self.cut_verdicts),
            "two_vs_rest_ppt": self.two_vs_rest_ppt,
            "one_vs_rest_npt": one_npt,
            "one_vs_rest_negativity": ones[0].negativity if ones else None,
        }
        certs = {
            "pairs": len(self.certificates),
            "max_reconstruction_error": max(c.reconstruction_error for c in self.certificates),
        }
        symmetry = {"max_deviation": self.max_permutation_deviation}
        return [
            Check("permutation-invariance", state, self.permutation_invariant, symmetry),
            Check("cut-scan", state, self.two_vs_rest_ppt and one_npt, scan),
            Check("two-vs-rest-certificates", state, self.two_vs_rest_separable_certified, certs),
        ]


def certificate_pairs(n: int) -> list[tuple[int, int]]:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if n <= 6:
        return pairs
    # permutation invariance is verified separately; spot-check a spread
    return [(1, 2), (2, n - 1), (n - 1, n)]


def gather_evidence(rho: DensityMatrix, ppt: float = TOL.ppt) -> StateEvidence:
    """Cut scan, permutation invariance and pair certificates, timed per stage.

    Raises if a certificate proves a pair cut separable that the scan found NPT.
    """
    n = rho.qubits
    if n % 2 or n < 4:
        raise AnalyzeError(f"classification needs an even qubit count >= 4, got {n}")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    verdicts = tuple(scan_all_cuts(rho, ppt))
    timings["cut_scan"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    invariant, deviation = check_permutation_invariance(rho)
    timings["permutation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    certs = tuple(certify_pairs(rho, certificate_pairs(n)))
    timings["certificates"] = time.perf_counter() - t0

    npt_sides = {frozenset(side) for v in verdicts if not v.ppt for side in (v.cut.left, v.cut.right)}
    for cert in certs:
        if cert.ok and frozenset(cert.pair) in npt_sides:
            raise AnalyzeError(f"certificate for pair {cert.pair} contradicts NPT verdict")
    return StateEvidence(n, verdicts, invariant, deviation, certs, timings)


@dataclass(frozen=True, kw_only=True)
class AbeReport(StateEvidence):
    """A state's evidence plus the activation step and the overall verdict."""

    activation: ActivationEvidence
    activable: bool


def classify_abe(rho: DensityMatrix, ppt: float = TOL.ppt) -> AbeReport:
    """Full checklist: the state's evidence, then activation.

    activable requires an NPT cut, a PPT verdict plus certificate on every
    pair-vs-rest cut, permutation invariance, and protocol evidence that every
    unlock branch leaves the kept pair entangled.
    """
    evidence = gather_evidence(rho, ppt)

    t0 = time.perf_counter()
    unlock = protocol.unlock_sequential(rho, (1, 2))
    all_entangled = all(b.state is not None for b in unlock.branches)
    if all_entangled:
        # by entries: the paper's states leave four distinct branch states
        distinct = {b"".join(a.tobytes() for a in b.state.entries()): b.state for b in unlock.branches}
        all_entangled = not any(v.ppt for v in _cut_verdicts(list(distinct.values()), [_PAIR_CUT], ppt))
    activation = ActivationEvidence(
        unlock.keep, len(unlock.branches), unlock.min_fidelity, unlock.xor_rule_holds, all_entangled
    )
    timings = {**evidence.timings, "activation": time.perf_counter() - t0}

    activable = (
        evidence.has_npt_cut and evidence.two_vs_rest_ppt and evidence.permutation_invariant
        and evidence.two_vs_rest_separable_certified and all_entangled
    )
    fields = {**vars(evidence), "timings": timings}
    return AbeReport(**fields, activation=activation, activable=activable)

"""Bound-entangled projector states of 2N+2 qubits.

The Hilbert space of an even number of qubits splits into four orthogonal
subspaces whose normalized projectors (rho+, rho-, sigma+, sigma-) are
activable bound entangled: PPT and separable across every pair-vs-rest cut,
NPT across one-vs-rest cuts, and unlockable to a perfect Bell pair once the
other parties group or measure pairwise. This package constructs the states
(direct enumeration, Pauli conjugation, Bell-correlated recursion), runs the
activation protocols exactly, and verifies every claimed property.
"""

from .basis import (
    BELL_LABELS,
    BellLabel,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    bell_projector,
    bell_vector,
)
from .config import max_qubits
from .construct import (
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
)
from .linalg import (
    Bipartition,
    DensityMatrix,
    apply_qubit_permutation,
    dump_matrix,
    frobenius_distance,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    pt_spectra,
    tensor,
)
from .analyze import (
    AbeReport,
    CutVerdict,
    SeparabilityCertificate,
    bell_diagonal_entangled,
    certify_two_vs_rest_separable,
    check_permutation_invariance,
    classify_abe,
    is_ppt,
    scan_all_cuts,
)
from .protocol import (
    MeasurementOutcome,
    UnlockResult,
    bell_fidelity,
    best_bell,
    bell_measure,
    discriminate_subspace,
    unlock_sequential,
)

__version__ = "0.1.0"

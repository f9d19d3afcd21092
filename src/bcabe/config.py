"""Shared numerical thresholds and size limits.

The thresholds of the checks are one constant record, `TOL`, so the test
suite, the CLI and the library agree on what "equal" and "nonnegative" mean.
Only the PPT threshold is ever varied: `--tol-ppt` passes its value to the
functions that take a `ppt` argument, each of which defaults to `TOL.ppt`.
Four fixed margins stay outside the record: the rank cut 1e-8
(`cli.cmd_construct`), the weight sum 1e-12 (`construct.NoisyWeights`),
1e-10 * scale (`linalg._check_hermitian`) and the tie margin 1e-15
(`protocol.best_bell`).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

DEFAULT_MAX_QUBITS = 8
MAX_QUBITS_ENV = "BCABE_MAX_N"


@dataclass(frozen=True)
class _Tolerances:
    """Numerical thresholds, grouped by what they gate."""

    hermiticity: float = 1e-12      # max |M - M^dag| entry for Hermitian inputs
    equality: float = 1e-12        # Frobenius distance treated as "same matrix"
    ppt: float = 1e-10             # eigenvalue >= -ppt * max(1, ||PT||_1) counts as >= 0
    psd: float = 1e-10             # density-matrix eigenvalue floor
    trace: float = 1e-12           # |trace - 1| for normalized states
    probability: float = 1e-12     # measurement probabilities summing to one
    fidelity: float = 1e-10        # Bell fidelity treated as exactly 1
    certificate: float = 1e-10     # separable-decomposition reconstruction error
    invariance: float = 1e-10      # permutation-invariance Frobenius deviation
    eigen_offdiag: float = 1e-12   # Jacobi stop: off-diagonal Frobenius < this * ||M||
    eigen_residual: float = 1e-9   # ||M v - lambda v|| <= this * ||M|| per pair
    zero_probability: float = 1e-14  # branches below this are recorded without a state

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


TOL = _Tolerances()


def max_qubits() -> int:
    """Size ceiling for constructions; BCABE_MAX_N raises it (e.g. to 10)."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValueError(f"{MAX_QUBITS_ENV} must be >= 2, got {value}")
    return value

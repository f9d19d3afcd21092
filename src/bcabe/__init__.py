"""Bound-entangled projector states of 2N+2 qubits.

The Hilbert space of an even number of qubits splits into four orthogonal
subspaces whose normalized projectors (rho+, rho-, sigma+, sigma-) are
activable bound entangled: PPT and separable across every pair-vs-rest cut,
NPT across one-vs-rest cuts, and unlockable to a perfect Bell pair once the
other parties group or measure pairwise. This package constructs the states
(direct enumeration, Pauli conjugation, Bell-correlated recursion), runs the
activation protocols exactly, and verifies every claimed property. Each name
is imported from the module that defines it: `from bcabe.analyze import classify_abe`.
"""

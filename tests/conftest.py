import json
from pathlib import Path

import numpy as np
import pytest

from bcabe import construct
from bcabe.linalg import DensityMatrix

GOLDENS = Path(__file__).parent / "goldens" / "goldens.json"


@pytest.fixture(scope="session")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.fixture(scope="session")
def class_states():
    """All four class states at n = 4, 6, 8, built once."""
    return {
        (cls, n): construct.projector_direct(cls, n)
        for n in (4, 6, 8)
        for cls in construct.STATE_CLASSES
    }


def random_density_matrix(rng: np.random.Generator, qubits: int) -> DensityMatrix:
    dim = 2**qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(qubits, m / np.trace(m))


def read_dump(text: str) -> np.ndarray:
    """The matrix of a `dump_matrix` text: the header gives dim, the rows i j re im."""
    dim = int(text.split("\n", 1)[0].removeprefix("dim="))
    i, j, re, im = np.loadtxt(text.splitlines(), skiprows=1, ndmin=2, unpack=True)
    m = np.zeros((dim, dim), dtype=complex)
    m.real[i.astype(int), j.astype(int)] = re
    m.imag[i.astype(int), j.astype(int)] = im
    return m


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_sparse_hermitian(rng: np.random.Generator, qubits: int, density: float) -> np.ndarray:
    """A random Hermitian matrix with a symmetric pattern of about `density` nonzeros."""
    m = random_hermitian(rng, 2**qubits)
    keep = rng.random(m.shape) < density
    m[~(keep | keep.T)] = 0.0
    return m

import math

import numpy as np
import pytest

from skewshift.model import (
    TrigPoly1,
    TrigPoly2,
    default_theorem_model,
    derive_constants,
    model_from_dict,
    model_to_dict,
)
from skewshift.torus import GOLDEN_MEAN, Frequency, TorusPoint


@pytest.fixture(scope="session")
def theorem_model():
    return default_theorem_model()


@pytest.fixture(scope="session")
def tame_model():
    """Default model with lambda reduced so dense oracles stay in range."""
    d = model_to_dict(default_theorem_model())
    d["lambda"] = 2.0
    return model_from_dict(d)


# the keys of the archived records, pinned so that a new dataclass field
# cannot slip into the archive unnoticed
ESTIMATE_KEYS = {"n", "kind", "E", "value", "std_error", "sampler", "model_hash",
                 "seed"}
DEVIATION_KEYS = {"n", "E", "threshold", "measure", "ci_lo", "ci_hi", "samples",
                  "kind", "reference"}


def make_model(lam=2.0, a=None, v=None, omega=GOLDEN_MEAN, epsilon=0.05,
               theorem_mode=False):
    if a is None:
        a = TrigPoly1(((0, 1.5, 0.0), (1, 0.4, 0.0)))
    if v is None:
        v = TrigPoly2.cos_x()
    return derive_constants(a, v, lam, Frequency(omega, epsilon),
                            theorem_mode=theorem_mode)


def constant_model(a0=1.0, v0=0.0, lam=0.0, omega=GOLDEN_MEAN):
    return derive_constants(TrigPoly1.constant(a0), TrigPoly2.constant(v0),
                            lam, Frequency(omega, 0.05))


def dense_product(m, base, E, n):
    """Plain numpy oracle for the n-step transfer-matrix product."""
    from skewshift.cocycle import transfer_matrix

    out = np.eye(2)
    for j in range(1, n + 1):
        out = transfer_matrix(m, base, E, j) @ out
    return out


def random_points(rng, count):
    return [TorusPoint(float(x), float(y))
            for x, y in rng.random((count, 2))]


def tridiag_det(m, base, E, n):
    """Cofactor oracle: determinant of the n x n tridiagonal block."""
    from skewshift.cocycle import orbit_values

    a_vals, v_vals = orbit_values(m, base, n)
    J = np.zeros((n, n))
    for j in range(1, n + 1):
        J[j - 1, j - 1] = m.lam * v_vals[j] - E
    for j in range(2, n + 1):
        J[j - 1, j - 2] = a_vals[j]
        J[j - 2, j - 1] = a_vals[j]
    return float(np.linalg.det(J))


def logdiff(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1.0)

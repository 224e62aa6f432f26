"""Finite vector families realizing 'for all vectors' statements.

A statement about a sesquilinear form holds for every vector exactly when
it holds on a polarization family: the computational basis plus the
normalized pairwise sums e_i + e_j and e_i + i e_j, cross-checked with a
fixed-seed batch of random vectors.  The library itself no longer uses
them: verification and the global past split are closed-form.  They back
the tests' reference paths, which evaluate the conditions and aggregate
the pointwise past splits over these families.
"""

from __future__ import annotations

import numpy as np

STABILITY_SEED = 0x5AB1E
STABILITY_COUNT = 4


def spanning_family(dim: int) -> list[np.ndarray]:
    """Polarization family of size dim**2: {e_i} + {(e_i+e_j)/sqrt2} + {(e_i+ie_j)/sqrt2}."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    eye = np.eye(dim, dtype=np.complex128)
    fam = [eye[:, i].copy() for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            fam.append((eye[:, i] + eye[:, j]) / np.sqrt(2))
    for i in range(dim):
        for j in range(i + 1, dim):
            fam.append((eye[:, i] + 1j * eye[:, j]) / np.sqrt(2))
    return fam


def stability_vectors(dim: int, count: int = STABILITY_COUNT, seed: int = STABILITY_SEED) -> list[np.ndarray]:
    """Deterministic unit vectors used to cross-check family sufficiency."""
    rng = np.random.default_rng(seed + dim)
    out = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(v / np.linalg.norm(v))
    return out

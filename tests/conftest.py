"""Instance pools built once per session and shared across test modules."""

import numpy as np
import pytest

from helpers import square_two_slot_layout
from purecomb.builders import build_direct_sum, haar_unitary, random_pure_comb
from purecomb.twoslot import direct_sum_decompose


@pytest.fixture(scope="session")
def direct_sum_pool():
    """50 seeded orthogonal sums of independent A-first and B-first combs."""
    shapes = [(2, 2), (2, 4), (4, 2), (4, 4)]
    pool = []
    for seed in range(50):
        p_ab, p_ba = shapes[seed % len(shapes)]
        layout = square_two_slot_layout(p_ab, p_ba)
        u_ab = random_pure_comb(layout.with_dims(p_ab, p_ab).slot_chain("ab"), 3000 + seed)
        u_ba = random_pure_comb(layout.with_dims(p_ba, p_ba).slot_chain("ba"), 4000 + seed)
        rng = np.random.default_rng(5000 + seed)
        ep = haar_unitary(p_ab + p_ba, rng)
        ef = haar_unitary(p_ab + p_ba, rng)
        u = build_direct_sum(
            u_ab, u_ba, ep[:, :p_ab], ep[:, p_ab:], ef[:, :p_ab], ef[:, p_ab:], layout
        )
        pool.append((u, layout, (ep[:, :p_ab], ep[:, p_ab:], ef[:, :p_ab], ef[:, p_ab:])))
    return pool


@pytest.fixture(scope="session")
def decomposed_direct_sums(direct_sum_pool):
    return [(u, lay, emb, direct_sum_decompose(u, lay)) for u, lay, emb in direct_sum_pool]

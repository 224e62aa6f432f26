"""Shared test helpers: the vector-family reference for the reversibility
conditions, and the input transformations the metamorphic and perturbation
tests apply.

The family reference is the path the library once verified with: each
condition says reduced images stay orthogonal for every slot-output vector,
and it is evaluated on the polarization family of the wire plus a fixed
batch of random vectors, with one SVD image-and-reduce per vector (per pair
of vectors for the joint condition).  The library's closed-form checks must
reach the same verdicts.
"""

import numpy as np

from purecomb.builders import haar_unitary
from purecomb.families import spanning_family, stability_vectors
from purecomb.spaces import ORTHO_TOL, LinOp, Spaces
from purecomb.subspaces import (
    complement,
    from_spanning,
    image,
    orthogonality_residual,
    product_subspace,
    reduced_subspace,
)


def _family(dim):
    return spanning_family(dim) + stability_vectors(dim)


def _line(vec, factor):
    return from_spanning(vec.reshape(-1, 1), Spaces((factor,)))


def _split_overlap(factor, image_of, e_labels):
    """Worst overlap, over the family of one wire, between the reduced image
    of each vector's line and that of its orthocomplement."""
    worst = 0.0
    for alpha in _family(factor[1]):
        sub = _line(alpha, factor)
        r_a = reduced_subspace(image_of(sub), e_labels)
        r_perp = reduced_subspace(image_of(complement(sub)), e_labels)
        worst = max(worst, orthogonality_residual(r_a, r_perp))
    return worst


def family_residuals(u, layout):
    """'joint', 'a-side' and 'b-side' worst cross-overlaps of a two-slot unitary."""
    ai, bi = layout.a_in[0], layout.b_in[0]

    def v_of(a_part, b_part):
        return image(u, product_subspace([Spaces((layout.past,)), a_part, b_part]))

    a_full, b_full = Spaces((layout.a_out,)), Spaces((layout.b_out,))
    worst_joint = 0.0
    for alpha in _family(layout.a_out[1]):
        sub_a = _line(alpha, layout.a_out)
        for beta in _family(layout.b_out[1]):
            sub_b = _line(beta, layout.b_out)
            r1 = reduced_subspace(v_of(sub_a, sub_b), [ai, bi])
            r2 = reduced_subspace(v_of(complement(sub_a), complement(sub_b)), [ai, bi])
            worst_joint = max(worst_joint, orthogonality_residual(r1, r2))
    return {
        "joint": worst_joint,
        "a-side": _split_overlap(layout.a_out, lambda sub: v_of(sub, b_full), [ai]),
        "b-side": _split_overlap(layout.b_out, lambda sub: v_of(a_full, sub), [bi]),
    }


def family_slot_residuals(u, layout):
    """Per-slot worst cross-overlap of a unitary against an ordered chain."""
    out = []
    for n in range(1, layout.n_slots + 1):
        earlier = [layout.factor(2 * k + 1)[0] for k in range(n)]

        def image_of(sub, n=n):
            parts = [sub if i == n else Spaces((f,)) for i, f in enumerate(layout.even_factors())]
            return image(u, product_subspace(parts))

        out.append(_split_overlap(layout.factor(2 * n), image_of, earlier))
    return tuple(out)


def family_verdict(residuals, tol=ORTHO_TOL):
    return max(residuals, default=0.0) <= tol


def perturbed(u, eps, seed=0):
    """exp(i eps H) U for a seeded Hermitian H on the output space."""
    rng = np.random.default_rng(seed)
    n = u.data.shape[0]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh((g + g.conj().T) / 2)
    return LinOp(u.out_space, u.in_space, (v * np.exp(1j * eps * w)) @ v.conj().T @ u.data)


def locally_rotated(u, rng):
    """A Haar-random unitary on every factor of both sides, times a random
    global phase."""

    def local(space):
        out = np.eye(1)
        for d in space.dims:
            out = np.kron(out, haar_unitary(d, rng))
        return out

    phase = np.exp(2j * np.pi * rng.random())
    return LinOp(u.out_space, u.in_space, phase * local(u.out_space) @ u.data @ local(u.in_space))

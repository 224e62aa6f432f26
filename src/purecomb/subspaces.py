"""Numerical subspace calculus: spans, sums, intersections, complements,
orthogonality tests, and label-aware reduction of composite-space subspaces.

A subspace is an orthonormal column basis on its ambient space and nothing
else; ``from_spanning`` builds one from a matrix of coordinate columns and
the ambient space they live on.  Every function that decides a rank takes
the tolerance as an argument (singular values above tol * max(sigma_max, 1)
are kept); no subspace carries one on to the next call.  Bases are never
canonical; all comparisons downstream are projector or angle based.

In the package, spans, sums, complements and intersections serve the
pointwise future split of ``twoslot``, and ``orthogonality_residual`` the
overlap of its triples.  ``image``, ``product_subspace``,
``reduced_subspace`` and ``is_subset`` (with ``subset_residual`` under it)
have no library caller: they are the tests' SVD reference, kept here while
``bench/tracer.py`` wraps their names, and they move to the tests once its
``WRAPPED`` drops them.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Union

import numpy as np

from .spaces import TOL, LinOp, Spaces, _freeze, permute_systems


@dataclasses.dataclass(frozen=True)
class Subspace:
    ambient: Spaces
    basis: np.ndarray  # (ambient.dim, k) with orthonormal columns

    def __post_init__(self):
        arr = _freeze(self.basis)
        if arr.ndim != 2 or arr.shape[0] != self.ambient.dim:
            raise ValueError(f"basis shape {arr.shape} does not fit ambient dim {self.ambient.dim}")
        if arr.shape[1] > arr.shape[0]:
            raise ValueError("more basis columns than ambient dimension")
        if arr.shape[1]:
            gram_res = np.abs(arr.conj().T @ arr - np.eye(arr.shape[1])).max()
            if gram_res > 1e-10:
                raise ValueError(f"basis columns are not orthonormal (residual {gram_res:.2e})")
        object.__setattr__(self, "basis", arr)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def zero(ambient: Spaces) -> "Subspace":
        return Subspace(ambient, np.zeros((ambient.dim, 0)))

    @staticmethod
    def full(ambient: Spaces) -> "Subspace":
        return Subspace(ambient, np.eye(ambient.dim))


def _orthonormalize(mat: np.ndarray, dim: int, tol: float) -> np.ndarray:
    if mat.shape[1] == 0:
        return np.zeros((dim, 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0:
        return np.zeros((dim, 0), dtype=np.complex128)
    cut = tol * max(float(s[0]), 1.0)
    rank = int(np.sum(s > cut))
    return u[:, :rank]


def from_spanning(vectors: np.ndarray, ambient: Spaces, tol: float = TOL) -> Subspace:
    """Orthonormal basis of the column span of ``vectors``, a matrix whose
    columns are coordinates in ``ambient``.  Numerical rank counts singular
    values above tol * max(sigma_max, 1).
    """
    mat = np.asarray(vectors, dtype=np.complex128)
    return Subspace(ambient, _orthonormalize(mat, ambient.dim, tol))


def sum_subspaces(*parts: Subspace, tol: float = TOL) -> Subspace:
    if not parts:
        raise ValueError("need at least one subspace")
    ambient = parts[0].ambient
    for s in parts[1:]:
        if s.ambient != ambient:
            raise ValueError("subspace sum requires a common ambient space")
    mat = np.column_stack([s.basis for s in parts])
    return Subspace(ambient, _orthonormalize(mat, ambient.dim, tol))


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement within the ambient space: the last n - k left
    singular vectors of the orthonormal basis, so no rank is decided."""
    if s.dim == 0:
        return Subspace.full(s.ambient)
    u = np.linalg.svd(s.basis, full_matrices=True)[0]
    return Subspace(s.ambient, u[:, s.dim:])


def intersect(*parts: Subspace, tol: float = TOL) -> Subspace:
    """Intersection computed via the double-complement identity."""
    if not parts:
        raise ValueError("need at least one subspace")
    out = parts[0]
    for t in parts[1:]:
        out = complement(sum_subspaces(complement(out), complement(t), tol=tol))
    return out


def orthogonality_residual(s: Subspace, t: Subspace) -> float:
    if s.dim == 0 or t.dim == 0:
        return 0.0
    return float(np.abs(s.basis.conj().T @ t.basis).max())


def is_subset(s: Subspace, t: Subspace, tol: float = TOL) -> bool:
    return subset_residual(s, t) <= tol


def subset_residual(s: Subspace, t: Subspace) -> float:
    if s.dim == 0:
        return 0.0
    rem = s.basis - t.basis @ (t.basis.conj().T @ s.basis)
    return float(np.abs(rem).max())


def reduced_subspace(
    w: Subspace, e_labels: Sequence[str], f_labels: Sequence[str] | None = None, tol: float = TOL
) -> Subspace:
    """Span of all partial contractions of w against bras on the E factors.

    Contracting against the computational basis of E suffices: the
    contraction is antilinear in the bra, so these vectors span the same
    space as contractions against every vector of E.  The result lives on
    the remaining factors.
    """
    e = list(e_labels)
    rest = [lab for lab in w.ambient.labels if lab not in set(e)]
    if f_labels is not None and list(f_labels) != rest:
        if sorted(f_labels) != sorted(rest):
            raise ValueError(
                f"E/F labels do not partition the ambient factors: "
                f"{e} + {list(f_labels)} vs {w.ambient.labels}"
            )
        rest = list(f_labels)
    for lab in e:
        w.ambient.index(lab)
    f_space = w.ambient.select(rest)
    if w.dim == 0:
        return Subspace.zero(f_space)
    # columns ordered by basis column j, then E index: (rest..., j, E...)
    n = len(w.ambient)
    axes = [w.ambient.index(lab) for lab in rest] + [n] + [w.ambient.index(lab) for lab in e]
    mat = w.basis.reshape(w.ambient.dims + (w.dim,)).transpose(axes)
    return from_spanning(mat.reshape(f_space.dim, -1), f_space, tol)


def image(u: LinOp, s: Subspace, tol: float = TOL) -> Subspace:
    """Image of a subspace under an operator, re-orthonormalized."""
    if set(s.ambient.labels) != set(u.in_space.labels):
        raise ValueError(
            f"subspace ambient {s.ambient.labels} does not match operator input {u.in_space.labels}"
        )
    for lab, d in s.ambient.factors:
        if u.in_space.dim_of(lab) != d:
            raise ValueError(f"factor {lab!r} has mismatched dims")
    order = list(s.ambient.labels) + [
        lab for lab in u.out_space.labels if lab not in set(s.ambient.labels)
    ]
    op = permute_systems(u, order)
    return from_spanning(op.data @ s.basis, op.out_space, tol)


def product_subspace(parts: Sequence[Union[Subspace, Spaces]]) -> Subspace:
    """Tensor product of subspaces; a bare Spaces entry stands for the full factor."""
    subs = [p if isinstance(p, Subspace) else Subspace.full(p) for p in parts]
    ambient = subs[0].ambient
    basis = subs[0].basis
    for s in subs[1:]:
        ambient = ambient.concat(s.ambient)
        basis = np.kron(basis, s.basis)
    return Subspace(ambient, basis)

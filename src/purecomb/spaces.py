"""Labeled multipartite linear algebra over dense complex matrices.

Every operator and vector carries an explicit ordered list of labeled
tensor factors.  Basis ordering is row major throughout: the composite
index of per-factor indices (i_0, ..., i_{m-1}) is
sum_k i_k * prod(dims[k+1:]), which matches the numpy Kronecker product
convention.  All operations are pure; arrays are frozen after
construction.

``Vec`` and ``_permuted_vec`` carry vectors for ``permute_systems``,
``choi.choi_vector``, ``apply_op`` and ``contract_bra``.  The last two
have no library caller and stay while ``bench/tracer.py`` wraps their
names.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

TOL = 1e-8  # default of every ``tol``: max-norm residuals and rank cuts


@dataclasses.dataclass(frozen=True)
class Spaces:
    """Ordered list of labeled Hilbert-space factors.

    The empty list denotes the one-dimensional space C.  ``labels``,
    ``dims``, ``dim`` and the label-to-index map are computed once at
    construction and are not fields, so equality, hashing, repr and
    ``dataclasses.replace`` see ``factors`` only.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = tuple(lab for lab, _ in self.factors)
        positions = {lab: i for i, lab in enumerate(labels)}
        if len(positions) != len(labels):
            raise ValueError(f"duplicate factor labels in {list(labels)}")
        for lab, d in self.factors:
            if not isinstance(d, int) or d < 1:
                raise ValueError(f"factor {lab!r} has invalid dimension {d!r}")
        dims = tuple(d for _, d in self.factors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))
        object.__setattr__(self, "_positions", positions)

    @staticmethod
    def of(*factors) -> "Spaces":
        return Spaces(tuple((str(lab), int(d)) for lab, d in factors))

    def __len__(self) -> int:
        return len(self.factors)

    def has(self, label: str) -> bool:
        return label in self._positions

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r}; have {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.index(label)]

    def select(self, labels: Iterable[str]) -> "Spaces":
        """Sub-list of factors in the order given."""
        return Spaces(tuple(self.factors[self.index(lab)] for lab in labels))

    def without(self, labels: Iterable[str]) -> "Spaces":
        drop = set(labels)
        for lab in drop:
            self.index(lab)
        return Spaces(tuple(f for f in self.factors if f[0] not in drop))

    def concat(self, other: "Spaces") -> "Spaces":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise ValueError(f"label collision: {sorted(overlap)}")
        return Spaces(self.factors + other.factors)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclasses.dataclass(frozen=True)
class LinOp:
    """Dense complex matrix with explicit labeled input/output spaces."""

    out_space: Spaces
    in_space: Spaces
    data: np.ndarray  # shape (out_space.dim, in_space.dim)

    def __post_init__(self):
        arr = _freeze(self.data)
        if arr.shape != (self.out_space.dim, self.in_space.dim):
            raise ValueError(
                f"data shape {arr.shape} does not match spaces "
                f"({self.out_space.dim}, {self.in_space.dim})"
            )
        object.__setattr__(self, "data", arr)

    @property
    def all_labels(self) -> set[str]:
        return set(self.out_space.labels) | set(self.in_space.labels)


@dataclasses.dataclass(frozen=True)
class Vec:
    """Dense complex column vector on a labeled space."""

    space: Spaces
    data: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.data).reshape(-1)
        if arr.shape != (self.space.dim,):
            raise ValueError(f"data length {arr.shape[0]} != space dim {self.space.dim}")
        object.__setattr__(self, "data", arr)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


class UnitaryCheck(NamedTuple):
    ok: bool
    residual: float


def identity(spaces: Spaces) -> LinOp:
    return LinOp(spaces, spaces, np.eye(spaces.dim))


def adjoint(a: LinOp) -> LinOp:
    return LinOp(a.in_space, a.out_space, a.data.conj().T)


def kron(a: LinOp, b: LinOp) -> LinOp:
    """Tensor product; factor order is a's factors followed by b's."""
    if a.all_labels & b.all_labels:
        raise ValueError(f"label collision: {sorted(a.all_labels & b.all_labels)}")
    return LinOp(
        a.out_space.concat(b.out_space),
        a.in_space.concat(b.in_space),
        np.kron(a.data, b.data),
    )


def _permuted_vec(x: Vec, new_order: Sequence[str]) -> Vec:
    if sorted(new_order) != sorted(x.space.labels):
        raise ValueError(f"{list(new_order)} is not a permutation of {x.space.labels}")
    perm = [x.space.index(lab) for lab in new_order]
    data = x.data.reshape(x.space.dims).transpose(perm).reshape(-1)
    return Vec(x.space.select(new_order), data)


def permute_systems(x, new_order: Sequence[str]):
    """Reorder tensor factors; for operators the order applies to both sides.

    ``new_order`` must cover every label of ``x`` exactly once (for an
    operator, the union of input and output labels); each side picks out
    its own sub-order.
    """
    order = list(new_order)
    if len(set(order)) != len(order):
        raise ValueError(f"duplicated label in {order}")
    if isinstance(x, Vec):
        return _permuted_vec(x, order)
    known = x.all_labels
    unknown = [lab for lab in order if lab not in known]
    if unknown or set(order) != known:
        raise ValueError(f"{order} does not cover labels {sorted(known)}")
    out_order = [lab for lab in order if x.out_space.has(lab)]
    in_order = [lab for lab in order if x.in_space.has(lab)]
    m, k = len(x.out_space), len(x.in_space)
    perm_out = [x.out_space.index(lab) for lab in out_order]
    perm_in = [m + x.in_space.index(lab) for lab in in_order]
    data = x.data.reshape(x.out_space.dims + x.in_space.dims).transpose(perm_out + perm_in)
    new_out = x.out_space.select(out_order)
    new_in = x.in_space.select(in_order)
    return LinOp(new_out, new_in, data.reshape(new_out.dim, new_in.dim))


def partial_trace(a: LinOp, traced_labels: Iterable[str]) -> LinOp:
    """Trace out the listed factors of a square operator, its two sides
    carrying the same factors in any order; the rest keep the output order."""
    if dict(a.out_space.factors) != dict(a.in_space.factors):
        raise ValueError(f"operator is not square on matching factors: "
                         f"out {a.out_space.factors} vs in {a.in_space.factors}")
    traced = list(traced_labels)
    keep = [lab for lab in a.out_space.labels if lab not in set(traced)]
    b = permute_systems(a, keep + traced)
    sp = a.out_space.select(keep)
    t = b.out_space.dim // sp.dim
    return LinOp(sp, sp, np.einsum("aibi->ab", b.data.reshape(sp.dim, t, sp.dim, t)))


def contract_bra(phi: Vec, x: Vec) -> Vec:
    """Partial inner product <phi|_S x, linear in x and antilinear in phi."""
    sub = list(phi.space.labels)
    for lab in sub:
        if not x.space.has(lab):
            raise ValueError(f"label {lab!r} not present in target vector")
        if phi.space.dim_of(lab) != x.space.dim_of(lab):
            raise ValueError(f"factor {lab!r} has mismatched dims")
    rest = [lab for lab in x.space.labels if lab not in set(sub)]
    xp = _permuted_vec(x, sub + rest)
    mat = xp.data.reshape(phi.space.dim, -1)
    return Vec(x.space.select(rest), phi.data.conj() @ mat)


def compose(a: LinOp, b: LinOp, *, pad: bool = False) -> LinOp:
    """Operator product a after b, aligning factors by label.

    With ``pad=True``, factors missing on either interface pass through
    as identities: labels in b's output that a does not consume are
    appended to a, and labels a consumes that b does not produce are
    appended to b (and become inputs of the composite).
    """
    extra_a = [f for f in b.out_space.factors if not a.in_space.has(f[0])]
    extra_b = [f for f in a.in_space.factors if not b.out_space.has(f[0])]
    if (extra_a or extra_b) and not pad:
        raise ValueError(
            f"interfaces differ: b produces {b.out_space.labels}, a consumes {a.in_space.labels}"
        )
    if extra_a:
        a = kron(a, identity(Spaces(tuple(extra_a))))
    if extra_b:
        b = kron(b, identity(Spaces(tuple(extra_b))))
    for lab in a.in_space.labels:
        if a.in_space.dim_of(lab) != b.out_space.dim_of(lab):
            raise ValueError(f"factor {lab!r} has mismatched dims at the interface")
    order = list(a.in_space.labels) + [
        lab for lab in b.in_space.labels if lab not in set(a.in_space.labels)
    ]
    b = permute_systems(b, order)
    return LinOp(a.out_space, b.in_space, a.data @ b.data)


def apply_op(a: LinOp, x: Vec) -> Vec:
    """Matrix-vector product with label alignment."""
    if set(x.space.labels) != set(a.in_space.labels):
        raise ValueError(f"vector labels {x.space.labels} do not match input {a.in_space.labels}")
    xp = _permuted_vec(x, list(a.in_space.labels))
    return Vec(a.out_space, a.data @ xp.data)


def is_unitary(a: LinOp, tol: float = TOL) -> UnitaryCheck:
    """Max-norm check of A†A = I; non-square operators fail with residual inf."""
    if a.data.shape[0] != a.data.shape[1]:
        return UnitaryCheck(False, float("inf"))
    res = float(np.abs(a.data.conj().T @ a.data - np.eye(a.data.shape[1])).max())
    return UnitaryCheck(res <= tol, res)


def phase_distance(a: LinOp, b: LinOp) -> float:
    """Max-norm distance between a and b after optimal global-phase alignment."""
    if set(a.out_space.labels) != set(b.out_space.labels) or set(a.in_space.labels) != set(
        b.in_space.labels
    ):
        raise ValueError("operators act on different label sets")
    b = permute_systems(b, list(a.out_space.labels) + [
        lab for lab in a.in_space.labels if lab not in set(a.out_space.labels)
    ])
    overlap = np.trace(a.data.conj().T @ b.data)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.abs(a.data - b.data / phase).max())

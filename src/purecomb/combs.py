"""Causally ordered slotted maps: verification at the Choi and unitary
levels, and the constructive staircase factorization of reversible combs.

A comb with N slots is a chain H_0 -> slot 1 -> ... -> slot N -> H_{2N+1}.
A reversible comb's representing operator factorizes into N+1 unitaries
U_0 .. U_N threaded by ancilla wires of integer dimensions k_n satisfying
d_{2n} k_n = d_{2n+1} k_{n+1} with k_0 = k_{N+1} = 1.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence

import numpy as np

from .choi import ChoiOp
from .errors import VerificationError
from .layouts import SlotLayout
from .spaces import (
    TOL,
    LinOp,
    Spaces,
    compose,
    identity,
    is_unitary,
    kron,
    partial_trace,
    permute_systems,
)


@dataclasses.dataclass(frozen=True)
class CombCircuit:
    """Staircase realization U_N ... U_1 U_0 of a reversible comb.

    Element n maps the slot-n output wire (plus the incoming ancilla when
    k_n > 1) to the next slot-input wire (plus the outgoing ancilla when
    k_{n+1} > 1).  Trivial ancillas are not materialized as factors.
    """

    layout: SlotLayout
    elements: tuple[LinOp, ...]
    ancilla_dims: tuple[int, ...]   # k_0 .. k_{N+1}
    ancilla_labels: tuple[str, ...]  # labels reserved for A_1 .. A_N
    tol: float = TOL  # every element must be unitary within it

    def __post_init__(self):
        n = self.layout.n_slots
        if len(self.elements) != n + 1 or len(self.ancilla_dims) != n + 2:
            raise ValueError("element/ancilla counts do not match the layout")
        if self.ancilla_dims[0] != 1 or self.ancilla_dims[-1] != 1:
            raise ValueError("outer ancilla dimensions must be 1")
        dims = self.layout.dims
        for m in range(n + 1):
            if dims[2 * m] * self.ancilla_dims[m] != dims[2 * m + 1] * self.ancilla_dims[m + 1]:
                raise ValueError(
                    f"dimension chain broken at element {m}: "
                    f"{dims[2 * m]}*{self.ancilla_dims[m]} != {dims[2 * m + 1]}*{self.ancilla_dims[m + 1]}"
                )
        for m, el in enumerate(self.elements):
            ok, res = is_unitary(el, self.tol)
            if not ok:
                raise ValueError(f"element {m} is not unitary (residual {res:.2e})")


@dataclasses.dataclass(frozen=True)
class CombUnitaryReport:
    ok: bool
    max_residual: float
    per_slot: tuple[float, ...]  # signalling residual per slot, index 1..N


@dataclasses.dataclass(frozen=True)
class CombChoiReport:
    ok: bool
    hermiticity_residual: float
    min_eigenvalue: float
    level_residuals: tuple[float, ...]  # factorization residual per level n = 0..N
    normalization_residual: float

    @property
    def max_residual(self) -> float:
        worst = max(self.level_residuals) if self.level_residuals else 0.0
        return max(self.hermiticity_residual, max(0.0, -self.min_eigenvalue),
                   worst, self.normalization_residual)


def signalling_components(u: LinOp, wire: str, reached: Sequence[str]) -> Iterator[LinOp]:
    """The operators C - I_reached (x) Tr_reached(C) / d_reached, where
    C = U (|a><a'|_wire (x) I) U^dagger, for the basis pairs a <= a' of the
    input ``wire``: all vanish exactly when the output on ``reached`` ignores
    what enters on ``wire``.  C(a', a) = C(a, a')^dagger, so only a <= a' is
    formed.  Each lives on the output factors ordered reached first, then
    the rest in ``u``'s order.
    """
    rest_out = [lab for lab in u.out_space.labels if lab not in set(reached)]
    rest_in = [lab for lab in u.in_space.labels if lab != wire]
    op = permute_systems(u, [wire, *rest_in, *reached, *rest_out])
    d_w, d_r = op.in_space.dim_of(wire), op.out_space.select(reached).dim
    cols = op.data.reshape(op.out_space.dim, d_w, -1)
    for a, a2 in itertools.combinations_with_replacement(range(d_w), 2):
        c = (cols[:, a] @ cols[:, a2].conj().T).reshape(d_r, -1, d_r, op.out_space.dim // d_r)
        part = np.einsum("isit->st", c) / d_r
        for i in range(d_r):
            c[i, :, i, :] -= part
        yield LinOp(op.out_space, op.out_space, c.reshape(op.out_space.dim, -1))


def signalling_residual(u: LinOp, wire: str, reached: Sequence[str]) -> float:
    """Max-abs of the ``signalling_components``: 0 exactly when the output
    on ``reached`` ignores what enters on ``wire``."""
    return max(float(np.abs(k.data).max()) for k in signalling_components(u, wire, reached))


def verify_pure_comb_unitary(
    u: LinOp, layout: SlotLayout, tol: float = TOL
) -> CombUnitaryReport:
    """Causal-order check of a unitary against an ordered slot layout.

    Slot n's output wire must not signal to the slot-input wires already
    produced, H_1, H_3, .., H_{2n-1}: its per-slot residual is the
    ``signalling_residual`` of that wire.  Vacuously true for zero slots.
    The identity characterizes reversible combs only for unitaries, so a
    non-unitary operator is rejected as malformed (ValueError).
    """
    ok_u, res_u = is_unitary(u, tol)
    if not ok_u:
        raise ValueError(f"operator is not unitary (residual {res_u:.2e})")
    layout.check_operator(u)
    inputs = [lab for lab, _ in layout.odd_factors()]
    per_slot = tuple(signalling_residual(u, layout.factor(2 * n)[0], inputs[:n])
                     for n in range(1, layout.n_slots + 1))
    worst_all = max(per_slot) if per_slot else 0.0
    return CombUnitaryReport(worst_all <= tol, worst_all, per_slot)


def verify_comb_choi(r, layout: SlotLayout, tol: float = TOL) -> CombChoiReport:
    """Positivity plus the tower of trace factorization conditions.

    At level n the trace over the output wires above the level must be an
    identity on the input wires above the level times a reduced operator;
    the level-0 reduced operator must be the scalar 1.
    """
    op = r.op if isinstance(r, ChoiOp) else r
    if op.out_space != op.in_space:
        raise ValueError("a Choi operator must be square on one space")
    want = {lab: d for lab, d in layout.factors}
    have = {lab: op.out_space.dim_of(lab) for lab in op.out_space.labels}
    if want != have:
        raise ValueError(f"Choi factors {have} do not match layout {want}")
    choi = ChoiOp(op, layout.labels[0::2], layout.labels[1::2])
    herm, min_eig = choi.hermiticity_residual(), choi.min_eigenvalue()
    n_slots = layout.n_slots
    residuals = [0.0] * (n_slots + 1)
    norm_res = 0.0
    for n in range(n_slots, -1, -1):
        traced_out = [layout.factor(2 * k + 1)[0] for k in range(n, n_slots + 1)]
        level = partial_trace(op, traced_out)
        id_factors = [layout.factor(2 * k)[0] for k in range(n, n_slots + 1)]
        id_space = level.out_space.select(id_factors)
        reduced = partial_trace(level, id_factors)
        reduced = LinOp(reduced.out_space, reduced.in_space, reduced.data / id_space.dim)
        lifted = kron(reduced, identity(id_space))
        lifted = permute_systems(lifted, list(level.out_space.labels))
        residuals[n] = float(np.abs(level.data - lifted.data).max())
        if n == 0:
            norm_res = float(abs(reduced.data[0, 0] - 1.0))
    ok = (
        herm <= tol
        and min_eig >= -tol
        and max(residuals) <= tol
        and norm_res <= tol
    )
    return CombChoiReport(ok, herm, min_eig, tuple(residuals), norm_res)


def ancilla_labels(layout: SlotLayout) -> tuple[str, ...]:
    """Labels reserved for the ancilla wires A_1 .. A_N: 'anc<n>', prefixed
    with underscores until it clashes with no layout or earlier ancilla label."""
    taken = set(layout.labels)
    labels = []
    for m in range(1, layout.n_slots + 1):
        lab = f"anc{m}"
        while lab in taken:
            lab = "_" + lab
        taken.add(lab)
        labels.append(lab)
    return tuple(labels)


def _projector_range(m: np.ndarray, tol: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Range and kernel, one frame, of a Hermitian ``m`` (0 x 0 allowed); every
    eigenvalue must lie within ``tol`` of 0 or 1 (the error names ``what``)."""
    w, v = np.linalg.eigh(m)
    worst = float(np.minimum(np.abs(w), np.abs(w - 1)).max(initial=0.0))
    if worst > tol:
        raise VerificationError(f"{what} is not a projector: an eigenvalue is {worst:.2e} off 0/1")
    return v[:, w > 0.5], v[:, w <= 0.5]


def staircase_decompose(u: LinOp, layout: SlotLayout, tol: float = TOL) -> CombCircuit:
    """Factor a reversible comb into its staircase of unitaries.

    Peels the last slot at each step.  With the slot fed a fixed basis
    state, Tr_inner[U (I_past (x) |0><0|_slot) U^dagger] / d_inner is the
    projector onto the future support of the next element (Chiribella,
    D'Ariano & Perinotti, PRL 101, 060401 (2008)); its range (one ``eigh``
    at ``tol``) has rank k, checked against the integer quotient of the wire
    dimensions.  Every element is a slice of the current operator contracted
    with that eigenbasis, a gauge choice: deterministic for a fixed numpy/
    BLAS build, but ulp-level input changes can move it where eigenvalues
    are degenerate.  Recomposition reproduces the input up to a global
    phase, with these ``ancilla_dims``.
    """
    report = verify_pure_comb_unitary(u, layout, tol)
    if not report.ok:
        raise VerificationError(
            f"operator is not a reversible comb for this layout "
            f"(worst signalling residual {report.max_residual:.2e})"
        )
    n_slots = layout.n_slots
    anc_labels = ancilla_labels(layout)
    if n_slots == 0:
        return CombCircuit(layout, (u,), (1, 1), (), tol)

    cur = permute_systems(
        u, [lab for lab, _ in layout.even_factors()] + [lab for lab, _ in layout.odd_factors()]
    )
    elements: list[LinOp] = []
    ks = [1] * (n_slots + 2)
    future_factors = [layout.factor(2 * n_slots + 1)]
    for m in range(n_slots, 0, -1):
        past_space = Spaces(layout.even_factors()[:m])
        slot_out_factor = layout.factor(2 * m)
        inner_out_space = Spaces(layout.odd_factors()[:m])
        future_space = Spaces(tuple(future_factors))
        d_past, d_inner = past_space.dim, inner_out_space.dim
        if d_past % d_inner != 0:
            raise VerificationError(
                f"wire dimensions at slot {m} admit no integer ancilla: {d_past} / {d_inner}"
            )
        k = d_past // d_inner
        # t[i, f, p, a] = <i, f| U |p, a>: inner outputs, future, past, slot output
        t = cur.data.reshape(d_inner, future_space.dim, d_past, slot_out_factor[1])

        # range of Tr_inner of the image of (past (x) |0> on the slot wire):
        # its rank gives k, its columns are the new |x, 0> future basis
        v0 = t[..., 0].transpose(1, 0, 2).reshape(future_space.dim, -1)
        f_basis = _projector_range(v0 @ v0.conj().T / d_inner, tol, f"Tr_inner at slot {m}")[0]
        if f_basis.shape[1] != k:
            raise VerificationError(f"reduced rank {f_basis.shape[1]} at slot {m} contradicts the "
                                    f"exact quotient {k}; the input is not a reversible comb for "
                                    f"this layout")

        # new past basis <0|_slot U^dagger |i, x>, column i * k + x
        p_mat = np.einsum("ifp,fx->pix", t[..., 0].conj(), f_basis).reshape(d_past, -1)
        # element <0|_inner U |p_x, a>, column a * k + x: only the i = 0
        # columns of the new past basis are needed here
        f_cols = np.einsum("fpa,px->fax", t[0], p_mat[:, :k]).reshape(future_space.dim, -1)

        anc = Spaces(((anc_labels[m - 1], k),)) if k > 1 else Spaces(())
        el_in = Spaces((slot_out_factor,)).concat(anc)
        elements.append(LinOp(future_space, el_in, f_cols))
        ks[m] = k

        new_out = inner_out_space.concat(anc)
        cur = LinOp(new_out, past_space, p_mat.conj().T)
        future_factors = [layout.factor(2 * m - 1)] + list(anc.factors)

    elements.append(cur)  # U_0
    elements.reverse()
    return CombCircuit(layout, tuple(elements), tuple(ks), anc_labels, tol)


def compose_staircase(c: CombCircuit) -> LinOp:
    """Multiply the staircase elements with identity padding on spectators."""
    acc = c.elements[0]
    for el in c.elements[1:]:
        acc = compose(el, acc, pad=True)
    even_labels = [lab for lab, _ in c.layout.even_factors()]
    odd_labels = [lab for lab, _ in c.layout.odd_factors()]
    if set(acc.in_space.labels) != set(even_labels) or set(acc.out_space.labels) != set(odd_labels):
        raise ValueError(
            f"staircase does not close onto the layout wires: "
            f"{acc.in_space.labels} -> {acc.out_space.labels}"
        )
    return permute_systems(acc, even_labels + odd_labels)

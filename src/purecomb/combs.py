"""Causally ordered slotted maps: verification at the Choi and unitary
levels, and the constructive staircase factorization of reversible combs.

A comb with N slots is a chain H_0 -> slot 1 -> ... -> slot N -> H_{2N+1}.
A reversible comb's representing operator factorizes into N+1 unitaries
U_0 .. U_N threaded by ancilla wires of integer dimensions k_n satisfying
d_{2n} k_n = d_{2n+1} k_{n+1} with k_0 = k_{N+1} = 1.

A unitary comb is verified by one no-signalling identity per slot
(``signalling_residual``), formed only on the output indices that each
input basis state reaches: the rest are exactly 0 (``_live``).

Every verification here and in ``twoslot`` returns one ``Verdict``: its
``ok`` and its named residuals, the keys the CLI prints.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence

import numpy as np

from .choi import _TILE, ChoiOp
from .errors import VerificationError
from .layouts import SlotLayout
from .spaces import (
    TOL,
    LinOp,
    Spaces,
    compose,
    is_unitary,
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
        if len(self.elements) != self.layout.n_slots + 1:
            raise ValueError("element count does not match the layout")
        chain = ancilla_chain(self.layout)
        if tuple(self.ancilla_dims) != chain:
            raise ValueError(f"ancilla dims {tuple(self.ancilla_dims)} are not the layout's "
                             f"chain {chain}")
        for m, el in enumerate(self.elements):
            ok, res = is_unitary(el, self.tol)
            if not ok:
                raise ValueError(f"element {m} is not unitary (residual {res:.2e})")


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Outcome of a verification: whether the input is in the class, and
    the max-norm residuals it was decided by, keyed as the CLI prints them."""

    ok: bool
    residuals: dict


def _live(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """``x`` without the indices along ``axis`` where it is 0 throughout, or
    ``x`` itself, uncopied, if there are none: the one zero-index rule of
    the max-abs residuals, whose entries at such an index are exactly 0."""
    keep = np.any(x, axis=tuple(k for k in range(x.ndim) if k != axis))
    return x if keep.all() else x.compress(keep, axis=axis)


def _signalling_rows(u: LinOp, wire: str, reached: Sequence[str]) -> list[np.ndarray]:
    """Per basis state a of the input ``wire``, x_a[i, s, y] = <i, s| U |a, y>:
    i over ``reached``, s and y over the other outputs and inputs."""
    rest_out = [lab for lab in u.out_space.labels if lab not in set(reached)]
    rest_in = [lab for lab in u.in_space.labels if lab != wire]
    op = permute_systems(u, [wire, *rest_in, *reached, *rest_out])
    d_w, d_r = op.in_space.dim_of(wire), op.out_space.select(reached).dim
    x = op.data.reshape(d_r, op.out_space.dim // d_r, d_w, -1)
    return [x[:, :, a] for a in range(d_w)]


def _signalling(xs: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """k[i, s, i', s'] of C - I_reached (x) Tr_reached(C) / d_reached,
    C = x_a x_a'^dagger, for row arrays x_a[i, s, y] and each pair a <= a'
    (C(a', a) = C(a, a')^dagger); an x_a may keep any subset of its s:
    ``signalling_residual`` cuts each to its own live s, ``twoslot``'s
    ``_joint_residual`` all to the s live in some a, ``_past_rows`` none."""
    for x, x2 in itertools.combinations_with_replacement(xs, 2):
        d_r, n, n2 = len(x), x.shape[1], x2.shape[1]
        c = (x.reshape(d_r * n, -1) @ x2.reshape(d_r * n2, -1).conj().T).reshape(d_r, n, d_r, n2)
        part = np.einsum("isit->st", c) / d_r
        # c[i, :, i, :] for every i, as one view of c
        diagonal = np.einsum("isit->ist", c)
        diagonal -= part
        yield c


def signalling_residual(u: LinOp, wire: str, reached: Sequence[str]) -> float:
    """Max-abs of the ``_signalling`` components: 0 exactly when the output
    on ``reached`` ignores what enters on ``wire``.  Component (a, a') is 0
    outside S_a x S_a', S_a the indices s where x_a is not 0, its Tr_reached
    correction included, so each x_a is cut to S_a (``_live``) first."""
    xs = [_live(x, axis=1) for x in _signalling_rows(u, wire, reached)]
    return max(float(np.abs(k).max(initial=0.0)) for k in _signalling(xs))


def verify_pure_comb_unitary(
    u: LinOp, layout: SlotLayout, tol: float = TOL
) -> Verdict:
    """Causal-order check of a unitary against an ordered slot layout.

    Slot n's output wire must not signal to the slot-input wires already
    produced, H_1, H_3, .., H_{2n-1}: its residual 'slot-n' is the
    ``signalling_residual`` of that wire.  Vacuously true for zero slots.
    The identity characterizes reversible combs only for unitaries, so a
    non-unitary operator is rejected as malformed (ValueError).
    """
    ok_u, res_u = is_unitary(u, tol)
    if not ok_u:
        raise ValueError(f"operator is not unitary (residual {res_u:.2e})")
    layout.check_operator(u)
    # in the layout's input-then-output order (a view if u is): no residual
    # depends on the file's factor order
    u = permute_systems(u, [*layout.labels[0::2], *layout.labels[1::2]])
    inputs = [lab for lab, _ in layout.odd_factors()]
    residuals = {f"slot-{n}": signalling_residual(u, layout.factor(2 * n)[0], inputs[:n])
                 for n in range(1, layout.n_slots + 1)}
    return Verdict(max(residuals.values(), default=0.0) <= tol, residuals)


def verify_comb_choi(r, layout: SlotLayout, tol: float = TOL) -> Verdict:
    """Positivity plus the tower of trace factorization conditions.

    At level n the trace over the output wires above the level must be an
    identity on the input wires above the level times a reduced operator
    ('level-n'); the level-0 reduced operator must be the scalar 1
    ('normalization').  'hermiticity' and the signed 'min-eigenvalue'
    complete the residuals (``_hermitian_checks``): the verdict needs the
    eigenvalue >= -tol and every other residual <= tol.  Both sides must
    carry the layout's factors, in any order.
    """
    op = r.op if isinstance(r, ChoiOp) else r
    want = dict(layout.factors)
    for side in (op.out_space, op.in_space):
        if dict(side.factors) != want:
            raise ValueError(f"Choi factors {dict(side.factors)} do not match layout {want}")
    herm, min_eig = _hermitian_checks(op, [*layout.labels[0::2], *layout.labels[1::2]])
    residuals = {}
    for n in range(layout.n_slots + 1):
        level = partial_trace(op, layout.labels[2 * n + 1::2])
        ids = list(layout.labels[2 * n::2])
        rest = [lab for lab in level.out_space.labels if lab not in ids]
        level = permute_systems(level, rest + ids)
        reduced = partial_trace(level, ids)
        d_rest = reduced.out_space.dim
        d_ids = level.out_space.dim // d_rest
        reduced = reduced.data / d_ids
        # level viewed as (rest, ids, rest, ids) against reduced (x) I_ids
        view = level.data.reshape(d_rest, d_ids, d_rest, d_ids)
        lifted = reduced[:, None, :, None] * np.eye(d_ids)[None, :, None, :]
        residuals[f"level-{n}"] = float(np.abs(view - lifted).max())
        if n == 0:
            norm_res = float(abs(reduced[0, 0] - 1.0))
    residuals.update({"hermiticity": herm, "min-eigenvalue": min_eig, "normalization": norm_res})
    ok = min_eig >= -tol and all(r <= tol for key, r in residuals.items() if key != "min-eigenvalue")
    return Verdict(ok, residuals)


def _hermitian_checks(op: LinOp, order: Sequence[str]) -> tuple[float, float]:
    """max |A - A^dagger| and the lowest eigenvalue of (A + A^dagger) / 2, A
    one writable copy of ``op`` with both sides in ``order``.  One walk over
    the _TILE x _TILE tile pairs x = A[I, J], y = A[J, I], I <= J, through
    one complex and one real tile buffer, reads the residual and sets x and
    y to (x + y^dagger) / 2 and its adjoint; ``eigvalsh`` then reads A."""
    m, n, t = len(op.out_space), op.out_space.dim, min(_TILE, op.out_space.dim)
    axes = [op.out_space.index(lab) for lab in order] + [m + op.in_space.index(lab) for lab in order]
    a = op.data.reshape(op.out_space.dims + op.in_space.dims).transpose(axes).copy().reshape(n, n)
    buf, mag, worst = np.empty((t, t), np.complex128), np.empty((t, t)), 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            x, y = a[i:i + _TILE, j:j + _TILE], a[j:j + _TILE, i:i + _TILE]
            c, r = buf[:x.shape[0], :x.shape[1]], mag[:x.shape[0], :x.shape[1]]
            np.subtract(x, np.conjugate(y.T, out=c), out=c)
            worst = np.maximum(worst, np.abs(c, out=r).max())
            np.add(x, np.conjugate(y.T, out=c), out=c)
            c /= 2
            x[...] = c
            np.conjugate(c.T, out=y)
    del buf, mag
    return float(worst), float(np.linalg.eigvalsh(a)[0])


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


def ancilla_chain(layout: SlotLayout) -> tuple[int, ...]:
    """The unique ancilla dimensions k_0 .. k_{N+1} compatible with the wire
    dimensions, or an error when no integer chain exists."""
    dims = layout.dims
    ks = [1]
    for m in range(layout.n_slots + 1):
        num = dims[2 * m] * ks[m]
        if num % dims[2 * m + 1] != 0:
            raise ValueError(f"no integer ancilla chain: {num} is not divisible by {dims[2 * m + 1]}")
        ks.append(num // dims[2 * m + 1])
    if ks[-1] != 1:
        raise ValueError(f"ancilla chain does not close: k_N+1 = {ks[-1]}")
    return tuple(ks)


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
    at ``tol``) has rank k, checked against k_m of ``ancilla_chain``, the
    integer quotient of the wire dimensions.  Every element is a slice of
    the current operator contracted with that eigenbasis, a gauge choice:
    deterministic for a fixed numpy/BLAS build, but ulp-level input changes
    can move it where eigenvalues are degenerate.  Recomposition reproduces
    the input up to a global phase, with these ``ancilla_dims``.
    """
    report = verify_pure_comb_unitary(u, layout, tol)
    if not report.ok:
        raise VerificationError(
            f"operator is not a reversible comb for this layout "
            f"(worst signalling residual {max(report.residuals.values()):.2e})"
        )
    return _peel(u, layout, tol)


def _peel(u: LinOp, layout: SlotLayout, tol: float) -> CombCircuit:
    """The staircase of ``staircase_decompose``, for a ``u`` that has passed
    ``verify_pure_comb_unitary`` against ``layout`` at ``tol``."""
    try:
        ks = ancilla_chain(layout)
    except ValueError as exc:
        raise VerificationError(f"wire dimensions admit no integer ancilla chain: {exc}") from None
    n_slots = layout.n_slots
    anc_labels = ancilla_labels(layout)

    cur = permute_systems(
        u, [lab for lab, _ in layout.even_factors()] + [lab for lab, _ in layout.odd_factors()]
    )
    elements: list[LinOp] = []
    future_factors = [layout.factor(2 * n_slots + 1)]
    for m in range(n_slots, 0, -1):
        past_space = Spaces(layout.even_factors()[:m])
        slot_out_factor = layout.factor(2 * m)
        inner_out_space = Spaces(layout.odd_factors()[:m])
        future_space = Spaces(tuple(future_factors))
        d_past, d_inner, k = past_space.dim, inner_out_space.dim, ks[m]
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

        new_out = inner_out_space.concat(anc)
        cur = LinOp(new_out, past_space, p_mat.conj().T)
        future_factors = [layout.factor(2 * m - 1)] + list(anc.factors)

    elements.append(cur)  # U_0
    elements.reverse()
    return CombCircuit(layout, tuple(elements), ks, anc_labels, tol)


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

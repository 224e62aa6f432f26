"""Operator representations of maps and higher-order maps: vectorization,
the label-matched link product, and plugging slot unitaries into a
representing operator.

The vectorization of A : H_in -> H_out is sum_i |i> (x) A|i>, living on
the concatenation in (x) out.  Link-product and plugging contractions are
matched by factor label, never by position: each sums the legs two
operators share, with the operators reshaped to one axis per factor and
side, as one matrix product of the two permuted operands.  No
identity-padded operator is formed, so a contraction costs the size of its
result times the dimension it sums over, and holds nothing larger than its
operands and its result.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .layouts import SlotLayout
from .spaces import LinOp, Spaces, Vec


# rows and columns of one tile of combs' Hermitian pass and of twoslot's
# C + C^dagger: 256^2 complex entries, 1 MiB
_TILE = 256


@dataclasses.dataclass(frozen=True)
class ChoiOp:
    """Square operator on map-input (x) map-output factors, with role metadata.

    Neither positivity nor a trace condition is imposed: intermediate link
    results are legitimately non-TP; ``combs.verify_comb_choi`` checks both.
    """

    op: LinOp
    map_in: tuple[str, ...]
    map_out: tuple[str, ...]

    def __post_init__(self):
        if self.op.out_space != self.op.in_space:
            raise ValueError("a Choi operator must be square on one space")
        have = set(self.op.out_space.labels)
        declared = set(self.map_in) | set(self.map_out)
        if declared != have or set(self.map_in) & set(self.map_out):
            raise ValueError(
                f"roles {self.map_in} / {self.map_out} do not partition factors {sorted(have)}"
            )

    @property
    def space(self) -> Spaces:
        return self.op.out_space


def choi_vector(a: LinOp) -> Vec:
    """Vectorization on in_space (x) out_space; norm² equals Tr(A†A)."""
    space = a.in_space.concat(a.out_space)
    return Vec(space, a.data.T.reshape(-1))


def choi_of_unitary(u: LinOp) -> ChoiOp:
    """Rank-1 Choi operator of the map rho -> U rho U†."""
    v = choi_vector(u)
    op = LinOp(v.space, v.space, np.outer(v.data, v.data.conj()))
    return ChoiOp(op, tuple(u.in_space.labels), tuple(u.out_space.labels))


def link_product(e: ChoiOp, f: ChoiOp) -> ChoiOp:
    """Contract two Choi operators over their shared labels.

    With s the shared factors, e and f the rest of each operand,
    (E * F)[e,f; e',f'] = sum over s, s' of E[e,s; e',s'] F[s,f; s',f']:
    one matrix product of the operators reshaped to tensors (``_contract``),
    equal to the trace over s of (E (x) I_f)(I_e (x) F^{T_s}) without
    forming either padded factor.  Its cost is the result size times the
    shared dimension squared.  The result's factors are e's in e's order, then f's in f's
    order; commutative up to that reordering.
    """
    shared = [lab for lab in e.space.labels if f.space.has(lab)]
    for lab in shared:
        if e.space.dim_of(lab) != f.space.dim_of(lab):
            raise ValueError(f"shared label {lab!r} has conflicting dims")
    space = e.space.without(shared).concat(f.space.without(shared))

    def legs(labels):
        return [("row", lab) for lab in labels] + [("col", lab) for lab in labels]

    data = _contract(_tensor(e.op), legs(e.space.labels), _tensor(f.op), legs(f.space.labels),
                     legs(space.labels))
    out = LinOp(space, space, data.reshape(space.dim, space.dim))
    roles_in = tuple(lab for lab in space.labels if lab in set(e.map_in) | set(f.map_in))
    roles_out = tuple(lab for lab in space.labels if lab in set(e.map_out) | set(f.map_out))
    return ChoiOp(out, roles_in, roles_out)


def plug_unitaries(u: LinOp, layout: SlotLayout, slot_ops: list[LinOp]) -> LinOp:
    """Insert one operator per slot and contract to the induced global map.

    Slot operator n must consume the slot-input factor H_{2n-1} and produce
    the slot-output factor H_{2n}; any further factors it carries are
    treated as its private ancillas and pass through to the result.

    The slots are contracted into u one at a time, each as one matrix
    product of the operators reshaped to tensors (``_contract``): slot n
    consumes u's output H_{2n-1}, closes the loop on u's input H_{2n} and
    adds its ancilla legs.  Each step costs the size of its result times
    the two wire dimensions, and nothing larger than the operands and the
    result is formed.  The result maps (slot input ancillas, in slot order,
    then H_0) to (H_{2N+1}, then the slot output ancillas); a slot operator
    may share labels with no other slot operator or the future, and its
    input ancillas none with u's inputs.
    """
    n = layout.n_slots
    if len(slot_ops) != n:
        raise ValueError(f"expected {n} slot operators, got {len(slot_ops)}")
    layout.check_operator(u)
    taken, inputs = {layout.labels[-1]}, set(layout.labels[0::2])
    for k, op in enumerate(slot_ops, start=1):
        lab_in, d_in = layout.factor(2 * k - 1)
        lab_out, d_out = layout.factor(2 * k)
        if not op.in_space.has(lab_in) or op.in_space.dim_of(lab_in) != d_in:
            raise ValueError(f"slot {k} operator does not consume {lab_in!r} (dim {d_in})")
        if not op.out_space.has(lab_out) or op.out_space.dim_of(lab_out) != d_out:
            raise ValueError(f"slot {k} operator does not produce {lab_out!r} (dim {d_out})")
        clash = (taken & op.all_labels) | (inputs & set(op.in_space.labels))
        if clash:
            raise ValueError(f"label collision: {sorted(clash)}")
        taken |= op.all_labels
    past, future = layout.factor(0)[0], layout.factor(2 * n + 1)[0]
    # Axis keys: ("wire", H_m) for a slot wire joining u to a slot operator,
    # ("out", label) / ("in", label) for a free output / input leg.
    t = _tensor(u)
    t_keys = [("out" if lab == future else "wire", lab) for lab in u.out_space.labels]
    t_keys += [("in" if lab == past else "wire", lab) for lab in u.in_space.labels]
    out_factors, in_factors = [layout.factor(2 * n + 1)], []
    for k, op in enumerate(slot_ops, start=1):
        lab_in, lab_out = layout.factor(2 * k - 1)[0], layout.factor(2 * k)[0]
        s_keys = [("wire" if lab == lab_out else "out", lab) for lab in op.out_space.labels]
        s_keys += [("wire" if lab == lab_in else "in", lab) for lab in op.in_space.labels]
        live = [key for key in t_keys + s_keys if key not in {("wire", lab_in), ("wire", lab_out)}]
        t, t_keys = _contract(t, t_keys, _tensor(op), s_keys, live), live
        out_factors += [f for f in op.out_space.factors if f[0] != lab_out]
        in_factors += [f for f in op.in_space.factors if f[0] != lab_in]
    in_factors.append(layout.factor(0))
    order = [("out", lab) for lab, _ in out_factors] + [("in", lab) for lab, _ in in_factors]
    out_space, in_space = Spaces(tuple(out_factors)), Spaces(tuple(in_factors))
    data = t.transpose([t_keys.index(key) for key in order]).reshape(out_space.dim, in_space.dim)
    return LinOp(out_space, in_space, data)


def _tensor(a: LinOp) -> np.ndarray:
    """The matrix as a tensor: output factor axes, then input factor axes."""
    return a.data.reshape(a.out_space.dims + a.in_space.dims)


def _contract(a: np.ndarray, a_keys: list, b: np.ndarray, b_keys: list, out_keys: list):
    """Contract two tensors whose axes are named by hashable keys, summing
    every key they share, as one matrix product.

    ``b`` is permuted to its free axes, then the shared ones in its own
    order, and reshaped to (free_b, K); ``a`` to the same shared axes, then
    its free ones, reshaped to (K, free_a).  The product is reshaped to the
    free axes and transposed to ``out_keys``, which must name each free axis
    once.  That is the operand and summation order of ``np.einsum``'s
    matrix-product path for two operands, so the sums round as its do and
    the result agrees with the einsum reference to rounding.
    """
    a_set, b_set = set(a_keys), set(b_keys)
    shared = [key for key in b_keys if key in a_set]
    b_free = [key for key in b_keys if key not in a_set]
    a_free = [key for key in a_keys if key not in b_set]
    b_axes = [b_keys.index(key) for key in b_free + shared]
    a_axes = [a_keys.index(key) for key in shared + a_free]
    b_dims, a_dims = [b.shape[i] for i in b_axes], [a.shape[i] for i in a_axes]
    n_b, n_s, free = len(b_free), len(shared), b_free + a_free
    if (len(a_set) != len(a_keys) or len(b_set) != len(b_keys) or len(out_keys) != len(free)
            or set(out_keys) != set(free) or b_dims[n_b:] != a_dims[:n_s]):
        raise ValueError(f"cannot contract {a_keys} x {b_keys} -> {out_keys}: each key must name one "
                         "axis, shared keys equal dims, and out_keys each unshared key once")
    k = math.prod(a_dims[:n_s])
    prod = b.transpose(b_axes).reshape(-1, k) @ a.transpose(a_axes).reshape(k, -1)
    return prod.reshape(b_dims[:n_b] + a_dims[n_s:]).transpose([free.index(key) for key in out_keys])

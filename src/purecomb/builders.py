"""Deterministic constructors for worked instances and seeded random
generators for tests."""

from __future__ import annotations

import numpy as np

from .combs import CombCircuit, ancilla_chain, ancilla_labels, compose_staircase
from .layouts import SlotLayout, TwoSlotLayout
from .spaces import LinOp, Spaces
from .twoslot import embed_block


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with the R diagonal
    normalized to positive reals."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_staircase_circuit(layout: SlotLayout, seed: int) -> CombCircuit:
    """Seeded staircase with Haar-random elements respecting the ancilla chain."""
    ks = ancilla_chain(layout)
    rng = np.random.default_rng(seed)
    anc_labels = ancilla_labels(layout)
    elements = []
    for m in range(layout.n_slots + 1):
        in_factors = [layout.factor(2 * m)]
        if ks[m] > 1:
            in_factors.append((anc_labels[m - 1], ks[m]))
        out_factors = [layout.factor(2 * m + 1)]
        if ks[m + 1] > 1:
            out_factors.append((anc_labels[m], ks[m + 1]))
        sp_in, sp_out = Spaces(tuple(in_factors)), Spaces(tuple(out_factors))
        elements.append(LinOp(sp_out, sp_in, haar_unitary(sp_in.dim, rng)))
    return CombCircuit(layout, tuple(elements), ks, anc_labels)


def random_pure_comb(layout: SlotLayout, seed: int) -> LinOp:
    """Seeded reversible comb, composed from a random staircase."""
    return compose_staircase(random_staircase_circuit(layout, seed))


def switch_layout(d: int = 2) -> TwoSlotLayout:
    return TwoSlotLayout.of(("P", 2 * d), ("AI", d), ("AO", d), ("BI", d), ("BO", d), ("F", 2 * d))


def _routing(layout: TwoSlotLayout, route) -> LinOp:
    """The permutation sending each input basis state |p, a, b> (past, A
    output, B output) to the output basis state |route(p, a, b)> = |a_in,
    b_in, f> (A input, B input, future)."""
    sp_in, sp_out = layout.in_space(), layout.out_space()
    rows = [np.ravel_multi_index(route(*pab), sp_out.dims) for pab in np.ndindex(*sp_in.dims)]
    mat = np.zeros((sp_out.dim, sp_in.dim), dtype=np.complex128)
    mat[rows, np.arange(sp_in.dim)] = 1.0
    return LinOp(sp_out, sp_in, mat)


def build_quantum_switch(d: int = 2) -> tuple[LinOp, TwoSlotLayout]:
    """Coherently order-controlled routing of two slots.

    The past and future factorize as control (dim 2) times target (dim d),
    with composite index c*d + t.  Control 0 routes past -> A -> B ->
    future, control 1 routes past -> B -> A -> future, and the control
    value is copied to the future.
    """

    def route(p, a, b):
        c, t = divmod(p, d)
        return (t, a, b) if c == 0 else (b, t, d + a)

    layout = switch_layout(d)
    return _routing(layout, route), layout


def d3d_layout() -> TwoSlotLayout:
    return TwoSlotLayout.of(("P", 6), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", 6))


def build_d3d_example() -> tuple[LinOp, TwoSlotLayout]:
    """Direct sum of two qubit-wire combs with six-dimensional past and
    future that admits no two-dimensional control factor.

    Past basis |c,t> with composite index c*2 + t, c in {0,1,2}; future
    basis |x,y> likewise.  The first branch (c in {0,1}) runs A before B
    and writes (a, b) to the future while feeding c XOR a to B; the second
    branch (c = 2) runs B before A and writes (2, a) to the future.
    """

    def route(p, a, b):
        c, t = divmod(p, 2)
        return (t, c ^ a, 2 * a + b) if c < 2 else (b, t, 4 + a)

    layout = d3d_layout()
    return _routing(layout, route), layout


def build_direct_sum(
    u_ab: LinOp,
    u_ba: LinOp,
    p_embed_ab: np.ndarray,
    p_embed_ba: np.ndarray,
    f_embed_ab: np.ndarray,
    f_embed_ba: np.ndarray,
    layout: TwoSlotLayout,
) -> LinOp:
    """Orthogonal sum of an A-first comb and a B-first comb.

    The embeddings are isometries from the block past/future spaces into
    the full past/future; the two past embeddings must tile the past
    orthogonally, likewise the future ones.
    """
    d_p, d_f = layout.past[1], layout.future[1]
    blocks_p = np.column_stack([p_embed_ab, p_embed_ba])
    blocks_f = np.column_stack([f_embed_ab, f_embed_ba])
    for name, m, d in (("past", blocks_p, d_p), ("future", blocks_f, d_f)):
        if m.shape != (d, d) or np.abs(m.conj().T @ m - np.eye(d)).max() > 1e-10:
            raise ValueError(f"{name} embeddings do not tile the {name} space orthogonally")
    d_slots_in = layout.in_space().dim // d_p
    d_slots_out = layout.out_space().dim // d_f
    total = np.zeros((layout.out_space().dim, layout.in_space().dim), dtype=np.complex128)
    for u_blk, p_e, f_e in ((u_ab, p_embed_ab, f_embed_ab), (u_ba, p_embed_ba, f_embed_ba)):
        if u_blk.in_space.dim != p_e.shape[1] * d_slots_in:
            raise ValueError("block input dimension does not match its past embedding")
        if u_blk.out_space.dim != f_e.shape[1] * d_slots_out:
            raise ValueError("block output dimension does not match its future embedding")
        total += embed_block(u_blk, p_e, f_e, layout).data
    return LinOp(layout.out_space(), layout.in_space(), total)

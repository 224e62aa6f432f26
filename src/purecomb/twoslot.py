"""Two-slot reversibility-preserving maps: verification of the defining
orthogonality conditions and the constructive splitting into an orthogonal
direct sum of two causally ordered blocks (A-first and B-first).

Verification evaluates each condition as one closed-form identity on the
unitary, with no vector family and no rank decision.  The splitting reads
the global past split off the no-signalling components of U^dagger: the
past where the A output signals the B input (forward), the past where the
B output signals the A input (reverse), and the parallel rest; then the
future split; then the blocks, slices of U in the stacked block bases.
Each split is one orthonormal frame of two nested ``eigh`` cuts at ``tol``:
the reverse part and its complement, then forward and parallel inside it.
The pointwise split at slot outputs (alpha, beta) reads its future parts
off the same view of U, as SVD spans and their intersections, and pulls
them back to the past by the nested rule.  No library code calls
``f_point_decomposition`` or ``p_point_decomposition``: they are the
paper's pointwise splits, public with their signatures kept.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .combs import (_projector_range, signalling_components, signalling_residual,
                    verify_pure_comb_unitary)
from .errors import VerificationError
from .layouts import TwoSlotLayout
from .spaces import (
    TOL,
    LinOp,
    Spaces,
    adjoint,
    is_unitary,
    permute_systems,
)
from .subspaces import Subspace, complement, from_spanning, intersect, orthogonality_residual

__all__ = [
    "SubspaceTriple",
    "SuperchannelReport",
    "DirectSumDecomp",
    "TraceFutureReport",
    "verify_pure_superchannel",
    "f_point_decomposition",
    "p_point_decomposition",
    "global_p_decomposition",
    "global_f_decomposition",
    "direct_sum_decompose",
    "embed_block",
    "assemble",
    "classify",
    "trace_future_check",
]


@dataclasses.dataclass(frozen=True)
class SubspaceTriple:
    """Orthogonal split into forward (A signals B), parallel, and reverse
    (B signals A) parts of a common ambient space."""

    forward: Subspace
    parallel: Subspace
    reverse: Subspace

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.forward.dim, self.parallel.dim, self.reverse.dim)

    def parts(self):
        return (self.forward, self.parallel, self.reverse)

    @property
    def overlap(self) -> float:
        """Worst pairwise overlap of the three parts."""
        return max(orthogonality_residual(s, t) for s, t in itertools.combinations(self.parts(), 2))


@dataclasses.dataclass(frozen=True)
class SuperchannelReport:
    """Verification outcome.  Residuals are max-norm distances from the
    three conditions, keyed 'joint', 'a-side' and 'b-side': each is 0 for
    an operator in the class and grows linearly under a perturbation."""

    ok: bool
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _view(u: LinOp, layout: TwoSlotLayout) -> np.ndarray:
    """t[s, f, p, x] = <s, f| U |p, x> of a canonically ordered operator,
    s over both slot inputs, x over both slot outputs."""
    return u.data.reshape(layout.a_in[1] * layout.b_in[1], layout.future[1], layout.past[1], -1)


def _checked(u: LinOp, layout: TwoSlotLayout, tol: float) -> LinOp:
    """The canonically ordered operator, after checking it is unitary within
    ``tol`` and its factors are exactly the layout's."""
    ok, res = is_unitary(u, tol)
    if not ok:
        raise ValueError(f"operator is not unitary (residual {res:.2e})")
    layout.slot_chain("ab").check_operator(u)
    return permute_systems(u, layout.in_space().labels + layout.out_space().labels)


def verify_pure_superchannel(
    u: LinOp, layout: TwoSlotLayout, tol: float = TOL
) -> SuperchannelReport:
    """Check the three orthogonality conditions characterizing two-slot
    maps that send unitaries to unitaries.

    'joint': orthogonal slot outputs on both wires give future-orthogonal
    images after reducing both slot inputs.  'a-side': orthogonal outputs
    on the A wire alone stay orthogonal keeping the B input and future.
    'b-side': the mirrored statement for the B wire.

    For a unitary these are the identities: the A (B) output does not
    signal to the A (B) input (``combs.signalling_residual``), and the
    joint component of ``_joint_residual`` vanishes.  They characterize the
    class only for unitaries, so other input is malformed (ValueError).
    """
    return _verify(_checked(u, layout, tol), layout, tol)


def _verify(u: LinOp, layout: TwoSlotLayout, tol: float) -> SuperchannelReport:
    """The three closed-form residuals of a canonical unitary."""
    residuals = {
        "joint": _joint_residual(u, layout),
        "a-side": signalling_residual(u, layout.a_out[0], [layout.a_in[0]]),
        "b-side": signalling_residual(u, layout.b_out[0], [layout.b_in[0]]),
    }
    return SuperchannelReport(max(residuals.values()) <= tol, residuals)


def _joint_residual(u: LinOp, layout: TwoSlotLayout) -> float:
    """Max-abs of the (1 - Pi_AO)(1 - Pi_BO) component of
    Tr_F[U (Y (x) X_A (x) X_B) U^dagger] over basis operators Y, X_A, X_B,
    where Pi is the trace projection X -> Tr(X) I / d.

    The traceless operators are the span of |alpha'><alpha| with alpha'
    orthogonal to alpha, so this is 0 exactly when the joint condition holds.
    One (a, a', b, b') block of (d_AI d_BI d_P)^2 entries is formed at a time.
    Block (a', a, b', b) is the conjugate transpose of block (a, a', b, b'),
    so off the a = a' diagonal only a < a' is formed.  The traced-over-a
    Gram of each (b, b') is formed once and serves every diagonal a, and the
    d_a diagonal traced-over-b Grams are kept for it.
    """
    d_a, d_b = layout.a_out[1], layout.b_out[1]
    d_s, d_f = layout.a_in[1] * layout.b_in[1], layout.future[1]
    # m[(s, y), a, b, f] = <s, f| U |y, a, b>, s over both slot inputs
    m = u.data.reshape(d_s, d_f, layout.past[1], d_a, d_b).transpose(0, 2, 3, 4, 1)
    m = m.reshape(-1, d_a, d_b, d_f)

    def gram(x, y):
        return x.reshape(len(x), -1) @ y.reshape(len(y), -1).conj().T

    both_traced = gram(m, m) / (d_a * d_b)
    b_traced = [gram(m[:, a], m[:, a]) / d_b for a in range(d_a)]
    worst = 0.0
    for b, b2 in itertools.product(range(d_b), repeat=2):
        a_traced = gram(m[:, :, b], m[:, :, b2]) / d_a
        for a in range(d_a):
            k = gram(m[:, a, b], m[:, a, b2])
            k -= a_traced
            if b == b2:
                k -= b_traced[a]
                k += both_traced
            worst = max(worst, float(np.abs(k).max()))
    for a, a2 in itertools.combinations(range(d_a), 2):
        b_cross = gram(m[:, a], m[:, a2]) / d_b
        for b, b2 in itertools.product(range(d_b), repeat=2):
            k = gram(m[:, a, b], m[:, a2, b2])
            if b == b2:
                k -= b_cross
            worst = max(worst, float(np.abs(k).max()))
    return worst


def _nested_triple(space: Spaces, op_of, tol: float, what: str) -> SubspaceTriple:
    """Forward/parallel/reverse split of ``space`` as one orthonormal frame;
    ``op_of(part, frame)`` is the projector Q_part in ``frame`` coordinates
    and ``what.format(part)`` names it in errors.  The reverse part and its
    complement (rest) are the ``_projector_range`` of op_of("reverse", I),
    the forward and parallel parts that of op_of("forward", rest); the Q sum
    to I, so Q_par = I - Q_rev - Q_fwd is then a projector too."""
    rev, rest = _projector_range(op_of("reverse", np.eye(space.dim)), tol, what.format("reverse"))
    fwd, par = _projector_range(op_of("forward", rest), tol, what.format("forward"))
    return SubspaceTriple(*(Subspace(space, b) for b in (rest @ fwd, rest @ par, rev)))


def _point_triples(u: LinOp, layout: TwoSlotLayout, tol: float, alpha: np.ndarray, beta: np.ndarray):
    """Forward/parallel/reverse split of the future reachable from one
    slot-output pair, and the past split it induces; every rank is cut at
    ``tol``.  The future reachable from slot-output subspaces with bases A
    and B is the column span of m[f, (s, p, k, l)] = sum t[s, f, p, (a, b)]
    A[a, k] B[b, l] on the view t of U; the parts are intersections of
    these spans for the lines of alpha and beta and their complements.  The
    past triple is the nested frame of the pull-backs
    V^dagger (I_slots (x) Pi_f) V, V = U (I_P (x) |alpha> (x) |beta>), of
    the future parts: in the class they are projectors summing to I_P."""
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    beta = np.asarray(beta, dtype=np.complex128).reshape(-1)
    if np.linalg.norm(alpha) == 0 or np.linalg.norm(beta) == 0:
        raise ValueError("slot-output vectors must be nonzero")
    alpha = alpha / np.linalg.norm(alpha)
    beta = beta / np.linalg.norm(beta)
    p_space, f_space = Spaces((layout.past,)), Spaces((layout.future,))
    sub_a = Subspace(Spaces((layout.a_out,)), alpha.reshape(-1, 1))
    sub_b = Subspace(Spaces((layout.b_out,)), beta.reshape(-1, 1))
    t = _view(u, layout)

    def f_of(a_sub, b_sub):
        m = (t @ np.kron(a_sub.basis, b_sub.basis)).transpose(1, 0, 2, 3)
        return from_spanning(m.reshape(f_space.dim, -1), f_space, tol)

    f_ab = f_of(sub_a, sub_b)
    f_fwd = intersect(f_ab, f_of(complement(sub_a), sub_b), tol=tol)
    f_rev = intersect(f_ab, f_of(sub_a, complement(sub_b)), tol=tol)
    f_par = intersect(f_ab, complement(f_fwd), complement(f_rev), tol=tol)
    f_triple = SubspaceTriple(f_fwd, f_par, f_rev)

    got = sum(f_triple.dims)
    pair_res = f_triple.overlap
    if got != f_ab.dim or pair_res > tol:
        raise VerificationError(
            f"future split at a slot-output pair failed: dims {f_triple.dims} vs "
            f"{f_ab.dim}, overlap {pair_res:.2e}"
        )

    # v[s, f, p] = <s, f| U |p, alpha, beta>, s over both slot inputs
    v = t @ np.kron(alpha, beta)

    def pullback(part, frame):
        f_part = getattr(f_triple, part).basis
        x = np.einsum("fk,sfp->skp", f_part.conj(), v).reshape(-1, p_space.dim) @ frame
        return x.conj().T @ x

    return f_triple, _nested_triple(p_space, pullback, tol, "the {} pullback to the past")


def f_point_decomposition(
    u: LinOp, layout: TwoSlotLayout, alpha: np.ndarray, beta: np.ndarray, tol: float = TOL
) -> SubspaceTriple:
    """Split of the future reachable from the pair (alpha, beta) into the
    part the A output signals to (forward), the part the B output signals
    to (reverse) and the rest, each a span cut at ``tol``."""
    return _point_triples(_checked(u, layout, tol), layout, tol, alpha, beta)[0]


def p_point_decomposition(
    u: LinOp, layout: TwoSlotLayout, alpha: np.ndarray, beta: np.ndarray, tol: float = TOL
) -> SubspaceTriple:
    """Split of the whole past induced by the pair (alpha, beta): the future
    parts pulled back through U (I_P (x) |alpha> (x) |beta>), read as one
    frame of two nested ranges at ``tol``."""
    return _point_triples(_checked(u, layout, tol), layout, tol, alpha, beta)[1]


def global_p_decomposition(u: LinOp, layout: TwoSlotLayout, tol: float = TOL) -> SubspaceTriple:
    """Split the past into the part where the A output signals the B input
    (forward), the part where the B output signals the A input (reverse)
    and the parallel rest.

    One orthonormal frame of two nested cuts at ``tol``: the reverse part
    is the past support of the signalling components of U^dagger from the
    A input to the B output, its complement the rest.  The forward part is
    the support, searched in that rest, of those from the B input to the A
    output, and the parallel part what that search drops.  Forward rows
    weighing more than ``tol`` on the reverse part are an error.
    """
    return _global_p(_checked(u, layout, tol), layout, tol)


def _global_p(u: LinOp, layout: TwoSlotLayout, tol: float) -> SubspaceTriple:
    d_p, space = layout.past[1], Spaces((layout.past,))
    p_rev, p_rest, _ = _past_support(u, layout, layout.a_in[0], layout.b_out[0],
                                     np.eye(d_p), np.zeros((d_p, 0)), tol)
    p_fwd, p_par, leak = _past_support(u, layout, layout.b_in[0], layout.a_out[0],
                                       p_rest, p_rev, tol)
    if leak > tol:
        raise VerificationError(f"global past split inconsistent: forward rows weigh {leak:.2e} "
                                f"on the reverse part")
    return SubspaceTriple(Subspace(space, p_fwd), Subspace(space, p_par), Subspace(space, p_rev))


def _past_support(u: LinOp, layout: TwoSlotLayout, wire: str, reached: str, frame: np.ndarray,
                  other: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Support in the columns of ``frame`` of the past-indexed rows and
    conjugated columns of every signalling component of U^dagger from
    ``wire`` to ``reached`` (the columns stand in for the unformed a > a'):
    the eigenvectors of the rows' Gram in ``frame`` whose max-abs overlap
    with some row exceeds ``tol``, the others, and the rows' max-abs weight
    on the columns of ``other``; the components are streamed twice."""
    past, d_p = layout.past

    def rows():
        for k in signalling_components(adjoint(u), wire, [reached]):
            m = permute_systems(k, [past, *k.out_space.without([past]).labels]).data
            yield np.hstack([m.reshape(d_p, -1), m.T.conj().reshape(d_p, -1)])

    _, vecs = np.linalg.eigh(frame.conj().T @ sum(b @ b.conj().T for b in rows()) @ frame)
    vecs = frame @ vecs
    amp = np.max([np.abs(np.hstack([vecs, other]).conj().T @ b).max(axis=1) for b in rows()],
                 axis=0)
    keep = amp[:vecs.shape[1]] > tol
    return vecs[:, keep], vecs[:, ~keep], float(amp[vecs.shape[1]:].max(initial=0.0))


def global_f_decomposition(
    u: LinOp, layout: TwoSlotLayout, p_triple: SubspaceTriple, tol: float = TOL
) -> SubspaceTriple:
    """Push the global past split through the operator onto the future.

    In the class U (Pi_part (x) I) U^dagger projects onto (slot inputs) (x)
    (future part), so Tr_slots of it over d_slots projects onto the future
    part, every eigenvalue within ``tol`` of 0 or 1.  The future triple is
    their nested frame (``_nested_triple``), which needs ``p_triple`` to
    tile the past: dims summing to d_P, overlap within ``tol``.
    """
    u, res = _checked(u, layout, tol), p_triple.overlap
    if sum(p_triple.dims) != layout.past[1] or res > tol:
        raise VerificationError(f"past triple does not tile the past: dims {p_triple.dims}, "
                                f"overlap {res:.2e}")
    return _global_f(u, layout, tol, p_triple)


def _global_f(u: LinOp, layout: TwoSlotLayout, tol: float, p_triple: SubspaceTriple) -> SubspaceTriple:
    d_slots, t = layout.a_in[1] * layout.b_in[1], _view(u, layout)

    def traced(part, frame):
        w = np.einsum("sfpx,pr->fsxr", t, getattr(p_triple, part).basis)
        w = frame.conj().T @ w.reshape(len(frame), -1)
        return w @ w.conj().T / d_slots

    return _nested_triple(Spaces((layout.future,)), traced, tol, "Tr_slots of the {} image")


@dataclasses.dataclass(frozen=True)
class DirectSumDecomp:
    """Result of the direct-sum splitting.

    Embeddings are isometries from block coordinates into the full
    past/future, slices of one frame per side: forward then parallel
    columns (A-first) and reverse ones (B-first).  Blocks are the restricted
    unitaries in those coordinates, None when the past part is empty.
    ``triple_p_dims``/``triple_f_dims`` record the forward/parallel/reverse
    dimensions; ``classification`` is derived by ``classify`` when read.
    """

    layout: TwoSlotLayout
    p_embed_ab: np.ndarray
    p_embed_ba: np.ndarray
    f_embed_ab: np.ndarray
    f_embed_ba: np.ndarray
    block_ab: LinOp | None
    block_ba: LinOp | None
    triple_p_dims: tuple[int, int, int]
    triple_f_dims: tuple[int, int, int]
    off_block_residual: float

    @property
    def p_dims(self) -> tuple[int, int]:
        return (self.p_embed_ab.shape[1], self.p_embed_ba.shape[1])

    @property
    def f_dims(self) -> tuple[int, int]:
        return (self.f_embed_ab.shape[1], self.f_embed_ba.shape[1])

    @property
    def classification(self) -> str:
        return classify(self)

    def parts(self) -> dict:
        """(block, past embedding, future embedding) keyed by order tag."""
        return {"ab": (self.block_ab, self.p_embed_ab, self.f_embed_ab),
                "ba": (self.block_ba, self.p_embed_ba, self.f_embed_ba)}


def classify(d: DirectSumDecomp) -> str:
    """Coarse class of the split: parallel, ordered one way, switch-like
    (balanced blocks over equal wires at double dimension), or a general
    direct sum."""
    layout = d.layout
    p1, p2 = d.p_dims
    dd = layout.past[1]
    if d.triple_p_dims[1] == dd:
        return "parallel"
    if p2 == 0:
        return "ordered-ab"
    if p1 == 0:
        return "ordered-ba"
    wire_dims = {layout.a_in[1], layout.a_out[1], layout.b_in[1], layout.b_out[1]}
    if len(wire_dims) == 1:
        w = wire_dims.pop()
        if dd == 2 * w == layout.future[1] and p1 == p2 == w:
            return "switch-like"
    return "general-direct-sum"


def direct_sum_decompose(u: LinOp, layout: TwoSlotLayout, tol: float = TOL) -> DirectSumDecomp:
    """Split a verified two-slot reversibility-preserving map into an
    A-first block and a B-first block.

    Verification is run unconditionally; the split is forward+parallel
    versus reverse.  The stacked embeddings [p_ab p_ba] and [f_ab f_ba] are
    the past and future frames, one change of basis on each side: applied to
    t[s, f, p, x] = <s, f| U |p, x>, its two diagonal slices are the
    blocks and the max-abs of its two off-diagonal slices is the
    off-block residual, an error beyond ``tol``.  Both blocks are
    re-verified as causally ordered combs of their respective order.
    """
    u = _checked(u, layout, tol)
    report = _verify(u, layout, tol)
    if not report.ok:
        raise VerificationError(
            f"operator fails the reversibility-preservation conditions: {report.residuals}"
        )
    p_triple = _global_p(u, layout, tol)
    f_triple = _global_f(u, layout, tol, p_triple)

    p_embeds, f_embeds = ((np.hstack([tr.forward.basis, tr.parallel.basis]), tr.reverse.basis)
                          for tr in (p_triple, f_triple))
    # r[s, g, q, x]: t in the stacked bases, one matmul per axis
    t = _view(u, layout)
    d_s, d_f, d_p, d_x = t.shape
    r = np.hstack(f_embeds).conj().T @ t.reshape(d_s, d_f, d_p * d_x)
    r = np.hstack(p_embeds).T @ r.reshape(-1, d_p, d_x)
    r = r.reshape(d_s, -1, *r.shape[1:])
    pa, fa = p_embeds[0].shape[1], f_embeds[0].shape[1]
    off = max(float(np.abs(r[:, :fa, pa:]).max(initial=0.0)),
              float(np.abs(r[:, fa:, :pa]).max(initial=0.0)))
    if off > tol:
        raise VerificationError(f"off-block weight {off:.2e} exceeds tolerance; split inconsistent")

    blocks: list[LinOp | None] = []
    for order, sub in (("ab", r[:, :fa, :pa]), ("ba", r[:, fa:, pa:])):
        pdim, fdim = sub.shape[2], sub.shape[1]
        if pdim * d_x != fdim * d_s:
            raise VerificationError(f"block {order} is not square: {pdim}*{d_x} != {fdim}*{d_s}")
        if pdim == 0:
            blocks.append(None)
            continue
        block_layout = layout.with_dims(pdim, fdim)
        blk = LinOp(block_layout.out_space(), block_layout.in_space(),
                    sub.reshape(d_s * fdim, pdim * d_x))
        ok, res = is_unitary(blk, tol)
        if not ok:
            raise VerificationError(f"block {order} is not unitary (residual {res:.2e})")
        comb_report = verify_pure_comb_unitary(blk, block_layout.slot_chain(order), tol)
        if not comb_report.ok:
            raise VerificationError(
                f"block {order} fails its causal-order check "
                f"(residual {comb_report.max_residual:.2e})"
            )
        blocks.append(blk)

    return DirectSumDecomp(layout, *p_embeds, *f_embeds, *blocks, p_triple.dims, f_triple.dims, off)


def embed_block(
    blk: LinOp, p_embed: np.ndarray, f_embed: np.ndarray, layout: TwoSlotLayout
) -> LinOp:
    """Place a block into the full spaces through its past/future
    embeddings, the inverse of the restriction in ``direct_sum_decompose``:
    t[s, f, p, x] = sum f_embed[f, g] b[s, g, q, x] conj(p_embed[p, q]) on
    the block's view b.  The block's factors may be stored in any order."""
    canonical = permute_systems(blk, layout.in_space().labels + layout.out_space().labels)
    b = _view(canonical, layout.with_dims(p_embed.shape[1], f_embed.shape[1]))
    d_s, d_g, d_q, d_x = b.shape
    t = p_embed.conj() @ (f_embed @ b.reshape(d_s, d_g, d_q * d_x)).reshape(-1, d_q, d_x)
    return LinOp(layout.out_space(), layout.in_space(), t.reshape(layout.out_space().dim, -1))


def _embedded(d: DirectSumDecomp, tol: float) -> tuple[list[LinOp | None], LinOp]:
    """Each non-empty block of ``d`` embedded once, and their sum, which
    must be unitary within ``tol``."""
    layout = d.layout
    if sum(d.p_dims) != layout.past[1]:
        raise ValueError("past embeddings do not tile the past space")
    if sum(d.f_dims) != layout.future[1]:
        raise ValueError("future embeddings do not tile the future space")
    embedded = [None if blk is None else embed_block(blk, p_e, f_e, layout)
                for blk, p_e, f_e in d.parts().values()]
    total = LinOp(layout.out_space(), layout.in_space(),
                  sum(e.data for e in embedded if e is not None))
    ok, res = is_unitary(total, tol)
    if not ok:
        raise VerificationError(f"assembled operator is not unitary (residual {res:.2e})")
    return embedded, total


def assemble(d: DirectSumDecomp, tol: float = TOL) -> LinOp:
    """Embed each block back into the full spaces once (``embed_block``)
    and sum them; the sum must be unitary within ``tol``."""
    return _embedded(d, tol)[1]


@dataclasses.dataclass(frozen=True)
class TraceFutureReport:
    """Future-traced consistency check: tracing the future out of the full
    Choi operator must equal the weighted sum of the block contributions,
    which is a convex mixture of two causally ordered maps."""

    residual: float
    weights: tuple[float, float]
    traced_total: LinOp
    traced_blocks: tuple[LinOp | None, LinOp | None]
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


def _future_traced_choi(op: LinOp, layout: TwoSlotLayout) -> LinOp:
    """Tr_F of the Choi operator of a canonically ordered two-slot operator,
    formed by contracting the operator with itself over F: (D^2 / d_F)^2
    entries instead of the D^2 x D^2 Choi operator."""
    d_f = layout.future[1]
    # m[(in, AI, BI), f] = <AI, BI, f| op |in>
    m = op.data.reshape(-1, d_f, op.in_space.dim).transpose(2, 0, 1).reshape(-1, d_f)
    space = op.in_space.concat(op.out_space.without([layout.future[0]]))
    return LinOp(space, space, m @ m.conj().T)


def trace_future_check(d: DirectSumDecomp, tol: float = TOL) -> TraceFutureReport:
    """The future-traced identity of ``d``, passing within ``tol``; the
    assembled operator must be unitary within the same ``tol``.  Each block
    is embedded once, for the sum and for its own traced term."""
    embedded, total = _embedded(d, tol)
    traced_total = _future_traced_choi(total, d.layout)
    traced = tuple(None if e is None else _future_traced_choi(e, d.layout) for e in embedded)
    residual = float(np.abs(traced_total.data - sum(t.data for t in traced if t is not None)).max())
    weights = [0.0 if t is None else float(np.trace(t.data).real) for t in traced]
    total_weight = sum(weights)
    return TraceFutureReport(residual, tuple(w / total_weight for w in weights), traced_total,
                             traced, tol)

"""Two-slot reversibility-preserving maps: verification of the defining
orthogonality conditions and the constructive splitting into an orthogonal
direct sum of two causally ordered blocks (A-first and B-first).

Verification evaluates each condition as one closed-form identity on the
unitary, with no vector family and no rank decision, and returns a
``combs.Verdict`` keyed by condition.  The splitting reads the global past
split off the no-signalling components of U^dagger: the past where the A
output signals the B input (forward), the past where the B output signals
the A input (reverse), and the parallel rest; then the future split; then
the blocks, slices of U in the stacked block bases.
Each split is one orthonormal frame of two nested ``eigh`` cuts at ``tol``:
the reverse part and its complement, then forward and parallel inside it.

The future-traced check works on each embedded block's rank-<=d_F factor
M_k, Tr_F of whose Choi operator is M_k M_k^dagger, and never forms a
traced operator: its residual is the max-abs of C + C^dagger, C = M_ab
M_ba^dagger, the cross term of the two blocks' factors, streamed in tiles
of one fixed size, so memory beyond the factors is bounded by one tile.
In every case tried this residual has stayed within the assembly's
unitarity residual.

The joint and signalling residuals are max-abs values of the one
``combs._signalling`` kernel, the future-traced one of a tiled cross term.
Each drops, before any product, the row indices where an operand is 0
throughout (``combs._live``): their entries are exactly 0, and the summed
dimension and its order are untouched.  The signalling residual cuts per
input basis state, the joint one once for all, I (x) Tr C included.  The
paper's worked processes are permutations, where most rows are 0; a dense
operand is not copied.  The past split keeps every row: its Gram decides.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .combs import (_TILE, Verdict, _live, _projector_range, _signalling, _signalling_rows,
                    signalling_residual, verify_pure_comb_unitary)
from .errors import VerificationError
from .layouts import TwoSlotLayout
from .spaces import TOL, LinOp, Spaces, adjoint, is_unitary
from .subspaces import Subspace, orthogonality_residual


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
    return layout.slot_chain("ab").canonical(u)


def verify_pure_superchannel(
    u: LinOp, layout: TwoSlotLayout, tol: float = TOL
) -> Verdict:
    """Check the three orthogonality conditions characterizing two-slot
    maps that send unitaries to unitaries.  The residuals are max-norm
    distances from the conditions, keyed 'joint', 'a-side' and 'b-side':
    each is 0 for an operator in the class and grows linearly under a
    perturbation.

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


def _verify(u: LinOp, layout: TwoSlotLayout, tol: float) -> Verdict:
    """The three closed-form residuals of a canonical unitary."""
    residuals = {
        "joint": _joint_residual(u, layout),
        "a-side": signalling_residual(u, layout.a_out[0], [layout.a_in[0]]),
        "b-side": signalling_residual(u, layout.b_out[0], [layout.b_in[0]]),
    }
    return Verdict(max(residuals.values()) <= tol, residuals)


def _joint_residual(u: LinOp, layout: TwoSlotLayout) -> float:
    """Max-abs of the (1 - Pi_AO)(1 - Pi_BO) component of
    Tr_F[U (Y (x) X_A (x) X_B) U^dagger] over basis operators, Pi the trace
    projection X -> Tr(X) I / d: 0 exactly when the joint condition holds,
    as |alpha'><alpha| with alpha' orthogonal to alpha span the traceless.

    With x_a[b, r, f] = <s, f| U |p, a, b>, r = (s, p), cut once to the r
    live in some (a, b, f) (``_live``), the ``_signalling`` component k_aa'
    (reached BO) is the (1 - Pi_BO) part of block (a, a'), a <= a'.  Then
    (1 - Pi_AO) keeps it for a < a', and for a = a' subtracts the mean
    (1 / d_AO) sum_c k_cc: the component of x[b, r, (a, f)], over d_AO.
    """
    d_a, d_b, d_f = layout.a_out[1], layout.b_out[1], layout.future[1]
    t = _view(u, layout)
    x = t.reshape(*t.shape[:3], d_a, d_b).transpose(4, 0, 2, 3, 1).reshape(d_b, -1, d_a, d_f)
    x = _live(x, axis=1)
    mean = next(_signalling([x.reshape(d_b, x.shape[1], -1)])) / d_a
    pairs = itertools.combinations_with_replacement(range(d_a), 2)
    worst = 0.0
    for (a, a2), k in zip(pairs, _signalling([x[:, :, a] for a in range(d_a)])):
        if a == a2:
            k -= mean
        worst = max(worst, float(np.abs(k).max()))
    return worst


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
    """Support in the columns of ``frame`` of the ``_past_rows`` from ``wire``
    to ``reached``: the eigenvectors of the rows' Gram in ``frame`` whose
    max-abs overlap with some row exceeds ``tol``, the others, and the rows'
    max-abs weight on the columns of ``other``.  The rows are streamed twice,
    for the Gram and for the overlaps, and never held together."""
    gram = sum(b @ b.conj().T for b in _past_rows(u, layout, wire, reached))
    vecs = frame @ np.linalg.eigh(frame.conj().T @ gram @ frame)[1]
    amp = np.max([np.abs(np.hstack([vecs, other]).conj().T @ b).max(axis=1)
                  for b in _past_rows(u, layout, wire, reached)], axis=0)
    keep = amp[:vecs.shape[1]] > tol
    return vecs[:, keep], vecs[:, ~keep], float(amp[vecs.shape[1]:].max(initial=0.0))


def _past_rows(u: LinOp, layout: TwoSlotLayout, wire: str, reached: str):
    """The past-indexed rows and conjugated columns of each ``_signalling``
    component K of U^dagger from ``wire`` to ``reached`` (the columns stand
    in for the unformed a > a'), one (d_P, 2 D^2 / d_P) array per component
    of a canonically ordered U.  Every row is kept, so the Gram sums the
    same terms in the same order.

    K's output factors are ``reached``, the past and the other slot output.
    With r the other two, row p is K[(p, r), (p', r')] over (r, p', r'),
    then conj K[(p', r'), (p, r)] over (r, p', r').  Each half is one
    strided assignment from K's array into one buffer, reused for every
    component: no permuted or conjugated copy of K is formed, and each
    yielded array is overwritten by the next.
    """
    d_p, buf = layout.past[1], None
    for k in _signalling(_signalling_rows(adjoint(u), wire, [reached])):
        d_r, d_o = len(k), k.shape[1] // d_p
        # t[p, i, o, p', i', o'] = K[(i, p, o), (i', p', o')]
        t = k.reshape(d_r, d_p, d_o, d_r, d_p, d_o).transpose(1, 0, 2, 4, 3, 5)
        if buf is None:
            buf = np.empty((d_p, 2, *t.shape[1:]), dtype=np.complex128)
        buf[:, 0] = t
        np.conjugate(t.transpose(3, 4, 5, 0, 1, 2), out=buf[:, 1])
        yield buf.reshape(d_p, -1)


def global_f_decomposition(
    u: LinOp, layout: TwoSlotLayout, p_triple: SubspaceTriple, tol: float = TOL
) -> SubspaceTriple:
    """Push the global past split through the operator onto the future.

    In the class U (Pi_part (x) I) U^dagger projects onto (slot inputs) (x)
    (future part), so Tr_slots of it over d_slots projects onto the future
    part, every eigenvalue within ``tol`` of 0 or 1.  The future triple is
    one frame of two nested cuts: the reverse range and its complement, then
    the forward range and the parallel rest inside that complement.  This
    needs ``p_triple`` to tile the past: dims summing to d_P, overlap
    within ``tol``.
    """
    u, res = _checked(u, layout, tol), p_triple.overlap
    if sum(p_triple.dims) != layout.past[1] or res > tol:
        raise VerificationError(f"past triple does not tile the past: dims {p_triple.dims}, "
                                f"overlap {res:.2e}")
    return _global_f(u, layout, tol, p_triple)


def _global_f(u: LinOp, layout: TwoSlotLayout, tol: float, p_triple: SubspaceTriple) -> SubspaceTriple:
    d_slots, t, space = layout.a_in[1] * layout.b_in[1], _view(u, layout), Spaces((layout.future,))

    def traced(part, frame):
        """Tr_slots of U (Pi_part (x) I) U^dagger / d_slots in ``frame`` coordinates."""
        w = np.einsum("sfpx,pr->fsxr", t, part.basis)
        w = frame.conj().T @ w.reshape(len(frame), -1)
        return w @ w.conj().T / d_slots

    rev, rest = _projector_range(traced(p_triple.reverse, np.eye(space.dim)), tol,
                                 "Tr_slots of the reverse image")
    fwd, par = _projector_range(traced(p_triple.forward, rest), tol,
                                "Tr_slots of the forward image")
    return SubspaceTriple(*(Subspace(space, b) for b in (rest @ fwd, rest @ par, rev)))


@dataclasses.dataclass(frozen=True)
class DirectSumDecomp:
    """Result of the direct-sum splitting.

    Embeddings are isometries from block coordinates into the full
    past/future, slices of one frame per side: forward then parallel
    columns (A-first) and reverse ones (B-first).  Blocks are the restricted
    unitaries in those coordinates, None when the past part is empty.
    ``triple_p_dims``/``triple_f_dims`` record the forward/parallel/reverse
    dimensions; ``classification`` is derived from them when read.
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
        """Coarse class of the split: parallel, ordered one way, switch-like
        (balanced blocks over equal wires at double dimension), or a general
        direct sum."""
        layout = self.layout
        p1, p2 = self.p_dims
        dd = layout.past[1]
        if self.triple_p_dims[1] == dd:
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

    def parts(self) -> dict:
        """(block, past embedding, future embedding) keyed by order tag."""
        return {"ab": (self.block_ab, self.p_embed_ab, self.f_embed_ab),
                "ba": (self.block_ba, self.p_embed_ba, self.f_embed_ba)}


def direct_sum_decompose(u: LinOp, layout: TwoSlotLayout, tol: float = TOL) -> DirectSumDecomp:
    """Split a verified two-slot reversibility-preserving map into an
    A-first block and a B-first block.

    Verification is run unconditionally; the split is forward+parallel
    versus reverse.  The stacked embeddings [p_ab p_ba] and [f_ab f_ba] are
    the past and future frames, one change of basis on each side: applied to
    t[s, f, p, x] = <s, f| U |p, x>, its two diagonal slices are the
    blocks and the max-abs of its two off-diagonal slices is the
    off-block residual, an error beyond ``tol``.  Both blocks are
    re-verified as causally ordered combs of their respective order, which
    checks each block's unitarity first.
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
        try:
            comb_report = verify_pure_comb_unitary(blk, block_layout.slot_chain(order), tol)
        except ValueError as exc:  # a block that is not unitary
            raise VerificationError(f"block {order}: {exc}") from None
        if not comb_report.ok:
            raise VerificationError(
                f"block {order} fails its causal-order check "
                f"(residual {max(comb_report.residuals.values()):.2e})"
            )
        blocks.append(blk)

    return DirectSumDecomp(layout, *p_embeds, *f_embeds, *blocks, p_triple.dims, f_triple.dims, off)


def embed_block(
    blk: LinOp, p_embed: np.ndarray, f_embed: np.ndarray, layout: TwoSlotLayout
) -> LinOp:
    """Place a block into the full spaces through its past/future
    embeddings, the inverse of the restriction in ``direct_sum_decompose``:
    t[s, f, p, x] = sum f_embed[f, g] b[s, g, q, x] conj(p_embed[p, q]) on
    the block's view b.  The block's factors must be the layout's, with
    the embeddings' past and future dimensions, stored in any order."""
    blk_layout = layout.with_dims(p_embed.shape[1], f_embed.shape[1])
    b = _view(blk_layout.slot_chain("ab").canonical(blk), blk_layout)
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
    which is a convex mixture of two causally ordered maps.

    Tr_F of block k's Choi operator is M_k M_k^dagger for its rank-<=d_F
    factor M_k[(in, AI, BI), f] = <AI, BI, f| e_k |in>, so the traced sum
    misses the traced total by C + C^dagger, C = M_ab M_ba^dagger: the
    cross term of the two factors.  ``residual`` is its max-abs, ``weights``
    the normalised ||M_k||_F^2, and ``ok`` whether the residual is within
    ``tol``.  No traced operator is formed or kept."""

    residual: float
    weights: tuple[float, float]
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


def _future_factor(op: LinOp, layout: TwoSlotLayout) -> np.ndarray:
    """m[(in, AI, BI), f] = <AI, BI, f| op |in> of a canonically ordered
    two-slot operator: Tr_F of its Choi operator is m m^dagger."""
    d_f = layout.future[1]
    return op.data.reshape(-1, d_f, op.in_space.dim).transpose(2, 0, 1).reshape(-1, d_f)


def _cross_residual(a: np.ndarray, b: np.ndarray) -> float:
    """max|C + C^dagger| for C = a b^dagger, without forming C.

    C + C^dagger = [a b] [b a]^dagger is Hermitian, so only the tiles on
    and above the diagonal of _TILE x _TILE tiles are formed, one at a time.
    A row index where [a b], and so [b a], is 0 is a 0 row and column of
    C + C^dagger, so those rows are dropped first (``_live``) and the tiles
    cover the kept principal submatrix.
    """
    x, y = _live(np.hstack([a, b])), _live(np.hstack([b, a]).conj())
    n, worst = len(x), 0.0
    for i in range(0, n, _TILE):
        rows = x[i:i + _TILE]
        for j in range(i, n, _TILE):
            worst = max(worst, float(np.abs(rows @ y[j:j + _TILE].T).max()))
    return worst


def trace_future_check(d: DirectSumDecomp, tol: float = TOL) -> TraceFutureReport:
    """The future-traced identity of ``d``, passing within ``tol``; the
    assembled operator must be unitary within the same ``tol``.

    Each block is embedded once (``_embedded``) and reduced to its factor
    M_k, which the report does not keep; the residual is the max-abs of
    C + C^dagger, C = M_ab M_ba^dagger, the cross term by which the traced
    total exceeds the traced blocks, 0 for a one-block split.  It is
    streamed in _TILE x _TILE tiles of the upper block triangle, so beyond
    the factors memory is bounded by one tile.
    In every case tried the residual has stayed within the assembly's
    unitarity residual, so the unitarity check at ``tol`` fails first.
    """
    embedded = _embedded(d, tol)[0]
    factors = [None if e is None else _future_factor(e, d.layout) for e in embedded]
    present = [m for m in factors if m is not None]
    residual = _cross_residual(*present) if len(present) == 2 else 0.0
    weights = [0.0 if m is None else float(np.vdot(m, m).real) for m in factors]
    return TraceFutureReport(residual, tuple(w / sum(weights) for w in weights), tol)

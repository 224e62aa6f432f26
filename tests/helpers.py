"""Shared test helpers: the vector-family references for the reversibility
conditions and for the global past split, and the input transformations the
metamorphic and perturbation tests apply.

The family references are the paths the library once took: each condition
says reduced images stay orthogonal for every slot-output vector, and it is
evaluated on the polarization family of the wire plus a fixed batch of
random vectors, with one SVD image-and-reduce per vector (per pair of
vectors for the joint condition); the global past split aggregates the
pointwise past split below over the same families.  The library's
closed-form checks and its signalling-support split must reach the same
results.

The contraction references are the identity-padded dense forms plugging
and the link product once took: the slot operators tensored with the
identity on the future and composed with the map as one square product
before the slot wires are traced, and the link as the trace of
(E (x) I)(I (x) F)^{T_shared}.  The label-matched contractions must give
the same factor order, the same roles and the same entries.  The einsum
form of the one contraction both take, ``reference_contract``, is what
``choi._contract`` replaced by one matrix product; it must give the same
entries.

The restriction reference is the dense form the direct-sum split once
took: each block and each off-diagonal corner read off U through
Kronecker lifts of the embeddings, (I (x) f_e)^dagger U (p_e (x) I).  The
stacked change of basis must give the same blocks and off-block weight.

The joint-residual reference is the loop over every ordered
(a, a', b, b') block that the library once ran.  The library's
``combs._signalling`` kernel sums the same products in another order: it
must agree with the loop within 1e-15, and on the perturbed switches,
d3d and small Haar unitaries it returns the same float.

The matrix-file references are the forms the saver and loader once took:
one ``json.dump`` of the whole document with a ``[float(re), float(im)]``
list per entry; a per-entry scan naming the first bad data entry; and a
load that parses the whole document with ``json.load`` before any check.
The block-streamed save must write the same bytes, and the chunked load
must give the same bits or raise the same messages.

The pointwise split, ``reference_point_triples``, is the paper's proof
route and has no library counterpart: the split of the future reachable
from one slot-output pair (alpha, beta), and the past split it induces.
Each future part is an intersection of reduced images
(``product_subspace`` -> ``image`` -> ``reduced_subspace`` ->
``intersect``), and the past parts follow the nested rule on the
pull-backs, each cut by an SVD of its factor.  The tests state the
paper's pointwise facts with it, and ``family_global_p`` aggregates it
over the vector families.

The future-traced reference is the dense form ``trace_future_check``
once took: Tr_F of the Choi operator of the assembled operator and of each
embedded block, each formed as a (D^2/d_F)^2 matrix, the residual the
max-abs of the total minus the block sum and the weights the traces.  The
factored check's cross-term residual and factor norms must agree with it
to rounding.

The signalling reference is the generator the library once exported as
``combs.signalling_components``: each component C - I_r (x) Tr_r C / d_r
of a basis pair a <= a' formed at full size, over every output index, as
an operator.  ``combs.signalling_residual``, which cuts each input basis
state's rows to the rest indices it reaches, must return the same float
on exact inputs and agree to rounding on dressed ones.

The past-row reference is the builder ``twoslot._past_rows`` replaced:
each full-size signalling component of U^dagger permuted past first as an
operator, then its reshaped rows stacked with its reshaped conjugate
transpose.  The strided writes into one buffer must give the same bytes,
so the Gram and the global past split stay bit-identical.

The Choi-check reference is the full-size form the Hermitian checks once
took as ``ChoiOp`` methods: the hermiticity residual max |A - A^dagger|
and the lowest eigenvalue of (A + A^dagger) / 2, each over whole-matrix
temporaries.  ``verify_comb_choi``'s one tile-pair pass over its
layout-ordered copy must return the same floats as this reference on the
operator in that order; ``is_cp`` reads it.

The comb-Choi tower reference is the form ``verify_comb_choi`` once took:
per level two ``partial_trace`` calls on the caller's operator, and the
reduced operator lifted by ``kron`` with an identity and permuted back to
the level's factor order.  The library's tower, one trace over a view of
its layout-ordered copy per level made trace-free in place
(``combs._trace_free``), must return the same level and normalization
residuals for every factor order of the operator.

The Lugano inputs are in the class without being built from their
answer: ``lugano_process`` is the purified three-slot Lugano process, and
``plugged_lugano`` plugs one of its slots (C unless told otherwise) with
a Haar unitary that carries an environment from past to future, which
leaves a two-slot map whose direct-sum blocks no constructor wrote down.

The rest are small references that only tests call, moved here from the
package: ``basis_state``, ``kron_vec`` and ``partial_transpose`` on labeled
vectors and operators; ``angle_sine`` between subspaces; ``apply_channel``
and the Choi-operator predicates ``choi_trace``, ``tp_residual``,
``is_cp`` and ``is_channel``; and ``build_staircase_comb`` from explicit
elements.
"""

import functools
import io
import itertools
import json
import math

import numpy as np

from purecomb.builders import ancilla_chain, haar_unitary
from purecomb.choi import ChoiOp, link_product
from purecomb.combs import CombCircuit, compose_staircase
from purecomb.errors import VerificationError
from purecomb.families import spanning_family, stability_vectors
from purecomb.io import FORMAT_VERSION, MatrixFileError, _parse_dims
from purecomb.spaces import (
    TOL,
    LinOp,
    Spaces,
    Vec,
    adjoint,
    compose,
    identity,
    kron,
    partial_trace,
    permute_systems,
)
from purecomb.subspaces import (
    Subspace,
    complement,
    from_spanning,
    image,
    intersect,
    is_subset,
    orthogonality_residual,
    product_subspace,
    reduced_subspace,
    sum_subspaces,
)
from purecomb.layouts import TwoSlotLayout
from purecomb.twoslot import _TILE, SubspaceTriple, assemble, embed_block


def basis_state(spaces, index):
    """Computational basis vector, by composite index or per-factor tuple."""
    if isinstance(index, (tuple, list)):
        if len(index) != len(spaces):
            raise ValueError("multi-index length mismatch")
        flat = 0
        for i, d in zip(index, spaces.dims):
            if not 0 <= i < d:
                raise ValueError(f"index {i} out of range for dim {d}")
            flat = flat * d + i
    else:
        flat = int(index)
    data = np.zeros(spaces.dim)
    data[flat] = 1.0
    return Vec(spaces, data)


def kron_vec(x, y):
    return Vec(x.space.concat(y.space), np.kron(x.data, y.data))


def partial_transpose(a, labels):
    """Transpose the row/column indices of the listed factors only."""
    traced = list(labels)
    a = permute_systems(a, list(a.out_space.labels))
    for lab in traced:
        a.out_space.index(lab)
    m = len(a.out_space)
    axes = list(range(2 * m))
    for lab in traced:
        j = a.out_space.index(lab)
        axes[j], axes[m + j] = axes[m + j], axes[j]
    dims = a.out_space.dims
    data = a.data.reshape(dims + dims).transpose(axes).reshape(a.data.shape)
    return LinOp(a.out_space, a.in_space, data)


def angle_sine(s, t):
    """Largest principal-angle sine between two equal-dimension subspaces.

    Well conditioned for small angles, unlike arccos of Gram singular
    values; for angles below 1e-8 the sine equals the angle to machine
    precision.
    """
    if s.dim != t.dim:
        return 1.0
    if s.dim == 0:
        return 0.0
    rem = s.basis - t.basis @ (t.basis.conj().T @ s.basis)
    return float(np.linalg.svd(rem, compute_uv=False)[0])


def apply_channel(e, rho):
    """Apply a channel given by its Choi operator to a state on the map input."""
    if set(rho.out_space.labels) != set(e.map_in):
        raise ValueError(f"state labels {rho.out_space.labels} do not match map input {e.map_in}")
    state = ChoiOp(rho, (), tuple(rho.out_space.labels))
    return link_product(state, e).op


def choi_trace(c):
    return complex(np.trace(c.op.data))


def tp_residual(c):
    """Max-norm deviation of the output partial trace from the identity."""
    red = partial_trace(c.op, c.map_out)
    return float(np.abs(red.data - np.eye(red.out_space.dim)).max())


def is_cp(c, tol=TOL):
    herm, low = reference_choi_checks(c.op)
    return herm <= tol and low >= -tol


def is_channel(c, tol=TOL):
    return is_cp(c, tol) and tp_residual(c) <= tol


def build_staircase_comb(unitaries, layout):
    """Compose explicit staircase elements after validating the dimension chain."""
    ks = ancilla_chain(layout)
    anc_labels = []
    for el in unitaries:
        anc_labels.extend(lab for lab in el.all_labels if lab not in set(layout.labels))
    circuit = CombCircuit(layout, tuple(unitaries), ks, tuple(dict.fromkeys(anc_labels)))
    return compose_staircase(circuit)


def reference_point_triples(u, layout, alpha, beta, tol=TOL):
    """(future triple, past triple) of the pair (alpha, beta) by SVDs.

    The future reachable from slot-output subspaces is the reduced image of
    P (x) A (x) B, and the parts intersect it for the lines and their
    complements.  The past parts follow the nested rule on the factors
    X_part = (I_slots (x) F_part)^dagger U (I_P (x) |alpha> (x) |beta>) of the
    pull-backs: the reverse part is the row span of X_rev, the forward part
    that of X_fwd inside the complement of the reverse part, and the
    parallel part the rest of that complement."""
    ai, bi = layout.a_in[0], layout.b_in[0]
    sub_a, sub_b = _line(alpha, layout.a_out), _line(beta, layout.b_out)

    def f_of(a_part, b_part):
        v = image(u, product_subspace([Spaces((layout.past,)), a_part, b_part]), tol)
        return reduced_subspace(v, [ai, bi], tol=tol)

    f_ab = f_of(sub_a, sub_b)
    f_fwd = intersect(f_ab, f_of(complement(sub_a), sub_b), tol=tol)
    f_rev = intersect(f_ab, f_of(sub_a, complement(sub_b)), tol=tol)
    f_par = intersect(f_ab, complement(f_fwd), complement(f_rev), tol=tol)

    d_f, d_p = layout.future[1], layout.past[1]
    mat = permute_systems(u, layout.in_space().labels + layout.out_space().labels).data
    v = mat.reshape(-1, d_f, d_p, sub_a.ambient.dim * sub_b.ambient.dim) @ np.kron(
        sub_a.basis[:, 0], sub_b.basis[:, 0])

    def row_span(part, frame):
        """Right singular vectors of X_part in ``frame`` above the cut, then the rest."""
        x = np.einsum("fk,sfp->skp", part.basis.conj(), v).reshape(-1, d_p) @ frame
        _, s, vh = np.linalg.svd(x)
        k = int(np.sum(s > tol * max(s[0] if s.size else 0.0, 1.0)))
        return frame @ vh[:k].conj().T, frame @ vh[k:].conj().T

    p_rev, rest = row_span(f_rev, np.eye(d_p))
    p_fwd, p_par = row_span(f_fwd, rest)
    p_space = Spaces((layout.past,))
    return (SubspaceTriple(f_fwd, f_par, f_rev),
            SubspaceTriple(*(Subspace(p_space, b) for b in (p_fwd, p_par, p_rev))))


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


def family_global_p(u, layout, tol=TOL):
    """Forward/parallel/reverse past split aggregated over the polarization
    families: the forward part summed over the A-wire family at a fixed
    B-wire anchor, the reverse part symmetrically, the parallel part
    intersected over the full grid; random vectors must leave every part
    unchanged."""
    d_a, d_b = layout.a_out[1], layout.b_out[1]
    fam_a, fam_b = spanning_family(d_a), spanning_family(d_b)
    rand_a, rand_b = stability_vectors(d_a), stability_vectors(d_b)
    alpha0, beta0 = fam_a[0], fam_b[0]

    def point(alpha, beta):
        return reference_point_triples(u, layout, alpha, beta, tol)[1]

    grid = {(i, j): point(alpha, beta)
            for i, alpha in enumerate(fam_a) for j, beta in enumerate(fam_b)}
    p_fwd = sum_subspaces(*[grid[(i, 0)].forward for i in range(len(fam_a))])
    p_rev = sum_subspaces(*[grid[(0, j)].reverse for j in range(len(fam_b))])
    p_par = intersect(*[grid[key].parallel for key in sorted(grid)])

    for alpha in rand_a:
        if not is_subset(point(alpha, beta0).forward, p_fwd, tol):
            raise VerificationError("a random A-wire vector enlarged the forward past")
    for beta in rand_b:
        if not is_subset(point(alpha0, beta).reverse, p_rev, tol):
            raise VerificationError("a random B-wire vector enlarged the reverse past")
    for alpha, beta in zip(rand_a, rand_b):
        if not is_subset(p_par, point(alpha, beta).parallel, tol):
            raise VerificationError("a random pair shrank the parallel past")

    triple = SubspaceTriple(p_fwd, p_par, p_rev)
    if sum(triple.dims) != layout.past[1] or triple.overlap > tol:
        raise VerificationError(f"family past split inconsistent: dims {triple.dims}")
    return triple


def family_verdict(residuals, tol=TOL):
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


def trace_matching(a, labels):
    """Partial trace over factors present on both sides of a rectangular map;
    kept input factors shared with the output come first, in output order."""
    traced = list(labels)
    for lab in traced:
        if a.out_space.dim_of(lab) != a.in_space.dim_of(lab):
            raise ValueError(f"factor {lab!r} has mismatched dims on the two sides")
    keep_out = [lab for lab in a.out_space.labels if lab not in set(traced)]
    keep_in = [lab for lab in a.in_space.labels if lab not in set(traced)]
    order = keep_out + [lab for lab in keep_in if lab not in keep_out] + traced
    b = permute_systems(a, order)
    out_sp, in_sp = b.out_space.without(traced), b.in_space.without(traced)
    t = b.out_space.dim // out_sp.dim
    m = b.data.reshape(out_sp.dim, t, in_sp.dim, t)
    return LinOp(out_sp, in_sp, np.einsum("aibi->ab", m))


def dense_link_product(e, f):
    """Contract two Choi operators over their shared labels.

    Shared factors are traced out after a partial transpose on the second
    argument; disjoint factors pass through.  Commutative up to factor
    reordering.
    """
    shared = [lab for lab in e.space.labels if f.space.has(lab)]
    for lab in shared:
        if e.space.dim_of(lab) != f.space.dim_of(lab):
            raise ValueError(f"shared label {lab!r} has conflicting dims")
    e_only = e.space.without(shared)
    f_only = f.space.without(shared)
    big_e = kron(e.op, identity(f_only)) if len(f_only) else e.op
    big_f = kron(f.op, identity(e_only)) if len(e_only) else f.op
    if shared:
        big_f = partial_transpose(big_f, shared)
    order = list(e_only.labels) + shared + list(f_only.labels)
    prod = compose(permute_systems(big_e, order), permute_systems(big_f, order))
    out = partial_trace(prod, shared) if shared else prod
    roles_in = tuple(lab for lab in out.out_space.labels if lab in set(e.map_in) | set(f.map_in))
    roles_out = tuple(lab for lab in out.out_space.labels if lab in set(e.map_out) | set(f.map_out))
    return ChoiOp(out, roles_in, roles_out)


def dense_plug_unitaries(u, layout, slot_ops):
    """Insert one operator per slot and contract to the induced global map.

    Slot operator n must consume the slot-input factor H_{2n-1} and produce
    the slot-output factor H_{2n}; any further factors it carries are
    treated as its private ancillas and pass through to the result.
    """
    n = layout.n_slots
    if len(slot_ops) != n:
        raise ValueError(f"expected {n} slot operators, got {len(slot_ops)}")
    layout.check_operator(u)
    future = Spaces((layout.factor(2 * n + 1),))
    for k, op in enumerate(slot_ops, start=1):
        lab_in, d_in = layout.factor(2 * k - 1)
        lab_out, d_out = layout.factor(2 * k)
        if not op.in_space.has(lab_in) or op.in_space.dim_of(lab_in) != d_in:
            raise ValueError(f"slot {k} operator does not consume {lab_in!r} (dim {d_in})")
        if not op.out_space.has(lab_out) or op.out_space.dim_of(lab_out) != d_out:
            raise ValueError(f"slot {k} operator does not produce {lab_out!r} (dim {d_out})")
    if n == 0:
        return u
    lifted = functools.reduce(kron, slot_ops, identity(future))
    prod = compose(lifted, u, pad=True)
    return trace_matching(prod, [layout.factor(2 * k)[0] for k in range(1, n + 1)])


def kron_restriction(u, layout, p_embed, f_embed):
    """(I_slot-inputs (x) f_embed)^dagger U (p_embed (x) I_slot-outputs) of a
    two-slot operator, with U's factors put in canonical order first."""
    d_in = layout.a_out[1] * layout.b_out[1]
    d_out = layout.a_in[1] * layout.b_in[1]
    mat = permute_systems(u, layout.in_space().labels + layout.out_space().labels).data
    return np.kron(np.eye(d_out), f_embed).conj().T @ mat @ np.kron(p_embed, np.eye(d_in))


def reference_joint_residual(u, layout):
    """The joint residual as every ordered (a, a', b, b') block over every
    row of the realigned view, zero rows included, each block with its own
    traced-over-a Gram."""
    d_a, d_b = layout.a_out[1], layout.b_out[1]
    d_s, d_f = layout.a_in[1] * layout.b_in[1], layout.future[1]
    m = u.data.reshape(d_s, d_f, layout.past[1], d_a, d_b).transpose(0, 2, 3, 4, 1)
    m = m.reshape(-1, d_a, d_b, d_f)

    def gram(x, y):
        return x.reshape(len(x), -1) @ y.reshape(len(y), -1).conj().T

    both_traced = gram(m, m) / (d_a * d_b)
    worst = 0.0
    for a, a2 in itertools.product(range(d_a), repeat=2):
        b_traced = gram(m[:, a], m[:, a2]) / d_b
        for b, b2 in itertools.product(range(d_b), repeat=2):
            k = gram(m[:, a, b], m[:, a2, b2])
            if a == a2:
                k -= gram(m[:, :, b], m[:, :, b2]) / d_a
            if b == b2:
                k -= b_traced
                if a == a2:
                    k += both_traced
            worst = max(worst, float(np.abs(k).max()))
    return worst


def reference_signalling_components(u, wire, reached):
    """The operators C - I_reached (x) Tr_reached(C) / d_reached, where
    C = U (|a><a'|_wire (x) I) U^dagger, for the basis pairs a <= a' of the
    input ``wire``, each formed at full size over every output index and
    returned as an operator on the output factors ordered reached first,
    then the rest in ``u``'s order."""
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


def reference_signalling_residual(u, wire, reached):
    """Max-abs over every ``reference_signalling_components`` operator."""
    components = reference_signalling_components(u, wire, reached)
    return max(float(np.abs(k.data).max()) for k in components)


def reference_past_rows(u, layout, wire, reached):
    """The past-indexed rows and conjugated columns of each signalling
    component of U^dagger from ``wire`` to ``reached``, built as one
    ``permute_systems`` and one ``hstack`` with the conjugate transpose."""
    past, d_p = layout.past
    for k in reference_signalling_components(adjoint(u), wire, [reached]):
        m = permute_systems(k, [past, *k.out_space.without([past]).labels]).data
        yield np.hstack([m.reshape(d_p, -1), m.T.conj().reshape(d_p, -1)])


def reference_choi_checks(op):
    """Hermiticity residual and lowest eigenvalue of the Hermitian part of a
    square operator, each from whole-matrix temporaries."""
    a = op.data
    return float(np.abs(a - a.conj().T).max()), float(np.linalg.eigvalsh((a + a.conj().T) / 2)[0])


def reference_comb_choi_tower(op, layout):
    """Level residuals and normalization residual of the comb-Choi tower,
    each level compared with its reduced operator lifted by ``kron`` with
    the identity on the level's input wires and permuted back to the
    level's factor order."""
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
    return tuple(residuals), norm_res


def future_traced_choi(op, layout):
    """Tr_F of the Choi operator of a canonically ordered two-slot operator,
    formed by contracting the operator with itself over F: (D^2 / d_F)^2
    entries instead of the D^2 x D^2 Choi operator."""
    d_f = layout.future[1]
    # m[(in, AI, BI), f] = <AI, BI, f| op |in>
    m = op.data.reshape(-1, d_f, op.in_space.dim).transpose(2, 0, 1).reshape(-1, d_f)
    space = op.in_space.concat(op.out_space.without([layout.future[0]]))
    return LinOp(space, space, m @ m.conj().T)


def reference_trace_future(d, tol=TOL):
    """Residual and weights of the future-traced check of a decomposition,
    from the dense traced total and traced blocks."""
    layout = d.layout
    traced_total = future_traced_choi(assemble(d, tol), layout)
    traced = [None if blk is None else future_traced_choi(embed_block(blk, p_e, f_e, layout), layout)
              for blk, p_e, f_e in d.parts().values()]
    residual = float(np.abs(traced_total.data - sum(t.data for t in traced if t is not None)).max())
    weights = [0.0 if t is None else float(np.trace(t.data).real) for t in traced]
    return residual, tuple(w / sum(weights) for w in weights)


def reference_cross_residual(a, b):
    """max|C + C^dagger| for C = a b^dagger over the upper tiles of every
    row, zero rows included: the scan ``twoslot._cross_residual`` runs on
    the rows where [a b] is nonzero, which must give the same float."""
    x, y = np.hstack([a, b]), np.hstack([b, a]).conj()
    n, worst = len(x), 0.0
    for i in range(0, n, _TILE):
        rows = x[i:i + _TILE]
        for j in range(i, n, _TILE):
            worst = max(worst, float(np.abs(rows @ y[j:j + _TILE].T).max()))
    return worst


def square_two_slot_layout(p_ab, p_ba):
    """Qubit slots, with past and future both of dimension p_ab + p_ba."""
    d = p_ab + p_ba
    return TwoSlotLayout.of(("P", d), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", d))


def lugano_process():
    """The purified Lugano process (Baumeler & Wolf, NJP 18, 013036 (2016)):
    the 64 x 64 permutation sending |p, a_o, b_o, c_o> to |x_a, x_b, x_c, F>,
    each slot input x_in = p_x XOR f_x with f = (not b and c, not c and a,
    not a and b) of the slot outputs, and the future F a copy of (a_o, b_o,
    c_o).  Input factors (P, AO, BO, CO), output factors (AI, BI, CI, F);
    P and F index their three bits as 4 x_1 + 2 x_2 + x_3."""
    sp_in = Spaces.of(("P", 8), ("AO", 2), ("BO", 2), ("CO", 2))
    sp_out = Spaces.of(("AI", 2), ("BI", 2), ("CI", 2), ("F", 8))
    mat = np.zeros((64, 64), dtype=np.complex128)
    for pa, pb, pc, a, b, c in itertools.product((0, 1), repeat=6):
        x = (pa ^ ((1 - b) & c), pb ^ ((1 - c) & a), pc ^ ((1 - a) & b))
        mat[np.ravel_multi_index((*x, 4 * a + 2 * b + c), sp_out.dims),
            np.ravel_multi_index((4 * pa + 2 * pb + pc, a, b, c), sp_in.dims)] = 1.0
    return LinOp(sp_out, sp_in, mat)


def plugged_lugano(k, rng, slot="C"):
    """``lugano_process`` with ``slot`` plugged by a Haar unitary V on
    its input (x) E -> its output (x) E, k = dim E: the two-slot map on the
    other two slots, past P (x) E and future F (x) E (composite index
    x k + e), and its layout.  The process is cyclic in A -> B -> C, so the
    slots after ``slot`` in that cycle take the roles A and B, in cycle
    order.  The loop through ``slot`` is closed by summing over its input
    and output."""
    u = lugano_process().data.reshape(2, 2, 2, 8, 8, 2, 2, 2)  # ai bi ci f, p ao bo co
    v = haar_unitary(2 * k, rng).reshape(2, k, 2, k)  # plugged output e', input e
    s = "ABC".index(slot)
    ins, outs = [""] * 3, [""] * 3  # per slot A, B, C: i/a role A, j/b role B, c/d plugged
    for m, i, o in ((s + 1, "i", "a"), (s + 2, "j", "b"), (s, "c", "d")):
        ins[m % 3], outs[m % 3] = i, o
    w = np.einsum("".join(ins) + "fp" + "".join(outs) + ",dycx->ijfypxab", u, v)
    layout = TwoSlotLayout.of(("P", 8 * k), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2),
                              ("F", 8 * k))
    return LinOp(layout.out_space(), layout.in_space(), w.reshape(32 * k, 32 * k)), layout


def reference_matrix_text(op):
    """The text of a matrix file as one ``json.dump`` of the whole document."""
    doc = {
        "version": 1,
        "in_dims": [[lab, d] for lab, d in op.in_space.factors],
        "out_dims": [[lab, d] for lab, d in op.out_space.factors],
        "data": [[float(z.real), float(z.imag)] for row in op.data for z in row],
    }
    buf = io.StringIO()
    json.dump(doc, buf)
    buf.write("\n")
    return buf.getvalue()


def _finite_number(x):
    if type(x) not in (int, float):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False


def reference_entry_error(raw):
    """Message for the first bad data entry of a loaded ``data`` list, None
    when every entry is a pair of finite JSON numbers."""
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            return f"bad data entry at index {i}: {pair!r}"
        if not all(_finite_number(x) for x in pair):
            return f"non-numeric or non-finite data entry at index {i}: {pair!r}"
    return None


def reference_load_matrix(path):
    """A matrix file parsed whole by ``json.load`` and checked in order:
    version, input and output dimensions, data length, then each entry."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    if not (isinstance(doc, dict) and type(doc.get("version")) is int
            and doc["version"] == FORMAT_VERSION):
        raise MatrixFileError(f"unsupported or missing format version in {path}")
    in_space = _parse_dims(doc.get("in_dims"), "in_dims")
    out_space = _parse_dims(doc.get("out_dims"), "out_dims")
    raw = doc.get("data")
    if not isinstance(raw, list) or len(raw) != in_space.dim * out_space.dim:
        raise MatrixFileError(
            f"data length {len(raw) if isinstance(raw, list) else '?'} does not match "
            f"{out_space.dim} x {in_space.dim}"
        )
    error = reference_entry_error(raw)
    if error is not None:
        raise MatrixFileError(error)
    flat = np.array([float(x) for pair in raw for x in pair])
    return LinOp(out_space, in_space, flat.view(np.complex128).reshape(out_space.dim, in_space.dim))


def reference_contract(a, a_keys, b, b_keys, out_keys):
    """einsum of two tensors whose axes are named by hashable keys: a key on
    both operands and not in ``out_keys`` is summed over."""
    ids = {key: i for i, key in enumerate(dict.fromkeys(a_keys + b_keys))}
    return np.einsum(a, [ids[key] for key in a_keys], b, [ids[key] for key in b_keys],
                     [ids[key] for key in out_keys], optimize=True)

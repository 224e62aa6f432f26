"""Shared test helpers: the vector-family references for the reversibility
conditions and for the global past split, and the input transformations the
metamorphic and perturbation tests apply.

The family references are the paths the library once took: each condition
says reduced images stay orthogonal for every slot-output vector, and it is
evaluated on the polarization family of the wire plus a fixed batch of
random vectors, with one SVD image-and-reduce per vector (per pair of
vectors for the joint condition); the global past split aggregates the
pointwise past splits over the same families.  The library's closed-form
checks and its signalling-support split must reach the same results.

The contraction references are the identity-padded dense forms plugging
and the link product once took: the slot operators tensored with the
identity on the future and composed with the map as one square product
before the slot wires are traced, and the link as the trace of
(E (x) I)(I (x) F)^{T_shared}.  The label-matched contractions must give
the same factor order, the same roles and the same entries.

The restriction reference is the dense form the direct-sum split once
took: each block and each off-diagonal corner read off U through
Kronecker lifts of the embeddings, (I (x) f_e)^dagger U (p_e (x) I).  The
stacked change of basis must give the same blocks and off-block weight.

The joint-residual reference is the loop over every ordered pair of
slot-A outputs that the library once ran; the halved loop must return the
same float.

The matrix-file references are the forms the saver and loader once took:
one ``json.dump`` of the whole document with a ``[float(re), float(im)]``
list per entry; a per-entry scan naming the first bad data entry; and a
load that parses the whole document with ``json.load`` before any check.
The block-streamed save must write the same bytes, and the chunked load
must give the same bits or raise the same messages.

The pointwise-split reference is the SVD chain ``twoslot`` once took:
each future part an intersection of reduced images
(``product_subspace`` -> ``image`` -> ``reduced_subspace`` ->
``intersect``), and the past parts the nested rule on the pull-backs,
each cut by an SVD of its factor.  The splits read off the view of U must
give the same dims and spans.

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
    _aligned_square,
    canonical_phase,
    compose,
    identity,
    kron,
    partial_trace,
    permute_systems,
    trace_matching,
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
from purecomb.twoslot import SubspaceTriple, p_point_decomposition


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
    a = _aligned_square(a)
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
    return c.hermiticity_residual() <= tol and c.min_eigenvalue() >= -tol


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
        return p_point_decomposition(u, layout, alpha, beta, tol)

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
    treated as its private ancillas and pass through to the result.  The
    output is scaled to the canonical global phase so repeated calls are
    bit-identical.
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
        return canonical_phase(u)
    lifted = functools.reduce(kron, slot_ops, identity(future))
    prod = compose(lifted, u, pad=True)
    traced = trace_matching(prod, [layout.factor(2 * k)[0] for k in range(1, n + 1)])
    return canonical_phase(traced)


def kron_restriction(u, layout, p_embed, f_embed):
    """(I_slot-inputs (x) f_embed)^dagger U (p_embed (x) I_slot-outputs) of a
    two-slot operator, with U's factors put in canonical order first."""
    d_in = layout.a_out[1] * layout.b_out[1]
    d_out = layout.a_in[1] * layout.b_in[1]
    mat = permute_systems(u, layout.in_space().labels + layout.out_space().labels).data
    return np.kron(np.eye(d_out), f_embed).conj().T @ mat @ np.kron(p_embed, np.eye(d_in))


def reference_joint_residual(u, layout):
    """The joint residual as every ordered (a, a', b, b') block, each with
    its own traced-over-a Gram: the loop ``twoslot._joint_residual`` halves
    and hoists, which must give the same float."""
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

import numpy as np
import pytest

from helpers import angle_sine, basis_state
from purecomb.spaces import TOL, LinOp, Spaces, Vec
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


def _qr_haar(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_subspace(space, k, rng):
    m = rng.standard_normal((space.dim, k)) + 1j * rng.standard_normal((space.dim, k))
    return from_spanning(m, space)


SP2 = Spaces.of(("A", 2))
SP3 = Spaces.of(("A", 3))
SP4 = Spaces.of(("A", 4))


class TestFromSpanning:
    def test_collinear(self):
        v = basis_state(SP2, 0)
        w = Vec(SP2, 2 * v.data)
        assert from_spanning([v, w]).dim == 1

    def test_plus_minus_span_everything(self):
        plus = Vec(SP2, np.array([1, 1]) / np.sqrt(2))
        minus = Vec(SP2, np.array([1, -1]) / np.sqrt(2))
        assert from_spanning([plus, minus]).dim == 2

    def test_generic_rank(self):
        # 50 random vectors in C^4 have a nonsingular Gram matrix on any 4
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 50)) + 1j * rng.standard_normal((4, 50))
        gram = mat[:, :4].conj().T @ mat[:, :4]
        assert abs(np.linalg.det(gram)) > 1e-6
        assert from_spanning(mat, SP4).dim == 4

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(1)
        s = _random_subspace(SP4, 2, rng)
        assert np.abs(s.basis.conj().T @ s.basis - np.eye(2)).max() < 1e-10

    def test_mixed_spaces_rejected(self):
        with pytest.raises(ValueError):
            from_spanning([basis_state(SP2, 0), basis_state(SP3, 0)])

    def test_empty(self):
        assert from_spanning([], SP3).dim == 0


class TestSumComplementIntersect:
    def test_sum_with_zero(self):
        rng = np.random.default_rng(2)
        s = _random_subspace(SP3, 2, rng)
        out = sum_subspaces(s, Subspace.zero(SP3))
        assert is_subset(out, s) and is_subset(s, out)

    def test_sum_of_basis_lines(self):
        out = sum_subspaces(
            from_spanning([basis_state(SP2, 0)]), from_spanning([basis_state(SP2, 1)])
        )
        assert out.dim == 2

    def test_generic_position(self):
        rng = np.random.default_rng(3)
        s = _random_subspace(SP3, 2, rng)
        t = _random_subspace(SP3, 2, rng)
        assert sum_subspaces(s, t).dim == 3

    def test_complement_of_full_and_line(self):
        assert complement(Subspace.full(SP3)).dim == 0
        line = from_spanning([basis_state(SP2, 0)])
        comp = complement(line)
        assert comp.dim == 1
        assert abs(abs(comp.basis[1, 0]) - 1) < 1e-12

    def test_double_complement(self):
        rng = np.random.default_rng(4)
        for k in (1, 2, 3):
            s = _random_subspace(SP4, k, rng)
            assert angle_sine(complement(complement(s)), s) < 1e-10

    def test_intersect_with_full(self):
        rng = np.random.default_rng(5)
        s = _random_subspace(SP4, 2, rng)
        out = intersect(s, Subspace.full(SP4))
        assert is_subset(out, s) and is_subset(s, out)

    def test_intersect_planes(self):
        s = from_spanning([basis_state(SP3, 0), basis_state(SP3, 1)])
        t = from_spanning([basis_state(SP3, 1), basis_state(SP3, 2)])
        out = intersect(s, t)
        assert out.dim == 1
        assert abs(abs(out.basis[1, 0]) - 1) < 1e-10

    def test_intersect_orthogonal_is_zero(self):
        s = from_spanning([basis_state(SP3, 0)])
        t = from_spanning([basis_state(SP3, 1), basis_state(SP3, 2)])
        assert intersect(s, complement(s)).dim == 0
        assert intersect(s, t).dim == 0

    def test_intersect_matches_projector_product_oracle(self):
        # eigenvalue-1 space of P_s P_t P_s
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = _random_subspace(SP4, rng.integers(1, 4), rng)
            t = _random_subspace(SP4, rng.integers(1, 4), rng)
            got = intersect(s, t)
            prod = s.projector() @ t.projector() @ s.projector()
            evals, evecs = np.linalg.eigh((prod + prod.conj().T) / 2)
            keep = evecs[:, np.abs(evals - 1.0) < 1e-8]
            oracle = from_spanning(keep, SP4)
            assert got.dim == oracle.dim
            assert angle_sine(got, oracle) < 1e-8


class TestPredicates:
    def test_complement_is_orthogonal(self):
        rng = np.random.default_rng(7)
        s = _random_subspace(SP4, 2, rng)
        assert orthogonality_residual(s, complement(s)) <= TOL

    def test_subset_of_sum(self):
        rng = np.random.default_rng(8)
        s = _random_subspace(SP4, 1, rng)
        t = _random_subspace(SP4, 2, rng)
        assert is_subset(s, sum_subspaces(s, t))

    def test_random_lines_not_orthogonal(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            s = _random_subspace(SP4, 1, rng)
            t = _random_subspace(SP4, 1, rng)
            assert orthogonality_residual(s, t) > TOL


class TestReducedSubspace:
    def test_entangled_line_reduces_to_plane(self):
        sp = Spaces.of(("E", 2), ("F", 2))
        v = Vec(sp, np.array([1, 0, 0, 2], dtype=complex))  # |00> + 2|11>
        out = reduced_subspace(from_spanning([v]), ["E"])
        assert out.ambient.labels == ("F",)
        assert out.dim == 2

    def test_full_left_factor(self):
        # reducing E (x) X returns X, for a random X
        rng = np.random.default_rng(10)
        e_sp, f_sp = Spaces.of(("E", 2)), Spaces.of(("F", 4))
        x = _random_subspace(f_sp, 2, rng)
        w = product_subspace([Subspace.full(e_sp), x])
        out = reduced_subspace(w, ["E"])
        assert out.dim == x.dim
        assert angle_sine(out, x) < 1e-10

    def test_density_support_oracle(self):
        # span of supports of the E-traced projectors of random members, with
        # E first, in the middle, last, split over two labels, and with the
        # remaining factors requested in a non-ambient order
        rng = np.random.default_rng(11)
        cases = [
            (Spaces.of(("E", 2), ("F", 3)), ["E"], None),
            (Spaces.of(("X", 2), ("E", 3), ("Y", 2)), ["E"], None),
            (Spaces.of(("X", 2), ("Y", 3), ("E", 2)), ["E"], None),
            (Spaces.of(("E1", 2), ("F", 3), ("E2", 2)), ["E2", "E1"], None),
            (Spaces.of(("X", 2), ("E", 2), ("Y", 3)), ["E"], ["Y", "X"]),
        ]
        for sp, e, f in cases:
            rest = f if f is not None else [lab for lab in sp.labels if lab not in e]
            f_space = sp.select(rest)
            axes = [sp.index(lab) for lab in e + rest]
            for _ in range(10):
                w = _random_subspace(sp, rng.integers(1, 4), rng)
                got = reduced_subspace(w, e, f)
                assert got.ambient == f_space
                vecs = []
                for _ in range(50):
                    c = rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim)
                    eta = (w.basis @ c).reshape(sp.dims).transpose(axes).reshape(-1, f_space.dim)
                    rho = eta.T @ eta.conj()  # trace over E in these coordinates
                    evals, evecs = np.linalg.eigh(rho)
                    vecs.append(evecs[:, evals > 1e-10])
                oracle = from_spanning(np.concatenate(vecs, axis=1), f_space)
                assert got.dim == oracle.dim
                assert angle_sine(got, oracle) < 1e-8

    def test_monotone(self):
        rng = np.random.default_rng(12)
        sp = Spaces.of(("E", 2), ("F", 3))
        t = _random_subspace(sp, 3, rng)
        s = from_spanning(t.basis[:, :1], sp)
        assert is_subset(reduced_subspace(s, ["E"]), reduced_subspace(t, ["E"]))

    def test_additive_over_sums(self):
        rng = np.random.default_rng(13)
        sp = Spaces.of(("E", 2), ("F", 3))
        s = _random_subspace(sp, 1, rng)
        t = _random_subspace(sp, 1, rng)
        lhs = reduced_subspace(sum_subspaces(s, t), ["E"])
        rhs = sum_subspaces(reduced_subspace(s, ["E"]), reduced_subspace(t, ["E"]))
        assert lhs.dim == rhs.dim
        assert angle_sine(lhs, rhs) < 1e-8

    def test_bad_partition(self):
        rng = np.random.default_rng(14)
        sp = Spaces.of(("E", 2), ("F", 3))
        w = _random_subspace(sp, 2, rng)
        with pytest.raises(ValueError):
            reduced_subspace(w, ["Z"])


class TestImage:
    def test_identity_image(self):
        rng = np.random.default_rng(15)
        s = _random_subspace(SP4, 2, rng)
        u = LinOp(SP4, SP4, np.eye(4))
        assert angle_sine(image(u, s), s) < 1e-12

    def test_unitary_image_of_full(self):
        rng = np.random.default_rng(16)
        u = LinOp(SP4, SP4, _qr_haar(4, rng))
        assert image(u, Subspace.full(SP4)).dim == 4

    def test_angles_preserved(self):
        rng = np.random.default_rng(17)
        u = LinOp(SP4, SP4, _qr_haar(4, rng))
        s = _random_subspace(SP4, 2, rng)
        t = _random_subspace(SP4, 2, rng)
        before = np.linalg.svd(s.basis.conj().T @ t.basis, compute_uv=False)
        after_s, after_t = image(u, s), image(u, t)
        after = np.linalg.svd(after_s.basis.conj().T @ after_t.basis, compute_uv=False)
        assert np.abs(np.sort(before) - np.sort(after)).max() < 1e-10


class TestSplittingIdentities:
    def test_orthogonal_triple_fills_space(self):
        # s ⊥ t splits the ambient into s, t and the leftover intersection
        rng = np.random.default_rng(18)
        for _ in range(10):
            s = _random_subspace(SP4, 1, rng)
            t_raw = _random_subspace(SP4, 2, rng)
            t = from_spanning(
                t_raw.basis - s.basis @ (s.basis.conj().T @ t_raw.basis), SP4
            )
            middle = intersect(complement(s), complement(t))
            assert s.dim + middle.dim + t.dim == 4

    def test_split_reduction_triple(self):
        # random orthogonal splitting E(x)F = W0 + W1: the complements of the
        # two reductions and their mutual intersection tile F
        rng = np.random.default_rng(19)
        sp = Spaces.of(("E", 2), ("F", 3))
        f_sp = Spaces.of(("F", 3))
        for _ in range(10):
            u = _qr_haar(6, rng)
            k = int(rng.integers(1, 6))
            w0 = from_spanning(u[:, :k], sp)
            w1 = from_spanning(u[:, k:], sp)
            r0, r1 = reduced_subspace(w0, ["E"]), reduced_subspace(w1, ["E"])
            parts = [complement(r1), intersect(r0, r1), complement(r0)]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert orthogonality_residual(parts[i], parts[j]) < 1e-8
            assert sum(p.dim for p in parts) == f_sp.dim


class TestToleranceArgument:
    # each rank decision cuts at the tol it is handed: a direction of size
    # 1e-7 is dropped at tol 1e-6 and kept at the default
    @pytest.mark.parametrize("rank_of", [
        lambda tol: from_spanning(np.diag([1.0, 1e-7]), SP2, tol),
        lambda tol: sum_subspaces(Subspace(SP2, np.array([[1.0], [0.0]])),
                                  from_spanning(np.array([[1.0], [1e-7]]), SP2), tol=tol),
        lambda tol: image(LinOp(SP2, SP2, np.diag([1.0, 1e-7])), Subspace.full(SP2), tol),
        lambda tol: reduced_subspace(  # |00> + 1e-7 |11>, reduced over E
            from_spanning(np.array([1.0, 0, 0, 1e-7]), Spaces.of(("E", 2), ("X", 2))), ["E"],
            tol=tol),
    ], ids=["from_spanning", "sum_subspaces", "image", "reduced_subspace"])
    def test_small_direction_follows_tol(self, rank_of):
        assert rank_of(1e-6).dim == 1
        assert rank_of(TOL).dim == 2

    def test_complement_decides_no_rank(self):
        rng = np.random.default_rng(20)
        for k in range(5):
            s = _random_subspace(SP4, k, rng)
            assert complement(s).dim == 4 - k
        # a kept 1e-7 direction stays in the basis the complement sees
        s = from_spanning(np.array([[1.0, 1.0], [0, 1e-7], [0, 0]]), SP3)
        assert s.dim == 2 and complement(s).dim == 1

import dataclasses
import math

import numpy as np
import pytest

from helpers import basis_state, kron_vec, partial_transpose, trace_matching
from purecomb.layouts import SlotLayout, TwoSlotLayout
from purecomb.spaces import (
    LinOp,
    Spaces,
    Vec,
    adjoint,
    apply_op,
    compose,
    contract_bra,
    identity,
    is_unitary,
    kron,
    partial_trace,
    permute_systems,
    phase_distance,
)


def _rand_op(rng, out_factors, in_factors):
    out_sp, in_sp = Spaces.of(*out_factors), Spaces.of(*in_factors)
    m = rng.standard_normal((out_sp.dim, in_sp.dim)) + 1j * rng.standard_normal((out_sp.dim, in_sp.dim))
    return LinOp(out_sp, in_sp, m)


def _qr_haar(dim, rng):
    # independent construction: QR of a complex Gaussian, phases fixed
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestSpaces:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Spaces.of(("A", 2), ("A", 3))

    def test_empty_space_is_scalar(self):
        assert Spaces(()).dim == 1

    def test_select_and_without(self):
        sp = Spaces.of(("A", 2), ("B", 3), ("C", 4))
        assert sp.select(["C", "A"]).dims == (4, 2)
        assert sp.without(["B"]).labels == ("A", "C")
        with pytest.raises(ValueError):
            sp.select(["Z"])


    @pytest.mark.parametrize("factors", [(), (("A", 3),), (("A", 2), ("B", 3), ("C", 4), ("D", 1))])
    def test_cached_fields_match_the_factors(self, factors):
        sp = Spaces(factors)
        assert sp.labels == tuple(lab for lab, _ in factors)
        assert sp.dims == tuple(d for _, d in factors)
        assert sp.dim == math.prod(d for _, d in factors)
        for i, (lab, d) in enumerate(factors):
            assert sp.has(lab) and sp.index(lab) == i and sp.dim_of(lab) == d
        assert not sp.has("Z")
        with pytest.raises(ValueError, match="unknown label 'Z'"):
            sp.index("Z")

    def test_cached_fields_are_not_dataclass_fields(self):
        a = Spaces.of(("A", 2), ("B", 3))
        b = Spaces(tuple(list(a.factors)))
        assert [f.name for f in dataclasses.fields(a)] == ["factors"]
        assert a == b and hash(a) == hash(b) and a is not b
        assert repr(a) == "Spaces(factors=(('A', 2), ('B', 3)))"
        assert {a: 1}[b] == 1
        assert a != Spaces.of(("B", 3), ("A", 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.factors = ()

    def test_replace_recomputes_the_cached_fields(self):
        sp = dataclasses.replace(Spaces.of(("A", 2), ("B", 3)), factors=(("C", 5), ("A", 2)))
        assert (sp.labels, sp.dims, sp.dim) == (("C", "A"), (5, 2), 10)
        assert sp.index("A") == 1 and not sp.has("B")
        with pytest.raises(ValueError, match="duplicate"):
            dataclasses.replace(sp, factors=(("A", 2), ("A", 2)))

    def test_slot_layout_fields_are_cached_and_recomputed(self):
        lay = SlotLayout.of(("H0", 2), ("H1", 3), ("H2", 4), ("H3", 5))
        assert (lay.labels, lay.dims) == (("H0", "H1", "H2", "H3"), (2, 3, 4, 5))
        assert [f.name for f in dataclasses.fields(lay)] == ["factors"]
        assert lay == SlotLayout(tuple(list(lay.factors))) and hash(lay) == hash(SlotLayout(lay.factors))
        moved = dataclasses.replace(lay, factors=(("X", 7), ("Y", 8)))
        assert (moved.labels, moved.dims, moved.n_slots) == (("X", "Y"), (7, 8), 0)

    def test_two_slot_layout_is_its_a_first_chain(self):
        lay = TwoSlotLayout.of(("P", 4), ("AI", 2), ("AO", 3), ("BI", 5), ("BO", 2), ("F", 6))
        assert isinstance(lay, SlotLayout)
        assert [f.name for f in dataclasses.fields(lay)] == ["factors"]
        chain = lay.slot_chain("ab")
        assert type(chain) is SlotLayout and type(SlotLayout.of(*lay.factors)) is SlotLayout
        assert (lay.labels, lay.dims, lay.io_labels) == (chain.labels, chain.dims, chain.io_labels)
        assert (lay.in_space(), lay.out_space()) == (chain.in_space(), chain.out_space())
        roles = (lay.past, lay.a_in, lay.a_out, lay.b_in, lay.b_out, lay.future)
        assert roles == lay.factors
        assert lay.slot_chain("ba").factors == (lay.past, lay.b_in, lay.b_out, lay.a_in, lay.a_out,
                                                lay.future)
        moved = lay.with_dims(7, 8)
        assert type(moved) is TwoSlotLayout
        assert moved.factors == (("P", 7), *lay.factors[1:5], ("F", 8))
        with pytest.raises(AttributeError):
            lay.past = ("P", 2)

    @pytest.mark.parametrize("n", [4, 8])
    def test_two_slot_layout_needs_six_factors(self, n):
        factors = tuple((f"H{i}", 2) for i in range(n))
        SlotLayout(factors)
        with pytest.raises(ValueError, match="exactly 6"):
            TwoSlotLayout(factors)

    @pytest.mark.parametrize("factors", [(("H0", 2), ("H1", 0)), (("H0", 2), ("H1", -1)),
                                         (("H0", 2), ("H1", 2.0)), (("H0", 2), ("H0", 2))])
    def test_slot_layout_rejects_what_spaces_rejects(self, factors):
        with pytest.raises(ValueError):
            SlotLayout(factors)


class TestKron:
    def test_identity_case(self):
        a = identity(Spaces.of(("A", 2)))
        b = identity(Spaces.of(("B", 2)))
        assert np.array_equal(kron(a, b).data, np.eye(4))

    def test_scalar_factor(self):
        flip = LinOp(Spaces.of(("A", 2)), Spaces.of(("A", 2)), np.array([[0, 1], [1, 0]]))
        scalar = identity(Spaces.of(("S", 1)))
        out = kron(flip, scalar)
        assert np.array_equal(out.data, flip.data)
        assert out.out_space.labels == ("A", "S")

    def test_entries_against_index_loop(self):
        rng = np.random.default_rng(0)
        a = _rand_op(rng, [("A", 2)], [("A2", 2)])
        b = _rand_op(rng, [("B", 3)], [("B2", 3)])
        out = kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        got = out.data[i * 3 + k, j * 3 + l]
                        assert abs(got - a.data[i, j] * b.data[k, l]) < 1e-14

    def test_label_collision(self):
        a = identity(Spaces.of(("A", 2)))
        with pytest.raises(ValueError):
            kron(a, a)


class TestPermute:
    def test_round_trip_vector(self):
        rng = np.random.default_rng(1)
        sp = Spaces.of(("A", 2), ("B", 3), ("C", 2))
        v = Vec(sp, rng.standard_normal(12) + 1j * rng.standard_normal(12))
        w = permute_systems(v, ["C", "A", "B"])
        back = permute_systems(w, ["A", "B", "C"])
        assert np.array_equal(back.data, v.data)

    def test_index_arithmetic(self):
        sp = Spaces.of(("A", 2), ("B", 2))
        v = basis_state(sp, (0, 1))  # |0>_A |1>_B, composite index 1
        assert v.data[1] == 1.0
        w = permute_systems(v, ["B", "A"])  # |1>_B |0>_A, composite index 2
        assert w.data[2] == 1.0

    def test_identity_permutation(self):
        rng = np.random.default_rng(2)
        a = _rand_op(rng, [("A", 2), ("B", 3)], [("A", 2), ("B", 3)])
        out = permute_systems(a, ["A", "B"])
        assert np.array_equal(out.data, a.data)

    def test_group_action(self):
        # permuting twice equals permuting by the composition, exactly
        rng = np.random.default_rng(3)
        a = _rand_op(rng, [("A", 2), ("B", 3), ("C", 2)], [("A", 2), ("B", 3), ("C", 2)])
        one = permute_systems(permute_systems(a, ["B", "A", "C"]), ["C", "B", "A"])
        two = permute_systems(a, ["C", "B", "A"])
        assert np.array_equal(one.data, two.data)

    def test_unknown_label(self):
        a = identity(Spaces.of(("A", 2)))
        with pytest.raises(ValueError):
            permute_systems(a, ["B"])


class TestPartialTrace:
    def test_product_factorization(self):
        rng = np.random.default_rng(4)
        a = _rand_op(rng, [("A", 3)], [("A", 3)])
        b = _rand_op(rng, [("B", 2)], [("B", 2)])
        out = partial_trace(kron(a, b), ["B"])
        expected = np.trace(b.data) * a.data
        assert np.abs(out.data - expected).max() < 1e-12

    def test_maximally_entangled(self):
        # unnormalized |I>><<I| on 2x2; summing the diagonal blocks by hand
        sp = Spaces.of(("A", 2), ("B", 2))
        phi = np.array([1, 0, 0, 1], dtype=complex)
        rho = LinOp(sp, sp, np.outer(phi, phi.conj()))
        expected = rho.data[0::1, :][np.ix_([0, 1], [0, 1])] + rho.data[np.ix_([2, 3], [2, 3])]
        out = partial_trace(rho, ["B"])
        assert np.abs(out.data - expected).max() == 0
        assert np.abs(out.data - np.eye(2)).max() == 0

    def test_trace_all(self):
        rng = np.random.default_rng(5)
        a = _rand_op(rng, [("A", 2), ("B", 2)], [("A", 2), ("B", 2)])
        out = partial_trace(a, ["A", "B"])
        assert out.out_space.dim == 1
        assert abs(out.data[0, 0] - np.trace(a.data)) < 1e-12

    def test_preserves_total_trace(self):
        rng = np.random.default_rng(6)
        a = _rand_op(rng, [("A", 2), ("B", 3)], [("A", 2), ("B", 3)])
        out = partial_trace(a, ["B"])
        assert abs(np.trace(out.data) - np.trace(a.data)) < 1e-12

    def test_non_square_rejected(self):
        rng = np.random.default_rng(7)
        a = _rand_op(rng, [("A", 2)], [("B", 2)])
        with pytest.raises(ValueError):
            partial_trace(a, ["A"])
        # a rectangular map that the rectangular reference traces
        b = _rand_op(rng, [("A", 2), ("X", 3)], [("B", 4), ("X", 3)])
        trace_matching(b, ["X"])
        with pytest.raises(ValueError):
            partial_trace(b, ["X"])


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(8)
        a = _rand_op(rng, [("A", 2), ("B", 3)], [("A", 2), ("B", 3)])
        out = partial_transpose(partial_transpose(a, ["B"]), ["B"])
        assert np.array_equal(out.data, a.data)

    def test_product_case(self):
        rng = np.random.default_rng(9)
        a = _rand_op(rng, [("A", 2)], [("A", 2)])
        b = _rand_op(rng, [("B", 3)], [("B", 3)])
        out = partial_transpose(kron(a, b), ["B"])
        assert np.abs(out.data - np.kron(a.data, b.data.T)).max() < 1e-14

    def test_index_oracle(self):
        rng = np.random.default_rng(10)
        a = _rand_op(rng, [("A", 2), ("B", 2)], [("A", 2), ("B", 2)])
        out = partial_transpose(a, ["B"])
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    for l in range(2):
                        assert out.data[i * 2 + k, j * 2 + l] == a.data[i * 2 + l, j * 2 + k]

    def test_unknown_label(self):
        rng = np.random.default_rng(30)
        a = _rand_op(rng, [("A", 2)], [("A", 2)])
        with pytest.raises(ValueError):
            partial_transpose(a, ["Q"])


class TestContractBra:
    def test_basis_contraction(self):
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        full = kron_vec(basis_state(Spaces.of(("A", 2)), 0), Vec(Spaces.of(("B", 3)), psi))
        out = contract_bra(basis_state(Spaces.of(("A", 2)), 0), full)
        assert np.abs(out.data - psi).max() < 1e-14

    def test_orthogonal_gives_zero(self):
        rng = np.random.default_rng(12)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        full = kron_vec(basis_state(Spaces.of(("A", 2)), 0), Vec(Spaces.of(("B", 3)), psi))
        out = contract_bra(basis_state(Spaces.of(("A", 2)), 1), full)
        assert np.abs(out.data).max() == 0

    def test_matrix_product_oracle(self):
        rng = np.random.default_rng(13)
        sp = Spaces.of(("A", 2), ("B", 3))
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        out = contract_bra(Vec(Spaces.of(("A", 2)), phi), Vec(sp, x))
        oracle = np.kron(phi.conj(), np.eye(3)) @ x
        assert np.abs(out.data - oracle).max() < 1e-14

    def test_commutes_with_retained_action(self):
        rng = np.random.default_rng(14)
        sp_a, sp_b = Spaces.of(("A", 2)), Spaces.of(("B", 3))
        phi = Vec(sp_a, rng.standard_normal(2) + 1j * rng.standard_normal(2))
        x = Vec(sp_a.concat(sp_b), rng.standard_normal(6) + 1j * rng.standard_normal(6))
        op = _rand_op(rng, [("B", 3)], [("B", 3)])
        lifted = kron(identity(sp_a), op)
        lhs = contract_bra(phi, apply_op(lifted, x))
        rhs = apply_op(op, contract_bra(phi, x))
        assert np.abs(lhs.data - rhs.data).max() < 1e-12

    def test_label_mismatch(self):
        phi = basis_state(Spaces.of(("Z", 2)), 0)
        x = basis_state(Spaces.of(("A", 2), ("B", 2)), 0)
        with pytest.raises(ValueError):
            contract_bra(phi, x)


class TestIsUnitary:
    def test_identity(self):
        ok, res = is_unitary(identity(Spaces.of(("A", 5))))
        assert ok and res == 0.0

    def test_singular_value_off(self):
        sp = Spaces.of(("A", 2))
        ok, _ = is_unitary(LinOp(sp, sp, np.diag([1.0, 0.5])))
        assert not ok

    def test_product_of_haar(self):
        rng = np.random.default_rng(15)
        sp = Spaces.of(("A", 4))
        u = LinOp(sp, sp, _qr_haar(4, rng) @ _qr_haar(4, rng))
        ok, res = is_unitary(u, 1e-12)
        assert ok and res < 1e-12

    def test_non_square(self):
        rng = np.random.default_rng(16)
        a = _rand_op(rng, [("A", 2)], [("B", 3)])
        ok, res = is_unitary(a)
        assert not ok and res == float("inf")

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(17)
        sp = Spaces.of(("A", 2), ("B", 3))
        u = LinOp(sp, sp, _qr_haar(6, rng))
        res1 = is_unitary(u).residual
        res2 = is_unitary(permute_systems(u, ["B", "A"])).residual
        assert abs(res1 - res2) < 1e-14
        assert is_unitary(permute_systems(u, ["B", "A"])).ok


class TestComposeand:
    def test_pad_routes_spectators(self):
        rng = np.random.default_rng(18)
        a = _rand_op(rng, [("X", 2)], [("A", 2)])
        b = _rand_op(rng, [("A", 2), ("C", 3)], [("P", 2), ("C", 3)])
        out = compose(a, b, pad=True)
        assert set(out.out_space.labels) == {"X", "C"}
        assert set(out.in_space.labels) == {"P", "C"}

    def test_strict_interface_mismatch(self):
        rng = np.random.default_rng(19)
        a = _rand_op(rng, [("X", 2)], [("A", 2)])
        b = _rand_op(rng, [("B", 2)], [("P", 2)])
        with pytest.raises(ValueError):
            compose(a, b)

    def test_trace_matching(self):
        rng = np.random.default_rng(20)
        a = _rand_op(rng, [("A", 2), ("X", 3)], [("B", 2), ("X", 3)])
        out = trace_matching(a, ["X"])
        blocks = a.data.reshape(2, 3, 2, 3)
        oracle = sum(blocks[:, i, :, i] for i in range(3))
        assert np.abs(out.data - oracle).max() < 1e-14
        # a label kept on both sides comes after an input-only label
        b = _rand_op(rng, [("X", 2), ("E", 3), ("T", 2)], [("A", 4), ("E", 3), ("T", 2)])
        out = permute_systems(trace_matching(b, ["T"]), ["X", "E", "A"])
        oracle = np.einsum("xetaft->xefa", b.data.reshape(2, 3, 2, 4, 3, 2)).reshape(6, 12)
        assert out.out_space.labels == ("X", "E") and out.in_space.labels == ("E", "A")
        assert np.abs(out.data - oracle).max() < 1e-14


class TestPhase:
    def test_phase_distance(self):
        rng = np.random.default_rng(21)
        sp = Spaces.of(("A", 3))
        u = LinOp(sp, sp, _qr_haar(3, rng))
        v = LinOp(sp, sp, np.exp(0.7j) * u.data)
        assert phase_distance(u, v) < 1e-14
        w = LinOp(sp, sp, _qr_haar(3, rng))
        assert phase_distance(u, w) > 1e-3

    def test_adjoint_inverts_unitary(self):
        rng = np.random.default_rng(22)
        u = LinOp(Spaces.of(("B", 3)), Spaces.of(("A", 3)), _qr_haar(3, rng))
        out = compose(adjoint(u), u)
        assert np.abs(out.data - np.eye(3)).max() < 1e-12

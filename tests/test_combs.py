import dataclasses
import os

import numpy as np
import pytest

from helpers import (
    build_staircase_comb,
    family_slot_residuals,
    family_verdict,
    locally_rotated,
    perturbed,
    reference_comb_choi_tower,
    reference_signalling_residual,
    trace_matching,
)
from purecomb.builders import (
    ancilla_chain,
    build_quantum_switch,
    haar_unitary,
    random_pure_comb,
    random_staircase_circuit,
)
from purecomb.choi import choi_of_unitary
from purecomb.combs import (
    CombCircuit,
    compose_staircase,
    staircase_decompose,
    verify_comb_choi,
    verify_pure_comb_unitary,
)
from purecomb.errors import VerificationError
from purecomb.io import load_matrix
from purecomb.layouts import SlotLayout
from purecomb.spaces import LinOp, Spaces, is_unitary, partial_trace, permute_systems, phase_distance

LAY1 = SlotLayout.of(("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2))
LAY1_K2 = SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 2), ("H3", 4))
LAY2 = SlotLayout.of(("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2), ("H4", 2), ("H5", 2))
LAY2_K2 = SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 2), ("H3", 2), ("H4", 2), ("H5", 4))
LAY3 = SlotLayout.of(*[(f"H{i}", 2) for i in range(8)])
LAY4 = SlotLayout.of(("H0", 4), *[(f"H{i}", 2) for i in range(1, 9)], ("H9", 4))
# the chains of the comb benchmark workload
BENCH_CHAINS = (
    SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 4), ("H3", 8)),
    SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 4), ("H3", 4), ("H4", 4), ("H5", 8)),
    SlotLayout.of(("H0", 8), ("H1", 2), ("H2", 4), ("H3", 4), ("H4", 4), ("H5", 4), ("H6", 2),
                  ("H7", 8)),
    LAY4,
)


def _swapped(layout):
    """The chain with the wires of slots 1 and 2 exchanged; a one-slot chain
    exchanges its slot input with the future instead."""
    f = list(layout.factors)
    if layout.n_slots == 1:
        f[1], f[3] = f[3], f[1]
    else:
        f[1:3], f[3:5] = f[3:5], f[1:3]
    return SlotLayout(tuple(f))


def _random_shaped(layout, seed):
    rng = np.random.default_rng(seed)
    return LinOp(layout.out_space(), layout.in_space(), haar_unitary(layout.in_space().dim, rng))


class TestVerifyCombChoi:
    def test_identity_channel(self):
        lay = SlotLayout.of(("H0", 2), ("H1", 2))
        ident = LinOp(Spaces.of(("H1", 2)), Spaces.of(("H0", 2)), np.eye(2))
        rep = verify_comb_choi(choi_of_unitary(ident).op, lay)
        assert rep.ok
        assert rep.residuals["normalization"] < 1e-12

    def test_random_unitary_choi_fails(self):
        for seed in range(100):
            rep = verify_comb_choi(choi_of_unitary(_random_shaped(LAY1, seed)).op, LAY1)
            assert not rep.ok

    def test_composed_staircase_passes(self):
        for seed in range(5):
            u = random_pure_comb(LAY1, seed)
            rep = verify_comb_choi(choi_of_unitary(u).op, LAY1)
            assert rep.ok, rep

    def test_scaled_choi_fails_normalization(self):
        u = random_pure_comb(LAY1, 0)
        c = choi_of_unitary(u)
        scaled = LinOp(c.op.out_space, c.op.in_space, 2.0 * c.op.data)
        assert not verify_comb_choi(scaled, LAY1).ok

    def test_agrees_with_unitary_level(self):
        # positive and negative cases through both verifiers
        for seed in range(50):
            u = random_pure_comb(LAY1, seed)
            assert verify_comb_choi(choi_of_unitary(u).op, LAY1).ok
            assert verify_pure_comb_unitary(u, LAY1).ok
        for seed in range(50):
            v = _random_shaped(LAY1, seed)
            assert not verify_comb_choi(choi_of_unitary(v).op, LAY1).ok
            assert not verify_pure_comb_unitary(v, LAY1).ok

    def test_tower_equals_the_kron_lift_reference(self):
        # the chains of the choi benchmark workload, chains with ancillas and
        # unequal dims, with 1-dim slot wires, and with no slot: each comb
        # Choi in its inputs-then-outputs order, in chain order and in two
        # more factor orders, and a positive and a non-Hermitian operator
        # with no comb structure
        rng = np.random.default_rng(31)
        for chain in (BENCH_CHAINS[0],
                      SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 2), ("H3", 4), ("H4", 4),
                                    ("H5", 4)),
                      SlotLayout.of(("H0", 6), ("H1", 2), ("H2", 3), ("H3", 9)),
                      LAY2_K2,
                      SlotLayout.of(("H0", 2), ("H1", 1), ("H2", 1), ("H3", 2)),
                      SlotLayout.of(("H0", 1), ("H1", 1))):
            w = choi_of_unitary(random_pure_comb(chain, 4)).op
            d = w.out_space.dim
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            cases = [(permute_systems(w, [chain.labels[i] for i in order]), True)
                     for order in (range(len(chain.labels)), range(len(chain.labels))[::-1],
                                   rng.permutation(len(chain.labels)))]
            cases += [(w, True), (LinOp(w.out_space, w.in_space, g @ g.conj().T / d), False),
                      (LinOp(w.out_space, w.in_space, g / d), False)]
            for op, in_class in cases:
                rep = verify_comb_choi(op, chain)
                assert rep.ok == in_class
                want = reference_comb_choi_tower(op, chain)
                levels = tuple(rep.residuals[f"level-{n}"] for n in range(chain.n_slots + 1))
                assert (levels, rep.residuals["normalization"]) == want

    def test_traces_equal_the_rectangular_reference_bytes(self):
        # each partial trace of the tower's partial-trace form, on the
        # comb-Choi fixture and on a seeded comb Choi, is byte-equal to the
        # rectangular reference: per level the trace of the outputs above
        # it, then of the inputs above it, those moved last
        fixture = load_matrix(os.path.join(os.path.dirname(__file__), "fixtures", "comb-choi.json"))
        chain = SlotLayout(tuple((lab, fixture.out_space.dim_of(lab))
                                 for lab in ("P", "AI", "AO", "BI", "BO", "F")))
        for op, lay in ((fixture, chain), (choi_of_unitary(random_pure_comb(LAY2_K2, 7)).op, LAY2_K2)):
            assert verify_comb_choi(op, lay).ok
            calls = []
            for n in range(lay.n_slots + 1):
                outs, ids = list(lay.labels[2 * n + 1::2]), list(lay.labels[2 * n::2])
                top = partial_trace(op, outs)
                rest = [lab for lab in top.out_space.labels if lab not in ids]
                level = permute_systems(top, rest + ids)
                calls += [(op, outs, top), (level, ids, partial_trace(level, ids))]
            for a, labels, got in calls:
                want = trace_matching(a, labels)
                assert (got.out_space, got.in_space) == (want.out_space, want.in_space)
                assert got.data.tobytes() == want.data.tobytes()


class TestVerifyPureCombUnitary:
    def test_composed_two_slot_staircase(self):
        for seed in range(5):
            u = random_pure_comb(LAY2, seed)
            rep = verify_pure_comb_unitary(u, LAY2)
            assert rep.ok
            assert list(rep.residuals) == ["slot-1", "slot-2"]

    def test_reversed_order_fails(self):
        # a B-before-A routing tested against the A-before-B chain
        rng = np.random.default_rng(3)
        swap2 = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap2[j * 2 + i, i * 2 + j] = 1.0
        # route H0 -> H3, H2 -> H5, H4 -> H1: second slot feeds the first
        u_mat = np.zeros((8, 8))
        for h0 in range(2):
            for h2 in range(2):
                for h4 in range(2):
                    col = (h0 * 2 + h2) * 2 + h4
                    row = (h4 * 2 + h0) * 2 + h2  # H1 <- H4, H3 <- H0, H5 <- H2
                    u_mat[row, col] = 1.0
        u = LinOp(LAY2.out_space(), LAY2.in_space(), u_mat)
        assert is_unitary(u).ok
        assert not verify_pure_comb_unitary(u, LAY2).ok
        # it is a valid comb for the reversed chain
        reversed_lay = SlotLayout.of(
            ("H0", 2), ("H3", 2), ("H4", 2), ("H1", 2), ("H2", 2), ("H5", 2)
        )
        assert verify_pure_comb_unitary(u, reversed_lay).ok

    def test_verdicts_match_family_oracle(self):
        for lay in (LAY1, LAY1_K2, LAY2, LAY2_K2, LAY3, LAY4):
            for seed in range(2):
                u = random_pure_comb(lay, seed)
                for chain, in_class in ((lay, True), (_swapped(lay), False)):
                    rep = verify_pure_comb_unitary(u, chain)
                    assert rep.ok == in_class
                    assert family_verdict(family_slot_residuals(u, chain)) == in_class

    def test_verdicts_invariant_under_local_unitaries_and_phase(self):
        rng = np.random.default_rng(17)
        for lay in (LAY1_K2, LAY2, LAY2_K2, LAY3, LAY4):
            u = random_pure_comb(lay, 5)
            ancillas = staircase_decompose(u, lay).ancilla_dims
            for _ in range(3):
                v = locally_rotated(u, rng)
                labels = list(v.in_space.labels + v.out_space.labels)
                reordered = permute_systems(v, [labels[i] for i in rng.permutation(len(labels))])
                for w in (v, reordered):
                    rep = verify_pure_comb_unitary(w, lay)
                    assert rep.ok and max(rep.residuals.values()) <= 1e-12
                    c = staircase_decompose(w, lay)
                    assert c.ancilla_dims == ancillas
                    assert phase_distance(compose_staircase(c), w) <= 1e-8
                    assert not verify_pure_comb_unitary(w, _swapped(lay)).ok
                assert not verify_pure_comb_unitary(locally_rotated(_random_shaped(lay, 6), rng),
                                                    lay).ok

    def test_residual_linear_in_perturbation(self):
        u = random_pure_comb(LAY2_K2, 9)
        ratios = []
        for eps in (1e-11, 1e-9, 1e-7, 1e-5):
            v = perturbed(u, eps, seed=2)
            res = max(verify_pure_comb_unitary(v, LAY2_K2).residuals.values())
            ratios.append(res / eps)
            assert verify_pure_comb_unitary(v, LAY2_K2, 10 * res).ok
            assert not verify_pure_comb_unitary(v, LAY2_K2, res / 10).ok
        assert max(ratios) <= 10 * min(ratios)

    def test_slot_residuals_match_the_full_components_exactly(self):
        """The benchmark chains at seed 7 (the 3-slot one is the digest tool's
        comb), in and out of class, and the d=3 switch read as an A-first
        chain, whose cut rows are sparse and whose slot-2 residual is 1.  The
        reference reads each operator in its layout's input-then-output
        order, the order the library sums in."""
        cases = []
        for lay in BENCH_CHAINS:
            u = random_pure_comb(lay, 7)
            cases += [(u, lay), (u, _swapped(lay))]
        switch, two_slot = build_quantum_switch(3)
        cases.append((switch, two_slot.slot_chain("ab")))
        for u, lay in cases:
            inputs = [lab for lab, _ in lay.odd_factors()]
            ordered = permute_systems(u, [*lay.labels[0::2], *lay.labels[1::2]])
            want = tuple(reference_signalling_residual(ordered, lay.factor(2 * n)[0], inputs[:n])
                         for n in range(1, lay.n_slots + 1))
            got = verify_pure_comb_unitary(u, lay).residuals
            assert got == {f"slot-{n}": r for n, r in enumerate(want, start=1)}
        assert want == (0.0, 1.0)

    def test_no_slots_vacuous(self):
        lay = SlotLayout.of(("H0", 3), ("H1", 3))
        rng = np.random.default_rng(4)
        u = LinOp(Spaces.of(("H1", 3)), Spaces.of(("H0", 3)), haar_unitary(3, rng))
        rep = verify_pure_comb_unitary(u, lay)
        assert rep.ok and rep.residuals == {}

    def test_non_unitary_rejected(self):
        bad = LinOp(LAY1.out_space(), LAY1.in_space(), np.eye(4) * 0.5)
        with pytest.raises(ValueError):
            verify_pure_comb_unitary(bad, LAY1)


class TestStaircaseDecompose:
    def test_parallel_pair_gives_trivial_ancilla(self):
        rng = np.random.default_rng(5)
        elements = [
            LinOp(Spaces.of(("H1", 2)), Spaces.of(("H0", 2)), haar_unitary(2, rng)),
            LinOp(Spaces.of(("H3", 2)), Spaces.of(("H2", 2)), haar_unitary(2, rng)),
        ]
        u = build_staircase_comb(elements, LAY1)
        c = staircase_decompose(u, LAY1)
        assert c.ancilla_dims == (1, 1, 1)
        assert phase_distance(compose_staircase(c), u) < 1e-10

    def test_roundtrip_random_one_slot(self):
        for seed in range(10):
            u = random_pure_comb(LAY1, seed)
            c = staircase_decompose(u, LAY1)
            assert phase_distance(compose_staircase(c), u) < 1e-8

    def test_forced_ancilla_dimension(self):
        # past dim 4 over slot-input dim 2 forces a 2-dimensional ancilla
        for seed in range(5):
            u = random_pure_comb(LAY1_K2, seed)
            c = staircase_decompose(u, LAY1_K2)
            assert c.ancilla_dims == (1, 2, 1)
            assert phase_distance(compose_staircase(c), u) < 1e-8

    def test_two_slot_equal_dims_no_ancillas(self):
        for seed in range(5):
            u = random_pure_comb(LAY2, seed)
            c = staircase_decompose(u, LAY2)
            assert c.ancilla_dims == (1, 1, 1, 1)
            assert phase_distance(compose_staircase(c), u) < 1e-8

    def test_chain_is_exact_integers(self):
        lay = SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 2), ("H3", 2), ("H4", 2), ("H5", 4))
        for seed in range(5):
            u = random_pure_comb(lay, seed)
            c = staircase_decompose(u, lay)
            dims = lay.dims
            for m in range(lay.n_slots + 1):
                assert dims[2 * m] * c.ancilla_dims[m] == dims[2 * m + 1] * c.ancilla_dims[m + 1]

    def test_rejects_non_comb(self):
        bad = _random_shaped(LAY1, 123)
        with pytest.raises(VerificationError):
            staircase_decompose(bad, LAY1)

    def test_circuit_gauge_freedom_roundtrip(self):
        # decomposing a composition reproduces the operator, not the circuit
        for seed in range(5):
            circuit = random_staircase_circuit(LAY1_K2, seed)
            u = compose_staircase(circuit)
            again = staircase_decompose(u, LAY1_K2)
            assert phase_distance(compose_staircase(again), u) < 1e-7

    def test_three_slot_roundtrip(self):
        lay = SlotLayout.of(
            ("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2),
            ("H4", 2), ("H5", 2), ("H6", 2), ("H7", 2),
        )
        for seed in range(3):
            u = random_pure_comb(lay, seed)
            c = staircase_decompose(u, lay)
            assert c.ancilla_dims == (1, 1, 1, 1, 1)
            assert phase_distance(compose_staircase(c), u) < 1e-7


class TestPerturbedStaircase:
    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5])
    def test_peels_like_the_unperturbed_input_at_ten_eps(self, eps):
        for i, lay in enumerate(BENCH_CHAINS):
            u = random_pure_comb(lay, 80 + i)
            want = staircase_decompose(u, lay).ancilla_dims
            v = perturbed(u, eps, seed=3)
            assert verify_pure_comb_unitary(v, lay, 10 * eps).ok
            c = staircase_decompose(v, lay, 10 * eps)
            assert c.ancilla_dims == want
            assert phase_distance(compose_staircase(c), v) <= 10 * eps

    def test_one_eigh_per_slot_and_no_svd(self, monkeypatch):
        calls = []
        for name in ("svd", "eigh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _f=fn, _n=name, **k: calls.append(_n) or _f(*a, **k))
        staircase_decompose(random_pure_comb(BENCH_CHAINS[2], 7), BENCH_CHAINS[2])
        assert calls == ["eigh"] * 3


class TestAncillaLabels:
    def test_taken_label_gets_underscore_prefix(self):
        lay = SlotLayout.of(("anc1", 4), ("H1", 2), ("H2", 2), ("H3", 4))
        from_builder = random_staircase_circuit(lay, 21)
        from_peeling = staircase_decompose(compose_staircase(from_builder), lay)
        for circuit in (from_builder, from_peeling):
            assert circuit.ancilla_dims == (1, 2, 1)
            assert circuit.ancilla_labels == ("_anc1",)
            assert circuit.elements[0].out_space.labels == ("H1", "_anc1")

    def test_prefix_repeats_until_free(self):
        lay = SlotLayout.of(("anc1", 4), ("_anc1", 2), ("H2", 2), ("H3", 2), ("anc2", 2),
                            ("H5", 4))
        assert random_staircase_circuit(lay, 22).ancilla_labels == ("__anc1", "_anc2")
        u = random_pure_comb(lay, 22)
        assert staircase_decompose(u, lay).ancilla_labels == ("__anc1", "_anc2")


class TestCombCircuit:
    def test_wrong_ancilla_dims_rejected(self):
        c = random_staircase_circuit(LAY1_K2, 3)
        assert c.ancilla_dims == (1, 2, 1)
        for dims in ((1, 1, 1), (1, 4, 1), (2, 1, 1), (1, 2), (1, 2, 1, 1)):
            with pytest.raises(ValueError, match="ancilla dims"):
                dataclasses.replace(c, ancilla_dims=dims)


class TestComposeStaircase:
    def test_single_element(self):
        rng = np.random.default_rng(7)
        lay = SlotLayout.of(("H0", 3), ("H1", 3))
        el = LinOp(Spaces.of(("H1", 3)), Spaces.of(("H0", 3)), haar_unitary(3, rng))
        c = CombCircuit(lay, (el,), (1, 1), ())
        assert np.array_equal(compose_staircase(c).data, el.data)

    def test_all_identity(self):
        elements = [
            LinOp(Spaces.of(("H1", 2)), Spaces.of(("H0", 2)), np.eye(2)),
            LinOp(Spaces.of(("H3", 2)), Spaces.of(("H2", 2)), np.eye(2)),
        ]
        u = build_staircase_comb(elements, LAY1)
        assert np.abs(u.data - np.eye(4)).max() < 1e-14

    def test_result_is_unitary(self):
        for seed in range(5):
            c = random_staircase_circuit(LAY2, seed)
            assert is_unitary(compose_staircase(c)).ok

    def test_mismatched_dims_rejected(self):
        rng = np.random.default_rng(8)
        bad_lay = SlotLayout.of(("H0", 2), ("H1", 3), ("H2", 2), ("H3", 2))
        with pytest.raises(ValueError):
            ancilla_chain(bad_lay)
        elements = [
            LinOp(Spaces.of(("H1", 3)), Spaces.of(("H0", 3)), haar_unitary(3, rng)),
            LinOp(Spaces.of(("H3", 2)), Spaces.of(("H2", 2)), haar_unitary(2, rng)),
        ]
        with pytest.raises(ValueError):
            build_staircase_comb(elements, bad_lay)

import numpy as np
import pytest

from helpers import basis_state
from purecomb.builders import (
    ancilla_chain,
    build_d3d_example,
    build_quantum_switch,
    haar_unitary,
    random_pure_comb,
    random_staircase_circuit,
    random_unitary,
)
from purecomb.combs import verify_pure_comb_unitary
from purecomb.layouts import SlotLayout
from purecomb.spaces import apply_op, is_unitary
from purecomb.twoslot import verify_pure_superchannel


class TestQuantumSwitch:
    def test_first_branch_action(self):
        u, lay = build_quantum_switch(2)
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    vec = basis_state(lay.in_space(), ((0 * 2 + t), a, b))
                    out = apply_op(u, vec)
                    want = basis_state(lay.out_space(), (t, a, 0 * 2 + b))
                    assert np.array_equal(out.data, want.data)

    def test_second_branch_action(self):
        u, lay = build_quantum_switch(2)
        vec = basis_state(lay.in_space(), ((1 * 2 + 1), 0, 1))  # c=1, t=1, a=0, b=1
        out = apply_op(u, vec)
        want = basis_state(lay.out_space(), (1, 1, 1 * 2 + 0))  # A_I <- b, B_I <- t, F <- (1, a)
        assert np.array_equal(out.data, want.data)

    def test_choi_vector_structure(self):
        # |c> (x) three identity wirings (x) |c>, summed over the branch bit
        u, lay = build_quantum_switch(2)
        from purecomb.choi import choi_vector

        v = choi_vector(u).data
        oracle = np.zeros(256, dtype=complex)
        wire = np.array([1, 0, 0, 1], dtype=float)  # unnormalized maximally entangled
        for c in range(2):
            ctrl_p = np.zeros(2)
            ctrl_p[c] = 1
            path = np.kron(ctrl_p, wire)  # (P_c, (P_t, A_I)) after regrouping
            # build by explicit index walk instead: P(c,t) AO(a) BO(b) -> AI BI F
            for t in range(2):
                for a in range(2):
                    for b in range(2):
                        col = ((c * 2 + t) * 2 + a) * 2 + b
                        if c == 0:
                            row = (t * 2 + a) * 4 + b
                        else:
                            row = (b * 2 + t) * 4 + 2 + a
                        oracle[col * 16 + row] += 1.0
        assert np.abs(v - oracle).max() == 0

    def test_unitary_for_other_dims(self):
        for d in (2, 3):
            u, lay = build_quantum_switch(d)
            ok, res = is_unitary(u)
            assert ok and res == 0.0
            assert verify_pure_superchannel(u, lay).ok


class TestD3dExample:
    def test_displayed_actions(self):
        u, lay = build_d3d_example()
        # c=0, t=1, a=1, b=0: A_I <- t, B_I <- c xor a, F <- (a, b)
        out = apply_op(u, basis_state(lay.in_space(), (0 * 2 + 1, 1, 0)))
        want = basis_state(lay.out_space(), (1, 1, 1 * 2 + 0))
        assert np.array_equal(out.data, want.data)
        # c=2, t=1, a=0, b=1: B_I <- t, A_I <- b, F <- (2, a)
        out = apply_op(u, basis_state(lay.in_space(), (2 * 2 + 1, 0, 1)))
        want = basis_state(lay.out_space(), (1, 1, 2 * 2 + 0))
        assert np.array_equal(out.data, want.data)

    def test_unitary(self):
        u, _ = build_d3d_example()
        ok, res = is_unitary(u)
        assert ok and res == 0.0


class TestRandomGenerators:
    def test_same_seed_bit_identical(self):
        a = random_unitary(5, 42)
        b = random_unitary(5, 42)
        assert np.array_equal(a.data, b.data)
        lay = SlotLayout.of(("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2))
        u1 = random_pure_comb(lay, 7)
        u2 = random_pure_comb(lay, 7)
        assert np.array_equal(u1.data, u2.data)

    def test_haar_passes_unitarity(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 6):
            q = haar_unitary(d, rng)
            assert np.abs(q.conj().T @ q - np.eye(d)).max() < 1e-12

    def test_random_comb_passes_verifier(self):
        lay = SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 2), ("H3", 4))
        for seed in range(5):
            assert verify_pure_comb_unitary(random_pure_comb(lay, seed), lay).ok

    def test_circuit_elements_unitary(self):
        lay = SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 2), ("H3", 2), ("H4", 2), ("H5", 4))
        c = random_staircase_circuit(lay, 3)
        assert c.ancilla_dims == (1, 2, 2, 1)
        for el in c.elements:
            assert is_unitary(el).ok

    def test_ancilla_chain_rejects_impossible(self):
        with pytest.raises(ValueError):
            ancilla_chain(SlotLayout.of(("H0", 2), ("H1", 3), ("H2", 2), ("H3", 2)))
        with pytest.raises(ValueError):
            ancilla_chain(SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 2), ("H3", 2)))

import tracemalloc

import numpy as np
import pytest

from helpers import (
    apply_channel,
    build_staircase_comb,
    choi_trace,
    dense_link_product,
    dense_plug_unitaries,
    is_channel,
    is_cp,
    reference_choi_checks,
    reference_contract,
)
from purecomb.builders import (
    build_d3d_example,
    build_direct_sum,
    build_quantum_switch,
    haar_unitary,
    random_pure_comb,
)
from purecomb import choi
from purecomb.choi import ChoiOp, choi_of_unitary, choi_vector, link_product, plug_unitaries
from purecomb.combs import verify_comb_choi
from purecomb.layouts import SlotLayout, TwoSlotLayout
from purecomb.spaces import LinOp, Spaces, is_unitary, permute_systems, phase_distance

A2 = Spaces.of(("A", 2))
B2 = Spaces.of(("B", 2))
C2 = Spaces.of(("C", 2))


def _op(out_sp, in_sp, mat):
    return LinOp(out_sp, in_sp, mat)


class TestChoiVector:
    def test_identity(self):
        v = choi_vector(_op(B2, A2, np.eye(2)))
        assert np.array_equal(v.data, np.array([1, 0, 0, 1]))

    def test_raising_operator(self):
        v = choi_vector(_op(B2, A2, np.array([[0, 0], [1, 0]])))
        # |0>_in |1>_out
        assert np.array_equal(v.data, np.array([0, 1, 0, 0]))

    def test_entries_match_column_loop(self):
        rng = np.random.default_rng(0)
        a = _op(Spaces.of(("B", 3)), A2, rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        v = choi_vector(a)
        oracle = np.zeros(6, dtype=complex)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1
            oracle += np.kron(e, a.data @ e)
        assert np.abs(v.data - oracle).max() == 0

    def test_norm_is_hs_norm(self):
        rng = np.random.default_rng(1)
        a = _op(B2, A2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        assert abs(choi_vector(a).norm ** 2 - np.trace(a.data.conj().T @ a.data).real) < 1e-12


class TestChoiOfUnitary:
    def test_rank_one_with_trace_d(self):
        rng = np.random.default_rng(2)
        for d in (2, 3):
            sp_in = Spaces.of(("I", d))
            sp_out = Spaces.of(("O", d))
            c = choi_of_unitary(_op(sp_out, sp_in, haar_unitary(d, rng)))
            evals = np.linalg.eigvalsh(c.op.data)
            assert abs(evals[-1] - d) < 1e-10
            assert np.abs(evals[:-1]).max() < 1e-10
            assert abs(choi_trace(c) - d) < 1e-10

    def test_phase_invariant_trace(self):
        rng = np.random.default_rng(3)
        u = haar_unitary(2, rng)
        base = choi_of_unitary(_op(B2, A2, u))
        for theta in np.linspace(0, 2 * np.pi, 7):
            c = choi_of_unitary(_op(B2, A2, np.exp(1j * theta) * u))
            assert abs(choi_trace(c) - choi_trace(base)) < 1e-12
            assert np.abs(c.op.data - base.op.data).max() < 1e-12

    def test_channel_flags(self):
        rng = np.random.default_rng(4)
        c = choi_of_unitary(_op(B2, A2, haar_unitary(2, rng)))
        assert is_cp(c)
        assert is_channel(c)


class TestLinkProduct:
    def test_full_depolarizing(self):
        dep = ChoiOp(_op(A2.concat(B2), A2.concat(B2), np.eye(4) / 2), ("A",), ("B",))
        out = apply_channel(dep, _op(A2, A2, np.diag([1.0, 0.0])))
        assert np.abs(out.data - np.eye(2) / 2).max() < 1e-14

    def test_identity_channel_acts_trivially(self):
        rng = np.random.default_rng(5)
        ident = choi_of_unitary(_op(B2, A2, np.eye(2)))
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        out = apply_channel(ident, _op(A2, A2, rho))
        assert np.abs(out.data - rho).max() < 1e-12

    def test_composition_of_unitaries(self):
        rng = np.random.default_rng(6)
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        cu = choi_of_unitary(_op(B2, A2, u))
        cv = choi_of_unitary(_op(C2, B2, v))
        lp = link_product(cu, cv)
        direct = choi_of_unitary(_op(C2, A2, v @ u))
        aligned = permute_systems(direct.op, list(lp.op.out_space.labels))
        assert np.abs(lp.op.data - aligned.data).max() < 1e-12
        assert lp.map_in == ("A",) and lp.map_out == ("C",)

    def test_commutative_up_to_reordering(self):
        rng = np.random.default_rng(7)
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        cu = choi_of_unitary(_op(B2, A2, u))
        cv = choi_of_unitary(_op(C2, B2, v))
        ab = link_product(cu, cv)
        ba = link_product(cv, cu)
        aligned = permute_systems(ba.op, list(ab.op.out_space.labels))
        assert np.abs(ab.op.data - aligned.data).max() < 1e-12

    def test_dim_conflict(self):
        cu = choi_of_unitary(_op(B2, A2, np.eye(2)))
        bad = choi_of_unitary(_op(Spaces.of(("C", 3)), Spaces.of(("B", 3)), np.eye(3)))
        with pytest.raises(ValueError):
            link_product(cu, bad)

    def test_agrees_with_map_composition(self):
        # rho * E * F equals applying E then F, for random channel Chois
        rng = np.random.default_rng(8)
        for _ in range(5):
            e = _random_channel_choi(rng, ("A", 2), ("B", 2))
            f = _random_channel_choi(rng, ("B", 2), ("C", 2))
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            rho = _op(A2, A2, rho / np.trace(rho).real)
            two_steps = apply_channel(f, apply_channel(e, rho))
            linked = apply_channel(link_product(e, f), rho)
            assert np.abs(two_steps.data - linked.data).max() < 1e-10

    def test_rank_one_link_of_unitary_chois(self):
        rng = np.random.default_rng(9)
        lay = SlotLayout.of(("P", 2), ("AI", 2), ("AO", 2), ("F", 2))
        u = random_pure_comb(lay, 17)
        cu = choi_of_unitary(u)
        ua = choi_of_unitary(_op(Spaces.of(("AO", 2)), Spaces.of(("AI", 2)), haar_unitary(2, rng)))
        lp = link_product(cu, ua)
        evals = np.linalg.eigvalsh(lp.op.data)
        assert np.abs(evals[:-1]).max() < 1e-10  # single nonzero eigenvalue


def _random_channel_choi(rng, in_factor, out_factor):
    # Stinespring construction: isometry to output (x) environment, traced
    d_in, d_out = in_factor[1], out_factor[1]
    env = 2
    g = rng.standard_normal((d_out * env, d_in)) + 1j * rng.standard_normal((d_out * env, d_in))
    q, _ = np.linalg.qr(g)
    iso = q[:, :d_in]
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            m_i = iso[:, i].reshape(d_out, env)
            m_j = iso[:, j].reshape(d_out, env)
            choi[i * d_out:(i + 1) * d_out, j * d_out:(j + 1) * d_out] = m_i @ m_j.conj().T
    sp = Spaces.of(in_factor, out_factor)
    return ChoiOp(_op(sp, sp, choi), (in_factor[0],), (out_factor[0],))


class TestApplyChannel:
    def test_unitary_conjugation(self):
        rng = np.random.default_rng(10)
        u = haar_unitary(2, rng)
        c = choi_of_unitary(_op(B2, A2, u))
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        out = apply_channel(c, _op(A2, A2, rho))
        assert np.abs(out.data - u @ rho @ u.conj().T).max() < 1e-12

    def test_trace_preserved_for_stinespring_channels(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            e = _random_channel_choi(rng, ("A", 2), ("B", 2))
            assert is_channel(e, 1e-8)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            out = apply_channel(e, _op(A2, A2, rho))
            assert abs(np.trace(out.data) - np.trace(rho)) < 1e-10


class TestPlugUnitaries:
    def _switch(self):
        from purecomb.builders import build_quantum_switch

        return build_quantum_switch(2)

    def _slot(self, in_lab, out_lab, mat):
        return _op(Spaces.of((out_lab, 2)), Spaces.of((in_lab, 2)), mat)

    def test_identity_slots_give_identity(self):
        u, lay = self._switch()
        g = plug_unitaries(u, lay.slot_chain("ab"), [
            self._slot("AI", "AO", np.eye(2)), self._slot("BI", "BO", np.eye(2))
        ])
        assert np.abs(g.data - np.eye(4)).max() < 1e-14

    def test_bit_phase_pair(self):
        u, lay = self._switch()
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        g = plug_unitaries(u, lay.slot_chain("ab"), [
            self._slot("AI", "AO", x), self._slot("BI", "BO", z)
        ])
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = z @ x
        expected[2:, 2:] = x @ z
        assert np.abs(g.data - expected).max() < 1e-14

    def test_staircase_recovers_interleaved_product(self):
        # ancilla-free chain: plugging V_A, V_B equals U2 V_B U1 V_A U0
        rng = np.random.default_rng(12)
        lay = SlotLayout.of(("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2), ("H4", 2), ("H5", 2))
        u0, u1, u2 = (haar_unitary(2, rng) for _ in range(3))
        va, vb = haar_unitary(2, rng), haar_unitary(2, rng)
        elements = [
            _op(Spaces.of(("H1", 2)), Spaces.of(("H0", 2)), u0),
            _op(Spaces.of(("H3", 2)), Spaces.of(("H2", 2)), u1),
            _op(Spaces.of(("H5", 2)), Spaces.of(("H4", 2)), u2),
        ]
        u = build_staircase_comb(elements, lay)
        g = plug_unitaries(u, lay, [
            self._slot("H1", "H2", va), self._slot("H3", "H4", vb)
        ])
        expected = _op(Spaces.of(("H5", 2)), Spaces.of(("H0", 2)), u2 @ vb @ u1 @ va @ u0)
        assert phase_distance(g, expected) < 1e-12

    def test_plug_into_composed_staircase_is_unitary(self):
        rng = np.random.default_rng(13)
        lay = SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 2), ("H3", 4))
        for seed in range(5):
            u = random_pure_comb(lay, seed)
            slot = _op(
                Spaces.of(("H2", 2), ("E2", 2)),
                Spaces.of(("H1", 2), ("E1", 2)),
                haar_unitary(4, rng),
            )
            g = plug_unitaries(u, lay, [slot])
            ok, res = is_unitary(g, 1e-8)
            assert ok, res

    def test_deterministic_output(self):
        u, lay = self._switch()
        rng = np.random.default_rng(14)
        slot_a = self._slot("AI", "AO", haar_unitary(2, rng))
        slot_b = self._slot("BI", "BO", haar_unitary(2, rng))
        g1 = plug_unitaries(u, lay.slot_chain("ab"), [slot_a, slot_b])
        g2 = plug_unitaries(u, lay.slot_chain("ab"), [slot_a, slot_b])
        assert np.array_equal(g1.data, g2.data)

    def test_slot_count_mismatch(self):
        u, lay = self._switch()
        with pytest.raises(ValueError):
            plug_unitaries(u, lay.slot_chain("ab"), [self._slot("AI", "AO", np.eye(2))])


# ------------------------------------------- label-matched contractions
# The identity-padded dense forms in tests/helpers.py are the reference:
# the contractions must give the same factor order on both sides, the same
# roles and the same entries, with no phase alignment.


def _assert_same_op(got, want):
    assert got.out_space == want.out_space
    assert got.in_space == want.in_space
    assert np.abs(got.data - want.data).max() <= 1e-13


def _slot_ops(lay, rng, anc_dims=(2, 2), first=False):
    """Slot operators with an input ancilla E{n}i and an output ancilla E{n}o
    of the given dims (0 for none), listed before or after the wire: Haar
    unitaries where square, Gaussian matrices otherwise."""
    ops = []
    for n in range(1, lay.n_slots + 1):
        wire_in, wire_out = lay.factor(2 * n - 1), lay.factor(2 * n)
        sides = []
        for wire, anc, d_anc in ((wire_in, f"E{n}i", anc_dims[0]), (wire_out, f"E{n}o", anc_dims[1])):
            factors = [wire] + ([(anc, d_anc)] if d_anc else [])
            sides.append(Spaces.of(*(factors[::-1] if first else factors)))
        sp_in, sp_out = sides
        if sp_in.dim == sp_out.dim:
            mat = haar_unitary(sp_in.dim, rng)
        else:
            mat = rng.standard_normal((sp_out.dim, sp_in.dim)) + 0j
        ops.append(_op(sp_out, sp_in, mat))
    return ops


def _plug_instances():
    out = []
    for d in (2, 3):
        u, lay = build_quantum_switch(d)
        out += [(f"switch{d}-ab", u, lay.slot_chain("ab")), (f"switch{d}-ba", u, lay.slot_chain("ba"))]
    u, lay = build_d3d_example()
    out.append(("d3d", u, lay.slot_chain("ab")))
    for seed, (p_ab, p_ba) in enumerate(((2, 2), (2, 4), (4, 2))):
        d = p_ab + p_ba
        lay = TwoSlotLayout.of(("P", d), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", d))
        rng = np.random.default_rng(600 + seed)
        ep, ef = haar_unitary(d, rng), haar_unitary(d, rng)
        u = build_direct_sum(
            random_pure_comb(lay.with_dims(p_ab, p_ab).slot_chain("ab"), 610 + seed),
            random_pure_comb(lay.with_dims(p_ba, p_ba).slot_chain("ba"), 620 + seed),
            ep[:, :p_ab], ep[:, p_ab:], ef[:, :p_ab], ef[:, p_ab:], lay)
        out.append((f"sum{p_ab}x{p_ba}", u, lay.slot_chain("ab")))
    for chain in ("H0=2,H1=2,H2=3,H3=3",
                  "H0=4,H1=2,H2=4,H3=8",
                  "H0=4,H1=2,H2=4,H3=4,H4=4,H5=8",
                  "H0=2,H1=2,H2=2,H3=2,H4=2,H5=2,H6=2,H7=2",
                  "H0=4,H1=2,H2=2,H3=2,H4=2,H5=2,H6=2,H7=2,H8=2,H9=4"):
        lay = SlotLayout.of(*[(lab, int(d)) for lab, d in (kv.split("=") for kv in chain.split(","))])
        out.append((chain, random_pure_comb(lay, len(chain)), lay))
    return out


PLUG_INSTANCES = _plug_instances()


class TestPlugMatchesDense:
    @pytest.mark.parametrize("tag,u,lay", PLUG_INSTANCES, ids=[t for t, _, _ in PLUG_INSTANCES])
    @pytest.mark.parametrize("first", [False, True], ids=["anc-last", "anc-first"])
    def test_matches_dense(self, tag, u, lay, first):
        rng = np.random.default_rng(len(tag) + first)
        for anc_dims in ((2, 2), (0, 0), (3, 1), (1, 2)):
            ops = _slot_ops(lay, rng, anc_dims, first)
            _assert_same_op(plug_unitaries(u, lay, ops), dense_plug_unitaries(u, lay, ops))

    @pytest.mark.parametrize("tag,u,lay", PLUG_INSTANCES, ids=[t for t, _, _ in PLUG_INSTANCES])
    def test_linear_in_each_slot(self, tag, u, lay):
        # a phase on any one slot operator is the same phase on the plug
        phase = np.exp(0.7j)
        ops = _slot_ops(lay, np.random.default_rng(len(tag)))
        want = phase * plug_unitaries(u, lay, ops).data
        for k, op in enumerate(ops):
            turned = ops[:k] + [_op(op.out_space, op.in_space, phase * op.data)] + ops[k + 1:]
            assert np.abs(plug_unitaries(u, lay, turned).data - want).max() <= 1e-14

    @pytest.mark.parametrize("seed", range(40))
    def test_continuous_in_a_slot(self, seed):
        # a rotation of slot 1 by exp(i 1e-15 H) moves the plug by rounding
        # only; every plugged 2 x 2 unitary has entries tied in magnitude
        lay = SlotLayout.of(*[(f"H{i}", 2) for i in range(8)])
        rng = np.random.default_rng(seed)
        ops = _slot_ops(lay, rng, (0, 0))
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w, v = np.linalg.eigh(g + g.conj().T)
        rotation = v @ np.diag(np.exp(1e-15j * w)) @ v.conj().T
        turned = [_op(ops[0].out_space, ops[0].in_space, rotation @ ops[0].data), *ops[1:]]
        u = random_pure_comb(lay, seed)
        moved = plug_unitaries(u, lay, turned).data - plug_unitaries(u, lay, ops).data
        assert np.abs(moved).max() <= 1e-13

    def test_same_ancilla_label_on_both_sides(self):
        rng = np.random.default_rng(21)
        lay = SlotLayout.of(("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2), ("H4", 3), ("H5", 3))
        u = random_pure_comb(lay, 21)
        ops = [_op(Spaces.of(("H2", 2), ("E", 2)), Spaces.of(("H1", 2), ("E", 2)), haar_unitary(4, rng)),
               _op(Spaces.of(("G", 3), ("H4", 3)), Spaces.of(("G", 3), ("H3", 2)),
                   rng.standard_normal((9, 6)) + 0j)]
        got = plug_unitaries(u, lay, ops)
        assert got.out_space.labels == ("H5", "E", "G") and got.in_space.labels == ("E", "G", "H0")
        _assert_same_op(got, dense_plug_unitaries(u, lay, ops))

    def test_zero_slots(self):
        lay = SlotLayout.of(("P", 3), ("F", 3))
        u = _op(Spaces.of(("F", 3)), Spaces.of(("P", 3)), haar_unitary(3, np.random.default_rng(22)))
        got = plug_unitaries(u, lay, [])
        _assert_same_op(got, dense_plug_unitaries(u, lay, []))
        assert np.array_equal(got.data, u.data)

    @pytest.mark.parametrize("anc", ["H0", "H1"], ids=["past", "own-input"])
    def test_accepted_collision_gives_dense_operator(self, anc):
        # the dense path accepts an output ancilla named like the past or
        # like the slot's own input wire; both sides of the result keep it
        lay = SlotLayout.of(("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2))
        u = random_pure_comb(lay, 23)
        op = _op(Spaces.of(("H2", 2), (anc, 2)), Spaces.of(("H1", 2)),
                 haar_unitary(4, np.random.default_rng(23))[:, :2])
        _assert_same_op(plug_unitaries(u, lay, [op]), dense_plug_unitaries(u, lay, [op]))

    def test_ancilla_order_differs_between_sides(self):
        # An ancilla on both sides listed after an input-only ancilla.
        rng = np.random.default_rng(24)
        lay = SlotLayout.of(("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2))
        u = random_pure_comb(lay, 24)
        op = _op(Spaces.of(("H2", 2), ("E", 2)), Spaces.of(("H1", 2), ("A", 2), ("E", 2)),
                 haar_unitary(8, rng)[:4])
        got = plug_unitaries(u, lay, [op])
        assert got.in_space.labels == ("A", "E", "H0")
        want = dense_plug_unitaries(u, lay, [op])
        assert want.in_space.labels == ("E", "A", "H0")
        _assert_same_op(got, permute_systems(want, ["H3", "A", "E", "H0"]))


def _switch_ops():
    u, lay = build_quantum_switch(2)
    return u, lay.slot_chain("ab")


def _qubit(out_labels, in_labels, mat=None):
    out_sp = Spaces.of(*[(lab, 2) for lab in out_labels])
    in_sp = Spaces.of(*[(lab, 2) for lab in in_labels])
    return _op(out_sp, in_sp, np.eye(out_sp.dim, in_sp.dim) if mat is None else mat)


# Slot operators for the two-slot switch chain P, AI, AO, BI, BO, F that
# collide with a layout wire, the future or another slot's ancilla.
PLUG_COLLISIONS = {
    "input-anc-is-past": [_qubit(["AO"], ["AI", "P"]), _qubit(["BO"], ["BI"])],
    "input-anc-is-own-output": [_qubit(["AO"], ["AI", "AO"]), _qubit(["BO"], ["BI"])],
    "input-anc-is-other-output": [_qubit(["AO"], ["AI", "BO"]), _qubit(["BO"], ["BI"])],
    "input-anc-is-other-input": [_qubit(["AO"], ["AI", "BI"]), _qubit(["BO"], ["BI"])],
    "output-anc-is-other-input": [_qubit(["AO", "BI"], ["AI"]), _qubit(["BO"], ["BI"])],
    "output-anc-is-other-output": [_qubit(["AO"], ["AI"]), _qubit(["BO", "AO"], ["BI"])],
    "input-anc-is-future": [_qubit(["AO"], ["AI", "F"]), _qubit(["BO"], ["BI"])],
    "output-anc-is-future": [_qubit(["AO"], ["AI"]), _qubit(["BO", "F"], ["BI"])],
    "shared-anc-same-side": [_qubit(["AO", "E"], ["AI"]), _qubit(["BO", "E"], ["BI"])],
    "shared-anc-cross-side": [_qubit(["AO"], ["AI", "E"]), _qubit(["BO", "E"], ["BI"])],
    "missing-input-wire": [_qubit(["AO"], ["E"]), _qubit(["BO"], ["BI"])],
    "missing-output-wire": [_qubit(["AO"], ["AI"]), _qubit(["E"], ["BI"])],
    "wrong-wire-dim": [_op(Spaces.of(("AO", 2)), Spaces.of(("AI", 3)), np.ones((2, 3))),
                       _qubit(["BO"], ["BI"])],
}


class TestRejectionParity:
    """Both the contraction and the dense reference reject the same inputs."""

    @pytest.fixture(params=["contraction", "dense"])
    def plug(self, request):
        return plug_unitaries if request.param == "contraction" else dense_plug_unitaries

    @pytest.mark.parametrize("case", sorted(PLUG_COLLISIONS))
    def test_plug_collision_raises(self, plug, case):
        u, lay = _switch_ops()
        with pytest.raises(ValueError):
            plug(u, lay, PLUG_COLLISIONS[case])

    def test_plug_checks_layout(self, plug):
        u, lay = _switch_ops()
        with pytest.raises(ValueError):
            plug(u, SlotLayout.of(("P", 2), ("AI", 2), ("AO", 2), ("F", 2)),
                 [_qubit(["AO"], ["AI"])])
        with pytest.raises(ValueError):
            plug(u, lay, [_qubit(["AO"], ["AI"])])

    def test_link_dim_conflict(self):
        cu = choi_of_unitary(_op(B2, A2, np.eye(2)))
        bad = choi_of_unitary(_op(Spaces.of(("C", 3)), Spaces.of(("B", 3)), np.eye(3)))
        for link in (link_product, dense_link_product):
            with pytest.raises(ValueError):
                link(cu, bad)


def _random_choi(rng, factors, map_in):
    sp = Spaces.of(*factors)
    mat = rng.standard_normal((sp.dim, sp.dim)) + 1j * rng.standard_normal((sp.dim, sp.dim))
    return ChoiOp(_op(sp, sp, mat), tuple(map_in),
                  tuple(lab for lab in sp.labels if lab not in set(map_in)))


# (E factors, E map_in, F factors, F map_in)
LINK_CASES = {
    "no-shared": ([("A", 2), ("B", 3)], ["A"], [("C", 2), ("D", 2)], ["D"]),
    "all-shared": ([("A", 2), ("B", 3)], ["A"], [("B", 3), ("A", 2)], ["B"]),
    "shared-reordered": ([("A", 2), ("S", 3), ("T", 2)], ["A"],
                         [("T", 2), ("C", 2), ("S", 3)], ["T", "S"]),
    "chain-link": ([("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2)], ["H0", "H2"],
                   [("H1", 2), ("E1i", 2), ("H2", 2), ("E1o", 2)], ["H1", "E1i"]),
}


class TestLinkMatchesDense:
    @pytest.mark.parametrize("case", sorted(LINK_CASES))
    def test_matches_dense(self, case):
        e_factors, e_in, f_factors, f_in = LINK_CASES[case]
        rng = np.random.default_rng(len(case))
        for _ in range(3):
            e, f = _random_choi(rng, e_factors, e_in), _random_choi(rng, f_factors, f_in)
            for a, b in ((e, f), (f, e)):
                got, want = link_product(a, b), dense_link_product(a, b)
                assert (got.map_in, got.map_out) == (want.map_in, want.map_out)
                _assert_same_op(got.op, want.op)

    def test_all_shared_is_one_by_one(self):
        e_factors, e_in, f_factors, f_in = LINK_CASES["all-shared"]
        rng = np.random.default_rng(31)
        e, f = _random_choi(rng, e_factors, e_in), _random_choi(rng, f_factors, f_in)
        got = link_product(e, f)
        assert got.op.data.shape == (1, 1) and got.space.labels == ()
        f_aligned = permute_systems(f.op, list(e.space.labels)).data
        assert abs(got.op.data[0, 0] - np.sum(e.op.data * f_aligned)) < 1e-12

    def test_chain_of_slot_chois_matches_plug(self):
        rng = np.random.default_rng(32)
        lay = SlotLayout.of(*[(f"H{m}", 2) for m in range(6)])
        u = random_pure_comb(lay, 32)
        ops = _slot_ops(lay, rng)
        got = want = choi_of_unitary(u)
        for op in ops:
            got = link_product(got, choi_of_unitary(op))
            want = dense_link_product(want, choi_of_unitary(op))
        assert (got.map_in, got.map_out) == (want.map_in, want.map_out)
        _assert_same_op(got.op, want.op)
        plugged = choi_of_unitary(plug_unitaries(u, lay, ops)).op
        aligned = permute_systems(got.op, list(plugged.out_space.labels))
        assert phase_distance(aligned, plugged) < 1e-12


def _gaussian(rng, dims):
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


# (a axes, b axes, out keys), each axis a (key, dim)
CONTRACT_CASES = {
    "no-shared": ([("x", 2), ("y", 3)], [("z", 4)], ["z", "x", "y"]),
    "all-shared": ([("x", 2), ("y", 3)], [("y", 3), ("x", 2)], []),
    "shared-reordered": ([("x", 2), ("s", 3), ("t", 2), ("y", 4)],
                         [("t", 2), ("z", 3), ("s", 3)], ["z", "y", "x"]),
    # a slot operator with an output ancilla and no input ancilla, as in plugging
    "ancilla-one-side": ([(("out", "F"), 2), (("wire", "H1"), 2), (("in", "H0"), 3), (("wire", "H2"), 2)],
                         [(("wire", "H2"), 2), (("out", "E"), 3), (("wire", "H1"), 2)],
                         [("out", "F"), ("out", "E"), ("in", "H0")]),
}


class TestContract:
    @pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
    def test_matches_einsum_reference(self, case):
        a_axes, b_axes, out_keys = CONTRACT_CASES[case]
        rng = np.random.default_rng(len(case))
        a, b = _gaussian(rng, [d for _, d in a_axes]), _gaussian(rng, [d for _, d in b_axes])
        a_keys, b_keys = [k for k, _ in a_axes], [k for k, _ in b_axes]
        got = choi._contract(a, a_keys, b, b_keys, out_keys)
        want = reference_contract(a, a_keys, b, b_keys, out_keys)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("out_keys", [["x", "y", "z"], ["x", "w"], ["x"], ["x", "z", "z"]],
                             ids=["shared-kept", "unknown-key", "free-dropped", "free-twice"])
    def test_out_keys_must_be_the_unshared_keys(self, out_keys):
        rng = np.random.default_rng(33)
        a, b = _gaussian(rng, (2, 3)), _gaussian(rng, (3, 2))
        with pytest.raises(ValueError):
            choi._contract(a, ["x", "y"], b, ["y", "z"], out_keys)

    def test_shared_dims_must_agree(self):
        rng = np.random.default_rng(34)
        with pytest.raises(ValueError):
            choi._contract(_gaussian(rng, (2, 3, 2)), ["x", "s", "t"],
                           _gaussian(rng, (2, 3)), ["s", "t"], ["x"])


class TestContractionMemory:
    def test_plug_four_slot_comb_stays_small(self):
        # H0=4, H1..H8=2, H9=4 with a 2-dim ancilla on both sides of every
        # slot: the identity-padded product would hold 1024 x 1024 operands
        lay = SlotLayout.of(("H0", 4), *[(f"H{m}", 2) for m in range(1, 9)], ("H9", 4))
        u = random_pure_comb(lay, 41)
        ops = _slot_ops(lay, np.random.default_rng(41))
        tracemalloc.start()
        try:
            g = plug_unitaries(u, lay, ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.data.shape == (64, 64) and is_unitary(g).ok
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_link_chain_stays_within_operands_result_and_one_permuted_operand(self):
        # H0=4, H1..H4=2, H5=4 with a 2-dim ancilla on both sides of each
        # slot: every link of the chain is 256 x 256 (1 MiB); the padded
        # product would hold 1024 x 1024 operands
        lay = SlotLayout.of(("H0", 4), *[(f"H{m}", 2) for m in range(1, 5)], ("H5", 4))
        u = random_pure_comb(lay, 42)
        w = choi_of_unitary(u)
        for op in _slot_ops(lay, np.random.default_rng(42)):
            f = choi_of_unitary(op)
            tracemalloc.start()
            try:
                r = link_product(w, f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            e_bytes, f_bytes = w.op.data.nbytes, f.op.data.nbytes
            assert r.op.data.shape == (256, 256)
            assert peak <= e_bytes + f_bytes + r.op.data.nbytes + max(e_bytes, f_bytes), peak
            w = r


class TestIsCpTolerance:
    def test_hermiticity_cut_follows_tol(self):
        sp = A2.concat(B2)
        data = np.eye(4) / 2
        data[0, 1] = 1e-9
        c = ChoiOp(_op(sp, sp, data), ("A",), ("B",))
        herm, low = reference_choi_checks(c.op)
        assert abs(herm - 1e-9) < 1e-15
        assert low > 0.4
        assert is_cp(c, 1e-8)
        assert not is_cp(c, 1e-10)


def _wide_comb_choi():
    """A D=512 comb Choi operator: a two-slot comb's Choi with a
    prepared qubit appended to its future, so F has dimension 8."""
    lay = SlotLayout.of(("P", 4), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", 4))
    c = permute_systems(choi_of_unitary(random_pure_comb(lay, 5)).op, list(lay.labels))
    chain = SlotLayout(lay.factors[:-1] + (("F", 8),))
    sp = Spaces(chain.factors)
    return LinOp(sp, sp, np.kron(c.data, np.diag([1.0, 0.0]))), chain


class TestTiledChoiChecks:
    """``verify_comb_choi`` reads 'hermiticity' and 'min-eigenvalue' in one
    tile-pair pass over one copy of the operator in its layout's
    input-then-output order."""

    def test_values_equal_the_untiled_formula(self):
        rng = np.random.default_rng(23)
        cases = [_wide_comb_choi()]
        for dims in ((1, 1), (7, 1), (16, 16), (3, 100)):
            chain = SlotLayout.of(("H0", dims[0]), ("H1", dims[1]))
            sp, d = Spaces(chain.factors), dims[0] * dims[1]
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            cases += [(_op(sp, sp, g), chain), (_op(sp, sp, g + g.conj().T + 1e-9 * g), chain)]
        for op, chain in cases:
            rep = verify_comb_choi(op, chain).residuals
            ordered = permute_systems(op, [*chain.labels[0::2], *chain.labels[1::2]])
            assert (rep["hermiticity"], rep["min-eigenvalue"]) == reference_choi_checks(ordered)

    def test_d512_comb_choi_forms_no_full_size_temporary(self):
        # the chain-ordered input, so the layout-ordered copy is a permute
        op, chain = _wide_comb_choi()
        tracemalloc.start()
        try:
            rep = verify_comb_choi(op, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * op.data.nbytes, f"peak {peak / op.data.nbytes:.2f}x the operator"
        assert op.data.shape == (512, 512) and rep.ok

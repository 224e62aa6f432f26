import collections
import dataclasses
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

from helpers import (
    angle_sine,
    build_staircase_comb,
    family_global_p,
    family_residuals,
    family_verdict,
    future_traced_choi,
    kron_restriction,
    locally_rotated,
    lugano_process,
    perturbed,
    plugged_lugano,
    reference_cross_residual,
    reference_joint_residual,
    reference_past_rows,
    reference_point_triples,
    reference_signalling_residual,
    reference_trace_future,
)
from purecomb.builders import (
    build_d3d_example,
    build_direct_sum,
    build_quantum_switch,
    haar_unitary,
    random_pure_comb,
    switch_layout,
)
from purecomb.choi import choi_of_unitary
from purecomb.cli import main
from purecomb.combs import (
    _live,
    _signalling_rows,
    compose_staircase,
    signalling_residual,
    staircase_decompose,
)
from purecomb.errors import VerificationError
from purecomb.families import spanning_family
from purecomb.io import load_matrix, save_matrix
from purecomb.layouts import SlotLayout, TwoSlotLayout
from purecomb.spaces import (
    TOL,
    LinOp,
    Spaces,
    UnitaryCheck,
    adjoint,
    is_unitary,
    kron,
    partial_trace,
    permute_systems,
    phase_distance,
)
from purecomb.subspaces import Subspace, is_subset
from purecomb import combs, twoslot
from purecomb.twoslot import (
    SubspaceTriple,
    assemble,
    direct_sum_decompose,
    embed_block,
    global_f_decomposition,
    global_p_decomposition,
    trace_future_check,
    verify_pure_superchannel,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def _random_shaped(layout, seed):
    rng = np.random.default_rng(seed)
    return LinOp(layout.out_space(), layout.in_space(), haar_unitary(layout.in_space().dim, rng))


def _parallel_comb(seed=0):
    # past feeds both slot inputs, both slot outputs feed a split future
    rng = np.random.default_rng(seed)
    layout = TwoSlotLayout.of(("P", 4), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", 4))
    u0 = LinOp(Spaces.of(("AI", 2), ("BI", 2)), Spaces.of(("P", 4)), haar_unitary(4, rng))
    ua = LinOp(Spaces.of(("FA", 2)), Spaces.of(("AO", 2)), haar_unitary(2, rng))
    ub = LinOp(Spaces.of(("FB", 2)), Spaces.of(("BO", 2)), haar_unitary(2, rng))
    big = kron(kron(u0, ua), ub)
    big = permute_systems(big, ["P", "AO", "BO", "AI", "BI", "FA", "FB"])
    mat = big.data.reshape(2, 2, 2, 2, -1).reshape(16, 16)  # merge FA, FB into one factor
    return LinOp(layout.out_space(), layout.in_space(), mat), layout


def _wire_comb(seed=0):
    # past -> A -> B -> future at equal dims: strictly A-before-B
    rng = np.random.default_rng(seed)
    layout = TwoSlotLayout.of(("P", 2), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", 2))
    u0, u1, u2 = (haar_unitary(2, rng) for _ in range(3))
    mat = np.zeros((8, 8), dtype=complex)
    for p in range(2):
        for a in range(2):
            for b in range(2):
                col = (p * 2 + a) * 2 + b
                vec = np.kron(np.kron(u0[:, p], u1[:, a]), u2[:, b])
                mat[:, col] = vec
    return LinOp(layout.out_space(), layout.in_space(), mat), layout


def _random_direct_sum(seed, p_ab=2, p_ba=2):
    layout = TwoSlotLayout.of(
        ("P", p_ab + p_ba), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", p_ab + p_ba)
    )
    u_ab = random_pure_comb(layout.with_dims(p_ab, p_ab).slot_chain("ab"), seed)
    u_ba = random_pure_comb(layout.with_dims(p_ba, p_ba).slot_chain("ba"), seed + 10_000)
    rng = np.random.default_rng(seed + 20_000)
    ep = haar_unitary(p_ab + p_ba, rng)
    ef = haar_unitary(p_ab + p_ba, rng)
    u = build_direct_sum(
        u_ab, u_ba, ep[:, :p_ab], ep[:, p_ab:], ef[:, :p_ab], ef[:, p_ab:], layout
    )
    return u, layout, (ep[:, :p_ab], ep[:, p_ab:], ef[:, :p_ab], ef[:, p_ab:])


def _fixture(name):
    op = load_matrix(os.path.join(FIXTURES, f"{name}.json"))
    (p, ao, bo), (ai, bi, f) = op.in_space.factors, op.out_space.factors
    return op, TwoSlotLayout(p, ai, ao, bi, bo, f)


def _middle_comb(middle, d_p, seed):
    """A-first comb on qubit slot wires with the given middle element
    AO (x) anc1 -> BI (x) anc2 between Haar-random outer elements."""
    rng = np.random.default_rng(seed)
    k = d_p // 2
    chain = SlotLayout.of(("P", d_p), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", d_p))
    elements = [
        LinOp(Spaces.of(("AI", 2), ("anc1", k)), Spaces.of(("P", d_p)), haar_unitary(d_p, rng)),
        LinOp(Spaces.of(("BI", 2), ("anc2", k)), Spaces.of(("AO", 2), ("anc1", k)), middle),
        LinOp(Spaces.of(("F", d_p)), Spaces.of(("BO", 2), ("anc2", k)), haar_unitary(d_p, rng)),
    ]
    return build_staircase_comb(elements, chain), TwoSlotLayout(*chain.factors)


def _routed_comb(seed):
    # anc1 = (c, t): AO feeds BI when c = 0 and bypasses B when c = 1
    mid = np.zeros((8, 8))
    for ao, c, t in itertools.product(range(2), repeat=3):
        bi, x = (ao, t) if c == 0 else (t, ao)
        mid[(bi * 2 + c) * 2 + x, (ao * 2 + c) * 2 + t] = 1.0
    return _middle_comb(mid, 8, seed)


def _phase_comb(seed):
    # AO reaches BI only as a phase: SWAP after a controlled-Z, so the
    # signalling shows only in the off-diagonal components
    mid = np.zeros((4, 4))
    for ao, x in itertools.product(range(2), repeat=2):
        mid[x * 2 + ao, ao * 2 + x] = (-1) ** (ao * x)
    return _middle_comb(mid, 4, seed)


def _swap_comb(theta, seed):
    # cos(theta) I + i sin(theta) SWAP: at theta = pi/2 AO bypasses B entirely
    swap = np.eye(4)[[0, 2, 1, 3]]
    return _middle_comb(np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * swap, 4, seed)


def _parallel_plus_ba(seed):
    layout = TwoSlotLayout.of(("P", 8), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", 8))
    u_ba = random_pure_comb(layout.with_dims(4, 4).slot_chain("ba"), seed)
    rng = np.random.default_rng(seed)
    ep, ef = haar_unitary(8, rng), haar_unitary(8, rng)
    u = build_direct_sum(_parallel_comb(seed)[0], u_ba, ep[:, :4], ep[:, 4:], ef[:, :4], ef[:, 4:],
                         layout)
    return u, layout


def _two_slot_cases():
    """Two-slot maps in the class, with their forward/parallel/reverse past dims."""
    rng = np.random.default_rng(60)
    cases = [(*build_quantum_switch(2), (2, 0, 2)), (*build_quantum_switch(3), (3, 0, 3)),
             (*build_d3d_example(), (4, 0, 2)), (*_fixture("switch"), (2, 0, 2)),
             (*_fixture("d3d"), (4, 0, 2))]
    shapes = [(2, 2), (2, 4), (4, 2), (4, 4)]
    for seed in range(12):
        p_ab, p_ba = shapes[seed % 4]
        cases.append((*_random_direct_sum(30 + seed, p_ab, p_ba)[:2], (p_ab, 0, p_ba)))
    cases += [(*_parallel_comb(2), (0, 4, 0)), (*_wire_comb(1), (2, 0, 0))]
    lay = TwoSlotLayout.of(("P", 4), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", 4))
    b_first = TwoSlotLayout(lay.past, lay.b_in, lay.b_out, lay.a_in, lay.a_out, lay.future)
    for seed in (61, 62):
        u = random_pure_comb(lay.slot_chain("ab"), seed)
        cases += [(u, lay, (4, 0, 0)), (u, b_first, (0, 0, 4))]
    u = _phase_comb(66)[0]
    cases += [(u, lay, (4, 0, 0)), (u, b_first, (0, 0, 4))]
    cases += [(*_routed_comb(63), (4, 4, 0)), (*_parallel_plus_ba(64), (0, 4, 4))]
    for theta in (0.0, 0.3, np.pi / 4, np.pi / 2):
        cases.append((*_swap_comb(theta, 65), (0, 4, 0) if theta == np.pi / 2 else (4, 0, 0)))
    for d in (2, 3):
        u, lay = build_quantum_switch(d)
        cases.append((locally_rotated(u, rng), lay, (d, 0, d)))
    cases += [(*plugged_lugano(k, rng), (4 * k, 0, 4 * k)) for k in (1, 2, 3)]
    return cases


def _ladder_inputs():
    """Switch d=2/3/4, d3d, a seeded direct sum of each block shape and the
    plugged Lugano process at k = 1, 2, 3."""
    cases = [build_quantum_switch(d) for d in (2, 3, 4)] + [build_d3d_example()]
    shapes = [(2, 2), (2, 4), (4, 2), (4, 4)]
    cases += [_random_direct_sum(70 + i, *shape)[:2] for i, shape in enumerate(shapes)]
    rng = np.random.default_rng(75)
    return cases + [plugged_lugano(k, rng) for k in (1, 2, 3)]


def _ladder_points(layout):
    """Slot-output pairs (e_0, e_0), (uniform, e_last) and a seeded complex pair."""
    d_a, d_b = layout.a_out[1], layout.b_out[1]
    rng = np.random.default_rng(5)
    return [(np.eye(d_a)[0], np.eye(d_b)[0]),
            (np.ones(d_a) / np.sqrt(d_a), np.eye(d_b)[-1]),
            (rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a),
             rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b))]


# --- independent dense-matrix oracle for the pointwise future split ---------


def _orth(cols, tol=1e-9):
    if cols.shape[1] == 0:
        return cols
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, s > tol * max(s[0], 1.0)]


def _oracle_reduced_f(cols, d_slots, d_f):
    if cols.shape[1] == 0:
        return np.zeros((d_f, 0), dtype=complex)
    rows = [cols[:, j].reshape(d_slots, d_f) for j in range(cols.shape[1])]
    return _orth(np.concatenate(rows, axis=0).T)


def _oracle_intersect(a, b):
    # eigenvalue-1 space of Pa Pb Pa
    n = a.shape[0]
    pa, pb = a @ a.conj().T, b @ b.conj().T
    m = pa @ pb @ pa
    evals, evecs = np.linalg.eigh((m + m.conj().T) / 2)
    return _orth(evecs[:, np.abs(evals - 1.0) < 1e-8]) if n else np.zeros((0, 0))


def _oracle_f_triple_dims(u_mat, d_p, d_a, d_b, d_f, alpha, beta):
    """Brute-force forward/parallel/reverse future dims at one point."""
    def v_cols(a_cols, b_cols):
        lift = np.kron(np.kron(np.eye(d_p), a_cols), b_cols)
        return u_mat @ lift

    def perp(v):
        full = np.eye(len(v), dtype=complex)
        proj = np.outer(v, v.conj())
        return _orth(full - proj @ full)

    d_slots = d_a * d_b
    alpha = alpha / np.linalg.norm(alpha)
    beta = beta / np.linalg.norm(beta)
    f_ab = _oracle_reduced_f(v_cols(alpha.reshape(-1, 1), beta.reshape(-1, 1)), d_slots, d_f)
    f_abar = _oracle_reduced_f(v_cols(perp(alpha), beta.reshape(-1, 1)), d_slots, d_f)
    f_bbar = _oracle_reduced_f(v_cols(alpha.reshape(-1, 1), perp(beta)), d_slots, d_f)
    fwd = _oracle_intersect(f_ab, f_abar)
    rev = _oracle_intersect(f_ab, f_bbar)
    rest = np.eye(d_f) - fwd @ fwd.conj().T - rev @ rev.conj().T
    par = _oracle_intersect(f_ab, _orth(rest))
    return fwd.shape[1], par.shape[1], rev.shape[1]


class TestSpanningFamily:
    def test_sizes(self):
        assert len(spanning_family(1)) == 1
        assert len(spanning_family(2)) == 4
        assert len(spanning_family(3)) == 9

    def test_members_are_unit(self):
        for v in spanning_family(3):
            assert abs(np.linalg.norm(v) - 1) < 1e-12


class TestVerify:
    def test_switch_passes(self):
        for d in (2, 6):
            rep = verify_pure_superchannel(*build_quantum_switch(d))
            assert rep.ok
            assert max(rep.residuals.values()) < 1e-12

    def test_d3d_passes(self):
        u, lay = build_d3d_example()
        assert verify_pure_superchannel(u, lay).ok

    def test_wire_comb_passes(self):
        u, lay = _wire_comb(1)
        assert verify_pure_superchannel(u, lay).ok

    def test_parallel_comb_passes(self):
        u, lay = _parallel_comb(2)
        assert verify_pure_superchannel(u, lay).ok

    def test_random_unitaries_fail(self):
        lay = switch_layout(2)
        for seed in range(20):
            u = _random_shaped(lay, seed)
            assert not verify_pure_superchannel(u, lay).ok
            assert not family_verdict(family_residuals(u, lay).values())

    def test_verdicts_match_family_oracle(self):
        cases = [build_quantum_switch(2), build_quantum_switch(3), build_d3d_example()]
        cases += [_fixture(name) for name in ("switch", "d3d", "random-unitary")]
        shapes = [(2, 2), (2, 4), (4, 2), (4, 4)]
        cases += [_random_direct_sum(30 + seed, *shapes[seed % 4])[:2] for seed in range(12)]
        verdicts = []
        for u, lay in cases:
            rep = verify_pure_superchannel(u, lay)
            assert rep.ok == family_verdict(family_residuals(u, lay).values())
            verdicts.append(rep.ok)
        assert verdicts.count(False) == 1  # the random-unitary fixture

    def test_non_unitary_rejected(self):
        lay = switch_layout(2)
        bad = LinOp(lay.out_space(), lay.in_space(), np.eye(16) * 0.3)
        with pytest.raises(ValueError):
            verify_pure_superchannel(bad, lay)


def _split_signature(d):
    return d.triple_p_dims, d.triple_f_dims, d.p_dims, d.f_dims, d.classification


class TestMetamorphic:
    def test_verdicts_invariant_under_local_unitaries_and_phase(self):
        # also factor reordering, and the decomposition structure in the class
        rng = np.random.default_rng(31)
        positives = [_parallel_comb(5)] + [_random_direct_sum(seed, 2, 4)[:2] for seed in (40, 41)]
        positives += [(u, lay) for u, lay, _ in _two_slot_cases()]
        sw_lay = switch_layout(2)
        negatives = [(_random_shaped(sw_lay, 50 + seed), sw_lay) for seed in range(3)]
        for cases, in_class in ((positives, True), (negatives, False)):
            for u, lay in cases:
                labels = sorted(u.all_labels)
                variants = [locally_rotated(u, rng) for _ in range(3)]
                variants.append(permute_systems(u, [labels[i] for i in rng.permutation(6)]))
                want = _split_signature(direct_sum_decompose(u, lay)) if in_class else None
                for v in variants:
                    rep = verify_pure_superchannel(v, lay)
                    assert rep.ok == in_class
                    if in_class:
                        assert max(rep.residuals.values()) <= 1e-12
                        d = direct_sum_decompose(v, lay)
                        assert _split_signature(d) == want
                        assert phase_distance(assemble(d), v) <= 1e-8


def _block_projectors(d):
    """(p p^dagger, f f^dagger) of each block's past and future embeddings,
    keyed by order tag: the part of the split that no basis choice moves."""
    return {tag: (p @ p.conj().T, f @ f.conj().T) for tag, (_, p, f) in d.parts().items()}


def _covariance_cases(direct_sum_pool):
    """Switch d=2/3/4, d3d, 12 seeded direct sums and plugged Lugano k=1/2/3,
    each in its layout's canonical factor order."""
    cases = [build_quantum_switch(d) for d in (2, 3, 4)] + [build_d3d_example()]
    cases += [(u, lay) for u, lay, _ in direct_sum_pool[:12]]
    rng = np.random.default_rng(47)
    cases += [plugged_lugano(k, rng) for k in (1, 2, 3)]
    return [(permute_systems(u, lay.in_space().labels + lay.out_space().labels), lay)
            for u, lay in cases]


class TestCovariance:
    def test_projectors_follow_the_past_and_future_dressing(self, direct_sum_pool):
        # U' = (X_AI (x) X_BI (x) W_F) U (V_P (x) Y_AO (x) Y_BO): the slot
        # unitaries leave the split alone, and each past part Pi becomes
        # V_P^dagger Pi V_P and each future part W_F Pi W_F^dagger
        rng = np.random.default_rng(53)
        for u, lay in _covariance_cases(direct_sum_pool):
            wires = (lay.a_in, lay.b_in, lay.future, lay.past, lay.a_out, lay.b_out)
            x_ai, x_bi, w_f, v_p, y_ao, y_bo = (haar_unitary(d, rng) for _, d in wires)
            out, inp = np.kron(np.kron(x_ai, x_bi), w_f), np.kron(np.kron(v_p, y_ao), y_bo)
            dressed = LinOp(u.out_space, u.in_space, out @ u.data @ inp)
            want = _block_projectors(direct_sum_decompose(u, lay))
            got = _block_projectors(direct_sum_decompose(dressed, lay))
            for tag in want:
                (p, f), (p2, f2) = want[tag], got[tag]
                assert np.abs(p2 - v_p.conj().T @ p @ v_p).max() <= 1e-12, tag
                assert np.abs(f2 - w_f @ f @ w_f.conj().T).max() <= 1e-12, tag

    def test_exchanging_the_slots_swaps_the_blocks(self, direct_sum_pool):
        # forward and reverse trade places; the parallel part, which goes
        # with the A-first block, is empty in every input here
        for u, lay in _covariance_cases(direct_sum_pool):
            swapped = TwoSlotLayout(lay.past, lay.b_in, lay.b_out, lay.a_in, lay.a_out, lay.future)
            d = direct_sum_decompose(u, lay)
            assert d.triple_p_dims[1] == 0
            u_sw = permute_systems(u, swapped.in_space().labels + swapped.out_space().labels)
            want, got = _block_projectors(d), _block_projectors(direct_sum_decompose(u_sw, swapped))
            for tag, other in (("ab", "ba"), ("ba", "ab")):
                for g, w in zip(got[tag], want[other]):
                    assert np.abs(g - w).max() <= 1e-12, tag


class TestPerturbation:
    def test_switch_residual_linear_in_eps(self):
        u, lay = build_quantum_switch(2)
        ratios = []
        for eps in (1e-11, 1e-9, 1e-7, 1e-5):
            v = perturbed(u, eps, seed=1)
            res = max(verify_pure_superchannel(v, lay).residuals.values())
            ratios.append(res / eps)
            assert verify_pure_superchannel(v, lay, 10 * res).ok
            assert not verify_pure_superchannel(v, lay, res / 10).ok
        assert max(ratios) <= 10 * min(ratios)


def _joint_cases():
    """Perturbed switches, ``d3d`` and Haar unitaries with d_AO != d_BO."""
    cases = []
    for d in (2, 3, 4):
        u, lay = build_quantum_switch(d)
        for k in range(15, 8, -1):
            cases.append((f"switch{d}-eps1e-{k}", perturbed(u, 10.0 ** -k, seed=d), lay))
    cases.append(("d3d", *build_d3d_example()))
    shapes = [(("P", 2), ("AI", 2), ("AO", 3), ("BI", 3), ("BO", 2), ("F", 2)),
              (("P", 2), ("AI", 1), ("AO", 2), ("BI", 4), ("BO", 3), ("F", 3)),
              (("P", 3), ("AI", 3), ("AO", 4), ("BI", 1), ("BO", 2), ("F", 8))]
    for seed, shape in enumerate(shapes):
        lay = TwoSlotLayout.of(*shape)
        cases.append((f"haar{seed}", _random_shaped(lay, seed), lay))
    return cases


class TestJointResidual:
    @pytest.mark.parametrize("u,lay", [pytest.param(u, lay, id=name) for name, u, lay in _joint_cases()])
    def test_matches_every_block_loop_exactly(self, u, lay):
        assert twoslot._joint_residual(u, lay) == reference_joint_residual(u, lay)

    def test_direct_sums_and_rotated_dressings_match_within_rounding(self, direct_sum_pool):
        """The kernel sums the reference's products in another order."""
        rng = np.random.default_rng(19)
        pool = [(u, lay) for u, lay, _ in direct_sum_pool]
        joint = [(u, lay) for _, u, lay in _joint_cases()]
        for u, lay in pool + [(locally_rotated(u, rng), lay) for u, lay in joint + pool]:
            assert u.in_space.labels + u.out_space.labels == lay.in_space().labels + lay.out_space().labels
            got, want = twoslot._joint_residual(u, lay), reference_joint_residual(u, lay)
            assert abs(got - want) <= 1e-15
            assert (got <= TOL) == (want <= TOL)

    def test_zero_rows_dropped_exactly_on_permutation_unitaries(self, monkeypatch):
        """Switch d=2..5, d3d, phased switches and out-of-class
        permutations: every entry is exact, so dropping the zero rows
        changes no float, and the reference agrees to rounding."""
        rng = np.random.default_rng(23)
        cases = [build_quantum_switch(d) for d in (2, 3, 4, 5)] + [build_d3d_example()]
        for d in (2, 3, 4):
            u, lay = build_quantum_switch(d)
            out_phase, in_phase = (np.exp(2j * np.pi * rng.random(len(u.data))) for _ in range(2))
            phased = out_phase[:, None] * u.data * in_phase
            cases.append((LinOp(u.out_space, u.in_space, phased), lay))
        for d in (2, 3):
            lay = switch_layout(d)
            for _ in range(3):
                perm = np.eye(lay.in_space().dim)[rng.permutation(lay.in_space().dim)]
                u = LinOp(lay.out_space(), lay.in_space(), perm)
                assert twoslot._joint_residual(u, lay) == 1.0
                cases.append((u, lay))
        got = [twoslot._joint_residual(u, lay) for u, lay in cases]
        monkeypatch.setattr(twoslot, "_live", lambda x, axis=0: x)
        for cut, (u, lay) in zip(got, cases):
            assert cut == twoslot._joint_residual(u, lay)
            want = reference_joint_residual(u, lay)
            assert abs(cut - want) <= 1e-15
            assert (cut <= TOL) == (want <= TOL)

    def test_zero_rows_dropped_within_rounding_on_dressed_switches(self):
        """Haar unitaries on F, AO and BO keep the switch's zero rows but
        round its entries, and a kept entry may then round differently at
        the smaller GEMM shape."""
        rng = np.random.default_rng(29)
        for d in (2, 3, 4):
            u, lay = build_quantum_switch(d)
            for _ in range(4):
                out = np.kron(np.eye(d * d), haar_unitary(lay.future[1], rng))
                slot_outs = np.kron(haar_unitary(d, rng), haar_unitary(d, rng))
                inp = np.kron(np.eye(lay.past[1]), slot_outs)
                v = LinOp(u.out_space, u.in_space, out @ u.data @ inp)
                got, want = twoslot._joint_residual(v, lay), reference_joint_residual(v, lay)
                assert abs(got - want) <= 1e-15
                assert (got <= TOL) == (want <= TOL)

    def test_slot_exchange_trades_the_sides(self, direct_sum_pool):
        """The same operator read with the A and B slot roles swapped: the
        verdict holds, the a-side and b-side residuals trade places, and the
        joint residual, whose kernel treats A and B asymmetrically, agrees to
        rounding."""
        cases = [build_quantum_switch(d) for d in (2, 3, 4)] + [build_d3d_example()]
        cases += [(u, lay) for u, lay, _ in direct_sum_pool[:12]]
        cases += [(u, lay) for name, u, lay in _joint_cases() if name.startswith("haar")]
        rng = np.random.default_rng(43)
        cases += [plugged_lugano(k, rng) for k in (1, 2, 3)]
        chain = SlotLayout.of(("P", 2), ("AI", 2), ("AO", 3), ("BI", 3), ("BO", 2), ("F", 2))
        cases.append((random_pure_comb(chain, 7), TwoSlotLayout(*chain.factors)))
        for u, lay in cases:
            swapped = TwoSlotLayout(lay.past, lay.b_in, lay.b_out, lay.a_in, lay.a_out, lay.future)
            got, want = verify_pure_superchannel(u, swapped), verify_pure_superchannel(u, lay)
            assert got.ok == want.ok
            assert got.residuals["a-side"] == want.residuals["b-side"]
            assert got.residuals["b-side"] == want.residuals["a-side"]
            assert abs(got.residuals["joint"] - want.residuals["joint"]) <= 1e-15


def _past_row_cases(direct_sum_pool):
    """Switch d=2/3/4, d3d and the seeded direct sums, each also with one
    ``locally_rotated`` dressing."""
    rng = np.random.default_rng(17)
    cases = [build_quantum_switch(d) for d in (2, 3, 4)] + [build_d3d_example()]
    cases += [(u, lay) for u, lay, _ in direct_sum_pool]
    return cases + [(locally_rotated(u, rng), lay) for u, lay in cases]


class TestPastRows:
    def test_rows_and_gram_match_the_permute_reference_bytes(self, direct_sum_pool):
        for u, lay in _past_row_cases(direct_sum_pool):
            c = twoslot._checked(u, lay, TOL)
            for wire, reached in ((lay.a_in[0], lay.b_out[0]), (lay.b_in[0], lay.a_out[0])):
                gram = want_gram = 0
                # each yielded array is overwritten by the next: compare in step
                for got, want in itertools.zip_longest(twoslot._past_rows(c, lay, wire, reached),
                                                       reference_past_rows(c, lay, wire, reached)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                    gram = gram + got @ got.conj().T
                    want_gram = want_gram + want @ want.conj().T
                assert gram.tobytes() == want_gram.tobytes()

    def test_global_past_bases_match_the_permute_reference_bytes(self, direct_sum_pool,
                                                                  monkeypatch):
        cases = _past_row_cases(direct_sum_pool)
        got = [global_p_decomposition(u, lay) for u, lay in cases]
        monkeypatch.setattr(twoslot, "_past_rows", reference_past_rows)
        for triple, (u, lay) in zip(got, cases):
            want = global_p_decomposition(u, lay)
            for part, want_part in zip(triple.parts(), want.parts()):
                assert part.basis.tobytes() == want_part.basis.tobytes()


def _signalling_wires(u, lay):
    """(operator, wire, reached) of the a-side and b-side checks, of the two
    cross pairs, and of the two U^dagger pairs the global past split reads."""
    a_in, a_out, b_in, b_out = lay.a_in[0], lay.a_out[0], lay.b_in[0], lay.b_out[0]
    v = adjoint(u)
    return [(u, a_out, [a_in]), (u, b_out, [b_in]), (u, a_out, [b_in]), (u, b_out, [a_in]),
            (v, a_in, [b_out]), (v, b_in, [a_out])]


def _permutation_cases(seed):
    """Switch d=2..6, d3d, phased switches and out-of-class permutations of
    the d=2/3 switch layouts: every entry is exact."""
    rng = np.random.default_rng(seed)
    cases = [build_quantum_switch(d) for d in (2, 3, 4, 5, 6)] + [build_d3d_example()]
    for d in (2, 3, 4):
        u, lay = build_quantum_switch(d)
        out_phase, in_phase = (np.exp(2j * np.pi * rng.random(len(u.data))) for _ in range(2))
        cases.append((LinOp(u.out_space, u.in_space, out_phase[:, None] * u.data * in_phase), lay))
    for d in (2, 3):
        lay = switch_layout(d)
        for _ in range(3):
            perm = np.eye(lay.in_space().dim)[rng.permutation(lay.in_space().dim)]
            cases.append((LinOp(lay.out_space(), lay.in_space(), perm), lay))
    return cases


class TestSignallingResidual:
    """``signalling_residual`` cuts each input basis state's rows to the rest
    indices it reaches; the full-size components must give the same max-abs."""

    def test_cut_matches_the_full_components_exactly_on_permutation_unitaries(self):
        cut = 0
        for u, lay in _permutation_cases(31):
            for op, wire, reached in _signalling_wires(u, lay):
                got = signalling_residual(op, wire, reached)
                assert got == reference_signalling_residual(op, wire, reached)
                rows = _signalling_rows(op, wire, reached)
                cut += sum(_live(x, axis=1).shape[1] < x.shape[1] for x in rows)
        assert cut > 0

    def test_direct_sums_match_exactly(self, direct_sum_pool):
        for u, lay, _ in direct_sum_pool:
            for op, wire, reached in _signalling_wires(u, lay):
                got = signalling_residual(op, wire, reached)
                assert got == reference_signalling_residual(op, wire, reached)

    def test_cut_within_rounding_on_dressed_switches(self):
        """The dressing of ``test_zero_rows_dropped_within_rounding_on_dressed_switches``:
        a kept entry may round differently at the smaller GEMM shape."""
        rng = np.random.default_rng(29)
        for d in (2, 3, 4):
            u, lay = build_quantum_switch(d)
            for _ in range(4):
                out = np.kron(np.eye(d * d), haar_unitary(lay.future[1], rng))
                slot_outs = np.kron(haar_unitary(d, rng), haar_unitary(d, rng))
                inp = np.kron(np.eye(lay.past[1]), slot_outs)
                v = LinOp(u.out_space, u.in_space, out @ u.data @ inp)
                for op, wire, reached in _signalling_wires(v, lay):
                    got = signalling_residual(op, wire, reached)
                    want = reference_signalling_residual(op, wire, reached)
                    assert abs(got - want) <= 1e-15
                    assert (got <= TOL) == (want <= TOL)

    def test_dense_rows_are_not_copied(self):
        lay = TwoSlotLayout.of(("P", 2), ("AI", 2), ("AO", 3), ("BI", 3), ("BO", 2), ("F", 2))
        u = _random_shaped(lay, 37)
        for op, wire, reached in _signalling_wires(u, lay):
            for x in _signalling_rows(op, wire, reached):
                assert _live(x, axis=1) is x
        m = u.data.reshape(6, 2, -1)
        assert _live(m) is m and _live(m, axis=2) is m


class TestPerturbedDecomposition:
    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5])
    def test_splits_like_the_unperturbed_input_at_ten_eps(self, eps):
        # every rank decision cuts at the caller's tol, so an input that
        # passes verify at 10 eps splits there as its unperturbed self does
        for u, lay in _ladder_inputs():
            want = _split_signature(direct_sum_decompose(u, lay))
            v = perturbed(u, eps, seed=3)
            assert verify_pure_superchannel(v, lay, 10 * eps).ok
            d = direct_sum_decompose(v, lay, 10 * eps)
            assert _split_signature(d) == want
            assert phase_distance(assemble(d, 10 * eps), v) <= 10 * eps
            # the stacked block bases are one orthonormal frame per side
            for embeds in ((d.p_embed_ab, d.p_embed_ba), (d.f_embed_ab, d.f_embed_ba)):
                frame = np.hstack(embeds)
                assert np.abs(frame.conj().T @ frame - np.eye(len(frame))).max() <= 1e-13
            assert global_p_decomposition(v, lay, 10 * eps).overlap <= 1e-13

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5])
    def test_point_splits_like_the_unperturbed_input_at_ten_eps(self, eps):
        # the pointwise splits cut at the caller's tol as well: each part
        # keeps its dimension and moves by at most 10 eps
        for u, lay in _ladder_inputs():
            v = perturbed(u, eps, seed=3)
            for alpha, beta in _ladder_points(lay):
                want = reference_point_triples(u, lay, alpha, beta)
                got = reference_point_triples(v, lay, alpha, beta, 10 * eps)
                for g, w in zip(got, want):
                    assert g.dims == w.dims
                    assert max(map(angle_sine, g.parts(), w.parts())) <= 10 * eps

    @pytest.mark.parametrize("tol", [1e-8, 1e-6])
    def test_near_parallel_comb_always_splits(self, tol):
        # the A output reaches the B input with amplitude about delta: read
        # as forward (ordered-ab) or as parallel, the A-first block is the map
        for delta in (1e-3, 1e-6, 1e-8, 1e-10):
            u, lay = _swap_comb(np.pi / 2 - delta, 65)
            d = direct_sum_decompose(u, lay, tol)
            assert d.block_ba is None
            if delta >= 100 * tol:
                assert d.classification == "ordered-ab"
            elif delta <= tol / 100:
                assert d.classification == "parallel"
            else:
                assert d.classification in ("ordered-ab", "parallel")
            embedded = embed_block(d.block_ab, d.p_embed_ab, d.f_embed_ab, lay)
            assert phase_distance(embedded, u) <= 1e-12


class TestPointDecompositions:
    """The paper's pointwise splits at one slot-output pair, by the SVD
    chain of ``reference_point_triples``: (future triple, past triple)."""

    def test_switch_future_point_split(self):
        u, lay = build_quantum_switch(2)
        triple = reference_point_triples(u, lay, E0, E0)[0]
        oracle = _oracle_f_triple_dims(u.data, 4, 2, 2, 4, E0, E0)
        assert triple.dims == oracle == (1, 0, 1)

    def test_switch_past_point_split(self):
        u, lay = build_quantum_switch(2)
        for alpha, beta in [(E0, E0), (E1, E0), (PLUS, PLUS)]:
            triple = reference_point_triples(u, lay, alpha, beta)[1]
            assert triple.dims == (2, 0, 2)
            # forward part is the control-0 sector of the past
            want = np.zeros((4, 2))
            want[0, 0] = want[1, 1] = 1.0
            assert angle_sine(triple.forward, Subspace(Spaces((lay.past,)), want)) < 1e-8

    def test_parallel_comb_point_split(self):
        u, lay = _parallel_comb(3)
        f_triple, p_triple = reference_point_triples(u, lay, E0, PLUS)
        assert f_triple.dims[0] == 0 and f_triple.dims[2] == 0
        assert f_triple.dims[1] == f_triple.parallel.dim  # everything parallel
        assert p_triple.dims == (0, 4, 0)

    def test_wire_comb_point_split(self):
        u, lay = _wire_comb(4)
        f_triple = reference_point_triples(u, lay, PLUS, E1)[0]
        # future reachable from a point is one line, all of it forward
        assert f_triple.dims == (1, 0, 0)

    def test_d3d_point_split_depends_on_alpha(self):
        u, lay = build_d3d_example()
        # at a computational basis point the first branch hides its slot-A
        # dependence, so its past sector counts as parallel
        t0 = reference_point_triples(u, lay, E0, E0)[1]
        assert t0.dims == (0, 4, 2)
        assert _oracle_f_triple_dims(u.data, 6, 2, 2, 6, E0, E0) == (0, 1, 1)
        # at a superposed point the dependence is visible
        t1 = reference_point_triples(u, lay, PLUS, E0)[1]
        assert t1.dims == (4, 0, 2)
        assert _oracle_f_triple_dims(u.data, 6, 2, 2, 6, PLUS, E0) == (2, 0, 1)

    def test_oracle_agreement_on_random_direct_sums(self):
        for seed in (0, 1):
            u, lay, _ = _random_direct_sum(seed)
            for alpha, beta in [(E0, E0), (PLUS, E1), (np.array([1, 1j]) / np.sqrt(2), PLUS)]:
                triple = reference_point_triples(u, lay, alpha, beta)[0]
                oracle = _oracle_f_triple_dims(u.data, 4, 2, 2, 4, alpha, beta)
                assert triple.dims == oracle


class TestGlobalDecompositions:
    def test_switch_global_past(self):
        u, lay = build_quantum_switch(2)
        triple = global_p_decomposition(u, lay)
        assert triple.dims == (2, 0, 2)
        want_fwd = np.zeros((4, 2))
        want_fwd[0, 0] = want_fwd[1, 1] = 1.0
        want_rev = np.zeros((4, 2))
        want_rev[2, 0] = want_rev[3, 1] = 1.0
        assert angle_sine(triple.forward, Subspace(Spaces((lay.past,)), want_fwd)) < 1e-8
        assert angle_sine(triple.reverse, Subspace(Spaces((lay.past,)), want_rev)) < 1e-8

    def test_switch_global_future(self):
        u, lay = build_quantum_switch(2)
        p_triple = global_p_decomposition(u, lay)
        f_triple = global_f_decomposition(u, lay, p_triple)
        assert f_triple.dims == (2, 0, 2)
        want_fwd = np.zeros((4, 2))
        want_fwd[0, 0] = want_fwd[1, 1] = 1.0
        assert angle_sine(f_triple.forward, Subspace(Spaces((lay.future,)), want_fwd)) < 1e-8

    def test_d3d_global(self):
        u, lay = build_d3d_example()
        p_triple = global_p_decomposition(u, lay)
        assert p_triple.dims == (4, 0, 2)
        f_triple = global_f_decomposition(u, lay, p_triple)
        assert f_triple.dims == (4, 0, 2)

    def test_random_direct_sum_global(self):
        u, lay, _ = _random_direct_sum(5)
        assert global_p_decomposition(u, lay).dims == (2, 0, 2)

    def test_parallel_comb_global(self):
        u, lay = _parallel_comb(6)
        p_triple = global_p_decomposition(u, lay)
        assert p_triple.dims == (0, 4, 0)
        f_triple = global_f_decomposition(u, lay, p_triple)
        assert f_triple.dims == (0, 4, 0)

    def test_wire_comb_global(self):
        u, lay = _wire_comb(7)
        assert global_p_decomposition(u, lay).dims == (2, 0, 0)

    def test_rotated_past_split_rejected(self):
        u, lay = build_quantum_switch(2)
        p = global_p_decomposition(u, lay)
        past = Spaces((lay.past,))
        for angle in (1e-3, 0.3):
            # the forward part tilted towards the reverse part by angle
            c, s = np.cos(angle), np.sin(angle)
            fwd = Subspace(past, c * p.forward.basis + s * p.reverse.basis)
            rev = Subspace(past, c * p.reverse.basis - s * p.forward.basis)
            with pytest.raises(VerificationError):
                global_f_decomposition(u, lay, SubspaceTriple(fwd, p.parallel, rev))
        # a triple from outside must tile the past: one forward column
        # missing, or the reverse part the forward part
        short = Subspace(past, p.forward.basis[:, 1:])
        for bad in (SubspaceTriple(short, p.parallel, p.reverse),
                    SubspaceTriple(p.forward, p.parallel, p.forward)):
            with pytest.raises(VerificationError):
                global_f_decomposition(u, lay, bad)

    def test_random_unitary_past_split_rejected(self):
        # both signalling supports fill the past: the forward rows weigh on
        # the reverse part, and the split is an error, not a triple
        lay = switch_layout(2)
        for seed in (60, 61):
            with pytest.raises(VerificationError, match="global past split inconsistent"):
                global_p_decomposition(_random_shaped(lay, seed), lay)

    def test_past_split_matches_family_oracle(self):
        for u, lay, want in _two_slot_cases():
            triple, ref = global_p_decomposition(u, lay), family_global_p(u, lay)
            assert triple.dims == ref.dims == want
            for part, ref_part in zip(triple.parts(), ref.parts()):
                assert angle_sine(part, ref_part) < 1e-8


class TestDirectSumDecompose:
    def test_switch_blocks_match_wire_routings(self):
        u, lay = build_quantum_switch(2)
        d = direct_sum_decompose(u, lay)
        assert d.p_dims == (2, 2) and d.f_dims == (2, 2)
        assert d.classification == "switch-like"
        # embedded blocks equal the two routing terms up to phase
        d_in, d_out = 4, 4
        for tag, blk, p_e, f_e in (
            ("ab", d.block_ab, d.p_embed_ab, d.f_embed_ab),
            ("ba", d.block_ba, d.p_embed_ba, d.f_embed_ba),
        ):
            embedded = (
                np.kron(np.eye(d_out), f_e)
                @ permute_systems(blk, ["P", "AO", "BO", "AI", "BI", "F"]).data
                @ np.kron(p_e, np.eye(d_in)).conj().T
            )
            expected = np.zeros((16, 16), dtype=complex)
            for t in range(2):
                for a in range(2):
                    for b in range(2):
                        if tag == "ab":
                            col = ((0 * 2 + t) * 2 + a) * 2 + b
                            row = (t * 2 + a) * 4 + (0 * 2 + b)
                        else:
                            col = ((1 * 2 + t) * 2 + a) * 2 + b
                            row = (b * 2 + t) * 4 + (1 * 2 + a)
                        expected[row, col] = 1.0
            overlap = np.trace(expected.conj().T @ embedded)
            # Frobenius overlap of two equal partial isometries of rank 8
            assert abs(abs(overlap) - 8.0) < 1e-8

            assert np.abs(embedded - expected * (overlap / abs(overlap))).max() < 1e-8

    def test_ordered_staircase_single_block(self):
        u, lay = _wire_comb(8)
        d = direct_sum_decompose(u, lay)
        assert d.classification == "ordered-ab"
        assert d.p_dims == (2, 0)
        assert d.block_ba is None
        assert phase_distance(assemble(d), u) < 1e-10

    def test_parallel_comb_classification(self):
        u, lay = _parallel_comb(9)
        d = direct_sum_decompose(u, lay)
        assert d.classification == "parallel"
        assert d.p_dims == (4, 0)

    def test_d3d_general_direct_sum(self):
        u, lay = build_d3d_example()
        d = direct_sum_decompose(u, lay)
        assert d.classification == "general-direct-sum"
        assert d.p_dims == (4, 2) and d.f_dims == (4, 2)
        assert phase_distance(assemble(d), u) < 1e-8

    def test_random_direct_sum_roundtrip_and_splittings(self):
        for seed in range(5):
            u, lay, (ep_ab, ep_ba, ef_ab, ef_ba) = _random_direct_sum(seed)
            d = direct_sum_decompose(u, lay)
            assert phase_distance(assemble(d), u) < 1e-7
            p_sp = Spaces((lay.past,))
            f_sp = Spaces((lay.future,))
            assert angle_sine(Subspace(p_sp, d.p_embed_ab), Subspace(p_sp, ep_ab)) < 1e-8
            assert angle_sine(Subspace(p_sp, d.p_embed_ba), Subspace(p_sp, ep_ba)) < 1e-8
            assert angle_sine(Subspace(f_sp, d.f_embed_ab), Subspace(f_sp, ef_ab)) < 1e-8
            assert angle_sine(Subspace(f_sp, d.f_embed_ba), Subspace(f_sp, ef_ba)) < 1e-8

    def test_rank_decisions_take_no_svd(self, monkeypatch):
        # every split is two nested eigh cuts of one frame per side, and the
        # block bases are slices of it, at any switch dimension
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for dim in (2, 3, 4):
            calls.clear()
            direct_sum_decompose(*build_quantum_switch(dim))
            assert len(calls) == 0

    def test_rejects_random_unitary(self):
        lay = switch_layout(2)
        with pytest.raises(VerificationError):
            direct_sum_decompose(_random_shaped(lay, 3), lay)

    def test_unbalanced_direct_sum(self):
        u, lay, _ = _random_direct_sum(11, p_ab=2, p_ba=4)
        d = direct_sum_decompose(u, lay)
        assert d.p_dims == (2, 4)
        assert d.classification == "general-direct-sum"
        assert phase_distance(assemble(d), u) < 1e-7

    def test_block_dims_divide_by_wires(self):
        # at equal wire dims and square past/future the block past dims are
        # multiples of the slot-input dims
        for seed in (20, 21):
            u, lay, _ = _random_direct_sum(seed, p_ab=2, p_ba=4)
            d = direct_sum_decompose(u, lay)
            assert d.p_dims[0] % lay.a_in[1] == 0
            assert d.p_dims[1] % lay.b_in[1] == 0

    def test_plug_after_assemble_is_unitary(self):
        from purecomb.choi import plug_unitaries

        u, lay, _ = _random_direct_sum(22)
        d = direct_sum_decompose(u, lay)
        re = assemble(d)
        rng = np.random.default_rng(23)
        for _ in range(50):
            slot_a = LinOp(
                Spaces.of(("AO", 2), ("EAo", 2)),
                Spaces.of(("AI", 2), ("EAi", 2)),
                haar_unitary(4, rng),
            )
            slot_b = LinOp(
                Spaces.of(("BO", 2), ("EBo", 2)),
                Spaces.of(("BI", 2), ("EBi", 2)),
                haar_unitary(4, rng),
            )
            g = plug_unitaries(re, lay.slot_chain("ab"), [slot_a, slot_b])
            ok, res = is_unitary(g, 1e-8)
            assert ok, res


class TestChangeOfBasis:
    @staticmethod
    def _cases():
        cases = [(*build_quantum_switch(d), 1e-8) for d in (2, 3, 4)]
        cases.append((*build_d3d_example(), 1e-8))
        for i, shape in enumerate([(2, 2), (2, 4), (4, 2), (4, 4)]):
            cases.append((*_random_direct_sum(80 + i, *shape)[:2], 1e-8))
        cases += [(*_wire_comb(81), 1e-8), (*_parallel_comb(82), 1e-8),
                  (*_parallel_plus_ba(83), 1e-8)]
        rng = np.random.default_rng(85)
        cases += [(*plugged_lugano(k, rng), 1e-8) for k in (1, 2, 3)]
        u, lay = build_quantum_switch(2)
        cases.append((perturbed(u, 1e-7, seed=3), lay, 1e-6))
        return cases

    def test_blocks_and_off_block_match_kron_restriction(self):
        for u, lay, tol in self._cases():
            d = direct_sum_decompose(u, lay, tol)
            parts = list(d.parts().values())
            for blk, p_e, f_e in parts:
                if blk is not None:
                    ref = kron_restriction(u, lay, p_e, f_e)
                    assert np.abs(blk.data - ref).max() <= 1e-14
            off = max(np.abs(kron_restriction(u, lay, p_e, f_e)).max(initial=0.0)
                      for (_, p_e, _), (_, _, f_e) in itertools.permutations(parts, 2))
            assert abs(d.off_block_residual - off) <= 1e-14
        assert d.off_block_residual > 1e-12  # the perturbed switch, decomposed at 1e-6

    def test_classification_is_derived(self):
        u, lay = _wire_comb(84)
        d = direct_sum_decompose(u, lay)
        assert d.classification == "ordered-ab"
        swapped = dataclasses.replace(
            d, p_embed_ab=d.p_embed_ba, p_embed_ba=d.p_embed_ab, f_embed_ab=d.f_embed_ba,
            f_embed_ba=d.f_embed_ab, block_ab=d.block_ba, block_ba=d.block_ab)
        assert swapped.classification == "ordered-ba"

    def test_trace_future_check_embeds_each_block_once(self, monkeypatch):
        d = direct_sum_decompose(*build_quantum_switch(2))
        embed, calls = twoslot.embed_block, []
        monkeypatch.setattr(twoslot, "embed_block", lambda *a: calls.append(1) or embed(*a))
        assert trace_future_check(d).ok
        assert len(calls) == 2

    def test_decompose_checks_each_unitarity_once(self, monkeypatch):
        # U once, then each block once, inside its causal-order check
        calls = []
        for mod in (twoslot, combs):
            monkeypatch.setattr(mod, "is_unitary",
                                lambda *a, check=mod.is_unitary: calls.append(1) or check(*a))
        direct_sum_decompose(*build_quantum_switch(3))
        assert len(calls) == 3

    def test_one_block_decompose_verifies_the_block_once(self, tmp_path, monkeypatch):
        # direct_sum_decompose verifies the block as a comb; the CLI then
        # peels its staircase without checking it again
        path, calls = str(tmp_path / "comb-ab.json"), collections.Counter()
        assert main(["build", "random-comb", "--chain", "P=2,AI=2,AO=2,BI=2,BO=2,F=2",
                     "--seed", "7", "--out", path]) == 0
        for mod, name in itertools.product((twoslot, combs), ("verify_pure_comb_unitary",
                                                              "signalling_residual", "is_unitary")):
            monkeypatch.setattr(mod, name, lambda *a, f=getattr(mod, name), name=name:
                                calls.update([name]) or f(*a))
        argv = ["decompose", path, "--kind", "direct-sum", "--out", str(tmp_path / "dec")]
        assert main(argv) == 0
        assert (tmp_path / "dec.element-2.json").exists()
        # U, the block and the three staircase elements are each checked once
        assert calls == {"verify_pure_comb_unitary": 1, "signalling_residual": 4, "is_unitary": 5}

    def test_non_unitary_block_is_a_verification_failure(self, monkeypatch):
        # the block check fails as the comb check's unitarity test reports
        monkeypatch.setattr(combs, "is_unitary", lambda *a: UnitaryCheck(False, 0.5))
        with pytest.raises(VerificationError, match=r"^block ab: .*not unitary \(residual 5\.00e-01\)"):
            direct_sum_decompose(*build_quantum_switch(2))


class TestLayoutCheck:
    @staticmethod
    def _calls(u, lay):
        """Verdict and block dims, each as one call."""

        def block_dims():
            d = direct_sum_decompose(u, lay)
            return d.p_dims, d.f_dims

        return [lambda: verify_pure_superchannel(u, lay).ok, block_dims]

    def test_wrong_label_or_factor_dim_rejected(self):
        u, lay = build_quantum_switch(2)
        relabelled = LinOp(Spaces.of(("AI", 2), ("BI", 2), ("G", 4)), u.in_space, u.data)
        # same total dimension 16, but P and AO swap their dimensions
        redimmed = LinOp(u.out_space, Spaces.of(("P", 2), ("AO", 4), ("BO", 2)), u.data)
        for bad in (relabelled, redimmed):
            for call in self._calls(bad, lay):
                with pytest.raises(ValueError, match="layout"):
                    call()

    def test_layout_rejects_bad_factors_when_built(self):
        with pytest.raises(ValueError):
            TwoSlotLayout.of(("P", 2), ("P", 2), ("AO", 0), ("BI", 2), ("BO", 2), ("F", 2))
        with pytest.raises(ValueError, match="invalid dimension 0"):
            TwoSlotLayout.of(("P", 2), ("AI", 2), ("AO", 0), ("BI", 2), ("BO", 2), ("F", 2))
        with pytest.raises(ValueError, match="duplicate factor labels"):
            TwoSlotLayout.of(("P", 2), ("P", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", 2))

    def test_factor_order_in_the_operator_is_immaterial(self):
        u, lay = build_quantum_switch(2)
        shuffled = permute_systems(u, ["BO", "F", "P", "AI", "AO", "BI"])
        assert shuffled.in_space.labels == ("BO", "P", "AO")
        for call, call_shuffled in zip(self._calls(u, lay), self._calls(shuffled, lay)):
            assert call_shuffled() == call()
        assert self._calls(shuffled, lay)[0]() is True


class TestAssemble:
    def test_single_block_embeds(self):
        u, lay = _wire_comb(12)
        d = direct_sum_decompose(u, lay)
        out = assemble(d)
        assert is_unitary(out).ok
        assert phase_distance(out, u) < 1e-10

    def test_mismatched_splitting_rejected(self):
        u, lay, _ = _random_direct_sum(13)
        d = direct_sum_decompose(u, lay)
        import dataclasses

        bad = dataclasses.replace(d, p_embed_ba=d.p_embed_ba[:, :1])
        with pytest.raises(ValueError):
            assemble(bad)


class TestEmbedBlock:
    def test_permuted_block_factors_embed_canonically(self):
        u, lay = build_quantum_switch(2)
        d = direct_sum_decompose(u, lay)
        total = np.zeros_like(u.data)
        for blk, p_e, f_e in ((d.block_ab, d.p_embed_ab, d.f_embed_ab),
                              (d.block_ba, d.p_embed_ba, d.f_embed_ba)):
            canonical = embed_block(blk, p_e, f_e, lay)
            shuffled = permute_systems(blk, ["F", "BI", "AI", "BO", "AO", "P"])
            assert shuffled.out_space.labels == ("F", "BI", "AI")
            assert np.array_equal(embed_block(shuffled, p_e, f_e, lay).data, canonical.data)
            assert canonical.out_space == lay.out_space()
            assert canonical.in_space == lay.in_space()
            total += canonical.data
        assert np.array_equal(total, assemble(d).data)


class TestTraceFutureCheck:
    def test_switch_equal_weights(self):
        u, lay = build_quantum_switch(2)
        d = direct_sum_decompose(u, lay)
        rep = trace_future_check(d)
        assert rep.ok
        assert rep.residual < 1e-8
        assert abs(rep.weights[0] - 0.5) < 1e-10 and abs(rep.weights[1] - 0.5) < 1e-10

    def test_single_block_weight_one(self):
        u, lay = _wire_comb(14)
        d = direct_sum_decompose(u, lay)
        rep = trace_future_check(d)
        assert rep.ok
        assert rep.weights == (1.0, 0.0)
        assert d.block_ba is None and rep.residual == 0.0

    def test_weights_follow_block_dims(self):
        u, lay, _ = _random_direct_sum(15, p_ab=2, p_ba=4)
        d = direct_sum_decompose(u, lay)
        rep = trace_future_check(d)
        assert rep.ok
        assert abs(rep.weights[0] - 2 / 6) < 1e-10
        assert abs(rep.weights[1] - 4 / 6) < 1e-10

    def test_matches_dense_choi_partial_trace(self):
        for dim in (2, 3):
            u, lay = build_quantum_switch(dim)
            d = direct_sum_decompose(u, lay)
            ops = [assemble(d)] + [embed_block(*part, lay) for part in d.parts().values()]
            for op in ops:
                traced = future_traced_choi(op, lay)
                dense = partial_trace(choi_of_unitary(op).op, [lay.future[0]])
                assert traced.out_space == dense.out_space == traced.in_space
                assert np.abs(traced.data - dense.data).max() <= 1e-14

    def test_tol_reaches_both_checks(self):
        u, lay = build_quantum_switch(2)
        d = direct_sum_decompose(u, lay)
        base, loose = trace_future_check(d), trace_future_check(d, tol=1e-5)
        assert (loose.residual, loose.weights) == (base.residual, base.weights)
        bent = self._bent(d, 1e-6)
        # the assembly's unitarity residual bounds the traced one, so at the
        # default tol the tilt fails there first
        with pytest.raises(VerificationError, match="not unitary"):
            trace_future_check(bent)
        rep = trace_future_check(bent, tol=1e-5)
        assert rep.ok and rep.tol == 1e-5 and 1e-8 < rep.residual <= 1e-5
        assert not dataclasses.replace(rep, tol=1e-8).ok

    @staticmethod
    def _bent(d, eps):
        """``d`` with its A-first future embedding tilted by ``eps`` towards
        the B-first one."""
        tilt = np.zeros((d.f_dims[1], d.f_dims[0]))
        tilt[0, 0] = eps
        return dataclasses.replace(d, f_embed_ab=d.f_embed_ab + d.f_embed_ba @ tilt)

    def test_matches_dense_reference(self, decomposed_direct_sums):
        named = [direct_sum_decompose(*build_quantum_switch(dim)) for dim in (2, 3)]
        named.append(direct_sum_decompose(*build_d3d_example()))
        one_block = direct_sum_decompose(*_wire_comb(14))
        assert one_block.block_ba is None
        cases = [(d, TOL) for d in named + [d for *_, d in decomposed_direct_sums] + [one_block]]
        cases += [(self._bent(d, eps), 1e-3) for d in named for eps in (1e-6, 1e-4)]
        for d, tol in cases:
            rep = trace_future_check(d, tol)
            residual, weights = reference_trace_future(d, tol)
            assert abs(rep.residual - residual) <= 1e-15 + 1e-9 * residual
            assert np.abs(np.subtract(rep.weights, weights)).max() <= 1e-12
        assert trace_future_check(one_block).residual == 0.0
        assert trace_future_check(self._bent(named[0], 1e-4), 1e-3).residual > 1e-6

    def test_cross_residual_matches_the_full_scan_exactly(self, decomposed_direct_sums):
        named = [direct_sum_decompose(*build_quantum_switch(dim)) for dim in (2, 3, 4)]
        named.append(direct_sum_decompose(*build_d3d_example()))
        cases = [(d, TOL) for d in named + [d for *_, d in decomposed_direct_sums]]
        # a tilted future embedding keeps the switch's zero rows, off 0
        cases += [(self._bent(d, 1e-4), 1e-3) for d in named]
        for d, tol in cases:
            factors = [twoslot._future_factor(e, d.layout) for e in twoslot._embedded(d, tol)[0]]
            assert trace_future_check(d, tol).residual == reference_cross_residual(*factors)

    @staticmethod
    def _switch_fits(dim, mib):
        d = direct_sum_decompose(*build_quantum_switch(dim))
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            rep, peak = trace_future_check(d), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20
        assert rep.residual <= 1e-8
        assert abs(rep.weights[0] - 0.5) < 1e-10 and abs(rep.weights[1] - 0.5) < 1e-10

    def test_switch_d4_fits_in_memory(self):
        # the dense traced operators and their difference peaked at 321 MiB
        self._switch_fits(4, 32)

    def test_switch_d5_fits_in_memory(self):
        # each dense traced operator would need 596 MiB
        self._switch_fits(5, 64)

    def test_invariant_under_local_rotations(self):
        rng = np.random.default_rng(31)
        cases = [build_quantum_switch(3), build_d3d_example()]
        cases += [_random_direct_sum(seed)[:2] for seed in (32, 33)]
        for u, lay in cases:
            base = trace_future_check(direct_sum_decompose(u, lay))
            assert base.ok and base.residual <= 1e-8
            for _ in range(2):
                rep = trace_future_check(direct_sum_decompose(locally_rotated(u, rng), lay))
                assert rep.ok == base.ok and rep.residual <= 1e-8
                assert np.abs(np.subtract(rep.weights, base.weights)).max() <= 1e-10


class TestBetaIndependence:
    def test_forward_past_constant_in_beta(self):
        betas = [E0, E1, PLUS, np.array([1, 1j]) / np.sqrt(2), np.array([3, 4]) / 5.0]
        cases = [build_quantum_switch(2), build_d3d_example()]
        cases.append(_random_direct_sum(16)[:2])
        for u, lay in cases:
            for alpha in (E0, PLUS):
                triples = [reference_point_triples(u, lay, alpha, b)[1] for b in betas]
                first = triples[0].forward
                for t in triples[1:]:
                    assert t.forward.dim == first.dim
                    assert is_subset(t.forward, first, 1e-8)
                    assert is_subset(first, t.forward, 1e-8)

    def test_reverse_past_constant_in_alpha(self):
        alphas = [E0, E1, PLUS, np.array([1, -1j]) / np.sqrt(2)]
        u, lay = build_quantum_switch(2)
        triples = [reference_point_triples(u, lay, a, PLUS)[1] for a in alphas]
        first = triples[0].reverse
        for t in triples[1:]:
            assert is_subset(t.reverse, first, 1e-8)
            assert is_subset(first, t.reverse, 1e-8)


class TestPluggedLugano:
    """An in-class input not built from its answer: the purified Lugano
    process, a three-slot process that violates a causal inequality, with
    any one slot plugged by a Haar unitary with a k-dimensional environment,
    splits into one A-first and one B-first block of past dimension 4k."""

    # slot C, the default plug, keeps the bare ids k
    @pytest.mark.parametrize("k, slot", [pytest.param(k, slot, id=str(k) if slot == "C" else f"{k}-{slot}")
                                         for k in (1, 2, 3) for slot in "ABC"])
    def test_splits_into_two_ordered_blocks(self, k, slot):
        u, lay = plugged_lugano(k, np.random.default_rng(k), slot)
        assert verify_pure_superchannel(u, lay, TOL).ok
        d = direct_sum_decompose(u, lay, TOL)
        assert d.classification == "general-direct-sum"
        assert d.p_dims == (4 * k, 4 * k) and d.triple_p_dims == (4 * k, 0, 4 * k)
        assert phase_distance(assemble(d), u) <= 1e-8
        report = trace_future_check(d)
        assert report.ok and np.allclose(report.weights, (0.5, 0.5), rtol=0, atol=1e-12)
        for tag, (blk, _, _) in d.parts().items():
            chain = lay.with_dims(blk.in_space.dim_of("P"), blk.out_space.dim_of("F")).slot_chain(tag)
            circuit = staircase_decompose(blk, chain, TOL)
            assert circuit.ancilla_dims == (1, 2 * k, 2 * k, 1)
            assert phase_distance(compose_staircase(circuit), blk) <= 1e-8

    def test_unplugged_with_b_and_c_grouped_fails_verify(self, tmp_path, capsys):
        # B (x) C as one 4-dim slot: the process is not a direct sum of
        # A-first and BC-first combs
        grouped = LinOp(Spaces.of(("AI", 2), ("BCI", 4), ("F", 8)),
                        Spaces.of(("P", 8), ("AO", 2), ("BCO", 4)), lugano_process().data)
        path = str(tmp_path / "lugano.json")
        save_matrix(path, grouped)
        assert main(["verify", path, "--kind", "pure-superchannel", "--json"]) == 1
        residuals = json.loads(capsys.readouterr().out)["residuals"]
        assert residuals["joint"] == 0.5 and residuals["b-side"] == 1.0

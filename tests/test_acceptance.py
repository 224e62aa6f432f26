"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Heavy instance pools (the seeded comb and direct-sum batches) are built once
per session and shared across criteria.
"""

import os
import sys

import numpy as np
import pytest

from helpers import angle_sine, square_two_slot_layout
from purecomb.builders import (
    build_d3d_example,
    build_quantum_switch,
    haar_unitary,
    random_pure_comb,
)
from purecomb.choi import plug_unitaries
from purecomb.combs import compose_staircase, staircase_decompose, verify_comb_choi
from purecomb.io import file_digest, load_matrix, save_matrix
from purecomb.layouts import SlotLayout, TwoSlotLayout
from purecomb.spaces import LinOp, Spaces, is_unitary, phase_distance
from purecomb.subspaces import (
    Subspace,
    from_spanning,
    intersect,
    is_subset,
    reduced_subspace,
)
from purecomb.twoslot import (
    assemble,
    direct_sum_decompose,
    p_point_decomposition,
    trace_future_check,
    verify_pure_superchannel,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

ONE_SLOT_LAYOUTS = [
    (("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2)),
    (("H0", 4), ("H1", 2), ("H2", 2), ("H3", 4)),   # forces ancilla dim 2
    (("H0", 3), ("H1", 3), ("H2", 3), ("H3", 3)),
    (("H0", 6), ("H1", 3), ("H2", 3), ("H3", 6)),
]
TWO_SLOT_LAYOUTS = [
    (("H0", 2), ("H1", 2), ("H2", 2), ("H3", 2), ("H4", 2), ("H5", 2)),
    (("H0", 4), ("H1", 2), ("H2", 2), ("H3", 2), ("H4", 2), ("H5", 4)),
    (("H0", 6), ("H1", 2), ("H2", 2), ("H3", 3), ("H4", 3), ("H5", 6)),
    (("H0", 4), ("H1", 2), ("H2", 2), ("H3", 4), ("H4", 4), ("H5", 4)),
]


@pytest.fixture
def announce(capsys):
    def _line(num, ok, text):
        line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {text}"
        with capsys.disabled():
            print(line)
            sys.stdout.flush()

    return _line


@pytest.fixture(scope="session")
def comb_pool():
    """100 seeded reversible combs, half one-slot, half two-slot."""
    pool = []
    for seed in range(50):
        lay = SlotLayout(ONE_SLOT_LAYOUTS[seed % len(ONE_SLOT_LAYOUTS)])
        pool.append((lay, random_pure_comb(lay, seed)))
    for seed in range(50):
        lay = SlotLayout(TWO_SLOT_LAYOUTS[seed % len(TWO_SLOT_LAYOUTS)])
        pool.append((lay, random_pure_comb(lay, 1000 + seed)))
    return pool


def _chain_as_two_slot(lay: SlotLayout) -> TwoSlotLayout:
    f = lay.factors
    return TwoSlotLayout(f[0], f[1], f[2], f[3], f[4], f[5])


def test_criterion_01_switch(announce):
    u, lay = build_quantum_switch(2)
    ok = verify_pure_superchannel(u, lay).ok
    d = direct_sum_decompose(u, lay)
    ok &= d.p_dims == (2, 2) and d.f_dims == (2, 2)
    ok &= d.classification == "switch-like"
    # recovered block subspaces are the control sectors
    p_sp, f_sp = Spaces((lay.past,)), Spaces((lay.future,))
    sector0 = np.zeros((4, 2))
    sector0[0, 0] = sector0[1, 1] = 1.0
    sector1 = np.zeros((4, 2))
    sector1[2, 0] = sector1[3, 1] = 1.0
    ok &= angle_sine(Subspace(p_sp, d.p_embed_ab), Subspace(p_sp, sector0)) < 1e-8
    ok &= angle_sine(Subspace(p_sp, d.p_embed_ba), Subspace(p_sp, sector1)) < 1e-8
    ok &= angle_sine(Subspace(f_sp, d.f_embed_ab), Subspace(f_sp, sector0)) < 1e-8
    ok &= angle_sine(Subspace(f_sp, d.f_embed_ba), Subspace(f_sp, sector1)) < 1e-8
    # embedded blocks equal the two wire routings up to a global phase
    for tag, blk, p_e, f_e in (
        ("ab", d.block_ab, d.p_embed_ab, d.f_embed_ab),
        ("ba", d.block_ba, d.p_embed_ba, d.f_embed_ba),
    ):
        from purecomb.spaces import permute_systems

        embedded = (
            np.kron(np.eye(4), f_e)
            @ permute_systems(blk, ["P", "AO", "BO", "AI", "BI", "F"]).data
            @ np.kron(p_e, np.eye(4)).conj().T
        )
        expected = np.zeros((16, 16), dtype=complex)
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    if tag == "ab":
                        col, row = ((0 * 2 + t) * 2 + a) * 2 + b, (t * 2 + a) * 4 + b
                    else:
                        col, row = ((1 * 2 + t) * 2 + a) * 2 + b, (b * 2 + t) * 4 + 2 + a
                    expected[row, col] = 1.0
        overlap = np.trace(expected.conj().T @ embedded)
        phase = overlap / abs(overlap)
        ok &= np.abs(embedded - expected * phase).max() < 1e-8
    announce(1, ok, "switch verifies, splits into balanced wire-comb blocks, switch-like")
    assert ok


def test_criterion_02_d3d(announce):
    u, lay = build_d3d_example()
    ok = verify_pure_superchannel(u, lay).ok
    d = direct_sum_decompose(u, lay)
    ok &= d.p_dims == (4, 2) and d.f_dims == (4, 2)
    ok &= d.classification == "general-direct-sum"
    announce(2, ok, "triple-dimension example splits 4+2 with no control factor")
    assert ok


def test_criterion_03_staircase_round_trip(comb_pool, announce):
    ok = True
    for lay, u in comb_pool:
        circuit = staircase_decompose(u, lay)
        ok &= phase_distance(compose_staircase(circuit), u) < 1e-7
        dims = lay.dims
        ks = circuit.ancilla_dims
        for m in range(lay.n_slots + 1):
            ok &= dims[2 * m] * ks[m] == dims[2 * m + 1] * ks[m + 1]
        if not ok:
            break
    announce(3, ok, "100 seeded combs recompose below 1e-7 with exact integer ancilla chains")
    assert ok


def test_criterion_04_direct_sum_round_trip(decomposed_direct_sums, announce):
    ok = True
    for u, lay, (ep_ab, ep_ba, ef_ab, ef_ba), d in decomposed_direct_sums:
        ok &= phase_distance(assemble(d), u) < 1e-7
        p_sp, f_sp = Spaces((lay.past,)), Spaces((lay.future,))
        ok &= angle_sine(Subspace(p_sp, d.p_embed_ab), Subspace(p_sp, ep_ab)) < 1e-8
        ok &= angle_sine(Subspace(p_sp, d.p_embed_ba), Subspace(p_sp, ep_ba)) < 1e-8
        ok &= angle_sine(Subspace(f_sp, d.f_embed_ab), Subspace(f_sp, ef_ab)) < 1e-8
        ok &= angle_sine(Subspace(f_sp, d.f_embed_ba), Subspace(f_sp, ef_ba)) < 1e-8
        if not ok:
            break
    announce(4, ok, "50 seeded direct sums: decompose-assemble below 1e-7, splittings recovered")
    assert ok


def test_criterion_05_negative_controls(announce):
    lay = square_two_slot_layout(2, 2)
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(90_000 + seed)
        bad = LinOp(lay.out_space(), lay.in_space(), haar_unitary(16, rng))
        ok &= not verify_pure_superchannel(bad, lay).ok
    chain = SlotLayout(ONE_SLOT_LAYOUTS[0])
    sp = chain.in_space().concat(chain.out_space())
    for seed in range(100):
        rng = np.random.default_rng(91_000 + seed)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        w = g @ g.conj().T
        w *= 4.0 / np.trace(w).real  # plausible normalization, wrong structure
        ok &= not verify_comb_choi(LinOp(sp, sp, w), chain).ok
    announce(5, ok, "100 random unitaries and 100 random positive operators all rejected")
    assert ok


def _slot_ops_with_ancillas(lay: SlotLayout, rng):
    ops = []
    for n in range(1, lay.n_slots + 1):
        lab_in, d_in = lay.factor(2 * n - 1)
        lab_out, d_out = lay.factor(2 * n)
        sp_in = Spaces.of((lab_in, d_in), (f"E{n}i", 2))
        sp_out = Spaces.of((lab_out, d_out), (f"E{n}o", 2))
        ops.append(LinOp(sp_out, sp_in, haar_unitary(sp_in.dim, rng)))
    return ops


def test_criterion_06_plug_in_unitarity(comb_pool, decomposed_direct_sums, announce):
    instances = [(build_quantum_switch(2)[1].slot_chain("ab"), build_quantum_switch(2)[0]),
                 (build_d3d_example()[1].slot_chain("ab"), build_d3d_example()[0])]
    instances += [(lay, u) for lay, u in comb_pool]
    instances += [(lay.slot_chain("ab"), u) for u, lay, _, _ in decomposed_direct_sums]
    rng = np.random.default_rng(0xF00D)
    ok = True
    worst = 0.0
    for lay, u in instances:
        for _ in range(50):
            g = plug_unitaries(u, lay, _slot_ops_with_ancillas(lay, rng))
            good, res = is_unitary(g, 1e-8)
            worst = max(worst, res)
            ok &= good
        if not ok:
            break
    announce(6, ok, f"50 ancilla pairs per instance give unitary outputs (worst {worst:.1e})")
    assert ok


def test_criterion_07_causal_separability(comb_pool, decomposed_direct_sums, announce):
    decomps = [d for _, _, _, d in decomposed_direct_sums]
    for u, lay in (build_quantum_switch(2), build_d3d_example()):
        decomps.append(direct_sum_decompose(u, lay))
    for lay, u in comb_pool:
        if lay.n_slots == 2:
            decomps.append(direct_sum_decompose(u, _chain_as_two_slot(lay)))
    ok = True
    worst = 0.0
    for d in decomps:
        rep = trace_future_check(d)
        worst = max(worst, rep.residual)
        ok &= rep.residual < 1e-8
    announce(7, ok, f"future-traced operators match block mixtures (worst {worst:.1e})")
    assert ok


def test_criterion_08_subspace_oracles(announce):
    ok = True
    rng = np.random.default_rng(777)
    splits = [
        (Spaces.of(("E", 2), ("F", 3)), ["E"]),
        (Spaces.of(("E", 2), ("F1", 2), ("F2", 2)), ["E"]),
        (Spaces.of(("E1", 2), ("E2", 3)), ["E1"]),
        (Spaces.of(("E1", 2), ("E2", 2), ("F", 2)), ["E1", "E2"]),
    ]
    for i in range(200):
        sp, e_labels = splits[i % len(splits)]
        k = int(rng.integers(1, sp.dim))
        m = rng.standard_normal((sp.dim, k)) + 1j * rng.standard_normal((sp.dim, k))
        w = from_spanning(m, sp)
        got = reduced_subspace(w, e_labels)
        # oracle: sum of supports of the traced projectors of random members
        d_e = sp.select(e_labels).dim
        rest = [lab for lab in sp.labels if lab not in set(e_labels)]
        d_f = sp.select(rest).dim
        from purecomb.spaces import permute_systems as _perm
        from purecomb.spaces import Vec

        vecs = []
        for _ in range(50):
            c = rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim)
            vec = Vec(sp, w.basis @ c)
            eta = _perm(vec, e_labels + rest).data.reshape(d_e, d_f)
            rho = eta.T @ eta.conj()
            evals, evecs = np.linalg.eigh(rho)
            vecs.append(evecs[:, evals > 1e-10])
        oracle = from_spanning(np.concatenate(vecs, axis=1), sp.select(rest))
        ok &= got.dim == oracle.dim and angle_sine(got, oracle) < 1e-8

        # intersection against the eigenvalue-1 space of P_s P_t P_s
        ks, kt = int(rng.integers(1, sp.dim)), int(rng.integers(1, sp.dim))
        s = from_spanning(
            rng.standard_normal((sp.dim, ks)) + 1j * rng.standard_normal((sp.dim, ks)), sp
        )
        t = from_spanning(
            rng.standard_normal((sp.dim, kt)) + 1j * rng.standard_normal((sp.dim, kt)), sp
        )
        got_i = intersect(s, t)
        p_s, p_t = s.basis @ s.basis.conj().T, t.basis @ t.basis.conj().T
        prod = p_s @ p_t @ p_s
        evals, evecs = np.linalg.eigh((prod + prod.conj().T) / 2)
        oracle_i = from_spanning(evecs[:, np.abs(evals - 1.0) < 1e-8], sp)
        ok &= got_i.dim == oracle_i.dim and angle_sine(got_i, oracle_i) < 1e-8
        if not ok:
            break
    announce(8, ok, "200 reduction and intersection instances agree with brute-force oracles")
    assert ok


def test_criterion_09_beta_independence(comb_pool, decomposed_direct_sums, announce):
    betas = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]) / np.sqrt(2),
        np.array([1.0, 1.0j]) / np.sqrt(2),
        np.array([0.6, 0.8]),
    ]
    alphas = [np.array([1.0, 0.0]), np.array([1.0, -1.0]) / np.sqrt(2)]
    instances = [build_quantum_switch(2), build_d3d_example()]
    instances += [(u, lay) for u, lay, _, _ in decomposed_direct_sums[:10]]
    instances += [
        (u, _chain_as_two_slot(lay))
        for lay, u in comb_pool
        if lay.n_slots == 2 and lay.dims == (2, 2, 2, 2, 2, 2)
    ][:10]
    ok = True
    for u, lay in instances:
        if lay.b_out[1] != 2 or lay.a_out[1] != 2:
            continue
        for alpha in alphas:
            triples = [p_point_decomposition(u, lay, alpha, beta) for beta in betas]
            first = triples[0].forward
            for t in triples[1:]:
                ok &= t.forward.dim == first.dim
                ok &= first.dim == 0 or (is_subset(t.forward, first, 1e-8)
                                         and is_subset(first, t.forward, 1e-8))
        if not ok:
            break
    announce(9, ok, "forward past parts agree across 5 slot-B vectors per slot-A vector")
    assert ok


def test_criterion_10_cli_contract(tmp_path, announce):
    from purecomb.cli import main

    switch = os.path.join(FIXTURES, "switch.json")
    d3d = os.path.join(FIXTURES, "d3d.json")
    bad = os.path.join(FIXTURES, "random-unitary.json")
    ok = os.path.exists(switch) and os.path.exists(d3d) and os.path.exists(bad)
    ok &= main(["verify", switch, "--kind", "pure-superchannel"]) == 0
    ok &= main(["verify", d3d, "--kind", "pure-superchannel"]) == 0
    ok &= main(["verify", bad, "--kind", "pure-superchannel"]) == 1
    truncated = tmp_path / "trunc.json"
    truncated.write_text(open(switch).read()[:77])
    ok &= main(["verify", str(truncated), "--kind", "pure-superchannel"]) == 2
    # save/load is bit exact
    op = load_matrix(switch)
    copy_path = tmp_path / "copy.json"
    save_matrix(copy_path, op)
    ok &= file_digest(copy_path) == file_digest(switch)
    back = load_matrix(copy_path)
    ok &= np.array_equal(back.data, op.data)
    announce(10, ok, "fixtures ship, exit codes 0/1/2 stable, save/load bit exact")
    assert ok

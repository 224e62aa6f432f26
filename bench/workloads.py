"""The benchmark's workloads: seeded inputs and fixed op lists.

A workload is a ``setup(seed, params)`` that builds, with the library, the
inputs no CLI command can build, and an ``ops(inputs, work)`` that lists the
ops of one pass.  ``params`` holds the instances the benchmark measures and
``smoke`` the smallest ones, for the harness's own test.

Every workload verifies, plugs slot unitaries, writes files no CLI command
writes and links Choi operators, so the metrics of those op kinds are
nonzero on each of them; build, decompose and assemble run where the
workload is about them.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import purecomb.builders as builders
import purecomb.choi as choi
import purecomb.combs as combs
import purecomb.io as pio
import purecomb.twoslot as twoslot
from purecomb.layouts import SlotLayout, TwoSlotLayout
from purecomb.spaces import LinOp, Spaces, permute_systems

from harness import CheckError, Op, cli_op, expect_close, expect_unitary, load

NEG_TWO_SLOT_DIMS = "P=4,AI=2,AO=2,BI=2,BO=2,F=4"
QUBIT_COMB = "H0=2,H1=2,H2=2,H3=2,H4=2,H5=2"


class Workload(NamedTuple):
    setup: Callable[[int, dict], dict]
    ops: Callable[[dict, Path], list]
    params: dict
    smoke: dict


def parse_chain(chain: str) -> SlotLayout:
    return SlotLayout.of(*[(lab, int(d)) for lab, d in (kv.split("=") for kv in chain.split(","))])


def _seeds(rng, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def slot_ops(layout: SlotLayout, rng) -> list[LinOp]:
    """Haar slot unitaries, each carrying a private ancilla in and out."""
    ops = []
    for n in range(1, layout.n_slots + 1):
        (lab_in, d_in), (lab_out, d_out) = layout.factor(2 * n - 1), layout.factor(2 * n)
        total = 2 * math.lcm(d_in, d_out)
        sp_in = Spaces.of((lab_in, d_in), (f"E{n}i", total // d_in))
        sp_out = Spaces.of((lab_out, d_out), (f"E{n}o", total // d_out))
        ops.append(LinOp(sp_out, sp_in, builders.haar_unitary(total, rng)))
    return ops


def plug_instance(u: LinOp, layout: SlotLayout, draws: int, rng) -> dict:
    return {"u": u, "layout": layout, "draws": [slot_ops(layout, rng) for _ in range(draws)]}


def qubit_comb(rng, draws: int) -> dict:
    """Two-slot qubit comb whose Choi chain is small enough to link densely."""
    layout = parse_chain(QUBIT_COMB)
    return plug_instance(builders.random_pure_comb(layout, _seeds(rng, 1)[0]), layout, draws, rng)


# ---------------------------------------------------------------- shared ops


def plug_groups(tag: str, inst: dict, work: Path) -> list[list[Op]]:
    """Per draw: plug the slot unitaries, whose global map must be unitary,
    and save that map to a file."""
    groups = []
    for i, draw in enumerate(inst["draws"]):
        key, path = f"plug {tag} #{i}", work / f"plug-{tag}-{i}.json"

        def run(state, draw=draw, key=key):
            state[key] = choi.plug_unitaries(inst["u"], inst["layout"], draw)
            return state[key]

        groups.append([
            Op(key, "plug", run, lambda g, state, key=key: expect_unitary(g, key)),
            Op(f"write {key}", "write", lambda state, key=key, path=path:
               pio.save_matrix(path, state[key]), writes=(path.name,)),
        ])
    return groups


def link_groups(tag: str, inst: dict, work: Path) -> list[list[Op]]:
    """Per draw, after plugging: link the map's Choi with the slot Chois; the
    result must equal the Choi of the plugged unitary."""
    groups = plug_groups(tag, inst, work)
    for i, draw in enumerate(inst["draws"]):

        def run(state, draw=draw):
            w = choi.choi_of_unitary(inst["u"])
            for op in draw:
                w = choi.link_product(w, choi.choi_of_unitary(op))
            return w

        def check(w, state, i=i):
            want = choi.choi_of_unitary(state[f"plug {tag} #{i}"]).op
            got = permute_systems(w.op, list(want.out_space.labels))
            if got.out_space != want.out_space:
                raise CheckError(f"link chain acts on {got.out_space.factors}")
            err = float(np.abs(got.data - want.data).max())
            if not err <= 1e-8:
                raise CheckError(f"link chain differs from the plugged Choi by {err:.2e}")

        groups[i].append(Op(f"link {tag} #{i}", "choi", run, check))
    return groups


def spread(groups: list[list[Op]], extras: list[list[Op]]) -> list[Op]:
    """Concatenate ``groups`` with ``extras`` spaced evenly between them.

    Machine speed on a shared host drifts over seconds, so a kind whose ops
    ran in one stretch of the pass would carry that stretch's drift; spaced
    out, its sum averages over the whole pass."""
    out: list[Op] = []
    j = 0
    for i, group in enumerate(groups):
        out += group
        while j < len(extras) and (j + 1) * len(groups) <= (i + 1) * len(extras):
            out += extras[j]
            j += 1
    return out


def write_op(name: str, path: Path, op: LinOp) -> Op:
    return Op(name, "write", lambda state: pio.save_matrix(path, op), writes=(path.name,))


def build_op(tag: str, argv: list, path: Path) -> Op:
    return cli_op(f"build {tag}", "build", ["build", *argv, "--out", path],
                  verdict="ok", writes=(path.name,))


def two_slot_maps(params: dict) -> list[tuple]:
    """(tag, CLI build arguments, operator, layout, block dims) of the worked
    two-slot instances."""
    maps = [(f"switch{d}", ["switch", "--dim", d], *builders.build_quantum_switch(d), (d, d))
            for d in params["switch_dims"]]
    if params["d3d"]:
        maps.append(("d3d", ["d3d"], *builders.build_d3d_example(), (4, 2)))
    return maps


# ------------------------------------------------------------------ twoslot


def twoslot_setup(seed: int, params: dict) -> dict:
    rng = np.random.default_rng(seed)
    sums = []
    for p_ab, p_ba in params["direct_sums"]:
        d = p_ab + p_ba
        layout = TwoSlotLayout.of(("P", d), ("AI", 2), ("AO", 2), ("BI", 2), ("BO", 2), ("F", d))
        s_ab, s_ba = _seeds(rng, 2)
        u_ab = builders.random_pure_comb(layout.with_dims(p_ab, p_ab).slot_chain("ab"), s_ab)
        u_ba = builders.random_pure_comb(layout.with_dims(p_ba, p_ba).slot_chain("ba"), s_ba)
        ep, ef = builders.haar_unitary(d, rng), builders.haar_unitary(d, rng)
        u = builders.build_direct_sum(u_ab, u_ba, ep[:, :p_ab], ep[:, p_ab:],
                                      ef[:, :p_ab], ef[:, p_ab:], layout)
        sums.append((f"sum{p_ab}x{p_ba}", None, u, layout, (p_ab, p_ba)))
    maps = two_slot_maps(params) + sums
    return {"maps": maps, "negatives": _seeds(rng, params["negatives"]),
            "plugs": {tag: plug_instance(u, lay.slot_chain("ab"), params["plug_draws"], rng)
                      for tag, _, u, lay, _ in maps},
            "link": qubit_comb(rng, params["link_draws"])}


def _split_check(p_dims):
    def check(report, state):
        got = report["details"]["block_p_dims"], report["details"]["block_f_dims"]
        if got != (list(p_dims), list(p_dims)):
            raise CheckError(f"block dims {got}, expected {list(p_dims)} on past and future")

    return check


def twoslot_ops(inputs: dict, work: Path) -> list[Op]:
    groups, plugs = [], []
    for tag, build_args, u, _, p_dims in inputs["maps"]:
        path, prefix, out = work / f"in-{tag}.json", work / f"dec-{tag}", work / f"asm-{tag}.json"
        groups.append([
            # no CLI command builds a random direct sum
            write_op(f"write {tag}", path, u) if build_args is None
            else build_op(tag, build_args, path),
            cli_op(f"verify {tag}", "verify", ["verify", path, "--kind", "pure-superchannel"]),
            cli_op(f"decompose {tag}", "decompose",
                   ["decompose", path, "--kind", "direct-sum", "--out", prefix],
                   writes=(f"{prefix.name}.*",), check=_split_check(p_dims)),
            cli_op(f"assemble {tag}", "assemble",
                   ["assemble", f"{prefix}.block-ab.json", f"{prefix}.block-ba.json", "--out", out],
                   writes=(out.name,),
                   check=lambda report, state, out=out, u=u, tag=tag:
                   expect_close(load(out), u, f"assembled {tag}")),
        ])
        plugs += plug_groups(tag, inputs["plugs"][tag], work)
    for i, seed in enumerate(inputs["negatives"]):
        tag, path = f"random{i}", work / f"in-random{i}.json"
        groups.append([
            build_op(tag, ["random-unitary", "--dims", NEG_TWO_SLOT_DIMS, "--seed", seed], path),
            cli_op(f"verify {tag}", "verify", ["verify", path, "--kind", "pure-superchannel"],
                   rc=1, verdict="fail"),
            cli_op(f"decompose {tag}", "decompose",
                   ["decompose", path, "--kind", "direct-sum", "--out", work / f"dec-{tag}"],
                   rc=1, verdict="fail", writes=(f"dec-{tag}.*",)),
        ])
    return spread(groups, plugs + link_groups("qubit-comb", inputs["link"], work))


# --------------------------------------------------------------------- comb


def comb_setup(seed: int, params: dict) -> dict:
    rng = np.random.default_rng(seed)
    combs_in = []
    for chain, seed_i in zip(params["chains"], _seeds(rng, len(params["chains"]))):
        layout = parse_chain(chain)
        combs_in.append((chain, seed_i, layout, builders.random_pure_comb(layout, seed_i)))
    plugs = {i: plug_instance(combs_in[i][3], combs_in[i][2], params["plug_draws"], rng)
             for i in params["plugged"]}
    return {"combs": combs_in, "plugs": plugs, "swapped": params["swapped"],
            "link": qubit_comb(rng, params["link_draws"])}


def _swapped_order(layout: SlotLayout) -> str:
    """Chain order with the wires of slots 1 and 2 exchanged."""
    labels = list(layout.labels)
    labels[1:3], labels[3:5] = labels[3:5], labels[1:3]
    return ",".join(labels)


def _staircase_check(layout: SlotLayout, original: LinOp):
    """The element files, recomposed, must give back the comb."""

    def check(report, state):
        elements = [load(p) for p in report["details"]["files"]]
        taken = set(layout.labels)
        anc = dict.fromkeys(lab for el in elements for lab in
                            (*el.in_space.labels, *el.out_space.labels) if lab not in taken)
        circuit = combs.CombCircuit(layout, tuple(elements),
                                    tuple(report["details"]["ancilla_dims"]), tuple(anc))
        expect_close(combs.compose_staircase(circuit), original, "recomposed staircase")

    return check


def comb_ops(inputs: dict, work: Path) -> list[Op]:
    groups, plugs = [], []
    for i, (chain, seed, layout, u) in enumerate(inputs["combs"]):
        path, prefix = work / f"in-comb{i}.json", work / f"dec-comb{i}"
        group = [
            build_op(f"comb{i}", ["random-comb", "--chain", chain, "--seed", seed], path),
            cli_op(f"verify comb{i}", "verify", ["verify", path, "--kind", "pure-comb"]),
        ]
        if i in inputs["swapped"]:
            group.append(cli_op(f"verify comb{i} swapped", "verify",
                                ["verify", path, "--kind", "pure-comb",
                                 "--order", _swapped_order(layout)], rc=1, verdict="fail"))
        group.append(cli_op(f"decompose comb{i}", "decompose",
                            ["decompose", path, "--kind", "staircase", "--out", prefix],
                            writes=(f"{prefix.name}.*",), check=_staircase_check(layout, u)))
        groups.append(group)
        if i in inputs["plugs"]:
            plugs += plug_groups(f"comb{i}", inputs["plugs"][i], work)
    return spread(groups, plugs + link_groups("qubit-comb", inputs["link"], work))


# --------------------------------------------------------------------- choi


def _random_positive(layout: SlotLayout, rng) -> LinOp:
    """Positive operator with a comb Choi's trace but no comb structure."""
    sp = layout.in_space().concat(layout.out_space())
    g = rng.standard_normal((sp.dim, sp.dim)) + 1j * rng.standard_normal((sp.dim, sp.dim))
    w = g @ g.conj().T
    return LinOp(sp, sp, w * (layout.in_space().dim / np.trace(w).real))


def choi_setup(seed: int, params: dict) -> dict:
    rng = np.random.default_rng(seed)
    chois = []
    for i, (chain, seed_i) in enumerate(zip(params["chains"], _seeds(rng, len(params["chains"])))):
        layout = parse_chain(chain)
        w = choi.choi_of_unitary(builders.random_pure_comb(layout, seed_i)).op
        chois.append((f"comb{i}", layout, w, True))
    neg_layout = parse_chain(params["chains"][0])
    chois += [(f"positive{i}", neg_layout, _random_positive(neg_layout, rng), False)
              for i in range(params["negatives"])]
    maps = two_slot_maps(params)
    return {"chois": chois,
            "decomps": {tag: twoslot.direct_sum_decompose(u, lay) for tag, _, u, lay, _ in maps},
            "plugs": {tag: plug_instance(u, lay.slot_chain("ab"), params["plug_draws"], rng)
                      for tag, _, u, lay, _ in maps},
            "link": qubit_comb(rng, params["link_draws"])}


def _future_traced_check(rep, state):
    if not rep.residual <= 1e-8:
        raise CheckError(f"future-traced residual {rep.residual:.2e}")


def choi_ops(inputs: dict, work: Path) -> list[Op]:
    groups = []
    for tag, layout, w, is_comb in inputs["chois"]:
        path = work / f"choi-{tag}.json"
        groups.append([
            write_op(f"write choi {tag}", path, w),
            cli_op(f"verify choi {tag}", "verify",
                   ["verify", path, "--kind", "comb-choi", "--order", ",".join(layout.labels)],
                   rc=0 if is_comb else 1, verdict="pass" if is_comb else "fail"),
        ])
    for tag, decomp in inputs["decomps"].items():
        groups.append([Op(f"trace-future {tag}", "choi",
                          lambda state, d=decomp: twoslot.trace_future_check(d),
                          _future_traced_check)])
    plugs = [g for tag, inst in inputs["plugs"].items() for g in plug_groups(tag, inst, work)]
    return spread(groups, plugs + link_groups("qubit-comb", inputs["link"], work))


WORKLOADS = {
    # Two-slot maps up to the d=4 switch (the decompose-under-1-s target):
    # subspace calculus and label permutes dominate; io is minor.
    "twoslot": Workload(
        twoslot_setup, twoslot_ops,
        params={"switch_dims": (2, 3, 4), "d3d": True,
                "direct_sums": ((2, 2), (2, 4), (4, 2), (4, 4)), "negatives": 2, "plug_draws": 4,
                "link_draws": 16},
        smoke={"switch_dims": (2,), "d3d": False, "direct_sums": ((2, 2),), "negatives": 1,
               "plug_draws": 1, "link_draws": 1},
    ),
    # Combs of 1 to 4 slots, D 16 to 256, with ancillas: combs and the
    # per-vector apply_op/contract_bra peeling loops, no twoslot; the D=256
    # file makes io a visible share of building.
    "comb": Workload(
        comb_setup, comb_ops,
        params={"chains": ("H0=4,H1=2,H2=4,H3=8",
                           "H0=4,H1=2,H2=4,H3=4,H4=4,H5=8",
                           "H0=8,H1=2,H2=4,H3=4,H4=4,H5=4,H6=2,H7=8",
                           "H0=4,H1=2,H2=2,H3=2,H4=2,H5=2,H6=2,H7=2,H8=2,H9=4"),
                "swapped": (1, 3), "plugged": (0, 1, 3), "plug_draws": 2, "link_draws": 8},
        smoke={"chains": ("H0=4,H1=2,H2=4,H3=8", QUBIT_COMB),
               "swapped": (1,), "plugged": (0,), "plug_draws": 1, "link_draws": 1},
    ),
    # Comb Choi files of 256^2 and 1024^2 entries, written and CLI-verified,
    # and future-traced Choi checks: io and partial traces dominate and the
    # Choi operators set peak RSS.  The d=4 future trace needs >4 GiB: left out.
    "choi": Workload(
        choi_setup, choi_ops,
        params={"chains": ("H0=4,H1=2,H2=4,H3=8", "H0=4,H1=2,H2=2,H3=4,H4=4,H5=4"),
                "negatives": 2, "switch_dims": (2, 3), "d3d": True, "plug_draws": 8,
                "link_draws": 8},
        smoke={"chains": ("H0=4,H1=2,H2=4,H3=8",), "negatives": 1, "switch_dims": (2,),
               "d3d": False, "plug_draws": 1, "link_draws": 1},
    ),
}

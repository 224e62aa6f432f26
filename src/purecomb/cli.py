"""Command-line front end.

Exit codes form a stable contract: 0 for a passing verdict or successful
command, 1 for a verified-false or failed-construction verdict, 2 for
malformed input, bad usage, or an internal error; --tol must be finite
and > 0.  verify --kind pure-superchannel and --kind pure-comb take
unitaries only: their closed-form identities characterize the class only
for unitaries, so a non-unitary file is malformed (2), not "not in class".

Chain layouts interleave the file's input and output factors; --order
overrides the interleaving by label.  A two-slot file is read as a chain
file: its three inputs and three outputs interleave to P, AI, AO, BI, BO,
F, so in file order the inputs are (past, A-output, B-output) and the
outputs (A-input, B-input, future).  An option the chosen build target or
--kind never reads is bad usage (2).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import builders, combs, twoslot
from .errors import VerificationError
from .io import file_digest, load_matrix, save_matrix
from .layouts import SlotLayout, TwoSlotLayout
from .spaces import TOL, LinOp, is_unitary, permute_systems

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


@dataclasses.dataclass
class Report:
    command: str
    inputs: dict
    verdict: str
    residuals: dict = dataclasses.field(default_factory=dict)
    details: dict = dataclasses.field(default_factory=dict)
    tolerances: dict = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for name, digest in self.inputs.items():
            lines.append(f"input {name}: {digest}")
        lines.append(f"verdict: {self.verdict}")
        for key in sorted(self.residuals):
            lines.append(f"residual {key}: {self.residuals[key]:.3e}")
        for key in sorted(self.details):
            lines.append(f"{key}: {self.details[key]}")
        for key in sorted(self.tolerances):
            lines.append(f"tolerance {key}: {self.tolerances[key]:g}")
        return "\n".join(lines)


def _emit(report: Report, as_json: bool, out_path=None) -> None:
    encoded = report.to_json() if as_json or out_path else None
    print(encoded if as_json else report.to_text())
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(encoded)
            fh.write("\n")


def _parse_assignments(raw: str, what: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in raw.split(","):
        if "=" not in item:
            raise UsageError(f"bad {what} entry {item!r}; expected label=dim")
        lab, val = item.split("=", 1)
        lab = lab.strip()
        if lab in out:
            raise UsageError(f"repeated label in {what}: {item!r}")
        try:
            out[lab] = int(val)
        except ValueError:
            raise UsageError(f"bad dimension in {what}: {item!r}") from None
        if out[lab] < 1:
            raise UsageError(f"non-positive dimension in {what}: {item!r}")
    return out


def _two_slot_layout(op: LinOp, dims_arg: str | None) -> TwoSlotLayout:
    if len(op.in_space) != 3 or len(op.out_space) != 3:
        raise UsageError(
            "a two-slot operator needs exactly three input and three output factors"
        )
    layout = TwoSlotLayout(_chain_layout(op, None).factors)
    if dims_arg:
        given = _parse_assignments(dims_arg, "--dims")
        have = dict(layout.factors)
        if given != have:
            raise UsageError(f"--dims {given} conflicts with file factors {have}")
    return layout


def _chain_layout(op: LinOp, order_arg: str | None) -> SlotLayout:
    if order_arg:
        order = [lab.strip() for lab in order_arg.split(",")]
    else:
        if len(op.in_space) != len(op.out_space):
            raise UsageError(
                "cannot interleave a chain from unequal factor counts; pass --order"
            )
        order = []
        for fin, fout in zip(op.in_space.factors, op.out_space.factors):
            order.extend([fin[0], fout[0]])
    factors = []
    for i, lab in enumerate(order):
        side = op.in_space if i % 2 == 0 else op.out_space
        if not side.has(lab):
            raise UsageError(f"chain label {lab!r} not found on the expected side")
        factors.append((lab, side.dim_of(lab)))
    return SlotLayout(tuple(factors))


def _reject_unread(args, target: str, reads: set) -> None:
    """Usage error naming the first option given that ``target`` never reads."""
    for opt in ("dim", "dims", "chain", "seed", "order"):
        if getattr(args, opt, None) is not None and opt not in reads:
            raise UsageError(f"{args.command} {target} does not take --{opt}")


def cmd_build(args) -> int:
    reads = {"switch": {"dim"}, "d3d": set(), "random-comb": {"chain", "seed"},
             "random-unitary": {"dims", "seed"}}
    _reject_unread(args, args.name, reads[args.name])
    rng_seed = args.seed if args.seed is not None else 0
    if args.name == "switch":
        op, _ = builders.build_quantum_switch(args.dim or 2)
    elif args.name == "d3d":
        op, _ = builders.build_d3d_example()
    elif args.name == "random-comb":
        if not args.chain:
            raise UsageError("random-comb requires --chain H0=2,H1=2,...")
        factors = _parse_assignments(args.chain, "--chain").items()
        op = builders.random_pure_comb(SlotLayout.of(*factors), rng_seed)
    else:  # random-unitary
        if args.dims is None:
            raise UsageError("random-unitary requires --dims P=4,AI=2,AO=2,BI=2,BO=2,F=4")
        given = _parse_assignments(args.dims, "--dims")
        want = ["AI", "AO", "BI", "BO", "F", "P"]
        if sorted(given) != want:
            raise UsageError(f"--dims labels {sorted(given)} must be exactly {want}")
        layout = TwoSlotLayout.of(*((lab, given[lab]) for lab in ("P", "AI", "AO", "BI", "BO", "F")))
        sp_in, sp_out = layout.in_space(), layout.out_space()
        if sp_in.dim != sp_out.dim:
            raise UsageError("--dims do not give a square operator")
        op = LinOp(sp_out, sp_in, builders.haar_unitary(sp_in.dim, np.random.default_rng(rng_seed)))
    digest = save_matrix(args.out, op)
    report = Report(
        command="build",
        inputs={},
        verdict="ok",
        details={
            "name": args.name,
            "out": str(args.out),
            "digest": digest,
            "shape": list(op.data.shape),
        },
    )
    _emit(report, args.json)
    return EXIT_PASS


def cmd_verify(args) -> int:
    """Print the ``combs.Verdict`` of the --kind check, residuals as keyed."""
    reads = {"pure-superchannel": {"dims"}, "pure-comb": {"order"}, "comb-choi": {"order"}}
    _reject_unread(args, f"--kind {args.kind}", reads[args.kind])
    op = load_matrix(args.path)
    inputs = {"matrix": file_digest(args.path)}
    tol = args.tol
    if args.kind == "pure-superchannel":
        rep = twoslot.verify_pure_superchannel(op, _two_slot_layout(op, args.dims), tol)
    elif args.kind == "pure-comb":
        rep = combs.verify_pure_comb_unitary(op, _chain_layout(op, args.order), tol)
    else:  # comb-choi
        rep = combs.verify_comb_choi(op, _chain_layout_from_square(op, args.order), tol)
    report = Report(
        command="verify",
        inputs=inputs,
        verdict="pass" if rep.ok else "fail",
        residuals=dict(rep.residuals),
        tolerances={"tol": tol},
        details={"kind": args.kind},
    )
    _emit(report, args.json)
    return EXIT_PASS if rep.ok else EXIT_FAIL


def _chain_layout_from_square(op: LinOp, order_arg: str | None) -> SlotLayout:
    if dict(op.out_space.factors) != dict(op.in_space.factors):
        raise UsageError(
            f"a comb Choi operator carries the same factors on both sides: "
            f"out {op.out_space.factors} vs in {op.in_space.factors}"
        )
    if order_arg:
        order = [lab.strip() for lab in order_arg.split(",")]
    else:
        order = list(op.out_space.labels)
    factors = tuple((lab, op.out_space.dim_of(lab)) for lab in order)
    if set(op.out_space.labels) != {lab for lab, _ in factors}:
        raise UsageError("--order must cover every factor of the Choi operator")
    return SlotLayout(factors)


def cmd_decompose(args) -> int:
    reads = {"direct-sum": {"dims"}, "staircase": {"order"}}
    _reject_unread(args, f"--kind {args.kind}", reads[args.kind])
    op = load_matrix(args.path)
    inputs = {"matrix": file_digest(args.path)}
    tol = args.tol
    written: list[str] = []
    details: dict = {"kind": args.kind}
    residuals: dict = {}
    circuit = None
    try:
        if args.kind == "direct-sum":
            layout = _two_slot_layout(op, args.dims)
            decomp = twoslot.direct_sum_decompose(op, layout, tol)
            details["classification"] = decomp.classification
            details["block_p_dims"] = list(decomp.p_dims)
            details["block_f_dims"] = list(decomp.f_dims)
            residuals["off-block"] = decomp.off_block_residual
            blocks = decomp.parts()
            for tag, (blk, p_e, f_e) in blocks.items():
                if blk is None:
                    continue
                path = f"{args.out}.block-{tag}.json"
                save_matrix(path, twoslot.embed_block(blk, p_e, f_e, layout))
                written.append(path)
            # a single causally ordered block additionally gets its staircase;
            # direct_sum_decompose has verified it against this chain at tol
            present = [(tag, blk) for tag, (blk, _, _) in blocks.items() if blk is not None]
            if len(present) == 1:
                tag, blk = present[0]
                chain = layout.with_dims(
                    blk.in_space.dim_of(layout.past[0]),
                    blk.out_space.dim_of(layout.future[0]),
                ).slot_chain(tag)
                circuit = combs._peel(blk, chain, tol)
        else:  # staircase
            circuit = combs.staircase_decompose(op, _chain_layout(op, args.order), tol)
        if circuit is not None:
            details["ancilla_dims"] = list(circuit.ancilla_dims)
            for i, el in enumerate(circuit.elements):
                el_path = f"{args.out}.element-{i}.json"
                save_matrix(el_path, el)
                written.append(el_path)
        details["files"] = written
        verdict = "pass"
    except VerificationError as exc:
        verdict, residuals = "fail", {}
        details = {"kind": args.kind, "reason": str(exc)}
    report = Report(
        command="decompose",
        inputs=inputs,
        verdict=verdict,
        residuals=residuals,
        details=details,
        tolerances={"tol": tol},
    )
    _emit(report, args.json, f"{args.out}.report.json")
    return EXIT_PASS if verdict == "pass" else EXIT_FAIL


def cmd_assemble(args) -> int:
    ops = [load_matrix(p) for p in args.paths]
    inputs = {f"block-{i}": file_digest(p) for i, p in enumerate(args.paths)}
    first = ops[0]
    order = list(dict.fromkeys(first.out_space.labels + first.in_space.labels))
    total = first.data.copy()
    for op in ops[1:]:
        # A block may list its factors in another order: align it to the
        # first block's by label.  One permutation orders both sides, so a
        # label on both sides of the first block must keep one relative order.
        if all(dict(x.factors) == dict(y.factors)
               for x, y in ((op.in_space, first.in_space), (op.out_space, first.out_space))):
            op = permute_systems(op, order)
        if op.in_space != first.in_space or op.out_space != first.out_space:
            raise UsageError(
                f"blocks act on different spaces: {op.in_space.factors} vs {first.in_space.factors}"
            )
        total = total + op.data
    out_op = LinOp(first.out_space, first.in_space, total)
    ok, res = is_unitary(out_op, args.tol)
    digest = save_matrix(args.out, out_op)
    report = Report(
        command="assemble",
        inputs=inputs,
        verdict="pass" if ok else "fail",
        residuals={"unitarity": res},
        details={"out": str(args.out), "digest": digest},
        tolerances={"tol": args.tol},
    )
    _emit(report, args.json)
    return EXIT_PASS if ok else EXIT_FAIL


def tolerance(raw: str) -> float:
    tol = float(raw)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {raw!r}")
    return tol


def dimension(raw: str) -> int:
    dim = int(raw)
    if dim < 1:
        raise argparse.ArgumentTypeError(f"dimension must be a positive integer, got {raw!r}")
    return dim


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``main`` in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="purecomb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a constructed operator to a matrix file")
    p_build.add_argument("name", choices=["switch", "d3d", "random-comb", "random-unitary"])
    p_build.add_argument("--dim", type=dimension, default=None)
    p_build.add_argument("--dims", default=None, help="two-slot dims, e.g. P=4,AI=2,AO=2,BI=2,BO=2,F=4")
    p_build.add_argument("--chain", default=None, help="ordered chain dims, e.g. H0=2,H1=2,H2=2,H3=2")
    p_build.add_argument("--seed", type=int, default=None)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--json", action="store_true")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run a structural verification on a matrix file")
    p_verify.add_argument("path")
    p_verify.add_argument("--kind", required=True,
                          choices=["pure-superchannel", "pure-comb", "comb-choi"])
    p_verify.add_argument("--dims", default=None)
    p_verify.add_argument("--order", default=None, help="chain order by label, e.g. H0,H1,H2,H3")
    p_verify.add_argument("--tol", type=tolerance, default=TOL)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="split an operator and write the pieces")
    p_dec.add_argument("path")
    p_dec.add_argument("--kind", required=True, choices=["direct-sum", "staircase"])
    p_dec.add_argument("--dims", default=None)
    p_dec.add_argument("--order", default=None)
    p_dec.add_argument("--tol", type=tolerance, default=TOL)
    p_dec.add_argument("--out", required=True, help="output path prefix")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_asm = sub.add_parser("assemble", help="sum embedded block files back into one operator")
    p_asm.add_argument("paths", nargs="+")
    p_asm.add_argument("--tol", type=tolerance, default=TOL)
    p_asm.add_argument("--out", required=True)
    p_asm.add_argument("--json", action="store_true")
    p_asm.set_defaults(func=cmd_assemble)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # includes UsageError and MatrixFileError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL if isinstance(exc, VerificationError) else EXIT_USAGE
    except Exception as exc:  # a crash must not read as a verified-false verdict
        print(f"error: internal {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

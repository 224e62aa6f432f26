"""Digest manifest of a fixed list of CLI ops, for byte-comparing two checkouts.

    python3 tools/cli_digests.py WORKDIR > manifest.json

Runs 41 ops in-process through ``purecomb.cli.main`` (imported from the
``src/`` of the checkout this file is in), with the BLAS thread count pinned
to 1, inside WORKDIR with relative paths, and prints one JSON manifest: per
op its argv, exit code and the sha256 of its stdout, then the sha256 of
every file written to WORKDIR.  Run two checkouts in same-named empty work
directories and ``diff`` the two manifests.

The ops: ``build``, ``verify --kind pure-superchannel`` and ``decompose
--kind direct-sum`` on switch d=2/3/4/5 and ``d3d``; ``verify --kind
pure-superchannel --dims`` on the switch-2 file with its own dims (exit 0)
and with a conflicting future dim (exit 2); ``verify`` and
``decompose`` on the three ``tests/fixtures``; ``assemble`` of the switch-3
blocks; ``build random-comb`` on a 3-slot chain, then ``verify --kind
pure-comb`` on it and on the switch-3 file read as an A-first chain (exit
1: the one sparse input whose signalling check fails), and ``decompose
--kind staircase`` on the comb; ``build random-comb`` on the two-slot chain
P,AI,AO,BI,BO,F and ``decompose --kind direct-sum`` of it, the one-block
path, which also writes the block's staircase; ``verify --kind
comb-choi`` on the ``tests/fixtures/comb-choi.json`` Choi operator with its
chain ``--order`` (exit 0) and with its two slots swapped (exit 1); then
``build random-unitary --dims`` and ``verify --kind pure-superchannel`` of
it (exit 1); ``verify --kind pure-superchannel`` of a copy of
``tests/fixtures/d3d.json`` written with ``json.dumps(..., indent=1)``, the
one op whose load parses the whole document; then ``build random-comb`` on
the chain P=2,AI=2,AO=3,BI=3,BO=2,F=2 and ``verify --kind
pure-superchannel`` of it (exit 0), the one input in class with d_AO !=
d_BO and no zero row; last, ``build`` and ``verify --kind
pure-superchannel`` of switch d=6, a 2.2 MB file of 46 save blocks and
five load chunks, nearly all zero pairs; then ``verify --kind comb-choi``
of the Choi operator of the seeded comb on the chain
H0=4,H1=2,H2=2,H3=2,H4=2,H5=4 (D=256), which the tool writes with the
library stored in chain order, not the layout's input-then-output order:
with its chain ``--order`` (exit 0) and with its two slots swapped
(exit 1), the one comb-Choi tower on unequal dims.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402  (BLAS reads its thread count at import)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from purecomb import cli  # noqa: E402
from purecomb.builders import random_pure_comb  # noqa: E402
from purecomb.choi import choi_of_unitary  # noqa: E402
from purecomb.io import save_matrix  # noqa: E402
from purecomb.layouts import SlotLayout  # noqa: E402
from purecomb.spaces import permute_systems  # noqa: E402

FIXTURES = ("switch", "d3d", "random-unitary")
CHOI_FIXTURE = "comb-choi"
CHOI_ORDERS = ("P,AI,AO,BI,BO,F", "P,BI,BO,AI,AO,F")
COMB_CHAIN = "H0=8,H1=2,H2=4,H3=4,H4=4,H5=4,H6=2,H7=8"
SWITCH_CHAIN = "P,AI,AO,BI,BO,F"
SWITCH2_DIMS = ("P=4,AI=2,AO=2,BI=2,BO=2,F=4", "P=4,AI=2,AO=2,BI=2,BO=2,F=2")
TWO_SLOT_CHAIN = "P=2,AI=2,AO=2,BI=2,BO=2,F=2"
UNEQUAL_CHAIN = "P=2,AI=2,AO=3,BI=3,BO=2,F=2"
INDENTED = "indented-d3d.json"
CHOI_CHAIN = "H0=4,H1=2,H2=2,H3=2,H4=2,H5=4"
CHAIN_CHOI = "chain-choi.json"


def two_slot_ops(tag: str, path: str) -> list[list[str]]:
    return [["verify", path, "--kind", "pure-superchannel", "--json"],
            ["decompose", path, "--kind", "direct-sum", "--out", f"dec-{tag}", "--json"]]


def op_list() -> list[list[str]]:
    ops = []
    for tag, build in [(f"switch{d}", ["switch", "--dim", str(d)]) for d in (2, 3, 4, 5)] + [
            ("d3d", ["d3d"])]:
        ops.append(["build", *build, "--out", f"{tag}.json", "--json"])
        ops += two_slot_ops(tag, f"{tag}.json")
    ops += [["verify", "switch2.json", "--kind", "pure-superchannel", "--dims", dims, "--json"]
            for dims in SWITCH2_DIMS]
    for name in FIXTURES:
        ops += two_slot_ops(f"fixture-{name}", f"fixture-{name}.json")
    ops.append(["assemble", "dec-switch3.block-ab.json", "dec-switch3.block-ba.json",
                "--out", "asm-switch3.json", "--json"])
    ops += [["build", "random-comb", "--chain", COMB_CHAIN, "--seed", "7", "--out", "comb.json",
             "--json"],
            ["verify", "comb.json", "--kind", "pure-comb", "--json"],
            ["verify", "switch3.json", "--kind", "pure-comb", "--order", SWITCH_CHAIN, "--json"],
            ["decompose", "comb.json", "--kind", "staircase", "--out", "dec-comb", "--json"],
            ["build", "random-comb", "--chain", TWO_SLOT_CHAIN, "--seed", "7", "--out",
             "comb-ab.json", "--json"],
            ["decompose", "comb-ab.json", "--kind", "direct-sum", "--out", "dec-comb-ab", "--json"]]
    ops += [["verify", f"fixture-{CHOI_FIXTURE}.json", "--kind", "comb-choi", "--order", order,
             "--json"] for order in CHOI_ORDERS]
    ops += [["build", "random-unitary", "--dims", "P=4,AI=2,AO=2,BI=2,BO=2,F=4", "--seed", "1",
             "--out", "rnd.json", "--json"],
            ["verify", "rnd.json", "--kind", "pure-superchannel", "--json"],
            ["verify", INDENTED, "--kind", "pure-superchannel", "--json"],
            ["build", "random-comb", "--chain", UNEQUAL_CHAIN, "--seed", "7", "--out",
             "comb-uneq.json", "--json"],
            ["verify", "comb-uneq.json", "--kind", "pure-superchannel", "--json"],
            ["build", "switch", "--dim", "6", "--out", "switch6.json", "--json"],
            ["verify", "switch6.json", "--kind", "pure-superchannel", "--json"]]
    ops += [["verify", CHAIN_CHOI, "--kind", "comb-choi", "--order", order, "--json"]
            for order in ("H0,H1,H2,H3,H4,H5", "H0,H3,H4,H1,H2,H5")]
    return ops


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_digests.py WORKDIR", file=sys.stderr)
        return 2
    work = Path(argv[0])
    work.mkdir(parents=True, exist_ok=True)
    inputs = {f"fixture-{name}.json" for name in (*FIXTURES, CHOI_FIXTURE)} | {INDENTED}
    for name in (*FIXTURES, CHOI_FIXTURE):
        shutil.copyfile(ROOT / "tests" / "fixtures" / f"{name}.json", work / f"fixture-{name}.json")
    d3d = json.loads((ROOT / "tests" / "fixtures" / "d3d.json").read_text())
    (work / INDENTED).write_text(json.dumps(d3d, indent=1))
    chain = SlotLayout.of(*(f.split("=") for f in CHOI_CHAIN.split(",")))
    w = choi_of_unitary(random_pure_comb(chain, 7)).op
    save_matrix(work / CHAIN_CHOI, permute_systems(w, list(chain.labels)))
    os.chdir(work)
    ops = []
    for argv_i in op_list():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv_i)
        ops.append({"argv": argv_i, "exit": code, "stdout_sha256": sha256(out.getvalue().encode())})
    files = {p.name: sha256(p.read_bytes()) for p in sorted(Path(".").iterdir())
             if p.is_file() and p.name not in inputs}
    print(json.dumps({"ops": ops, "files": files}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

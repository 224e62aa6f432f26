"""The byte-comparison tools run end to end: ``tools/cli_digests.py`` gives
one manifest wherever its work directory sits, every matrix file it writes
has the bytes of one ``json.dump``, and ``tools/matrix_diff.py``
reports exactly the matrix files whose entries moved."""

import json
import subprocess
import sys
from pathlib import Path

from helpers import reference_matrix_text
from purecomb.io import load_matrix, save_matrix
from purecomb.spaces import LinOp

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name, *args):
    run = subprocess.run([sys.executable, str(TOOLS / name), *map(str, args)],
                         capture_output=True, text=True, check=True)
    return run.stdout


def test_digests_and_matrix_diff(tmp_path):
    work_a, work_b = tmp_path / "a" / "work", tmp_path / "b" / "work"
    manifest = _tool("cli_digests.py", work_a)
    assert _tool("cli_digests.py", work_b) == manifest

    parsed = json.loads(manifest)
    assert len(parsed["ops"]) == 37
    failing = [op["argv"][:2] for op in parsed["ops"] if op["exit"] != 0]
    assert failing == [["verify", "fixture-random-unitary.json"],
                       ["decompose", "fixture-random-unitary.json"],
                       ["verify", "switch3.json"],
                       ["verify", "fixture-comb-choi.json"],
                       ["verify", "rnd.json"]]
    assert [op["exit"] for op in parsed["ops"][-9:]] == [0, 1, 0, 1, 0, 0, 0, 0, 0]
    assert sum(op["exit"] == 0 for op in parsed["ops"]) == 32
    assert len(parsed["files"]) == 43
    # every matrix file the CLI wrote has the bytes of one json.dump
    written = [name for name in parsed["files"] if not name.endswith(".report.json")]
    assert len(written) == 33
    for name in written:
        text = (work_a / name).read_bytes()
        assert text == reference_matrix_text(load_matrix(work_a / name)).encode(), name

    assert _tool("matrix_diff.py", work_a, work_b) == ""
    op = load_matrix(work_b / "switch2.json")
    data = op.data.copy()
    data[0, 0] += 1e-9
    save_matrix(work_b / "switch2.json", LinOp(op.out_space, op.in_space, data))
    lines = _tool("matrix_diff.py", work_a, work_b).splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("switch2.json") and "max-abs 1.000e-09" in lines[0]

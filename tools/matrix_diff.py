"""Entrywise distances between the matrix files of two work directories.

    python3 tools/matrix_diff.py DIR_A DIR_B

For every ``*.json`` name present in both directories whose bytes differ
and which loads as a matrix file on both sides, prints one line: the name,
the max-abs entrywise difference and the ``phase_distance`` (the max-abs
difference after the best global phase).  A pair on different factor lists
is reported as such.  Other JSON files (reports, manifests) are skipped.
Uses ``purecomb`` from the ``src/`` of the checkout this file is in.  Pair
it with ``tools/cli_digests.py``: the digests say which files changed, this
says by how much.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from purecomb.io import load_matrix  # noqa: E402
from purecomb.spaces import phase_distance  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/matrix_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    names = sorted({p.name for p in dir_a.glob("*.json")} & {p.name for p in dir_b.glob("*.json")})
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if path_a.read_bytes() == path_b.read_bytes():
            continue
        try:
            a, b = load_matrix(path_a), load_matrix(path_b)
        except ValueError:  # not a matrix file
            continue
        if (a.out_space, a.in_space) != (b.out_space, b.in_space):
            print(f"{name}  factors differ: {a.in_space.factors} -> {a.out_space.factors} vs "
                  f"{b.in_space.factors} -> {b.out_space.factors}")
            continue
        print(f"{name}  max-abs {np.abs(a.data - b.data).max():.3e}  "
              f"phase {phase_distance(a, b):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

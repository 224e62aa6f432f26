"""Text matrix-file format: JSON with labeled factor lists and row-major
[re, im] pairs.

Doubles are serialized through Python's shortest round-trip repr, so a
save/load cycle is bit exact.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .spaces import LinOp, Spaces

FORMAT_VERSION = 1
# numbers are checked by exact type: JSON true/false load as bool, a subclass of int
_REAL = (int, float)


class MatrixFileError(ValueError):
    """Malformed or inconsistent matrix file."""


def save_matrix(path, op: LinOp) -> None:
    data = []
    for row in op.data:
        for z in row:
            data.append([float(z.real), float(z.imag)])
    doc = {
        "version": FORMAT_VERSION,
        "in_dims": [[lab, d] for lab, d in op.in_space.factors],
        "out_dims": [[lab, d] for lab, d in op.out_space.factors],
        "data": data,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _parse_dims(raw, field: str) -> Spaces:
    if not isinstance(raw, list):
        raise MatrixFileError(f"{field} must be a list")
    factors = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
            raise MatrixFileError(f"bad factor entry in {field}: {item!r}")
        lab, d = item
        if type(d) is not int or d < 1:
            raise MatrixFileError(f"bad dimension in {field}: {item!r}")
        factors.append((lab, d))
    try:
        return Spaces(tuple(factors))
    except ValueError as exc:
        raise MatrixFileError(str(exc)) from exc


def load_matrix(path) -> LinOp:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        raise MatrixFileError(f"unsupported or missing format version in {path}")
    in_space = _parse_dims(doc.get("in_dims"), "in_dims")
    out_space = _parse_dims(doc.get("out_dims"), "out_dims")
    raw = doc.get("data")
    if not isinstance(raw, list) or len(raw) != in_space.dim * out_space.dim:
        raise MatrixFileError(
            f"data length {len(raw) if isinstance(raw, list) else '?'} does not match "
            f"{out_space.dim} x {in_space.dim}"
        )
    flat = np.empty(len(raw), dtype=np.complex128)
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise MatrixFileError(f"bad data entry at index {i}: {pair!r}")
        re, im = pair
        if not (type(re) in _REAL and type(im) in _REAL and math.isfinite(re) and math.isfinite(im)):
            raise MatrixFileError(f"non-numeric or non-finite data entry at index {i}: {pair!r}")
        flat[i] = complex(re, im)
    return LinOp(out_space, in_space, flat.reshape(out_space.dim, in_space.dim))


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()

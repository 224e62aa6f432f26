"""Text matrix-file format: JSON with labeled factor lists and row-major
[re, im] pairs.

Doubles are serialized through Python's shortest round-trip repr, so a
save/load cycle is bit exact.

A save encodes the header with ``json.dumps`` and writes the data in
fixed-size blocks of pairs, each block one ``%`` format of a
``"[%r, %r]"``-per-pair template, joined by ``", "``, over a slice of the
matrix viewed as a flat array of doubles.  ``%r`` of a finite float is
``float.__repr__``, which is what the JSON encoder writes, so the bytes are
those of a single ``json.dump`` of the whole document with one
``[float(re), float(im)]`` list per entry, followed by a newline.  Memory
beyond the matrix is bounded by one block.  A save rejects NaN and
infinite entries with ``MatrixFileError`` before the file is opened, naming
the first bad entry: no load would accept them.

A load parses with ``json.load`` and checks the data by whole-list passes.
It rejects, with ``MatrixFileError``: unreadable or non-JSON files; a
``version`` that is not the integer ``FORMAT_VERSION`` (``true`` and ``1.0``
are rejected); dimension entries that are not ``[str, int >= 1]`` (booleans
excluded) or repeat a label; a data list whose length is not the product of
the dimensions; and any data entry that is not a list of two numbers, each
a JSON integer or float (not a boolean) that is finite as a double, so
NaN, infinities and integers beyond the double range are rejected.  The
message names the first bad data entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain

import numpy as np

from .spaces import LinOp, Spaces

FORMAT_VERSION = 1
# numbers are checked by exact type: JSON true/false load as bool, a subclass of int
_REAL = frozenset((int, float))
# [re, im] pairs per encoded block of a save
_BLOCK_PAIRS = 1 << 12


class MatrixFileError(ValueError):
    """Malformed or inconsistent matrix file."""


def save_matrix(path, op: LinOp) -> None:
    # LinOp data is C-contiguous complex128, so this is a view
    flat = op.data.reshape(-1).view(np.float64)
    # %r would spell these nan/inf, which no load accepts; checked before
    # the file is opened, so a rejected save leaves the path untouched
    if not np.isfinite([flat.min(), flat.max()]).all():
        i = int(np.flatnonzero(~np.isfinite(flat))[0]) // 2
        raise MatrixFileError(
            f"non-finite data entry at index {i}: {flat[2 * i:2 * i + 2].tolist()!r}")
    head = json.dumps({
        "version": FORMAT_VERSION,
        "in_dims": [[lab, d] for lab, d in op.in_space.factors],
        "out_dims": [[lab, d] for lab, d in op.out_space.factors],
    })
    template = ", ".join(["[%r, %r]"] * min(flat.size // 2, _BLOCK_PAIRS))
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "data": [')
        for start in range(0, flat.size, 2 * _BLOCK_PAIRS):
            values = tuple(flat[start:start + 2 * _BLOCK_PAIRS].tolist())
            if start:
                fh.write(", ")
                if len(values) < 2 * _BLOCK_PAIRS:  # the short last block
                    template = ", ".join(["[%r, %r]"] * (len(values) // 2))
            fh.write(template % values)
        fh.write("]}\n")


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


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the double range
        return False


def _parse_data(raw: list) -> np.ndarray:
    """The data pairs as a flat complex array.  Checked by whole-list
    passes; when one fails, a scan names the first bad entry."""
    if (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}
            and set(map(type, chain.from_iterable(raw))) <= _REAL):
        try:
            flat = np.fromiter(chain.from_iterable(raw), np.float64, count=2 * len(raw))
        except OverflowError:
            pass
        else:
            # NaN propagates through min/max, and no full-size mask is formed
            if np.isfinite([flat.min(), flat.max()]).all():
                return flat.view(np.complex128)
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise MatrixFileError(f"bad data entry at index {i}: {pair!r}")
        if not all(type(x) in _REAL and _finite(x) for x in pair):
            raise MatrixFileError(f"non-numeric or non-finite data entry at index {i}: {pair!r}")
    raise AssertionError("the whole-list checks failed on valid data")


def load_matrix(path) -> LinOp:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    if not (isinstance(doc, dict) and type(doc.get("version")) is int
            and doc["version"] == FORMAT_VERSION):
        raise MatrixFileError(f"unsupported or missing format version in {path}")
    in_space = _parse_dims(doc.get("in_dims"), "in_dims")
    out_space = _parse_dims(doc.get("out_dims"), "out_dims")
    raw = doc.get("data")
    if not isinstance(raw, list) or len(raw) != in_space.dim * out_space.dim:
        raise MatrixFileError(
            f"data length {len(raw) if isinstance(raw, list) else '?'} does not match "
            f"{out_space.dim} x {in_space.dim}"
        )
    flat = _parse_data(raw)
    return LinOp(out_space, in_space, flat.reshape(out_space.dim, in_space.dim))


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()

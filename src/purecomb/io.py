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

A load reads a file in the saved layout in chunks, each the whole pairs
that one fixed-size read completes (a few thousand to a few tens of
thousands).  With the number characters deleted, a chunk must read exactly
``[, ], [, ], ... [, ]``; with each ``"], ["`` separator replaced by
``", "`` it is one flat JSON list, parsed by ``json.loads`` and copied into
one preallocated array.  JSON stays the one number grammar, and the parser
sees the file's own number tokens in order, so the values are bit-identical
to those of a parse of the whole document.  Memory beyond the matrix is
bounded by one chunk.  Files are decoded as UTF-8 (RFC 8259).  Any other
valid JSON, such as other whitespace or key order, and any file that fails
a chunk check, is parsed whole with ``json.load`` and checked by whole-list
passes, which also name what is wrong with a rejected file.

A load rejects, with ``MatrixFileError``: unreadable, non-UTF-8 or non-JSON
files; a ``version`` that is not the integer ``FORMAT_VERSION`` (``true``
and ``1.0`` are rejected); dimension entries that are not
``[str, int >= 1]`` (booleans excluded) or repeat a label; a data list
whose length is not the product of the dimensions; and any data entry that
is not a list of two numbers, each a JSON integer or float (not a boolean)
that is finite as a double, so NaN, infinities and integers beyond the
double range are rejected.  The message names the first bad data entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from io import TextIOWrapper
from itertools import chain

import numpy as np

from .spaces import LinOp, Spaces

FORMAT_VERSION = 1
# numbers are checked by exact type: JSON true/false load as bool, a subclass of int
_REAL = frozenset((int, float))
# [re, im] pairs per encoded block of a save
_BLOCK_PAIRS = 1 << 12
# bytes per read of a load; a chunk is the whole pairs a read completes
_CHUNK_BYTES = 1 << 19
# where save_matrix's header ends and its data begins
_DATA_KEY = b', "data": ['
# the bytes a JSON number is spelled with
_NUMBER_BYTES = b"0123456789.+-eE"


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


def _check_header(doc, path) -> tuple[Spaces, Spaces]:
    """The input and output spaces of a parsed document."""
    if not (isinstance(doc, dict) and type(doc.get("version")) is int
            and doc["version"] == FORMAT_VERSION):
        raise MatrixFileError(f"unsupported or missing format version in {path}")
    return _parse_dims(doc.get("in_dims"), "in_dims"), _parse_dims(doc.get("out_dims"), "out_dims")


def _chunk_values(chunk: bytes) -> list | None:
    """The 2k numbers of k saved pairs ``[a, b], [c, d], ...``, or None
    unless the chunk has exactly that layout and holds only JSON numbers."""
    shape = chunk.translate(None, _NUMBER_BYTES)
    k = (len(shape) + 2) // 6
    if shape != b"[, ], " * (k - 1) + b"[, ]":
        return None
    # only whole separators are replaced: a number touching a bracket, as in
    # "[1.0, 2.0]3, [" or ", 1[, 2.0]", leaves a bracket the parse rejects
    try:
        values = json.loads(chunk.replace(b"], [", b", "))
    except ValueError:
        return None
    if len(values) != 2 * k or not set(map(type, values)) <= _REAL:
        return None
    return values


def _load_saved(fh, path) -> LinOp | None:
    """The matrix of a file in save_matrix's layout, read chunk by chunk;
    None for any other text, so that the whole-document parse decides."""
    data = fh.read(_CHUNK_BYTES)
    cut = data.find(_DATA_KEY)
    if cut < 0:
        return None
    try:
        head = json.loads((data[:cut] + b"}").decode("utf-8"))
        if not isinstance(head, dict) or "data" in head:
            return None
        in_space, out_space = _check_header(head, path)
    except ValueError:  # undecodable or non-JSON header, or a failed check
        return None
    n = in_space.dim * out_space.dim
    # a pair takes at least 8 bytes, "[0, 0], ": a header claiming more
    # pairs than the file holds must not size the array
    if 8 * n > os.fstat(fh.fileno()).st_size:
        return None
    flat = np.empty(2 * n)
    pos = 0
    data = data[cut + len(_DATA_KEY):]
    while True:
        more = fh.read(_CHUNK_BYTES)
        data += more
        if more:
            end = data.rfind(b"], [") + 1
            if not end:
                continue
        elif data.endswith(b"]]}\n"):
            end = len(data) - 3
        else:
            return None
        values = _chunk_values(data[:end])
        if values is None or pos + len(values) > flat.size:
            return None
        try:
            flat[pos:pos + len(values)] = np.fromiter(values, np.float64, count=len(values))
        except OverflowError:  # an integer beyond the double range
            return None
        pos += len(values)
        if not more:
            break
        data = data[end + 2:]
    # NaN propagates through min/max, and no full-size mask is formed
    if pos != flat.size or not np.isfinite([flat.min(), flat.max()]).all():
        return None
    flat = flat.view(np.complex128)
    return LinOp(out_space, in_space, flat.reshape(out_space.dim, in_space.dim))


def load_matrix(path) -> LinOp:
    try:
        with open(path, "rb") as fh:
            if fh.seekable():
                op = _load_saved(fh, path)
                if op is not None:
                    return op
                fh.seek(0)
            doc = json.load(TextIOWrapper(fh, encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    in_space, out_space = _check_header(doc, path)
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

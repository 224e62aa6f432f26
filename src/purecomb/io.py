"""Text matrix-file format: JSON with labeled factor lists and row-major
[re, im] pairs.

Doubles are serialized through Python's shortest round-trip repr, so a
save/load cycle is bit exact.

A save encodes the header with ``json.dumps`` and writes the data in
fixed-size blocks of pairs over the matrix viewed as a flat array of
doubles, joined by ``", "``.  Each block is formatted one of two ways, both
spelling every double exactly as ``float.__repr__``, which is what the JSON
encoder writes, so the bytes are those of a single ``json.dump`` of the
whole document with one ``[float(re), float(im)]`` list per entry,
followed by a newline:

- ``%r``: one ``%`` format of a template with ``"[%r, %r]"`` per pair,
  except that a pair of two +0.0 (all 128 bits zero) is the literal
  ``[0.0, 0.0]`` in it, so only the other values are formatted; like the
  kernel's text, the template is fixed-width rows and one deletion of NUL
  bytes;
- the kernel, ``_repr_pairs``: the shortest round-trip digits of the whole
  block at once by Schubfach on 64-bit integer lanes, laid out in
  fixed-width rows that one deletion of NUL bytes turns into the text.

The kernel has a fixed cost per block and a flat cost per value, while
``%r`` is several times cheaper on values with no low significand bits set
(0.0, 1.0, 0.5) than on full-precision ones; ``_kernel_wins`` picks per
block from its size and its count of full-precision values, so exact 0/1
operators stay on ``%r``.  The file is written in binary and the save
returns the sha256 hex digest of the bytes written.  Memory beyond the
matrix is bounded by one block.  A save rejects NaN and infinite entries
with ``MatrixFileError`` before the file is opened, naming the first bad
entry: no load would accept them.

A load reads a file in the saved layout in chunks, each the whole pairs
that one fixed-size read completes (a few thousand to a few tens of
thousands).  With the number characters deleted, a chunk must read exactly
``[, ], [, ], ... [, ]``; with each ``"], ["`` separator replaced by
``", "`` it is one flat JSON list, parsed by ``json.loads`` and copied into
one preallocated array.  A chunk whose pairs are short on average, an O(1)
test of its length against its pair count, may hold zero pairs: each pair
whose span, separator included, is exactly ``[0.0, 0.0], `` is dropped
before the parse and written as 0.0, so files of exact 0/1 operators are
mostly never parsed; a chunk of full-precision pairs is not searched.  JSON
stays the one number grammar, and the parser sees the file's own number
tokens in order, so the values are bit-identical to those of a parse of the
whole document.  Memory beyond the matrix is
bounded by one chunk.  Files are decoded as UTF-8 (RFC 8259).  Any other
valid JSON, such as other whitespace or key order, and any file that fails
a chunk check, is parsed whole with ``json.load`` and checked entry by
entry, which also names what is wrong with a rejected file.

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

import functools
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
# a pair of two +0.0 and its separator, as saved
_ZERO_PAIR = b"[0.0, 0.0], "
# the %r template's row of a pair: the zero pair's text, or two %r padded
# with NUL bytes to the same width (rows 0 and 1)
_TEMPLATE_ROWS = np.frombuffer(_ZERO_PAIR + b"[%r, %r], \0\0", np.uint8).reshape(2, -1)
# _ZERO_PAIR as a little-endian 8-byte and 4-byte word
_ZERO_HEAD = np.uint64(int.from_bytes(_ZERO_PAIR[:8], "little"))
_ZERO_TAIL = np.uint32(int.from_bytes(_ZERO_PAIR[8:], "little"))
# a chunk whose pairs average fewer bytes than this is searched for zero
# pairs: on random operators with 20 to 60 % zero pairs among
# full-precision ones, the search paid off from 40 % zero pairs, an
# average of about 31 bytes per pair
_SHORT_PAIR_BYTES = 30


class MatrixFileError(ValueError):
    """Malformed or inconsistent matrix file."""


def save_matrix(path, op: LinOp) -> str:
    """Write ``op`` to ``path``; return the sha256 hex digest of the bytes
    written."""
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
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def write(text: bytes) -> None:
            digest.update(text)
            fh.write(text)

        write(head[:-1].encode() + _DATA_KEY)
        for start in range(0, flat.size, 2 * _BLOCK_PAIRS):
            block = flat[start:start + 2 * _BLOCK_PAIRS]
            if start:
                write(b", ")
            if _kernel_wins(block):
                write(_repr_pairs(block))
                continue
            pairs = block.reshape(-1, 2)
            # a pair of two +0.0 is the one with all 128 bits zero
            bits = pairs.view(np.uint64)
            live = np.logical_or(bits[:, 0], bits[:, 1])
            template = np.take(_TEMPLATE_ROWS, live, axis=0).tobytes().translate(None, b"\0")
            write((template[:-2].decode() % tuple(pairs[live].ravel().tolist())).encode())
        write(b"]}\n")
    return digest.hexdigest()


def _kernel_wins(block: np.ndarray) -> bool:
    """Whether ``_repr_pairs`` formats this block faster than ``%r``: the
    kernel costs a fixed amount per call and the same per value, ``%r``
    costs several times more on a value with low significand bits set
    than on one without, such as 0.0, 1.0 or 0.5."""
    long = np.count_nonzero(block.view(np.uint64) & _LOW_BITS)
    return long > _KERNEL_FIXED + _KERNEL_PER_VALUE * block.size


# ------------------------------------------------ shortest round-trip digits
#
# _repr_pairs computes repr(x) for a whole block of doubles at once.  The
# digits are those of Giulietti's Schubfach ("The Schubfach way to render
# doubles", 2020; the algorithm of Java's Double.toString since JDK 19) on
# 64-bit lanes: with v = c 2^q, the decimal interval that rounds to v is
# scaled by a 126-bit power of ten g (10^-k rounded up), and round-to-odd
# products of g with 4c and the interval's ends decide the shortest decimal
# in it, or the one nearest v if there are two.  Unlike Java, Python keeps
# one-digit results (repr(5e-324) is '5e-324'), so the one-digit-shorter
# candidate is tried whenever s >= 10 and there is no rescale of tiny c.
#
# The text follows repr's layout: positional when the decimal point
# position decpt is in -3..16 (with ".0" on integral values), otherwise
# d[.ddd]e+XX.  Each value is laid out in a fixed row of six 8-byte words,
#   [ "[" or NUL, sign, "0.000", d0 ] [ ".d.d.d.d" ] x 4 [ "e+XXX", separator ]
# with a dot slot before every later digit, gathered from one word table;
# a per-layout mask (decpt, digit count) clears the slots the value does
# not use, and deleting the NUL bytes of the block leaves the text.

# a value with any of these significand bits set is slow for %r
_LOW_BITS = np.uint64(0xFFFFFFFF)
# the kernel wins on a block with more than _KERNEL_FIXED + _KERNEL_PER_VALUE
# x (values in the block) such values: the crossover of best-of-N timings
# of both paths on blocks of 64 to 8192 values mixing full-precision values
# with 0 and +-1, in which the kernel cost about 0.29 ms per call plus
# 0.59 us per value and %r 1.36 us per full-precision value and 0.33 us per
# short one
_KERNEL_FIXED = 280
_KERNEL_PER_VALUE = 0.25

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
# the range of k = floor(log10(2^q)) over all doubles, subnormals included,
# and the largest exponent repr writes
_K_MIN, _K_MAX, _E_MAX = -324, 292, 308
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# word-table offsets: 10^4 digit chunks, then 40 first words, then exponents
_FIRST_WORDS = 10000
_EXP_WORDS = _FIRST_WORDS + 40


def _flog10pow2(q, three_quarters=False):
    """floor(log10(2^q)), or floor(log10(3/4 2^q)) where ``three_quarters``
    is set; exact over the exponents of the doubles."""
    return (q * 661_971_961_083 - three_quarters * 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e)), exact for k_min <= -e <= k_max."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _kernel_tables():
    """The powers of ten, the word table and the layout masks; built on
    first use, so that importing the package stays cheap."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        # g = floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        if r >= 0:
            den <<= r
        else:
            num <<= -r
        g.append(num // den + 1)
    # g = g1 2^63 + g0, and the 32-bit halves of both
    g1 = np.array([x >> 63 for x in g], _U)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], _U)
    powers = np.stack([g1, g1 & _M32, g1 >> _U(32), g0 & _M32, g0 >> _U(32)])

    # ".d.d.d.d" per 4-digit chunk, and its count of trailing zero digits
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chunks = np.full((10000, 8), ord("."), np.uint8)
    chunks[:, 1::2] = digits + ord("0")
    trailing = (digits[:, ::-1] != 0).argmax(1)
    trailing[0] = 4
    # "[-0.000d" per (real or imaginary part, sign, first digit)
    first = np.empty((2, 2, 10, 8), np.uint8)
    first[...] = np.frombuffer(b"[-0.000", np.uint8).tolist() + [0]
    first[1, :, :, 0] = 0
    first[:, 0, :, 1] = 0
    first[..., 7] = np.arange(10) + ord("0")
    # "e+XX"/"e-XXX" per exponent -324..308, then the separator: ", " after
    # the real part, "], " after the imaginary part
    e = np.arange(_K_MIN, _E_MAX + 1)
    three = np.stack([abs(e) // 100, abs(e) // 10 % 10, abs(e) % 10], 1) + ord("0")
    exps = np.zeros((2, e.size, 8), np.uint8)
    exps[..., 0] = ord("e")
    exps[..., 1] = np.where(e < 0, ord("-"), ord("+"))
    exps[..., 2:5] = np.where(abs(e)[:, None] < 100, np.roll(three, -1, 1) * [1, 1, 0], three)
    exps[0, :, 5:7] = np.frombuffer(b", ", np.uint8)
    exps[1, :, 5:8] = np.frombuffer(b"], ", np.uint8)
    words = np.concatenate([chunks, first.reshape(-1, 8), exps.reshape(-1, 8)]).view(_U)

    # keep-masks of the 48 row bytes: positional layouts by (decpt, digit
    # count) for decpt -3..16, then exponent layouts by digit count
    col = np.arange(48)
    digit = (col >= 7) & (col < 40) & (col % 2 == 1)
    dot = (col >= 8) & (col < 40) & (col % 2 == 0)
    idx = (col - 7) // 2  # the digit in a digit slot, or the one before a dot slot
    decpt = np.arange(-3, 17)[:, None, None]
    n = np.arange(1, 18)[None, :, None]
    shown = np.where(decpt <= 0, n, np.maximum(n, decpt + 1))
    positional = (((col == 2) | (col == 3)) & (decpt <= 0)
                  | (col >= 4) & (col <= 6) & (decpt <= 3 - col)
                  | digit & (idx < shown)
                  | dot & (decpt >= 1) & (idx == decpt - 1))
    n = n[0]
    exponent = digit & (idx < n) | dot & (idx == 0) & (n > 1) | (col >= 40)
    keep = np.concatenate([np.broadcast_to(positional, (20, 17, 48)).reshape(-1, 48), exponent])
    keep[:, :2] = keep[:, 45:] = True
    masks = np.where(keep, np.uint8(255), np.uint8(0)).view(_U)
    tables = powers, trailing, words.ravel(), masks
    for t in tables:
        t.flags.writeable = False
    return tables


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """The high 64 bits of a b, for a < 2^64 and b < 2^59 given in 32-bit
    halves."""
    hi_lo = a_hi * b_lo
    mid = (a_lo * b_lo >> _U(32)) + (hi_lo & _M32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """floor(g cp / 2^127) rounded to odd, for cp < 2^59."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _M32, cp >> _U(32)
    z = (g1 * cp >> _U(1)) + _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
    vbp = _mulhi(g1_lo, g1_hi, cp_lo, cp_hi) + (z >> _U(63))
    return vbp | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits, powers):
    """(f, k): the decimal f 10^k that repr gives each nonzero double."""
    t = bits & _U((1 << 52) - 1)
    bq = (bits >> _U(52)).view(np.int64) & 0x7FF
    normal = bq != 0
    c = t + normal * _U(1 << 52)
    q = bq + ~normal - 1075  # v = c 2^q
    # at c = 2^52 the spacing below v is half that above it
    irregular = (t == 0) & (bq > 1)
    k = _flog10pow2(q, irregular)
    h = (q + _flog2pow10(-k) + 2).view(_U)
    g = np.take(powers, k - _K_MIN, axis=1)
    out = c & _U(1)  # the ends round to v when c is even
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + out
    vbr = _rop(g, (cb + _U(2)) << h) - out
    s = vb >> _U(2)
    # one digit shorter: exactly one of s', s' + 10 (s' = 10 floor(s/10))
    # in the rounding interval
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    shorter = (s >= _U(10)) & (upin != wpin)
    # else s or s + 1: the one in the interval, or the nearer, ties to even
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    nearer = (vb < mid) | (vb == mid) & ((s & _U(1)) == 0)
    pick_s = uin & ~win | (uin == win) & nearer
    f = np.where(shorter, sp10 + wpin * _U(10), s + ~pick_s)
    return f.view(np.int64), k


def _repr_pairs(block: np.ndarray) -> bytes:
    """``", ".join("[%r, %r]" % pair ...)`` of a flat block of finite
    doubles, one pair per two values."""
    _, _, words, masks = tables = _kernel_tables()
    index, layout = _row_words(block, tables)
    # the row-sized arrays are freed as soon as the next one exists
    rows = np.take(words, index)
    del index
    rows &= np.take(masks, layout, axis=0)
    text = rows.tobytes()
    del rows
    return text.translate(None, b"\0")[:-2]


def _row_words(block, tables):
    """Per value of ``block``: the word-table indices of its six row words,
    and its layout-mask index."""
    powers, trailing, _, _ = tables
    bits = block.view(_U)
    f, k = _shortest(bits, powers)
    zero = (bits << _U(1)) == 0
    length = np.searchsorted(_POW10, f, side="right")
    decpt = k + length
    decpt[zero] = 1
    f17 = f * _POW10[17 - length]  # the 17 digits d0 c1 c2 c3 c4
    f17[zero] = 0
    d0 = f17 // 10 ** 16
    rest = f17 - d0 * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    c1 = hi // 10000
    c2 = hi - c1 * 10000
    c3 = lo // 10000
    c4 = lo - c3 * 10000
    zeros = np.take(trailing, c4) + (c4 == 0) * (np.take(trailing, c3) + (c3 == 0) * (
        np.take(trailing, c2) + (c2 == 0) * np.take(trailing, c1)))
    # with n = 17 - zeros digits: positional mask (decpt + 3) 17 + n - 1, or
    # exponent mask 340 + n - 1
    layout = np.where((decpt <= -4) | (decpt > 16), 356 - zeros, decpt * 17 + 67 - zeros)
    part = np.arange(block.size) & 1  # 0 for a real part, 1 for an imaginary one
    first = part * 20 + (bits >> _U(63)).view(np.int64) * 10 + d0 + _FIRST_WORDS
    exp = part * (_E_MAX - _K_MIN + 1) + decpt + (_EXP_WORDS - _K_MIN - 1)
    return np.stack([first, c1, c2, c3, c4, exp], axis=1), layout


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
    """The data pairs as a flat complex array, checked entry by entry: the
    error names the first bad entry."""
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise MatrixFileError(f"bad data entry at index {i}: {pair!r}")
        if not all(type(x) in _REAL and _finite(x) for x in pair):
            raise MatrixFileError(f"non-numeric or non-finite data entry at index {i}: {pair!r}")
    return np.fromiter(chain.from_iterable(raw), np.float64, count=2 * len(raw)).view(np.complex128)


def _check_header(doc, path) -> tuple[Spaces, Spaces]:
    """The input and output spaces of a parsed document."""
    if not (isinstance(doc, dict) and type(doc.get("version")) is int
            and doc["version"] == FORMAT_VERSION):
        raise MatrixFileError(f"unsupported or missing format version in {path}")
    return _parse_dims(doc.get("in_dims"), "in_dims"), _parse_dims(doc.get("out_dims"), "out_dims")


def _chunk_values(chunk: bytes) -> np.ndarray | None:
    """The 2k numbers of k saved pairs ``[a, b], [c, d], ...``, or None
    unless the chunk has exactly that layout and holds only JSON numbers."""
    shape = chunk.translate(None, _NUMBER_BYTES)
    k = (len(shape) + 2) // 6
    if shape != b"[, ], " * (k - 1) + b"[, ]":
        return None
    # O(1), so a chunk of long pairs is not searched; a chunk of one pair
    # has nothing to drop, as the last pair is always kept
    live = None
    if 1 < k and len(chunk) < _SHORT_PAIR_BYTES * k:
        chunk, live = _drop_zero_pairs(chunk)
    kept = k if live is None else np.count_nonzero(live)
    # only whole separators are replaced: a number touching a bracket, as in
    # "[1.0, 2.0]3, [" or ", 1[, 2.0]", leaves a bracket the parse rejects,
    # so what json.loads returns is a flat list of the number tokens, each
    # a run of _NUMBER_BYTES, which it returns as an int or a float
    try:
        values = json.loads(chunk.replace(b"], [", b", "))
        if len(values) != 2 * kept:
            return None
        values = np.fromiter(values, np.float64, count=2 * kept)
    except (ValueError, OverflowError):  # OverflowError: an integer beyond the double range
        return None
    if live is None:
        return values
    out = np.zeros(2 * k)
    out.reshape(k, 2)[live] = values.reshape(kept, 2)
    return out


def _drop_zero_pairs(chunk: bytes) -> tuple[bytes, np.ndarray | None]:
    """A chunk of checked layout without its zero pairs, and per pair
    whether it is kept; the chunk itself and None if it has none.

    A pair's span runs from its "[" to the next pair's, the first one's
    from the chunk's start, the last one's to the chunk's end; a pair is
    dropped only when its span is exactly ``_ZERO_PAIR``, separator
    included.  The last pair has no separator and is always kept, so the
    rest keeps the chunk's layout, and every number byte beside a bracket
    stays in a kept span, where the parse rejects it."""
    buf = np.frombuffer(chunk, np.uint8)
    starts = np.flatnonzero(buf == ord("["))
    starts[0] = 0
    sizes = np.diff(starts, append=len(chunk))
    zero = sizes == len(_ZERO_PAIR)
    # the 12 bytes of each such span, as an unaligned 8-byte and 4-byte word
    at = starts[zero]
    zero[zero] = ((np.ndarray(len(chunk) - 7, "<u8", chunk, strides=(1,))[at] == _ZERO_HEAD)
                  & (np.ndarray(len(chunk) - 3, "<u4", chunk, strides=(1,))[at + 8] == _ZERO_TAIL))
    if not zero.any():
        return chunk, None
    return buf[np.repeat(~zero, sizes)].tobytes(), ~zero


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
        flat[pos:pos + len(values)] = values
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

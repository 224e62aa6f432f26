import functools
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import reference_entry_error, reference_load_matrix, reference_matrix_text
from purecomb import io as pio
from purecomb.builders import build_d3d_example, build_quantum_switch
from purecomb.cli import main
from purecomb.io import MatrixFileError, file_digest, load_matrix, save_matrix
from purecomb.spaces import LinOp, Spaces

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
EDGE = (-0.0, 5e-324, -1.5e-300, 1e-7, 3.0, 1e16, 1e22)


def _edge_matrix():
    re = np.array(EDGE)
    return re[:, None] + 1j * re[None, ::-1]


def _golden_cases():
    rng = np.random.default_rng(3)
    big = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    cases = {
        "1x1": LinOp(Spaces.of(("Y", 1)), Spaces.of(("X", 1)), [[0.5 - 2j]]),
        "3x5-labels": LinOp(
            Spaces.of(("B", 3), ("wire-é", 1)),
            Spaces.of(("A\"q", 1), ("C", 5)),
            rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)),
        ),
        "edge-values": LinOp(Spaces.of(("E", 7)), Spaces.of(("F", 7)), _edge_matrix()),
        "300x300": LinOp(Spaces.of(("P", 300)), Spaces.of(("Q", 300)), big),
        "switch4": build_quantum_switch(4)[0],
        "all-minus-zero": LinOp(Spaces.of(("Z", 3)), Spaces.of(("W", 4)),
                                np.full((3, 4), complex(-0.0, -0.0))),
        "all-zero": LinOp(Spaces.of(("Z", 3)), Spaces.of(("W", 4)), np.zeros((3, 4))),
        # every sign of zero in either part, beside each other and other values
        "signed-zeros": LinOp(Spaces.of(("Z", 4)), Spaces.of(("W", 4)), np.array(
            [complex(a, b) for a in (0.0, -0.0, 1.0, 5e-324) for b in (0.0, -0.0, -2.5, 0.0)]
        ).reshape(4, 4)),
    }
    # a matrix of exactly one block, one pair past it, and exactly two blocks
    n = pio._BLOCK_PAIRS
    for name, rows, cols in [("block", n, 1), ("block+1", n + 1, 1), ("2-blocks", n, 2)]:
        data = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        cases[name] = LinOp(Spaces.of(("R", rows)), Spaces.of(("S", cols)), data)
    # one block mixing full-precision values with 0, 1, -1 and 0.5, in
    # shares on either side of the selection rule
    for name, share in [("mixed", 0.5), ("mostly-short", 0.02)]:
        data = rng.choice([0.0, 1.0, -1.0, 0.5], 2 * n)
        full = rng.random(2 * n) < share
        data[full] = rng.standard_normal(np.count_nonzero(full))
        cases[name] = LinOp(Spaces.of(("R", n)), Spaces.of(("S", 1)), data.view(np.complex128)[:, None])
    # mostly zero pairs, over a block seam off a row and a short last block
    data = rng.choice([1.0, -1.0, 0.5], (65, 130))
    data[:, ::7] = rng.standard_normal((65, 19))
    data.view(np.complex128)[rng.random((65, 65)) < 0.9] = 0
    cases["zero-heavy"] = LinOp(Spaces.of(("R", 65)), Spaces.of(("S", 65)), data.view(np.complex128))
    return cases


def _kernel_blocks(op):
    """Per save block of op: whether the shortest-repr kernel formats it."""
    flat = op.data.reshape(-1).view(np.float64)
    step = 2 * pio._BLOCK_PAIRS
    return [pio._kernel_wins(flat[s:s + step]) for s in range(0, flat.size, step)]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _refuse(*args, **kwargs):
    raise AssertionError("a saved file reached the whole-document parse")


@pytest.fixture
def saved_layout_only(monkeypatch):
    """Loads in which the whole-document parse and its checks raise."""
    monkeypatch.setattr(json, "load", _refuse)
    monkeypatch.setattr(pio, "_parse_data", _refuse)


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(_golden_cases()))
    def test_save_matches_single_dump_and_round_trips(self, name, tmp_path, saved_layout_only):
        op = _golden_cases()[name]
        path = tmp_path / "m.json"
        digest = save_matrix(path, op)
        assert path.read_bytes() == reference_matrix_text(op).encode()
        assert digest == file_digest(path)
        back = load_matrix(path)
        assert back.out_space == op.out_space and back.in_space == op.in_space
        assert np.array_equal(_bits(back.data), _bits(op.data))

    def test_large_case_spans_a_block_seam_off_a_row(self):
        n = _golden_cases()["300x300"].data.size
        assert pio._BLOCK_PAIRS < n and pio._BLOCK_PAIRS % 300 != 0

    def test_cases_lie_on_both_sides_of_the_selection_rule(self):
        cases = _golden_cases()
        for name in ("300x300", "block", "2-blocks", "mixed"):
            assert set(_kernel_blocks(cases[name])) == {True}, name
        for name in ("1x1", "edge-values", "switch4", "all-minus-zero", "mostly-short",
                     "all-zero", "signed-zeros", "zero-heavy"):
            assert set(_kernel_blocks(cases[name])) == {False}, name
        # a full block on the kernel, then a one-pair block on %r
        assert _kernel_blocks(cases["block+1"]) == [True, False]

    def test_zero_heavy_case_spans_a_block_seam_off_a_row(self):
        n = _golden_cases()["zero-heavy"].data.size
        assert pio._BLOCK_PAIRS < n < 2 * pio._BLOCK_PAIRS and pio._BLOCK_PAIRS % 65 != 0

    def test_exact_switch_and_d3d_files_stay_on_percent_r(self):
        for op in [build_quantum_switch(d)[0] for d in (2, 3, 4)] + [build_d3d_example()[0]]:
            assert not any(_kernel_blocks(op))

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(FIXTURES, "*.json"))))
    def test_fixture_resave_is_byte_identical(self, path, tmp_path, saved_layout_only):
        out = tmp_path / "resaved.json"
        save_matrix(out, load_matrix(path))
        with open(path, "rb") as fh:
            assert out.read_bytes() == fh.read()


class TestSaveRejectsNonFinite:
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_first_bad_entry_named_and_path_untouched(self, part, value, tmp_path):
        data = np.arange(12.0).reshape(4, 3) + 0.5j
        for i in (7, 9):  # row-major pair indices; the first is named
            if part == "real":
                data.reshape(-1)[i] = complex(value, 0.5)
            else:
                data.reshape(-1)[i] = complex(7.0, value)
        op = LinOp(Spaces.of(("Y", 4)), Spaces.of(("X", 3)), data)
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
        kept.write_text("kept")
        for path in (kept, fresh):
            with pytest.raises(MatrixFileError) as exc:
                save_matrix(path, op)
            pair = [float(data[2, 1].real), float(data[2, 1].imag)]
            assert str(exc.value) == f"non-finite data entry at index 7: {pair!r}"
        assert kept.read_text() == "kept"
        assert not fresh.exists()


def _repr_text(values):
    """The data text of a flat run of doubles as ``repr`` spells them: the
    repr of the list of pairs, without its outer brackets."""
    return repr(values.reshape(-1, 2).tolist())[1:-1].encode()


def _assert_kernel_matches_repr(values):
    values = np.ascontiguousarray(values, dtype=np.float64)
    step = 2 * pio._BLOCK_PAIRS
    for start in range(0, values.size, step):
        block = values[start:start + step]
        got, want = pio._repr_pairs(block), _repr_text(block)
        if got != want:
            pairs = zip(got.split(b"], ["), want.split(b"], ["))
            i, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
            pytest.fail(f"pair {start // 2 + i}: kernel {g!r}, repr {w!r}")


def _signed(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


class TestShortestRepr:
    """The save kernel against ``repr`` itself, value by value."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2020).integers(0, 2**64, 10**6, dtype=np.uint64)
        # NaN and infinity patterns (exponent all ones) become finite ones
        bits[(bits >> np.uint64(52) & np.uint64(0x7FF)) == 0x7FF] ^= np.uint64(1 << 62)
        _assert_kernel_matches_repr(bits.view(np.float64))

    def test_every_small_subnormal(self):
        # even t = 10..20 have one-digit reprs (5e-323 at t = 10) that a
        # two-digit guard, s >= 100, spells with two (4.9e-323)
        _assert_kernel_matches_repr(np.arange(2**16, dtype=np.uint64).view(np.float64))

    def test_every_power_of_two(self):
        # c = 2^52: the rounding interval is narrower below than above
        _assert_kernel_matches_repr(_signed(np.ldexp(1.0, np.arange(-1074, 1024))))

    def test_integers(self):
        _assert_kernel_matches_repr(np.arange(-50000, 50002, dtype=np.float64))

    def test_few_significant_bits(self):
        # few significant bits: where the exact decimal of v has one digit
        # more than s, it ends in 5 and v lies halfway between s and s + 1
        rng = np.random.default_rng(7)
        values = np.ldexp(rng.integers(1, 2**20, 10**5).astype(np.float64),
                          rng.integers(-80, 80, 10**5))
        _assert_kernel_matches_repr(_signed(values))

    def test_layout_edges(self):
        info = np.finfo(np.float64)
        edges = [0.0, info.max, info.tiny, info.smallest_subnormal]
        for x in (1e-4, 1e-5, 1e15, 1e16, 1e17):
            edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
        _assert_kernel_matches_repr(_signed(edges))

    def test_powers_of_ten_and_floor_logs_are_exact(self):
        g1, _, _, g0_lo, g0_hi = pio._kernel_tables()[0].tolist()
        for i, k in enumerate(range(pio._K_MIN, pio._K_MAX + 1)):
            g = (g1[i] << 63) + g0_lo[i] + (g0_hi[i] << 32)
            # g = floor(10^-k 2^-r) + 1, 2^125 <= g < 2^126
            assert 2**125 <= g < 2**126
            assert (g - 1) * 2 ** Fraction(pio._flog2pow10(-k) - 125) <= Fraction(10) ** -k
            assert Fraction(10) ** -k < g * 2 ** Fraction(pio._flog2pow10(-k) - 125)
        for e in range(-pio._K_MAX, 1 - pio._K_MIN):
            f = pio._flog2pow10(e)
            assert 2 ** Fraction(f) <= Fraction(10) ** e < 2 ** Fraction(f + 1)
        for q in range(-1074, 972):
            for scale, three_quarters in ((1, False), (Fraction(3, 4), True)):
                k = pio._flog10pow2(q, three_quarters)
                assert Fraction(10) ** k <= scale * 2 ** Fraction(q) < Fraction(10) ** (k + 1)

    def test_import_builds_no_kernel_table(self):
        src = os.path.dirname(os.path.dirname(pio.__file__))
        code = "import purecomb.cli, purecomb.io as m; print(m._kernel_tables.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "0"


def _write(tmp_path, entries, version="1"):
    path = tmp_path / "m.json"
    path.write_text(f'{{"version": {version}, "in_dims": [["X", 1]], '
                    f'"out_dims": [["Y", {len(entries)}]], "data": [{", ".join(entries)}]}}')
    return path


HUGE = "1" + "0" * 400  # an integer with no double value
# one bad data entry, as JSON text
BAD_ENTRIES = [
    "true", "null", '"1.0"', "[1.0]", "[1, 2, 3]", "[[1], 2]", "{}",
    "NaN", "Infinity", "-Infinity", HUGE,
    "[true, 0.0]", "[0.0, null]", '["1.0", 0.0]',
    "[NaN, 0.0]", "[0.0, Infinity]", "[-Infinity, 1]", f"[{HUGE}, 0.0]",
]


class TestRejection:
    @pytest.mark.parametrize("bad", BAD_ENTRIES, ids=lambda t: t.replace(HUGE, "10**400"))
    def test_single_bad_entry(self, bad, tmp_path):
        entries = ["[1.0, 0.0]"] * 12
        entries[7] = bad
        path = _write(tmp_path, entries)
        with pytest.raises(MatrixFileError) as exc:
            load_matrix(path)
        raw = json.loads(path.read_text())["data"]
        assert str(exc.value) == reference_entry_error(raw)
        assert "at index 7:" in str(exc.value)

    @pytest.mark.parametrize("first,second", [("null", "true"), ("[NaN, 0]", "[1.0]"),
                                              ("[1, 2, 3]", "[0.0, Infinity]")])
    def test_first_bad_entry_is_named(self, first, second, tmp_path):
        entries = ["[0, 1.5]"] * 12
        entries[5], entries[9] = first, second
        with pytest.raises(MatrixFileError) as exc:
            load_matrix(_write(tmp_path, entries))
        pair = json.loads(first)
        kind = ("bad" if not (isinstance(pair, list) and len(pair) == 2)
                else "non-numeric or non-finite")
        assert str(exc.value) == f"{kind} data entry at index 5: {pair!r}"

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"', "2", "null"])
    def test_version_must_be_the_integer(self, version, tmp_path):
        with pytest.raises(MatrixFileError, match="format version"):
            load_matrix(_write(tmp_path, ["[1.0, 0.0]"], version=version))

    def test_integer_entries_load_as_doubles(self, tmp_path):
        ints = [0, -0, 1, -7, 2**53 + 1, 10**300, -(2**1023)]
        entries = [f"[{a}, {b}]" for a, b in zip(ints, ints[::-1])]
        back = load_matrix(_write(tmp_path, entries))
        want = np.array([complex(a, b) for a, b in zip(ints, ints[::-1])])
        assert np.array_equal(_bits(back.data.reshape(-1)), _bits(want))


def _load_outcome(load, path):
    """('ok', spaces, data bits) of a load, or ('error', message)."""
    try:
        op = load(path)
    except MatrixFileError as exc:
        return "error", str(exc)
    return "ok", op.out_space, op.in_space, _bits(op.data).tolist()


def _corrupted(text, i, corruption):
    """A saved file's text with data entry i replaced, or, for a corruption
    that is not an entry, with the real part of entry i replaced."""
    head, key, tail = text.partition(pio._DATA_KEY.decode())
    assert key and tail.endswith("]]}\n")
    entries = ["[" + e + "]" for e in tail[1:-4].split("], [")]
    if corruption.startswith("[") or corruption.endswith("]"):
        entries[i] = corruption
    else:
        entries[i] = "[" + corruption + entries[i][entries[i].index(","):]
    return head + key + ", ".join(entries) + "]}\n"


# one corrupted token or bracket of a saved file
TOKENS = ["+1.0", ".5", "1.", "01", "1e400", "NaN", "true", '"1.0"', HUGE]
ENTRIES = ["[1.0]", "[1.0, 2.0, 3.0]", "[1.0, 2.0]3", "1[, 2.0]"]
# the same beside or inside a zero pair, which a load may leave unparsed
ZERO_ENTRIES = ["[0.0, 0.0]3", "1[0.0, 0.0]", "[0.0, 0.0, 0.0]", "[0.0]"]
# tokens save_matrix never writes that any JSON reader takes
VALID_TOKENS = ["-0", "7", "1E5", "-2.5e-300", "2E+1"]
# zero pairs save_matrix never writes that any JSON reader takes
VALID_ZERO_ENTRIES = ["[-0.0, 0.0]", "[0, 0]", "[0.0, 0.00]"]
CORRUPTIONS = TOKENS + ENTRIES + ZERO_ENTRIES + VALID_TOKENS + VALID_ZERO_ENTRIES


def _random_op(rows, cols, seed=11):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return LinOp(Spaces.of(("R", rows)), Spaces.of(("S", cols)), data)


def _sparse_op(rows, cols, seed=11):
    """A random operator with about two in three entries exactly zero."""
    op = _random_op(rows, cols, seed)
    data = op.data.copy()
    data[np.random.default_rng(seed).random((rows, cols)) < 2 / 3] = 0
    return LinOp(op.out_space, op.in_space, data)


def _dropped_pairs(path):
    """How many pairs a load of path, which must not reach the
    whole-document parse, leaves unparsed as zero pairs."""
    dropped = []

    def spy(chunk):
        rest, live = drop(chunk)
        dropped.append(0 if live is None else np.count_nonzero(~live))
        return rest, live

    drop = pio._drop_zero_pairs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pio, "_drop_zero_pairs", spy)
        patch.setattr(json, "load", _refuse)
        load_matrix(path)
    return sum(dropped)


# per kind of file: the operator, and the chunk size it is loaded at; the
# d=4 switch is 99 % zero pairs, and at 32 KiB its chunks hold thousands
SEAM_OPS = {"dense": (lambda: _random_op(160, 160), pio._CHUNK_BYTES),
            "switch4": (lambda: build_quantum_switch(4)[0], 1 << 15)}


@functools.cache
def _two_chunk_text(kind="dense"):
    """A saved file of more than one chunk at its kind's chunk size, and
    the index of the first pair of its second chunk."""
    build, chunk_bytes = SEAM_OPS[kind]
    text = reference_matrix_text(build())
    counts = []

    def spy(chunk):
        values = chunk_values(chunk)
        counts.append(len(values) // 2)
        return values

    chunk_values = pio._chunk_values
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        patch.setattr(pio, "_chunk_values", spy)
        patch.setattr(pio, "_CHUNK_BYTES", chunk_bytes)
        load_matrix(path)
    assert len(counts) > 1, "the matrix must span more than one chunk"
    return text, counts[0]


def _assert_every_index_matches(op, corruption, path):
    """Each data entry of op's file corrupted in turn loads as the whole
    parse does, at chunks of a few pairs: every index is first or last in
    a chunk or between."""
    text = reference_matrix_text(op)
    for i in range(op.data.size):
        path.write_text(_corrupted(text, i, corruption))
        want = _load_outcome(reference_load_matrix, path)
        assert _load_outcome(load_matrix, path) == want, i
        assert (want[0] == "ok") == (corruption in VALID_TOKENS + VALID_ZERO_ENTRIES)


class TestChunkedLoad:
    @pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda t: t.replace(HUGE, "10**400"))
    def test_every_index_matches_the_whole_parse(self, corruption, tmp_path, monkeypatch):
        monkeypatch.setattr(pio, "_CHUNK_BYTES", 256)
        _assert_every_index_matches(_random_op(7, 9), corruption, tmp_path / "m.json")

    @pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda t: t.replace(HUGE, "10**400"))
    def test_every_index_of_a_sparse_op_matches_the_whole_parse(self, corruption, tmp_path,
                                                                monkeypatch):
        monkeypatch.setattr(pio, "_CHUNK_BYTES", 256)
        op, path = _sparse_op(7, 9), tmp_path / "m.json"
        save_matrix(path, op)
        assert _dropped_pairs(path) > op.data.size // 2
        _assert_every_index_matches(op, corruption, path)

    @pytest.mark.parametrize("first,second", [("[1.0, 2.0, 3.0]", "[4.0]"),
                                              ("[1.0]", "[2.0, 3.0, 4.0]")])
    def test_adjacent_corruptions_that_keep_the_count(self, first, second, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(pio, "_CHUNK_BYTES", 256)
        op = _random_op(4, 5)
        text = reference_matrix_text(op)
        path = tmp_path / "m.json"
        for i in range(op.data.size - 1):
            path.write_text(_corrupted(_corrupted(text, i, first), i + 1, second))
            assert _load_outcome(load_matrix, path) == _load_outcome(reference_load_matrix, path)

    @pytest.mark.parametrize("corruption", TOKENS + ENTRIES,
                             ids=lambda t: t.replace(HUGE, "10**400"))
    def test_both_sides_of_a_full_size_seam(self, corruption, tmp_path):
        text, seam = _two_chunk_text()
        path = tmp_path / "m.json"
        for i in (seam - 1, seam):
            path.write_text(_corrupted(text, i, corruption))
            assert _load_outcome(load_matrix, path) == _load_outcome(reference_load_matrix, path)

    @pytest.mark.parametrize("corruption", TOKENS + ENTRIES + ZERO_ENTRIES,
                             ids=lambda t: t.replace(HUGE, "10**400"))
    def test_both_sides_of_a_seam_in_zero_pairs(self, corruption, tmp_path, monkeypatch):
        monkeypatch.setattr(pio, "_CHUNK_BYTES", SEAM_OPS["switch4"][1])
        text, seam = _two_chunk_text("switch4")
        path = tmp_path / "m.json"
        for i in range(seam - 2, seam + 2):
            path.write_text(_corrupted(text, i, corruption))
            assert _load_outcome(load_matrix, path) == _load_outcome(reference_load_matrix, path)

    def test_switch_seam_lies_in_dropped_zero_pairs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pio, "_CHUNK_BYTES", SEAM_OPS["switch4"][1])
        text, seam = _two_chunk_text("switch4")
        path = tmp_path / "m.json"
        path.write_text(text)
        flat = load_matrix(path).data.reshape(-1)
        assert seam > 1000 and not flat[seam - 2:seam + 2].any()
        assert _dropped_pairs(path) > 0.98 * flat.size

    @pytest.mark.parametrize("build", [lambda: build_quantum_switch(6)[0],
                                       lambda: _random_op(300, 300)], ids=["switch6", "dense300"])
    def test_each_chunk_is_the_pairs_of_one_read(self, build, tmp_path, monkeypatch,
                                                 saved_layout_only):
        # a chunk is what one read completes, with the pair the read before
        # it cut, the first read's data after the header included
        op, path = build(), tmp_path / "m.json"
        save_matrix(path, op)
        text = path.read_bytes()
        pair = 4 + max(map(len, text.partition(pio._DATA_KEY)[2].split(b"], [")))
        sizes = []

        def spy(chunk):
            sizes.append(len(chunk))
            return chunk_values(chunk)

        chunk_values = pio._chunk_values
        monkeypatch.setattr(pio, "_chunk_values", spy)
        back = load_matrix(path)
        assert np.array_equal(_bits(back.data), _bits(op.data))
        assert len(sizes) > 3
        assert max(sizes) <= pio._CHUNK_BYTES + pair

    def test_only_nonzero_pairs_reach_the_parser(self, tmp_path, monkeypatch):
        op = build_quantum_switch(4)[0]
        path = tmp_path / "m.json"
        save_matrix(path, op)
        parsed = []

        def spy(text, *args, **kwargs):
            if isinstance(text, bytes):  # a chunk; the header is parsed as str
                parsed.append(text)
            return loads(text, *args, **kwargs)

        loads = json.loads
        monkeypatch.setattr(json, "loads", spy)
        back = load_matrix(path)
        assert np.array_equal(_bits(back.data), _bits(op.data))
        tokens = re.findall(rb"[-+.0-9eE]+", b"".join(parsed))
        flat = op.data.reshape(-1)
        want = [repr(x).encode() for z in flat[flat != 0].tolist() for x in (z.real, z.imag)]
        assert tokens == want

    def test_header_claiming_more_pairs_than_the_file_holds(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 1, "in_dims": [["X", 1000000]], '
                        '"out_dims": [["Y", 1000000]], "data": [[1.0, 0.0]]}\n')
        with pytest.raises(MatrixFileError) as exc:
            load_matrix(path)
        assert str(exc.value) == "data length 1 does not match 1000000 x 1000000"

    def test_raw_utf8_label_in_saved_layout(self, tmp_path, saved_layout_only):
        path = tmp_path / "m.json"
        path.write_bytes('{"version": 1, "in_dims": [["wire-é", 1]], "out_dims": [["Y", 2]], '
                         '"data": [[1.0, -0], [0.5, 2]]}\n'.encode())
        back = load_matrix(path)
        assert back.in_space.labels == ("wire-é",)
        assert np.array_equal(_bits(back.data.reshape(-1)), _bits(np.array([1, 0.5 + 2j])))

    def test_peak_memory_is_below_twice_the_file(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, _random_op(512, 512))
        tracemalloc.start()
        try:
            load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size

    @pytest.mark.parametrize("relayout", [
        lambda text: json.dumps(json.loads(text), separators=(",", ":")),
        lambda text: json.dumps(json.loads(text), indent=1),
        lambda text: json.dumps(dict(reversed(json.loads(text).items()))),
        lambda text: text + "  \n",
        lambda text: text[:-1],
        lambda text: '{"data": [[1.0, 0.0]], ' + text[1:],
    ], ids=["compact", "indented", "data-first", "trailing-space", "no-newline", "data-key-twice"])
    def test_other_layouts_load_the_same(self, relayout, tmp_path):
        fixture = os.path.join(FIXTURES, "d3d.json")
        with open(fixture, encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "m.json"
        path.write_text(relayout(text))
        assert _load_outcome(load_matrix, path) == _load_outcome(reference_load_matrix, fixture)

    def test_pipe_loads_any_layout(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        with open(os.path.join(FIXTURES, "switch.json"), encoding="utf-8") as fh:
            text = fh.read()
        for body in (text, json.dumps(json.loads(text), indent=1)):
            writer = threading.Thread(target=fifo.write_text, args=(body,), daemon=True)
            writer.start()
            back = load_matrix(fifo)
            writer.join(timeout=10)
            assert not writer.is_alive()
            assert np.array_equal(back.data, load_matrix(os.path.join(FIXTURES, "switch.json")).data)


NON_UTF8 = [
    b'{"version": 1, "in_dims": [["X\xff", 1]], "out_dims": [["Y", 1]], "data": [[1.0, 0.0]]}\n',
    b'{"version": 1, "in_dims": [["X", 1]], "out_dims": [["Y", 1]], "data": [[1.0, \xff.0]]}\n',
]


class TestNonUtf8:
    @pytest.mark.parametrize("content", NON_UTF8, ids=["header", "data"])
    def test_library_raises_matrix_file_error(self, content, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        with pytest.raises(MatrixFileError, match=r"cannot read matrix file .*'utf-8' codec"):
            load_matrix(path)

    def test_cli_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(NON_UTF8[0])
        assert main(["verify", str(path), "--kind", "pure-comb"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read matrix file {path}: 'utf-8' codec")

import glob
import json
import os

import numpy as np
import pytest

from helpers import reference_entry_error, reference_matrix_text
from purecomb import io as pio
from purecomb.builders import build_quantum_switch
from purecomb.io import MatrixFileError, load_matrix, save_matrix
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
    }
    # a matrix of exactly one block, one pair past it, and exactly two blocks
    n = pio._BLOCK_PAIRS
    for name, rows, cols in [("block", n, 1), ("block+1", n + 1, 1), ("2-blocks", n, 2)]:
        data = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        cases[name] = LinOp(Spaces.of(("R", rows)), Spaces.of(("S", cols)), data)
    return cases


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(_golden_cases()))
    def test_save_matches_single_dump_and_round_trips(self, name, tmp_path):
        op = _golden_cases()[name]
        path = tmp_path / "m.json"
        save_matrix(path, op)
        assert path.read_bytes() == reference_matrix_text(op).encode()
        back = load_matrix(path)
        assert back.out_space == op.out_space and back.in_space == op.in_space
        assert np.array_equal(_bits(back.data), _bits(op.data))

    def test_large_case_spans_a_block_seam_off_a_row(self):
        n = _golden_cases()["300x300"].data.size
        assert pio._BLOCK_PAIRS < n and pio._BLOCK_PAIRS % 300 != 0

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(FIXTURES, "*.json"))))
    def test_fixture_resave_is_byte_identical(self, path, tmp_path):
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

import itertools
import json
import os
import re

import numpy as np
import pytest

from helpers import perturbed
from purecomb import builders
from purecomb.cli import Report, build_parser, main
from purecomb.combs import (CombCircuit, ancilla_labels, compose_staircase, verify_comb_choi,
                            verify_pure_comb_unitary)
from purecomb.io import MatrixFileError, file_digest, load_matrix, save_matrix
from purecomb.layouts import SlotLayout, TwoSlotLayout
from purecomb.spaces import LinOp, Spaces, permute_systems, phase_distance
from purecomb.twoslot import direct_sum_decompose, embed_block, verify_pure_superchannel
from purecomb.builders import haar_unitary

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SWITCH = os.path.join(FIXTURES, "switch.json")
D3D = os.path.join(FIXTURES, "d3d.json")
RANDOM_U = os.path.join(FIXTURES, "random-unitary.json")
CHOI = os.path.join(FIXTURES, "comb-choi.json")


class TestMatrixFile:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        op = LinOp(
            Spaces.of(("B", 3), ("C", 2)),
            Spaces.of(("A", 6)),
            rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
        )
        path = tmp_path / "m.json"
        save_matrix(path, op)
        back = load_matrix(path)
        assert back.in_space == op.in_space
        assert back.out_space == op.out_space
        assert np.array_equal(back.data, op.data)
        # saving the loaded copy reproduces the file byte for byte
        path2 = tmp_path / "m2.json"
        save_matrix(path2, back)
        assert file_digest(path) == file_digest(path2)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        with open(SWITCH) as fh:
            content = fh.read()
        path.write_text(content[: len(content) // 2])
        with pytest.raises(MatrixFileError):
            load_matrix(path)

    def test_wrong_length_rejected(self, tmp_path):
        doc = json.loads(open(SWITCH).read())
        doc["data"] = doc["data"][:-1]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MatrixFileError):
            load_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        doc = json.loads(open(SWITCH).read())
        doc["data"][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc, allow_nan=True))
        with pytest.raises(MatrixFileError):
            load_matrix(path)

    def test_booleans_rejected(self, tmp_path, capsys):
        # JSON true/false load as Python bools, which are ints
        dims_doc = {"version": 1, "in_dims": [["X", True]], "out_dims": [["Y", 1]],
                    "data": [[1.0, 0.0]]}
        data_doc = dict(dims_doc, in_dims=[["X", 1]], data=[[True, False]])
        for i, bad in enumerate((dims_doc, data_doc)):
            path = tmp_path / f"bool{i}.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(MatrixFileError):
                load_matrix(path)
        # the switch's 0/1 entries written as booleans: malformed, not a pass
        doc = json.loads(open(SWITCH).read())
        doc["data"] = [[bool(re), bool(im)] for re, im in doc["data"]]
        path = tmp_path / "switch-bool.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--kind", "pure-superchannel"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_out_of_range_integer_is_malformed_input(self, tmp_path, capsys):
        # 10**400 parses as a Python int but has no double value
        path = tmp_path / "huge.json"
        path.write_text('{"version": 1, "in_dims": [["X", 1]], "out_dims": [["Y", 1]], '
                        '"data": [[1' + "0" * 400 + ', 0.0]]}')
        with pytest.raises(MatrixFileError, match="non-finite data entry at index 0"):
            load_matrix(path)
        assert main(["verify", str(path), "--kind", "pure-comb"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "internal" not in captured.err


class TestVerifyCommand:
    def test_switch_fixture_passes(self, capsys):
        assert main(["verify", SWITCH, "--kind", "pure-superchannel"]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_random_fixture_fails(self, capsys):
        assert main(["verify", RANDOM_U, "--kind", "pure-superchannel"]) == 1
        assert "verdict: fail" in capsys.readouterr().out

    def test_truncated_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(open(SWITCH).read()[:100])
        assert main(["verify", str(path), "--kind", "pure-superchannel"]) == 2

    def test_dims_conflict_exit_2(self):
        rc = main([
            "verify", SWITCH, "--kind", "pure-superchannel",
            "--dims", "P=4,AI=2,AO=2,BI=2,BO=2,F=8",
        ])
        assert rc == 2

    def test_dims_match_passes(self):
        rc = main([
            "verify", SWITCH, "--kind", "pure-superchannel",
            "--dims", "P=4,AI=2,AO=2,BI=2,BO=2,F=4",
        ])
        assert rc == 0

    def test_json_report(self, capsys):
        assert main(["verify", SWITCH, "--kind", "pure-superchannel", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert set(doc["residuals"]) == {"joint", "a-side", "b-side"}

    def test_tol_reaches_verdict_near_class(self, tmp_path, capsys):
        near = tmp_path / "near.json"
        save_matrix(near, perturbed(load_matrix(SWITCH), 1e-7))
        argv = ["verify", str(near), "--kind", "pure-superchannel", "--json"]
        assert main(argv + ["--tol", "1e-6"]) == 0
        worst = max(json.loads(capsys.readouterr().out)["residuals"].values())
        assert 1e-8 < worst < 1e-6
        assert main(argv) == 1

    def test_pure_comb_kind(self, tmp_path):
        comb = tmp_path / "comb.json"
        assert main([
            "build", "random-comb", "--chain", "H0=2,H1=2,H2=2,H3=2",
            "--seed", "5", "--out", str(comb),
        ]) == 0
        assert main(["verify", str(comb), "--kind", "pure-comb"]) == 0

    def test_comb_choi_kind(self, tmp_path, capsys):
        comb = tmp_path / "comb.json"
        main(["build", "random-comb", "--chain", "H0=2,H1=2,H2=2,H3=2", "--seed", "6",
              "--out", str(comb)])
        op = load_matrix(comb)
        from purecomb.choi import choi_of_unitary

        choi_path = tmp_path / "choi.json"
        save_matrix(choi_path, choi_of_unitary(op).op)
        assert main([
            "verify", str(choi_path), "--kind", "comb-choi",
            "--order", "H0,H1,H2,H3",
        ]) == 0

    def test_comb_choi_with_input_factors_in_another_order(self, tmp_path, capsys):
        # the fixture with P and AI swapped on its input side only
        src = os.path.join(FIXTURES, "comb-choi.json")
        op = load_matrix(src)
        labels = ["AI", "AO", "BO", "P", "BI", "F"]
        n = len(op.out_space)
        axes = [*range(n), *(n + op.in_space.index(lab) for lab in labels)]
        data = op.data.reshape(op.out_space.dims + op.in_space.dims).transpose(axes)
        moved = LinOp(op.out_space, op.in_space.select(labels), data.reshape(op.data.shape))
        order = "P,AI,AO,BI,BO,F"
        chain = SlotLayout(tuple((lab, op.out_space.dim_of(lab)) for lab in order.split(",")))
        rep = verify_comb_choi(op, chain)
        assert rep.ok and verify_comb_choi(moved, chain) == rep
        path = tmp_path / "moved.json"
        save_matrix(path, moved)
        outs = []
        for p in (src, str(path)):
            assert main(["verify", p, "--kind", "comb-choi", "--order", order, "--json"]) == 0
            outs.append(capsys.readouterr().out.replace(file_digest(p), "<digest>"))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind, order", [
        ("comb-choi", "P,AI,AO,BI,BO,F"),
        ("pure-comb", "H0,H1,H2,H3,H4,H5"),
    ])
    def test_residuals_do_not_depend_on_the_file_factor_order(self, kind, order, tmp_path,
                                                              capsys):
        # the comb-Choi fixture, or a seeded two-slot comb, written in its
        # first 120 factor orders, both sides permuted
        if kind == "comb-choi":
            op = load_matrix(CHOI)
        else:
            op = builders.random_pure_comb(SlotLayout.of(
                ("H0", 4), ("H1", 2), ("H2", 4), ("H3", 4), ("H4", 4), ("H5", 8)), 5)
        labels = list(dict.fromkeys(op.out_space.labels + op.in_space.labels))
        outs = set()
        for perm in itertools.islice(itertools.permutations(labels), 120):
            path = str(tmp_path / "permuted.json")
            save_matrix(path, permute_systems(op, list(perm)))
            assert main(["verify", path, "--kind", kind, "--order", order, "--json"]) == 0
            outs.add(capsys.readouterr().out.replace(file_digest(path), "<digest>"))
        assert len(outs) == 1

    @pytest.mark.parametrize("kind, path, order, code", [
        ("pure-superchannel", SWITCH, None, 0),
        ("pure-superchannel", RANDOM_U, None, 1),
        ("pure-comb", "comb", "H0,H1,H2,H3", 0),
        ("pure-comb", SWITCH, "P,AI,AO,BI,BO,F", 1),
        ("comb-choi", CHOI, "P,AI,AO,BI,BO,F", 0),
        ("comb-choi", CHOI, "P,BI,BO,AI,AO,F", 1),
    ])
    def test_json_residuals_are_the_library_verdicts(self, kind, path, order, code, tmp_path,
                                                     capsys):
        """Each kind prints its library verdict's residuals: same keys, equal floats."""
        if path == "comb":  # a seeded two-slot comb with a 2-dim ancilla
            path = str(tmp_path / "comb.json")
            save_matrix(path, builders.random_pure_comb(
                SlotLayout.of(("H0", 4), ("H1", 2), ("H2", 2), ("H3", 4)), 7))
        op = load_matrix(path)
        if kind == "pure-superchannel":
            (p, ao, bo), (ai, bi, f) = op.in_space.factors, op.out_space.factors
            rep = verify_pure_superchannel(op, TwoSlotLayout.of(p, ai, ao, bi, bo, f))
        else:
            dims = {**dict(op.in_space.factors), **dict(op.out_space.factors)}
            chain = SlotLayout(tuple((lab, dims[lab]) for lab in order.split(",")))
            check = verify_pure_comb_unitary if kind == "pure-comb" else verify_comb_choi
            rep = check(op, chain)
        argv = ["verify", path, "--kind", kind, "--json"] + (["--order", order] if order else [])
        assert main(argv) == code == (0 if rep.ok else 1)
        assert json.loads(capsys.readouterr().out)["residuals"] == rep.residuals

    def test_comb_choi_of_a_non_square_operator_exit_2(self, capsys):
        assert main(["verify", SWITCH, "--kind", "comb-choi"]) == 2
        assert "same factors on both sides" in capsys.readouterr().err


class TestBuildCommand:
    def test_switch_is_16x16(self, tmp_path, capsys):
        out = tmp_path / "sw.json"
        assert main(["build", "switch", "--dim", "2", "--out", str(out)]) == 0
        op = load_matrix(out)
        assert op.data.shape == (16, 16)

    def test_d3d_is_24x24(self, tmp_path):
        out = tmp_path / "d3.json"
        assert main(["build", "d3d", "--out", str(out)]) == 0
        assert load_matrix(out).data.shape == (24, 24)

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            main(["build", "random-comb", "--chain", "H0=2,H1=2,H2=2,H3=2",
                  "--seed", "9", "--out", str(p)])
        assert file_digest(a) == file_digest(b)

    def test_bad_usage_exit_2(self):
        assert main(["build", "random-comb", "--out", "/dev/null"]) == 2

    @pytest.mark.parametrize("argv, option", [
        (["d3d", "--dim", "5"], "--dim"),
        (["switch", "--dims", "P=9"], "--dims"),
        (["switch", "--chain", "H0=2,H1=2"], "--chain"),
        (["switch", "--seed", "4"], "--seed"),
        (["d3d", "--seed", "4"], "--seed"),
        (["random-comb", "--chain", "H0=2,H1=2", "--dim", "7"], "--dim"),
        (["random-unitary", "--dim", "3", "--dims", "P=4,AI=2,AO=2,BI=2,BO=2,F=4"], "--dim"),
        (["random-unitary", "--dim", "3"], "--dim"),
    ])
    def test_option_the_target_does_not_read_exit_2(self, argv, option, tmp_path, capsys):
        out = tmp_path / "o.json"
        assert main(["build", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
        assert re.search(rf"{option}\b", captured.err)
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["verify", SWITCH, "--kind", "pure-superchannel", "--order", "X,Y,Z"], "--order"),
        (["verify", SWITCH, "--kind", "pure-comb", "--dims", "P=4"], "--dims"),
        (["verify", SWITCH, "--kind", "comb-choi", "--dims", "P=4"], "--dims"),
        (["decompose", SWITCH, "--kind", "direct-sum", "--order", "P,AI,AO,BI,BO,F"], "--order"),
        (["decompose", SWITCH, "--kind", "staircase", "--dims", "P=9"], "--dims"),
    ])
    def test_option_the_kind_does_not_read_exit_2(self, argv, option, tmp_path, capsys):
        # verify and decompose follow the build rule: --order is read by the
        # chain kinds, --dims by the two-slot kinds, and nothing is written
        out = tmp_path / "d"
        argv = argv + ["--out", str(out)] if argv[0] == "decompose" else argv
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
        assert re.search(rf"{option}\b", captured.err)
        assert list(tmp_path.iterdir()) == []


class TestDecomposeAssemble:
    def test_switch_round_trip(self, tmp_path, capsys):
        prefix = str(tmp_path / "sw")
        assert main(["decompose", SWITCH, "--kind", "direct-sum", "--out", prefix]) == 0
        report = json.loads(open(prefix + ".report.json").read())
        assert report["details"]["classification"] == "switch-like"
        assert report["details"]["block_p_dims"] == [2, 2]
        blocks = [prefix + ".block-ab.json", prefix + ".block-ba.json"]
        for b in blocks:
            assert os.path.exists(b)
        out = str(tmp_path / "back.json")
        assert main(["assemble", *blocks, "--out", out]) == 0
        assert phase_distance(load_matrix(out), load_matrix(SWITCH)) < 1e-7

    @pytest.mark.parametrize("as_json", [True, False])
    def test_report_is_encoded_once(self, as_json, tmp_path, capsys, monkeypatch):
        calls = []
        encode = Report.to_json
        monkeypatch.setattr(Report, "to_json", lambda self: calls.append(1) or encode(self))
        prefix = str(tmp_path / "sw")
        argv = ["decompose", SWITCH, "--kind", "direct-sum", "--out", prefix]
        assert main(argv + ["--json"] * as_json) == 0
        out, text = capsys.readouterr().out, open(prefix + ".report.json").read()
        assert len(calls) == 1 and text.endswith("}\n")
        assert (out == text) if as_json else out.startswith("command: decompose\n")

    def test_d3d_report(self, tmp_path):
        prefix = str(tmp_path / "d3")
        assert main(["decompose", D3D, "--kind", "direct-sum", "--out", prefix]) == 0
        report = json.loads(open(prefix + ".report.json").read())
        assert report["details"]["classification"] == "general-direct-sum"
        assert report["details"]["block_p_dims"] == [4, 2]

    def test_ordered_comb_emits_staircase(self, tmp_path):
        # a two-slot chain comb decomposes to one block plus its staircase
        comb = tmp_path / "comb.json"
        main(["build", "random-comb", "--chain", "P=2,AI=2,AO=2,BI=2,BO=2,F=2",
              "--seed", "11", "--out", str(comb)])
        prefix = str(tmp_path / "dec")
        assert main(["decompose", str(comb), "--kind", "direct-sum", "--out", prefix]) == 0
        report = json.loads(open(prefix + ".report.json").read())
        assert report["details"]["classification"] == "ordered-ab"
        assert report["details"]["ancilla_dims"] == [1, 1, 1, 1]
        elements = [f for f in report["details"]["files"] if ".element-" in f]
        assert len(elements) == 3
        # the single block assembles back to the input
        block = [f for f in report["details"]["files"] if ".block-" in f]
        out = str(tmp_path / "back.json")
        assert main(["assemble", *block, "--out", out]) == 0
        assert phase_distance(load_matrix(out), load_matrix(comb)) < 1e-7

    def test_b_first_comb_emits_staircase(self, tmp_path):
        # the A-first frame is empty: one B-first block and its staircase
        lay = builders.switch_layout(2)
        u = permute_systems(builders.random_pure_comb(lay.slot_chain("ba"), 13),
                            ["AI", "BI", "F", "P", "AO", "BO"])
        comb = tmp_path / "comb.json"
        save_matrix(comb, u)
        prefix = str(tmp_path / "dec")
        assert main(["decompose", str(comb), "--kind", "direct-sum", "--out", prefix]) == 0
        report = json.loads(open(prefix + ".report.json").read())
        assert report["details"]["classification"] == "ordered-ba"
        assert report["details"]["block_p_dims"] == [0, 4]
        files = report["details"]["files"]
        assert files == [prefix + ".block-ba.json"] + [f"{prefix}.element-{i}.json"
                                                       for i in range(3)]
        # the elements recompose to the block, and the block assembles to u
        chain = lay.slot_chain("ba")
        circuit = CombCircuit(chain, tuple(load_matrix(f) for f in files[1:]),
                              tuple(report["details"]["ancilla_dims"]), ancilla_labels(chain))
        d = direct_sum_decompose(u, lay)
        recomposed = embed_block(compose_staircase(circuit), d.p_embed_ba, d.f_embed_ba, lay)
        assert phase_distance(recomposed, load_matrix(files[0])) <= 1e-8
        out = str(tmp_path / "back.json")
        assert main(["assemble", files[0], "--out", out]) == 0
        assert phase_distance(load_matrix(out), u) <= 1e-8

    def test_staircase_kind(self, tmp_path):
        comb = tmp_path / "comb.json"
        main(["build", "random-comb", "--chain", "H0=4,H1=2,H2=2,H3=4",
              "--seed", "12", "--out", str(comb)])
        prefix = str(tmp_path / "st")
        assert main(["decompose", str(comb), "--kind", "staircase", "--out", prefix]) == 0
        report = json.loads(open(prefix + ".report.json").read())
        assert report["details"]["ancilla_dims"] == [1, 2, 1]

    def test_tol_reaches_perturbed_decompositions(self, tmp_path):
        # exp(i eps H) U passes verify at 10 eps; it must decompose there too
        near = tmp_path / "near.json"
        save_matrix(near, perturbed(load_matrix(SWITCH), 1e-7))
        prefix = str(tmp_path / "near")
        argv = ["decompose", str(near), "--kind", "direct-sum", "--out", prefix]
        assert main(argv + ["--tol", "1e-6"]) == 0
        report = json.loads(open(prefix + ".report.json").read())
        assert report["details"]["classification"] == "switch-like"
        comb = tmp_path / "comb.json"
        main(["build", "random-comb", "--chain", "H0=4,H1=2,H2=4,H3=4,H4=4,H5=8",
              "--seed", "13", "--out", str(comb)])
        save_matrix(comb, perturbed(load_matrix(comb), 1e-7))
        assert main(["verify", str(comb), "--kind", "pure-comb", "--tol", "1e-6"]) == 0
        prefix = str(tmp_path / "st")
        argv = ["decompose", str(comb), "--kind", "staircase", "--out", prefix]
        assert main(argv + ["--tol", "1e-6"]) == 0
        report = json.loads(open(prefix + ".report.json").read())
        assert report["details"]["ancilla_dims"] == [1, 2, 2, 1]

    def test_tol_reaches_unitarity_preconditions(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        op = load_matrix(SWITCH)
        noise = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        noisy, half = tmp_path / "noisy.json", tmp_path / "half.json"
        save_matrix(noisy, LinOp(op.out_space, op.in_space, op.data + 1e-7 * noise))
        save_matrix(half, LinOp(op.out_space, op.in_space, 0.5 * np.eye(16)))
        prefix = str(tmp_path / "dec")
        for path, loose in ((noisy, 0), (half, 2)):
            verify = ["verify", str(path), "--kind", "pure-superchannel"]
            decompose = ["decompose", str(path), "--kind", "direct-sum", "--out", prefix]
            for argv in (verify, decompose):
                assert main(argv + ["--tol", "1e-5"]) == loose
                assert main(argv) == 2
                assert "not unitary" in capsys.readouterr().err
        report = json.loads(open(prefix + ".report.json").read())
        assert report["details"]["classification"] == "switch-like"

    def test_decompose_rejects_random(self, tmp_path):
        prefix = str(tmp_path / "no")
        assert main(["decompose", RANDOM_U, "--kind", "direct-sum", "--out", prefix]) == 1
        report = json.loads(open(prefix + ".report.json").read())
        assert report["verdict"] == "fail"

    def test_assemble_accepts_reordered_factors(self, tmp_path):
        prefix = str(tmp_path / "sw")
        assert main(["decompose", SWITCH, "--kind", "direct-sum", "--out", prefix]) == 0
        ab, ba = prefix + ".block-ab.json", prefix + ".block-ba.json"
        reordered = str(tmp_path / "ba-reordered.json")
        save_matrix(reordered, permute_systems(load_matrix(ba), ["BI", "AI", "F", "AO", "P", "BO"]))
        assert load_matrix(reordered).out_space.labels == ("BI", "AI", "F")
        assert load_matrix(reordered).in_space.labels == ("AO", "P", "BO")
        want, got = str(tmp_path / "want.json"), str(tmp_path / "got.json")
        assert main(["assemble", ab, ba, "--out", want]) == 0
        assert main(["assemble", ab, reordered, "--out", got]) == 0
        assert open(got, "rb").read() == open(want, "rb").read()

    def test_assemble_dim_mismatch_exit_2(self, tmp_path):
        rng = np.random.default_rng(1)
        a = LinOp(Spaces.of(("X", 2)), Spaces.of(("Y", 2)), haar_unitary(2, rng))
        b = LinOp(Spaces.of(("X", 3)), Spaces.of(("Y", 3)), haar_unitary(3, rng))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(pa, a)
        save_matrix(pb, b)
        assert main(["assemble", str(pa), str(pb), "--out", str(tmp_path / "o.json")]) == 2

    def test_assemble_non_unitary_sum_exit_1(self, tmp_path):
        rng = np.random.default_rng(2)
        a = LinOp(Spaces.of(("X", 2)), Spaces.of(("Y", 2)), haar_unitary(2, rng))
        pa = tmp_path / "a.json"
        save_matrix(pa, a)
        # summing a block with itself is not unitary
        assert main(["assemble", str(pa), str(pa), "--out", str(tmp_path / "o.json")]) == 1


class TestExitContract:
    def test_cached_parser_answers_like_a_fresh_one(self, capsys):
        # a usage error, help, then one valid call twice, all in one process
        argvs = [["verify", SWITCH, "--kind", "bogus"], ["--help"],
                 ["verify", SWITCH, "--kind", "pure-superchannel"],
                 ["verify", SWITCH, "--kind", "pure-superchannel"]]
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append((main(argv), capsys.readouterr()))
        build_parser.cache_clear()
        cached = [(main(argv), capsys.readouterr()) for argv in argvs]
        assert build_parser.cache_info().misses == 1
        assert cached == fresh
        assert [rc for rc, _ in cached] == [2, 0, 0, 0]
        assert "invalid choice: 'bogus'" in cached[0][1].err and "usage: purecomb" in cached[1][1].out

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_bad_tol_exit_2(self, tol, tmp_path, capsys):
        out = tmp_path / "o"
        argvs = [
            ["verify", RANDOM_U, "--kind", "pure-superchannel"],
            ["verify", SWITCH, "--kind", "pure-superchannel"],
            ["decompose", SWITCH, "--kind", "direct-sum", "--out", str(out)],
            ["assemble", SWITCH, "--out", str(out)],
        ]
        for argv in argvs:
            assert main(argv + [f"--tol={tol}"]) == 2
            assert "finite and > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["switch", "random-unitary"])
    def test_nonpositive_dim_exit_2(self, name, tmp_path, capsys):
        assert main(["build", name, "--dim", "0", "--out", str(tmp_path / "o.json")]) == 2
        assert "positive integer, got '0'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_crash_maps_to_exit_2(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate\nthe matrix")

        monkeypatch.setattr(builders, "build_quantum_switch", exhausted)
        assert main(["build", "switch", "--out", str(tmp_path / "sw.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MemoryError" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["pure-superchannel", "pure-comb"])
    def test_non_unitary_input_exit_2(self, kind, tmp_path, capsys):
        # the closed-form conditions characterize the class only for unitaries
        op = load_matrix(SWITCH)
        half = tmp_path / "half.json"
        save_matrix(half, LinOp(op.out_space, op.in_space, 0.5 * np.eye(16)))
        assert main(["verify", str(half), "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "not unitary" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["build", "random-comb", "--chain", "H0=2,H1=0,H2=2,H3=2"],
        ["build", "random-comb", "--chain", "H0=2,H1=2,H0=2,H3=2"],
        ["build", "random-unitary", "--dims", "P=8,AI=2,AO=2,BI=2,BO=2,F=4,P=4"],
        ["verify", SWITCH, "--kind", "pure-superchannel", "--dims",
         "P=4,AO=2,BO=2,AI=2,BI=2,F=4,P=4"],
        ["build", "random-unitary", "--dims", "P=4,AI=2,AO=2,BI=2,BO=2,F=4,X=3"],
    ])
    def test_bad_assignments_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "o.json"
        argv = argv + ["--out", str(out)] if argv[0] == "build" else argv
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "internal" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_is_not_swallowed(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(builders, "build_quantum_switch", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["build", "switch", "--out", str(tmp_path / "sw.json")])

"""End-to-end checks of the command-line front end.

Most tests drive cli.main() in process to keep the suite fast; the
subprocess tests confirm the installed console script works at all and
that `python -m eacomp.cli` writes the bytes an in-process call writes.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eacomp import (
    Ensemble,
    __version__,
    analyze,
    apply_product_unitary,
    blind_rates,
    cli,
    cnot_unitary,
    fidelity_curve,
    limits,
    load_ensemble,
    make_visible,
    optimal_rates,
    save_ensemble,
    schumacher,
)
from eacomp.errors import ConsistencyError, EacompError
from eacomp.region import MAX_SAMPLES

DATA = Path(__file__).resolve().parent.parent / "data"
BLIND = str(DATA / "blind_pair.json")
VISIBLE = str(DATA / "visible_pair.json")
TRIPLE = str(DATA / "sideinfo_triple.json")
SECTORS = str(DATA / "blind_two_sectors.json")


@pytest.fixture(autouse=True)
def _restore_globals():
    caps = (limits.VECTOR_CAP, limits.MATRIX_CAP, limits.SEQUENCE_CAP, limits.CODE_DIM_CAP)
    yield
    limits.VECTOR_CAP, limits.MATRIX_CAP, limits.SEQUENCE_CAP, limits.CODE_DIM_CAP = caps


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_blind_ok(self, capsys):
        code, out, err = run(["validate", BLIND], capsys)
        assert code == 0
        assert out.strip() == "ok: 2 states, dimA=2, dimC=1, blind"
        assert err == ""

    def test_visible_kind(self, capsys):
        code, out, _ = run(["validate", VISIBLE], capsys)
        assert code == 0
        assert out.strip().endswith("visible")

    def test_violations_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dimA": 2,
            "dimC": 1,
            "states": [
                {"label": "a", "prob": 0.6, "psi": [[1.0, 0.0], [0.1, 0.0]]},
                {"label": "a", "prob": 0.6, "psi": [[1.0, 0.0], [0.0, 0.0]]},
            ],
        }))
        code, out, err = run(["validate", str(bad)], capsys)
        assert code == 1
        assert out == ""
        lines = [ln for ln in err.splitlines() if ln.strip()]
        assert len(lines) >= 2  # one violation per line

    def test_negative_probabilities_cannot_offset_an_excess(self, tmp_path, capsys):
        # 100 probabilities at -1e-9, each within tolerance, bring the sum
        # back to 1; the support they drop out of sums to 1 + 1e-7
        path = tmp_path / "offset.json"
        path.write_text(json.dumps({"dimA": 2, "dimC": 1, "states": [
            {"label": "a", "prob": 1.0 + 1e-7, "psi": [[1.0, 0.0], [0.0, 0.0]]}]
            + [{"label": f"n{i}", "prob": -1e-9, "psi": [[0.0, 0.0], [1.0, 0.0]]} for i in range(100)]}))
        code, out, err = run(["validate", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == "probability sum over the support deviates from 1 by 1.000e-07\n"
        assert run(["simulate", str(path), "--rate", "1.2", "--n", "1,2"], capsys) == (1, "", err)

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(["validate", str(bad)], capsys)
        assert code == 2
        assert "malformed JSON" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(["validate", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert err.strip()


NON_FINITE = {
    "nan_prob": {"dimA": 2, "dimC": 1, "states": [
        {"label": "a", "prob": float("nan"), "psi": [[1.0, 0.0], [0.0, 0.0]]},
        {"label": "b", "prob": 0.5, "psi": [[0.0, 0.0], [1.0, 0.0]]}]},
    "infinite_psi": {"dimA": 2, "dimC": 1, "states": [
        {"label": "a", "prob": 0.5, "psi": [[float("inf"), 0.0], [0.0, 0.0]]},
        {"label": "b", "prob": 0.5, "psi": [[0.0, 0.0], [1.0, 0.0]]}]},
    "negative_infinite_sigma": {"dimA": 2, "dimC": 2, "states": [
        {"label": "a", "prob": 0.5, "psi": [1.0, 0.0], "sigma": [1.0, float("-inf")]},
        {"label": "b", "prob": 0.5, "psi": [0.0, 1.0], "sigma": [0.0, 1.0]}]},
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    @pytest.mark.parametrize("command", [
        ["validate"], ["rates"], ["simulate", "--rate", "0.8", "--n", "2"]])
    def test_rejected_with_violation_line(self, tmp_path, capsys, case, command):
        path = tmp_path / "bad.json"
        text = json.dumps(NON_FINITE[case])
        assert "NaN" in text or "Infinity" in text  # JSON literals, as json.load accepts them
        path.write_text(text)
        code, out, err = run([command[0], str(path), *command[1:]], capsys)
        assert code == 1
        assert out == ""
        assert "is not finite" in err
        assert "negative" not in err and "disagrees" not in err


class TestTolerance:
    @pytest.mark.parametrize("command", [
        ["validate"],
        ["decompose"],
        ["rates"],
        ["region", "--kind", "EQ"],
        ["iepsilon", "--eps", "0"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, command, tol):
        out = tmp_path / "out"
        argv = [command[0], VISIBLE, *command[1:], "--tol", tol]
        if command[0] != "validate":
            argv += ["-o", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "--tol" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


    LOOSE = [(TRIPLE, "0.5"), (TRIPLE, "2"), (VISIBLE, "2"), (BLIND, "2")]
    LOOSE_IDS = ["triple-0.5", "triple-2", "visible-2", "blind-2"]

    @pytest.mark.parametrize("command, path, tol", [(["rates"], *case) for case in LOOSE] + [
        (["region", "--kind", "CE"], *case) for case in LOOSE
    ], ids=LOOSE_IDS + [f"region-CE-{i}" for i in LOOSE_IDS])
    def test_loose_tolerance_is_input_error(self, capsys, command, path, tol):
        # the sigmas of TRIPLE and VISIBLE are one state only within tol, and
        # at tol 2 the overlapping signals of BLIND are separate components:
        # the blind rates and corner then differ from the general ones, but
        # no internal computation disagrees with another
        code, out, err = run([command[0], path, *command[1:], "--tol", tol], capsys)
        assert code == 1 and out == ""
        assert "--tol" in err and "disagrees" not in err and "Traceback" not in err
        with pytest.raises(EacompError) as exc:
            blind_rates(analyze(load_ensemble(path), float(tol)))
        assert not isinstance(exc.value, ConsistencyError)

    @staticmethod
    def rotated_two_sectors():
        """Three close signals in each of the sectors {|0>,|1>} and {|2>,|3>}
        of A = C^4, distinct side information on C = C^4, rotated by a
        seeded U_A (x) U_C. At tol 2 each signal is its own component and
        the sigmas count as one state, so the blind Q = S(A) - S(Y)/2 is
        1.058 - 1.292 < 0."""
        rng = np.random.default_rng(5)
        psi = []
        for sector in (0, 2):
            for t in (0.0, 0.1, 0.2):
                v = np.zeros(4)
                v[sector], v[sector + 1] = np.cos(t), np.sin(t)
                psi.append(v)
        sigma = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
        ua, uc = (np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
                  for _ in range(2))
        labels = [f"{s}{k}" for s in "ab" for k in range(3)]
        return Ensemble(labels, np.full(6, 1 / 6), np.array(psi) @ ua.T, sigma @ uc.T)

    @pytest.mark.parametrize("command", [["rates"], ["region", "--kind", "CE"]], ids=["rates", "region-CE"])
    def test_loose_tolerance_with_negative_blind_q(self, tmp_path, capsys, command):
        # the comparison with the general rates must come before the
        # RatePoint is built, since that refuses the negative Q first
        path = tmp_path / "sectors.json"
        save_ensemble(self.rotated_two_sectors(), path)
        code, out, err = run([command[0], str(path), *command[1:], "--tol", "2",
                              "-o", str(tmp_path / "out")], capsys)
        assert code == 1 and out == ""
        assert "--tol" in err and "is negative" not in err and "Traceback" not in err

    def test_strict_disagreement_is_consistency_error(self, monkeypatch, capsys):
        from eacomp import rates

        real = rates.optimal_rates
        monkeypatch.setattr(rates, "optimal_rates", lambda a: replace(real(a), q=real(a).q + 1e-3))
        code, out, err = run(["rates", BLIND], capsys)
        assert code == 1 and out == ""
        assert "blind specialization" in err and "disagrees with general formula" in err
        assert "--tol" not in err
        with pytest.raises(ConsistencyError):
            blind_rates(analyze(load_ensemble(BLIND)))


class TestNumericOptions:
    @pytest.mark.parametrize("argv", [
        ["iepsilon", BLIND, "--eps", "nan"],
        ["iepsilon", BLIND, "--eps", "inf"],
        ["iepsilon", BLIND, "--eps", "0,1.5"],
        ["iepsilon", BLIND, "--eps", "0", "--penalty", "nan"],
        ["iepsilon", BLIND, "--eps", "0", "--penalty", "-1"],
        ["iepsilon", BLIND, "--eps", "0", "--max-iters", "-3"],
        ["iepsilon", BLIND, "--eps", "0", "--env-cap", "0"],
        ["iepsilon", BLIND, "--eps", "0", "--seed", "-1"],
        ["iepsilon", TRIPLE, "--eps", "0.1", "--restarts", "1", "--seed", "-1"],
        ["region", BLIND, "--kind", "EQ", "--lo", "nan"],
        ["region", BLIND, "--kind", "EQ", "--hi", "inf"],
        ["region", BLIND, "--kind", "EQ", "--samples", "1"],
        ["region", BLIND, "--kind", "EQ", "--samples", str(MAX_SAMPLES + 1)],
        ["simulate", BLIND, "--rate", "inf", "--n", "1,2"],
        ["simulate", BLIND, "--rate", "nan", "--n", "1,2"],
        # a cap below 1 is refused before the source is read, on every
        # subcommand that takes the flag
        *([sub, BLIND, *rest, flag, value]
          for sub, rest in (("decompose", []), ("rates", []), ("region", ["--kind", "EQ"]),
                            ("simulate", ["--rate", "0.8", "--n", "2,3"]), ("iepsilon", ["--eps", "0"]))
          for flag in ("--vector-cap", "--matrix-cap", "--sequence-cap", "--code-dim-cap")
          for value in ("0", "-5")),
    ], ids=lambda argv: " ".join([argv[0], *argv[2:]]))
    def test_rejected_with_exit_2(self, tmp_path, capsys, argv):
        # some are refused by argparse (SystemExit), the rest by main
        try:
            code = cli.main([*argv, "-o", str(tmp_path / "out")])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_huge_rate_keeps_the_whole_space(self, capsys):
        code, out, _ = run(["simulate", BLIND, "--rate", "1e300", "--n", "1,2"], capsys)
        assert code == 0
        assert [float(line.split(",")[2]) for line in out.splitlines()[1:]] == [1.0, 1.0]

    @pytest.mark.parametrize("argv, fields", [
        (["region", BLIND, "--kind", "EQ", "--hi", "1e300", "--samples", "3"],
         ["E,Q", "0.000000,0.600876", "5.000000e+299,0.600876", "1.000000e+300,0.600876"]),
        (["simulate", BLIND, "--rate", "1e300", "--n", "1,2"],
         ["n,Q,fidelity", "1,1.000000e+300,1.0000000000", "2,1.000000e+300,1.0000000000"]),
    ], ids=["region-hi", "simulate-rate"])
    def test_huge_values_print_in_scientific_notation(self, capsys, argv, fields):
        # fixed point would print 1e300 as 301 digits and six decimals
        assert run(argv, capsys) == (0, "\n".join(fields) + "\n", "")


class TestUsage:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "eacomp" in capsys.readouterr().out

    def test_unknown_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rates", BLIND, "--frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_preprocess_flags_exclusive(self, tmp_path, capsys):
        u = tmp_path / "u.json"
        u.write_text("[[[1,0],[0,0]],[[0,0],[1,0]]]")
        with pytest.raises(SystemExit) as exc:
            cli.main(["rates", BLIND, "--apply-cnot", "--pre-unitary", str(u)])
        assert exc.value.code == 2


class TestRepeatedCalls:
    """main() parses with one parser per process; each call stays its own."""

    def test_parser_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for argv in (["validate", BLIND], ["rates", BLIND], ["region", BLIND, "--kind", "EQ"]):
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()

    def test_calls_stay_independent(self, tmp_path, capsys):
        u = tmp_path / "eye.json"
        u.write_text("[[[1,0],[0,0]],[[0,0],[1,0]]]")
        outputs = [tmp_path / f"rates{i}.json" for i in range(3)]
        unknown = ["rates", BLIND, "--frobnicate"]
        exclusive = ["rates", BLIND, "--apply-cnot", "--pre-unitary", str(u)]

        def refused(argv):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            return exc.value.code, capsys.readouterr()

        cli.build_parser.cache_clear()
        first_unknown, first_exclusive = refused(unknown), refused(exclusive)
        assert first_unknown[0] == 2 and "unrecognized arguments: --frobnicate" in first_unknown[1].err
        assert first_exclusive[0] == 2 and "not allowed with argument" in first_exclusive[1].err
        assert cli.main(["rates", TRIPLE, "-o", str(outputs[0])]) == 0
        assert cli.main(["rates", TRIPLE, "--apply-cnot"]) == 0
        assert cli.main(["rates", BLIND, "--pre-unitary", str(u), "-o", str(outputs[1])]) == 0
        capsys.readouterr()
        assert refused(unknown) == first_unknown
        assert refused(exclusive) == first_exclusive
        code, captured = refused(["--version"])
        assert code == 0 and captured.out == f"eacomp {__version__}\n"
        assert cli.main(["rates", TRIPLE, "-o", str(outputs[2])]) == 0
        assert outputs[2].read_bytes() == outputs[0].read_bytes()

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", BLIND, "--rate", "0.9", "--n", "2"], ["--code-dim-cap", "2"]),
        (["simulate", BLIND, "--rate", "0.9", "--n", "2,12"], ["--sequence-cap", "10"]),
        (["rates", TRIPLE], ["--matrix-cap", "2"]),
        (["rates", TRIPLE], ["--vector-cap", "1"]),
    ], ids=["code-dim-cap", "sequence-cap", "matrix-cap", "vector-cap"])
    def test_cap_flags_hold_for_one_call(self, capsys, argv, flag):
        caps = (limits.VECTOR_CAP, limits.MATRIX_CAP, limits.SEQUENCE_CAP, limits.CODE_DIM_CAP)
        fresh = run(argv, capsys)
        _, _, err = run([*argv, *flag], capsys)
        assert "exceed" in err and f"cap {flag[1]}" in err
        assert run(argv, capsys) == fresh
        assert (limits.VECTOR_CAP, limits.MATRIX_CAP, limits.SEQUENCE_CAP, limits.CODE_DIM_CAP) == caps


class TestRates:
    def test_report_matches_library(self, capsys):
        code, out, _ = run(["rates", BLIND], capsys)
        assert code == 0
        report = json.loads(out)
        e = load_ensemble(BLIND)
        opt = optimal_rates(analyze(e))
        assert report["schema_version"] == 1
        assert report["rates"]["optimal"]["Q"] == pytest.approx(opt.q, abs=1e-15)
        assert report["rates"]["optimal"]["E"] == pytest.approx(opt.e, abs=1e-15)
        assert "blind" in report["rates"]
        assert "classical_corner" in report["rates"]
        assert "visible" not in report["rates"]
        assert report["entropy_profile"]["S_A"] == pytest.approx(0.6008760366928562, abs=1e-12)

    def test_visible_report_sections(self, capsys):
        code, out, _ = run(["rates", VISIBLE], capsys)
        assert code == 0
        report = json.loads(out)
        assert "visible" in report["rates"]
        assert "blind" not in report["rates"]

    def test_output_file_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(["rates", TRIPLE, "-o", str(a)]) == 0
        assert cli.main(["rates", TRIPLE, "-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")
        # atomic write leaves no temp droppings
        assert not list(tmp_path.glob(".eacomp-*"))

    def test_output_files_get_a_plain_files_mode(self, tmp_path, capsys):
        # under umask 022 a plain write gives 0644, where the temp file
        # behind the atomic write starts at 0600
        old = os.umask(0o022)
        try:
            (tmp_path / "plain").write_text("")
            out = tmp_path / "region.csv"
            assert cli.main(["region", BLIND, "--kind", "EQ", "-o", str(out)]) == 0
            assert cli.main(["rates", BLIND, "-o", str(tmp_path / "rates.json")]) == 0
        finally:
            os.umask(old)
        capsys.readouterr()
        plain = (tmp_path / "plain").stat().st_mode
        assert plain & 0o777 == 0o644
        for name in ("region.csv", "region.json", "rates.json"):
            assert (tmp_path / name).stat().st_mode == plain

    def test_failed_write_removes_its_temp_file(self, tmp_path, capsys):
        # -o naming a directory: the temp file is written beside it, and
        # the rename over the directory fails
        target = tmp_path / "out"
        target.mkdir()
        code, out, err = run(["rates", BLIND, "-o", str(target)], capsys)
        assert (code, out) == (2, "") and str(target) in err
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []

    def test_apply_cnot_matches_library_preprocess(self, capsys):
        code, out, _ = run(["rates", TRIPLE, "--apply-cnot"], capsys)
        assert code == 0
        report = json.loads(out)
        e = apply_product_unitary(load_ensemble(TRIPLE), cnot_unitary())
        profile = analyze(e).profile
        assert report["rates"]["optimal"]["Q"] == pytest.approx(
            0.5 * (profile.s_a + profile.s_a_given_cy), abs=1e-12)

    def test_identity_pre_unitary_is_noop(self, tmp_path, capsys):
        u = tmp_path / "eye.json"
        eye = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(2)] for i in range(2)]
        u.write_text(json.dumps(eye))
        _, plain, _ = run(["rates", BLIND], capsys)
        _, pre, _ = run(["rates", BLIND, "--pre-unitary", str(u)], capsys)
        assert plain == pre

    @pytest.mark.parametrize("text, fault", [
        ("[[1, 0], [0, 1]]", None),
        ('{"u": 1}', "--pre-unitary: expected a list of rows"),
        (f"[[[{10**400}, 0], [0, 0]], [[0, 0], [1, 0]]]", "row 0: amplitude 0 = (inf+0j) is not finite"),
        ("[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]", "row 0: amplitude 0 = (nan+0j) is not finite"),
        ("[[[1, 0], [0, 0]], [[0, 0], [Infinity, 0]]]", "row 1: amplitude 1 = (inf+0j) is not finite"),
        ("[[[1, 0], [0, 0]], [[1, 0]]]", "--pre-unitary row 1: expected 2 amplitudes"),
    ], ids=["bare-reals", "object", "huge-int", "nan", "infinity", "ragged"])
    def test_malformed_pre_unitary_rejected(self, tmp_path, capsys, text, fault):
        u = tmp_path / "u.json"
        u.write_text(text)
        code, out, err = run(["rates", BLIND, "--pre-unitary", str(u)], capsys)
        assert "Traceback" not in err and "SVD did not converge" not in err
        if fault is None:  # bare reals, as an ensemble file takes them
            assert (code, out, err) == run(["rates", BLIND], capsys)
        else:
            assert (code, out) == (1, "") and fault in err

    def test_near_unitary_pre_unitary_leaves_rows_validate_refuses(self, tmp_path, capsys):
        # (1 + 4e-9) I is within check_isometry's 1e-8 of unitary, but its
        # rows miss validate's 1e-9 norm tolerance
        u = tmp_path / "u.json"
        u.write_text(json.dumps([[1 + 4e-9, 0], [0, 1 + 4e-9]]))
        code, out, err = run(["rates", BLIND, "--pre-unitary", str(u)], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"item {i} ({label!r}): psi norm deviates from 1 by 4.000e-09"
                                    for i, label in enumerate(("zero", "plus"))]

    def test_decompose_refuses_overlaps_above_matrix_cap(self, capsys):
        # sideinfo_triple's overlap matrices are 3 x 3
        assert run(["decompose", TRIPLE, "--matrix-cap", "2"], capsys) == (
            1, "", "matrix side 3 exceeds cap 2\n")

    def test_decompose_two_sectors(self, capsys):
        code, out, _ = run(["decompose", SECTORS], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["num_components"] == 2
        weights = [c["weight"] for c in report["components"]]
        assert weights == pytest.approx([0.6, 0.4], abs=1e-12)


class TestAnalysedOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count calls of the two analysis stages, rebinding every eacomp
        name that refers to them."""
        from eacomp import decomposition, rates

        counts = {}
        for module, name in ((decomposition, "irreducible_components"), (rates, "entropy_profile")):
            original = getattr(module, name)
            counts[name] = 0

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for modname, ns in list(sys.modules.items()):
                if modname == "eacomp" or modname.startswith("eacomp."):
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            monkeypatch.setattr(ns, attr, counted)
        return counts

    @pytest.mark.parametrize("argv", [
        ["rates", BLIND],
        ["rates", SECTORS],
        ["rates", VISIBLE],
        ["rates", TRIPLE],
        ["region", BLIND, "--kind", "EQ"],
        ["region", SECTORS, "--kind", "CE"],
        ["iepsilon", TRIPLE, "--eps", "0", "--restarts", "1", "--max-iters", "4", "--env-cap", "4"],
        ["iepsilon", BLIND, "--eps", "0", "--restarts", "1", "--max-iters", "4", "--env-cap", "4",
         "--check-lemma"],
    ])
    def test_one_decomposition_one_profile(self, calls, capsys, argv):
        code, _, err = run(argv, capsys)
        assert code == 0, err
        assert calls == {"irreducible_components": 1, "entropy_profile": 1}

    def test_no_dense_acy_wall(self, tmp_path, capsys):
        # visible, dA = 4: a dense rho_ACY would have side N * 4 * N, and
        # each component's A(x)C marginal side 4 * N; at N = 48 the first
        # is beyond the default MATRIX_CAP, and with the cap at N = 256
        # no matrix wider than the support may be diagonalised at all
        dim_a = 4
        for n, cap in ((48, None), (256, 256)):
            assert n * dim_a * n > limits.MATRIX_CAP
            rng = np.random.default_rng(4801 if n == 48 else 25601)
            states = rng.standard_normal((n, dim_a)) + 1j * rng.standard_normal((n, dim_a))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            path = tmp_path / f"visible{n}.json"
            save_ensemble(make_visible(states, rng.dirichlet(np.ones(n))), path)
            caps = [] if cap is None else ["--matrix-cap", str(cap)]
            code, out, err = run(["rates", str(path), *caps], capsys)
            assert code == 0, err
            report = json.loads(out)
            half_s_a = report["entropy_profile"]["S_A"] / 2
            assert report["entropy_profile"]["num_components"] == n
            for point in (report["rates"]["optimal"], report["rates"]["visible"]):
                assert point["Q"] == pytest.approx(half_s_a, abs=1e-9)
                assert point["E"] == pytest.approx(half_s_a, abs=1e-9)


class TestRegion:
    def test_csv_and_derived_spec_json(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        code = cli.main(["region", BLIND, "--kind", "EQ", "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "E,Q"
        assert len(lines) >= 3
        spec = json.loads((tmp_path / "eq.json").read_text())
        assert spec["kind"] == "EQ"

    def test_explicit_spec_out(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        spec_path = tmp_path / "constraints.json"
        code = cli.main(["region", BLIND, "--kind", "EQ", "-o", str(out),
                         "--spec-out", str(spec_path)])
        capsys.readouterr()
        assert code == 0
        assert spec_path.exists()
        assert not (tmp_path / "eq.json").exists()

    @pytest.mark.parametrize("argv", [["-o", "eq.json"], ["-o", "same.csv", "--spec-out", "same.csv"]])
    def test_spec_onto_the_csv_refused(self, argv, tmp_path, capsys, monkeypatch):
        # the spec JSON would replace the CSV; nothing is written
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["region", BLIND, "--kind", "EQ", *argv], capsys)
        assert code == 2
        assert out == "" and "--spec-out" in err
        assert not list(tmp_path.iterdir())

    def test_stdout_mode_writes_no_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["region", BLIND, "--kind", "CE"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "C,E"
        assert not list(tmp_path.iterdir())

    def test_ce_range_below_the_corner_is_the_header_alone(self, capsys):
        # --hi below the CE corner's C leaves no boundary to sample
        assert run(["region", BLIND, "--kind", "CE", "--hi", "-5"], capsys) == (0, "C,E\n", "")

    @pytest.mark.parametrize("samples, message", [
        ("1", "samples must be >= 2, got 1"),
        (str(MAX_SAMPLES + 1), f"samples must be <= {MAX_SAMPLES}, got {MAX_SAMPLES + 1}"),
    ], ids=["below", "above"])
    def test_samples_out_of_range_refused_before_the_analysis(self, monkeypatch, capsys, samples, message):
        monkeypatch.setattr(cli, "analyze", lambda *args: pytest.fail("analysed"))
        argv = ["region", BLIND, "--kind", "EQ", "--samples", samples]
        assert run(argv, capsys) == (2, "", message + "\n")

    def test_ce_needs_blind_exit_1(self, capsys):
        code, _, err = run(["region", VISIBLE, "--kind", "CE"], capsys)
        assert code == 1
        assert err.strip()

    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.main(["region", TRIPLE, "--kind", "EQ", "-o", str(a)])
        cli.main(["region", TRIPLE, "--kind", "EQ", "-o", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestOutputPaths:
    """An output that would replace the ensemble, the --pre-unitary file or
    another output, or that is no file in an existing directory, is
    refused before the source is read: exit 2 naming the option and the
    path, and nothing written."""

    @pytest.mark.parametrize("argv, option, path", [
        (["region", "s.json", "--kind", "EQ", "-o", "s.csv"], "--spec-out", "s.json"),
        (["rates", "s.json", "-o", "s.json"], "-o", "s.json"),
        (["region", "s.json", "--kind", "EQ", "-o", "eq.csv", "--spec-out", "missing/eq.json"],
         "--spec-out", "missing/eq.json"),
        (["rates", "s.json", "-o", "U.json", "--pre-unitary", "U.json"], "-o", "U.json"),
        (["decompose", "s.json", "-o", "."], "-o", "."),
    ], ids=["derived-spec-onto-source", "report-onto-source", "spec-in-missing-directory",
            "report-onto-pre-unitary", "report-onto-directory"])
    def test_refused_before_the_source_is_read(self, tmp_path, capsys, monkeypatch, argv, option, path):
        monkeypatch.chdir(tmp_path)
        Path("s.json").write_text(Path(BLIND).read_text())
        Path("U.json").write_text("[[1, 0], [0, 1]]")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(cli, "load_ensemble", lambda *args: pytest.fail("source read"))
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert path in err and err.endswith(f"; give {option} another path\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_replace_removes_the_temporary_file(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        target = tmp_path / "r.json"
        code, out, err = run(["rates", BLIND, "-o", str(target)], capsys)
        assert (code, out, err) == (2, "", f"cannot replace {target}\n")
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_csv_matches_library(self, capsys):
        code, out, err = run(["simulate", BLIND, "--rate", "0.8", "--n", "1,2,3"], capsys)
        assert code == 0
        curve = fidelity_curve(load_ensemble(BLIND), [1, 2, 3], 0.8)
        assert out == curve.csv()
        assert err == ""

    def test_bad_block_list_exit_2(self, capsys):
        code, _, err = run(["simulate", BLIND, "--rate", "0.8", "--n", "2,0"], capsys)
        assert code == 2
        assert "positive integers" in err

    def test_sequence_cap_skips_with_warning(self, capsys):
        code, out, err = run(
            ["simulate", BLIND, "--rate", "0.8", "--n", "2,12", "--sequence-cap", "1000"],
            capsys)
        assert code == 0
        assert "skipped" in err
        rows = [ln for ln in out.splitlines()[1:] if ln]
        assert len(rows) == 1 and rows[0].startswith("2,")

    @pytest.mark.parametrize("flags,built,out,err", [
        (["--n", "10,11,12,13,14,15"], 2,
         "n,Q,fidelity\n10,0.750000,0.9007555804\n11,0.750000,0.8839986399\n",
         "skipped n=12: 3^12 sequences exceed cap 200000; lower n\n"
         "skipped n=13: 3^13 sequences exceed cap 200000; lower n\n"
         "skipped n=14: 3^14 sequences exceed cap 200000; lower n\n"
         "skipped n=15: block dimension 2^15 exceeds cap 16384; lower n\n"),
        (["--n", "2,12,3", "--sequence-cap", "1000"], 2,
         "n,Q,fidelity\n2,0.750000,0.8810165574\n3,0.750000,0.9287534248\n",
         "skipped n=12: 3^12 sequences exceed cap 1000; lower n\n"),
        (["--n", "9,15", "--code-dim-cap", "256"], 0, "n,Q,fidelity\n",
         "skipped n=9: block dimension 2^9 exceeds cap 256; lower n\n"
         "skipped n=15: block dimension 2^15 exceeds cap 256; lower n\n"),
    ])
    def test_capped_sizes_build_no_code(self, tmp_path, capsys, monkeypatch, flags, built, out, err):
        # three qubit signals: from n = 12 the sequences pass their cap while
        # the code would still fit, and the dimension message wins at n = 15
        r = 0.7071067811865476
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"dimA": 2, "dimC": 1, "states": [
            {"label": "zero", "prob": 0.5, "psi": [[1.0, 0.0], [0.0, 0.0]]},
            {"label": "plus", "prob": 0.3, "psi": [[r, 0.0], [r, 0.0]]},
            {"label": "turn", "prob": 0.2, "psi": [[r, 0.0], [0.0, r]]}]}))
        builds = []
        real = schumacher._code_space
        monkeypatch.setattr(schumacher, "_code_space", lambda e, n, *rest: builds.append(n) or real(e, n, *rest))
        assert run(["simulate", str(path), "--rate", "0.75", *flags], capsys) == (0, out, err)
        assert len(builds) == built

    qubits = range(1, 15)

    @pytest.mark.parametrize("dim_a,states,ns", [
        # a norm and a probability sum just inside validate's 1e-9
        (2, [("a", 0.5, [[1.0000000009, 0.0], [0.0, 0.0]]), ("b", 0.5, [[0.0, 0.0], [1.0, 0.0]])], qubits),
        (2, [("a", 1.0000000005, [[1.0, 0.0], [0.0, 0.0]])], qubits),
        (1, [("a", 1.0000000009, [[1.0, 0.0]])], (1, 3, 100, 16384)),
    ])
    def test_sources_at_the_validation_tolerances(self, tmp_path, capsys, dim_a, states, ns):
        # the full code at every n: the table check must allow for a trace
        # above 1, and for the top eigenvalue clamped to 1 under it
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"dimA": dim_a, "dimC": 1, "states": [
            {"label": label, "prob": prob, "psi": psi} for label, prob, psi in states]}))
        out = "n,Q,fidelity\n" + "".join(f"{n},1.200000,1.0000000000\n" for n in ns)
        flags = ["--rate", "1.2", "--n", ",".join(map(str, ns))]
        assert run(["simulate", str(path), *flags], capsys) == (0, out, "")

    def test_tolerance_is_not_an_option(self, capsys):
        # the simulator reads no overlap graph
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", BLIND, "--rate", "0.8", "--n", "2", "--tol", "0.5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --tol 0.5" in captured.err

    def test_blind_required_exit_1(self, capsys):
        code, _, err = run(["simulate", TRIPLE, "--rate", "0.9", "--n", "1,2"], capsys)
        assert code == 1
        assert err.strip()

    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["simulate", SECTORS, "--rate", "0.9", "--n", "1,2,4", "-o", str(a)]) == 0
        assert cli.main(["simulate", SECTORS, "--rate", "0.9", "--n", "1,2,4", "-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestIEpsilon:
    def test_smoke_report(self, capsys):
        code, out, _ = run(
            ["iepsilon", BLIND, "--eps", "0.1,0.0", "--restarts", "1",
             "--max-iters", "8", "--env-cap", "4", "--seed", "3"],
            capsys)
        assert code == 0
        report = json.loads(out)
        eps_seen = [est["eps"] for est in report["estimates"]]
        assert eps_seen == [0.0, 0.1]  # sorted ascending regardless of input order
        floor = report["bounds"]["floor_I_X_C"]
        for est in report["estimates"]:
            assert est["estimate"] >= floor - 1e-9
            assert 0.0 <= est["fidelity"] <= 1.0 + 1e-12

    def test_empty_eps_exit_2(self, capsys):
        code, _, err = run(["iepsilon", BLIND, "--eps", ","], capsys)
        assert code == 2
        assert "--eps" in err

    @pytest.mark.parametrize("restarts", ["1", "4"])
    def test_negative_seed_is_refused_before_the_analysis(self, monkeypatch, capsys, restarts):
        # restarts = 1 on sideinfo_triple draws no random start or kick,
        # so a negative seed used to run and be echoed into the report
        monkeypatch.setattr(cli, "analyze", lambda *args: pytest.fail("analysed"))
        argv = ["iepsilon", TRIPLE, "--eps", "0.1", "--restarts", restarts, "--seed", "-1"]
        assert run(argv, capsys) == (2, "", "seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("probs, scale", [
        ([0.45, 0.45 - 8e-10, 0.1], 1.0),
        ([0.45, 0.45, 0.1], 1.0 + 8e-10),
        ([0.45, 0.45, 0.1, -5e-10], 1.0),
    ], ids=["probability-sum", "row-norm", "negative-probability"])
    def test_check_lemma_on_a_source_at_the_tolerances(self, tmp_path, capsys, probs, scale):
        # the two-copy source of a source within validate's tolerances
        # passes them too; an item at a negative probability within them
        # is left out of the pairs
        r = 1 / math.sqrt(2)
        psis = [[[scale, 0], [0, 0]], [[0, 0], [1, 0]], [[r, 0], [r, 0]], [[1, 0], [0, 0]]]
        sigmas = [[[1, 0], [0, 0]], [[1, 0], [0, 0]], [[r, 0], [r, 0]], [[0, 0], [1, 0]]]
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"dimA": 2, "dimC": 2, "states": [
            {"label": str(i), "prob": p, "psi": psis[i], "sigma": sigmas[i]} for i, p in enumerate(probs)]}))
        assert run(["validate", str(path)], capsys)[0] == 0
        code, out, err = run(["iepsilon", str(path), "--eps", "0,0.1", "--restarts", "1",
                              "--max-iters", "8", "--check-lemma"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["lemma_checks"]["subadditive_ok"] is True

    @pytest.mark.parametrize("flags", [[], ["--check-lemma"]], ids=["plain", "check-lemma"])
    def test_source_short_of_unit_sum_and_norms(self, tmp_path, capsys, flags):
        # sideinfo_triple with its probabilities scaled by 1 - 1e-9 and
        # its psi rows by 1 - 9.9e-10 passes validate; the search runs on
        # the rescaled support, so its identity start is feasible
        doc = json.loads(Path(TRIPLE).read_text())
        for state in doc["states"]:
            state["prob"] *= 1 - 1e-9
            state["psi"] = [[re * (1 - 9.9e-10), im * (1 - 9.9e-10)] for re, im in state["psi"]]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", str(path)], capsys)[0] == 0
        code, out, err = run(["iepsilon", str(path), "--eps", "0,0.1", *flags], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert [est["eps"] for est in report["estimates"]] == [0.0, 0.1]
        want = json.loads(run(["iepsilon", TRIPLE, "--eps", "0,0.1", *flags], capsys)[1])
        for got, ref in zip(report["estimates"], want["estimates"]):
            assert abs(got["estimate"] - ref["estimate"]) <= 1e-6

    def test_env_dim_below_one_is_refused_before_the_analysis(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "analyze", lambda *args: pytest.fail("analysed"))
        argv = ["iepsilon", BLIND, "--eps", "0", "--env-dim", "0"]
        assert run(argv, capsys) == (2, "", "env_dim must be >= 1, got 0\n")

    def test_env_dim_above_the_bound_is_refused_before_the_analysis(self, monkeypatch, capsys):
        # blind_pair has dimA * dimC = 2, so |W| is at most 4
        monkeypatch.setattr(cli, "analyze", lambda *args: pytest.fail("analysed"))
        argv = ["iepsilon", BLIND, "--eps", "0", "--env-dim", "5"]
        assert run(argv, capsys) == (2, "", "env_dim must lie in [1, 4], got 5\n")

    def test_repeated_eps_has_flat_secants(self, capsys):
        # a secant over a zero-width span of the grid holds trivially
        code, out, _ = run(["iepsilon", BLIND, "--eps", "0.1,0.1,0.1", "--restarts", "1",
                            "--max-iters", "8", "--check-lemma"], capsys)
        assert code == 0
        assert json.loads(out)["lemma_checks"]["concave_secants_ok"] == [True]

    def test_check_lemma_section(self, capsys):
        code, out, _ = run(
            ["iepsilon", BLIND, "--eps", "0.0,0.1", "--restarts", "1",
             "--max-iters", "8", "--env-cap", "4", "--check-lemma"],
            capsys)
        assert code == 0
        report = json.loads(out)
        assert report["lemma_checks"]["floor_ok"] is True
        assert len(report["estimates"]) == 2


class TestEnvCaps:
    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
    def test_env_cap_must_be_a_positive_integer(self, monkeypatch, raw):
        # the module reads each EACOMP_*_CAP through _env_int at import
        monkeypatch.setenv("EACOMP_MATRIX_CAP", raw)
        with pytest.raises(ValueError, match=f"^EACOMP_MATRIX_CAP must be a positive integer, got '{raw}'$"):
            limits._env_int("EACOMP_MATRIX_CAP", 5)

    @pytest.mark.parametrize("raw, cap", [("", 5), (" ", 5), ("7", 7), (" +12 ", 12)])
    def test_env_cap_or_default(self, monkeypatch, raw, cap):
        monkeypatch.setenv("EACOMP_MATRIX_CAP", raw)
        assert limits._env_int("EACOMP_MATRIX_CAP", 5) == cap


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(["eacomp", "validate", BLIND],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")

    def test_module_invocation_malformed_input(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("[1, 2,")
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "eacomp.cli", "rates", str(bad)],
                              capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 2
        assert "malformed JSON" in proc.stderr

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
    def test_module_invocation_matches_in_process(self, tmp_path, name):
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "eacomp.cli", "rates", str(DATA / name), "-o", str(tmp_path / "process.json")],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert cli.main(["rates", str(DATA / name), "-o", str(tmp_path / "in_process.json")]) == 0
        assert (tmp_path / "process.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()

    @pytest.mark.parametrize("name", ["blind_pair.json", "blind_two_sectors.json"])
    def test_simulate_same_under_one_and_two_blas_threads(self, name):
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "eacomp.cli", "simulate", str(DATA / name),
                 "--rate", "0.7", "--n", ",".join(map(str, range(1, 15)))],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0].count("\n") > 1

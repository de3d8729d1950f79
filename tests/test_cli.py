"""End-to-end checks of the command-line front end.

Most tests drive cli.main() in process to keep the suite fast; two
subprocess tests confirm the installed console script works at all.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eacomp import (
    apply_product_unitary,
    cli,
    cnot_unitary,
    entropy_profile,
    fidelity_curve,
    limits,
    load_ensemble,
    make_visible,
    optimal_rates,
    save_ensemble,
)

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


class TestRates:
    def test_report_matches_library(self, capsys):
        code, out, _ = run(["rates", BLIND], capsys)
        assert code == 0
        report = json.loads(out)
        e = load_ensemble(BLIND)
        opt = optimal_rates(e)
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

    def test_apply_cnot_matches_library_preprocess(self, capsys):
        code, out, _ = run(["rates", TRIPLE, "--apply-cnot"], capsys)
        assert code == 0
        report = json.loads(out)
        e = apply_product_unitary(load_ensemble(TRIPLE), cnot_unitary())
        profile = entropy_profile(e)
        assert report["rates"]["optimal"]["Q"] == pytest.approx(
            0.5 * (profile.s_a + profile.s_a_given_cy), abs=1e-12)

    def test_identity_pre_unitary_is_noop(self, tmp_path, capsys):
        u = tmp_path / "eye.json"
        eye = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(2)] for i in range(2)]
        u.write_text(json.dumps(eye))
        _, plain, _ = run(["rates", BLIND], capsys)
        _, pre, _ = run(["rates", BLIND, "--pre-unitary", str(u)], capsys)
        assert plain == pre

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
        # visible, N = 48, dA = 4: a dense rho_ACY would have side
        # 48 * 4 * 48 = 9216, beyond the default MATRIX_CAP
        n, dim_a = 48, 4
        assert n * dim_a * n > limits.MATRIX_CAP
        rng = np.random.default_rng(4801)
        states = rng.standard_normal((n, dim_a)) + 1j * rng.standard_normal((n, dim_a))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        path = tmp_path / "visible48.json"
        save_ensemble(make_visible(states, rng.dirichlet(np.ones(n))), path)
        code, out, err = run(["rates", str(path)], capsys)
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

    def test_stdout_mode_writes_no_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["region", BLIND, "--kind", "CE"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "C,E"
        assert not list(tmp_path.iterdir())

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

    def test_check_lemma_section(self, capsys):
        code, out, _ = run(
            ["iepsilon", BLIND, "--eps", "0.0,0.1", "--restarts", "1",
             "--max-iters", "8", "--env-cap", "4", "--check-lemma"],
            capsys)
        assert code == 0
        report = json.loads(out)
        assert report["lemma_checks"]["floor_ok"] is True
        assert len(report["estimates"]) == 2


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(["eacomp", "validate", BLIND],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")

    def test_module_invocation_malformed_input(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("[1, 2,")
        proc = subprocess.run([sys.executable, "-m", "eacomp.cli", "rates", str(bad)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "malformed JSON" in proc.stderr

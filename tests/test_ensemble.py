import json
import math

import numpy as np
import pytest

from eacomp import limits
from eacomp.ensemble import (
    Ensemble,
    EnsembleItem,
    apply_product_unitary,
    cnot_unitary,
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    make_blind,
    make_visible,
    reduced,
    save_ensemble,
    tensor_power,
    validate,
)
from eacomp.errors import (
    DimensionLimitError,
    EacompError,
    EnsembleFormatError,
    IsometryError,
    LabelError,
    LayoutMismatchError,
)
from eacomp.states import PureStateVector, single

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def blind_pair():
    return make_blind([[1, 0], PLUS], [0.5, 0.5])


def sideinfo_triple(t=0.05):
    items = []
    for lbl, pr, psi, sig in [
        ("0", 0.5 - t, [1, 0], [1, 0]),
        ("1", 0.5 - t, [0, 1], [1, 0]),
        ("2", 2 * t, PLUS, PLUS),
    ]:
        items.append(
            EnsembleItem(
                lbl,
                pr,
                PureStateVector(single("A", 2), np.asarray(psi, complex)),
                PureStateVector(single("C", 2), np.asarray(sig, complex)),
            )
        )
    return Ensemble(2, 2, tuple(items))


class TestConstructors:
    def test_blind(self):
        e = blind_pair()
        assert e.dim_c == 1
        assert e.is_blind() and not e.is_visible()
        assert e.labels == ("0", "1")
        assert validate(e) == []

    def test_visible(self):
        e = make_visible([[1, 0], PLUS], [0.5, 0.5])
        assert e.dim_c == 2
        assert e.is_visible() and not e.is_blind()
        np.testing.assert_allclose(e.items[1].sigma.amplitudes, [0, 1])

    def test_identical_sigmas_count_as_blind(self):
        e = sideinfo_triple()
        assert not e.is_blind()
        same = Ensemble(
            2,
            2,
            tuple(EnsembleItem(it.label, it.prob, it.psi, e.items[0].sigma) for it in e.items),
        )
        assert same.is_blind()

    def test_support_skips_zero_prob(self):
        e = make_blind([[1, 0], [0, 1], PLUS], [0.5, 0.0, 0.5])
        assert e.support() == (0, 2)

    def test_dim_mismatch(self):
        with pytest.raises(LayoutMismatchError):
            Ensemble(3, 1, blind_pair().items)
        with pytest.raises(EnsembleFormatError):
            Ensemble(2, 1, ())


class TestValidate:
    def test_flags_problems(self):
        bad = Ensemble(
            2,
            1,
            (
                EnsembleItem("x", 0.7, PureStateVector(single("A", 2), [1, 1], check=False),
                             PureStateVector(single("C", 1), [1])),
                EnsembleItem("x", 0.7, PureStateVector(single("A", 2), [1, 0]),
                             PureStateVector(single("C", 1), [1])),
            ),
        )
        msgs = validate(bad)
        assert any("psi norm" in m for m in msgs)
        assert any("probability sum" in m for m in msgs)
        assert any("duplicate label" in m for m in msgs)

    def test_flags_non_finite(self):
        bad = Ensemble(
            2,
            1,
            (
                EnsembleItem("p", float("nan"), PureStateVector(single("A", 2), [1, 0]),
                             PureStateVector(single("C", 1), [1])),
                EnsembleItem("q", 0.5, PureStateVector(single("A", 2), [np.inf, 0], check=False),
                             PureStateVector(single("C", 1), [1])),
            ),
        )
        msgs = validate(bad)
        assert any("'p'): probability nan is not finite" in m for m in msgs)
        assert any("'q'): psi has non-finite amplitudes" in m for m in msgs)

    def test_clean(self):
        assert validate(sideinfo_triple()) == []


class TestReduced:
    def test_marginals(self):
        e = sideinfo_triple(0.05)
        rho_a = reduced(e, {"A"})
        expect = np.array([[0.5, 0.05], [0.05, 0.5]])
        np.testing.assert_allclose(rho_a.entries, expect, atol=1e-12)
        rho_c = reduced(e, {"C"})
        expect_c = np.array([[0.95, 0.05], [0.05, 0.05]])
        np.testing.assert_allclose(rho_c.entries, expect_c, atol=1e-12)

    def test_joint_consistent_with_parts(self):
        from eacomp.states import partial_trace

        e = sideinfo_triple()
        rho_ac = reduced(e, {"A", "C"})
        np.testing.assert_allclose(
            partial_trace(rho_ac, {"A"}).entries, reduced(e, {"A"}).entries, atol=1e-12
        )

    def test_bad_keep(self):
        e = blind_pair()
        with pytest.raises(LabelError):
            reduced(e, set())
        with pytest.raises(LabelError):
            reduced(e, {"A", "X"})


class TestTensorPower:
    def test_n1_is_same(self):
        e = blind_pair()
        e1 = tensor_power(e, 1)
        assert e1.labels == e.labels
        np.testing.assert_allclose(e1.items[1].psi.amplitudes, e.items[1].psi.amplitudes)

    def test_square(self):
        e = tensor_power(blind_pair(), 2)
        assert e.size == 4 and e.dim_a == 4 and e.dim_c == 1
        assert e.labels == ("0,0", "0,1", "1,0", "1,1")
        assert abs(sum(it.prob for it in e.items) - 1) < 1e-12
        np.testing.assert_allclose(
            e.items[1].psi.amplitudes, np.kron([1, 0], PLUS), atol=1e-15
        )

    def test_label_separator_avoids_collisions(self):
        e = make_blind([[1, 0], PLUS], [0.5, 0.5], labels=["1", "11"])
        sq = tensor_power(e, 2)
        assert len(set(sq.labels)) == 4

    def test_caps(self):
        old = limits.SEQUENCE_CAP
        limits.SEQUENCE_CAP = 8
        try:
            with pytest.raises(DimensionLimitError):
                tensor_power(blind_pair(), 4)
        finally:
            limits.SEQUENCE_CAP = old
        with pytest.raises(ValueError):
            tensor_power(blind_pair(), 0)


class TestProductUnitary:
    def test_cnot_on_triple(self):
        e2 = apply_product_unitary(sideinfo_triple(), cnot_unitary())
        # |0>|0> -> |0>|0>, |1>|0> -> |1>|1>, |+>|+> -> |+>|+>
        got = [
            (np.abs(it.psi.amplitudes), np.abs(it.sigma.amplitudes)) for it in e2.items
        ]
        np.testing.assert_allclose(got[0][0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(got[0][1], [1, 0], atol=1e-12)
        np.testing.assert_allclose(got[1][0], [0, 1], atol=1e-12)
        np.testing.assert_allclose(got[1][1], [0, 1], atol=1e-12)
        np.testing.assert_allclose(got[2][0], np.abs(PLUS), atol=1e-12)
        np.testing.assert_allclose(got[2][1], np.abs(PLUS), atol=1e-12)

    def test_joint_state_preserved(self):
        e = sideinfo_triple()
        u = cnot_unitary()
        e2 = apply_product_unitary(e, u)
        for it, it2 in zip(e.items, e2.items):
            before = u @ np.kron(it.psi.amplitudes, it.sigma.amplitudes)
            after = np.kron(it2.psi.amplitudes, it2.sigma.amplitudes)
            # equal up to global phase
            assert abs(abs(np.vdot(before, after)) - 1) < 1e-10

    def test_rejects_entangler(self):
        # Hadamard on A then CNOT sends |00> to a Bell state
        had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = cnot_unitary() @ np.kron(had, np.eye(2))
        with pytest.raises(EacompError, match="entangles"):
            apply_product_unitary(sideinfo_triple(), u)

    def test_rejects_non_unitary(self):
        with pytest.raises(IsometryError):
            apply_product_unitary(sideinfo_triple(), np.eye(4) * 0.5)
        with pytest.raises(IsometryError, match="nan"):
            apply_product_unitary(sideinfo_triple(), np.full((4, 4), np.nan))
        with pytest.raises(LayoutMismatchError):
            apply_product_unitary(blind_pair(), np.eye(4))


class TestJson:
    def test_round_trip(self, tmp_path):
        for e in (blind_pair(), sideinfo_triple(), make_visible([[1, 0], PLUS], [0.5, 0.5])):
            path = tmp_path / "e.json"
            save_ensemble(e, path)
            back = load_ensemble(path)
            assert back.dim_a == e.dim_a and back.dim_c == e.dim_c
            assert back.labels == e.labels
            for a, b in zip(back.items, e.items):
                assert abs(a.prob - b.prob) < 1e-15
                np.testing.assert_allclose(a.psi.amplitudes, b.psi.amplitudes, atol=1e-15)
                np.testing.assert_allclose(a.sigma.amplitudes, b.sigma.amplitudes, atol=1e-15)

    def test_sigma_omitted_means_blind(self):
        e = ensemble_from_json(
            {
                "dimA": 2,
                "dimC": 1,
                "states": [
                    {"label": "a", "prob": 1.0, "psi": [[1, 0], [0, 0]]},
                ],
            }
        )
        assert e.is_blind()

    def test_visible_flag(self):
        e = ensemble_from_json(
            {
                "dimA": 2,
                "visible": True,
                "states": [
                    {"label": "a", "prob": 0.5, "psi": [[1, 0], [0, 0]]},
                    {"label": "b", "prob": 0.5, "psi": [[0, 0], [1, 0]]},
                ],
            }
        )
        assert e.dim_c == 2 and e.is_visible()

    def test_bare_real_amplitudes(self):
        e = ensemble_from_json(
            {"dimA": 2, "states": [{"label": "a", "prob": 1.0, "psi": [1, 0]}]}
        )
        assert e.items[0].psi.amplitudes[0] == 1.0

    def test_violations_collected(self):
        with pytest.raises(EnsembleFormatError) as err:
            ensemble_from_json(
                {
                    "dimA": 2,
                    "dimC": 1,
                    "bogus": 1,
                    "states": [
                        {"label": "a", "prob": 0.9, "psi": [[1, 0], [1, 0]]},
                        {"label": "a", "prob": 0.9, "psi": [[1, 0], [0, 0]], "junk": 2},
                    ],
                }
            )
        text = "\n".join(err.value.violations)
        assert "unknown key 'bogus'" in text
        assert "unknown key 'junk'" in text
        assert "psi norm" in text
        assert "probability sum" in text
        assert "duplicate label" in text

    @pytest.mark.parametrize("change, line", [
        ({"visible": 1}, "'visible' must be a boolean"),
        ({"visible": True, "dimC": 3}, "visible ensembles need dimC = number of states (2)"),
        ({"states": [1, {"prob": 1.0, "psi": [1, 0]}]}, "state 0: must be an object"),
        ({"visible": True, "states": [{"prob": 0.5, "psi": [1, 0], "sigma": [1, 0]},
                                      {"prob": 0.5, "psi": [0, 1]}]},
         "state 0: sigma conflicts with top-level 'visible'"),
    ], ids=["visible-type", "visible-dimC", "state-type", "visible-sigma"])
    def test_structural_violation_reported(self, change, line):
        pair = {"dimA": 2, "states": [{"prob": 0.5, "psi": [1, 0]}, {"prob": 0.5, "psi": [0, 1]}]}
        with pytest.raises(EnsembleFormatError) as err:
            ensemble_from_json({**pair, **change})
        assert line in err.value.violations

    def test_int_too_large_for_float_is_not_finite(self):
        with pytest.raises(EnsembleFormatError, match="is not finite"):
            ensemble_from_json(
                {"dimA": 2, "states": [{"label": "a", "prob": 10**400, "psi": [1, 0]}]}
            )
        with pytest.raises(EnsembleFormatError, match="is not finite"):
            ensemble_from_json(
                {"dimA": 2, "states": [{"label": "a", "prob": 1.0, "psi": [[1, 0], [10**400, 0]]}]}
            )

    def test_parser_reports_what_validate_reports(self):
        psis = [[1, 1], [np.inf, np.nan], [1, 0]]
        probs = [-0.1, 0.6, 0.7]
        labels = ["a", "a", "c"]
        with pytest.raises(EnsembleFormatError) as err:
            ensemble_from_json({"dimA": 2, "states": [
                {"label": l, "prob": p, "psi": v} for l, p, v in zip(labels, probs, psis)]})
        in_memory = Ensemble(2, 1, tuple(
            EnsembleItem(l, p, PureStateVector(single("A", 2), v, check=False),
                         PureStateVector(single("C", 1), [1]))
            for l, p, v in zip(labels, probs, psis)))
        # negative prob, norm, one line per non-finite amplitude, sum, duplicate
        assert len(err.value.violations) == 6
        assert set(err.value.violations) == set(validate(in_memory))

    def test_sigma_required_when_dimc_gt1(self):
        with pytest.raises(EnsembleFormatError, match="sigma required"):
            ensemble_from_json(
                {"dimA": 2, "dimC": 2, "states": [{"label": "a", "prob": 1.0, "psi": [[1, 0], [0, 0]]}]}
            )

    def test_malformed_top_level(self):
        with pytest.raises(EnsembleFormatError):
            ensemble_from_json({"dimA": 0, "states": [{"prob": 1.0, "psi": [1, 0]}]})
        with pytest.raises(EnsembleFormatError):
            ensemble_from_json({"dimA": 2, "states": []})
        with pytest.raises(EnsembleFormatError):
            ensemble_from_json([1, 2])

    def test_json_decode_error_propagates(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{ nope")
        with pytest.raises(json.JSONDecodeError):
            load_ensemble(p)

    def test_to_json_omits_trivial_sigma(self):
        d = ensemble_to_json(blind_pair())
        assert "sigma" not in d["states"][0]
        d = ensemble_to_json(sideinfo_triple())
        assert "sigma" in d["states"][0]

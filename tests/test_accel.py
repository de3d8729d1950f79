import itertools
import json
import math
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import fsum_block_fidelity, per_code_curve, prefix_tree_block_fidelity
from eacomp import _accel, limits, schumacher
from eacomp._accel import SequenceTables, _exact_sum, block_fidelity, unitary_objective
from eacomp.ensemble import load_ensemble, make_blind
from eacomp.errors import ConsistencyError, EacompError
from eacomp.schumacher import build_code_space, fidelity_curve, simulate_fidelity

DATA = Path(__file__).resolve().parent.parent / "data"


def rand_block_inputs(rng, ns=3, d=3, n=4, rank=7):
    probs = rng.dirichlet(np.ones(ns))
    # rows of g are measurement distributions over d outcomes
    g = rng.dirichlet(np.ones(d), size=ns)
    sel = np.zeros((rank, n), dtype=np.int64)
    sel[1:] = rng.integers(0, d, size=(rank - 1, n))
    return probs, g, sel


def random_blind(rng, ns, da):
    states = rng.standard_normal((ns, da)) + 1j * rng.standard_normal((ns, da))
    states /= np.linalg.norm(states, axis=1)[:, None]
    return make_blind(states, rng.dirichlet(np.ones(ns)))


def kernel_fidelity(probs, g, sel):
    """block_fidelity's F, on fresh tables."""
    return block_fidelity(SequenceTables(probs, g), sel).fidelity


def enumerated_fidelity(probs, g, sel):
    """Sum over every sequence of p(x^n) F(x^n), one code row at a time."""
    total = 0.0
    for seq in itertools.product(range(len(probs)), repeat=sel.shape[1]):
        ppass = min(sum(math.prod(g[x, k] for x, k in zip(seq, row)) for row in sel), 1.0)
        fail = math.prod(g[x, k] for x, k in zip(seq, sel[0]))
        total += math.prod(probs[x] for x in seq) * math.sqrt(ppass**2 + (1.0 - ppass) * fail)
    return total


def rand_objective_inputs(rng, da=2, dc=2, dw=3, nx=3):
    d_in = da * dc
    m = rng.standard_normal((dw * d_in, d_in)) + 1j * rng.standard_normal((dw * d_in, d_in))
    v, _ = np.linalg.qr(m)
    probs = rng.dirichlet(np.ones(nx))
    phis = rng.standard_normal((nx, d_in)) + 1j * rng.standard_normal((nx, d_in))
    phis /= np.linalg.norm(phis, axis=1)[:, None]
    return v, phis, probs, da, dc, dw


class TestBlockFidelityAgreement:
    def test_matches_sequence_enumeration(self):
        rng = np.random.default_rng(99)
        for trial in range(30):
            probs, g, sel = rand_block_inputs(
                rng,
                ns=int(rng.integers(1, 4)),
                d=int(rng.integers(1, 4)),
                n=int(rng.integers(1, 6)),
                rank=int(rng.integers(1, 12)),
            )
            if len(sel) > 2:
                sel[-1] = sel[1]  # a duplicated row counts twice
            assert abs(kernel_fidelity(probs, g, sel) - enumerated_fidelity(probs, g, sel)) <= 1e-12, trial

    def test_range(self):
        rng = np.random.default_rng(100)
        for _ in range(5):
            probs, g, sel = rand_block_inputs(rng)
            assert 0.0 <= kernel_fidelity(probs, g, sel) <= 1.0


class TestBlockFidelityOracle:
    """The head/tail kernel against the prefix-tree kernel it replaced."""

    def assert_agrees(self, probs, g, sel):
        got = kernel_fidelity(probs, g, sel)
        assert got == fsum_block_fidelity(probs, g, sel)
        assert abs(got - prefix_tree_block_fidelity(probs, g, sel)) <= 1e-14

    def test_random_codes(self):
        rng = np.random.default_rng(104)
        for _ in range(300):
            ns, d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 8))
            probs, g, sel = rand_block_inputs(rng, ns=ns, d=d, n=n, rank=int(rng.integers(1, 40)))
            sel[0] = rng.integers(0, d, size=n)  # unsorted rows, any failure row
            dups = rng.integers(0, len(sel), size=int(rng.integers(0, 4)))
            sel = np.concatenate([sel, sel[dups]])  # a duplicated row counts twice
            if ns > 1 and rng.random() < 0.3:
                probs[rng.integers(ns)] = 0.0
                probs /= probs.sum()
            self.assert_agrees(probs, g, sel)

    @pytest.mark.parametrize("ns,d,n", [(3, 3, 1), (3, 1, 6), (1, 3, 5), (1, 1, 1), (2, 2, 1)])
    def test_degenerate_sizes(self, ns, d, n):
        rng = np.random.default_rng(105)
        for rank in (1, 2, 5):
            probs, g, sel = rand_block_inputs(rng, ns=ns, d=d, n=n, rank=rank)
            self.assert_agrees(probs, g, sel)

    @pytest.mark.parametrize("ns,d,n", [(2, 2, 7), (3, 3, 4), (3, 2, 5)])
    def test_full_code(self, ns, d, n):
        rng = np.random.default_rng(106)
        probs, g, _ = rand_block_inputs(rng, ns=ns, d=d, n=n)
        sel = np.array(list(itertools.product(range(d), repeat=n)))
        rng.shuffle(sel)
        assert abs(kernel_fidelity(probs, g, sel) - 1.0) <= 1e-14
        self.assert_agrees(probs, g, sel)

    def test_codes_of_random_sources(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            e = random_blind(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            code = build_code_space(e, int(rng.integers(1, 8)), float(rng.uniform(0.2, 1.4)))
            g = np.abs(e.overlaps.psi @ code.eigen_vectors.conj()) ** 2
            self.assert_agrees(e.overlaps.probs, g, code.selected)


def code_inputs(e, code):
    g = np.abs(e.overlaps.psi @ code.eigen_vectors.conj()) ** 2
    return e.overlaps.probs, g, code.selected


BLIND_FILES = sorted(p.stem for p in DATA.glob("*.json") if load_ensemble(str(p)).is_blind())


class TestBlockFidelityBitIdentity:
    """The in-place kernel against the fresh-array fsum kernel it replaced,
    with ==: every term and the exactly rounded sum are unchanged."""

    def test_random_codes(self):
        rng = np.random.default_rng(108)
        for trial in range(150):
            ns, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            n = int(rng.integers(1, 13 if ns < 3 else 11))
            probs = rng.dirichlet(np.ones(ns))
            g = rng.dirichlet(np.ones(d), size=ns)
            if trial % 5 == 0 and d**n <= 4096:
                sel = np.array(list(itertools.product(range(d), repeat=n)))  # full rank
                rng.shuffle(sel)
            else:
                rank = 1 if trial % 5 == 1 else int(rng.integers(1, min(d**n, 300) + 1))
                sel = rng.integers(0, d, size=(rank, n))
                dups = rng.integers(0, rank, size=int(rng.integers(0, 4)))
                sel = np.concatenate([sel, sel[dups]])  # a duplicated row counts twice
            assert kernel_fidelity(probs, g, sel) == fsum_block_fidelity(probs, g, sel), trial

    def test_longest_blocks(self):
        rng = np.random.default_rng(109)
        for ns, d, n in ((3, 2, 12), (3, 4, 11), (2, 3, 12)):
            probs, g, sel = rand_block_inputs(rng, ns=ns, d=d, n=n, rank=200)
            assert kernel_fidelity(probs, g, sel) == fsum_block_fidelity(probs, g, sel)

    @pytest.mark.parametrize("name", BLIND_FILES)
    def test_codes_of_the_data_files(self, name):
        e = load_ensemble(str(DATA / f"{name}.json"))
        for rate in (0.3, 0.5, 0.8, 1.2, 2.0):
            for n in range(1, 13):
                try:
                    code = build_code_space(e, n, rate)
                except EacompError:
                    continue
                probs, g, sel = code_inputs(e, code)
                want = fsum_block_fidelity(probs, g, sel)
                assert kernel_fidelity(probs, g, sel) == want
                assert simulate_fidelity(e, code) == want

    @pytest.mark.parametrize("name", ["blind_pair", "blind_two_sectors"])
    def test_curves_keep_their_bits(self, name):
        goldens = json.loads((Path(__file__).parent / "fidelity_goldens.json").read_text())[name]
        e = load_ensemble(str(DATA / f"{name}.json"))
        for rate, want in goldens.items():
            curve = fidelity_curve(e, range(1, 15), float(rate))
            assert [f"{n} {f.hex()}" for n, f in curve.points] == want["points"]
            assert list(curve.warnings) == want["warnings"]


class TestPerCurveTables:
    """fidelity_curve, whose codes share one set of tables and type counts,
    against the per-code path it replaced: every code row, weight, kernel
    result and point bit-identical."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The codes, kernel results and tables of the curves run under it."""
        made = {"codes": [], "results": [], "tables": []}

        def recording(fn, into):
            def wrapper(*args):
                into.append(fn(*args))
                return into[-1]
            return wrapper

        for name, key in (("_code_space", "codes"), ("block_fidelity", "results"), ("SequenceTables", "tables")):
            monkeypatch.setattr(schumacher, name, recording(getattr(schumacher, name), made[key]))
        return made

    def assert_as_per_code(self, recorded, e, ns, rate):
        for key in recorded:
            recorded[key].clear()
        curve = fidelity_curve(e, ns, rate)
        codes, results, warnings = per_code_curve(e, ns, rate)
        assert list(curve.warnings) == warnings
        assert [f for _, f in curve.points] == [r.fidelity for r in results]
        assert recorded["results"] == results  # all four means, with ==
        assert len(recorded["codes"]) == len(codes)
        for got, want in zip(recorded["codes"], codes):
            assert got.selected.dtype == np.int64 and got.selected.flags.c_contiguous
            assert np.array_equal(got.selected, want.selected)
            assert np.array_equal(got.selected_weights, want.selected_weights)
        assert len(recorded["tables"]) == (1 if codes else 0)  # one set per curve
        return curve

    def test_random_curves(self, recorded):
        rng = np.random.default_rng(112)
        for _ in range(40):
            e = random_blind(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            ns = rng.integers(1, 9, size=int(rng.integers(1, 7))).tolist()  # unsorted, repeats
            self.assert_as_per_code(recorded, e, ns, float(rng.uniform(0.0, 2.5)))

    def test_capped_sizes_mid_list(self, recorded):
        rng = np.random.default_rng(113)
        # 3^12 sequences pass SEQUENCE_CAP; 4^8 passes CODE_DIM_CAP
        for signals, da, ns in ((3, 2, [5, 12, 3, 12, 11, 4]), (2, 4, [3, 8, 2, 7, 8, 1])):
            curve = self.assert_as_per_code(recorded, random_blind(rng, signals, da), ns, 0.9)
            assert len(curve.warnings) == 2

    @pytest.mark.parametrize("signals,da", [(1, 1), (1, 3), (2, 1), (3, 2)])
    def test_smallest_sizes(self, recorded, signals, da):
        e = random_blind(np.random.default_rng(114), signals, da)
        for rate in (0.0, 10.0):  # rank 1 and full rank
            self.assert_as_per_code(recorded, e, [1, 3, 1, 2], rate)

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [0.25] * 4, [0.4, 0.3, 0.3], [0.2, 0.2, 0.3, 0.3]])
    def test_degenerate_spectra(self, recorded, probs):
        # orthogonal signals: the average state is diagonal with exactly the
        # probabilities as eigenvalues, so many index tuples weigh the same
        e = make_blind(np.eye(len(probs)), probs)
        tied = 0
        for rate in (0.4, 0.9, 1.3):
            self.assert_as_per_code(recorded, e, [4, 2, 5, 3], rate)
            for code in recorded["codes"]:
                keys = code.selected @ len(probs) ** np.arange(code.n - 1, -1, -1)
                ties = code.selected_weights[1:] == code.selected_weights[:-1]
                assert (keys[1:][ties] > keys[:-1][ties]).all()  # lexicographic within a tie
                tied += int(ties.sum())
        assert tied > 0

    def test_source_past_the_table_bound(self, recorded):
        # 25 x 58 = 1450 products of width 1 fit the table bound, but width 2
        # would need 625 x 3364 of them: the tails of n = 3 are folded per code
        e = random_blind(np.random.default_rng(115), 58, 25)
        for rate in (0.9, 2.4):
            self.assert_as_per_code(recorded, e, [3, 1, 2, 3], rate)
            (tables,) = recorded["tables"]
            assert max(t.size for t in tables._products + tables._sequences) <= limits.SEQUENCE_CAP
            assert len(tables._products) == 2


class TestTableCheck:
    """The eigenvalue route against the kernel's tables: mean p_pass is
    Tr(Pi rho^n), mean f_fail the weight of row 0, and F >= Tr(Pi rho^n)."""

    def test_corrupted_weights_raise(self):
        e = load_ensemble(str(DATA / "blind_pair.json"))
        code = build_code_space(e, 4, 0.8)
        scaled = replace(code, selected_weights=code.selected_weights * 1.001)
        with pytest.raises(ConsistencyError, match="pass probability"):
            simulate_fidelity(e, scaled)
        # the same total, another row 0
        reordered = replace(code, selected_weights=code.selected_weights[::-1].copy())
        with pytest.raises(ConsistencyError, match="failure overlap"):
            simulate_fidelity(e, reordered)

    def test_corrupted_overlap_table_raises(self, monkeypatch):
        e = load_ensemble(str(DATA / "blind_two_sectors.json"))
        code = build_code_space(e, 3, 0.8)
        assert simulate_fidelity(e, code) > 0.0
        kernel = schumacher.block_fidelity
        monkeypatch.setattr(schumacher, "block_fidelity",
                            lambda tables, sel: kernel(SequenceTables(tables.probs, tables.g * 1.0001), sel))
        with pytest.raises(ConsistencyError, match="pass probability"):
            simulate_fidelity(e, code)

    def test_corrupted_curve_tables_raise(self, monkeypatch):
        # the tables a curve shares across its block lengths are checked too
        e = load_ensemble(str(DATA / "blind_two_sectors.json"))
        assert fidelity_curve(e, [3, 2], 0.8).points
        monkeypatch.setattr(schumacher, "SequenceTables", lambda probs, g: SequenceTables(probs, g * 1.0001))
        with pytest.raises(ConsistencyError, match="pass probability"):
            fidelity_curve(e, [3, 2], 0.8)

    def test_fidelity_below_pass_probability_raises(self, monkeypatch):
        e = load_ensemble(str(DATA / "blind_pair.json"))
        code = build_code_space(e, 3, 0.5)
        monkeypatch.setattr(_accel, "_exact_sum", lambda r, q: 0.0)
        with pytest.raises(ConsistencyError, match="below"):
            simulate_fidelity(e, code)

    def test_quiet_on_random_sources(self):
        rng = np.random.default_rng(110)
        for _ in range(20):
            ns, da = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            states = rng.standard_normal((ns, da)) + 1j * rng.standard_normal((ns, da))
            states /= np.linalg.norm(states, axis=1)[:, None]
            e = make_blind(states, rng.dirichlet(np.ones(ns)))
            for point in fidelity_curve(e, range(1, 9), float(rng.uniform(0.0, 2.5))).points:
                assert 0.0 <= point[1] <= 1.0


def exact_sum(xs):
    r = np.array(xs, dtype=np.float64)
    return _exact_sum(r, np.empty_like(r))


def assert_as_fsum(xs):
    assert exact_sum(xs).hex() == math.fsum(xs).hex()


# below 2^1000 no sum of fewer than 2^23 terms can leave the double range
terms = st.floats(min_value=0.0, max_value=2.0**1000, allow_nan=False, allow_infinity=False)
scaled = st.builds(math.ldexp, st.integers(0, 2**53 - 1).map(float), st.integers(-1126, 900))


class TestExactSum:
    @given(st.lists(terms, min_size=1, max_size=300))
    def test_any_terms(self, xs):
        assert_as_fsum(xs)

    @given(st.lists(scaled, min_size=1, max_size=300))
    def test_terms_across_every_binade(self, xs):
        assert_as_fsum(xs)

    @given(st.lists(st.sampled_from([1.0, 2.0**-53, 2.0**-52, 3 * 2.0**-54, 2.0**-200, 1e-300, 5e-324, 0.0]),
                    min_size=1, max_size=60))
    def test_ties_and_sticky_bits(self, xs):
        assert_as_fsum(xs)

    @pytest.mark.parametrize("xs", [
        [0.0], [0.0] * 7, [-0.0], [-0.0, 0.0], [0.7], [5e-324], [5e-324] * 1000,
        [2.0**-1022, 5e-324, 2.0**-1060], [1.0] + [1e-300] * 999, [1e-300] * 999 + [1.0],
        [1.0, 2.0**-53], [1.0, 2.0**-53, 2.0**-200], [1.0, 2.0**-53, 5e-324], [1.0, 3 * 2.0**-53],
        [2.0**1000, 2.0**947, 5e-324], [1.0, 1.0, 2.0**-52],
    ])
    def test_chosen_cases(self, xs):
        assert_as_fsum(xs)

    def test_sequence_cap_terms(self):
        rng = np.random.default_rng(111)
        for xs in (rng.random(limits.SEQUENCE_CAP), np.exp(-700 * rng.random(limits.SEQUENCE_CAP))):
            assert exact_sum(xs).hex() == math.fsum(xs.tolist()).hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_invalid_terms_raise(self, bad):
        for xs in ([bad], [0.5, bad, 0.25], [1.0] * 1000 + [bad]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                exact_sum(xs)

    def test_overflowing_terms_raise(self):
        with pytest.raises(OverflowError):
            exact_sum([1e308] * 4)


class TestExtractionPasses:
    """_exact_sum settles the rounding of the kernel's sums after one
    extraction pass, and a sum that needs more still rounds as fsum does.
    Each pass calls math.frexp once, as _accel sees it."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The extraction passes of each _exact_sum call run under it."""
        counts = []

        def counted_sum(r, q, real=_accel._exact_sum):
            counts.append(0)
            return real(r, q)

        def counted_frexp(x):
            counts[-1] += 1
            return math.frexp(x)

        seen = types.SimpleNamespace(**vars(math))
        seen.frexp = counted_frexp
        monkeypatch.setattr(_accel, "math", seen)
        monkeypatch.setattr(_accel, "_exact_sum", counted_sum)
        return counts

    @pytest.mark.parametrize("name", BLIND_FILES)  # the others have no simulate points
    def test_data_file_curves(self, passes, name):
        e = load_ensemble(str(DATA / f"{name}.json"))
        for rate in (0.3, 0.8, 1.2):
            passes.clear()
            curve = fidelity_curve(e, range(1, 13), rate)
            assert curve.points and passes == [1] * len(curve.points), rate

    @pytest.mark.parametrize("signals,rate,ns", [(2, 0.8, range(2, 13)), (3, 0.75, range(2, 11))])
    def test_benchmark_shaped_curves(self, passes, signals, rate, ns):
        rng = np.random.default_rng(116)
        for _ in range(3):
            passes.clear()
            curve = fidelity_curve(random_blind(rng, signals, 2), ns, rate)
            assert len(curve.points) == len(ns) and passes == [1] * len(ns)

    @pytest.mark.parametrize("xs", [
        [1.0, 2.0**-53, 5e-324],  # a tie broken by a subnormal
        [2.0**-951, 2.0**-1004, 5e-324],  # the same where err is a subnormal
        [1.0, 1.0, 2.0**-52, 2.0**-1000],
        [1.0, 2.0**-53] + [2.0**-200] * 3,
        # the residuals' float sum is 2^-52 and drops the 2^-111 that breaks the tie
        [1.0 + 2.0**-52, 1.0, 2.0**-48 - 2.0**-59, 2.0**-59 + 2.0**-111],
    ])
    def test_unsettled_passes_go_on(self, passes, xs):
        r = np.array(xs)
        assert _accel._exact_sum(r, np.empty_like(r)).hex() == math.fsum(xs).hex()
        assert passes[0] >= 2

    @pytest.mark.parametrize("xs", [
        [0.25 + 2.0**-54, 0.5],  # exact ties, which small sums often land on
        [0.375 + 2.0**-54, 0.375 + 2.0**-53],
        [2.0**-951, 2.0**-1006, 5e-324],  # err a subnormal
    ])
    def test_one_pass_cases(self, passes, xs):
        r = np.array(xs)
        assert _accel._exact_sum(r, np.empty_like(r)).hex() == math.fsum(xs).hex()
        assert passes == [1]


class TestObjectiveAgreement:
    def test_identity_is_identity_channel(self):
        rng = np.random.default_rng(102)
        v, phis, probs, da, dc, dw = rand_objective_inputs(rng)
        (mi,), (fid,) = unitary_objective(np.eye(*v.shape)[None], phis, probs, da, dc, dw)[:2]
        assert abs(fid - 1.0) < 1e-12
        assert mi >= -1e-12

    def test_mutual_information_bounds(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            v, phis, probs, da, dc, dw = rand_objective_inputs(rng)
            (mi,), (fid,) = unitary_objective(v[None], phis, probs, da, dc, dw)[:2]
            h_x = -(probs * np.log2(probs)).sum()
            assert -1e-9 <= mi <= h_x + 1e-9
            assert 0.0 <= fid <= 1.0 + 1e-12

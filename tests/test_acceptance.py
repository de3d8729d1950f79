"""Acceptance gate: eight behavioral criteria, one pass/fail line each.

Each criterion prints its verdict on the terminal even under captured
pytest runs. Frozen reference numbers were produced by independent
oracles before the corresponding modules existed; the fidelity-curve
fixtures come from the simulator itself only after it was validated
against an explicit brute-force reconstruction.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from eacomp import (
    Ensemble,
    IsometrySearchConfig,
    analyze,
    classical_entanglement_corner,
    cli,
    eq_region,
    estimate_grid,
    fidelity_curve,
    i_zero_bounds,
    irreducible_components,
    load_ensemble,
    make_blind,
    make_visible,
    optimal_rates,
    save_ensemble,
)

from test_rates import TRIPLE_ORACLE, BLIND_PAIR_S_A, sideinfo_triple

DATA = Path(__file__).resolve().parent.parent / "data"


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num} ({label}): PASS")


def spearman_rho(xs, ys):
    # no ties in our inputs, so plain rank correlation suffices
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0] * len(v)
        for rank, i in enumerate(order):
            out[i] = rank
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def rand_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def build(rows):
    """An Ensemble from (label, prob, psi, sigma) rows."""
    labels, probs, psi, sigma = zip(*rows)
    return Ensemble(labels, probs, psi, sigma)


def test_worked_example_rates(capsys, tmp_path):
    # Q_opt climbs to 1 as the side-information weight vanishes; rewriting
    # the signals with a CNOT moves the optimum to 1/2 instead
    with criterion(capsys, 1, "worked-example rates"):
        ts = (0.01, 0.005, 0.001)
        paths = {}
        for t in ts:
            p = tmp_path / f"triple_{t}.json"
            save_ensemble(sideinfo_triple(t), p)
            paths[t] = str(p)

        start = time.monotonic()
        plain, flipped = [], []
        for t in ts:
            out = tmp_path / f"r_{t}.json"
            assert cli.main(["rates", paths[t], "-o", str(out)]) == 0
            plain.append(json.loads(out.read_text())["rates"]["optimal"]["Q"])
            out2 = tmp_path / f"rc_{t}.json"
            assert cli.main(["rates", paths[t], "--apply-cnot", "-o", str(out2)]) == 0
            flipped.append(json.loads(out2.read_text())["rates"]["optimal"]["Q"])
        elapsed = time.monotonic() - start

        for t, q, qc in zip(ts, plain, flipped):
            assert abs(q - TRIPLE_ORACLE[t][1]) <= 1e-12
            assert abs(qc - TRIPLE_ORACLE[t][2]) <= 1e-12
        assert plain[0] < plain[1] < plain[2] < 1.0
        assert abs(plain[-1] - 1.0) < 0.05
        assert flipped[0] > flipped[1] > flipped[2] > 0.5
        assert abs(flipped[-1] - 0.5) < 0.05
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_blind_irreducible_no_advantage(capsys):
    # with one irreducible block and no side channel, assistance buys nothing
    with criterion(capsys, 2, "blind irreducible parity"):
        start = time.monotonic()
        rng = np.random.default_rng(40201)
        produced = 0
        while produced < 20:
            dim_a = int(rng.integers(2, 5))
            m = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(m))
            e = make_blind([rand_unit(rng, dim_a) for _ in range(m)], probs)
            if irreducible_components(e).size != 1:
                continue
            produced += 1
            a = analyze(e)
            r = optimal_rates(a)
            s_a = a.profile.s_a
            assert abs(r.q - s_a) <= 1e-9
        assert time.monotonic() - start < 5.0


def test_visible_rates_halve(capsys):
    # a visible encoder splits the cost evenly between qubits and ebits
    with criterion(capsys, 3, "visible rates"):
        rng = np.random.default_rng(40301)
        for _ in range(20):
            dim_a = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(m))
            e = make_visible([rand_unit(rng, dim_a) for _ in range(m)], probs)
            a = analyze(e)
            r = optimal_rates(a)
            s_a = a.profile.s_a
            assert abs(r.q - 0.5 * s_a) <= 1e-9
            assert abs(r.e - 0.5 * s_a) <= 1e-9


def blind_two_sector(rng):
    # two orthogonal signal sectors, no side register
    rows = []
    for b in range(2):
        for i in range(2):
            psi = np.zeros(4, complex)
            psi[2 * b:2 * b + 2] = rand_unit(rng, 2)
            rows.append((f"{b}{i}", 0.0, psi, np.ones(1, complex)))
    probs = rng.dirichlet(np.ones(4))
    rows = [(lbl, float(p), psi, sig) for (lbl, _, psi, sig), p in zip(rows, probs)]
    return build(rows)


def test_corner_consistency(capsys):
    # the optimum sits exactly on the corner of its own region, and the
    # classical-channel corner is one teleport away from the no-ebit point
    with criterion(capsys, 4, "corner consistency"):
        rng = np.random.default_rng(40401)
        for k in range(20):
            if k % 2 == 0:
                dim_a, dim_c = int(rng.integers(2, 4)), int(rng.integers(1, 4))
                m = int(rng.integers(2, 6))
                probs = rng.dirichlet(np.ones(m))
                e = build([
                    (str(i), float(probs[i]), rand_unit(rng, dim_a), rand_unit(rng, dim_c))
                    for i in range(m)
                ])
            else:
                e = blind_two_sector(rng)
            a = analyze(e)
            r = optimal_rates(a)
            spec = eq_region(a)
            assert r.e >= -1e-9
            assert abs(r.q - spec.q_min) <= 1e-9
            assert abs((r.q + r.e) - spec.sum_min) <= 1e-9
            if e.is_blind():
                # teleporting the q0 qubits of the no-ebit point (q0, C = S(Y))
                # costs 2 q0 cbits and q0 ebits
                p = a.profile
                q0 = p.s_a - p.s_y
                corner = classical_entanglement_corner(a)
                assert abs(corner.c - (p.s_y + 2 * q0)) <= 1e-12
                assert abs(corner.e - q0) <= 1e-12


def test_entropy_dual_path(capsys):
    # assembling the joint state block by block or item by item must agree
    with criterion(capsys, 5, "entropy dual path"):
        rng = np.random.default_rng(40501)
        for k in range(50):
            dim_a = int(rng.integers(2, 4))
            dim_c = int(rng.integers(2, 4))
            m = int(rng.integers(2, 7))
            probs = rng.dirichlet(np.ones(m))
            rows = []
            for i in range(m):
                if k % 2 == 0:
                    sig = np.zeros(dim_c, complex)
                    sig[i % dim_c] = 1.0  # planted orthogonal sectors
                else:
                    sig = rand_unit(rng, dim_c)
                rows.append((str(i), float(probs[i]), rand_unit(rng, dim_a), sig))
            p = analyze(build(rows)).profile
            assert abs(p.s_acy - p.s_acy_direct) <= 1e-8


# produced by the simulator after it was checked against explicit
# n-fold tensor reconstruction; blind {1/2 |0>, 1/2 |+>} source
CURVE_ABOVE = {2: 0.9139187953081134, 4: 0.936356437578969, 6: 0.9289427653778105,
               8: 0.9290954523883409, 10: 0.9148171305243775}
CURVE_BELOW = {2: 0.8535533905932738, 4: 0.8127986478822351, 6: 0.7906017234741809,
               8: 0.753063479317711, 10: 0.6829709616093949}


def test_threshold_behavior(capsys):
    # above the source entropy the fidelity trends up with block length,
    # below it the fidelity decays; at a full qubit per signal it is exact
    with criterion(capsys, 6, "threshold behavior"):
        start = time.monotonic()
        e = make_blind([[1, 0], [2 ** -0.5, 2 ** -0.5]], [0.5, 0.5])
        ns = [2, 4, 6, 8, 10]

        above = fidelity_curve(e, ns, BLIND_PAIR_S_A + 0.1).points
        below = fidelity_curve(e, ns, BLIND_PAIR_S_A - 0.15).points
        for (n, f), (n2, f2) in zip(above, below):
            assert abs(f - CURVE_ABOVE[n]) <= 1e-12
            assert abs(f2 - CURVE_BELOW[n2]) <= 1e-12
        assert spearman_rho(ns, [f for _, f in above]) > 0.0
        assert spearman_rho(ns, [f for _, f in below]) < 0.0

        lossless = fidelity_curve(e, ns, 1.0).points
        for _, f in lossless:
            assert f == 1.0
        assert time.monotonic() - start < 30.0


def test_information_bounds(capsys):
    # every certified estimate respects the information floor; at zero
    # allowed disturbance it cannot exceed the side-register entropy, and
    # a blind irreducible source admits no extraction at all
    with criterion(capsys, 7, "information bounds"):
        start = time.monotonic()
        three = make_blind([[1, 0], [2 ** -0.5, 2 ** -0.5], [0.6, 0.8]],
                           [0.5, 0.3, 0.2])
        fixtures = {
            "blind_pair": load_ensemble(DATA / "blind_pair.json"),
            "three_blind": three,
            "two_sectors": load_ensemble(DATA / "blind_two_sectors.json"),
            "visible_pair": load_ensemble(DATA / "visible_pair.json"),
            "triple": load_ensemble(DATA / "sideinfo_triple.json"),
        }
        blind_irreducible = {"blind_pair", "three_blind"}
        grid = (0.0, 0.05, 0.1, 0.2)
        config = IsometrySearchConfig()

        values = {}
        for name, e in fixtures.items():
            a = analyze(e)
            ests = estimate_grid(a, grid, config)
            floor, ceiling = i_zero_bounds(a)
            vals = [est.value for est in ests]
            values[name] = vals
            for v in vals:
                assert v >= floor - 1e-9, name
            # the ceiling is a zero-disturbance statement; a damaged state
            # can reveal more than the side register holds
            assert vals[0] <= ceiling + 1e-6, name
            if name in blind_irreducible:
                assert vals[0] <= 1e-3, name
            for v0, v1 in zip(vals, vals[1:]):
                assert v1 >= v0 - 1e-3, name

        rerun = [est.value for est in estimate_grid(analyze(fixtures["triple"]), grid, config)]
        assert rerun == values["triple"]
        assert time.monotonic() - start < 120.0


def oracle_partition(e, thresh=1e-6):
    # test-side connectivity check, independent of the package BFS
    m = e.size
    vecs_a, vecs_c = e.psi, e.sigma
    adj = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            w = abs(np.vdot(vecs_a[i], vecs_a[j])) * abs(np.vdot(vecs_c[i], vecs_c[j]))
            adj[i][j] = adj[j][i] = w > thresh
    seen, groups = set(), []
    for s in range(m):
        if s in seen:
            continue
        stack, comp = [s], set()
        while stack:
            i = stack.pop()
            if i in comp:
                continue
            comp.add(i)
            stack.extend(j for j in range(m) if adj[i][j] and j not in comp)
        seen |= comp
        groups.append(frozenset(e.labels[i] for i in comp))
    return frozenset(groups)


def planted_ensemble(rng):
    n_blocks = int(rng.integers(2, 4))
    dim_a = int(rng.integers(2, 4))
    paired = bool(rng.integers(0, 2))  # 2-dim side supports instead of a tag basis
    dim_c = 2 * n_blocks if paired else n_blocks
    rows, planted = [], []
    counter = 0
    for b in range(n_blocks):
        size = int(rng.integers(1, 4))
        while True:
            block = []
            for _ in range(size):
                sig = np.zeros(dim_c, complex)
                if paired:
                    sig[2 * b:2 * b + 2] = rand_unit(rng, 2)
                else:
                    sig[b] = 1.0
                block.append((rand_unit(rng, dim_a), sig))
            probe = build([
                (str(i), 1.0 / size, psi, sig) for i, (psi, sig) in enumerate(block)
            ])
            if len(oracle_partition(probe)) == 1:
                break
        labels = []
        for psi, sig in block:
            rows.append((f"s{counter}", 0.0, psi, sig))
            labels.append(f"s{counter}")
            counter += 1
        planted.append(frozenset(labels))
    probs = rng.dirichlet(np.ones(len(rows)))
    rows = [(lbl, float(p), psi, sig) for (lbl, _, psi, sig), p in zip(rows, probs)]
    return build(rows), frozenset(planted)


def recovered_partition(e):
    d = irreducible_components(e)
    return frozenset(frozenset(c.labels) for c in d.components)


def perturbed(e, rng, scale=1e-11):
    psi, sigma = [], []
    for a, c in zip(e.psi, e.sigma):
        psi.append(a + scale * rand_unit(rng, e.dim_a))
        sigma.append(c + scale * rand_unit(rng, e.dim_c))
    return Ensemble(e.labels, e.probs, psi, sigma)


def test_partition_recovery(capsys):
    # unions of mutually orthogonal blocks come back out exactly, in any
    # item order, and survive noise far below the overlap tolerance
    with criterion(capsys, 8, "partition recovery"):
        rng = np.random.default_rng(40801)
        for _ in range(50):
            e, planted = planted_ensemble(rng)
            assert recovered_partition(e) == planted

            perm = rng.permutation(e.size)
            shuffled = Ensemble([e.labels[i] for i in perm], e.probs[perm], e.psi[perm], e.sigma[perm])
            assert recovered_partition(shuffled) == planted

            assert recovered_partition(perturbed(e, rng)) == planted

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
report.  Statistical criteria run on pinned seeds; timing criteria measure
post-JIT-warmup runtimes (the session fixture compiles the kernels first).
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import component_trans, matrices_by_rank
from subchan.capacity import (
    blahut_arimoto,
    capacity_closed_form,
    component_capacity,
    mutual_information,
)
from subchan.channel import (
    ChannelSpec,
    RankDefDist,
    build_dmc,
    components,
    transition_prob,
)
from subchan.gf import GF
from subchan.grassmann import (
    count_ordered_bases,
    enumerate_grassmannian,
    gaussian_coefficient,
    span,
    subspace_label,
)
from subchan.matrix import Mat, matmul, rank
from subchan.mc import run_mc

F2 = GF(2)

GRID = [
    (q, T, h)
    for q in (2, 3)
    for (T, h) in ((3, 2), (4, 2), (4, 3))
]


def _grid_dists(h):
    rng = np.random.default_rng(h * 1000 + 17)
    mixed = rng.random(h + 1) + 0.1
    return [
        RankDefDist.point_mass(h, 0),
        RankDefDist.point_mass(h, h),
        RankDefDist.uniform(h),
        RankDefDist(h, mixed / mixed.sum()),
    ]


def _passed(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS - {message}")


def test_criterion_1_transition_law_vs_exhaustive_enumeration():
    """Exact law from all 6 ordered bases x all 2x2 transfer matrices grouped
    by rank, compared to the analytical transition probabilities as rationals."""
    start = time.perf_counter()
    q, T, h = 2, 3, 2
    inputs = enumerate_grassmannian(F2, T, h)
    transfer_by_rank = matrices_by_rank(q, h, h)
    assert {r: len(ms) for r, ms in transfer_by_rank.items()} == {0: 1, 1: 9, 2: 6}
    all_2x3 = matrices_by_rank(q, h, T)[2]

    checked = 0
    outputs = [
        v for ell in range(h + 1) for v in enumerate_grassmannian(F2, T, ell)
    ]
    for u in inputs:
        bases = [m for m in all_2x3 if span(Mat(F2, m)) == u]
        assert len(bases) == count_ordered_bases(h, q) == 6
        for g_rank, transfers in transfer_by_rank.items():
            rho = h - g_rank
            counts = {}
            for x in bases:
                for g in transfers:
                    v = span(matmul(Mat(F2, g), Mat(F2, x)))
                    counts[v] = counts.get(v, 0) + 1
            total = len(bases) * len(transfers)
            spec = ChannelSpec(F2, T, h, RankDefDist.point_mass(h, rho))
            for v in outputs:
                exact = Fraction(counts.get(v, 0), total)
                dim_ok = v.dim == h - rho
                inside = rank(Mat(F2, np.vstack([u.basis.array, v.basis.array]))) == u.dim
                expected = (
                    Fraction(1, gaussian_coefficient(h, v.dim, q))
                    if (dim_ok and inside)
                    else Fraction(0)
                )
                assert exact == expected, (u, v, rho)
                assert transition_prob(spec, u, v) == float(expected)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"exhaustive law check took {elapsed:.2f}s"
    _passed(1, f"exhaustive law equals the analytical law at all {checked} "
               f"(input, output, rank) triples, as exact rationals ({elapsed:.2f}s)")


def test_criterion_2_closed_form_vs_blahut_arimoto_grid():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for q, T, h in GRID:
        for dist in _grid_dists(h):
            spec = ChannelSpec(GF(q), T, h, dist)
            closed = capacity_closed_form(spec).closed_form
            ba = blahut_arimoto(build_dmc(spec), tol=1e-9).capacity_estimate
            worst = max(worst, abs(closed - ba))
            assert abs(closed - ba) <= 1e-6
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"grid took {elapsed:.2f}s"
    _passed(2, f"|closed form - Blahut-Arimoto| <= 1e-6 bits on all {cases} grid cases "
               f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_uniformly_dispersive_and_strongly_symmetric_components():
    cases = 0
    for q, T, h in GRID:
        for dist in _grid_dists(h):
            dmc = build_dmc(ChannelSpec(GF(q), T, h, dist))
            rows = np.sort(dmc.trans, axis=1)
            for i in range(1, rows.shape[0]):
                assert np.array_equal(rows[0], rows[i])
            for comp in map(component_trans, components(dmc)):
                srows = np.sort(comp, axis=1)
                for i in range(1, srows.shape[0]):
                    assert np.array_equal(srows[0], srows[i])
                scols = np.sort(comp, axis=0)
                for j in range(1, scols.shape[1]):
                    assert np.array_equal(scols[:, 0], scols[:, j])
            cases += 1
    _passed(3, f"rows are permutations of each other and every component is "
               f"strongly symmetric on all {cases} grid cases")


def test_criterion_4_worked_examples_regression():
    x = Mat.from_rows(F2, [[0, 1, 0], [1, 0, 0]])
    x_prime = Mat.from_rows(F2, [[0, 1, 0], [1, 1, 0]])
    g = Mat.from_rows(F2, [[0, 1], [0, 1]])
    g_prime = Mat.from_rows(F2, [[1, 0], [1, 0]])
    assert subspace_label(span(matmul(g, x))) == "100"
    assert subspace_label(span(matmul(g, x_prime))) == "110"
    assert subspace_label(span(matmul(g_prime, x_prime))) == "010"
    _passed(4, "fixed bases and transfer matrices reproduce output subspaces "
               "{000,100}, {000,110}, {000,010}")


def test_criterion_5_counting_identities():
    from conftest import all_matrices, brute_force_subspaces

    assert gaussian_coefficient(3, 2, 2) == len(brute_force_subspaces(2, 3, 2)) == 7
    assert gaussian_coefficient(4, 2, 2) == len(brute_force_subspaces(2, 4, 2)) == 35
    brute_bases = sum(1 for m in all_matrices(2, 2, 2) if rank(Mat(F2, m)) == 2)
    assert count_ordered_bases(2, 2) == brute_bases == 6
    sizes = 0
    for q in (2, 3, 4):
        f = GF(q)
        for T in range(6):
            for ell in range(T + 1):
                assert len(enumerate_grassmannian(f, T, ell)) == gaussian_coefficient(T, ell, q)
                sizes += 1
    _passed(5, f"counting identities confirmed by exhaustive enumeration; "
               f"{sizes} (q, T, dim) enumeration sizes match Gaussian coefficients")


def test_criterion_6_monte_carlo_consistency():
    spec = ChannelSpec(F2, 3, 2, RankDefDist.point_mass(2, 1))
    report = run_mc(spec, 100_000, seed=1)
    assert report.off_support_hits == 0
    assert report.worst_z_score < 4.0
    _passed(6, f"100000 draws per input at pinned seed 1: zero off-support hits, "
               f"worst |z| = {report.worst_z_score:.2f} < 4")


def test_criterion_7_special_case_capacities():
    checked = 0
    for q, T, h in GRID:
        f = GF(q)
        full = capacity_closed_form(ChannelSpec(f, T, h, RankDefDist.point_mass(h, 0)))
        assert full.closed_form == math.log2(gaussian_coefficient(T, h, q))
        dead = capacity_closed_form(ChannelSpec(f, T, h, RankDefDist.point_mass(h, h)))
        assert dead.closed_form == 0.0
        caps = [component_capacity(q, T, h, rho) for rho in range(h + 1)]
        assert all(a > b for a, b in zip(caps, caps[1:]))
        checked += 1
    _passed(7, f"full-rank capacity equals log2 of the Grassmannian size exactly, "
               f"total deficiency gives exactly 0, components strictly decrease "
               f"({checked} grid points)")


def test_criterion_8_uniform_input_achieves_capacity():
    worst = 0.0
    cases = 0
    for q, T, h in GRID:
        for dist in _grid_dists(h):
            spec = ChannelSpec(GF(q), T, h, dist)
            dmc = build_dmc(spec)
            uniform = np.full(dmc.num_inputs, 1.0 / dmc.num_inputs)
            mi = mutual_information(dmc, uniform)
            closed = capacity_closed_form(spec).closed_form
            worst = max(worst, abs(mi - closed))
            assert abs(mi - closed) <= 1e-9
            cases += 1
    _passed(8, f"mutual information at the uniform input equals the closed form "
               f"within 1e-9 on all {cases} grid cases (worst {worst:.2e})")


def _network_channel():
    """The matrix channel X -> rowspace(G X) at q2 T3 h2, one transfer G at a
    time: a (16, 42, 15) 0/1 array over the 2 x 2 matrices G, the full-rank
    2 x 3 inputs X and the subspaces of F_2^3 of dimension <= 2, and the
    rank of each G."""
    by_rank = matrices_by_rank(2, 2, 2)
    transfers = [g for r in range(3) for g in by_rank[r]]
    ranks = np.repeat(np.arange(3), [len(by_rank[r]) for r in range(3)])
    inputs = matrices_by_rank(2, 2, 3)[2]
    outputs = [v for d in range(3) for v in enumerate_grassmannian(F2, 3, d)]
    hits = np.zeros((len(transfers), len(inputs), len(outputs)))
    for k, g in enumerate(transfers):
        for i, x in enumerate(inputs):
            hits[k, i, outputs.index(span(matmul(Mat(F2, g), Mat(F2, x))))] = 1.0
    return hits, ranks


def _network_gap(law, hits, ranks):
    """BA capacity of the network channel with G drawn by ``law``, minus the
    closed form of the rank-deficiency law that ``law`` induces."""
    rank_def = RankDefDist(2, np.bincount(2 - ranks, weights=law, minlength=3))
    ba = blahut_arimoto(np.tensordot(law, hits, 1), tol=1e-12).capacity_estimate
    return ba - capacity_closed_form(ChannelSpec(F2, 3, 2, rank_def)).closed_form


def test_criterion_9_closed_form_lower_bounds_the_network_capacity():
    """The paper's claim: the closed form of the induced rank-deficiency law
    is a lower bound on the capacity of the noncoherent network.  A fixed G
    of rank r loses exactly log2 C(h, r)_q, and a law uniform within each
    rank class loses nothing."""
    hits, ranks = _network_channel()
    assert hits.shape == (16, 42, 15) and np.bincount(ranks).tolist() == [1, 9, 6]
    gaps = [_network_gap(np.random.default_rng(seed).dirichlet(np.ones(16)), hits, ranks) for seed in range(3)]
    assert min(gaps) >= -1e-9
    for r in range(3):
        law = np.zeros(16)
        law[np.flatnonzero(ranks == r)[-1]] = 1.0
        assert abs(_network_gap(law, hits, ranks) - math.log2(gaussian_coefficient(2, r, 2))) <= 1e-9
    for class_law in ([0.2, 0.3, 0.5], [0.0, 1.0, 0.0], [1 / 3] * 3):
        law = np.asarray(class_law)[ranks] / np.bincount(ranks)[ranks]
        assert abs(_network_gap(law, hits, ranks)) <= 1e-9
    _passed(9, f"BA of the network channel exceeds the closed form by {min(gaps):.4f} to "
               f"{max(gaps):.4f} bits on three random laws over G; a fixed G of rank r "
               f"loses log2 C(h, r)_q, and a law uniform within each rank class loses nothing")

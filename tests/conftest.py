"""Shared fixtures and brute-force oracles for the test suite.

The oracle helpers here enumerate matrices and row spaces directly, without
going through the package's RREF/enumeration code paths, so counting and law
tests check the implementation against independent computations.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np

from subchan.gf import GF


def all_matrices(q: int, n: int, m: int):
    """Every n x m matrix over GF(q), as uint8 arrays, in lexicographic order."""
    for flat in itertools.product(range(q), repeat=n * m):
        yield np.array(flat, dtype=np.uint8).reshape(n, m)


def naive_row_space(field: GF, mat: np.ndarray) -> frozenset[tuple[int, ...]]:
    """Row space of mat as a frozenset of vectors, by brute-force closure:
    all GF(q)-linear combinations of the rows, using scalar table ops only."""
    n, m = mat.shape
    vectors = set()
    for coeffs in itertools.product(range(field.q), repeat=n):
        vec = [0] * m
        for c, row in zip(coeffs, mat):
            for j in range(m):
                vec[j] = field.add(vec[j], field.mul(c, int(row[j])))
        vectors.add(tuple(vec))
    return frozenset(vectors)


def brute_force_subspaces(q: int, n: int, ell: int) -> set[frozenset[tuple[int, ...]]]:
    """All ell-dimensional subspaces of F_q^n as vector sets, found by
    collecting the row spaces of every ell x n matrix whose row space has
    q^ell elements."""
    field = GF(q)
    found = set()
    size = q**ell
    for mat in all_matrices(q, ell, n):
        space = naive_row_space(field, mat)
        if len(space) == size:
            found.add(space)
    return found


def reference_grassmannian_bases(q: int, ambient_dim: int, dim: int, last_fastest: bool = True) -> np.ndarray:
    """Canonical bases of P(F_q^ambient_dim, dim) as a (size, dim, T) stack,
    one element at a time: pivot sets in lexicographic order, and within one
    the free entries counted like an odometer over the row-major positions,
    the last position fastest (the first with last_fastest=False)."""
    out = []
    for pivots in itertools.combinations(range(ambient_dim), dim):
        free = [(i, c) for i in range(dim) for c in range(pivots[i] + 1, ambient_dim) if c not in pivots]
        base = np.zeros((dim, ambient_dim), dtype=np.uint8)
        for i, p in enumerate(pivots):
            base[i, p] = 1
        for code in range(q ** len(free)):
            arr = base.copy()
            v = code
            for i, c in reversed(free) if last_fastest else free:
                arr[i, c] = v % q
                v //= q
            out.append(arr)
    return np.array(out, dtype=np.uint8).reshape(len(out), dim, ambient_dim)


def reference_label(q: int, basis: np.ndarray) -> str:
    """A subspace label built row by row: q-ary digits for q <= 16, else
    comma-separated decimals; rows joined by '|'."""
    if q <= 16:
        return "|".join("".join("0123456789abcdef"[v] for v in row) for row in basis)
    return "|".join(",".join(str(int(v)) for v in row) for row in basis)


def subspace_vectors(s) -> frozenset[tuple[int, ...]]:
    """All member vectors of a Subspace, by brute-force combination of its
    canonical basis rows."""
    return naive_row_space(s.field, s.basis.array)


def matrices_by_rank(q: int, n: int, m: int) -> dict[int, list[np.ndarray]]:
    """All n x m matrices over GF(q), grouped by rank (rank measured by
    brute-force row-space size, not the package's elimination)."""
    field = GF(q)
    groups: dict[int, list[np.ndarray]] = {}
    for mat in all_matrices(q, n, m):
        size = len(naive_row_space(field, mat))
        r = 0
        while q**r < size:
            r += 1
        groups.setdefault(r, []).append(mat)
    return groups


# Critical values of the chi-square distribution at significance 0.001.
CHI2_CRIT_P001 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458}


def chi2_statistic(counts, expected) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(((counts - expected) ** 2 / expected).sum())


def traced_peak(fn) -> int:
    """Peak traced memory, in bytes, of one call of ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

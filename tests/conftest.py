"""Shared fixtures and brute-force oracles for the test suite.

The oracle helpers here enumerate matrices and row spaces directly, without
going through the package's RREF/enumeration code paths, so counting and law
tests check the implementation against independent computations.
"""

from __future__ import annotations

import itertools
import math
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


def mul_slow(field: GF, a: int, b: int) -> int:
    """Digit-level product of a and b in ``field``: polynomial multiplication
    of the base-p digit vectors, reduced mod the field's reduction polynomial."""
    p, k = field.p, field.k
    if k == 1:
        return a * b % p
    da = [(a // p**i) % p for i in range(k)]
    db = [(b // p**i) % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            for i in range(k + 1):
                prod[d - k + i] = (prod[d - k + i] - c * field.reduction_poly[i]) % p
    return sum(c * p**i for i, c in enumerate(prod[:k]))


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


def component_trans(comp) -> np.ndarray:
    """The dense (|X|, |outputs|) float64 matrix of a ``DmcComponent``: mass
    1 / (row width) at each of its ``support`` positions, zero elsewhere."""
    out = np.zeros((len(comp.support), len(comp.output_index)))
    out[np.arange(len(comp.support))[:, None], comp.support] = 1.0 / comp.support.shape[1]
    return out


def dmc_dict(dmc) -> dict:
    """The object the JSON export writes, built independently of its row
    writer: the export's metadata, and the dense rows holding ``values`` at
    each row's ``support`` columns."""
    from subchan.channel import _dmc_metadata

    dense = np.zeros((dmc.num_inputs, dmc.num_outputs))
    dense[np.arange(dmc.num_inputs)[:, None], dmc.support] = dmc.values
    return {**_dmc_metadata(dmc), "transitions": dense.tolist()}


def divergences_loops(trans, p) -> list[float]:
    """Reference for ``capacity._divergences``: D(W_x || pW) in nats for each
    row of a dense matrix, entry by entry, over the entries with w > 0."""
    rows = np.asarray(trans, dtype=np.float64).tolist()
    out = [math.fsum(pi * row[j] for pi, row in zip(p, rows)) for j in range(len(rows[0]))]
    return [math.fsum(w * math.log(w / out[j]) for j, w in enumerate(row) if w > 0) for row in rows]


def cell_z_reference(count: int, draws: int, p: float) -> float:
    """Reference for a Monte Carlo cell's z-score, one cell at a time with
    ``math``: the binomial z = (c - n p) / sqrt(n p (1 - p)), and at p <= 0 or
    p >= 1, 0 when the count is 0 or ``draws`` respectively, else inf."""
    if p <= 0.0:
        return math.inf if count > 0 else 0.0
    if p >= 1.0:
        return 0.0 if count == draws else math.inf
    return (count - draws * p) / math.sqrt(draws * p * (1.0 - p))


def mc_score_reference(dmc, tallies, draws: int):
    """Reference for ``run_mc``'s scoring of the per-input slot tallies, cell by
    cell: the (input, output, count, p, z) of each cell in output order but the
    zero-mass cells never drawn, the largest |count / draws - p|, the largest
    |z| over cells of positive mass (inf after any off-support hit) and the
    off-support hits."""
    cells, max_dev, worst_z, off_support = [], 0.0, 0.0, 0
    values = dmc.values.tolist()
    for i, tally in enumerate(tallies):
        for j, p, count in sorted(zip(dmc.support[i].tolist(), values, tally)):
            if p == 0.0 and count == 0:
                continue
            z = cell_z_reference(count, draws, p)
            cells.append((i, j, count, p, z))
            max_dev = max(max_dev, abs(count / draws - p))
            if p == 0.0:
                off_support += count
            else:
                worst_z = max(worst_z, abs(z))
    return cells, max_dev, math.inf if off_support else worst_z, off_support


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


def matmul_batch_loops(a, b, add_t, mul_t):
    """Reference for ``_kernels.matmul_batch``: each entry summed term by term with the tables."""
    nmat, n, kk = a.shape
    m = b.shape[2]
    out = np.zeros((nmat, n, m), dtype=np.uint8)
    for s in range(nmat):
        for i in range(n):
            for j in range(m):
                acc = np.uint8(0)
                for t in range(kk):
                    acc = add_t[acc, mul_t[a[s, i, t], b[s, t, j]]]
                out[s, i, j] = acc
    return out


def eliminate_batch_loops(mats, add_t, mul_t, inv_t, neg_t, full):
    """Reference for ``_kernels._eliminate_batch``: Gaussian elimination of
    each matrix, one entry at a time; full=True reduces above pivots too."""
    nmat, rows, cols = mats.shape
    out = mats.copy()
    ranks = np.empty(nmat, dtype=np.int64)
    for s in range(nmat):
        npiv = 0
        for c in range(cols):
            if npiv == rows:
                break
            sel = -1
            for i in range(npiv, rows):
                if out[s, i, c] != 0:
                    sel = i
                    break
            if sel < 0:
                continue
            if sel != npiv:
                for j in range(c, cols):
                    tmp = out[s, npiv, j]
                    out[s, npiv, j] = out[s, sel, j]
                    out[s, sel, j] = tmp
            inv = inv_t[out[s, npiv, c]]
            if inv != 1:
                for j in range(c, cols):
                    out[s, npiv, j] = mul_t[inv, out[s, npiv, j]]
            for i in range(0 if full else npiv + 1, rows):
                if i != npiv and out[s, i, c] != 0:
                    f = neg_t[out[s, i, c]]
                    for j in range(c, cols):
                        out[s, i, j] = add_t[out[s, i, j], mul_t[f, out[s, npiv, j]]]
            npiv += 1
        ranks[s] = npiv
    return out, ranks

"""Table-driven GF(q) matrix kernels in numpy.

Three batched kernels carry every matrix computation of the package:
``matmul_batch``, ``rank_batch`` and ``rref_batch``.  Rank and RREF share
one Gaussian elimination, which reduces above the pivots only for RREF.

Over GF(2), a matrix with 1 to 64 columns takes a packed path: each row is
one ``uint64`` (column c is bit cols-1-c, so a row's leftmost nonzero entry
is its highest set bit), row addition is one XOR, elimination clears each
row's highest bit from the other rows of its matrix, and the product XORs
the packed rows of ``b`` that ``a`` selects, as in M4RI (Albrecht, Bard and
Hart, ACM TOMS 2010).  Other fields and wider matrices use the table
elimination.

``matmul`` and ``rref`` act on one matrix: each is a batch of one.  The
plain-python loop kernels ``_matmul_batch_loops`` and
``_eliminate_batch_loops`` are the reference the tests compare against.

All kernels take matrices as 2-D/3-D uint8 arrays of element encodings plus
the field's operation tables (see gf.GF): ``add_t``/``mul_t`` are (q, q)
uint8, ``inv_t``/``neg_t`` are (q,) uint8.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND"]

#: The kernels' implementation, recorded in benchmark results.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Loop implementations (the plain-python reference)
# ---------------------------------------------------------------------------

def _matmul_batch_loops(a, b, add_t, mul_t):
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


def _eliminate_batch_loops(mats, add_t, mul_t, inv_t, neg_t, full):
    """Gaussian elimination of each matrix; full=True reduces above pivots too."""
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


# ---------------------------------------------------------------------------
# Vectorized numpy implementations
# ---------------------------------------------------------------------------

def _packs_gf2(add_t, cols):
    """Whether the numpy kernels take the packed GF(2) path for this width."""
    return add_t.shape[0] == 2 and 1 <= cols <= 64


def _pack_gf2(mats):
    """Rows of a (..., cols) 0/1 array as uint64 words, column c at bit cols-1-c."""
    cols = mats.shape[-1]
    nbytes = (cols + 7) // 8
    lead = mats.shape[:-1]
    # Left-pad each row to whole bytes, so one flat packbits packs every row.
    bits = np.zeros(lead + (8 * nbytes,), dtype=np.uint8)
    bits[..., 8 * nbytes - cols :] = mats
    words = np.zeros(lead + (8,), dtype=np.uint8)
    words[..., 8 - nbytes :] = np.packbits(bits.reshape(-1)).reshape(lead + (nbytes,))
    return words.view(">u8")[..., 0].astype(np.uint64)


def _unpack_gf2(words, cols):
    """Inverse of _pack_gf2: (...,) uint64 words to a (..., cols) uint8 array."""
    nbytes = (cols + 7) // 8
    big = words.astype(">u8")[..., None].view(np.uint8)[..., 8 - nbytes :]
    bits = np.unpackbits(np.ascontiguousarray(big).reshape(-1))
    return np.ascontiguousarray(bits.reshape(words.shape + (8 * nbytes,))[..., 8 * nbytes - cols :])


def _high_bit(words, cols):
    """The highest set bit of each word below 2**cols (0 for a zero word)."""
    shift = 1
    while shift < cols:
        words = words | (words >> shift)
        shift *= 2
    return words ^ (words >> 1)


def _matmul_gf2_packed(a, b):
    packed_b = _pack_gf2(b)
    out = np.zeros(a.shape[:2], dtype=np.uint64)
    for t in range(a.shape[2]):
        out ^= a[:, :, t] * packed_b[:, t, None]
    return _unpack_gf2(out, b.shape[2])


def _eliminate_gf2_packed(mats, full):
    """Elimination on packed rows; row i's highest bit is cleared from the
    later rows, or for full=True from all other rows, so the nonzero rows
    end with distinct leading bits."""
    nmat, rows, cols = mats.shape
    words = _pack_gf2(mats)
    for i in range(rows if full else rows - 1):
        piv = words[:, i]
        rest = words if full else words[:, i + 1 :]
        hit = (rest & _high_bit(piv, cols)[:, None]) != 0
        if full:
            hit[:, i] = False
        rest ^= piv[:, None] * hit
    ranks = np.zeros(nmat, dtype=np.int64)
    for i in range(rows):
        ranks += words[:, i] != 0
    if not full:
        return None, ranks
    # Descending words order the rows by leading column, zero rows last.
    words.sort(axis=1)
    return _unpack_gf2(words[:, ::-1], cols), ranks


def matmul_batch(a, b, add_t, mul_t):
    """Products a[s] @ b[s] of two (nmat, n, k) and (nmat, k, m) stacks."""
    if _packs_gf2(add_t, b.shape[2]):
        return _matmul_gf2_packed(a, b)
    nmat, n, kk = a.shape
    m = b.shape[2]
    out = np.zeros((nmat, n, m), dtype=np.uint8)
    for t in range(kk):
        out = add_t[out, mul_t[a[:, :, t][:, :, None], b[:, t, :][:, None, :]]]
    return out


def _eliminate_batch(mats, add_t, mul_t, inv_t, neg_t, full):
    """Gaussian elimination of each matrix; full=True reduces above pivots too."""
    if _packs_gf2(add_t, mats.shape[2]):
        return _eliminate_gf2_packed(mats, full)
    r = mats.copy()
    nmat, rows, cols = r.shape
    if nmat == 0 or rows == 0 or cols == 0:
        return r, np.zeros(nmat, dtype=np.int64)
    pr = np.zeros(nmat, dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(cols):
        colv = r[:, :, c]
        eligible = (row_ids[None, :] >= pr[:, None]) & (colv != 0)
        has = eligible.any(axis=1)
        sel = np.nonzero(has)[0]
        if sel.size == 0:
            continue
        first = eligible[sel].argmax(axis=1)
        prs = pr[sel]
        tmp = r[sel, first].copy()
        r[sel, first] = r[sel, prs]
        r[sel, prs] = tmp
        piv_rows = mul_t[inv_t[r[sel, prs, c]][:, None], r[sel, prs]]
        r[sel, prs] = piv_rows
        factors = r[sel, :, c].copy()
        if full:
            factors[np.arange(sel.size), prs] = 0
        else:
            factors[row_ids[None, :] <= prs[:, None]] = 0
        r[sel] = add_t[r[sel], mul_t[neg_t[factors][:, :, None], piv_rows[:, None, :]]]
        pr[sel] += 1
        if np.all(pr == rows):
            break
    return r, pr


def rank_batch(mats, add_t, mul_t, inv_t, neg_t):
    """Rank of each matrix of a (nmat, rows, cols) stack, as int64."""
    return _eliminate_batch(mats, add_t, mul_t, inv_t, neg_t, False)[1]


def rref_batch(mats, add_t, mul_t, inv_t, neg_t):
    """RREF of each matrix of a stack, and the ranks."""
    return _eliminate_batch(mats, add_t, mul_t, inv_t, neg_t, True)


def matmul(a, b, add_t, mul_t):
    """Product of two matrices: a batch of one through matmul_batch."""
    return matmul_batch(a[None], b[None], add_t, mul_t)[0]


def rref(mat, add_t, mul_t, inv_t, neg_t):
    """RREF of one matrix and its pivot columns, through rref_batch."""
    r, ranks = rref_batch(mat[None], add_t, mul_t, inv_t, neg_t)
    r = r[0]
    return r, np.array([np.flatnonzero(row)[0] for row in r[: ranks[0]]], dtype=np.int64)

"""GF(q) matrix kernels in numpy.

Three batched kernels carry every matrix computation of the package:
``matmul_batch``, ``rank_batch`` and ``rref_batch``.  Rank and RREF share
one Gaussian elimination, which reduces above the pivots only for RREF.
Each runs its batch in blocks of ``_BLOCK`` matrices, which bounds memory.
A nonempty shape with at most 6 columns and q^(rows cols) no more than the
batch or one block reads its ranks from a rank table at each matrix's code
(``codes``): the ranks of ``every_matrix`` of the shape, eliminated once per
(q, rows, cols) by the first such call and kept read-only.

Over GF(2^k), a matrix with 1 to 64 columns is bit-sliced as in M4RIE
(Albrecht, ISSAC 2012): a row is k ``uint64`` planes, plane j holding bit j
of each entry, column c at bit cols-1-c, so adding rows is one XOR per plane.
k = 1 is the packed GF(2) of M4RI (Albrecht, Bard and Hart, ACM TOMS 2010).
Odd q and wider matrices use the table elimination.

``matmul`` and ``rref`` act on one matrix: each is a batch of one.  The
tests compare every kernel against plain-python reference loops kept in
``tests/conftest.py``.

All kernels take matrices as 2-D/3-D uint8 arrays of element encodings plus
the field's operation tables (see gf.GF): ``add_t``/``mul_t`` are (q, q)
uint8, ``inv_t``/``neg_t`` are (q,) uint8.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["BACKEND"]

#: The kernels' implementation, recorded in benchmark results.
BACKEND = "numpy"


_BLOCK = 16384
# Rank tables by (q, rows, cols), each read-only: GF(q) has one instance, so q fixes the operation tables.
_RANKS = {}


def _plane_count(add_t, cols):
    """k when the field is GF(2^k) and the packed path takes this width, else 0."""
    q = add_t.shape[0]
    return q.bit_length() - 1 if q & (q - 1) == 0 and 1 <= cols <= 64 else 0


def _bits(s, k):
    """Bit j of the uint8s s at index j of a new first axis (GF(2) entries are bits)."""
    return s[None] if k == 1 else (s >> np.arange(k, dtype=np.uint8).reshape((k,) + (1,) * s.ndim)) & 1


def _pack(mats, k):
    """(nmat, rows, cols) entries as (k, rows, nmat) little-endian uint64 planes."""
    nbytes = (mats.shape[2] + 7) // 8
    # Rows left-padded to whole bytes pack in one flat packbits (nonzero is 1).
    bits = np.zeros((k,) + mats.shape[:2] + (8 * nbytes,), dtype=np.uint8)
    for j in range(k):
        bits[j, ..., 8 * nbytes - mats.shape[2] :] = mats & (1 << j) if k > 1 else mats
    packed = np.packbits(bits.reshape(-1)).reshape(bits.shape[:-1] + (nbytes,))
    planes = np.zeros((k, mats.shape[1], mats.shape[0]), dtype="<u8")
    planes[..., None].view(np.uint8)[..., :nbytes] = packed.transpose(0, 2, 1, 3)[..., ::-1]
    return planes


def _unpack(planes, cols):
    """(k, nmat, rows) planes as a (nmat, rows, cols) view of their entries."""
    nbytes = (cols + 7) // 8
    big = planes.astype("<u8", copy=False)[..., None].view(np.uint8)[..., nbytes - 1 :: -1]
    bits = np.unpackbits(big.reshape(-1)).reshape(big.shape[:-1] + (8 * nbytes,))
    for j in range(1, len(bits)):  # in place: the peak must not hinge on numpy eliding a temporary
        bits[0] |= bits[j] << j
    return bits[0, ..., 8 * nbytes - cols :]


def _high_bit(words, cols):
    """The highest set bit of each word below 2**cols (0 for a zero word)."""
    shift = 1
    while shift < cols:
        words = words | (words >> shift)
        shift *= 2
    return words ^ (words >> 1)


def _scale(planes, s_bits, mul_t):
    """planes times the scalars whose bit j is s_bits[j]: the XOR of x^j planes
    over the set bits j.  Times x, bits move up a plane and x^k adds x * x^(k-1)
    from the table, whose constant term 1 (the polynomial is irreducible) np.roll wraps in."""
    out = planes * s_bits[0]
    for j in range(1, len(planes)):
        planes = np.roll(planes, 1, axis=0)
        planes[1:] ^= np.multiply.outer(_bits(mul_t[2, len(mul_t) // 2], len(planes))[1:], planes[0])
        out ^= planes * s_bits[j]
    return out


def _eliminate_packed(mats, k, mul_t, inv_t, full, rs, ranks):
    """Elimination on planes: row i, scaled to a leading 1, is subtracted f times
    from each later row (each other row for full=True), f being that row's entry
    in row i's leading column; nonzero rows end with distinct leading columns.
    Writes the ranks into ``ranks`` and, for full=True, the RREFs into ``rs``."""
    rows, cols = mats.shape[1:]
    planes = _pack(mats, k)
    for i in range(rows if full else rows - 1):
        piv = planes[:, i]
        bit = _high_bit(functools.reduce(np.bitwise_or, piv), cols)
        if k > 1:
            entry = sum(((plane & bit) != 0).astype(np.uint8) << j for j, plane in enumerate(piv))
            piv[...] = _scale(piv, _bits(inv_t[entry], k), mul_t)
        rest = planes if full else planes[:, i + 1 :]
        hit = (rest & bit) != 0
        if full:
            hit[:, i] = False
        rest ^= _scale(piv[:, None], hit, mul_t)
    lead = functools.reduce(np.bitwise_or, planes)
    (lead != 0).sum(axis=0, out=ranks)
    if not full:
        return
    # Row r moves to the number of rows with a larger leading word: nonzero rows
    # to distinct slots in order, zero rows all to slot rank; later slots stay 0.
    dest = sum((row > lead for row in lead), np.zeros(lead.shape, dtype=np.uint8))
    out = np.zeros((k, lead.shape[1], rows), dtype=np.uint64)
    out[:, np.arange(lead.shape[1])[:, None], dest.T] = planes.transpose(0, 2, 1)
    rs[...] = _unpack(out, cols)


def _eliminate_table(r, add_t, mul_t, inv_t, neg_t, full, pr):
    """Elimination of the stack r in place, counting each matrix's pivots into the zeros pr."""
    nmat, rows, cols = r.shape
    row_ids = np.arange(rows)
    for c in range(cols):
        if np.all(pr == rows):
            break
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


def matmul_batch(a, b, add_t, mul_t):
    """Products a[s] @ b[s] of two (nmat, n, k) and (nmat, k, m) stacks, each
    block written into the output before the next block's temporaries exist."""
    k = _plane_count(add_t, b.shape[2])
    out = np.empty((len(a), a.shape[1], b.shape[2]), dtype=np.uint8)
    for s in range(0, len(a), _BLOCK):
        ab, bb = a[s : s + _BLOCK], b[s : s + _BLOCK]
        if k:  # row i of a product XORs a[s, i, t] times row t of b over t
            planes, a_bits = _pack(bb, k), _bits(ab, k)
            acc = np.zeros((k,) + ab.shape[:2], dtype=np.uint64)
            for t in range(ab.shape[2]):
                acc ^= _scale(planes[:, t, :, None], a_bits[..., t], mul_t)
            out[s : s + _BLOCK] = _unpack(acc, bb.shape[2])
            del planes, a_bits, acc
        else:
            acc = np.zeros((len(ab), ab.shape[1], bb.shape[2]), dtype=np.uint8)
            for t in range(ab.shape[2]):
                acc = add_t[acc, mul_t[ab[:, :, t, None], bb[:, t, None, :]]]
            out[s : s + _BLOCK] = acc
    return out


def _eliminate_batch(mats, add_t, mul_t, inv_t, neg_t, full):
    """Gaussian elimination of each matrix: RREFs (None for full=False, which
    reduces below pivots only) and ranks, each block written into the outputs."""
    rs, ranks = (mats.copy() if full else None), np.zeros(len(mats), dtype=np.int64)
    k = _plane_count(add_t, mats.shape[2])
    for s in range(0, len(mats), _BLOCK):
        part = slice(s, s + _BLOCK)
        if k:
            _eliminate_packed(mats[part], k, mul_t, inv_t, full, rs[part] if full else None, ranks[part])
        else:
            _eliminate_table(rs[part] if full else mats[part].copy(), add_t, mul_t, inv_t, neg_t, full, ranks[part])
    return rs, ranks


def codes(mats, q):
    """Each matrix's row-major entries as base-q digits, the first the most significant, by Horner in intp."""
    digits = mats.reshape(len(mats), mats.shape[1] * mats.shape[2]).T
    code = digits[0].astype(np.intp)
    for column in digits[1:]:
        code *= q
        code += column
    return code


def every_matrix(q, rows, cols):
    """Every rows x cols matrix over GF(q), in code order."""
    return np.indices((q,) * (rows * cols), dtype=np.uint8).reshape(rows * cols, -1).T.reshape(-1, rows, cols)


def rank_batch(mats, add_t, mul_t, inv_t, neg_t):
    """Rank of each matrix of a (nmat, rows, cols) stack, as int64; for a small
    shape, read from its rank table at each matrix's code (module docstring)."""
    q, (nmat, rows, cols) = len(add_t), mats.shape
    if not (0 < rows * cols and cols <= 6 and q ** (rows * cols) <= min(nmat, _BLOCK)):
        return _eliminate_batch(mats, add_t, mul_t, inv_t, neg_t, False)[1]
    if (q, rows, cols) not in _RANKS:
        _RANKS[q, rows, cols] = _eliminate_batch(every_matrix(q, rows, cols), add_t, mul_t, inv_t, neg_t, False)[1]
        _RANKS[q, rows, cols].setflags(write=False)
    return _RANKS[q, rows, cols][codes(mats, q)]


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

"""GF(q) kernels: the batched numpy kernels, and their batches of one, must
agree bit-for-bit with the plain-python reference loops."""

import hashlib
import json

import numpy as np
import pytest

from conftest import all_matrices, eliminate_batch_loops, matmul_batch_loops, traced_peak
from subchan import _kernels
from subchan.channel import ChannelSpec, RankDefDist
from subchan.gf import GF
from subchan.grassmann import contains, span
from subchan.matrix import Mat, rank
from subchan.mc import empirical_capacity_pipeline, mc_report_to_dict, run_mc

FIELDS = [2, 3, 4, 5, 9]
SHAPES = [(1, 1), (2, 2), (2, 3), (3, 2), (4, 5), (0, 3), (3, 0), (1, 6)]


def _tables(q):
    f = GF(q)
    return f.add_table, f.mul_table, f.inv_table, f.neg_table


def _random_mats(q, count, n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=(count, n, m), dtype=np.uint8)


def _ref_rref_batch(mats, add_t, mul_t, inv_t, neg_t):
    return eliminate_batch_loops(mats, add_t, mul_t, inv_t, neg_t, True)


def _ref_rank_batch(mats, add_t, mul_t, inv_t, neg_t):
    return eliminate_batch_loops(mats, add_t, mul_t, inv_t, neg_t, False)[1]


_ref_matmul_batch = matmul_batch_loops


@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_backends_agree_on_rref_and_rank(q, shape):
    n, m = shape
    tables = _tables(q)
    mats = _random_mats(q, 40, n, m, seed=q * 100 + n * 10 + m)
    ref_rs, ref_ranks = _ref_rref_batch(mats, *tables)
    assert np.array_equal(_ref_rank_batch(mats, *tables), ref_ranks)
    rs, ranks = _kernels.rref_batch(mats, *tables)
    assert np.array_equal(rs, ref_rs)
    assert np.array_equal(ranks, ref_ranks)
    assert np.array_equal(_kernels.rank_batch(mats, *tables), ref_ranks)
    for i in range(len(mats)):
        r_single, piv = _kernels.rref(mats[i], *tables)
        assert np.array_equal(r_single, ref_rs[i])
        assert len(piv) == ref_ranks[i]


@pytest.mark.parametrize("q", FIELDS)
def test_backends_agree_on_matmul(q):
    add_t, mul_t, _, _ = _tables(q)
    a = _random_mats(q, 30, 3, 4, seed=q)
    b = _random_mats(q, 30, 4, 2, seed=q + 1)
    out = _kernels.matmul_batch(a, b, add_t, mul_t)
    assert np.array_equal(out, _ref_matmul_batch(a, b, add_t, mul_t))
    for i in range(len(a)):
        assert np.array_equal(_kernels.matmul(a[i], b[i], add_t, mul_t), out[i])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_backends_match_reference_loops(q):
    """The plain-python loops are the behavioral reference."""
    tables = _tables(q)
    add_t, mul_t = tables[:2]
    mats = _random_mats(q, 12, 3, 4, seed=q + 7)
    a = _random_mats(q, 12, 2, 3, seed=q + 8)
    b = _random_mats(q, 12, 3, 3, seed=q + 9)
    ref_rref, ref_ranks = _ref_rref_batch(mats, *tables)
    assert np.array_equal(_ref_rank_batch(mats, *tables), ref_ranks)
    rs, ranks = _kernels.rref_batch(mats, *tables)
    assert np.array_equal(rs, ref_rref)
    assert np.array_equal(ranks, ref_ranks)
    assert np.array_equal(_kernels.rank_batch(mats, *tables), ref_ranks)
    assert np.array_equal(_kernels.matmul_batch(a, b, add_t, mul_t), _ref_matmul_batch(a, b, add_t, mul_t))


# Widths around the byte and word boundaries of the packed GF(2) path, and
# 65 columns, which falls back to the table elimination.
PACKED_COLS = [1, 7, 8, 9, 16, 17, 63, 64, 65]


def _gf2_mats(rng, count, rows, cols):
    """Random 0/1 matrices: a third dense, a third sparse (zero rows and rank
    deficiency), a third with the last row repeating the first."""
    mats = rng.integers(0, 2, size=(count, rows, cols), dtype=np.uint8)
    mats[1::3] &= rng.integers(0, 2, size=mats[1::3].shape, dtype=np.uint8)
    mats[1::3] &= rng.integers(0, 2, size=mats[1::3].shape, dtype=np.uint8)
    if rows > 1:
        mats[2::3, -1] = mats[2::3, 0]
    return mats


@pytest.mark.parametrize("cols", PACKED_COLS)
def test_gf2_numpy_kernels_match_reference_loops(cols):
    tables = _tables(2)
    add_t, mul_t = tables[:2]
    rng = np.random.default_rng(cols)
    count = 12 if cols < 32 else 6
    for rows in [0, 1, 2, 3, 4, 5, 6, cols + 1]:
        mats = _gf2_mats(rng, count, rows, cols)
        ref_rref, ref_ranks = _ref_rref_batch(mats, *tables)
        rs, ranks = _kernels.rref_batch(mats, *tables)
        assert rs.dtype == np.uint8 and rs.flags.c_contiguous
        assert np.array_equal(rs, ref_rref), rows
        assert np.array_equal(ranks, ref_ranks), rows
        assert np.array_equal(_kernels.rank_batch(mats, *tables), ref_ranks), rows
        a = _gf2_mats(rng, count, 3, rows)
        mm = _kernels.matmul_batch(a, mats, add_t, mul_t)
        assert mm.dtype == np.uint8
        assert np.array_equal(mm, _ref_matmul_batch(a, mats, add_t, mul_t)), rows


@pytest.mark.parametrize("q", [2, 4, 8])
@pytest.mark.parametrize("cols, packed", [(64, True), (65, False)])
def test_packed_path_taken_up_to_64_columns(monkeypatch, q, cols, packed):
    add_t, mul_t, inv_t, neg_t = _tables(q)
    mats = _random_mats(q, 3, 2, cols, seed=0)
    planes = []
    original = _kernels._pack
    monkeypatch.setattr(_kernels, "_pack", lambda m, k: planes.append(k) or original(m, k))
    _kernels.rref_batch(mats, add_t, mul_t, inv_t, neg_t)
    _kernels.rank_batch(mats, add_t, mul_t, inv_t, neg_t)
    _kernels.matmul_batch(mats[:, :, :2], mats, add_t, mul_t)
    k = q.bit_length() - 1
    assert planes == ([k, k, k] if packed else [])


# The bit-plane path covers GF(2^k); 0 and 65 columns take the table path.
PLANE_FIELDS = [2, 4, 8, 16, 256]
PLANE_COLS = [0, 1, 7, 8, 9, 63, 64, 65]


def _char2_mats(rng, q, count, rows, cols):
    """Random GF(q) matrices: a zero matrix, then in turn dense ones, sparse
    ones (zero rows and rank deficiency), and ones whose last row repeats the
    first."""
    mats = rng.integers(0, q, size=(count, rows, cols), dtype=np.uint8)
    mats[0] = 0
    mats[1::3] *= (rng.random(mats[1::3].shape) < 0.2).astype(np.uint8)
    if rows > 1:
        mats[2::3, -1] = mats[2::3, 0]
    return mats


@pytest.mark.parametrize("q", PLANE_FIELDS)
@pytest.mark.parametrize("cols", PLANE_COLS)
def test_plane_kernels_match_reference_loops(monkeypatch, q, cols):
    # Blocks of 4 matrices, so the 7-matrix batches cross a block boundary.
    monkeypatch.setattr(_kernels, "_BLOCK", 4)
    tables = _tables(q)
    add_t, mul_t = tables[:2]
    rng = np.random.default_rng(q * 1000 + cols)
    for rows in [0, 1, 2, 3, 5, cols + 1]:
        count = 7 if rows * cols <= 200 else 2
        mats = _char2_mats(rng, q, count, rows, cols)
        ref_rref, ref_ranks = _ref_rref_batch(mats, *tables)
        rs, ranks = _kernels.rref_batch(mats, *tables)
        assert rs.dtype == np.uint8 and rs.flags.c_contiguous and ranks.dtype == np.int64
        assert np.array_equal(rs, ref_rref), rows
        assert np.array_equal(ranks, ref_ranks), rows
        assert np.array_equal(_kernels.rank_batch(mats, *tables), ref_ranks), rows
        a = _char2_mats(rng, q, count, 3, rows)
        mm = _kernels.matmul_batch(a, mats, add_t, mul_t)
        assert mm.dtype == np.uint8 and mm.flags.c_contiguous
        assert np.array_equal(mm, _ref_matmul_batch(a, mats, add_t, mul_t)), rows


@pytest.mark.parametrize("q", [2, 3, 4])
def test_batch_larger_than_one_block(q):
    """Matrices on both sides of a block boundary match the reference loops."""
    tables = _tables(q)
    n = _kernels._BLOCK + 3
    mats = _random_mats(q, n, 2, 3, seed=q)
    a = _random_mats(q, n, 3, 2, seed=q + 1)
    edge = slice(n - 6, n)
    ref_rref, ref_ranks = _ref_rref_batch(mats[edge], *tables)
    rs, ranks = _kernels.rref_batch(mats, *tables)
    assert rs.shape == mats.shape and ranks.shape == (n,)
    assert np.array_equal(rs[edge], ref_rref)
    assert np.array_equal(ranks[edge], ref_ranks)
    assert np.array_equal(_kernels.rank_batch(mats, *tables)[edge], ref_ranks)
    out = _kernels.matmul_batch(a, mats, *tables[:2])
    assert np.array_equal(out[edge], _ref_matmul_batch(a[edge], mats[edge], *tables[:2]))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_blocks_do_not_reenter_the_public_kernels(monkeypatch, q):
    """A batch of several blocks is one call of each public kernel, so the
    benchmark's traced call and matrix counts do not depend on the block size."""
    monkeypatch.setattr(_kernels, "_BLOCK", 4)
    tables = _tables(q)
    calls = []
    for name in ("matmul_batch", "rank_batch", "rref_batch"):
        original = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    mats = _random_mats(q, 10, 2, 3, seed=q)
    _kernels.rank_batch(mats, *tables)
    _kernels.rref_batch(mats, *tables)
    _kernels.matmul_batch(mats[:, :, :2], mats, *tables[:2])
    # A cold 1 x 1 rank table (q <= 4 entries, one block) is built by the
    # elimination, not by a second rank_batch call.
    monkeypatch.setattr(_kernels, "_RANKS", {})
    _kernels.rank_batch(mats[:, :1, :1], *tables)
    assert calls == ["rank_batch", "rref_batch", "matmul_batch", "rank_batch"]
    assert list(_kernels._RANKS) == [(q, 1, 1)]


# Every nonempty shape that reads a rank table, at the fields of the package's
# tests: at most 6 columns and at most one block of entries.
TABLE_SHAPES = [
    (q, rows, cols)
    for q in (2, 3, 4, 5, 7, 8, 16, 256)
    for cols in range(1, 7)
    for rows in range(1, 15)
    if q ** (rows * cols) <= _kernels._BLOCK
]


def _matrix_at(q, rows, cols, code):
    """The matrix of a code, its base-q digits written out most significant first."""
    digits = [(int(code) // q**i) % q for i in reversed(range(rows * cols))]
    return np.array(digits, dtype=np.uint8).reshape(rows, cols)


@pytest.mark.parametrize("q, rows, cols", TABLE_SHAPES)
def test_rank_table_matches_reference_loops(monkeypatch, q, rows, cols):
    """A cold table, built by the reduce-below-pivots elimination, holds the
    reference rank of every matrix in code order (the lexicographic order of
    ``all_matrices``), read-only int64; a batch over every matrix reads it back.
    Tables of more than 4,096 entries are checked on a random sample of codes."""
    monkeypatch.setattr(_kernels, "_RANKS", {})
    tables = _tables(q)
    size = q ** (rows * cols)
    mats = _kernels.every_matrix(q, rows, cols)
    if size <= 4096:
        assert np.array_equal(mats, np.array(list(all_matrices(q, rows, cols)), dtype=np.uint8).reshape(size, rows, cols))
        sample = np.arange(size)
    else:
        sample = np.random.default_rng(size).choice(size, 400, replace=False)
        assert np.array_equal(mats[sample], [_matrix_at(q, rows, cols, c) for c in sample])
    assert np.array_equal(_kernels.codes(mats, q), np.arange(size))
    ranks = _kernels.rank_batch(mats, *tables)
    table = _kernels._RANKS[q, rows, cols]
    assert table.dtype == np.int64 and ranks.dtype == np.int64
    assert not table.flags.writeable and ranks.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0
    ref = _ref_rank_batch(mats[sample], *tables)
    assert np.array_equal(table[sample], ref)
    assert np.array_equal(ranks[sample], ref)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes_rank_zero(monkeypatch, q, shape):
    monkeypatch.setattr(_kernels, "_RANKS", {})
    ranks = _kernels.rank_batch(np.zeros((5, *shape), dtype=np.uint8), *_tables(q))
    assert ranks.dtype == np.int64 and np.array_equal(ranks, np.zeros(5))
    assert _kernels.rank_batch(np.zeros((0, 1, 2), dtype=np.uint8), *_tables(q)).dtype == np.int64
    assert _kernels._RANKS == {}


def _spy_eliminations(monkeypatch):
    """Cold rank tables, and the batch size of each later ``_eliminate_batch`` call."""
    monkeypatch.setattr(_kernels, "_RANKS", {})
    sizes = []
    original = _kernels._eliminate_batch
    monkeypatch.setattr(_kernels, "_eliminate_batch", lambda mats, *args: sizes.append(len(mats)) or original(mats, *args))
    return sizes


@pytest.mark.parametrize("T", [2, 4])
def test_a_batch_of_one_builds_no_table(monkeypatch, T):
    """``rank`` and ``contains`` eliminate their one matrix (q2 2 x 2 and 4 x 4
    stacks), however small its shape's table would be."""
    f = GF(2)
    eye = np.eye(T, dtype=np.uint8)
    u, v = span(Mat(f, eye[: T // 2])), span(Mat(f, eye[T // 2 :]))
    sizes = _spy_eliminations(monkeypatch)
    assert rank(Mat(f, eye)) == T
    assert contains(u, v) is False
    assert sizes == [1, 1] and _kernels._RANKS == {}


def test_a_cold_table_is_built_once(monkeypatch):
    """A cold 1 x 2 call over 4,408 candidates eliminates the 4 matrices of the
    table once, and no candidate; a second call eliminates nothing."""
    sizes = _spy_eliminations(monkeypatch)
    tables = _tables(2)
    mats = _random_mats(2, 4408, 1, 2, seed=5)
    first = _kernels.rank_batch(mats, *tables)
    assert sizes == [4] and list(_kernels._RANKS) == [(2, 1, 2)]
    assert np.array_equal(_kernels.rank_batch(mats, *tables), first)
    assert sizes == [4]
    assert np.array_equal(first, _ref_rank_batch(mats, *tables))


@pytest.mark.parametrize("q, rows, cols", [(2, 4, 64), (4, 4, 32), (4, 2, 3), (3, 4, 16)])
def test_a_second_block_adds_only_its_outputs_to_the_peak(q, rows, cols):
    """Each block is written into the preallocated outputs (RREFs and int64
    ranks; products of rows x rows by rows x cols), so the traced peak of two
    blocks exceeds that of one by the second block's outputs and at most about
    a kilobyte of small objects (4 KiB allowed).  Joining per-block results at
    the end would hold them twice, which shows at the wide shapes, where
    outputs outweigh the temporaries.  Both blocks hold the same matrices, so
    the table path's (q3) temporaries match too."""
    tables = _tables(q)
    block = _random_mats(q, _kernels._BLOCK, rows, cols, seed=q)
    left = _random_mats(q, _kernels._BLOCK, rows, rows, seed=q + 1)

    def growth(kernel, mats, tables):
        def peak(stacks):
            kernel(*stacks, *tables)
            return traced_peak(lambda: kernel(*stacks, *tables))

        return peak([np.concatenate([m, m]) for m in mats]) - peak(mats)

    outputs = _kernels._BLOCK * (rows * cols + np.dtype(np.int64).itemsize)
    assert growth(_kernels.rref_batch, [block], tables) <= outputs + 4096
    assert growth(_kernels.matmul_batch, [left, block], tables[:2]) <= _kernels._BLOCK * rows * cols + 4096


# sha256 of json.dumps(mc_report_to_dict(run_mc(spec, 2000, 1)), sort_keys=True):
# the kernels must reproduce every seeded report bit for bit.  The MC digests
# were last re-recorded when the stream changed from a whole h x h selector
# per use to the h - d kept rows of the uses with 0 < d < h, drawn per
# deficiency with a margin of candidates; the table-driven and the bit-plane
# kernels both give them.  A run of more than 65,536 draws per input spans
# several chunks of the seeded stream; the 140,000-draw digest pins the
# order across them.
@pytest.mark.parametrize(
    "T, h, rank_def, digest, draws",
    [
        (4, 2, (0.5, 0.3, 0.2), "dac79e293f75765cdc4f6c9e348cf262d73e1c99f5006cc7d238deea3f7a3104", 2000),
        (5, 3, (0.4, 0.3, 0.2, 0.1), "648a473cd3726fcd8abe8f3be1b3a0eac6a574a50f142f3c425c1b9c0ff3e428", 2000),
        (3, 2, (0.5, 0.3, 0.2), "dd19edbbcac2107a55f0035801f27d04f504660dd18455c54a0049b03b236a60", 140_000),
        # The uniform law at h = 5: d = 1 (4 x 5 kept rows) is eliminated, d = 2..4 use slot tables.
        (6, 5, (1 / 6,) * 6, "8130d0a35881d16cc7807fd0fa8ddfc65273dfa7f86976e1a39356f48b2c1ec3", 2000),
    ],
)
def test_gf2_mc_report_golden_hash(T, h, rank_def, digest, draws):
    report = run_mc(ChannelSpec(GF(2), T, h, RankDefDist(h, rank_def)), draws, 1)
    text = json.dumps(mc_report_to_dict(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The GF(4) report, re-recorded with the GF(2) digests above.
def test_gf4_mc_report_golden_hash():
    report = run_mc(ChannelSpec(GF(4), 3, 2, RankDefDist(2, (0.5, 0.3, 0.2))), 2000, 1)
    text = json.dumps(mc_report_to_dict(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b38ee0a6f45fbff59b262d4493a7b7c3497c6658368d5fd3fa08e0c21c20078d"
    )


# The one odd-field report: at q3 T4 h4 the d = 1 kept rows (3 x 4, 3^12
# matrices, more than a slot table admits) are eliminated by the table
# kernel, and those of d = 2 and d = 3 are looked up in slot tables.
def test_gf3_mc_report_golden_hash():
    report = run_mc(ChannelSpec(GF(3), 4, 4, RankDefDist(4, (0.2,) * 5)), 2000, 1)
    text = json.dumps(mc_report_to_dict(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "567468a3b2b0971032134326ac85d30e9c73dd3750b334fca15f99809c244f44"
    )


# The pipeline draws only deficiencies, so its stream is the first ``draws``
# uniforms of substream 0.  The 20,000-draw digests fit in one chunk and did
# not move when the kept rows stopped being drawn; the 150,000-draw digest
# spans three chunks, with counts (37687, 37564, 37444, 37305).
@pytest.mark.parametrize(
    "q, T, h, digest, draws",
    [
        (4, 5, 3, "9dc0793a4f0d012bdf8c712919ee378665d69cb79a1a73c88c93f1a42f119387", 20000),
        (8, 4, 2, "cf65e7a911d5154f266de6bfb1d800fb7c23f7b4daa2fc856e6ebdb7685d7188", 20000),
        (4, 5, 3, "69e8eb1b3de93a7d40b18795739196cdbf9086c3461f0f1ea407f220ccc16ff8", 150_000),
    ],
)
def test_pipeline_report_golden_hash(q, T, h, digest, draws):
    _est, report = empirical_capacity_pipeline(ChannelSpec(GF(q), T, h, RankDefDist.uniform(h)), draws, 1)
    text = json.dumps(
        {
            "counts": report.deficiency_counts,
            "estimated": report.estimated_dist.probs.tolist(),
            "capacity_estimated": report.capacity_estimated.to_dict(),
            "capacity_true": report.capacity_true.to_dict(),
        },
        sort_keys=True,
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_rref_is_idempotent_and_preserves_pivot_structure():
    add_t, mul_t, inv_t, neg_t = _tables(3)
    mats = _random_mats(3, 60, 3, 5, seed=5)
    rs, ranks = _kernels.rref_batch(mats, add_t, mul_t, inv_t, neg_t)
    rs2, ranks2 = _kernels.rref_batch(rs, add_t, mul_t, inv_t, neg_t)
    assert np.array_equal(rs, rs2)
    assert np.array_equal(ranks, ranks2)
    for r, rank_ in zip(rs, ranks):
        last_piv = -1
        for i in range(int(rank_)):
            nz = np.nonzero(r[i])[0]
            assert nz.size > 0
            piv = int(nz[0])
            assert piv > last_piv
            assert r[i, piv] == 1
            assert np.count_nonzero(r[:, piv]) == 1
            last_piv = piv
        assert not r[int(rank_):].any()


def test_zero_and_identity_cases():
    add_t, mul_t, inv_t, neg_t = _tables(2)
    eye = np.eye(3, dtype=np.uint8)
    zero = np.zeros((3, 3), dtype=np.uint8)
    r, piv = _kernels.rref(eye, add_t, mul_t, inv_t, neg_t)
    assert np.array_equal(r, eye) and list(piv) == [0, 1, 2]
    r, piv = _kernels.rref(zero, add_t, mul_t, inv_t, neg_t)
    assert not r.any() and len(piv) == 0
    assert np.array_equal(_kernels.matmul(eye, eye, add_t, mul_t), eye)
    assert not _kernels.matmul(zero, eye, add_t, mul_t).any()

"""GF(q) kernels: the batched numpy kernels, and their batches of one, must
agree bit-for-bit with the plain-python reference loops."""

import hashlib
import json

import numpy as np
import pytest

from subchan import _kernels
from subchan.channel import ChannelSpec, RankDefDist
from subchan.gf import GF
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
    return _kernels._eliminate_batch_loops(mats, add_t, mul_t, inv_t, neg_t, True)


def _ref_rank_batch(mats, add_t, mul_t, inv_t, neg_t):
    return _kernels._eliminate_batch_loops(mats, add_t, mul_t, inv_t, neg_t, False)[1]


_ref_matmul_batch = _kernels._matmul_batch_loops


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
    assert calls == ["rank_batch", "rref_batch", "matmul_batch"]


# sha256 of json.dumps(mc_report_to_dict(run_mc(spec, 2000, 1)), sort_keys=True):
# the kernels must reproduce every seeded report bit for bit.  The three MC
# digests were re-recorded when a channel use changed from a random transfer
# G = A B to the fixed transfer diag(I, 0) after the random basis, which moved
# the seeded stream; the table-driven and the bit-plane kernels both give them.
# The pipeline digests below read only output dimensions and did not change.
# A run of more than 65,536 draws per input spans several chunks of the
# seeded stream; the 140,000-draw digest pins the order across them.
@pytest.mark.parametrize(
    "T, h, rank_def, digest, draws",
    [
        (4, 2, (0.5, 0.3, 0.2), "2a6549e3170108cd2c72216c822f8f288fabec79aa4ae2e4b932fcee83a4e1e6", 2000),
        (5, 3, (0.4, 0.3, 0.2, 0.1), "a8671bffaf613b057e237029c5a1bbb63c6eee5fec1e1caf29201a3bb63b8f7e", 2000),
        (3, 2, (0.5, 0.3, 0.2), "dbf78d945d1e8828bb894696573f0a5fbf435c9ecb6992f214d0c4e91044c6fc", 140_000),
    ],
)
def test_gf2_mc_report_golden_hash(T, h, rank_def, digest, draws):
    report = run_mc(ChannelSpec(GF(2), T, h, RankDefDist(h, rank_def)), draws, 1)
    text = json.dumps(mc_report_to_dict(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The GF(4) report, re-recorded with the two GF(2) digests above.
def test_gf4_mc_report_golden_hash():
    report = run_mc(ChannelSpec(GF(4), 3, 2, RankDefDist(2, (0.5, 0.3, 0.2))), 2000, 1)
    text = json.dumps(mc_report_to_dict(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "da0e61123929dc71fbef4ab4b2bbf5954b0ead02aee3f5ccb412fff26bcc7f71"
    )


# The 150,000-draw digest spans three chunks, with counts (37619, 37636,
# 37406, 37339): each chunk's selectors are drawn, though the pipeline reads
# only the deficiencies, so that the next chunk's deficiencies are unchanged.
@pytest.mark.parametrize(
    "q, T, h, digest, draws",
    [
        (4, 5, 3, "9dc0793a4f0d012bdf8c712919ee378665d69cb79a1a73c88c93f1a42f119387", 20000),
        (8, 4, 2, "cf65e7a911d5154f266de6bfb1d800fb7c23f7b4daa2fc856e6ebdb7685d7188", 20000),
        (4, 5, 3, "165697e95eb7e565e4090fa1036f4bc7be204d3f2255ca560ab17eaea22df66f", 150_000),
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

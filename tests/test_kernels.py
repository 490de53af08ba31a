"""Kernel backends: numba and numpy paths must agree bit-for-bit, and both
must agree with the plain-python reference loops."""

import os

import numpy as np
import pytest

from subchan import _kernels
from subchan.gf import GF

FIELDS = [2, 3, 4, 5, 9]
SHAPES = [(1, 1), (2, 2), (2, 3), (3, 2), (4, 5), (0, 3), (3, 0), (1, 6)]


def _tables(q):
    f = GF(q)
    return f.add_table, f.mul_table, f.inv_table, f.neg_table


def _random_mats(q, count, n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=(count, n, m), dtype=np.uint8)


def _impls():
    return [_kernels.BACKENDS[name] for name in sorted(_kernels.BACKENDS)]


@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_backends_agree_on_rref_and_rank(q, shape):
    n, m = shape
    add_t, mul_t, inv_t, neg_t = _tables(q)
    mats = _random_mats(q, 40, n, m, seed=q * 100 + n * 10 + m)
    results = []
    for impl in _impls():
        with _kernels.use_backend(impl.name):
            rs, ranks = impl.rref_batch(mats, add_t, mul_t, inv_t, neg_t)
            ranks2 = impl.rank_batch(mats, add_t, mul_t, inv_t, neg_t)
            singles = [_kernels.rref(mats[i], add_t, mul_t, inv_t, neg_t) for i in range(len(mats))]
        results.append((rs, ranks, ranks2, singles))
    ref_rs, ref_ranks, ref_ranks2, ref_singles = results[0]
    assert np.array_equal(ref_ranks, ref_ranks2)
    for rs, ranks, ranks2, singles in results[1:]:
        assert np.array_equal(rs, ref_rs)
        assert np.array_equal(ranks, ref_ranks)
        assert np.array_equal(ranks2, ref_ranks2)
    for i, (r_single, piv) in enumerate(ref_singles):
        assert np.array_equal(r_single, ref_rs[i])
        assert len(piv) == ref_ranks[i]


@pytest.mark.parametrize("q", FIELDS)
def test_backends_agree_on_matmul(q):
    add_t, mul_t, _, _ = _tables(q)
    a = _random_mats(q, 30, 3, 4, seed=q)
    b = _random_mats(q, 30, 4, 2, seed=q + 1)
    outs = [impl.matmul_batch(a, b, add_t, mul_t) for impl in _impls()]
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])
    for i in range(len(a)):
        single = []
        for impl in _impls():
            with _kernels.use_backend(impl.name):
                single.append(_kernels.matmul(a[i], b[i], add_t, mul_t))
        for s in single:
            assert np.array_equal(s, outs[0][i])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_backends_match_reference_loops(q):
    """The un-jitted scalar loops are the behavioral reference."""
    add_t, mul_t, inv_t, neg_t = _tables(q)
    mats = _random_mats(q, 12, 3, 4, seed=q + 7)
    a = _random_mats(q, 12, 2, 3, seed=q + 8)
    b = _random_mats(q, 12, 3, 3, seed=q + 9)
    ref = _kernels.REFERENCE_IMPL
    ref_rref, ref_ranks = ref.rref_batch(mats, add_t, mul_t, inv_t, neg_t)
    ref_mm = ref.matmul_batch(a, b, add_t, mul_t)
    assert np.array_equal(ref.rank_batch(mats, add_t, mul_t, inv_t, neg_t), ref_ranks)
    for impl in _impls():
        rs, ranks = impl.rref_batch(mats, add_t, mul_t, inv_t, neg_t)
        assert np.array_equal(rs, ref_rref)
        assert np.array_equal(ranks, ref_ranks)
        assert np.array_equal(impl.rank_batch(mats, add_t, mul_t, inv_t, neg_t), ref_ranks)
        assert np.array_equal(impl.matmul_batch(a, b, add_t, mul_t), ref_mm)


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


def test_use_backend_context_restores_selection():
    before = _kernels.BACKEND
    other = next(iter(set(_kernels.BACKENDS) - {before}), before)
    with _kernels.use_backend(other):
        assert _kernels.BACKEND == other
    assert _kernels.BACKEND == before
    with pytest.raises(ValueError):
        with _kernels.use_backend("nonexistent"):
            pass


def test_numba_backend_present_when_importable():
    pytest.importorskip("numba")
    if os.environ.get("SUBCHAN_BACKEND", "").strip().lower() == "numpy":
        pytest.skip("numpy backend forced by environment; numba path not built")
    assert "numba" in _kernels.BACKENDS

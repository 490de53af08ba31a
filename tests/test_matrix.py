"""Mat operations: product, RREF, rank, and the full-rank sampler."""

import numpy as np
import pytest

from conftest import CHI2_CRIT_P001, all_matrices, chi2_statistic
from subchan.errors import DimensionMismatchError, FieldMismatchError, SubchanError
from subchan.gf import GF
from subchan.grassmann import span, subspace_label
from subchan.matrix import (
    Mat,
    matmul,
    rank,
    rref,
    sample_full_rank,
)

F2 = GF(2)

# The worked network example: input subspace U = {000, 010, 100, 110} with
# basis X, alternative basis X', and two rank-deficient transfer matrices.
X = Mat.from_rows(F2, [[0, 1, 0], [1, 0, 0]])
X_PRIME = Mat.from_rows(F2, [[0, 1, 0], [1, 1, 0]])
G = Mat.from_rows(F2, [[0, 1], [0, 1]])
G_PRIME = Mat.from_rows(F2, [[1, 0], [1, 0]])


class TestMatmul:
    def test_worked_example_output_subspace(self):
        y = matmul(G, X)
        assert subspace_label(span(y)) == "100"

    def test_identity_and_zero(self):
        assert matmul(Mat.identity(F2, 2), X) == X
        assert matmul(Mat.zeros(F2, 2, 2), X) == Mat.zeros(F2, 2, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(X, X)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            matmul(G, Mat.from_rows(GF(3), [[1, 2], [0, 1]]))

    def test_degenerate_shapes(self):
        empty = Mat.zeros(F2, 0, 2)
        out = matmul(empty, Mat.zeros(F2, 2, 3))
        assert (out.rows, out.cols) == (0, 3)
        inner_zero = matmul(Mat.zeros(F2, 2, 0), Mat.zeros(F2, 0, 3))
        assert inner_zero == Mat.zeros(F2, 2, 3)


class TestRref:
    def test_hand_example(self):
        r, piv = rref(Mat.from_rows(F2, [[0, 1, 0], [1, 1, 0]]))
        assert r == Mat.from_rows(F2, [[1, 0, 0], [0, 1, 0]])
        assert piv == (0, 1)

    def test_zero_matrix(self):
        r, piv = rref(Mat.zeros(F2, 2, 3))
        assert r == Mat.zeros(F2, 2, 3)
        assert piv == ()

    def test_invertible_reduces_to_identity(self):
        for arr in all_matrices(2, 2, 2):
            m = Mat(F2, arr)
            if rank(m) == 2:
                r, piv = rref(m)
                assert r == Mat.identity(F2, 2)
                assert piv == (0, 1)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_idempotent(self, q):
        f = GF(q)
        rng = np.random.default_rng(q)
        for _ in range(30):
            m = Mat(f, rng.integers(0, q, size=(3, 5), dtype=np.uint8))
            r1, p1 = rref(m)
            r2, p2 = rref(r1)
            assert r1 == r2 and p1 == p2


class TestRank:
    def test_worked_example_transfer_matrix_has_rank_1(self):
        assert rank(G) == 1
        assert rank(G_PRIME) == 1

    def test_identity_and_zero(self):
        assert rank(Mat.identity(F2, 3)) == 3
        assert rank(Mat.zeros(F2, 3, 3)) == 0

    def test_product_rank_bound(self):
        rng = np.random.default_rng(3)
        f = GF(3)
        for _ in range(50):
            a = Mat(f, rng.integers(0, 3, size=(3, 3), dtype=np.uint8))
            b = Mat(f, rng.integers(0, 3, size=(3, 4), dtype=np.uint8))
            assert rank(matmul(a, b)) <= min(rank(a), rank(b))

    def test_full_rank_input_preserves_transfer_rank_exhaustively(self):
        """For every 2x2 g and every full-rank 2x3 x over GF(2),
        rank(g x) = rank(g): the received matrix has the transfer matrix's
        rank whenever the transmitted matrix is full-rank."""
        full_rank_inputs = [
            Mat(F2, arr) for arr in all_matrices(2, 2, 3) if rank(Mat(F2, arr)) == 2
        ]
        assert len(full_rank_inputs) > 0
        for g_arr in all_matrices(2, 2, 2):
            g = Mat(F2, g_arr)
            for x in full_rank_inputs:
                assert rank(matmul(g, x)) == rank(g)


class TestSampleFullRank:
    def test_one_by_one_is_always_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = sample_full_rank(F2, 1, 1, rng)
            assert m.array[0, 0] == 1

    def test_rectangular_always_full_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert rank(sample_full_rank(F2, 2, 3, rng)) == 2

    def test_uniform_over_gl22(self):
        """Chi-square against the brute-force list of the 6 elements of
        GL(2, 2)."""
        gl22 = [arr.tobytes() for arr in all_matrices(2, 2, 2) if rank(Mat(F2, arr)) == 2]
        assert len(gl22) == 6
        rng = np.random.default_rng(20100608)
        draws = 12_000
        counts = dict.fromkeys(gl22, 0)
        for _ in range(draws):
            counts[sample_full_rank(F2, 2, 2, rng).array.tobytes()] += 1
        stat = chi2_statistic(list(counts.values()), [draws / 6] * 6)
        assert stat < CHI2_CRIT_P001[5]

    def test_degenerate_dimension_returns_empty(self):
        rng = np.random.default_rng(2)
        m = sample_full_rank(F2, 0, 3, rng)
        assert (m.rows, m.cols) == (0, 3)


class TestMatValidation:
    def test_entries_must_fit_field(self):
        with pytest.raises(ValueError):
            Mat.from_rows(F2, [[0, 2]])

    @pytest.mark.parametrize(
        "rows",
        [[[1.7, 0]], [[np.nan, 0]], [[-1, 0]], [[3, 0]], [[300, 0]]],
        ids=["non-integral", "nan", "negative", "equal-to-q", "beyond-uint8"],
    )
    def test_bad_entries_rejected(self, rows):
        with pytest.raises(SubchanError, match="GF\\(3\\)") as exc_info:
            Mat.from_rows(GF(3), rows)
        assert isinstance(exc_info.value, ValueError)

    @pytest.mark.parametrize(
        "array",
        [np.array([[1.5, 0.0]]), np.array([[-1, 0]], dtype=np.int64), np.array([[0, 3]], dtype=np.int8)],
        ids=["float", "negative-int64", "int8-equal-to-q"],
    )
    def test_bad_array_entries_rejected(self, array):
        with pytest.raises(SubchanError):
            Mat(GF(3), array)

    def test_integral_floats_accepted(self):
        assert Mat.from_rows(GF(3), [[2.0, 0.0]]) == Mat.from_rows(GF(3), [[2, 0]])

    def test_arrays_are_frozen(self):
        m = Mat.from_rows(F2, [[1, 0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 0

    def test_equality_and_hash(self):
        a = Mat.from_rows(F2, [[1, 0], [0, 1]])
        b = Mat.identity(F2, 2)
        assert a == b and hash(a) == hash(b)
        assert a != Mat.from_rows(GF(3), [[1, 0], [0, 1]])

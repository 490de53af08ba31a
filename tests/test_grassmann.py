"""Subspace canonicalization, Grassmannian enumeration, and counting formulas,
checked against brute-force enumeration oracles."""

import io
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    CHI2_CRIT_P001,
    all_matrices,
    brute_force_subspaces,
    chi2_statistic,
    log10_gaussian_reference,
    reference_grassmannian_bases,
    reference_label,
    subspace_vectors,
)
from subchan import _kernels, grassmann
from subchan.channel import ChannelSpec, RankDefDist, build_dmc, dmc_to_csv, dmc_to_json
from subchan.errors import (
    AmbientMismatchError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    InvalidParameterError,
    SubchanError,
)
from subchan.gf import GF
from subchan.grassmann import (
    GrassmannianIndex,
    Subspace,
    _bases_size,
    _enumerate_cached,
    _gaussian_size,
    _log10_gaussian,
    contains,
    count_ordered_bases,
    enumerate_grassmannian,
    enumerate_subspaces_of,
    gaussian_coefficient,
    random_ordered_basis,
    span,
    subspace_label,
    subspaces_of_batch,
)
from subchan.matrix import Mat, matmul, rank, sample_full_rank_batch

F2 = GF(2)
U = span(Mat.from_rows(F2, [[0, 1, 0], [1, 0, 0]]))


class TestGaussianCoefficient:
    def test_against_brute_force_enumeration(self):
        assert gaussian_coefficient(3, 2, 2) == len(brute_force_subspaces(2, 3, 2)) == 7
        assert gaussian_coefficient(4, 2, 2) == len(brute_force_subspaces(2, 4, 2)) == 35
        assert gaussian_coefficient(3, 1, 3) == len(brute_force_subspaces(3, 3, 1)) == 13

    def test_edge_values(self):
        assert gaussian_coefficient(5, 0, 2) == 1
        assert gaussian_coefficient(5, 6, 2) == 0
        assert gaussian_coefficient(0, 0, 2) == 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_pascal_recurrence(self, q):
        """Independent oracle: C(n, l)_q = C(n-1, l-1)_q + q^l C(n-1, l)_q."""
        for n in range(1, 9):
            for ell in range(1, n + 1):
                assert gaussian_coefficient(n, ell, q) == (
                    gaussian_coefficient(n - 1, ell - 1, q)
                    + q**ell * gaussian_coefficient(n - 1, ell, q)
                )

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_symmetry(self, q):
        for n in range(7):
            for ell in range(n + 1):
                assert gaussian_coefficient(n, ell, q) == gaussian_coefficient(n, n - ell, q)

    def test_cost_follows_the_smaller_dimension(self):
        """C(3000, 2999)_2 = C(3000, 1)_2 is one factor, not 2,999 factors of
        up to 3,000 bits each (20 s)."""
        start = time.perf_counter()
        assert gaussian_coefficient(3000, 2999, 2) == 2**3000 - 1
        assert time.perf_counter() - start < 1.0

    def test_exact_big_integers(self):
        # q = 4, T = 12 overflows 64-bit: must still be exact.
        value = gaussian_coefficient(12, 6, 4)
        assert value % (4**6 - 1) != value  # nontrivial
        assert value == gaussian_coefficient(12, 6, 4)
        assert value > 2**63

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gaussian_coefficient(3, -1, 2)
        with pytest.raises(Exception):
            gaussian_coefficient(3, 1, 6)

    @pytest.mark.parametrize("n, ell", [(2.5, 1), (4.0, 2), (3, 1.0), (-1, 1), (3, -1), (True, 1), ("3", 1)])
    def test_non_integer_or_negative_arguments_rejected(self, n, ell):
        with pytest.raises(InvalidParameterError):
            gaussian_coefficient(n, ell, 2)

    def test_an_argument_too_long_to_write_is_accepted(self):
        """The check writes an argument into its message only when it fails:
        a valid n of 5,001 digits is not a ValueError of the text limit."""
        assert gaussian_coefficient(10**5000, 0, 2) == 1
        assert _gaussian_size(10**5000, 2, 2) == math.inf


class TestLog10Gaussian:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 256])
    def test_equals_the_full_sum_bit_for_bit(self, q):
        """Only the last 64 terms of the sum can be nonzero, so skipping the
        rest changes no bit, for small and large n and past the float range."""
        for n in [*range(0, 140, 3), 1000, 10**6, 10**12, 10**400]:
            for ell in {*range(0, 140, 7), 63, 64, 65, 66, 129, min(n // 2, 10**4)}:
                assert _log10_gaussian(n, ell, q) == log10_gaussian_reference(n, ell, q), (n, ell)

    def test_cost_does_not_grow_with_the_smaller_dimension(self):
        """C(10^8, 5 * 10^7)_2 has 5 * 10^7 terms, all but 64 exactly zero."""
        start = time.perf_counter()
        assert _log10_gaussian(10**8, 5 * 10**7, 2) > 7.5e14
        assert time.perf_counter() - start < 0.1


class TestBasesSize:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 256])
    def test_exact_or_its_log10_to_the_printed_digit(self, q):
        """|GL(h, q)| is exact while Python writes it as text; past that its
        float log10 prints as ``math.log10`` of the exact count does."""
        for h in [*range(120), 150, 200, 300, 500]:
            size, exact = _bases_size(h, q), count_ordered_bases(h, q)
            if isinstance(size, float):
                assert f"{size:.1f}" == f"{math.log10(exact):.1f}", h
            else:
                assert size == exact

    def test_past_the_float_range_is_inf(self):
        assert _bases_size(10**200, 2) == math.inf

    def test_large_h_is_not_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"count_ordered_bases{args} was built")

        monkeypatch.setattr(grassmann, "count_ordered_bases", refuse)
        start = time.perf_counter()
        # prod_{j >= 1} (1 - 2^-j) = 0.288788...: the terms past j = 64 round away.
        assert _bases_size(6000, 2) == pytest.approx(6000**2 * math.log10(2) + math.log10(0.2887880950866024), abs=1e-6)
        assert time.perf_counter() - start < 0.1


class TestCountOrderedBases:
    def test_two_dimensional_binary_case_has_six(self):
        brute = sum(
            1 for arr in all_matrices(2, 2, 2) if rank(Mat(F2, arr)) == 2
        )
        assert count_ordered_bases(2, 2) == brute == 6

    def test_three_dimensional_binary_case(self):
        brute = sum(
            1 for arr in all_matrices(2, 3, 3) if rank(Mat(F2, arr)) == 3
        )
        assert count_ordered_bases(3, 2) == brute == 168

    def test_empty_product(self):
        assert count_ordered_bases(0, 2) == 1
        assert count_ordered_bases(0, 9) == 1

    @pytest.mark.parametrize("h", [-1, 2.5, 2.0, True, "2"])
    def test_non_integer_or_negative_h_rejected(self, h):
        with pytest.raises(InvalidParameterError):
            count_ordered_bases(h, 2)


class TestSpan:
    def test_worked_example_input_subspace(self):
        assert subspace_label(U) == "100|010"
        assert subspace_vectors(U) == frozenset(
            {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)}
        )

    def test_zero_matrix_spans_zero_space(self):
        s = span(Mat.zeros(F2, 2, 3))
        assert s.dim == 0
        assert s == Subspace.zero(F2, 3)
        assert subspace_label(s) == ""

    def test_second_worked_example_output(self):
        y = matmul(Mat.from_rows(F2, [[1, 0], [1, 0]]), Mat.from_rows(F2, [[0, 1, 0], [1, 1, 0]]))
        assert subspace_vectors(span(y)) == frozenset({(0, 0, 0), (0, 1, 0)})

    def test_span_invariant_under_row_operations(self):
        rng = np.random.default_rng(0)
        f = GF(3)
        for _ in range(25):
            m = Mat(f, rng.integers(0, 3, size=(2, 4), dtype=np.uint8))
            g = Mat(f, rng.integers(0, 3, size=(2, 2), dtype=np.uint8))
            if rank(g) == 2:
                assert span(matmul(g, m)) == span(m)


class TestEnumerateGrassmannian:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_sizes_match_gaussian_coefficients_exhaustively(self, q):
        f = GF(q)
        for t in range(6):
            for ell in range(t + 1):
                idx = enumerate_grassmannian(f, t, ell)
                assert len(idx) == gaussian_coefficient(t, ell, q)
                assert len(set(idx)) == len(idx)

    def test_matches_brute_force_row_spaces(self):
        enumerated = {subspace_vectors(s) for s in enumerate_grassmannian(F2, 3, 2)}
        assert enumerated == brute_force_subspaces(2, 3, 2)

    def test_zero_dimension_is_single_zero_space(self):
        idx = enumerate_grassmannian(F2, 3, 0)
        assert len(idx) == 1 and idx[0] == Subspace.zero(F2, 3)

    def test_full_dimension_is_single_full_space(self):
        idx = enumerate_grassmannian(F2, 3, 3)
        assert len(idx) == 1 and idx[0].basis == Mat.identity(F2, 3)

    def test_index_bijection(self):
        idx = enumerate_grassmannian(GF(3), 4, 2)
        for i in range(len(idx)):
            assert idx.index_of(idx.subspace_at(i)) == i
        with pytest.raises(KeyError):
            idx.index_of(Subspace.zero(GF(3), 4))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_batched_indices_agree_with_index_of(self, q):
        f = GF(q)
        for t in range(6):
            for ell in range(t + 1):
                idx = enumerate_grassmannian(f, t, ell)
                expected = [idx.index_of(s) for s in idx]
                assert expected == list(range(len(idx)))
                assert idx.indices(idx.bases).tolist() == expected
                reversed_stack = np.stack([s.basis.array for s in reversed(list(idx))])
                assert idx.indices(reversed_stack).tolist() == expected[::-1]

    def test_index_of_rejects_equal_bytes_from_another_field(self):
        idx = enumerate_grassmannian(F2, 3, 2)
        same_bytes = Subspace(GF(3), 3, Mat.from_rows(GF(3), idx[0].basis.array))
        assert same_bytes.basis.array.tobytes() == idx[0].basis.array.tobytes()
        with pytest.raises(KeyError):
            idx.index_of(same_bytes)

    def test_index_of_rejects_other_ambient_or_dimension(self):
        idx = enumerate_grassmannian(F2, 3, 2)
        with pytest.raises(KeyError):
            idx.index_of(span(Mat.from_rows(F2, [[1, 0], [0, 1]])))
        with pytest.raises(KeyError):
            idx.index_of(span(Mat.from_rows(F2, [[1, 0, 0, 0, 0, 0]])))
        with pytest.raises(KeyError):
            idx.indices(np.zeros((1, 2, 3), dtype=np.uint8))

    def test_every_non_member_raises_below_above_and_between_the_sorted_keys(self):
        """Every 2 x 3 matrix over GF(2) that is not a basis of the index
        raises the one KeyError: the closed form ranks it at some basis, and
        the comparison with that basis fails.  Their bytes fall below the
        first basis, above the last and between two, the edge cases of the
        sorted byte-key search the closed form replaced."""
        idx = enumerate_grassmannian(F2, 3, 2)
        members = sorted(b.tobytes() for b in idx.bases)
        places = set()
        for m in all_matrices(2, 2, 3):
            if m.tobytes() in members:
                continue
            places.add(
                "below" if m.tobytes() < members[0] else "above" if m.tobytes() > members[-1] else "between"
            )
            with pytest.raises(KeyError, match=r"^'subspace not in P\(F_2\^3, 2\)'$"):
                idx.indices(np.stack([idx.bases[0], m]))
        assert places == {"below", "above", "between"}

    @pytest.mark.parametrize("q, t", [(2, 6), (3, 5), (4, 4), (5, 4), (256, 2)])
    def test_ranks_invert_the_enumeration_in_any_order(self, q, t):
        rng = np.random.default_rng(q)
        for ell in range(t + 1):
            idx = enumerate_grassmannian(GF(q), t, ell)
            assert np.array_equal(idx.indices(idx.bases), np.arange(len(idx)))
            order = rng.permutation(len(idx))
            assert np.array_equal(idx.indices(idx.bases[order]), order)

    def test_blocks_rank_and_check_each_basis(self, monkeypatch):
        """With blocks of 4, the 15 bases of P(F_2^4, 1) span four blocks;
        a non-member in the last one raises."""
        monkeypatch.setattr(_kernels, "_BLOCK", 4)
        idx = enumerate_grassmannian(F2, 4, 1)
        order = np.random.default_rng(1).permutation(15)
        assert np.array_equal(idx.indices(idx.bases[order]), order)
        stack = idx.bases[order].copy()
        stack[13, 0, 0] = 2
        with pytest.raises(KeyError):
            idx.indices(stack)

    @pytest.mark.parametrize("dim", [0, 70])
    def test_one_basis_at_seventy_columns(self, dim):
        """C(70, 35) exceeds int64: the cell rank must not form it."""
        idx = enumerate_grassmannian(F2, 70, dim)
        assert len(idx) == 1 and idx.indices(idx.bases).tolist() == [0]
        if dim:
            zero_row = idx.bases.copy()
            zero_row[0, 35] = 0
            with pytest.raises(KeyError):
                idx.indices(zero_row)

    @pytest.mark.parametrize(
        "mutation, row, col, value",
        [
            ("wrong_field_byte", 0, 3, 3),  # a free entry 3 is no element of GF(3)
            ("entry_above_pivot", 0, 1, 1),  # row 1's pivot column must be zero elsewhere
            ("pivot_not_one", 1, 1, 2),
            ("leading_entry_two", 1, 1, 0),  # row 1 becomes 0 0 2 0
        ],
    )
    def test_non_members_raise(self, mutation, row, col, value):
        idx = enumerate_grassmannian(GF(3), 4, 2)
        member = np.array([[1, 0, 0, 1], [0, 1, 2, 0]], dtype=np.uint8)
        stack = np.stack([idx.bases[0], member, idx.bases[-1]])
        ranks = idx.indices(stack)
        assert ranks[[0, 2]].tolist() == [0, len(idx) - 1] and np.array_equal(idx.bases[ranks[1]], member)
        stack[1, row, col] = value
        with pytest.raises(KeyError, match=r"^'subspace not in P\(F_3\^4, 2\)'$"):
            idx.indices(stack)

    def test_wrong_shapes_raise_and_empty_or_zero_dimensional_stacks_work(self):
        idx = enumerate_grassmannian(F2, 3, 2)
        for shape in [(1, 3, 3), (1, 2, 4), (1, 1, 3), (2, 3)]:
            with pytest.raises(KeyError, match="not in P"):
                idx.indices(np.zeros(shape, dtype=np.uint8))
        empty = idx.indices(np.zeros((0, 2, 3), dtype=np.uint8))
        assert empty.shape == (0,) and empty.dtype == np.int64
        zero = enumerate_grassmannian(F2, 3, 0)
        assert zero.indices(np.zeros((4, 0, 3), dtype=np.uint8)).tolist() == [0] * 4
        nothing = enumerate_grassmannian(F2, 2, 3)
        assert nothing.indices(np.zeros((0, 3, 2), dtype=np.uint8)).tolist() == []
        with pytest.raises(KeyError):
            nothing.indices(np.zeros((1, 3, 2), dtype=np.uint8))

    def test_lookup_memory_is_bounded_by_the_stack(self):
        """q2 T8 h3: the 680,085 two-dimensional subspaces of the inputs are a
        10.4 MB stack; looking them up allocates less than twice that."""
        canon = subspaces_of_batch(F2, enumerate_grassmannian(F2, 8, 3).bases, 2)
        idx = enumerate_grassmannian(F2, 8, 2)
        assert canon.shape == (680_085, 2, 8)
        tracemalloc.start()
        try:
            positions = idx.indices(canon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * canon.nbytes
        assert np.array_equal(idx.bases[positions], canon)

    def test_enumeration_order_is_stable(self):
        labels = [subspace_label(s) for s in enumerate_grassmannian(F2, 3, 2)]
        # Pivot sets in lexicographic order: (0,1), (0,2), (1,2); free entries
        # counted odometer-style with the last row-major position fastest.
        assert labels == ["100|010", "100|011", "101|010", "101|011", "100|001", "110|001", "010|001"]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 16, 256])
    def test_bases_match_the_one_at_a_time_reference(self, q):
        """The constructor checks nothing it builds, so this is the check:
        every basis is its own full-rank RREF, in the reference order, and
        ranks at its own position."""
        f = GF(q)
        for t in range(6 if q <= 5 else 4 if q <= 16 else 3):
            for ell in range(t + 1):
                idx = enumerate_grassmannian(f, t, ell)
                reference = reference_grassmannian_bases(q, t, ell)
                assert idx.bases.shape == reference.shape and np.array_equal(idx.bases, reference)
                canon, ranks = _kernels.rref_batch(idx.bases, f.add_table, f.mul_table, f.inv_table, f.neg_table)
                assert np.array_equal(canon, idx.bases) and (ranks == ell).all()
                assert np.array_equal(idx.indices(idx.bases), np.arange(len(idx)))
                assert not idx.bases.flags.writeable

    def test_cold_enumeration_eliminates_and_ranks_nothing(self, monkeypatch):
        calls, rref_batch, indices = [], _kernels.rref_batch, GrassmannianIndex.indices
        monkeypatch.setattr(_kernels, "rref_batch", lambda *args: calls.append("rref_batch") or rref_batch(*args))
        monkeypatch.setattr(GrassmannianIndex, "indices", lambda *args: calls.append("indices") or indices(*args))
        f = GF(3)
        _enumerate_cached.cache_clear()
        idx = enumerate_grassmannian(f, 6, 3)
        assert _enumerate_cached.cache_info().misses == 1
        assert len(idx) == gaussian_coefficient(6, 3, 3) and calls == []

    def test_direct_construction_equals_the_cached_enumeration(self):
        direct = GrassmannianIndex(GF(4), 4, 2)
        cached = enumerate_grassmannian(GF(4), 4, 2)
        assert direct is not cached and np.array_equal(direct.bases, cached.bases)
        assert repr(direct) == "GrassmannianIndex(GF(4), T=4, dim=2, size=357)"

    @pytest.mark.parametrize("q, t, ell", [(2, 4, 2), (3, 4, 2), (2, 5, 3), (4, 3, 1)])
    def test_reference_order_tells_a_wrong_digit_order_apart(self, q, t, ell):
        """The first free position spinning fastest enumerates the same
        subspaces in another order, which the reference comparison rejects."""
        idx = enumerate_grassmannian(GF(q), t, ell)
        wrong = reference_grassmannian_bases(q, t, ell, last_fastest=False)
        assert sorted(idx.indices(wrong).tolist()) == list(range(len(idx)))
        assert not np.array_equal(idx.bases, wrong)

    def test_q2_t8_h4_has_every_subspace_once(self):
        idx = enumerate_grassmannian(F2, 8, 4)
        words = np.packbits(idx.bases.reshape(len(idx), 32), axis=1).view(np.uint32).ravel()
        assert len(idx) == 200_787 == len(np.unique(words))

    @pytest.mark.parametrize("q, t", [(2, 5), (3, 4), (4, 4), (5, 3), (16, 3), (32, 3), (256, 2)])
    def test_labels_match_per_element_labels(self, q, t):
        for ell in range(t + 1):
            idx = enumerate_grassmannian(GF(q), t, ell)
            expected = [reference_label(q, s.basis.array) for s in idx]
            assert idx.labels() == [subspace_label(s) for s in idx] == expected

    def test_empty_and_zero_dimensional_alphabets(self):
        assert enumerate_grassmannian(F2, 0, 0).labels() == [""]
        assert enumerate_grassmannian(GF(32), 3, 0).labels() == [""]
        empty = enumerate_grassmannian(F2, 2, 3)
        assert len(empty) == 0 and empty.labels() == [] and list(empty) == []

    def test_elements_are_built_on_access(self):
        idx = enumerate_grassmannian(GF(3), 4, 2)
        assert idx[-1] == idx.subspace_at(len(idx) - 1) == list(idx)[-1]
        assert idx[0] is not idx[0]
        with pytest.raises(IndexError):
            idx[len(idx)]

    def test_build_dmc_and_exports_construct_no_subspace(self, monkeypatch):
        built = []
        post_init = Subspace.__post_init__

        def spy(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Subspace, "__post_init__", spy)
        _enumerate_cached.cache_clear()
        dmc = build_dmc(ChannelSpec(F2, 5, 2, RankDefDist.uniform(2)))
        dmc_to_json(dmc, io.StringIO())
        dmc_to_csv(dmc, io.StringIO())
        assert dmc.num_inputs == 155 and built == []
        dmc.input_index[0]
        assert len(built) == 1

    @pytest.mark.parametrize("ambient, dim", [(-1, 0), (3, -1), (3.0, 2), (3, 2.5), (True, 1), (3, "2")])
    def test_non_integer_or_negative_dimensions_rejected(self, ambient, dim):
        with pytest.raises(InvalidParameterError):
            enumerate_grassmannian(F2, ambient, dim)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("SUBCHAN_ENUM_CAP", "100")
        with pytest.raises(EnumerationTooLargeError):
            enumerate_grassmannian(F2, 10, 5)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("SUBCHAN_ENUM_CAP", "3")
        with pytest.raises(EnumerationTooLargeError):
            enumerate_grassmannian(F2, 3, 2)
        monkeypatch.setenv("SUBCHAN_ENUM_CAP", "10")
        assert len(enumerate_grassmannian(F2, 3, 2)) == 7

    @pytest.mark.parametrize("value", ["abc", "2.5", "1e6", "0", "-5"])
    def test_bad_cap_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("SUBCHAN_ENUM_CAP", value)
        with pytest.raises(SubchanError, match="SUBCHAN_ENUM_CAP must be an integer >= 1") as exc_info:
            enumerate_grassmannian(F2, 3, 2)
        assert isinstance(exc_info.value, ValueError)


class TestContains:
    def test_worked_example_output_contained(self):
        v = span(Mat.from_rows(F2, [[1, 0, 0]]))
        assert contains(U, v)

    def test_zero_space_contained_everywhere(self):
        for s in enumerate_grassmannian(F2, 3, 2):
            assert contains(s, Subspace.zero(F2, 3))

    def test_outside_vector_not_contained(self):
        v = span(Mat.from_rows(F2, [[0, 0, 1]]))
        assert not contains(U, v)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            contains(U, Subspace.zero(F2, 4))
        with pytest.raises(AmbientMismatchError):
            contains(U, Subspace.zero(GF(3), 3))

    def test_partial_order_on_projective_space(self):
        every = [
            s
            for ell in range(4)
            for s in enumerate_grassmannian(F2, 3, ell)
        ]
        for s in every:
            assert contains(s, s)
        for a, b in itertools.permutations(every, 2):
            if contains(a, b) and contains(b, a):
                assert a == b
        for a, b, c in itertools.product(every, repeat=3):
            if contains(a, b) and contains(b, c):
                assert contains(a, c)


class TestEnumerateSubspacesOf:
    def test_one_dimensional_subspaces_of_worked_example(self):
        subs = enumerate_subspaces_of(U, 1)
        assert {subspace_vectors(s) for s in subs} == {
            frozenset({(0, 0, 0), (1, 0, 0)}),
            frozenset({(0, 0, 0), (0, 1, 0)}),
            frozenset({(0, 0, 0), (1, 1, 0)}),
        }

    def test_full_and_zero_dimension(self):
        assert enumerate_subspaces_of(U, U.dim) == [U]
        assert enumerate_subspaces_of(U, 0) == [Subspace.zero(F2, 3)]

    def test_counts_independent_of_subspace(self):
        f = GF(2)
        for u in enumerate_grassmannian(f, 4, 2):
            for ell in range(3):
                subs = enumerate_subspaces_of(u, ell)
                assert len(subs) == gaussian_coefficient(2, ell, 2)
                assert len(set(subs)) == len(subs)
                assert all(contains(u, v) for v in subs)

    def test_dimension_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            enumerate_subspaces_of(U, 3)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_batch_products_are_already_canonical(self, q):
        f = GF(q)
        for T in range(5):
            for h in range(T + 1):
                bases = enumerate_grassmannian(f, T, h).bases
                for d in range(h + 1):
                    out = subspaces_of_batch(f, bases, d)
                    canon, ranks = _kernels.rref_batch(out, f.add_table, f.mul_table, f.inv_table, f.neg_table)
                    assert np.array_equal(canon, out), (T, h, d)
                    assert (ranks == d).all(), (T, h, d)


def _ordered_bases(u, count, rng):
    """count draws, as one batch, of what ``random_ordered_basis`` computes:
    a uniform GL(dim u, q) selector times u's canonical basis."""
    f, h = u.field, u.dim
    selectors = sample_full_rank_batch(f, h, h, count, rng)
    basis = np.broadcast_to(u.basis.array, (count, h, u.ambient_dim))
    return _kernels.matmul_batch(selectors, basis, f.add_table, f.mul_table)


class TestRandomOrderedBasis:
    def test_span_is_identity_on_subspace(self):
        rng = np.random.default_rng(0)
        for u in enumerate_grassmannian(GF(3), 3, 2):
            for _ in range(5):
                assert span(random_ordered_basis(u, rng)) == u

    def test_one_dimensional_binary_space_has_single_basis(self):
        u = span(Mat.from_rows(F2, [[1, 0, 0]]))
        rng = np.random.default_rng(1)
        for _ in range(10):
            b = random_ordered_basis(u, rng)
            assert np.array_equal(b.array, [[1, 0, 0]])

    def test_zero_space_gives_empty_matrix(self):
        b = random_ordered_basis(Subspace.zero(F2, 3), np.random.default_rng(0))
        assert (b.rows, b.cols) == (0, 3)

    def test_uniform_over_the_six_bases(self):
        """Chi-square at 1e5 draws against the brute-force basis list."""
        bases = {}
        for arr in all_matrices(2, 2, 3):
            m = Mat(F2, arr)
            if rank(m) == 2 and span(m) == U:
                bases[arr.tobytes()] = 0
        assert len(bases) == count_ordered_bases(2, 2) == 6
        rng = np.random.default_rng(987)
        draws = 100_000
        for arr in _ordered_bases(U, draws, rng):
            bases[arr.tobytes()] += 1
        stat = chi2_statistic(list(bases.values()), [draws / 6] * 6)
        assert stat < CHI2_CRIT_P001[5]

    @pytest.mark.parametrize("u", [U, span(Mat.from_rows(GF(3), [[1, 2, 0, 1], [0, 1, 1, 2]]))])
    def test_batch_of_one_is_the_batch_draw(self, u):
        for seed in range(5):
            one = random_ordered_basis(u, np.random.default_rng(seed))
            assert np.array_equal(one.array, _ordered_bases(u, 1, np.random.default_rng(seed))[0])


class TestSubspaceType:
    def test_rejects_non_rref_basis(self):
        with pytest.raises(ValueError):
            Subspace(F2, 3, Mat.from_rows(F2, [[0, 1, 0], [1, 0, 0]]))
        with pytest.raises(ValueError):
            Subspace(F2, 3, Mat.from_rows(F2, [[0, 0, 0]]))

    @pytest.mark.parametrize(
        "rows", [[[0, 1, 0], [1, 0, 0]], [[0, 0, 0]], [[1, 1, 0], [0, 1, 0]], [[2, 0, 0]], [[1, 0, 2], [1, 1, 0]]]
    )
    def test_non_rref_basis_raises_a_package_error(self, rows):
        f = GF(3)
        with pytest.raises(InvalidParameterError):
            Subspace(f, len(rows[0]), Mat.from_rows(f, rows))

    @pytest.mark.parametrize(
        "field, ambient_dim, rows, error",
        [
            (GF(3), 3, [[1, 0, 0]], AmbientMismatchError),
            (F2, 4, [[1, 0, 0]], DimensionMismatchError),
            (F2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], DimensionMismatchError),
        ],
        ids=["basis-over-another-field", "wrong-column-count", "more-rows-than-T"],
    )
    def test_basis_must_fit_the_ambient_space(self, field, ambient_dim, rows, error):
        with pytest.raises(error):
            Subspace(field, ambient_dim, Mat.from_rows(F2, rows))

    def test_equality_is_row_space_equality(self):
        a = span(Mat.from_rows(F2, [[0, 1, 0], [1, 0, 0]]))
        b = span(Mat.from_rows(F2, [[1, 1, 0], [0, 1, 0]]))
        assert a == b and hash(a) == hash(b)

    def test_label_round_trip_distinguishes(self):
        labels = [subspace_label(s) for ell in range(4) for s in enumerate_grassmannian(F2, 3, ell)]
        assert len(labels) == len(set(labels))

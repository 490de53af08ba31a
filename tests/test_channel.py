"""The subspace DMC: transition law (against exhaustive oracles), matrix
construction, component decomposition, operational simulation, and the
spec-file / export interfaces."""

import hashlib
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import CHI2_CRIT_P001, chi2_statistic, component_trans, dmc_dict, matrices_by_rank, traced_peak
from subchan import _kernels, channel
from subchan.capacity import blahut_arimoto, capacity_closed_form, mutual_information
from subchan.channel import (
    ChannelSpec,
    RankDefDist,
    alphabet_sizes,
    build_dmc,
    channel_spec_from_dict,
    channel_spec_to_dict,
    components,
    conditional_prob_given_rank,
    dmc_to_csv,
    dmc_to_json,
    estimate_rank_def_dist,
    simulate_frame,
    simulate_one_use,
    transition_prob,
)
from subchan.errors import (
    DimensionMismatchError,
    DistributionInvalidError,
    EnumerationTooLargeError,
    InsufficientDataError,
    InvalidParameterError,
    ObservationOutOfRangeError,
)
from subchan.gf import GF
from subchan.grassmann import (
    Subspace,
    contains,
    count_ordered_bases,
    enumerate_grassmannian,
    enumerate_subspaces_of,
    gaussian_coefficient,
    resolve_enum_cap,
    span,
    subspace_label,
    subspaces_of_batch,
)
from subchan.matrix import Mat, matmul, rank, sample_full_rank_batch

F2 = GF(2)
U = span(Mat.from_rows(F2, [[0, 1, 0], [1, 0, 0]]))
V100 = span(Mat.from_rows(F2, [[1, 0, 0]]))


def _spec(probs, q=2, T=3, h=2):
    return ChannelSpec(GF(q), T, h, RankDefDist(h, probs))


DELTA0 = _spec([1.0, 0.0, 0.0])
DELTA1 = _spec([0.0, 1.0, 0.0])
DELTA2 = _spec([0.0, 0.0, 1.0])
MIXED = _spec([0.5, 0.3, 0.2])


class TestRankDefDist:
    def test_validation(self):
        with pytest.raises(DistributionInvalidError):
            RankDefDist(2, [0.5, 0.5])
        with pytest.raises(DistributionInvalidError):
            RankDefDist(2, [0.7, 0.4, -0.1])
        with pytest.raises(DistributionInvalidError):
            RankDefDist(2, [0.5, 0.3, 0.1])

    @pytest.mark.parametrize(
        "probs", [[np.nan] * 3, [1.0, 0.0, np.nan], [np.inf, 0.0, 0.0], [0.5, -np.inf, 0.5]]
    )
    def test_non_finite_entries_rejected(self, probs):
        with pytest.raises(DistributionInvalidError, match="finite"):
            RankDefDist(2, probs)

    def test_normalization_is_exact_enough(self):
        d = RankDefDist(2, [0.2, 0.3, 0.5 + 4e-10])
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12

    def test_point_mass_and_uniform(self):
        assert RankDefDist.point_mass(2, 1).probs.tolist() == [0.0, 1.0, 0.0]
        assert np.allclose(RankDefDist.uniform(2).probs, 1 / 3)
        with pytest.raises(DistributionInvalidError):
            RankDefDist.point_mass(2, 3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RankDefDist.point_mass(2, 1.5),
            lambda: RankDefDist.point_mass(2.0, 1),
            lambda: RankDefDist("1", [0.5, 0.5]),
            lambda: RankDefDist(True, [0.5, 0.5]),
            lambda: RankDefDist.uniform(1.5),
        ],
    )
    def test_non_integer_h_or_deficiency_rejected(self, make):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            make()

    def test_negative_h_rejected(self):
        with pytest.raises(DistributionInvalidError):
            RankDefDist(-1, [])
        with pytest.raises(DistributionInvalidError):
            RankDefDist.uniform(-1)

    @pytest.mark.parametrize(
        "probs",
        [
            [0.5, 0.3, 0.2],
            [1, 0, 0],
            [0.25] * 4,
            [0.5, 0, 0.25, 0.25],
            [0.2] * 5,
            [0.2, 0.2, 0.2, 0.2, 0.1, 0.1],
            [0.1] * 10,
            [1.0],
        ],
    )
    def test_cdf_is_the_cumsum_but_its_last(self, probs):
        """The draw's cdf, built once per law, for the laws of the pinned streams."""
        dist = RankDefDist(len(probs) - 1, probs)
        assert type(dist._cdf) is tuple
        assert dist._cdf == tuple(np.cumsum(dist.probs)[:-1].tolist())


class TestChannelSpec:
    def test_dimension_constraints(self):
        with pytest.raises(DimensionMismatchError):
            ChannelSpec(F2, 2, 3, RankDefDist(3, [1, 0, 0, 0]))
        with pytest.raises(DistributionInvalidError):
            ChannelSpec(F2, 3, 2, RankDefDist(1, [1, 0]))

    @pytest.mark.parametrize("T, h", [(3.7, 2), (3.0, 2), (3, 2.0), ("3", 2), (3, True), (None, 2)])
    def test_non_integer_dimensions_rejected(self, T, h):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            ChannelSpec(F2, T, h, RankDefDist(2, [1, 0, 0]))

    def test_numpy_integer_dimensions_stored_as_int(self):
        spec = ChannelSpec(F2, np.int64(3), np.uint8(2), RankDefDist(2, [1, 0, 0]))
        assert type(spec.T) is int and type(spec.h) is int
        assert spec == ChannelSpec(F2, 3, 2, RankDefDist(2, [1, 0, 0]))

    def test_json_round_trip(self):
        spec, warnings = channel_spec_from_dict(channel_spec_to_dict(MIXED))
        assert warnings == []
        assert spec == MIXED

    def test_loader_rejects_badly_normalized(self):
        with pytest.raises(DistributionInvalidError):
            channel_spec_from_dict({"q": 2, "T": 3, "h": 2, "rank_def": [0.5, 0.3, 0.1]})

    def test_loader_renormalizes_with_warning(self):
        spec, warnings = channel_spec_from_dict(
            {"q": 2, "T": 3, "h": 2, "rank_def": [0.5, 0.3, 0.2 + 2e-10]}
        )
        assert len(warnings) == 1 and "renormalized" in warnings[0]
        assert abs(float(spec.rank_def.probs.sum()) - 1.0) <= 1e-12

    def test_loader_missing_key(self):
        with pytest.raises(DistributionInvalidError):
            channel_spec_from_dict({"q": 2, "T": 3, "h": 2})

    @pytest.mark.parametrize("data", [None, 5, "spec", ["q", "T", "h", "rank_def"]])
    def test_loader_rejects_a_non_object(self, data):
        with pytest.raises(DistributionInvalidError, match="channel spec must be a JSON object"):
            channel_spec_from_dict(data)


class TestLawValue:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_equals_the_float_quotient_while_the_coefficient_is_exact_in_a_double(self, q):
        """Below 2^53 a Gaussian coefficient converts to a float exactly, so the
        correctly rounded quotient is p / C bit for bit."""
        for h in range(1, 7):
            vec = np.random.default_rng(h).random(h + 1)
            spec = ChannelSpec(GF(q), h, h, RankDefDist(h, vec / vec.sum()))
            for d in range(h + 1):
                assert spec._law_value(d) == float(spec.rank_def.probs[h - d]) / gaussian_coefficient(h, d, q)

    def test_a_coefficient_past_the_float_range(self):
        """At q2 T72 h70, C(70, 35)_2 is about 2^1225: a float divided by it
        overflowed, and the exact quotient rounds to 0.0.  C(70, 69)_2 = 2^70 - 1
        gives the correctly rounded quotient."""
        h = 70
        spec = ChannelSpec(F2, 72, h, RankDefDist.uniform(h))
        basis = np.eye(h, 72, dtype=np.uint8)
        u, v35, v69 = (span(Mat(F2, basis[:k])) for k in (h, 35, 69))
        assert transition_prob(spec, u, v35) == 0.0
        assert conditional_prob_given_rank(spec, u, v35, 35) == 0.0
        p = Fraction(float(spec.rank_def.probs[1]))
        assert transition_prob(spec, u, v69) == float(p / gaussian_coefficient(h, 69, 2)) == 1.1930041510623952e-23
        assert conditional_prob_given_rank(spec, u, v69, 1) == float(Fraction(1, 2**70 - 1))


class TestTransitionProb:
    def test_uniform_third_for_one_dimensional_output(self):
        assert transition_prob(DELTA1, U, V100) == pytest.approx(1 / 3, abs=1e-15)

    def test_brute_force_oracle_over_bases_and_rank_one_transfers(self):
        """Exhaustive law: uniform over the 6 bases of U x uniform over the 9
        rank-1 transfer matrices must reproduce p(V|U) = 1/3 exactly."""
        groups = matrices_by_rank(2, 2, 2)
        bases = [m for m in matrices_by_rank(2, 2, 3)[2] if span(Mat(F2, m)) == U]
        assert len(bases) == 6 and len(groups[1]) == 9
        counts: dict[Subspace, int] = {}
        for x in bases:
            for g in groups[1]:
                v = span(matmul(Mat(F2, g), Mat(F2, x)))
                counts[v] = counts.get(v, 0) + 1
        total = 6 * 9
        for v, cnt in counts.items():
            assert Fraction(cnt, total) == Fraction(1, 3)
            assert transition_prob(DELTA1, U, v) == float(Fraction(1, 3))
        assert len(counts) == 3

    def test_zero_off_support(self):
        outside = span(Mat.from_rows(F2, [[0, 0, 1]]))
        assert transition_prob(MIXED, U, outside) == 0.0

    def test_identity_transition_is_probability_of_full_rank(self):
        assert transition_prob(MIXED, U, U) == MIXED.rank_def.probs[0]

    def test_requires_input_dimension_h(self):
        with pytest.raises(DimensionMismatchError):
            transition_prob(MIXED, V100, V100)


class TestConditionalProbGivenRank:
    def test_matches_subspace_count(self):
        count = len(enumerate_subspaces_of(U, 1))
        assert count == 3
        assert conditional_prob_given_rank(MIXED, U, V100, 1) == 1.0 / count

    def test_zero_when_deficiency_inconsistent(self):
        assert conditional_prob_given_rank(MIXED, U, V100, 0) == 0.0
        assert conditional_prob_given_rank(MIXED, U, V100, 2) == 0.0

    def test_identity_case(self):
        assert conditional_prob_given_rank(MIXED, U, U, 0) == 1.0

    def test_deficiency_out_of_range(self):
        with pytest.raises(ValueError):
            conditional_prob_given_rank(MIXED, U, V100, 3)

    @pytest.mark.parametrize("rho", [0.5, 1.0, True, "1", -1, 3, 5])
    def test_deficiency_must_be_an_integer_in_range(self, rho):
        with pytest.raises(InvalidParameterError, match="rho must be an integer in \\[0, 2\\]"):
            conditional_prob_given_rank(MIXED, U, U, rho)


class TestBuildDmc:
    def test_alphabet_sizes(self):
        dmc = build_dmc(MIXED)
        assert dmc.trans.shape == (7, 15)
        assert alphabet_sizes(MIXED) == (7, 15)

    def test_rows_sum_to_one(self):
        for spec in (DELTA0, DELTA1, DELTA2, MIXED):
            dmc = build_dmc(spec)
            assert np.max(np.abs(dmc.trans.sum(axis=1) - 1.0)) < 1e-10

    def test_support_count_per_row(self):
        dmc = build_dmc(MIXED)
        assert all(np.count_nonzero(dmc.trans[i]) == 5 for i in range(7))

    def test_entries_match_transition_prob(self):
        dmc = build_dmc(MIXED)
        for i, u in enumerate(dmc.input_index):
            for j in range(dmc.num_outputs):
                v = dmc.output_index.subspace_at(j)
                assert dmc.trans[i, j] == transition_prob(MIXED, u, v)

    def test_support_iff_contained_and_mass_positive(self):
        dmc = build_dmc(MIXED)
        h = MIXED.h
        for i, u in enumerate(dmc.input_index):
            for j in range(dmc.num_outputs):
                v = dmc.output_index.subspace_at(j)
                expected = contains(u, v) and MIXED.rank_def.probs[h - v.dim] > 0
                assert (dmc.trans[i, j] > 0) == expected

    def test_output_ordering_dimension_ascending(self):
        dmc = build_dmc(MIXED)
        dims = [dmc.output_index.dim_of(j) for j in range(dmc.num_outputs)]
        assert dims == sorted(dims)
        assert [dmc.output_index.position(v) for v in dmc.output_index] == list(range(dmc.num_outputs))
        assert dims[0] == 0 and dims[-1] == MIXED.h
        with pytest.raises(KeyError, match="dimension 3 not in the output alphabet"):
            dmc.output_index.position(span(Mat.identity(F2, 3)))
        for j in (-1, dmc.num_outputs):
            with pytest.raises(IndexError):
                dmc.output_index.dim_of(j)
        assert all(
            dmc.component_of_output[j] == MIXED.h - dims[j] for j in range(dmc.num_outputs)
        )

    def test_rows_are_permutations_of_each_other(self):
        for spec in (DELTA0, DELTA1, MIXED):
            trans = build_dmc(spec).trans
            first = np.sort(trans[0])
            for row in trans[1:]:
                assert np.array_equal(np.sort(row), first)

    # sha256 of the dense views' bytes, recorded when build_dmc stored them
    # as its only representation: the views built from the support index
    # are bit-identical.
    @pytest.mark.parametrize(
        "q, T, h, rank_def, trans_digest, support_digest",
        [
            (2, 6, 3, [0.4, 0.3, 0.2, 0.1],
             "c3d33cf521767cc4ef6bfaa9647dfbcb41c20508f3b4345f407386b982077f73",
             "1f3ac3875cddb7e40efb74ce9f1267c88138a783d048c4d6ad85a4a81162723e"),
            (3, 3, 2, [0.6, 0.0, 0.4],
             "0aeb6f5f263a5d8f1c6f284699b42cdc0de81c3eeeb1256273770af3f28d43df",
             "b8b2908f9bc16200da3f5c11cf7337167b923c4440253d704b8a6c7a45d284e1"),
            (4, 3, 2, [0.25, 0.5, 0.25],
             "11a4cca40dfa4f95d3feb927d7290bc18a3ef8dca7f38012b623c6785fb5cc6b",
             "10251019e4147c37ee9c3fbf51787d8afef5a2bcbe828e0d065278febf46fab3"),
        ],
    )
    def test_dense_views_match_recorded_digests(self, q, T, h, rank_def, trans_digest, support_digest):
        dmc = build_dmc(_spec(rank_def, q, T, h))
        nx, ny = alphabet_sizes(dmc.spec)
        assert (dmc.num_inputs, dmc.num_outputs) == (nx, ny)
        assert dmc.trans.shape == (nx, ny) and dmc.trans.dtype == np.float64
        assert [s.shape for s in dmc.support_by_dim] == [(nx, len(b)) for b in dmc.output_index.blocks]
        assert hashlib.sha256(dmc.trans.tobytes()).hexdigest() == trans_digest
        support = hashlib.sha256()
        for pattern in dmc.support_by_dim:
            assert pattern.dtype == bool
            support.update(pattern.tobytes())
        assert support.hexdigest() == support_digest
        for array in (dmc.trans, *dmc.support_by_dim, dmc.support, dmc.values):
            assert not array.flags.writeable
        assert dmc.trans is dmc.trans

    def test_support_index_layout(self):
        dmc = build_dmc(MIXED)
        sizes = [gaussian_coefficient(2, d, 2) for d in range(3)]
        assert dmc.support.shape == (7, sum(sizes)) and dmc.support.dtype == np.int64
        expected = [MIXED.rank_def.probs[2 - d] / sizes[d] for d in range(3) for _ in range(sizes[d])]
        assert dmc.values.tolist() == expected
        for i, u in enumerate(dmc.input_index):
            subspaces = [dmc.output_index.subspace_at(j) for j in dmc.support[i]]
            assert [v.dim for v in subspaces] == [d for d in range(3) for _ in range(sizes[d])]
            assert all(contains(u, v) for v in subspaces) and len(set(subspaces)) == len(subspaces)

    def test_law_is_used_without_the_dense_views(self, monkeypatch):
        def no_dense(*args):
            raise AssertionError("a dense array was built")

        monkeypatch.setattr(channel, "_dense", no_dense)
        dmc = build_dmc(MIXED)
        mutual_information(dmc, np.full(7, 1 / 7))
        blahut_arimoto(dmc)
        comps = components(dmc)
        dmc_to_json(dmc, io.StringIO())
        dmc_to_csv(dmc, io.StringIO())
        assert "trans" not in vars(dmc) and "support_by_dim" not in vars(dmc)
        assert all(c.support.dtype == np.int64 and not hasattr(c, "trans") for c in comps)

    def test_enumeration_cap(self):
        spec = ChannelSpec(F2, 20, 10, RankDefDist.point_mass(10, 0))
        with pytest.raises(EnumerationTooLargeError):
            build_dmc(spec)
        with pytest.raises(EnumerationTooLargeError):
            alphabet_sizes(spec)


class TestComponents:
    def test_zero_deficiency_component_is_identity(self):
        dmc = build_dmc(MIXED)
        comp = components(dmc)[0]
        assert comp.rho == 0
        assert comp.selection_prob == MIXED.rank_def.probs[0]
        assert np.array_equal(component_trans(comp), np.eye(7))

    def test_full_deficiency_component_collapses_to_zero_space(self):
        comp = components(build_dmc(MIXED))[2]
        assert comp.rho == 2
        assert component_trans(comp).shape == (7, 1)
        assert np.all(component_trans(comp) == 1.0)
        assert comp.output_index[0] == Subspace.zero(F2, 3)

    def test_middle_component_uniform_over_three(self):
        comp = components(build_dmc(MIXED))[1]
        assert component_trans(comp).shape == (7, 7)
        for row in component_trans(comp):
            assert np.count_nonzero(row) == 3
            assert np.allclose(row[row > 0], 1 / 3)

    def test_rows_sum_to_one_and_strong_symmetry(self):
        for spec in (DELTA0, MIXED, _spec([0.25, 0.25, 0.25, 0.25], q=2, T=4, h=3)):
            for comp in map(component_trans, components(build_dmc(spec))):
                assert np.max(np.abs(comp.sum(axis=1) - 1.0)) < 1e-12
                rows = np.sort(comp, axis=1)
                assert all(np.array_equal(rows[0], rows[i]) for i in range(rows.shape[0]))
                cols = np.sort(comp, axis=0)
                assert all(
                    np.array_equal(cols[:, 0], cols[:, j]) for j in range(cols.shape[1])
                )

    def test_component_equals_renormalized_restriction_when_selected(self):
        dmc = build_dmc(MIXED)
        offsets = dmc.output_index.offsets
        for comp in components(dmc):
            sel = comp.selection_prob
            if sel > 0:
                d = MIXED.h - comp.rho
                block = dmc.trans[:, offsets[d] : offsets[d + 1]]
                assert np.allclose(component_trans(comp), block / sel, rtol=0, atol=1e-15)

    def test_components_hold_no_dense_block(self):
        dmc = build_dmc(_spec([0.4, 0.3, 0.2, 0.1], q=2, T=6, h=3))
        assert traced_peak(lambda: components(dmc)) < 1_000_000


class TestSimulateOneUse:
    def test_full_rank_transfer_preserves_input(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert simulate_one_use(DELTA0, U, rng) == U

    def test_zero_rank_transfer_collapses_to_zero_space(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert simulate_one_use(DELTA2, U, rng).dim == 0

    def test_empirical_law_matches_transition_prob(self):
        rng = np.random.default_rng(20100608)
        draws = 3000
        counts: dict[Subspace, int] = {}
        for _ in range(draws):
            v = simulate_one_use(DELTA1, U, rng)
            counts[v] = counts.get(v, 0) + 1
        support = enumerate_subspaces_of(U, 1)
        assert set(counts) == set(support)
        stat = chi2_statistic(
            [counts[v] for v in support], [draws * transition_prob(DELTA1, U, v) for v in support]
        )
        assert stat < CHI2_CRIT_P001[2]

    def test_input_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            simulate_one_use(DELTA0, V100, np.random.default_rng(0))

    def test_outputs_of_seeds_0_to_199_are_pinned(self):
        """sha256 of the newline-joined ``subspace_label`` of one use per
        seed, recorded while each chunk still built a deficiency per use:
        reading d from a one-draw count vector keeps every output."""
        labels = [subspace_label(simulate_one_use(MIXED, U, np.random.default_rng(s))) for s in range(200)]
        assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == (
            "ba19769d9edb02da751b9323e09f98cf8acd9ed7222cfe1a4344800d086662f0"
        )


    @pytest.mark.parametrize("q, T, h", [(2, 4, 2), (3, 4, 3), (4, 5, 3), (256, 3, 2), (2, 6, 5)])
    def test_a_use_is_the_one_use_frame_row_mapped_through_the_basis(self, q, T, h):
        """On each seed the output is the subspace of F_q^h at the one nonzero
        slot of ``simulate_frame(spec, 1, ...)``, mapped through B_u as
        ``subspaces_of_batch`` maps it, and both calls leave the generator in
        the same state.  The slots of F_q^h are the dimension blocks of C(h, d)_q
        subspaces in ascending d.  Every deficiency occurs over the 60 seeds; at
        q2 T6 h5 the d = 1 kept rows (4 x 5) have no slot table."""
        f = GF(q)
        spec = ChannelSpec(f, T, h, RankDefDist.uniform(h))
        inputs = enumerate_grassmannian(f, T, h)
        u = inputs[len(inputs) // 2]
        offsets = np.cumsum([0] + [gaussian_coefficient(h, d, q) for d in range(h + 1)])
        seen = set()
        for seed in range(60):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            v = simulate_one_use(spec, u, rng_a)
            (slot,) = np.flatnonzero(simulate_frame(spec, 1, rng_b))
            d = int(np.searchsorted(offsets, slot, side="right")) - 1
            expected = subspaces_of_batch(f, u.basis.array[None], d)[slot - offsets[d]]
            assert v.dim == d and np.array_equal(v.basis.array, expected)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            seen.add(d)
        assert seen == set(range(h + 1))

    def test_a_use_is_one_draw_and_builds_no_frame(self, monkeypatch):
        """Each call reads the one use of one ``_draw_uses`` call, the draw
        ``_tally`` counts, and never builds the frame of F_q^h or calls
        ``_tally``; its one elimination is of the (h - d) x h kept rows, not of
        an (h - d) x T product.  The spies are live: ``simulate_frame``
        afterwards calls ``_tally`` and ``_frame``."""
        draws, tallies, frames, rrefs = [], [], [], []
        draw, tally, frame, rref = channel._draw_uses, channel._tally, channel._frame, _kernels.rref
        monkeypatch.setattr(channel, "_draw_uses", lambda spec, n, rng: draws.append(n) or draw(spec, n, rng))
        monkeypatch.setattr(channel, "_tally", lambda *args: tallies.append(args) or tally(*args))
        monkeypatch.setattr(channel, "_frame", lambda *args: frames.append(args) or frame(*args))
        monkeypatch.setattr(_kernels, "rref", lambda mat, *tables: rrefs.append(mat.shape) or rref(mat, *tables))
        dims = [simulate_one_use(MIXED, U, np.random.default_rng(seed)).dim for seed in range(20)]
        assert set(dims) == {0, 1, 2}
        assert draws == [1] * 20 and tallies == frames == []
        assert rrefs == [(d, MIXED.h) for d in dims]
        simulate_frame(MIXED, 1, np.random.default_rng(0))
        assert len(tallies) == len(frames) == 1

    @pytest.mark.parametrize(
        "q, T, h, digest",
        [
            (2, 10, 9, "8c70a0b12b0ff3f9b40292cea4aae6a88b9a26d0031f16ff25dfa583f97c2604"),
            (256, 5, 4, "1ba03563b8faa04a6e1310e154f6df9ca435afd58ef0826b40a3c10750bbd484"),
        ],
        ids=["q2-T10-h9", "q256-T5-h4"],
    )
    def test_a_use_past_the_enumeration_cap_is_pinned(self, monkeypatch, q, T, h, digest):
        """A frame of F_q^h past the default cap (C(9, 4)_2 = 3,309,747 and
        C(4, 2)_256 > 4 * 10^9 subspaces) does not stop a single use.  sha256 of
        the newline-joined ``subspace_label`` of one use per seed 0..39, each
        followed by '/' and the generator's next ``integers(2**63)``, recorded
        while a use was drawn apart from ``_tally``; every deficiency occurs."""
        monkeypatch.delenv("SUBCHAN_ENUM_CAP", raising=False)
        f = GF(q)
        assert gaussian_coefficient(h, h // 2, q) > resolve_enum_cap()
        rows = np.zeros((h, T), dtype=np.uint8)
        rows[np.arange(h), np.arange(T - h, T)] = 1
        rows[:, 0] = np.arange(h) % q
        u = span(Mat(f, rows))
        spec = ChannelSpec(f, T, h, RankDefDist.uniform(h))
        labels, dims = [], set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            v = simulate_one_use(spec, u, rng)
            dims.add(v.dim)
            labels.append(f"{subspace_label(v)}/{rng.integers(2**63)}")
        assert dims == set(range(h + 1))
        assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == digest


class TestSimulateUses:
    """Channel-use simulation: ``simulate_frame`` draws uses in the input's
    own frame, ``simulate_one_use`` maps one through the input's basis."""

    SPEC = _spec([0.5, 0.3, 0.2], T=4)

    @pytest.mark.parametrize(
        "u",
        [
            span(Mat.from_rows(GF(3), [[1, 0, 0, 0], [0, 1, 0, 0]])),
            U,
            span(Mat.from_rows(F2, [[1, 0, 0, 0]])),
        ],
        ids=["other-field", "other-ambient", "wrong-dimension"],
    )
    def test_input_subspace_checked(self, u):
        with pytest.raises(DimensionMismatchError):
            simulate_one_use(self.SPEC, u, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "draws, error",
        [
            (0, InsufficientDataError),
            (-1, InsufficientDataError),
            (2.5, InvalidParameterError),
            (True, InvalidParameterError),
        ],
    )
    def test_draw_count_checked(self, draws, error):
        with pytest.raises(error):
            simulate_frame(self.SPEC, draws, np.random.default_rng(0))

    def test_enumeration_cap_is_checked_on_every_call(self, monkeypatch):
        """The frame of F_2^2 (blocks of 1, 3 and 1 subspaces) is built once;
        a cap lowered after that call still stops the next one."""
        simulate_frame(self.SPEC, 10, np.random.default_rng(0))
        monkeypatch.setenv("SUBCHAN_ENUM_CAP", "2")
        with pytest.raises(EnumerationTooLargeError, match=r"P\(F_2\^2, 1\) has 3 subspaces"):
            simulate_frame(self.SPEC, 10, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "q, T, h, probs, draws, digest",
        [
            (4, 5, 3, [0.5, 0, 0.25, 0.25], 70_000, "5cba4255adbe09e1ed8d6d36bd0175efc59076d51f145495b07caca76f38859b"),
            (2, 4, 2, [1, 0, 0], 70_000, "d11b016b73f744f82372964957cc86aa22917325432f843c677397427e7c96b8"),
            (2, 6, 5, [0.5, 0, 0.25, 0, 0.25, 0], 3000, "da12a72564ed2f390b1fa392bffb5864ec6ae1c0b5053c0ca4550b6ed1bae625"),
        ],
        ids=["q4-zero-mass-class", "q2-point-mass-0", "q2-h5-untabulated-zero-mass"],
    )
    def test_zero_mass_classes_tally_as_recorded(self, q, T, h, probs, draws, digest):
        """sha256 of the little-endian int64 ``_tally`` rows of seeds 0..2,
        recorded while a deficiency without uses in a chunk still made its
        empty sampler, lookup and ``bincount`` passes.  The sampler draws
        nothing for a count of 0, so skipping them keeps the stream; 70,000
        draws span two chunks, and at q2 T6 h5 the zero-mass d = 1 has no slot table."""
        spec = ChannelSpec(GF(q), T, h, RankDefDist(h, probs))
        rows = channel._tally(spec, draws, [np.random.default_rng(seed) for seed in range(3)])
        assert rows.shape == (3, len(channel._frame(GF(q), h)[0])) and (rows.sum(axis=1) == draws).all()
        assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "probs",
        [
            [0.5, 0.0, 0.25, 0.25],
            [0.3, 0.0, 0.0, 0.7],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.3, 0.7],
            [0.1] * 10,
        ],
        ids=["zero-mass-class", "two-zero-mass-classes", "point-mass-0", "point-mass-h", "h1", "cdf-below-1"],
    )
    def test_deficiency_is_the_searchsorted_of_the_cdf_clamped_to_h(self, probs):
        """At every cdf entry, the double just below it, 0 and the largest
        double below 1, the count of each deficiency is the ``bincount`` of
        the clamped right-side ``searchsorted`` of the uniforms in the cdf."""
        h = len(probs) - 1
        rank_def = RankDefDist(h, probs)
        cdf = np.cumsum(rank_def.probs)
        if probs == [0.1] * 10:
            assert cdf[-1] < 1.0  # it ends at the largest double below 1
        x = np.concatenate([cdf, np.nextafter(cdf, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
        counts = channel._deficiency_counts(cdf[:-1].tolist(), x)
        assert all(type(c) is int for c in counts)
        defs = np.minimum(np.searchsorted(cdf, x, side="right"), h)
        assert counts == np.bincount(defs, minlength=h + 1).tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_memory_beyond_the_outputs_does_not_grow_with_the_draw_count(self, seed):
        """The traced peak of one call is flat in the draw count: uses are
        tallied chunk by chunk into one count per slot.  200,000 and 800,000
        draws both span more than two chunks.  At this law a chunk's kept-row
        batches hold about 16,384 uses, the count at which a kernel temporary
        of 16 bytes per matrix reaches numpy's 256 KiB threshold for eliding
        temporaries, so the peak must not depend on the side a batch falls on."""
        spec = ChannelSpec(GF(4), 5, 3, RankDefDist.uniform(3))

        def peak(draws):
            return traced_peak(lambda: simulate_frame(spec, draws, np.random.default_rng(seed)))

        peak(10)  # warm the lazily built field tables and Grassmannians
        assert peak(800_000) - peak(200_000) < 256 << 10

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_kept_selector_rows_are_independent(self, q, h):
        """The stream draws a use's h - d kept rows as a uniform full-rank
        (h - d) x h matrix, in place of the first h - d rows of a uniform S
        in GL(h, q).  Over all of GL(h, q), the first k rows hit each of the
        N_k full-rank k x h matrices exactly |GL(h, q)| / N_k times, so the
        two laws are equal.  At k = h all rows reduce to I_h, and k = 0 is
        the zero space: ``simulate_frame`` draws nothing for d = 0 or d = h."""
        f = GF(q)
        tables = (f.add_table, f.mul_table, f.inv_table, f.neg_table)
        codes = np.arange(q ** (h * h))
        mats = (codes[:, None] // q ** np.arange(h * h) % q).astype(np.uint8).reshape(-1, h, h)
        group = mats[_kernels.rank_batch(mats, *tables) == h]
        order = int(np.prod([q**h - q**i for i in range(h)]))
        assert len(group) == order
        for k in range(h + 1):
            n_k = int(np.prod([q**h - q**i for i in range(k)]))
            rows = group[:, :k]
            assert np.all(_kernels.rank_batch(rows, *tables) == k)
            keys = rows.reshape(order, k * h).astype(np.int64) @ q ** np.arange(k * h)
            _keys, counts = np.unique(keys, return_counts=True)
            assert len(counts) == n_k and np.all(counts == order // n_k)
        canon, ranks = _kernels.rref_batch(group, *tables)
        assert np.all(ranks == h) and np.array_equal(canon, np.broadcast_to(np.eye(h, dtype=np.uint8), group.shape))

    @pytest.mark.parametrize("T, h, q", [(T, h, q) for T, h in [(4, 2), (5, 3)] for q in [2, 3, 4]] + [(6, 5, 2)])
    def test_frame_is_the_papers_mechanism(self, q, T, h):
        """On one seed, the literal mechanism in F_q^T on the stream's own
        draws (each use's deficiency d, then for each d = 1..h-1 one uniform
        full-rank (h - d) x h matrix K per use of deficiency d) outputs the
        row space of K B_u, eliminated in F_q^T: B_u itself at d = 0, the
        zero space at d = h.  Each use lands in a slot of u's support row,
        and the tally of ``simulate_frame`` on the same seed counts exactly
        those slots.  A slot mislabelled within a dimension block would pass
        every z-score of the MC; this pins it.  The deficiencies are drawn
        here with ``np.searchsorted``, independently of the package's draw.
        At q2 T6 h5 the kept rows of d = 1 (2^20 matrices of 4 x 5) are
        eliminated and those of d = 2..4 looked up in slot tables, so both
        paths of ``simulate_frame`` are pinned."""
        f, draws = GF(q), 3000
        tables = (f.add_table, f.mul_table, f.inv_table, f.neg_table)
        spec = ChannelSpec(f, T, h, RankDefDist.uniform(h))
        dmc = build_dmc(spec)
        alphabet, nnz = dmc.output_index, dmc.support.shape[1]
        cdf = np.cumsum(spec.rank_def.probs)
        for i in np.linspace(0, dmc.num_inputs - 1, 4).astype(int).tolist():
            u = dmc.input_index[i]
            rng = np.random.default_rng(100 + i)
            defs = np.minimum(np.searchsorted(cdf, rng.random(draws), side="right"), h)
            x = np.zeros((draws, h, T), dtype=np.uint8)
            x[defs == 0] = u.basis.array
            for d in range(1, h):
                kept = sample_full_rank_batch(f, h - d, h, int(np.count_nonzero(defs == d)), rng)
                basis = np.broadcast_to(u.basis.array, (len(kept), h, T))
                x[defs == d, : h - d] = _kernels.matmul_batch(kept, basis, *tables[:2])
            ref, dims = _kernels.rref_batch(x, *tables)
            assert np.array_equal(dims, h - defs)
            columns = np.empty(draws, dtype=np.int64)
            for d, block in enumerate(alphabet.blocks):
                columns[dims == d] = alphabet.offsets[d] + block.indices(ref[dims == d, :d])
            slot_of = np.full(dmc.num_outputs, -1)
            slot_of[dmc.support[i]] = np.arange(nnz)
            slots = slot_of[columns]
            assert (slots >= 0).all()

            tally = simulate_frame(spec, draws, np.random.default_rng(100 + i))
            assert tally.dtype == np.int64
            assert np.array_equal(tally, np.bincount(slots, minlength=nnz))


# Every kept-row shape k x h, h <= 8, that a slot table covers; the largest
# (q^(k h) = 2^16) are q2 2 x 8, q16 1 x 4 and q256 1 x 2.
SLOT_TABLE_SHAPES = [
    (q, k, h) for q in (2, 3, 4, 16, 256) for h in range(2, 9) for k in range(1, h) if q ** (k * h) <= channel._CHUNK
]


class TestSlotTables:
    """``simulate_frame`` looks kept rows up in a table built by ``rref_batch``
    and ``GrassmannianIndex.indices``; these checks count instead."""

    @pytest.mark.parametrize("q, k, h", SLOT_TABLE_SHAPES)
    def test_each_subspace_is_the_row_space_of_its_bases(self, q, k, h):
        """Of the q^(k h) matrices, prod_{i<k} (q^h - q^i) have rank k (the
        sampler's analytic acceptance times q^(k h)), and each of the C(h, k)_q
        slots is the row space of |GL(k, q)| of them, its ordered bases.  The
        enumerated RREF basis of each slot sits at that slot."""
        table = channel._slot_table(GF(q), k, h)
        assert table.shape == (q ** (k * h),)
        full_rank = math.prod(q**h - q**i for i in range(k))
        assert np.count_nonzero(table >= 0) == full_rank
        assert full_rank == pytest.approx(math.prod(1 - q ** (i - h) for i in range(k)) * q ** (k * h))
        assert np.array_equal(np.unique(table), np.arange(-1, gaussian_coefficient(h, k, q)))
        assert np.all(np.bincount(table[table >= 0]) == count_ordered_bases(k, q))
        bases = enumerate_grassmannian(GF(q), h, k).bases
        codes = bases.reshape(len(bases), k * h) @ q ** np.arange(k * h - 1, -1, -1)
        assert np.array_equal(table[codes], np.arange(len(bases)))

    def test_a_shape_just_over_the_chunk_gets_no_table(self, monkeypatch):
        """256^2 = ``_CHUNK``: the q256 1 x 2 shape is the last one tabulated."""
        f = GF(256)
        channel._frame.cache_clear()
        try:
            assert set(channel._frame(f, 2)[1]) == {1}
            monkeypatch.setattr(channel, "_CHUNK", channel._CHUNK - 1)
            channel._frame.cache_clear()
            assert channel._frame(f, 2)[1] == {}
        finally:
            channel._frame.cache_clear()

    def test_tabulated_shapes_are_not_eliminated(self, monkeypatch):
        """After the frame is built, a q2 h5 call eliminates only its 4 x 5
        kept rows (2^20 matrices, over ``_CHUNK``): one ``rref_batch`` per chunk."""
        spec = ChannelSpec(F2, 6, 5, RankDefDist.uniform(5))
        simulate_frame(spec, 10, np.random.default_rng(0))
        shapes = []
        rref_batch = _kernels.rref_batch
        monkeypatch.setattr(_kernels, "rref_batch", lambda mats, *t: shapes.append(mats.shape[1:]) or rref_batch(mats, *t))
        simulate_frame(spec, 70_000, np.random.default_rng(0))
        assert shapes == [(4, 5), (4, 5)]

    def test_build_memory(self):
        """The q2 2 x 8 table covers 65,536 matrices: the digits are built as
        uint8 (1 MiB), and an int64 (n, k h) array of them alone would take 8 MiB."""
        f = GF(2)
        channel._slot_table(f, 2, 8)  # warms P(F_2^8, 2) and its ranking tables
        assert traced_peak(lambda: channel._slot_table(f, 2, 8)) < 8 << 20


class TestDmcMemory:
    def test_build_and_capacity_memory_is_bounded_by_the_support(self):
        """q2 T7 h3 has 11,811 inputs and 14,606 outputs: a dense float64 law
        would take 1.4 GB, the support index takes 1.5 MB."""
        spec = _spec([0.4, 0.3, 0.2, 0.1], q=2, T=7, h=3)
        limit = 200 << 20
        tracemalloc.start()
        try:
            dmc = build_dmc(spec)
            assert tracemalloc.get_traced_memory()[1] < limit
            solution = blahut_arimoto(dmc, tol=1e-9)
            mi = mutual_information(dmc, np.full(dmc.num_inputs, 1 / dmc.num_inputs))
            assert tracemalloc.get_traced_memory()[1] < limit
        finally:
            tracemalloc.stop()
        closed = capacity_closed_form(spec).closed_form
        assert abs(solution.capacity_estimate - closed) <= 1e-6
        assert abs(mi - closed) <= 1e-9


class TestBasisInvariance:
    """Marginalizing over the random basis makes the output law independent
    of which fixed rank-r transfer matrix acted."""

    @pytest.mark.parametrize("g_rows", [[[0, 1], [0, 1]], [[1, 0], [1, 0]], [[1, 1], [0, 0]]])
    def test_fixed_rank_one_transfer_uniform_over_bases(self, g_rows):
        g = Mat.from_rows(F2, g_rows)
        assert rank(g) == 1
        bases = [m for m in matrices_by_rank(2, 2, 3)[2] if span(Mat(F2, m)) == U]
        counts: dict[Subspace, int] = {}
        for x in bases:
            v = span(matmul(g, Mat(F2, x)))
            counts[v] = counts.get(v, 0) + 1
        assert set(counts) == set(enumerate_subspaces_of(U, 1))
        assert set(counts.values()) == {2}

    @pytest.mark.parametrize("q", [2, 3])
    def test_every_single_transfer_gives_the_law_over_all_bases(self, q):
        """For each input U and each single 2 x 2 transfer G, the exact law of
        row(G X) over all |GL(2, q)| ordered bases X of U is uniform over the
        subspaces of U of dimension rank(G), as rationals."""
        f, T, h = GF(q), 3, 2
        tables = (f.add_table, f.mul_table, f.inv_table, f.neg_table)
        transfers = matrices_by_rank(q, h, h)
        assert sum(map(len, transfers.values())) == q ** (h * h)
        selectors = np.array(transfers[h])
        n_bases = count_ordered_bases(h, q)
        assert len(selectors) == n_bases
        for u in enumerate_grassmannian(f, T, h):
            canonical = np.broadcast_to(u.basis.array, (n_bases, h, T))
            bases = _kernels.matmul_batch(selectors, canonical, *tables[:2])
            assert len({b.tobytes() for b in bases}) == n_bases
            assert all(span(Mat(f, b)) == u for b in bases)
            for r, gs in transfers.items():
                g = np.repeat(np.array(gs), n_bases, axis=0)
                x = np.tile(bases, (len(gs), 1, 1))
                canon, dims = _kernels.rref_batch(_kernels.matmul_batch(g, x, *tables[:2]), *tables)
                assert np.all(dims == r)
                index = enumerate_grassmannian(f, T, r)
                outputs = index.indices(canon[:, :r]).reshape(len(gs), n_bases)
                support = {index.index_of(v) for v in enumerate_subspaces_of(u, r)}
                expected = {j: Fraction(1, gaussian_coefficient(h, r, q)) for j in support}
                for row in outputs:
                    values, counts = np.unique(row, return_counts=True)
                    law = {int(j): Fraction(int(c), n_bases) for j, c in zip(values, counts)}
                    assert law == expected, (u, r)

    def test_without_the_selector_the_output_depends_on_the_transfer_matrix(self):
        """Regression for the worked examples: fixed basis X', transfer
        matrices G and G' of equal rank, different output subspaces."""
        x_prime = Mat.from_rows(F2, [[0, 1, 0], [1, 1, 0]])
        g = Mat.from_rows(F2, [[0, 1], [0, 1]])
        g_prime = Mat.from_rows(F2, [[1, 0], [1, 0]])
        left = span(matmul(g, x_prime))
        right = span(matmul(g_prime, x_prime))
        assert subspace_label(left) == "110"
        assert subspace_label(right) == "010"
        assert left != right


class TestEstimateRankDefDist:
    def test_all_zero_observations(self):
        d = estimate_rank_def_dist([0, 0, 0], 2)
        assert d.probs.tolist() == [1.0, 0.0, 0.0]

    def test_counting(self):
        d = estimate_rank_def_dist([0, 0, 1, 1], 2)
        assert d.probs.tolist() == [0.5, 0.5, 0.0]

    def test_rank_mode_converts(self):
        d = estimate_rank_def_dist([2, 2, 1, 0], 2, kind="rank")
        assert d.probs.tolist() == [0.5, 0.25, 0.25]

    def test_out_of_range(self):
        with pytest.raises(ObservationOutOfRangeError):
            estimate_rank_def_dist([0, 3], 2)
        with pytest.raises(ObservationOutOfRangeError):
            estimate_rank_def_dist([-1], 2)

    def test_empty_stream(self):
        with pytest.raises(InsufficientDataError):
            estimate_rank_def_dist([], 2)
        with pytest.raises(InsufficientDataError):
            estimate_rank_def_dist(np.array([], dtype=np.int64), 2)

    @pytest.mark.parametrize(
        "observations",
        [[0, 1, 2.9], [0.0, 1.0], np.array([0.5]), [True, False], ["1"], [[0, 1], [1, 0]], [[0], [0, 1]], None, 5],
    )
    def test_non_integer_observations_rejected(self, observations):
        with pytest.raises(InvalidParameterError, match="flat sequence of integers"):
            estimate_rank_def_dist(observations, 2)

    def test_array_and_iterator_inputs(self):
        expected = [0.5, 0.25, 0.25]
        generator = (x for x in [0, 2, 1, 0])
        for observations in (np.array([0, 2, 1, 0], dtype=np.uint8), iter([0, 2, 1, 0]), (0, 2, 1, 0), generator):
            assert estimate_rank_def_dist(observations, 2).probs.tolist() == expected

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            estimate_rank_def_dist([0], 2, kind="guess")
        with pytest.raises(InvalidParameterError, match="kind must be"):
            estimate_rank_def_dist([0], 2, kind="x")

    @pytest.mark.parametrize("h", [1.5, 2.0, "2", None, True])
    def test_h_must_be_an_integer(self, h):
        with pytest.raises(InvalidParameterError, match="h must be an integer"):
            estimate_rank_def_dist([0, 1], h)

    def test_recovers_simulated_distribution(self):
        rng = np.random.default_rng(33)
        n = 2000
        observed = [MIXED.h - simulate_one_use(MIXED, U, rng).dim for _ in range(n)]
        est = estimate_rank_def_dist(observed, MIXED.h)
        for r in range(3):
            p = MIXED.rank_def.probs[r]
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(est.probs[r] - p) < 3 * sigma + 1e-12


class TestExports:
    def test_dict_export_shape_and_metadata(self):
        dmc = build_dmc(MIXED)
        data = dmc_dict(dmc)
        assert data["format_version"] == 1
        assert (data["q"], data["T"], data["h"]) == (2, 3, 2)
        assert len(data["input_labels"]) == 7
        assert len(data["output_labels"]) == 15
        assert data["output_dims"] == sorted(data["output_dims"])
        assert len(data["transitions"]) == 7
        assert all(len(row) == 15 for row in data["transitions"])
        json.dumps(data)

    @pytest.mark.parametrize("q, T, h", [(2, 3, 2), (3, 3, 1), (4, 3, 2), (32, 2, 1)])
    def test_json_export_is_the_dict_dumped(self, q, T, h):
        dmc = build_dmc(ChannelSpec(GF(q), T, h, RankDefDist.uniform(h)))
        buf = io.StringIO()
        dmc_to_json(dmc, buf)
        assert buf.getvalue() == json.dumps(dmc_dict(dmc), indent=2, sort_keys=True) + "\n"

    def test_csv_export_parses_back(self):
        dmc = build_dmc(MIXED)
        buf = io.StringIO()
        dmc_to_csv(dmc, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 8
        header = lines[0].split(",")
        assert header[0] == "input" and len(header) == 16
        for line in lines[1:]:
            cells = line.split(",")
            row = [float(x) for x in cells[1:]]
            assert abs(sum(row) - 1.0) < 1e-10

    def test_zero_space_label_is_empty_string(self):
        dmc = build_dmc(MIXED)
        assert dmc.output_index.labels()[0] == ""

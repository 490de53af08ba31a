"""Capacity: closed form, component formulas, mutual information, and the
Blahut-Arimoto solver (checked against analytic fixtures and used as the
independent oracle for the closed form)."""

import math
import warnings

import numpy as np
import pytest

from conftest import component_trans, divergences_loops, traced_peak
from subchan import capacity, grassmann
from subchan.capacity import (
    BaSolution,
    _divergences,
    _slot_law,
    blahut_arimoto,
    capacity_closed_form,
    component_capacity,
    mutual_information,
    strongly_symmetric_capacity,
    symmetric_capacity_from_components,
)
from subchan.channel import ChannelSpec, RankDefDist, build_dmc, components
from subchan.errors import (
    DistributionInvalidError,
    InvalidParameterError,
    NonConvergenceError,
    NotRowStochasticError,
)
from subchan.gf import GF
from subchan.grassmann import gaussian_coefficient


def _spec(probs, q=2, T=3, h=2):
    return ChannelSpec(GF(q), T, h, RankDefDist(h, probs))


MIXED = _spec([0.5, 0.3, 0.2])


def _random_dist(h, seed):
    rng = np.random.default_rng(seed)
    vec = rng.random(h + 1) + 0.05
    return (vec / vec.sum()).tolist()


class TestComponentCapacity:
    def test_full_deficiency_component_is_zero(self):
        for q, T, h in ((2, 3, 2), (3, 4, 3)):
            assert component_capacity(q, T, h, h) == 0.0

    def test_zero_deficiency_component_is_log_grassmannian(self):
        assert component_capacity(2, 3, 2, 0) == math.log2(7)
        assert component_capacity(3, 4, 2, 0) == math.log2(gaussian_coefficient(4, 2, 3))

    def test_middle_component_value(self):
        # C(3,1)_2 = 7 and C(2,1)_2 = 3 by enumeration, so log2(7/3).
        expected = math.log2(7) - math.log2(3)
        assert component_capacity(2, 3, 2, 1) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(1.22239, abs=5e-6)

    @pytest.mark.parametrize(
        "args", [(2, 4, 2, True), (2, 4, 2, 1.0), (2, 4, 2, 3), (2, 4, 2, -1), (2, 4, 5, 0), (2, 4.0, 2, 1)]
    )
    def test_rejects_bad_dimensions(self, args):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            component_capacity(*args)

    def test_base_conversion_is_exact_division(self):
        bits = component_capacity(2, 4, 2, 1, log_base=2.0)
        for base in (3.0, 4.0, math.e, 10.0):
            assert component_capacity(2, 4, 2, 1, log_base=base) == bits / math.log2(base)

    def test_strictly_decreasing_in_deficiency(self):
        for q in (2, 3):
            for T, h in ((3, 2), (4, 2), (4, 3)):
                caps = [component_capacity(q, T, h, rho) for rho in range(h + 1)]
                assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            component_capacity(2, 3, 2, 3)
        with pytest.raises(ValueError):
            component_capacity(2, 2, 3, 0)
        with pytest.raises(ValueError):
            component_capacity(2, 3, 2, 0, log_base=1.0)

    @pytest.mark.parametrize("base", [math.nan, math.inf, 1.0, 0.5])
    def test_log_base_must_be_finite_and_exceed_one(self, base):
        with pytest.raises(InvalidParameterError):
            component_capacity(2, 3, 2, 0, log_base=base)


class TestClosedFormAtLargeT:
    """The closed form takes C(T, k)_q through ``grassmann._gaussian_size``:
    exact while Python writes it as text, else from its float log10."""

    def test_agrees_with_the_exact_coefficient_across_the_switch(self):
        """C(T, 1)_2 = 2^T - 1 passes Python's 4,300-digit text limit near T = 14,290."""
        for T in range(14280, 14301):
            exact = math.log2(gaussian_coefficient(T, 1, 2)) - math.log2(3)
            assert component_capacity(2, T, 2, 1) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_a_billion_builds_no_exact_coefficient_of_T(self, monkeypatch):
        exact = grassmann.gaussian_coefficient

        def small_only(n, ell, q):
            assert n < 10**6 or ell in (0, n), f"C({n}, {ell})_{q} was built"
            return exact(n, ell, q)

        monkeypatch.setattr(grassmann, "gaussian_coefficient", small_only)
        T, log2_3 = 10**9, math.log2(3)
        report = capacity_closed_form(ChannelSpec(GF(2), T, 2, RankDefDist(2, [0.5, 0.3, 0.2])))
        # C(T, 2)_2 = (2^T - 1)(2^(T-1) - 1) / 3 and C(T, 1)_2 = 2^T - 1.
        caps = [2 * T - 1 - log2_3, T - log2_3, 0.0]
        assert [c.capacity for c in report.per_component] == pytest.approx(caps, rel=1e-15, abs=0.0)
        assert report.closed_form == pytest.approx(0.5 * caps[0] + 0.3 * caps[1], rel=1e-15)


class TestClosedForm:
    def test_no_deficiency_gives_log_of_input_alphabet_exactly(self):
        report = capacity_closed_form(_spec([1, 0, 0]))
        assert report.closed_form == math.log2(7)

    def test_total_deficiency_gives_zero_exactly(self):
        assert capacity_closed_form(_spec([0, 0, 1])).closed_form == 0.0

    def test_mixed_distribution_value(self):
        expected = 0.5 * math.log2(7) + 0.3 * math.log2(7 / 3)
        report = capacity_closed_form(MIXED)
        assert report.closed_form == pytest.approx(expected, abs=1e-12)
        assert report.closed_form == pytest.approx(1.77040, abs=1e-5)

    def test_breakdown_consistency(self):
        report = capacity_closed_form(MIXED)
        recon = math.fsum(c.selection_prob * c.capacity for c in report.per_component)
        assert abs(report.closed_form - recon) <= 1e-12
        assert [c.rho for c in report.per_component] == [0, 1, 2]
        assert report.per_component[-1].capacity == 0.0
        assert all(c.capacity >= 0 for c in report.per_component)

    def test_units_notes(self):
        assert capacity_closed_form(MIXED).units_note == "bits per channel use"
        assert "GF(2)" in capacity_closed_form(MIXED, log_base=2.0).units_note or True
        assert "GF(3)" in capacity_closed_form(_spec([1, 0, 0], q=3), log_base=3.0).units_note

    def test_log_base_consistency(self):
        bits = capacity_closed_form(MIXED, 2.0).closed_form
        for base in (math.e, 4.0, 10.0):
            assert capacity_closed_form(MIXED, base).closed_form == pytest.approx(
                bits / math.log2(base), abs=1e-12
            )

    def test_monotone_under_mass_shift_to_higher_deficiency(self):
        base = [0.4, 0.3, 0.3]
        shifted = [0.3, 0.4, 0.3]
        assert (
            capacity_closed_form(_spec(shifted)).closed_form
            < capacity_closed_form(_spec(base)).closed_form
        )


class TestStronglySymmetricCapacity:
    def test_identity_row(self):
        row = [1.0, 0.0, 0.0, 0.0]
        assert strongly_symmetric_capacity(row, 4) == math.log2(4)

    def test_uniform_row(self):
        assert strongly_symmetric_capacity([0.25] * 4, 4) == pytest.approx(0.0, abs=1e-15)

    def test_matches_component_formula(self):
        comp = components(build_dmc(MIXED))[1]
        trans = component_trans(comp)
        value = strongly_symmetric_capacity(trans[0], trans.shape[1])
        assert value == pytest.approx(component_capacity(2, 3, 2, 1), abs=1e-12)

    def test_rejects_non_probability_rows(self):
        with pytest.raises(DistributionInvalidError):
            strongly_symmetric_capacity([0.5, 0.4], 2)

    @pytest.mark.parametrize("num_outputs", [2.5, 4.0, True, "4", 1])
    def test_rejects_bad_num_outputs(self, num_outputs):
        with pytest.raises(InvalidParameterError, match="num_outputs must be an integer >= 2"):
            strongly_symmetric_capacity([0.5, 0.5], num_outputs)

    @pytest.mark.parametrize("row", [[math.nan, 1.0], [1.0, math.nan], [math.nan, math.nan]])
    def test_rejects_nan_rows(self, row):
        with pytest.raises(DistributionInvalidError):
            strongly_symmetric_capacity(row, 2)


class TestSymmetricCapacityFromComponents:
    def test_single_component(self):
        assert symmetric_capacity_from_components([(0, 1.0, 2.5)]) == 2.5

    def test_all_zero_capacities(self):
        assert symmetric_capacity_from_components([(0, 0.5, 0.0), (1, 0.5, 0.0)]) == 0.0

    def test_equals_closed_form(self):
        report = capacity_closed_form(MIXED)
        assert symmetric_capacity_from_components(report.per_component) == pytest.approx(
            report.closed_form, abs=1e-15
        )

    def test_selection_probabilities_must_sum_to_one(self):
        with pytest.raises(DistributionInvalidError):
            symmetric_capacity_from_components([(0, 0.5, 1.0)])

    def test_nan_selection_probability_rejected(self):
        with pytest.raises(DistributionInvalidError):
            symmetric_capacity_from_components([(0, math.nan, 1.0), (1, 1.0, 0.0)])

    @pytest.mark.parametrize(
        "comps",
        [
            [(0, -1.0, 1.0), (1, 2.0, 1.0)],
            [(0, math.inf, 1.0)],
            [(0, 1.0, math.nan)],
            [(0, 0.5, math.inf), (1, 0.5, 1.0)],
        ],
        ids=["negative-selection", "infinite-selection", "nan-capacity", "infinite-capacity"],
    )
    def test_invalid_components_rejected(self, comps):
        """Negative or non-finite selection probabilities and non-finite
        capacities; a negative mass could otherwise still sum to 1."""
        with pytest.raises(DistributionInvalidError):
            symmetric_capacity_from_components(comps)


class TestMutualInformation:
    def test_point_mass_on_identity_channel(self):
        eye = np.eye(3)
        assert mutual_information(eye, [1.0, 0.0, 0.0]) == 0.0

    def test_uniform_on_identity_channel(self):
        eye = np.eye(4)
        assert mutual_information(eye, np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("dist", [np.full(7, math.nan), [math.nan, 1, 0, 0, 0, 0, 0]])
    def test_rejects_nan_input_distribution(self, dist):
        with pytest.raises(DistributionInvalidError):
            mutual_information(build_dmc(MIXED), dist)

    def test_rejects_nan_transition_entries(self):
        chan = np.array([[math.nan, 1.0], [0.5, 0.5]])
        with pytest.raises(NotRowStochasticError):
            mutual_information(chan, [0.5, 0.5])
        with pytest.raises(NotRowStochasticError):
            blahut_arimoto(chan)

    @pytest.mark.parametrize(
        "chan",
        [[[1.0], [0.5, 0.5]], [["a"]], [[1.0 + 0j, 0.0], [0.0, 1.0]], [[None, 1.0]]],
        ids=["ragged", "strings", "complex", "objects"],
    )
    def test_rejects_non_real_matrices(self, chan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotRowStochasticError):
                mutual_information(chan, [1.0] + [0.0] * (len(chan) - 1))
            with pytest.raises(NotRowStochasticError):
                blahut_arimoto(chan)

    def test_uniform_input_on_dmc_matches_blahut_arimoto(self):
        dmc = build_dmc(MIXED)
        mi = mutual_information(dmc, np.full(dmc.num_inputs, 1 / dmc.num_inputs))
        ba = blahut_arimoto(dmc, tol=1e-10)
        assert mi == pytest.approx(ba.capacity_estimate, abs=1e-8)

    def test_distribution_validation(self):
        eye = np.eye(2)
        with pytest.raises(DistributionInvalidError):
            mutual_information(eye, [0.9, 0.2])
        with pytest.raises(DistributionInvalidError):
            mutual_information(eye, [1.0])


class TestBlahutArimoto:
    def test_gap_bound_is_never_negative(self):
        # The bounds coincide at the uniform optimum of this channel, and
        # rounding puts the unclamped difference at about -3e-16.
        sol = blahut_arimoto(build_dmc(_spec([0.492, 0.186, 0.322])), tol=1e-12)
        assert sol.gap_bound >= 0.0

    def test_noiseless_binary_channel(self):
        sol = blahut_arimoto(np.eye(2), tol=1e-12)
        assert sol.capacity_estimate == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sol.input_distribution, 0.5)
        assert sol.gap_bound <= 1e-12

    def test_binary_symmetric_channel_analytic(self):
        eps = 0.11
        chan = np.array([[1 - eps, eps], [eps, 1 - eps]])
        expected = 1.0 - (-eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps))
        sol = blahut_arimoto(chan, tol=1e-12)
        assert sol.capacity_estimate == pytest.approx(expected, abs=1e-9)

    def test_asymmetric_channel_against_grid_search(self):
        """Independent oracle: exhaustive scan of the input simplex for a
        2-input channel."""
        chan = np.array([[0.8, 0.15, 0.05], [0.05, 0.25, 0.7]])
        best = max(
            mutual_information(chan, [p, 1 - p], 2.0) for p in np.linspace(0, 1, 20001)
        )
        sol = blahut_arimoto(chan, tol=1e-12)
        assert sol.capacity_estimate == pytest.approx(best, abs=1e-7)

    @pytest.mark.parametrize(
        "T, h, rank_def", [(4, 2, [0.5, 0.3, 0.2]), (5, 3, [0.4, 0.3, 0.2, 0.1])]
    )
    def test_converges_where_uniform_is_not_optimal(self, T, h, rank_def):
        """Duplicating inputs leaves the capacity unchanged but makes the
        uniform start suboptimal: the duplicated inputs get too much mass,
        so BA has to iterate to reach the closed form."""
        spec = _spec(rank_def, T=T, h=h)
        closed = capacity_closed_form(spec).closed_form
        dmc = build_dmc(spec)
        assert blahut_arimoto(dmc, tol=1e-9).iterations == 1
        trans = np.array(dmc.trans)
        sol = blahut_arimoto(np.vstack([trans, trans[:3]]), tol=1e-9)
        assert sol.iterations > 1
        assert abs(sol.capacity_estimate - closed) <= 1e-6
        assert sol.input_distribution[:3].sum() < 3 / len(sol.input_distribution)

    def test_matches_closed_form_on_subspace_channel(self):
        report = capacity_closed_form(MIXED)
        sol = blahut_arimoto(build_dmc(MIXED), tol=1e-9)
        assert abs(sol.capacity_estimate - report.closed_form) <= 1e-6

    def test_tightening_tolerance_stays_within_previous_gap(self):
        chan = np.array([[0.8, 0.15, 0.05], [0.05, 0.25, 0.7]])
        loose = blahut_arimoto(chan, tol=1e-4)
        tight = blahut_arimoto(chan, tol=1e-5)
        assert loose.gap_bound >= 0
        assert abs(tight.capacity_estimate - loose.capacity_estimate) <= loose.gap_bound + 1e-12

    def test_log_base_option(self):
        sol_bits = blahut_arimoto(np.eye(4), tol=1e-12, log_base=2.0)
        sol_quat = blahut_arimoto(np.eye(4), tol=1e-12, log_base=4.0)
        assert sol_quat.capacity_estimate == pytest.approx(1.0, abs=1e-12)
        assert sol_bits.capacity_estimate == pytest.approx(2.0, abs=1e-12)

    def test_rejects_non_stochastic_matrices(self):
        with pytest.raises(NotRowStochasticError):
            blahut_arimoto(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(NotRowStochasticError):
            blahut_arimoto(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            blahut_arimoto(np.eye(2), tol=0.0)
        with pytest.raises(ValueError):
            blahut_arimoto(np.eye(2), max_iters=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InvalidParameterError):
            blahut_arimoto(np.eye(2), tol=tol)

    @pytest.mark.parametrize("max_iters", [2.5, 10.0, True, "10"])
    def test_max_iters_must_be_an_integer(self, max_iters):
        with pytest.raises(InvalidParameterError):
            blahut_arimoto(np.eye(2), max_iters=max_iters)

    def test_nonconvergence_carries_best_solution(self):
        chan = np.array([[0.8, 0.15, 0.05], [0.05, 0.25, 0.7]])
        with pytest.raises(NonConvergenceError) as exc_info:
            blahut_arimoto(chan, tol=1e-14, max_iters=2)
        sol = exc_info.value.solution
        assert isinstance(sol, BaSolution)
        assert sol.iterations == 2
        assert sol.gap_bound > 1e-14
        assert abs(float(sol.input_distribution.sum()) - 1.0) <= 1e-12


class TestOracleEquivalenceGrid:
    """Closed form vs Blahut-Arimoto across fields, shapes, and deficiency
    distributions (the invariant grid; the acceptance suite re-runs a
    superset with timing)."""

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (4, 3)])
    def test_grid(self, q, shape):
        T, h = shape
        dists = [
            RankDefDist.point_mass(h, 0).probs,
            RankDefDist.point_mass(h, h).probs,
            RankDefDist.uniform(h).probs,
        ] + [_random_dist(h, seed) for seed in range(5)]
        for dist in dists:
            spec = _spec(dist, q=q, T=T, h=h)
            report = capacity_closed_form(spec)
            sol = blahut_arimoto(build_dmc(spec), tol=1e-9)
            assert abs(sol.capacity_estimate - report.closed_form) <= 1e-6


class TestSupportIndexEquivalence:
    """Mutual information and Blahut-Arimoto read a Dmc from its support
    index; the same calls on its dense matrix give the same results."""

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (4, 3)])
    def test_dmc_and_dense_matrix_agree(self, q, shape):
        T, h = shape
        dists = [
            RankDefDist.point_mass(h, 0).probs,
            RankDefDist.point_mass(h, h).probs,
            RankDefDist.uniform(h).probs,
        ] + [_random_dist(h, seed) for seed in range(5)]
        rng = np.random.default_rng(q * 100 + T * 10 + h)
        for dist in dists:
            dmc = build_dmc(_spec(dist, q=q, T=T, h=h))
            dense = np.array(dmc.trans)
            for p in (np.full(dmc.num_inputs, 1 / dmc.num_inputs), rng.dirichlet(np.ones(dmc.num_inputs))):
                assert abs(mutual_information(dmc, p) - mutual_information(dense, p)) <= 1e-12
            for tol in (1e-9, 1e-12):
                sparse_sol, dense_sol = blahut_arimoto(dmc, tol=tol), blahut_arimoto(dense, tol=tol)
                assert sparse_sol.iterations == dense_sol.iterations
                assert abs(sparse_sol.capacity_estimate - dense_sol.capacity_estimate) <= 1e-12
                assert np.max(np.abs(sparse_sol.input_distribution - dense_sol.input_distribution)) <= 1e-12

    @pytest.mark.parametrize("block", [16384, 13, 1])
    def test_divergences_match_a_loop_reference(self, monkeypatch, block):
        """The slot-by-slot pass sums in another order than the loop, so the
        two agree to rounding: on a dense matrix with zero entries and a
        zero column, and on a Dmc with a zero-mass deficiency, each read in
        one block and in blocks of one or two slots."""
        monkeypatch.setattr(capacity, "_BLOCK", block)
        rng = np.random.default_rng(26)
        dense = rng.random((6, 9)) * (rng.random((6, 9)) < 0.6) + np.eye(6, 9)
        dense[:, 4] = 0.0
        dense /= dense.sum(axis=1, keepdims=True)
        dmc = build_dmc(_spec([0.5, 0.0, 0.3, 0.2], T=5, h=3))
        for chan, trans in ((dense, dense), (dmc, dmc.trans)):
            p = rng.dirichlet(np.ones(len(trans)))
            reference = divergences_loops(trans, p)
            assert np.max(np.abs(_divergences(_slot_law(chan), p) - reference)) <= 1e-12
            assert abs(mutual_information(chan, p) - math.fsum(p * reference) / math.log(2)) <= 1e-12

    def test_a_dense_matrix_is_read_by_its_positive_entries(self):
        """A dense row gives its positive columns in order, padded to the
        widest row with zero-valued columns.  The dense q2 T6 h3 law with 3
        inputs repeated (1,398 x 2,110) is 16 slots wide, as its Dmc, and BA
        and MI on it agree with a Dmc holding the same repeated rows."""
        dmc = build_dmc(_spec([0.4, 0.3, 0.2, 0.1], T=6, h=3))
        support = np.vstack([dmc.support, dmc.support[:3]])
        repeated = type(dmc)(dmc.spec, dmc.input_index, dmc.output_index, support, dmc.values, dmc.component_of_output)
        dense = np.vstack([dmc.trans, dmc.trans[:3]])
        cols, vals, ny = _slot_law(dense)
        assert cols.shape == (1398, 16) and ny == 2110
        assert np.array_equal(cols, np.sort(support, axis=1))
        assert np.array_equal(vals, np.take_along_axis(dense, cols, axis=1)) and (vals > 0).all()
        p = np.random.default_rng(27).dirichlet(np.ones(len(dense)))
        assert abs(mutual_information(repeated, p) - mutual_information(dense, p)) <= 1e-12
        sparse_sol, dense_sol = blahut_arimoto(repeated), blahut_arimoto(dense)
        assert sparse_sol.iterations == dense_sol.iterations > 1
        assert abs(sparse_sol.capacity_estimate - dense_sol.capacity_estimate) <= 1e-12
        assert np.max(np.abs(sparse_sol.input_distribution - dense_sol.input_distribution)) <= 1e-12

    def test_a_narrower_dense_row_is_padded_with_zero_valued_columns(self):
        cols, vals, ny = _slot_law(np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]))
        assert cols.tolist() == [[0, 2], [2, 0]] and vals.tolist() == [[0.5, 0.5], [1.0, 0.0]] and ny == 3

    def test_a_dmc_is_read_without_an_expanded_copy(self):
        """At q2 T7 h3 (11,811 x 14,606, 16 slots a row) the law is 1.5 MB;
        one BA or MI call over it holds a few |X|- and |Y|-sized arrays, not
        (row, column, value) arrays of all 188,976 entries."""
        dmc = build_dmc(_spec([0.4, 0.3, 0.2, 0.1], T=7, h=3))
        uniform = np.full(dmc.num_inputs, 1 / dmc.num_inputs)
        assert traced_peak(lambda: blahut_arimoto(dmc)) < 2 << 20
        assert traced_peak(lambda: mutual_information(dmc, uniform)) < 2 << 20

    def test_dmc_rows_are_checked(self):
        dmc = build_dmc(MIXED)
        broken = type(dmc)(
            dmc.spec, dmc.input_index, dmc.output_index, dmc.support, dmc.values * 0.9, dmc.component_of_output
        )
        with pytest.raises(NotRowStochasticError):
            mutual_information(broken, np.full(7, 1 / 7))
        with pytest.raises(NotRowStochasticError):
            blahut_arimoto(broken)

    def test_zero_mass_columns_take_no_part(self):
        chan = np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
        sol = blahut_arimoto(chan, tol=1e-12)
        reduced = blahut_arimoto(chan[:, [0, 2]], tol=1e-12)
        assert sol.iterations == reduced.iterations
        assert sol.capacity_estimate == pytest.approx(reduced.capacity_estimate, abs=1e-15)

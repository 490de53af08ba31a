"""Input contract of the public entry points.

A real number is an int or a float (numpy scalars included), never a bool; a
probability vector is a flat sequence of finite, nonnegative reals summing to
1 within 1e-9; a transition matrix is a 2-D array of such rows.  Every
malformed argument raises the documented SubchanError subclass: never a bare
ValueError or TypeError, and never a silent result.
"""

import io
import math

import numpy as np
import pytest

from subchan.capacity import (
    blahut_arimoto,
    capacity_closed_form,
    component_capacity,
    mutual_information,
    strongly_symmetric_capacity,
    symmetric_capacity_from_components,
)
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
    InvalidParameterError,
    NotRowStochasticError,
    _check_real,
)
from subchan.gf import GF
from subchan.grassmann import (
    GrassmannianIndex,
    Subspace,
    contains,
    enumerate_grassmannian,
    enumerate_subspaces_of,
    random_ordered_basis,
    span,
    subspace_label,
)
from subchan.matrix import Mat, matmul, rank, rref, sample_full_rank, sample_full_rank_batch
from subchan.mc import empirical_capacity_pipeline, mc_report_to_csv, mc_report_to_dict, run_mc

RD = RankDefDist(2, [0.5, 0.3, 0.2])
SPEC = ChannelSpec(GF(2), 3, 2, RD)
EYE = np.eye(2)
RAGGED = [[0.5], [0.5, 0.0]]
COMPLEX = [0.5 + 0j, 0.5]
U = span(Mat(GF(2), [[1, 0, 0], [0, 1, 0]]))

CASES = {
    "RankDefDist-str": (lambda: RankDefDist(1, ["a", "b"]), DistributionInvalidError),
    "RankDefDist-complex": (lambda: RankDefDist(1, COMPLEX), DistributionInvalidError),
    "RankDefDist-ragged": (lambda: RankDefDist(1, RAGGED), DistributionInvalidError),
    "RankDefDist-bool": (lambda: RankDefDist(1, [True, False]), DistributionInvalidError),
    "strongly_symmetric-str": (lambda: strongly_symmetric_capacity(["a", 1.0], 2), DistributionInvalidError),
    "strongly_symmetric-ragged": (lambda: strongly_symmetric_capacity(RAGGED, 2), DistributionInvalidError),
    "strongly_symmetric-complex": (lambda: strongly_symmetric_capacity(COMPLEX, 2), DistributionInvalidError),
    "strongly_symmetric-matrix": (lambda: strongly_symmetric_capacity([[0.5, 0.5]], 2), DistributionInvalidError),
    "strongly_symmetric-base-None": (
        lambda: strongly_symmetric_capacity([0.5, 0.5], 2, log_base=None),
        InvalidParameterError,
    ),
    "mutual_information-str": (lambda: mutual_information(EYE, ["a", "b"]), DistributionInvalidError),
    "mutual_information-complex": (lambda: mutual_information(EYE, COMPLEX), DistributionInvalidError),
    "mutual_information-dict": (lambda: mutual_information(EYE, {"a": 1}), DistributionInvalidError),
    "mutual_information-bool": (lambda: mutual_information(EYE, [True, False]), DistributionInvalidError),
    "mutual_information-bool-matrix": (
        lambda: mutual_information(np.eye(2, dtype=bool), [0.5, 0.5]),
        NotRowStochasticError,
    ),
    "components-str": (lambda: symmetric_capacity_from_components([(0, "a", 1.0)]), DistributionInvalidError),
    "components-pair": (lambda: symmetric_capacity_from_components([(0, 1.0)]), DistributionInvalidError),
    "components-flat": (lambda: symmetric_capacity_from_components([1, 2]), DistributionInvalidError),
    "components-None": (lambda: symmetric_capacity_from_components(None), DistributionInvalidError),
    "closed_form-base-None": (lambda: capacity_closed_form(SPEC, None), InvalidParameterError),
    "closed_form-base-complex": (lambda: capacity_closed_form(SPEC, 2 + 0j), InvalidParameterError),
    "component_capacity-base-str": (lambda: component_capacity(2, 3, 2, 0, "2"), InvalidParameterError),
    "blahut_arimoto-tol-None": (lambda: blahut_arimoto(EYE, tol=None), InvalidParameterError),
    "blahut_arimoto-tol-complex": (lambda: blahut_arimoto(EYE, tol=1e-9 + 0j), InvalidParameterError),
    "blahut_arimoto-base-str": (lambda: blahut_arimoto(EYE, log_base="2"), InvalidParameterError),
    "blahut_arimoto-bool-matrix": (lambda: blahut_arimoto(np.eye(2, dtype=bool)), NotRowStochasticError),
    "pipeline-base-str": (lambda: empirical_capacity_pipeline(SPEC, 10, 0, "2"), InvalidParameterError),
    "spec_from_dict-None": (lambda: channel_spec_from_dict(None), DistributionInvalidError),
    "spec_from_dict-list": (lambda: channel_spec_from_dict(["q", "T", "h", "rank_def"]), DistributionInvalidError),
    "estimate-None": (lambda: estimate_rank_def_dist(None, 1), InvalidParameterError),
    "estimate-int": (lambda: estimate_rank_def_dist(5, 1), InvalidParameterError),
    "ChannelSpec-field-None": (lambda: ChannelSpec(None, 3, 2, RD), InvalidParameterError),
    "ChannelSpec-field-int": (lambda: ChannelSpec(2, 3, 2, RD), InvalidParameterError),
    "ChannelSpec-rank_def-list": (lambda: ChannelSpec(GF(2), 3, 2, [0.5, 0.3, 0.2]), InvalidParameterError),
    "build_dmc-None": (lambda: build_dmc(None), InvalidParameterError),
    "run_mc-None": (lambda: run_mc(None, 10, 0), InvalidParameterError),
    "pipeline-None": (lambda: empirical_capacity_pipeline(None, 10, 0), InvalidParameterError),
    "closed_form-None": (lambda: capacity_closed_form(None), InvalidParameterError),
    "span-None": (lambda: span(None), InvalidParameterError),
    "Mat-field-None": (lambda: Mat(None, [[1]]), InvalidParameterError),
    "simulate_frame-spec-None": (lambda: simulate_frame(None, 10, np.random.default_rng(0)), InvalidParameterError),
    "simulate_frame-rng-None": (lambda: simulate_frame(SPEC, 10, None), InvalidParameterError),
    "simulate_one_use-spec-None": (lambda: simulate_one_use(None, U, np.random.default_rng(0)), InvalidParameterError),
    "simulate_one_use-u-None": (lambda: simulate_one_use(SPEC, None, np.random.default_rng(0)), InvalidParameterError),
    "alphabet_sizes-None": (lambda: alphabet_sizes(None), InvalidParameterError),
    "transition_prob-None": (lambda: transition_prob(None, U, U), InvalidParameterError),
    "conditional_prob_given_rank-None": (lambda: conditional_prob_given_rank(None, U, U, 0), InvalidParameterError),
    "components-dmc-None": (lambda: components(None), InvalidParameterError),
    "dmc_to_json-None": (lambda: dmc_to_json(None, io.StringIO()), InvalidParameterError),
    "dmc_to_csv-None": (lambda: dmc_to_csv(None, io.StringIO()), InvalidParameterError),
    "channel_spec_to_dict-None": (lambda: channel_spec_to_dict(None), InvalidParameterError),
    "mc_report_to_dict-None": (lambda: mc_report_to_dict(None), InvalidParameterError),
    "mc_report_to_csv-None": (lambda: mc_report_to_csv(None, io.StringIO()), InvalidParameterError),
    "subspace_label-None": (lambda: subspace_label(None), InvalidParameterError),
    "Subspace-field-None": (lambda: Subspace(None, 3, U.basis), InvalidParameterError),
    "Subspace-T-None": (lambda: Subspace(GF(2), None, U.basis), InvalidParameterError),
    "Subspace-basis-None": (lambda: Subspace(GF(2), 3, None), InvalidParameterError),
    "contains-None": (lambda: contains(U, None), InvalidParameterError),
    "enumerate_subspaces_of-None": (lambda: enumerate_subspaces_of(None, 1), InvalidParameterError),
    "random_ordered_basis-None": (lambda: random_ordered_basis(None, np.random.default_rng(0)), InvalidParameterError),
    "random_ordered_basis-rng-None": (lambda: random_ordered_basis(U, None), InvalidParameterError),
    "enumerate_grassmannian-field-None": (lambda: enumerate_grassmannian(None, 3, 1), InvalidParameterError),
    "GrassmannianIndex-field-None": (lambda: GrassmannianIndex(None, 3, 1), InvalidParameterError),
    "GrassmannianIndex-T-negative": (lambda: GrassmannianIndex(GF(2), -1, 0), InvalidParameterError),
    "GrassmannianIndex-dim-float": (lambda: GrassmannianIndex(GF(2), 3, 2.5), InvalidParameterError),
    "GrassmannianIndex-over-cap": (lambda: GrassmannianIndex(GF(2), 40, 20), EnumerationTooLargeError),
    # C(10^7, 2)_2 has about 6.0 million digits; the cap rejects it from its
    # log10 before it is built.
    "enumerate_grassmannian-T-ten-million": (lambda: enumerate_grassmannian(GF(2), 10**7, 2), EnumerationTooLargeError),
    "alphabet_sizes-T-ten-million": (lambda: alphabet_sizes(ChannelSpec(GF(2), 10**7, 2, RD)), EnumerationTooLargeError),
    # Past the float range the size's log10 is infinite, not an OverflowError.
    "enumerate_grassmannian-T-past-float": (lambda: enumerate_grassmannian(GF(2), 10**400, 2), EnumerationTooLargeError),
    "alphabet_sizes-T-past-float": (lambda: alphabet_sizes(ChannelSpec(GF(2), 10**400, 2, RD)), EnumerationTooLargeError),
    "matmul-None": (lambda: matmul(None, U.basis), InvalidParameterError),
    "rank-None": (lambda: rank(None), InvalidParameterError),
    "rref-None": (lambda: rref(None), InvalidParameterError),
    "sample_full_rank-field-int": (lambda: sample_full_rank(2, 2, 2, np.random.default_rng(0)), InvalidParameterError),
    "sample_full_rank-n-float": (lambda: sample_full_rank(GF(2), 2, 2.0, np.random.default_rng(0)), InvalidParameterError),
    "sample_full_rank-n-bool": (lambda: sample_full_rank(GF(2), True, 2, np.random.default_rng(0)), InvalidParameterError),
    "sample_full_rank-n-str": (lambda: sample_full_rank(GF(2), "2", 2, np.random.default_rng(0)), InvalidParameterError),
    "sample_full_rank-n-negative": (lambda: sample_full_rank(GF(2), -1, 2, np.random.default_rng(0)), DimensionMismatchError),
    "sample_full_rank_batch-count-negative": (
        lambda: sample_full_rank_batch(GF(2), 2, 2, -1, np.random.default_rng(0)),
        InvalidParameterError,
    ),
    "sample_full_rank_batch-count-float": (
        lambda: sample_full_rank_batch(GF(2), 2, 2, 1.0, np.random.default_rng(0)),
        InvalidParameterError,
    ),
}


@pytest.mark.parametrize("call, error", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_the_documented_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.int64(2), np.float32(2.0)])
def test_every_real_type_gives_the_same_result(value):
    assert _check_real("x", value, above=1) == 2.0
    assert component_capacity(2, 4, 2, 1, log_base=value) == component_capacity(2, 4, 2, 1)
    assert mutual_information(EYE, [0.5, 0.5], log_base=value) == mutual_information(EYE, [0.5, 0.5])


@pytest.mark.parametrize("value", [True, np.bool_(True), "3", None, 3 + 0j, math.nan, math.inf, -math.inf, 10**400])
def test_check_real_rejects_non_finite_and_non_numbers(value):
    with pytest.raises(InvalidParameterError, match=r"^x must be a finite number > 0, got "):
        _check_real("x", value, above=0)


def test_integer_probability_vectors_and_generators_accepted():
    assert RankDefDist(2, [0, 1, 0]) == RankDefDist.point_mass(2, 1)
    assert mutual_information(np.eye(2, dtype=np.int64), [1, 0]) == 0.0
    comps = capacity_closed_form(SPEC).per_component
    assert symmetric_capacity_from_components(c for c in comps) == symmetric_capacity_from_components(comps)

"""Monte Carlo harness: reproducibility, structural support properties,
statistical agreement with the analytical law, and the empirical-capacity
pipeline.

Statistical assertions run on pinned seeds verified once; the binomial
z-score threshold (4 on the large runs, 5 on the small multi-seed grid)
keeps the false-alarm probability per suite below one percent.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import mc_score_reference, traced_peak
from subchan import _kernels, channel, grassmann, mc
from subchan.channel import ChannelSpec, RankDefDist, build_dmc, simulate_frame, transition_prob
from subchan.errors import InsufficientDataError, InvalidParameterError, SubchanError
from subchan.gf import GF
from subchan.grassmann import GrassmannianIndex, contains
from subchan.mc import (
    empirical_capacity_pipeline,
    mc_report_to_csv,
    mc_report_to_dict,
    run_mc,
)


def _spec(probs, q=2, T=3, h=2):
    return ChannelSpec(GF(q), T, h, RankDefDist(h, probs))


DELTA0 = _spec([1, 0, 0])
DELTA1 = _spec([0, 1, 0])
DELTA2 = _spec([0, 0, 1])
MIXED = _spec([0.5, 0.3, 0.2])


class TestRunMcStructure:
    def test_counts_per_input_sum_to_draws(self):
        report = run_mc(MIXED, 500, seed=3)
        totals = {}
        for cell in report.cells:
            totals[cell.input_index] = totals.get(cell.input_index, 0) + cell.count
        assert set(totals) == set(range(7))
        assert all(v == 500 for v in totals.values())

    def test_full_rank_deterministic_channel(self):
        report = run_mc(DELTA0, 300, seed=0)
        assert report.max_abs_deviation == 0.0
        assert report.worst_z_score == 0.0
        assert report.off_support_hits == 0
        dmc = build_dmc(DELTA0)
        for cell in report.cells:
            if cell.count:
                v = dmc.output_index.subspace_at(cell.output_index)
                assert v == dmc.input_index[cell.input_index]
                assert cell.count == 300

    def test_zero_rank_collapses_everything_to_zero_space(self):
        report = run_mc(DELTA2, 300, seed=0)
        assert report.max_abs_deviation == 0.0
        for cell in report.cells:
            if cell.count:
                assert cell.output_index == 0
                assert cell.output_label == ""

    def test_empirical_support_is_subset_of_analytical(self):
        for seed in range(3):
            report = run_mc(MIXED, 2000, seed=seed)
            assert report.off_support_hits == 0
            dmc = build_dmc(MIXED)
            for (i, j), count in report.empirical.items():
                assert count > 0
                assert dmc.trans[i, j] > 0

    def test_off_support_draws_are_counted_and_fail_the_score(self, monkeypatch):
        """The channel never draws a slot of zero mass, so this path needs a
        faked tally: one use of every input moves from F_q^h (the last slot)
        to the zero space (slot 0), which this law never outputs."""
        tally_of = mc._tally

        def one_use_in_the_zero_space(spec, draws, rngs):
            tally = tally_of(spec, draws, rngs)
            tally[:, -1] -= 1
            tally[:, 0] += 1
            return tally

        monkeypatch.setattr(mc, "_tally", one_use_in_the_zero_space)
        report = run_mc(_spec([0.5, 0.5, 0]), 200, seed=2)
        assert report.off_support_hits == 7
        assert report.worst_z_score == math.inf
        data = mc_report_to_dict(report)
        assert data["worst_z_score"] is None
        schema = Path(__file__).resolve().parents[1] / "schemas" / "mc_report.schema.json"
        jsonschema.validate(data, json.loads(schema.read_text(encoding="utf-8")))

    @pytest.mark.parametrize(
        "spec, draws, fake_off_support",
        [
            (MIXED, 500, False),
            (DELTA0, 300, False),
            (DELTA2, 300, False),
            (_spec([0.5, 0.0, 0.25, 0.25], T=4, h=3), 400, False),
            (_spec([0.5, 0.3, 0.2], q=3, T=3), 500, False),
            (_spec([0.5, 0.5, 0]), 200, True),
        ],
        ids=["mixed", "point-mass-full-rank", "point-mass-zero-space", "zero-mass-class", "q3", "off-support"],
    )
    def test_cells_equal_the_scalar_reference(self, monkeypatch, spec, draws, fake_off_support):
        """The array scoring gives every cell the count, expected probability
        and z-score of the scalar reference, inf included, as Python ``int``,
        ``float`` and ``str``; the faked tally moves one use of every input to
        the zero space, as in the off-support test above."""
        dmc = build_dmc(spec)
        tallies = [simulate_frame(spec, draws, mc._substream(4, i)).tolist() for i in range(dmc.num_inputs)]
        if fake_off_support:
            for tally in tallies:
                tally[-1] -= 1
                tally[0] += 1
            monkeypatch.setattr(mc, "_tally", lambda *args: np.array(tallies))
        cells, max_dev, worst_z, off_support = mc_score_reference(dmc, tallies, draws)
        report = run_mc(spec, draws, 4)
        got = [(c.input_index, c.output_index, c.count, c.expected_prob, c.z_score) for c in report.cells]
        assert got == cells
        assert (report.max_abs_deviation, report.worst_z_score, report.off_support_hits) == (max_dev, worst_z, off_support)
        assert any(c.z_score == math.inf for c in report.cells) == fake_off_support
        if spec in (DELTA0, DELTA2):
            assert {(c.expected_prob, c.z_score) for c in report.cells} == {(1.0, 0.0)}
        for c in report.cells:
            assert [type(v) for v in dataclasses.astuple(c)] == [int, int, str, str, int, float, float]
        assert [type(report.max_abs_deviation), type(report.worst_z_score), type(report.off_support_hits)] == [float, float, int]

    def test_substreams_are_made_one_at_a_time(self, monkeypatch):
        """Input i's generator is made only after input i - 1's deficiencies are
        all drawn, so one generator is alive at a time however many inputs."""
        events, made = [], {}
        substream, draw = mc._substream, channel._draw_deficiencies

        def spy_substream(seed, i):
            events.append(("made", i))
            made[id(rng := substream(seed, i))] = i
            return rng

        def spy_draw(cdf, draws, rng):
            yield from draw(cdf, draws, rng)
            events.append(("drawn", made[id(rng)]))

        monkeypatch.setattr(mc, "_substream", spy_substream)
        monkeypatch.setattr(channel, "_draw_deficiencies", spy_draw)
        run_mc(MIXED, 70_000, 1)
        assert events == [(e, i) for i in range(7) for e in ("made", "drawn")]

    @pytest.mark.parametrize("q, T", [(2, 4), (3, 3)])
    def test_cells_score_against_the_scalar_law(self, q, T):
        """Each cell's expected probability is the scalar law of its (u, v),
        which tests containment apart from ``build_dmc``'s support, and each
        drawn output lies in its input: a support row shifted to another
        input fails both."""
        spec = _spec([0.5, 0.3, 0.2], q=q, T=T)
        dmc = build_dmc(spec)
        for cell in run_mc(spec, 500, seed=1).cells:
            u, v = dmc.input_index[cell.input_index], dmc.output_index.subspace_at(cell.output_index)
            assert cell.expected_prob == transition_prob(spec, u, v)
            assert cell.count == 0 or contains(u, v)

    @pytest.mark.parametrize("T", [3, 4])
    def test_tally_makes_no_lookup_in_the_global_alphabet(self, monkeypatch, T):
        """Only build_dmc looks subspaces of F_q^T up, once per output
        dimension, however many inputs there are: the tally reads slots in
        each input's own frame."""
        calls = []
        indices = GrassmannianIndex.indices
        build = mc.build_dmc
        in_build = []

        def spy_indices(self, canon):
            calls.append((self.ambient_dim, bool(in_build)))
            return indices(self, canon)

        def spy_build(spec):
            in_build.append(True)
            try:
                return build(spec)
            finally:
                in_build.pop()

        monkeypatch.setattr(GrassmannianIndex, "indices", spy_indices)
        monkeypatch.setattr(mc, "build_dmc", spy_build)
        spec = _spec([0.5, 0.3, 0.2], T=T)
        run_mc(spec, 50, seed=1)
        global_calls = [inside for ambient, inside in calls if ambient == T]
        assert global_calls == [True] * (spec.h + 1)

    def test_pipeline_enumerates_no_grassmannian_of_the_packet_space(self, monkeypatch):
        enumerate_cached = grassmann._enumerate_cached
        ambients = []

        def spy(field, ambient_dim, dim):
            ambients.append(ambient_dim)
            return enumerate_cached(field, ambient_dim, dim)

        monkeypatch.setattr(grassmann, "_enumerate_cached", spy)
        empirical_capacity_pipeline(_spec([0.5, 0.3, 0.2], T=4), 500, seed=1)
        assert 4 not in ambients

    def test_draw_count_validated(self):
        with pytest.raises(InsufficientDataError):
            run_mc(MIXED, 0, seed=0)

    @pytest.mark.parametrize(
        "draws, seed",
        [(10, -3), (10, 1.5), (10, "1"), (10, True), (10.5, 1), (True, 1), ("10", 1)],
        ids=["negative-seed", "float-seed", "str-seed", "bool-seed", "float-draws", "bool-draws", "str-draws"],
    )
    def test_bad_draws_or_seed_rejected(self, draws, seed):
        with pytest.raises(SubchanError):
            run_mc(DELTA1, draws, seed)
        with pytest.raises(SubchanError):
            empirical_capacity_pipeline(DELTA1, draws, seed)

    @pytest.mark.parametrize("log_base", ["2", None, 1.0, math.nan, True])
    def test_log_base_checked_before_any_draw(self, monkeypatch, log_base):
        def fail(*args):
            raise AssertionError("drew channel uses before checking log_base")

        monkeypatch.setattr(mc, "_draw_deficiencies", fail)
        with pytest.raises(InvalidParameterError, match="log base must be a finite number > 1"):
            empirical_capacity_pipeline(DELTA1, 10, 0, log_base)

    def test_numpy_integer_draws_and_seed_accepted(self):
        report = mc_report_to_dict(run_mc(DELTA1, np.int64(20), np.uint32(3)))
        assert json.dumps(report) == json.dumps(mc_report_to_dict(run_mc(DELTA1, 20, 3)))


class TestRunMcDeterminism:
    def test_identical_inputs_reproduce_identical_reports(self):
        a = run_mc(MIXED, 1000, seed=11)
        b = run_mc(MIXED, 1000, seed=11)
        assert mc_report_to_dict(a) == mc_report_to_dict(b)

    def test_different_seeds_differ(self):
        a = run_mc(MIXED, 1000, seed=11)
        b = run_mc(MIXED, 1000, seed=12)
        assert mc_report_to_dict(a) != mc_report_to_dict(b)

    def test_the_benchmark_call_is_pinned(self, monkeypatch):
        """The benchmark's ``mc_gf2`` call, q2 T4 h2 at 10,000 draws and seed 1:
        its report, and after a warm call the sampler's ``rank_batch`` calls,
        one round of 1 x 2 candidates per input, whose totals the benchmark
        reads as its rejection metrics."""
        spec = _spec([0.5, 0.3, 0.2], T=4)
        run_mc(spec, 20, 1)
        calls = []
        rank_batch = _kernels.rank_batch

        def spy(mats, *tables):
            ranks = rank_batch(mats, *tables)
            calls.append((mats.shape, int(np.count_nonzero(ranks == 1))))
            return ranks

        monkeypatch.setattr(_kernels, "rank_batch", spy)
        text = json.dumps(mc_report_to_dict(run_mc(spec, 10_000, 1)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a6e47a529529baf707d67c8fc3111b8977a2974898ecff84b78cdd2e8c84d6a2"
        )
        assert len(calls) == 35 and {shape[1:] for shape, _full in calls} == {(1, 2)}
        assert sum(shape[0] for shape, _full in calls) == 153_409
        assert sum(full for _shape, full in calls) == 115_040

    @pytest.mark.parametrize(
        "spec, draws",
        [
            (_spec([0.5, 0.3, 0.2], T=4), 10_000),
            (_spec([0.2] * 5, q=3, T=4, h=4), 2000),
            (MIXED, 70_000),
            (_spec([0.5, 0.0, 0.25, 0.25], T=4, h=3), 2000),
        ],
        ids=["q2-T4-h2", "q3-T4-h4", "q2-T3-h2-two-chunks", "zero-mass-class"],
    )
    def test_each_input_is_simulate_frame_on_its_substream(self, spec, draws):
        """``run_mc`` tallies input i as ``simulate_frame`` does on substream i:
        one implementation of the tally."""
        dmc = build_dmc(spec)
        expected = {}
        for i in range(dmc.num_inputs):
            tally = simulate_frame(spec, draws, mc._substream(5, i))
            expected.update({(i, j): c for j, c in zip(dmc.support[i].tolist(), tally.tolist()) if c})
        assert run_mc(spec, draws, 5).empirical == expected


class TestRunMcStatistics:
    def test_uniform_law_large_run(self):
        report = run_mc(DELTA1, 100_000, seed=1)
        assert report.off_support_hits == 0
        assert report.worst_z_score < 4.0

    def test_wider_packet_large_run(self):
        report = run_mc(_spec([0, 1, 0], T=4), 100_000, seed=7)
        assert report.off_support_hits == 0
        assert report.worst_z_score < 4.0

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (4, 3)])
    def test_multi_seed_grid_stays_under_five_sigma(self, shape):
        T, h = shape
        spec = _spec([1.0 / (h + 1)] * (h + 1), T=T, h=h)
        for seed in range(5):
            report = run_mc(spec, 5000, seed=seed)
            assert report.off_support_hits == 0
            assert report.worst_z_score < 5.0


class TestPipeline:
    def test_deterministic_channel_recovers_exactly(self):
        est, report = empirical_capacity_pipeline(DELTA0, 2000, seed=0)
        assert est.probs.tolist() == [1.0, 0.0, 0.0]
        assert report.capacity_estimated.closed_form == report.capacity_true.closed_form

    @pytest.mark.parametrize("seed", range(5))
    def test_estimated_capacity_close_to_truth(self, seed):
        est, report = empirical_capacity_pipeline(MIXED, 100_000, seed=seed)
        assert abs(report.capacity_estimated.closed_form - report.capacity_true.closed_form) < 0.01
        assert sum(report.deficiency_counts) == 100_000
        for r in range(3):
            p = MIXED.rank_def.probs[r]
            sigma = np.sqrt(p * (1 - p) / 100_000)
            assert abs(est.probs[r] - p) < 4 * sigma

    def test_empty_stream_rejected(self):
        with pytest.raises(InsufficientDataError):
            empirical_capacity_pipeline(MIXED, 0, seed=0)

    def test_eliminates_nothing(self, monkeypatch):
        """The pipeline reads only each use's deficiency: it draws no kept
        rows, so neither the sampler's rank test nor any RREF runs."""
        calls = []
        for name in ("rank_batch", "rref_batch"):
            kernel = getattr(_kernels, name)
            monkeypatch.setattr(_kernels, name, lambda *args, _k=kernel: calls.append(1) or _k(*args))
        _est, report = empirical_capacity_pipeline(_spec([0.4, 0.3, 0.3], q=4, T=5, h=2), 500, seed=1)
        assert calls == [] and sum(report.deficiency_counts) == 500

    @pytest.mark.parametrize("seed", range(4))
    def test_memory_does_not_grow_with_the_draw_count(self, seed):
        """200,000 and 800,000 draws both span more than two chunks; only a
        chunk's uniforms and its deficiency counts are held at a time.  One
        chunk of float64 uniforms is 512 KiB, so a per-use deficiency array
        next to it would cross 1 MiB."""
        spec = _spec(RankDefDist.uniform(3).probs, q=4, T=5, h=3)

        def peak(draws):
            return traced_peak(lambda: empirical_capacity_pipeline(spec, draws, seed=seed))

        peak(10)  # warm the lazily built field tables
        assert peak(800_000) - peak(200_000) < 256 << 10
        assert peak(800_000) < 1 << 20

    def test_stream_is_the_first_uniforms_of_substream_0(self):
        """150,000 draws span three chunks; their deficiencies are the first
        150,000 uniforms of substream 0 through the cdf, with nothing drawn
        between chunks.  ``np.searchsorted`` is the independent reference for
        the package's draw."""
        spec = _spec(RankDefDist.uniform(3).probs, q=4, T=5, h=3)
        rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(0,)))
        defs = np.searchsorted(np.cumsum(spec.rank_def.probs), rng.random(150_000), side="right")
        _est, report = empirical_capacity_pipeline(spec, 150_000, seed=1)
        assert report.deficiency_counts == tuple(np.bincount(np.minimum(defs, 3), minlength=4).tolist())
        assert report.deficiency_counts == (37687, 37564, 37444, 37305)

    def test_deterministic_given_seed(self):
        est1, rep1 = empirical_capacity_pipeline(MIXED, 5000, seed=9)
        est2, rep2 = empirical_capacity_pipeline(MIXED, 5000, seed=9)
        assert est1 == est2
        assert rep1.capacity_estimated.closed_form == rep2.capacity_estimated.closed_form


class TestReportSerialization:
    def test_dict_layout(self):
        report = run_mc(MIXED, 200, seed=2)
        data = mc_report_to_dict(report)
        assert data["format_version"] == 1
        assert data["draws_per_input"] == 200
        assert data["seed"] == 2
        assert data["off_support_hits"] == 0
        assert all(
            set(c) == {"input", "output", "count", "expected_prob", "z"} for c in data["cells"]
        )
        import json

        json.dumps(data)

    def test_csv_layout(self):
        import io

        report = run_mc(MIXED, 200, seed=2)
        buf = io.StringIO()
        mc_report_to_csv(report, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "input,output,count,expected_prob,z"
        assert len(lines) == len(report.cells) + 1

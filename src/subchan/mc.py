"""Monte Carlo verification harness for the subspace channel.

Runs batches of channel uses per input subspace u in u's own frame, where a
use outputs R B_u: one ``channel._tally`` call counts, on each input's own
substream, the uses in each slot of u's row of ``Dmc.support``
(``simulate_frame`` is one input), so the harness holds nothing per draw.  It
scores the empirical frequencies against the analytical transition law under
the binomial model, all cells as arrays; a draw in a slot of zero mass is an
off-support hit.  The pipeline reads only how many uses have each rank
deficiency, so it draws and eliminates nothing else.

Determinism contract: a master seed expands into one substream per input via
``SeedSequence(entropy=seed, spawn_key=(input_index,))``, and each substream
is consumed in the fixed order ``channel._tally`` defines: draws run in
consecutive chunks of 65,536; each chunk draws one uniform per use, whose
deficiency is the count of entries <= it of the cdf that ``RankDefDist`` builds
once per law (equal to ``searchsorted(cdf, x, side="right")`` clamped to h),
and keeps only the count of its uses of each deficiency; then for each
d = 1..h-1 in order it draws one full-rank batch, the kept selector rows of
its uses of deficiency d.
Nothing else is drawn: the transfer for deficiency d is diag(I_{h-d}, 0).
Identical (spec, draws, seed) therefore reproduce the identical report: all
randomness is drawn through numpy Generators at the orchestration layer and
the kernels are exact integer functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .capacity import CapacityReport, capacity_closed_form
from .channel import ChannelSpec, RankDefDist, _draw_deficiencies, _tally, build_dmc, channel_spec_to_dict
from .errors import InsufficientDataError, _check_int, _check_real, _check_type

__all__ = [
    "McCell",
    "McReport",
    "PipelineReport",
    "empirical_capacity_pipeline",
    "mc_report_to_csv",
    "mc_report_to_dict",
    "run_mc",
]


def _substream(seed: int, input_index: int) -> np.random.Generator:
    """Per-input random stream: the master seed with the input index mixed in."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(input_index),)))


@dataclass(frozen=True)
class McCell:
    """One (input, output) tally with its binomial z-score against the law."""

    input_index: int
    output_index: int
    input_label: str
    output_label: str
    count: int
    expected_prob: float
    z_score: float


@dataclass(frozen=True, eq=False)
class McReport:
    spec: ChannelSpec
    draws_per_input: int
    seed: int
    cells: tuple[McCell, ...]
    max_abs_deviation: float
    worst_z_score: float
    off_support_hits: int

    @property
    def empirical(self) -> dict[tuple[int, int], int]:
        """Sparse (input, output) -> count map of observed transitions."""
        return {
            (c.input_index, c.output_index): c.count for c in self.cells if c.count > 0
        }


def run_mc(spec: ChannelSpec, draws_per_input: int, seed: int) -> McReport:
    """Simulate draws_per_input channel uses for every input subspace and
    score the empirical law against the analytical one."""
    n = _check_int("draws_per_input", draws_per_input, 1, InsufficientDataError)
    seed = _check_int("seed", seed, 0)
    dmc = build_dmc(spec)
    tally = _tally(spec, n, (_substream(seed, i) for i in range(dmc.num_inputs)))

    # Each row in output order.  A cell is z = (c - n p) / sqrt(n p (1 - p)); at
    # p <= 0 or p >= 1, z is 0 if c is 0 or n respectively, else inf.
    order = np.argsort(dmc.support, axis=1)
    counts, p = np.take_along_axis(tally, order, 1), dmc.values[order]
    z = np.where(counts == np.where(p > 0.0, n, 0), 0.0, math.inf)
    np.divide(counts - n * p, np.sqrt(n * p * (1.0 - p)), out=z, where=(p > 0.0) & (p < 1.0))
    off_support = int(counts[p == 0.0].sum())
    worst_z = math.inf if off_support else float(np.abs(z[p != 0.0]).max(initial=0.0))
    max_dev = float(np.abs(counts / n - p).max())

    keep = (p != 0.0) | (counts > 0)
    rows, cols = np.nonzero(keep)[0].tolist(), np.sort(dmc.support, axis=1)[keep].tolist()
    input_labels, output_labels = dmc.input_index.labels(), dmc.output_index.labels()
    cells = tuple(
        McCell(i, j, input_labels[i], output_labels[j], c, pj, zj)
        for i, j, c, pj, zj in zip(rows, cols, counts[keep].tolist(), p[keep].tolist(), z[keep].tolist())
    )
    return McReport(spec, n, seed, cells, max_dev, worst_z, off_support)


@dataclass(frozen=True, eq=False)
class PipelineReport:
    """End-to-end result: the estimated rank-deficiency distribution and the
    capacities computed from the estimate and from the true distribution."""

    estimated_dist: RankDefDist
    capacity_estimated: CapacityReport
    capacity_true: CapacityReport
    deficiency_counts: tuple[int, ...]
    draws: int
    seed: int


def empirical_capacity_pipeline(
    spec: ChannelSpec, draws: int, seed: int, log_base: float = 2.0
) -> tuple[RankDefDist, PipelineReport]:
    """Simulate, estimate the rank-deficiency distribution from observed
    output dimensions, and compute capacity from the estimate.

    The output dimension of a use is h - d whatever the input, so no input
    subspace is chosen and no selector row is drawn: the pipeline sums the
    per-chunk deficiency counts of ``channel._draw_deficiencies`` on substream 0.
    """
    _check_type("spec", spec, ChannelSpec)
    draws = _check_int("draws", draws, 1, InsufficientDataError)
    seed = _check_int("seed", seed, 0)
    log_base = _check_real("log base", log_base, above=1)
    counts = np.sum([*_draw_deficiencies(spec.rank_def, draws, _substream(seed, 0))], axis=0)
    est = RankDefDist(spec.h, counts / draws)
    report = PipelineReport(
        estimated_dist=est,
        capacity_estimated=capacity_closed_form(replace(spec, rank_def=est), log_base),
        capacity_true=capacity_closed_form(spec, log_base),
        deficiency_counts=tuple(int(c) for c in counts),
        draws=draws,
        seed=seed,
    )
    return est, report


def _json_float(x: float):
    return float(x) if math.isfinite(x) else None


def mc_report_to_dict(report: McReport) -> dict:
    _check_type("report", report, McReport)
    return {
        "format_version": 1,
        **channel_spec_to_dict(report.spec),
        "draws_per_input": report.draws_per_input,
        "seed": report.seed,
        "max_abs_deviation": report.max_abs_deviation,
        "worst_z_score": _json_float(report.worst_z_score),
        "off_support_hits": report.off_support_hits,
        "cells": [
            {
                "input": c.input_label,
                "output": c.output_label,
                "count": c.count,
                "expected_prob": c.expected_prob,
                "z": _json_float(c.z_score),
            }
            for c in report.cells
        ],
    }


def mc_report_to_csv(report: McReport, fileobj) -> None:
    import csv

    _check_type("report", report, McReport)
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["input", "output", "count", "expected_prob", "z"])
    for c in report.cells:
        writer.writerow(
            [c.input_label, c.output_label, c.count, repr(c.expected_prob), repr(c.z_score)]
        )

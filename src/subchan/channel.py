"""The subspace discrete memoryless channel.

Input symbols are the h-dimensional subspaces of F_q^T; output symbols are
subspaces of any dimension 0..h.  One channel use picks a uniformly random
ordered basis X of the input subspace (basis selection), draws a rank
deficiency r from the channel's rank-deficiency distribution, applies the
fixed transfer diag(I_{h-r}, 0) to X, and outputs the row space of the
product: the span of the first h - r rows of X.  Basis selection alone makes
the law the same for every transfer of rank h - r, so one fixed transfer per
rank deficiency simulates the channel.

The analytical transition law this simulation follows is

    p(V | U) = p_rankdef(h - dim V) / C(h, dim V)_q   if V is a subspace of U,
               0                                      otherwise,

where C(., .)_q is the q-ary Gaussian coefficient.  ``build_dmc`` stores the
law by its support, the subspaces of each input; ``components`` splits it
into the h + 1 strongly symmetric sub-channels selected by rank deficiency.
"""

from __future__ import annotations

import csv
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatchError,
    DistributionInvalidError,
    InsufficientDataError,
    InvalidParameterError,
    ObservationOutOfRangeError,
    _check_int,
    _check_probabilities,
    _check_type,
    _real_array,
)
from .gf import GF
from .grassmann import (
    GrassmannianIndex,
    Subspace,
    _check_enum_cap,
    _gaussian_size,
    _log10_gaussian,
    _unwritable,
    contains,
    enumerate_grassmannian,
    gaussian_coefficient,
    subspaces_of_batch,
)
from .matrix import Mat, matmul, rref, sample_full_rank_batch

__all__ = [
    "ChannelSpec",
    "Dmc",
    "DmcComponent",
    "OutputAlphabet",
    "RankDefDist",
    "alphabet_sizes",
    "build_dmc",
    "channel_spec_from_dict",
    "channel_spec_to_dict",
    "components",
    "conditional_prob_given_rank",
    "dmc_to_csv",
    "dmc_to_json",
    "estimate_rank_def_dist",
    "simulate_frame",
    "simulate_one_use",
    "transition_prob",
]

# Uses per chunk of _draw_deficiencies; part of the seeded stream's definition.  Also the
# most k x h matrices whose slots ``_frame`` tabulates.
_CHUNK = 65_536


class RankDefDist:
    """Probability vector over transfer-matrix rank deficiencies r = 0..h.

    Entries must be finite, nonnegative and sum to 1 within 1e-9; the stored vector
    is renormalized to sum exactly (up to float rounding) to 1.  ``_cdf`` is the
    draw's cdf: the entries of ``cumsum(probs)`` but its last, as a tuple of floats.
    """

    __slots__ = ("h", "probs", "_cdf")

    def __init__(self, h: int, probs) -> None:
        h = _check_int("h", h, 0, DistributionInvalidError)
        vec = _check_probabilities("rank deficiency probabilities", probs, DistributionInvalidError, h + 1)
        self.h = h
        self.probs = vec / float(vec.sum())
        self.probs.setflags(write=False)
        self._cdf = tuple(np.cumsum(self.probs)[:-1].tolist())

    @classmethod
    def point_mass(cls, h: int, r: int) -> "RankDefDist":
        h = _check_int("h", h, 0, DistributionInvalidError)
        r = _check_int("deficiency", r, 0, DistributionInvalidError, maximum=h)
        vec = np.zeros(h + 1)
        vec[r] = 1.0
        return cls(h, vec)

    @classmethod
    def uniform(cls, h: int) -> "RankDefDist":
        h = _check_int("h", h, 0, DistributionInvalidError)
        return cls(h, np.full(h + 1, 1.0 / (h + 1)))

    def __eq__(self, other):
        return (
            isinstance(other, RankDefDist)
            and other.h == self.h
            and np.array_equal(other.probs, self.probs)
        )

    def __hash__(self):
        return hash((self.h, self.probs.tobytes()))

    def __repr__(self):
        return f"RankDefDist(h={self.h}, probs={self.probs.tolist()})"


@dataclass(frozen=True)
class ChannelSpec:
    """Channel parameters: field GF(q), packet length T, input dimension h,
    and the rank-deficiency distribution."""

    field: GF
    T: int
    h: int
    rank_def: RankDefDist

    def __post_init__(self):
        _check_type("field", self.field, GF)
        _check_type("rank_def", self.rank_def, RankDefDist)
        for name in ("T", "h"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1, DimensionMismatchError))
        if not 1 <= self.h <= self.T:
            raise DimensionMismatchError(f"requires 1 <= h <= T, got h={self.h}, T={self.T}")
        if self.rank_def.h != self.h:
            raise DistributionInvalidError(
                f"rank_def is over 0..{self.rank_def.h} but h = {self.h}"
            )

    def _law_value(self, d: int) -> float:
        """p_rankdef(h - d) / C(h, d)_q, the exact quotient correctly rounded."""
        num, den = float(self.rank_def.probs[self.h - d]).as_integer_ratio()
        return num / (den * gaussian_coefficient(self.h, d, self.field.q))


def _spec_int(data: dict, key: str, minimum: int) -> int:
    value = data[key]
    # JSON has one number type: an integral float such as 3.0 is an integer.
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _check_int(key, value, minimum)


def channel_spec_from_dict(data: Mapping) -> tuple[ChannelSpec, list[str]]:
    """Build a ChannelSpec from the JSON object {"q", "T", "h", "rank_def"}.

    q, T and h must be integers (integral floats accepted) and rank_def a
    list of numbers, as in schemas/channel_spec.schema.json.  Rejects vectors
    whose mass deviates from 1 by more than 1e-9; smaller deviations are
    renormalized with a note in the returned warnings list (pure
    float-representation dust below 1e-15 is silent).
    """
    if not isinstance(data, Mapping):
        raise DistributionInvalidError(f"channel spec must be a JSON object, got {type(data).__name__}")
    warnings: list[str] = []
    for key in ("q", "T", "h", "rank_def"):
        if key not in data:
            raise DistributionInvalidError(f"channel spec missing required key {key!r}")
    field = GF(_spec_int(data, "q", 2))
    T, h = _spec_int(data, "T", 1), _spec_int(data, "h", 1)
    try:
        vec = _real_array("rank_def", data["rank_def"], DistributionInvalidError, 1)
    except DistributionInvalidError:
        raise DistributionInvalidError(f"rank_def must be a list of numbers, got {data['rank_def']!r}") from None
    total = float(vec.sum())
    dist = RankDefDist(h, vec)
    if abs(total - 1.0) > 1e-15:
        warnings.append(f"rank_def renormalized: input mass deviated from 1 by {abs(total - 1.0):.3e}")
    return ChannelSpec(field, T, h, dist), warnings


def channel_spec_to_dict(spec: ChannelSpec) -> dict:
    _check_type("spec", spec, ChannelSpec)
    return {
        "q": spec.field.q,
        "T": spec.T,
        "h": spec.h,
        "rank_def": [float(p) for p in spec.rank_def.probs],
    }


def _check_input_subspace(spec: ChannelSpec, u: Subspace) -> None:
    _check_type("spec", spec, ChannelSpec)
    _check_type("u", u, Subspace)
    if u.field != spec.field or u.ambient_dim != spec.T:
        raise DimensionMismatchError(
            f"input subspace lives in GF({u.field.q})^{u.ambient_dim}, "
            f"channel expects GF({spec.field.q})^{spec.T}"
        )
    if u.dim != spec.h:
        raise DimensionMismatchError(f"input subspace has dimension {u.dim}, expected h = {spec.h}")


def transition_prob(spec: ChannelSpec, u: Subspace, v: Subspace) -> float:
    """Probability of receiving subspace v given that subspace u was sent."""
    _check_input_subspace(spec, u)
    return spec._law_value(v.dim) if contains(u, v) else 0.0


def conditional_prob_given_rank(spec: ChannelSpec, u: Subspace, v: Subspace, rho: int) -> float:
    """Transition probability conditioned on the transfer matrix having rank
    deficiency rho: the law of the channel whose deficiency is always rho."""
    _check_type("spec", spec, ChannelSpec)
    rho = _check_int("rho", rho, 0, maximum=spec.h)
    return transition_prob(replace(spec, rank_def=RankDefDist.point_mass(spec.h, rho)), u, v)


def alphabet_sizes(spec: ChannelSpec) -> tuple[int, int]:
    """Exact input/output alphabet sizes; raises EnumerationTooLargeError
    (naming both would-be sizes) when either exceeds the cap."""
    _check_type("spec", spec, ChannelSpec)
    q, T, h = spec.field.q, spec.T, spec.h
    nx = _gaussian_size(T, h, q)
    logs = [_log10_gaussian(T, d, q) for d in range(h + 1)]
    top = max(logs)  # inf past the float range, where inf - inf would be nan
    log_ny = top + math.log10(math.fsum(10 ** (x - top) if x < top else 1.0 for x in logs))
    ny = log_ny if _unwritable(log_ny) else sum(gaussian_coefficient(T, d, q) for d in range(h + 1))
    _check_enum_cap("alphabet sizes |X| = {}, |Y| = {}", nx, ny)
    return nx, ny


class OutputAlphabet:
    """The output alphabet: all subspaces of dimension 0..h, ordered by
    ascending dimension with each dimension block in Grassmannian order."""

    def __init__(self, blocks: tuple[GrassmannianIndex, ...]):
        self.blocks = blocks
        self.offsets = tuple(np.cumsum([0] + [len(b) for b in blocks]).tolist())

    def __len__(self) -> int:
        return self.offsets[-1]

    def __iter__(self):
        for block in self.blocks:
            yield from block

    def position(self, v: Subspace) -> int:
        if v.dim >= len(self.blocks):
            raise KeyError(f"subspace of dimension {v.dim} not in the output alphabet")
        return self.offsets[v.dim] + self.blocks[v.dim].index_of(v)

    def subspace_at(self, j: int) -> Subspace:
        d = self.dim_of(j)
        return self.blocks[d][j - self.offsets[d]]

    def dim_of(self, j: int) -> int:
        if not 0 <= j < len(self):
            raise IndexError(j)
        return int(np.searchsorted(self.offsets, j, side="right") - 1)

    def labels(self) -> list[str]:
        return [label for block in self.blocks for label in block.labels()]


def _dense(columns: np.ndarray, width: int, value, dtype) -> np.ndarray:
    """Read-only (len(columns), width) array holding ``value`` at each row's
    ``columns`` and zero elsewhere."""
    out = np.zeros((len(columns), width), dtype=dtype)
    out[np.arange(len(columns))[:, None], columns] = value
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dmc:
    """The transition law of the subspace channel, stored by its support.

    Row i of ``support`` lists the output columns of the subspaces of input
    ``input_index[i]``: the C(h, d)_q subspaces of each dimension d, the
    dimension blocks in ascending order.  ``values[k]`` is the law's value
    p_rankdef(h - d) / C(h, d)_q at slot k, the same in every row; a slot
    whose deficiency has zero mass holds 0.  ``component_of_output[j]`` is
    the rank deficiency rho = h - dim(V_j) selecting the component
    sub-channel that can produce output j.

    ``trans`` (the dense |X| x |Y| matrix: ``trans[i, j]`` is the
    probability of output ``output_index.subspace_at(j)`` given input
    ``input_index[i]``) and ``support_by_dim`` (the boolean inclusion
    pattern of each dimension block) are read-only arrays built from the
    index on first access.  Nothing in the package reads them; they serve
    the benchmark harness and the tests.
    """

    spec: ChannelSpec
    input_index: GrassmannianIndex
    output_index: OutputAlphabet
    support: np.ndarray = dc_field(repr=False)
    values: np.ndarray = dc_field(repr=False)
    component_of_output: np.ndarray = dc_field(repr=False)

    @property
    def num_inputs(self) -> int:
        return self.support.shape[0]

    @property
    def num_outputs(self) -> int:
        return len(self.output_index)

    def _rows(self):
        """Each dense row of the law, in input order, as the list of the
        ``repr`` of its |Y| float entries."""
        values = [repr(v) for v in self.values.tolist()]
        zeros = [repr(0.0)] * self.num_outputs
        for cols in self.support.tolist():
            row = zeros.copy()
            for j, v in zip(cols, values):
                row[j] = v
            yield row

    def _block_columns(self, d: int) -> np.ndarray:
        """(|X|, C(h, d)_q) positions, within the dimension-d output block, of
        each input's d-dimensional subspaces."""
        lo, hi = self.output_index.offsets[d : d + 2]
        first = self.support[0]
        return self.support[:, (first >= lo) & (first < hi)] - lo

    @functools.cached_property
    def trans(self) -> np.ndarray:
        return _dense(self.support, self.num_outputs, self.values, np.float64)

    @functools.cached_property
    def support_by_dim(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _dense(self._block_columns(d), len(block), True, bool)
            for d, block in enumerate(self.output_index.blocks)
        )

    def __repr__(self):
        return (
            f"Dmc(q={self.spec.field.q}, T={self.spec.T}, h={self.spec.h}, "
            f"{self.num_inputs}x{self.num_outputs})"
        )


def build_dmc(spec: ChannelSpec) -> Dmc:
    """Build the channel's transition law.

    Output columns are ordered by ascending output dimension (the zero space
    first, the h-dimensional block last), each block in deterministic
    Grassmannian enumeration order; this layout is stable across runs.
    """
    _check_type("spec", spec, ChannelSpec)
    f, T, h = spec.field, spec.T, spec.h
    alphabet_sizes(spec)
    input_index = enumerate_grassmannian(f, T, h)
    blocks = tuple(enumerate_grassmannian(f, T, d) for d in range(h + 1))
    output_index = OutputAlphabet(blocks)

    nx = len(input_index)
    support, values = [], []
    for d in range(h + 1):
        canon = subspaces_of_batch(f, input_index.bases, d)
        support.append(output_index.offsets[d] + blocks[d].indices(canon).reshape(nx, -1))
        values.append(np.full(support[-1].shape[1], spec._law_value(d)))
    support, values = np.hstack(support), np.concatenate(values)
    support.setflags(write=False)
    values.setflags(write=False)

    component = np.concatenate(
        [np.full(len(blocks[d]), h - d, dtype=np.int64) for d in range(h + 1)]
    )
    component.setflags(write=False)
    return Dmc(spec, input_index, output_index, support, values, component)


def _deficiency_counts(cdf: tuple[float, ...], x: np.ndarray) -> list[int]:
    """The count, for each deficiency d = 0..h, of the uniforms in ``x`` whose
    deficiency is d, from ``cdf``, the entries of ``cumsum(probs)`` but its last:
    the uniforms at or past entry d - 1 less those at or past entry d."""
    at_or_past = [len(x)] + [int(np.count_nonzero(x >= c)) for c in cdf] + [0]
    return [a - b for a, b in zip(at_or_past, at_or_past[1:])]


def _draw_deficiencies(rank_def: RankDefDist, draws: int, rng: np.random.Generator):
    """The deficiency counts of ``draws`` uses, one list of h + 1 ints per chunk of
    n <= 65,536 uniforms ``rng.random(n)``: a use's deficiency is the count of
    entries of the cdf ``cumsum(rank_def.probs)`` that are <= its uniform x.  The
    cdf is monotone, so this equals ``searchsorted(cdf, x, side="right")``
    clamped to h, the clamp being the last entry, which ``rank_def._cdf`` leaves
    out.  No use's own deficiency is kept."""
    _check_type("rng", rng, np.random.Generator)
    for start in range(0, draws, _CHUNK):
        yield _deficiency_counts(rank_def._cdf, rng.random(min(_CHUNK, draws - start)))


def _slot_table(field: GF, k: int, h: int) -> np.ndarray:
    """The slot in ``enumerate_grassmannian(field, h, k)`` of the row space of
    each k x h matrix, or -1 below rank k, at the matrix's ``_kernels.codes``
    code: its row-major entries as base-q digits, the first the most significant."""
    mats = _kernels.every_matrix(field.q, k, h)
    canon, ranks = _kernels.rref_batch(mats, field.add_table, field.mul_table, field.inv_table, field.neg_table)
    del mats  # the digits and the rank-deficient RREFs go before the lookup's temporaries
    canon = canon[ranks == k]
    table = np.full(len(ranks), -1)
    table[ranks == k] = enumerate_grassmannian(field, h, k).indices(canon)
    return table


@functools.lru_cache(maxsize=16)
def _frame(field: GF, h: int) -> tuple[OutputAlphabet, dict[int, np.ndarray]]:
    """The subspaces of F_q^h, the slots of a ``simulate_frame`` tally, and the
    ``_slot_table`` of each kept-row shape k x h, 0 < k < h, with q^(k h) <= _CHUNK."""
    frame = OutputAlphabet(tuple(enumerate_grassmannian(field, h, d) for d in range(h + 1)))
    return frame, {k: _slot_table(field, k, h) for k in range(1, h) if field.q ** (k * h) <= _CHUNK}


def _draw_uses(spec: ChannelSpec, draws: int, rng: np.random.Generator):
    """The one draw of channel uses: per chunk of ``_draw_deficiencies``, for each
    d with uses in ascending order, d, the count n of its uses and their kept
    rows, one ``sample_full_rank_batch`` (n, h - d, h) draw, or at d = 0 and
    d = h the (1, h - d, h) stack, I_h or empty, that all n share.  The sampler
    draws nothing for a count of 0, so a d without uses is skipped."""
    f, h = spec.field, spec.h
    eye = np.eye(h, dtype=np.uint8)[None]
    for counts in _draw_deficiencies(spec.rank_def, draws, rng):
        for d, n in enumerate(counts):
            if n:
                yield d, n, sample_full_rank_batch(f, h - d, h, n, rng) if 0 < d < h else eye[:, : h - d]


def _tally(spec: ChannelSpec, draws: int, rngs) -> np.ndarray:
    """``simulate_frame`` of each generator of ``rngs``, one int64 row each, taken
    one at a time.  The frame, its slot tables and the cap check in force now
    are read once per call.  Of the uses of ``_draw_uses``, d = 0 and d = h add
    their count to the last slot and slot 0; the slots of any other kept rows
    are read from the slot table at each matrix's ``_kernels.codes`` code or,
    without a table, by one ``rref_batch`` call and one ranking."""
    f, h = spec.field, spec.h
    frame, slot_tables = _frame(f, h)
    for d, block in enumerate(frame.blocks):
        _check_enum_cap(f"P(F_{f.q}^{h}, {d}) has {{}} subspaces", len(block))
    kept = [(slot_tables.get(h - d), *frame.offsets[h - d : h - d + 2], frame.blocks[h - d]) for d in range(h + 1)]

    def row(rng):
        tally = np.zeros(len(frame), dtype=np.int64)
        for d, n, rows in _draw_uses(spec, draws, rng):
            table, lo, hi, block = kept[d]
            if d == 0 or d == h:
                tally[lo] += n
                continue
            if table is None:
                slots = block.indices(_kernels.rref_batch(rows, f.add_table, f.mul_table, f.inv_table, f.neg_table)[0])
            else:
                slots = table[_kernels.codes(rows, f.q)]
            tally[lo:hi] += np.bincount(slots, minlength=hi - lo)
        return tally

    return np.fromiter(map(row, rngs), dtype=np.dtype((np.int64, len(frame))))


def simulate_frame(spec: ChannelSpec, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Tally of ``draws`` uses of any input u, in the frame of its canonical
    basis B_u: the int64 count of each slot of a ``Dmc.support`` row.

    A use of deficiency 0 < d < h outputs R B_u, R the RREF of its kept rows,
    and its slot is R's position among the subspaces of F_q^h (the order of
    ``subspaces_of_batch``); d = 0 outputs u (the last slot) and d = h the zero
    space (slot 0).  This is the row of ``_tally`` on the one generator ``rng``.
    """
    _check_type("spec", spec, ChannelSpec)
    draws = _check_int("draws", draws, 1, InsufficientDataError)
    return _tally(spec, draws, [rng])[0]


def simulate_one_use(spec: ChannelSpec, u: Subspace, rng: np.random.Generator) -> Subspace:
    """One channel use of input u: the one use of ``_draw_uses`` on ``rng``, kept
    rows K, gives R = RREF(K) and the output R B_u, which is RREF by the lemma of
    ``subspaces_of_batch``.  No frame of F_q^h is built, so no cap applies."""
    _check_input_subspace(spec, u)
    ((_, _, rows),) = _draw_uses(spec, 1, rng)
    return Subspace(spec.field, spec.T, matmul(rref(Mat(spec.field, rows[0]))[0], u.basis))


@dataclass(frozen=True, eq=False)
class DmcComponent:
    """One strongly symmetric component sub-channel, selected with
    probability ``selection_prob`` when the transfer matrix has rank
    deficiency ``rho``; outputs are the dimension h - rho subspaces.

    Row i of ``support`` lists the positions in ``output_index`` of the
    C(h, h - rho)_q subspaces of input ``input_index[i]``; the row's law is
    uniform over them, each with mass 1 / ``support.shape[1]``.
    """

    rho: int
    selection_prob: float
    input_index: GrassmannianIndex
    output_index: GrassmannianIndex
    support: np.ndarray = dc_field(repr=False)


def components(dmc: Dmc) -> list[DmcComponent]:
    """Decompose the channel into its h + 1 component sub-channels.

    Component rho is the channel conditioned on rank deficiency rho: each row
    is uniform over the subspaces of the input of dimension h - rho.  This
    equals the dimension-(h - rho) column block of the law divided by the
    selection probability whenever that probability is nonzero, and stays
    well-defined when it is zero.
    """
    h = _check_type("dmc", dmc, Dmc).spec.h
    return [
        DmcComponent(
            rho=rho,
            selection_prob=float(dmc.spec.rank_def.probs[rho]),
            input_index=dmc.input_index,
            output_index=dmc.output_index.blocks[h - rho],
            support=dmc._block_columns(h - rho),
        )
        for rho in range(h + 1)
    ]


def estimate_rank_def_dist(observations, h: int, kind: str = "deficiency") -> RankDefDist:
    """Empirical rank-deficiency distribution from an observation stream.

    ``kind`` states explicitly what the integers are: "deficiency" for
    h - rank values, "rank" for raw ranks (converted internally).  The
    received matrix has the transfer matrix's rank deficiency whenever the
    transmitted matrix is full-rank, which holds here by construction.
    ``observations`` is an iterable or 1-D array of integers in [0, h].
    """
    if kind not in ("deficiency", "rank"):
        raise InvalidParameterError(f"kind must be 'deficiency' or 'rank', got {kind!r}")
    h = _check_int("h", h, 0)
    try:
        obs = np.asarray(observations if isinstance(observations, np.ndarray) else list(observations))
    except (TypeError, ValueError):  # not iterable, or ragged nesting
        obs = None
    if obs is not None and obs.size == 0:
        raise InsufficientDataError("cannot estimate a distribution from zero observations")
    if obs is None or obs.ndim != 1 or obs.dtype.kind not in "iu":
        raise InvalidParameterError("observations must be a flat sequence of integers")
    if obs.min() < 0 or obs.max() > h:
        raise ObservationOutOfRangeError(f"observations must lie in [0, {h}], got {obs.min()}..{obs.max()}")
    counts = np.bincount(obs.astype(np.int64), minlength=h + 1)
    return RankDefDist(h, (counts if kind == "deficiency" else counts[::-1]) / obs.size)


def _dmc_metadata(dmc: Dmc) -> dict:
    """The entries of the JSON export other than the transitions."""
    _check_type("dmc", dmc, Dmc)
    return {
        "format_version": 1,
        **channel_spec_to_dict(dmc.spec),
        "input_labels": dmc.input_index.labels(),
        "output_labels": dmc.output_index.labels(),
        "output_dims": (dmc.spec.h - dmc.component_of_output).tolist(),
    }


def dmc_to_json(dmc: Dmc, fileobj) -> None:
    """JSON export: the text of ``json.dumps(indent=2, sort_keys=True)`` and a
    newline for ``_dmc_metadata`` with "transitions", the list of dense rows,
    written one input row at a time.  The law's values are finite, and json
    writes a finite float as its repr."""
    import json  # imported on use: `import subchan` loads no json

    head = json.dumps({**_dmc_metadata(dmc), "transitions": []}, indent=2, sort_keys=True)
    # "transitions" sorts last, so the text ends '"transitions": []\n}'.
    fileobj.write(head[: -len("]\n}")] + "\n")
    for i, row in enumerate(dmc._rows()):
        text = "    [\n      " + ",\n      ".join(row) + "\n    ]"
        fileobj.write(text if i == 0 else ",\n" + text)
    fileobj.write("\n  ]\n}\n")


def dmc_to_csv(dmc: Dmc, fileobj) -> None:
    """CSV export: header of output labels (canonical bases as q-ary digit
    strings, rows joined by '|'), then one probability row per input."""
    _check_type("dmc", dmc, Dmc)
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["input"] + dmc.output_index.labels())
    for label, row in zip(dmc.input_index.labels(), dmc._rows()):
        writer.writerow([label] + row)

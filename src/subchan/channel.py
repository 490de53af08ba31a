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

where C(., .)_q is the q-ary Gaussian coefficient.  ``build_dmc`` materializes
the law as an explicit transition matrix; ``components`` splits it into the
h + 1 strongly symmetric sub-channels selected by rank deficiency.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatchError,
    DistributionInvalidError,
    EnumerationTooLargeError,
    InsufficientDataError,
    InvalidParameterError,
    ObservationOutOfRangeError,
    _check_int,
)
from .gf import GF
from .grassmann import (
    GrassmannianIndex,
    Subspace,
    _random_ordered_bases,
    contains,
    enumerate_grassmannian,
    gaussian_coefficient,
    resolve_enum_cap,
    subspace_label,
    subspaces_of_batch,
)
from .matrix import Mat

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
    "dmc_to_dict",
    "estimate_rank_def_dist",
    "simulate_one_use",
    "simulate_uses",
    "transition_prob",
]

_SUM_TOLERANCE = 1e-9
# Draws per chunk of simulate_uses; part of the seeded stream's definition.
_CHUNK = 65_536


class RankDefDist:
    """Probability vector over transfer-matrix rank deficiencies r = 0..h.

    Entries must be finite, nonnegative and sum to 1 within 1e-9; the stored vector
    is renormalized to sum exactly (up to float rounding) to 1.
    """

    __slots__ = ("h", "probs")

    def __init__(self, h: int, probs) -> None:
        if h < 0:
            raise DistributionInvalidError(f"h must be nonnegative, got {h}")
        vec = np.asarray(probs, dtype=np.float64)
        if vec.shape != (h + 1,):
            raise DistributionInvalidError(
                f"rank deficiency distribution needs h+1 = {h + 1} entries, got shape {vec.shape}"
            )
        if not np.all(np.isfinite(vec)):
            raise DistributionInvalidError("rank deficiency probabilities must be finite")
        if np.any(vec < 0):
            raise DistributionInvalidError("rank deficiency probabilities must be nonnegative")
        total = float(vec.sum())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise DistributionInvalidError(
                f"rank deficiency probabilities must sum to 1 within {_SUM_TOLERANCE}, got {total!r}"
            )
        self.h = int(h)
        self.probs = vec / total
        self.probs.setflags(write=False)

    @classmethod
    def point_mass(cls, h: int, r: int) -> "RankDefDist":
        if not 0 <= r <= h:
            raise DistributionInvalidError(f"deficiency {r} outside [0, {h}]")
        vec = np.zeros(h + 1)
        vec[r] = 1.0
        return cls(h, vec)

    @classmethod
    def uniform(cls, h: int) -> "RankDefDist":
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
        for name in ("T", "h"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1, DimensionMismatchError))
        if not 1 <= self.h <= self.T:
            raise DimensionMismatchError(f"requires 1 <= h <= T, got h={self.h}, T={self.T}")
        if self.rank_def.h != self.h:
            raise DistributionInvalidError(
                f"rank_def is over 0..{self.rank_def.h} but h = {self.h}"
            )

    @property
    def q(self) -> int:
        return self.field.q


def _spec_int(data: dict, key: str, minimum: int) -> int:
    value = data[key]
    # JSON has one number type: an integral float such as 3.0 is an integer.
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _check_int(key, value, minimum)


def channel_spec_from_dict(data: dict) -> tuple[ChannelSpec, list[str]]:
    """Build a ChannelSpec from the JSON object {"q", "T", "h", "rank_def"}.

    q, T and h must be integers (integral floats accepted) and rank_def a
    list of numbers, as in schemas/channel_spec.schema.json.  Rejects vectors
    whose mass deviates from 1 by more than 1e-9; smaller deviations are
    renormalized with a note in the returned warnings list (pure
    float-representation dust below 1e-15 is silent).
    """
    warnings: list[str] = []
    for key in ("q", "T", "h", "rank_def"):
        if key not in data:
            raise DistributionInvalidError(f"channel spec missing required key {key!r}")
    field = GF(_spec_int(data, "q", 2))
    T, h = _spec_int(data, "T", 1), _spec_int(data, "h", 1)
    try:
        vec = np.asarray(data["rank_def"])
    except ValueError:  # ragged nesting
        vec = None
    if vec is None or vec.dtype.kind not in "iuf":
        raise DistributionInvalidError(f"rank_def must be a list of numbers, got {data['rank_def']!r}")
    total = float(vec.sum()) if vec.size else 0.0
    dist = RankDefDist(h, vec)
    if abs(total - 1.0) > 1e-15:
        warnings.append(f"rank_def renormalized: input mass deviated from 1 by {abs(total - 1.0):.3e}")
    return ChannelSpec(field, T, h, dist), warnings


def channel_spec_to_dict(spec: ChannelSpec) -> dict:
    return {
        "q": spec.field.q,
        "T": spec.T,
        "h": spec.h,
        "rank_def": [float(p) for p in spec.rank_def.probs],
    }


def _check_input_subspace(spec: ChannelSpec, u: Subspace) -> None:
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
    if not contains(u, v):
        return 0.0
    p = float(spec.rank_def.probs[spec.h - v.dim])
    return p / gaussian_coefficient(spec.h, v.dim, spec.field.q)


def conditional_prob_given_rank(spec: ChannelSpec, u: Subspace, v: Subspace, rho: int) -> float:
    """Transition probability conditioned on the transfer matrix having rank
    deficiency rho: uniform over the C(h, h-rho)_q subspaces of u of dimension
    h - rho, zero elsewhere."""
    if not 0 <= rho <= spec.h:
        raise ValueError(f"deficiency {rho} outside [0, {spec.h}]")
    _check_input_subspace(spec, u)
    if v.dim != spec.h - rho or not contains(u, v):
        return 0.0
    return 1.0 / gaussian_coefficient(spec.h, spec.h - rho, spec.field.q)


def alphabet_sizes(spec: ChannelSpec, cap: int | None = None) -> tuple[int, int]:
    """Exact input/output alphabet sizes; raises EnumerationTooLargeError
    (naming both would-be sizes) when either exceeds the cap."""
    q, T, h = spec.field.q, spec.T, spec.h
    nx = gaussian_coefficient(T, h, q)
    ny = sum(gaussian_coefficient(T, d, q) for d in range(h + 1))
    cap_val = resolve_enum_cap(cap)
    if nx > cap_val or ny > cap_val:
        raise EnumerationTooLargeError(
            f"alphabet sizes |X| = {nx}, |Y| = {ny} exceed the enumeration cap {cap_val}"
        )
    return nx, ny


class OutputAlphabet:
    """The output alphabet: all subspaces of dimension 0..h, ordered by
    ascending dimension with each dimension block in Grassmannian order."""

    def __init__(self, blocks: tuple[GrassmannianIndex, ...]):
        self.blocks = blocks
        sizes = [len(b) for b in blocks]
        self.offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(sizes)]))

    def __len__(self) -> int:
        return self.offsets[-1]

    def __iter__(self):
        for block in self.blocks:
            yield from block

    def position(self, v: Subspace) -> int:
        if v.dim >= len(self.blocks):
            raise KeyError(f"subspace of dimension {v.dim} not in the output alphabet")
        return self.offsets[v.dim] + self.blocks[v.dim].index_of(v)

    def positions(self, canon: np.ndarray, dims: np.ndarray) -> np.ndarray:
        """Positions of a (n, h, T) stack of zero-padded canonical bases whose
        row spaces have the (n,) dimensions ``dims``."""
        out = np.empty(len(dims), dtype=np.int64)
        for d, block in enumerate(self.blocks):
            sel = dims == d
            out[sel] = self.offsets[d] + block.indices(canon[sel, :d])
        return out

    def subspace_at(self, j: int) -> Subspace:
        d = self.dim_of(j)
        return self.blocks[d][j - self.offsets[d]]

    def dim_of(self, j: int) -> int:
        if not 0 <= j < len(self):
            raise IndexError(j)
        return int(np.searchsorted(self.offsets, j, side="right") - 1)

    def labels(self) -> list[str]:
        return [subspace_label(s) for s in self]


@dataclass(frozen=True, eq=False)
class Dmc:
    """Explicit transition matrix of the subspace channel.

    ``trans[i, j]`` is the probability of output ``output_index.subspace_at(j)``
    given input ``input_index[i]``.  ``component_of_output[j]`` is the rank
    deficiency rho = h - dim(V_j) selecting the component sub-channel that can
    produce output j.  ``support_by_dim[d]`` is the boolean inclusion pattern
    (input i contains output j) for the dimension-d output block.
    """

    spec: ChannelSpec
    input_index: GrassmannianIndex
    output_index: OutputAlphabet
    trans: np.ndarray = dc_field(repr=False)
    component_of_output: np.ndarray = dc_field(repr=False)
    support_by_dim: tuple[np.ndarray, ...] = dc_field(repr=False)

    @property
    def num_inputs(self) -> int:
        return self.trans.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.trans.shape[1]

    def __repr__(self):
        return (
            f"Dmc(q={self.spec.field.q}, T={self.spec.T}, h={self.spec.h}, "
            f"{self.num_inputs}x{self.num_outputs})"
        )


def build_dmc(spec: ChannelSpec, cap: int | None = None) -> Dmc:
    """Materialize the channel's transition matrix.

    Output columns are ordered by ascending output dimension (the zero space
    first, the h-dimensional block last), each block in deterministic
    Grassmannian enumeration order; this layout is stable across runs.
    """
    f, T, h = spec.field, spec.T, spec.h
    q = f.q
    alphabet_sizes(spec, cap=cap)
    input_index = enumerate_grassmannian(f, T, h, cap=cap)
    blocks = tuple(enumerate_grassmannian(f, T, d, cap=cap) for d in range(h + 1))
    output_index = OutputAlphabet(blocks)

    nx = len(input_index)
    support_by_dim = []
    for d in range(h + 1):
        canon = subspaces_of_batch(f, input_index.bases, d, cap=cap)
        pat = np.zeros((nx, len(blocks[d])), dtype=bool)
        pat[np.repeat(np.arange(nx), len(canon) // nx), blocks[d].indices(canon)] = True
        pat.setflags(write=False)
        support_by_dim.append(pat)

    probs = spec.rank_def.probs
    trans_blocks = []
    for d in range(h + 1):
        value = float(probs[h - d]) / gaussian_coefficient(h, d, q)
        trans_blocks.append(np.where(support_by_dim[d], value, 0.0))
    trans = np.hstack(trans_blocks)
    trans.setflags(write=False)

    component = np.concatenate(
        [np.full(len(blocks[d]), h - d, dtype=np.int64) for d in range(h + 1)]
    )
    component.setflags(write=False)
    return Dmc(spec, input_index, output_index, trans, component, tuple(support_by_dim))


def simulate_uses(
    spec: ChannelSpec, u: Subspace, draws: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``draws`` channel uses of input u: returns the (draws, h, T) canonical
    RREF output bases (zero-padded) and the (draws,) output dimensions.

    Each use draws a rank deficiency d and a uniform ordered basis X of u
    (a uniform full-rank h x h selector applied to u's canonical basis), and
    outputs the row space of diag(I_{h-d}, 0) X: the first h - d rows of X.
    Draws run in consecutive chunks of 65,536; each chunk consumes the
    stream in a fixed order, all its deficiencies, then all its selectors.
    """
    _check_input_subspace(spec, u)
    draws = _check_int("draws", draws, 1, InsufficientDataError)
    f, h = spec.field, spec.h
    cdf = np.cumsum(spec.rank_def.probs)
    canon = np.empty((draws, h, spec.T), dtype=np.uint8)
    dims = np.empty(draws, dtype=np.int64)
    for start in range(0, draws, _CHUNK):
        stop = min(start + _CHUNK, draws)
        defs = np.minimum(np.searchsorted(cdf, rng.random(stop - start), side="right"), h)
        x = _random_ordered_bases(u, stop - start, rng)
        x[np.arange(h) >= h - defs[:, None]] = 0
        canon[start:stop], dims[start:stop] = _kernels.rref_batch(
            x, f.add_table, f.mul_table, f.inv_table, f.neg_table
        )
    return canon, dims


def simulate_one_use(spec: ChannelSpec, u: Subspace, rng: np.random.Generator) -> Subspace:
    """One channel use of input u: a batch of one of ``simulate_uses``."""
    canon, dims = simulate_uses(spec, u, 1, rng)
    return Subspace(spec.field, spec.T, Mat(spec.field, canon[0, : dims[0]]))


@dataclass(frozen=True, eq=False)
class DmcComponent:
    """One strongly symmetric component sub-channel, selected with
    probability ``selection_prob`` when the transfer matrix has rank
    deficiency ``rho``; outputs are the dimension h - rho subspaces."""

    rho: int
    selection_prob: float
    input_index: GrassmannianIndex
    output_index: GrassmannianIndex
    trans: np.ndarray = dc_field(repr=False)


def components(dmc: Dmc) -> list[DmcComponent]:
    """Decompose the channel into its h + 1 component sub-channels.

    Component rho is the channel conditioned on rank deficiency rho: each row
    is uniform over the subspaces of the input of dimension h - rho.  This
    equals the dimension-(h - rho) column block of ``trans`` divided by the
    selection probability whenever that probability is nonzero, and stays
    well-defined when it is zero.
    """
    spec = dmc.spec
    h, q = spec.h, spec.field.q
    out = []
    for rho in range(h + 1):
        d = h - rho
        value = 1.0 / gaussian_coefficient(h, d, q)
        trans = np.where(dmc.support_by_dim[d], value, 0.0)
        trans.setflags(write=False)
        out.append(
            DmcComponent(
                rho=rho,
                selection_prob=float(spec.rank_def.probs[rho]),
                input_index=dmc.input_index,
                output_index=dmc.output_index.blocks[d],
                trans=trans,
            )
        )
    return out


def estimate_rank_def_dist(observations, h: int, kind: str = "deficiency") -> RankDefDist:
    """Empirical rank-deficiency distribution from an observation stream.

    ``kind`` states explicitly what the integers are: "deficiency" for
    h - rank values, "rank" for raw ranks (converted internally).  The
    received matrix has the transfer matrix's rank deficiency whenever the
    transmitted matrix is full-rank, which holds here by construction.
    ``observations`` is an iterable or 1-D array of integers in [0, h].
    """
    if kind not in ("deficiency", "rank"):
        raise ValueError(f"kind must be 'deficiency' or 'rank', got {kind!r}")
    try:
        obs = np.asarray(observations if isinstance(observations, np.ndarray) else list(observations))
    except ValueError:  # ragged nesting
        obs = None
    if obs is not None and obs.size == 0:
        raise InsufficientDataError("cannot estimate a distribution from zero observations")
    if obs is None or obs.ndim != 1 or obs.dtype.kind not in "iu":
        raise InvalidParameterError("observations must be a flat sequence of integers")
    if obs.min() < 0 or obs.max() > h:
        raise ObservationOutOfRangeError(f"observations must lie in [0, {h}], got {obs.min()}..{obs.max()}")
    counts = np.bincount(obs.astype(np.int64), minlength=h + 1)
    return RankDefDist(h, (counts if kind == "deficiency" else counts[::-1]) / obs.size)


def dmc_to_dict(dmc: Dmc) -> dict:
    """JSON-ready transition matrix with alphabet metadata embedded."""
    return {
        "format_version": 1,
        "q": dmc.spec.field.q,
        "T": dmc.spec.T,
        "h": dmc.spec.h,
        "rank_def": [float(p) for p in dmc.spec.rank_def.probs],
        "input_labels": [subspace_label(s) for s in dmc.input_index],
        "output_labels": dmc.output_index.labels(),
        "output_dims": [dmc.output_index.dim_of(j) for j in range(len(dmc.output_index))],
        "transitions": [[float(x) for x in row] for row in dmc.trans],
    }


def dmc_to_csv(dmc: Dmc, fileobj) -> None:
    """CSV export: header of output labels (canonical bases as q-ary digit
    strings, rows joined by '|'), then one probability row per input."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["input"] + dmc.output_index.labels())
    for i, u in enumerate(dmc.input_index):
        writer.writerow([subspace_label(u)] + [repr(float(x)) for x in dmc.trans[i]])

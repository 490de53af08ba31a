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
    contains,
    enumerate_grassmannian,
    gaussian_coefficient,
    resolve_enum_cap,
    span,
    subspaces_of_batch,
)
from .matrix import Mat, matmul, sample_full_rank_batch

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
    "dmc_to_json",
    "estimate_rank_def_dist",
    "simulate_frame",
    "simulate_one_use",
    "transition_prob",
]

_SUM_TOLERANCE = 1e-9
# Uses per chunk of _draw_uses; part of the seeded stream's definition.
_CHUNK = 65_536


class RankDefDist:
    """Probability vector over transfer-matrix rank deficiencies r = 0..h.

    Entries must be finite, nonnegative and sum to 1 within 1e-9; the stored vector
    is renormalized to sum exactly (up to float rounding) to 1.
    """

    __slots__ = ("h", "probs")

    def __init__(self, h: int, probs) -> None:
        h = _check_int("h", h, 0, DistributionInvalidError)
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
        self.h = h
        self.probs = vec / total
        self.probs.setflags(write=False)

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
    rho = _check_int("rho", rho, 0, maximum=spec.h)
    _check_input_subspace(spec, u)
    if v.dim != spec.h - rho or not contains(u, v):
        return 0.0
    return 1.0 / gaussian_coefficient(spec.h, spec.h - rho, spec.field.q)


def alphabet_sizes(spec: ChannelSpec) -> tuple[int, int]:
    """Exact input/output alphabet sizes; raises EnumerationTooLargeError
    (naming both would-be sizes) when either exceeds the cap."""
    q, T, h = spec.field.q, spec.T, spec.h
    nx = gaussian_coefficient(T, h, q)
    ny = sum(gaussian_coefficient(T, d, q) for d in range(h + 1))
    cap_val = resolve_enum_cap()
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
    index on first access.
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

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the law's positive entries, row-major."""
        keep = self.values > 0
        cols = self.support[:, keep]
        rows = np.repeat(np.arange(self.num_inputs), cols.shape[1])
        return rows, cols.ravel(), np.tile(self.values[keep], self.num_inputs)

    def _rows(self, fmt):
        """Each dense row of the law, in input order, as the list of
        ``fmt(entry)`` over its |Y| float entries."""
        values = [fmt(v) for v in self.values.tolist()]
        zeros = [fmt(0.0)] * self.num_outputs
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
    f, T, h = spec.field, spec.T, spec.h
    q = f.q
    alphabet_sizes(spec)
    input_index = enumerate_grassmannian(f, T, h)
    blocks = tuple(enumerate_grassmannian(f, T, d) for d in range(h + 1))
    output_index = OutputAlphabet(blocks)

    nx = len(input_index)
    support, values = [], []
    for d in range(h + 1):
        canon = subspaces_of_batch(f, input_index.bases, d)
        support.append(output_index.offsets[d] + blocks[d].indices(canon).reshape(nx, -1))
        value = float(spec.rank_def.probs[h - d]) / gaussian_coefficient(h, d, q)
        values.append(np.full(support[-1].shape[1], value))
    support, values = np.hstack(support), np.concatenate(values)
    support.setflags(write=False)
    values.setflags(write=False)

    component = np.concatenate(
        [np.full(len(blocks[d]), h - d, dtype=np.int64) for d in range(h + 1)]
    )
    component.setflags(write=False)
    return Dmc(spec, input_index, output_index, support, values, component)


def _draw_uses(spec: ChannelSpec, draws: int, rng: np.random.Generator):
    """The seeded stream of ``draws`` channel uses: per chunk of at most
    65,536 uses, all their rank deficiencies d, then all their uniform
    full-rank h x h selectors S, yielded as ``(defs, selectors)``.  A use
    keeps the first h - d rows of S B_u, a uniform ordered basis of u."""
    f, h = spec.field, spec.h
    cdf = np.cumsum(spec.rank_def.probs)
    for start in range(0, draws, _CHUNK):
        n = min(_CHUNK, draws - start)
        defs = np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), h)
        yield defs, sample_full_rank_batch(f, h, h, n, rng)


def simulate_frame(spec: ChannelSpec, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Tally of ``draws`` uses of any input u, in the frame of its canonical
    basis B_u: the int64 count of each slot of a ``Dmc.support`` row.

    A use outputs R B_u, R the RREF of the h - d kept selector rows, and its
    slot is R's position among the subspaces of F_q^h (``subspaces_of_batch``
    order).  Those rows are independent, so d = 0 is F_q^h (the last slot)
    and d = h the zero space (slot 0); only 0 < d < h is eliminated, one
    batch per deficiency.  Memory is bounded by a chunk of ``_draw_uses``.
    """
    draws = _check_int("draws", draws, 1, InsufficientDataError)
    f, h = spec.field, spec.h
    tables = (f.add_table, f.mul_table, f.inv_table, f.neg_table)
    frame = OutputAlphabet(tuple(enumerate_grassmannian(f, h, d) for d in range(h + 1)))
    tally = np.zeros(len(frame), dtype=np.int64)
    for defs, s in _draw_uses(spec, draws, rng):
        counts = np.bincount(defs, minlength=h + 1)
        tally[0] += counts[h]
        tally[-1] += counts[0]
        for d in range(1, h):
            canon = _kernels.rref_batch(s[defs == d, : h - d], *tables)[0]
            lo, hi = frame.offsets[h - d : h - d + 2]
            tally[lo:hi] += np.bincount(frame.blocks[h - d].indices(canon), minlength=hi - lo)
    return tally


def simulate_one_use(spec: ChannelSpec, u: Subspace, rng: np.random.Generator) -> Subspace:
    """One channel use of input u, from one draw of ``_draw_uses``: the span
    of the first h - d rows of the ordered basis S B_u."""
    _check_input_subspace(spec, u)
    ((defs, s),) = _draw_uses(spec, 1, rng)
    return span(matmul(Mat(spec.field, s[0, : spec.h - defs[0]]), u.basis))


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
    equals the dimension-(h - rho) column block of the law divided by the
    selection probability whenever that probability is nonzero, and stays
    well-defined when it is zero.
    """
    spec = dmc.spec
    h, q = spec.h, spec.field.q
    out = []
    for rho in range(h + 1):
        d = h - rho
        block = dmc.output_index.blocks[d]
        value = 1.0 / gaussian_coefficient(h, d, q)
        out.append(
            DmcComponent(
                rho=rho,
                selection_prob=float(spec.rank_def.probs[rho]),
                input_index=dmc.input_index,
                output_index=block,
                trans=_dense(dmc._block_columns(d), len(block), value, np.float64),
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
        raise InvalidParameterError(f"kind must be 'deficiency' or 'rank', got {kind!r}")
    h = _check_int("h", h, 0)
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


def _dmc_metadata(dmc: Dmc) -> dict:
    """The entries of ``dmc_to_dict`` other than the transitions."""
    return {
        "format_version": 1,
        "q": dmc.spec.field.q,
        "T": dmc.spec.T,
        "h": dmc.spec.h,
        "rank_def": [float(p) for p in dmc.spec.rank_def.probs],
        "input_labels": dmc.input_index.labels(),
        "output_labels": dmc.output_index.labels(),
        "output_dims": (dmc.spec.h - dmc.component_of_output).tolist(),
    }


def dmc_to_dict(dmc: Dmc) -> dict:
    """JSON-ready transition matrix with alphabet metadata embedded."""
    return {**_dmc_metadata(dmc), "transitions": list(dmc._rows(float))}


def dmc_to_json(dmc: Dmc, fileobj) -> None:
    """JSON export of ``dmc_to_dict``: the text of ``json.dumps(indent=2,
    sort_keys=True)`` and a newline, written one input row at a time.  The
    law's values are finite, and json writes a finite float as its repr."""
    import json  # imported on use: `import subchan` loads no json

    head = json.dumps({**_dmc_metadata(dmc), "transitions": []}, indent=2, sort_keys=True)
    # "transitions" sorts last, so the text ends '"transitions": []\n}'.
    fileobj.write(head[: -len("]\n}")] + "\n")
    for i, row in enumerate(dmc._rows(repr)):
        text = "    [\n      " + ",\n      ".join(row) + "\n    ]"
        fileobj.write(text if i == 0 else ",\n" + text)
    fileobj.write("\n  ]\n}\n")


def dmc_to_csv(dmc: Dmc, fileobj) -> None:
    """CSV export: header of output labels (canonical bases as q-ary digit
    strings, rows joined by '|'), then one probability row per input."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["input"] + dmc.output_index.labels())
    for label, row in zip(dmc.input_index.labels(), dmc._rows(repr)):
        writer.writerow([label] + row)

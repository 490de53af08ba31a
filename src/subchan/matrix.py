"""Dense matrices over GF(q): product, RREF, rank, and full-rank sampling.

A Mat is an immutable pairing of a GF(q) field with a 2-D uint8 array of
element encodings.  Degenerate shapes (0 rows or 0 columns) are legal and
represent bases of the zero space.

Sampling takes a numpy ``Generator`` (``np.random.default_rng(seed)``); all
randomness flows through it, so a fixed seed gives a fixed draw sequence.
The sampler draws batches; a single-matrix draw is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from .errors import DimensionMismatchError, FieldMismatchError, InvalidParameterError
from .gf import GF

__all__ = [
    "Mat",
    "matmul",
    "rref",
    "rank",
    "sample_full_rank",
    "sample_full_rank_batch",
]


@dataclass(frozen=True, eq=False)
class Mat:
    """Immutable dense matrix over GF(q)."""

    field: GF
    array: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        raw = np.asarray(self.array)
        if raw.ndim != 2:
            raise DimensionMismatchError(f"matrix must be 2-D, got shape {raw.shape}")
        q = self.field.q
        if raw.dtype.kind not in "biuf":
            raise InvalidParameterError(f"entries of dtype {raw.dtype} are not elements of GF({q})")
        # Checked before the uint8 cast, which would wrap negative and large
        # entries and truncate fractional ones.
        if raw.size and not (raw.dtype == np.uint8 and raw.max() < q):
            valid = (raw >= 0) & (raw < q)
            if raw.dtype.kind == "f":
                valid &= raw == np.floor(raw)
            if not valid.all():
                raise InvalidParameterError(f"entry {raw[~valid][0].item()!r} is not an element of GF({q})")
        arr = np.array(raw, dtype=np.uint8, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @classmethod
    def from_rows(cls, field: GF, rows) -> "Mat":
        arr = np.array(rows)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        return cls(field, arr)

    @classmethod
    def zeros(cls, field: GF, n: int, m: int) -> "Mat":
        return cls(field, np.zeros((n, m), dtype=np.uint8))

    @classmethod
    def identity(cls, field: GF, n: int) -> "Mat":
        return cls(field, np.eye(n, dtype=np.uint8))

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.array.shape == self.array.shape
            and np.array_equal(other.array, self.array)
        )

    def __hash__(self):
        return hash((self.field.q, self.array.shape, self.array.tobytes()))

    def __repr__(self):
        return f"Mat({self.field!r}, {self.array.tolist()})"


def _check_same_field(a: Mat, b: Mat) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"operands over {a.field} and {b.field}")


def matmul(g: Mat, x: Mat) -> Mat:
    """Matrix product over GF(q)."""
    _check_same_field(g, x)
    if g.cols != x.rows:
        raise DimensionMismatchError(f"cannot multiply {g.rows}x{g.cols} by {x.rows}x{x.cols}")
    f = g.field
    out = _kernels.matmul(g.array, x.array, f.add_table, f.mul_table)
    return Mat(f, out)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Unique reduced row echelon form and its pivot columns."""
    f = m.field
    r, piv = _kernels.rref(m.array, f.add_table, f.mul_table, f.inv_table, f.neg_table)
    return Mat(f, r), tuple(int(c) for c in piv)


def rank(m: Mat) -> int:
    f = m.field
    ranks = _kernels.rank_batch(
        m.array[None, :, :], f.add_table, f.mul_table, f.inv_table, f.neg_table
    )
    return int(ranks[0])


def sample_full_rank_batch(field: GF, n: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count uniform draws over full-rank n x m matrices, as a (count, n, m)
    array, by chunked rejection: draw exactly as many candidates as are still
    missing, keep the full-rank ones in order.

    A uniform candidate is accepted with probability
    prod_{i=0}^{k-1} (1 - q^{i - K}), k = min(n, m), K = max(n, m); this is
    bounded below by ~0.288 at q = 2.
    """
    if n < 0 or m < 0:
        raise DimensionMismatchError("negative matrix dimension")
    out = np.zeros((count, n, m), dtype=np.uint8)
    target = min(n, m)
    if count == 0 or target == 0:
        return out
    f = field
    filled = 0
    while filled < count:
        cand = rng.integers(0, f.q, size=(count - filled, n, m), dtype=np.uint8)
        ranks = _kernels.rank_batch(cand, f.add_table, f.mul_table, f.inv_table, f.neg_table)
        good = cand[ranks == target]
        out[filled : filled + good.shape[0]] = good
        filled += good.shape[0]
    return out


def sample_full_rank(field: GF, n: int, m: int, rng: np.random.Generator) -> Mat:
    """Uniform draw over full-rank n x m matrices: a batch of one."""
    return Mat(field, sample_full_rank_batch(field, n, m, 1, rng)[0])


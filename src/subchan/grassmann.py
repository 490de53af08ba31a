"""Subspaces of F_q^T, Grassmannian enumeration, and subspace counting.

A subspace is identified by its unique reduced-row-echelon-form basis matrix,
so subspace equality is structural equality of the canonical basis and every
subspace hashes in O(1).  The zero-dimensional space O is the empty basis.

Enumeration order is part of the public contract: pivot column sets (one
Schubert cell each) in lexicographic order, and within a cell the free
entries counted like an odometer (row-major positions, the last fastest).
Each cell is filled as one array block; an alphabet is its stacked bases,
and a ``Subspace`` is built only for an element that is accessed.  Indices
are stable across runs and platforms; ``GrassmannianIndex.indices`` maps a
stack of canonical bases to them in one call, ``index_of`` is its batch of one.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from .errors import (
    AmbientMismatchError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    InvalidParameterError,
    _check_int,
    _check_type,
)
from .gf import GF, _factor_prime_power
from .matrix import Mat, matmul, rank, rref, sample_full_rank

__all__ = [
    "DEFAULT_ENUM_CAP",
    "GrassmannianIndex",
    "Subspace",
    "contains",
    "count_ordered_bases",
    "enumerate_grassmannian",
    "enumerate_subspaces_of",
    "gaussian_coefficient",
    "random_ordered_basis",
    "span",
    "subspace_label",
    "subspaces_of_batch",
]

DEFAULT_ENUM_CAP = 1_000_000
_ENUM_CAP_ENV = "SUBCHAN_ENUM_CAP"

def resolve_enum_cap() -> int:
    """Effective enumeration cap: SUBCHAN_ENUM_CAP, else the default.

    The variable must hold an integer >= 1 (InvalidParameterError otherwise).
    """
    env = os.environ.get(_ENUM_CAP_ENV)
    if not env:
        return DEFAULT_ENUM_CAP
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidParameterError(f"{_ENUM_CAP_ENV} must be an integer >= 1, got {env!r}")
    return value


def gaussian_coefficient(n: int, ell: int, q: int) -> int:
    """Number of ell-dimensional subspaces of F_q^n, computed exactly.

    prod_{i=0}^{ell-1} (q^{n-i} - 1) / (q^{ell-i} - 1); 0 when ell > n, 1 when
    ell = 0.  Exact big-integer arithmetic throughout.
    """
    _factor_prime_power(q, max_size=None)
    n, ell = _check_int("n", n, 0), _check_int("ell", ell, 0)
    if ell > n:
        return 0
    num = 1
    den = 1
    for i in range(ell):
        num *= q ** (n - i) - 1
        den *= q ** (ell - i) - 1
    return num // den


def count_ordered_bases(h: int, q: int) -> int:
    """Number of ordered bases spanning an h-dimensional subspace: |GL(h, q)|."""
    _factor_prime_power(q, max_size=None)
    h = _check_int("h", h, 0)
    out = 1
    for i in range(1, h + 1):
        out *= q**h - q ** (i - 1)
    return out


def _is_rref_basis(arr: np.ndarray) -> bool:
    """True iff arr is a reduced-row-echelon basis: no zero rows, and each
    leading entry a 1, right of the one above, alone in its column."""
    last = -1
    for row in arr:
        nz = np.flatnonzero(row)
        if nz.size == 0 or nz[0] <= last or row[nz[0]] != 1 or np.count_nonzero(arr[:, nz[0]]) != 1:
            return False
        last = nz[0]
    return True


@dataclass(frozen=True, eq=False)
class Subspace:
    """Canonical representative of a subspace of F_q^T.

    ``basis`` is the unique RREF basis with ``dim`` nonzero rows and T
    columns; dim = 0 encodes the zero space O with an empty basis.
    """

    field: GF
    ambient_dim: int
    basis: Mat = dc_field(repr=False)

    def __post_init__(self):
        _check_type("field", self.field, GF)
        _check_int("ambient_dim", self.ambient_dim, 0)
        _check_type("basis", self.basis, Mat)
        if self.basis.field != self.field:
            raise AmbientMismatchError("basis field differs from subspace field")
        if self.basis.cols != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis has {self.basis.cols} columns, ambient dimension is {self.ambient_dim}"
            )
        if self.basis.rows > self.ambient_dim:
            raise DimensionMismatchError("more basis rows than ambient dimension")
        if not _is_rref_basis(self.basis.array):
            raise InvalidParameterError("basis is not a reduced-row-echelon basis without zero rows")
        object.__setattr__(self, "_key", (self.field.q, self.ambient_dim, self.basis.array.tobytes()))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def zero(cls, field: GF, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Mat.zeros(field, 0, ambient_dim))

    def __eq__(self, other):
        return isinstance(other, Subspace) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subspace(GF({self.field.q}), T={self.ambient_dim}, [{subspace_label(self)}])"


def subspace_label(s: Subspace) -> str:
    """Serialize the canonical basis: one q-ary digit string per row, rows
    joined by '|'.  The zero space O serializes to the empty string.  For
    q > 16 entries are comma-separated decimal values instead of digits.
    A batch of one of ``GrassmannianIndex.labels``."""
    return _labels(s.field.q, s.basis.array[None])[0]


def _labels(q: int, bases: np.ndarray) -> list[str]:
    """``subspace_label`` of each basis of a (n, dim, T) stack: each entry is
    its token, NUL-padded to the widest, and one separator byte (',' between
    entries for q > 16, '|' between rows); without the NULs, labels abut."""
    n, dim, ambient_dim = bases.shape
    tokens = np.array([f"{v:x}" if q <= 16 else str(v) for v in range(q)], dtype=bytes)
    cells = np.zeros((n, dim, ambient_dim, tokens.itemsize + 1), dtype=np.uint8)
    cells[..., :-1] = tokens.view(np.uint8).reshape(q, -1)[bases]
    cells[:, :, :-1, -1] = ord(",") if q > 16 else 0
    cells[:, :-1, -1:, -1] = ord("|")
    cells = cells.reshape(n, dim * ambient_dim * cells.shape[-1])
    text = cells[cells != 0].tobytes().decode()
    ends = np.count_nonzero(cells, axis=1).cumsum().tolist()
    return [text[a:b] for a, b in zip([0] + ends, ends)]


def span(x: Mat) -> Subspace:
    """Canonical subspace spanned by the rows of x."""
    r, piv = rref(_check_type("x", x, Mat))
    basis = Mat(x.field, r.array[: len(piv)])
    return Subspace(x.field, x.cols, basis)


def contains(u: Subspace, v: Subspace) -> bool:
    """True iff v is a subspace of u."""
    _check_type("u", u, Subspace)
    _check_type("v", v, Subspace)
    if u.field != v.field or u.ambient_dim != v.ambient_dim:
        raise AmbientMismatchError(
            f"subspaces live in different ambient spaces: "
            f"GF({u.field.q})^{u.ambient_dim} vs GF({v.field.q})^{v.ambient_dim}"
        )
    stacked = Mat(u.field, np.vstack([u.basis.array, v.basis.array]))
    return rank(stacked) == u.dim


class GrassmannianIndex:
    """Deterministic bijection between [0, |P(F_q^T, ell)|) and subspaces.

    ``bases`` (size, ell, T), read-only, stacks the distinct canonical bases,
    checked at construction; ``indices`` maps such stacks to positions by a
    binary search over the sorted bytes of the bases, and ``labels``
    serializes them.  Indexing, and so iteration, builds a ``Subspace``.
    """

    def __init__(self, field: GF, ambient_dim: int, dim: int, bases: np.ndarray):
        self.field, self.ambient_dim, self.dim = field, ambient_dim, dim
        self.bases = np.ascontiguousarray(bases, dtype=np.uint8)
        self.bases.setflags(write=False)
        keys = _keys(self.bases)
        self._order = np.argsort(keys)
        self._sorted = keys[self._order]
        canon, ranks = _kernels.rref_batch(self.bases, field.add_table, field.mul_table, field.inv_table, field.neg_table)
        repeated = (self._sorted[1:] == self._sorted[:-1]).any()
        if repeated or (ranks != dim).any() or not np.array_equal(canon, self.bases):
            raise InvalidParameterError(f"bases of P(F_{field.q}^{ambient_dim}, {dim}) are not distinct RREF bases")

    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, i: int) -> Subspace:
        return Subspace(self.field, self.ambient_dim, Mat(self.field, self.bases[i]))

    subspace_at = __getitem__

    def labels(self) -> list[str]:
        """``subspace_label`` of every element, in index order."""
        return _labels(self.field.q, self.bases)

    def _missing(self) -> KeyError:
        return KeyError(f"subspace not in P(F_{self.field.q}^{self.ambient_dim}, {self.dim})")

    def indices(self, canon: np.ndarray) -> np.ndarray:
        """Positions of a (n, dim, T) stack of canonical RREF bases over this
        index's field.  The field is not checked: bases are plain arrays."""
        canon = np.ascontiguousarray(canon, dtype=np.uint8)
        if canon.shape[1:] != (self.dim, self.ambient_dim):
            raise self._missing()
        keys = _keys(canon)
        at = np.searchsorted(self._sorted, keys)
        # A key above the last sorted one is clipped onto it and so compares unequal.
        if len(keys) and not (len(self) and np.array_equal(self._sorted.take(at, mode="clip"), keys)):
            raise self._missing()
        return self._order[at]

    def index_of(self, s: Subspace) -> int:
        if s.field != self.field:
            raise self._missing()
        return int(self.indices(s.basis.array[None])[0])

    def __repr__(self):
        return (
            f"GrassmannianIndex(GF({self.field.q}), T={self.ambient_dim}, "
            f"dim={self.dim}, size={len(self)})"
        )


def _keys(canon: np.ndarray) -> np.ndarray:
    """Each basis of a contiguous (n, dim, T) uint8 stack as one void scalar of
    its bytes, a view; void keys compare and sort as unsigned byte strings."""
    width = canon.shape[1] * canon.shape[2]
    if width == 0:  # a zero-width void view would hold no elements
        return np.zeros(len(canon), dtype="V1")
    return canon.reshape(len(canon), width).view(np.dtype((np.void, width))).ravel()


@functools.lru_cache(maxsize=64)
def _enumerate_cached(field: GF, ambient_dim: int, dim: int) -> GrassmannianIndex:
    blocks = [np.zeros((0, dim, ambient_dim), dtype=np.uint8)]
    for pivots in itertools.combinations(range(ambient_dim), dim):
        free = [(i, c) for i in range(dim) for c in range(pivots[i] + 1, ambient_dim) if c not in pivots]
        block = np.zeros((field.q ** len(free), dim, ambient_dim), dtype=np.uint8)
        block[:, np.arange(dim), list(pivots)] = 1
        # Odometer order: the free entries hold the base-q digits of the
        # position in the block, the last row-major position fastest.
        code = np.arange(len(block), dtype=np.int64)
        for i, c in reversed(free):
            block[:, i, c] = code % field.q
            code //= field.q
        blocks.append(block)
    return GrassmannianIndex(field, ambient_dim, dim, np.concatenate(blocks))


def _check_enum_cap(q: int, ambient_dim: int, dim: int, count: int) -> None:
    """Raise EnumerationTooLargeError if P(F_q^ambient_dim, dim), of ``count``
    subspaces, exceeds the enumeration cap in force now."""
    cap_val = resolve_enum_cap()
    if count > cap_val:
        raise EnumerationTooLargeError(
            f"P(F_{q}^{ambient_dim}, {dim}) has {count} subspaces, "
            f"exceeding the enumeration cap {cap_val}"
        )


def enumerate_grassmannian(field: GF, ambient_dim: int, dim: int) -> GrassmannianIndex:
    """All dim-dimensional subspaces of F_q^ambient_dim, in canonical order."""
    _check_type("field", field, GF)
    ambient_dim = _check_int("ambient_dim", ambient_dim, 0)
    dim = _check_int("dim", dim, 0)
    count = gaussian_coefficient(ambient_dim, dim, field.q)
    _check_enum_cap(field.q, ambient_dim, dim, count)
    index = _enumerate_cached(field, ambient_dim, dim)
    if len(index) != count:
        raise AssertionError(f"enumeration produced {len(index)} subspaces, expected {count}")
    return index


def subspaces_of_batch(field: GF, bases: np.ndarray, dim: int) -> np.ndarray:
    """Canonical bases of all dim-dimensional subspaces of each row space in
    ``bases`` (a (n, h, T) stack of canonical (RREF) bases), as a
    (n * m, dim, T) stack with m = C(h, dim)_q: input-major, each input's
    subspaces in the order of the Grassmannian of F_q^h mapped through its
    basis.

    The products need no elimination: for RREF R and B, column p_j of R B,
    where p_j is B's row-j pivot, equals column j of R.  So row i of R B is
    zero before p_{l_i}, where l_i is R's row-i pivot, holds the pivot 1
    there, and is the only row nonzero in that column: R B is RREF."""
    n, h, ambient_dim = bases.shape
    inner = enumerate_grassmannian(field, h, dim).bases
    m = len(inner)
    left = np.broadcast_to(inner[None], (n, m, dim, h)).reshape(n * m, dim, h)
    right = np.repeat(bases, m, axis=0)
    return _kernels.matmul_batch(left, right, field.add_table, field.mul_table)


def enumerate_subspaces_of(u: Subspace, dim: int) -> list[Subspace]:
    """All dim-dimensional subspaces of u, via the Grassmannian of F_q^{dim u}
    mapped through u's canonical basis."""
    _check_type("u", u, Subspace)
    dim = _check_int("dim", dim, 0, DimensionMismatchError, maximum=u.dim)
    canon = subspaces_of_batch(u.field, u.basis.array[None], dim)
    return [Subspace(u.field, u.ambient_dim, Mat(u.field, c)) for c in canon]


def random_ordered_basis(u: Subspace, rng: np.random.Generator) -> Mat:
    """Uniform draw over the ordered bases spanning u: a uniform element of
    GL(dim u, q) times u's canonical basis.  This is uniform over all
    prod_{i=1}^h (q^h - q^{i-1}) ordered bases, because the GL(h, q) action
    on the ordered bases of u is simply transitive."""
    _check_type("u", u, Subspace)
    return matmul(sample_full_rank(u.field, u.dim, u.dim, rng), u.basis)

"""Subspaces of F_q^T, Grassmannian enumeration, and subspace counting.

A subspace is identified by its unique reduced-row-echelon-form basis matrix,
so subspace equality is structural equality of the canonical basis and every
subspace hashes in O(1).  The zero-dimensional space O is the empty basis.

Enumeration order is part of the public contract: pivot column sets are
visited in lexicographic order, and for each pivot set the free entries are
filled like an odometer (row-major position list, last position spinning
fastest).  Alphabet indices derived from this order are therefore stable
across runs and platforms.  ``GrassmannianIndex.indices`` maps a stack of
canonical bases to those indices in one call; ``index_of`` is its batch of one.
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

_DIGITS = "0123456789abcdef"


def resolve_enum_cap(cap: int | None = None) -> int:
    """Effective enumeration cap: explicit arg, else SUBCHAN_ENUM_CAP, else default.

    Either source must be an integer >= 1 (InvalidParameterError otherwise).
    """
    if cap is not None:
        return _check_int("cap", cap, 1)
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


def _rref_basis_pivots(arr: np.ndarray) -> list[int] | None:
    """Pivot columns if arr is a valid RREF basis (no zero rows), else None."""
    rows, _cols = arr.shape
    pivots: list[int] = []
    last = -1
    for i in range(rows):
        nz = np.nonzero(arr[i])[0]
        if nz.size == 0:
            return None
        pcol = int(nz[0])
        if pcol <= last or arr[i, pcol] != 1:
            return None
        if np.count_nonzero(arr[:, pcol]) != 1:
            return None
        pivots.append(pcol)
        last = pcol
    return pivots


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
        if self.basis.field != self.field:
            raise AmbientMismatchError("basis field differs from subspace field")
        if self.basis.cols != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis has {self.basis.cols} columns, ambient dimension is {self.ambient_dim}"
            )
        if self.basis.rows > self.ambient_dim:
            raise DimensionMismatchError("more basis rows than ambient dimension")
        if _rref_basis_pivots(self.basis.array) is None:
            raise ValueError("basis is not a reduced-row-echelon basis without zero rows")
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
    q > 16 entries are comma-separated decimal values instead of digits."""
    if s.field.q <= 16:
        rows = ["".join(_DIGITS[v] for v in row) for row in s.basis.array]
    else:
        rows = [",".join(str(int(v)) for v in row) for row in s.basis.array]
    return "|".join(rows)


def span(x: Mat) -> Subspace:
    """Canonical subspace spanned by the rows of x."""
    r, piv = rref(x)
    basis = Mat(x.field, r.array[: len(piv)])
    return Subspace(x.field, x.cols, basis)


def contains(u: Subspace, v: Subspace) -> bool:
    """True iff v is a subspace of u."""
    if u.field != v.field or u.ambient_dim != v.ambient_dim:
        raise AmbientMismatchError(
            f"subspaces live in different ambient spaces: "
            f"GF({u.field.q})^{u.ambient_dim} vs GF({v.field.q})^{v.ambient_dim}"
        )
    if v.dim > u.dim:
        return False
    if v.dim == 0:
        return True
    stacked = Mat(u.field, np.vstack([u.basis.array, v.basis.array]))
    return rank(stacked) == u.dim


class GrassmannianIndex:
    """Deterministic bijection between [0, |P(F_q^T, ell)|) and subspaces.

    Materialized eagerly; refuse construction beyond the enumeration cap.
    ``bases`` stacks the canonical bases, shape (size, ell, T); ``indices``
    maps a stack of canonical bases back to their positions.
    """

    def __init__(self, field: GF, ambient_dim: int, dim: int, subspaces: tuple[Subspace, ...]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.dim = dim
        self._subspaces = subspaces
        self.bases = np.array([s.basis.array for s in subspaces], dtype=np.uint8).reshape(
            len(subspaces), dim, ambient_dim
        )
        self._lookup = {s._key[2]: i for i, s in enumerate(subspaces)}

    def __len__(self) -> int:
        return len(self._subspaces)

    def __iter__(self):
        return iter(self._subspaces)

    def __getitem__(self, i: int) -> Subspace:
        return self._subspaces[i]

    def subspace_at(self, i: int) -> Subspace:
        return self._subspaces[i]

    def _missing(self) -> KeyError:
        return KeyError(f"subspace not in P(F_{self.field.q}^{self.ambient_dim}, {self.dim})")

    def indices(self, canon: np.ndarray) -> np.ndarray:
        """Positions of a (n, dim, T) stack of canonical RREF bases over this
        index's field.  The field is not checked: bases are plain arrays."""
        canon = np.ascontiguousarray(canon, dtype=np.uint8)
        if canon.shape[1:] != (self.dim, self.ambient_dim):
            raise self._missing()
        width = self.dim * self.ambient_dim
        if width == 0:
            keys = [b""] * len(canon)
        else:
            # Each basis as one bytes object, equal to its ndarray.tobytes().
            keys = canon.reshape(len(canon), width).view(np.dtype((np.void, width))).ravel().tolist()
        try:
            return np.fromiter(map(self._lookup.__getitem__, keys), dtype=np.int64, count=len(keys))
        except KeyError:
            raise self._missing() from None

    def index_of(self, s: Subspace) -> int:
        if s.field != self.field:
            raise self._missing()
        return int(self.indices(s.basis.array[None])[0])

    def __repr__(self):
        return (
            f"GrassmannianIndex(GF({self.field.q}), T={self.ambient_dim}, "
            f"dim={self.dim}, size={len(self)})"
        )


@functools.lru_cache(maxsize=64)
def _enumerate_cached(field: GF, ambient_dim: int, dim: int) -> GrassmannianIndex:
    q = field.q
    subspaces: list[Subspace] = []
    for pivots in itertools.combinations(range(ambient_dim), dim):
        pivot_set = frozenset(pivots)
        free = [
            (i, c)
            for i in range(dim)
            for c in range(pivots[i] + 1, ambient_dim)
            if c not in pivot_set
        ]
        base = np.zeros((dim, ambient_dim), dtype=np.uint8)
        for i, p in enumerate(pivots):
            base[i, p] = 1
        for code in range(q ** len(free)):
            arr = base.copy()
            v = code
            for i, c in reversed(free):
                arr[i, c] = v % q
                v //= q
            subspaces.append(Subspace(field, ambient_dim, Mat(field, arr)))
    return GrassmannianIndex(field, ambient_dim, dim, tuple(subspaces))


def enumerate_grassmannian(
    field: GF, ambient_dim: int, dim: int, cap: int | None = None
) -> GrassmannianIndex:
    """All dim-dimensional subspaces of F_q^ambient_dim, in canonical order."""
    ambient_dim = _check_int("ambient_dim", ambient_dim, 0)
    dim = _check_int("dim", dim, 0)
    cap_val = resolve_enum_cap(cap)
    count = gaussian_coefficient(ambient_dim, dim, field.q)
    if count > cap_val:
        raise EnumerationTooLargeError(
            f"P(F_{field.q}^{ambient_dim}, {dim}) has {count} subspaces, "
            f"exceeding the enumeration cap {cap_val}"
        )
    index = _enumerate_cached(field, ambient_dim, dim)
    if len(index) != count:
        raise AssertionError(
            f"enumeration produced {len(index)} subspaces, expected {count}"
        )
    return index


def subspaces_of_batch(
    field: GF, bases: np.ndarray, dim: int, cap: int | None = None
) -> np.ndarray:
    """Canonical bases of all dim-dimensional subspaces of each row space in
    ``bases`` (a (n, h, T) stack of full-rank bases), as a (n * m, dim, T)
    stack with m = C(h, dim)_q: input-major, each input's subspaces in the
    order of the Grassmannian of F_q^h mapped through its basis."""
    n, h, ambient_dim = bases.shape
    inner = enumerate_grassmannian(field, h, dim, cap=cap).bases
    m = len(inner)
    left = np.broadcast_to(inner[None], (n, m, dim, h)).reshape(n * m, dim, h)
    right = np.repeat(bases, m, axis=0)
    f = field
    product = _kernels.matmul_batch(left, right, f.add_table, f.mul_table)
    return _kernels.rref_batch(product, f.add_table, f.mul_table, f.inv_table, f.neg_table)[0]


def enumerate_subspaces_of(u: Subspace, dim: int, cap: int | None = None) -> list[Subspace]:
    """All dim-dimensional subspaces of u, via the Grassmannian of F_q^{dim u}
    mapped through u's canonical basis."""
    if not 0 <= dim <= u.dim:
        raise DimensionMismatchError(f"requested dimension {dim} outside [0, {u.dim}]")
    canon = subspaces_of_batch(u.field, u.basis.array[None], dim, cap=cap)
    return [Subspace(u.field, u.ambient_dim, Mat(u.field, c)) for c in canon]


def random_ordered_basis(u: Subspace, rng: np.random.Generator) -> Mat:
    """Uniform draw over the ordered bases spanning u.

    Left-multiplying the canonical basis by a uniform element of GL(h, q)
    is uniform over all prod_{i=1}^h (q^h - q^{i-1}) ordered bases, because
    the GL(h, q) action on ordered bases of u is simply transitive.
    """
    if u.dim == 0:
        return Mat.zeros(u.field, 0, u.ambient_dim)
    a = sample_full_rank(u.field, u.dim, u.dim, rng)
    return matmul(a, u.basis)

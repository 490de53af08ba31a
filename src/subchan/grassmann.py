"""Subspaces of F_q^T, Grassmannian enumeration, and subspace counting.

A subspace is identified by its unique reduced-row-echelon-form basis matrix,
so subspace equality is structural equality of the canonical basis and every
subspace hashes in O(1).  The zero-dimensional space O is the empty basis.

Enumeration order is part of the public contract: pivot column sets (one
Schubert cell each) in lexicographic order, and within a cell the free
entries counted like an odometer (row-major positions, the last fastest).
A ``GrassmannianIndex`` is built from (q, T, dim) alone: it fills the cells
from one table, which ``indices`` inverts in closed form, so there is no
outside stack to check.  An alphabet is its stacked bases, and a
``Subspace`` is built only for an element that is accessed.  Indices are
stable across runs and platforms; ``index_of`` is a batch of one of
``indices``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
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
    ell = 0.  Exact big-integer arithmetic throughout, over the fewer factors
    of ell and n - ell (the coefficient is symmetric in them).
    """
    _factor_prime_power(q, max_size=None)
    n, ell = _check_int("n", n, 0), _check_int("ell", ell, 0)
    if ell > n:
        return 0
    ell = min(ell, n - ell)
    num = 1
    den = 1
    for i in range(ell):
        num *= q ** (n - i) - 1
        den *= q ** (ell - i) - 1
    return num // den


def _log10_gaussian(n: int, ell: int, q: int) -> float:
    """log10 C(n, ell)_q in at most 64 float steps, without building it:
    ell (n - ell) log10 q + sum_i [log10(1 - q^-(n-i)) - log10(1 - q^-(ell-i))],
    or inf when n is past the float range.  A term with ell - i > 64 is exactly
    0.0 (expm1 of -45 or less rounds to -1), so the sum starts at ell - 64."""
    if ell > n:
        return -math.inf
    ell, lq = min(ell, n - ell), math.log(q)
    terms = (
        math.log10(-math.expm1(-(n - i) * lq)) - math.log10(-math.expm1(-(ell - i) * lq))
        for i in range(max(0, ell - 64), ell)
    )
    try:
        return ell * (n - ell) * math.log10(q) + math.fsum(terms)
    except OverflowError:
        return math.inf


def _unwritable(log10: float) -> bool:
    """True if a size of this log10 surely has more digits than Python writes
    as text; a size within a digit of the limit is left to be built."""
    limit = sys.get_int_max_str_digits()
    return limit > 0 and log10 > limit + 1


def _gaussian_size(n: int, ell: int, q: int) -> int | float:
    """C(n, ell)_q exactly or, when it has more digits than Python writes as
    text, its float log10, which ``_size_text`` names without the coefficient
    being built."""
    _factor_prime_power(q, max_size=None)
    n, ell = _check_int("n", n, 0), _check_int("ell", ell, 0)
    log10 = _log10_gaussian(n, ell, q)
    return log10 if _unwritable(log10) else gaussian_coefficient(n, ell, q)


def _bases_size(h: int, q: int) -> int | float:
    """|GL(h, q)| as ``_gaussian_size`` gives a size: exactly or, past what Python
    writes as text, its float log10 h^2 log10 q + sum_{j=1}^{h} log10(1 - q^-j),
    whose terms past j = 64 are exactly 0.0; inf when h^2 is past the float range."""
    _factor_prime_power(q, max_size=None)
    h, lq = _check_int("h", h, 0), math.log(q)
    try:
        log10 = h * h * math.log10(q) + math.fsum(math.log10(-math.expm1(-j * lq)) for j in range(1, min(h, 64) + 1))
    except OverflowError:
        log10 = math.inf
    return log10 if _unwritable(log10) else count_ordered_bases(h, q)


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
    return _labels(_check_type("s", s, Subspace).field.q, s.basis.array[None])[0]


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

    ``bases`` (size, ell, T), read-only, stacks the canonical bases in
    enumeration order, filled cell by cell from ``_schubert_cells``;
    ``indices`` maps such stacks to positions, and ``labels`` serializes
    them.  Indexing, and so iteration, builds a ``Subspace``.
    """

    def __init__(self, field: GF, ambient_dim: int, dim: int):
        ambient_dim, dim = _check_grassmannian(field, ambient_dim, dim)
        self.field, self.ambient_dim, self.dim = field, ambient_dim, dim
        cells, lex, self._offsets, weights = _schubert_cells(field.q, ambient_dim, dim)
        self._lex, self._weights = lex.ravel(), weights.reshape(len(weights), dim * ambient_dim)
        self.bases = np.zeros((self._offsets[-1], dim, ambient_dim), dtype=np.uint8)
        for pivots, w, start, stop in zip(cells, weights, self._offsets[:-1], self._offsets[1:]):
            block = self.bases[start:stop]
            block[:, np.arange(dim), list(pivots)] = 1
            # Odometer order: the free entries hold the base-q digits of the position in the block.
            code = np.arange(stop - start)
            for i, c in zip(*np.nonzero(w)):
                block[:, i, c] = code // w[i, c] % field.q
        self.bases.setflags(write=False)

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
        index's field, ranked by ``_schubert_cells`` in blocks of
        ``_kernels._BLOCK``; a basis unequal to the one at its rank raises
        KeyError.  The field is not checked: bases are plain arrays."""
        canon = np.ascontiguousarray(canon, dtype=np.uint8)
        if canon.shape[1:] != (self.dim, self.ambient_dim) or (len(canon) and not len(self)):
            raise self._missing()
        out = np.empty(len(canon), dtype=np.int64)
        for s in range(0, len(canon), _kernels._BLOCK):
            block = canon[s : s + _kernels._BLOCK]
            # Each row's first nonzero column (argmax has no zero-width axis).
            pivots = (block != 0).argmax(axis=2) if self.ambient_dim else np.zeros(block.shape[:2], dtype=np.int64)
            lex = self._lex.take(pivots + self.ambient_dim * np.arange(self.dim))
            cell = len(self._weights) - 1 - np.einsum("ij->i", lex)
            # A non-member can rank outside the table or the stack: clipping keeps
            # each gather in bounds, and the comparison below rejects it.
            weights = self._weights.take(cell, axis=0, mode="clip")
            entries = block.reshape(len(block), weights.shape[1])
            out[s : s + len(block)] = ranks = self._offsets.take(cell, mode="clip") + np.einsum("ij,ij->i", weights, entries)
            if not np.array_equal(self.bases.take(ranks, axis=0, mode="clip"), block):
                raise self._missing()
        return out

    def index_of(self, s: Subspace) -> int:
        if s.field != self.field:
            raise self._missing()
        return int(self.indices(s.basis.array[None])[0])

    def __repr__(self):
        return f"GrassmannianIndex(GF({self.field.q}), T={self.ambient_dim}, dim={self.dim}, size={len(self)})"


def _schubert_cells(q: int, ambient_dim: int, dim: int):
    """P(F_q^T, dim) by Schubert cell, the pivot tuples in lexicographic order:
    the tuples; lex (dim, T); the cells' first positions and the total; and
    (cells, dim, T) int64 weights, q^(free positions after) at each free
    position and 0 elsewhere.  A basis ranks at its cell's first position plus
    its entries times the weights, and a cell at cells - 1 minus the sum over
    its pivots c_i of lex[i, c_i] = C(T - 1 - c_i, dim - i) (the combinatorial
    number system), clipped to the cell count to bound it at any pivots."""
    cells = list(itertools.combinations(range(ambient_dim), dim))
    weights = np.zeros((len(cells), dim, ambient_dim), dtype=np.int64)
    for w, pivots in zip(weights, cells):
        # A free entry lies right of its row's pivot, in no pivot column.
        free = [(i, c) for i in range(dim) for c in range(pivots[i] + 1, ambient_dim) if c not in pivots]
        for j, (i, c) in enumerate(reversed(free)):
            w[i, c] = q**j
    lex = [[min(math.comb(ambient_dim - 1 - c, dim - i), len(cells)) for c in range(ambient_dim)] for i in range(dim)]
    offsets = np.cumsum([0, *q ** np.count_nonzero(weights, axis=(1, 2))], dtype=np.int64)
    return cells, np.array(lex, dtype=np.int64).reshape(dim, ambient_dim), offsets, weights


# One cached index per (field, T, dim); ``enumerate_grassmannian`` checks the
# arguments, and so the cap, before every lookup.
_enumerate_cached = functools.lru_cache(maxsize=64)(GrassmannianIndex)


def _size_text(n: int | float) -> str:
    """n in decimal, or as a power of ten past Python's int-to-str digit
    limit; a float n is already the log10 of such a size."""
    if isinstance(n, int):
        try:
            return str(n)
        except ValueError:
            n = math.log10(n)
    return f"about 10^{n:.1f}"


def _check_enum_cap(subject: str, *sizes: int | float) -> None:
    """Raise EnumerationTooLargeError if a size exceeds the enumeration cap in
    force now, naming each in ``subject``'s ``{}`` fields by ``_size_text``.
    A float size is the log10 of one too long to write, over any cap."""
    cap_val = resolve_enum_cap()
    if any(isinstance(n, float) or n > cap_val for n in sizes):
        raise EnumerationTooLargeError(f"{subject.format(*map(_size_text, sizes))}, exceeding the enumeration cap {cap_val}")


def _check_grassmannian(field: GF, ambient_dim: int, dim: int) -> tuple[int, int]:
    """(ambient_dim, dim) as ints, after checking that field is a GF, both are
    integers >= 0, and P(F_q^ambient_dim, dim) is within the cap in force now."""
    _check_type("field", field, GF)
    ambient_dim = _check_int("ambient_dim", ambient_dim, 0)
    dim = _check_int("dim", dim, 0)
    _check_enum_cap(f"P(F_{field.q}^{ambient_dim}, {dim}) has {{}} subspaces", _gaussian_size(ambient_dim, dim, field.q))
    return ambient_dim, dim


def enumerate_grassmannian(field: GF, ambient_dim: int, dim: int) -> GrassmannianIndex:
    """All dim-dimensional subspaces of F_q^ambient_dim, in canonical order."""
    return _enumerate_cached(field, *_check_grassmannian(field, ambient_dim, dim))


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

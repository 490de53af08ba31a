"""Exact arithmetic in GF(q) for prime powers q <= 256.

Field elements are integers in [0, q).  For a prime field GF(p) the value is
the residue mod p.  For an extension field GF(p^k) the value packs the base-p
digit vector (c_0, ..., c_{k-1}) of the polynomial c_0 + c_1 x + ... + c_{k-1}
x^{k-1} as sum_i c_i p^i, with arithmetic reduced modulo a fixed irreducible
polynomial per field.  The reduction polynomial table is frozen (one canonical
irreducible polynomial per p^k) so element encodings are reproducible across
runs.

All q x q operation tables are precomputed as uint8 numpy arrays; they double
as the lookup tables consumed by the matrix kernels.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPrimePowerError, _check_int

__all__ = ["GF"]

MAX_FIELD_SIZE = 256

# Canonical monic irreducible polynomial per (p, k), coefficients in ascending
# degree order (constant term first, leading 1 last).  The table construction
# needs irreducibility only, which tests/test_gf.py checks by exhaustive
# factor search; the entries stay fixed because they define every element
# encoding.
_REDUCTION_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),                    # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),                 # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),              # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),           # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 1, 1, 0, 1),        # x^6 + x^4 + x^3 + x + 1
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),     # x^7 + x + 1
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x^2 + 1
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (11, 2): (2, 7, 1),
    (13, 2): (2, 12, 1),
}


def _factor_prime_power(q: int, max_size: int | None = MAX_FIELD_SIZE) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotPrimePowerError."""
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool) or q < 2:
        raise NotPrimePowerError(f"field size must be an integer >= 2, got {q!r}")
    if max_size is not None and q > max_size:
        raise NotPrimePowerError(f"field size {q} exceeds supported maximum {max_size}")
    n = int(q)
    # q's least divisor p > 1 is prime, and q itself when none is <= sqrt(q).
    p = 2
    while n % p and p * p <= n:
        p += 1
    p, k = (p if n % p == 0 else n), 0
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise NotPrimePowerError(f"{q} is not a prime power (has distinct prime factors)")
    return p, k


class GF:
    """The finite field GF(q) with precomputed operation tables.

    Instances are interned per q: ``GF(4) is GF(4)``.  All tables are
    read-only uint8 arrays; the object is immutable after construction and
    safe to share across threads.

    Attributes:
        q: field size (prime power).
        p: characteristic.
        k: extension degree, q = p^k.
        reduction_poly: ascending coefficients of the monic irreducible
            reduction polynomial; empty tuple for prime fields.
        add_table, mul_table: (q, q) uint8 operation tables.
        neg_table, inv_table: (q,) uint8 tables; inv_table[0] is 0 and must
            never be consumed (``inv`` guards it).
    """

    _instances: dict[int, "GF"] = {}

    def __new__(cls, q: int):
        p, k = _factor_prime_power(q)  # before the lookup, where 4.0 == 4 finds GF(4)
        inst = cls._instances.get(int(q))
        if inst is None:
            inst = super().__new__(cls)
            inst._build(int(q), p, k)
            cls._instances[inst.q] = inst
        return inst

    def _build(self, q: int, p: int, k: int) -> None:
        self.q, self.p, self.k = q, p, k
        self.reduction_poly = _REDUCTION_POLYS[(p, k)] if k > 1 else ()

        # Base-p digit matrix: digits[v, i] = i-th digit of v.
        vals = np.arange(q, dtype=np.int64)
        digits = np.empty((q, k), dtype=np.int64)
        rest = vals.copy()
        for i in range(k):
            digits[:, i] = rest % p
            rest //= p
        weights = p ** np.arange(k, dtype=np.int64)

        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
        neg = ((-digits) % p) @ weights
        self.add_table = np.ascontiguousarray(add, dtype=np.uint8)
        self.neg_table = np.ascontiguousarray(neg, dtype=np.uint8)

        # a * b = sum_i b_i (a x^i).  powers[i] holds the digits of a x^i for
        # every a: times x the digits move up one place and x^k is replaced
        # by minus the lower terms of the monic reduction polynomial.  For
        # k = 1 this is a * b mod p.  Row 0 of mul has no 1, so argmax puts
        # the unused inv_table[0] at 0.
        powers = [digits]
        for _ in range(1, k):
            prev = powers[-1]
            shifted = np.concatenate([np.zeros((q, 1), dtype=np.int64), prev[:, :-1]], axis=1)
            powers.append((shifted - prev[:, -1:] * np.array(self.reduction_poly[:k])) % p)
        mul = (np.einsum("iak,bi->abk", np.stack(powers), digits) % p) @ weights
        inv = np.argmax(mul == 1, axis=1)
        self.mul_table = np.ascontiguousarray(mul, dtype=np.uint8)
        self.inv_table = np.ascontiguousarray(inv, dtype=np.uint8)
        for arr in (self.add_table, self.mul_table, self.neg_table, self.inv_table):
            arr.setflags(write=False)

    # Scalar operations on raw integer encodings.

    def _el(self, a) -> int:
        """a as an int; InvalidParameterError unless an integer in [0, q)."""
        return _check_int("field element", a, 0, maximum=self.q - 1)

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[self._el(a), self._el(b)])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[self._el(a), self.neg_table[self._el(b)]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[self._el(a), self._el(b)])

    def neg(self, a: int) -> int:
        return int(self.neg_table[self._el(a)])

    def inv(self, a: int) -> int:
        if self._el(a) == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))

    def __repr__(self):
        return f"GF({self.q})"


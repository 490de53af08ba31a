"""GF(q) arithmetic: table construction, field axioms, and the frozen
reduction-polynomial table."""

import itertools

import numpy as np
import pytest

from subchan.errors import FieldMismatchError, InvalidParameterError, NotPrimePowerError
from subchan.gf import _REDUCTION_POLYS, GF, FieldElement

AXIOM_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16]


def test_prime_field_construction():
    f = GF(2)
    assert (f.p, f.k, f.q) == (2, 1, 2)
    assert f.reduction_poly == ()


def test_gf4_uses_the_unique_irreducible_quadratic():
    f = GF(4)
    assert (f.p, f.k) == (2, 2)
    assert f.reduction_poly == (1, 1, 1)


@pytest.mark.parametrize("bad", [6, 12, 10, 1, 0, -5, 257, 2.5])
def test_not_prime_power_rejected(bad):
    with pytest.raises(NotPrimePowerError):
        GF(bad)


def test_instances_are_interned():
    assert GF(4) is GF(4)
    assert GF(4) == GF(4)
    assert GF(4) != GF(8)


def test_spec_addition_examples():
    assert GF(2).add(1, 1) == 0
    assert GF(3).add(2, 2) == 1
    # x + (x + 1) = 1 in GF(4): encodings x -> 2, x + 1 -> 3
    assert GF(4).add(2, 3) == 1


def test_spec_multiplication_examples():
    assert GF(2).mul(1, 1) == 1
    assert GF(4).mul(2, 2) == 3      # x * x = x + 1 mod x^2 + x + 1
    assert GF(5).mul(3, 4) == 2      # 12 mod 5


def test_spec_inverse_examples():
    assert GF(5).inv(2) == 3
    assert GF(2).inv(1) == 1
    assert GF(4).inv(2) == 3         # x * (x + 1) = x^2 + x = 1


@pytest.mark.parametrize("op, args", [
    ("add", (-1, 0)), ("add", (0, 3)), ("sub", (-1, 0)), ("sub", (0, 1.0)), ("mul", (2, -1)),
    ("mul", (1.7, 1)), ("neg", (-1,)), ("neg", (True,)), ("inv", (-1,)), ("inv", (3,)), ("inv", ("1",)),
])
def test_scalar_operands_outside_the_field_rejected(op, args):
    """A negative index would wrap in the table and a float would truncate."""
    with pytest.raises(InvalidParameterError):
        getattr(GF(3), op)(*args)


def test_scalar_operands_accept_numpy_integers():
    f = GF(3)
    assert f.add(np.uint8(2), np.int64(2)) == 1 and f.inv(np.int32(2)) == 2


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)


@pytest.mark.parametrize("q", AXIOM_FIELDS)
def test_field_axioms_exhaustive(q):
    f = GF(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", AXIOM_FIELDS + [25, 27])
def test_fermat_in_gf_q(q):
    f = GF(q)
    for a in range(1, q):
        acc = 1
        for _ in range(q - 1):
            acc = f.mul(acc, a)
        assert acc == 1


@pytest.mark.parametrize("q", AXIOM_FIELDS)
def test_tables_stay_in_range(q):
    f = GF(q)
    for table in (f.add_table, f.mul_table, f.neg_table, f.inv_table):
        assert table.max() < q
        assert table.min() >= 0


def _poly_mul(a, b, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return tuple(prod)


def _monic_polys(p, deg):
    for coeffs in itertools.product(range(p), repeat=deg):
        yield coeffs + (1,)


@pytest.mark.parametrize("pk", sorted(_REDUCTION_POLYS))
def test_reduction_polynomials_are_irreducible(pk):
    """Exhaustive factor search: no monic factor pair multiplies to the
    table polynomial."""
    p, k = pk
    poly = _REDUCTION_POLYS[pk]
    assert len(poly) == k + 1 and poly[-1] == 1
    for d in range(1, k // 2 + 1):
        for f in _monic_polys(p, d):
            for g in _monic_polys(p, k - d):
                assert _poly_mul(f, g, p) != poly


def test_every_supported_prime_power_builds():
    for (p, k) in _REDUCTION_POLYS:
        GF(p**k)
    for q in (2, 3, 5, 7, 11, 13, 17, 251):
        GF(q)


def test_large_field_mul_matches_slow_polynomial_route():
    f = GF(256)
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
        assert f.mul(a, b) == f._mul_slow(a, b)


class TestFieldElement:
    def test_operators(self):
        f = GF(5)
        a, b = f.element(3), f.element(4)
        assert (a + b).value == 2
        assert (a * b).value == 2
        assert (a - b).value == 4
        assert (a / b).value == f.mul(3, f.inv(4))
        assert (-a).value == 2
        assert a.inverse().value == 2
        assert int(a) == 3

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            GF(2).element(1) + GF(3).element(1)
        with pytest.raises(FieldMismatchError):
            GF(4).element(2) * GF(8).element(2)

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            FieldElement(5, GF(5))
        with pytest.raises(ValueError):
            FieldElement(-1, GF(5))

    @pytest.mark.parametrize("value", [1.5, 1.7, 1.0, True, "1", -1, 3])
    def test_non_integer_or_out_of_range_values_rejected(self, value):
        with pytest.raises(InvalidParameterError):
            FieldElement(value, GF(3))
        with pytest.raises(InvalidParameterError):
            GF(3).element(value)

    def test_numpy_integer_value_stored_as_int(self):
        e = GF(3).element(np.uint8(2))
        assert type(e.value) is int and (e + e).value == 1

    def test_division_by_zero(self):
        f = GF(3)
        with pytest.raises(ZeroDivisionError):
            f.element(2) / f.element(0)

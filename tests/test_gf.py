"""GF(q) arithmetic: table construction, field axioms, and the frozen
reduction-polynomial table."""

import hashlib
import itertools

import numpy as np
import pytest

from conftest import mul_slow
from subchan.errors import InvalidParameterError, NotPrimePowerError
from subchan.gf import _REDUCTION_POLYS, GF

AXIOM_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16]

# sha256 of add_table, mul_table, neg_table and inv_table, concatenated in that
# order, for every supported q.  The tables fix every element encoding, and
# through them every exported matrix, report and digest.
TABLE_SHA256 = {
    2: "e79137bf2149c7d1dc14cb6f00a61efafab0ad8ba5597b1e7648cc4251c9659b",
    3: "0cfbcb5926b4e7437ae8d33ee358d02aa11806bb32750f5ee5433d295986b9e4",
    4: "be3768ff42d1c6df14b1d3ff365a8c3e18445c5ce22dc0d98cb81e34075e2c72",
    5: "ba166c49a24eaf45e58b175405fe11a1972461049df134a6cc95a583e1d2d19b",
    7: "ac5bcca3c46429128361420c9cc61fb04da89bdb4ae80f04846b6098b994cd52",
    8: "9dc30e01aec45be43bee2bd04ca701905d446aa47340fd154fb738f7f90cd96f",
    9: "d9fea83a6d12b03fc612cde6f9a12ee997213ec286b0787826f887f1fe394e36",
    11: "1c697aadbb0ee389c87dc3e815b748dee0a55a1b7fe0788188f42c52c090e34f",
    13: "279ad02c7a25343c0e3766f2b95f65e76d143d6cb732bf46f51d6cd1e6b8b0a2",
    16: "0046fa46959f1b7afb92cadad2972cc4752782058281ed6e463b835b7bbeec9e",
    17: "aed2e41e01454cbb492c0a3c75a6bf9774994f4a92c46f7926ec8f8ba4237bcf",
    19: "31331e20eafaf16b69a12cf326ffef1bb9012f6d3e29e984d1f000463ff23f3f",
    23: "d3ecd2523184db683cc992170e972fa579af7fc745b95eb3d7b1022c8fbcc09f",
    25: "a77aa51b02b84e2591cf37cc849b0431ff0d1562159d7accff4618b7f71c38a7",
    27: "d9d46e1702dad18942cc349173c0d09c8334bbe68898dab5d25b4928d9636cfa",
    29: "30e1ebd036a7c60355c118ef6b321ed16c61c16c053d695d1043b7b9fcc0dd66",
    31: "0c945e16fcc2f812a6a06a4260a71fdfb0925ed0e16cf4fbbbfad31c43681ef5",
    32: "0855e7f46f7b2573c02d4a1605552ba25205a2b8c4d5c2571d08403cc36480b8",
    37: "6b9b1efd62404ee59a1c23f28910e3e7fe5d1a57cff7568f1107215914e76a4b",
    41: "52f37f1a248334debdfd2e4d7f8ac4d48fe1aa7b5c67523511de23a2ac250e42",
    43: "a4614a636d13693192a05127f5d68703c5bdefd673a3ea5b84ca7084039f9233",
    47: "d4f7270b5d8077dd1b9510b2b83b8587fa98a1264fa6a3d66e9aa0c448d0d6d9",
    49: "6e235bccf4f39d94d388155dd2705a2cce11a02c8fcf478b1b4d46249fa91a88",
    53: "a1481f5905dcb3019831def1b6780d4749db73ebee696c3389c9cb2054f248b4",
    59: "1aa135c82105f5a6f0dd0c075ff7604b4223d26a4439db961b38629c22936cb2",
    61: "9af0000180d5db8dd8201d5a185b6b19fd669538ee6cc10bedf770b3d4db2c6f",
    64: "077a8914a4cc15e6309eea84d2c19a779651fa4699dd8c07828d7a67d78a7273",
    67: "6f17d351811b3eef32a2d5ffbc8eabf0e054c17971687076b2596f976120db2b",
    71: "64e0d75dfe559619ddb20f2e44247eb66610302db3e9831c90a83fd76663fbcc",
    73: "a4c891f4b9e6748e377975e0f59497eede86499548a38216e949899c79e82b91",
    79: "9c6cbc8837d6802f23a5949bfd4ccd8f87533ba05571a0d045cd344f9fa80e6b",
    81: "662f441e010e2ba96aa0a49468a5186c1a9fc4bec2e04902e7d2845ab7b7bf5e",
    83: "8de26483951972bedb8976557f2ab320196fac9d752df2526bd9f0b612526122",
    89: "f81febba4e2901ce2edbebe1165a50e4791e8ff260eb328bc8ee2bf27ce074dc",
    97: "db6f968346fb015c5b3b266b464046ecd0f9df8daf4a57387f76f3d5f725dd26",
    101: "c9badea3cf830536bcb0b3c30d566b9b7ebf54a99d42b49f1c3f14235d1cfc0d",
    103: "09358e2a959d7615135db701b264fe0a8d86d2b97d61e95cf28dfc750028145c",
    107: "f4f359424fb0a077d96f543b312018d4a3a52344f551b1a8626639c6e72987c7",
    109: "c3a3706933d14514aa6b3131ec8606cb38a619458c9bb67ce0f5d3d6c55d8086",
    113: "0cf36dab499f44121c99b72cb4cee57a2cc9441944f1e4f94afc3068f2b22f54",
    121: "e8724ee1b0aaa1e0cc0748385bc047045ed0e2d7262c0f8ebacc2baffd483e1e",
    125: "f5ca2b9f3d0fef08f2e5ebc6956de34dc48cdd3c7b310ce1c29d8242fcaf0f11",
    127: "3831109e112a82c345f6f6aabec76e38cb3e2ddf7a905e0a9009b48c7175866b",
    128: "4b7344fb42044a042cc7931679101bf0384ea794297f3992f1a7f00af66309a2",
    131: "71303dbcb5ac29562557a2902463b9014ed04f7cf9f83b481921522285c8c358",
    137: "71e7de43fffa16e9e55af9884e51bdc0c9bbc0608fd2c49fe433126b3406c620",
    139: "2056abb8eeddaadced2f9b01363d3e5ab90ccad3835e0059834496408df917c6",
    149: "1c3ee9a563c4aa3b90ec2d6e3e433f243eecc04e884ff980706212cbf37dd8d2",
    151: "105c20165cb94b9384b57a69de36c581f31e7e0b1eea2b17112dd8d0b602ad2f",
    157: "1e747242c06a2dd2e481234c25cbcf1fa55a8ebcd366a376296ed390a8781e90",
    163: "76f8a544d96cb0b9e1de916cec1122b4cab6b98e8f1b81efc7f159869d504585",
    167: "83cd255981977e16a9c3519a9bc8b3489bfcba27d4ca3f465d9db2a1a29696c8",
    169: "ba9a4c467cb2187529cb0a1184f69290f4634eb6d82b4fd14401ddfd97db9024",
    173: "bf1724890fe3442a820284948c443b10a86a4e0e334a15e877431e1d4c27a4ab",
    179: "955a0028087033f2e57be38b7a632f7f792bdb05bba298d21609e785c6096218",
    181: "08509b22ee46ef2c5b05f018da7f24a1e68e6f19d8425be54c255235e3b4d529",
    191: "b68c6dee09fce35a5d1d24c8516417f0b9513f0e2823ac700bfa0327af5195e4",
    193: "4f16263e1f001a0a8ac0b027fbb2dcd6beee25bc98357c97e8b8ec557a256606",
    197: "306892695c91579d2d1fa2a90e6e532cfbce37e47e3324720f21c3a0444922bb",
    199: "70db4a6302929744d4874ef99ef2ffe40ab844172d24b12648b5ac6bf54e99d8",
    211: "46371a80e474e8a4e425aec65380fe37515a2887904a9f19eaad9d2a5a9c4969",
    223: "e528cf76764ec01360747c95145913bb0e5fb2b516110260cc3a307c258357ac",
    227: "202cc713d1e1df9c120843288b5c62eef7ba56e121ad5624138b8ea4b67e268f",
    229: "6c9f3bda86ea976bf74f34a9a9fc811fb62e7e2ac8203cc723505bf4702229fc",
    233: "e8b9b9f6f4c83a71dc83906faa715c5e52a00730b3641bcbe66f47e0a752d350",
    239: "7b54f31f5fb755494b0f4f364258c841b5bfe8f038eb665da44cd14f504cb994",
    241: "79f826a137ac7ef277ec174c49ecc5795df0c33833ad84b3552b1c07aa029140",
    243: "1d7fd0cc82a39387cbee37efa3b6db20194cf94ee46370be0288574ebdced764",
    251: "3cf11a72a2a9f04dd9fc542680111b41df2d4f1e3b5a45c6c2d2ca7370b35379",
    256: "c6354189836ccd00cb27c4656cab4f1f1c2883479d2323cf54d98da2d5fae3a0",
}


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


@pytest.mark.parametrize("q", [4.0, np.float64(4.0)], ids=["float", "numpy-float"])
def test_float_size_rejected_after_the_field_is_built(q):
    """The size is validated before the interned instance is looked up."""
    GF(4)
    with pytest.raises(NotPrimePowerError):
        GF(q)


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


@pytest.mark.parametrize("q", sorted(TABLE_SHA256))
def test_tables_are_pinned(q):
    f = GF(q)
    digest = hashlib.sha256()
    for table in (f.add_table, f.mul_table, f.neg_table, f.inv_table):
        digest.update(table.tobytes())
    assert digest.hexdigest() == TABLE_SHA256[q]


@pytest.mark.parametrize("q", [q for q in sorted(TABLE_SHA256) if q <= 16])
def test_mul_table_matches_slow_polynomial_route_on_every_pair(q):
    f = GF(q)
    for a, b in itertools.product(range(q), repeat=2):
        assert f.mul_table[a, b] == mul_slow(f, a, b)


def test_large_field_mul_matches_slow_polynomial_route():
    f = GF(256)
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
        assert f.mul(a, b) == mul_slow(f, a, b)


class TestFieldElement:
    """Field elements are integers in [0, q); ``GF.add/sub/mul/neg/inv`` are their arithmetic."""

    def test_operators(self):
        f = GF(5)
        assert f.add(3, 4) == 2
        assert f.mul(3, 4) == 2
        assert f.sub(3, 4) == 4
        assert f.neg(3) == 2
        assert f.inv(3) == 2

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            GF(5).add(5, 0)
        with pytest.raises(ValueError):
            GF(5).add(-1, 0)

    @pytest.mark.parametrize("value", [1.5, 1.7, 1.0, True, "1", -1, 3])
    def test_non_integer_or_out_of_range_values_rejected(self, value):
        with pytest.raises(InvalidParameterError):
            GF(3).add(value, 0)
        with pytest.raises(InvalidParameterError):
            GF(3).inv(value)

    def test_numpy_integer_value_stored_as_int(self):
        e = GF(3).add(np.uint8(2), 0)
        assert type(e) is int and GF(3).add(e, e) == 1

    def test_division_by_zero(self):
        f = GF(3)
        with pytest.raises(ZeroDivisionError):
            f.mul(2, f.inv(0))

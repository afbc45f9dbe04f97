import json
import pickle

import pytest

from unitri import Ring, frobenius, regular_rep
from unitri.rings import default_modulus, is_irreducible, is_prime

from conftest import rand_elem, rng


def test_inverse_in_f7_matches_exhaustive_search(f7):
    # oracle: the unique m with 3*m = 1 mod 7
    oracle = next(m for m in range(1, 7) if 3 * m % 7 == 1)
    assert oracle == 5
    assert f7.elem(3).inv() == f7.elem(oracle)


def test_f9_generator_squares_to_minus_one(f9):
    x = f9.gen()
    assert x * x == f9.elem(2)


def test_z27_addition_wraps(z27):
    assert z27.elem(25) + z27.elem(5) == z27.elem(3)


def test_non_unit_inversion_raises(z27, f9):
    with pytest.raises(ZeroDivisionError):
        z27.elem(3).inv()
    with pytest.raises(ZeroDivisionError):
        f9.zero.inv()


def test_mismatched_rings_raise(f3, f5):
    with pytest.raises(ValueError):
        f3.elem(1) + f5.elem(1)


def test_even_or_composite_characteristic_rejected():
    with pytest.raises(ValueError):
        Ring.prime_field(2)
    with pytest.raises(ValueError):
        Ring.prime_field(15)


def test_default_modulus_is_lex_least():
    assert default_modulus(3, 2) == (1, 0, 1)  # x^2 + 1
    # brute check: everything lexicographically below x^2+1 is reducible
    assert not is_irreducible((0, 0, 1), 3)
    assert not is_irreducible((0, 1, 1), 3)
    assert not is_irreducible((0, 2, 1), 3)
    # degree 3: candidates below (1,0,2) all have roots
    m3 = default_modulus(3, 3)
    assert m3 == (1, 0, 2, 1)
    assert not is_irreducible((1, 0, 0, 1), 3)
    assert not is_irreducible((1, 0, 1, 1), 3)
    for p, f in ((5, 2), (3, 4), (7, 3)):
        m = default_modulus(p, f)
        assert is_irreducible(m, p)
        assert len(m) == f + 1 and m[-1] == 1


def test_irreducibility_against_root_search():
    # degrees 2 and 3: irreducible iff rootless; compare exhaustively
    for p in (3, 5):
        for f in (2, 3):
            for code in range(p ** f):
                coeffs = []
                c = code
                for _ in range(f):
                    coeffs.append(c % p)
                    c //= p
                poly = tuple(coeffs) + (1,)
                has_root = any(
                    sum(cf * pow(v, i, p) for i, cf in enumerate(poly)) % p == 0
                    for v in range(p))
                assert is_irreducible(poly, p) == (not has_root)


def test_frobenius_via_repeated_squaring(f9):
    x = f9.gen()
    cube = x * x * x  # oracle: x^3 by direct multiplication
    assert frobenius(x) == cube
    assert cube == f9.elem((0, 2))  # 2x
    assert frobenius(f9.one) == f9.one
    assert frobenius(frobenius(x)) == x


def test_frobenius_fixed_field_is_prime_subfield():
    for ring in (Ring.ext_field(3, 2), Ring.ext_field(3, 4), Ring.ext_field(5, 2)):
        fixed = [e for e in ring.elements() if frobenius(e) == e]
        prime = [ring.elem(v) for v in range(ring.p)]
        assert sorted(ring.encode(e) for e in fixed) == \
            sorted(ring.encode(e) for e in prime)


def test_frobenius_requires_extension(f5):
    with pytest.raises(ValueError):
        frobenius(f5.elem(2))


def test_frobenius_additive_multiplicative(f9):
    r = rng(71)
    big = Ring.ext_field(5, 3)
    for ring in (f9, big):
        for _ in range(500):
            a, b = rand_elem(ring, r), rand_elem(ring, r)
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_regular_rep_table(f9):
    # oracle: multiplication table of x against the power basis
    x = f9.gen()
    assert x * f9.one == f9.elem((0, 1))
    assert x * x == f9.elem((2, 0))
    assert regular_rep(x) == ((0, 2), (1, 0))
    assert regular_rep(f9.one) == ((1, 0), (0, 1))
    assert regular_rep(f9.zero) == ((0, 0), (0, 0))


def _mat_mul_p(a, b, p):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p
                       for j in range(n)) for i in range(n))


def _mat_add_p(a, b, p):
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def test_regular_rep_is_ring_homomorphism(f9):
    r = rng(72)
    for ring in (f9, Ring.ext_field(5, 2)):
        for _ in range(500):
            a, b = rand_elem(ring, r), rand_elem(ring, r)
            assert regular_rep(a * b) == _mat_mul_p(regular_rep(a), regular_rep(b), ring.p)
            assert regular_rep(a + b) == _mat_add_p(regular_rep(a), regular_rep(b), ring.p)


def test_regular_rep_scalars_give_scalar_matrices(f9):
    for v in range(3):
        rep = regular_rep(f9.elem(v))
        assert rep == tuple(tuple(v if i == j else 0 for j in range(2)) for i in range(2))


def test_regular_rep_custom_basis():
    ring = Ring.ext_field(3, 2, basis=[(1, 0), (1, 1)])  # basis (1, 1+x)
    one_rep = regular_rep(ring.one)
    assert one_rep == ((1, 0), (0, 1))
    x = ring.elem((0, 1))
    rep = regular_rep(x)
    # column 1 = coords of x = -1*(1) + 1*(1+x) -> (2, 1)
    assert (rep[0][0], rep[1][0]) == (2, 1)


def test_unit_inverses_roundtrip():
    r = rng(73)
    for ring in (Ring.prime_field(7), Ring.ext_field(3, 2), Ring.integers_mod(3, 3)):
        for _ in range(200):
            a = rand_elem(ring, r)
            if a.is_unit():
                assert a * a.inv() == ring.one


def test_ring_json_roundtrip(f9, z27, f5):
    for ring in (f9, z27, f5):
        assert Ring.from_json(json.loads(json.dumps(ring.to_json()))) == ring
    assert f9.to_json()["modulus"] == [1, 0, 1]


def test_element_parse_format(f9, f5):
    v = f9.elem("2,1")
    assert f9.format_value(v) == "2,1"
    assert f5.elem("3") == f5.elem(3)


def test_extension_degree_cap():
    with pytest.raises(ValueError):
        Ring.ext_field(3, 9)


def test_primality_helper():
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31 - 3)


def test_hash_survives_pickled_ring(f5, f9, z27):
    for ring in (f5, f9, z27):
        twin = pickle.loads(pickle.dumps(ring))
        a, b = ring.elem(2), twin.elem(2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

import ast
import json
import pickle
import time
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import unitri
from unitri import Ring, frobenius, regular_rep
from unitri.matrices import DenseOps
from unitri.rings import (
    TABLE_CACHE_FIELDS, TABLE_MAX_ORDER, _basis_inverse, _checked_modulus, _pmod, _pmul,
    default_modulus, field_tables, is_irreducible, is_prime, row_reduce)
from unitri.fieldext import _solve_nullspace

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
    # pinned: encodings and JSON outputs depend on these choices
    assert default_modulus(3, 4) == (1, 0, 1, 1, 1)
    assert default_modulus(3, 5) == (1, 0, 0, 0, 2, 1)
    assert default_modulus(3, 6) == (1, 0, 0, 0, 1, 1, 1)
    assert default_modulus(3, 7) == (1, 0, 0, 0, 0, 1, 2, 1)
    assert default_modulus(3, 8) == (1, 0, 0, 0, 0, 1, 1, 0, 1)
    assert default_modulus(5, 3) == (1, 0, 1, 1)
    assert default_modulus(5, 4) == (1, 0, 1, 1, 1)


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


# -- log/Zech tables against the polynomial definition (property tests) --

TABLE_RINGS = {
    "F_3^2": Ring.ext_field(3, 2),
    "F_3^4": Ring.ext_field(3, 4),      # no x + c is primitive here
    "F_5^4": Ring.ext_field(5, 4),      # nor here
    "F_3^5": Ring.ext_field(3, 5),
    "F_3^8": Ring.ext_field(3, 8),
    "F_5^2 custom": Ring.ext_field(5, 2, modulus=(2, 0, 1), basis=[(1, 1), (0, 2)]),
    "F_257^2": Ring.ext_field(257, 2),  # q = 66049, just above the table cap
}


def _poly_mul(ring, a, b):
    prod = _pmod(_pmul(a, b, ring.p), ring.modulus, ring.p)
    return prod + (0,) * (ring.f - len(prod))


def _poly_pow(ring, a, e):
    out = (1,) + (0,) * (ring.f - 1)
    while e:
        if e & 1:
            out = _poly_mul(ring, out, a)
        a = _poly_mul(ring, a, a)
        e >>= 1
    return out


@pytest.mark.parametrize("name", list(TABLE_RINGS))
@given(data=st.data())
def test_tables_agree_with_polynomial_arithmetic(name, data):
    ring = TABLE_RINGS[name]
    p, q = ring.p, ring.order
    assert (ring.tables() is not None) == (q <= TABLE_MAX_ORDER)
    a, b = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
    e = data.draw(st.integers(-40, 40) | st.integers(-3 * q, 3 * q))
    x, y = ring.decode(a), ring.decode(b)
    add, mul = ring.int_ops()
    prod = _poly_mul(ring, x.val, y.val)
    assert add(a, b) == ring.encode(ring.elem([u + v for u, v in zip(x.val, y.val)]))
    assert mul(a, b) == ring.encode(ring.elem(prod))
    assert (x * y).val == prod
    assert frobenius(x).val == _poly_pow(ring, x.val, p)
    if e >= 0:
        assert (x ** e).val == _poly_pow(ring, x.val, e)
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            x.inv()
        if e < 0:
            with pytest.raises(ZeroDivisionError):
                x ** e
        return
    inv = x.inv()
    assert _poly_mul(ring, x.val, inv.val) == ring.one.val
    assert inv.val == _poly_pow(ring, x.val, q - 2)
    if e < 0:
        assert (x ** e).val == _poly_pow(ring, inv.val, -e)


# -- an element is its code: RingElem against the code operations --

CODE_RINGS = {
    "F_5": Ring.prime_field(5),
    "Z/27": Ring.integers_mod(3, 3),
    "F_9": Ring.ext_field(3, 2),
    "F_3^8": Ring.ext_field(3, 8),
    "F_257^2": Ring.ext_field(257, 2),  # above the table cap: polynomial code operations
}


def _plain(ring):
    """(add, neg, mul) on .val by plain mod or polynomial arithmetic."""
    if ring.kind != "ext":
        m = ring.order
        return (lambda a, b: (a + b) % m), (lambda a: -a % m), (lambda a, b: a * b % m)
    p = ring.p
    return ((lambda a, b: tuple((u + v) % p for u, v in zip(a, b))),
            (lambda a: tuple(-u % p for u in a)),
            (lambda a, b: _poly_mul(ring, a, b)))


@pytest.mark.parametrize("name", list(CODE_RINGS))
@given(data=st.data())
def test_elements_are_codes(name, data):
    ring = CODE_RINGS[name]
    q = ring.order
    a, b = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
    x, y = ring.decode(a), ring.decode(b)
    assert x.code == a and ring.encode(x) == a
    assert ring.elem(x.val) == x and ring.elem(y.val) == y
    assert type(x.val) is (tuple if ring.kind == "ext" else int)
    add, mul = ring.int_ops()
    ops = ring.ops
    assert (add, mul) == (ops.add, ops.mul)
    plain_add, plain_neg, plain_mul = _plain(ring)
    assert (x + y).code == add(a, b) and (x + y).val == plain_add(x.val, y.val)
    assert (-x).code == ops.neg(a) and (-x).val == plain_neg(x.val)
    assert (x - y).code == add(a, ops.neg(b)) and (x - y).val == plain_add(x.val, plain_neg(y.val))
    assert (x * y).code == mul(a, b) and (x * y).val == plain_mul(x.val, y.val)
    if not x.is_unit():
        with pytest.raises(ZeroDivisionError):
            x.inv()
        return
    inv = x.inv()
    assert inv.code == ops.inv(a) and plain_mul(x.val, inv.val) == ring.one.val


@pytest.mark.parametrize("name", ["F_5", "Z/27"])
@given(data=st.data())
def test_prime_rings_have_the_basis_one(name, data):
    ring = CODE_RINGS[name]
    q = ring.order
    x, y = (ring.decode(data.draw(st.integers(0, q - 1))) for _ in range(2))
    assert ring.basis_elems() == [ring.one]
    assert ring.coords(x) == (x.val,) and ring.from_coords(ring.coords(x)) == x
    assert regular_rep(x) == ((x.val,),)
    assert regular_rep(x * y) == ((x.val * y.val % q,),)
    assert regular_rep(x + y) == (((x.val + y.val) % q,),)
    assert regular_rep(ring.one) == ((1,),)


def test_tables_built_once_per_field():
    ring = Ring.ext_field(3, 5)
    field_tables.cache_clear()
    for _ in range(7):
        DenseOps(ring, 4)
    assert field_tables.cache_info().misses == 1
    # codes are coefficient vectors, so the basis does not key the tables
    other_basis = Ring.ext_field(3, 5, basis=((1, 1, 0, 0, 0),) + ring.basis[1:])
    assert other_basis.tables() is ring.tables()
    assert field_tables.cache_info().maxsize == TABLE_CACHE_FIELDS


def _memo_sizes():
    return _checked_modulus.cache_info().currsize, _basis_inverse.cache_info().currsize


def test_ext_field_rejections_are_not_memoized():
    Ring.ext_field(3, 2)            # memoizes the default modulus and basis
    sizes = _memo_sizes()
    for _ in range(3):
        with pytest.raises(ValueError, match="not irreducible"):
            Ring.ext_field(3, 2, modulus=(2, 0, 1))         # x^2 + 2 = (x - 1)(x + 1)
        with pytest.raises(ValueError, match="linearly dependent"):
            Ring.ext_field(3, 2, basis=[(1, 1), (2, 2)])
    assert _memo_sizes() == sizes
    assert _checked_modulus.cache_info().maxsize == TABLE_CACHE_FIELDS
    assert _basis_inverse.cache_info().maxsize == TABLE_CACHE_FIELDS


def test_ext_field_memo_keys_on_the_reduced_modulus_and_basis():
    default = Ring.ext_field(3, 2)
    explicit = Ring.ext_field(3, 2, modulus=[4, 3, 1], basis=[[1, 0], [3, 1]])
    assert explicit == default and explicit is not default     # a fresh descriptor
    assert Ring.ext_field(3, 8, modulus=list(default_modulus(3, 8)),
                          basis=[list(b) for b in Ring.ext_field(3, 8).basis]) \
        == Ring.ext_field(3, 8)
    other = Ring.ext_field(3, 2, basis=[(1, 0), (1, 1)])
    assert other != default and other.basis == ((1, 0), (1, 1))
    for code in range(9):
        x = other.decode(code)
        assert other.from_coords(other.coords(x)) == x
    assert other.coords(other.elem((1, 1))) == (0, 1)


def test_repeated_ext_field_is_memoized():
    Ring.ext_field(3, 8)
    times = []
    for _ in range(11):
        start = time.perf_counter()
        Ring.ext_field(3, 8)
        times.append(time.perf_counter() - start)
    # the modulus search, Rabin check and basis inverse take about 5 ms uncached
    assert sorted(times)[5] < 0.001


def test_table_sizes():
    t = Ring.ext_field(3, 8).tables()
    n = 3 ** 8 - 1
    assert sorted(t.exp[:n]) == list(range(1, n + 1))
    assert [len(t.exp), len(t.log), len(t.zech)] == [2 * n, n + 1, n]
    assert {t.exp.itemsize, t.log.itemsize, t.zech.itemsize} == {4}
    assert Ring.prime_field(5).tables() is None and Ring.integers_mod(3, 3).tables() is None


# -- row reduction against brute force --

def _det_mod(m, p):
    """Leibniz determinant of a square integer matrix, reduced mod p."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total % p


def test_row_reduce_full_rank_iff_nonzero_determinant():
    f3 = Ring.prime_field(3)
    for d in product(range(3), repeat=9):
        m = [d[0:3], d[3:6], d[6:9]]
        _, pivots = row_reduce(m, f3)
        assert (len(pivots) == 3) == (_det_mod(m, 3) != 0), m


NULL_RINGS = {"F_3": Ring.prime_field(3), "F_5": Ring.prime_field(5),
              "F_9": Ring.ext_field(3, 2)}


@given(data=st.data(), name=st.sampled_from(sorted(NULL_RINGS)),
       nrows=st.integers(0, 5), ncols=st.integers(1, 5))
def test_row_reduce_rank_nullity_and_kernel(data, name, nrows, ncols):
    ring = NULL_RINGS[name]
    mat = [[data.draw(st.integers(0, ring.order - 1)) for _ in range(ncols)]
           for _ in range(nrows)]
    rows, pivots = row_reduce(mat, ring)
    # reduced echelon form: increasing pivots, leading 1s, cleared pivot columns
    assert len(rows) == len(pivots) and pivots == sorted(set(pivots))
    for r, (row, col) in enumerate(zip(rows, pivots)):
        assert all(v == 0 for v in row[:col]) and row[col] == 1
        assert all(rows[s][col] == 0 for s in range(len(rows)) if s != r)
    dim, basis = _solve_nullspace([dict(enumerate(row)) for row in mat], range(ncols), ring)
    assert len(pivots) + dim == ncols
    elems = [[ring.decode(c) for c in row] for row in mat]
    for vec in basis:
        for row in elems:
            assert sum((row[c] * ring.decode(v) for c, v in vec.items()), ring.zero).is_zero()
    if ring.order ** ncols <= 1000:
        kernel = [v for v in product(list(ring.elements()), repeat=ncols)
                  if all(sum((a * b for a, b in zip(row, v)), ring.zero).is_zero()
                         for row in elems)]
        assert len(kernel) == ring.order ** dim


@given(digits=st.lists(st.integers(0, 2), min_size=9, max_size=9))
def test_ext_field_rejects_dependent_basis(digits):
    basis = [digits[0:3], digits[3:6], digits[6:9]]
    if _det_mod(basis, 3) == 0:
        with pytest.raises(ValueError, match="linearly dependent"):
            Ring.ext_field(3, 3, basis=basis)
        return
    ring = Ring.ext_field(3, 3, basis=basis)
    for k, b in enumerate(ring.basis_elems()):
        assert ring.coords(b) == tuple(int(k == i) for i in range(3))
        assert ring.from_coords(ring.coords(b)) == b


def _compares_kind_with_ext(node):
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    consts = [c for side in sides
              for c in (side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side])]
    return (any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides)
            and any(isinstance(c, ast.Constant) and c.value == "ext" for c in consts))


def test_only_rings_branches_on_extension_fields():
    # the value format of an element is decided in rings.py alone; elsewhere a
    # ring's basis, coords and regular_rep work the same on every ring
    pkg = Path(unitri.__file__).parent
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(pkg.glob("*.py")) if path.name != "rings.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if _compares_kind_with_ext(node)]
    assert offenders == []
    rings_src = ast.parse((pkg / "rings.py").read_text())
    assert any(_compares_kind_with_ext(node) for node in ast.walk(rings_src))


def test_package_code_reaches_code_operations_through_ring_ops():
    # int_ops is kept for callers outside the package; _ops is gone
    pkg = Path(unitri.__file__).parent
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(pkg.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in ("int_ops", "_ops")]
    assert offenders == []

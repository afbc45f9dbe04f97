import ast
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from hypothesis import settings

from unitri import (
    ClosureCapExceeded, DenseOps, Ring,
    UniTriWindow, closure_order, commutator, conjugate, distance, elementary,
    extend, identity, is_periodic, mat_inv, mat_mul, shift, truncate,
    valuation,
)
from unitri import matrices
from unitri.freeprod import periodic_generators
from unitri.matrices import closure_dense
from unitri.matrices import flip
from unitri.padic import ideal_partition_generators
from unitri.partitions import lower_central, rect_closure, subgroup_generators

from conftest import rand_window, rng


def test_elementary_product_completes_rectangle(f5):
    a, b = f5.elem(2), f5.elem(3)
    x = elementary(f5, 3, 1, 2, a)
    y = elementary(f5, 3, 2, 3, b)
    prod = mat_mul(x, y)
    assert prod.get(1, 2) == a
    assert prod.get(2, 3) == b
    assert prod.get(1, 3) == a * b


def test_identity_neutral(f3):
    x = rand_window(f3, 5, rng(1))
    assert mat_mul(x, identity(f3, 5)) == x
    assert mat_mul(identity(f3, 5), x) == x


def test_superdiagonal_powers_add(f3):
    e = elementary(f3, 2, 1, 2)
    assert mat_mul(e, e) == elementary(f3, 2, 1, 2, 2)


def test_inverse_examples(f3):
    assert mat_inv(elementary(f3, 2, 1, 2)) == elementary(f3, 2, 1, 2, -1)
    x = UniTriWindow(f3, 3, {(1, 2): 1, (2, 3): 1})
    # oracle: multiply the claimed inverse back
    claimed = UniTriWindow(f3, 3, {(1, 2): -1, (2, 3): -1, (1, 3): 1})
    assert mat_mul(x, claimed).is_identity()
    assert mat_inv(x) == claimed
    assert mat_inv(identity(f3, 4)).is_identity()


def test_group_axioms_random(f9):
    r = rng(2)
    for _ in range(300):
        x, y, z = (rand_window(f9, 5, r) for _ in range(3))
        assert mat_mul(mat_mul(x, y), z) == mat_mul(x, mat_mul(y, z))
        assert mat_mul(x, mat_inv(x)).is_identity()


def test_commutator_spec_cases(f7, f5):
    c = commutator(elementary(f7, 3, 1, 2, 2), elementary(f7, 3, 2, 3, 3))
    assert c == elementary(f7, 3, 1, 3, 6)
    assert commutator(elementary(f7, 4, 1, 2), elementary(f7, 4, 3, 4)).is_identity()
    c2 = commutator(elementary(f5, 3, 2, 3), elementary(f5, 3, 1, 2))
    assert c2 == elementary(f5, 3, 1, 3, 4)


def test_commutator_formula_exhaustive_window8(f5, f9):
    # [1+a e_ij, 1+b e_kl] = 1 + d_jk a b e_il - d_il a b e_kj, all index pairs
    r = rng(3)
    for ring in (f5, f9):
        pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
        for (i, j) in pairs:
            for (k, l) in pairs:
                a = ring.decode(1 + r.randrange(ring.order - 1))
                b = ring.decode(1 + r.randrange(ring.order - 1))
                got = commutator(elementary(ring, 8, i, j, a),
                                 elementary(ring, 8, k, l, b))
                entries = {}
                if j == k:
                    entries[(i, l)] = a * b
                if i == l:
                    entries[(k, j)] = entries.get((k, j), ring.zero) - a * b
                assert got == UniTriWindow(ring, 8, entries), (i, j, k, l)


def test_valuation_and_distance(f3):
    assert valuation(elementary(f3, 5, 1, 2)) == 1
    assert valuation(elementary(f3, 5, 4, 5)) == 4
    assert valuation(identity(f3, 5)) == 5  # sentinel: >= window
    assert distance(identity(f3, 5), elementary(f3, 5, 1, 2)) == Fraction(1, 3)


def test_ultrametric_inequality(f3):
    r = rng(4)
    for _ in range(1000):
        x, y, z = (rand_window(f3, 4, r) for _ in range(3))
        assert distance(x, z) <= max(distance(x, y), distance(y, z))


def test_valuation_of_product(f5):
    r = rng(5)
    for _ in range(300):
        x, y = rand_window(f5, 6, r), rand_window(f5, 6, r)
        assert valuation(mat_mul(x, y)) >= min(valuation(x), valuation(y))


def test_truncation_is_homomorphism(f9):
    r = rng(6)
    for _ in range(200):
        x, y = rand_window(f9, 7, r), rand_window(f9, 7, r)
        assert truncate(mat_mul(x, y), 4) == mat_mul(truncate(x, 4), truncate(y, 4))
        assert truncate(mat_inv(x), 4) == mat_inv(truncate(x, 4))


def test_shift_examples(f3):
    x = elementary(f3, 5, 3, 4)
    assert shift(x, 2) == elementary(f3, 3, 1, 2)
    assert shift(x, 0) == x
    with pytest.raises(ValueError):
        shift(x, 5)
    s8, _ = periodic_generators(f3, 8)
    assert shift(s8, 2) == truncate(s8, 6)


def test_shift_is_homomorphism(f3):
    r = rng(7)
    for _ in range(200):
        x, y = rand_window(f3, 6, r), rand_window(f3, 6, r)
        assert shift(mat_mul(x, y), 2) == mat_mul(shift(x, 2), shift(y, 2))


def test_periodicity(f3):
    s, t = periodic_generators(f3, 8)
    assert is_periodic(s, 2)
    assert is_periodic(t, 2)
    assert not is_periodic(elementary(f3, 5, 1, 2), 2)
    assert is_periodic(identity(f3, 5), 1)


def test_extend_sections_truncate(f3):
    x = rand_window(f3, 4, rng(8))
    assert truncate(extend(x, 6), 4) == x


def test_window_mismatch_errors(f3, f5):
    with pytest.raises(ValueError):
        mat_mul(identity(f3, 3), identity(f3, 4))
    with pytest.raises(ValueError):
        mat_mul(identity(f3, 3), identity(f5, 3))
    with pytest.raises(ValueError):
        closure_order([identity(f3, 3), identity(f3, 4)])
    with pytest.raises(ValueError):
        closure_order([identity(f3, 3), identity(f5, 3)])


def test_entry_positions_validated(f3):
    with pytest.raises(ValueError):
        UniTriWindow(f3, 3, {(2, 2): 1})
    with pytest.raises(ValueError):
        UniTriWindow(f3, 3, {(1, 4): 1})


def test_closure_single_generator(f3):
    assert closure_order([elementary(f3, 3, 1, 2)]) == 3


def test_closure_full_group_orders():
    # |G_n(q)| = q^(n(n-1)/2); enumerable sizes only (cap 2e6)
    cases = [(3, 1, 5), (5, 1, 4), (3, 2, 4)]
    for p, f, nmax in cases:
        ring = Ring.prime_field(p) if f == 1 else Ring.ext_field(p, f)
        coeffs = ring.basis_elems() if f > 1 else [ring.one]
        for n in range(2, nmax + 1):
            gens = [elementary(ring, n, i, i + 1, a)
                    for i in range(1, n) for a in coeffs]
            assert closure_order(gens) == ring.order ** (n * (n - 1) // 2)


def test_closure_keys_past_a_byte():
    # codes reach 3^45 > 2^64, so the keys stay tuples of ints
    z = Ring.integers_mod(3, 45)
    assert closure_order([elementary(z, 3, 1, 2, 3 ** 44)]) == 3


def test_closure_memory_budget(f3):
    # n = 8 staircase closure, 3^10 elements: byte keys, 16.9 MiB as code tuples
    closure_dense(list(periodic_generators(f3, 4)))  # ring and code setup off the trace
    tracemalloc.start()
    try:
        _, seen = closure_dense(list(periodic_generators(f3, 8)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seen) == 3 ** 10
    assert peak <= 8 * 2 ** 20, peak


def test_closure_free_product_window5(f3):
    s, t = periodic_generators(f3, 5)
    assert closure_order([s, t]) == 3 ** 6


def test_closure_cap_and_cancellation(f3):
    gens = [elementary(f3, 4, i, i + 1) for i in range(1, 4)]
    with pytest.raises(ClosureCapExceeded) as info:
        closure_order(gens, cap=10)
    assert info.value.partial_count > 10


def _cap_cases():
    f3, f729 = Ring.prime_field(3), Ring.ext_field(3, 6)
    yield "bytes", [elementary(f3, 4, i, i + 1) for i in range(1, 4)], 3 ** 6
    yield "tuples", [elementary(f729, 4, 2, 4, a) for a in f729.basis_elems()], 729


@pytest.mark.parametrize("gens, order", [pytest.param(g, o, id=name) for name, g, o in _cap_cases()])
def test_closure_cap_raises_one_past_the_order(gens, order):
    assert closure_order(gens, cap=order) == order
    with pytest.raises(ClosureCapExceeded) as info:
        closure_order(gens, cap=order - 1)
    assert info.value.partial_count == order


def test_dense_ops_match_sparse(f9):
    ops = DenseOps(f9, 5)
    r = rng(9)
    for _ in range(200):
        x, y = rand_window(f9, 5, r), rand_window(f9, 5, r)
        assert ops.decode(ops.mul(ops.encode(x), ops.encode(y))) == mat_mul(x, y)
        assert ops.decode(ops.inv(ops.encode(x))) == mat_inv(x)


def test_conjugate(f3):
    g = elementary(f3, 4, 1, 2)
    x = elementary(f3, 4, 2, 3)
    assert conjugate(g, x) == mat_mul(mat_mul(g, x), mat_inv(g))


def test_matrix_json_roundtrip(f9, z27):
    for ring in (f9, z27):
        x = rand_window(ring, 5, rng(10))
        assert UniTriWindow.from_json(x.to_json()) == x


# -- inverse by back-substitution against the group law (property test) --

INV_RINGS = {"F_5": Ring.prime_field(5), "F_9": Ring.ext_field(3, 2),
             "F_3^5": Ring.ext_field(3, 5), "Z/27": Ring.integers_mod(3, 3)}


@given(name=st.sampled_from(sorted(INV_RINGS)), n=st.integers(1, 14) | st.integers(100, 160),
       per_row=st.integers(0, 3), r=st.randoms(use_true_random=False))
def test_inverse_is_two_sided(name, n, per_row, r):
    # windows up to 14 are full; larger ones hold at most per_row entries a row
    ring = INV_RINGS[name]
    if n <= 14:
        cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    else:
        cells = [(i, r.randint(i + 1, n)) for i in range(1, n) for _ in range(per_row)]
    x = UniTriWindow(ring, n, {pos: ring.decode(r.randrange(ring.order)) for pos in cells})
    y = mat_inv(x)
    assert mat_mul(x, y).is_identity() and mat_mul(y, x).is_identity()


# -- the right-sparse dense product against the sparse product and an all-pairs kernel --

KERNEL_RINGS = {**INV_RINGS, "F_3^8": Ring.ext_field(3, 8)}


def all_pairs_mul(ops, x, y):
    """Reference product: (X + Y + X Y)_ik summed over every middle j, no sparsity."""
    add, mul = ops.ring.int_ops()
    out = []
    for (i, k) in ops.positions:
        v = add(x[ops.index[(i, k)]], y[ops.index[(i, k)]])
        for j in range(i + 1, k):
            v = add(v, mul(x[ops.index[(i, j)]], y[ops.index[(j, k)]]))
        out.append(v)
    return type(ops.identity)(out)


def all_pairs_closure(gens):
    ops = DenseOps(gens[0].ring, gens[0].n)
    enc = [ops.encode(g) for g in gens]
    seen = {ops.identity}
    frontier = [ops.identity]
    while frontier:
        frontier = [y for y in {all_pairs_mul(ops, x, g) for x in frontier for g in enc}
                    if y not in seen]
        seen.update(frontier)
    return seen


@given(name=st.sampled_from(sorted(KERNEL_RINGS)), n=st.integers(1, 12),
       shape=st.sampled_from(["identity", "elementary", "staircase", "window"]),
       density=st.floats(0, 1), r=st.randoms(use_true_random=False))
def test_dense_mul_matches_mat_mul(name, n, shape, density, r):
    ring = KERNEL_RINGS[name]
    x = rand_window(ring, n, r, r.random())
    if shape == "identity" or n == 1:
        y = identity(ring, n)
    elif shape == "elementary":
        i = r.randint(1, n - 1)
        a = ring.decode(1 + r.randrange(ring.order - 1))
        y = elementary(ring, n, i, r.randint(i + 1, n), a)
    elif shape == "staircase":
        y = periodic_generators(ring, n)[r.randrange(2)]
    else:
        y = rand_window(ring, n, r, density)
    ops = DenseOps(ring, n)
    assert ops.decode(ops.mul(ops.encode(x), ops.encode(y))) == mat_mul(x, y)


REUSE_RINGS = {"F_3": Ring.prime_field(3), "F_9": Ring.ext_field(3, 2),
               "Z/9": Ring.integers_mod(3, 2), "F_3^8": Ring.ext_field(3, 8)}


@given(name=st.sampled_from(sorted(REUSE_RINGS)), n=st.integers(1, 9),
       density=st.floats(0, 1), r=st.randoms(use_true_random=False))
def test_dense_mul_reuses_a_right_factor(name, n, density, r):
    # one right factor against many left factors, then as a left factor itself
    ring = REUSE_RINGS[name]
    ops = DenseOps(ring, n)
    y = rand_window(ring, n, r, density)
    ey = ops.encode(y)
    xs = [rand_window(ring, n, r, r.random()) for _ in range(6)]
    for x in xs + xs[::-1]:
        assert ops.decode(ops.mul(ops.encode(x), ey)) == mat_mul(x, y)
    for x in xs:
        assert ops.decode(ops.mul(ey, ops.encode(x))) == mat_mul(y, x)
    assert ops.decode(ops.mul(ey, ey)) == mat_mul(y, y)


def test_dense_mul_plans_stay_bounded(f9, monkeypatch):
    monkeypatch.setattr(matrices, "MAX_PLANS", 4)
    ops = DenseOps(f9, 5)
    r = rng(13)
    x = rand_window(f9, 5, r)
    for _ in range(10):
        y = rand_window(f9, 5, r)
        assert ops.decode(ops.mul(ops.encode(x), ops.encode(y))) == mat_mul(x, y)
        assert len(ops._plans) <= 4


def test_dense_mul_cost_follows_right_nonzeros(f9):
    # x e_jk makes one ring product per nonzero x_ij above row j, and one more
    # ring sum for e_jk itself: O(n), not one sum per position
    n = 9
    ops = DenseOps(f9, n)
    counts = {"add": 0, "mul": 0}
    add, mul = ops._add, ops._mul

    def counted_add(a, b):
        counts["add"] += 1
        return add(a, b)

    def counted_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    ops._add, ops._mul = counted_add, counted_mul
    x = rand_window(f9, n, rng(11), density=0.5)
    ex = ops.encode(x)
    for (j, k) in ops.positions:
        counts.update(add=0, mul=0)
        ops.mul(ex, ops.encode(elementary(f9, n, j, k, f9.gen())))
        products = sum(1 for i in range(1, j) if not x.get(i, j).is_zero())
        assert counts == {"add": products + 1, "mul": products}, (j, k)


def _closure_cases():
    f3, f9, z9 = Ring.prime_field(3), Ring.ext_field(3, 2), Ring.integers_mod(3, 2)
    for n in range(2, 7):
        yield f"staircase-n{n}", list(periodic_generators(f3, n))
    yield "F_3 lower-central:2 n5", subgroup_generators(lower_central(2), f3, 5)
    yield "F_3 rect n5", subgroup_generators(rect_closure([(1, 2), (2, 4), (4, 5)], 5), f3, 5)
    yield "F_9 lower-central:2 n4", subgroup_generators(lower_central(2), f9, 4)
    yield "Z/9 lower-central:2 n4", subgroup_generators(lower_central(2), z9, 4)
    yield "Z/27 ideal k1 n3", ideal_partition_generators(lower_central(1), 1, 3, 3)
    f729 = Ring.ext_field(3, 6)  # codes past a byte: tuple keys
    yield "F_3^6 one square n4", [elementary(f729, 4, 2, 4, a) for a in f729.basis_elems()]


@pytest.mark.parametrize("gens", [pytest.param(gens, id=name) for name, gens in _closure_cases()])
def test_closure_matches_all_pairs_kernel(gens):
    _, seen = closure_dense(gens)
    assert seen == all_pairs_closure(gens)


# -- code-stored windows against RingElem-dict arithmetic and the API boundary --

CODE_RINGS = {**INV_RINGS, "F_257^2": Ring.ext_field(257, 2)}  # above TABLE_MAX_ORDER


def ref_mul(ring, n, x, y):
    """(1 + X)(1 + Y) on dicts of RingElem, summing over every middle index."""
    z = ring.zero
    return {(i, k): x.get((i, k), z) + y.get((i, k), z)
            + sum((x.get((i, j), z) * y.get((j, k), z) for j in range(i + 1, k)), z)
            for i in range(1, n + 1) for k in range(i + 1, n + 1)}


def ref_inv(ring, n, x):
    """Back-substitution on dicts of RingElem: y_ik = -(x_ik + sum_j y_ij x_jk)."""
    z = ring.zero
    y = {}
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            y[(i, k)] = -(x.get((i, k), z)
                          + sum((y[(i, j)] * x.get((j, k), z) for j in range(i + 1, k)), z))
    return y


def nonzero(d):
    return {pos: v for pos, v in d.items() if not v.is_zero()}


@given(name=st.sampled_from(sorted(CODE_RINGS)), n=st.integers(1, 14),
       density=st.floats(0, 1), r=st.randoms(use_true_random=False))
def test_code_windows_match_ring_elem_arithmetic(name, n, density, r):
    ring = CODE_RINGS[name]
    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def values():
        return {pos: ring.decode(r.randrange(ring.order)) for pos in cells
                if r.random() < density}

    vx, vy = values(), values()
    x, y = UniTriWindow(ring, n, vx), UniTriWindow(ring, n, vy)
    assert dict(mat_mul(x, y).items()) == nonzero(ref_mul(ring, n, vx, vy))
    assert dict(mat_inv(x).items()) == nonzero(ref_inv(ring, n, vx))
    # the boundary: RingElems in and out, zeros dropped
    assert dict(x.items()) == nonzero(vx)
    assert all(isinstance(v, type(ring.zero)) and v.ring == ring for _, v in x.items())
    assert all(x.get(*pos) == vx.get(pos, ring.zero) for pos in cells)
    ints = {pos: r.randrange(-2 * ring.order, 2 * ring.order) for pos in cells
            if r.random() < density}
    from_ints = UniTriWindow(ring, n, ints)
    from_elems = UniTriWindow(ring, n, {pos: ring.elem(c) for pos, c in ints.items()})
    assert from_ints == from_elems and hash(from_ints) == hash(from_elems)
    ops = DenseOps(ring, n)
    assert ops.decode(ops.encode(x)) == x


def ref_valuation(n, x):
    """Largest m with x zero on the leading m x m block, n for x zero."""
    return min((j for (_, j), v in x.items() if not v.is_zero()), default=n + 1) - 1


@given(name=st.sampled_from(sorted(CODE_RINGS)), n=st.integers(1, 14), m=st.integers(0, 14),
       density=st.floats(0, 1), r=st.randoms(use_true_random=False))
def test_quotients_match_their_definitions(name, n, m, density, r):
    # y copies the leading m x m block of x, so that d(x, y) ranges over 0..n
    ring = CODE_RINGS[name]
    m = min(m, n)
    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def values():
        return {pos: ring.decode(r.randrange(ring.order)) for pos in cells
                if r.random() < density}

    vx, vg = values(), values()
    vy = {pos: v for pos, v in values().items() if pos[1] > m}
    vy.update({pos: v for pos, v in vx.items() if pos[1] <= m})
    x, y, g = (UniTriWindow(ring, n, v) for v in (vx, vy, vg))
    want = ref_mul(ring, n, ref_mul(ring, n, ref_inv(ring, n, vx), ref_inv(ring, n, vy)),
                   ref_mul(ring, n, vx, vy))
    assert dict(commutator(x, y).items()) == nonzero(want)
    want = ref_mul(ring, n, ref_mul(ring, n, vg, vx), ref_inv(ring, n, vg))
    assert dict(conjugate(g, x).items()) == nonzero(want)
    v = ref_valuation(n, ref_mul(ring, n, ref_inv(ring, n, vx), vy))
    assert v >= m
    assert distance(x, y) == Fraction(1, ring.p) ** v


def test_distance_reads_entries_not_products():
    # two full windows at n = 300 that first differ in column 251; the two
    # products of x^-1 y would cost O(n^3) ring operations
    ring, n = Ring.prime_field(5), 300
    rows = {i: {j: 1 + (i * j) % 4 for j in range(i + 1, n + 1)} for i in range(1, n)}
    x = UniTriWindow.from_rows(ring, n, rows)
    y = UniTriWindow.from_rows(ring, n, {**rows, 7: {**rows[7], 251: rows[7][251] % 4 + 1}})
    start = time.perf_counter()
    d = distance(x, y)
    elapsed = time.perf_counter() - start
    assert d == Fraction(1, 5) ** 250
    assert distance(x, x) == Fraction(1, 5) ** n
    assert elapsed <= 0.5


def test_only_matrices_reads_closure_layout():
    # the dense-key layout of a closure (DenseOps.positions, index, right) is
    # read in matrices.py alone; calls such as a window's positions() are not
    # reads of it
    layout = {"positions", "index", "right"}
    pkg = Path(matrices.__file__).parent
    offenders = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "matrices.py":
            continue
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in layout
                      and id(node) not in called]
    assert offenders == []
    own = {node.attr for node in ast.walk(ast.parse(Path(matrices.__file__).read_text()))
           if isinstance(node, ast.Attribute)}
    assert layout <= own


# -- rows against the position-dict references, full and sparse windows --

ROW_RINGS = {name: CODE_RINGS[name] for name in ("F_5", "F_9", "F_3^5", "F_257^2", "Z/27")}


def sparse_ref_mul(ring, x, y):
    """ref_mul over the nonzero pairs alone, for windows too large to sum densely."""
    z = ring.zero
    out = {pos: x.get(pos, z) + y.get(pos, z) for pos in x.keys() | y.keys()}
    for (i, j), a in x.items():
        for (jj, k), b in y.items():
            if jj == j:
                out[(i, k)] = out.get((i, k), z) + a * b
    return out


def ref_window_values(ring, n, r):
    """Full windows up to n = 12, and windows of 0-3 entries a row above."""
    if n <= 12:
        cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    else:
        per_row = r.randint(0, 3)
        cells = {(i, r.randint(i + 1, n)) for i in range(1, n) for _ in range(per_row)}
    return {pos: ring.decode(r.randrange(ring.order)) for pos in cells}


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(ROW_RINGS)), n=st.integers(1, 12) | st.integers(100, 160),
       r=st.randoms(use_true_random=False))
def test_row_kernels_match_references(name, n, r):
    ring = ROW_RINGS[name]
    vx, vy = ref_window_values(ring, n, r), ref_window_values(ring, n, r)
    x, y = UniTriWindow(ring, n, vx), UniTriWindow(ring, n, vy)
    ref = ref_mul if n <= 12 else (lambda ring, n, a, b: sparse_ref_mul(ring, a, b))
    xy, yx = nonzero(ref(ring, n, vx, vy)), nonzero(ref(ring, n, vy, vx))
    assert dict(mat_mul(x, y).items()) == xy
    xi = dict(mat_inv(x).items())
    if n <= 12:
        assert xi == nonzero(ref_inv(ring, n, vx))
    assert not nonzero(ref(ring, n, vx, xi)) and not nonzero(ref(ring, n, xi, vx))
    # y x [x, y] = x y and (g x g^-1) g = g x, with g = y
    c = dict(commutator(x, y).items())
    assert nonzero(ref(ring, n, yx, c)) == xy
    k = dict(conjugate(y, x).items())
    assert nonzero(ref(ring, n, k, vy)) == yx
    m = n + 1
    assert dict(flip(x).items()) == {(m - j, m - i): v for (i, j), v in nonzero(vx).items()}
    assert flip(mat_mul(x, y)) == mat_mul(flip(y), flip(x))
    t = r.randint(1, n)
    assert dict(truncate(x, t).items()) == {(i, j): v for (i, j), v in nonzero(vx).items() if j <= t}
    d = r.randrange(n)
    assert dict(shift(x, d).items()) == {(i - d, j - d): v for (i, j), v in nonzero(vx).items()
                                         if i > d}
    # w agrees with x on the leading t x t block, so d(x, w) = p^-v with v >= t
    vt = {pos: v for pos, v in vy.items() if pos[1] > t}
    vt.update({pos: v for pos, v in vx.items() if pos[1] <= t})
    v = ref_valuation(n, nonzero(sparse_ref_mul(ring, xi, vt)))
    assert v >= t
    assert distance(x, UniTriWindow(ring, n, vt)) == Fraction(1, ring.p) ** v


def ref_is_periodic(n, d, vals, zero):
    return all(vals.get((i, j), zero) == vals.get((i + d, j + d), zero)
               for i in range(1, n - d + 1) for j in range(i + 1, n - d + 1))


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(ROW_RINGS)), n=st.integers(2, 12) | st.integers(100, 160),
       perturb=st.booleans(), r=st.randoms(use_true_random=False))
def test_is_periodic_matches_every_position(name, n, perturb, r):
    # a window with period d on its stored pattern, then perhaps one entry moved
    ring = ROW_RINGS[name]
    d = r.randint(1, min(n - 1, 4))
    offsets = range(1, n) if n <= 12 else r.sample(range(1, n), 3)
    pattern = {(s, o): ring.decode(r.randrange(ring.order)) for s in range(d) for o in offsets}
    vals = {(i, i + o): pattern[(i % d, o)] for i in range(1, n) for o in offsets if i + o <= n}
    if perturb:
        i = r.randint(1, n - 1)
        vals[(i, r.randint(i + 1, n))] = ring.decode(r.randrange(ring.order))
    x = UniTriWindow(ring, n, vals)
    assert is_periodic(x, d) == ref_is_periodic(n, d, vals, ring.zero)
    if not perturb:
        assert is_periodic(x, d)


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(ROW_RINGS)), n=st.integers(1, 12) | st.integers(100, 160),
       r=st.randoms(use_true_random=False))
def test_window_builders_agree(name, n, r):
    # the constructor (zeros included), from_rows and a kernel's output
    ring = ROW_RINGS[name]
    vals = ref_window_values(ring, n, r)
    built = UniTriWindow(ring, n, vals)
    rows = {}
    for (i, j), v in vals.items():
        if v.code:
            rows.setdefault(i, {})[j] = v.code
    coded = UniTriWindow.from_rows(ring, n, rows)
    kernel = mat_mul(identity(ring, n), mat_inv(mat_inv(built)))
    want = tuple(sorted((pos, v.code) for pos, v in vals.items() if v.code))
    for w in (coded, kernel):
        assert w == built and hash(w) == hash(built) and w.key() == built.key()
    assert built.key() == want and built.rows() == rows
    assert all(row for row in kernel.rows().values())
    assert all(c for row in kernel.rows().values() for c in row.values())


ROW_UPDATE_RINGS = {"F_5": Ring.prime_field(5), "F_9": Ring.ext_field(3, 2),
                    "F_3^5": Ring.ext_field(3, 5), "F_257^2": Ring.ext_field(257, 2),
                    "Z/27": Ring.integers_mod(3, 3)}


@given(name=st.sampled_from(sorted(ROW_UPDATE_RINGS)), neg=st.booleans(),
       r=st.randoms(use_true_random=False))
def test_row_update_matches_add_and_mul(name, neg, r):
    # acc may hold zeros, coefficients and row codes are nonzero; one entry
    # of acc is set to cancel its update exactly
    ring = ROW_UPDATE_RINGS[name]
    ops = ring.ops
    q = ring.order

    def code():
        return 1 + r.randrange(q - 1)

    cols = range(1, 9)
    acc = {k: r.randrange(q) for k in cols if r.random() < 0.5}
    coeffs = {j: code() for j in cols if r.random() < 0.5}
    rows = {j: {k: code() for k in cols if k > j and r.random() < 0.5} for j in cols}
    rows = {j: row for j, row in rows.items() if row and r.random() < 0.8}
    if coeffs and rows.keys() & coeffs.keys():
        j = min(rows.keys() & coeffs.keys())
        k, v = next(iter(rows[j].items()))
        a = ops.neg(coeffs[j]) if neg else coeffs[j]
        acc[k] = ops.neg(ops.mul(a, v))
    want = dict(acc)
    for j, a in coeffs.items():
        a = ops.neg(a) if neg else a
        want[j] = ops.add(want.get(j, 0), a)
        for k, v in rows.get(j, {}).items():
            want[k] = ops.add(want.get(k, 0), ops.mul(a, v))
    got = dict(acc)
    ops.addrows(got, coeffs, rows, neg)
    assert ops.clean(got) == {k: v for k, v in want.items() if v}


def test_row_update_cancels_and_multiplies_zero_divisors():
    # over Z/27, 3 * 9 = 0 and 9 + 18 = 0: both leave no entry behind
    ops = Ring.integers_mod(3, 3).ops
    acc = {2: 18, 5: 4}
    ops.addrows(acc, {1: 3, 2: 9}, {1: {3: 9}, 2: {5: 3}})
    assert ops.clean(acc) == {1: 3, 5: 4}
    acc = {3: 13}
    ops.addrows(acc, {2: 1}, {2: {3: 14}})
    assert ops.clean(acc) == {2: 1}


def test_kernels_on_elementary_windows_at_a_million():
    # O(1) in the window: no scan of the n^2/2 positions
    ring, n = Ring.prime_field(3), 10 ** 6
    x, y = elementary(ring, n, 1, 2), elementary(ring, n, 2, 3, 2)
    start = time.perf_counter()
    inv = mat_inv(elementary(ring, n, 7, n, 2))
    comm = commutator(x, y)
    elapsed = time.perf_counter() - start
    assert inv == elementary(ring, n, 7, n, 1)
    assert comm == elementary(ring, n, 1, 3, 2)
    assert elapsed <= 0.05


def test_is_periodic_reads_stored_entries_only(f3):
    # n = 10^5 has 5 * 10^9 positions; the staircase has 10^5 entries
    s, t = periodic_generators(f3, 10 ** 5)
    start = time.perf_counter()
    assert is_periodic(s, 2) and is_periodic(t, 2)
    assert not is_periodic(s, 1)
    assert not is_periodic(mat_mul(s, elementary(f3, 10 ** 5, 5, 9)), 2)
    assert time.perf_counter() - start <= 1.0


def test_only_matrices_touches_window_rows():
    # the row storage of a window is read through rows() outside matrices.py
    pkg = Path(matrices.__file__).parent
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(pkg.glob("*.py")) if path.name != "matrices.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr == "_rows"]
    assert offenders == []
    own = {node.attr for node in ast.walk(ast.parse(Path(matrices.__file__).read_text()))
           if isinstance(node, ast.Attribute)}
    assert "_rows" in own

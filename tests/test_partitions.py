import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import unitri
from unitri import (
    Partition, PartitionDiagram, Tail, TailUndetermined, UniTriWindow,
    centre_preimage, closure_dense, commutator, commutator_with_group,
    congruence_level, conjugate, derived_series, dim_sequence_partition,
    elementary, family, format_partition, identity, lattice_intersect,
    lattice_union, lower_central, mat_inv, mat_mul, membership,
    parse_partition, parse_squares, rect_closure, rectangular, staircase,
    string_decompose, subgroup_generators,
)
from unitri.partitions import AFFINE, CONST, EMPTY

from conftest import rand_window, rng


def D(window, squares, tail=Tail.empty()):
    return PartitionDiagram(window, squares, tail)


# -- rectangle closure and the lattice --

def test_rect_closure_examples():
    assert rect_closure([(1, 2), (2, 3)], 3).squares == {(1, 2), (2, 3), (1, 3)}
    assert rect_closure([(3, 4)], 4).squares == {(3, 4)}
    # oracle: iterate the completion rule by hand until stable
    got = rect_closure([(1, 2), (2, 3), (3, 4)], 4).squares
    assert got == {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}


def test_rect_closure_idempotent():
    r = rng(20)
    for _ in range(100):
        sq = {(r.randrange(1, 6), r.randrange(2, 7)) for _ in range(5)}
        sq = {(a, b) for (a, b) in sq if a < b}
        mu = rect_closure(sq, 6)
        assert rect_closure(mu.squares, 6) == mu


def test_unclosed_sets_rejected():
    with pytest.raises(ValueError):
        PartitionDiagram(3, [(1, 2), (2, 3)])


def _random_diagram(r, window=6):
    sq = {(r.randrange(1, window), r.randrange(2, window + 1)) for _ in range(4)}
    return rect_closure({(a, b) for (a, b) in sq if a < b}, window)


def test_lattice_laws():
    r = rng(21)
    for _ in range(200):
        a, b = _random_diagram(r), _random_diagram(r)
        u = lattice_union(a, b)
        i = lattice_intersect(a, b)
        assert a.is_subset(u) and b.is_subset(u)
        assert i.is_subset(a) and i.is_subset(b)
        # absorption
        assert lattice_union(a, lattice_intersect(a, b)) == a
        assert lattice_intersect(a, lattice_union(a, b)) == a
        assert lattice_intersect(a, a) == a


def test_partition_height_combination():
    u = lattice_union(Partition([0, 1, 1]), Partition([0, 0, 2]))
    assert u == Partition([0, 1, 2])
    i = lattice_intersect(Partition([0, 1, 1]), Partition([0, 0, 2]))
    assert i == Partition([0, 0, 1])


def test_union_completes_rectangles():
    u = lattice_union(D(5, [(3, 4)]), D(5, [(4, 5)]))
    assert u.squares == {(3, 4), (4, 5), (3, 5)}


def test_mixed_tail_union_intersect():
    g2 = lower_central(2)
    rect = rectangular(3, 2)
    u = lattice_union(g2, rect)
    i = lattice_intersect(g2, rect)
    for j in range(2, 12):
        hu = max(len(g2.column(j)), len(rect.column(j)))
        hi = min(len(g2.column(j)), len(rect.column(j)))
        assert len(u.column(j)) == hu, j
        assert len(i.column(j)) == hi, j


# -- max subpartition --

def test_max_subpartition_cases():
    assert D(3, [(1, 3), (2, 3)]).max_subpartition() == Partition([0, 2])
    assert D(3, [(2, 3)]).max_subpartition() == Partition([0, 0])
    assert D(4, [(1, 4), (3, 4)]).max_subpartition().parts == [0, 0, 1]


# -- orthogonal diagram and centre --

def brute_orthogonal_squares(mu, w, probe=40):
    rows = set()
    cols = set()
    for j in range(2, probe + 1):
        for i in mu.column(j):
            rows.add(i)
            cols.add(j)
    return {(k, l) for k in range(1, w + 1) for l in range(k + 1, w + 1)
            if k not in cols and l not in rows}


def test_orthogonal_single_square_example():
    mu = D(4, [(3, 4)])
    perp = mu.orthogonal()
    assert not perp.tail_exact
    got = {s for s in perp.squares}
    assert got == brute_orthogonal_squares(mu, perp.window)
    assert mu.centre() == mu


def test_orthogonal_of_empty_is_everything():
    mu = D(3, [])
    perp = mu.orthogonal()
    assert perp.is_open()
    assert perp.has_square(1, 100)


def test_orthogonal_full_window_example():
    full = rect_closure([(i, j) for i in range(1, 5) for j in range(i + 1, 6)], 5)
    perp = full.orthogonal()
    in_window = {s for s in perp.squares if s[1] <= 5}
    assert in_window == {(1, 5)}


def test_orthogonal_matches_predicate_on_tailed_families():
    for mu in (lower_central(2), rectangular(3, 2), congruence_level(2)):
        perp = mu.orthogonal()
        want = brute_orthogonal_squares(mu, perp.window)
        assert set(perp.squares) == want
        if perp.tail_exact:
            big = perp.materialize(perp.window + 6)
            want_big = brute_orthogonal_squares(mu, perp.window + 6, probe=60)
            assert set(big.squares) == want_big


def test_centre_of_rectangular_is_itself():
    mu = rectangular(3, 3)
    assert mu.centre() == mu  # abelian family


# -- normal core / closure --

def test_normal_core_examples():
    assert D(4, [(3, 4)]).normal_core() == Partition([0, 0, 0])
    nc = congruence_level(3)
    assert nc.normal_core() == nc
    g2 = lower_central(2)
    assert g2.normal_core() == g2


def _materialize_subgroup(mu, ring, n):
    gens = subgroup_generators(mu, ring, n)
    if not gens:
        ops = closure_dense([identity(ring, n)])[0]
        return ops, {ops.identity}
    return closure_dense(gens)


def conjugate_core_oracle(mu, ring, n):
    """Largest sub*set* of P_mu stable under conjugation by all elementary
    generators; for subgroups this is the normal core."""
    ops, current = _materialize_subgroup(mu, ring, n)
    gens = [elementary(ring, n, i, i + 1, a)
            for i in range(1, n)
            for a in ([ring.one] if ring.kind != "ext" else ring.basis_elems())]
    gens = [g for pair in ((g, mat_inv(g)) for g in gens) for g in pair]
    enc = [(ops.encode(g), ops.encode(mat_inv(g))) for g in gens]
    changed = True
    while changed:
        changed = False
        for g, ginv in enc:
            keep = {x for x in current if ops.mul(ops.mul(g, x), ginv) in current}
            if keep != current:
                current = keep
                changed = True
    return current


def test_normal_core_against_conjugation_oracle(f3):
    # window semantics equals infinite semantics on tail-total families and
    # on diagrams whose maximal subpartition already dies out
    cases = (D(5, [(3, 4)]), D(5, [(2, 3), (2, 4), (3, 4)]),
             Partition([1, 1, 1, 1], Tail.const(1)),
             Partition([0, 2, 2, 3], Tail.const(3)),
             lower_central(2, window=5), rectangular(2, 2))
    for mu in cases:
        core = mu.normal_core()
        ops, _ = _materialize_subgroup(mu, f3, 5)
        oracle = conjugate_core_oracle(mu, f3, 5)
        _, want = _materialize_subgroup(core, f3, 5)
        assert {ops.decode(t) for t in oracle} == \
            {ops.decode(t) for t in want}, core


def test_normal_closure_single_square():
    clo = D(6, [(3, 4)]).normal_closure()
    assert clo == Partition([0, 0, 3], Tail.const(3))
    assert clo.is_normal()


def test_normal_closure_bfs_oracle(f3):
    # oracle: BFS closure of all elementary-generator conjugates of 1+e_34
    n = 6
    seed = elementary(f3, n, 3, 4)
    gens = [elementary(f3, n, i, i + 1, a) for i in range(1, n) for a in (f3.one,)]
    frontier = [seed]
    seen = {seed.key(): seed}
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (conjugate(g, x), conjugate(mat_inv(g), x)):
                    if y.key() not in seen:
                        seen[y.key()] = y
                        nxt.append(y)
        frontier = nxt
    from unitri import closure_order
    order = closure_order(list(seen.values()))
    clo = D(n, [(3, 4)]).normal_closure()
    assert order == 3 ** clo.count_upto(n)


def test_normal_closure_fixed_points():
    for mu in (lower_central(3), rectangular(2, 2), congruence_level(2)):
        assert mu.normal_closure() == mu
        assert mu.normal_core() == mu
    extra = D(5, [(2, 3), (2, 4), (3, 4)])
    clo = extra.normal_closure()
    assert extra.is_subset(clo) and clo.is_normal()
    assert clo.normal_closure() == clo
    core = extra.normal_core()
    assert core.is_subset(extra)
    assert core.normal_core() == core


def test_covered_squares_oracle_for_closure():
    mu = D(6, [(2, 3), (4, 5)])
    clo = mu.normal_closure()
    want = set()
    for (r, c) in mu.squares:
        want |= {(i, j) for i in range(1, r + 1) for j in range(c, 7)}
    assert clo.materialize(6).squares == want


# -- normality and openness --

def test_is_normal_examples():
    for d in range(1, 5):
        assert lower_central(d).is_normal()
        assert not lower_central(d + 1).is_open()
    assert lower_central(1).is_open()
    nc = congruence_level(3)
    assert nc.is_normal() and nc.is_open()
    gap = rect_closure([(i, i + 2) for i in range(1, 5)], 6)
    assert not gap.is_normal()


def _conjugation_stable(mu, ring, n):
    gens = [elementary(ring, n, i, i + 1) for i in range(1, n)]
    ops, elems = _materialize_subgroup(mu, ring, n)
    for g in gens:
        ge, gi = ops.encode(g), ops.encode(mat_inv(g))
        if {ops.mul(ops.mul(ge, x), gi) for x in elems} != elems:
            return False
    return True


def test_is_normal_matches_conjugation(f3):
    # stability of the materialized subgroup in the finite window group is
    # exactly "monotone partition shape inside the window"; the infinite
    # is_normal additionally constrains the tail and implies stability
    r = rng(22)
    mus = [_random_diagram(r, 5) for _ in range(25)]
    mus += [Partition([0, 1, 1, 2]), Partition([1, 0, 0, 0]),
            Partition([0, 0, 2, 2]),
            rect_closure([(i, i + 2) for i in range(1, 4)], 5)]
    for mu in mus:
        if mu.count_upto(5) > 7:
            continue
        stable = _conjugation_stable(mu, f3, 5)
        hs_ok = mu.is_partition() and all(
            a <= b for a, b in zip(mu.max_subpartition().parts,
                                   mu.max_subpartition().parts[1:]))
        assert stable == hs_ok, mu
        if mu.is_normal():
            assert stable


def test_is_normal_matches_conjugation_on_tailed_families(f3):
    cases = [(lower_central(2, window=5), True),
             (congruence_level(2, window=5), True),
             (rectangular(2, 2), True),
             (staircase([2, 3]), True),
             (rect_closure([(i, i + 2) for i in range(1, 4)], 5), False),
             (D(5, [(3, 4)]), False)]
    for mu, want in cases:
        assert mu.is_normal() == want
        assert _conjugation_stable(mu, f3, 5) == want


# -- counting --

def test_count_upto_full_and_tail():
    full = congruence_level(1)
    for n in (5, 10, 20):
        assert full.count_upto(n) == n * (n - 1) // 2
    g3 = lower_central(3)
    assert g3.count_upto(10) == sum(max(j - 3, 0) for j in range(2, 11))
    rect = rectangular(4, 2)
    assert rect.count_upto(12) == sum(min(len(rect.column(j)), j - 1) for j in range(2, 13))


def test_quotient_order_lower_central():
    for d in range(1, 6):
        mu = lower_central(d)
        for n in range(d, 9):
            assert mu.quotient_order(n, 3) == 3 ** ((n + 1 - d) * (n - d) // 2)


# -- membership and generators --

def test_membership_basics(f3):
    mu = D(4, [(3, 4)])
    assert membership(identity(f3, 4), mu)
    assert membership(elementary(f3, 4, 3, 4), mu)
    assert not membership(elementary(f3, 4, 1, 2), mu)


def test_materialized_subgroup_stays_supported(f3):
    mu = rect_closure([(1, 3), (3, 5), (2, 4)], 5)
    ops, elems = _materialize_subgroup(mu, f3, 5)
    assert len(elems) == 3 ** mu.count_upto(5)
    for t in list(elems)[:200]:
        assert membership(ops.decode(t), mu)


# -- bracket and centre-preimage rules --

def test_bracket_walks_lower_central_series():
    assert commutator_with_group(lower_central(1)) == lower_central(2)
    for d in range(1, 6):
        assert commutator_with_group(lower_central(d)) == lower_central(d + 1)


def test_bracket_rectangular_deletes_corner():
    # corner square (c, c+2) goes; heights are 0^c, c-1, then c again
    for c in (2, 3, 4):
        out = commutator_with_group(rectangular(c, c))
        hts = [len(out.column(j)) for j in range(2, c + 5)]
        assert hts == [0] * c + [c - 1, c, c]
        assert out.is_normal()


def test_bracket_requires_normal():
    with pytest.raises(ValueError):
        commutator_with_group(Partition([1, 0, 0]))


def commutator_closure_oracle(mu, ring, n):
    from unitri import closure_order
    gens_p = subgroup_generators(mu, ring, n)
    gens_g = [elementary(ring, n, i, i + 1) for i in range(1, n)]
    comms = [commutator(a, b) for a in gens_p for b in gens_g]
    comms = [c for c in comms if not c.is_identity()]
    if not comms:
        return 1
    return closure_order(comms)


def test_bracket_matches_commutator_closure(f3):
    for mu in (lower_central(1), lower_central(2), rectangular(2, 2)):
        out = commutator_with_group(mu)
        assert commutator_closure_oracle(mu, f3, 5) == 3 ** out.count_upto(5)


def test_centre_preimage_cases():
    triv = Partition([0, 0, 0])
    assert centre_preimage(triv) == triv  # the infinite group is centreless
    g2 = lower_central(2)
    assert centre_preimage(g2) == lower_central(1)  # G/[G,G] abelian
    for c in (2, 3):
        # one square sprouts at (1, c+1); the rectangle itself persists
        out = centre_preimage(rectangular(c, c))
        hts = [len(out.column(j)) for j in range(2, c + 5)]
        assert hts == [0] * (c - 1) + [1, c, c, c]
        assert rectangular(c, c).is_subset(out)


def test_centre_preimage_centrality_oracle(f3):
    # x in the preimage iff [x, every generator] lands back in P_mu; probes
    # for the last column need the next window, so sample x one column short
    from unitri import extend
    n = 5
    for mu in (lower_central(2, window=n), rectangular(2, 2)):
        out = centre_preimage(mu)
        gens = [elementary(f3, n, i, i + 1) for i in range(1, n)]
        r = rng(23)
        for _ in range(150):
            x = extend(rand_window(f3, n - 1, r), n)
            central = all(membership(commutator(x, g), mu) for g in gens)
            assert central == membership(x, out)


# -- families --

def test_family_shapes():
    assert lower_central(2).parts == [0]
    assert lower_central(2, window=6).parts == [0, 1, 2, 3, 4]
    assert derived_series(3).parts[:4] == [0, 0, 0, 1] or \
        derived_series(3, window=6).parts == [0, 0, 0, 1, 2]
    assert derived_series(2) == lower_central(2)
    assert rectangular(3, 2).tail == Tail.const(2)
    assert congruence_level(1) == lower_central(1)
    assert family("rectangular", 2, 2) == rectangular(2, 2)
    with pytest.raises(ValueError):
        rectangular(2, 3)
    with pytest.raises(ValueError):
        family("no-such", 1)


def test_rectangular_maximal_abelian(f3):
    # every pair in the materialized subgroup commutes
    mu = rectangular(2, 2)
    ops, elems = _materialize_subgroup(mu, f3, 5)
    elems = list(elems)
    assert len(elems) == 3 ** 4
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            assert ops.mul(a, b) == ops.mul(b, a)


def test_staircase_heights():
    mu = staircase([2, 2, 2])
    assert mu.parts == [0, 2, 2, 4, 4]
    assert mu.is_normal()
    assert staircase([3]).parts == [0, 0]


# -- string decomposition --

def test_string_decompose_roundtrip(f3):
    blocks = (2, 2, 2)
    mu = staircase(blocks)
    r = rng(24)
    for _ in range(200):
        x = rand_window(f3, 6, r)
        p, s = string_decompose(x, blocks)
        assert mat_mul(p, s) == x
        assert membership(p, mu)
        for (i, j), _ in s.items():
            assert (i <= 2) == (j <= 2) and (i >= 5) == (j >= 5)


def test_string_decompose_edge_cases(f3):
    blockdiag = UniTriWindow(f3, 4, {(1, 2): 1, (3, 4): 2})
    p, s = string_decompose(blockdiag, (2, 2))
    assert p.is_identity() and s == blockdiag
    cross = UniTriWindow(f3, 4, {(1, 3): 1, (2, 4): 2})
    p, s = string_decompose(cross, (2, 2))
    assert s.is_identity() and p == cross
    with pytest.raises(ValueError):
        string_decompose(blockdiag, (2, 3))


# -- centraliser law, cross-checked with the linear solver --

def test_centralizer_law_random_diagrams(f3):
    from unitri import centralizer_solve
    r = rng(25)
    mus = [_random_diagram(r, 5) for _ in range(20)]
    for mu in mus:
        gens = subgroup_generators(mu, f3, 5)
        if not gens:
            continue
        dim, basis = centralizer_solve(gens, f3, 5)
        perp = mu.orthogonal()
        want = {(i, j) for i in range(1, 6) for j in range(i + 1, 6)
                if perp.has_square(i, j)}
        assert dim == len(want), mu
        for b in basis:
            assert b.positions() <= want


# -- tails and undetermined behaviour --

def test_tail_undetermined_raises():
    mu = D(4, [(3, 4)]).orthogonal()
    assert not mu.tail_exact
    with pytest.raises(TailUndetermined):
        mu.count_upto(mu.window + 1)
    with pytest.raises(TailUndetermined):
        mu.is_normal()
    # inside the window everything still works
    assert mu.count_upto(mu.window) > 0


def test_tail_validation():
    with pytest.raises(ValueError):
        PartitionDiagram(3, [], Tail.const(5))
    with pytest.raises(ValueError):
        PartitionDiagram(3, [], Tail.affine(6))
    with pytest.raises(ValueError):
        Tail.affine(0)
    assert Tail.const(0) == Tail.empty()


def test_semantic_equality_across_windows():
    assert lower_central(2, window=4) == lower_central(2, window=9)
    assert Partition([0, 0]) == Partition([0, 0, 0, 0])
    assert congruence_level(2, window=3) == congruence_level(2, window=7)


# -- text and json round trips --

def test_partition_text_roundtrip():
    for mu in (lower_central(2), rectangular(3, 2), Partition([0, 1, 1, 3]),
               congruence_level(4)):
        text = format_partition(mu)
        assert parse_partition(text) == mu
    assert parse_partition("(0^1|tail=affine:2)") == lower_central(2)
    assert format_partition(lower_central(2)) == "(0|tail=affine:2)"


def test_partition_json_roundtrip():
    mu = rectangular(3, 2)
    as_json = {"parts": mu.parts, "tail": mu.tail.to_json()}
    assert PartitionDiagram.from_json(json.loads(json.dumps(as_json))) == mu
    diag = D(4, [(3, 4)])
    assert PartitionDiagram.from_json(diag.to_json()) == diag


def test_parse_squares():
    assert parse_squares("(3,4);(1,2)") == [(3, 4), (1, 2)]
    assert parse_squares("(3,4) (1,2)") == [(3, 4), (1, 2)]


# -- heights against explicit square sets (property tests) --

@st.composite
def tailed_parts(draw):
    window = draw(st.integers(2, 12))
    parts = [draw(st.integers(0, j - 1)) for j in range(2, window + 1)]
    kind = draw(st.sampled_from([EMPTY, CONST, AFFINE]))
    if kind == CONST:
        tail = Tail.const(draw(st.integers(0, window)))
    elif kind == AFFINE:
        tail = Tail.affine(draw(st.integers(1, window + 1)))
    else:
        tail = Tail.empty()
    return window, parts, tail


def _oracle_count(window, squares, tail, n):
    inside = sum(1 for (_, c) in squares if c <= n)
    return inside + sum(max(tail.height(j), 0) for j in range(window + 1, n + 1))


@given(tailed_parts())
def test_partition_heights_agree_with_square_sets(case):
    window, parts, tail = case
    sq = {(i, j) for j, h in enumerate(parts, 2) for i in range(1, h + 1)}
    mu = Partition(parts, tail)
    diag = PartitionDiagram(window, sq, tail)
    assert mu.window == window and mu.squares == sq
    assert mu == diag and hash(mu) == hash(diag)
    far = window + 6
    for n in range(far + 1):
        want = _oracle_count(window, sq, tail, n)
        assert mu.count_upto(n) == diag.count_upto(n) == want
    for j in range(1, far + 1):
        want = {i for (i, c) in sq if c == j} if j <= window else \
            set(range(1, max(tail.height(j), 0) + 1))
        assert mu.column(j) == diag.column(j) == want
        for i in range(j + 1):
            assert mu.has_square(i, j) == diag.has_square(i, j) == (i in want)
    assert mu.heights() == diag.heights() == parts
    assert mu.is_normal() == diag.is_normal()
    assert mu.orthogonal() == diag.orthogonal()
    assert mu.centre() == diag.centre()
    assert mu.normal_core() == diag.normal_core()
    assert mu.normal_closure() == diag.normal_closure()
    terms = list(dim_sequence_partition(mu, far))
    assert terms == [Fraction(2 * _oracle_count(window, sq, tail, n), n * (n - 1))
                     for n in range(2, far + 1)]


@given(st.integers(2, 9).flatmap(lambda w: st.tuples(
    st.just(w), st.sets(st.tuples(st.integers(1, w), st.integers(2, w)), max_size=6))))
def test_diagram_columns_agree_with_square_sets(case):
    window, raw = case
    diag = rect_closure({(r, c) for (r, c) in raw if r < c}, window)
    sq = set(diag.squares)
    cols = {j: {i for (i, c) in sq if c == j} for j in range(2, window + 1)}
    tops = []
    for j in range(2, window + 1):
        h = 0
        while h + 1 in cols[j]:
            h += 1
        tops.append(h)
    assert diag.is_partition() == all(len(cols[j]) == h for j, h in enumerate(tops, 2))
    assert diag.max_subpartition().parts == tops
    assert (diag == diag.max_subpartition()) == diag.is_partition()
    for j in range(window + 1):
        assert diag.column(j) == cols.get(j, set())
        assert diag.count_upto(j) == sum(len(cols[c]) for c in range(2, j + 1))
        assert all(diag.has_square(i, j) == (i in cols.get(j, ())) for i in range(j + 1))
    assert PartitionDiagram(window, diag.to_json()["squares"]) == diag


# -- tail and run spellings --

def test_tail_from_json_reads_the_text_spellings():
    assert Tail.from_json({"kind": "constant", "d": 1}) == Tail.const(1)
    assert Tail.from_json({"kind": "const", "d": 2}) == Tail.const(2)
    assert Tail.from_json({"kind": "affine", "c0": 2}) == Tail.affine(2)
    assert Tail.from_json({"kind": "empty"}) == Tail.from_json(None) == Tail.empty()
    assert parse_partition("(0|tail=constant:1)").tail == Tail.const(1)


def test_tail_from_json_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown tail kind 'bogus'"):
        Tail.from_json({"kind": "bogus", "c0": 2})
    with pytest.raises(ValueError, match="unknown tail kind"):
        parse_partition("(0|tail=bogus:1)")


@pytest.mark.parametrize("text", ["(0^-1)", "(0,1^0)", "(0^0|tail=const:1)"])
def test_parse_partition_rejects_run_counts_below_1(text):
    with pytest.raises(ValueError, match="run count must be >= 1"):
        parse_partition(text)


# -- the lattice against brute-force square sets (property tests) --

def _brute_closure(squares):
    """Add (i,k) for every (i,j), (j,k) until nothing changes."""
    sq = set(squares)
    while True:
        by_row = {}
        for (r, c) in sq:
            by_row.setdefault(r, set()).add(c)
        new = {(i, k) for (i, j) in sq for k in by_row.get(j, ())} - sq
        if not new:
            return sq
        sq |= new


def _squares_upto(mu, w):
    """Squares of mu in columns 2..w, read one at a time through has_square."""
    return {(i, j) for j in range(2, w + 1) for i in range(1, j) if mu.has_square(i, j)}


@st.composite
def tails(draw, window):
    kind = draw(st.sampled_from([EMPTY, CONST, AFFINE]))
    if kind == CONST:
        return Tail.const(draw(st.integers(0, window)))
    if kind == AFFINE:
        return Tail.affine(draw(st.integers(1, window + 1)))
    return Tail.empty()


@st.composite
def diagrams(draw, max_window=10, shapes=("partition", "closure", "closure", "orthogonal")):
    """A tailed Partition, a closed tailed diagram, or the orthogonal of a
    small one of those (whose tail may be undetermined)."""
    shape = draw(st.sampled_from(shapes))
    if shape == "orthogonal":
        return draw(diagrams(5, ("partition", "closure"))).orthogonal()
    window = draw(st.integers(2, max_window))
    tail = draw(tails(window))
    if shape == "partition":
        return Partition([draw(st.integers(0, j - 1)) for j in range(2, window + 1)], tail)
    raw = draw(st.sets(st.tuples(st.integers(1, window - 1), st.integers(2, window)),
                       max_size=8))
    return rect_closure({(r, c) for (r, c) in raw if r < c}, window, tail)


def test_undetermined_operand_is_reachable():
    perp = D(4, [(3, 4)]).orthogonal()
    assert not perp.tail_exact
    g2 = lower_central(2, window=6)
    u = lattice_union(perp, g2)
    assert not u.tail_exact and u.window == 6
    assert u.squares == _brute_closure(_squares_upto(perp, 6) | _squares_upto(g2, 6))


@given(st.integers(2, 10).flatmap(lambda w: st.tuples(
    st.just(w), tails(w),
    st.sets(st.tuples(st.integers(1, w), st.integers(2, w)), max_size=10))))
def test_rect_closure_and_materialize_match_square_sets(case):
    window, tail, raw = case
    raw = {(r, c) for (r, c) in raw if r < c}
    mu = rect_closure(raw, window, tail)
    assert mu.squares == _brute_closure(raw) == _squares_upto(mu, window)
    far = window + 6
    big = mu.materialize(far)
    assert big.window == far and big == mu
    assert big.squares == _squares_upto(mu, far) == _brute_closure(_squares_upto(mu, far))


@given(diagrams(), diagrams())
@example(D(4, [(2, 3)]), D(4, [(1, 2), (3, 4)]))  # the union closes along a chain
def test_lattice_matches_square_sets(a, b):
    u, i = lattice_union(a, b), lattice_intersect(a, b)
    if not (a.tail_exact and b.tail_exact):
        w = min(a.window, b.window)
        assert u.window == i.window == w
        assert not u.tail_exact and not i.tail_exact
        assert u.squares == _brute_closure(_squares_upto(a, w) | _squares_upto(b, w))
        assert i.squares == _squares_upto(a, w) & _squares_upto(b, w)
        for mu in (a, b):
            if not mu.tail_exact:
                with pytest.raises(TailUndetermined):
                    mu.materialize(mu.window + 1)
        return
    # past both windows plus any const/affine crossover, every tail has settled
    far = a.window + b.window + 6
    sa, sb = _squares_upto(a, far), _squares_upto(b, far)
    assert _squares_upto(u, far) == _brute_closure(sa | sb)
    assert _squares_upto(i, far) == sa & sb
    assert u.materialize(far).squares == _brute_closure(sa | sb)
    assert i.materialize(far).squares == sa & sb
    assert a.is_subset(b) == (sa <= sb)
    assert b.is_subset(a) == (sb <= sa)
    assert a.is_subset(u) and b.is_subset(u) and i.is_subset(a) and i.is_subset(b)


def test_diagram_operations_never_build_the_square_set(monkeypatch):
    def built(self):
        raise AssertionError("square set built")
    ops_inputs = [D(6, [(2, 3), (1, 3), (4, 5)], Tail.const(2)), lower_central(2),
                  rectangular(3, 2), Partition([0, 1, 1], Tail.affine(2))]
    perp = D(4, [(3, 4)]).orthogonal()
    monkeypatch.setattr(PartitionDiagram, "squares", property(built))
    rect_closure([(1, 2), (2, 3), (3, 5)], 6, Tail.const(1))
    for a in ops_inputs:
        a.materialize(a.window + 3)
        a.orthogonal()
        a.centre()
        for b in [*ops_inputs, perp]:
            lattice_union(a, b)
            lattice_intersect(a, b)
            if b.tail_exact:
                a.is_subset(b)


def test_only_partitions_reads_diagram_storage():
    # a diagram's storage is read, and diagrams are built from columns, in
    # partitions.py alone; elsewhere a diagram is its public queries
    pkg = Path(unitri.__file__).parent
    private = {"_heights", "_below", "_squares", "_from_columns"}
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(pkg.glob("*.py")) if path.name != "partitions.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in private]
    assert offenders == []
    own = {node.attr for node in ast.walk(ast.parse((pkg / "partitions.py").read_text()))
           if isinstance(node, ast.Attribute)}
    assert private <= own

"""Partition lattice, modal set operators, and preorder conversions."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agenda_algebra import partitions as pt
from agenda_algebra.errors import (
    CoverageError,
    EmptyBlockError,
    GroundMismatch,
    OverlapError,
    SizeCap,
    TooSmall,
)

from random_structures import random_partition, random_preorder


def labels3(*blocks):
    # a=0, b=1, c=2 on the three-element ground set
    return pt.Partition(3, blocks)


def test_make_partition_canonicalizes():
    p = pt.make_partition(4, [{1, 0}, {3, 2}])
    assert p.blocks == ((0, 1), (2, 3))
    q = pt.make_partition(3, [{0}, {1, 2}])
    assert len(q.blocks) == 2


def test_make_partition_rejects_malformed():
    with pytest.raises(OverlapError):
        pt.make_partition(3, [{0, 1}, {1, 2}])
    with pytest.raises(CoverageError):
        pt.make_partition(3, [{0}, {2}])
    with pytest.raises(EmptyBlockError):
        pt.make_partition(2, [{0, 1}, set()])


def test_meet_examples():
    # E({a,b,c}): {{a},{b,c}} meet {{a,b},{c}} is all singletons
    assert pt.meet(labels3({0}, {1, 2}), labels3({0, 1}, {2})) == \
        pt.Partition.singletons(3)
    p = labels3({0, 1}, {2})
    assert pt.meet(pt.Partition.single_block(3), p) == p
    # E({a,b,c,d}): merging ab meet merging cd is the bottom
    assert pt.meet(
        pt.Partition.pair_merge(4, 0, 1), pt.Partition.pair_merge(4, 2, 3)
    ) == pt.Partition.singletons(4)


def test_join_examples():
    # e_a and e_c are the coatoms keeping a (resp. c) separate
    e_a = labels3({0}, {1, 2})
    e_b = labels3({1}, {0, 2})
    e_c = labels3({2}, {0, 1})
    top = pt.Partition.single_block(3)
    assert pt.join(e_a, e_c) == top
    assert pt.refines(e_b, pt.join(e_a, e_c))
    assert not pt.refines(e_b, e_a) and not pt.refines(e_b, e_c)
    p = labels3({0, 1}, {2})
    assert pt.join(pt.Partition.singletons(3), p) == p
    assert pt.join(
        pt.Partition.pair_merge(4, 0, 1), pt.Partition.pair_merge(4, 2, 3)
    ) == pt.Partition(4, [{0, 1}, {2, 3}])


def test_refines():
    assert pt.refines(pt.Partition.singletons(4), pt.Partition(4, [{0, 2}, {1, 3}]))
    assert pt.refines(labels3({0, 1}, {2}), pt.Partition.single_block(3))
    assert not pt.refines(labels3({0}, {1, 2}), labels3({0, 1}, {2}))


def test_ground_mismatch():
    with pytest.raises(GroundMismatch):
        pt.meet(pt.Partition.singletons(3), pt.Partition.singletons(4))


@pytest.mark.parametrize("n,atoms,coatoms", [(3, 3, 3), (4, 6, 7), (8, 28, 127)])
def test_irreducible_counts(n, atoms, coatoms):
    got_atoms, got_coatoms = pt.enumerate_irreducibles(n)
    assert len(got_atoms) == atoms
    assert len(got_coatoms) == coatoms
    assert len(set(got_atoms)) == atoms
    assert len(set(got_coatoms)) == coatoms


def test_irreducibles_formula_range():
    for n in range(2, 11):
        atoms, coatoms = pt.enumerate_irreducibles(n)
        assert len(atoms) == n * (n - 1) // 2
        assert len(coatoms) == 2 ** (n - 1) - 1


def test_irreducible_errors():
    with pytest.raises(TooSmall):
        pt.enumerate_irreducibles(1)
    with pytest.raises(SizeCap):
        pt.enumerate_irreducibles(21)
    with pytest.raises(SizeCap):
        pt.enumerate_irreducibles(6, coatom_cap=5)
    atoms, coatoms = pt.enumerate_irreducibles(6, coatom_cap=6)
    assert len(coatoms) == 31


def test_classify():
    assert pt.classify_irreducible(
        pt.Partition(4, [{0, 1}, {2}, {3}])
    ) is pt.IrreducibleKind.ATOM
    assert pt.classify_irreducible(
        pt.Partition(4, [{0, 1}, {2, 3}])
    ) is pt.IrreducibleKind.COATOM
    assert pt.classify_irreducible(
        pt.Partition.singletons(3)
    ) is pt.IrreducibleKind.BOTTOM
    assert pt.classify_irreducible(
        pt.Partition.single_block(3)
    ) is pt.IrreducibleKind.TOP
    assert pt.classify_irreducible(
        pt.Partition(5, [{0, 1, 2}, {3}, {4}])
    ) is pt.IrreducibleKind.NEITHER


def test_exhaustive_irreducibility_by_covers():
    """Cover-counting in the full lattice agrees with the closed forms."""
    for n in range(2, 6):
        elems = list(pt.enumerate_partitions(n))
        atoms, coatoms = pt.enumerate_irreducibles(n)

        def lower_covers(p):
            below = [q for q in elems if q != p and pt.refines(q, p)]
            return [
                q for q in below
                if not any(
                    r != q and r != p and pt.refines(q, r) and pt.refines(r, p)
                    for r in below
                )
            ]

        join_irr = {
            p for p in elems
            if p != pt.Partition.singletons(n) and len(lower_covers(p)) == 1
        }
        assert join_irr == set(atoms)

        def upper_covers(p):
            above = [q for q in elems if q != p and pt.refines(p, q)]
            return [
                q for q in above
                if not any(
                    r != q and r != p and pt.refines(p, r) and pt.refines(r, q)
                    for r in above
                )
            ]

        meet_irr = {
            p for p in elems
            if p != pt.Partition.single_block(n) and len(upper_covers(p)) == 1
        }
        assert meet_irr == set(coatoms)


def test_every_element_spanned_by_irreducibles():
    """Join of atoms below / meet of coatoms above gives back the element."""
    for n in range(2, 5):
        atoms, coatoms = pt.enumerate_irreducibles(n)
        for p in pt.enumerate_partitions(n):
            below = [a for a in atoms if pt.refines(a, p)]
            assert pt.join_all(below, n=n) == p
            above = [c for c in coatoms if pt.refines(p, c)]
            assert pt.meet_all(above, n=n) == p


def test_lattice_laws_random():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(2, 9)
        p, q, r = (random_partition(rng, n) for _ in range(3))
        assert pt.meet(p, q) == pt.meet(q, p)
        assert pt.join(p, q) == pt.join(q, p)
        assert pt.meet(p, pt.meet(q, r)) == pt.meet(pt.meet(p, q), r)
        assert pt.join(p, pt.join(q, r)) == pt.join(pt.join(p, q), r)
        assert pt.meet(p, pt.join(p, q)) == p
        assert pt.join(p, pt.meet(p, q)) == p
        assert pt.meet(p, p) == p and pt.join(p, p) == p
        assert pt.refines(p, q) == (pt.meet(p, q) == p)
        assert pt.refines(p, q) == (pt.join(p, q) == q)


def test_non_distributivity_witness_in_e3():
    e_a = labels3({0}, {1, 2})
    e_b = labels3({1}, {0, 2})
    e_c = labels3({2}, {0, 1})
    assert pt.refines(pt.meet(e_a, e_c), e_b)
    assert not pt.refines(e_a, e_b)
    assert not pt.refines(e_c, e_b)


# -- modal set operators ----------------------------------------------------


def test_diamond_box_constants():
    e = pt.Partition.singletons(5)
    x = frozenset({1, 3})
    assert pt.diamond_set(e, x) == x
    assert pt.box_set(e, x) == x
    top = pt.Partition.single_block(5)
    assert pt.diamond_set(top, x) == frozenset(range(5))
    assert pt.box_set(top, x) == frozenset()
    assert pt.diamond_set(top, frozenset()) == frozenset()
    assert pt.box_set(top, frozenset(range(5))) == frozenset(range(5))


def _nine_point_setup():
    # W = A u B u C with A={0,1,2}, B={3,4,5}, C={6,7,8};
    # e1 groups by letter, e2 groups by index
    e1 = pt.Partition(9, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    e2 = pt.Partition(9, [{0, 3, 6}, {1, 4, 7}, {2, 5, 8}])
    return e1, e2


def test_remark_counterexamples_nine_points():
    e1, e2 = _nine_point_setup()
    w = frozenset(range(9))
    a2, b3 = 1, 5  # second element of A, third of B
    x = frozenset({a2, b3})
    assert pt.join(e1, e2) == pt.Partition.single_block(9)
    assert pt.meet(e1, e2) == pt.Partition.singletons(9)
    # diamond of the join covers everything, the union of diamonds does not
    assert pt.diamond_set(pt.join(e1, e2), x) == w
    union = pt.diamond_set(e1, x) | pt.diamond_set(e2, x)
    assert pt.diamond_set(e1, x) == frozenset(range(6))          # A u B
    assert pt.diamond_set(e2, x) == frozenset({1, 4, 7, 2, 5, 8})  # D2 u D3
    assert union != w
    # diamond of the meet is X, the intersection of diamonds is not
    assert pt.diamond_set(pt.meet(e1, e2), x) == x
    assert pt.diamond_set(e1, x) & pt.diamond_set(e2, x) != x
    # box of the meet is X, the union of boxes is empty
    assert pt.box_set(pt.meet(e1, e2), x) == x
    assert pt.box_set(e1, x) | pt.box_set(e2, x) == frozenset()
    # box of the join on A u D1 is empty, intersection of boxes is {a1}
    x2 = frozenset({0, 1, 2}) | frozenset({0, 3, 6})
    assert pt.box_set(pt.join(e1, e2), x2) == frozenset()
    assert pt.box_set(e1, x2) & pt.box_set(e2, x2) == frozenset({0})


def test_modal_residuation_and_monotonicity_random():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(2, 9)
        e = random_partition(rng, n)
        e2 = pt.join(e, random_partition(rng, n))  # e <= e2
        x = frozenset(i for i in range(n) if rng.random() < 0.4)
        y = frozenset(i for i in range(n) if rng.random() < 0.4)
        # adjunction
        assert (pt.diamond_set(e, x) <= y) == (x <= pt.box_set(e, y))
        # duality
        comp = frozenset(range(n)) - x
        assert pt.box_set(e, x) == frozenset(range(n)) - pt.diamond_set(e, comp)
        # monotonicity in the relation argument
        assert pt.diamond_set(e, x) <= pt.diamond_set(e2, x)
        assert pt.box_set(e2, x) <= pt.box_set(e, x)


# -- preorders ---------------------------------------------------------------


def enumerate_preorders(n):
    """All preorders on n points, by filtering reflexive closures."""
    import itertools

    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(cells)):
        m = np.eye(n, dtype=bool)
        for (i, j), b in zip(cells, bits):
            m[i, j] = b
        if pt._is_transitive(m):
            yield pt.Preorder(m, validate=False)


def test_preorder_counts():
    assert sum(1 for _ in enumerate_preorders(2)) == 4
    assert sum(1 for _ in enumerate_preorders(3)) == 29


def test_equiv_from_preorder_edges():
    assert pt.equiv_from_preorder(pt.Preorder.discrete(4)) == \
        pt.Partition.singletons(4)
    assert pt.equiv_from_preorder(pt.Preorder.total(4)) == \
        pt.Partition.single_block(4)


def test_preorder_from_equiv_edges():
    base = pt.Preorder.from_pairs(3, [(0, 1), (1, 2)], close=True)
    assert pt.preorder_from_equiv(pt.Partition.singletons(3), base) == base
    total = pt.preorder_from_equiv(pt.Partition.single_block(3), base)
    assert total == pt.Preorder.total(3)


def test_roundtrip_exhaustive_small():
    for n in (1, 2, 3, 4):
        for pre in enumerate_preorders(n):
            e = pt.equiv_from_preorder(pre)
            assert pt.preorder_from_equiv(e, pre) == pre
            assert pt.compatibility(e, pre) is pt.Compatibility.STRONGLY_COMPATIBLE


def test_roundtrip_random():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(2, 17)
        pre = random_preorder(rng, n)
        e = pt.equiv_from_preorder(pre)
        assert pt.preorder_from_equiv(e, pre) == pre


def test_strong_compatibility_roundtrip_random():
    rng = random.Random(29)
    hits = 0
    for _ in range(300):
        n = rng.randrange(2, 9)
        pre = random_preorder(rng, n)
        e = random_partition(rng, n)
        if pt.compatibility(e, pre) is pt.Compatibility.STRONGLY_COMPATIBLE:
            hits += 1
            assert pt.equiv_from_preorder(pt.preorder_from_equiv(e, pre)) == e
    assert hits > 0


def test_compatibility_discrete():
    order = pt.Preorder.from_pairs(3, [(0, 1)], close=True)
    assert pt.compatibility(
        pt.Partition.singletons(3), order
    ) is pt.Compatibility.STRONGLY_COMPATIBLE


def test_prefers_total_ties():
    base = pt.Preorder.from_pairs(3, [(0, 1)], close=True)
    top = pt.Partition.single_block(3)
    for u in range(3):
        for w in range(3):
            assert pt.prefers(top, base, u, w) is pt.PairOrder.TIE


def test_transitivity_warning_on_degenerate_base():
    """A smuggled non-transitive base is reported, not silently repaired."""
    import warnings

    m = np.eye(4, dtype=bool)
    m[0, 1] = m[1, 2] = m[2, 3] = True  # not transitively closed
    degenerate = pt.Preorder(m, validate=False)
    e = pt.Partition(4, [{0, 3}, {1}, {2}])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pt.preorder_from_equiv(e, degenerate)
    assert any(
        issubclass(w.category, pt.TransitivityWarning) for w in caught
    )


# -- relation products must not count paths ----------------------------------


def fan_relation():
    """258 points: 0 -> k -> 257 for k = 1..256, and no edge 0 -> 257.

    There are 256 paths from 0 to 257, so a product that counts paths in
    eight bits reads zero there.
    """
    m = np.eye(258, dtype=bool)
    m[0, 1:257] = True
    m[1:257, 257] = True
    return m


def test_is_transitive_with_256_paths():
    assert not pt._is_transitive(fan_relation())


def test_transitive_closure_with_256_paths():
    closed = pt._transitive_closure(fan_relation())
    assert closed[0, 257]
    assert pt._is_transitive(closed)


def test_compatibility_with_256_related_pairs():
    """The one-block partition is compatible only with the total preorder.

    14 x 16 strict pairs plus 32 reflexive ones make 256 pairs, which
    every entry of e∘≤∘e counts when e is a single block.
    """
    m = np.eye(32, dtype=bool)
    m[:14, 16:] = True
    pre = pt.Preorder(m)
    assert int(pre.holds.sum()) == 256
    assert pt.compatibility(
        pt.Partition.single_block(32), pre
    ) is pt.Compatibility.NONE


# -- the labelling constructor against the validating one --------------------

LABELS = st.sampled_from([0, 1, 2, 7, (), (0,), (1, 2), (2, 1), True, False])


@st.composite
def labellings(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 64))
    return n, draw(st.lists(LABELS, min_size=n, max_size=n))


def grouped(draw, n, labels):
    """Partition(n, ...) of the label classes, blocks and members shuffled."""
    groups = {}
    for x, label in enumerate(labels):
        groups.setdefault(label, []).append(x)
    blocks = [draw(st.permutations(b)) for b in groups.values()]
    return pt.Partition(n, draw(st.permutations(blocks)))


def assert_canonical(p):
    assert [b[0] for b in p.blocks] == sorted(b[0] for b in p.blocks)
    assert all(list(b) == sorted(b) for b in p.blocks)
    assert sorted(x for b in p.blocks for x in b) == list(range(p.n))
    assert all(p.blocks[p.block_of[x]].count(x) == 1 for x in range(p.n))


@settings(max_examples=200, deadline=None)
@given(st.data(), labellings())
def test_from_key_matches_validating_constructor(data, labelling):
    n, labels = labelling
    got = pt.Partition.from_key(n, labels.__getitem__)
    want = grouped(data.draw, n, labels)
    assert_canonical(got)
    assert got.blocks == want.blocks
    assert got.block_of == want.block_of
    assert got == want and hash(got) == hash(want)


def ref_meet(p, q):
    cells = [set(a) & set(b) for a in p.blocks for b in q.blocks]
    return pt.Partition(p.n, [c for c in cells if c])


def ref_join(p, q):
    groups = [set(b) for b in p.blocks]
    for block in q.blocks:
        hit = [g for g in groups if g & set(block)]
        groups = [g for g in groups if not g & set(block)]
        groups.append(set(block).union(*hit))
    return pt.Partition(p.n, groups)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 64))
def test_meet_and_join_match_references(data, n):
    p, q, r = (
        grouped(data.draw, n, data.draw(labellings(n))[1]) for _ in range(3)
    )
    for got, want in (
        (pt.meet(p, q), ref_meet(p, q)),
        (pt.join(p, q), ref_join(p, q)),
        (pt.meet_all([p, q, r]), ref_meet(ref_meet(p, q), r)),
        (pt.join_all([p, q, r]), ref_join(ref_join(p, q), r)),
    ):
        assert_canonical(got)
        assert got.blocks == want.blocks
        assert got.block_of == want.block_of


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**32), st.sampled_from([0.02, 0.1]))
def test_equiv_from_preorder_matches_reference(n, seed, density):
    pre = random_preorder(random.Random(seed), n, density)
    mutual = pre.holds & pre.holds.T
    want = pt.Partition(
        n, {frozenset(np.flatnonzero(mutual[x]).tolist()) for x in range(n)}
    )
    got = pt.equiv_from_preorder(pre)
    assert_canonical(got)
    assert got.blocks == want.blocks
    assert got.block_of == want.block_of


def test_labelling_constructor_refuses_empty_ground():
    with pytest.raises(TooSmall):
        pt.Partition.from_key(0, lambda x: x)
    with pytest.raises(TooSmall):
        pt.equiv_from_preorder(pt.Preorder(np.zeros((0, 0), dtype=bool)))

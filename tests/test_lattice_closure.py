"""Closed-generator-set lattices against their partition definitions.

The references below are the direct constructions on partitions: the
pairwise-meet fixpoint for the elements, generator filtering for joins
and member forms, and scans over pairs and triples of elements for the
order, distributivity, meet-primeness and complements.  Hypothesis draws
issue sets of random bipartitions, often with several generators sharing
one partition.
"""

import itertools
import operator

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from agenda_algebra import features as ft
from agenda_algebra import lattice as lt
from agenda_algebra import partitions as pt
from agenda_algebra.errors import GroundMismatch, NotInLattice

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


# -- references on partitions -------------------------------------------------


def ref_above(issue_set, part):
    """Ids, in issue order, of the generators whose partition lies above."""
    return [
        issue.id
        for issue in issue_set
        if pt.refines(part, issue.agenda.partition)
    ]


def ref_label(ids):
    return " & ".join(sorted(ids)) if ids else "top"


def ref_meet_of(issue_set, ids):
    parts = [issue_set.by_id(i).agenda.partition for i in ids]
    return pt.meet_all(parts, n=issue_set.n)


def ref_elements(issue_set):
    """Pairwise meets iterated to a fixed point: (partition, label) pairs.

    A generator is listed under the first id carrying its partition;
    every other element under all the generators above it.
    """
    top = pt.Partition.single_block(issue_set.n)
    seen = {top: "top"}
    frontier = []
    for issue in issue_set:
        part = issue.agenda.partition
        if part not in seen:
            seen[part] = issue.id
            frontier.append(part)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(seen):
                part = pt.meet(a, b)
                if part not in seen:
                    seen[part] = ref_label(ref_above(issue_set, part))
                    fresh.append(part)
        frontier = fresh
    return sorted(seen.items(), key=lambda kv: (len(kv[0].blocks), kv[1]))


def ref_member(issue_set, part):
    """(partition, label) of the member form, or None outside the lattice."""
    above = ref_above(issue_set, part)
    if ref_meet_of(issue_set, above) != part:
        return None
    return part, ref_label(above)


def ref_join(issue_set, parts):
    """Meet of the generators above every argument, with its label."""
    shared = [
        issue.id
        for issue in issue_set
        if all(pt.refines(p, issue.agenda.partition) for p in parts)
    ]
    return ref_meet_of(issue_set, shared), ref_label(shared)


def ref_covers(parts):
    pairs = []
    for a, b in itertools.permutations(parts, 2):
        if a == b or not pt.refines(a, b):
            continue
        if not any(
            c != a and c != b and pt.refines(a, c) and pt.refines(c, b)
            for c in parts
        ):
            pairs.append((a, b))
    return pairs


def ref_is_distributive(issue_set, parts):
    """First triple, in product order, breaking x & (y | z) = ..."""
    joins = {}

    def join(a, b):
        if (a, b) not in joins:
            joins[a, b] = ref_join(issue_set, [a, b])[0]
        return joins[a, b]

    for x, y, z in itertools.product(parts, repeat=3):
        lhs = pt.meet(x, join(y, z))
        rhs = join(pt.meet(x, y), pt.meet(x, z))
        if lhs != rhs:
            return False, (x, y, z)
    return True, None


def ref_issues_meet_prime(issue_set, parts):
    for issue in issue_set:
        g = issue.agenda.partition
        for a, b in itertools.combinations_with_replacement(parts, 2):
            if pt.refines(pt.meet(a, b), g) and not (
                pt.refines(a, g) or pt.refines(b, g)
            ):
                return False
    return True


def ref_is_complemented(issue_set, parts):
    n = issue_set.n
    bottom = ref_meet_of(issue_set, [i.id for i in issue_set])
    top = pt.Partition.single_block(n)
    return all(
        any(
            pt.meet(a, b) == bottom and ref_join(issue_set, [a, b])[0] == top
            for b in parts
        )
        for a in parts
    )


# -- generated inputs ---------------------------------------------------------


CUT_OPS = (operator.and_, operator.or_, operator.xor)


def bipartition(n, members):
    return ft.Agenda(pt.Partition.bipartition(
        n, [x for x in range(n) if members >> x & 1]
    ))


@st.composite
def issue_sets(draw, min_n=2, max_n=16, max_distinct=4, size=None):
    """Random bipartitions; several generators may share one partition."""
    n = draw(st.integers(min_n, max_n))
    full = 2 ** n - 1
    k = draw(st.integers(2, max_distinct))
    pool = draw(st.lists(st.integers(1, full - 1), min_size=k, max_size=k))
    # a cut made from two others sits above their meet but need not sit
    # above either, which is what makes a lattice non-distributive
    combine = st.tuples(st.sampled_from(pool), st.sampled_from(pool),
                        st.sampled_from(CUT_OPS))
    for a, b, op in draw(st.lists(combine, min_size=1, max_size=2)):
        cut = op(a, b) & full
        if 0 < cut < full:
            pool.append(cut)
    repeats = size - len(pool) if size else draw(st.integers(0, 3))
    picks = pool + draw(st.lists(
        st.sampled_from(pool), min_size=repeats, max_size=repeats
    ))
    picks = draw(st.permutations(picks))
    return lt.IssueSet([
        lt.Issue(f"g{i:02d}", bipartition(n, members))
        for i, members in enumerate(picks)
    ])


@st.composite
def partitions_on(draw, n):
    keys = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return pt.Partition.from_key(n, lambda x: keys[x])


def wide_issue_sets():
    """70 generators on 8 profiles: the masks need more than 64 bits."""
    return issue_sets(min_n=8, max_n=8, max_distinct=4, size=70)


# -- properties ---------------------------------------------------------------


def check_elements(issue_set, lattice):
    listed = [(e.partition, e.label()) for e in lattice.elements]
    assert listed == ref_elements(issue_set)


def check_member_forms_and_joins(issue_set, lattice, probes):
    parts = [p for p, _ in ref_elements(issue_set)]
    for part in parts + probes:
        want = ref_member(issue_set, part)
        if want is None:
            assert ft.Agenda(part) not in lattice
            try:
                lattice.member_form(ft.Agenda(part))
            except NotInLattice:
                continue
            raise AssertionError(f"{part} accepted as a lattice member")
        got = lattice.member_form(ft.Agenda(part))
        assert (got.partition, got.label()) == want
    for a, b in itertools.product(parts, repeat=2):
        got = lattice.d_join([ft.Agenda(a), ft.Agenda(b)])
        assert (got.partition, got.label()) == ref_join(issue_set, [a, b])
        assert lattice.leq(ft.Agenda(a), ft.Agenda(b)) == pt.refines(a, b)
    bottom = lattice.d_join([])
    assert bottom.partition == ref_meet_of(
        issue_set, [i.id for i in issue_set]
    )
    assert bottom.label() == ref_label([i.id for i in issue_set])


@PROPERTY_SETTINGS
@given(issue_sets(max_distinct=5), st.data())
def test_build_member_form_join_and_covers_match_references(issue_set, data):
    lattice = lt.build_lattice(issue_set)
    check_elements(issue_set, lattice)
    probes = [data.draw(partitions_on(issue_set.n)) for _ in range(3)]
    check_member_forms_and_joins(issue_set, lattice, probes)
    lazy = lt.build_lattice(issue_set, cap=0)
    assert not lazy.materialized
    check_member_forms_and_joins(issue_set, lazy, probes)
    got = [(a.partition, b.partition) for a, b in lattice.covers()]
    assert got == ref_covers([e.partition for e in lattice.elements])


def check_structure(issue_set, lattice):
    parts = [e.partition for e in lattice.elements]
    distributive, witness = lattice.is_distributive()
    if witness is not None:
        witness = tuple(e.partition for e in witness)
    assert (distributive, witness) == ref_is_distributive(issue_set, parts)
    assert lattice.issues_meet_prime() == ref_issues_meet_prime(
        issue_set, parts
    )
    assert lattice.is_complemented() == ref_is_complemented(
        issue_set, parts
    )


@PROPERTY_SETTINGS
@given(issue_sets(max_n=10, max_distinct=3))
def test_structure_checks_match_triple_scans(issue_set):
    check_structure(issue_set, lt.build_lattice(issue_set))


@PROPERTY_SETTINGS
@given(issue_sets(max_n=10, max_distinct=4))
def test_boolean_test_counts_meet_irreducibles(issue_set):
    """|L| = 2^(distinct generators) iff distributive and complemented."""
    lattice = lt.build_lattice(issue_set)
    distributive, _ = lattice.is_distributive()
    assert lattice.is_boolean() == (
        distributive and lattice.is_complemented()
    )


@settings(max_examples=10, deadline=None, database=None)
@given(wide_issue_sets(), st.data())
def test_seventy_generators_with_raised_cap(issue_set, data):
    assert len(issue_set) == 70
    lattice = lt.build_lattice(issue_set, cap=70)
    assert lattice.materialized
    check_elements(issue_set, lattice)
    probes = [data.draw(partitions_on(issue_set.n)) for _ in range(3)]
    check_member_forms_and_joins(issue_set, lattice, probes)
    check_member_forms_and_joins(
        issue_set, lt.build_lattice(issue_set, cap=69), probes
    )
    check_structure(issue_set, lattice)


# -- generators sharing a partition -------------------------------------------


def test_shared_partition_labels():
    """param:x and sum:x<=0 are one bipartition of the x,y binary space.

    The element list names it after the first of them in issue order;
    member forms and joins name every generator above.
    """
    space = ft.build_space([(n, ft.binary(n)) for n in ("x", "y")])
    issue_set = lt.IssueSet([
        lt.Issue("param:x", ft.projection_agenda(space, ["x"])),
        lt.Issue("sum:x<=0", ft.threshold_issue(space, ["x"], 0)),
        lt.Issue("param:y", ft.projection_agenda(space, ["y"])),
    ])
    lattice = lt.build_lattice(issue_set)
    assert [e.label() for e in lattice.elements] == [
        "top", "param:x", "param:y", "param:x & param:y & sum:x<=0",
    ]
    top, x, y, bottom = lattice.elements
    assert lattice.member_form(x).label() == "param:x & sum:x<=0"
    assert lattice.d_join([x, bottom]).label() == "param:x & sum:x<=0"
    assert lattice.d_join([x, y]) is lattice.top
    assert ft.meet_agendas(x, y).label() == "param:x & param:y"
    assert lattice.bottom.label() == "param:x & param:y & sum:x<=0"
    assert [(a.label(), b.label()) for a, b in lattice.covers()] == [
        ("param:x", "top"),
        ("param:y", "top"),
        ("param:x & param:y & sum:x<=0", "param:x"),
        ("param:x & param:y & sum:x<=0", "param:y"),
    ]
    lazy = lt.build_lattice(issue_set, cap=2)
    assert lazy.member_form(x).label() == "param:x & sum:x<=0"


# -- agendas outside the lattice ----------------------------------------------


@pytest.mark.parametrize("cap", [lt.MATERIALIZE_CAP, 0])
def test_foreign_ground_and_non_members_are_refused(cap):
    """Materialized or lazy, the lattice takes only its own members."""
    issue_set = lt.IssueSet([
        lt.Issue("a", bipartition(4, 0b0011)),
        lt.Issue("b", bipartition(4, 0b0101)),
    ])
    lattice = lt.build_lattice(issue_set, cap=cap)
    assert lattice.materialized == (cap > 0)
    member = lattice.member_form(issue_set.by_id("a").agenda)
    foreign = bipartition(5, 0b00011)
    assert foreign not in lattice
    with pytest.raises(GroundMismatch):
        lattice.member_form(foreign)
    with pytest.raises(GroundMismatch):
        lattice.d_join([member, foreign])
    with pytest.raises(GroundMismatch):
        lattice.leq(foreign, member)
    with pytest.raises(GroundMismatch):
        lattice.issues_above(foreign)
    # {0,3} | {1,2} is a bipartition of the ground set but not a meet
    outsider = bipartition(4, 0b1001)
    assert outsider not in lattice
    with pytest.raises(NotInLattice):
        lattice.leq(outsider, member)
    assert [i.id for i in lattice.issues_above(lattice.bottom)] == ["a", "b"]


# -- lazy elements ------------------------------------------------------------


@st.composite
def feature_issue_sets(draw):
    """Projection and threshold issues on a small space of chains."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    names = [f"x{i}" for i in range(len(sizes))]
    space = ft.build_space([
        (name, ft.chain(name, [str(v) for v in range(size)]))
        for name, size in zip(names, sizes)
    ])
    issues = {}
    for name, size in zip(names, sizes):
        if size == 2 and draw(st.booleans()):
            issues[f"param:{name}"] = ft.projection_agenda(space, [name])
    for _ in range(draw(st.integers(0 if issues else 1, 3))):
        subset = draw(st.lists(
            st.sampled_from(names), min_size=1, max_size=len(names),
            unique=True,
        ))
        k = draw(st.sampled_from(ft.achievable_sums(space, subset)[:-1]))
        issue_id = f"sum:{','.join(sorted(subset))}<={k}"
        issues[issue_id] = ft.threshold_issue(space, subset, k)
    issues = draw(st.permutations(list(issues.items())))
    return lt.IssueSet(lt.Issue(i, agenda) for i, agenda in issues)


def ref_partition(issue_set, element):
    """Meet of the partitions of the generators the element's label names."""
    return ref_meet_of(issue_set, element.descriptor.issue_ids)


@PROPERTY_SETTINGS
@given(feature_issue_sets())
def test_lazy_elements_match_generator_meets(issue_set):
    lattice = lt.build_lattice(issue_set)
    elements = lattice.elements
    refs = [ref_partition(issue_set, e) for e in elements]
    # the order, from reference partitions, before any element builds its own
    keys = [(len(part.blocks), e.label()) for part, e in zip(refs, elements)]
    assert keys == sorted(keys)
    # equality and hashing against plain agendas, in both directions
    lazy = lt.build_lattice(issue_set, cap=0)
    for k, (part, element) in enumerate(zip(refs, elements)):
        plain = ft.Agenda(part, ft.Opaque("plain"))
        assert element == plain and plain == element
        assert not element != plain and not plain != element
        assert hash(element) == hash(plain)
        assert plain in {element} and element in {plain}
        assert lattice.member_form(plain) == plain
        assert plain == lattice.member_form(plain)
        assert lazy.member_form(plain) == element
        assert element == lazy.member_form(plain)
        other = refs[(k + 1) % len(refs)]
        if len(refs) > 1:
            assert element != ft.Agenda(other)
            assert ft.Agenda(other) != element
    for part, element in zip(refs, elements):
        assert element.partition == part
    assert [(e.partition, e.label()) for e in elements] == ref_elements(
        issue_set
    )


@pytest.mark.parametrize("k", [4, 8])
def test_projection_lattice_builds_no_partition_per_element(k, monkeypatch):
    """2^k elements, yet build_lattice builds no partition at all."""
    names = [f"x{i}" for i in range(k)]
    space = ft.build_space([(name, ft.binary(name)) for name in names])
    issue_set = lt.projection_issue_set(space, names)
    built = []
    from_labels = pt.Partition._from_labels.__func__

    def counting(cls, n, labels):
        built.append(n)
        return from_labels(cls, n, labels)

    monkeypatch.setattr(pt.Partition, "_from_labels", classmethod(counting))
    lattice = lt.build_lattice(issue_set)
    assert len(lattice.elements) == 2 ** k
    assert built == []
    assert len(lattice.elements[-1].partition.blocks) == 2 ** k
    assert built == [space.n]

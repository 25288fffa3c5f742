"""Heterogeneous coalition/agenda operators on the worked structures."""

import itertools
import random

import pytest

from agenda_algebra import features as ft
from agenda_algebra import hetero as ht
from agenda_algebra import lattice as lt
from agenda_algebra import partitions as pt
from agenda_algebra.coalitions import AgentSet
from agenda_algebra.errors import NotBoolean, NotInLattice

S1_TRIPLES = [
    ("param:p", "a", "param:p"), ("param:r", "a", "param:r"),
    ("param:p", "a", "param:l"), ("param:r", "a", "param:l"),
    ("param:r", "b", "param:r"), ("param:l", "b", "param:l"),
    ("param:r", "b", "param:p"), ("param:l", "b", "param:p"),
]

S2_TRIPLES = [
    ("param:p", "a", "param:p"), ("param:r", "a", "param:r"),
    ("param:l", "a", "param:r"), ("param:l", "a", "param:l"),
    ("param:l", "b", "param:l"), ("param:r", "b", "param:r"),
    ("param:p", "b", "param:r"), ("param:p", "b", "param:p"),
]


def hiring(substitution=S1_TRIPLES):
    space = ft.build_space(
        [(n, ft.binary(n)) for n in ["r", "p", "l"]]
    )
    lattice = lt.build_lattice(lt.projection_issue_set(space, ["p", "r", "l"]))
    agents = AgentSet(["a", "b"])
    relevance = ht.RelevanceRelation(
        [("param:p", "a"), ("param:r", "a"),
         ("param:r", "b"), ("param:l", "b")]
    )
    h = ht.HeteroStructure(
        agents, lattice, None, relevance,
        ht.SubstitutionRelation(substitution),
    )
    return space, h


def issue(h, name):
    return h.lattice.issue_set.by_id(name).agenda


def proj(space, names):
    return ft.projection_agenda(space, names)


def test_common_and_distributed():
    space, h = hiring()
    a = h.agents.coalition(["a"])
    b = h.agents.coalition(["b"])
    both = h.agents.everyone()
    assert ht.common_agenda(h, a).partition == proj(space, ["p", "r"]).partition
    assert ht.common_agenda(h, b).partition == proj(space, ["r", "l"]).partition
    assert ht.common_agenda(h, both).partition == proj(space, ["r"]).partition
    assert ht.common_agenda(h, h.agents.nobody()) == h.lattice.bottom
    assert ht.distributed_agenda(h, both).partition == \
        proj(space, ["p", "r", "l"]).partition
    assert ht.distributed_agenda(h, h.agents.nobody()) == h.lattice.top


def test_box_coalition():
    space, h = hiring()
    alg = ht.HeteroAlgebra(h)
    assert alg.box(h.agents.everyone()) == h.lattice.top
    # excluded agents force every issue missing from some outsider's agenda
    assert alg.box(h.agents.nobody()).partition == \
        proj(space, ["p", "l"]).partition
    # duality with the common agenda on the Boolean lattice
    for members in ([], ["a"], ["b"], ["a", "b"]):
        c = h.agents.coalition(members)
        box = alg.box(c)
        dia = ht.common_agenda(h, ~c)
        met = pt.meet(box.partition, dia.partition)
        joined = h.lattice.d_join([box, dia])
        assert met == h.lattice.bottom.partition
        assert joined.partition == h.lattice.top.partition


def test_box_requires_boolean():
    space = ft.build_space([(n, ft.binary(n)) for n in ["x", "y"]])
    issues = [
        lt.Issue("sum:x<=0", ft.threshold_issue(space, ["x"], 0)),
        lt.Issue("sum:y<=0", ft.threshold_issue(space, ["y"], 0)),
        lt.Issue("sum:x,y<=0", ft.threshold_issue(space, ["x", "y"], 0)),
        lt.Issue("sum:x,y<=1", ft.threshold_issue(space, ["x", "y"], 1)),
    ]
    lattice = lt.build_lattice(lt.IssueSet(issues))
    agents = AgentSet(["a"])
    h = ht.HeteroStructure(
        agents, lattice, None,
        ht.RelevanceRelation([("sum:x<=0", "a")]), None,
    )
    with pytest.raises(NotBoolean):
        ht.HeteroAlgebra(h).box(agents.everyone())


def test_blacksquare_and_blacktriangleright():
    space, h = hiring()
    btr = ht.HeteroAlgebra(h).blacktriangleright
    pr = proj(space, ["p", "r"])
    assert ht.blacksquare(h, pr).members() == ("a",)
    assert btr(pr).members() == ("a",)
    assert ht.blacksquare(h, h.lattice.top).members() == ("a", "b")
    # the adjunction forces these two values: top <= rhd(c) iff c is empty
    # (both agents have relevant issues), and bottom <= rhd(c) always
    assert btr(h.lattice.top).members() == ()
    assert ht.blacksquare(h, h.lattice.bottom).members() == ()
    assert btr(h.lattice.bottom).members() == ("a", "b")
    with pytest.raises(NotInLattice):
        ht.blacksquare(h, ft.Agenda(pt.Partition.pair_merge(space.n, 0, 1)))


def test_adjunctions_exhaustive_hiring():
    _, h = hiring()
    alg = ht.HeteroAlgebra(h)
    coalitions = [
        h.agents.coalition(m)
        for m in ([], ["a"], ["b"], ["a", "b"])
    ]
    for e in h.lattice.elements:
        bsq = ht.blacksquare(h, e)
        btr = alg.blacktriangleright(e)
        for c in coalitions:
            assert (
                pt.refines(ht.common_agenda(h, c).partition, e.partition)
            ) == (c <= bsq)
            assert (
                pt.refines(e.partition, ht.distributed_agenda(h, c).partition)
            ) == (c <= btr)


def test_subst_transform_hiring_s1():
    space, h = hiring(S1_TRIPLES)
    a = h.agents.coalition(["a"])
    b = h.agents.coalition(["b"])
    dia_a = ht.common_agenda(h, a)
    dia_b = ht.common_agenda(h, b)
    r = proj(space, ["r"]).partition
    assert ht.subst_transform(h, a, dia_b).partition == r
    assert ht.subst_transform(h, b, dia_a).partition == r
    met = pt.meet(
        ht.subst_transform(h, a, dia_b).partition,
        ht.subst_transform(h, b, dia_a).partition,
    )
    assert met == r


def test_subst_transform_hiring_s2():
    space, h = hiring(S2_TRIPLES)
    a = h.agents.coalition(["a"])
    b = h.agents.coalition(["b"])
    dia_a = ht.common_agenda(h, a)
    dia_b = ht.common_agenda(h, b)
    assert ht.subst_transform(h, a, dia_b).partition == \
        proj(space, ["l"]).partition
    assert ht.subst_transform(h, b, dia_a).partition == \
        proj(space, ["p"]).partition
    met = pt.meet(
        ht.subst_transform(h, a, dia_b).partition,
        ht.subst_transform(h, b, dia_a).partition,
    )
    assert met == proj(space, ["p", "l"]).partition


def test_subst_transform_constant_laws():
    _, h = hiring()
    a = h.agents.coalition(["a"])
    assert ht.subst_transform(h, h.agents.nobody(), h.lattice.bottom) == \
        h.lattice.bottom
    assert ht.subst_transform(h, a, h.lattice.top) == h.lattice.bottom


def test_star():
    space, h = hiring()
    r = issue(h, "param:r")
    # the top agenda transforms to the bottom, which refines anything
    for e in h.lattice.elements:
        assert ht.star(h, h.lattice.top, e).members() == ("a", "b")
    # a maps dia(b) inside r, while b's own transform joins up to the top
    dia_b = ht.common_agenda(h, h.agents.coalition(["b"]))
    assert ht.star(h, dia_b, r).members() == ("a",)
    # with no substitution entries every transform collapses to the bottom
    _, h_empty = hiring([])
    for e1 in h_empty.lattice.elements:
        for e2 in h_empty.lattice.elements:
            assert ht.star(h_empty, e1, e2).members() == ("a", "b")


def test_residual_second():
    space, h = hiring()
    a = h.agents.coalition(["a"])
    r = issue(h, "param:r")
    assert ht.residual_second(h, h.agents.nobody(), r) == h.lattice.bottom
    assert ht.residual_second(h, a, h.lattice.top) == h.lattice.bottom
    # scan: a's transform refines r exactly for top, r, l, and r&l, whose
    # meet is r&l
    got = ht.residual_second(h, a, r)
    assert got.partition == proj(space, ["r", "l"]).partition


def test_br_transform():
    space, h = hiring()
    everyone = h.agents.everyone()
    assert ht.br_transform(h, h.agents.nobody(), h.lattice.bottom) == \
        h.lattice.top
    assert ht.br_transform(h, everyone, h.lattice.top) == h.lattice.top
    dia_all = ht.common_agenda(h, everyone)
    assert ht.br_transform(h, everyone, dia_all).partition == \
        proj(space, ["r"]).partition
    # monotone in the agenda coordinate
    for e1 in h.lattice.elements:
        for e2 in h.lattice.elements:
            if pt.refines(e1.partition, e2.partition):
                assert pt.refines(
                    ht.br_transform(h, everyone, e1).partition,
                    ht.br_transform(h, everyone, e2).partition,
                )


def test_brB():
    space, h = hiring()
    r = issue(h, "param:r")
    for e in h.lattice.elements:
        assert ht.brB(h, e, h.lattice.top).members() == ("a", "b")
        assert ht.brB(h, h.lattice.bottom, e).members() == ("a", "b")
    assert ht.brB(h, r, r).members() == ("a", "b")


def test_vartriangle():
    _, h = hiring()
    a = h.agents.coalition(["a"])
    r = issue(h, "param:r")
    for e in h.lattice.elements:
        assert ht.vartriangle(h, h.agents.nobody(), e) == h.lattice.bottom
    assert ht.vartriangle(h, a, r).partition == r.partition
    # Galois round trip
    for e in h.lattice.elements:
        back = ht.vartriangle(h, a, ht.br_transform(h, a, e))
        assert pt.refines(back.partition, e.partition)


def _random_structure(rng, n_agents=3, n_issues=3):
    names = [f"x{i}" for i in range(n_issues)]
    space = ft.build_space([(n, ft.binary(n)) for n in names])
    lattice = lt.build_lattice(lt.projection_issue_set(space, names))
    agents = AgentSet([f"a{i}" for i in range(n_agents)])
    ids = [f"param:{n}" for n in names]
    relevance = ht.RelevanceRelation(
        [(i, a) for i in ids for a in agents.names if rng.random() < 0.5]
    )
    substitution = ht.SubstitutionRelation(
        [
            (n, a, m)
            for n in ids
            for a in agents.names
            for m in ids
            if rng.random() < 0.25
        ]
    )
    return ht.HeteroStructure(agents, lattice, None, relevance, substitution)


def test_normality_random_structures():
    rng = random.Random(17)
    for _ in range(200):
        h = _random_structure(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        masks = range(1 << len(h.agents))
        from agenda_algebra.coalitions import Coalition

        coalitions = [Coalition(h.agents, m) for m in masks]
        assert ht.common_agenda(h, h.agents.nobody()) == h.lattice.bottom
        assert ht.distributed_agenda(h, h.agents.nobody()) == h.lattice.top
        meet_prime = h.lattice.issues_meet_prime()
        for c1, c2 in itertools.product(coalitions, repeat=2):
            union = c1 | c2
            dia = ht.common_agenda(h, union)
            assert dia == h.lattice.d_join(
                [ht.common_agenda(h, c1), ht.common_agenda(h, c2)]
            )
            if meet_prime:
                rhd = ht.distributed_agenda(h, union)
                met = pt.meet(
                    ht.distributed_agenda(h, c1).partition,
                    ht.distributed_agenda(h, c2).partition,
                )
                assert rhd.partition == met
            if c1 <= c2:
                assert pt.refines(
                    ht.distributed_agenda(h, c2).partition,
                    ht.distributed_agenda(h, c1).partition,
                )
        if meet_prime:
            # the transform turns meets of agendas into joins
            c = coalitions[-1]
            for e1, e2 in itertools.combinations(h.lattice.elements, 2):
                met = ft.meet_agendas(e1, e2)
                lhs = ht.subst_transform(h, c, met)
                rhs = h.lattice.d_join(
                    [
                        ht.subst_transform(h, c, e1),
                        ht.subst_transform(h, c, e2),
                    ]
                )
                assert lhs.partition == rhs.partition


def test_residuation_random_structures():
    rng = random.Random(19)
    for _ in range(25):
        h = _random_structure(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        from agenda_algebra.coalitions import Coalition

        coalitions = [
            Coalition(h.agents, m) for m in range(1 << len(h.agents))
        ]
        elements = h.lattice.elements
        meet_prime = h.lattice.issues_meet_prime()
        eqless_cache = {
            (c.mask, e2.partition): ht.residual_second(h, c, e2)
            for c in coalitions
            for e2 in elements
        }
        tri_cache = {
            (c.mask, e1.partition): ht.vartriangle(h, c, e1)
            for c in coalitions
            for e1 in elements
        }
        for c in coalitions:
            for e1, e2 in itertools.product(elements, repeat=2):
                lhs = pt.refines(
                    ht.subst_transform(h, c, e1).partition, e2.partition
                )
                assert lhs == (c <= ht.star(h, e1, e2))
                rhs = pt.refines(
                    e1.partition, ht.br_transform(h, c, e2).partition
                )
                assert rhs == (c <= ht.brB(h, e1, e2))
                if meet_prime:
                    assert lhs == pt.refines(
                        eqless_cache[(c.mask, e2.partition)].partition,
                        e1.partition,
                    )
                    assert rhs == pt.refines(
                        tri_cache[(c.mask, e1.partition)].partition,
                        e2.partition,
                    )


def test_monotonicity_signatures():
    rng = random.Random(31)
    for _ in range(40):
        h = _random_structure(rng, 2, 3)
        from agenda_algebra.coalitions import Coalition

        coalitions = [
            Coalition(h.agents, m) for m in range(1 << len(h.agents))
        ]
        for c1, c2 in itertools.product(coalitions, repeat=2):
            if not c1 <= c2:
                continue
            for e in h.lattice.elements:
                assert pt.refines(
                    ht.subst_transform(h, c1, e).partition,
                    ht.subst_transform(h, c2, e).partition,
                )
                assert pt.refines(
                    ht.br_transform(h, c2, e).partition,
                    ht.br_transform(h, c1, e).partition,
                )
        c = coalitions[-1]
        for e1, e2 in itertools.product(h.lattice.elements, repeat=2):
            if pt.refines(e1.partition, e2.partition):
                assert pt.refines(
                    ht.subst_transform(h, c, e2).partition,
                    ht.subst_transform(h, c, e1).partition,
                )
                assert pt.refines(
                    ht.br_transform(h, c, e1).partition,
                    ht.br_transform(h, c, e2).partition,
                )

"""Acceptance gate: one test per criterion, each printing a verdict line.

Criterion 9's bounded-equivalence leg is split out as 9b and expected to
fail: the two frames of every fixture are provably distinguishable by a
depth-2 sequent (tests/test_fixtures_gt.py pins the witnesses), so the
strict xfail records the defect without hiding it.
"""

import itertools
import random

import pytest

from agenda_algebra import features as ft
from agenda_algebra import lattice as lt
from agenda_algebra import partitions as pt
from agenda_algebra.logic import conditions as cn
from agenda_algebra.logic import correspondence as co
from agenda_algebra.logic.fixtures import MORPHISM, UNION, gt_fixture
from agenda_algebra.logic.frames import (
    RelationalStructure,
    check_forth_morphism,
    disjoint_union,
)
from agenda_algebra.scenario import analyze, load_scenario
from agenda_algebra.scenarios import scenario_text

from random_structures import random_partition, random_preorder
from test_fixtures_gt import _bde_report


def _ok(criterion, text=""):
    suffix = f" ({text})" if text else ""
    print(f"criterion {criterion}: PASS{suffix}")


def _hiring_proj(space, names):
    return ft.projection_agenda(space, names).partition


def test_criterion_1_hiring_fixture():
    report1 = analyze(load_scenario(scenario_text("hiring_s1")))
    space = load_scenario(scenario_text("hiring_s1")).space
    assert report1.per_agent["alan"].winner == "John"
    assert report1.per_agent["alan"].agenda.partition == \
        _hiring_proj(space, ["p", "r"])
    assert report1.per_agent["betty"].decision.verdict == ft.NO_DECISION
    # union of the two agendas inside the lattice is the reference issue
    assert report1.common.agenda.partition == _hiring_proj(space, ["r"])
    assert report1.common.winner == "John"
    # meet of the two agendas decides nothing
    assert report1.distributed.agenda.partition == \
        _hiring_proj(space, ["r", "p", "l"])
    assert report1.distributed.decision.verdict == ft.NO_DECISION
    # one-step coarsening candidates: four agendas, one undecided
    cset = {ap.agenda.partition: ap for ap in report1.candidate_set}
    assert len(cset) == 4
    expected = {
        tuple(["p", "r"]): "John",
        tuple(["r"]): "John",
        tuple(["p", "l"]): "Mary",
        tuple(["l", "r"]): None,
    }
    for names, winner in expected.items():
        ap = cset[_hiring_proj(space, list(names))]
        assert ap.winner == winner
    undecided = [
        ap for ap in report1.candidate_set
        if ap.decision.verdict == ft.NO_DECISION
    ]
    assert len(undecided) == 1
    assert undecided[0].agenda.partition == _hiring_proj(space, ["l", "r"])
    # first substitution pattern keeps the shared issue
    assert report1.aggregate.agenda.partition == _hiring_proj(space, ["r"])
    assert report1.aggregate.winner == "John"
    # second substitution pattern swaps into the other agent's issues
    report2 = analyze(load_scenario(scenario_text("hiring_s2")))
    assert report2.aggregate.agenda.partition == _hiring_proj(space, ["p", "l"])
    assert report2.aggregate.winner == "Mary"
    _ok(1)


def test_criterion_2_car_fixture():
    scenario = load_scenario(scenario_text("car"))
    space = scenario.space
    report = analyze(scenario)
    assert report.per_agent["alan"].winner == "C1"
    assert report.per_agent["alan"].agenda.partition == \
        ft.sum_agenda(space, ["s", "f", "p"]).partition
    assert report.per_agent["betty"].winner == "C2"
    assert report.per_agent["betty"].agenda.partition == \
        ft.sum_agenda(space, ["f", "t", "m"]).partition
    assert report.named["fuel_only"].winner == "C2"
    assert report.named["fuel_only"].agenda.partition == \
        ft.sum_agenda(space, ["f"]).partition
    assert report.named["all_parameters"].winner == "C1"
    assert report.named["all_parameters"].agenda.partition == \
        ft.sum_agenda(space, list("sfptm")).partition
    assert report.common.agenda.partition == pt.Partition.single_block(32)
    assert report.common.decision.verdict == ft.TIE
    assert report.distributed.decision.verdict == ft.NO_DECISION
    expected_aggregate = pt.meet_all([
        ft.threshold_issue(space, ["f", "t", "m"], 0).partition,
        ft.threshold_issue(space, ["s", "f", "p"], 0).partition,
        ft.threshold_issue(space, ["s", "f", "p"], 1).partition,
    ])
    assert report.aggregate.agenda.partition == expected_aggregate
    assert report.aggregate.winner == "C1"
    _ok(2)


def test_criterion_3_irreducible_counts():
    for n in range(2, 11):
        atoms, coatoms = pt.enumerate_irreducibles(n)
        assert len(atoms) == n * (n - 1) // 2
        assert len(coatoms) == 2 ** (n - 1) - 1
    atoms8, coatoms8 = pt.enumerate_irreducibles(8)
    assert (len(coatoms8), len(atoms8)) == (127, 28)
    for n in range(2, 6):
        elems = list(pt.enumerate_partitions(n))
        atoms, coatoms = pt.enumerate_irreducibles(n)

        def strictly_between(a, b, c):
            return (
                c != a and c != b and pt.refines(a, c) and pt.refines(c, b)
            )

        join_irr = set()
        meet_irr = set()
        for p in elems:
            below = [q for q in elems if q != p and pt.refines(q, p)]
            covers_below = [
                q for q in below
                if not any(strictly_between(q, p, r) for r in below)
            ]
            if p != pt.Partition.singletons(n) and len(covers_below) == 1:
                join_irr.add(p)
            above = [q for q in elems if q != p and pt.refines(p, q)]
            covers_above = [
                q for q in above
                if not any(strictly_between(p, q, r) for r in above)
            ]
            if p != pt.Partition.single_block(n) and len(covers_above) == 1:
                meet_irr.add(p)
        assert join_irr == set(atoms)
        assert meet_irr == set(coatoms)
    _ok(3, "formulas 2..10, exhaustive covers up to n=5")


def test_criterion_4_property_suites_and_counterexamples():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randrange(2, 9)
        p, q, r = (random_partition(rng, n) for _ in range(3))
        assert pt.meet(p, q) == pt.meet(q, p)
        assert pt.join(p, q) == pt.join(q, p)
        assert pt.meet(p, pt.meet(q, r)) == pt.meet(pt.meet(p, q), r)
        assert pt.join(p, pt.join(q, r)) == pt.join(pt.join(p, q), r)
        assert pt.meet(p, pt.join(p, q)) == p
        assert pt.join(p, pt.meet(p, q)) == p
        assert pt.refines(p, q) == (pt.meet(p, q) == p)
        assert pt.refines(p, q) == (pt.join(p, q) == q)
    for _ in range(500):
        n = rng.randrange(2, 9)
        e = random_partition(rng, n)
        bigger = pt.join(e, random_partition(rng, n))
        x = frozenset(i for i in range(n) if rng.random() < 0.5)
        y = frozenset(i for i in range(n) if rng.random() < 0.5)
        assert (pt.diamond_set(e, x) <= y) == (x <= pt.box_set(e, y))
        comp = frozenset(range(n)) - x
        assert pt.box_set(e, x) == \
            frozenset(range(n)) - pt.diamond_set(e, comp)
        assert pt.diamond_set(e, x) <= pt.diamond_set(bigger, x)
        assert pt.box_set(bigger, x) <= pt.box_set(e, x)

    # the four counterexamples on the nine-element space, verbatim
    e1 = pt.Partition(9, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    e2 = pt.Partition(9, [{0, 3, 6}, {1, 4, 7}, {2, 5, 8}])
    w = frozenset(range(9))
    x = frozenset({1, 5})
    assert pt.diamond_set(pt.join(e1, e2), x) == w
    assert pt.diamond_set(e1, x) | pt.diamond_set(e2, x) != w
    assert pt.diamond_set(pt.meet(e1, e2), x) == x
    assert pt.diamond_set(e1, x) & pt.diamond_set(e2, x) != x
    assert pt.box_set(pt.meet(e1, e2), x) == x
    assert pt.box_set(e1, x) | pt.box_set(e2, x) == frozenset() != x
    x2 = frozenset({0, 1, 2, 3, 6})
    assert pt.box_set(pt.join(e1, e2), x2) == frozenset()
    assert pt.box_set(e1, x2) & pt.box_set(e2, x2) == frozenset({0})
    _ok(4, "500 random instances per suite, 4 counterexamples")


def test_criterion_5_roundtrips():
    from test_partitions import enumerate_preorders

    for n in (1, 2, 3, 4):
        for pre in enumerate_preorders(n):
            e = pt.equiv_from_preorder(pre)
            assert pt.preorder_from_equiv(e, pre) == pre
            assert pt.equiv_from_preorder(pt.preorder_from_equiv(e, pre)) == e
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randrange(2, 17)
        pre = random_preorder(rng, n)
        e = pt.equiv_from_preorder(pre)
        assert pt.preorder_from_equiv(e, pre) == pre
        assert pt.equiv_from_preorder(pt.preorder_from_equiv(e, pre)) == e
    _ok(5, "exhaustive <=4 points, 200 random <=16 points")


def test_criterion_6_sum_decomposition():
    car = ft.build_space([(x, ft.binary(x)) for x in "sfptm"])
    checked = 0
    for k in range(1, 6):
        for names in itertools.combinations("sfptm", k):
            assert ft.sum_decomposition_check(car, list(names))
            checked += 1
    assert checked == 31
    three = ("0", "1/2", "1")
    space3 = ft.build_space([(x, ft.chain(x, three)) for x in "abc"])
    for k in range(1, 4):
        for names in itertools.combinations("abc", k):
            assert ft.sum_decomposition_check(space3, list(names))
    _ok(6, "31 subsets on the binary space, 7 on the {0,1/2,1} space")


def test_criterion_7_distributivity():
    for k in (1, 2, 3, 4):
        names = [f"x{i}" for i in range(k)]
        space = ft.build_space([(n, ft.binary(n)) for n in names])
        lattice = lt.build_lattice(lt.projection_issue_set(space, names))
        distributive, witness = lattice.is_distributive()
        assert distributive and witness is None
    space = ft.build_space([(n, ft.binary(n)) for n in ("x", "y")])
    issues = [
        lt.Issue("sum:x<=0", ft.threshold_issue(space, ["x"], 0)),
        lt.Issue("sum:y<=0", ft.threshold_issue(space, ["y"], 0)),
        lt.Issue("sum:x,y<=0", ft.threshold_issue(space, ["x", "y"], 0)),
        lt.Issue("sum:x,y<=1", ft.threshold_issue(space, ["x", "y"], 1)),
    ]
    lattice = lt.build_lattice(lt.IssueSet(issues))
    distributive, witness = lattice.is_distributive()
    assert not distributive
    x, y, z = witness
    lhs = pt.meet(x.partition, lattice.d_join([y, z]).partition)
    rhs = lattice.d_join([
        ft.Agenda(pt.meet(x.partition, y.partition)),
        ft.Agenda(pt.meet(x.partition, z.partition)),
    ]).partition
    assert lhs != rhs
    _ok(7, "projection lattices distributive, sum lattice witnessed")


def test_criterion_8_correspondence_oracle():
    structures = 0
    for nc in (1, 2):
        for nd in (1, 2):
            for frame in cn.enumerate_structures(nc, nd):
                structures += 1
                for report in co.all_pairs_agree(frame):
                    assert report.agree, (frame.to_json(), report)
    assert structures == 8 + 128 + 256 + 65536
    rng = random.Random(424242)
    for _ in range(200):
        agents = tuple(f"j{k}" for k in range(3))
        issues = tuple(f"m{k}" for k in range(3))

        def pick(pool, prob=0.3):
            return frozenset(x for x in pool if rng.random() < prob)

        frame = RelationalStructure(
            C=agents,
            D=issues,
            I=pick([(a, b) for a in agents for b in agents]),
            R=pick([(m, j) for m in issues for j in agents]),
            S=pick(
                [(n, j, m)
                 for n in issues for j in agents for m in issues]
            ),
        )
        for report in co.all_pairs_agree(frame):
            assert report.agree, (frame.to_json(), report)
    _ok(8, f"{structures} exhaustive structures + 200 random at size 3")


def test_criterion_9a_fixture_verdicts_and_morphisms():
    for case in (1, 2, 4, 5, 6, 7, 8):
        fixture = gt_fixture(case)
        assert cn.check_condition(fixture.f1, fixture.condition) == \
            fixture.expect_f1
        assert cn.check_condition(fixture.f2, fixture.condition) == \
            fixture.expect_f2
        if fixture.kind == UNION:
            union = disjoint_union(fixture.f1, fixture.f2)
            assert cn.check_condition(union, fixture.condition) == \
                fixture.expect_union
        if fixture.kind == MORPHISM:
            report = check_forth_morphism(
                fixture.maps, fixture.f1, fixture.f2
            )
            assert report.ok
    fixture3 = gt_fixture(3)
    assert fixture3.partial
    assert not cn.check_condition(fixture3.f2, "antisymmetric")
    _ok("9a", "verdicts and morphism checks for cases 1..8")


@pytest.mark.xfail(
    strict=True,
    reason="each fixture pair is split by a depth-2 sequent; the claimed "
    "agreement is unattainable (witnesses in tests/test_fixtures_gt.py)",
)
def test_criterion_9b_bounded_equivalence_claim():
    for case in (1, 2, 4, 5, 6, 7, 8):
        report = _bde_report(case)
        if not report.agree:
            print(
                f"criterion 9b: FAIL as expected on case {case}; "
                f"distinguishing sequent: {report.first_disagreement[0]}"
            )
        assert report.agree


def test_criterion_10_equivariance_witness():
    space = ft.build_space([(x, ft.binary(x)) for x in "sfptm"])
    report = ft.equivariance_witness_check(space)
    assert report.per_parameter_match == {"s": True, "f": True}
    assert report.sum_on_u_is_square
    assert report.sum_on_u_prime_is_diagonal
    assert report.contradiction
    _ok(10, "all four stated facts reproduced")

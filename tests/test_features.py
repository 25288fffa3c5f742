"""Profile spaces, projection/sum/threshold agendas, and decisions."""

import itertools
from fractions import Fraction

import pytest

from agenda_algebra import features as ft
from agenda_algebra import partitions as pt
from agenda_algebra.errors import (
    CapExceeded,
    DegenerateThreshold,
    IncompatibleRule,
    IndexOutOfRange,
    MalformedScale,
    NonLinearScale,
    UnknownParameter,
    WrongSpace,
)


def hiring_space():
    return ft.build_space(
        [("r", ft.binary("r")), ("p", ft.binary("p")), ("l", ft.binary("l"))]
    )


def car_space():
    return ft.build_space([(x, ft.binary(x)) for x in "sfptm"])


def n5_scale():
    # four rational grades plus an incomparable "unknown" between 0 and 1
    return ft.poset(
        "r",
        ("0", "1/3", "2/3", "1", "u"),
        covers=[("0", "1/3"), ("1/3", "2/3"), ("2/3", "1"),
                ("0", "u"), ("u", "1")],
    )


def n5_space():
    three = ("0", "1/2", "1")
    return ft.build_space(
        [("r", n5_scale()), ("p", ft.chain("p", three)),
         ("l", ft.chain("l", three))]
    )


def john_mary(space):
    return (
        space.profile_id({"r": "1", "p": "1", "l": "0"}),
        space.profile_id({"r": "0", "p": "1", "l": "1"}),
    )


def c1_c2(space):
    return (
        space.profile_id({"s": "1", "f": "0", "p": "1", "t": "0", "m": "1"}),
        space.profile_id({"s": "0", "f": "1", "p": "0", "t": "1", "m": "0"}),
    )


def test_build_space_sizes():
    assert hiring_space().n == 8
    assert car_space().n == 32
    assert n5_space().n == 45


def test_build_space_cap_and_malformed():
    with pytest.raises(CapExceeded):
        ft.build_space([(x, ft.binary(x)) for x in "abcdefghijklm"])
    with pytest.raises(MalformedScale):
        ft.poset("x", ("a", "b"), covers=[("a", "b"), ("b", "a")])
    with pytest.raises(MalformedScale):
        # two maximal values
        ft.poset("x", ("a", "b", "c"), covers=[("a", "b"), ("a", "c")])


def test_dominance_is_cube():
    space = hiring_space()
    assert space.dominance.is_partial_order()
    john, mary = john_mary(space)
    assert not space.dominance.leq(john, mary)
    assert not space.dominance.leq(mary, john)


def test_projection_agendas():
    space = hiring_space()
    assert ft.projection_agenda(space, []).partition == \
        pt.Partition.single_block(8)
    pr = ft.projection_agenda(space, ["p", "r"])
    assert len(pr.partition.blocks) == 4
    assert all(len(b) == 2 for b in pr.partition.blocks)
    assert ft.projection_agenda(space, ["r", "p", "l"]).partition == \
        pt.Partition.singletons(8)
    # meet of singleton projections equals the joint projection
    for names in ([], ["r"], ["p", "l"], ["r", "p", "l"]):
        joint = ft.projection_agenda(space, names).partition
        met = pt.meet_all(
            [ft.projection_agenda(space, [y]).partition for y in names], n=8
        )
        assert joint == met
    with pytest.raises(UnknownParameter):
        ft.projection_agenda(space, ["zz"])


def test_sum_agenda_classes():
    space = car_space()
    full = ft.sum_agenda(space, list("sfptm"))
    assert len(full.partition.blocks) == 6
    c1, c2 = c1_c2(space)
    by_score = {
        space.sum_score(b[0], list("sfptm")): b
        for b in full.partition.blocks
    }
    assert c2 in by_score[Fraction(2)]
    assert c1 in by_score[Fraction(3)]
    # single binary parameter: sum and projection agendas coincide
    assert ft.sum_agenda(space, ["f"]).partition == \
        ft.projection_agenda(space, ["f"]).partition
    assert ft.sum_agenda(space, []).partition == pt.Partition.single_block(32)


def test_sum_agenda_rejects_nonlinear():
    space = n5_space()
    with pytest.raises(NonLinearScale):
        ft.sum_agenda(space, ["r"])
    ft.sum_agenda(space, ["p", "l"])  # chains with parseable labels are fine


def test_sum_rule_rejects_a_numeric_entry_that_is_no_rational():
    odd = ft.chain("x", ["a", "b"], numeric={"a": "zz", "b": 1})
    space = ft.build_space([("x", odd), ("y", ft.chain("y", ["0", "1"]))])
    for build in (
        lambda: ft.sum_agenda(space, ["x", "y"]),
        lambda: ft.threshold_issue(space, ["x"], 0),
    ):
        with pytest.raises(NonLinearScale, match="x is not sum-scorable"):
            build()
    # the entry points that score every profile meet label "a" first
    for build in (
        lambda: ft.achievable_sums(space, ["x"]),
        lambda: ft.threshold_issues_for(space, ["x", "y"]),
    ):
        with pytest.raises(
            NonLinearScale, match="scale x: no rational value for label 'a'"
        ):
            build()


@pytest.mark.parametrize("entry", ["zz", None, float("nan"), float("inf"), "1/0"])
def test_value_fraction_turns_a_failed_numeric_entry_into_nonlinear(entry):
    odd = ft.chain("x", ["a", "b"], numeric={"a": entry, "b": 1})
    with pytest.raises(NonLinearScale, match="no rational value for label"):
        odd.value_fraction(0)
    assert not odd.is_sum_ready()
    assert odd.value_fraction(1) == 1


def test_threshold_issue():
    space = car_space()
    issue = ft.threshold_issue(space, ["f"], 0)
    assert issue.partition == ft.projection_agenda(space, ["f"]).partition
    assert pt.classify_irreducible(issue.partition) is pt.IrreducibleKind.COATOM
    with pytest.raises(DegenerateThreshold):
        ft.threshold_issue(space, ["f"], 1)
    with pytest.raises(DegenerateThreshold):
        ft.threshold_issue(space, ["s", "f"], Fraction(5, 2))
    # meet of the two thresholds over a pair tripartitions by sum
    pair = ["s", "f"]
    met = pt.meet(
        ft.threshold_issue(space, pair, 0).partition,
        ft.threshold_issue(space, pair, 1).partition,
    )
    assert met == ft.sum_agenda(space, pair).partition
    assert len(met.blocks) == 3


def test_rule_preorders():
    space = hiring_space()
    john, mary = john_mary(space)
    td = ft.rule_preorder(space, ft.TOTAL_DOMINANCE, ["r", "p", "l"])
    assert not td.leq(john, mary) and not td.leq(mary, john)
    assert ft.rule_preorder(space, ft.TOTAL_DOMINANCE, []) == \
        pt.Preorder.total(8)
    car = car_space()
    c1, c2 = c1_c2(car)
    sm = ft.rule_preorder(car, ft.SUM, list("sfp"))
    assert sm.leq(c2, c1) and not sm.leq(c1, c2)
    assert ft.rule_preorder(car, ft.SUM, []) == pt.Preorder.total(32)


def test_sum_preorder_quotient_classes():
    car = car_space()
    pre = ft.rule_preorder(car, ft.SUM, list("sfptm"))
    assert len(pt.equiv_from_preorder(pre).blocks) == 6


def test_prefers_hiring_pairs():
    """Raw quotient comparison, before the decision wrapper."""
    space = hiring_space()
    john, mary = john_mary(space)
    e_alan = ft.projection_agenda(space, ["p", "r"]).partition
    e_betty = ft.projection_agenda(space, ["l", "r"]).partition
    assert pt.prefers(e_alan, space.dominance, john, mary) is \
        pt.PairOrder.PREFERS_U
    assert pt.prefers(e_alan, space.dominance, mary, john) is \
        pt.PairOrder.PREFERS_W
    assert pt.prefers(e_betty, space.dominance, john, mary) is \
        pt.PairOrder.INCOMPARABLE


def test_decide_hiring():
    space = hiring_space()
    john, mary = john_mary(space)
    rule = ft.TOTAL_DOMINANCE

    def verdict(names):
        agenda = ft.projection_agenda(space, names)
        return ft.decide(space, rule, agenda, john, mary).verdict

    assert verdict(["p", "r"]) == ft.PREFERS_FIRST      # Alan
    assert verdict(["l", "r"]) == ft.NO_DECISION        # Betty
    assert verdict(["r"]) == ft.PREFERS_FIRST           # join of agendas
    assert verdict(["p", "l"]) == ft.PREFERS_SECOND
    assert verdict(["r", "p", "l"]) == ft.NO_DECISION
    assert verdict([]) == ft.TIE


def test_decide_car():
    space = car_space()
    c1, c2 = c1_c2(space)
    rule = ft.SUM

    def verdict(names):
        return ft.decide(
            space, rule, ft.sum_agenda(space, names), c1, c2
        ).verdict

    assert verdict(list("sfp")) == ft.PREFERS_FIRST     # Alan
    assert verdict(list("ftm")) == ft.PREFERS_SECOND    # Betty
    assert verdict(["f"]) == ft.PREFERS_SECOND
    assert verdict(list("sfptm")) == ft.PREFERS_FIRST
    # every three-parameter agenda decides the pair
    for names in itertools.combinations("sfptm", 3):
        assert verdict(list(names)) in (ft.PREFERS_FIRST, ft.PREFERS_SECOND)


def test_decide_rule_compatibility():
    space = car_space()
    c1, c2 = c1_c2(space)
    with pytest.raises(IncompatibleRule):
        ft.decide(
            space, ft.TOTAL_DOMINANCE, ft.sum_agenda(space, ["f"]), c1, c2
        )
    with pytest.raises(IncompatibleRule):
        ft.decide(
            space, ft.SUM, ft.projection_agenda(space, ["f"]), c1, c2
        )


@pytest.mark.parametrize("pid", [-1, 4, 9])
@pytest.mark.parametrize(
    "path", ["projection", "sum", "threshold", "meet", "labels", "sum_score"]
)
def test_decide_refuses_profile_ids_outside_the_space(path, pid):
    """-1 does not wrap round to the last profile, on any path.

    ``labels`` and ``sum_score`` refuse the same ids with the same message.
    """
    space = ft.build_space([(x, ft.binary(x)) for x in "xy"])
    want = rf"profile {pid} outside 0\.\.3"
    if path in ("labels", "sum_score"):
        with pytest.raises(IndexOutOfRange, match=want):
            if path == "labels":
                space.labels(pid)
            else:
                space.sum_score(pid, ["x", "y"])
        return
    rule, agenda = {
        "projection": (
            ft.TOTAL_DOMINANCE, ft.projection_agenda(space, ["x"])
        ),
        "sum": (ft.SUM, ft.sum_agenda(space, ["x", "y"])),
        "threshold": (ft.SUM, ft.threshold_issue(space, ["x", "y"], 0)),
        "meet": (ft.TOTAL_DOMINANCE, ft.Agenda(
            ft.projection_agenda(space, ["x"]).partition,
            ft.MeetOfIssues(("param:x",)),
        )),
    }[path]
    for first, second in ((pid, 0), (0, pid)):
        with pytest.raises(IndexOutOfRange, match=want):
            ft.decide(space, rule, agenda, first, second)


def test_decide_agrees_with_generic_quotient():
    """Rule fast paths match the generic quotient-preorder comparison."""
    space = car_space()
    pairs = [(3, 17), (0, 31), (5, 5), *[(i, 2 * i % 32) for i in range(8)]]
    for names in itertools.chain.from_iterable(
        itertools.combinations("sfptm", k) for k in (0, 1, 2, 3)
    ):
        names = list(names)
        proj = ft.projection_agenda(space, names)
        summ = ft.sum_agenda(space, names)
        for a, b in pairs:
            fast = ft.decide(space, ft.TOTAL_DOMINANCE, proj, a, b).verdict
            generic = pt.prefers(proj.partition, space.dominance, a, b).value
            assert fast == generic
            fast = ft.decide(space, ft.SUM, summ, a, b).verdict
            generic = pt.prefers(summ.partition, space.dominance, a, b).value
            assert fast == generic


def test_quotient_lemma_identities():
    """Induced equivalences and preorders agree with the rule preorders."""
    space = hiring_space()
    dom = space.dominance
    all_names = ["r", "p", "l"]
    for k in range(4):
        for names in itertools.combinations(all_names, k):
            names = list(names)
            e_y = ft.projection_agenda(space, names).partition
            le_y = ft.rule_preorder(space, ft.TOTAL_DOMINANCE, names)
            assert pt.equiv_from_preorder(le_y) == e_y
            assert pt.preorder_from_equiv(e_y, dom) == le_y
            # composition identity through any larger parameter set
            for bigger in itertools.combinations(all_names, 3):
                le_big = ft.rule_preorder(
                    space, ft.TOTAL_DOMINANCE, list(bigger)
                )
                em = e_y.as_matrix().astype("uint8")
                comp = (em @ le_big.holds.astype("uint8") @ em) > 0
                assert (comp == le_y.holds).all()


def test_sum_quotient_lemma_identities():
    space = car_space()
    dom = space.dominance
    for names in (["f"], ["s", "f"], ["s", "f", "p"], list("sfptm")):
        e_sum = ft.sum_agenda(space, names).partition
        le_sum = ft.rule_preorder(space, ft.SUM, names)
        assert pt.preorder_from_equiv(e_sum, dom) == le_sum
        em = e_sum.as_matrix().astype("uint8")
        comp = (em @ dom.holds.astype("uint8") @ em) > 0
        assert (comp == le_sum.holds).all()


def test_larger_projection_compatible_with_smaller_order():
    """The agenda over a superset respects the order over the subset."""
    space = hiring_space()
    for small, big in ((["r"], ["r", "p"]), (["p"], ["r", "p", "l"]),
                       (["r", "l"], ["r", "p", "l"])):
        order = ft.rule_preorder(space, ft.TOTAL_DOMINANCE, small)
        e_big = ft.projection_agenda(space, big).partition
        assert pt.compatibility(e_big, order) in (
            pt.Compatibility.COMPATIBLE,
            pt.Compatibility.STRONGLY_COMPATIBLE,
        )
        # strong compatibility only when the sets coincide
        same = ft.projection_agenda(space, small).partition
        assert pt.compatibility(same, order) is \
            pt.Compatibility.STRONGLY_COMPATIBLE


def test_projection_refined_by_sum_rule():
    """A strict projection win implies a strict sum win on the same set."""
    space = car_space()
    for k in range(6):
        for names in itertools.combinations("sfptm", k):
            names = list(names)
            proj = ft.projection_agenda(space, names)
            summ = ft.sum_agenda(space, names)
            for a in range(space.n):
                for b in range(a + 1, space.n):
                    td = ft.decide(space, ft.TOTAL_DOMINANCE, proj, a, b)
                    if td.verdict == ft.PREFERS_FIRST:
                        assert ft.decide(
                            space, ft.SUM, summ, a, b
                        ).verdict == ft.PREFERS_FIRST


def test_distributed_unanimity():
    """The union agenda decides exactly when all parts agree on a verdict."""
    space = hiring_space()
    john, mary = john_mary(space)
    groups = [["r"], ["p", "l"], ["r", "l"]]
    for k in (2, 3):
        for chosen in itertools.combinations(groups, k):
            union = sorted({y for names in chosen for y in names})
            verdicts = [
                ft.decide(
                    space, ft.TOTAL_DOMINANCE,
                    ft.projection_agenda(space, names), john, mary
                ).verdict
                for names in chosen
            ]
            joint = ft.decide(
                space, ft.TOTAL_DOMINANCE,
                ft.projection_agenda(space, union), john, mary
            ).verdict
            decided = {ft.PREFERS_FIRST, ft.PREFERS_SECOND, ft.TIE}
            if joint in decided:
                assert len(set(verdicts)) == 1 and verdicts[0] == joint
            else:
                assert len(set(verdicts)) > 1 or ft.NO_DECISION in verdicts


def test_nonlinear_scale_blocks_decisions():
    """Incomparable scores on a parameter block every agenda using it."""
    space = n5_space()
    john = space.profile_id({"r": "2/3", "p": "1", "l": "1/2"})
    mary = space.profile_id({"r": "u", "p": "1", "l": "1"})
    r_scale = space.scale_of["r"]
    r_col = space.values[:, space.names.index("r")].tolist()
    incomparable = [
        (a, b)
        for a in range(space.n)
        for b in range(space.n)
        if not r_scale.leq(r_col[a], r_col[b])
        and not r_scale.leq(r_col[b], r_col[a])
    ]
    assert (john, mary) in incomparable
    for names in (["r"], ["r", "p"], ["r", "l"], ["r", "p", "l"]):
        agenda = ft.projection_agenda(space, names)
        for a, b in incomparable[::7] + [(john, mary)]:
            assert ft.decide(
                space, ft.TOTAL_DOMINANCE, agenda, a, b
            ).verdict == ft.NO_DECISION
    # while the agenda on the two chain parameters does decide
    assert ft.decide(
        space, ft.TOTAL_DOMINANCE,
        ft.projection_agenda(space, ["p", "l"]), john, mary
    ).verdict == ft.PREFERS_SECOND
    assert ft.decide(
        space, ft.TOTAL_DOMINANCE,
        ft.projection_agenda(space, ["l"]), john, mary
    ).verdict == ft.PREFERS_SECOND


def test_sum_decomposition():
    space = car_space()
    for k in range(1, 6):
        for names in itertools.combinations("sfptm", k):
            assert ft.sum_decomposition_check(space, list(names))
    three = ("0", "1/2", "1")
    space3 = ft.build_space([(x, ft.chain(x, three)) for x in "abc"])
    for k in range(1, 4):
        for names in itertools.combinations("abc", k):
            assert ft.sum_decomposition_check(space3, list(names))


def test_equivariance_witness():
    report = ft.equivariance_witness_check(car_space())
    assert report.per_parameter_match == {"s": True, "f": True}
    assert report.sum_on_u_is_square
    assert report.sum_on_u_prime_is_diagonal
    assert report.contradiction
    assert report.all_facts_hold
    with pytest.raises(WrongSpace):
        ft.equivariance_witness_check(hiring_space())

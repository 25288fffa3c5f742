"""The exact-integer profile layer against the ``Fraction`` definitions.

The references below score one profile at a time in ``Fraction``s and
build the n x n preorders, as the sum rule is defined.  Hypothesis draws
small spaces mixing chains with rational labels, chains with numeric
maps (ordinary fractions, float-derived values such as ``Fraction(0.1)``
and huge rationals that force Python-int score tables), chains without
rational values and poset scales, then compares every sum-rule function
and ``decide`` on parameter lists that may be empty, repeat a name or
name no parameter, and on thresholds with huge denominators.  Each
function must return what its reference returns, or raise the same
exception type with the same message.

One narrowing is allowed and checked for: on a chain where some label
has no rational value, the reference still scores the profiles whose own
labels are rational, while the integer layer, which keeps tables only
for sum-ready scales, raises ``NonLinearScale`` there.
"""

import gc
import itertools
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agenda_algebra import features as ft
from agenda_algebra import partitions as pt
from agenda_algebra.errors import (
    DegenerateThreshold,
    GroundMismatch,
    IncompatibleRule,
    NonLinearScale,
)

from random_structures import random_partition

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None)


# -- references: the Fraction definitions ------------------------------------


def enumerated_profiles(space):
    """Value-index tuple of each profile, the first parameter slowest."""
    return tuple(itertools.product(
        *(range(len(scale.values)) for _, scale in space.params)
    ))


def ref_sum_score(space, pid, names):
    positions = space._param_positions(names)
    total = Fraction(0)
    for k in positions:
        scale = space.params[k][1]
        if scale.kind != ft.CHAIN:
            raise NonLinearScale(
                f"parameter {space.params[k][0]} is not on a chain"
            )
        total += scale.value_fraction(enumerated_profiles(space)[pid][k])
    return total


def ref_require_sum_ready(space, names):
    for pos in space._param_positions(names):
        name, scale = space.params[pos]
        if not scale.is_sum_ready():
            raise NonLinearScale(f"parameter {name} is not sum-scorable")


def ref_sum_agenda(space, names):
    ref_require_sum_ready(space, names)
    part = pt.Partition.from_key(
        space.n, lambda pid: ref_sum_score(space, pid, names)
    )
    return ft.Agenda(part, ft.SumDescriptor(frozenset(names)))


def ref_achievable_sums(space, names):
    return sorted({ref_sum_score(space, pid, names) for pid in range(space.n)})


def ref_threshold_issue(space, names, k):
    k = k if isinstance(k, Fraction) else Fraction(k)
    ref_require_sum_ready(space, names)
    low = [pid for pid in range(space.n) if ref_sum_score(space, pid, names) <= k]
    if not low or len(low) == space.n:
        raise DegenerateThreshold(
            f"threshold {k} leaves an empty cell over {sorted(names)}"
        )
    part = pt.Partition.bipartition(space.n, low)
    return ft.Agenda(part, ft.ThresholdDescriptor(frozenset(names), k))


def ref_threshold_issues_for(space, names):
    sums = ref_achievable_sums(space, names)
    return [ref_threshold_issue(space, names, k) for k in sums[:-1]]


def ref_rule_preorder(space, rule, names):
    if rule == ft.TOTAL_DOMINANCE:
        positions = space._param_positions(names)
        holds = np.ones((space.n, space.n), dtype=bool)
        for k in positions:
            scale = space.params[k][1]
            col = np.array([p[k] for p in enumerated_profiles(space)])
            holds &= scale._leq[np.ix_(col, col)]
        return pt.Preorder(holds, validate=False)
    if rule == ft.SUM:
        scores = [ref_sum_score(space, pid, names) for pid in range(space.n)]
        holds = np.array(
            [[scores[x] <= scores[y] for y in range(space.n)]
             for x in range(space.n)],
            dtype=bool,
        )
        return pt.Preorder(holds, validate=False)
    raise IncompatibleRule(f"unknown winning rule {rule!r}")


def ref_decide(space, rule, agenda, first, second):
    if agenda.partition.n != space.n:
        raise GroundMismatch("agenda does not live on this space")
    desc = agenda.descriptor
    if rule == ft.TOTAL_DOMINANCE:
        if isinstance(desc, (ft.SumDescriptor, ft.ThresholdDescriptor)):
            raise IncompatibleRule("sum-generated agendas need the sum rule")
        if isinstance(desc, ft.ProjectionDescriptor):
            pre = ref_rule_preorder(space, rule, desc.params)
            return ref_decision(pre.leq(second, first), pre.leq(first, second))
    elif rule == ft.SUM:
        if isinstance(desc, ft.ProjectionDescriptor):
            raise IncompatibleRule(
                "projection agendas need the total-dominance rule"
            )
        if isinstance(desc, ft.SumDescriptor):
            pre = ref_rule_preorder(space, rule, desc.params)
            return ref_decision(pre.leq(second, first), pre.leq(first, second))
        if isinstance(desc, ft.ThresholdDescriptor):
            high_first = ref_sum_score(space, first, desc.params) > desc.k
            high_second = ref_sum_score(space, second, desc.params) > desc.k
            return ref_decision(
                high_second <= high_first, high_first <= high_second
            )
    else:
        raise IncompatibleRule(f"unknown winning rule {rule!r}")
    base = ref_rule_preorder(space, ft.TOTAL_DOMINANCE, space.names)
    return ft.Decision(pt.prefers(agenda.partition, base, first, second).value)


def ref_decision(second_below, first_below):
    return ft.Decision(pt.pair_order(second_below, first_below).value)


# -- comparing outcomes -------------------------------------------------------


def normal(value):
    """A comparable form: agendas keep their label, preorders their matrix."""
    if isinstance(value, ft.Agenda):
        return ("agenda", value.partition, value.label())
    if isinstance(value, pt.Preorder):
        return ("preorder", value.holds.tobytes())
    if isinstance(value, list):
        return [normal(v) for v in value]
    return value


def outcome(fn):
    try:
        return ("returns", normal(fn()))
    except Exception as exc:  # the exception itself is what is compared
        return ("raises", type(exc), str(exc))


def scores_partially(space, names):
    """Some named chain has a label without a rational value."""
    for name in names:
        scale = space.scale_of.get(name)
        if scale is None or scale.kind != ft.CHAIN:
            continue
        try:
            if not scale.is_sum_ready():
                return True
        except (TypeError, ValueError, ArithmeticError):
            return True
    return False


def assert_same(space, names, new, ref):
    got, want = outcome(new), outcome(ref)
    if (
        want[0] == "returns"
        and got[:2] == ("raises", NonLinearScale)
        and scores_partially(space, names)
    ):
        return
    assert got == want


# -- strategies ---------------------------------------------------------------

RATIONAL_LABELS = ["0", "1", "2", "-1", "1/2", "3/4", "-5/3", "0.25", "10"]
FLOAT_VALUES = [0.1, 1e-12, 1e15, -2.5, 1 / 3, 0.2]
huge_rationals = st.builds(
    Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**80)
)
small_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def scales(draw, name):
    kind = draw(st.sampled_from([
        "labels", "numeric", "float", "huge", "non_numeric", "partial",
        "poset",
    ]))
    size = draw(st.integers(1, 4))
    if kind == "labels":
        labels = draw(st.lists(
            st.sampled_from(RATIONAL_LABELS),
            min_size=size, max_size=size, unique=True,
        ))
        return ft.chain(name, labels)
    if kind == "poset":
        return ft.poset(
            name, ["bot", "a", "b", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
            numeric={"bot": 0, "a": 1, "b": 1, "top": 2},
        )
    if kind == "non_numeric":
        return ft.chain(name, ["lo", "mid", "hi", "max"][:size])
    if kind == "partial":
        return ft.chain(name, ["0", "x", "1", "y"][:max(size, 2)])
    values = {
        "numeric": small_rationals,
        "float": st.sampled_from(
            FLOAT_VALUES + [Fraction(x) for x in FLOAT_VALUES]
        ),
        "huge": st.one_of(huge_rationals, small_rationals),
    }[kind]
    labels = [f"v{i}" for i in range(size)]
    numeric = {label: draw(values) for label in labels}
    return ft.chain(name, labels, numeric=numeric)


@st.composite
def spaces(draw):
    count = draw(st.integers(1, 3))
    names = [f"p{i}" for i in range(count)]
    return ft.build_space([(n, draw(scales(n))) for n in names])


def name_lists(space):
    """Parameter lists: a reordered subset (maybe empty), a list naming
    some parameter more than p times, or one with an undeclared name."""
    pool = list(space.names)
    return st.one_of(
        st.permutations(pool).flatmap(
            lambda perm: st.integers(0, len(perm)).map(lambda r: perm[:r])
        ),
        st.lists(
            st.sampled_from(pool), min_size=len(pool) + 1,
            max_size=len(pool) + 3,
        ),
        st.lists(st.sampled_from(pool), max_size=len(pool)).flatmap(
            lambda names: st.integers(0, len(names)).map(
                lambda i: names[:i] + ["zz"] + names[i:]
            )
        ),
    )


def thresholds(space, names):
    near = []
    try:
        near = ref_achievable_sums(space, names)
    except (TypeError, ValueError, ArithmeticError):
        pass
    tiny = Fraction(1, 2**100)
    options = [
        st.integers(-5, 5),
        huge_rationals,
        st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**90)),
    ]
    if near:
        options.append(st.sampled_from(near).flatmap(
            lambda k: st.sampled_from([k, k - tiny, k + tiny])
        ))
    return st.one_of(*options)


# -- properties -----------------------------------------------------------------


@PROPERTY_SETTINGS
@given(spaces(), st.data())
def test_sum_functions_match_fraction_definitions(space, data):
    names = data.draw(name_lists(space))
    pid = data.draw(st.integers(0, space.n - 1))
    k = data.draw(thresholds(space, names))
    assert_same(
        space, names,
        lambda: space.sum_score(pid, names),
        lambda: ref_sum_score(space, pid, names),
    )
    assert_same(
        space, names,
        lambda: ft.achievable_sums(space, names),
        lambda: ref_achievable_sums(space, names),
    )
    assert_same(
        space, names,
        lambda: ft.sum_agenda(space, names),
        lambda: ref_sum_agenda(space, names),
    )
    assert_same(
        space, names,
        lambda: ft.threshold_issue(space, names, k),
        lambda: ref_threshold_issue(space, names, k),
    )
    assert_same(
        space, names,
        lambda: ft.threshold_issues_for(space, names),
        lambda: ref_threshold_issues_for(space, names),
    )
    for rule in (ft.SUM, ft.TOTAL_DOMINANCE, "majority"):
        assert_same(
            space, names,
            lambda: ft.rule_preorder(space, rule, names),
            lambda: ref_rule_preorder(space, rule, names),
        )


@PROPERTY_SETTINGS
@given(spaces(), st.data())
def test_decide_matches_fraction_definitions(space, data):
    names = data.draw(name_lists(space))
    k = Fraction(data.draw(thresholds(space, names)))
    first = data.draw(st.integers(0, space.n - 1))
    second = data.draw(st.integers(0, space.n - 1))
    # descriptors are attached by hand, so even scales that the agenda
    # constructors refuse reach decide
    part = random_partition(data.draw(st.randoms()), space.n)
    params = frozenset(names)
    for descriptor in (
        ft.ProjectionDescriptor(params),
        ft.SumDescriptor(params),
        ft.ThresholdDescriptor(params, k),
        ft.MeetOfIssues(("a", "b")),
        ft.Opaque("meet"),
    ):
        agenda = ft.Agenda(part, descriptor)
        for rule in (ft.SUM, ft.TOTAL_DOMINANCE, "majority"):
            assert_same(
                space, names,
                lambda: ft.decide(space, rule, agenda, first, second),
                lambda: ref_decide(space, rule, agenda, first, second),
            )


DIAMOND_COVERS = [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]


@st.composite
def grid_spaces(draw):
    """1-4 parameters, each a chain of 1-3 values or the diamond poset."""
    params = []
    for i in range(draw(st.integers(1, 4))):
        name = f"p{i}"
        if draw(st.booleans()):
            scale = ft.poset(name, ["bot", "a", "b", "top"], DIAMOND_COVERS)
        else:
            scale = ft.chain(name, ["0", "1", "2"][:draw(st.integers(1, 3))])
        params.append((name, scale))
    return ft.build_space(params)


def quotient_agenda(space, data):
    """An opaque agenda, a meet of param: issues or a meet of thresholds."""
    chains = [n for n, s in space.params if s.kind == ft.CHAIN]
    kinds = ["opaque", "params"] + ["thresholds"] * bool(chains)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "opaque":
        part = random_partition(data.draw(st.randoms()), space.n)
        return ft.Agenda(part, ft.Opaque())
    if kind == "params":
        names = data.draw(st.lists(st.sampled_from(space.names), unique=True))
        part = pt.meet_all(
            [ft.projection_agenda(space, [n]).partition for n in names],
            space.n,
        )
        return ft.Agenda(
            part, ft.MeetOfIssues(tuple(f"param:{n}" for n in names))
        )
    issues = []
    for _ in range(data.draw(st.integers(1, 3))):
        names = data.draw(
            st.lists(st.sampled_from(chains), min_size=1, unique=True)
        )
        sums = ft.achievable_sums(space, names)
        if len(sums) > 1:
            k = data.draw(st.sampled_from(sums[:-1]))
            issues.append(ft.threshold_issue(space, names, k))
    if not issues:
        return ft.Agenda(
            pt.Partition.single_block(space.n), ft.MeetOfIssues(())
        )
    return ft.meet_agendas(*issues)


@PROPERTY_SETTINGS
@given(grid_spaces(), st.data())
def test_quotient_decide_matches_dominance_preorder(space, data):
    """Meets of issues and opaque agendas decide by the quotient of the
    n x n dominance preorder, ``ref_decide``'s last line: bad ids and an
    agenda from another space raise as they did there."""
    agenda = quotient_agenda(space, data)
    first = data.draw(st.integers(-1, space.n))
    second = data.draw(st.integers(-1, space.n))
    other = ft.build_space(space.params + (("extra", ft.binary("extra")),))
    for rule in (ft.SUM, ft.TOTAL_DOMINANCE):
        assert outcome(
            lambda: ft.decide(space, rule, agenda, first, second)
        ) == outcome(lambda: ref_decide(space, rule, agenda, first, second))
        assert outcome(
            lambda: ft.decide(other, rule, agenda, 0, 1)
        ) == outcome(lambda: ref_decide(other, rule, agenda, 0, 1))
    assert "dominance" not in space.__dict__


@PROPERTY_SETTINGS
@given(spaces())
def test_value_matrix_and_dominance(space):
    enumerated = enumerated_profiles(space)
    assert space.values.tolist() == [list(p) for p in enumerated]
    assert space.dominance == ref_rule_preorder(
        space, ft.TOTAL_DOMINANCE, space.names
    )


# -- the score dtype --------------------------------------------------------------


def test_score_tables_switch_to_python_ints_at_two_to_the_62():
    top = 2**61
    one = ft.build_space([("x", ft.chain("x", ["a", "b"], {"a": 0, "b": top}))])
    assert one._score_dtype is np.int64
    # a name repeated four times sums past 2**63 but stays exact
    assert one.sum_score(1, ["x"] * 4) == 4 * top
    assert ft.achievable_sums(one, ["x"] * 4) == [0, 4 * top]
    two = ft.build_space([
        ("x", ft.chain("x", ["a", "b"], {"a": 0, "b": top})),
        ("y", ft.binary("y")),
    ])
    assert two._score_dtype is object
    assert two.sum_score(3, ["x", "y"]) == top + 1


def test_float_derived_scores_stay_exact():
    space = ft.build_space([
        ("x", ft.chain("x", ["a", "b"], {"a": 0.1, "b": 0.2})),
        ("y", ft.chain("y", ["a", "b"], {"a": Fraction(1e-12), "b": 1e15})),
    ])
    assert space._score_dtype is object
    assert space.sum_score(0, ["x", "y"]) == Fraction(0.1) + Fraction(1e-12)
    issue = ft.threshold_issue(space, ["x"], Fraction(0.1))
    assert issue.partition.blocks[0] == (0, 1)
    assert ft.decide(space, ft.SUM, issue, 2, 0).verdict == ft.PREFERS_FIRST
    assert ft.achievable_sums(space, ["x"]) == [Fraction(0.1), Fraction(0.2)]


def test_threshold_beyond_int64_is_exact():
    space = ft.build_space([(n, ft.binary(n)) for n in "xyz"])
    assert space._score_dtype is np.int64
    for k in (Fraction(2**70), Fraction(-(2**70))):
        with pytest.raises(DegenerateThreshold):
            ft.threshold_issue(space, ["x", "y"], k)
    at_zero = ft.threshold_issue(space, ["x", "y"], 0).partition
    for k in (Fraction(1, 2**90), Fraction(2**90 - 1, 2**90)):
        assert ft.threshold_issue(space, ["x", "y"], k).partition == at_zero


# -- dominance on first use ---------------------------------------------------------


def test_decide_leaves_dominance_unbuilt():
    space = ft.build_space([(n, ft.binary(n)) for n in "abcd"])
    assert "dominance" not in space.__dict__
    agendas = [
        (ft.TOTAL_DOMINANCE, ft.projection_agenda(space, ["a", "b"])),
        (ft.SUM, ft.sum_agenda(space, ["a", "c"])),
        (ft.SUM, ft.threshold_issue(space, ["b", "d"], 1)),
    ]
    for rule, agenda in agendas:
        for first, second in ((0, 15), (3, 12), (5, 5)):
            ft.decide(space, rule, agenda, first, second)
    assert "dominance" not in space.__dict__
    meet = ft.meet_agendas(
        ft.threshold_issue(space, ["a"], 0), ft.threshold_issue(space, ["b"], 0)
    )
    assert ft.decide(space, ft.SUM, meet, 0, 15).verdict == ft.PREFERS_SECOND
    assert "dominance" not in space.__dict__


def test_build_space_and_decide_allocate_no_square_matrix():
    """At 4096 profiles an n x n boolean matrix takes 16 MiB."""
    params = [(f"x{i:02d}", ft.binary(f"x{i:02d}")) for i in range(12)]
    names = [name for name, _ in params]
    square = 4096 * 4096
    tracemalloc.start()
    try:
        space = ft.build_space(params)
        assert tracemalloc.get_traced_memory()[1] < square // 4
        agendas = [
            (ft.TOTAL_DOMINANCE, ft.projection_agenda(space, names[:5])),
            (ft.SUM, ft.sum_agenda(space, names[3:9])),
            (ft.SUM, ft.threshold_issue(space, names[::2], 3)),
            (ft.SUM, ft.meet_agendas(
                ft.threshold_issue(space, names[:6], 2),
                ft.threshold_issue(space, names[6:], 4),
            )),
            (ft.TOTAL_DOMINANCE, ft.Agenda(
                ft.projection_agenda(space, names[4:7]).partition, ft.Opaque()
            )),
        ]
        for rule, agenda in agendas:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ft.decide(space, rule, agenda, 17, 4000)
            assert tracemalloc.get_traced_memory()[1] - before < square // 4
    finally:
        tracemalloc.stop()
    assert "dominance" not in space.__dict__


# -- numpy agenda constructors against their references ------------------------


@st.composite
def sum_ready_spaces(draw):
    """1-3 chains with rational values, some so large that the score
    tables hold Python ints (``dtype=object``)."""
    values = st.one_of(
        small_rationals,
        huge_rationals,
        st.integers(-(2**70), 2**70).map(Fraction),
    )
    params = []
    for i in range(draw(st.integers(1, 3))):
        labels = [f"v{j}" for j in range(draw(st.integers(1, 4)))]
        numeric = {label: draw(values) for label in labels}
        params.append((f"p{i}", ft.chain(f"p{i}", labels, numeric=numeric)))
    return ft.build_space(params)


@PROPERTY_SETTINGS
@given(sum_ready_spaces(), st.data())
def test_threshold_issue_matches_bipartition(space, data):
    names = data.draw(st.lists(
        st.sampled_from(space.names), min_size=1,
        max_size=2 * len(space.names),
    ))
    sums = [ref_sum_score(space, pid, names) for pid in range(space.n)]
    tiny = Fraction(1, 2**100)
    k = data.draw(st.one_of(
        st.sampled_from(sums).flatmap(
            lambda s: st.sampled_from([s, s - tiny, s + tiny])
        ),
        # scaled bounds floor(k * D) at int64's edges
        st.sampled_from(
            [2**63, 2**63 - 1, -(2**63), -(2**63) - 1, 2**64, -(2**64)]
        ).map(lambda b: Fraction(b, space.denominator)),
        huge_rationals,
    ))
    low = [pid for pid, s in enumerate(sums) if s <= k]
    if not low or len(low) == space.n:
        with pytest.raises(DegenerateThreshold):
            ft.threshold_issue(space, names, k)
        return
    got = ft.threshold_issue(space, names, k).partition
    want = pt.Partition.bipartition(space.n, low)
    assert (got.n, got.blocks, got.block_of) == (
        want.n, want.blocks, want.block_of
    )


def test_threshold_blocks_share_the_element_ints():
    # ints above 256 are objects of their own unless shared
    space = ft.build_space([(f"x{i}", ft.binary(f"x{i}")) for i in range(9)])
    for issue in ft.threshold_issues_for(space, space.names[:3]):
        blocks = issue.partition.blocks
        assert sum(map(len, blocks)) == 512
        assert all(x is pt._ELEMENTS[x] for block in blocks for x in block)


def test_repeated_agendas_hold_no_memory_between_builds():
    """Each build frees what it allocated, down to the block tuples.

    On CPython a tuple built from an iterator is resized to its length and,
    once freed, parks on the free list of that size, which no later build
    draws from: a run of agendas would leave a tuple per build behind.
    """
    space = ft.build_space([(f"x{i}", ft.binary(f"x{i}")) for i in range(6)])

    def build():
        issues = [
            ft.threshold_issue(space, space.names[3:], k) for k in (0, 1)
        ]
        return (
            ft.projection_agenda(space, space.names[:3]),
            ft.sum_agenda(space, space.names[3:]),
            pt.meet_all([a.partition for a in issues]),
        )

    gc.disable()  # a full collection would empty the free lists
    try:
        for _ in range(50):
            build()
        before = sys.getallocatedblocks()
        for _ in range(1000):
            build()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 200


def test_threshold_issue_compares_bounds_past_int64_exactly():
    small = ft.build_space([("x", ft.chain("x", ["0", "1", "2"]))])
    assert small._score_dtype is np.int64
    for k in (2**64, -(2**64), Fraction(2**63, 1), Fraction(-(2**63) - 1)):
        with pytest.raises(DegenerateThreshold):
            ft.threshold_issue(small, ["x"], k)
    top = 2**63 + 1
    wide = ft.build_space([
        ("x", ft.chain("x", ["a", "b", "c"], {"a": 0, "b": top - 2, "c": top}))
    ])
    assert wide._score_dtype is object
    for k, low in ((top - 1, [0, 1]), (top - 2, [0, 1]), (top - 3, [0])):
        got = ft.threshold_issue(wide, ["x"], k).partition
        assert got == pt.Partition.bipartition(3, low)
    assert [a.partition.blocks for a in ft.threshold_issues_for(wide, ["x"])] \
        == [((0,), (1, 2)), ((0, 1), (2,))]


@PROPERTY_SETTINGS
@given(grid_spaces(), st.data())
def test_projection_agenda_matches_tuple_labels(space, data):
    # empty lists and repeated names included
    names = data.draw(st.lists(
        st.sampled_from(space.names), max_size=2 * len(space.names)
    ))
    positions = [space.names.index(name) for name in names]
    profiles = enumerated_profiles(space)
    want = pt.Partition.from_key(
        space.n, lambda pid: tuple(profiles[pid][k] for k in positions)
    )
    got = ft.projection_agenda(space, names)
    assert (got.partition.blocks, got.partition.block_of) == (
        want.blocks, want.block_of
    )
    assert got.descriptor == ft.ProjectionDescriptor(frozenset(names))
    if not names:
        assert got.partition == pt.Partition.single_block(space.n)


@PROPERTY_SETTINGS
@given(grid_spaces(), st.data())
def test_profile_id_and_labels_match_the_enumeration(space, data):
    pid = data.draw(st.integers(0, space.n - 1))
    profile = enumerated_profiles(space)[pid]
    labels = space.labels(pid)
    assert labels == {
        name: scale.values[v]
        for (name, scale), v in zip(space.params, profile)
    }
    assert space.profile_id(labels) == pid


@PROPERTY_SETTINGS
@given(grid_spaces(), st.data())
def test_decide_keeps_one_copy_of_the_profiles(space, data):
    built = set(space.__dict__)
    first, second = (
        space.profile_id(space.labels(data.draw(st.integers(0, space.n - 1))))
        for _ in range(2)
    )
    chains = [name for name, scale in space.params if scale.kind == ft.CHAIN]
    decisions = [
        (ft.TOTAL_DOMINANCE, ft.projection_agenda(space, space.names[:1])),
        (ft.SUM, quotient_agenda(space, data)),
        (ft.TOTAL_DOMINANCE, quotient_agenda(space, data)),
    ]
    if chains:
        decisions.append((ft.SUM, ft.sum_agenda(space, chains)))
        issues = ft.threshold_issues_for(space, chains)
        decisions.extend((ft.SUM, issue) for issue in issues)
    for rule, agenda in decisions:
        ft.decide(space, rule, agenda, first, second)
    assert set(space.__dict__) == built
    assert not space.values.flags.writeable
    assert space.values.dtype == np.min_scalar_type(
        max(len(scale.values) for _, scale in space.params) - 1
    )


@pytest.mark.parametrize("size, dtype", [
    (1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16),
])
def test_value_matrix_takes_the_smallest_dtype_of_its_indices(size, dtype):
    space = ft.build_space([("x", ft.chain("x", [str(i) for i in range(size)]))])
    assert space.values.dtype == dtype
    assert space.values[:, 0].tolist() == list(range(size))

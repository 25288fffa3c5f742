"""Issue-generated agenda lattices: joins, distributivity, coarsenings."""

import collections
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from agenda_algebra import features as ft
from agenda_algebra import lattice as lt
from agenda_algebra import partitions as pt
from agenda_algebra import viz
from agenda_algebra.errors import (
    CapExceeded,
    EmptyAgendaSet,
    NotInLattice,
    NotMaterialized,
)


def binary_space(names):
    return ft.build_space([(n, ft.binary(n)) for n in names])


# -- brute-force reference for the veto candidate set ---------------------


def coarsenings_crs1(space, names):
    """Agendas obtained by dropping one parameter from the given set."""
    names = sorted(names)
    if not names:
        raise EmptyAgendaSet("cannot coarsen the empty parameter set")
    out = []
    for drop in names:
        rest = [x for x in names if x != drop]
        out.append(ft.projection_agenda(space, rest))
    return out


def product_candidate_set(space, agent_params):
    """One meet in E(W) per choice of every agent's veto of every other."""
    agents = sorted(agent_params)
    slots = [
        coarsenings_crs1(space, agent_params[j])
        for i in agents
        for j in agents
        if i != j
    ]
    out = {}
    for choice in itertools.product(*slots):
        agenda = ft.meet_agendas(*choice)
        out.setdefault(agenda.partition, agenda)
    return sorted(
        out.values(), key=lambda a: (-len(a.partition.blocks), a.label())
    )


# the most veto choices a drawn case may take: prod(p_j) ** (k - 1)
PRODUCT_MEETS = 729


@st.composite
def veto_cases(draw):
    """Chains of 1-3 values and 2-4 agents' parameter sets.

    Parameter counts are drawn within what is left of PRODUCT_MEETS, so
    the product reference stays small.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=3, max_size=5))
    names = [f"x{i}" for i in range(len(sizes))]
    space = ft.build_space([
        (name, ft.chain(name, [str(v) for v in range(size)]))
        for name, size in zip(names, sizes)
    ])
    agents = draw(st.integers(2, 4))
    budget = round(PRODUCT_MEETS ** (1 / (agents - 1)))
    params = {}
    for agent in range(agents):
        count = draw(st.integers(1, min(len(names), budget)))
        budget //= count
        params[f"j{agent}"] = draw(st.lists(
            st.sampled_from(names), min_size=count, max_size=count,
            unique=True,
        ))
    return space, params, min(sizes) >= 2


def hiring_lattice():
    space = binary_space(["r", "p", "l"])
    return space, lt.build_lattice(lt.projection_issue_set(space))


def sum_pair_lattice():
    """All threshold issues over two binary parameters."""
    space = binary_space(["x", "y"])
    issues = [
        lt.Issue("sum:x<=0", ft.threshold_issue(space, ["x"], 0)),
        lt.Issue("sum:y<=0", ft.threshold_issue(space, ["y"], 0)),
        lt.Issue("sum:x,y<=0", ft.threshold_issue(space, ["x", "y"], 0)),
        lt.Issue("sum:x,y<=1", ft.threshold_issue(space, ["x", "y"], 1)),
    ]
    return space, lt.build_lattice(lt.IssueSet(issues))


def test_hiring_lattice_is_boolean_cube():
    space, lattice = hiring_lattice()
    assert lattice.materialized
    assert len(lattice.elements) == 8
    distributive, witness = lattice.is_distributive()
    assert distributive and witness is None
    assert lattice.is_complemented()
    assert lattice.issues_meet_prime()


def test_sum_lattice_issues_not_meet_prime():
    """Two single-parameter issues meet below a pair threshold that sits
    above neither, so the distribution laws must stay gated."""
    _, lattice = sum_pair_lattice()
    assert not lattice.issues_meet_prime()


def test_single_issue_lattice():
    space = binary_space(["x", "y"])
    lattice = lt.build_lattice(
        lt.IssueSet([lt.Issue("param:x", ft.projection_agenda(space, ["x"]))])
    )
    assert len(lattice.elements) == 2


def test_projection_lattice_order_isomorphism():
    """Subset containment mirrors the lattice order, contravariantly."""
    for names in (["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"]):
        space = binary_space(names)
        lattice = lt.build_lattice(lt.projection_issue_set(space))
        assert len(lattice.elements) == 2 ** len(names)
        agenda_of = {
            frozenset(sub): ft.projection_agenda(space, list(sub))
            for k in range(len(names) + 1)
            for sub in itertools.combinations(names, k)
        }
        for s1, a1 in agenda_of.items():
            for s2, a2 in agenda_of.items():
                assert (s2 <= s1) == pt.refines(a1.partition, a2.partition)


def test_d_join_is_least_upper_bound():
    for _, lattice in (hiring_lattice(), sum_pair_lattice()):
        elems = lattice.elements
        for a, b in itertools.product(elems, repeat=2):
            j = lattice.d_join([a, b])
            assert lattice.leq(a, j) and lattice.leq(b, j)
            for c in elems:
                if lattice.leq(a, c) and lattice.leq(b, c):
                    assert lattice.leq(j, c)


def test_d_join_is_least_upper_bound_random_issue_sets():
    import random

    rng = random.Random(57)
    for _ in range(30):
        names = [f"x{i}" for i in range(rng.randrange(2, 4))]
        space = binary_space(names)
        issues = []
        for name in names:
            if rng.random() < 0.7:
                issues.append(
                    lt.Issue(f"param:{name}", ft.projection_agenda(space, [name]))
                )
        pool = [
            (sub, k)
            for r in (2, 3)
            for sub in itertools.combinations(names, r)
            for k in range(r)
        ]
        for sub, k in pool:
            if rng.random() < 0.4:
                issues.append(
                    lt.Issue(
                        f"sum:{','.join(sub)}<={k}",
                        ft.threshold_issue(space, list(sub), k),
                    )
                )
        if not issues:
            continue
        dedup = {}
        for issue in issues:
            dedup.setdefault(issue.id, issue)
        lattice = lt.build_lattice(lt.IssueSet(list(dedup.values())))
        elems = lattice.elements
        for _ in range(20):
            a, b = rng.choice(elems), rng.choice(elems)
            j = lattice.d_join([a, b])
            assert lattice.leq(a, j) and lattice.leq(b, j)
            for c in elems:
                if lattice.leq(a, c) and lattice.leq(b, c):
                    assert lattice.leq(j, c)


def test_d_join_hiring_example():
    space, lattice = hiring_lattice()
    pr = ft.meet_agendas(
        ft.projection_agenda(space, ["p"]), ft.projection_agenda(space, ["r"])
    )
    rl = ft.meet_agendas(
        ft.projection_agenda(space, ["r"]), ft.projection_agenda(space, ["l"])
    )
    joined = lattice.d_join([pr, rl])
    assert joined.partition == ft.projection_agenda(space, ["r"]).partition
    assert lattice.d_join([]).partition == pt.Partition.singletons(space.n)


def test_d_join_car_agendas_meet_at_top():
    space = binary_space(list("sfptm"))
    ids = []
    for names in (["f", "p", "s"], ["f", "m", "t"]):
        for k in (0, 1, 2):
            ids.append((names, k))
    issues = [
        lt.Issue(
            f"sum:{','.join(names)}<={k}",
            ft.threshold_issue(space, names, k),
        )
        for names, k in ids
    ]
    lattice = lt.build_lattice(lt.IssueSet(issues))
    e_a = ft.sum_agenda(space, ["f", "p", "s"])
    e_b = ft.sum_agenda(space, ["f", "m", "t"])
    top = lattice.d_join([e_a, e_b])
    assert top.partition == pt.Partition.single_block(space.n)


def test_membership():
    space, lattice = hiring_lattice()
    outsider = ft.Agenda(pt.Partition.pair_merge(space.n, 0, 1))
    assert outsider not in lattice
    with pytest.raises(NotInLattice):
        lattice.d_join([outsider])
    member = ft.projection_agenda(space, ["p", "l"])
    assert member in lattice


def test_lazy_above_cap():
    space, _ = hiring_lattice()
    lattice = lt.build_lattice(lt.projection_issue_set(space), cap=2)
    assert not lattice.materialized
    with pytest.raises(NotMaterialized):
        lattice.is_distributive()
    # joins still work lazily via generator filtering
    j = lattice.d_join(
        [ft.projection_agenda(space, ["p", "r"]),
         ft.projection_agenda(space, ["r", "l"])]
    )
    assert j.partition == ft.projection_agenda(space, ["r"]).partition


def test_sum_lattice_not_distributive_with_witness():
    space, lattice = sum_pair_lattice()
    distributive, witness = lattice.is_distributive()
    assert not distributive
    x, y, z = witness
    lhs = pt.meet(x.partition, lattice.d_join([y, z]).partition)
    rhs = lattice.d_join(
        [ft.Agenda(pt.meet(x.partition, y.partition)),
         ft.Agenda(pt.meet(x.partition, z.partition))]
    ).partition
    assert lhs != rhs
    # the characteristic failure: both single-parameter issues join any
    # non-parameter threshold to the top, but their meet joins it to itself
    e = ft.threshold_issue(space, ["x", "y"], 1)
    ex = ft.threshold_issue(space, ["x"], 0)
    ey = ft.threshold_issue(space, ["y"], 0)
    top = pt.Partition.single_block(space.n)
    assert lattice.d_join([ex, e]).partition == top
    assert lattice.d_join([ey, e]).partition == top
    bottom = pt.meet(ex.partition, ey.partition)
    assert bottom == pt.Partition.singletons(space.n)
    assert lattice.d_join(
        [ft.Agenda(bottom), e]
    ).partition == e.partition != top


def test_sum_lattice_contains_bottom():
    space, lattice = sum_pair_lattice()
    assert lattice.bottom.partition == pt.Partition.singletons(space.n)


def test_distributivity_matches_cancellation_law():
    """Independent characterization: distributive iff meets and joins
    jointly cancel (x&y = z&y and x|y = z|y force x = z)."""
    for _, lattice in (hiring_lattice(), sum_pair_lattice()):
        def cancels():
            elems = lattice.elements
            for x, y, z in itertools.product(elems, repeat=3):
                if x.partition == z.partition:
                    continue
                same_meet = pt.meet(x.partition, y.partition) == \
                    pt.meet(z.partition, y.partition)
                same_join = lattice.d_join([x, y]).partition == \
                    lattice.d_join([z, y]).partition
                if same_meet and same_join:
                    return False
            return True

        assert lattice.is_distributive()[0] == cancels()


def test_car_generator_count():
    space = binary_space(list("sfptm"))
    agendas = {}
    count = 0
    for k in range(1, 6):
        for names in itertools.combinations("sfptm", k):
            for threshold in range(k):
                count += 1
                agenda = ft.threshold_issue(space, list(names), threshold)
                agendas[agenda.partition] = True
    assert count == 5 * 2 ** 4  # one issue per set and achievable cut
    assert len(agendas) == count  # all cuts are distinct bipartitions


def test_coarsenings():
    space = binary_space(["r", "p", "l"])
    crs = coarsenings_crs1(space, ["p", "r"])
    parts = {a.partition for a in crs}
    assert parts == {
        ft.projection_agenda(space, ["p"]).partition,
        ft.projection_agenda(space, ["r"]).partition,
    }
    single = coarsenings_crs1(space, ["r"])
    assert [a.partition for a in single] == [pt.Partition.single_block(8)]
    assert len(coarsenings_crs1(space, ["r", "p", "l"])) == 3
    with pytest.raises(EmptyAgendaSet):
        coarsenings_crs1(space, [])


def test_candidate_set_hiring():
    space = binary_space(["r", "p", "l"])
    cset = lt.candidate_set_C(
        space, {"alan": ["p", "r"], "betty": ["l", "r"]}
    )
    parts = {a.partition for a in cset}
    expected = {
        ft.projection_agenda(space, names).partition
        for names in (["p", "r"], ["r"], ["p", "l"], ["l", "r"])
    }
    assert parts == expected
    assert len(cset) == 4


def test_candidate_set_single_params():
    space = binary_space(["x", "y"])
    cset = lt.candidate_set_C(space, {"a": ["x"], "b": ["y"]})
    assert [a.partition for a in cset] == [pt.Partition.single_block(4)]


def test_candidate_set_cap():
    """Four agents with three parameters each walk 4^4 = 256 unions."""
    names = ["a", "b", "c", "d"]
    space = binary_space(names)
    four = {f"j{i}": names[:i] + names[i + 1:] for i in range(4)}
    cset = lt.candidate_set_C(space, four)
    assert len(cset) <= 256
    # each agent keeps two of its three parameters, so at most one of the
    # four is missing from a union
    assert [a.label() for a in cset] == [
        "proj[a,b,c,d]", "proj[a,b,c]", "proj[a,b,d]", "proj[a,c,d]",
        "proj[b,c,d]",
    ]
    same = {f"j{i}": ["a", "b", "c"] for i in range(4)}
    assert len(lt.candidate_set_C(space, same)) == 4
    # four agents sharing ten parameters walk 11^4 unions
    space = binary_space([f"x{i}" for i in range(10)])
    shared = {f"j{i}": list(space.names) for i in range(4)}
    with pytest.raises(CapExceeded, match=r"\b14641 unions\b.*\b10000\b"):
        lt.candidate_set_C(space, shared)


def test_candidate_set_needs_two_agents_and_parameters():
    space = binary_space(["x", "y"])
    with pytest.raises(EmptyAgendaSet):
        lt.candidate_set_C(space, {"a": ["x"]})
    with pytest.raises(EmptyAgendaSet):
        lt.candidate_set_C(space, {"a": ["x"], "b": [], "c": ["y"]})


@settings(max_examples=200, deadline=None, database=None)
@given(veto_cases())
def test_candidate_set_matches_product_of_vetoes(case):
    """Same partitions as the product; same labels when no scale is flat.

    A one-value parameter lets two unions share a partition, and then
    which union's label is kept depends on the walk order.
    """
    space, params, no_flat_scale = case
    closed = lt.candidate_set_C(space, params)
    product = product_candidate_set(space, params)
    assert [a.partition for a in closed] == [a.partition for a in product]
    if no_flat_scale:
        assert [a.label() for a in closed] == [a.label() for a in product]


def test_candidate_set_takes_no_partition_meet(monkeypatch):
    calls = collections.Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in (
        (pt, "meet"), (pt, "meet_all"), (ft, "meet_agendas"),
    ):
        counting(module, name)
    names = ["a", "b", "c", "d"]
    space = binary_space(names)
    params = {f"j{i}": names[:i] + names[i + 1:] for i in range(3)}
    lt.candidate_set_C(space, params)
    assert calls == collections.Counter()
    # the counters do see the meets the product reference takes
    product_candidate_set(space, params)
    assert calls["meet_agendas"] == 3 ** 6 and calls["meet_all"] == 3 ** 6


def test_hasse_export():
    lattice = viz.equivalence_lattice(3)
    dot = viz.agenda_lattice_dot(lattice)
    assert len(lattice.elements) == 5
    assert dot.count("->") == 6  # bottom to three middles, middles to top
    space, hiring = hiring_lattice()
    dot = viz.export_hasse(hiring, "agenda_lattice")
    assert dot.count('"e') >= 8
    poset_dot = viz.export_hasse(space, "profile_poset")
    assert poset_dot.count("->") == 12  # edges of the 3-cube
    assert poset_dot.count("label=") == 8


def test_e4_materializes_fully():
    lattice = viz.equivalence_lattice(4)
    assert len(lattice.elements) == 15  # Bell(4)

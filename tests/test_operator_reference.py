"""The heterogeneous operators against their partition definitions.

The references below are the direct constructions on lattice members:
joins and meets of member agendas, and scans over issues and lattice
elements.  ``test_cross_semantics`` checks that a structure and its
frame agree on a Boolean lattice whose replacement sets are never
empty.  Here hypothesis draws non-Boolean lattices (criterion 7's
thresholds, the car scenario's 64 elements, random threshold and
bipartition issue sets) and random relations in which many (agent,
issue) pairs have no replacement.  Agenda results must match the
references in partition and label, and coalition results in members.
The Boolean box is checked the same way, at every coalition, on Boolean
lattices (where it is defined) and on the others (where both it and its
reference refuse), and the influence modalities against
``coalitions.influence_diamond`` and ``influence_box``.  The residuals
also answer on a lazy lattice, the same as on the materialized one.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agenda_algebra import features as ft
from agenda_algebra import hetero as ht
from agenda_algebra import lattice as lt
from agenda_algebra import partitions as pt
from agenda_algebra import scenario as sc
from agenda_algebra.coalitions import (
    AgentSet,
    BoxDirection,
    Coalition,
    Direction,
    InfluenceRelation,
    influence_box,
    influence_diamond,
)
from agenda_algebra.errors import NotBoolean
from agenda_algebra.scenarios import scenario_text

from test_lattice_closure import issue_sets

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, database=None)


# -- references on partitions -------------------------------------------------


def ref_meet_of(h, ids):
    """Meet of the named issues in E(W), labelled by exactly those ids."""
    issues = h.lattice.issue_set
    parts = [issues.by_id(i).agenda.partition for i in ids]
    return ft.Agenda(
        pt.meet_all(parts, issues.n), ft.MeetOfIssues(tuple(sorted(ids)))
    )


def ref_lattice_meet(h, agendas):
    """Meet in E(W) of lattice members, the top element for none."""
    agendas = list(agendas)
    return ft.meet_agendas(*agendas) if agendas else h.lattice.top


def ref_subst_atom(h, agent, issue_id):
    """Meet of the issues the agent would put in place of one issue."""
    return ref_meet_of(h, h.substitution.replacements(agent, issue_id))


def ref_box_coalition(h, coalition):
    """Issues some agent outside the coalition does not find relevant.

    Guarded by the definition of a Boolean lattice: distributive and
    complemented.
    """
    lattice = h.lattice
    if not lattice.materialized:
        raise NotBoolean("box needs a materialized Boolean lattice")
    distributive, _ = lattice.is_distributive()
    if not distributive or not lattice.is_complemented():
        raise NotBoolean("the agenda lattice is not a Boolean algebra")
    picked = []
    for issue in lattice.issue_set:
        for name in h.agents.names:
            if name in coalition:
                continue
            if not lattice.leq(h.agent_agenda(name), issue.agenda):
                picked.append(issue.id)
                break
    return ref_meet_of(h, picked)


def ref_common_agenda(h, coalition):
    parts = [h.agent_agenda(name) for name in coalition.members()]
    return h.lattice.d_join(parts)


def ref_distributed_agenda(h, coalition):
    parts = [h.agent_agenda(name) for name in coalition.members()]
    return ref_lattice_meet(h, parts)


def ref_blacksquare(h, agenda):
    member = h.lattice.member_form(agenda)
    names = [
        name
        for name in h.agents.names
        if h.lattice.leq(h.agent_agenda(name), member)
    ]
    return h.agents.coalition(names)


def ref_blacktriangleright(h, agenda):
    member = h.lattice.member_form(agenda)
    names = [
        name
        for name in h.agents.names
        if h.lattice.leq(member, h.agent_agenda(name))
    ]
    return h.agents.coalition(names)


def ref_subst_transform(h, coalition, agenda):
    """Join of member replacements; pairs with none contribute nothing."""
    member = h.lattice.member_form(agenda)
    pieces = []
    for name in coalition.members():
        for issue in h.lattice.issues_above(member):
            if h.substitution.replacements(name, issue.id):
                pieces.append(ref_subst_atom(h, name, issue.id))
    return h.lattice.d_join(pieces)


def ref_star(h, agenda1, agenda2):
    e1 = h.lattice.member_form(agenda1)
    e2 = h.lattice.member_form(agenda2)
    names = [
        name
        for name in h.agents.names
        if h.lattice.leq(
            ref_subst_transform(h, h.agents.coalition([name]), e1), e2
        )
    ]
    return h.agents.coalition(names)


def ref_residual_second(h, coalition, agenda):
    """Meet of every element whose transform refines e.

    Each winner is read through ``member_form``, so the meet names every
    issue above a winner, duplicates of one partition included.
    """
    target = h.lattice.member_form(agenda)
    winners = [
        h.lattice.member_form(e)
        for e in h.lattice.elements
        if h.lattice.leq(ref_subst_transform(h, coalition, e), target)
    ]
    return ref_lattice_meet(h, winners)


def ref_br_transform(h, coalition, agenda):
    member = h.lattice.member_form(agenda)
    pieces = []
    for name in coalition.members():
        for issue in h.lattice.issues_above(member):
            pieces.append(ref_subst_atom(h, name, issue.id))
    return ref_lattice_meet(h, pieces)


def ref_brB(h, agenda1, agenda2):
    e1 = h.lattice.member_form(agenda1)
    e2 = h.lattice.member_form(agenda2)
    names = [
        name
        for name in h.agents.names
        if h.lattice.leq(
            e1, ref_br_transform(h, h.agents.coalition([name]), e2)
        )
    ]
    return h.agents.coalition(names)


def ref_vartriangle(h, coalition, agenda):
    """Meet of every element whose distributed transform e refines."""
    source = h.lattice.member_form(agenda)
    winners = [
        h.lattice.member_form(e)
        for e in h.lattice.elements
        if h.lattice.leq(source, ref_br_transform(h, coalition, e))
    ]
    return ref_lattice_meet(h, winners)


# -- generated inputs ---------------------------------------------------------


def _threshold_issue_set(space, thresholds):
    return lt.IssueSet([
        lt.Issue(
            f"sum:{','.join(names)}<={k}",
            ft.threshold_issue(space, names, k),
        )
        for names, k in thresholds
    ])


def criterion_7_lattice():
    """The non-distributive threshold lattice of acceptance criterion 7."""
    space = ft.build_space([(n, ft.binary(n)) for n in ("x", "y")])
    return lt.build_lattice(_threshold_issue_set(space, [
        (["x"], 0), (["y"], 0), (["x", "y"], 0), (["x", "y"], 1),
    ]))


@st.composite
def boolean_lattices(draw):
    """Projections on binary parameters, some doubled by a threshold.

    ``param:x`` and ``sum:x<=0`` are one bipartition, so a doubled
    parameter gives two generators that share a partition.
    """
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    space = ft.build_space([(name, ft.binary(name)) for name in names])
    issues = [
        lt.Issue(f"param:{name}", ft.projection_agenda(space, [name]))
        for name in names
    ]
    doubled = draw(st.lists(st.sampled_from(names), unique=True))
    issues += [
        lt.Issue(f"sum:{name}<=0", ft.threshold_issue(space, [name], 0))
        for name in doubled
    ]
    return lt.build_lattice(lt.IssueSet(draw(st.permutations(issues))))


@functools.cache
def car_structure():
    return sc.build_structure(sc.load_scenario(scenario_text("car")))


@st.composite
def threshold_lattices(draw):
    """Threshold issues over two or three chain parameters."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    names = [f"x{i}" for i in range(len(sizes))]
    space = ft.build_space([
        (name, ft.chain(name, [str(v) for v in range(size)]))
        for name, size in zip(names, sizes)
    ])
    pool = [
        (list(subset), k)
        for r in range(1, len(names) + 1)
        for subset in itertools.combinations(names, r)
        for k in ft.achievable_sums(space, subset)[:-1]
    ]
    picks = draw(st.lists(
        st.sampled_from(pool), min_size=2, max_size=4,
        unique_by=lambda t: (tuple(t[0]), t[1]),
    ))
    return lt.build_lattice(_threshold_issue_set(space, picks))


@st.composite
def structures(draw, lattice):
    """Random relations on a lattice; most replacement sets stay empty."""
    agents = AgentSet([f"a{i}" for i in range(draw(st.integers(1, 3)))])
    ids = [issue.id for issue in lattice.issue_set]
    agent = st.sampled_from(agents.names)
    issue = st.sampled_from(ids)
    relevance = draw(st.lists(st.tuples(issue, agent), max_size=6))
    substitution = draw(st.lists(st.tuples(issue, agent, issue), max_size=6))
    influence = draw(st.lists(st.tuples(agent, agent), max_size=3))
    return ht.HeteroStructure(
        agents, lattice, InfluenceRelation(agents, influence),
        ht.RelevanceRelation(relevance),
        ht.SubstitutionRelation(substitution),
    )


# -- properties ---------------------------------------------------------------


def same_agenda(got, want):
    assert (got.partition, got.label()) == (want.partition, want.label())


def same_coalition(got, want):
    assert got.members() == want.members()


def check_operators(h, agendas, scans=True):
    """Every operator at every coalition and every given agenda.

    ``agendas`` may hold any lattice members: elements, issue agendas
    with their own descriptors, and meets labelled by unclosed issue sets.
    """
    alg = ht.HeteroAlgebra(h)
    coalitions = [
        Coalition(h.agents, mask) for mask in range(1 << len(h.agents))
    ]
    influence = h.influence
    for c in coalitions:
        same_coalition(
            alg.diamdot(c),
            influence_diamond(influence, c, Direction.INFLUENCERS),
        )
        same_coalition(
            alg.diamdotb(c),
            influence_diamond(influence, c, Direction.AUDIENCE),
        )
        same_coalition(
            alg.boxdot(c), influence_box(influence, c, BoxDirection.ONLY_INTO)
        )
        same_coalition(
            alg.blacksqdot(c),
            influence_box(influence, c, BoxDirection.ONLY_FROM),
        )
        same_agenda(alg.diamond(c), ref_common_agenda(h, c))
        same_agenda(alg.rhd(c), ref_distributed_agenda(h, c))
        for e in agendas:
            same_agenda(alg.pdra(c, e), ref_subst_transform(h, c, e))
            same_agenda(alg.br(c, e), ref_br_transform(h, c, e))
            if scans:
                same_agenda(alg.eqless(c, e), ref_residual_second(h, c, e))
                same_agenda(alg.triangle(c, e), ref_vartriangle(h, c, e))
    for e1 in agendas:
        same_coalition(alg.blacksquare(e1), ref_blacksquare(h, e1))
        same_coalition(
            alg.blacktriangleright(e1), ref_blacktriangleright(h, e1)
        )
        for e2 in agendas:
            same_coalition(alg.star(e1, e2), ref_star(h, e1, e2))
            same_coalition(alg.brB(e1, e2), ref_brB(h, e1, e2))
            assert alg.ia_leq(e1, e2) == h.lattice.leq(e1, e2)
            same_agenda(alg.ia_join(e1, e2), h.lattice.d_join([e1, e2]))
            # issue agendas may carry projection or threshold descriptors,
            # which the meet of E(W) keeps and the core does not
            if all(isinstance(e.descriptor, ft.MeetOfIssues)
                   for e in (e1, e2)):
                same_agenda(alg.ia_meet(e1, e2), ft.meet_agendas(e1, e2))


def check_box(h):
    """The box at every coalition, or NotBoolean from it and its reference."""
    alg = ht.HeteroAlgebra(h)
    for mask in range(1 << len(h.agents)):
        c = Coalition(h.agents, mask)
        try:
            want = ref_box_coalition(h, c)
        except NotBoolean:
            with pytest.raises(NotBoolean):
                alg.box(c)
            return
        same_agenda(alg.box(c), want)


def check_lazy_residuals(h):
    """The residuals on a lazy lattice of the same issues.

    At every coalition and element they equal the materialized lattice's
    in partition and label.
    """
    lazy = lt.build_lattice(h.lattice.issue_set, cap=0)
    assert not lazy.materialized
    alg = ht.HeteroAlgebra(h)
    lazy_alg = ht.HeteroAlgebra(ht.HeteroStructure(
        h.agents, lazy, h.influence, h.relevance, h.substitution,
    ))
    for mask in range(1 << len(h.agents)):
        c = Coalition(h.agents, mask)
        for e in h.lattice.elements:
            same_agenda(lazy_alg.eqless(c, e), alg.eqless(c, e))
            same_agenda(lazy_alg.triangle(c, e), alg.triangle(c, e))


def argument_agendas(h, elements):
    """Elements plus issue agendas and the agents' own agendas."""
    issues = [issue.agenda for issue in h.lattice.issue_set]
    own = [h.agent_agenda(name) for name in h.agents.names]
    return list(elements) + issues[:3] + own


@PROPERTY_SETTINGS
@given(st.data())
def test_criterion_7_thresholds_match_references(data):
    h = data.draw(structures(criterion_7_lattice()))
    check_operators(h, argument_agendas(h, h.lattice.elements))
    check_box(h)


@PROPERTY_SETTINGS
@given(threshold_lattices().flatmap(structures))
def test_random_threshold_sets_match_references(h):
    check_operators(h, argument_agendas(h, h.lattice.elements))
    check_box(h)


@PROPERTY_SETTINGS
@given(issue_sets(max_n=8, max_distinct=4).map(lt.build_lattice)
       .flatmap(structures))
def test_random_bipartition_sets_match_references(h):
    """Generators that share a partition keep their own labels."""
    check_operators(h, argument_agendas(h, h.lattice.elements))
    check_box(h)
    check_lazy_residuals(h)


@PROPERTY_SETTINGS
@given(boolean_lattices().flatmap(structures))
def test_boolean_lattices_match_references(h):
    """Every coalition's box, generators sharing a partition included."""
    assert h.lattice.is_boolean()
    check_operators(h, argument_agendas(h, h.lattice.elements))
    check_box(h)


def test_box_refuses_a_lazy_lattice():
    space = ft.build_space([(name, ft.binary(name)) for name in "xy"])
    lazy = lt.build_lattice(lt.projection_issue_set(space), cap=0)
    agents = AgentSet(["a"])
    h = ht.HeteroStructure(
        agents, lazy, relevance=ht.RelevanceRelation([("param:x", "a")])
    )
    with pytest.raises(NotBoolean, match="materialized"):
        ht.HeteroAlgebra(h).box(agents.everyone())


@settings(max_examples=8, deadline=None, database=None)
@given(st.data())
def test_car_lattice_matches_references(data):
    """Car's 64 elements: sampled arguments, scans on two of them.

    The residuals on the lazy lattice are checked at every element.
    """
    car = car_structure()
    assert len(car.lattice.elements) == 64
    h = data.draw(st.one_of(st.just(car), structures(car.lattice)))
    picks = data.draw(st.lists(
        st.sampled_from(car.lattice.elements), min_size=1, max_size=4,
    ))
    agendas = argument_agendas(h, picks)
    check_operators(h, agendas, scans=False)
    check_box(h)
    check_lazy_residuals(h)
    for e in agendas[:2]:
        for mask in range(1 << len(h.agents)):
            c = Coalition(h.agents, mask)
            same_agenda(
                ht.residual_second(h, c, e), ref_residual_second(h, c, e)
            )
            same_agenda(ht.vartriangle(h, c, e), ref_vartriangle(h, c, e))

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
"""

import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from agenda_algebra import features as ft
from agenda_algebra import hetero as ht
from agenda_algebra import lattice as lt
from agenda_algebra import scenario as sc
from agenda_algebra.coalitions import AgentSet, Coalition, InfluenceRelation
from agenda_algebra.scenarios import scenario_text

from test_lattice_closure import issue_sets

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, database=None)


# -- references on partitions -------------------------------------------------


def ref_subst_atom(h, agent, issue_id):
    """Meet of the issues the agent would put in place of one issue."""
    ids = h.substitution.replacements(agent, issue_id)
    return h.lattice._meet_of([h.lattice.issue_set.by_id(i) for i in ids])


def ref_common_agenda(h, coalition):
    parts = [h.agent_agenda(name) for name in coalition.members()]
    return h.lattice.d_join(parts)


def ref_distributed_agenda(h, coalition):
    parts = [h.agent_agenda(name) for name in coalition.members()]
    return h.lattice.meet(parts)


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
    target = h.lattice.member_form(agenda)
    winners = [
        e
        for e in h.lattice.elements
        if h.lattice.leq(ref_subst_transform(h, coalition, e), target)
    ]
    return h.lattice.meet(winners)


def ref_br_transform(h, coalition, agenda):
    member = h.lattice.member_form(agenda)
    pieces = []
    for name in coalition.members():
        for issue in h.lattice.issues_above(member):
            pieces.append(ref_subst_atom(h, name, issue.id))
    return h.lattice.meet(pieces)


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
    source = h.lattice.member_form(agenda)
    winners = [
        e
        for e in h.lattice.elements
        if h.lattice.leq(source, ref_br_transform(h, coalition, e))
    ]
    return h.lattice.meet(winners)


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
    for c in coalitions:
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
                same_agenda(alg.ia_meet(e1, e2), h.lattice.meet([e1, e2]))


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


@PROPERTY_SETTINGS
@given(threshold_lattices().flatmap(structures))
def test_random_threshold_sets_match_references(h):
    check_operators(h, argument_agendas(h, h.lattice.elements))


@PROPERTY_SETTINGS
@given(issue_sets(max_n=8, max_distinct=4).map(lt.build_lattice)
       .flatmap(structures))
def test_random_bipartition_sets_match_references(h):
    """Generators that share a partition keep their own labels."""
    check_operators(h, argument_agendas(h, h.lattice.elements))


@settings(max_examples=8, deadline=None, database=None)
@given(st.data())
def test_car_lattice_matches_references(data):
    """Car's 64 elements: sampled arguments, scans on two of them."""
    car = car_structure()
    assert len(car.lattice.elements) == 64
    h = data.draw(st.one_of(st.just(car), structures(car.lattice)))
    picks = data.draw(st.lists(
        st.sampled_from(car.lattice.elements), min_size=1, max_size=4,
    ))
    agendas = argument_agendas(h, picks)
    check_operators(h, agendas, scans=False)
    for e in agendas[:2]:
        for mask in range(1 << len(h.agents)):
            c = Coalition(h.agents, mask)
            same_agenda(
                ht.residual_second(h, c, e), ref_residual_second(h, c, e)
            )
            same_agenda(ht.vartriangle(h, c, e), ref_vartriangle(h, c, e))

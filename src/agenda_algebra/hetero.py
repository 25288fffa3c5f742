"""Relevance and substitution relations, and the coalition/agenda operators.

Everything here is parametrized by a HeteroStructure: an agent set, an
agenda lattice, and the three relations (influence between agents,
relevance of issues to agents, substitution of issues by issues per
agent).  Operators returning agendas always return lattice elements.
"""

from __future__ import annotations

from .coalitions import Coalition, InfluenceRelation
from .errors import NotBoolean, NotInLattice, UnknownAgent


class RelevanceRelation:
    """Which issues matter to which agents: pairs (issue id, agent)."""

    def __init__(self, pairs):
        self.pairs = frozenset((str(i), str(a)) for i, a in pairs)

    def issues_for(self, agent):
        return sorted(i for i, a in self.pairs if a == agent)


class SubstitutionRelation:
    """Triples (new issue, agent, old issue): the agent swaps old for new."""

    def __init__(self, triples):
        self.triples = frozenset(
            (str(n), str(j), str(m)) for n, j, m in triples
        )

    def replacements(self, agent, old_issue):
        return sorted(n for n, j, m in self.triples if j == agent and m == old_issue)


class HeteroStructure:
    """Agents, an agenda lattice, and the I/R/S relations, cross-checked."""

    def __init__(self, agents, lattice, influence=None, relevance=None,
                 substitution=None):
        self.agents = agents
        self.lattice = lattice
        self.influence = influence or InfluenceRelation(agents, [])
        self.relevance = relevance or RelevanceRelation([])
        self.substitution = substitution or SubstitutionRelation([])
        issue_ids = {issue.id for issue in lattice.issue_set}
        for issue_id, agent in self.relevance.pairs:
            if issue_id not in issue_ids:
                raise NotInLattice(f"relevance names unknown issue {issue_id!r}")
            if agent not in agents.position:
                raise UnknownAgent(f"relevance names unknown agent {agent!r}")
        for new, agent, old in self.substitution.triples:
            for issue_id in (new, old):
                if issue_id not in issue_ids:
                    raise NotInLattice(
                        f"substitution names unknown issue {issue_id!r}"
                    )
            if agent not in agents.position:
                raise UnknownAgent(f"substitution names unknown agent {agent!r}")
        self._agent_agendas = {
            name: self._meet_of_ids(self.relevance.issues_for(name))
            for name in agents.names
        }

    def _meet_of_ids(self, issue_ids):
        issues = [self.lattice.issue_set.by_id(i) for i in issue_ids]
        return self.lattice._meet_of(issues)

    def agent_agenda(self, name):
        """The meet of the issues relevant to one agent (top if none)."""
        if name not in self.agents.position:
            raise UnknownAgent(f"unknown agent {name!r}")
        return self._agent_agendas[name]

    def issues_above(self, agenda):
        return self.lattice.issues_above(agenda)

    def subst_atom(self, agent, issue_id):
        """Meet of the issues the agent would put in place of one issue.

        The empty meet is the top agenda: an agent with no replacement
        preference for an issue contributes no constraint.
        """
        return self._meet_of_ids(self.substitution.replacements(agent, issue_id))


# -- primitive unary operators -------------------------------------------


def common_agenda(h, coalition):
    """Issues every member finds relevant: lattice join of member agendas."""
    parts = [h.agent_agenda(name) for name in coalition.members()]
    return h.lattice.d_join(parts)


def distributed_agenda(h, coalition):
    """Issues some member finds relevant: meet of member agendas."""
    parts = [h.agent_agenda(name) for name in coalition.members()]
    return h.lattice.meet(parts)


def box_coalition(h, coalition):
    """Boolean dual of the common agenda, on Boolean lattices only."""
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
            agenda = h.agent_agenda(name)
            if not lattice.leq(agenda, issue.agenda):
                picked.append(issue)
                break
    return lattice._meet_of(picked)


def blacksquare(h, agenda):
    """Largest coalition whose every member finds all issues of e relevant."""
    member = h.lattice.member_form(agenda)
    names = [
        name
        for name in h.agents.names
        if h.lattice.leq(h.agent_agenda(name), member)
    ]
    return h.agents.coalition(names)


def blacktriangleright(h, agenda):
    """Largest coalition whose members individually refine e.

    Each member's own agenda supports only issues that e supports.
    """
    member = h.lattice.member_form(agenda)
    names = [
        name
        for name in h.agents.names
        if h.lattice.leq(member, h.agent_agenda(name))
    ]
    return h.agents.coalition(names)


# -- substitution operators ------------------------------------------------


def subst_transform(h, coalition, agenda):
    """Shared transformed view: join of member replacements per issue of e.

    Pairs (member, issue) with no substitution entry contribute nothing,
    matching the worked aggregate computations: a vacuous preference does
    not drag the shared view up to the top agenda.
    """
    member = h.lattice.member_form(agenda)
    pieces = []
    for name in coalition.members():
        for issue in h.issues_above(member):
            if h.substitution.replacements(name, issue.id):
                pieces.append(h.subst_atom(name, issue.id))
    return h.lattice.d_join(pieces)


def star(h, agenda1, agenda2):
    """Largest coalition whose transform of e1 refines e2."""
    e1 = h.lattice.member_form(agenda1)
    e2 = h.lattice.member_form(agenda2)
    names = [
        name
        for name in h.agents.names
        if h.lattice.leq(
            subst_transform(h, h.agents.coalition([name]), e1), e2
        )
    ]
    return h.agents.coalition(names)


def residual_second(h, coalition, agenda):
    """Meet over all lattice elements whose transform refines e."""
    h.lattice._require_materialized()
    target = h.lattice.member_form(agenda)
    winners = [
        e
        for e in h.lattice.elements
        if h.lattice.leq(subst_transform(h, coalition, e), target)
    ]
    return h.lattice.meet(winners)


def br_transform(h, coalition, agenda):
    """Distributed transformed view: meet of member replacements."""
    member = h.lattice.member_form(agenda)
    pieces = []
    for name in coalition.members():
        for issue in h.issues_above(member):
            pieces.append(h.subst_atom(name, issue.id))
    return h.lattice.meet(pieces)


def brB(h, agenda1, agenda2):
    """Largest coalition whose distributed transform of e2 lies above e1."""
    e1 = h.lattice.member_form(agenda1)
    e2 = h.lattice.member_form(agenda2)
    names = [
        name
        for name in h.agents.names
        if h.lattice.leq(
            e1, br_transform(h, h.agents.coalition([name]), e2)
        )
    ]
    return h.agents.coalition(names)


def vartriangle(h, coalition, agenda):
    """Residual of the distributed transform in its agenda coordinate."""
    h.lattice._require_materialized()
    source = h.lattice.member_form(agenda)
    winners = [
        e
        for e in h.lattice.elements
        if h.lattice.leq(source, br_transform(h, coalition, e))
    ]
    return h.lattice.meet(winners)


class HeteroAlgebra:
    """Adapter exposing a HeteroStructure through the term-eval protocol.

    Enumeration-backed pieces (element lists, the two second-coordinate
    residuals) need the agenda lattice materialized.
    """

    def __init__(self, structure):
        self.h = structure
        self._cache = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def all_c(self):
        agents = self.h.agents
        return [
            Coalition(agents, mask) for mask in range(1 << len(agents))
        ]

    def all_ia(self):
        self.h.lattice._require_materialized()
        return list(self.h.lattice.elements)

    def c_atoms(self):
        return [
            self.h.agents.coalition([name]) for name in self.h.agents.names
        ]

    def ia_coatoms(self):
        return [issue.agenda for issue in self.h.lattice.issue_set]

    def c_leq(self, x, y):
        return x <= y

    def ia_leq(self, x, y):
        return self.h.lattice.leq(x, y)

    def c_top(self):
        return self.h.agents.everyone()

    def c_bot(self):
        return self.h.agents.nobody()

    def ia_top(self):
        return self.h.lattice.top

    def ia_bot(self):
        return self.h.lattice.bottom

    def c_and(self, x, y):
        return x & y

    def c_or(self, x, y):
        return x | y

    def c_not(self, x):
        return ~x

    def ia_meet(self, x, y):
        return self.h.lattice.meet([x, y])

    def ia_join(self, x, y):
        key = ("join", x.partition, y.partition)
        return self._cached(key, lambda: self.h.lattice.d_join([x, y]))

    def diamdot(self, c):
        from .coalitions import Direction, influence_diamond

        return influence_diamond(self.h.influence, c, Direction.INFLUENCERS)

    def diamdotb(self, c):
        from .coalitions import Direction, influence_diamond

        return influence_diamond(self.h.influence, c, Direction.AUDIENCE)

    def boxdot(self, c):
        from .coalitions import BoxDirection, influence_box

        return influence_box(self.h.influence, c, BoxDirection.ONLY_INTO)

    def blacksqdot(self, c):
        from .coalitions import BoxDirection, influence_box

        return influence_box(self.h.influence, c, BoxDirection.ONLY_FROM)

    def diamond(self, c):
        return self._cached(("dia", c.mask), lambda: common_agenda(self.h, c))

    def rhd(self, c):
        return self._cached(
            ("rhd", c.mask), lambda: distributed_agenda(self.h, c)
        )

    def pdra(self, c, e):
        key = ("pdra", c.mask, e.partition)
        return self._cached(key, lambda: subst_transform(self.h, c, e))

    def eqless(self, c, e):
        key = ("eqless", c.mask, e.partition)
        return self._cached(key, lambda: residual_second(self.h, c, e))

    def br(self, c, e):
        key = ("br", c.mask, e.partition)
        return self._cached(key, lambda: br_transform(self.h, c, e))

    def triangle(self, c, e):
        key = ("tri", c.mask, e.partition)
        return self._cached(key, lambda: vartriangle(self.h, c, e))

    def blacksquare(self, e):
        key = ("bsq", e.partition)
        return self._cached(key, lambda: blacksquare(self.h, e))

    def star(self, e1, e2):
        key = ("star", e1.partition, e2.partition)
        return self._cached(key, lambda: star(self.h, e1, e2))

    def brB(self, e1, e2):
        key = ("brB", e1.partition, e2.partition)
        return self._cached(key, lambda: brB(self.h, e1, e2))

"""Relevance and substitution relations, and the coalition/agenda operators.

Everything here is parametrized by a HeteroStructure: an agent set, an
agenda lattice, and the three relations (influence between agents,
relevance of issues to agents, substitution of issues by issues per
agent).  The structure is the frame (agents, issue ids, I, R, S) read
through its lattice, so every operator, the Boolean box included, is
one of the frame's complex algebra, ``FrameAlgebra``, given the lattice
closure.  ``HeteroAlgebra`` carries lattice members and coalitions to and
from its bitmasks, and operators returning agendas always return lattice
elements.
"""

from __future__ import annotations

from collections import defaultdict

from .coalitions import Coalition, InfluenceRelation
from .errors import NotBoolean, NotInLattice, UnknownAgent
from .features import MeetOfIssues
from .logic.frames import FrameAlgebra, RelationalStructure, memoized


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
        self._agent_agendas = {}
        for name in agents.names:
            mask = 0
            for issue_id in self.relevance.issues_for(name):
                mask |= lattice._bit[issue_id]
            self._agent_agendas[name] = lattice._element(mask)
        self.frame = RelationalStructure(
            C=agents.names,
            D=tuple(issue.id for issue in lattice.issue_set),
            I=self.influence.pairs,
            R=self.relevance.pairs,
            S=self.substitution.triples,
        )

    def agent_agenda(self, name):
        """The meet of the issues relevant to one agent (top if none)."""
        if name not in self.agents.position:
            raise UnknownAgent(f"unknown agent {name!r}")
        return self._agent_agendas[name]


# -- the operators, one call each on the complex algebra ---------------------


def common_agenda(h, coalition):
    """Issues every member finds relevant: lattice join of member agendas."""
    return HeteroAlgebra(h).diamond(coalition)


def distributed_agenda(h, coalition):
    """Issues some member finds relevant: meet of member agendas."""
    return HeteroAlgebra(h).rhd(coalition)


def blacksquare(h, agenda):
    """Largest coalition whose every member finds all issues of e relevant."""
    return HeteroAlgebra(h).blacksquare(agenda)


def subst_transform(h, coalition, agenda):
    """Shared transformed view: join of member replacements per issue of e.

    Pairs (member, issue) with no substitution entry contribute nothing,
    matching the worked aggregate computations: a vacuous preference does
    not drag the shared view up to the top agenda.
    """
    return HeteroAlgebra(h).pdra(coalition, agenda)


def star(h, agenda1, agenda2):
    """Largest coalition whose transform of e1 refines e2."""
    return HeteroAlgebra(h).star(agenda1, agenda2)


def residual_second(h, coalition, agenda):
    """Meet of the issues whose transform refines e."""
    return HeteroAlgebra(h).eqless(coalition, agenda)


def br_transform(h, coalition, agenda):
    """Distributed transformed view: meet of member replacements."""
    return HeteroAlgebra(h).br(coalition, agenda)


def brB(h, agenda1, agenda2):
    """Largest coalition whose distributed transform of e2 lies above e1."""
    return HeteroAlgebra(h).brB(agenda1, agenda2)


def vartriangle(h, coalition, agenda):
    """Meet of the issues whose distributed transform e refines."""
    return HeteroAlgebra(h).triangle(coalition, agenda)


class HeteroAlgebra:
    """A HeteroStructure through the term-eval protocol.

    Every operator, the influence modalities and the Boolean box included,
    is ``FrameAlgebra``'s on the structure's frame and lattice.  An agenda
    enters as the generator set its ``MeetOfIssues`` label names when that
    set closes to the agenda, and as its closed set otherwise; a mask
    leaves as the lattice element labelled by its generators, memoized per
    algebra.  Coalitions cross as their masks.  Only element lists and the
    box need the agenda lattice materialized; every other operator, the
    residuals included, answers on a lazy lattice.  Validity checks skip
    the wrappers: they run on ``core`` and enter agendas and coalitions
    through ``core_ia`` and ``core_c``.
    """

    def __init__(self, structure):
        self.h = structure
        self.lattice = structure.lattice
        self.core = FrameAlgebra(structure.frame, structure.lattice)
        self._cache = defaultdict(dict)

    def _value(self, agenda):
        lattice = self.lattice
        mask = lattice._mask_of(agenda)
        desc = agenda.descriptor
        bits = lattice._bit
        if isinstance(desc, MeetOfIssues) and all(
            issue_id in bits for issue_id in desc.issue_ids
        ):
            named = 0
            for issue_id in desc.issue_ids:
                named |= bits[issue_id]
            if named == mask or lattice._closure(named) == mask:
                return named
        return mask

    @memoized
    def _agenda(self, mask):
        return self.lattice._element(mask)

    def _coalition(self, mask):
        return Coalition(self.h.agents, mask)

    def core_ia(self, agenda):
        """The mask an agenda enters the core algebra as."""
        return self._value(agenda)

    def core_c(self, coalition):
        """The mask a coalition enters the core algebra as."""
        return coalition.mask

    def all_c(self):
        return [self._coalition(mask) for mask in self.core.all_c()]

    def all_ia(self):
        self.lattice._require_materialized()
        return list(self.lattice.elements)

    def c_atoms(self):
        return [self._coalition(mask) for mask in self.core.c_atoms()]

    def ia_coatoms(self):
        return [issue.agenda for issue in self.lattice.issue_set]

    def c_leq(self, x, y):
        return x <= y

    def ia_leq(self, x, y):
        return self.core.ia_leq(self._value(x), self._value(y))

    def c_top(self):
        return self.h.agents.everyone()

    def c_bot(self):
        return self.h.agents.nobody()

    def ia_top(self):
        return self.lattice.top

    def ia_bot(self):
        return self.lattice.bottom

    def c_and(self, x, y):
        return x & y

    def c_or(self, x, y):
        return x | y

    def c_not(self, x):
        return ~x

    def ia_meet(self, x, y):
        return self._agenda(self.core.ia_meet(self._value(x), self._value(y)))

    def ia_join(self, x, y):
        return self._agenda(self.core.ia_join(self._value(x), self._value(y)))

    def diamdot(self, c):
        return self._coalition(self.core.diamdot(c.mask))

    def diamdotb(self, c):
        return self._coalition(self.core.diamdotb(c.mask))

    def boxdot(self, c):
        return self._coalition(self.core.boxdot(c.mask))

    def blacksqdot(self, c):
        return self._coalition(self.core.blacksqdot(c.mask))

    def diamond(self, c):
        return self._agenda(self.core.diamond(c.mask))

    def rhd(self, c):
        return self._agenda(self.core.rhd(c.mask))

    def box(self, c):
        """Issues missing from some outsider's agenda: not diamond(~c)."""
        lattice = self.lattice
        if not lattice.materialized:
            raise NotBoolean("box needs a materialized Boolean lattice")
        if not lattice.is_boolean():
            raise NotBoolean("the agenda lattice is not a Boolean algebra")
        core = self.core
        return self._agenda(core.d_full & ~core.diamond(core.c_not(c.mask)))

    def pdra(self, c, e):
        return self._agenda(self.core.pdra(c.mask, self._value(e)))

    def eqless(self, c, e):
        return self._agenda(self.core.eqless(c.mask, self._value(e)))

    def br(self, c, e):
        return self._agenda(self.core.br(c.mask, self._value(e)))

    def triangle(self, c, e):
        return self._agenda(self.core.triangle(c.mask, self._value(e)))

    def blacksquare(self, e):
        return self._coalition(self.core.blacksquare(self._value(e)))

    def blacktriangleright(self, e):
        return self._coalition(self.core.blacktriangleright(self._value(e)))

    def star(self, e1, e2):
        return self._coalition(
            self.core.star(self._value(e1), self._value(e2))
        )

    def brB(self, e1, e2):
        return self._coalition(
            self.core.brB(self._value(e1), self._value(e2))
        )

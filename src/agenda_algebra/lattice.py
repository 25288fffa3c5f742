"""Agenda lattices meet-generated by a chosen set of yes/no issues.

The lattice holds the meets of arbitrary subsets of its generator issues
plus the top element.  Every generator is a bipartition of the profiles,
so each profile has a signature whose bit i says on which side of issue
i it lies.  A set S of generators induces the partition "group profiles
by sig & S", and the lattice elements are exactly the closed sets: the
generators constant on every class of that partition (a closure system
in the sense of formal concept analysis, Ganter & Wille 1999).  Each
element is held as the bitmask of the generators above it, so

* the meet of two elements is the closure of the union of their masks;
* their join inside the lattice is the intersection (generator
  filtering), never the join of E(W), which may leave the lattice;
* the order is reverse inclusion.

Masks are Python ints, so no generator count overflows them.  An element
is a ``LatticeElement``: the lattice and a generator mask.  Its partition,
"group the profiles by sig & mask", is built only when something reads
it (``to_json``, ``decide``, a caller), so ``build_lattice`` orders the
elements by block count, the number of distinct ``sig & mask`` values,
without building a partition per element.  Equality and hashing are
those of the partition, so an element equals a plain ``Agenda`` with the
same partition.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from . import partitions as pt
from .errors import (
    CapExceeded,
    EmptyAgendaSet,
    GroundMismatch,
    NotInLattice,
    NotMaterialized,
)
from .features import Agenda, MeetOfIssues, projection_agenda

MATERIALIZE_CAP = 20
# unions candidate_set_C may walk, at most prod(p_j + 1): two agents
# with five parameters each walk 25, four agents with three each 4^4 = 256
CANDIDATE_CAP = 10_000


@dataclass(frozen=True)
class Issue:
    """A named generator: a bipartition agenda with a canonical id."""

    id: str
    agenda: Agenda


class IssueSet:
    """Ordered, uniquely named list of bipartition issues on one ground set."""

    def __init__(self, issues):
        issues = list(issues)
        if not issues:
            raise EmptyAgendaSet("an issue set needs at least one issue")
        ids = [i.id for i in issues]
        if len(set(ids)) != len(ids):
            raise NotInLattice("duplicate issue ids")
        n = issues[0].agenda.partition.n
        for issue in issues:
            if issue.agenda.partition.n != n:
                raise GroundMismatch("issues live on different ground sets")
            if len(issue.agenda.partition.blocks) != 2:
                raise NotInLattice(
                    f"issue {issue.id} is not a bipartition"
                )
        self.issues = tuple(issues)
        self.n = n

    def __iter__(self):
        return iter(self.issues)

    def __len__(self):
        return len(self.issues)

    def by_id(self, issue_id):
        for issue in self.issues:
            if issue.id == issue_id:
                return issue
        raise NotInLattice(f"unknown issue id {issue_id!r}")


class LatticeElement(Agenda):
    """A member of an agenda lattice held as a generator mask.

    ``mask`` is the generator set the element was made from, and its
    descriptor's label names; the lattice's ``_mask_of`` reads its closed
    set.  The partition is built on first read and kept.
    """

    def __init__(self, lattice, mask, descriptor):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "descriptor", descriptor)

    @functools.cached_property
    def partition(self):
        return self.lattice._group(self.mask)


class AgendaLattice:
    """The meet-closure of an issue set, materialized when small enough.

    Element tables (masks, positions) are filled in by ``build_lattice``;
    a lazy lattice answers ``member_form``, ``d_join`` and ``leq`` from
    the profile signatures alone.  Both hold every element as a
    ``LatticeElement``, whose partition is built only when read.
    """

    def __init__(self, issue_set):
        self.issue_set = issue_set
        self.n = issue_set.n
        self._ids = tuple(issue.id for issue in issue_set)
        self._bit = {issue_id: 1 << i for i, issue_id in enumerate(self._ids)}
        self._full = (1 << len(self._ids)) - 1
        sig = [0] * self.n
        for i, issue in enumerate(issue_set):
            for x in issue.agenda.partition.blocks[1]:
                sig[x] |= 1 << i
        self._sig = sig
        self._distinct_sigs = tuple(dict.fromkeys(sig))
        # generator index of each generator's own partition
        self._of_generator = {
            issue.agenda.partition.block_of: i
            for i, issue in enumerate(issue_set)
        }
        self.top = LatticeElement(self, 0, MeetOfIssues(()))
        self.bottom = self._element(self._full)
        self.elements = None
        self._masks = ()        # closed set of each listed element
        self._position = {}     # closed set -> index into elements

    # -- generator bitmasks ------------------------------------------------

    @functools.cached_property
    def _generator_masks(self):
        """Closed set of each generator, computed on first use."""
        return tuple(self._closure(1 << i) for i in range(len(self._ids)))

    def _group(self, mask):
        """Partition of the profiles by their signature bits in mask."""
        return pt.Partition._from_labels(self.n, [s & mask for s in self._sig])

    def _label(self, mask):
        return MeetOfIssues(tuple(sorted(i.id for i in self._issues(mask))))

    def _closure(self, mask):
        """Generators constant on every class of "group by sig & mask"."""
        first = {}
        varying = 0
        for s in self._distinct_sigs:
            varying |= s ^ first.setdefault(s & mask, s)
        return self._full & ~varying

    def _meet_mask(self, a, b):
        """Closed set of the meet of two elements given by closed sets."""
        union = a | b
        return union if union in (a, b) else self._closure(union)

    def _above(self, part):
        """Generators constant on every block of the partition."""
        sig = self._sig
        varying = 0
        for block in part.blocks:
            first = sig[block[0]]
            for x in block:
                varying |= sig[x] ^ first
        return self._full & ~varying

    def _mask_of(self, agenda):
        """Closed set of a lattice member: the generators above it.

        This lattice's own elements and its generators' agendas are read
        in O(1) (a closure for an element made from an unclosed mask on a
        lazy lattice); any other agenda is checked on its partition.
        """
        if isinstance(agenda, LatticeElement) and agenda.lattice is self:
            mask = agenda.mask
            return mask if mask in self._position else self._closure(mask)
        part = agenda.partition
        if part.n != self.n:
            raise GroundMismatch("agenda lives on a different ground set")
        index = self._of_generator.get(part.block_of)
        if index is not None:
            return self._generator_masks[index]
        mask = self._above(part)
        keys = {self._sig[block[0]] & mask for block in part.blocks}
        if len(keys) == len(part.blocks):
            return mask
        raise NotInLattice(
            f"agenda {agenda.label()} is not a meet of the issue set"
        )

    def _element(self, mask):
        """Meet of the generators in mask, labelled by every one of them."""
        if not mask:
            return self.top
        return LatticeElement(self, mask, self._label(mask))

    def _materialize(self, masks):
        """Fill the element tables from the closed sets.

        Elements are ordered by block count, the number of distinct
        ``sig & mask`` values, then label.  A generator is listed under its
        own id, the first in issue order when several generators share a
        partition; every other element is listed under all the generators
        above it.
        """
        own_id = {}
        for issue_id, mask in zip(self._ids, self._generator_masks):
            own_id.setdefault(mask, issue_id)
        rows = []
        for mask in masks:
            if mask in own_id:
                listed = LatticeElement(
                    self, mask, MeetOfIssues((own_id[mask],))
                )
            else:
                listed = self._element(mask)
            blocks = len({s & mask for s in self._distinct_sigs})
            rows.append((blocks, listed.label(), mask, listed))
        rows.sort(key=lambda row: row[:2])
        self.elements = tuple(row[3] for row in rows)
        self._masks = tuple(row[2] for row in rows)
        self._position = {mask: k for k, mask in enumerate(self._masks)}

    # -- lattice operations ------------------------------------------------

    def _issues(self, mask):
        return [
            issue for i, issue in enumerate(self.issue_set) if mask >> i & 1
        ]

    @property
    def materialized(self):
        return self.elements is not None

    def issues_above(self, agenda):
        """Issues above a lattice member, in issue-set order."""
        return self._issues(self._mask_of(agenda))

    def member_form(self, agenda):
        """Canonical lattice element equal to the agenda, if it is one.

        An agenda belongs to the lattice iff it equals the meet of the
        generators above it (the top element always belongs).
        """
        return self._element(self._mask_of(agenda))

    def __contains__(self, agenda):
        try:
            self._mask_of(agenda)
            return True
        except NotInLattice:
            return False
        except GroundMismatch:
            return False

    def d_join(self, agendas):
        """Least upper bound inside the lattice by generator filtering."""
        masks = [self._mask_of(a) for a in agendas]
        if not masks:
            return self.bottom
        return self._element(functools.reduce(operator.and_, masks))

    def leq(self, a, b):
        """Order of lattice members: every generator above b is above a.

        Both arguments must be lattice members; any other agenda raises
        NotInLattice (GroundMismatch when it lives on another ground set).
        """
        return not self._mask_of(b) & ~self._mask_of(a)

    # -- enumeration-backed structure ------------------------------------

    def _require_materialized(self):
        if not self.materialized:
            raise NotMaterialized(
                "materialize the lattice first (generator count within cap)"
            )

    def is_distributive(self):
        """Decide x & (y | z) == (x & y) | (x & z) for all triples.

        A finite lattice is distributive iff every meet-irreducible element
        is meet-prime (Davey & Priestley, Introduction to Lattices and
        Order, ch. 10).  Here the meet-irreducibles are the generators:
        each is a coatom of E(W), and any other element is the meet of the
        generators strictly above it.  So the verdict is
        ``issues_meet_prime``; only when that fails are the triples
        scanned, in ``itertools.product`` order, for the first witness.
        Returns (True, None) or (False, witness_triple).
        """
        self._require_materialized()
        if self.issues_meet_prime():
            return True, None
        masks, position = self._masks, self._position
        join = [[position[a & b] for b in masks] for a in masks]
        pairs = list(itertools.product(range(len(masks)), repeat=2))
        for x, mx in enumerate(masks):
            meet_x = [position[self._meet_mask(mx, b)] for b in masks]
            for y, z in pairs:
                # x & (y | z) against (x & y) | (x & z)
                if meet_x[join[y][z]] != join[meet_x[y]][meet_x[z]]:
                    elems = self.elements
                    return False, (elems[x], elems[y], elems[z])
        return True, None

    def is_complemented(self):
        """Every element has a complement (meet bottom, join top)."""
        self._require_materialized()
        masks, full = self._masks, self._full
        return all(
            any(not a & b and self._meet_mask(a, b) == full for b in masks)
            for a in masks
        )

    def is_boolean(self):
        """Is the lattice a Boolean algebra?

        Each element is the meet of the meet-irreducibles above it, so a
        lattice with k of them has at most 2^k elements, and exactly 2^k
        when every set of them is closed: then it is Boolean (Davey &
        Priestley, ch. 10).  Here they are the distinct generator
        partitions, one per closure(generator).
        """
        self._require_materialized()
        k = len(set(self._generator_masks))
        return len(self.elements) == 1 << k

    def issues_meet_prime(self):
        """Are all generators meet-prime over meets of element pairs?

        Checked, not assumed: several distribution laws only hold when a
        generator above a meet is above one of the meetands.  The closed
        sets lacking generator i are closed under pairwise meets exactly
        when the meet of all of them, the closure of their union, still
        lacks i.
        """
        self._require_materialized()
        for i in range(len(self._ids)):
            bit = 1 << i
            union = 0
            for mask in self._masks:
                if not mask & bit:
                    union |= mask
            if self._closure(union) & bit:
                return False
        return True

    def covers(self):
        """Covering pairs (lower, upper) of the materialized order.

        The lower covers of an element are the minimal closed sets among
        closure(C | generator) over the generators outside its set C.
        """
        self._require_materialized()
        uppers = [[] for _ in self._masks]
        for k, mask in enumerate(self._masks):
            below = {
                self._closure(mask | 1 << i)
                for i in range(len(self._ids))
                if not mask >> i & 1
            }
            for lower in below:
                if not any(
                    other != lower and not other & ~lower for other in below
                ):
                    uppers[self._position[lower]].append(k)
        elems = self.elements
        return [
            (elems[a], elems[b])
            for a in range(len(elems))
            for b in sorted(uppers[a])
        ]


def build_lattice(issue_set, cap=MATERIALIZE_CAP):
    """Enumerate the closed generator sets; stay lazy above the cap.

    Breadth-first from the empty set (the top element), every closed set
    C is extended by each generator outside it, as closure(C | generator),
    so the cost tracks the number of elements times the number of
    distinct generators.  No element's partition is built.
    """
    lattice = AgendaLattice(issue_set)
    if len(issue_set) > cap:
        return lattice
    closure = lattice._closure
    # a single generator closes to every generator sharing its partition
    steps = list(dict.fromkeys(lattice._generator_masks))
    found = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for mask in frontier:
            for step in steps:
                if step & ~mask:
                    closed = closure(mask | step)
                    if closed not in found:
                        found.add(closed)
                        fresh.append(closed)
        frontier = fresh
    lattice._materialize(found)
    return lattice


def projection_issue_set(space, names=None):
    """One projection issue per parameter (binary-scale parameters)."""
    names = list(names) if names is not None else list(space.names)
    issues = []
    for name in names:
        agenda = projection_agenda(space, [name])
        issues.append(Issue(id=f"param:{name}", agenda=agenda))
    return IssueSet(issues)


def candidate_set_C(space, agent_params):
    """All meets where each agent vetoes one parameter of every other agent.

    ``agent_params`` maps each agent to their relevant parameter set.  A
    veto leaves the projection onto P_j - {d} of the vetoed agent j, and
    projections meet by the union of their parameter sets.  So agent j's
    k - 1 vetoers leave P_j - {d} when all of them drop the same d, and
    all of P_j when two of them drop different parameters (k >= 3 and
    |P_j| >= 2).  Every meet is the projection onto one union of such
    per-agent sets, and every union is reached: one projection per
    distinct union, of at most prod(p_j + 1), and no partition meet.  The
    result is duplicate-free by partition and ordered by coarseness then
    label.
    """
    agents = sorted(agent_params)
    if len(agents) < 2:
        raise EmptyAgendaSet("the candidate set needs at least two agents")
    options = []
    for agent in agents:
        names = frozenset(agent_params[agent])
        if not names:
            raise EmptyAgendaSet("cannot coarsen the empty parameter set")
        # a one-parameter agent is only ever projected onto the empty set
        space._param_positions(sorted(names))
        kept = [names - {drop} for drop in sorted(names)]
        if len(agents) >= 3 and len(names) >= 2:
            kept.append(names)
        options.append(kept)
    total = math.prod(map(len, options))
    if total > CANDIDATE_CAP:
        raise CapExceeded(
            f"the candidate set walks {total} unions, above the cap "
            f"{CANDIDATE_CAP}"
        )
    unions = dict.fromkeys(
        frozenset().union(*choice) for choice in itertools.product(*options)
    )
    out = {}
    for union in unions:
        agenda = projection_agenda(space, sorted(union))
        out.setdefault(agenda.partition, agenda)
    return sorted(
        out.values(), key=lambda a: (-len(a.partition.blocks), a.label())
    )
